//! Algorithm 1 of the paper: the TreeMatch-based mapping algorithm with the
//! two ORWL-specific extensions (control threads and oversubscription).
//!
//! ```text
//! Input: T    — the topology tree
//! Input: m    — the communication matrix
//! Input: D    — the depth of the tree
//! 1  m ← extend_to_manage_control_threads(m)
//! 2  T ← manage_oversubscription(T, m)
//! 3  groups[1..D−1] = ∅
//! 4  foreach depth ← D−1..1            // start from the leaves
//! 5      p ← order of m
//! 6      groups[depth] ← GroupProcesses(T, m, depth)
//! 7      m ← AggregateComMatrix(m, groups[depth])
//! 8  MapGroups(T, groups)
//! ```
//!
//! The result is a [`Placement`]: a PU for every computation thread and —
//! when the hardware allows it — for every control thread.

use crate::control::{decide_control_mode, extend_for_control, ControlPlacementMode, ControlThreadSpec};
use crate::grouping::{group_processes_sparse, GroupingScratch};
use crate::mapping::Placement;
use crate::oversub::{manage_oversubscription, OversubPlan};
use orwl_comm::aggregate::{aggregate_sparse_into, AggregateScratch, Groups};
use orwl_comm::matrix::CommMatrix;
use orwl_comm::sparse::SparseComm;
use orwl_topo::object::ObjectType;
use orwl_topo::topology::{Topology, TreeShape};

/// Reusable buffers of the whole placement pipeline.  A caller that
/// computes placements repeatedly — the adaptive engine re-placing every
/// drift epoch, a policy sweep, the scaling harness — holds one
/// `PlacementScratch` and stops allocating per tree level per placement.
///
/// Nothing here is `p × p`: the caller's matrix is read through its own
/// view ([`CommMatrix::sparse`], built once per matrix), and the only dense
/// intermediates are the aggregated level matrices, of order `⌈p / arity⌉`
/// and smaller.
#[derive(Debug, Default, Clone)]
pub struct PlacementScratch {
    /// The sparse view of the aggregated level being grouped.
    view: SparseComm,
    /// The aggregated matrix the next level will group.
    level: CommMatrix,
    /// Aggregation owner table.
    agg: AggregateScratch,
    /// Grouping-phase buffers.
    grouping: GroupingScratch,
}

impl PlacementScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PlacementScratch::default()
    }
}

/// Configuration of the mapping algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TreeMatchConfig {
    /// Control threads the runtime will start (set `count` to 0 when the
    /// caller only wants compute threads placed).
    pub control: ControlThreadSpec,
}

/// The TreeMatch-based placement algorithm (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct TreeMatchMapper {
    config: TreeMatchConfig,
}

impl TreeMatchMapper {
    /// Creates a mapper with the given configuration.
    pub fn new(config: TreeMatchConfig) -> Self {
        TreeMatchMapper { config }
    }

    /// Creates a mapper that only places compute threads.
    pub fn compute_only() -> Self {
        TreeMatchMapper { config: TreeMatchConfig { control: ControlThreadSpec::with_count(0) } }
    }

    /// Runs Algorithm 1: computes a placement of the `m.order()` compute
    /// threads (plus the configured control threads) onto the PUs of `topo`.
    ///
    /// Returns an all-unbound placement when the matrix is empty.
    pub fn compute_placement(&self, topo: &Topology, m: &CommMatrix) -> Placement {
        self.compute_placement_with(topo, m, &mut PlacementScratch::new())
    }

    /// Allocation-reusing variant of
    /// [`compute_placement`](TreeMatchMapper::compute_placement): identical
    /// output, but every intermediate lives in `scratch` and is
    /// reused across calls — the form the adaptive engine uses so epoch
    /// re-placements stop allocating.
    pub fn compute_placement_with(
        &self,
        topo: &Topology,
        m: &CommMatrix,
        scratch: &mut PlacementScratch,
    ) -> Placement {
        let n_compute = m.order();
        let n_control = self.config.control.count;
        if n_compute == 0 {
            return Placement::unbound(0, n_control);
        }

        let mode = decide_control_mode(topo, n_compute, n_control);
        match mode {
            ControlPlacementMode::HyperthreadReserve => self.place_with_hyperthread_reserve(topo, m, scratch),
            ControlPlacementMode::SpareCores => self.place_with_spare_cores(topo, m, scratch),
            ControlPlacementMode::Unmapped => {
                let compute = self.place_on_pus(topo, m, scratch);
                Placement { compute, control: vec![None; n_control] }
            }
        }
    }

    /// Line 1 variant (a): hyperthreading available — place compute threads
    /// one per physical core (first hardware thread), and put each control
    /// thread on the sibling hardware thread of the core hosting the compute
    /// thread it exchanges the most with.
    fn place_with_hyperthread_reserve(
        &self,
        topo: &Topology,
        m: &CommMatrix,
        scratch: &mut PlacementScratch,
    ) -> Placement {
        let n_compute = m.order();
        let n_control = self.config.control.count;

        // Tree with the cores as leaves: drop the PU level.
        let full = topo.shape();
        let core_shape = TreeShape::new(full.arities[..full.arities.len() - 1].to_vec());
        let entity_to_core = tree_match_assign_with(&core_shape, m, scratch);

        let cores = topo.objects_of_type(ObjectType::Core);
        let compute: Vec<Option<usize>> = entity_to_core
            .iter()
            .map(|&core_idx| {
                let core = cores[core_idx % cores.len()];
                core.cpuset.first()
            })
            .collect();

        // Control thread k goes to the sibling hyperthread of the core of
        // its most-communicating served compute thread.
        let mut control = Vec::with_capacity(n_control);
        for k in 0..n_control {
            let served = self.config.control.served_by(k, n_compute);
            let target = served
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    m.traffic_of(a).partial_cmp(&m.traffic_of(b)).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(k.min(n_compute.saturating_sub(1)));
            let core_idx = entity_to_core[target] % cores.len();
            let core = cores[core_idx];
            // Second PU of the core (the reserved hyperthread); fall back to
            // the first when the core is single-threaded.
            let sibling = core.cpuset.nth(1).or_else(|| core.cpuset.first());
            control.push(sibling);
        }
        Placement { compute, control }
    }

    /// Line 1 variant (b): no SMT but spare cores — extend the matrix with
    /// the control threads and map everything onto the PUs.
    fn place_with_spare_cores(
        &self,
        topo: &Topology,
        m: &CommMatrix,
        scratch: &mut PlacementScratch,
    ) -> Placement {
        let n_compute = m.order();
        let n_control = self.config.control.count;
        let ext = extend_for_control(m, &self.config.control);
        let all = self.place_on_pus(topo, &ext, scratch);
        let compute = all[..n_compute].to_vec();
        let control = all[n_compute..n_compute + n_control].to_vec();
        Placement { compute, control }
    }

    /// Core of the algorithm: map every entity of `m` to a PU of `topo`.
    fn place_on_pus(
        &self,
        topo: &Topology,
        m: &CommMatrix,
        scratch: &mut PlacementScratch,
    ) -> Vec<Option<usize>> {
        let shape = topo.shape();
        let entity_to_leaf = tree_match_assign_with(&shape, m, scratch);
        let pus = topo.pus();
        entity_to_leaf.iter().map(|&leaf| pus.get(leaf % pus.len()).map(|pu| pu.os_index)).collect()
    }
}

/// Lines 2–8 of Algorithm 1 on a balanced tree shape: returns, for every
/// entity of the matrix, the index of the **physical leaf** it is assigned
/// to (several entities may share a leaf under oversubscription).
pub fn tree_match_assign(shape: &TreeShape, m: &CommMatrix) -> Vec<usize> {
    tree_match_assign_with(shape, m, &mut PlacementScratch::new())
}

/// Allocation-reusing variant of [`tree_match_assign`]: identical output,
/// with the aggregated level matrices and their views living in `scratch`
/// instead of being reallocated at every level.
pub(crate) fn tree_match_assign_with(
    shape: &TreeShape,
    m: &CommMatrix,
    scratch: &mut PlacementScratch,
) -> Vec<usize> {
    let p = m.order();
    if p == 0 {
        return Vec::new();
    }
    // Degenerate tree (no internal level): everything on leaf 0.
    if shape.arities.is_empty() {
        return vec![0; p];
    }

    // Line 2: add a virtual level when there are more entities than leaves.
    let plan = manage_oversubscription(shape, p);
    let arities = &plan.shape.arities;
    let levels = arities.len();

    // Lines 4–7: group from the leaves towards the root, aggregating the
    // matrix between levels.  Each level is grouped and aggregated through
    // its sparse view: the caller's matrix's own (built here on its first
    // solve, kept for the next reader), then the scratch view of the
    // aggregated matrix of the level below, the only dense intermediate —
    // no per-level allocation once the buffers are warm.
    let mut partitions: Vec<Groups> = Vec::with_capacity(levels);
    // Per-phase timing accumulates across levels into one `group` and one
    // `coarsen` span per solve; the clock is only read when recording is on.
    let observing = orwl_obs::enabled();
    let mut group_ns = 0u64;
    let mut coarsen_ns = 0u64;
    for l in (0..levels).rev() {
        let t0 = observing.then(std::time::Instant::now);
        let view = if partitions.is_empty() {
            m.sparse()
        } else {
            scratch.view.rebuild(&scratch.level);
            &scratch.view
        };
        let t1 = observing.then(std::time::Instant::now);
        let groups = group_processes_sparse(view, arities[l], &mut scratch.grouping);
        let t2 = observing.then(std::time::Instant::now);
        // The root level's groups are final: nothing reads their aggregate.
        if l > 0 {
            aggregate_sparse_into(view, &groups, &mut scratch.agg, &mut scratch.level);
        }
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            group_ns += (t2 - t1).as_nanos() as u64;
            coarsen_ns += ((t1 - t0) + t2.elapsed()).as_nanos() as u64;
        }
        partitions.push(groups);
    }
    if observing {
        orwl_obs::solve_phase_ns(orwl_obs::SolvePhase::Group, group_ns);
        orwl_obs::solve_phase_ns(orwl_obs::SolvePhase::Coarsen, coarsen_ns);
    }
    map_groups(&partitions, &plan, p)
}

/// Line 8 of Algorithm 1 (`MapGroups`): walks the hierarchy of groups
/// top-down — `partitions[0]` groups the `p` entities, each later stage
/// groups the groups of the one before — assigning each group a leaf slot
/// aligned on subtree boundaries so that a group never straddles two
/// parents, and returns every entity's physical leaf.
pub(crate) fn map_groups(partitions: &[Groups], plan: &OversubPlan, p: usize) -> Vec<usize> {
    let arities = &plan.shape.arities;
    let levels = arities.len();
    // `width[s]` = number of (virtual) leaves spanned by one stage-`s`
    // entity: a stage-0 entity is an original thread (width 1), a stage-1
    // entity is a bottom-level group (width = deepest arity), and so on.
    let mut width = vec![1usize; levels + 1];
    for s in 1..=levels {
        width[s] = width[s - 1] * arities[levels - s];
    }

    let mut virtual_leaf = vec![0usize; p];
    // The top stage has exactly one group (guaranteed by the ceil-chain of
    // group counts); iterate defensively anyway.
    let top = partitions.len() - 1;
    for (g, _) in partitions[top].iter().enumerate() {
        assign_rec(partitions, top + 1, g, g * width[levels], &width, &mut virtual_leaf);
    }

    // Fold virtual leaves back onto physical leaves.
    virtual_leaf.into_iter().map(|v| plan.physical_leaf(v)).collect()
}

/// Recursive slot assignment: stage-`stage` entity `entity` occupies the
/// leaf range starting at `base`.
fn assign_rec(
    partitions: &[Groups],
    stage: usize,
    entity: usize,
    base: usize,
    width: &[usize],
    out: &mut Vec<usize>,
) {
    if stage == 0 {
        out[entity] = base;
        return;
    }
    let members = &partitions[stage - 1][entity];
    for (i, &member) in members.iter().enumerate() {
        assign_rec(partitions, stage - 1, member, base + i * width[stage - 1], width, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::metrics::{hop_bytes, mapping_cost_default};
    use orwl_comm::patterns;
    use orwl_topo::synthetic;

    #[test]
    fn assign_respects_subtree_alignment() {
        // Chain of 6 on a 2×4 = 8-leaf tree: pairs must stay in the same
        // subtree of 4 and adjacent pairs should share it when possible.
        let shape = TreeShape::new(vec![2, 4]);
        let m = patterns::chain(6, 10.0);
        let leaves = tree_match_assign(&shape, &m);
        assert_eq!(leaves.len(), 6);
        // All leaves are within range and distinct (no oversubscription).
        let mut sorted = leaves.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert!(leaves.iter().all(|&l| l < 8));
        // Threads 0 and 1 (heavily communicating chain neighbours) share the
        // 4-leaf subtree.
        assert_eq!(leaves[0] / 4, leaves[1] / 4);
    }

    #[test]
    fn assign_handles_oversubscription() {
        // 8 entities on a 4-leaf tree: each leaf hosts exactly 2 entities.
        let shape = TreeShape::new(vec![2, 2]);
        let m = patterns::chain(8, 1.0);
        let leaves = tree_match_assign(&shape, &m);
        assert_eq!(leaves.len(), 8);
        assert!(leaves.iter().all(|&l| l < 4));
        let mut counts = [0usize; 4];
        for &l in &leaves {
            counts[l] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn assign_empty_and_degenerate() {
        assert!(tree_match_assign(&TreeShape::new(vec![2, 2]), &CommMatrix::zeros(0)).is_empty());
        let flat = tree_match_assign(&TreeShape::new(vec![]), &patterns::chain(3, 1.0));
        assert_eq!(flat, vec![0, 0, 0]);
    }

    #[test]
    fn treematch_beats_scatter_on_clustered_matrix() {
        let topo = synthetic::cluster2016_subset(4).unwrap(); // 4 sockets × 8 cores
        let m = patterns::clustered(4, 8, 1000.0, 1.0);
        let placement = TreeMatchMapper::compute_only().compute_placement(&topo, &m);
        assert_eq!(placement.n_compute(), 32);
        assert!(placement.is_injective());
        placement.validate_against(&topo).unwrap();
        let tm = placement.compute_mapping_or_zero();

        // Scatter round-robin over sockets: the worst thing one can do here.
        let scatter: Vec<usize> = (0..32).map(|t| (t % 4) * 8 + t / 4).collect();
        assert!(mapping_cost_default(&m, &topo, &tm) < mapping_cost_default(&m, &topo, &scatter));
        assert!(hop_bytes(&m, &topo, &tm) < hop_bytes(&m, &topo, &scatter));
    }

    #[test]
    fn treematch_keeps_clusters_on_one_socket() {
        let topo = synthetic::cluster2016_subset(4).unwrap();
        let m = patterns::clustered(4, 8, 1000.0, 1.0);
        let placement = TreeMatchMapper::compute_only().compute_placement(&topo, &m);
        let mapping = placement.compute_mapping_or_zero();
        // Every cluster of 8 threads must land on a single socket (8 cores
        // per socket, intra-cluster volume dominates).
        for c in 0..4 {
            let sockets: std::collections::HashSet<usize> = (0..8).map(|i| mapping[c * 8 + i] / 8).collect();
            assert_eq!(sockets.len(), 1, "cluster {c} spread over sockets {sockets:?}");
        }
    }

    #[test]
    fn stencil_placement_quality_on_paper_machine() {
        // 8×8 stencil tasks on two sockets: TreeMatch must do at least as
        // well as the naive packed placement and better than scatter.
        let topo = synthetic::cluster2016_subset(8).unwrap(); // 64 cores
        let spec = patterns::StencilSpec::nine_point_blocks(8, 2048, 8);
        let m = patterns::stencil_2d(&spec);
        let placement = TreeMatchMapper::compute_only().compute_placement(&topo, &m);
        let tm = placement.compute_mapping_or_zero();
        let packed: Vec<usize> = (0..64).collect();
        let scatter: Vec<usize> = (0..64).map(|t| (t % 8) * 8 + t / 8).collect();
        let cost_tm = mapping_cost_default(&m, &topo, &tm);
        let cost_packed = mapping_cost_default(&m, &topo, &packed);
        let cost_scatter = mapping_cost_default(&m, &topo, &scatter);
        assert!(cost_tm <= cost_packed * 1.05, "tm={cost_tm} packed={cost_packed}");
        assert!(cost_tm < cost_scatter, "tm={cost_tm} scatter={cost_scatter}");
    }

    #[test]
    fn hyperthread_reserve_places_control_on_siblings() {
        let topo = synthetic::dual_socket_smt(); // 32 cores × 2 PUs
        let m = patterns::clustered(4, 8, 100.0, 1.0); // 32 compute threads
        let mapper = TreeMatchMapper::new(TreeMatchConfig {
            control: ControlThreadSpec { count: 4, affinity_fraction: 0.2 },
        });
        let placement = mapper.compute_placement(&topo, &m);
        assert_eq!(placement.n_compute(), 32);
        assert_eq!(placement.n_control(), 4);
        placement.validate_against(&topo).unwrap();
        // Every compute thread is on the first hyperthread of its core
        // (even PU index on this topology), every control thread on a
        // second hyperthread (odd index).
        for pu in placement.compute.iter().flatten() {
            assert_eq!(pu % 2, 0, "compute thread on reserved hyperthread {pu}");
        }
        for pu in placement.control.iter().flatten() {
            assert_eq!(pu % 2, 1, "control thread on a compute hyperthread {pu}");
        }
        assert!(placement.is_injective());
    }

    #[test]
    fn spare_core_mode_binds_control_threads() {
        let topo = synthetic::cluster2016_subset(2).unwrap(); // 16 cores, no SMT
        let m = patterns::clustered(2, 4, 100.0, 1.0); // 8 compute threads
        let mapper = TreeMatchMapper::new(TreeMatchConfig {
            control: ControlThreadSpec { count: 2, affinity_fraction: 0.2 },
        });
        let placement = mapper.compute_placement(&topo, &m);
        assert_eq!(placement.control.len(), 2);
        assert!(placement.control.iter().all(Option::is_some));
        // Control threads must not steal a compute thread's core.
        let compute_set: std::collections::HashSet<usize> =
            placement.compute.iter().flatten().copied().collect();
        for pu in placement.control.iter().flatten() {
            assert!(!compute_set.contains(pu), "control thread shares PU {pu} with a compute thread");
        }
    }

    #[test]
    fn unmapped_mode_leaves_control_to_os() {
        let topo = synthetic::cluster2016_subset(1).unwrap(); // 8 cores
        let m = patterns::all_to_all(8, 10.0); // saturates the socket
        let mapper = TreeMatchMapper::new(TreeMatchConfig {
            control: ControlThreadSpec { count: 2, affinity_fraction: 0.2 },
        });
        let placement = mapper.compute_placement(&topo, &m);
        assert!(placement.compute.iter().all(Option::is_some));
        assert_eq!(placement.control, vec![None, None]);
    }

    #[test]
    fn empty_matrix_gives_unbound_placement() {
        let topo = synthetic::laptop();
        let placement = TreeMatchMapper::default().compute_placement(&topo, &CommMatrix::zeros(0));
        assert_eq!(placement.n_compute(), 0);
    }

    #[test]
    fn oversubscribed_workload_is_balanced_over_pus() {
        let topo = synthetic::cluster2016_subset(1).unwrap(); // 8 cores
        let m = patterns::chain(24, 10.0); // 3 threads per core
        let placement = TreeMatchMapper::compute_only().compute_placement(&topo, &m);
        let mapping = placement.compute_mapping_or_zero();
        let mut counts = std::collections::HashMap::new();
        for pu in &mapping {
            *counts.entry(*pu).or_insert(0usize) += 1;
        }
        // Every PU hosts exactly 3 threads.
        assert_eq!(counts.len(), 8);
        assert!(counts.values().all(|&c| c == 3), "unbalanced oversubscription: {counts:?}");
    }
}
