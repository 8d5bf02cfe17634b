//! Two-level topology-aware placement: shard across nodes, TreeMatch
//! within each node.
//!
//! Stage 1 treats node assignment as a clustering problem: partition the
//! task graph over the cluster's nodes minimising the fabric-weighted
//! inter-node cut ([`mod@orwl_treematch::partition`], with part distances from
//! the rack layout).  Stage 2 runs the paper's Algorithm 1 (TreeMatch)
//! *inside* each node on the matrix restricted to that node's tasks.  The
//! result is a global [`Placement`] plus the explicit node assignment the
//! backend uses for data placement and for pricing migrations.

use crate::machine::ClusterMachine;
use orwl_comm::matrix::CommMatrix;
use orwl_treematch::algorithm::TreeMatchMapper;
use orwl_treematch::mapping::Placement;
use orwl_treematch::partition::{cut_bytes, partition, treematch_within_parts, PartCosts};
use orwl_treematch::policies::{compute_placement, Policy};

/// A two-level placement: where every task runs, and on which node its
/// working set (its owned locations) lives.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlacement {
    /// Node hosting each task (and, by first-touch, each task's locations).
    pub node_of_task: Vec<usize>,
    /// The global thread → PU placement (PU indices are cluster-global).
    pub placement: Placement,
}

impl ClusterPlacement {
    /// The dense global mapping, unbound tasks defaulting to the first PU
    /// of their assigned node.
    pub fn global_mapping(&self, machine: &ClusterMachine) -> Vec<usize> {
        let per_node = machine.cluster().pus_per_node();
        self.placement
            .compute
            .iter()
            .enumerate()
            .map(|(t, pu)| pu.unwrap_or(self.node_of_task[t] * per_node))
            .collect()
    }

    /// Bytes of `m` crossing node boundaries under this placement.
    pub fn inter_node_bytes(&self, m: &CommMatrix) -> f64 {
        cut_bytes(m, &self.node_of_task)
    }
}

/// Computes the two-level placement of the `m.order()` tasks on `machine`.
///
/// Node capacities equal the PUs per node; when the task count exceeds the
/// whole cluster, the per-node capacity is relaxed evenly and TreeMatch's
/// oversubscription extension stacks tasks within nodes.
///
/// The two-level result is additionally benchmarked against a flat
/// TreeMatch run on the flattened topology: the candidate with the lower
/// fabric-weighted cut wins, ties broken by total hop-bytes.  Direct k-way
/// partitioning with refinement beats TreeMatch's bottom-up grouping on
/// the cut whenever they differ, and when they tie the flat mapping's
/// globally-optimised intra-node ordering cannot be worse — so
/// `Hierarchical` is never worse than flat TreeMatch on either metric.
///
/// The partition, the flat candidate and both cut comparisons read `m`
/// through its one sparse view ([`CommMatrix::sparse`]): the first of them
/// builds it, unless a reader of `m` already did.
pub fn hierarchical_placement(machine: &ClusterMachine, m: &CommMatrix) -> ClusterPlacement {
    let n_tasks = m.order();
    let cluster = machine.cluster();
    let n_nodes = cluster.n_nodes();
    let per_node = cluster.pus_per_node();
    if n_tasks == 0 {
        return ClusterPlacement { node_of_task: Vec::new(), placement: Placement::unbound(0, 0) };
    }

    // Stage 1: shard over nodes, cut weighted by the rack-aware fabric.
    let costs = PartCosts::from_fn(n_nodes, |a, b| machine.relative_node_cost(a, b));
    let capacity = per_node.max(n_tasks.div_ceil(n_nodes));
    let node_of_task =
        partition(m, &costs, capacity).expect("capacity is relaxed to ceil(tasks/nodes), which always fits");

    // Stage 2: TreeMatch inside each node on the restricted matrix (the
    // shared stage-2 of `Policy::Hierarchical`; node subtrees own
    // contiguous global PU ranges, so `global = node * per_node + local`).
    let compute = treematch_within_parts(cluster.node_topology(), m, &node_of_task, n_nodes, per_node);
    let two_level = ClusterPlacement { node_of_task, placement: Placement { compute, control: Vec::new() } };

    // Candidate refinement: flat TreeMatch on the flattened topology, with
    // its implied node assignment read back from the mapping.
    let flat_topo = machine.topology();
    let flat = TreeMatchMapper::compute_only().compute_placement(flat_topo, m);
    if !flat.compute.iter().all(Option::is_some) {
        return two_level;
    }
    let flat_mapping: Vec<usize> = flat.compute.iter().map(|pu| pu.unwrap()).collect();
    let flat_nodes: Vec<usize> = flat_mapping.iter().map(|&pu| cluster.node_of_pu(pu)).collect();
    // Flat TreeMatch stacks oversubscribed tasks by affinity with no
    // per-node balance guarantee; a candidate that overloads a node is not
    // a valid two-level placement.
    let mut load = vec![0usize; n_nodes];
    for &node in &flat_nodes {
        load[node] += 1;
    }
    if load.iter().any(|&l| l > capacity) {
        return two_level;
    }
    let flat_candidate = ClusterPlacement {
        node_of_task: flat_nodes,
        placement: Placement { compute: flat.compute, control: Vec::new() },
    };

    let weighted_cut =
        |cp: &ClusterPlacement| crate::metrics::cluster_cost(machine, m, &cp.global_mapping(machine));
    let hop =
        |cp: &ClusterPlacement| orwl_comm::metrics::hop_bytes(m, flat_topo, &cp.global_mapping(machine));
    let (two_cut, flat_cut) = (weighted_cut(&two_level), weighted_cut(&flat_candidate));
    if flat_cut < two_cut * (1.0 - 1e-12)
        || ((flat_cut - two_cut).abs() <= two_cut * 1e-12 && hop(&flat_candidate) < hop(&two_level))
    {
        flat_candidate
    } else {
        two_level
    }
}

/// Re-homes a dead node's tasks onto the survivors — the cluster-level
/// entry to [`orwl_adapt::reshard_after_loss`], with the attraction
/// weights derived from the *shrunk* topology
/// ([`ClusterTopology::without_node`](orwl_topo::cluster::ClusterTopology::without_node)):
/// a survivor in the same rack as a traffic partner attracts more than
/// one across the spine, under the post-loss rack layout (a loss that
/// empties a rack collapses its fabric distances).  Only the dead node's
/// shard moves; survivors keep their tasks and node indices.  `down`
/// names nodes lost in earlier episodes: they host nothing any more but
/// must never be offered as a home again.
///
/// # Panics
/// Panics when `dead` is out of range or the cluster has no survivor.
#[must_use]
pub fn reshard_after_node_loss(
    machine: &ClusterMachine,
    m: &CommMatrix,
    node_of_task: &[usize],
    dead: usize,
    down: &[usize],
) -> orwl_adapt::ReshardPlan {
    use orwl_topo::cluster::FabricClass;
    let cluster = machine.cluster();
    let shrunk = cluster.without_node(dead).expect("a reshard needs at least one survivor");
    // Survivors keep their relative order in the shrunk cluster, so the
    // original index maps by rank among survivors.
    let shrunk_of = |node: usize| if node < dead { node } else { node - 1 };
    let same_rack = machine.fabric().per_byte(FabricClass::SameRack);
    let affinity = move |a: usize, b: usize| {
        if a == b {
            return 1.0;
        }
        let class = if shrunk.rack_of_node(shrunk_of(a)) == shrunk.rack_of_node(shrunk_of(b)) {
            FabricClass::SameRack
        } else {
            FabricClass::CrossRack
        };
        1.0 / (1.0 + machine.fabric().per_byte(class) / same_rack)
    };
    orwl_adapt::reshard_after_loss(m, node_of_task, cluster.n_nodes(), dead, down, &affinity)
}

/// The two-level placement any `policy` produces on `machine` — the
/// shared node-sharding step of the cluster-simulator and multi-process
/// backends, so both lay the same tasks on the same nodes and the
/// simulator's predicted inter-node traffic is directly comparable with
/// the measured one.
///
/// [`Policy::Hierarchical`] runs the full two-level pipeline
/// ([`hierarchical_placement`]); flat policies run on the flattened
/// topology and get their node assignment read back from the mapping
/// (this is what makes Scatter-on-a-cluster the instructive baseline: it
/// round-robins blissfully across machines).  [`Policy::NoBind`] is the
/// OS-spread model: a seeded random PU permutation with no affinity.
pub fn policy_placement(
    machine: &ClusterMachine,
    policy: Policy,
    control_threads: usize,
    nobind_seed: u64,
    matrix: &CommMatrix,
) -> ClusterPlacement {
    let mapping: Vec<usize> = match policy {
        Policy::Hierarchical => return hierarchical_placement(machine, matrix),
        Policy::NoBind => {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut pus = machine.topology().pu_os_indices();
            let mut rng = rand::rngs::StdRng::seed_from_u64(nobind_seed);
            pus.shuffle(&mut rng);
            (0..matrix.order()).map(|t| pus[t % pus.len()]).collect()
        }
        policy => {
            let flat = machine.topology();
            let placement = compute_placement(policy, flat, matrix, control_threads);
            let pus = flat.pu_os_indices();
            placement.compute_mapping_with(|t| pus[t % pus.len()])
        }
    };
    let node_of_task = mapping.iter().map(|&pu| machine.cluster().node_of_pu(pu)).collect();
    ClusterPlacement {
        node_of_task,
        placement: Placement { compute: mapping.into_iter().map(Some).collect(), control: Vec::new() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::patterns;
    use proptest::prelude::*;

    #[test]
    fn clustered_pattern_maps_one_group_per_node() {
        let machine = ClusterMachine::paper(4); // 4 nodes × 16 PUs
        let m = patterns::clustered(4, 16, 1000.0, 1.0);
        let p = hierarchical_placement(&machine, &m);
        assert_eq!(p.node_of_task.len(), 64);
        // Each heavy group of 16 occupies exactly one node.
        for g in 0..4 {
            let nodes: std::collections::HashSet<usize> =
                (0..16).map(|i| p.node_of_task[g * 16 + i]).collect();
            assert_eq!(nodes.len(), 1, "group {g} split across nodes {nodes:?}");
        }
        // Only the light inter-group ring crosses the fabric.
        assert!(p.inter_node_bytes(&m) < 0.01 * m.total_volume());
        // Every task is bound inside its assigned node.
        for (t, pu) in p.placement.compute.iter().enumerate() {
            let pu = pu.expect("two-level placement binds every task");
            assert_eq!(machine.cluster().node_of_pu(pu), p.node_of_task[t]);
        }
        p.placement.validate_against(machine.topology()).unwrap();
    }

    #[test]
    fn oversubscribed_cluster_still_places_every_task() {
        let machine = ClusterMachine::paper(2); // 32 PUs
        let m = patterns::chain(80, 10.0); // 2.5 tasks per PU
        let p = hierarchical_placement(&machine, &m);
        assert!(p.placement.compute.iter().all(Option::is_some));
        for (t, pu) in p.placement.compute.iter().enumerate() {
            assert_eq!(machine.cluster().node_of_pu(pu.unwrap()), p.node_of_task[t]);
        }
    }

    #[test]
    fn empty_matrix_is_an_empty_placement() {
        let machine = ClusterMachine::paper(2);
        let p = hierarchical_placement(&machine, &CommMatrix::zeros(0));
        assert!(p.node_of_task.is_empty());
        assert_eq!(p.placement.n_compute(), 0);
    }

    #[test]
    fn policy_placement_matches_its_ingredients() {
        let machine = ClusterMachine::paper(2);
        let m = patterns::clustered(2, 16, 1000.0, 1.0);
        // Hierarchical delegates to the two-level pipeline.
        assert_eq!(
            policy_placement(&machine, Policy::Hierarchical, 0, 0, &m),
            hierarchical_placement(&machine, &m)
        );
        // Flat policies read their node assignment back from the mapping.
        let scatter = policy_placement(&machine, Policy::Scatter, 0, 0, &m);
        assert!(scatter.placement.compute.iter().all(Option::is_some));
        for (t, pu) in scatter.placement.compute.iter().enumerate() {
            assert_eq!(machine.cluster().node_of_pu(pu.unwrap()), scatter.node_of_task[t]);
        }
        // NoBind is reproducible per seed and differs across seeds.
        let a = policy_placement(&machine, Policy::NoBind, 0, 42, &m);
        let b = policy_placement(&machine, Policy::NoBind, 0, 42, &m);
        let c = policy_placement(&machine, Policy::NoBind, 0, 7, &m);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn node_loss_reshard_moves_only_the_dead_shard() {
        let machine = ClusterMachine::paper(4);
        let m = patterns::clustered(4, 9, 1000.0, 1.0);
        let p = hierarchical_placement(&machine, &m);
        let dead = p.node_of_task[0];
        let plan = reshard_after_node_loss(&machine, &m, &p.node_of_task, dead, &[]);
        assert_eq!(plan.dead, dead);
        assert!(!plan.migrated_tasks.is_empty());
        assert!(!plan.node_of_task.contains(&dead), "the dead node must host nothing");
        for (t, &node) in p.node_of_task.iter().enumerate() {
            if node != dead {
                assert_eq!(plan.node_of_task[t], node, "survivor task {t} must not move");
            }
        }
        // Deterministic: the same loss re-shards the same way.
        assert_eq!(plan, reshard_after_node_loss(&machine, &m, &p.node_of_task, dead, &[]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // A matrix whose sparse view is built places like a copy that never
        // built one: partition, the per-node TreeMatch runs, the flat
        // candidate and the two cut comparisons all read the view.
        #[test]
        fn a_warm_matrix_places_like_a_cold_one(
            tasks in 2usize..40,
            nodes in 2usize..4,
            seed in 0u64..10_000,
        ) {
            let machine = ClusterMachine::paper(nodes);
            let cold = patterns::power_law(tasks, 2, 1.0e6 / 3.0, seed).symmetrized();
            let warm = cold.clone();
            warm.sparse();
            prop_assert_eq!(hierarchical_placement(&machine, &warm), hierarchical_placement(&machine, &cold));
        }
    }

    #[test]
    fn global_mapping_defaults_unbound_tasks_to_their_node() {
        let machine = ClusterMachine::paper(2);
        let p = ClusterPlacement {
            node_of_task: vec![0, 1],
            placement: Placement { compute: vec![Some(3), None], control: vec![] },
        };
        assert_eq!(p.global_mapping(&machine), vec![3, 16]);
    }
}
