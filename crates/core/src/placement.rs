//! The topology-aware placement add-on (the paper's contribution, glued to
//! the runtime).
//!
//! Given an [`OrwlProgram`], this module extracts the task-to-task
//! communication matrix from the declared location links, runs the selected
//! placement policy (TreeMatch for the paper's "Bind" configuration) on the
//! machine topology, and produces a [`PlacementPlan`] the runtime applies
//! when it spawns its computation and control threads.

use crate::task::OrwlProgram;
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::{hop_bytes, traffic_breakdown, TrafficBreakdown};
use orwl_topo::topology::{LevelSpec, Topology};
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::{compute_placement, Policy};
use std::sync::OnceLock;

/// Cached Scatter "OS guess" keyed by everything it depends on: the
/// topology's identity/structure and the number of threads mapped.
#[derive(Debug, Clone)]
struct OsGuessCache {
    topo_name: String,
    topo_spec: Vec<LevelSpec>,
    nb_pus: usize,
    order: usize,
    mapping: Vec<usize>,
}

impl OsGuessCache {
    fn matches(&self, topo: &Topology, order: usize) -> bool {
        self.order == order
            && self.nb_pus == topo.nb_pus()
            && self.topo_name == topo.name()
            && self.topo_spec == topo.level_spec()
    }
}

/// A computed placement together with the inputs that produced it.
#[must_use]
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// The policy used.
    pub policy: Policy,
    /// The communication matrix extracted from the program.
    pub matrix: CommMatrix,
    /// The thread placement (compute + control threads).
    pub placement: Placement,
    /// Cached "OS guess" mapping for unbound threads (a Scatter placement,
    /// the round-robin spread the OS load balancer converges to), computed
    /// lazily on the first metric call.
    os_guess: OnceLock<OsGuessCache>,
}

impl PlacementPlan {
    /// Creates a plan from its parts.
    pub fn new(policy: Policy, matrix: CommMatrix, placement: Placement) -> Self {
        PlacementPlan { policy, matrix, placement, os_guess: OnceLock::new() }
    }

    fn scatter_guess(&self, topo: &Topology) -> Vec<usize> {
        compute_placement(Policy::Scatter, topo, &self.matrix, 0).compute_mapping_or_zero()
    }

    /// The effective dense thread → PU mapping of the plan: bound threads
    /// keep their binding, unbound threads fall back to the cached
    /// round-robin OS guess.
    #[must_use]
    pub(crate) fn effective_mapping(&self, topo: &Topology) -> Vec<usize> {
        let cache = self.os_guess.get_or_init(|| OsGuessCache {
            topo_name: topo.name().to_string(),
            topo_spec: topo.level_spec().to_vec(),
            nb_pus: topo.nb_pus(),
            order: self.matrix.order(),
            mapping: self.scatter_guess(topo),
        });
        if cache.matches(topo, self.matrix.order()) {
            self.placement.compute_mapping_with(|t| cache.mapping[t])
        } else {
            // A different topology (or a mutated matrix) than the cached
            // one: recompute the guess for it without disturbing the cache.
            let fresh = self.scatter_guess(topo);
            self.placement.compute_mapping_with(|t| fresh[t])
        }
    }

    /// Locality breakdown of the plan on `topo`.  Unbound threads are
    /// assumed to be spread round-robin over the NUMA nodes, which is what
    /// the OS load balancer does with a set of runnable threads and no
    /// affinity information.
    #[must_use]
    pub fn breakdown(&self, topo: &Topology) -> TrafficBreakdown {
        traffic_breakdown(&self.matrix, topo, &self.effective_mapping(topo))
    }

    /// Hop-bytes of the plan's matrix under the effective mapping (the
    /// TreeMatch literature's `Σ volume × tree-hops` metric).
    #[must_use]
    pub fn hop_bytes(&self, topo: &Topology) -> f64 {
        hop_bytes(&self.matrix, topo, &self.effective_mapping(topo))
    }
}

/// Extracts the communication matrix of `program` and computes a placement
/// for its tasks (plus `n_control` control threads) on `topo`.
pub fn plan_placement(
    program: &OrwlProgram,
    topo: &Topology,
    policy: Policy,
    n_control: usize,
) -> PlacementPlan {
    let matrix = program.comm_matrix();
    let placement = compute_placement(policy, topo, &matrix, n_control);
    PlacementPlan::new(policy, matrix, placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;
    use crate::task::{LocationLink, TaskSpec};
    use orwl_topo::synthetic;

    /// A program of 2 clusters of 4 tasks each, chained through locations so
    /// that intra-cluster traffic dominates.
    fn clustered_program() -> OrwlProgram {
        let mut p = OrwlProgram::new();
        for c in 0..2 {
            let locs: Vec<_> = (0..4).map(|i| Location::new(format!("c{c}-l{i}"), 0u64)).collect();
            for i in 0..4 {
                let mut links = vec![LocationLink::write(locs[i].id(), 1000.0)];
                links.push(LocationLink::read(locs[(i + 1) % 4].id(), 1000.0));
                p.add_task(TaskSpec::new(format!("c{c}-t{i}"), links), |_| {});
            }
        }
        p
    }

    #[test]
    fn plan_uses_program_matrix() {
        let p = clustered_program();
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let plan = plan_placement(&p, &topo, Policy::TreeMatch, 1);
        assert_eq!(plan.matrix.order(), 8);
        assert!(plan.matrix.total_volume() > 0.0);
        assert_eq!(plan.placement.n_compute(), 8);
        assert_eq!(plan.placement.n_control(), 1);
        plan.placement.validate_against(&topo).unwrap();
    }

    #[test]
    fn treematch_plan_keeps_clusters_on_one_socket() {
        let p = clustered_program();
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let plan = plan_placement(&p, &topo, Policy::TreeMatch, 0);
        let b = plan.breakdown(&topo);
        // All intra-cluster traffic should stay inside a NUMA node.
        assert_eq!(b.cross_numa, 0.0, "breakdown: {b:?}");
        assert_eq!(b.local_fraction(), 1.0);
    }

    #[test]
    fn nobind_plan_binds_nothing_but_reports_breakdown() {
        let p = clustered_program();
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let plan = plan_placement(&p, &topo, Policy::NoBind, 2);
        assert_eq!(plan.placement.bound_fraction(), 0.0);
        // The breakdown uses the round-robin OS assumption, which spreads the
        // clusters over both sockets — strictly worse locality.
        let b = plan.breakdown(&topo);
        assert!(b.cross_numa > 0.0);
        assert!(b.local_fraction() < 1.0);
    }

    #[test]
    fn repeated_breakdown_calls_are_identical_and_cached() {
        let p = clustered_program();
        let topo = synthetic::cluster2016_subset(2).unwrap();
        // NoBind leaves every thread unbound, so the breakdown exercises the
        // cached Scatter OS-guess path on every call.
        let plan = plan_placement(&p, &topo, Policy::NoBind, 1);
        let first = plan.breakdown(&topo);
        for _ in 0..3 {
            assert_eq!(plan.breakdown(&topo), first);
        }
        assert_eq!(plan.hop_bytes(&topo), plan.hop_bytes(&topo));
        // The cached guess equals a fresh Scatter placement.
        let fresh = compute_placement(Policy::Scatter, &topo, &plan.matrix, 0).compute_mapping_or_zero();
        assert_eq!(plan.effective_mapping(&topo), fresh);
        // Cloning carries the cache without invalidating the result.
        assert_eq!(plan.clone().breakdown(&topo), first);
    }

    #[test]
    fn metrics_with_a_different_topology_recompute_the_guess() {
        let p = clustered_program();
        let a = synthetic::cluster2016_subset(2).unwrap();
        let b = synthetic::laptop();
        let plan = plan_placement(&p, &a, Policy::NoBind, 0);
        let primed = plan.breakdown(&a); // primes the cache for `a`
                                         // A different topology gets a fresh Scatter guess, not the cached one.
        let fresh = compute_placement(Policy::Scatter, &b, &plan.matrix, 0).compute_mapping_or_zero();
        assert_eq!(plan.effective_mapping(&b), fresh);
        // The cache for the original topology is undisturbed.
        assert_eq!(plan.breakdown(&a), primed);
    }

    #[test]
    fn empty_program_yields_empty_plan() {
        let p = OrwlProgram::new();
        let topo = synthetic::laptop();
        let plan = plan_placement(&p, &topo, Policy::TreeMatch, 0);
        assert_eq!(plan.matrix.order(), 0);
        assert_eq!(plan.placement.n_compute(), 0);
    }
}
