//! The multi-node cluster behind the `Session` front door.
//!
//! [`ClusterBackend`] is the third backend (after `ThreadBackend` and
//! `SimBackend`): build the session with the cluster's
//! [flattened](orwl_topo::cluster::ClusterTopology::flatten) topology and a
//! `ClusterBackend`, and run phased workloads unchanged.  The run modes are
//! the shared [driver](orwl_adapt::driver)'s; this file is the cluster
//! [`PhasedModel`] behind it:
//!
//! * **placement** is two-level ([`Policy::Hierarchical`]; flat policies
//!   run on the flattened tree, `NoBind` is a seeded OS spread) and carries
//!   the node assignment with the thread → PU map;
//! * **a placement is priced once per phase** — numasim's `price` of its
//!   bound scenario on the cluster, the hop-bytes split at the machine
//!   boundary and the fabric cut — and **a chunk** plays that price, with
//!   one `FabricTransfer` record per lane;
//! * **a re-placement** is a fresh *two-level* computation priced in fabric
//!   seconds, so drift can trigger **node-level re-sharding** as well as
//!   intra-node re-binding (`AdaptReport::node_reshards` vs `replacements`).

use crate::machine::ClusterMachine;
use crate::metrics::{cluster_cost, inter_node_bytes, split_hop_bytes};
use crate::placement::{hierarchical_placement, policy_placement, ClusterPlacement};
use orwl_adapt::driver::{Backend, Move, PhasedModel, Run};
use orwl_comm::matrix::CommMatrix;
use orwl_core::session::ClusterTraffic;
use orwl_numasim::exec::{price, MachineCosts, Priced, SimMonitor};
use orwl_numasim::scenario::ExecutionScenario;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_obs::{EventKind, FabricLane};
use orwl_topo::cluster::FabricClass;
use orwl_topo::topology::Topology;
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;

fn lane_of(class: FabricClass) -> FabricLane {
    match class {
        FabricClass::SameNode => FabricLane::SameNode,
        FabricClass::SameRack => FabricLane::SameRack,
        FabricClass::CrossRack => FabricLane::CrossRack,
    }
}

/// The multi-node discrete-event simulator as a `Session` backend.
pub type ClusterBackend = Backend<ClusterMachine>;

/// A placement priced for one phase on the cluster: the mapping's costs,
/// the global PU of every task, and one iteration's hop-bytes split at the
/// machine boundary, fabric cut and (observed runs only) lane entries.
#[derive(Debug)]
pub struct ClusterPriced {
    costs: Priced,
    mapping: Vec<usize>,
    intra: f64,
    inter: f64,
    inter_node_bytes: f64,
    lanes: Vec<(FabricLane, f64)>,
}

impl PhasedModel for ClusterMachine {
    const NAME: &'static str = "cluster";
    type Placement = ClusterPlacement;
    type Priced = ClusterPriced;

    fn topology(&self) -> &Topology {
        self.topology()
    }

    /// The two-level placement of the run's policy — shared with the
    /// multi-process backend through [`policy_placement`], so simulated
    /// and real runs shard tasks over nodes identically.  `NoBind` mirrors
    /// `SimBackend`'s OS-spread model (migration penalties and data
    /// non-locality are not modelled at cluster scale).
    fn place(&self, run: &Run, matrix: &CommMatrix) -> ClusterPlacement {
        policy_placement(self, run.policy, run.control_threads, run.nobind_seed, matrix)
    }

    /// The mapping's costs, its per-iteration fabric split and, when the
    /// run is observed, each off-diagonal entry's lane in the matrix's
    /// entry order.
    fn price(
        &self,
        run: &Run,
        placement: &ClusterPlacement,
        graph: &TaskGraph,
        matrix: &CommMatrix,
    ) -> ClusterPriced {
        let cluster = self.cluster();
        let mapping = placement.global_mapping(self);
        let (intra, inter) = split_hop_bytes(cluster, matrix, &mapping);
        let mut lanes = Vec::new();
        if run.obs.is_some() {
            matrix.for_each_nonzero(|src, dst, volume| {
                if src != dst {
                    lanes.push((lane_of(cluster.link_class(mapping[src], mapping[dst])), volume));
                }
            });
        }
        ClusterPriced {
            costs: price(self, graph, &ExecutionScenario::bound(self, mapping.clone())),
            intra,
            inter,
            inter_node_bytes: inter_node_bytes(cluster, matrix, &mapping),
            lanes,
            mapping,
        }
    }

    fn task_pu(priced: &ClusterPriced) -> &[usize] {
        &priced.mapping
    }

    fn simulate(
        &self,
        run: &mut Run,
        priced: &ClusterPriced,
        graph: &TaskGraph,
        iterations: usize,
        monitor: &mut dyn SimMonitor,
    ) {
        let report = priced.costs.play(graph, iterations, monitor);
        let (intra, inter) = (priced.intra, priced.inter);
        let iters = iterations as f64;
        let fabric =
            run.fabric.get_or_insert(ClusterTraffic { n_nodes: self.n_nodes(), ..ClusterTraffic::default() });
        run.time += report.total_time;
        run.hop_bytes += iters * (intra + inter);
        fabric.intra_node_hop_bytes += iters * intra;
        fabric.inter_node_hop_bytes += iters * inter;
        fabric.inter_node_bytes += iters * priced.inter_node_bytes;
        if let Some(obs) = run.obs {
            // One aggregate transfer event per fabric lane per chunk: the
            // timeline stays proportional to chunks, not to matrix entries.
            let mut by_lane = [0.0f64; 3];
            for &(lane, volume) in &priced.lanes {
                by_lane[lane as usize] += iters * volume;
            }
            obs.set_sim_now(run.time);
            for (lane, &bytes) in
                [FabricLane::SameNode, FabricLane::SameRack, FabricLane::CrossRack].iter().zip(&by_lane)
            {
                if bytes > 0.0 {
                    obs.record(EventKind::FabricTransfer { lane: *lane, bytes });
                }
            }
        }
    }

    /// A fresh two-level computation, so node assignment and intra-node
    /// binding can both change.  Costs are fabric seconds per iteration
    /// (`cluster_cost`) and so is the bill: every re-bound task streams
    /// its state over the link between its old and new PU (fabric latency +
    /// bandwidth across nodes, NUMA links within one).  The moved bytes are
    /// also traffic, split at the machine boundary like any other, so the
    /// fabric split stays consistent with the cumulative hop-bytes.
    fn replace(
        &self,
        run: &mut Run,
        live: &CommMatrix,
        current: &ClusterPlacement,
        task_pu: &[usize],
        epoch_iterations: usize,
    ) -> Option<Move<ClusterPlacement>> {
        let candidate = hierarchical_placement(self, live);
        let new_mapping = candidate.global_mapping(self);
        let flat = self.topology();
        let state_bytes = run.replacer.model.task_state_bytes;
        let mut seconds = 0.0;
        let mut moved = ClusterTraffic::default();
        let mut cross_node = false;
        let mut tasks_moved = 0usize;
        for (t, (&old_pu, &new_pu)) in task_pu.iter().zip(&new_mapping).enumerate() {
            if old_pu == new_pu {
                continue;
            }
            tasks_moved += 1;
            seconds += self.halo_time(old_pu, new_pu, state_bytes);
            let hop_bytes = state_bytes * flat.hop_distance(old_pu, new_pu) as f64;
            if candidate.node_of_task[t] != current.node_of_task[t] {
                cross_node = true;
                moved.inter_node_hop_bytes += hop_bytes;
                moved.inter_node_bytes += state_bytes;
            } else {
                moved.intra_node_hop_bytes += hop_bytes;
            }
        }
        let (_, keep) = run.replacer.weigh(
            cluster_cost(self, live, task_pu),
            cluster_cost(self, live, &new_mapping),
            epoch_iterations as f64,
            seconds,
        );
        if keep.is_some() {
            return None;
        }
        let fabric = run.fabric.as_mut().expect("a chunk ran before the drift it caused");
        run.time += seconds;
        run.hop_bytes += moved.intra_node_hop_bytes + moved.inter_node_hop_bytes;
        fabric.intra_node_hop_bytes += moved.intra_node_hop_bytes;
        fabric.inter_node_hop_bytes += moved.inter_node_hop_bytes;
        fabric.inter_node_bytes += moved.inter_node_bytes;
        Some(Move { placement: candidate, tasks_moved, cross_node })
    }

    /// The plan reports what the *policy* binds: for `NoBind` that is
    /// nothing (the OS-spread execution model is not a binding), exactly
    /// as the other backends report it.
    fn plan_placement(&self, run: &Run, initial: ClusterPlacement) -> Placement {
        match run.policy {
            Policy::NoBind => Placement::unbound(initial.node_of_task.len(), run.control_threads),
            _ => Placement { control: vec![None; run.control_threads], ..initial.placement },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_adapt::engine::AdaptConfig;
    use orwl_core::runtime::AdaptiveSpec;
    use orwl_core::session::{Mode, Session};
    use orwl_numasim::workload::PhasedWorkload;

    fn machine() -> ClusterMachine {
        ClusterMachine::paper(4)
    }

    fn session(policy: Policy, mode: Mode) -> Session {
        Session::builder()
            .topology(machine().topology().clone())
            .policy(policy)
            .control_threads(0)
            .mode(mode)
            .backend(ClusterBackend::new(machine()).with_adapt_config(AdaptConfig::evaluation()))
            .build()
            .unwrap()
    }

    fn workload(phases: &[usize]) -> PhasedWorkload {
        PhasedWorkload::rotating_stencil(8, 65536.0, 1024.0, 16384.0, 131072.0, phases)
    }

    #[test]
    fn reports_carry_the_fabric_split() {
        let report = session(Policy::Hierarchical, Mode::Static).run(workload(&[10])).unwrap();
        assert_eq!(report.backend, "cluster");
        let fabric = report.fabric.expect("cluster runs report the fabric split");
        assert_eq!(fabric.n_nodes, 4);
        assert!(fabric.intra_node_hop_bytes > 0.0);
        assert!((fabric.intra_node_hop_bytes + fabric.inter_node_hop_bytes - report.hop_bytes).abs() < 1e-6);
        // The plan-level breakdown splits the same boundary.
        assert!(report.breakdown.cross_node > 0.0 || fabric.inter_node_hop_bytes == 0.0);
        assert!(report.time.seconds() > 0.0);
        assert!(report.time.as_wall().is_none());
    }

    #[test]
    fn hierarchical_cuts_less_fabric_traffic_than_scatter() {
        let w = workload(&[10]);
        let hier = session(Policy::Hierarchical, Mode::Static).run(w.clone()).unwrap();
        let scatter = session(Policy::Scatter, Mode::Static).run(w).unwrap();
        let (hf, sf) = (hier.fabric.unwrap(), scatter.fabric.unwrap());
        assert!(
            hf.inter_node_hop_bytes < sf.inter_node_hop_bytes,
            "hierarchical {} vs scatter {}",
            hf.inter_node_hop_bytes,
            sf.inter_node_hop_bytes
        );
        assert!(hier.time.seconds() < scatter.time.seconds());
    }

    #[test]
    fn adaptive_reshards_across_nodes_on_drift() {
        let w = workload(&[12, 100]);
        let fixed = session(Policy::Hierarchical, Mode::Static).run(w.clone()).unwrap();
        let adaptive =
            session(Policy::Hierarchical, Mode::Adaptive(AdaptiveSpec::per_iterations(4))).run(w).unwrap();
        let adapt = adaptive.adapt.expect("adaptive runs report counters");
        assert!(adapt.replacements >= 1, "drift must trigger a migration: {adapt:?}");
        assert!(adapt.node_reshards >= 1, "the rotation must re-shard across nodes: {adapt:?}");
        assert!(adapt.node_reshards <= adapt.replacements);
        // The fabric split stays consistent with the cumulative hop-bytes
        // even with migration traffic folded in.
        let fabric = adaptive.fabric.expect("cluster runs report the fabric split");
        assert!(
            (fabric.intra_node_hop_bytes + fabric.inter_node_hop_bytes - adaptive.hop_bytes).abs() < 1e-6,
            "split {} + {} != total {}",
            fabric.intra_node_hop_bytes,
            fabric.inter_node_hop_bytes,
            adaptive.hop_bytes
        );
        assert!(
            adaptive.hop_bytes < fixed.hop_bytes,
            "adaptive {} must beat static {}",
            adaptive.hop_bytes,
            fixed.hop_bytes
        );
    }

    #[test]
    fn nobind_models_the_os_spread_not_packed_pinning() {
        let w = workload(&[6]);
        let nobind = session(Policy::NoBind, Mode::Static).run(w.clone()).unwrap();
        let packed = session(Policy::Packed, Mode::Static).run(w).unwrap();
        // The plan binds nothing — NoBind is the unbound baseline.
        assert_eq!(nobind.plan.placement.bound_fraction(), 0.0);
        // The execution model is a seeded random spread, not packed order:
        // it pays more fabric traffic than the locality-blind-but-contiguous
        // packed placement on this stencil.
        let (nf, pf) = (nobind.fabric.unwrap(), packed.fabric.unwrap());
        assert!(
            nf.inter_node_hop_bytes > pf.inter_node_hop_bytes,
            "nobind {} should shred locality vs packed {}",
            nf.inter_node_hop_bytes,
            pf.inter_node_hop_bytes
        );
        // Reproducible per seed, different across seeds.
        let again = session(Policy::NoBind, Mode::Static).run(workload(&[6])).unwrap();
        assert_eq!(again.hop_bytes, nobind.hop_bytes);
        let reseeded = Session::builder()
            .topology(machine().topology().clone())
            .policy(Policy::NoBind)
            .control_threads(0)
            .backend(ClusterBackend::new(machine()).with_nobind_seed(7))
            .build()
            .unwrap()
            .run(workload(&[6]))
            .unwrap();
        assert_ne!(reseeded.hop_bytes, nobind.hop_bytes);
    }
}
