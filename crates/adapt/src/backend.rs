//! The NUMA simulator behind the `Session` front door: [`SimBackend`], the
//! shared [driver](crate::driver) with a [`SimMachine`] in it, playing the
//! paper's 192-core testbed.
//!
//! `SimMachine` is the single-node [`PhasedModel`]: placements come from the
//! session's policy, `NoBind` runs under the OS-placement scenario, a
//! placement is priced once per phase (its `exec::price` and per-iteration
//! hop-bytes), a chunk is one play of that price, and a re-placement
//! is a TreeMatch run through the [`Replacer`].  Pinned against golden
//! values (captured from the bit-for-bit-equivalent original harness) by
//! the `session_equivalence` integration test.

use crate::driver::{Backend, Move, PhasedModel, Run};
use crate::replace::{Decision, Replacer};
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::hop_bytes;
use orwl_numasim::exec::{price, Priced, SimMonitor};
use orwl_numasim::machine::SimMachine;
use orwl_numasim::scenario::ExecutionScenario;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_topo::topology::Topology;
use orwl_treematch::algorithm::PlacementScratch;
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::{compute_placement, Policy};

/// The discrete-event NUMA simulator as a `Session` backend.
pub type SimBackend = Backend<SimMachine>;

/// The PU every task of `placement` runs on, unbound tasks spread over the
/// machine's PUs in index order.
fn mapping_of(machine: &SimMachine, placement: &Placement) -> Vec<usize> {
    let pus = machine.topology().pu_os_indices();
    placement.compute_mapping_with(|t| pus[t % pus.len()])
}

/// A placement priced for one phase on the NUMA machine: the scenario's
/// costs, the PU every task runs on and the hop-bytes of one iteration.
#[derive(Debug)]
pub struct SimPriced {
    costs: Priced,
    task_pu: Vec<usize>,
    hop_bytes: f64,
}

impl PhasedModel for SimMachine {
    const NAME: &'static str = "numasim";
    type Placement = Placement;
    type Priced = SimPriced;

    fn topology(&self) -> &Topology {
        self.topology()
    }

    fn place(&self, run: &Run, matrix: &CommMatrix) -> Placement {
        compute_placement(run.policy, self.topology(), matrix, run.control_threads)
    }

    fn price(&self, run: &Run, placement: &Placement, graph: &TaskGraph, matrix: &CommMatrix) -> SimPriced {
        let scenario = if run.policy == Policy::NoBind {
            ExecutionScenario::orwl_nobind(self, graph.n_tasks(), run.nobind_seed)
        } else {
            ExecutionScenario::bound(self, mapping_of(self, placement))
        };
        SimPriced {
            costs: price(self, graph, &scenario),
            hop_bytes: hop_bytes(matrix, self.topology(), &scenario.task_pu),
            task_pu: scenario.task_pu,
        }
    }

    fn task_pu(priced: &SimPriced) -> &[usize] {
        &priced.task_pu
    }

    fn simulate(
        &self,
        run: &mut Run,
        priced: &SimPriced,
        graph: &TaskGraph,
        iterations: usize,
        monitor: &mut dyn SimMonitor,
    ) {
        let report = priced.costs.play(graph, iterations, monitor);
        run.time += report.total_time;
        run.hop_bytes += iterations as f64 * priced.hop_bytes;
    }

    fn replace(
        &self,
        run: &mut Run,
        live: &CommMatrix,
        current: &Placement,
        _task_pu: &[usize],
        _epoch_iterations: usize,
    ) -> Option<Move<Placement>> {
        let decision = Replacer::new(run.replacer).evaluate_with(
            self.topology(),
            live,
            current,
            run.control_threads,
            &mut PlacementScratch::new(),
        );
        let Decision::Migrate { placement, migration_cost, .. } = decision else { return None };
        // The moved bytes are charged both as hop-bytes (the metric) and as
        // interconnect time (the simulated stall while working sets move).
        run.hop_bytes += migration_cost;
        run.time += migration_cost / self.params().interconnect_bandwidth;
        let (old, new) = (mapping_of(self, current), mapping_of(self, &placement));
        let tasks_moved = old.iter().zip(&new).filter(|(a, b)| a != b).count();
        Some(Move { placement, tasks_moved, cross_node: false })
    }

    fn plan_placement(&self, _run: &Run, initial: Placement) -> Placement {
        initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AdaptConfig;
    use orwl_core::runtime::AdaptiveSpec;
    use orwl_core::session::{Mode, Session};
    use orwl_numasim::costmodel::CostParams;
    use orwl_numasim::workload::PhasedWorkload;
    use orwl_topo::synthetic;

    fn machine() -> SimMachine {
        SimMachine::new(synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016())
    }

    fn workload() -> PhasedWorkload {
        PhasedWorkload::rotating_stencil(4, 65536.0, 1024.0, 16384.0, 131072.0, &[24, 200])
    }

    fn session(mode: Mode) -> Session {
        Session::builder()
            .topology(machine().topology().clone())
            .policy(Policy::TreeMatch)
            .control_threads(0)
            .mode(mode)
            .backend(SimBackend::new(machine()).with_adapt_config(AdaptConfig::evaluation()))
            .build()
            .unwrap()
    }

    #[test]
    fn adaptive_beats_static_and_approaches_oracle() {
        let w = workload();
        let fixed = session(Mode::Static).run(w.clone()).unwrap();
        let oracle = session(Mode::Oracle).run(w.clone()).unwrap();
        let adaptive = session(Mode::Adaptive(AdaptiveSpec::per_iterations(4))).run(w).unwrap();

        let adapt = adaptive.adapt.as_ref().expect("adaptive runs report counters");
        assert!(adapt.replacements >= 1, "phase change must trigger a migration: {adapt:?}");
        assert!(
            adaptive.hop_bytes < fixed.hop_bytes,
            "adaptive {} must beat static {}",
            adaptive.hop_bytes,
            fixed.hop_bytes
        );
        assert!(oracle.hop_bytes <= adaptive.hop_bytes + 1e-9, "the free-remap oracle is a lower bound");
        let ratio = adaptive.hop_bytes / oracle.hop_bytes;
        assert!(ratio <= 1.10, "adaptive must be within 10% of the oracle, got {ratio:.3}");
    }

    #[test]
    fn nobind_policy_simulates_the_os_placement_model() {
        let w = PhasedWorkload::rotating_stencil(4, 65536.0, 1024.0, 16384.0, 131072.0, &[20]);
        let bound = session(Mode::Static).run(w.clone()).unwrap();
        let nobind = Session::builder()
            .topology(machine().topology().clone())
            .policy(Policy::NoBind)
            .control_threads(0)
            .backend(SimBackend::new(machine()))
            .build()
            .unwrap()
            .run(w)
            .unwrap();
        assert_eq!(nobind.plan.placement.bound_fraction(), 0.0);
        // The unpinned, migration-penalised run is slower than TreeMatch.
        assert!(nobind.time.seconds() > bound.time.seconds());
    }
}
