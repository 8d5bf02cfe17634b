//! Ablation studies of the placement design choices (experiments A1–A3 of
//! DESIGN.md).
//!
//! These go beyond what the two-page paper could show, but each corresponds
//! to a design decision §II discusses: the choice of the TreeMatch grouping
//! over simpler policies, the three control-thread handling modes, and the
//! oversubscription extension.

use orwl_adapt::backend::SimBackend;
use orwl_comm::metrics::mapping_cost_default;
use orwl_core::session::Session;
use orwl_lk23::sim_model::Lk23Workload;
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_numasim::workload::PhasedWorkload;
use orwl_topo::topology::Topology;
use orwl_treematch::control::{decide_control_mode, ControlPlacementMode, ControlThreadSpec};
use orwl_treematch::policies::{compute_placement, Policy};

/// A1 — cost of a placement policy on a workload: the communication cost
/// metric (volume × distance) and the simulated LK23 processing time when
/// tasks are bound according to that policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Policy name (`treematch`, `packed`, `scatter`, `random`, `nobind`).
    pub policy: String,
    /// Volume-weighted distance of the placement (lower is better).
    pub mapping_cost: f64,
    /// Simulated processing time of the LK23 workload under this placement.
    pub simulated_time: f64,
}

/// Runs the placement-policy ablation (A1) for an LK23 workload on `topo`.
///
/// The static metric (volume × distance) is computed directly; the
/// simulated execution goes through the unified `Session` front door (the
/// simulator backend models `NoBind` as unpinned, migrating threads and
/// pins every other policy).
pub fn policy_ablation(topo: &Topology, workload: &Lk23Workload, iterations: usize) -> Vec<PolicyResult> {
    let matrix = workload.comm_matrix();
    let machine = SimMachine::new(topo.clone(), CostParams::cluster2016());
    let graph = workload.task_graph();
    let pus = topo.pu_os_indices();

    Policy::all()
        .into_iter()
        .map(|policy| {
            let placement = compute_placement(policy, topo, &matrix, 0);
            let mapping = placement.compute_mapping_with(|t| pus[t % pus.len()]);
            let mapping_cost = mapping_cost_default(&matrix, topo, &mapping);
            let session = Session::builder()
                .topology(topo.clone())
                .policy(policy)
                .control_threads(0)
                .backend(SimBackend::new(machine.clone()))
                .build()
                .expect("the ablation configuration is valid");
            let report = session
                .run(PhasedWorkload::single_phase(graph.clone(), iterations))
                .expect("the ablation workload simulates");
            PolicyResult {
                policy: policy.name().to_string(),
                mapping_cost,
                simulated_time: report.time.seconds(),
            }
        })
        .collect()
}

/// A2 — which control-thread handling mode Algorithm 1 selects for a given
/// machine and task count, together with the fraction of control threads
/// that end up bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlModeResult {
    /// Machine description (topology name).
    pub machine: String,
    /// Number of compute threads.
    pub n_compute: usize,
    /// Number of control threads.
    pub n_control: usize,
    /// The mode Algorithm 1 selected.
    pub mode: ControlPlacementMode,
    /// Fraction of control threads that received a binding.
    pub bound_control_fraction: f64,
}

/// Runs the control-thread ablation (A2) over several machines.
pub fn control_mode_ablation(cases: &[(Topology, usize, usize)]) -> Vec<ControlModeResult> {
    cases
        .iter()
        .map(|(topo, n_compute, n_control)| {
            let matrix = orwl_comm::patterns::stencil_2d(&orwl_comm::patterns::StencilSpec {
                rows: 1,
                cols: *n_compute,
                edge_volume: 1024.0,
                corner_volume: 0.0,
            });
            let mode = decide_control_mode(topo, *n_compute, *n_control);
            let mapper =
                orwl_treematch::algorithm::TreeMatchMapper::new(orwl_treematch::algorithm::TreeMatchConfig {
                    control: ControlThreadSpec::with_count(*n_control),
                });
            let placement = mapper.compute_placement(topo, &matrix);
            let bound = placement.control.iter().filter(|c| c.is_some()).count();
            ControlModeResult {
                machine: topo.name().to_string(),
                n_compute: *n_compute,
                n_control: *n_control,
                mode,
                bound_control_fraction: if *n_control == 0 { 1.0 } else { bound as f64 / *n_control as f64 },
            }
        })
        .collect()
}

/// A3 — oversubscription: simulated LK23 time as the number of block tasks
/// grows past the number of cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OversubResult {
    /// Tasks per core (1 = one block per core).
    pub tasks_per_core: usize,
    /// Total block tasks.
    pub n_tasks: usize,
    /// Simulated processing time with TreeMatch placement.
    pub simulated_time: f64,
}

/// Runs the oversubscription ablation (A3) on `sockets` sockets of the
/// paper machine.
pub fn oversubscription_ablation(sockets: usize, factors: &[usize], iterations: usize) -> Vec<OversubResult> {
    let topo = orwl_topo::synthetic::cluster2016_subset(sockets).expect("1..=24 sockets");
    let machine = SimMachine::new(topo.clone(), CostParams::cluster2016());
    let cores = sockets * 8;
    let session = Session::builder()
        .topology(topo)
        .policy(Policy::TreeMatch)
        .control_threads(0)
        .backend(SimBackend::new(machine))
        .build()
        .expect("the oversubscription configuration is valid");
    factors
        .iter()
        .map(|&f| {
            let n_tasks = cores * f;
            let (br, bc) = orwl_lk23::sim_model::near_square_factors(n_tasks);
            let workload = Lk23Workload::new(16384, br, bc, iterations);
            let report = session
                .run(PhasedWorkload::single_phase(workload.task_graph(), iterations))
                .expect("the oversubscription workload simulates");
            OversubResult { tasks_per_core: f, n_tasks, simulated_time: report.time.seconds() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_topo::synthetic;

    #[test]
    fn policy_ablation_ranks_treematch_best_or_tied() {
        let topo = synthetic::cluster2016_subset(4).unwrap();
        let workload = Lk23Workload::new(4096, 4, 8, 3);
        let results = policy_ablation(&topo, &workload, 3);
        assert_eq!(results.len(), Policy::all().len());
        let tm = results.iter().find(|r| r.policy == "treematch").unwrap();
        for r in &results {
            if r.policy != "treematch" && r.policy != "nobind" {
                assert!(
                    tm.mapping_cost <= r.mapping_cost * 1.01,
                    "treematch cost {} vs {} cost {}",
                    tm.mapping_cost,
                    r.policy,
                    r.mapping_cost
                );
            }
            assert!(r.simulated_time > 0.0);
        }
        // The topology-aware placement also wins in simulated time against
        // the unbound run.
        let nobind = results.iter().find(|r| r.policy == "nobind").unwrap();
        assert!(tm.simulated_time < nobind.simulated_time);
    }

    #[test]
    fn control_mode_ablation_covers_all_three_modes() {
        let cases = vec![
            (synthetic::dual_socket_smt(), 32, 2),             // hyperthread reserve
            (synthetic::cluster2016_subset(2).unwrap(), 8, 2), // spare cores
            (synthetic::cluster2016_subset(1).unwrap(), 8, 2), // unmapped
        ];
        let results = control_mode_ablation(&cases);
        assert_eq!(results[0].mode, ControlPlacementMode::HyperthreadReserve);
        assert_eq!(results[1].mode, ControlPlacementMode::SpareCores);
        assert_eq!(results[2].mode, ControlPlacementMode::Unmapped);
        assert_eq!(results[0].bound_control_fraction, 1.0);
        assert_eq!(results[1].bound_control_fraction, 1.0);
        assert_eq!(results[2].bound_control_fraction, 0.0);
    }

    #[test]
    fn oversubscription_ablation_is_monotone_in_overhead() {
        // More tasks per core means more halo traffic for the same compute:
        // the simulated time must not *decrease* dramatically, and the
        // one-task-per-core configuration is the sweet spot.
        let results = oversubscription_ablation(2, &[1, 2, 4], 2);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].tasks_per_core, 1);
        assert_eq!(results[0].n_tasks, 16);
        assert!(results[0].simulated_time <= results[2].simulated_time * 1.05);
    }
}
