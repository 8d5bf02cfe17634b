//! Phased workloads: task graphs whose communication pattern changes at
//! known (to the harness, not to any adaptive policy) phase boundaries.
//!
//! A [`PhasedWorkload`] is the simulator-side unit of execution consumed by
//! the `Session` API's simulator backend: a sequence of [`Phase`]s, each an
//! iterative [`TaskGraph`] run for a fixed number of iterations over the
//! same task set.

use crate::taskgraph::TaskGraph;
use orwl_comm::patterns::rotating_sweep_matrices;

/// One phase of a phase-changing workload.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The task graph executed during the phase.
    pub graph: TaskGraph,
    /// Number of iterations the phase lasts.
    pub iterations: usize,
}

/// A workload whose communication pattern changes at known (to the harness,
/// not to the adaptive policy) phase boundaries.
#[derive(Debug, Clone)]
pub struct PhasedWorkload {
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
}

impl PhasedWorkload {
    /// A single-phase workload: `graph` run for `iterations` iterations.
    #[must_use]
    pub fn single_phase(graph: TaskGraph, iterations: usize) -> Self {
        PhasedWorkload { phases: vec![Phase { graph, iterations }] }
    }

    /// Total iterations over all phases.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        self.phases.iter().map(|p| p.iterations).sum()
    }

    /// Number of tasks (identical across phases by construction).
    ///
    /// # Panics
    /// Panics when phases disagree on the task count or none exist.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        let n = self.phases.first().expect("workload has at least one phase").graph.n_tasks();
        assert!(self.phases.iter().all(|p| p.graph.n_tasks() == n), "phases must share the task set");
        n
    }

    /// The canonical phase-changing workload of the evaluation: a
    /// directionally-swept stencil whose sweep axis rotates 90° between
    /// phases (heavy east-west halos, then heavy north-south), built from
    /// [`orwl_comm::patterns::rotating_sweep_matrices`].
    ///
    /// `side × side` tasks; `heavy`/`light` are the per-axis halo volumes;
    /// each task computes `elements` points over `phase_iterations.len()`
    /// phases (phase `k` uses the rotated pattern when `k` is odd).
    #[must_use]
    pub fn rotating_stencil(
        side: usize,
        heavy: f64,
        light: f64,
        elements: f64,
        private_bytes: f64,
        phase_iterations: &[usize],
    ) -> Self {
        let (a, b) = rotating_sweep_matrices(side, heavy, light);
        let phases = phase_iterations
            .iter()
            .enumerate()
            .map(|(k, &iterations)| Phase {
                graph: TaskGraph::from_matrix(if k % 2 == 0 { &a } else { &b }, elements, private_bytes),
                iterations,
            })
            .collect();
        PhasedWorkload { phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotating_stencil_shape_is_consistent() {
        let w = PhasedWorkload::rotating_stencil(4, 65536.0, 1024.0, 16384.0, 131072.0, &[24, 200]);
        assert_eq!(w.n_tasks(), 16);
        assert_eq!(w.total_iterations(), 224);
        // The two phases carry the same total traffic but different matrices.
        let a = w.phases[0].graph.comm_matrix();
        let b = w.phases[1].graph.comm_matrix();
        assert!((a.total_volume() - b.total_volume()).abs() < 1e-6);
        assert_ne!(a, b);
    }

    #[test]
    fn single_phase_wraps_a_graph() {
        let g = TaskGraph::new(vec![crate::taskgraph::SimTask { elements: 1.0, private_bytes: 1.0 }], vec![]);
        let w = PhasedWorkload::single_phase(g, 7);
        assert_eq!(w.phases.len(), 1);
        assert_eq!(w.total_iterations(), 7);
        assert_eq!(w.n_tasks(), 1);
    }
}
