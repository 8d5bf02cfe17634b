//! Regeneration of Figure 1 and the headline numbers of the paper.
//!
//! Figure 1 of the paper compares the processing time of three LK23
//! implementations — OpenMP, ORWL without binding, ORWL with the
//! topology-aware binding — on an SMP machine of 24 sockets × 8 cores,
//! processing a 16384×16384 double matrix for 100 iterations.  The text
//! reports that the bound ORWL version reaches about 11 s, a speedup of
//! ≈5 over OpenMP and ≈2.8 over the unbound ORWL version.
//!
//! [`figure1_sweep`] reproduces the whole curve by sweeping the number of
//! sockets of the simulated machine; [`headline`] extracts the 192-core
//! summary.

use orwl_adapt::backend::SimBackend;
use orwl_core::session::Session;
use orwl_lk23::sim_model::{simulate_implementation, ImplKind, Lk23Workload};
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_numasim::workload::PhasedWorkload;
use orwl_topo::synthetic;
use orwl_treematch::policies::Policy;

/// One point of the Figure 1 sweep: processing times (in simulated seconds)
/// of the three implementations on `cores` cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Row {
    /// Number of cores used (8 × sockets).
    pub cores: usize,
    /// OpenMP baseline processing time.
    pub openmp: f64,
    /// ORWL without binding.
    pub orwl_nobind: f64,
    /// ORWL with the topology-aware binding.
    pub orwl_bind: f64,
}

impl Figure1Row {
    /// Speedup of the bound version over OpenMP at this core count.
    pub fn speedup_vs_openmp(&self) -> f64 {
        self.openmp / self.orwl_bind
    }

    /// Speedup of the bound version over the unbound version.
    pub fn speedup_vs_nobind(&self) -> f64 {
        self.orwl_nobind / self.orwl_bind
    }
}

/// Runs the Figure 1 sweep over the given socket counts (each socket has
/// 8 cores; the paper's full machine is 24 sockets = 192 cores).
///
/// `iterations` lets callers trade fidelity for speed: the paper uses 100;
/// the `figures` bin uses fewer since the per-iteration times are in
/// steady state after the first couple of sweeps.
pub fn figure1_sweep(socket_counts: &[usize], iterations: usize, seed: u64) -> Vec<Figure1Row> {
    let mut rows = Vec::with_capacity(socket_counts.len());
    for &sockets in socket_counts {
        let topo = synthetic::cluster2016_subset(sockets).expect("1..=24 sockets");
        let machine = SimMachine::new(topo, CostParams::cluster2016());
        let cores = sockets * 8;
        let mut workload = Lk23Workload::paper_for_cores(cores);
        workload.iterations = iterations;

        let scale = 100.0 / iterations as f64;
        // The two ORWL configurations go through the one front door: a
        // `Session` over the simulator backend, with the same single
        // control thread the real runtime accounts for.
        let run_orwl = |policy: Policy| {
            let session = Session::builder()
                .topology(machine.topology().clone())
                .policy(policy)
                .control_threads(1)
                .backend(SimBackend::new(machine.clone()).with_nobind_seed(seed))
                .build()
                .expect("the Figure 1 configuration is valid");
            let phased = PhasedWorkload::single_phase(workload.task_graph(), iterations);
            session.run(phased).expect("the Figure 1 workload simulates").time.seconds() * scale
        };
        rows.push(Figure1Row {
            cores,
            // OpenMP is not an ORWL program — it keeps its bespoke
            // fork-join scenario model.
            openmp: simulate_implementation(&machine, &workload, ImplKind::OpenMp, seed).total_time * scale,
            orwl_nobind: run_orwl(Policy::NoBind),
            orwl_bind: run_orwl(Policy::TreeMatch),
        });
    }
    rows
}

/// The socket counts used for the published figure (1 → 24 sockets).
pub fn default_socket_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 12, 16, 20, 24]
}

/// The headline numbers of the paper's text, extracted from the last
/// (largest) row of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Cores of the largest configuration (192 for the full machine).
    pub cores: usize,
    /// Processing time of the bound ORWL version (paper: ≈11 s).
    pub orwl_bind_seconds: f64,
    /// Speedup of Bind over OpenMP (paper: ≈5).
    pub speedup_vs_openmp: f64,
    /// Speedup of Bind over NoBind (paper: ≈2.8).
    pub speedup_vs_nobind: f64,
}

/// Extracts the headline summary from a sweep (the row with the most cores).
///
/// # Panics
/// Panics when `rows` is empty.
pub fn headline(rows: &[Figure1Row]) -> Headline {
    let last = rows.iter().max_by_key(|r| r.cores).expect("at least one row");
    Headline {
        cores: last.cores,
        orwl_bind_seconds: last.orwl_bind,
        speedup_vs_openmp: last.speedup_vs_openmp(),
        speedup_vs_nobind: last.speedup_vs_nobind(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_socket_count() {
        let rows = figure1_sweep(&[1, 4], 3, 42);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cores, 8);
        assert_eq!(rows[1].cores, 32);
        for r in &rows {
            assert!(r.openmp > 0.0 && r.orwl_nobind > 0.0 && r.orwl_bind > 0.0);
        }
    }

    #[test]
    fn figure1_ordering_holds_at_every_scale() {
        let rows = figure1_sweep(&[1, 2, 8, 24], 3, 7);
        for r in &rows {
            // On one socket the three are close; beyond that Bind must win.
            assert!(r.orwl_bind <= r.orwl_nobind * 1.05, "{r:?}");
            assert!(r.orwl_nobind <= r.openmp * 1.05, "{r:?}");
        }
        let last = rows.last().unwrap();
        assert!(last.speedup_vs_openmp() > 1.5);
        assert!(last.speedup_vs_nobind() > 1.2);
    }

    #[test]
    fn headline_matches_paper_bands_at_192_cores() {
        // Few iterations keep the test fast; the per-iteration behaviour is
        // in steady state, so ratios match the 100-iteration run.
        let rows = figure1_sweep(&[24], 3, 42);
        let h = headline(&rows);
        assert_eq!(h.cores, 192);
        // Paper: ≈5× vs OpenMP, ≈2.8× vs NoBind, ≈11 s minimum.  The
        // reproduction target is the shape: generous bands around those.
        assert!(
            h.speedup_vs_openmp > 3.0 && h.speedup_vs_openmp < 8.0,
            "speedup vs OpenMP {}",
            h.speedup_vs_openmp
        );
        assert!(
            h.speedup_vs_nobind > 1.8 && h.speedup_vs_nobind < 4.5,
            "speedup vs NoBind {}",
            h.speedup_vs_nobind
        );
        assert!(h.orwl_bind_seconds > 2.0 && h.orwl_bind_seconds < 40.0, "bind time {}", h.orwl_bind_seconds);
    }

    #[test]
    fn bind_keeps_scaling_beyond_two_sockets_but_openmp_stalls() {
        let rows = figure1_sweep(&[2, 24], 3, 11);
        let r2 = rows[0];
        let r24 = rows[1];
        let bind_gain = r2.orwl_bind / r24.orwl_bind;
        let openmp_gain = r2.openmp / r24.openmp;
        assert!(bind_gain > 3.0, "bind gain from 16 to 192 cores: {bind_gain}");
        assert!(openmp_gain < bind_gain / 2.0, "openmp gain {openmp_gain} vs bind gain {bind_gain}");
    }
}
