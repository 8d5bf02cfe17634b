//! The ScenarioSpec DSL: deterministic, seeded generators for named
//! workload families.
//!
//! A [`ScenarioSpec`] is a small value — family, task count, seed, phase
//! schedule — that *compiles* into concrete workloads for any
//! `Session` backend:
//!
//! * [`ScenarioSpec::workload`] — a [`PhasedWorkload`] for the simulator
//!   backends (`SimBackend`, `ClusterBackend`);
//! * [`ScenarioSpec::program`] — an [`OrwlProgram`] whose declared location
//!   links reproduce the first phase's communication matrix, for the real
//!   thread backend.
//!
//! Everything is a pure function of the spec: the same spec always produces
//! byte-identical matrices, which is what makes the sweep reporter's
//! `BENCH_lab.json` reproducible.

use orwl_comm::matrix::CommMatrix;
use orwl_comm::patterns;
use orwl_core::task::{LocationLink, OrwlProgram, TaskSpec};
use orwl_core::{AccessMode, Location};
use orwl_numasim::taskgraph::TaskGraph;
use orwl_numasim::workload::{Phase, PhasedWorkload};
use std::sync::Arc;

/// Grid elements computed per task per iteration in compiled workloads.
pub const ELEMENTS_PER_TASK: f64 = 16384.0;
/// Private working-set bytes streamed per task per iteration.
pub const PRIVATE_BYTES_PER_TASK: f64 = 131072.0;

/// The named workload families of the lab.
///
/// Each family is a distinct communication *shape*; the spec's task count
/// and seed parameterise it.  The drifting families change their
/// matrix across phases (the adaptive-placement test beds), the others keep
/// one matrix and use the phase schedule only as an iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Uniform 9-point halo exchange on a square task grid — the paper's
    /// LK23 decomposition shape.
    DenseStencil,
    /// Directionally-swept stencil whose heavy axis rotates 90° between
    /// phases — the canonical drifting workload.
    RotatedStencil,
    /// A staged pipeline: heavy forward chain, light wrap-around feedback.
    Pipeline,
    /// All-to-all shuffle: every task exchanges with every other — the
    /// placement-indifferent worst case that pins the lower bound.
    Shuffle,
    /// Irregular power-law graph (preferential attachment): hub tasks
    /// concentrate the traffic.
    PowerLaw,
    /// Phased drifting mix: the matrix morphs linearly from a dense stencil
    /// into a hotspot pattern across the phase schedule.
    DriftMix,
    /// Owner-skewed hotspot: a few owner tasks serve all the others.
    Hotspot,
}

impl ScenarioFamily {
    /// Every family, in the canonical (report) order.
    pub const ALL: [ScenarioFamily; 7] = [
        ScenarioFamily::DenseStencil,
        ScenarioFamily::RotatedStencil,
        ScenarioFamily::Pipeline,
        ScenarioFamily::Shuffle,
        ScenarioFamily::PowerLaw,
        ScenarioFamily::DriftMix,
        ScenarioFamily::Hotspot,
    ];

    /// Short machine-friendly name (used in reports and JSON rows).
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ScenarioFamily::DenseStencil => "dense_stencil",
            ScenarioFamily::RotatedStencil => "rotated_stencil",
            ScenarioFamily::Pipeline => "pipeline",
            ScenarioFamily::Shuffle => "shuffle",
            ScenarioFamily::PowerLaw => "power_law",
            ScenarioFamily::DriftMix => "drift_mix",
            ScenarioFamily::Hotspot => "hotspot",
        }
    }

    /// True when the family's matrix changes across phases.
    #[cfg(test)]
    pub(crate) fn is_drifting(&self) -> bool {
        matches!(self, ScenarioFamily::RotatedStencil | ScenarioFamily::DriftMix)
    }

    /// True when the family lives on a square task grid (its effective
    /// task count is a perfect square).
    #[must_use]
    pub(crate) fn is_square(&self) -> bool {
        matches!(
            self,
            ScenarioFamily::DenseStencil | ScenarioFamily::RotatedStencil | ScenarioFamily::DriftMix
        )
    }

    /// The default phase schedule of the family: drifting families get
    /// several phases, stationary ones a single phase of the same total
    /// length.
    #[must_use]
    pub(crate) fn default_phases(&self) -> Vec<usize> {
        match self {
            ScenarioFamily::RotatedStencil => vec![12, 28],
            ScenarioFamily::DriftMix => vec![10, 10, 10, 10],
            _ => vec![40],
        }
    }
}

/// A deterministic, seeded workload description: the unit of the lab's
/// experiment grids.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The workload family.
    pub family: ScenarioFamily,
    /// Requested task count (stencil families round down to a square; use
    /// [`n_tasks`](ScenarioSpec::n_tasks) for the effective count).
    pub tasks: usize,
    /// Seed for the irregular families (power-law wiring, hotspot owners).
    pub seed: u64,
    /// Iterations per phase; drifting families change their matrix at each
    /// boundary.
    pub phase_iterations: Vec<usize>,
}

impl ScenarioSpec {
    /// A spec with the family's default phase schedule.
    #[must_use]
    pub fn new(family: ScenarioFamily, tasks: usize, seed: u64) -> Self {
        ScenarioSpec { family, tasks, seed, phase_iterations: family.default_phases() }
    }

    /// The full catalog: one default spec per family, sharing `tasks` and
    /// `seed` — the standard grid axis of the sweep runner.
    #[must_use]
    pub fn catalog(tasks: usize, seed: u64) -> Vec<ScenarioSpec> {
        ScenarioFamily::ALL.iter().map(|&family| ScenarioSpec::new(family, tasks, seed)).collect()
    }

    /// Same spec with a different task count (used by oversubscription
    /// grids that derive the count from the machine).
    #[must_use]
    pub(crate) fn with_tasks(mut self, tasks: usize) -> Self {
        self.tasks = tasks;
        self
    }

    /// Same spec with a different phase schedule.
    #[must_use]
    pub fn with_phases(mut self, phase_iterations: Vec<usize>) -> Self {
        self.phase_iterations = phase_iterations;
        self
    }

    /// The side of the square task grid used by stencil families.
    fn side(&self) -> usize {
        ((self.tasks as f64).sqrt().floor() as usize).max(2)
    }

    /// The effective task count after family shape rounding.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        if self.family.is_square() {
            self.side() * self.side()
        } else {
            self.tasks.max(2)
        }
    }

    /// Unique machine-friendly name: family, effective tasks, seed.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}-t{}-s{}", self.family.name(), self.n_tasks(), self.seed)
    }

    /// The communication matrix of phase `k` (phases beyond the schedule
    /// repeat the last one).  Every matrix is symmetric.
    #[must_use]
    pub fn phase_matrix(&self, k: usize) -> CommMatrix {
        let n = self.n_tasks();
        let side = self.side();
        let phases = self.phase_iterations.len().max(1);
        let k = k.min(phases - 1);
        match self.family {
            ScenarioFamily::DenseStencil => {
                let spec = patterns::StencilSpec {
                    rows: side,
                    cols: side,
                    edge_volume: 65536.0,
                    corner_volume: 1024.0,
                };
                patterns::stencil_2d(&spec)
            }
            ScenarioFamily::RotatedStencil => {
                let (a, b) = patterns::rotating_sweep_matrices(side, 65536.0, 1024.0);
                if k.is_multiple_of(2) {
                    a
                } else {
                    b
                }
            }
            ScenarioFamily::Pipeline => {
                let mut m = patterns::chain(n, 65536.0);
                let feedback = patterns::ring(n, 1024.0).symmetrized();
                m.add_scaled(&feedback, 1.0);
                m
            }
            ScenarioFamily::Shuffle => patterns::all_to_all(n, 2048.0),
            ScenarioFamily::PowerLaw => patterns::power_law(n, 3, 16384.0, self.seed),
            ScenarioFamily::DriftMix => {
                let stencil =
                    ScenarioSpec { family: ScenarioFamily::DenseStencil, ..self.clone() }.phase_matrix(0);
                let hot = patterns::hotspot(n, (n / 8).max(1), 1024.0, 65536.0, self.seed);
                let t = if phases == 1 { 0.0 } else { k as f64 / (phases - 1) as f64 };
                patterns::blend(&stencil, &hot, t)
            }
            ScenarioFamily::Hotspot => patterns::hotspot(n, (n / 8).max(1), 1024.0, 65536.0, self.seed),
        }
    }

    /// All phase matrices, one per schedule entry.
    #[must_use]
    pub fn phase_matrices(&self) -> Vec<CommMatrix> {
        (0..self.phase_iterations.len().max(1)).map(|k| self.phase_matrix(k)).collect()
    }

    /// Compiles the spec into a phased task-graph workload for the
    /// simulator backends.
    #[must_use]
    pub fn workload(&self) -> PhasedWorkload {
        let phases = self
            .phase_matrices()
            .into_iter()
            .zip(self.phase_iterations.iter().copied().chain(std::iter::repeat(1)))
            .map(|(m, iterations)| Phase {
                graph: TaskGraph::from_matrix(&m, ELEMENTS_PER_TASK, PRIVATE_BYTES_PER_TASK),
                iterations,
            })
            .collect();
        PhasedWorkload { phases }
    }

    /// Compiles the spec into a real ORWL program for the thread backend.
    ///
    /// Task `i` owns one location it writes; task `j` declares a read link
    /// of `m[i][j]` bytes on it, so the program's extracted communication
    /// matrix equals the first phase's matrix exactly.  Bodies acquire the
    /// task's own location `iterations` times — enough to exercise the
    /// runtime and its monitor without cross-task lock ordering.
    #[must_use]
    pub fn program(&self, iterations: usize) -> OrwlProgram {
        let m = self.phase_matrix(0);
        let n = m.order();
        let locations: Vec<Arc<Location<u64>>> =
            (0..n).map(|t| Location::new(format!("{}-loc{t}", self.family.name()), 0u64)).collect();
        let mut program = OrwlProgram::new();
        for t in 0..n {
            let mut links = vec![LocationLink::write(locations[t].id(), 1.0)];
            for (src, location) in locations.iter().enumerate() {
                let bytes = m.get(src, t);
                if src != t && bytes > 0.0 {
                    links.push(LocationLink::read(location.id(), bytes));
                }
            }
            let own = Arc::clone(&locations[t]);
            program.add_task(TaskSpec::new(format!("{}-{t}", self.family.name()), links), move |_| {
                let mut handle = own.iterative_handle(AccessMode::Write);
                for _ in 0..iterations {
                    *handle.acquire().expect("own location is always grantable") += 1;
                }
            });
        }
        program
    }

    /// Total iterations over the schedule.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        self.phase_iterations.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_family_once() {
        let specs = ScenarioSpec::catalog(16, 42);
        assert_eq!(specs.len(), ScenarioFamily::ALL.len());
        assert!(specs.len() >= 6, "the lab promises at least six families");
        let names: std::collections::HashSet<&str> = specs.iter().map(|s| s.family.name()).collect();
        assert_eq!(names.len(), specs.len(), "family names must be unique");
    }

    #[test]
    fn specs_are_deterministic() {
        for family in ScenarioFamily::ALL {
            let a = ScenarioSpec::new(family, 16, 7);
            let b = ScenarioSpec::new(family, 16, 7);
            assert_eq!(a.phase_matrices(), b.phase_matrices(), "{family:?} must be reproducible");
        }
        // Seeded families change with the seed.
        let p7 = ScenarioSpec::new(ScenarioFamily::PowerLaw, 16, 7);
        let p8 = ScenarioSpec::new(ScenarioFamily::PowerLaw, 16, 8);
        assert_ne!(p7.phase_matrix(0), p8.phase_matrix(0));
    }

    #[test]
    fn matrices_are_symmetric_and_sized() {
        for family in ScenarioFamily::ALL {
            let spec = ScenarioSpec::new(family, 16, 42);
            for (k, m) in spec.phase_matrices().into_iter().enumerate() {
                assert_eq!(m.order(), spec.n_tasks(), "{family:?} phase {k}");
                assert!(m.is_symmetric(), "{family:?} phase {k} must be symmetric");
                assert!(m.total_volume() > 0.0, "{family:?} phase {k} must carry traffic");
            }
        }
    }

    #[test]
    fn drifting_families_change_across_phases() {
        for family in ScenarioFamily::ALL {
            let spec = ScenarioSpec::new(family, 16, 42);
            let ms = spec.phase_matrices();
            if family.is_drifting() {
                assert!(ms.len() > 1);
                assert_ne!(ms[0], ms[ms.len() - 1], "{family:?} must drift");
            } else {
                assert!(ms.windows(2).all(|w| w[0] == w[1]), "{family:?} must be stationary");
            }
        }
    }

    #[test]
    fn workload_matches_phase_matrices() {
        let spec = ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, 42);
        let w = spec.workload();
        assert_eq!(w.phases.len(), 2);
        assert_eq!(w.total_iterations(), spec.total_iterations());
        assert_eq!(w.phases[0].graph.comm_matrix(), spec.phase_matrix(0));
        assert_eq!(w.phases[1].graph.comm_matrix(), spec.phase_matrix(1));
        assert_eq!(w.n_tasks(), 16);
    }

    #[test]
    fn program_reproduces_the_first_phase_matrix() {
        for family in [ScenarioFamily::DenseStencil, ScenarioFamily::Hotspot, ScenarioFamily::PowerLaw] {
            let spec = ScenarioSpec::new(family, 9, 5);
            let program = spec.program(1);
            assert_eq!(program.comm_matrix(), spec.phase_matrix(0), "{family:?}");
        }
    }

    #[test]
    fn tiny_task_counts_stay_valid() {
        for family in ScenarioFamily::ALL {
            let spec = ScenarioSpec::new(family, 2, 3);
            let m = spec.phase_matrix(0);
            assert!(m.order() >= 2, "{family:?}");
            assert!(m.total_volume() > 0.0, "{family:?}");
        }
        // Stencils round to squares.
        let s = ScenarioSpec::new(ScenarioFamily::DenseStencil, 15, 0);
        assert_eq!(s.n_tasks(), 9);
        assert!(s.name().contains("t9"));
    }
}
