//! Simulator models of the three LK23 implementations.
//!
//! The paper's evaluation (Figure 1) runs a 16384×16384 double-precision
//! LK23 for 100 iterations on a 192-core SMP machine.  That machine is not
//! available here, so this module maps the workload onto the
//! `orwl-numasim` simulator: the *same* block decomposition, the *same*
//! communication matrix, and the *same* placement algorithm as the real
//! runtime, executed under the machine cost model.  The three scenarios of
//! the figure differ exactly as the real implementations do:
//!
//! * **ORWL Bind** — blocks placed by TreeMatch, data first-touched locally;
//! * **ORWL NoBind** — same task structure, threads and data wherever the OS
//!   put them;
//! * **OpenMP** — fork-join row bands, data first-touched by the master
//!   thread, implicit barrier per sweep.

use crate::blocks::BlockDecomposition;
use orwl_comm::matrix::CommMatrix;
use orwl_numasim::exec::{simulate, SimReport};
use orwl_numasim::machine::SimMachine;
use orwl_numasim::scenario::ExecutionScenario;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_treematch::algorithm::{TreeMatchConfig, TreeMatchMapper};
use orwl_treematch::control::ControlThreadSpec;

/// Bytes streamed from memory per grid point and per sweep in the simulator
/// model: `ZA` (read + write) plus the five coefficient fields `ZR`, `ZB`,
/// `ZU`, `ZV`, `ZZ`, eight bytes each.
pub(crate) const SIM_BYTES_PER_POINT: f64 = 56.0;

/// A Livermore Kernel 23 workload description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lk23Workload {
    /// Side of the square matrix (the paper uses 16384).
    pub matrix_size: usize,
    /// Blocks along the row dimension.
    pub blocks_r: usize,
    /// Blocks along the column dimension.
    pub blocks_c: usize,
    /// Number of sweeps (the paper uses 100).
    pub iterations: usize,
}

impl Lk23Workload {
    /// The paper's workload (16384² doubles, 100 iterations) decomposed into
    /// one block per core of the target machine.
    pub fn paper_for_cores(cores: usize) -> Self {
        let (blocks_r, blocks_c) = near_square_factors(cores);
        Lk23Workload { matrix_size: 16384, blocks_r, blocks_c, iterations: 100 }
    }

    /// A custom workload.
    pub fn new(matrix_size: usize, blocks_r: usize, blocks_c: usize, iterations: usize) -> Self {
        Lk23Workload { matrix_size, blocks_r, blocks_c, iterations }
    }

    /// Number of block tasks.
    pub(crate) fn n_tasks(&self) -> usize {
        self.blocks_r * self.blocks_c
    }

    /// The block decomposition geometry.
    pub(crate) fn decomposition(&self) -> BlockDecomposition {
        BlockDecomposition::new(self.matrix_size, self.matrix_size, self.blocks_r, self.blocks_c)
            .expect("workload dimensions are valid")
    }

    /// The block-to-block communication matrix (bytes per iteration).
    pub fn comm_matrix(&self) -> CommMatrix {
        self.decomposition().comm_matrix(std::mem::size_of::<f64>())
    }

    /// The per-iteration task graph fed to the simulator.
    ///
    /// Each grid point streams `SIM_BYTES_PER_POINT` bytes per sweep: the
    /// old and new `ZA` values plus the five coefficient fields (7 × 8
    /// bytes), which the original kernel and the Rust one both read from
    /// arrays.
    pub fn task_graph(&self) -> TaskGraph {
        let d = self.decomposition();
        let tasks = (0..d.n_blocks())
            .map(|idx| {
                let (bi, bj) = d.block_coords(idx);
                let elements = (d.row_range(bi).len() * d.col_range(bj).len()) as f64;
                orwl_numasim::taskgraph::SimTask { elements, private_bytes: elements * SIM_BYTES_PER_POINT }
            })
            .collect();
        TaskGraph::from_tasks_and_matrix(tasks, &self.comm_matrix())
    }
}

/// Splits `n` into the pair of factors closest to a square (e.g. 192 → 12 × 16).
pub fn near_square_factors(n: usize) -> (usize, usize) {
    assert!(n > 0, "cannot factor zero");
    let mut best = (1, n);
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            best = (d, n / d);
        }
        d += 1;
    }
    best
}

/// The three implementations compared in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplKind {
    /// ORWL with the topology-aware placement module (the paper's "Bind").
    OrwlBind,
    /// ORWL without any binding.
    OrwlNoBind,
    /// The OpenMP-style fork-join baseline.
    OpenMp,
}

impl ImplKind {
    /// Short label used in reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ImplKind::OrwlBind => "orwl-bind",
            ImplKind::OrwlNoBind => "orwl-nobind",
            ImplKind::OpenMp => "openmp",
        }
    }
}

/// Builds the execution scenario of an implementation for `workload` on
/// `machine`.
pub(crate) fn build_scenario(
    machine: &SimMachine,
    workload: &Lk23Workload,
    kind: ImplKind,
    seed: u64,
) -> ExecutionScenario {
    let n_tasks = workload.n_tasks();
    match kind {
        ImplKind::OrwlBind => {
            // The same Algorithm 1 the real runtime uses, with one control
            // thread accounted for.
            let mapper = TreeMatchMapper::new(TreeMatchConfig { control: ControlThreadSpec::with_count(1) });
            let placement = mapper.compute_placement(machine.topology(), &workload.comm_matrix());
            let pus = machine.topology().pu_os_indices();
            let task_pu = placement.compute_mapping_with(|t| pus[t % pus.len()]);
            ExecutionScenario::bound(machine, task_pu).with_label(kind.label())
        }
        ImplKind::OrwlNoBind => {
            ExecutionScenario::orwl_nobind(machine, n_tasks, seed).with_label(kind.label())
        }
        ImplKind::OpenMp => ExecutionScenario::openmp_static(machine, n_tasks).with_label(kind.label()),
    }
}

/// Simulates one implementation of the workload and returns the report.
pub fn simulate_implementation(
    machine: &SimMachine,
    workload: &Lk23Workload,
    kind: ImplKind,
    seed: u64,
) -> SimReport {
    let graph = workload.task_graph();
    let scenario = build_scenario(machine, workload, kind, seed);
    simulate(machine, &graph, &scenario, workload.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_numasim::costmodel::CostParams;
    use orwl_topo::synthetic;

    #[test]
    fn near_square_factors_examples() {
        assert_eq!(near_square_factors(192), (12, 16));
        assert_eq!(near_square_factors(64), (8, 8));
        assert_eq!(near_square_factors(8), (2, 4));
        assert_eq!(near_square_factors(7), (1, 7));
        assert_eq!(near_square_factors(1), (1, 1));
    }

    #[test]
    fn paper_workload_shape() {
        let w = Lk23Workload::paper_for_cores(192);
        assert_eq!(w.matrix_size, 16384);
        assert_eq!(w.iterations, 100);
        assert_eq!(w.n_tasks(), 192);
        assert_eq!(w.comm_matrix().order(), 192);
        let g = w.task_graph();
        assert_eq!(g.n_tasks(), 192);
        // Total elements processed per iteration equals the full matrix.
        let total: f64 = (0..g.n_tasks()).map(|t| g.task(t).elements).sum();
        assert_eq!(total, (16384u64 * 16384) as f64);
    }

    #[test]
    fn implementations_have_distinct_labels() {
        let kinds = [ImplKind::OpenMp, ImplKind::OrwlNoBind, ImplKind::OrwlBind];
        let labels: std::collections::HashSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn scenarios_differ_as_expected() {
        let machine = SimMachine::new(synthetic::cluster2016_subset(4).unwrap(), CostParams::cluster2016());
        let w = Lk23Workload::new(1024, 4, 8, 10);
        let bind = build_scenario(&machine, &w, ImplKind::OrwlBind, 1);
        let nobind = build_scenario(&machine, &w, ImplKind::OrwlNoBind, 1);
        let openmp = build_scenario(&machine, &w, ImplKind::OpenMp, 1);
        assert!(!bind.migrating && !bind.fork_join_barrier);
        assert!(nobind.migrating && !nobind.fork_join_barrier);
        assert!(openmp.migrating && openmp.fork_join_barrier);
        assert_eq!(bind.remote_data_fraction(&machine), 0.0);
        assert!(openmp.remote_data_fraction(&machine) > 0.5);
    }

    #[test]
    fn figure1_ordering_holds_on_a_small_machine() {
        // Even on a 4-socket subset the qualitative result of Figure 1 must
        // hold: Bind < NoBind < OpenMP.
        let machine = SimMachine::new(synthetic::cluster2016_subset(4).unwrap(), CostParams::cluster2016());
        let w = Lk23Workload::new(4096, 4, 8, 10);
        let t_bind = simulate_implementation(&machine, &w, ImplKind::OrwlBind, 3).total_time;
        let t_nobind = simulate_implementation(&machine, &w, ImplKind::OrwlNoBind, 3).total_time;
        let t_openmp = simulate_implementation(&machine, &w, ImplKind::OpenMp, 3).total_time;
        assert!(t_bind < t_nobind, "bind {t_bind} vs nobind {t_nobind}");
        assert!(t_nobind < t_openmp, "nobind {t_nobind} vs openmp {t_openmp}");
    }

    #[test]
    fn bind_scales_with_sockets_but_openmp_does_not() {
        // The paper's key observation: beyond one or two sockets the
        // non-topology-aware versions stop improving.
        let w2 = Lk23Workload::new(16384, 4, 4, 5); // 16 tasks on 16 cores
        let w24 = Lk23Workload::new(16384, 12, 16, 5); // 192 tasks on 192 cores
        let m2 = SimMachine::new(synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016());
        let m24 = SimMachine::new(synthetic::cluster2016_subset(24).unwrap(), CostParams::cluster2016());
        let bind_2 = simulate_implementation(&m2, &w2, ImplKind::OrwlBind, 1).total_time;
        let bind_24 = simulate_implementation(&m24, &w24, ImplKind::OrwlBind, 1).total_time;
        let omp_2 = simulate_implementation(&m2, &w2, ImplKind::OpenMp, 1).total_time;
        let omp_24 = simulate_implementation(&m24, &w24, ImplKind::OpenMp, 1).total_time;
        // Bind gains substantially from 12x more cores.
        assert!(bind_24 < bind_2 * 0.2, "bind: {bind_2} -> {bind_24}");
        // OpenMP gains far less (interconnect and remote-memory bound).
        let bind_gain = bind_2 / bind_24;
        let omp_gain = omp_2 / omp_24;
        assert!(bind_gain > omp_gain * 1.5, "bind gain {bind_gain} vs openmp gain {omp_gain}");
    }
}
