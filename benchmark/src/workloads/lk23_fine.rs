//! `lk23_fine`: the paper's kernel where lock handoff, not arithmetic, is
//! most of the work.
//!
//! A 64×64 grid in 4×4 blocks gives 16 block tasks on this box's 2 PUs —
//! the paper's oversubscribed case — and 400 sweeps of 256-point blocks
//! keep each task's compute between two handoffs short: ~67 k pairwise
//! write→read handoffs through `LockFifo` against 1 638 400 point updates.

use super::{fnv1a, splitmix64, thread_session, Checks, Outcome, Workload};
use crate::span::Tracer;
use orwl_core::prelude::*;
use orwl_lk23::kernel::{reference_jacobi, Grid};
use orwl_lk23::orwl_impl::build_program;
use orwl_lk23::BlockDecomposition;
use orwl_topo::topology::Topology;

pub const SIDE: usize = 64;
pub const BLOCKS: usize = 4;
pub const SWEEPS: usize = 400;
pub const POINT_UPDATES: f64 = (SIDE * SIDE * SWEEPS) as f64;

pub struct Lk23Fine {
    initial: Grid,
    topology: Topology,
    result: Option<Grid>,
}

/// The canonical initial field with a seeded ±0.05 ripple.
pub fn seeded_grid(rows: usize, cols: usize, seed: u64) -> Grid {
    let mut grid = Grid::initial(rows, cols);
    let mut state = seed;
    for v in grid.as_mut_slice() {
        *v += 0.05 * ((splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0);
    }
    grid
}

impl Lk23Fine {
    pub fn new(seed: u64) -> Self {
        Lk23Fine {
            initial: seeded_grid(SIDE, SIDE, seed),
            topology: orwl_topo::discover::discover(),
            result: None,
        }
    }
}

/// Runs LK23 through the front door with a span around each layer call.
/// This is `orwl_lk23::run_orwl` taken apart so the harness can time its
/// three steps; the calls and their order are the same.
pub fn run_lk23(
    initial: &Grid,
    blocks: (usize, usize),
    sweeps: usize,
    topology: &Topology,
    tracer: &mut Tracer,
    observe: bool,
) -> Result<(Grid, Report), String> {
    let decomposition = BlockDecomposition::new(initial.rows(), initial.cols(), blocks.0, blocks.1)?;
    let session = tracer.span("core.session_build", |_| thread_session(topology, observe))?;
    let built = tracer.span("lk23.build_program", |_| build_program(initial, decomposition, sweeps));
    let report =
        tracer.span("core.session_run", |_| session.run(built.program)).map_err(|e| e.to_string())?;
    let result = tracer.span("lk23.write_back", |_| {
        let mut result = Grid::zeros(initial.rows(), initial.cols());
        for location in &built.result_blocks {
            location.snapshot().write_back(&mut result);
        }
        result
    });
    Ok((result, report))
}

impl Workload for Lk23Fine {
    fn repeat(&mut self, tracer: &mut Tracer, observe: bool) -> Result<Outcome, String> {
        let (result, mut report) =
            run_lk23(&self.initial, (BLOCKS, BLOCKS), SWEEPS, &self.topology, tracer, observe)?;
        let thread = report.thread.as_ref().ok_or("thread backend reported no thread details")?;
        let outcome = Outcome {
            exact: vec![(
                "harness.output_hash",
                fnv1a(result.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())),
            )],
            task_seconds: thread.per_task_time.iter().map(|d| d.as_secs_f64()).sum(),
            telemetry: report.obs.take().into_iter().collect(),
            ..Outcome::default()
        };
        self.result = Some(result);
        Ok(outcome)
    }

    fn verify(&mut self, _latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        let reference = reference_jacobi(&self.initial, SWEEPS);
        let diff = self.result.as_ref().map_or(f64::INFINITY, |r| r.max_abs_diff(&reference));
        checks.check(diff == 0.0, || format!("lk23_fine: max |orwl - reference_jacobi| = {diff}, want 0"));
        vec![("lk23.max_abs_diff", diff)]
    }

    fn input_bytes(&self) -> Vec<u8> {
        self.initial.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}
