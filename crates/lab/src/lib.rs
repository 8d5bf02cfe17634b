//! # orwl-lab — the experiment subsystem
//!
//! The measurement backbone of the workspace: systematic, reproducible
//! experiments over every `Session` backend, in three layers —
//!
//! 1. **[`scenario`]** — the ScenarioSpec DSL: seven named workload
//!    families (dense/rotated stencils, pipeline, all-to-all shuffle,
//!    power-law graphs, phased drifting mixes, owner-skewed hotspots),
//!    parameterised by task count, seed and phase schedule, each
//!    compiling deterministically into a [`PhasedWorkload`] for the
//!    simulator backends or an [`OrwlProgram`] for the thread backend;
//! 2. **[`trace`]** — trace capture and replay: per-epoch communication
//!    matrices recorded from monitored runs (the simulator's `SimMonitor`
//!    transfer hooks or the lock-grant flows a thread run reports to its
//!    controller) into a [`Trace`] that replays as a first-class workload
//!    and round-trips through JSON — adaptive policies can be evaluated
//!    against *captured* rather than synthetic drift;
//! 3. **[`sweep`] + [`report`]** — the grid runner and the JSON reporter:
//!    cross products of scenario × backend (threads / NUMA sim / 2-to-8
//!    node clusters with 1×/2×/4× oversubscription) × policy × mode,
//!    executed through `Session`, always anchored by the Scatter and
//!    flat-TreeMatch baselines, and emitted as the versioned,
//!    schema-checked `BENCH_lab.json` artifact
//!    (`cargo run --release -p orwl-bench --bin lab_sweep`).
//!
//! Determinism is the design constraint throughout: fixed seeds produce
//! byte-identical artifacts, so every future performance PR can regress
//! against the committed numbers.
//!
//! ```
//! use orwl_lab::prelude::*;
//! use orwl_lab::trace::capture_trace;
//!
//! // One scenario, compiled for a simulator backend...
//! let spec = ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, 42);
//! let workload = spec.workload();
//! assert_eq!(workload.n_tasks(), 16);
//!
//! // ...a trace captured from a monitored run of it...
//! let machine = orwl_numasim::machine::SimMachine::new(
//!     orwl_topo::synthetic::cluster2016_subset(2).unwrap(),
//!     orwl_numasim::costmodel::CostParams::cluster2016(),
//! );
//! let trace = capture_trace(&machine, Policy::TreeMatch, &workload, 4);
//! assert_eq!(trace.total_iterations(), workload.total_iterations());
//!
//! // ...and replayed as a first-class workload.
//! let replay = trace.to_workload();
//! assert_eq!(replay.n_tasks(), 16);
//! ```
//!
//! [`PhasedWorkload`]: orwl_numasim::workload::PhasedWorkload
//! [`OrwlProgram`]: orwl_core::task::OrwlProgram
//! [`Trace`]: trace::Trace

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

mod diff;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod trace;

pub use diff::diff_documents;
pub use report::{sweep_to_json, validate, SCHEMA_VERSION};
pub use scenario::{ScenarioFamily, ScenarioSpec};
pub use sweep::{run_sweep, run_sweep_with_threads, SweepConfig, SweepResult};
pub use trace::Trace;

/// The usual lab imports.
pub mod prelude {
    pub use crate::report::{render_table, sweep_to_json, validate, SCHEMA_VERSION};
    pub use crate::scenario::{ScenarioFamily, ScenarioSpec};
    pub use crate::sweep::{run_sweep, BackendSpec, ModeKind, SweepConfig};
    pub use orwl_treematch::policies::Policy;
}
