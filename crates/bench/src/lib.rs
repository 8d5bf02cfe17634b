//! # orwl-bench — experiment harness
//!
//! Reusable building blocks for regenerating the paper's evaluation:
//!
//! * [`figure1`] — the core-count sweep behind Figure 1 (processing time of
//!   OpenMP vs ORWL NoBind vs ORWL Bind on the simulated 24-socket machine)
//!   and the headline speedups quoted in the text;
//! * [`ablations`] — the placement-policy, control-thread and
//!   oversubscription studies referenced in DESIGN.md (experiments A1–A3);
//! * [`scaling`] — placement cost at scale (experiment E-scaling): the
//!   timed grid behind `BENCH_scaling.json` and the `scaling` binary;
//! * [`proc_corr`] — the sim-vs-real correlation study (experiment
//!   E-proc): predicted vs measured inter-node bytes across the
//!   simulator and multi-process backends, behind `BENCH_proc_corr.json`
//!   and the `proc_correlate` binary.
//!
//! The bins under `src/bin/` are thin wrappers around these functions;
//! `figures` owns the Figure 1 / ablation tables (`BENCH_figure1.json`).

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod ablations;
pub mod figure1;
pub mod proc_corr;
pub mod scaling;
