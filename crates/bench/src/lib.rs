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
//! The Criterion benchmarks under `benches/` and the `figure1_sim` example
//! are thin wrappers around these functions, so the numbers reported in
//! EXPERIMENTS.md can be regenerated from several entry points.

pub mod ablations;
pub mod figure1;
pub mod proc_corr;
pub mod scaling;

pub use figure1::{figure1_sweep, headline, render_table, Figure1Row, Headline};
