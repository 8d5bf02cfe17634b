//! # orwl-adapt — online communication monitoring and adaptive re-placement
//!
//! The paper's pipeline is *static*: build a communication matrix offline,
//! run TreeMatch (Algorithm 1), bind once, execute.  This crate closes that
//! measure → aggregate → map → bind loop **online** for workloads whose
//! communication patterns are unknown up front or drift over time:
//!
//! * [`online`] — [`OnlineCommMatrix`](online::OnlineCommMatrix), an epoch-windowed accumulator with
//!   exponential decay fed by the transfer hooks in `orwl_core::monitor`
//!   (real runtime) and `orwl_numasim::exec::SimMonitor` (simulator);
//! * [`drift`] — [`DriftDetector`](drift::DriftDetector), comparing the live matrix against the
//!   matrix the current placement was computed from (normalised
//!   `mapping_cost_default` delta, with patience and cooldown hysteresis),
//!   and `DriftStep`, the one *epoch* (roll → warm-up gate → smooth →
//!   observe) and *adopt* (re-anchor, arm the cooldown) of every loop;
//! * [`replace`] — [`ReplacerConfig::weigh`](replace::ReplacerConfig::weigh), the migration economy in
//!   whatever unit the caller prices, and [`Replacer`](replace::Replacer), which recomputes
//!   the TreeMatch placement and weighs it in hop-bytes (bytes moved ×
//!   inter-leaf hop distance as the bill);
//! * [`driver`] — [`driver::Backend`], the one `ExecutionBackend` and
//!   phased-workload loop (static / oracle / adaptive) of both simulators;
//!   the machine sits behind [`PhasedModel`](driver::PhasedModel);
//! * [`engine`] — [`AdaptiveEngine`](engine::AdaptiveEngine), the same step and replacer wired into
//!   `orwl_core`'s event runtime: build the spec with
//!   [`adaptive_session_spec`](engine::adaptive_session_spec) and hand it to
//!   `Session::builder().adaptive(..)` (threads re-bind cooperatively at
//!   lock acquisitions);
//! * [`backend`] — [`SimBackend`], the NUMA simulator as that backend.

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod backend;
pub mod drift;
pub mod driver;
pub mod engine;
pub mod online;
pub mod replace;
mod reshard;

pub use backend::SimBackend;
pub use engine::AdaptConfig;
pub use reshard::{reshard_after_loss, ReshardPlan};
