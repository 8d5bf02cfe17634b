//! Typed fault injection for the multi-process backend.
//!
//! Robustness tests used to reach for ad-hoc environment knobs
//! (`ORWL_PROC_PANIC_NODE`, `ORWL_PROC_STALL_NODE`/`_MS`) sprinkled
//! through the worker.  A [`FaultPlan`] replaces them with one typed,
//! serializable description of every failure the harness can inject:
//! streamer stalls, post-start panics, delayed self-SIGKILL, per-send
//! wire delays and dropped heartbeats.  The coordinator threads the plan
//! to workers through a single environment variable ([`ENV_FAULTS`]),
//! so the same plan drives a unit test, the chaos e2e and the CI smoke
//! job — every failure mode is reproducible on demand.
//!
//! The serialized form is a `;`-separated list of `kind:node[:arg]`
//! clauses, e.g. `stall:1:500;kill:2:100`, chosen over JSON so a plan
//! stays readable inside `env` output and CI logs.

use std::fmt;

/// Environment variable carrying the serialized plan to workers.
pub(crate) const ENV_FAULTS: &str = "ORWL_PROC_FAULTS";

/// One injected failure, targeted at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Hold the node's telemetry streamer silent for `ms` before its
    /// first heartbeat — the run itself keeps executing, so the live
    /// monitor must flag and then recover the node.
    StallStreamer {
        /// Target node.
        node: usize,
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// Panic right after the `Start` barrier, before any task work.
    /// The coordinator must surface a typed `WorkerFailed` carrying the
    /// panic text from the worker's stderr tail.
    PanicAfterStart {
        /// Target node.
        node: usize,
    },
    /// The worker SIGKILLs itself `after_ms` past the `Start` barrier:
    /// no unwinding, no error frame, no flushed telemetry — the closest
    /// a test gets to yanking a machine's power cord.
    Sigkill {
        /// Target node.
        node: usize,
        /// Delay from `Start` to the self-kill, in milliseconds.
        after_ms: u64,
    },
    /// Sleep `ms` before every remote read the node issues, simulating
    /// a degraded fabric link without touching byte accounting.
    WireDelay {
        /// Target node.
        node: usize,
        /// Added latency per remote read, in milliseconds.
        ms: u64,
    },
    /// Drop the node's first `first_n` heartbeats on the floor (the
    /// interval deltas still flow), simulating a lossy control path.
    DropHeartbeats {
        /// Target node.
        node: usize,
        /// How many leading heartbeats to drop.
        first_n: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::StallStreamer { node, ms } => write!(f, "stall:{node}:{ms}"),
            Fault::PanicAfterStart { node } => write!(f, "panic:{node}"),
            Fault::Sigkill { node, after_ms } => write!(f, "kill:{node}:{after_ms}"),
            Fault::WireDelay { node, ms } => write!(f, "delay:{node}:{ms}"),
            Fault::DropHeartbeats { node, first_n } => write!(f, "drop:{node}:{first_n}"),
        }
    }
}

/// A malformed serialized plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultParseError {
    /// The clause that failed to parse.
    pub clause: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultParseError {}

/// The full set of faults injected into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Serializes the plan for [`ENV_FAULTS`].
    #[must_use]
    pub(crate) fn to_env_value(&self) -> String {
        self.faults.iter().map(ToString::to_string).collect::<Vec<_>>().join(";")
    }

    /// Parses a serialized plan (the inverse of [`Self::to_env_value`]).
    pub(crate) fn parse(text: &str) -> Result<Self, FaultParseError> {
        let mut plan = FaultPlan::new();
        for clause in text.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |reason| FaultParseError { clause: clause.to_string(), reason };
            let mut parts = clause.split(':');
            let kind = parts.next().unwrap_or("");
            let node: usize =
                parts.next().ok_or_else(|| err("missing node"))?.parse().map_err(|_| err("bad node"))?;
            let arg = parts.next();
            if parts.next().is_some() {
                return Err(err("too many fields"));
            }
            let num = |what| -> Result<u64, FaultParseError> {
                arg.ok_or_else(|| err(what))?.parse().map_err(|_| err(what))
            };
            plan.faults.push(match kind {
                "stall" => Fault::StallStreamer { node, ms: num("bad stall ms")? },
                "panic" => {
                    if arg.is_some() {
                        return Err(err("panic takes no argument"));
                    }
                    Fault::PanicAfterStart { node }
                }
                "kill" => Fault::Sigkill { node, after_ms: num("bad kill delay")? },
                "delay" => Fault::WireDelay { node, ms: num("bad delay ms")? },
                "drop" => Fault::DropHeartbeats { node, first_n: num("bad drop count")? },
                _ => return Err(err("unknown fault kind")),
            });
        }
        Ok(plan)
    }

    /// The plan a spawned worker was handed, read from [`ENV_FAULTS`].
    /// A malformed value is a worker-startup error, not a silent no-op —
    /// a chaos test whose plan never applied would pass vacuously.
    pub(crate) fn from_env() -> Result<Self, FaultParseError> {
        match std::env::var(ENV_FAULTS) {
            Ok(text) => FaultPlan::parse(&text),
            Err(_) => Ok(FaultPlan::new()),
        }
    }

    /// Streamer stall for `node`, if any.
    #[must_use]
    pub(crate) fn stall_ms(&self, node: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::StallStreamer { node: n, ms } if n == node => Some(ms),
            _ => None,
        })
    }

    /// True when `node` must panic after the start barrier.
    #[must_use]
    pub(crate) fn panics_after_start(&self, node: usize) -> bool {
        self.faults.iter().any(|f| matches!(*f, Fault::PanicAfterStart { node: n } if n == node))
    }

    /// Self-SIGKILL delay for `node`, if any.
    #[must_use]
    pub(crate) fn sigkill_after_ms(&self, node: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Sigkill { node: n, after_ms } if n == node => Some(after_ms),
            _ => None,
        })
    }

    /// Per-remote-read delay for `node`, if any.
    #[must_use]
    pub(crate) fn wire_delay_ms(&self, node: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::WireDelay { node: n, ms } if n == node => Some(ms),
            _ => None,
        })
    }

    /// Leading heartbeats to drop for `node`.
    #[must_use]
    pub(crate) fn drop_heartbeats(&self, node: usize) -> u64 {
        self.faults
            .iter()
            .find_map(|f| match *f {
                Fault::DropHeartbeats { node: n, first_n } if n == node => Some(first_n),
                _ => None,
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_roundtrip_through_the_env_encoding() {
        let plan = FaultPlan::new()
            .with(Fault::StallStreamer { node: 1, ms: 500 })
            .with(Fault::PanicAfterStart { node: 0 })
            .with(Fault::Sigkill { node: 2, after_ms: 100 })
            .with(Fault::WireDelay { node: 1, ms: 5 })
            .with(Fault::DropHeartbeats { node: 3, first_n: 4 });
        let text = plan.to_env_value();
        assert_eq!(text, "stall:1:500;panic:0;kill:2:100;delay:1:5;drop:3:4");
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
        assert_eq!(FaultPlan::parse(" stall:1:500 ; ").unwrap().stall_ms(1), Some(500));
    }

    #[test]
    fn queries_target_only_the_named_node() {
        let plan = FaultPlan::new()
            .with(Fault::Sigkill { node: 2, after_ms: 100 })
            .with(Fault::WireDelay { node: 1, ms: 5 });
        assert_eq!(plan.sigkill_after_ms(2), Some(100));
        assert_eq!(plan.sigkill_after_ms(1), None);
        assert_eq!(plan.wire_delay_ms(1), Some(5));
        assert_eq!(plan.wire_delay_ms(2), None);
        assert!(!plan.panics_after_start(2));
        assert_eq!(plan.drop_heartbeats(0), 0);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn malformed_clauses_are_typed_errors() {
        for (text, reason) in [
            ("stall", "missing node"),
            ("stall:x:5", "bad node"),
            ("stall:1", "bad stall ms"),
            ("stall:1:x", "bad stall ms"),
            ("panic:1:5", "panic takes no argument"),
            ("kill:1:5:9", "too many fields"),
            ("flood:1:5", "unknown fault kind"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert_eq!(err.reason, reason, "for {text:?}");
            assert!(err.to_string().contains(reason));
        }
    }
}
