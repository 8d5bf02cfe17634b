//! The six workloads and what they share.
//!
//! A workload is built from the seed (its one-off set-up), then asked for
//! repeats.  One repeat is the unit of work a user would time: build the
//! inputs users rebuild per run, `Session::build`, `Session::run`, collect
//! the result.  Checking the result happens in [`Workload::verify`],
//! outside every timed region.

pub mod hub_fanout;
pub mod lab_sweep;
pub mod lk23_fine;
pub mod placement_solve;
pub mod proc_session;
pub mod proc_short;
pub mod proc_stream;

use crate::span::Tracer;
use orwl_core::prelude::{Policy, Session, ThreadBackend};
use orwl_obs::{ObsConfig, RunTelemetry};
use orwl_topo::topology::Topology;

/// The session of both thread workloads and of the probes: the paper's
/// "Bind" configuration on the real runtime.
pub fn thread_session(topology: &Topology, observe: bool) -> Result<Session, String> {
    let builder =
        Session::builder().topology(topology.clone()).policy(Policy::TreeMatch).backend(ThreadBackend);
    if observe { builder.observe(ObsConfig::default()) } else { builder }.build().map_err(|e| e.to_string())
}

/// What one repeat hands back to the harness.
#[derive(Default)]
pub struct Outcome {
    /// Values that must come out the same on every repeat: counts, bytes,
    /// hop-bytes, a hash of the output.  Reported as they are.
    pub exact: Vec<(&'static str, f64)>,
    /// Wall-clock durations measured inside the repeat (from a report, or
    /// around a call), in the unit of the metric they are named after; the
    /// harness scales them like the repeat's own wall clock and reports
    /// the median.
    pub scaled: Vec<(&'static str, f64)>,
    /// CPU seconds spent inside the repeat; calibrated on every workload.
    pub cpu: Vec<(&'static str, f64)>,
    /// Dimensionless readings of the repeat; reported as the median.
    pub ratios: Vec<(&'static str, f64)>,
    /// Sum over tasks of their run time, on the thread workloads: what
    /// lock waiting is a fraction of.
    pub task_seconds: f64,
    /// Telemetry of the observed sessions of this repeat (traced repeats).
    pub telemetry: Vec<RunTelemetry>,
}

impl Outcome {
    pub fn exact(&self, name: &str) -> Option<f64> {
        self.exact.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Operations attempted and failed: one operation is one repeat or one
/// verification check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for stderr.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

pub trait Workload {
    /// One repeat.  `observe` builds every `Session` with
    /// `.observe(ObsConfig::default())`; the tracer records the harness
    /// spans when it is on.
    fn repeat(&mut self, tracer: &mut Tracer, observe: bool) -> Result<Outcome, String>;

    /// Checks the output of the latest repeat against an independent
    /// reference, and returns the exact values the check computed (a
    /// prediction, a baseline ratio).  Runs after all timing.
    fn verify(&mut self, latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)>;

    /// The generated inputs as bytes: the same seed must give the same
    /// bytes, another seed other bytes.
    fn input_bytes(&self) -> Vec<u8>;
}

/// One row of the workload table.
pub struct Entry {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses and which
    /// optimisation it exercises or bypasses.
    pub why: &'static str,
    /// Stated work of one repeat, the numerator of `core.session.ops_per_s`.
    pub ops: f64,
    /// Most of a repeat is waiting — on timers, process creation, socket
    /// rendezvous — not computing, so its wall clock does not follow the
    /// machine's speed and is reported as measured.  CPU seconds are
    /// calibrated on every workload.
    pub wait_bound: bool,
    /// Sessions one repeat runs, each of which must hand back telemetry
    /// when observed; 0 for the workloads that build no session.
    pub sessions: usize,
    /// The exact metrics the workload owns: a traced run that leaves one
    /// unset or not finite fails a check, because the result line would
    /// print it as 0 and a 0 reads as perfect.
    pub exact: &'static [&'static str],
    pub build: fn(u64) -> Box<dyn Workload>,
}

pub const REGISTRY: [Entry; 6] = [
    Entry {
        name: "lk23_fine",
        why: "The paper's LK23 kernel, 16 block tasks on 2 PUs: pairwise LockFifo write->read handoff is most of the run.",
        ops: lk23_fine::POINT_UPDATES,
        wait_bound: false,
        sessions: 1,
        exact: &["harness.output_hash", "lk23.max_abs_diff", "core.lock_acquisitions"],
        build: |seed| Box::new(lk23_fine::Lk23Fine::new(seed)),
    },
    Entry {
        name: "hub_fanout",
        why: "One writer waking seven readers per iteration: the same LockFifo used for broadcast, which a pairwise fast path may hurt.",
        ops: hub_fanout::GRANTS,
        wait_bound: false,
        sessions: 1,
        exact: &["harness.output_hash", "core.lock_acquisitions"],
        build: |seed| Box::new(hub_fanout::HubFanout::new(seed)),
    },
    Entry {
        name: "proc_stream",
        why: "Two worker processes, 12000 remote reads: the wire request->grant->release data plane is ~95% of the run.",
        ops: proc_stream::REMOTE_READS,
        wait_bound: false,
        sessions: 1,
        exact: &[
            "harness.output_hash",
            "proc.inter_node_bytes",
            "proc.remote_reads",
            "cluster.predicted_inter_node_bytes",
            "proc.unmatched_grants",
        ],
        build: |seed| Box::new(proc_stream::ProcStream::new(seed)),
    },
    Entry {
        name: "proc_short",
        why: "Eight short two-process sessions: spawn, rendezvous and drain dominate, so data-plane gains predict no change here.",
        ops: proc_short::SESSIONS,
        wait_bound: true,
        sessions: 8,
        exact: &[
            "harness.output_hash",
            "proc.inter_node_bytes",
            "proc.remote_reads",
            "cluster.predicted_inter_node_bytes",
            "proc.unmatched_grants",
            "locality.ratio_vs_scatter",
        ],
        build: |seed| Box::new(proc_short::ProcShort::new(seed)),
    },
    Entry {
        name: "placement_solve",
        why: "Single-threaded TreeMatch and hierarchical solves at p=512..1024: bypasses every thread, lock and socket.",
        ops: placement_solve::SOLVES,
        wait_bound: false,
        sessions: 0,
        exact: &[
            "harness.output_hash",
            "treematch.hop_bytes_stencil",
            "treematch.hop_bytes_powerlaw",
            "cluster.hop_bytes_hier",
            "locality.ratio_vs_scatter",
        ],
        build: |seed| Box::new(placement_solve::PlacementSolve::new(seed)),
    },
    Entry {
        name: "lab_sweep",
        why: "The 146-row smoke sweep over simulators, adaptive engine and small-p placement, with byte-identical JSON as the check.",
        ops: lab_sweep::ROWS,
        wait_bound: false,
        sessions: 0,
        exact: &["harness.output_hash", "lab.rows", "locality.ratio_vs_scatter"],
        build: |seed| Box::new(lab_sweep::LabSweep::new(seed)),
    },
];

pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// FNV-1a over bytes: the output hash that must repeat.  Kept to 52 bits
/// so it survives a trip through an `f64`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h >> 12) as f64
}

/// splitmix64: the benchmark's own generator for inputs no repo function
/// seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        for entry in &REGISTRY {
            let (a, b, c) = ((entry.build)(7), (entry.build)(7), (entry.build)(8));
            assert!(!a.input_bytes().is_empty(), "{}", entry.name);
            assert_eq!(a.input_bytes(), b.input_bytes(), "{}", entry.name);
            assert_ne!(a.input_bytes(), c.input_bytes(), "{}", entry.name);
        }
    }

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(e.why.len() <= 200 && !e.why.contains('\n'), "{}", e.name);
            assert!(REGISTRY[..i].iter().all(|o| o.name != e.name));
            assert!(find(e.name).is_some());
            for name in e.exact {
                assert!(PER_LAYER.iter().any(|p| p.name == *name && p.exact), "{}: {name}", e.name);
            }
        }
        assert_eq!(find("proc_short").unwrap().sessions as f64, proc_short::SESSIONS);
    }
}
