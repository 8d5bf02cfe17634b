//! `hub_fanout`: one location, one writer, seven readers.
//!
//! The same `LockFifo` as `lk23_fine` used the other way: every writer
//! release must wake a *group* of readers, and the writer waits for all
//! seven to release.  A targeted wake-up or an uncontended fast path that
//! helps pairwise handoff but costs broadcast shows here.

use super::{fnv1a, thread_session, Checks, Outcome, Workload};
use crate::span::Tracer;
use orwl_core::prelude::*;
use orwl_core::Location;
use orwl_topo::topology::Topology;
use std::sync::{Arc, Mutex};

pub const READERS: usize = 7;
pub const ITERATIONS: u64 = 3000;
pub const GRANTS: f64 = ((READERS as u64 + 1) * ITERATIONS) as f64;

pub struct HubFanout {
    /// The hub's starting value, from the seed.
    base: u64,
    topology: Topology,
    /// Per reader of the latest repeat: saw a strictly increasing
    /// sequence, and the last value seen.
    readers: Vec<(bool, u64)>,
    final_value: u64,
}

impl HubFanout {
    pub fn new(seed: u64) -> Self {
        HubFanout {
            base: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20,
            topology: orwl_topo::discover::discover(),
            readers: Vec::new(),
            final_value: 0,
        }
    }
}

/// What the readers of one program run saw: per reader, whether its
/// sequence was strictly increasing, and the last value.
pub type Seen = Arc<Mutex<Vec<(bool, u64)>>>;

/// The program: one writer adding 1 to the hub `iterations` times, seven
/// readers reading it as often.  The requests are posted here, in the
/// fenced init of the ORWL model — the writer's first, then every
/// reader's — so each location period is one write followed by one group
/// of seven reads.
pub fn build_program(hub: &Arc<Location<u64>>, iterations: u64) -> (OrwlProgram, Seen) {
    let base = hub.snapshot();
    let seen: Seen = Arc::new(Mutex::new(Vec::with_capacity(READERS)));
    let mut program = OrwlProgram::new();
    let mut writer = hub.iterative_handle(AccessMode::Write);
    writer.request().expect("fresh handle");
    program.add_task(TaskSpec::new("hub-writer", vec![LocationLink::write(hub.id(), 8.0)]), move |_| {
        for _ in 0..iterations {
            *writer.acquire().expect("iterative handle") += 1;
        }
    });
    for r in 0..READERS {
        let mut reader = hub.iterative_handle(AccessMode::Read);
        reader.request().expect("fresh handle");
        let seen = Arc::clone(&seen);
        program.add_task(
            TaskSpec::new(format!("hub-reader-{r}"), vec![LocationLink::read(hub.id(), 8.0)]),
            move |_| {
                let (mut increasing, mut last) = (true, base);
                for _ in 0..iterations {
                    let value = *reader.acquire().expect("iterative handle");
                    increasing &= value > last;
                    last = value;
                }
                seen.lock().expect("reader panicked").push((increasing, last));
            },
        );
    }
    (program, seen)
}

impl Workload for HubFanout {
    fn repeat(&mut self, tracer: &mut Tracer, observe: bool) -> Result<Outcome, String> {
        let session = tracer.span("core.session_build", |_| thread_session(&self.topology, observe))?;
        let hub = Location::new("hub", self.base);
        let (program, seen) = tracer.span("harness.build_program", |_| build_program(&hub, ITERATIONS));
        let mut report =
            tracer.span("core.session_run", |_| session.run(program)).map_err(|e| e.to_string())?;

        let thread = report.thread.as_ref().ok_or("thread backend reported no thread details")?;
        self.final_value = hub.snapshot();
        self.readers = std::mem::take(&mut *seen.lock().expect("reader panicked"));
        Ok(Outcome {
            exact: vec![("harness.output_hash", fnv1a(self.final_value.to_le_bytes()))],
            task_seconds: thread.per_task_time.iter().map(|d| d.as_secs_f64()).sum(),
            telemetry: report.obs.take().into_iter().collect(),
            ..Outcome::default()
        })
    }

    fn verify(&mut self, _latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        let want = self.base + ITERATIONS;
        checks.check(self.final_value == want, || {
            format!("hub_fanout: hub holds {}, want {want}", self.final_value)
        });
        checks.check(self.readers.len() == READERS, || {
            format!("hub_fanout: {} readers reported", self.readers.len())
        });
        for (r, &(increasing, last)) in self.readers.iter().enumerate() {
            checks.check(increasing && last == want, || {
                format!("hub_fanout: reader {r} increasing={increasing} last={last}, want {want}")
            });
        }
        Vec::new()
    }

    fn input_bytes(&self) -> Vec<u8> {
        self.base.to_le_bytes().to_vec()
    }
}
