//! `orwl-obs` — structured run telemetry for every backend.
//!
//! A [`Recorder`] is a per-run flight recorder: typed events
//! ([`EventKind`]) land in per-thread ring buffers, metrics
//! ([`metrics::MetricsRegistry`]) aggregate counters/gauges/histograms,
//! and [`Recorder::finish`] drains everything into a [`RunTelemetry`] that
//! exports as a versioned `orwl-obs/v1` JSON artifact or a Chrome
//! trace-event timeline (see [`export`]).
//!
//! Recording is **default-off** and the disabled fast path is one read of
//! a thread-local flag: deep hot paths (lock grants, rebinds, solve phases)
//! call [`enabled`] and return immediately when the calling thread has no
//! recorder.  Backends that hold their own `Arc<Recorder>` record through
//! it directly; library code with no handle emits into the calling
//! thread's *scope* ([`install`]/[`emit`]).  A scope belongs to one thread
//! and holds at most one recorder: a run installs its recorder on the
//! thread that drives it, and every thread that run spawns to emit on its
//! behalf takes [`current`] before the spawn and installs it first thing
//! in its body.  Threads outside that family see nothing, so two observed
//! runs in one process cannot reach each other's recorders.
//!
//! Clocks: a recorder is created with a [`ClockKind`].  Thread backends
//! stamp monotonic wall time; simulator backends advance the virtual clock
//! with [`Recorder::set_sim_now`] as simulated seconds accumulate, so one
//! timeline viewer works for all execution paths.  Wall time is the host's
//! `CLOCK_MONOTONIC`, which every process on the host (in one time
//! namespace) reads alike, so the recorders of cooperating processes
//! share one clock and differ only in their origins
//! ([`Recorder::origin_us`]).

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod analyze;
pub mod diff;
mod event;
pub mod export;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod timeseries;

pub use event::{ClockKind, DriftOutcome, EventKind, FabricLane, ObsEvent, SolvePhase};
pub use json::{Json, ToJson};
pub use merge::TelemetrySnapshot;
pub use timeseries::{fold_deltas, DeltaSampler, IntervalStats, LiveAggregator, TelemetryDelta};

use metrics::{MetricsRegistry, MetricsSnapshot};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning of a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Capacity of each per-thread event ring; the oldest events are
    /// overwritten (and counted as dropped) once a thread exceeds it.
    pub ring_capacity: usize,
    /// Lock waits at least this long (in nanoseconds) become events; all
    /// waits land in the `lock_wait_ns` histogram regardless.
    pub lock_wait_threshold_ns: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { ring_capacity: 1 << 16, lock_wait_threshold_ns: 10_000 }
    }
}

/// One thread's event ring: overwrite-oldest with a drop counter.
#[derive(Debug)]
struct Ring {
    tid: u64,
    state: Mutex<RingState>,
}

#[derive(Debug, Default)]
struct RingState {
    buf: Vec<ObsEvent>,
    /// Overwrite cursor once `buf` is at capacity.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn record(&self, capacity: usize, ev: ObsEvent) {
        let mut s = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.buf.len() < capacity.max(1) {
            s.buf.push(ev);
        } else {
            let at = s.next;
            s.buf[at] = ev;
            s.next = (s.next + 1) % capacity.max(1);
            s.dropped += 1;
        }
    }

    fn drain(&self) -> (Vec<ObsEvent>, u64) {
        let mut s = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        s.next = 0;
        let dropped = std::mem::take(&mut s.dropped);
        (std::mem::take(&mut s.buf), dropped)
    }
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// A per-run flight recorder; create with [`Recorder::new`], drain with
/// [`Recorder::finish`].
#[derive(Debug)]
pub struct Recorder {
    id: u64,
    clock: ClockKind,
    config: ObsConfig,
    /// `CLOCK_MONOTONIC` (ns) at creation: this recorder's time zero.
    origin_ns: u64,
    /// Simulated "now" in microseconds, as `f64` bits.
    sim_now_us: AtomicU64,
    seq: AtomicU64,
    next_tid: AtomicU64,
    rings: Mutex<Vec<Arc<Ring>>>,
    metrics: MetricsRegistry,
}

thread_local! {
    /// Per-thread cache of `(recorder id, ring)` so steady-state recording
    /// touches no recorder-wide lock.
    static TL_RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A fresh recorder on the given clock.
    #[must_use]
    pub fn new(clock: ClockKind, config: ObsConfig) -> Arc<Recorder> {
        Arc::new(Recorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            clock,
            config,
            origin_ns: monotonic_ns(),
            sim_now_us: AtomicU64::new(0f64.to_bits()),
            seq: AtomicU64::new(0),
            next_tid: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        })
    }

    /// This recorder's event time zero on the host's `CLOCK_MONOTONIC`, in
    /// microseconds: two recorders' timelines, in this process or another
    /// on the same host, align by the difference of their origins.
    #[must_use]
    pub fn origin_us(&self) -> f64 {
        self.origin_ns as f64 / 1.0e3
    }

    /// The metrics registry of this run.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Advances the simulated clock (no-op on wall recorders).
    pub fn set_sim_now(&self, seconds: f64) {
        self.sim_now_us.store((seconds * 1.0e6).to_bits(), Ordering::Relaxed);
    }

    /// "Now" in microseconds on this recorder's clock.
    #[must_use]
    pub(crate) fn now_us(&self) -> f64 {
        match self.clock {
            ClockKind::Wall => monotonic_ns().saturating_sub(self.origin_ns) as f64 / 1.0e3,
            ClockKind::Simulated => f64::from_bits(self.sim_now_us.load(Ordering::Relaxed)),
        }
    }

    fn ring_for_current_thread(&self) -> Arc<Ring> {
        TL_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(ring);
            }
            // Miss: drop cache entries whose recorder is gone (their ring's
            // only other owner was the recorder), then register a new ring.
            cache.retain(|(_, ring)| Arc::strong_count(ring) > 1);
            let ring = Arc::new(Ring {
                tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(RingState::default()),
            });
            self.rings.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(Arc::clone(&ring));
            cache.push((self.id, Arc::clone(&ring)));
            ring
        })
    }

    /// Records an event, stamping it with the recorder's clock, and feeds
    /// the corresponding metric instruments.
    pub fn record(&self, kind: EventKind) {
        self.update_metrics(&kind);
        self.push_event(kind);
    }

    fn push_event(&self, kind: EventKind) {
        let dur_us = match kind {
            EventKind::PlacementSolve { wall_ns, .. } => wall_ns as f64 / 1.0e3,
            _ => 0.0,
        };
        let ev = ObsEvent {
            ts_us: self.now_us(),
            dur_us,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            tid: 0, // overwritten below with the ring's tid
            track: 0,
            kind,
        };
        let ring = self.ring_for_current_thread();
        self.metrics.counter("events_recorded").incr();
        ring.record(self.config.ring_capacity, ObsEvent { tid: ring.tid, ..ev });
    }

    fn update_metrics(&self, kind: &EventKind) {
        match kind {
            EventKind::Epoch { bytes, .. } => {
                self.metrics.counter("epochs").incr();
                if *bytes > 0.0 {
                    self.metrics.histogram("epoch_bytes").observe(*bytes as u64);
                }
            }
            EventKind::PlacementSolve { phase, wall_ns } => {
                if *phase == SolvePhase::Total {
                    self.metrics.counter("placement_solves").incr();
                    self.metrics.histogram("placement_solve_wall_ns").observe(*wall_ns);
                }
            }
            EventKind::DriftDecision { outcome, delta } => {
                let name = match outcome {
                    DriftOutcome::Fired => "drift_fired",
                    DriftOutcome::SuppressedByPatience => "drift_suppressed_by_patience",
                    DriftOutcome::Cooldown => "drift_cooldown",
                    DriftOutcome::Quiet => "drift_quiet",
                };
                self.metrics.counter(name).incr();
                self.metrics.gauge("drift_delta_last").set(*delta);
            }
            EventKind::LockWait { wait_ns, .. } => {
                // The histogram sample was already taken by
                // `record_lock_wait`; this counts the over-threshold tail.
                self.metrics.counter("lock_waits_over_threshold").incr();
                let _ = wait_ns;
            }
            EventKind::FabricTransfer { lane, bytes } => {
                self.metrics.histogram(lane.metric()).observe(*bytes as u64);
            }
            EventKind::Rebind { .. } => {
                self.metrics.counter("rebinds").incr();
            }
            EventKind::Migration { bytes, .. } => {
                self.metrics.counter("migrations").incr();
                self.metrics.histogram("migration_bytes").observe(*bytes as u64);
            }
            EventKind::LockRequest { .. } => {
                self.metrics.counter("remote_requests").incr();
            }
            EventKind::LockGrant { wait_ns, .. } => {
                self.metrics.counter("remote_grants").incr();
                self.metrics.histogram("owner_fifo_wait_ns").observe(*wait_ns);
            }
            EventKind::LockRelease { held_ns, .. } => {
                self.metrics.histogram("remote_held_ns").observe(*held_ns);
            }
            EventKind::NodeLoss { tasks_lost, .. } => {
                self.metrics.counter("node_losses").incr();
                self.metrics.histogram("node_loss_tasks").observe(*tasks_lost as u64);
            }
            EventKind::Recovery { tasks_migrated, .. } => {
                self.metrics.counter("recoveries").incr();
                self.metrics.histogram("recovery_tasks_migrated").observe(*tasks_migrated as u64);
            }
        }
    }

    /// Records one lock wait: every wait lands in the `lock_wait_ns`
    /// histogram; waits over the configured threshold also become events.
    pub(crate) fn record_lock_wait(&self, location: u64, wait_ns: u64) {
        self.metrics.histogram("lock_wait_ns").observe(wait_ns);
        if wait_ns >= self.config.lock_wait_threshold_ns {
            self.record(EventKind::LockWait { location, wait_ns });
        }
    }

    /// Drains every thread's ring into one `(ts, seq)`-ordered event list
    /// plus the drop count accumulated since the previous drain.  Rings are
    /// left empty and their drop counters reset, so consecutive drains are
    /// disjoint: an event (and a drop) is reported exactly once, whether it
    /// leaves through [`Recorder::finish`] or a mid-run
    /// [`timeseries::DeltaSampler`].
    pub(crate) fn drain_rings(&self) -> (Vec<ObsEvent>, u64) {
        let rings: Vec<Arc<Ring>> =
            self.rings.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in rings {
            let (evs, d) = ring.drain();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by(|a, b| {
            a.ts_us.partial_cmp(&b.ts_us).unwrap_or(std::cmp::Ordering::Equal).then(a.seq.cmp(&b.seq))
        });
        (events, dropped)
    }

    /// Drains every thread's ring into one `(ts, seq)`-ordered timeline
    /// plus a metrics snapshot.  Rings are left empty, so telemetry is
    /// whatever was recorded since the last `finish`.
    #[must_use]
    pub fn finish(&self, backend: &str) -> RunTelemetry {
        let (events, dropped) = self.drain_rings();
        RunTelemetry {
            backend: backend.to_string(),
            clock: self.clock,
            events,
            dropped,
            metrics: self.metrics.snapshot(),
            tracks: Vec::new(),
        }
    }
}

/// One process timeline of a merged multi-process document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    /// Track id events reference via [`ObsEvent::track`].
    pub track: u32,
    /// Human-readable label (`coordinator`, `node0`, ...); also the
    /// Perfetto process name of the exported track.
    pub label: String,
}

/// The drained telemetry of one run: the sorted event timeline plus the
/// final metric values.  Hangs off `Report::obs` in `orwl-core` and
/// exports via [`export`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// Name of the backend that produced the run.
    pub backend: String,
    /// The clock the events are stamped with.
    pub clock: ClockKind,
    /// All recorded events, ordered by `(ts_us, seq)`.
    pub events: Vec<ObsEvent>,
    /// Events lost to ring-buffer overwrites.
    pub dropped: u64,
    /// Final metric values.
    pub metrics: MetricsSnapshot,
    /// Process timelines of a merged multi-process run; empty for
    /// single-process telemetry (every event on implicit track 0).
    pub tracks: Vec<TrackInfo>,
}

impl RunTelemetry {
    /// Number of events of the given kind name.
    #[must_use]
    pub fn count_kind(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.kind.name() == name).count()
    }
}

/// The host's `CLOCK_MONOTONIC` in nanoseconds: one clock for every
/// process on the host that shares its time namespace.
fn monotonic_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, now: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_MONOTONIC: std::ffi::c_int = 1;
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's (std links it), declared
    // with Linux's `struct timespec` layout; it writes only through `now`,
    // a live, exclusively borrowed `Timespec`, and `CLOCK_MONOTONIC` is a
    // clock every Linux kernel has, so the call cannot fail.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut now) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

// --- The per-thread scope -------------------------------------------------

thread_local! {
    /// Whether [`SCOPE`] holds a recorder: the closed gate is one read of
    /// this flag, which needs no lazy initialisation and no destructor.
    static OPEN: Cell<bool> = const { Cell::new(false) };
    /// The recorder library code on this thread emits into.
    static SCOPE: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// True when the calling thread has a recorder in scope — one thread-local
/// read, so hot paths can gate on it without measurable cost.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    OPEN.with(Cell::get)
}

/// Keeps a recorder in the installing thread's scope; dropping it restores
/// what the [`install`] replaced.  Registrations nest, so they are dropped
/// in reverse order of installation, on the thread that installed them.
#[must_use = "dropping the registration immediately restores the previous scope"]
#[derive(Debug)]
pub struct ObsRegistration {
    replaced: Option<Arc<Recorder>>,
    /// The scope is the installing thread's: the registration stays there.
    _not_send: PhantomData<*const ()>,
}

/// Makes `recorder` the calling thread's scope, so library code with no
/// handle ([`emit`], [`time_phase`], [`lock_wait`]) reaches it — and only
/// it: an enclosing scope's recorder is set aside until the returned
/// registration drops.  A thread that emits on the run's behalf inherits
/// the scope by installing the spawner's [`current`] recorder itself.
pub fn install(recorder: &Arc<Recorder>) -> ObsRegistration {
    let replaced = SCOPE.with(|scope| scope.borrow_mut().replace(Arc::clone(recorder)));
    OPEN.with(|open| open.set(true));
    ObsRegistration { replaced, _not_send: PhantomData }
}

impl Drop for ObsRegistration {
    fn drop(&mut self) {
        OPEN.with(|open| open.set(self.replaced.is_some()));
        // `try_with`: a registration dropped by thread-local teardown may
        // find the scope already gone, and `Drop` must not panic.
        let _ = SCOPE.try_with(|scope| *scope.borrow_mut() = self.replaced.take());
    }
}

/// The recorder in the calling thread's scope, for handing to a thread
/// about to be spawned (which [`install`]s it first thing in its body).
#[must_use]
pub fn current() -> Option<Arc<Recorder>> {
    SCOPE.with(|scope| scope.borrow().clone())
}

/// Runs `f` on the calling thread's recorder.  Callers test [`enabled`]
/// first and are `#[inline]`; this half stays out of line, so that what a
/// call site pays while the gate is closed is the flag test alone.
#[inline(never)]
fn with_scope(f: impl FnOnce(&Recorder)) {
    SCOPE.with(|scope| {
        if let Some(recorder) = scope.borrow().as_deref() {
            f(recorder);
        }
    });
}

/// Emits an event to the calling thread's recorder (no-op without one).
#[inline]
pub fn emit(kind: EventKind) {
    if enabled() {
        with_scope(|r| r.record(kind));
    }
}

/// Reports a lock wait to the calling thread's recorder (no-op without one).
#[inline]
pub fn lock_wait(location: u64, wait_ns: u64) {
    if enabled() {
        with_scope(|r| r.record_lock_wait(location, wait_ns));
    }
}

/// Times `f` as a solve-phase span when recording is enabled; otherwise
/// runs it untouched (no `Instant` call on the disabled path).
pub fn time_phase<R>(phase: SolvePhase, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let result = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    emit(EventKind::PlacementSolve { phase, wall_ns });
    result
}

/// Reports an already-measured solve-phase duration (for pipelines that
/// accumulate per-level timings themselves).
pub fn solve_phase_ns(phase: SolvePhase, wall_ns: u64) {
    emit(EventKind::PlacementSolve { phase, wall_ns });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default_and_emit_is_a_noop() {
        // This thread installed nothing, whatever other tests are doing on
        // theirs: the gate is closed and emitting goes nowhere.
        assert!(!enabled());
        assert!(current().is_none());
        emit(EventKind::Epoch { epoch: 1, bytes: 0.0 });
        lock_wait(7, 1_000_000);
        assert_eq!(time_phase(SolvePhase::Total, || 41 + 1), 42);
    }

    #[test]
    fn install_records_and_finish_drains_in_order() {
        let rec = Recorder::new(ClockKind::Simulated, ObsConfig::default());
        let reg = install(&rec);
        assert!(enabled());
        rec.set_sim_now(1.0);
        emit(EventKind::Epoch { epoch: 1, bytes: 512.0 });
        rec.set_sim_now(2.0);
        emit(EventKind::DriftDecision { outcome: DriftOutcome::Quiet, delta: 0.01 });
        emit(EventKind::Epoch { epoch: 2, bytes: 256.0 });
        drop(reg);

        let t = rec.finish("sim");
        assert_eq!(t.backend, "sim");
        assert_eq!(t.clock, ClockKind::Simulated);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events[0].ts_us, 1.0e6);
        assert_eq!(t.events[1].ts_us, 2.0e6);
        // Equal timestamps keep emission order through seq.
        assert!(t.events[1].seq < t.events[2].seq);
        assert_eq!(t.count_kind("epoch"), 2);
        assert_eq!(t.metrics.counter("epochs"), Some(2));
        assert_eq!(t.metrics.counter("drift_quiet"), Some(1));
        // A second finish sees an empty timeline (rings were drained).
        assert!(rec.finish("sim").events.is_empty());
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let rec = Recorder::new(ClockKind::Simulated, ObsConfig { ring_capacity: 4, ..Default::default() });
        for epoch in 0..10 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let t = rec.finish("sim");
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        // The ring kept the newest events.
        assert!(t.events.iter().all(|e| matches!(e.kind, EventKind::Epoch { epoch, .. } if epoch >= 6)));
        assert_eq!(t.metrics.counter("events_recorded"), Some(10));
    }

    #[test]
    fn lock_wait_threshold_splits_histogram_from_events() {
        let rec =
            Recorder::new(ClockKind::Wall, ObsConfig { lock_wait_threshold_ns: 1_000, ..Default::default() });
        rec.record_lock_wait(1, 10); // histogram only
        rec.record_lock_wait(1, 5_000); // histogram + event
        let t = rec.finish("threads");
        assert_eq!(t.count_kind("lock_wait"), 1);
        let h = t.metrics.histogram("lock_wait_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(t.metrics.counter("lock_waits_over_threshold"), Some(1));
    }

    #[test]
    fn threads_get_distinct_tids() {
        let rec = Recorder::new(ClockKind::Wall, ObsConfig::default());
        rec.record(EventKind::Epoch { epoch: 1, bytes: 0.0 });
        let rec2 = Arc::clone(&rec);
        std::thread::spawn(move || rec2.record(EventKind::Epoch { epoch: 2, bytes: 0.0 })).join().unwrap();
        let t = rec.finish("threads");
        let tids: std::collections::HashSet<u64> = t.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn placement_solve_events_carry_duration() {
        let rec = Recorder::new(ClockKind::Wall, ObsConfig::default());
        let reg = install(&rec);
        let v = time_phase(SolvePhase::Total, || std::hint::black_box((0..1000).sum::<u64>()));
        assert_eq!(v, 499_500);
        solve_phase_ns(SolvePhase::Group, 2_000);
        drop(reg);
        let t = rec.finish("x");
        let solves: Vec<&ObsEvent> = t.events.iter().filter(|e| e.kind.name() == "placement_solve").collect();
        assert_eq!(solves.len(), 2);
        assert!(solves[0].dur_us > 0.0);
        assert_eq!(t.metrics.counter("placement_solves"), Some(1)); // Total only
        assert!(t.metrics.histogram("placement_solve_wall_ns").unwrap().count == 1);
    }

    #[test]
    fn a_thread_outside_the_installers_family_reaches_nothing() {
        // The installer churns its scope while a thread that inherited
        // nothing emits throughout; a second thread is handed `current()`
        // the way a run's own threads are.  Channels force the overlap.
        // (The real heirs are pinned where they live: the runtime's task
        // and monitor threads by `tests/adaptive_end_to_end.rs`, the
        // worker's serving threads by `tests/proc_end_to_end.rs` — grants
        // on the owner's track matched to requests — and by the
        // benchmark's `proc.unmatched_grants` check.)
        let rec = Recorder::new(ClockKind::Wall, ObsConfig::default());
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let stranger = std::thread::spawn(move || {
            let mut seen_open = enabled();
            emit(EventKind::Rebind { task: 1, pu: 1 });
            started_tx.send(()).unwrap();
            while stop_rx.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                emit(EventKind::Rebind { task: 1, pu: 1 });
                seen_open |= enabled();
            }
            seen_open
        });
        started_rx.recv().unwrap();
        for round in 0..50u64 {
            let reg = install(&rec);
            assert!(enabled());
            emit(EventKind::Epoch { epoch: round, bytes: 0.0 });
            drop(reg);
            assert!(!enabled());
        }
        let reg = install(&rec);
        let inherited = current();
        std::thread::spawn(move || {
            let _scope = inherited.as_ref().map(install);
            emit(EventKind::Rebind { task: 2, pu: 2 });
        })
        .join()
        .unwrap();
        drop(reg);
        stop_tx.send(()).unwrap();
        assert!(!stranger.join().unwrap(), "a stranger's gate must stay closed");
        let t = rec.finish("x");
        assert_eq!(t.count_kind("epoch"), 50);
        // The one rebind is the heir's; none of the stranger's arrived.
        assert_eq!(t.count_kind("rebind"), 1);
        assert!(matches!(t.events.last().unwrap().kind, EventKind::Rebind { task: 2, .. }));
    }

    #[test]
    fn nested_install_records_to_the_inner_recorder_only() {
        let outer = Recorder::new(ClockKind::Simulated, ObsConfig::default());
        let inner = Recorder::new(ClockKind::Simulated, ObsConfig::default());
        let outer_reg = install(&outer);
        emit(EventKind::Epoch { epoch: 1, bytes: 0.0 });
        {
            let _inner_reg = install(&inner);
            assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            emit(EventKind::Epoch { epoch: 2, bytes: 0.0 });
            lock_wait(3, u64::MAX);
        }
        // The outer scope resumes where it left off.
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        emit(EventKind::Epoch { epoch: 3, bytes: 0.0 });
        drop(outer_reg);
        assert!(!enabled());

        let epochs = |t: &RunTelemetry| -> Vec<u64> {
            t.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Epoch { epoch, .. } => Some(epoch),
                    _ => None,
                })
                .collect()
        };
        let (outer, inner) = (outer.finish("outer"), inner.finish("inner"));
        assert_eq!(epochs(&outer), vec![1, 3]);
        assert_eq!(epochs(&inner), vec![2]);
        assert_eq!(outer.count_kind("lock_wait"), 0);
        assert_eq!(inner.count_kind("lock_wait"), 1);
    }
}
