//! Online monitoring hooks: the runtime-side half of the `orwl-adapt`
//! subsystem.
//!
//! The ORWL model gives the runtime a natural observation point: every data
//! access goes through [`Handle::acquire`](crate::handle::Handle::acquire),
//! so the lock layer can report *which task touched which location in which
//! mode* with a single thread-local read plus an atomic check on the fast
//! path.  Three pieces live here:
//!
//! * **task identity** — the runtime tags each computation thread with its
//!   [`TaskId`] (`enter_task`); untagged threads (user code outside a
//!   runtime, control threads) emit nothing;
//! * **access sinks** — observers ([`AccessSink`]) registered for the
//!   duration of a run ([`register_sink`]).  The registry is global because
//!   handles are reachable from arbitrary user closures, but sinks are
//!   expected to filter by [`LocationId`] (ids are process-unique), so
//!   concurrent runtimes do not corrupt each other's measurements;
//! * **cooperative re-binding** — a `RebindPlan` holding the current
//!   epoch's thread→PU assignment.  Threads cannot be re-bound from the
//!   outside (`sched_setaffinity` binds the *calling* thread), so each task
//!   thread checks the plan's epoch counter at every lock acquisition — a
//!   relaxed atomic load when nothing changed — and re-binds itself at that
//!   natural quiescent point when the placement moved.

use crate::location::LocationId;
use crate::request::AccessMode;
use crate::task::TaskId;
use orwl_topo::binding::Binder;
use orwl_topo::bitmap::CpuSet;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Observer of per-task location accesses.
///
/// Implementations must be cheap and non-blocking: `on_access` runs inside
/// every lock acquisition of every monitored task thread.
pub trait AccessSink: Send + Sync {
    /// Called when `task` is granted `location` in `mode`.
    fn on_access(&self, task: TaskId, location: LocationId, mode: AccessMode);
}

type SinkEntry = (u64, Arc<dyn AccessSink>);

fn sink_registry() -> &'static RwLock<Vec<SinkEntry>> {
    static SINKS: OnceLock<RwLock<Vec<SinkEntry>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(0);
/// Fast-path gate: number of registered sinks (avoid taking the registry
/// lock when monitoring is off, which is the common case).
static ACTIVE_SINKS: AtomicU64 = AtomicU64::new(0);

/// RAII registration of an [`AccessSink`]; dropping it unregisters.
pub struct SinkRegistration {
    id: u64,
}

/// Registers `sink` to observe all monitored accesses until the returned
/// registration is dropped.
pub fn register_sink(sink: Arc<dyn AccessSink>) -> SinkRegistration {
    let id = NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed);
    sink_registry().write().unwrap_or_else(|e| e.into_inner()).push((id, sink));
    ACTIVE_SINKS.fetch_add(1, Ordering::SeqCst);
    SinkRegistration { id }
}

impl Drop for SinkRegistration {
    fn drop(&mut self) {
        let mut sinks = sink_registry().write().unwrap_or_else(|e| e.into_inner());
        sinks.retain(|(id, _)| *id != self.id);
        ACTIVE_SINKS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The published thread→PU assignment of the current adaptation epoch.
///
/// The runtime's monitor thread [`publish`](RebindPlan::publish)es a new
/// assignment; each task thread picks it up cooperatively at its next lock
/// acquisition.
pub(crate) struct RebindPlan {
    epoch: AtomicU64,
    /// `assignments[task] = Some(pu)` pins, `None` leaves the thread alone.
    assignments: RwLock<Vec<Option<usize>>>,
    binder: Arc<dyn Binder>,
    rebinds_applied: AtomicU64,
}

impl fmt::Debug for RebindPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RebindPlan")
            .field("epoch", &self.epoch())
            .field("rebinds_applied", &self.rebinds_applied())
            .field("binder", &self.binder.name())
            .finish()
    }
}

impl RebindPlan {
    /// Creates a plan for `n_tasks` threads with no pending re-binding.
    pub(crate) fn new(n_tasks: usize, binder: Arc<dyn Binder>) -> Arc<Self> {
        Arc::new(RebindPlan {
            epoch: AtomicU64::new(0),
            assignments: RwLock::new(vec![None; n_tasks]),
            binder,
            rebinds_applied: AtomicU64::new(0),
        })
    }

    /// Publishes a new assignment and advances the epoch so task threads
    /// re-bind at their next quiescent point.
    pub(crate) fn publish(&self, assignments: Vec<Option<usize>>) {
        *self.assignments.write().unwrap_or_else(|e| e.into_inner()) = assignments;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current epoch number (0 = initial placement, nothing published).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of thread re-bindings actually applied by task threads.
    pub(crate) fn rebinds_applied(&self) -> u64 {
        self.rebinds_applied.load(Ordering::Relaxed)
    }

    fn apply_for(&self, task: TaskId) {
        let target =
            self.assignments.read().unwrap_or_else(|e| e.into_inner()).get(task.0).copied().flatten();
        if let Some(pu) = target {
            // A failed re-bind is not fatal: the thread keeps its previous
            // affinity, exactly like the unmappable case of Algorithm 1.
            if self.binder.bind_current_thread(&CpuSet::singleton(pu)).is_ok() {
                self.rebinds_applied.fetch_add(1, Ordering::Relaxed);
                orwl_obs::emit(orwl_obs::EventKind::Rebind { task: task.0, pu });
            }
        }
    }
}

thread_local! {
    static CURRENT_TASK: Cell<Option<TaskId>> = const { Cell::new(None) };
    static SEEN_EPOCH: Cell<u64> = const { Cell::new(0) };
}

// The rebind plan is behind a thread-local `Cell<Option<Arc<..>>>`-style
// slot; `RefCell` is avoided on the hot path by only touching the slot when
// the epoch counter moved.
thread_local! {
    static REBIND_PLAN: std::cell::RefCell<Option<Arc<RebindPlan>>> = const { std::cell::RefCell::new(None) };
}

/// RAII tag marking the current thread as executing `task`; created by the
/// runtime when it spawns a computation thread.
pub(crate) struct TaskGuard {
    _priv: (),
}

/// Tags the calling thread as executing `task`, optionally attaching the
/// runtime's [`RebindPlan`].  Dropping the guard clears the tag.
///
/// The last-seen epoch starts at 0 (the plan's initial epoch), NOT at the
/// plan's current epoch: a re-placement published before this thread got
/// here must be applied at its first lock grant, since the thread bound
/// itself from the by-then-stale initial placement.
pub(crate) fn enter_task(task: TaskId, plan: Option<Arc<RebindPlan>>) -> TaskGuard {
    CURRENT_TASK.with(|c| c.set(Some(task)));
    SEEN_EPOCH.with(|c| c.set(0));
    REBIND_PLAN.with(|c| *c.borrow_mut() = plan);
    TaskGuard { _priv: () }
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        CURRENT_TASK.with(|c| c.set(None));
        REBIND_PLAN.with(|c| *c.borrow_mut() = None);
    }
}

/// The task id the calling thread is tagged with, if any.
#[cfg(test)]
pub(crate) fn current_task() -> Option<TaskId> {
    CURRENT_TASK.with(|c| c.get())
}

/// The lock layer's hook: called by `Handle::acquire` after
/// a grant.  No-op on untagged threads; on tagged threads it applies any
/// pending re-binding and notifies the registered sinks.
pub(crate) fn on_lock_granted(location: LocationId, mode: AccessMode) {
    let Some(task) = CURRENT_TASK.with(|c| c.get()) else { return };

    // Cooperative re-binding: one relaxed atomic load when idle.
    REBIND_PLAN.with(|slot| {
        if let Some(plan) = slot.borrow().as_ref() {
            let epoch = plan.epoch();
            if SEEN_EPOCH.with(|c| c.get()) != epoch {
                SEEN_EPOCH.with(|c| c.set(epoch));
                plan.apply_for(task);
            }
        }
    });

    if ACTIVE_SINKS.load(Ordering::SeqCst) == 0 {
        return;
    }
    let sinks = sink_registry().read().unwrap_or_else(|e| e.into_inner());
    for (_, sink) in sinks.iter() {
        sink.on_access(task, location, mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_topo::binding::RecordingBinder;
    use std::sync::Mutex;

    /// Test sink filtering on one location id — tests in this binary run
    /// concurrently and the registry is global, so each test observes only
    /// its own (unique) location, exactly like production sinks do.
    struct CountingSink {
        only: LocationId,
        events: Mutex<Vec<(TaskId, AccessMode)>>,
    }

    impl CountingSink {
        fn new(only: LocationId) -> Arc<Self> {
            Arc::new(CountingSink { only, events: Mutex::new(Vec::new()) })
        }
    }

    impl AccessSink for CountingSink {
        fn on_access(&self, task: TaskId, location: LocationId, mode: AccessMode) {
            if location == self.only {
                self.events.lock().unwrap().push((task, mode));
            }
        }
    }

    #[test]
    fn untagged_threads_emit_nothing() {
        let sink = CountingSink::new(LocationId(u64::MAX - 1));
        let _reg = register_sink(sink.clone());
        on_lock_granted(LocationId(u64::MAX - 1), AccessMode::Read);
        assert!(sink.events.lock().unwrap().is_empty());
    }

    #[test]
    fn tagged_threads_emit_and_clear_on_drop() {
        let loc = LocationId(u64::MAX - 2);
        let sink = CountingSink::new(loc);
        let reg = register_sink(sink.clone());
        {
            let _guard = enter_task(TaskId(3), None);
            assert_eq!(current_task(), Some(TaskId(3)));
            on_lock_granted(loc, AccessMode::Write);
        }
        assert_eq!(current_task(), None);
        on_lock_granted(loc, AccessMode::Write);
        let events = sink.events.lock().unwrap().clone();
        assert_eq!(events, vec![(TaskId(3), AccessMode::Write)]);
        drop(reg);
        // Unregistered sinks receive nothing further.
        let _guard = enter_task(TaskId(3), None);
        on_lock_granted(loc, AccessMode::Write);
        assert_eq!(sink.events.lock().unwrap().len(), 1);
    }

    #[test]
    fn rebind_plan_applies_once_per_epoch() {
        let binder = Arc::new(RecordingBinder::new());
        let plan = RebindPlan::new(2, binder.clone());
        let _guard = enter_task(TaskId(1), Some(Arc::clone(&plan)));

        // Epoch 0: nothing published, nothing applied.
        on_lock_granted(LocationId(90001), AccessMode::Read);
        assert_eq!(plan.rebinds_applied(), 0);

        // Publish a placement: the next grant re-binds, later grants do not.
        plan.publish(vec![None, Some(5)]);
        on_lock_granted(LocationId(90001), AccessMode::Read);
        on_lock_granted(LocationId(90001), AccessMode::Read);
        assert_eq!(plan.rebinds_applied(), 1);
        assert_eq!(binder.anonymous_bindings(), vec![CpuSet::singleton(5)]);

        // A task assigned `None` is left alone.
        plan.publish(vec![None, None]);
        on_lock_granted(LocationId(90001), AccessMode::Read);
        assert_eq!(plan.rebinds_applied(), 1);
        assert_eq!(plan.epoch(), 2);
    }
}
