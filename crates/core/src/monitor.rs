//! Online monitoring hooks: the runtime-side half of the `orwl-adapt`
//! subsystem.
//!
//! Under ORWL every data access is a lock grant
//! ([`Handle::acquire`](crate::handle::Handle::acquire)), and a grant of a
//! location to task *t* moves the location's bytes from its **last writer**
//! to *t*.  An adaptive thread run gives each of its task threads one
//! thread-local scope ([`enter_task`]): the task id, the last epoch the
//! thread saw, and the run's [`AdaptiveRun`] — its controller, its
//! [`RebindPlan`] and one last-writer map.  [`on_lock_granted`] reads only
//! that scope, so a static run's grant path is one thread-local read.  On
//! an adaptive run's grant it
//!
//! * **re-binds cooperatively** — threads cannot be re-bound from the
//!   outside (`sched_setaffinity` binds the *calling* thread), so the task
//!   thread compares the plan's epoch counter with the last one it saw —
//!   one atomic load when nothing changed — and re-binds itself at this
//!   natural quiescent point when the placement moved;
//! * **applies the last-writer rule**, the one place it is written: the
//!   controller hears [`on_flow`](AdaptiveController::on_flow) for a grant
//!   whose location was last written by another task of the same run.

use crate::location::LocationId;
use crate::request::AccessMode;
use crate::runtime::AdaptiveController;
use crate::task::TaskId;
use orwl_topo::binding::Binder;
use orwl_topo::bitmap::CpuSet;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What one adaptive thread run shares with its task threads.
pub(crate) struct AdaptiveRun {
    /// Observes the run's flows and decides its re-placements.
    pub(crate) controller: Arc<dyn AdaptiveController>,
    /// The assignment the task threads re-bind from.
    pub(crate) plan: RebindPlan,
    /// The task that last wrote each location granted in this run.
    last_writer: Mutex<HashMap<LocationId, TaskId>>,
}

impl AdaptiveRun {
    /// A run of `n_tasks` task threads observed by `controller`.
    pub(crate) fn new(
        controller: Arc<dyn AdaptiveController>,
        n_tasks: usize,
        binder: Arc<dyn Binder>,
    ) -> Arc<Self> {
        let plan = RebindPlan::new(n_tasks, binder);
        Arc::new(AdaptiveRun { controller, plan, last_writer: Mutex::default() })
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

impl RebindPlan {
    /// Creates a plan for `n_tasks` threads with no pending re-binding.
    fn new(n_tasks: usize, binder: Arc<dyn Binder>) -> Self {
        RebindPlan {
            epoch: AtomicU64::new(0),
            assignments: RwLock::new(vec![None; n_tasks]),
            binder,
            rebinds_applied: AtomicU64::new(0),
        }
    }

    /// Publishes a new assignment and advances the epoch so task threads
    /// re-bind at their next quiescent point.
    pub(crate) fn publish(&self, assignments: Vec<Option<usize>>) {
        *self.assignments.write().unwrap_or_else(|e| e.into_inner()) = assignments;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current epoch number (0 = initial placement, nothing published).
    fn epoch(&self) -> u64 {
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
                crate::fifo::read_home(&*self.binder);
                self.rebinds_applied.fetch_add(1, Ordering::Relaxed);
                orwl_obs::emit(orwl_obs::EventKind::Rebind { task: task.0, pu });
            }
        }
    }
}

/// A task thread's view of its adaptive run.
struct TaskScope {
    task: TaskId,
    seen_epoch: u64,
    run: Arc<AdaptiveRun>,
}

thread_local! {
    static SCOPE: RefCell<Option<TaskScope>> = const { RefCell::new(None) };
}

/// RAII scope marking the current thread as `task` of an adaptive run;
/// dropping it clears the scope.
pub(crate) struct TaskGuard {
    _priv: (),
}

/// Installs the calling thread's scope as `task` of `run`.
///
/// The last-seen epoch starts at 0 (the plan's initial epoch), NOT at the
/// plan's current epoch: a re-placement published before this thread got
/// here must be applied at its first lock grant, since the thread bound
/// itself from the by-then-stale initial placement.
pub(crate) fn enter_task(task: TaskId, run: Arc<AdaptiveRun>) -> TaskGuard {
    SCOPE.set(Some(TaskScope { task, seen_epoch: 0, run }));
    TaskGuard { _priv: () }
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        SCOPE.set(None);
    }
}

/// The lock layer's hook: called by `Handle::acquire` after a grant.
/// No-op outside an adaptive run's task thread.
pub(crate) fn on_lock_granted(location: LocationId, mode: AccessMode) {
    SCOPE.with_borrow_mut(|scope| {
        let Some(TaskScope { task, seen_epoch, run }) = scope else { return };
        let epoch = run.plan.epoch();
        if *seen_epoch != epoch {
            *seen_epoch = epoch;
            run.plan.apply_for(*task);
        }
        let from = {
            let mut writers = run.last_writer.lock().unwrap_or_else(|e| e.into_inner());
            match mode {
                AccessMode::Write => writers.insert(location, *task),
                AccessMode::Read => writers.get(&location).copied(),
            }
        };
        if let Some(from) = from.filter(|from| from != task) {
            run.controller.on_flow(from, *task, location, mode);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPlan;
    use crate::task::TaskSpec;
    use orwl_topo::binding::RecordingBinder;
    use orwl_topo::topology::Topology;
    use orwl_treematch::mapping::Placement;

    /// A controller that records every flow it hears.
    #[derive(Default)]
    struct FlowLog(Mutex<Vec<(usize, usize, AccessMode)>>);

    impl AdaptiveController for FlowLog {
        fn on_run_start(&self, _: &[TaskSpec], _: &PlacementPlan, _: &Topology) {}
        fn on_flow(&self, from: TaskId, to: TaskId, _: LocationId, mode: AccessMode) {
            self.0.lock().unwrap().push((from.0, to.0, mode));
        }
        fn on_epoch(&self, _: u64) -> Option<Placement> {
            None
        }
    }

    fn run_of(n_tasks: usize, binder: Arc<RecordingBinder>) -> (Arc<FlowLog>, Arc<AdaptiveRun>) {
        let log = Arc::new(FlowLog::default());
        let run = AdaptiveRun::new(Arc::clone(&log) as Arc<dyn AdaptiveController>, n_tasks, binder);
        (log, run)
    }

    /// One grant of `location` to `task` of `run`, from this thread.
    fn grant(run: &Arc<AdaptiveRun>, task: usize, location: LocationId, mode: AccessMode) {
        let _scope = enter_task(TaskId(task), Arc::clone(run));
        on_lock_granted(location, mode);
    }

    #[test]
    fn untagged_threads_emit_nothing() {
        let (log, run) = run_of(2, Arc::new(RecordingBinder::new()));
        // A write outside any scope is nobody's: the read after it has no
        // last writer to move bytes from.
        on_lock_granted(LocationId(1), AccessMode::Write);
        grant(&run, 1, LocationId(1), AccessMode::Read);
        assert!(log.0.lock().unwrap().is_empty());
    }

    #[test]
    fn tagged_threads_emit_and_clear_on_drop() {
        let (log, run) = run_of(2, Arc::new(RecordingBinder::new()));
        grant(&run, 0, LocationId(1), AccessMode::Write);
        assert!(SCOPE.with_borrow(Option::is_none));
        on_lock_granted(LocationId(1), AccessMode::Write);
        grant(&run, 1, LocationId(1), AccessMode::Read);
        assert_eq!(*log.0.lock().unwrap(), vec![(0, 1, AccessMode::Read)]);
    }

    #[test]
    fn a_grant_moves_bytes_from_the_last_writer() {
        let (log, run) = run_of(3, Arc::new(RecordingBinder::new()));
        let loc = LocationId(77);
        grant(&run, 0, loc, AccessMode::Write); // no writer yet: nothing
        grant(&run, 1, loc, AccessMode::Read); // 0 -> 1
        grant(&run, 2, loc, AccessMode::Read); // 0 -> 2
        grant(&run, 2, loc, AccessMode::Write); // 0 -> 2, 2 now writes last
        grant(&run, 2, loc, AccessMode::Read); // its own write: nothing
        grant(&run, 0, loc, AccessMode::Read); // 2 -> 0
        let flows = log.0.lock().unwrap().clone();
        assert_eq!(
            flows,
            vec![
                (0, 1, AccessMode::Read),
                (0, 2, AccessMode::Read),
                (0, 2, AccessMode::Write),
                (2, 0, AccessMode::Read)
            ]
        );
    }

    #[test]
    fn an_adaptive_rebind_moves_the_home_to_the_new_pu() {
        use crate::fifo::reporting::ReportingBinder;
        use crate::fifo::{home, read_home};
        // A fresh thread: the home is this thread's, not the test harness's.
        std::thread::scope(|s| {
            s.spawn(|| {
                let binder = Arc::new(ReportingBinder);
                let run = AdaptiveRun::new(Arc::new(FlowLog::default()), 2, binder.clone());
                assert_eq!(home(), None);
                binder.bind_current_thread(&CpuSet::from_indices(0..2)).unwrap();
                read_home(&*binder);
                assert_eq!(home(), None, "a binding over two PUs is no home");
                binder.bind_current_thread(&CpuSet::singleton(3)).unwrap();
                read_home(&*binder);
                assert_eq!(home(), Some(3));

                let _scope = enter_task(TaskId(1), Arc::clone(&run));
                run.plan.publish(vec![None, Some(5)]);
                on_lock_granted(LocationId(90002), AccessMode::Read);
                assert_eq!((run.plan.rebinds_applied(), home()), (1, Some(5)));
            });
        });
    }

    #[test]
    fn rebind_plan_applies_once_per_epoch() {
        let binder = Arc::new(RecordingBinder::new());
        let (_, run) = run_of(2, Arc::clone(&binder));
        let _scope = enter_task(TaskId(1), Arc::clone(&run));
        let plan = &run.plan;

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
