//! Isolation and race tests for what task threads share: an adaptive
//! run's flows reach its own controller and no other, even while another
//! run grants locks at the same time, and the lock-free `RuntimeStats`
//! counters tasks and control threads update side by side lose nothing.

use orwl_core::placement::PlacementPlan;
use orwl_core::prelude::*;
use orwl_core::runtime::AdaptiveController;
use orwl_core::stats::{RuntimeStats, StatsSnapshot};
use orwl_core::{LocationId, TaskId};
use orwl_topo::topology::Topology;
use orwl_treematch::mapping::Placement;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;

/// Iterations of the writer → reader pair.
const N: u64 = 200;

/// Counts the flows of the run it controls.
#[derive(Default)]
struct CountingController(AtomicU64);

impl AdaptiveController for CountingController {
    fn on_run_start(&self, _: &[TaskSpec], _: &PlacementPlan, _: &Topology) {}
    fn on_flow(&self, _: TaskId, _: TaskId, _: LocationId, _: AccessMode) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn on_epoch(&self, _: u64) -> Option<Placement> {
        None
    }
}

/// A writer → reader pair over `N` iterations of one location.  The writer
/// posts its request before the reader posts its own (the fence), so the
/// grants alternate write, read, write, … and every read is one flow.
/// Both task bodies meet at `overlap` before their first grant and after
/// their last.
fn pair_program(overlap: &Arc<Barrier>) -> OrwlProgram {
    let cell = Location::new("isolation-cell", 0u64);
    let (posted, wait_posted) = mpsc::channel::<()>();
    let wait_posted = Mutex::new(wait_posted);
    let mut program = OrwlProgram::new();
    let (writer, at) = (Arc::clone(&cell), Arc::clone(overlap));
    program.add_task(TaskSpec::new("writer", vec![LocationLink::write(cell.id(), 8.0)]), move |_| {
        let mut h = writer.iterative_handle(AccessMode::Write);
        h.request().unwrap();
        posted.send(()).unwrap();
        at.wait();
        for i in 0..N {
            *h.acquire().unwrap() = i;
        }
        at.wait();
    });
    let (reader, at) = (Arc::clone(&cell), Arc::clone(overlap));
    program.add_task(TaskSpec::new("reader", vec![LocationLink::read(cell.id(), 8.0)]), move |_| {
        wait_posted.lock().unwrap().recv().unwrap();
        let mut h = reader.iterative_handle(AccessMode::Read);
        h.request().unwrap();
        at.wait();
        for i in 0..N {
            assert_eq!(*h.acquire().unwrap(), i);
        }
        at.wait();
    });
    program
}

/// Runs `program` adaptively on the thread backend, `controller` observing
/// (one epoch per minute: the run closes none).
fn run_observed(program: OrwlProgram, controller: &Arc<CountingController>) {
    let controller = Arc::clone(controller) as Arc<dyn AdaptiveController>;
    let _report = Session::builder()
        .topology(orwl_topo::synthetic::laptop())
        .policy(Policy::TreeMatch)
        .binder(Arc::new(orwl_topo::binding::RecordingBinder::new()))
        .adaptive(AdaptiveSpec::with_controller(controller, Duration::from_secs(60)))
        .backend(ThreadBackend)
        .build()
        .unwrap()
        .run(program)
        .unwrap();
}

#[test]
fn overlapping_adaptive_runs_each_see_only_their_own_flows() {
    let alone = Arc::new(CountingController::default());
    run_observed(pair_program(&Arc::new(Barrier::new(2))), &alone);
    assert_eq!(alone.0.load(Ordering::Relaxed), N, "the pair alone moves one flow per read");

    // Both runs' four task threads meet at one barrier before their first
    // grant and after their last, so the two runs grant side by side.
    let overlap = Arc::new(Barrier::new(4));
    let controllers = [Arc::new(CountingController::default()), Arc::new(CountingController::default())];
    std::thread::scope(|s| {
        for controller in &controllers {
            let program = pair_program(&overlap);
            s.spawn(move || run_observed(program, controller));
        }
    });
    for (k, controller) in controllers.iter().enumerate() {
        assert_eq!(controller.0.load(Ordering::Relaxed), N, "run {k} heard another run's flows");
    }
}

#[test]
fn runtime_stats_count_concurrently_without_losing_updates() {
    // Task threads and control threads hammer one shared block at the same
    // time, each through its own recorders: no counter may tear or lose an
    // update to a neighbour's.
    let stats = Arc::new(RuntimeStats::new());
    let mut joins = Vec::new();
    for _ in 0..4 {
        let stats = Arc::clone(&stats);
        joins.push(std::thread::spawn(move || {
            stats.record_task_started();
            for _ in 0..1000 {
                stats.record_acquisitions(3);
            }
            stats.record_task_finished();
        }));
    }
    for _ in 0..4 {
        let stats = Arc::clone(&stats);
        joins.push(std::thread::spawn(move || {
            for _ in 0..250 {
                stats.record_control_event();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(
        stats.snapshot(),
        StatsSnapshot {
            tasks_started: 4,
            tasks_finished: 4,
            control_events: 4 * 250,
            lock_acquisitions: 4 * 1000 * 3
        }
    );
}
