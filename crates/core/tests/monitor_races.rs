//! Race tests for the monitor's global access-sink list, which the runtime
//! hangs off its hot path, plus the lock-free `RuntimeStats` merging used
//! when per-chunk blocks fold into a run-wide one.
//!
//! These tests churn registrations from many threads *while runs are
//! executing* — the scenario the RAII registration design must survive:
//! no lost unregistration, no observation after drop, no torn counters.

use orwl_core::prelude::*;
use orwl_core::stats::{RuntimeStats, StatsSnapshot};
use orwl_core::{AccessSink, LocationId, TaskId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct CountingSink(AtomicU64);

impl AccessSink for CountingSink {
    fn on_access(&self, _task: TaskId, _location: LocationId, _mode: AccessMode) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn hammer_program(tasks: usize, iterations: usize) -> (Arc<Location<u64>>, OrwlProgram) {
    let counter = Location::new("race-counter", 0u64);
    let mut program = OrwlProgram::new();
    for t in 0..tasks {
        let loc = Arc::clone(&counter);
        program.add_task(
            TaskSpec::new(format!("w{t}"), vec![LocationLink::write(counter.id(), 8.0)]),
            move |_| {
                let mut h = loc.iterative_handle(AccessMode::Write);
                for _ in 0..iterations {
                    *h.acquire().unwrap() += 1;
                }
            },
        );
    }
    (counter, program)
}

fn run(program: OrwlProgram) -> Report {
    Session::builder()
        .topology(orwl_topo::synthetic::laptop())
        .policy(Policy::TreeMatch)
        .binder(Arc::new(orwl_topo::binding::RecordingBinder::new()))
        .backend(ThreadBackend)
        .build()
        .unwrap()
        .run(program)
        .unwrap()
}

#[test]
fn sink_churn_during_active_runs_neither_crashes_nor_leaks_observations() {
    // Churn threads register and immediately drop counting sinks while the
    // runtime is mid-run granting locks on every acquisition.
    let stop = Arc::new(AtomicU64::new(0));
    let churned = Arc::new(CountingSink(AtomicU64::new(0)));
    let mut churners = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        let sink = Arc::clone(&churned);
        churners.push(std::thread::spawn(move || {
            let mut cycles = 0u64;
            while stop.load(Ordering::Relaxed) == 0 {
                let registration =
                    orwl_core::monitor::register_sink(Arc::clone(&sink) as Arc<dyn AccessSink>);
                std::thread::yield_now();
                drop(registration);
                cycles += 1;
            }
            cycles
        }));
    }

    for _ in 0..3 {
        let (counter, program) = hammer_program(4, 50);
        let _ = run(program);
        assert_eq!(counter.snapshot(), 4 * 50);
    }

    stop.store(1, Ordering::Relaxed);
    let cycles: u64 = churners.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(cycles > 0, "churn threads must have cycled at least once");
    let observed_during_churn = churned.0.load(Ordering::Relaxed);

    // Every churned registration was dropped: a run after the churn must
    // not reach the churned sink at all...
    let (_, program) = hammer_program(2, 20);
    let _ = run(program);
    assert_eq!(churned.0.load(Ordering::Relaxed), observed_during_churn, "a dropped sink kept observing");

    // ...while the registry itself remains fully functional.
    let probe = Arc::new(CountingSink(AtomicU64::new(0)));
    let registration = orwl_core::monitor::register_sink(Arc::clone(&probe) as Arc<dyn AccessSink>);
    let (_, program) = hammer_program(2, 20);
    let _ = run(program);
    drop(registration);
    assert_eq!(probe.0.load(Ordering::Relaxed), 2 * 20, "a live sink must see every grant");
}

#[test]
fn runtime_stats_merge_concurrently_without_losing_counts() {
    // Writers hammer a shared block while absorbers concurrently fold
    // fixed snapshots into it — the exact pattern of per-chunk stats being
    // merged into the run-wide block while tasks still record.
    let stats = Arc::new(RuntimeStats::new());
    let chunk = StatsSnapshot {
        tasks_started: 2,
        tasks_finished: 2,
        control_events: 1,
        lock_acquisitions: 10,
        total_wait: Duration::from_nanos(500),
    };
    let mut joins = Vec::new();
    for _ in 0..4 {
        let stats = Arc::clone(&stats);
        joins.push(std::thread::spawn(move || {
            for _ in 0..1000 {
                stats.record_acquisitions(1);
                stats.record_wait(Duration::from_nanos(3));
            }
        }));
    }
    for _ in 0..4 {
        let stats = Arc::clone(&stats);
        joins.push(std::thread::spawn(move || {
            for _ in 0..250 {
                stats.absorb(&chunk);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let snap = stats.snapshot();
    assert_eq!(snap.lock_acquisitions, 4 * 1000 + 4 * 250 * 10);
    assert_eq!(snap.tasks_started, 4 * 250 * 2);
    assert_eq!(snap.control_events, 4 * 250);
    assert_eq!(snap.total_wait, Duration::from_nanos(4 * 1000 * 3 + 4 * 250 * 500));

    // merged() is the pure counterpart of absorb(): summing the same
    // snapshots sequentially reaches the same totals.
    let mut folded = StatsSnapshot {
        tasks_started: 0,
        tasks_finished: 0,
        control_events: 0,
        lock_acquisitions: 4000,
        total_wait: Duration::from_nanos(12_000),
    };
    for _ in 0..1000 {
        folded = folded.merged(&chunk);
    }
    assert_eq!(folded, snap);
}
