//! Race tests for the monitor's global access-sink list, which the runtime
//! hangs off its hot path, plus the lock-free `RuntimeStats` counters tasks
//! and control threads update side by side.
//!
//! These tests churn registrations from many threads *while runs are
//! executing* — the scenario the RAII registration design must survive:
//! no lost unregistration, no observation after drop, no torn counters.

use orwl_core::prelude::*;
use orwl_core::stats::{RuntimeStats, StatsSnapshot};
use orwl_core::{AccessSink, LocationId, TaskId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
