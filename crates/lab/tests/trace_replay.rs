//! Acceptance pin: a captured trace replayed through `SimBackend`
//! reproduces the originating run's total hop-bytes within 1%.
//!
//! The capture path records every halo transfer the simulator actually
//! performed, epoch by epoch; the replay path rebuilds a phased workload
//! from the per-epoch mean matrices and runs it through the ordinary
//! `Session` front door.  If the recorder is honest and the replay
//! faithful, the two runs must agree on the locality metric.

use orwl_adapt::backend::SimBackend;
use orwl_core::session::{Mode, Session};
use orwl_lab::scenario::{ScenarioFamily, ScenarioSpec};
use orwl_lab::trace::capture_trace;
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_treematch::policies::Policy;

fn machine() -> SimMachine {
    SimMachine::new(orwl_topo::synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016())
}

fn static_session(policy: Policy) -> Session {
    Session::builder()
        .topology(machine().topology().clone())
        .policy(policy)
        .control_threads(0)
        .mode(Mode::Static)
        .backend(SimBackend::new(machine()))
        .build()
        .unwrap()
}

#[test]
fn replayed_trace_reproduces_hop_bytes_within_one_percent() {
    for family in [ScenarioFamily::RotatedStencil, ScenarioFamily::Hotspot, ScenarioFamily::PowerLaw] {
        let spec = ScenarioSpec::new(family, 16, 42);
        let workload = spec.workload();

        // The originating run, through the Session front door.
        let original = static_session(Policy::TreeMatch).run(workload.clone()).unwrap();

        // Capture under the same policy and machine, then replay.
        let trace = capture_trace(&machine(), Policy::TreeMatch, &workload, 4);
        let replay = static_session(Policy::TreeMatch).run(trace.to_workload()).unwrap();

        let relative = (replay.hop_bytes - original.hop_bytes).abs() / original.hop_bytes;
        assert!(
            relative < 0.01,
            "{family:?}: replay hop-bytes {} vs original {} ({:.3}% off)",
            replay.hop_bytes,
            original.hop_bytes,
            100.0 * relative
        );
    }
}

#[test]
fn replayed_trace_preserves_the_drift_for_adaptive_evaluation() {
    // The replay is not just byte-faithful in aggregate: the *drift* the
    // rotation creates must survive the round trip, so adaptive policies
    // can be evaluated against captured timelines.
    let spec = ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, 42);
    let trace = capture_trace(&machine(), Policy::TreeMatch, &spec.workload(), 4);
    let replay = trace.to_workload();
    let first = replay.phases.first().unwrap().graph.comm_matrix();
    let last = replay.phases.last().unwrap().graph.comm_matrix();
    assert_ne!(first, last, "the captured rotation must still be visible after replay");

    // An adaptive run over the replayed trace migrates at the captured
    // phase change, exactly as it would on the synthetic workload.
    let adaptive = Session::builder()
        .topology(machine().topology().clone())
        .policy(Policy::TreeMatch)
        .control_threads(0)
        .mode(Mode::Adaptive(orwl_core::runtime::AdaptiveSpec::per_iterations(4)))
        .backend(SimBackend::new(machine()).with_adapt_config(orwl_adapt::engine::AdaptConfig::evaluation()))
        .build()
        .unwrap()
        .run(replay)
        .unwrap();
    let counters = adaptive.adapt.expect("adaptive runs report counters");
    assert!(counters.replacements >= 1, "captured drift must trigger a migration: {counters:?}");
    let fixed = static_session(Policy::TreeMatch).run(trace.to_workload()).unwrap();
    assert!(
        adaptive.hop_bytes < fixed.hop_bytes,
        "adaptive on the captured trace ({}) must beat static ({})",
        adaptive.hop_bytes,
        fixed.hop_bytes
    );
}

/// A thread session on the laptop preset that reports every flow to
/// `recorder` (one epoch per minute: these runs close a single epoch).
fn recorded_thread_session(recorder: &std::sync::Arc<orwl_lab::trace::AccessTraceRecorder>) -> Session {
    use orwl_core::runtime::{AdaptiveController, AdaptiveSpec};
    let controller = std::sync::Arc::clone(recorder) as std::sync::Arc<dyn AdaptiveController>;
    Session::builder()
        .topology(orwl_topo::synthetic::laptop())
        .policy(Policy::TreeMatch)
        .binder(std::sync::Arc::new(orwl_topo::binding::RecordingBinder::new()))
        .adaptive(AdaptiveSpec::with_controller(controller, std::time::Duration::from_secs(60)))
        .backend(orwl_core::session::ThreadBackend)
        .build()
        .unwrap()
}

#[test]
fn thread_runtime_lock_grants_capture_into_a_trace() {
    use orwl_core::prelude::*;
    use orwl_lab::trace::AccessTraceRecorder;
    use std::sync::Arc;

    // Three tasks hammer one shared location; every grant goes through the
    // runtime monitor, which reports the run's flows to the recorder.
    let counter = Location::new("lab-capture-counter", 0u64);
    let mut program = OrwlProgram::new();
    for t in 0..3 {
        let loc = Arc::clone(&counter);
        program.add_task(
            TaskSpec::new(format!("w{t}"), vec![LocationLink::write(counter.id(), 8.0)]),
            move |_| {
                let mut h = loc.iterative_handle(AccessMode::Write);
                for _ in 0..5 {
                    *h.acquire().unwrap() += 1;
                }
            },
        );
    }

    let recorder = Arc::new(AccessTraceRecorder::new(8.0));
    let _report = recorded_thread_session(&recorder).run(program).unwrap();

    let trace = recorder.finish("threads:laptop");
    assert_eq!(counter.snapshot(), 15);
    assert_eq!(trace.n_tasks, 3);
    // 15 grants on one location, handed between three writers: the
    // last-writer attribution must observe cross-task traffic (the exact
    // interleaving is scheduler-dependent, the presence of flow is not).
    assert!(trace.total_bytes() > 0.0, "no cross-task flow recorded");
    assert!(trace.total_bytes() <= 15.0 * 8.0);
    // The captured trace replays like any other workload.
    let replay = trace.to_workload();
    assert_eq!(replay.n_tasks(), 3);
}

#[test]
fn captured_rows_are_program_task_ids_not_arrival_order() {
    use orwl_core::prelude::*;
    use orwl_lab::trace::AccessTraceRecorder;
    use std::sync::{mpsc, Arc, Mutex};

    // Task 2 is granted first (it writes), task 0 reads after it, task 1
    // touches nothing: the one flow is 2 -> 0, whatever order the grants
    // arrived in.
    let cell = Location::new("lab-first-writer", 0u64);
    let (written, wait_written) = mpsc::channel::<()>();
    let wait_written = Mutex::new(wait_written);
    let mut program = OrwlProgram::new();
    let reader = Arc::clone(&cell);
    program.add_task(TaskSpec::new("reader", vec![LocationLink::read(cell.id(), 8.0)]), move |_| {
        wait_written.lock().unwrap().recv().unwrap();
        let mut h = reader.handle(AccessMode::Read);
        h.request().unwrap();
        assert_eq!(*h.acquire().unwrap(), 7);
    });
    program.add_task(TaskSpec::new("idle", vec![]), |_| {});
    let writer = Arc::clone(&cell);
    program.add_task(TaskSpec::new("writer", vec![LocationLink::write(cell.id(), 8.0)]), move |_| {
        let mut h = writer.handle(AccessMode::Write);
        h.request().unwrap();
        *h.acquire().unwrap() = 7;
        written.send(()).unwrap();
    });

    let recorder = Arc::new(AccessTraceRecorder::new(8.0));
    let _report = recorded_thread_session(&recorder).run(program).unwrap();
    let trace = recorder.finish("threads:first-writer");

    assert_eq!(trace.n_tasks, 3);
    assert_eq!(trace.epochs.len(), 1);
    let matrix = &trace.epochs[0].matrix;
    assert_eq!(matrix.get(2, 0), 8.0, "the flow belongs at (writer 2, reader 0)");
    assert_eq!(matrix.total_volume(), 8.0);
}

#[test]
fn trace_json_survives_a_disk_round_trip_and_replays_identically() {
    let spec = ScenarioSpec::new(ScenarioFamily::DriftMix, 16, 5);
    let trace = capture_trace(&machine(), Policy::TreeMatch, &spec.workload(), 5);
    let text = trace.to_json().pretty();
    let reloaded = orwl_lab::trace::Trace::from_json(&orwl_core::json::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(reloaded, trace);
    let a = static_session(Policy::TreeMatch).run(trace.to_workload()).unwrap();
    let b = static_session(Policy::TreeMatch).run(reloaded.to_workload()).unwrap();
    assert_eq!(a.hop_bytes, b.hop_bytes);
    assert_eq!(a.time.seconds(), b.time.seconds());
}
