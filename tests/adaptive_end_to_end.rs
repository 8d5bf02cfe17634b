//! End-to-end tests of the `orwl-adapt` subsystem.
//!
//! * On the simulated machine: the acceptance criterion — the adaptive
//!   policy on a phase-changing workload accumulates strictly fewer
//!   hop-bytes than the static TreeMatch placement computed from the
//!   initial phase, and lands within 10% of an oracle that re-maps for
//!   free at the phase boundary.
//! * On the real event runtime: a drifting program drives the whole loop —
//!   monitoring hooks → online matrix → drift detection → re-placement →
//!   cooperative re-binding of live task threads.
//! * Both at once, observed: each run's telemetry holds its own events
//!   and nothing of the other's.

use orwl_adapt::backend::SimBackend;
use orwl_adapt::drift::DriftConfig;
use orwl_adapt::engine::{adaptive_session_spec, AdaptConfig, AdaptiveEngine};
use orwl_adapt::replace::{MigrationCostModel, ReplacerConfig};
use orwl_core::prelude::*;
use orwl_core::Location;
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::{ObsConfig, RunTelemetry};
use orwl_topo::binding::RecordingBinder;
use orwl_topo::synthetic;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn adaptive_beats_static_and_stays_within_ten_percent_of_oracle() {
    let machine = SimMachine::new(synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016());
    // 16 tasks; heavy east-west sweep for 24 iterations, then the sweep
    // rotates 90° for 200 iterations.  The adaptive driver does not know
    // where the boundary is.
    let workload = PhasedWorkload::rotating_stencil(4, 65536.0, 1024.0, 16384.0, 131072.0, &[24, 200]);
    let adapt = AdaptConfig::evaluation();

    // One builder, three run modes, one report type.
    let run = |mode: Mode| {
        Session::builder()
            .topology(machine.topology().clone())
            .policy(Policy::TreeMatch)
            .control_threads(0)
            .mode(mode)
            .backend(SimBackend::new(machine.clone()).with_adapt_config(adapt))
            .build()
            .unwrap()
            .run(workload.clone())
            .unwrap()
    };
    let fixed = run(Mode::Static);
    let oracle = run(Mode::Oracle);
    let adaptive = run(Mode::Adaptive(AdaptiveSpec::per_iterations(4)));

    let counters = adaptive.adapt.as_ref().expect("adaptive runs report counters");
    assert!(counters.replacements >= 1, "the phase change must be acted on: {counters:?}");
    assert!(
        adaptive.hop_bytes < fixed.hop_bytes,
        "adaptive hop-bytes {} must be strictly below static {}",
        adaptive.hop_bytes,
        fixed.hop_bytes,
    );
    assert!(oracle.hop_bytes <= adaptive.hop_bytes + 1e-9);
    let ratio = adaptive.hop_bytes / oracle.hop_bytes;
    assert!(ratio <= 1.10, "adaptive must be within 10% of the free-remap oracle, got {ratio:.4}");
    // The time model agrees with the metric: adapting is also faster.
    assert!(adaptive.time.seconds() < fixed.time.seconds());
}

/// A paired-exchange program: task `t` writes its own buffer every
/// iteration and reads a partner's.  For the first `phase1` iterations the
/// partner is the declared one (`t XOR 1`, which TreeMatch co-locates);
/// afterwards every task switches to `(t + 2) % n`, crossing all the
/// original pairs.
///
/// The partner switch is a *re-initialisation phase* in the ORWL sense:
/// every task posts its new read request between two barriers, before any
/// writer advances past the boundary.  Posting mid-run without that fence
/// can land a read request one write too late on every edge of a partner
/// cycle — a circular wait (readers wait for the writers' *next*
/// iteration, writers wait for their own readers).
fn drifting_program(
    n: usize,
    phase1: u64,
    phase2: u64,
    pace: Duration,
) -> (OrwlProgram, Vec<Arc<Location<u64>>>) {
    let locs: Vec<_> = (0..n).map(|i| Location::new(format!("pair-{i}"), 0u64)).collect();
    let rendezvous = Arc::new(std::sync::Barrier::new(n));
    let mut program = OrwlProgram::new();
    for t in 0..n {
        let own = Arc::clone(&locs[t]);
        let first = Arc::clone(&locs[t ^ 1]);
        let second = Arc::clone(&locs[(t + 2) % n]);
        let rendezvous = Arc::clone(&rendezvous);
        let links =
            vec![LocationLink::write(locs[t].id(), 4096.0), LocationLink::read(locs[t ^ 1].id(), 4096.0)];
        program.add_task(TaskSpec::new(format!("pair-task-{t}"), links), move |_ctx| {
            // Deterministic init: every request is posted before any task
            // starts acquiring, so no reader can land behind a write it
            // will never outwait.
            let mut write = own.iterative_handle(AccessMode::Write);
            write.request().unwrap();
            let mut read1 = first.iterative_handle(AccessMode::Read);
            read1.request().unwrap();
            rendezvous.wait();
            for i in 0..phase1 {
                *write.acquire().unwrap() = i;
                let _ = *read1.acquire().unwrap();
                std::thread::sleep(pace);
            }
            drop(read1);
            rendezvous.wait();
            let mut read2 = second.iterative_handle(AccessMode::Read);
            read2.request().unwrap();
            rendezvous.wait();
            for i in 0..phase2 {
                *write.acquire().unwrap() = phase1 + i;
                let _ = *read2.acquire().unwrap();
                std::thread::sleep(pace);
            }
        });
    }
    (program, locs)
}

#[test]
fn real_runtime_detects_drift_and_rebinds_live_threads() {
    let n = 16;
    let engine = AdaptiveEngine::new(AdaptConfig {
        decay: 0.0,
        drift: DriftConfig { threshold: 0.10, patience: 1, cooldown: 1 },
        replacer: ReplacerConfig {
            model: MigrationCostModel { task_state_bytes: 1.0 },
            horizon_epochs: 50.0,
            min_relative_gain: 0.0,
        },
    });
    let binder = Arc::new(RecordingBinder::new());
    let session = Session::builder()
        .topology(synthetic::cluster2016_subset(4).unwrap())
        .binder(binder.clone())
        .adaptive(adaptive_session_spec(Arc::clone(&engine), Duration::from_millis(15)))
        .backend(ThreadBackend)
        .build()
        .unwrap();

    let (program, locs) = drifting_program(n, 120, 400, Duration::from_micros(300));
    let report = session.run(program).unwrap();

    // The workload ran to completion under adaptation.
    assert_eq!(report.thread.as_ref().unwrap().stats.tasks_finished, n as u64);
    for loc in &locs {
        assert_eq!(loc.snapshot(), 120 + 400 - 1);
    }

    // The adaptive machinery engaged: epochs elapsed, the phase change was
    // detected and acted on, and live threads actually re-bound.
    let adapt = report.adapt.expect("adaptive runs report adapt counters");
    assert!(adapt.epochs >= 3, "report: {adapt:?}");
    assert!(
        adapt.replacements >= 1,
        "no re-placement was published: {adapt:?}; timeline: {:?}",
        engine.timeline()
    );
    assert!(adapt.rebinds_applied >= 1, "no thread ever re-bound: {adapt:?}");
    assert!(engine.migrations() >= 1);

    // The published placement is valid for the topology and the binder saw
    // both the initial bindings and the re-bindings.
    let placement = engine.current_placement();
    placement.validate_against(&synthetic::cluster2016_subset(4).unwrap()).unwrap();
    assert!(binder.anonymous_bindings().len() >= n + adapt.rebinds_applied as usize);
}

#[test]
fn non_adaptive_runs_report_no_adapt_counters() {
    let (program, _locs) = drifting_program(4, 3, 3, Duration::ZERO);
    let session = Session::builder()
        .topology(synthetic::laptop())
        .policy(Policy::NoBind)
        .backend(ThreadBackend)
        .build()
        .unwrap();
    let report = session.run(program).unwrap();
    assert!(report.adapt.is_none());
}

/// Event count per kind name.
fn kinds(obs: &RunTelemetry) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for event in &obs.events {
        *counts.entry(event.kind.name()).or_insert(0) += 1;
    }
    counts
}

#[test]
fn overlapping_observed_sessions_record_only_their_own_events() {
    // A simulated adaptive session (deterministic: same events every time)
    // runs on this thread while an adaptive thread-runtime session runs on
    // another.  Each recorder is the scope of the thread that runs its
    // session and of the threads that session spawns, and of nothing else.
    let machine = SimMachine::new(synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016());
    let workload = PhasedWorkload::rotating_stencil(4, 65536.0, 1024.0, 16384.0, 131072.0, &[24, 200]);
    let simulated = Session::builder()
        .topology(machine.topology().clone())
        .control_threads(0)
        .adaptive(AdaptiveSpec::per_iterations(4))
        .observe(ObsConfig::default())
        .backend(SimBackend::new(machine).with_adapt_config(AdaptConfig::evaluation()))
        .build()
        .unwrap();
    let alone = simulated.run(workload.clone()).unwrap();
    let alone_obs = alone.obs.as_ref().unwrap();
    for kind in ["epoch", "drift_decision", "placement_solve", "migration"] {
        assert!(alone_obs.count_kind(kind) > 0, "the simulated run emits {kind} events");
    }

    let n = 16;
    let (phase1, phase2) = (120, 400);
    let engine = AdaptiveEngine::new(AdaptConfig {
        decay: 0.0,
        drift: DriftConfig { threshold: 0.10, patience: 1, cooldown: 1 },
        replacer: ReplacerConfig {
            model: MigrationCostModel { task_state_bytes: 1.0 },
            horizon_epochs: 50.0,
            min_relative_gain: 0.0,
        },
    });
    let binder = Arc::new(RecordingBinder::new());
    let threads = Session::builder()
        .topology(synthetic::cluster2016_subset(4).unwrap())
        .binder(binder.clone())
        .adaptive(adaptive_session_spec(engine, Duration::from_millis(15)))
        // Threshold 0: every lock acquisition becomes a `lock_wait` event.
        .observe(ObsConfig { lock_wait_threshold_ns: 0, ..ObsConfig::default() })
        .backend(ThreadBackend)
        .build()
        .unwrap();
    let (program, _locs) = drifting_program(n, phase1, phase2, Duration::from_micros(300));
    let thread_run = std::thread::spawn(move || threads.run(program).unwrap());

    // Every task thread binds itself before anything else, so `n` bindings
    // mean the thread session's tasks are live.  A simulated run that
    // starts after that and ends before the thread session does lies
    // wholly inside it.
    while binder.anonymous_bindings().len() < n {
        std::thread::yield_now();
    }
    let mut overlapped = 0;
    while !thread_run.is_finished() {
        let report = simulated.run(workload.clone()).unwrap();
        if thread_run.is_finished() {
            break;
        }
        overlapped += 1;
        let obs = report.obs.as_ref().unwrap();
        assert_eq!(kinds(obs), kinds(alone_obs), "the simulated run saw the thread session's events");
        assert_eq!(obs.metrics.counter("placement_solves"), alone_obs.metrics.counter("placement_solves"));
        assert_eq!(obs.count_kind("lock_wait") + obs.count_kind("rebind"), 0);
        assert_eq!(report.adapt, alone.adapt);
    }
    assert!(overlapped > 0, "no simulated run fitted inside the thread session");

    // The thread session: one `epoch` per monitor epoch, one `rebind` per
    // applied re-binding, one `lock_wait` per acquisition — exactly its
    // own, however many simulated epochs and solves went by meanwhile.
    let report = thread_run.join().unwrap();
    let obs = report.obs.as_ref().unwrap();
    let adapt = report.adapt.as_ref().unwrap();
    assert!(adapt.epochs >= 1);
    assert_eq!(obs.dropped, 0);
    assert_eq!(obs.count_kind("epoch") as u64, adapt.epochs);
    assert!(obs.count_kind("drift_decision") as u64 <= adapt.epochs);
    assert_eq!(obs.count_kind("rebind") as u64, adapt.rebinds_applied);
    assert_eq!(obs.count_kind("lock_wait") as u64, n as u64 * (phase1 + phase2) * 2);
    // The histogram is the one source of the run's lock-wait total.
    let waits = obs.metrics.histogram("lock_wait_ns").expect("every acquisition is observed");
    assert_eq!(waits.count, n as u64 * (phase1 + phase2) * 2);
    assert!(waits.sum > 0, "neighbours contend for every location, so some acquisition waited");
    assert_eq!(obs.count_kind("migration") as u64, adapt.replacements);
}
