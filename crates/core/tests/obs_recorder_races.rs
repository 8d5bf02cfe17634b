//! Race test for the global obs recorder list: registrations churn *while
//! events are being emitted* — no panic, no observation after drop.  Alone
//! in its file so it shares a process with no other emitter (the list is
//! process-global; ROADMAP item 5, session-scoped recorders, is the fix).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn obs_recorder_churn_during_observed_emission_is_clean() {
    // Emitter threads fire events through the global gate while other
    // threads install and drop recorders: no panic, and a recorder only
    // holds events stamped between its install and drop.
    let stop = Arc::new(AtomicU64::new(0));
    let mut emitters = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        emitters.push(std::thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                orwl_obs::emit(orwl_obs::EventKind::Rebind { task: 1, pu: 2 });
                std::thread::yield_now();
            }
        }));
    }

    for _ in 0..50 {
        let recorder = orwl_obs::Recorder::new(orwl_obs::ClockKind::Wall, orwl_obs::ObsConfig::default());
        let registration = orwl_obs::install(&recorder);
        std::thread::yield_now();
        drop(registration);
        let telemetry = recorder.finish("race");
        for event in &telemetry.events {
            assert!(matches!(event.kind, orwl_obs::EventKind::Rebind { task: 1, pu: 2 }));
        }
    }

    stop.store(1, Ordering::Relaxed);
    for j in emitters {
        j.join().unwrap();
    }
    // All recorders are gone: the fast path is a plain disabled load again
    // and emission is a no-op.
    assert!(!orwl_obs::enabled(), "recorder churn must leave the global gate closed");
    orwl_obs::emit(orwl_obs::EventKind::Rebind { task: 0, pu: 0 });
}
