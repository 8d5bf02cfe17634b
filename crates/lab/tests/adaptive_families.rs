//! Adaptive evaluation over the `DriftMix` and `Hotspot` scenario families,
//! cross-checked against the run's own telemetry: every counter in
//! [`AdaptReport`] must have a matching event stream in the `orwl-obs/v1`
//! timeline, or one of the two is lying.

use orwl_adapt::backend::SimBackend;
use orwl_adapt::engine::AdaptConfig;
use orwl_cluster::{ClusterBackend, ClusterMachine};
use orwl_core::runtime::AdaptiveSpec;
use orwl_core::session::{Mode, Report, Session};
use orwl_lab::scenario::{ScenarioFamily, ScenarioSpec};
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_obs::{ClockKind, DriftOutcome, EventKind, ObsConfig};
use orwl_treematch::policies::Policy;

fn machine() -> SimMachine {
    SimMachine::new(orwl_topo::synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016())
}

fn adaptive_run(family: ScenarioFamily, seed: u64) -> Report {
    let spec = ScenarioSpec::new(family, 16, seed);
    Session::builder()
        .topology(machine().topology().clone())
        .policy(Policy::TreeMatch)
        .control_threads(0)
        .mode(Mode::Adaptive(AdaptiveSpec::per_iterations(4)))
        .backend(SimBackend::new(machine()).with_adapt_config(AdaptConfig::evaluation()))
        .observe(ObsConfig::default())
        .build()
        .unwrap()
        .run(spec.workload())
        .unwrap()
}

fn outcome_of(ev: &orwl_obs::ObsEvent) -> Option<DriftOutcome> {
    match ev.kind {
        EventKind::DriftDecision { outcome, .. } => Some(outcome),
        _ => None,
    }
}

#[test]
fn drift_events_match_adapt_counters_across_families() {
    for family in [ScenarioFamily::DriftMix, ScenarioFamily::Hotspot] {
        let report = adaptive_run(family, 42);
        let adapt = report.adapt.as_ref().expect("adaptive runs report counters");
        let obs = report.obs.as_ref().expect("observed runs carry telemetry");

        assert_eq!(obs.backend, "numasim");
        assert_eq!(obs.clock, ClockKind::Simulated);
        assert_eq!(obs.dropped, 0, "{family:?}: the default ring must not overflow here");

        // One epoch event per monitoring epoch, one drift decision per
        // recorded delta (warm-up epochs observe nothing), one migration
        // event per accepted re-placement.
        assert_eq!(obs.count_kind("epoch") as u64, adapt.epochs, "{family:?}");
        assert_eq!(obs.count_kind("drift_decision"), adapt.drift_deltas.len(), "{family:?}");
        assert_eq!(obs.count_kind("migration") as u64, adapt.replacements, "{family:?}");

        // Fired decisions bound migrations from above: the replacer may
        // decline a fire, but never migrates without one.
        let fired = obs.events.iter().filter(|e| outcome_of(e) == Some(DriftOutcome::Fired)).count() as u64;
        assert!(fired >= adapt.replacements, "{family:?}: {fired} fires < {} migrations", adapt.replacements);
        // Counters are sparse: never-incremented is reported as absent.
        assert_eq!(obs.metrics.counter("drift_fired").unwrap_or(0), fired, "{family:?}");

        // The deltas in the timeline are the deltas in the report, in order.
        let event_deltas: Vec<f64> = obs
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DriftDecision { delta, .. } => Some(delta),
                _ => None,
            })
            .collect();
        assert_eq!(event_deltas, adapt.drift_deltas, "{family:?}");

        // Simulated timestamps are monotone along the sorted timeline.
        let mut last = 0.0f64;
        for ev in &obs.events {
            assert!(ev.ts_us >= last, "{family:?}: timestamp regressed: {} < {last}", ev.ts_us);
            last = ev.ts_us;
        }
    }
}

#[test]
fn drift_mix_fires_and_hotspot_structure_is_visible() {
    // DriftMix rotates the stencil mid-run: the detector must fire at least
    // once and the timeline must show the migration paying real bytes.
    let report = adaptive_run(ScenarioFamily::DriftMix, 42);
    let adapt = report.adapt.as_ref().unwrap();
    let obs = report.obs.as_ref().unwrap();
    assert!(adapt.replacements >= 1, "DriftMix must trigger a migration: {adapt:?}");
    let migration_bytes: f64 = obs
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Migration { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert!(migration_bytes > 0.0, "migrations must move state");

    // Hotspot keeps one dominant communicator: with a stationary structure
    // the quiet outcome dominates the timeline.
    let hotspot = adaptive_run(ScenarioFamily::Hotspot, 42);
    let hobs = hotspot.obs.as_ref().unwrap();
    let quiet = hobs
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DriftDecision { outcome: DriftOutcome::Quiet, .. }))
        .count();
    assert_eq!(Some(quiet as u64), hobs.metrics.counter("drift_quiet"));
}

#[test]
fn migration_events_carry_the_state_bytes_moved_on_both_simulators() {
    // `Migration.bytes` is what `orwl_obs::EventKind` documents — the state
    // bytes billed for the move, `tasks_moved × task_state_bytes` — on every
    // backend; the hop-byte (numasim) or fabric-second (cluster) bill the
    // economy weighed is charged to the report, not to the event.
    let state_bytes = AdaptConfig::evaluation().replacer.model.task_state_bytes;
    let cluster = ClusterMachine::paper(4);
    let cluster_run = Session::builder()
        .topology(cluster.topology().clone())
        .policy(Policy::Hierarchical)
        .control_threads(0)
        .mode(Mode::Adaptive(AdaptiveSpec::per_iterations(4)))
        .backend(ClusterBackend::new(cluster).with_adapt_config(AdaptConfig::evaluation()))
        .observe(ObsConfig::default())
        .build()
        .unwrap()
        .run(ScenarioSpec::new(ScenarioFamily::DriftMix, 64, 42).workload())
        .unwrap();
    for report in [adaptive_run(ScenarioFamily::DriftMix, 42), cluster_run] {
        let obs = report.obs.as_ref().unwrap();
        let mut migrations = 0;
        for ev in &obs.events {
            if let EventKind::Migration { tasks_moved, bytes, .. } = ev.kind {
                migrations += 1;
                assert!(tasks_moved > 0, "{}: an accepted migration moves something", report.backend);
                assert_eq!(bytes, tasks_moved as f64 * state_bytes, "{}", report.backend);
            }
        }
        assert!(migrations >= 1, "{}: DriftMix must trigger a migration", report.backend);
        assert_eq!(migrations, report.adapt.as_ref().unwrap().replacements, "{}", report.backend);
    }
}

#[test]
fn unobserved_runs_report_identical_results() {
    // Observation is read-only: the same session without `.observe` must
    // produce bit-identical metrics (the gate only adds passive recording).
    for family in [ScenarioFamily::DriftMix, ScenarioFamily::Hotspot] {
        let spec = ScenarioSpec::new(family, 16, 7);
        let base = Session::builder()
            .topology(machine().topology().clone())
            .policy(Policy::TreeMatch)
            .control_threads(0)
            .mode(Mode::Adaptive(AdaptiveSpec::per_iterations(4)))
            .backend(SimBackend::new(machine()).with_adapt_config(AdaptConfig::evaluation()))
            .build()
            .unwrap()
            .run(spec.workload())
            .unwrap();
        let observed = adaptive_run(family, 7);
        assert!(base.obs.is_none(), "unobserved runs carry no telemetry");
        assert_eq!(base.hop_bytes, observed.hop_bytes, "{family:?}");
        assert_eq!(base.time.seconds(), observed.time.seconds(), "{family:?}");
        assert_eq!(base.adapt, observed.adapt, "{family:?}");
    }
}
