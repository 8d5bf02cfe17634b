//! Observed sweeps: `run_sweep_observed` must (a) leave the rows
//! byte-identical to an unobserved parallel sweep — observation is
//! read-only — (b) attach one schema-valid `orwl-obs/v1` telemetry
//! artifact per cell under a unique filesystem-safe label, and (c) keep
//! concurrent cells out of each other's telemetry: what a simulated cell
//! records does not depend on how many workers the sweep runs on.

use orwl_lab::scenario::{ScenarioFamily, ScenarioSpec};
use orwl_lab::sweep::{
    run_sweep_observed, run_sweep_with_threads, BackendSpec, ModeKind, SweepConfig, SweepSection,
};
use orwl_obs::export::{validate_chrome_trace, validate_obs};
use orwl_obs::{ObsConfig, ToJson};
use orwl_treematch::policies::Policy;
use std::collections::{BTreeMap, HashSet};

fn tiny_grid(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        epoch_iterations: 4,
        thread_iterations: 2,
        sections: vec![SweepSection {
            label: "families",
            scenarios: vec![
                ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, seed),
                ScenarioSpec::new(ScenarioFamily::Hotspot, 16, seed),
            ],
            backends: vec![
                BackendSpec::Threads,
                BackendSpec::NumaSim { sockets: 2 },
                BackendSpec::Cluster { nodes: 2, oversubscription: 1 },
            ],
            policies: vec![Policy::TreeMatch, Policy::Scatter],
            modes: vec![ModeKind::Static, ModeKind::Adaptive],
        }],
    }
}

#[test]
fn observed_sweep_rows_match_unobserved_and_artifacts_validate() {
    let config = tiny_grid(42);
    let (observed_result, cells) =
        run_sweep_observed(&config, 1, ObsConfig::default()).expect("the observed tiny grid runs");
    let plain = run_sweep_with_threads(&config, 4).expect("the unobserved tiny grid runs");

    // Observation is read-only: same rows, same order, same values —
    // even against a parallel unobserved sweep.
    assert_eq!(observed_result.rows, plain.rows);
    assert!(!observed_result.rows.is_empty());

    // Every executed cell produced telemetry, under a unique label safe to
    // use as a file stem.
    assert_eq!(cells.len(), observed_result.rows.len(), "one telemetry per cell");
    let labels: HashSet<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels.len(), cells.len(), "labels must be unique");
    for cell in &cells {
        assert!(
            cell.label.chars().all(|c| matches!(c, 'a'..='z' | '0'..='9' | '.' | '_' | '-')),
            "label {:?} is not filesystem-safe",
            cell.label
        );
        validate_obs(&cell.telemetry.to_json())
            .unwrap_or_else(|e| panic!("{}: invalid orwl-obs/v1 artifact: {e}", cell.label));
        validate_chrome_trace(&cell.telemetry.chrome_trace())
            .unwrap_or_else(|e| panic!("{}: invalid Chrome trace: {e}", cell.label));
        assert_eq!(cell.telemetry.dropped, 0, "{}: tiny cells must not overflow the ring", cell.label);
    }

    // The backend axis survives into the telemetry, and simulated cells
    // carry events (threads cells may only carry metrics).
    let backends: HashSet<&str> = cells.iter().map(|c| c.telemetry.backend.as_str()).collect();
    assert!(backends.contains("numasim") && backends.contains("cluster"), "{backends:?}");
    for cell in cells.iter().filter(|c| c.telemetry.backend != "threads") {
        assert!(!cell.telemetry.events.is_empty(), "{}: simulated cells emit events", cell.label);
        assert!(cell.telemetry.count_kind("epoch") > 0, "{}: every sim run has epochs", cell.label);
    }
}

#[test]
fn observed_cells_are_the_same_on_one_worker_and_on_four() {
    let config = tiny_grid(42);
    let (one_result, one) = run_sweep_observed(&config, 1, ObsConfig::default()).expect("sequential sweep");
    let (four_result, four) = run_sweep_observed(&config, 4, ObsConfig::default()).expect("parallel sweep");
    assert_eq!(one_result.rows, four_result.rows);
    assert_eq!(one.len(), four.len());

    // A simulated cell is deterministic, so any event that leaked in from
    // (or out to) a concurrently running cell shows up as a count that
    // moved.  Thread cells are left out: their lock waits depend on the
    // scheduler, with or without neighbours.
    let kinds = |cell: &orwl_lab::sweep::ObservedCell| -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for event in &cell.telemetry.events {
            *counts.entry(event.kind.name()).or_insert(0) += 1;
        }
        counts
    };
    let mut simulated = 0;
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.label, b.label);
        if a.telemetry.backend == "threads" {
            continue;
        }
        simulated += 1;
        assert_eq!(kinds(a), kinds(b), "{}: per-kind event counts moved with the worker count", a.label);
        assert_eq!(
            a.telemetry.metrics.counter("placement_solves"),
            b.telemetry.metrics.counter("placement_solves"),
            "{}: placement_solves moved with the worker count",
            a.label
        );
        assert!(a.telemetry.metrics.counter("placement_solves").unwrap_or(0) > 0, "{}", a.label);
    }
    assert!(simulated > 0);
}
