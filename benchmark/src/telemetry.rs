//! What the program's own telemetry says about the traced repeats.

use crate::metrics::Ledger;
use crate::stats::median;
use crate::workloads::{Checks, Entry, Outcome};
use orwl_obs::analyze::analyze;
use orwl_obs::json::ToJson;
use orwl_obs::RunTelemetry;
use std::time::Instant;

/// Fills the `obs.*` counts, the lock counters of the thread workloads
/// and the proc stage latencies from the telemetry of the observed
/// repeats; nothing for the solver and lab workloads, which build no
/// session.  Every session of every observed repeat must have handed
/// back telemetry: a missing one would leave its metrics unmeasured.
pub fn metrics(entry: &Entry, observed: &[&Outcome], checks: &mut Checks, ledger: &mut Ledger) {
    for (i, outcome) in observed.iter().enumerate() {
        checks.check(outcome.telemetry.len() == entry.sessions, || {
            format!(
                "{}: observed repeat {i} returned telemetry of {} sessions, ran {}",
                entry.name,
                outcome.telemetry.len(),
                entry.sessions
            )
        });
    }
    let sessions: Vec<&RunTelemetry> = observed.iter().flat_map(|o| &o.telemetry).collect();
    let Some(latest) = sessions.last() else { return };
    ledger.set(
        "obs.events_recorded",
        median(&sessions.iter().map(|t| t.events.len() as f64).collect::<Vec<_>>()),
    );
    ledger.set("obs.events_dropped", median(&sessions.iter().map(|t| t.dropped as f64).collect::<Vec<_>>()));
    let start = Instant::now();
    let exported = latest.to_json().to_string();
    ledger.set("obs.export_json_ms", start.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(exported);

    if latest.backend != "proc" {
        // The runtime's own counters stay 0 unless task bodies feed them;
        // the recorder's histogram sees every acquisition and its wait.
        let locks = |o: &Outcome| -> (f64, f64) {
            let histograms = o.telemetry.iter().filter_map(|t| t.metrics.histogram("lock_wait_ns"));
            histograms.fold((0.0, 0.0), |(n, wait_s), h| (n + h.count as f64, wait_s + h.sum as f64 * 1e-9))
        };
        let acquisitions: Vec<f64> = observed.iter().map(|o| locks(o).0).collect();
        let wait_frac: Vec<f64> = observed.iter().map(|o| locks(o).1 / o.task_seconds).collect();
        ledger.set("core.lock_acquisitions", median(&acquisitions));
        ledger.set("core.lock_wait_frac", median(&wait_frac));
        return;
    }
    // Stage percentiles are log2-bucket estimates per session; the median
    // over sessions steadies them.  Unmatched grants must be 0 in all.
    let reports: Vec<_> = sessions.iter().map(|t| analyze(t, 0)).collect();
    let unmatched: u64 = reports.iter().map(|r| r.unmatched_grants).sum();
    checks.check(unmatched == 0, || {
        format!("{}: {unmatched} grants whose request never appeared in the telemetry", entry.name)
    });
    ledger.set("proc.unmatched_grants", unmatched as f64);
    for (stage, p50, p99) in [
        ("request_to_grant", "proc.request_to_grant_p50_us", "proc.request_to_grant_p99_us"),
        ("owner_fifo_wait", "proc.owner_fifo_wait_p50_us", "proc.owner_fifo_wait_p99_us"),
        ("grant_to_release", "proc.grant_to_release_p50_us", "proc.grant_to_release_p99_us"),
    ] {
        let of = |pick: fn(&orwl_obs::analyze::GrantStage) -> u64| {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.stages.iter().find(|s| s.stage == stage))
                .map(|s| pick(s) as f64 * 1e-3)
                .collect();
            median(&values)
        };
        ledger.set(p50, of(|s| s.p50_ns));
        ledger.set(p99, of(|s| s.p99_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn an_observed_repeat_without_telemetry_fails_a_check() {
        let (mut checks, mut ledger) = (Checks::default(), Ledger::default());
        let silent = Outcome::default();
        metrics(find("proc_stream").unwrap(), &[&silent], &mut checks, &mut ledger);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert_eq!(ledger.get("proc.unmatched_grants"), None);
        // A workload that builds no session owes no telemetry.
        let mut checks = Checks::default();
        metrics(find("lab_sweep").unwrap(), &[&silent], &mut checks, &mut ledger);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
    }
}
