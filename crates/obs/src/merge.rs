//! Merging per-process telemetry into one timeline.
//!
//! The coordinator of a multi-process run holds its own recorder plus one
//! [`TelemetrySnapshot`] per worker.  Workers are children on the
//! coordinator's host, in its time namespace, so every recorder stamps the
//! same `CLOCK_MONOTONIC` and differs from the others only in its origin
//! (the clock reading at its creation).  [`merge_run`] therefore moves a
//! worker event into coordinator time by a pure shift:
//!
//! ```text
//! coordinator_ts = worker_ts + worker_origin − coordinator_origin
//! ```
//!
//! No timestamp is estimated or repaired, so the merged timeline shows the
//! order the protocol fixes — a grant after its request, a release after
//! its grant — only because that is the order the clock saw.  The proc
//! test suites check it on every cross-node section.

use crate::metrics::MetricsSnapshot;
use crate::{ObsEvent, RunTelemetry, TrackInfo};

/// One worker's whole-run telemetry plus where its recorder's time zero
/// sits on the shared clock.  Built from the worker's telemetry frames by
/// [`fold_deltas`](crate::timeseries::fold_deltas).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The recorder's time zero on the shared clock
    /// (`Recorder::origin_us`).
    pub origin_us: f64,
    /// The worker's events.
    pub events: Vec<ObsEvent>,
    /// Events lost to ring overwrites.
    pub dropped: u64,
    /// Final metric values.
    pub metrics: MetricsSnapshot,
}

/// Merges worker snapshots into the coordinator's telemetry.
///
/// `base` is the coordinator recorder's drained telemetry and
/// `base_origin_us` its `Recorder::origin_us`.  Each `(node, snapshot)`
/// pair becomes track `node + 1` (the coordinator is track 0); worker
/// metrics are namespaced `node<k>.<name>`.  The result is one
/// `(ts, track, seq)`-sorted timeline with globally reassigned sequence
/// numbers; `ts` leads because two threads of one recorder can read the
/// clock and take their sequence number in opposite orders.
#[must_use]
pub fn merge_run(
    base: RunTelemetry,
    base_origin_us: f64,
    workers: &[(u32, TelemetrySnapshot)],
) -> RunTelemetry {
    let mut tracks = vec![TrackInfo { track: 0, label: "coordinator".to_string() }];
    let mut events = base.events;
    for ev in &mut events {
        ev.track = 0;
    }
    let mut dropped = base.dropped;
    let mut metrics = base.metrics;

    for (node, snap) in workers {
        let track = node + 1;
        tracks.push(TrackInfo { track, label: format!("node{node}") });
        let shift = snap.origin_us - base_origin_us;
        for ev in &snap.events {
            events.push(ObsEvent { ts_us: ev.ts_us + shift, track, ..*ev });
        }
        dropped += snap.dropped;
        let prefix = format!("node{node}.");
        for (name, v) in &snap.metrics.counters {
            metrics.counters.push((format!("{prefix}{name}"), *v));
        }
        for (name, v) in &snap.metrics.gauges {
            metrics.gauges.push((format!("{prefix}{name}"), *v));
        }
        for (name, h) in &snap.metrics.histograms {
            metrics.histograms.push((format!("{prefix}{name}"), h.clone()));
        }
    }

    metrics.counters.sort_by(|a, b| a.0.cmp(&b.0));
    metrics.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    metrics.histograms.sort_by(|a, b| a.0.cmp(&b.0));

    events.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.track.cmp(&b.track))
            .then(a.seq.cmp(&b.seq))
    });
    for (i, ev) in events.iter_mut().enumerate() {
        ev.seq = i as u64;
    }

    RunTelemetry { backend: base.backend, clock: base.clock, events, dropped, metrics, tracks }
}

/// Splits a merged document back into one single-track telemetry per
/// track: events filtered by track id, metrics filtered to the track's
/// namespace (prefix stripped for worker tracks).  Used to write per-node
/// artifacts next to the merged one, and to diff a single node run-over-run.
#[must_use]
pub fn split_tracks(merged: &RunTelemetry) -> Vec<(TrackInfo, RunTelemetry)> {
    merged
        .tracks
        .iter()
        .map(|info| {
            let events: Vec<ObsEvent> = merged
                .events
                .iter()
                .filter(|e| e.track == info.track)
                .map(|e| ObsEvent { track: 0, ..*e })
                .collect();
            let prefix = if info.track == 0 { None } else { Some(format!("{}.", info.label)) };
            let keep = |name: &str| -> Option<String> {
                match &prefix {
                    Some(p) => name.strip_prefix(p.as_str()).map(str::to_string),
                    None => (!name.contains('.')).then(|| name.to_string()),
                }
            };
            let metrics = MetricsSnapshot {
                counters: merged
                    .metrics
                    .counters
                    .iter()
                    .filter_map(|(n, v)| keep(n).map(|n| (n, *v)))
                    .collect(),
                gauges: merged.metrics.gauges.iter().filter_map(|(n, v)| keep(n).map(|n| (n, *v))).collect(),
                histograms: merged
                    .metrics
                    .histograms
                    .iter()
                    .filter_map(|(n, h)| keep(n).map(|n| (n, h.clone())))
                    .collect(),
            };
            let telemetry = RunTelemetry {
                backend: format!("{}/{}", merged.backend, info.label),
                clock: merged.clock,
                events,
                dropped: merged.dropped,
                metrics,
                tracks: Vec::new(),
            };
            (info.clone(), telemetry)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fold_deltas, ClockKind, DeltaSampler, EventKind, ObsConfig, Recorder};
    use std::sync::Arc;

    fn event(ts_us: f64, seq: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { ts_us, dur_us: 0.0, seq, tid: 0, track: 0, kind }
    }

    fn base(events: Vec<ObsEvent>) -> RunTelemetry {
        RunTelemetry {
            backend: "proc".to_string(),
            clock: ClockKind::Wall,
            events,
            dropped: 0,
            metrics: MetricsSnapshot::default(),
            tracks: Vec::new(),
        }
    }

    fn snapshot(events: Vec<ObsEvent>, origin_us: f64) -> TelemetrySnapshot {
        TelemetrySnapshot { origin_us, events, dropped: 0, metrics: MetricsSnapshot::default() }
    }

    #[test]
    fn rebasing_uses_origin_and_offset() {
        // Coordinator origin at 1000 on the shared clock, the worker's
        // recorder origin at 1100: a worker event at +100 lands at
        // 1100 + 100 − 1000 = 200 in coordinator-relative time.
        let coord = base(vec![event(150.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 })]);
        let snap = snapshot(vec![event(100.0, 0, EventKind::Epoch { epoch: 2, bytes: 0.0 })], 1100.0);
        let merged = merge_run(coord, 1000.0, &[(0, snap)]);
        assert_eq!(merged.tracks.len(), 2);
        assert_eq!(merged.tracks[1].label, "node0");
        let worker_ev = merged.events.iter().find(|e| e.track == 1).unwrap();
        assert!((worker_ev.ts_us - 200.0).abs() < 1e-9, "got {}", worker_ev.ts_us);
        // Coordinator events stay put and sort first here.
        assert_eq!(merged.events[0].track, 0);
        assert_eq!(merged.events[0].ts_us, 150.0);
        // Sequence numbers are reassigned globally.
        assert_eq!(merged.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn two_recorders_merge_in_emission_order() {
        // Two recorders created at different instants stamp one clock:
        // events emitted A, B, A merge in that order, whatever the
        // origins are.
        let a = Recorder::new(ClockKind::Wall, ObsConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Recorder::new(ClockKind::Wall, ObsConfig::default());
        a.record(EventKind::Epoch { epoch: 1, bytes: 0.0 });
        b.record(EventKind::Epoch { epoch: 2, bytes: 0.0 });
        a.record(EventKind::Epoch { epoch: 3, bytes: 0.0 });
        let worker = fold_deltas(DeltaSampler::new(Arc::clone(&b)).sample()).unwrap();
        let merged = merge_run(a.finish("proc"), a.origin_us(), &[(0, worker)]);
        let order: Vec<(u32, u64)> = merged
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Epoch { epoch, .. } => (e.track, epoch),
                _ => unreachable!("only epochs were recorded"),
            })
            .collect();
        assert_eq!(order, [(0, 1), (1, 2), (0, 3)]);
    }

    #[test]
    fn worker_metrics_are_namespaced() {
        let mut m = MetricsSnapshot::default();
        m.counters.push(("remote_requests".to_string(), 5));
        let mut snap = snapshot(vec![], 0.0);
        snap.metrics = m;
        let mut coord = base(vec![]);
        coord.metrics.counters.push(("epochs".to_string(), 2));
        let merged = merge_run(coord, 0.0, &[(1, snap)]);
        assert_eq!(merged.metrics.counter("epochs"), Some(2));
        assert_eq!(merged.metrics.counter("node1.remote_requests"), Some(5));
        assert_eq!(merged.tracks[1].label, "node1");
        assert_eq!(merged.tracks[1].track, 2);
    }

    #[test]
    fn split_tracks_partitions_events_and_metrics() {
        let mut coord = base(vec![event(1.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 })]);
        coord.metrics.counters.push(("epochs".to_string(), 1));
        let mut snap = snapshot(vec![event(2.0, 0, EventKind::Epoch { epoch: 2, bytes: 0.0 })], 0.0);
        snap.metrics.counters.push(("epochs".to_string(), 1));
        let merged = merge_run(coord, 0.0, &[(0, snap)]);
        let parts = split_tracks(&merged);
        assert_eq!(parts.len(), 2);
        let (info0, t0) = &parts[0];
        assert_eq!(info0.label, "coordinator");
        assert_eq!(t0.events.len(), 1);
        assert_eq!(t0.metrics.counter("epochs"), Some(1));
        // The coordinator keeps none of the node metrics.
        assert!(t0.metrics.counter("node0.epochs").is_none());
        let (info1, t1) = &parts[1];
        assert_eq!(info1.label, "node0");
        assert_eq!(t1.events.len(), 1);
        assert_eq!(t1.metrics.counter("epochs"), Some(1));
        assert!(t1.events.iter().all(|e| e.track == 0));
        // Each part is a valid single-track document.
        use crate::ToJson;
        crate::export::validate_obs(&t1.to_json()).unwrap();
    }
}
