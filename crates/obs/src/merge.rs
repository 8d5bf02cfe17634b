//! Merging per-process telemetry into one clock-aligned timeline.
//!
//! The coordinator of a multi-process run holds its own recorder plus one
//! [`TelemetrySnapshot`] per worker.  Each snapshot's events are stamped on
//! the *worker's* clock; its `origin_us`/`clock_offset_us` metadata locate
//! that clock relative to the coordinator's, so [`merge_run`] can rebase
//! every worker event into coordinator time:
//!
//! ```text
//! coordinator_ts = worker_ts + worker_origin + offset − coordinator_origin
//! ```
//!
//! The offset is an *estimate* (half the handshake round-trip is its error
//! bar), so rebased timestamps can violate the one ordering the protocol
//! guarantees: a grant is sent only after its request arrived, and a
//! release only after its grant.  [`merge_run`] therefore runs a causality
//! clamp — grants are nudged after their requests, releases after their
//! grants, and each track is re-monotonised in emission order — and counts
//! every nudge in the `causality_clamps` counter so analyzers can see how
//! hard the clocks disagreed.  Only timestamps move; no event is dropped
//! or reordered within its own track.

use crate::metrics::MetricsSnapshot;
use crate::{EventKind, ObsEvent, RunTelemetry, TrackInfo};
use std::collections::BTreeMap;

/// One worker's whole-run telemetry plus the clock metadata the
/// coordinator needs to rebase it: where the recorder's time zero sits on
/// the worker's process clock, and the estimated offset between the two
/// process clocks.  Built from the worker's telemetry frames by
/// [`fold_deltas`](crate::timeseries::fold_deltas).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The recorder's time zero on the worker's process clock
    /// (`Recorder::origin_us`).
    pub origin_us: f64,
    /// Estimated `coordinator_clock − worker_clock` in microseconds
    /// (midpoint method over the handshake); adding it to a worker-clock
    /// time yields a coordinator-clock time.
    pub clock_offset_us: f64,
    /// The worker's events.
    pub events: Vec<ObsEvent>,
    /// Events lost to ring overwrites.
    pub dropped: u64,
    /// Final metric values.
    pub metrics: MetricsSnapshot,
}

/// Minimum gap (µs) enforced between a clamped cause/effect pair, so the
/// merged sort keeps the effect strictly after its cause.
const CLAMP_GAP_US: f64 = 1.0e-3;

/// Merges worker snapshots into the coordinator's telemetry.
///
/// `base` is the coordinator recorder's drained telemetry and
/// `base_origin_us` its `Recorder::origin_us`.  Each `(node, snapshot)`
/// pair becomes track `node + 1` (the coordinator is track 0); worker
/// metrics are namespaced `node<k>.<name>`.  The result is one
/// `(ts, track, seq)`-sorted timeline with globally reassigned sequence
/// numbers.
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
        let shift = snap.origin_us + snap.clock_offset_us - base_origin_us;
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

    let clamps = enforce_causality(&mut events);
    metrics.counters.push(("causality_clamps".to_string(), clamps));
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

/// Repairs orderings the protocol guarantees but clock estimation can
/// break; returns how many timestamps had to move.
///
/// Two invariants are enforced, by raising timestamps only (a bounded
/// lattice walk, so the alternation below converges):
///
/// 1. cross-track happens-before per `rseq`: request ≤ grant ≤ release;
/// 2. per-track monotonicity in emission (`seq`) order.
fn enforce_causality(events: &mut [ObsEvent]) -> u64 {
    // Index events by (what they are, rseq), remembering positions.
    // BTreeMaps keep the clamp count deterministic across runs.
    let mut requests: BTreeMap<u64, usize> = BTreeMap::new();
    let mut grants: BTreeMap<u64, usize> = BTreeMap::new();
    let mut releases: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::LockRequest { rseq, .. } => {
                requests.insert(rseq, i);
            }
            EventKind::LockGrant { rseq, .. } => {
                grants.insert(rseq, i);
            }
            EventKind::LockRelease { rseq, .. } => {
                releases.insert(rseq, i);
            }
            _ => {}
        }
    }
    // Per-track emission order (original recorder seq).
    let mut by_track: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        by_track.entry(ev.track).or_default().push(i);
    }
    for order in by_track.values_mut() {
        order.sort_by_key(|&i| events[i].seq);
    }

    let mut clamps = 0u64;
    // Alternate the two raises until a fixed point; each pass only raises
    // timestamps toward a finite bound, so a handful of rounds suffice.
    for _ in 0..8 {
        let mut moved = false;
        for (rseq, &g) in &grants {
            if let Some(&q) = requests.get(rseq) {
                if events[g].ts_us < events[q].ts_us + CLAMP_GAP_US {
                    events[g].ts_us = events[q].ts_us + CLAMP_GAP_US;
                    clamps += 1;
                    moved = true;
                }
            }
        }
        for (rseq, &r) in &releases {
            if let Some(&g) = grants.get(rseq) {
                if events[r].ts_us < events[g].ts_us + CLAMP_GAP_US {
                    events[r].ts_us = events[g].ts_us + CLAMP_GAP_US;
                    clamps += 1;
                    moved = true;
                }
            }
        }
        for order in by_track.values() {
            let mut high = f64::NEG_INFINITY;
            for &i in order {
                if events[i].ts_us < high {
                    events[i].ts_us = high;
                    clamps += 1;
                    moved = true;
                }
                high = events[i].ts_us;
            }
        }
        if !moved {
            break;
        }
    }
    clamps
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
    use crate::ClockKind;

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

    fn snapshot(events: Vec<ObsEvent>, origin_us: f64, offset_us: f64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            origin_us,
            clock_offset_us: offset_us,
            events,
            dropped: 0,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn rebasing_uses_origin_and_offset() {
        // Coordinator origin at 1000 on its own clock.  The worker's
        // recorder origin sits at 400 on the worker clock, which runs 700
        // behind the coordinator's: a worker event at +100 should land at
        // 400 + 700 + 100 − 1000 = 200 in coordinator-relative time.
        let coord = base(vec![event(150.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 })]);
        let snap = snapshot(vec![event(100.0, 0, EventKind::Epoch { epoch: 2, bytes: 0.0 })], 400.0, 700.0);
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
        assert_eq!(merged.metrics.counter("causality_clamps"), Some(0));
    }

    #[test]
    fn worker_metrics_are_namespaced() {
        let mut m = MetricsSnapshot::default();
        m.counters.push(("remote_requests".to_string(), 5));
        let mut snap = snapshot(vec![], 0.0, 0.0);
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
    fn skewed_offsets_still_yield_request_before_grant() {
        // Node 0 requests at its local 100; node 1 grants at its local 50.
        // Node 1's offset estimate is so wrong that the grant rebases 150
        // *before* the request: the clamp must pull it after, and both
        // tracks must stay monotone.
        let rseq = (1_u64 << 32) | 1;
        let reader = snapshot(
            vec![
                event(100.0, 0, EventKind::LockRequest { rseq, location: 3, owner: 1 }),
                event(300.0, 1, EventKind::LockRelease { rseq, location: 3, held_ns: 1000 }),
            ],
            0.0,
            0.0,
        );
        let owner = snapshot(
            vec![
                event(10.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 }),
                event(50.0, 1, EventKind::LockGrant { rseq, location: 3, wait_ns: 500 }),
            ],
            0.0,
            -100.0, // rebases the grant to −50
        );
        let merged = merge_run(base(vec![]), 0.0, &[(0, reader), (1, owner)]);
        let find = |name: &str| merged.events.iter().find(|e| e.kind.name() == name).unwrap();
        let (req, grant, release) = (find("lock_request"), find("lock_grant"), find("lock_release"));
        assert!(req.ts_us < grant.ts_us, "request {} must precede grant {}", req.ts_us, grant.ts_us);
        assert!(grant.ts_us < release.ts_us);
        // The merged order mirrors the repaired timestamps.
        let names: Vec<&str> = merged
            .events
            .iter()
            .filter(|e| e.kind.name().starts_with("lock_"))
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(names, vec!["lock_request", "lock_grant", "lock_release"]);
        // Per-track monotone in final order.
        for track in [1, 2] {
            let ts: Vec<f64> = merged.events.iter().filter(|e| e.track == track).map(|e| e.ts_us).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "track {track} not monotone: {ts:?}");
        }
        let clamps = merged.metrics.counter("causality_clamps").unwrap();
        assert!(clamps >= 1, "the grant must have been clamped");
    }

    #[test]
    fn clamping_one_event_remonotonises_its_track() {
        // The grant is followed on the owner track by a later local event;
        // after the grant is pushed forward the follower must move too.
        let rseq = (1_u64 << 32) | 9;
        let reader =
            snapshot(vec![event(500.0, 0, EventKind::LockRequest { rseq, location: 0, owner: 1 })], 0.0, 0.0);
        let owner = snapshot(
            vec![
                event(100.0, 0, EventKind::LockGrant { rseq, location: 0, wait_ns: 1 }),
                event(101.0, 1, EventKind::Epoch { epoch: 1, bytes: 0.0 }),
            ],
            0.0,
            0.0,
        );
        let merged = merge_run(base(vec![]), 0.0, &[(0, reader), (1, owner)]);
        let owner_ts: Vec<f64> = merged.events.iter().filter(|e| e.track == 2).map(|e| e.ts_us).collect();
        assert!(owner_ts[0] > 500.0);
        assert!(owner_ts.windows(2).all(|w| w[0] <= w[1]), "owner track regressed: {owner_ts:?}");
        // The epoch event kept its emission position relative to the grant.
        assert_eq!(merged.events.iter().filter(|e| e.track == 2).count(), 2);
    }

    #[test]
    fn split_tracks_partitions_events_and_metrics() {
        let mut coord = base(vec![event(1.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 })]);
        coord.metrics.counters.push(("epochs".to_string(), 1));
        let mut snap = snapshot(vec![event(2.0, 0, EventKind::Epoch { epoch: 2, bytes: 0.0 })], 0.0, 0.0);
        snap.metrics.counters.push(("epochs".to_string(), 1));
        let merged = merge_run(coord, 0.0, &[(0, snap)]);
        let parts = split_tracks(&merged);
        assert_eq!(parts.len(), 2);
        let (info0, t0) = &parts[0];
        assert_eq!(info0.label, "coordinator");
        assert_eq!(t0.events.len(), 1);
        assert_eq!(t0.metrics.counter("epochs"), Some(1));
        // The coordinator keeps the clamp counter, not the node metrics.
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
