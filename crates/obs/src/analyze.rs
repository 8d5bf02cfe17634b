//! The contention / critical-path analyzer behind the `obs_report` tool.
//!
//! Walks one telemetry document (typically a merged multi-process
//! timeline) and answers *where waiting happens*:
//!
//! * a per-track, per-lock-location contention table — wait counts, total
//!   wait, p50/p99 — built from [`EventKind::LockWait`] events.  A remote
//!   read's owner-side FIFO wait is among them: the owner's serving thread
//!   queues through the same acquire as a local section, so its wait is
//!   counted once, past the same recorder threshold, and the grant's own
//!   `wait_ns` feeds only the stage breakdown.  Wire transport time is
//!   deliberately excluded, so the table ranks *contention*, not network
//!   distance;
//! * a latency breakdown for cross-node grants: request→grant wire+queue
//!   latency from matched event pairs, the owner-side FIFO wait carried by
//!   the grant event, and the reader's local hold after its grant arrives,
//!   carried by the `LockRelease` event (the owner's section already ended
//!   at the copy into the grant; no release goes over the wire).
//!
//! Percentiles are exact nearest-rank values over the events' samples (the
//! online metrics histograms keep their log2 buckets).  The report renders
//! as a terminal table and as an `orwl-obs-report/v1` JSON document.

use crate::json::Json;
use crate::{EventKind, RunTelemetry};
use std::collections::BTreeMap;

/// Schema tag of the analyzer's JSON artifact.
pub(crate) const REPORT_SCHEMA: &str = "orwl-obs-report/v1";

/// One wait distribution, its samples kept whole so percentiles are exact.
#[derive(Debug, Clone, Default)]
struct WaitDist {
    samples: Vec<u64>,
    sum: u64,
}

impl WaitDist {
    fn observe(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sum += ns;
    }

    fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile: the `⌈q·n⌉`-th smallest sample (the
    /// smallest for `q = 0`; 0 when there are none).
    fn percentile_ns(&mut self, q: f64) -> u64 {
        let n = self.samples.len();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        *self.samples.select_nth_unstable(rank - 1).1
    }
}

/// One row of the contention table: waiting attributed to one lock
/// location on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionRow {
    /// The waiting process's track id (0 = coordinator / single-process).
    pub track: u32,
    /// The waiting process's label (`node0`, ...; `run` when the document
    /// has no track table).
    pub label: String,
    /// The contended location (global task index on proc runs).
    pub location: u64,
    /// Number of waits attributed here.
    pub waits: u64,
    /// Total nanoseconds waited.
    pub total_wait_ns: u64,
    /// Largest single wait.
    pub max_wait_ns: u64,
    /// Median wait (nearest rank).
    pub p50_ns: u64,
    /// 99th-percentile wait (nearest rank).
    pub p99_ns: u64,
}

/// One stage of the remote-section latency breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantStage {
    /// Stage name (`request_to_grant`, `owner_fifo_wait`,
    /// `grant_to_release`).  `request_to_grant` runs from the reader's
    /// request event to the owner's grant event.  A reader sends all of a
    /// task's requests to one owner in one iteration together and the
    /// owner serves them in order, so the stage includes the wait behind
    /// the earlier grants of the same batch.  `grant_to_release` is the
    /// reader's hold of each grant (its `LockRelease`'s `held_ns`): from
    /// the grant's arrival to the end of its batch, when the task goes on,
    /// so the batch's earlier grants are held longer.  It is not an open
    /// section on the owner: the owner's section ends when it copies the
    /// value into the grant.
    pub stage: &'static str,
    /// Samples in the stage.
    pub count: u64,
    /// Total nanoseconds across samples.
    pub total_ns: u64,
    /// Median (nearest rank).
    pub p50_ns: u64,
    /// 99th percentile (nearest rank).
    pub p99_ns: u64,
}

/// The analyzer's result over one telemetry document.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Backend of the analyzed run.
    pub backend: String,
    /// Contention rows, most-waited-on first, truncated to the requested
    /// top-k.
    pub rows: Vec<ContentionRow>,
    /// Rows beyond the top-k cut (still counted in `total_wait_ns`).
    pub truncated_rows: usize,
    /// Total lock-wait nanoseconds across *all* rows, before truncation.
    pub total_wait_ns: u64,
    /// The cross-node latency breakdown.
    pub stages: Vec<GrantStage>,
    /// Matched request→grant pairs spanning two tracks.
    pub cross_node_grants: u64,
    /// Grants whose request never appeared (lost to ring overwrites or
    /// sampling).
    pub unmatched_grants: u64,
}

/// Analyzes a telemetry document; `top_k` bounds the contention table
/// (`usize::MAX` keeps every row).
#[must_use]
pub fn analyze(t: &RunTelemetry, top_k: usize) -> ObsReport {
    let label_of = |track: u32| -> String {
        t.tracks.iter().find(|i| i.track == track).map_or_else(
            || if t.tracks.is_empty() { "run".to_string() } else { format!("track{track}") },
            |i| i.label.clone(),
        )
    };

    // Pass 1: match requests to grants by rseq.
    let mut request_of: BTreeMap<u64, &crate::ObsEvent> = BTreeMap::new();
    for ev in &t.events {
        if let EventKind::LockRequest { rseq, .. } = ev.kind {
            request_of.entry(rseq).or_insert(ev);
        }
    }

    // Pass 2: aggregate.
    let mut per_location: BTreeMap<(u32, u64), WaitDist> = BTreeMap::new();
    let mut request_to_grant = WaitDist::default();
    let mut owner_fifo = WaitDist::default();
    let mut grant_to_release = WaitDist::default();
    let mut cross_node_grants = 0u64;
    let mut unmatched_grants = 0u64;
    for ev in &t.events {
        match ev.kind {
            EventKind::LockWait { location, wait_ns } => {
                per_location.entry((ev.track, location)).or_default().observe(wait_ns);
            }
            EventKind::LockGrant { rseq, wait_ns, .. } => {
                owner_fifo.observe(wait_ns);
                match request_of.get(&rseq) {
                    Some(req) => {
                        if req.track != ev.track {
                            cross_node_grants += 1;
                        }
                        let latency_ns = ((ev.ts_us - req.ts_us).max(0.0) * 1.0e3) as u64;
                        request_to_grant.observe(latency_ns);
                    }
                    None => unmatched_grants += 1,
                }
            }
            EventKind::LockRelease { held_ns, .. } => {
                grant_to_release.observe(held_ns);
            }
            _ => {}
        }
    }

    let mut rows: Vec<ContentionRow> = per_location
        .into_iter()
        .map(|((track, location), mut dist)| ContentionRow {
            track,
            label: label_of(track),
            location,
            waits: dist.count(),
            total_wait_ns: dist.sum,
            max_wait_ns: dist.max(),
            p50_ns: dist.percentile_ns(0.50),
            p99_ns: dist.percentile_ns(0.99),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.total_wait_ns.cmp(&a.total_wait_ns).then(a.location.cmp(&b.location)).then(a.track.cmp(&b.track))
    });
    let total_wait_ns = rows.iter().map(|r| r.total_wait_ns).sum();
    let truncated_rows = rows.len().saturating_sub(top_k);
    rows.truncate(top_k);

    let stage = |name: &'static str, mut d: WaitDist| GrantStage {
        stage: name,
        count: d.count(),
        total_ns: d.sum,
        p50_ns: d.percentile_ns(0.50),
        p99_ns: d.percentile_ns(0.99),
    };
    ObsReport {
        backend: t.backend.clone(),
        rows,
        truncated_rows,
        total_wait_ns,
        stages: vec![
            stage("request_to_grant", request_to_grant),
            stage("owner_fifo_wait", owner_fifo),
            stage("grant_to_release", grant_to_release),
        ],
        cross_node_grants,
        unmatched_grants,
    }
}

impl ObsReport {
    /// Share of the total wait attributed to `location` (across every
    /// track), in `[0, 1]`; 0 when nothing waited.  Meaningful only when
    /// the report was built untruncated (`top_k` covering all rows).
    #[must_use]
    pub fn location_share(&self, location: u64) -> f64 {
        if self.total_wait_ns == 0 {
            return 0.0;
        }
        let at: u64 = self.rows.iter().filter(|r| r.location == location).map(|r| r.total_wait_ns).sum();
        at as f64 / self.total_wait_ns as f64
    }

    /// The terminal rendering: the contention table then the latency
    /// breakdown.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1.0e6;
        out.push_str(&format!(
            "contention by location ({} backend, total wait {:.3} ms)\n",
            self.backend,
            ms(self.total_wait_ns)
        ));
        out.push_str(&format!(
            "{:<12} {:>8} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "track", "location", "waits", "total_ms", "p50_us", "p99_us", "max_ms"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>8} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.3}\n",
                r.label,
                r.location,
                r.waits,
                ms(r.total_wait_ns),
                r.p50_ns as f64 / 1.0e3,
                r.p99_ns as f64 / 1.0e3,
                ms(r.max_wait_ns),
            ));
        }
        if self.truncated_rows > 0 {
            out.push_str(&format!("... {} more location(s) below the cut\n", self.truncated_rows));
        }
        out.push_str(&format!(
            "\nremote sections: {} cross-node grants, {} unmatched\n",
            self.cross_node_grants, self.unmatched_grants
        ));
        out.push_str(&format!(
            "{:<18} {:>8} {:>12} {:>10} {:>10}\n",
            "stage", "count", "total_ms", "p50_us", "p99_us"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<18} {:>8} {:>12.3} {:>10.1} {:>10.1}\n",
                s.stage,
                s.count,
                ms(s.total_ns),
                s.p50_ns as f64 / 1.0e3,
                s.p99_ns as f64 / 1.0e3,
            ));
        }
        out
    }

    /// The `orwl-obs-report/v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", REPORT_SCHEMA)
            .push("backend", self.backend.as_str())
            .push("total_wait_ns", self.total_wait_ns)
            .push("truncated_rows", self.truncated_rows)
            .push("cross_node_grants", self.cross_node_grants)
            .push("unmatched_grants", self.unmatched_grants);
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let mut j = Json::obj();
                j.push("track", u64::from(r.track))
                    .push("label", r.label.as_str())
                    .push("location", r.location)
                    .push("waits", r.waits)
                    .push("total_wait_ns", r.total_wait_ns)
                    .push("max_wait_ns", r.max_wait_ns)
                    .push("p50_ns", r.p50_ns)
                    .push("p99_ns", r.p99_ns);
                j
            })
            .collect();
        doc.push("contention", Json::Arr(rows));
        let stages: Vec<Json> = self
            .stages
            .iter()
            .map(|s| {
                let mut j = Json::obj();
                j.push("stage", s.stage)
                    .push("count", s.count)
                    .push("total_ns", s.total_ns)
                    .push("p50_ns", s.p50_ns)
                    .push("p99_ns", s.p99_ns);
                j
            })
            .collect();
        doc.push("stages", Json::Arr(stages));
        doc
    }
}

/// Validates an `orwl-obs-report/v1` document.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(REPORT_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing schema tag".to_string()),
    }
    if doc.get("backend").and_then(Json::as_str).is_none() {
        return Err("missing backend".to_string());
    }
    for key in ["total_wait_ns", "truncated_rows", "cross_node_grants", "unmatched_grants"] {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("missing number {key:?}"));
        }
    }
    let rows =
        doc.get("contention").and_then(Json::as_arr).ok_or_else(|| "missing contention array".to_string())?;
    for (i, r) in rows.iter().enumerate() {
        if r.get("label").and_then(Json::as_str).is_none() {
            return Err(format!("contention[{i}]: missing label"));
        }
        for key in ["track", "location", "waits", "total_wait_ns", "max_wait_ns", "p50_ns", "p99_ns"] {
            if r.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("contention[{i}]: missing number {key:?}"));
            }
        }
    }
    let stages =
        doc.get("stages").and_then(Json::as_arr).ok_or_else(|| "missing stages array".to_string())?;
    for (i, s) in stages.iter().enumerate() {
        if s.get("stage").and_then(Json::as_str).is_none() {
            return Err(format!("stages[{i}]: missing stage name"));
        }
        for key in ["count", "total_ns", "p50_ns", "p99_ns"] {
            if s.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("stages[{i}]: missing number {key:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::{ClockKind, ObsEvent, TrackInfo};

    fn event(ts_us: f64, seq: u64, track: u32, kind: EventKind) -> ObsEvent {
        ObsEvent { ts_us, dur_us: 0.0, seq, tid: 0, track, kind }
    }

    fn merged_doc() -> RunTelemetry {
        let rseq = (1_u64 << 32) | 1;
        let rseq2 = (1_u64 << 32) | 2;
        RunTelemetry {
            backend: "proc".to_string(),
            clock: ClockKind::Wall,
            events: vec![
                // Local FIFO waits on location 0 (node0) and 5 (node1).
                event(1.0, 0, 1, EventKind::LockWait { location: 0, wait_ns: 900_000 }),
                event(2.0, 1, 1, EventKind::LockWait { location: 0, wait_ns: 100_000 }),
                event(3.0, 2, 2, EventKind::LockWait { location: 5, wait_ns: 50_000 }),
                // A matched cross-node section on location 0: request from
                // node1 at 10 µs, grant from node0 at 210 µs (200 µs wait).
                // node0's serving thread queued 120 µs of it in the FIFO,
                // which its acquire records as a `LockWait` too.
                event(10.0, 3, 2, EventKind::LockRequest { rseq, location: 0, owner: 0 }),
                event(209.0, 4, 1, EventKind::LockWait { location: 0, wait_ns: 120_000 }),
                event(210.0, 5, 1, EventKind::LockGrant { rseq, location: 0, wait_ns: 120_000 }),
                event(260.0, 6, 2, EventKind::LockRelease { rseq, location: 0, held_ns: 40_000 }),
                // An unmatched grant (its request was dropped), its 1 µs
                // FIFO wait under the recorder's threshold: no `LockWait`.
                event(300.0, 7, 1, EventKind::LockGrant { rseq: rseq2, location: 0, wait_ns: 1_000 }),
            ],
            dropped: 0,
            metrics: MetricsSnapshot::default(),
            tracks: vec![
                TrackInfo { track: 0, label: "coordinator".to_string() },
                TrackInfo { track: 1, label: "node0".to_string() },
                TrackInfo { track: 2, label: "node1".to_string() },
            ],
        }
    }

    #[test]
    fn contention_table_attributes_waits_per_track_and_location() {
        let report = analyze(&merged_doc(), usize::MAX);
        // node0's row on location 0: two local FIFO waits (1.0 ms) plus
        // its serving thread's 120 µs wait for the matched grant, counted
        // once — the grants' own `wait_ns` stay out of the table, so the
        // unmatched grant's sub-threshold 1 µs adds nothing.  The 200 µs
        // request→grant latency is transport, not contention, and stays
        // out of the table too.
        let node0 = report.rows.iter().find(|r| r.label == "node0" && r.location == 0).unwrap();
        assert_eq!(node0.waits, 3);
        assert_eq!(node0.total_wait_ns, 1_000_000 + 120_000);
        assert_eq!(node0.max_wait_ns, 900_000);
        // node1's remote read of location 0 contributes no row of its own.
        assert!(!report.rows.iter().any(|r| r.label == "node1" && r.location == 0));
        // Rows sort by total wait; the top row is node0's.
        assert_eq!(report.rows[0].label, "node0");
        assert_eq!(report.total_wait_ns, 1_120_000 + 50_000);
        // Location 0 dominates.
        assert!(report.location_share(0) > 0.95);
        assert_eq!(report.cross_node_grants, 1);
        assert_eq!(report.unmatched_grants, 1);
    }

    #[test]
    fn stages_break_down_the_remote_section() {
        let report = analyze(&merged_doc(), usize::MAX);
        let find = |name: &str| report.stages.iter().find(|s| s.stage == name).unwrap();
        let rtg = find("request_to_grant");
        assert_eq!(rtg.count, 1);
        assert_eq!(rtg.total_ns, 200_000);
        let fifo = find("owner_fifo_wait");
        assert_eq!(fifo.count, 2); // both grants carry a FIFO wait
        assert_eq!(fifo.total_ns, 121_000);
        let hold = find("grant_to_release");
        assert_eq!(hold.count, 1);
        assert_eq!(hold.total_ns, 40_000);
    }

    #[test]
    fn top_k_truncates_but_totals_do_not_change() {
        let full = analyze(&merged_doc(), usize::MAX);
        let cut = analyze(&merged_doc(), 1);
        assert_eq!(cut.rows.len(), 1);
        assert_eq!(cut.truncated_rows, full.rows.len() - 1);
        assert_eq!(cut.total_wait_ns, full.total_wait_ns);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank_samples() {
        let mut d = WaitDist::default();
        for _ in 0..99 {
            d.observe(1_000);
        }
        d.observe(1_000_000);
        assert_eq!(d.percentile_ns(0.50), 1_000);
        assert_eq!(d.percentile_ns(0.99), 1_000, "rank 99 of 100 is still the low sample");
        assert_eq!(d.percentile_ns(1.0), 1_000_000);
        assert_eq!(d.max(), 1_000_000);
        assert_eq!(WaitDist::default().percentile_ns(0.5), 0);
    }

    /// Property, over seeded random sample sets: the selection equals the
    /// nearest rank read off a sorted copy, whatever the order of queries.
    #[test]
    fn percentile_equals_sorted_nearest_rank() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for case in 0..500 {
            let n = (next() % 64) as usize;
            // Small ranges give ties, large ones distinct values.
            let range = if case % 2 == 0 { 8 } else { 1 << 40 };
            let mut d = WaitDist::default();
            (0..n).for_each(|_| d.observe(next() % range));
            let mut sorted = d.samples.clone();
            sorted.sort_unstable();
            for q in [0.99, 0.0, 0.5, 0.25, 1.0, 0.9, (next() % 1001) as f64 / 1000.0] {
                let want = if n == 0 { 0 } else { sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1] };
                assert_eq!(d.percentile_ns(q), want, "case {case}: q {q} over {sorted:?}");
            }
        }
    }

    #[test]
    fn report_json_validates_and_renders() {
        let report = analyze(&merged_doc(), 10);
        let doc = report.to_json();
        validate_report(&doc).unwrap();
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        validate_report(&reparsed).unwrap();
        let table = report.render_table();
        assert!(table.contains("node0"));
        assert!(table.contains("request_to_grant"));
        // A broken document is rejected.
        let mut bad = doc;
        if let Json::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "stages");
        }
        assert!(validate_report(&bad).is_err());
    }
}
