//! Tolerant comparison of two JSON artifacts — the library behind the
//! `artifact_diff` tool (`cargo run -p orwl-bench --bin artifact_diff`).
//!
//! Every artifact schema diffs the same way: a flattening function turns
//! a document into [`Row`]s of named numbers, and [`diff_rows`] matches
//! rows by key and compares their numbers within a relative tolerance.
//! This module holds that one comparison core plus the flattener for
//! `orwl-obs/v1` telemetry ([`diff_telemetry`]); `orwl_lab::diff` holds
//! the flattener for `orwl-lab/v1` sweep artifacts.
//!
//! Telemetry is inherently noisier than a sweep artifact (timestamps,
//! wall-clock durations, thread interleavings), so the diff deliberately
//! compares only the *stable* surface of a document: the identity fields
//! (`backend`, `clock`), the per-kind event counts, the drop counter, and
//! every metric instrument (counter values, gauge values, histogram
//! count/sum).  Event timestamps and orderings are never compared.
//!
//! A number present on one side but null or absent on the other is an
//! infinite drift.  An empty report means agreement.

use crate::export::validate_obs;
use crate::json::Json;

/// One disagreement between two telemetry documents.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsDiffEntry {
    /// An identity field (`backend`, `clock`, or the `tracks` table of a
    /// merged document) differs — the documents do not describe comparable
    /// runs.
    FieldMismatch {
        /// The differing field.
        field: &'static str,
        /// Value in the first document.
        first: String,
        /// Value in the second document.
        second: String,
    },
    /// A stable numeric field drifted beyond the tolerance.
    MetricDrift {
        /// The drifted field (`dropped`, `events.<kind>`,
        /// `counters.<name>`, `gauges.<name>`, `histograms.<name>.count`
        /// or `histograms.<name>.sum`).
        field: String,
        /// Value in the first document (`None` = absent).
        first: Option<f64>,
        /// Value in the second document.
        second: Option<f64>,
        /// The relative difference that exceeded the tolerance.
        relative: f64,
    },
}

impl std::fmt::Display for ObsDiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsDiffEntry::FieldMismatch { field, first, second } => {
                write!(f, "{field} mismatch: {first:?} vs {second:?}")
            }
            ObsDiffEntry::MetricDrift { field, first, second, relative } => {
                let show = |v: &Option<f64>| v.map_or("absent".to_string(), |x| format!("{x}"));
                write!(f, "{field} drifted {:.3}% ({} vs {})", 100.0 * relative, show(first), show(second))
            }
        }
    }
}

/// One row of a flattened document: an identity key plus its named
/// numbers (`None` = JSON null).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What identifies the row across documents.
    pub key: String,
    /// The row's comparable numbers.
    pub fields: Vec<(String, Option<f64>)>,
}

/// One disagreement between two flattened documents.
#[derive(Debug, Clone, PartialEq)]
pub enum RowDiff {
    /// A row of the first document has no counterpart in the second.
    OnlyInFirst {
        /// The row's identity key.
        key: String,
    },
    /// A row of the second document has no counterpart in the first.
    OnlyInSecond {
        /// The row's identity key.
        key: String,
    },
    /// A number of a matched row drifted beyond the tolerance.
    MetricDrift {
        /// The row's identity key.
        key: String,
        /// The drifted field.
        field: String,
        /// Value in the first document (`None` = null or absent).
        first: Option<f64>,
        /// Value in the second document.
        second: Option<f64>,
        /// The relative difference that exceeded the tolerance.
        relative: f64,
    },
}

impl std::fmt::Display for RowDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowDiff::OnlyInFirst { key } => write!(f, "only in first:  {key}"),
            RowDiff::OnlyInSecond { key } => write!(f, "only in second: {key}"),
            RowDiff::MetricDrift { key, field, first, second, relative } => {
                let show = |v: &Option<f64>| v.map_or("null".to_string(), |x| format!("{x}"));
                write!(
                    f,
                    "{key}: {field} drifted {:.3}% ({} vs {})",
                    100.0 * relative,
                    show(first),
                    show(second)
                )
            }
        }
    }
}

/// The relative difference used by the tolerance test: `|a − b|` scaled by
/// the larger magnitude (`0` when both are zero).
fn relative_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Compares two flattened documents: rows are matched by key (duplicate
/// keys keep their first occurrence), and every field either matched row
/// names is compared within `tol_ratio`.  Null or absent on both sides
/// agrees; on one side only it is an infinite drift.
#[must_use]
pub fn diff_rows(first: &[Row], second: &[Row], tol_ratio: f64) -> Vec<RowDiff> {
    let find = |row: &Row, field: &str| row.fields.iter().find(|(f, _)| f == field).map(|(_, v)| *v);
    let mut entries = Vec::new();
    let mut matched = vec![false; second.len()];
    for row in first {
        let Some(pos) = second.iter().position(|other| other.key == row.key) else {
            entries.push(RowDiff::OnlyInFirst { key: row.key.clone() });
            continue;
        };
        matched[pos] = true;
        let other = &second[pos];
        let shared = row.fields.iter().map(|(field, a)| (field, *a, find(other, field).flatten()));
        let second_only =
            other.fields.iter().filter(|(f, _)| find(row, f).is_none()).map(|(f, b)| (f, None, *b));
        for (field, a, b) in shared.chain(second_only) {
            let relative = match (a, b) {
                (None, None) => continue,
                (Some(x), Some(y)) => relative_diff(x, y),
                _ => f64::INFINITY,
            };
            if relative > tol_ratio {
                entries.push(RowDiff::MetricDrift {
                    key: row.key.clone(),
                    field: field.clone(),
                    first: a,
                    second: b,
                    relative,
                });
            }
        }
    }
    for (row, _) in second.iter().zip(&matched).filter(|(_, &m)| !m) {
        entries.push(RowDiff::OnlyInSecond { key: row.key.clone() });
    }
    entries
}

/// The `orwl-obs/v1` flattener: the stable numeric surface of one
/// document as a single row of sorted `(field, value)` pairs.
fn numeric_fields(doc: &Json) -> Row {
    let mut fields: Vec<(String, f64)> = Vec::new();
    if let Some(dropped) = doc.get("dropped").and_then(Json::as_f64) {
        fields.push(("dropped".to_string(), dropped));
    }
    if let Some(events) = doc.get("events").and_then(Json::as_arr) {
        for ev in events {
            let Some(kind) = ev.get("kind").and_then(Json::as_str) else { continue };
            // Merged multi-node documents tag events with a track id; key
            // them per track so "node0 did the waiting" vs "node1 did the
            // waiting" is a drift, not agreement.  Track 0 (or absent, for
            // pre-merge documents) keeps the bare key, so single-process
            // artifacts diff exactly as before.
            let track = ev.get("track").and_then(Json::as_f64).unwrap_or(0.0);
            let field =
                if track == 0.0 { format!("events.{kind}") } else { format!("events.track{track}.{kind}") };
            match fields.iter_mut().find(|(f, _)| *f == field) {
                Some((_, n)) => *n += 1.0,
                None => fields.push((field, 1.0)),
            }
        }
    }
    let metrics = doc.get("metrics");
    let table = |name: &str| -> Vec<(String, Json)> {
        match metrics.and_then(|m| m.get(name)) {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        }
    };
    for (name, v) in table("counters") {
        if let Some(x) = v.as_f64() {
            fields.push((format!("counters.{name}"), x));
        }
    }
    for (name, v) in table("gauges") {
        if let Some(x) = v.as_f64() {
            fields.push((format!("gauges.{name}"), x));
        }
    }
    for (name, v) in table("histograms") {
        if let Some(count) = v.get("count").and_then(Json::as_f64) {
            fields.push((format!("histograms.{name}.count"), count));
        }
        if let Some(sum) = v.get("sum").and_then(Json::as_f64) {
            fields.push((format!("histograms.{name}.sum"), sum));
        }
    }
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    Row { key: String::new(), fields: fields.into_iter().map(|(f, v)| (f, Some(v))).collect() }
}

/// Compares two `orwl-obs/v1` documents (validated with
/// [`validate_obs`] first, so the shape errors are precise).  Returns the
/// disagreements — empty means the documents agree within `tol_ratio`.
pub fn diff_telemetry(first: &Json, second: &Json, tol_ratio: f64) -> Result<Vec<ObsDiffEntry>, String> {
    validate_obs(first).map_err(|e| format!("first document: {e}"))?;
    validate_obs(second).map_err(|e| format!("second document: {e}"))?;

    let mut entries = Vec::new();
    for field in ["backend", "clock"] {
        let a = first.get(field).and_then(Json::as_str).unwrap_or_default();
        let b = second.get(field).and_then(Json::as_str).unwrap_or_default();
        if a != b {
            entries.push(ObsDiffEntry::FieldMismatch {
                field: if field == "backend" { "backend" } else { "clock" },
                first: a.to_string(),
                second: b.to_string(),
            });
        }
    }

    // The track table is identity, too: two merged documents with
    // different process sets are not comparable runs.
    let track_list = |doc: &Json| -> String {
        doc.get("tracks")
            .and_then(Json::as_arr)
            .map(|tracks| {
                tracks
                    .iter()
                    .filter_map(|t| {
                        let id = t.get("track").and_then(Json::as_f64)?;
                        let label = t.get("label").and_then(Json::as_str)?;
                        Some(format!("{id}:{label}"))
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default()
    };
    let (a, b) = (track_list(first), track_list(second));
    if a != b {
        entries.push(ObsDiffEntry::FieldMismatch { field: "tracks", first: a, second: b });
    }

    for entry in diff_rows(&[numeric_fields(first)], &[numeric_fields(second)], tol_ratio) {
        // Both documents flatten to the one row, so it always matches.
        if let RowDiff::MetricDrift { field, first, second, relative, .. } = entry {
            entries.push(ObsDiffEntry::MetricDrift { field, first, second, relative });
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ClockKind, EventKind};
    use crate::json::ToJson;
    use crate::{ObsConfig, Recorder};

    fn doc(epochs: u64, bytes: f64) -> Json {
        let rec = Recorder::new(ClockKind::Simulated, ObsConfig::default());
        for epoch in 1..=epochs {
            rec.set_sim_now(epoch as f64);
            rec.record(EventKind::Epoch { epoch, bytes });
        }
        rec.finish("sim").to_json()
    }

    #[test]
    fn identical_documents_agree_exactly() {
        let a = doc(3, 512.0);
        assert_eq!(diff_telemetry(&a, &a, 0.0).unwrap(), Vec::new());
        let b = Json::parse(&a.pretty()).unwrap();
        assert_eq!(diff_telemetry(&a, &b, 0.0).unwrap(), Vec::new());
    }

    #[test]
    fn timestamps_are_not_compared() {
        // Same events at different simulated times: still agreement.
        let rec = Recorder::new(ClockKind::Simulated, ObsConfig::default());
        rec.set_sim_now(40.0);
        rec.record(EventKind::Epoch { epoch: 1, bytes: 512.0 });
        let shifted = rec.finish("sim").to_json();
        assert_eq!(diff_telemetry(&doc(1, 512.0), &shifted, 0.0).unwrap(), Vec::new());
    }

    #[test]
    fn event_count_and_metric_drift_are_reported() {
        let a = doc(3, 512.0);
        let b = doc(4, 512.0);
        let drift = diff_telemetry(&a, &b, 0.0).unwrap();
        assert!(!drift.is_empty());
        assert!(drift.iter().any(|e| matches!(
            e,
            ObsDiffEntry::MetricDrift { field, .. } if field == "events.epoch"
        )));
        assert!(drift.iter().any(|e| matches!(
            e,
            ObsDiffEntry::MetricDrift { field, .. } if field == "counters.epochs"
        )));
        // A generous tolerance absorbs the 3-vs-4 difference.
        assert_eq!(diff_telemetry(&a, &b, 0.5).unwrap(), Vec::new());
        // The rendering names the field and both values.
        let text = drift[0].to_string();
        assert!(text.contains("events.epoch") || text.contains("counters"));
    }

    #[test]
    fn absent_fields_are_infinite_drift() {
        let a = doc(2, 512.0); // has the epoch_bytes histogram
        let b = doc(2, 0.0); // zero bytes: the histogram never appears
        let drift = diff_telemetry(&a, &b, 1.0e9).unwrap();
        assert!(drift.iter().any(|e| matches!(
            e,
            ObsDiffEntry::MetricDrift { field, second: None, relative, .. }
                if field == "histograms.epoch_bytes.count" && relative.is_infinite()
        )));
    }

    #[test]
    fn backend_and_clock_mismatches_are_identity_errors() {
        let rec = Recorder::new(ClockKind::Wall, ObsConfig::default());
        rec.record(EventKind::Epoch { epoch: 1, bytes: 512.0 });
        let wall = rec.finish("threads").to_json();
        let drift = diff_telemetry(&doc(1, 512.0), &wall, 1.0e9).unwrap();
        assert!(drift.iter().any(|e| matches!(e, ObsDiffEntry::FieldMismatch { field: "backend", .. })));
        assert!(drift.iter().any(|e| matches!(e, ObsDiffEntry::FieldMismatch { field: "clock", .. })));
    }

    #[test]
    fn merged_documents_key_events_by_track() {
        use crate::metrics::MetricsSnapshot;
        use crate::{ObsEvent, RunTelemetry, TrackInfo};
        let merged = |grant_track: u32| -> Json {
            RunTelemetry {
                backend: "proc".to_string(),
                clock: ClockKind::Wall,
                events: vec![ObsEvent {
                    ts_us: 1.0,
                    dur_us: 0.0,
                    seq: 0,
                    tid: 0,
                    track: grant_track,
                    kind: EventKind::LockWait { location: 3, wait_ns: 500 },
                }],
                dropped: 0,
                metrics: MetricsSnapshot::default(),
                tracks: vec![
                    TrackInfo { track: 1, label: "node0".to_string() },
                    TrackInfo { track: 2, label: "node1".to_string() },
                ],
            }
            .to_json()
        };
        // Same event on the same track: agreement.
        assert_eq!(diff_telemetry(&merged(1), &merged(1), 0.0).unwrap(), Vec::new());
        // Same event, different track: two infinite drifts, keyed by track.
        let drift = diff_telemetry(&merged(1), &merged(2), 1.0e9).unwrap();
        assert!(drift.iter().any(|e| matches!(
            e,
            ObsDiffEntry::MetricDrift { field, second: None, .. } if field == "events.track1.lock_wait"
        )));
        assert!(drift.iter().any(|e| matches!(
            e,
            ObsDiffEntry::MetricDrift { field, first: None, .. } if field == "events.track2.lock_wait"
        )));
    }

    #[test]
    fn differing_track_tables_are_identity_errors() {
        use crate::metrics::MetricsSnapshot;
        use crate::{RunTelemetry, TrackInfo};
        let with_tracks = |n: u32| -> Json {
            RunTelemetry {
                backend: "proc".to_string(),
                clock: ClockKind::Wall,
                events: Vec::new(),
                dropped: 0,
                metrics: MetricsSnapshot::default(),
                tracks: (0..n).map(|t| TrackInfo { track: t, label: format!("t{t}") }).collect(),
            }
            .to_json()
        };
        assert_eq!(diff_telemetry(&with_tracks(3), &with_tracks(3), 0.0).unwrap(), Vec::new());
        let drift = diff_telemetry(&with_tracks(3), &with_tracks(2), 0.0).unwrap();
        assert!(drift.iter().any(|e| matches!(e, ObsDiffEntry::FieldMismatch { field: "tracks", .. })));
    }

    #[test]
    fn invalid_documents_are_a_typed_error() {
        let junk = Json::parse("{\"hello\": 1}").unwrap();
        let err = diff_telemetry(&junk, &doc(1, 1.0), 0.0).unwrap_err();
        assert!(err.contains("first document"));
    }
}
