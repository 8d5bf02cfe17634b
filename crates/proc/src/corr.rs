//! The sim-vs-real correlation artifact: schema, rows and validation.
//!
//! The committed `BENCH_proc_corr.json` pins, for every lab scenario
//! family × placement policy, the cluster simulator's *predicted*
//! inter-node byte count against the multi-process backend's *measured*
//! one (grant payload bytes crossing the fabric).  Both backends shard
//! tasks over nodes through the same
//! [`policy_placement`](orwl_cluster::policy_placement), so the two
//! figures must agree up to payload rounding — the artifact regenerating
//! with every row inside [`CORR_TOLERANCE`] is the acceptance gate of the
//! backend.  Generation lives in `orwl_bench` (it needs the lab scenario
//! catalog); this module owns the schema so workers of both sides agree.
//!
//! Every byte figure is a pure function of the matrices and the
//! placement, so the regenerated document must match the committed one
//! byte for byte — except the [`CORR_NONDETERMINISTIC`] columns
//! (`wall_seconds`, the median wall clock of the measured runs), which
//! the document itself declares and [`deterministic_view`] strips before
//! the comparison.

use orwl_obs::json::Json;

/// Schema identifier of the correlation artifact.
pub(crate) const CORR_SCHEMA: &str = "orwl-proc-corr/v1";

/// Maximum relative |measured − predicted| / max(predicted, 1) any row may
/// show.  Covers the one deliberate divergence between the two pipelines:
/// grant payloads are whole bytes, predictions are exact `f64` sums.
pub const CORR_TOLERANCE: f64 = 0.02;

/// Row fields whose values legitimately vary run to run (wall-clock
/// timing).  The document lists them under `nondeterministic` and the
/// byte-comparison gate strips them via [`deterministic_view`].
pub(crate) const CORR_NONDETERMINISTIC: &[&str] = &["wall_seconds"];

/// One (scenario, policy) correlation row.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrRow {
    /// Scenario label (`{family}-t{tasks}-s{seed}`).
    pub scenario: String,
    /// Placement policy name.
    pub policy: String,
    /// Nodes in the run.
    pub n_nodes: usize,
    /// Tasks in the run.
    pub tasks: usize,
    /// The cluster simulator's predicted inter-node bytes.
    pub predicted_inter_node_bytes: f64,
    /// The multi-process backend's measured inter-node bytes.
    pub measured_inter_node_bytes: f64,
    /// Median wall-clock seconds across the measured backend's repeats.
    /// The one timing-dependent column: declared nondeterministic in the
    /// document and excluded from the byte-identity gate.
    pub wall_seconds: f64,
}

impl CorrRow {
    /// Relative deviation of measured from predicted.
    #[must_use]
    pub(crate) fn relative_error(&self) -> f64 {
        (self.measured_inter_node_bytes - self.predicted_inter_node_bytes).abs()
            / self.predicted_inter_node_bytes.max(1.0)
    }

    fn to_json(&self) -> Json {
        let mut row = Json::obj();
        row.push("scenario", self.scenario.as_str());
        row.push("policy", self.policy.as_str());
        row.push("n_nodes", self.n_nodes);
        row.push("tasks", self.tasks);
        row.push("predicted_inter_node_bytes", self.predicted_inter_node_bytes);
        row.push("measured_inter_node_bytes", self.measured_inter_node_bytes);
        row.push("relative_error", self.relative_error());
        row.push("wall_seconds", self.wall_seconds);
        row
    }
}

/// Builds the full artifact document from its rows.
#[must_use]
pub fn corr_document(rows: &[CorrRow]) -> Json {
    let mut doc = Json::obj();
    doc.push("schema", CORR_SCHEMA);
    doc.push("tolerance", CORR_TOLERANCE);
    doc.push(
        "nondeterministic",
        Json::Arr(CORR_NONDETERMINISTIC.iter().map(|f| Json::Str((*f).to_string())).collect()),
    );
    doc.push("rows", Json::Arr(rows.iter().map(CorrRow::to_json).collect()));
    doc
}

/// The document with every field the document itself declares
/// nondeterministic stripped from every row.  Two captures of the same
/// battery must agree on this view byte for byte; `wall_seconds` may
/// differ.
#[must_use]
pub fn deterministic_view(doc: &Json) -> Json {
    let strip: Vec<String> = doc
        .get("nondeterministic")
        .and_then(Json::as_arr)
        .map(|fields| fields.iter().filter_map(|f| f.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    let mut view = doc.clone();
    if let Json::Obj(pairs) = &mut view {
        if let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(key, _)| key == "rows") {
            for row in rows {
                if let Json::Obj(fields) = row {
                    fields.retain(|(key, _)| !strip.iter().any(|s| s == key));
                }
            }
        }
    }
    view
}

/// Validates an artifact document: schema, row structure, and every row
/// inside the documented tolerance.  This is what CI runs against the
/// committed artifact.
pub fn validate_corr(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing schema field")?;
    if schema != CORR_SCHEMA {
        return Err(format!("schema is {schema:?}, expected {CORR_SCHEMA:?}"));
    }
    let tolerance = doc.get("tolerance").and_then(Json::as_f64).ok_or("missing numeric tolerance")?;
    let declared: Vec<&str> = doc
        .get("nondeterministic")
        .and_then(Json::as_arr)
        .ok_or("missing nondeterministic array")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    if declared != CORR_NONDETERMINISTIC {
        return Err(format!("nondeterministic columns are {declared:?}, expected {CORR_NONDETERMINISTIC:?}"));
    }
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("missing rows array")?;
    if rows.is_empty() {
        return Err("rows array is empty".to_string());
    }
    for (k, row) in rows.iter().enumerate() {
        for field in ["scenario", "policy"] {
            if row.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("row {k}: missing string field {field:?}"));
            }
        }
        for field in
            ["n_nodes", "tasks", "predicted_inter_node_bytes", "measured_inter_node_bytes", "relative_error"]
        {
            let Some(value) = row.get(field).and_then(Json::as_f64) else {
                return Err(format!("row {k}: missing numeric field {field:?}"));
            };
            if !value.is_finite() || value < 0.0 {
                return Err(format!("row {k}: field {field:?} is {value}, not a valid magnitude"));
            }
        }
        match row.get("wall_seconds").and_then(Json::as_f64) {
            Some(wall) if wall.is_finite() && wall > 0.0 => {}
            Some(wall) => {
                return Err(format!("row {k}: wall_seconds is {wall}, expected a positive duration"));
            }
            None => return Err(format!("row {k}: missing numeric field \"wall_seconds\"")),
        }
        let relative = row.get("relative_error").and_then(Json::as_f64).unwrap_or(f64::INFINITY);
        if relative > tolerance {
            let scenario = row.get("scenario").and_then(Json::as_str).unwrap_or("?");
            let policy = row.get("policy").and_then(Json::as_str).unwrap_or("?");
            return Err(format!(
                "row {k} ({scenario}, {policy}): relative error {relative} exceeds tolerance {tolerance}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(predicted: f64, measured: f64) -> CorrRow {
        CorrRow {
            scenario: "dense-stencil-t36-s1".to_string(),
            policy: "hierarchical".to_string(),
            n_nodes: 2,
            tasks: 36,
            predicted_inter_node_bytes: predicted,
            measured_inter_node_bytes: measured,
            wall_seconds: 0.125,
        }
    }

    #[test]
    fn document_roundtrips_through_text_and_validates() {
        let doc = corr_document(&[row(100_000.0, 100_100.0), row(0.0, 0.0)]);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        validate_corr(&parsed).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn out_of_tolerance_rows_fail_validation() {
        let doc = corr_document(&[row(100_000.0, 140_000.0)]);
        let err = validate_corr(&doc).unwrap_err();
        assert!(err.contains("exceeds tolerance"), "{err}");
    }

    #[test]
    fn structural_defects_are_reported() {
        assert!(validate_corr(&Json::obj()).unwrap_err().contains("schema"));
        let empty = corr_document(&[]);
        assert!(validate_corr(&empty).unwrap_err().contains("empty"));
        let mut doc = corr_document(&[row(1.0, 1.0)]);
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::Str("bogus/v0".to_string());
        }
        assert!(validate_corr(&doc).unwrap_err().contains("expected"));
    }

    #[test]
    fn wall_seconds_must_be_a_positive_duration() {
        let mut bad = row(1.0, 1.0);
        bad.wall_seconds = 0.0;
        let err = validate_corr(&corr_document(&[bad])).unwrap_err();
        assert!(err.contains("wall_seconds"), "{err}");
        let mut doc = corr_document(&[row(1.0, 1.0)]);
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(key, _)| key != "nondeterministic");
        }
        assert!(validate_corr(&doc).unwrap_err().contains("nondeterministic"));
    }

    #[test]
    fn deterministic_view_strips_only_the_declared_columns() {
        let mut fast = row(100_000.0, 100_100.0);
        let mut slow = fast.clone();
        fast.wall_seconds = 0.050;
        slow.wall_seconds = 1.700;
        let (fast_doc, slow_doc) = (corr_document(&[fast]), corr_document(&[slow]));
        assert_ne!(fast_doc.pretty(), slow_doc.pretty());
        let view = deterministic_view(&fast_doc);
        assert_eq!(view.pretty(), deterministic_view(&slow_doc).pretty());
        let rows = view.get("rows").and_then(Json::as_arr).unwrap();
        assert!(rows[0].get("wall_seconds").is_none(), "the timing column must be stripped");
        assert!(rows[0].get("measured_inter_node_bytes").is_some(), "byte columns must survive");
    }

    #[test]
    fn zero_predicted_rows_use_the_absolute_floor() {
        // Scatter on a colocatable pattern can predict 0; a few bytes of
        // measured noise must not divide by zero.
        let r = row(0.0, 0.01);
        assert!(r.relative_error() <= CORR_TOLERANCE);
    }
}
