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
//! Every column is a pure function of the matrices and the placement, so
//! the regenerated document must match the committed one byte for byte.
//! It carries no wall clock: the benchmark's proc workloads time the
//! backend, with a spread.

use orwl_obs::json::Json;

/// Schema identifier of the correlation artifact.
pub(crate) const CORR_SCHEMA: &str = "orwl-proc-corr/v2";

/// Maximum relative |measured − predicted| / max(predicted, 1) any row may
/// show.  Covers the one deliberate divergence between the two pipelines:
/// grant payloads are whole bytes, predictions are exact `f64` sums.
pub const CORR_TOLERANCE: f64 = 0.02;

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
        row
    }
}

/// Builds the full artifact document from its rows.
#[must_use]
pub fn corr_document(rows: &[CorrRow]) -> Json {
    let mut doc = Json::obj();
    doc.push("schema", CORR_SCHEMA);
    doc.push("tolerance", CORR_TOLERANCE);
    doc.push("rows", Json::Arr(rows.iter().map(CorrRow::to_json).collect()));
    doc
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
    fn zero_predicted_rows_use_the_absolute_floor() {
        // Scatter on a colocatable pattern can predict 0; a few bytes of
        // measured noise must not divide by zero.
        let r = row(0.0, 0.01);
        assert!(r.relative_error() <= CORR_TOLERANCE);
    }
}
