//! The `orwl-lab/v1` side of the `artifact_diff` tool (`cargo run -p
//! orwl-bench --bin artifact_diff`): the flattening of a sweep artifact
//! into the keyed rows `orwl_obs::diff::diff_rows` compares.
//!
//! Rows are matched by their identity key (section, scenario, backend,
//! topology, nodes, oversubscription, policy, mode); the numeric metric
//! columns of matched rows are compared within a relative tolerance.
//! Missing or extra rows and metric drift beyond tolerance are reported as
//! [`DiffEntry`]s — an empty report means the artifacts agree.
//!
//! The primary uses are sanity-checking the parallel sweep against a
//! sequential run (tolerance `0` — the artifacts must agree exactly) and
//! comparing benchmark artifacts across machines or branches with a
//! tolerance that absorbs simulator cost-model tweaks.

use crate::report::SchemaError;
use orwl_core::json::Json;
use orwl_obs::diff::{diff_rows, Row};

/// One disagreement between two artifacts.
pub(crate) use orwl_obs::diff::RowDiff as DiffEntry;

/// The numeric metric columns compared per matched row.  Key columns and
/// non-schema extras (e.g. `placement_wall_seconds`, machine-dependent by
/// design) are excluded.
const METRIC_FIELDS: &[&str] = &[
    "tasks",
    "hop_bytes",
    "sim_seconds",
    "local_fraction",
    "inter_node_hop_bytes",
    "inter_node_fraction",
    "adapt_epochs",
    "adapt_replacements",
    "adapt_node_reshards",
    "vs_scatter",
    "vs_flat_treematch",
];

/// The columns identifying a row across artifacts.
const KEY_FIELDS: &[&str] =
    &["section", "scenario", "backend", "topology", "nodes", "oversubscription", "policy", "mode"];

fn row_key(row: &Json) -> String {
    let mut parts = Vec::with_capacity(KEY_FIELDS.len());
    for field in KEY_FIELDS {
        let v = row.get(field);
        parts.push(match v {
            Some(Json::Null) | None => "-".to_string(),
            Some(v) => v.as_str().map_or_else(|| v.to_string(), str::to_string),
        });
    }
    parts.join("/")
}

/// The `orwl-lab/v1` flattener: one [`Row`] per sweep row, keyed by its
/// identity columns, holding its metric columns.
fn rows_of(doc: &Json, which: &str) -> Result<Vec<Row>, SchemaError> {
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or(SchemaError {
        path: format!("{which}.rows"),
        message: "expected a rows array (is this an orwl-lab/v1 document?)".to_string(),
    })?;
    Ok(rows
        .iter()
        .map(|row| Row {
            key: row_key(row),
            fields: METRIC_FIELDS
                .iter()
                .map(|&field| (field.to_string(), row.get(field).and_then(Json::as_f64)))
                .collect(),
        })
        .collect())
}

/// Compares two **schema-valid** `orwl-lab/v1` documents row by row.
/// Returns the disagreements (empty = agreement within `tol_ratio`), or a
/// [`SchemaError`] when a document is not the expected shape — run
/// [`crate::report::validate`] first for a precise report.
pub fn diff_documents(first: &Json, second: &Json, tol_ratio: f64) -> Result<Vec<DiffEntry>, SchemaError> {
    Ok(diff_rows(&rows_of(first, "first")?, &rows_of(second, "second")?, tol_ratio))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::sweep_to_json;
    use crate::scenario::{ScenarioFamily, ScenarioSpec};
    use crate::sweep::{run_sweep, BackendSpec, ModeKind, SweepConfig, SweepSection};
    use orwl_treematch::policies::Policy;

    fn doc(seed: u64) -> Json {
        sweep_to_json(
            &run_sweep(&SweepConfig {
                seed,
                epoch_iterations: 4,
                thread_iterations: 1,
                sections: vec![SweepSection {
                    label: "diff",
                    scenarios: vec![ScenarioSpec::new(ScenarioFamily::Hotspot, 12, seed)],
                    backends: vec![BackendSpec::NumaSim { sockets: 2 }],
                    policies: vec![Policy::TreeMatch],
                    modes: vec![ModeKind::Static],
                }],
            })
            .unwrap(),
        )
    }

    #[test]
    fn identical_documents_have_no_diff() {
        let a = doc(7);
        assert_eq!(diff_documents(&a, &a, 0.0).unwrap(), Vec::new());
        // Round-tripping through text changes nothing either.
        let b = Json::parse(&a.pretty()).unwrap();
        assert_eq!(diff_documents(&a, &b, 0.0).unwrap(), Vec::new());
    }

    #[test]
    fn metric_drift_is_reported_and_tolerance_absorbs_it() {
        let a = doc(7);
        let mut b = Json::parse(&a.pretty()).unwrap();
        // Nudge one hop_bytes value by 0.5%.
        if let Json::Obj(pairs) = &mut b {
            if let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(k, _)| k == "rows") {
                if let Json::Obj(row) = &mut rows[0] {
                    for (k, v) in row.iter_mut() {
                        if k == "hop_bytes" {
                            let x = v.as_f64().unwrap();
                            *v = Json::Num(x * 1.005);
                        }
                    }
                }
            }
        }
        let drift = diff_documents(&a, &b, 0.0).unwrap();
        assert_eq!(drift.len(), 1);
        match &drift[0] {
            DiffEntry::MetricDrift { field, relative, .. } => {
                assert_eq!(field, "hop_bytes");
                assert!(*relative > 0.004 && *relative < 0.006);
                // The rendering names the field and both values.
                assert!(drift[0].to_string().contains("hop_bytes"));
            }
            other => panic!("expected MetricDrift, got {other:?}"),
        }
        // 1% tolerance absorbs the nudge.
        assert_eq!(diff_documents(&a, &b, 0.01).unwrap(), Vec::new());
    }

    #[test]
    fn missing_and_extra_rows_are_reported() {
        let a = doc(7);
        let mut b = Json::parse(&a.pretty()).unwrap();
        if let Json::Obj(pairs) = &mut b {
            if let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(k, _)| k == "rows") {
                rows.remove(0);
            }
        }
        let drift = diff_documents(&a, &b, 0.0).unwrap();
        assert_eq!(drift.len(), 1);
        assert!(matches!(&drift[0], DiffEntry::OnlyInFirst { .. }));
        let reverse = diff_documents(&b, &a, 0.0).unwrap();
        assert!(matches!(&reverse[0], DiffEntry::OnlyInSecond { .. }));
    }

    #[test]
    fn null_vs_number_is_infinite_drift() {
        let a = doc(7);
        let mut b = Json::parse(&a.pretty()).unwrap();
        if let Json::Obj(pairs) = &mut b {
            if let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(k, _)| k == "rows") {
                if let Json::Obj(row) = &mut rows[0] {
                    for (k, v) in row.iter_mut() {
                        if k == "sim_seconds" {
                            *v = Json::Null;
                        }
                    }
                }
            }
        }
        let drift = diff_documents(&a, &b, 1.0e9).unwrap();
        assert!(matches!(
            &drift[0],
            DiffEntry::MetricDrift { field, relative, .. } if field == "sim_seconds" && relative.is_infinite()
        ));
    }

    #[test]
    fn non_lab_documents_are_a_typed_error() {
        let junk = Json::parse("{\"hello\": 1}").unwrap();
        let err = diff_documents(&junk, &doc(7), 0.0).unwrap_err();
        assert!(err.path.contains("first"));
    }
}
