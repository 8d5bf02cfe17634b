//! `artifact_diff` — compare two JSON artifacts within tolerances.  The
//! document's `schema` string picks what is compared:
//!
//! * `orwl-lab/v1` sweep artifacts are matched row by row on their
//!   identity key, and the metric columns of matched rows compared (see
//!   `orwl_lab::diff`);
//! * `orwl-obs/v1` telemetry captures are compared on their stable
//!   surface only — identity fields, per-kind event counts, metric
//!   instruments (see `orwl_obs::diff`) — so two runs of the same
//!   deterministic sweep agree exactly while wall-clock noise never trips
//!   the gate.
//!
//! ```sh
//! cargo run -p orwl-bench --bin artifact_diff -- A.json B.json                 # exact match
//! cargo run -p orwl-bench --bin artifact_diff -- A.json B.json --tol-ratio 0.01
//! cargo run -p orwl-bench --bin artifact_diff -- obs_run_a/ obs_run_b/ --tol-ratio 0.05
//! ```
//!
//! Two directories (as written by `--obs-dir`) are paired by `*.obs.json`
//! filename; a capture present on one side only is drift.
//!
//! Exit status: `0` when every pair agrees within the tolerance, `1` on
//! any drift (missing/extra rows or numbers beyond tolerance), `2` on
//! usage, parse or schema errors — so CI can diff two runs the same way it
//! `cmp`s byte-identical ones, but with headroom for cost-model changes.

use orwl_obs::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: artifact_diff A(.json|dir) B(.json|dir) [--tol-ratio F]";

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `*.obs.json` captures of one directory, keyed by filename.
fn captures(dir: &Path) -> Result<BTreeSet<String>, String> {
    let mut names = BTreeSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".obs.json") {
            names.insert(name);
        }
    }
    Ok(names)
}

/// Diffs one document pair with the differ its schema names; prints the
/// disagreements and returns how many there were.
fn diff_pair(label: &str, a: &Path, b: &Path, tol_ratio: f64) -> Result<usize, String> {
    let (first, second) = (load(a)?, load(b)?);
    let schema = |doc: &Json| doc.get("schema").and_then(Json::as_str).unwrap_or("<none>").to_string();
    let entries: Vec<String> = match (schema(&first).as_str(), schema(&second).as_str()) {
        (orwl_lab::SCHEMA_VERSION, orwl_lab::SCHEMA_VERSION) => {
            orwl_lab::validate(&first).map_err(|e| format!("{}: {e}", a.display()))?;
            orwl_lab::validate(&second).map_err(|e| format!("{}: {e}", b.display()))?;
            let entries = orwl_lab::diff_documents(&first, &second, tol_ratio).map_err(|e| e.to_string())?;
            entries.iter().map(ToString::to_string).collect()
        }
        (orwl_obs::export::OBS_SCHEMA, orwl_obs::export::OBS_SCHEMA) => {
            let entries = orwl_obs::diff::diff_telemetry(&first, &second, tol_ratio)?;
            entries.iter().map(ToString::to_string).collect()
        }
        (x, y) => return Err(format!("no differ for schemas {x:?} and {y:?}")),
    };
    for entry in &entries {
        eprintln!("  {label}: {entry}");
    }
    Ok(entries.len())
}

fn run(first: &Path, second: &Path, tol_ratio: f64) -> Result<usize, String> {
    if first.is_dir() != second.is_dir() {
        return Err("cannot compare a directory with a single document".to_string());
    }
    if !first.is_dir() {
        return diff_pair(&first.display().to_string(), first, second, tol_ratio);
    }
    let (a, b) = (captures(first)?, captures(second)?);
    let mut drift = 0usize;
    for missing in b.difference(&a) {
        eprintln!("  {missing}: only in {}", second.display());
        drift += 1;
    }
    for name in &a {
        if !b.contains(name) {
            eprintln!("  {name}: only in {}", first.display());
            drift += 1;
            continue;
        }
        drift += diff_pair(name, &first.join(name), &second.join(name), tol_ratio)?;
    }
    if a.is_empty() && b.is_empty() {
        return Err(format!("no *.obs.json captures under {} or {}", first.display(), second.display()));
    }
    Ok(drift)
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut tol_ratio = 0.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol-ratio" => {
                tol_ratio = match it.next().and_then(|s| s.parse().ok()).filter(|t: &f64| *t >= 0.0) {
                    Some(t) => t,
                    None => {
                        eprintln!("--tol-ratio expects a non-negative number");
                        eprintln!("{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.len() != 2 {
        eprintln!("expected exactly two paths, got {}", paths.len());
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let (a, b) = (paths[0].display(), paths[1].display());
    match run(&paths[0], &paths[1], tol_ratio) {
        Ok(0) => {
            println!("artifact_diff: {a} and {b} agree (tol-ratio {tol_ratio})");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!("artifact_diff: {n} disagreement(s) between {a} and {b} (tol-ratio {tol_ratio})");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("artifact_diff: {e}");
            ExitCode::from(2)
        }
    }
}
