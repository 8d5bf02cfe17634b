//! `obs_report` — the contention / critical-path analyzer CLI over one
//! telemetry capture (typically the merged multi-process timeline a
//! `--obs-dir` run writes as `merged.obs.json`).
//!
//! ```sh
//! cargo run -p orwl-bench --bin obs_report -- merged.obs.json
//! cargo run -p orwl-bench --bin obs_report -- merged.obs.json --top 10 --json report.json
//! cargo run -p orwl-bench --bin obs_report -- --validate report.json
//! ```
//!
//! Prints the per-track, per-location contention table and the
//! cross-node latency breakdown — request→grant, the owner's FIFO wait,
//! and the reader's local hold after the grant arrives (see
//! `orwl_obs::analyze`);
//! `--json` additionally writes the `orwl-obs-report/v1` document.
//! `--validate` checks a previously written report document instead.
//!
//! Exit status: `0` on success, `2` on usage, parse, or validation
//! errors.

use orwl_obs::analyze::{analyze, validate_report};
use orwl_obs::json::Json;
use orwl_obs::RunTelemetry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: obs_report CAPTURE.obs.json [--top K] [--json OUT.json]\n       obs_report --validate REPORT.json";

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fail(message: &str) -> ExitCode {
    eprintln!("obs_report: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut capture: Option<PathBuf> = None;
    let mut top_k = usize::MAX;
    let mut json_out: Option<PathBuf> = None;
    let mut validate: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top_k = match it.next().and_then(|s| s.parse().ok()).filter(|k: &usize| *k > 0) {
                    Some(k) => k,
                    None => return fail("--top expects a positive integer"),
                };
            }
            "--json" => {
                json_out = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => return fail("--json expects an output path"),
                };
            }
            "--validate" => {
                validate = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => return fail("--validate expects a report path"),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if capture.is_none() && !other.starts_with('-') => capture = Some(PathBuf::from(other)),
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }

    if let Some(path) = validate {
        if capture.is_some() || json_out.is_some() {
            return fail("--validate takes no other arguments");
        }
        let doc = match load(&path) {
            Ok(doc) => doc,
            Err(e) => return fail(&e),
        };
        return match validate_report(&doc) {
            Ok(()) => {
                println!("obs_report: {} is a valid orwl-obs-report/v1 document", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("{}: {e}", path.display())),
        };
    }

    let Some(capture) = capture else {
        return fail("expected a capture path");
    };
    let telemetry = match load(&capture).and_then(|doc| RunTelemetry::from_json(&doc)) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let report = analyze(&telemetry, top_k);
    print!("{}", report.render_table());
    if let Some(out) = json_out {
        let doc = report.to_json();
        if let Err(e) = validate_report(&doc) {
            return fail(&format!("generated report failed validation: {e}"));
        }
        if let Err(e) = std::fs::write(&out, doc.pretty()) {
            return fail(&format!("cannot write {}: {e}", out.display()));
        }
        println!("\nwrote {}", out.display());
    }
    ExitCode::SUCCESS
}
