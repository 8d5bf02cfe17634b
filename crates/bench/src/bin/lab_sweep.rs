//! `lab_sweep` — run the lab's experiment grid and emit the versioned,
//! schema-checked `BENCH_lab.json` artifact.
//!
//! ```sh
//! cargo run --release -p orwl-bench --bin lab_sweep                 # full grid
//! cargo run --release -p orwl-bench --bin lab_sweep -- --smoke      # CI-sized grid
//! cargo run --release -p orwl-bench --bin lab_sweep -- --seed 7 --out /tmp/lab.json
//! cargo run --release -p orwl-bench --bin lab_sweep -- --validate BENCH_lab.json
//! ```
//!
//! The artifact is deterministic: the same grid and seed always produce
//! byte-identical bytes (wall-clock values are never recorded), so the
//! committed file doubles as a regression baseline — re-run and `diff`.

use orwl_core::json::Json;
use orwl_lab::report::{render_table, sweep_to_json, validate};
use orwl_lab::sweep::{default_sweep_threads, run_sweep_observed, run_sweep_with_threads, SweepConfig};
use orwl_obs::export::{validate_chrome_trace, validate_obs};
use orwl_obs::{ObsConfig, ToJson};
use std::process::ExitCode;

const USAGE: &str = "usage: lab_sweep [--smoke|--full] [--seed N] [--threads N] [--out PATH] \
                     [--obs-dir DIR] [--validate PATH] [--quiet]";

struct Args {
    smoke: bool,
    seed: u64,
    threads: usize,
    out: String,
    obs_dir: Option<String>,
    validate_only: Option<String>,
    quiet: bool,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seed: 42,
        threads: default_sweep_threads(),
        out: "BENCH_lab.json".to_string(),
        obs_dir: None,
        validate_only: None,
        quiet: false,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--full" => args.smoke = false,
            "--quiet" => args.quiet = true,
            "--seed" => {
                args.seed =
                    it.next().and_then(|s| s.parse().ok()).ok_or("--seed expects a non-negative integer")?;
            }
            "--threads" => {
                args.threads =
                    it.next().and_then(|s| s.parse().ok()).ok_or("--threads expects a positive integer")?;
            }
            "--out" => args.out = it.next().ok_or("--out expects a path")?,
            "--obs-dir" => args.obs_dir = Some(it.next().ok_or("--obs-dir expects a directory")?),
            "--validate" => args.validate_only = Some(it.next().ok_or("--validate expects a path")?),
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument {other:?}; try --help")),
        }
    }
    Ok(args)
}

/// Writes one `<label>.obs.json` + `<label>.trace.json` pair per observed
/// cell into `dir`, re-validating each artifact against its schema before
/// it lands on disk.
fn write_obs_artifacts(dir: &str, cells: &[orwl_lab::sweep::ObservedCell]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for cell in cells {
        let obs = cell.telemetry.to_json();
        validate_obs(&obs).map_err(|e| format!("{}: invalid orwl-obs/v1 artifact: {e}", cell.label))?;
        let trace = cell.telemetry.chrome_trace();
        validate_chrome_trace(&trace).map_err(|e| format!("{}: invalid Chrome trace: {e}", cell.label))?;
        let stem = format!("{dir}/{}", cell.label);
        std::fs::write(format!("{stem}.obs.json"), obs.pretty())
            .map_err(|e| format!("cannot write {stem}.obs.json: {e}"))?;
        std::fs::write(format!("{stem}.trace.json"), trace.pretty())
            .map_err(|e| format!("cannot write {stem}.trace.json: {e}"))?;
    }
    Ok(())
}

fn validate_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc.get("n_rows").and_then(Json::as_f64).unwrap_or(0.0);
    println!("{path}: valid {} document, {rows} rows", orwl_lab::SCHEMA_VERSION);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.validate_only {
        return match validate_file(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }

    let config = if args.smoke { SweepConfig::smoke(args.seed) } else { SweepConfig::full(args.seed) };
    let grid = if args.smoke { "smoke" } else { "full" };
    eprintln!("lab_sweep: running the {grid} grid (seed {}, {} threads)...", args.seed, args.threads);
    let sweep_outcome = match &args.obs_dir {
        // The rows themselves are unchanged by observation.
        Some(_) => run_sweep_observed(&config, args.threads, ObsConfig::default()),
        None => run_sweep_with_threads(&config, args.threads).map(|result| (result, Vec::new())),
    };
    let (result, observed) = match sweep_outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("lab_sweep: sweep failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.obs_dir {
        if let Err(message) = write_obs_artifacts(dir, &observed) {
            eprintln!("lab_sweep: {message}");
            return ExitCode::FAILURE;
        }
        eprintln!("lab_sweep: {} telemetry artifact pairs -> {dir}/", observed.len());
    }

    let doc = sweep_to_json(&result);
    if let Err(violation) = validate(&doc) {
        eprintln!("lab_sweep: emitted document violates its own schema: {violation}");
        return ExitCode::FAILURE;
    }
    if let Err(error) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("lab_sweep: cannot write {}: {error}", args.out);
        return ExitCode::FAILURE;
    }

    if !args.quiet {
        print!("{}", render_table(&result));
    }
    println!(
        "\n{} rows ({} grid, seed {}) -> {} [{}]",
        result.rows.len(),
        grid,
        result.seed,
        args.out,
        orwl_lab::SCHEMA_VERSION,
    );
    ExitCode::SUCCESS
}
