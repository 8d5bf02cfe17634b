//! `scaling` — measure placement cost at scale and emit the versioned
//! `BENCH_scaling.json` artifact.
//!
//! ```sh
//! cargo run --release -p orwl-bench --bin scaling                    # full grid
//! cargo run --release -p orwl-bench --bin scaling -- --smoke         # CI-sized grid
//! cargo run --release -p orwl-bench --bin scaling -- --smoke --budget-seconds 30
//! ```
//!
//! The artifact is `orwl-lab/v1`-shaped (validate it with
//! `lab_sweep --validate BENCH_scaling.json`) with one extra column,
//! `placement_wall_seconds`.  Wall times are machine-dependent by design —
//! instead of `cmp`ing bytes CI validates the schema and passes
//! `--budget-seconds`, which asserts that the 512-task stencil placement
//! finishes within that generous bound and that the 1024-task one costs at
//! most [`MAX_DOUBLING_RATIO`] times as much in the same run.

use orwl_bench::scaling::{run_scaling, scaling_to_json};
use std::process::ExitCode;

/// Largest accepted wall(stencil p = 1024) ÷ wall(stencil p = 512).  A ratio
/// within one run survives a slow runner, which an absolute budget does not.
/// The sparse pipeline sits near 2.5 (its one pass over the dense input is
/// the only quadratic term); a per-level `O(p²)` loop shows as 4 or more.
const MAX_DOUBLING_RATIO: f64 = 3.0;

const USAGE: &str = "usage: scaling [--smoke] [--seed N] [--out PATH] [--budget-seconds F] [--quiet]";

struct Args {
    smoke: bool,
    seed: u64,
    out: String,
    budget_seconds: Option<f64>,
    quiet: bool,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seed: 42,
        out: "BENCH_scaling.json".to_string(),
        budget_seconds: None,
        quiet: false,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--quiet" => args.quiet = true,
            "--seed" => {
                args.seed =
                    it.next().and_then(|s| s.parse().ok()).ok_or("--seed expects a non-negative integer")?;
            }
            "--out" => args.out = it.next().ok_or("--out expects a path")?,
            "--budget-seconds" => {
                args.budget_seconds = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|b: &f64| *b > 0.0)
                        .ok_or("--budget-seconds expects a positive number")?,
                );
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument {other:?}; try --help")),
        }
    }
    Ok(args)
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

    let grid = if args.smoke { "smoke" } else { "full" };
    eprintln!("scaling: running the {grid} grid (seed {})...", args.seed);
    let cells = run_scaling(args.smoke, args.seed);

    if !args.quiet {
        println!(
            "{:<12} {:>6} {:>14} {:>14} {:>8}",
            "family", "tasks", "placement [s]", "hop-bytes", "local%"
        );
        for cell in &cells {
            println!(
                "{:<12} {:>6} {:>14.6} {:>14.4e} {:>7.1}%",
                cell.family,
                cell.tasks,
                cell.wall_seconds,
                cell.hop_bytes,
                100.0 * cell.local_fraction
            );
        }
    }

    let doc = scaling_to_json(&cells, args.seed);
    if let Err(violation) = orwl_lab::report::validate(&doc) {
        eprintln!("scaling: emitted document violates the lab schema: {violation}");
        return ExitCode::FAILURE;
    }
    if let Err(error) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("scaling: cannot write {}: {error}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "{} cells ({grid} grid, seed {}) -> {} [{}]",
        cells.len(),
        args.seed,
        args.out,
        orwl_lab::SCHEMA_VERSION
    );

    // The CI latches: the 512-task stencil placement — the paper-scale cell —
    // must finish within the budget, and doubling the task count must not
    // cost more than `MAX_DOUBLING_RATIO` times as much.
    if let Some(budget) = args.budget_seconds {
        let stencil = |tasks: usize| {
            cells.iter().find(|c| c.family == "stencil" && c.tasks == tasks).map(|c| c.wall_seconds)
        };
        let (Some(wall_512), Some(wall_1024)) = (stencil(512), stencil(1024)) else {
            eprintln!(
                "scaling: --budget-seconds given but the grid lacks the stencil/512 or stencil/1024 cell"
            );
            return ExitCode::FAILURE;
        };
        if wall_512 > budget {
            eprintln!("scaling: budget exceeded: stencil/512 took {wall_512:.4}s (budget {budget}s)");
            return ExitCode::FAILURE;
        }
        println!("budget ok: stencil/512 placed in {wall_512:.4}s (budget {budget}s)");
        let ratio = wall_1024 / wall_512;
        if ratio > MAX_DOUBLING_RATIO {
            eprintln!(
                "scaling: stencil/1024 took {ratio:.2}x stencil/512 ({wall_1024:.4}s vs {wall_512:.4}s), \
                 more than {MAX_DOUBLING_RATIO}x: placement is no longer near-linear in the task count"
            );
            return ExitCode::FAILURE;
        }
        println!("doubling ok: stencil/1024 took {ratio:.2}x stencil/512 (limit {MAX_DOUBLING_RATIO}x)");
    }
    ExitCode::SUCCESS
}
