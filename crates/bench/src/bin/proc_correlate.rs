//! `proc_correlate` — regenerate and check the sim-vs-real correlation
//! artifact (`BENCH_proc_corr.json`, experiment E-proc).
//!
//! ```sh
//! cargo run --release -p orwl-bench --bin proc_correlate                        # print to stdout
//! cargo run --release -p orwl-bench --bin proc_correlate -- --out BENCH_proc_corr.json
//! cargo run --release -p orwl-bench --bin proc_correlate -- --check BENCH_proc_corr.json
//! ```
//!
//! `--check` regenerates the battery and requires the committed artifact
//! to validate against the schema *and* match the regenerated document
//! byte for byte — every column is a pure function of the matrices and
//! the placement, so any divergence is a real behaviour change.
//! Exit status: `0` ok, `1` drift, `2` usage or runtime errors.
//!
//! The binary re-execs itself as the worker processes, so `main` opens
//! with [`orwl_proc::maybe_worker`].

use orwl_bench::proc_corr::proc_correlation;
use orwl_obs::json::Json;
use orwl_proc::validate_corr;
use std::process::ExitCode;

const USAGE: &str = "usage: proc_correlate [--out PATH | --check PATH]";

fn generate() -> Result<String, String> {
    // Standalone binary: spawned workers re-enter through maybe_worker()
    // with no extra argv needed.
    proc_correlation(&[]).map(|doc| doc.pretty())
}

fn main() -> ExitCode {
    orwl_proc::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => match generate() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("proc_correlate: {e}");
                ExitCode::from(2)
            }
        },
        [flag, path] if flag == "--out" => match generate() {
            Ok(text) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("proc_correlate: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
                println!("proc_correlate: wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("proc_correlate: {e}");
                ExitCode::from(2)
            }
        },
        [flag, path] if flag == "--check" => {
            let committed = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("proc_correlate: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let doc = match Json::parse(&committed) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("proc_correlate: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            if let Err(e) = validate_corr(&doc) {
                eprintln!("proc_correlate: {path}: {e}");
                return ExitCode::FAILURE;
            }
            let regenerated = match generate() {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("proc_correlate: {e}");
                    return ExitCode::from(2);
                }
            };
            if regenerated != committed {
                eprintln!("proc_correlate: {path} does not match the regenerated battery");
                return ExitCode::FAILURE;
            }
            println!("proc_correlate: {path} validates and regenerates byte-identically");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
