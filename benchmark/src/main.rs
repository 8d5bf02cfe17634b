//! The repo benchmark.  See `README.md` beside `Cargo.toml`.

mod cal;
mod metrics;
mod probes;
mod run;
mod rusage;
mod span;
mod stats;
mod suite;
mod telemetry;
mod workloads;

use orwl_obs::json::Json;
use std::process::ExitCode;

/// Where the benchmark writes: inside its own directory, so inside the
/// checkout.  Relative, because `main` moves to the benchmark's directory
/// and a Unix socket path must stay under 108 bytes wherever the checkout
/// lives.
pub const OUT_DIR: &str = "out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: orwl-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      orwl-benchmark suite [--workload NAME]... [--out FILE] [--smoke 1]\n\
         \x20      orwl-benchmark compare A.json B.json\n\
         \x20      orwl-benchmark manifest\n\
         workloads: {}",
        workloads::REGISTRY.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Worker processes of the proc workloads are this binary re-exec'd.
    orwl_proc::maybe_worker();
    if cfg!(debug_assertions) {
        eprintln!("orwl-benchmark: built with debug assertions; the LockFifo cycle detector changes the cost. Use --release.");
        return ExitCode::from(2);
    }
    // Paths on the command line are relative to where the user stands.
    let invoked_from = std::env::current_dir().unwrap_or_default();
    let user_path = |p: &String| invoked_from.join(p).to_string_lossy().into_owned();
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("orwl-benchmark: cannot enter {}: {e}", env!("CARGO_MANIFEST_DIR"));
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            ExitCode::SUCCESS
        }
        Some("suite") => match suite::SuiteArgs::parse(&args[1..], user_path) {
            Some(suite_args) => finish(prepare_out().and_then(|()| suite::suite(&suite_args))),
            None => usage(),
        },
        Some("compare") if args.len() == 3 => {
            finish(suite::compare(&user_path(&args[1]), &user_path(&args[2])))
        }
        Some(_) => match parse_run(&args) {
            Some(run_args) => run_one(&run_args),
            None => usage(),
        },
        None => usage(),
    }
}

fn parse_run(args: &[String]) -> Option<run::RunArgs> {
    let (mut entry, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => entry = Some(workloads::find(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 60.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(run::RunArgs { entry: entry?, seed: seed?, seconds: seconds?, trace: trace? })
}

/// Exit code of a subcommand: 0 when it ran and found nothing wrong.
fn finish(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("orwl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// This process's temporary directory: two runs at once do not see each
/// other's rendezvous directories.
fn tmp_dir() -> String {
    format!("{OUT_DIR}/tmp-{}", std::process::id())
}

fn prepare_out() -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))
}

/// Processes whose parent is this one, from `/proc/<pid>/stat`.
fn child_processes() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        // "pid (comm) state ppid ...": comm may hold spaces, so split after it.
        .filter(|stat| {
            stat.rsplit_once(')').is_some_and(|(_, rest)| rest.split_whitespace().nth(1) == Some(&me))
        })
        .collect()
}

fn run_one(args: &run::RunArgs) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(tmp_dir()) {
        eprintln!("orwl-benchmark: cannot create {}: {e}", tmp_dir());
        return ExitCode::from(2);
    }
    // The proc backend puts its rendezvous directory under the temp dir.
    std::env::set_var("TMPDIR", tmp_dir());

    let mut result = run::run(args);
    // Nothing the run started may outlive it.  Removing the temporary
    // directory fails while a rendezvous directory is still in it.
    let children = child_processes();
    result.checks.check(children.is_empty(), || format!("child processes left behind: {children:?}"));
    let removed = std::fs::remove_dir(tmp_dir());
    result
        .checks
        .check(removed.is_ok(), || format!("rendezvous directories left in {}: {removed:?}", tmp_dir()));
    result.ledger.set("harness.fail_frac", result.checks.failed as f64 / result.checks.attempted as f64);
    for failure in &result.checks.failures {
        eprintln!("FAILED {failure}");
    }
    if args.trace {
        let path = format!("{OUT_DIR}/trace-{}.json", args.entry.name);
        let doc = span::trace_json(args.entry.name, args.seed, &result.tracer);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("orwl-benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !args.trace {
        // What `compare` judges beside the driver's metrics; the result
        // line stays the last one.
        let mut beside = Json::obj();
        beside.push("compare_only", result.ledger.compare_only_metrics());
        println!("{beside}");
    }
    let mut line = Json::obj();
    line.push("correct", result.checks.failed == 0)
        .push("attempted", result.checks.attempted)
        .push("failed", result.checks.failed)
        .push("metrics", result.ledger.result_metrics(args.trace));
    println!("{line}");
    ExitCode::SUCCESS
}
