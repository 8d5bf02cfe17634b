//! `suite` and `compare`: the driver's acceptance procedure, runnable by
//! hand.
//!
//! `suite` runs every workload on seeds 1 to 10, each run a process of its
//! own exactly as the driver starts it, plus one traced run per workload,
//! and writes the set to a file.  `compare` judges a second set
//! against a first with the directions and bounds of `BENCHMARK.json`.

use crate::metrics::{COMPARE_ONLY, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, spread};
use crate::workloads::REGISTRY;
use orwl_obs::json::Json;
use std::process::Command;

/// The seeds of a full set: the driver's ten.  Every set runs the same
/// seeds, so `compare` always compares runs on the same inputs.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

pub struct SuiteArgs {
    pub out: String,
    /// Empty selects every workload.
    pub workloads: Vec<String>,
    /// One seed, one second, no traced run: does every workload still run
    /// and check out?  For a CI job.
    pub smoke: bool,
}

impl SuiteArgs {
    /// `user_path` resolves a path the user typed.
    pub fn parse(args: &[String], user_path: impl Fn(&String) -> String) -> Option<SuiteArgs> {
        let mut parsed =
            SuiteArgs { out: format!("{}/suite.json", crate::OUT_DIR), workloads: Vec::new(), smoke: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next()?;
            match flag.as_str() {
                "--out" => parsed.out = user_path(value),
                "--workload" => parsed.workloads.push(crate::workloads::find(value)?.name.to_string()),
                "--smoke" if value == "1" => parsed.smoke = true,
                _ => return None,
            }
        }
        Some(parsed)
    }
}

/// One driver-style run in a child process: the parsed result line and,
/// from the line before it, the metrics only `compare` judges.
fn run_child(workload: &str, seed: u64, seconds: usize, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let line = lines.next().ok_or_else(|| {
        format!(
            "{workload} seed {seed}: no result ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}: {line}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    let compare_only = lines
        .next()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|beside| beside.get("compare_only").cloned())
        .unwrap_or_else(Json::obj);
    Ok((result, compare_only))
}

/// The environment block: numbers compare only within one environment.
fn environment() -> Json {
    let text = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .map_or_else(|e| e.to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let mut env = Json::obj();
    env.push("nproc", std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get))
        .push("rustc", text("rustc", &["-V"]))
        .push("kernel", std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default().trim())
        .push("vendor_shims", "parking_lot / crossbeam are std-backed vendor shims")
        .push("cal_nominal_s", crate::cal::CAL_NOMINAL_S);
    env
}

/// Runs the set; `Ok(false)` when some run's checks failed.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let selected: Vec<&str> = REGISTRY
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workloads.is_empty() || args.workloads.iter().any(|w| w == n))
        .collect();
    let mut runs = Vec::new();
    let mut all_correct = true;
    let (seeds, seconds) = if args.smoke { (1..=1, 1) } else { (SEEDS, RUN_SECONDS) };
    let mut record = |workload: &str, seed: u64, trace: bool| -> Result<Json, String> {
        let (result, compare_only) = run_child(workload, seed, seconds, trace)?;
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        let mut run = Json::obj();
        run.push("workload", workload)
            .push("seed", seed)
            .push("trace", trace)
            .push("result", result)
            .push("compare_only", compare_only);
        runs.push(run.clone());
        Ok(run)
    };
    println!("{:<16} {:<10} {:>12} {:>8} {:>8}  n", "workload", "metric", "median", "spread", "bound");
    for workload in selected {
        let untraced =
            seeds.clone().map(|seed| record(workload, seed, false)).collect::<Result<Vec<_>, _>>()?;
        for metric in END_TO_END.iter().chain(&COMPARE_ONLY) {
            let values: Vec<f64> = untraced.iter().filter_map(|run| metric_value(run, metric.name)).collect();
            if values.is_empty() {
                continue;
            }
            println!(
                "{workload:<16} {:<10} {:>12.6} {:>8.4} {:>8.2}  {}",
                metric.name,
                median(&values),
                spread(&values),
                metric.bound,
                values.len()
            );
        }
        if !args.smoke {
            record(workload, *seeds.start(), true)?;
        }
    }
    let mut doc = Json::obj();
    doc.push("schema", "orwl-benchmark-suite/v1")
        .push("environment", environment())
        .push("runs", Json::Arr(runs));
    std::fs::write(&args.out, doc.pretty()).map_err(|e| format!("{}: {e}", args.out))?;
    println!("wrote {}", args.out);
    Ok(all_correct)
}

/// A metric of one recorded run: from the result line, or from the
/// metrics only `compare` judges.
fn metric_value(run: &Json, name: &str) -> Option<f64> {
    let among = |metrics: &Json| metrics.get(name)?.get("value")?.as_f64();
    run.get("result")?.get("metrics").and_then(among).or_else(|| among(run.get("compare_only")?))
}

/// The verdict on one (metric, workload) pair of medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

/// Judges medians `a` (parent) and `b` (change): `b` regresses when it is
/// worse than `a` by more than `bound` of `a`; short of that, a spread of
/// either side wider than the bound leaves the pair unresolved.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, widest_spread: f64) -> Verdict {
    let worse_by = if lower_is_better { (b - a) / a } else { (a - b) / a };
    if worse_by > bound {
        Verdict::Regressed
    } else if widest_spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

struct Set {
    runs: Vec<Json>,
}

impl Set {
    fn load(path: &str) -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let runs = doc.get("runs").and_then(Json::as_arr).ok_or_else(|| format!("{path}: no runs"))?;
        Ok(Set { runs: runs.to_vec() })
    }

    fn select<'a>(&'a self, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Json> + 'a {
        self.runs.iter().filter(move |r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace") == Some(&Json::Bool(trace))
        })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.select(workload, false).filter_map(|r| metric_value(r, metric)).collect()
    }

    fn failed(&self, workload: &str) -> f64 {
        self.runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .filter_map(|r| r.get("result")?.get("failed")?.as_f64())
            .sum()
    }
}

/// Prints one row per (metric, workload) and returns whether nothing
/// regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (Set::load(path_a)?, Set::load(path_b)?);
    let mut clean = true;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "spread"
    );
    for entry in &REGISTRY {
        let workload = entry.name;
        for metric in END_TO_END.iter().chain(&COMPARE_ONLY) {
            let (va, vb) = (a.values(workload, metric.name), b.values(workload, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let widest = spread(&va).max(spread(&vb));
            // Set-up time is exempt from the spread rule, as in the driver.
            let judged_spread = if metric.name == "setup_s" { 0.0 } else { widest };
            let v = verdict(ma, mb, metric.better == "lower", metric.bound, judged_spread);
            // CPU time of a wait-bound workload is process creation in
            // kernel mode and drifts past any bound on its own: shown, not
            // judged.
            let exempt = metric.name == "cpu_s" && entry.wait_bound;
            clean &= exempt || v != Verdict::Regressed;
            println!(
                "{workload:<16} {:<26} {ma:>14.6} {mb:>14.6} {:>8.4} {widest:>7.4}  {}",
                metric.name,
                mb / ma,
                if exempt { "exempt".to_string() } else { format!("{v:?}").to_lowercase() }
            );
        }
        // Failures and exact values admit no tolerance.
        let (fa, fb) = (a.failed(workload), b.failed(workload));
        if fb > fa {
            clean = false;
        }
        println!(
            "{workload:<16} {:<26} {fa:>14} {fb:>14} {:>8} {:>7}  {}",
            "failed",
            "",
            "",
            if fb > fa { "regressed" } else { "ok" }
        );
        for ra in a.select(workload, true) {
            let twin = b.select(workload, true).find(|rb| rb.get("seed") == ra.get("seed"));
            let Some(rb) = twin else { continue };
            for metric in PER_LAYER.iter().filter(|p| p.exact) {
                let (xa, xb) = (metric_value(ra, metric.name), metric_value(rb, metric.name));
                if xa != xb {
                    clean = false;
                    println!(
                        "{workload:<16} {:<26} {:>14} {:>14} {:>8} {:>7}  regressed (exact)",
                        metric.name,
                        xa.unwrap_or(f64::NAN),
                        xb.unwrap_or(f64::NAN),
                        "",
                        ""
                    );
                }
            }
        }
    }
    println!("{}", if clean { "no regression" } else { "REGRESSION" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_and_around_a_bound() {
        // Lower is better, bound 12.5 % (exact in binary): exactly at the
        // bound is not worse by more than it.
        assert_eq!(verdict(8.0, 9.0, true, 0.125, 0.02), Verdict::Ok);
        assert_eq!(verdict(8.0, 9.001, true, 0.125, 0.02), Verdict::Regressed);
        assert_eq!(verdict(8.0, 4.0, true, 0.125, 0.02), Verdict::Ok);
        // Higher is better: the same distances the other way.
        assert_eq!(verdict(8.0, 7.0, false, 0.125, 0.02), Verdict::Ok);
        assert_eq!(verdict(8.0, 6.999, false, 0.125, 0.02), Verdict::Regressed);
        assert_eq!(verdict(8.0, 12.0, false, 0.125, 0.02), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_clearly_worse() {
        assert_eq!(verdict(1.0, 1.05, true, 0.10, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 0.95, true, 0.10, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 1.30, true, 0.10, 0.12), Verdict::Regressed);
        assert_eq!(verdict(1.0, 1.05, true, 0.10, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_bound_of_zero_lets_nothing_get_worse() {
        assert_eq!(verdict(2.0, 2.0, true, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(2.0, 2.000001, true, 0.0, 0.0), Verdict::Regressed);
    }

    #[test]
    fn suite_arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parse = |s: &str| SuiteArgs::parse(&args(s), |p| format!("/here/{p}"));
        let parsed = parse("--workload lab_sweep --out x.json").unwrap();
        assert_eq!((parsed.out.as_str(), parsed.smoke), ("/here/x.json", false));
        assert_eq!(parsed.workloads, ["lab_sweep"]);
        assert!(parse("--workload nope").is_none());
        assert!(parse("--seeds 3").is_none());
        assert!(parse("--out").is_none());
        assert!(parse("--smoke 1").unwrap().smoke);
    }

    #[test]
    fn a_recorded_run_yields_driver_and_compare_only_metrics() {
        let run = Json::parse(
            r#"{"result": {"metrics": {"run_s": {"value": 0.25, "unit": "s"}}},
                "compare_only": {"cpu_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        assert_eq!(metric_value(&run, "run_s"), Some(0.25));
        assert_eq!(metric_value(&run, "cpu_s"), Some(0.5));
        assert_eq!(metric_value(&run, "run_p80_s"), None);
    }
}
