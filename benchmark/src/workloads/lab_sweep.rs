//! `lab_sweep`: the evaluation pipeline.
//!
//! The lab's smoke grid on one sweep thread — 146 rows over the thread,
//! NUMA-simulator and cluster-simulator backends × placement policies ×
//! static and adaptive modes — lowered to the `orwl-lab/v1` document.
//! Simulators, adaptive engine and small-p placement carry the run, and
//! the output check is the strongest: the JSON repeats byte for byte.

use super::{fnv1a, Checks, Outcome, Workload};
use crate::span::Tracer;
use orwl_lab::{run_sweep_with_threads, sweep_to_json, validate, SweepConfig};
use orwl_obs::json::Json;

pub const ROWS: f64 = 146.0;
/// The seed of the committed `BENCH_lab.json`.
const BASELINE_SEED: u64 = 42;
/// From the benchmark's directory, where `main` moves to.
const BASELINE_PATH: &str = "../BENCH_lab.json";

pub struct LabSweep {
    seed: u64,
    config: SweepConfig,
    document: String,
    vs_scatter: Vec<f64>,
}

impl LabSweep {
    pub fn new(seed: u64) -> Self {
        LabSweep { seed, config: SweepConfig::smoke(seed), document: String::new(), vs_scatter: Vec::new() }
    }
}

impl Workload for LabSweep {
    fn repeat(&mut self, tracer: &mut Tracer, _observe: bool) -> Result<Outcome, String> {
        let result = tracer
            .span("lab.run_sweep", |_| run_sweep_with_threads(&self.config, 1))
            .map_err(|e| e.to_string())?;
        self.document = tracer.span("lab.report_json", |_| sweep_to_json(&result).pretty());
        self.vs_scatter = result.rows.iter().filter_map(|r| r.vs_scatter).collect();
        tracer.count("lab.rows", result.rows.len() as f64);
        Ok(Outcome {
            exact: vec![
                ("lab.rows", result.rows.len() as f64),
                ("harness.output_hash", fnv1a(self.document.bytes())),
            ],
            ..Outcome::default()
        })
    }

    fn verify(&mut self, latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        let rows = latest.exact("lab.rows");
        checks.check(rows == Some(ROWS), || format!("lab_sweep: {rows:?} rows, want {ROWS}"));
        let valid = Json::parse(&self.document)
            .map_err(|e| e.to_string())
            .and_then(|doc| validate(&doc).map_err(|e| e.to_string()));
        checks.check(valid.is_ok(), || format!("lab_sweep: document fails the lab schema: {valid:?}"));
        if self.seed == BASELINE_SEED {
            // At the committed artifact's seed the whole pipeline is pinned:
            // the full grid must regenerate the artifact byte for byte.
            let regenerated = orwl_lab::run_sweep(&SweepConfig::full(BASELINE_SEED))
                .map(|result| sweep_to_json(&result).pretty())
                .map_err(|e| e.to_string());
            let committed = std::fs::read_to_string(BASELINE_PATH).map_err(|e| e.to_string());
            checks.check(regenerated.is_ok() && regenerated == committed, || {
                format!(
                    "lab_sweep: the full grid at seed {BASELINE_SEED} differs from {BASELINE_PATH} ({:?} vs {:?} bytes)",
                    regenerated.as_ref().map(String::len),
                    committed.as_ref().map(String::len)
                )
            });
        }
        let log_mean =
            self.vs_scatter.iter().map(|r| r.ln()).sum::<f64>() / self.vs_scatter.len().max(1) as f64;
        vec![("locality.ratio_vs_scatter", log_mean.exp())]
    }

    fn input_bytes(&self) -> Vec<u8> {
        format!("{:?}", self.config).into_bytes()
    }
}
