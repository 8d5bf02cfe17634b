//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and — for a layer metric — the end-to-end metric and workload
//! it should move.  `BENCHMARK.json` is generated from these tables
//! (`orwl-benchmark manifest`) and a test keeps the two identical.

use crate::workloads::REGISTRY;
use orwl_obs::json::Json;
use std::collections::BTreeMap;

/// Seconds one run measures: what the driver passes as `--seconds`.
pub const RUN_SECONDS: usize = 15;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Calibrated seconds (see `cal`), lower is better: what the driver gates.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd { name: "run_s", unit: "s", better: "lower", bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Metrics of the untraced run that `compare` judges and the driver does
/// not: an untraced run prints them on a line of their own before the
/// result line, whose `metrics` the driver's contract fixes to the
/// end-to-end ones, and `suite` records them beside the result.
///
/// `cpu_s` is the guard against buying wall clock with spinning.  It is
/// not a driver gate because one bound per metric covers all workloads
/// and on `proc_short` CPU time is mostly process creation in kernel
/// mode, which on this box drifts by 30 % on its own; `compare` exempts
/// the `wait_bound` workloads and judges the others.  `run_p80_s` is the
/// tail of `run_s`, printed once a run has the 50 repeats that leave ten
/// samples beyond the 80th percentile.
pub const COMPARE_ONLY: [EndToEnd; 2] = [
    EndToEnd { name: "cpu_s", unit: "s", better: "lower", bound: 0.15 },
    EndToEnd { name: "run_p80_s", unit: "s", better: "lower", bound: 0.20 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count or a computed value that repeats exactly for a seed:
    /// `compare` wants it equal, not close.
    pub exact: bool,
    /// Which end-to-end metric on which workload the metric should move;
    /// "flat" where the prediction is no change.  Documentation that lives
    /// beside the name: only the test that keeps the README's table
    /// identical to this one reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
}

/// A measured metric.
const fn m(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: false, moves }
}

/// An exact metric.
const fn x(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: true, moves }
}

/// Layers that own harness spans, each with the metric that reports the
/// layer's self time per traced repeat.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    ("harness", "self.harness_ms"),
    ("core", "self.core_ms"),
    ("proc", "self.proc_ms"),
    ("lk23", "self.lk23_ms"),
    ("treematch", "self.treematch_ms"),
    ("cluster", "self.cluster_ms"),
    ("lab", "self.lab_ms"),
];

/// A metric a workload does not exercise reads 0: every traced run prints
/// every name, as the driver requires.
pub const PER_LAYER: &[PerLayer] = &[
    // The run itself, per workload.
    m("cpu_s", "s", "lower", "user+sys CPU per repeat, harness plus reaped children: falls with run_s unless wall clock was bought with spinning"),
    m("core.session.ops_per_s", "1/s", "higher", "stated work / run_s on the workload"),
    x("core.lock_acquisitions", "count", "lower", "traced pass; run_s on lk23_fine, hub_fanout"),
    m("core.lock_wait_frac", "ratio", "lower", "traced pass; lock wait / task time: with cpu_s tells waiting from spinning"),
    x("locality.ratio_vs_scatter", "ratio", "lower", "the paper's locality claim on placement_solve, lab_sweep, proc_short"),
    x("lk23.max_abs_diff", "abs", "lower", "must be 0 on lk23_fine"),
    x("lab.rows", "count", "higher", "lab_sweep"),
    m("treematch.solve_share", "ratio", "lower", "flat-solve share of a placement_solve repeat"),
    x("treematch.hop_bytes_stencil", "bytes", "lower", "placement_solve"),
    x("treematch.hop_bytes_powerlaw", "bytes", "lower", "placement_solve"),
    x("cluster.hop_bytes_hier", "bytes", "lower", "placement_solve"),
    x("cluster.predicted_inter_node_bytes", "bytes", "lower", "must equal proc.inter_node_bytes"),
    x("proc.inter_node_bytes", "bytes", "lower", "proc_stream, proc_short"),
    x("proc.remote_reads", "count", "lower", "proc_stream, proc_short (per session)"),
    m("proc.run_phase_ms", "ms", "lower", "run_s on proc_stream; flat on proc_short"),
    m("proc.control_plane_ms", "ms", "lower", "run_s on proc_short; flat on proc_stream"),
    m("proc.control_plane_frac", "ratio", "lower", "the split that tells the two proc workloads apart"),
    m("proc.remote_read_us", "us", "lower", "run_s on proc_stream"),
    m("proc.worker_cpu_s", "s", "lower", "cpu_s on proc_stream, proc_short"),
    x("harness.output_hash", "hash", "higher", "the output of the workload, identical on every repeat"),
    // Traced pass: spans.
    m("self.harness_ms", "ms", "lower", "harness self time per traced repeat"),
    m("self.core_ms", "ms", "lower", "run_s on lk23_fine, hub_fanout"),
    m("self.proc_ms", "ms", "lower", "run_s on proc_stream, proc_short"),
    m("self.lk23_ms", "ms", "lower", "run_s on lk23_fine"),
    m("self.treematch_ms", "ms", "lower", "run_s on placement_solve"),
    m("self.cluster_ms", "ms", "lower", "run_s on placement_solve, proc_short"),
    m("self.lab_ms", "ms", "lower", "run_s on lab_sweep, proc_short"),
    m("harness.unattributed_frac", "ratio", "lower", "share of a traced repeat no layer span covers"),
    // Traced pass: the program's own telemetry.
    m("obs.overhead_frac", "ratio", "lower", "observed / plain run_s - 1 on the workload"),
    m("obs.events_recorded", "count", "lower", "per traced repeat"),
    m("obs.events_dropped", "count", "lower", "per traced repeat; ring overwrites"),
    m("obs.export_json_ms", "ms", "lower", "traced pass only"),
    m("proc.request_to_grant_p50_us", "us", "lower", "run_s on proc_stream"),
    m("proc.request_to_grant_p99_us", "us", "lower", "run_s tail on proc_stream"),
    m("proc.owner_fifo_wait_p50_us", "us", "lower", "run_s on proc_stream"),
    m("proc.owner_fifo_wait_p99_us", "us", "lower", "run_s tail on proc_stream"),
    m("proc.grant_to_release_p50_us", "us", "lower", "run_s on proc_stream"),
    m("proc.grant_to_release_p99_us", "us", "lower", "run_s tail on proc_stream"),
    x("proc.unmatched_grants", "count", "lower", "must be 0"),
    // Probes: one layer at a time, the same on every workload.
    m("topo.synthetic_build_us", "us", "lower", "setup_s on placement_solve"),
    m("topo.hop_distance_ns", "ns", "lower", "run_s on lab_sweep"),
    m("comm.pattern_build_ms", "ms", "lower", "setup_s on placement_solve"),
    m("comm.aggregate_us", "us", "lower", "run_s on placement_solve"),
    m("comm.hop_bytes_us", "us", "lower", "run_s on lab_sweep"),
    m("treematch.flat_stencil_p1024_ms", "ms", "lower", "run_s on placement_solve; flat on thread and proc workloads"),
    m("treematch.flat_powerlaw_p1024_ms", "ms", "lower", "run_s on placement_solve; flat on thread and proc workloads"),
    m("treematch.flat_powerlaw_p2048_ms", "ms", "lower", "scaling guard, in no workload"),
    m("treematch.partition_p512_k8_ms", "ms", "lower", "run_s on placement_solve"),
    m("cluster.hier_place_p512_n8_ms", "ms", "lower", "run_s on placement_solve"),
    m("core.fifo_uncontended_write_ns", "ns", "lower", "run_s on proc_stream, proc_short (worker-local sections)"),
    m("core.fifo_uncontended_read_ns", "ns", "lower", "run_s on proc_stream, proc_short (worker-local sections)"),
    m("core.fifo_pair_handoff_us", "us", "lower", "run_s on lk23_fine; flat on placement_solve, lab_sweep"),
    m("core.fifo_fanout_wake_us", "us", "lower", "run_s on hub_fanout"),
    m("core.session_spawn_us", "us", "lower", "run_s on lk23_fine, proc_short"),
    m("lk23.seq_point_ns", "ns", "lower", "the single-threaded baseline"),
    m("lk23.block_point_ns", "ns", "lower", "run_s on lk23_fine through its one-third compute share"),
    m("lk23.fine_speedup_vs_seq", "ratio", "higher", "sequential / ORWL time at the lk23_fine shape"),
    m("lk23.block_speedup_vs_seq", "ratio", "higher", "sequential / ORWL time at 512x512, 1x2 blocks: the compute-bound shape"),
    m("numasim.simulate_ms", "ms", "lower", "run_s on lab_sweep"),
    m("cluster.simulate_ms", "ms", "lower", "run_s on lab_sweep"),
    m("adapt.replace_eval_us", "us", "lower", "run_s on lab_sweep"),
    m("adapt.sim_adaptive_ms", "ms", "lower", "run_s on lab_sweep"),
    m("lab.scenario_compile_us", "us", "lower", "run_s on proc_short"),
    m("lab.report_json_ms", "ms", "lower", "run_s on lab_sweep"),
    m("proc.wire_encode_grant64k_ns", "ns", "lower", "run_s on proc_stream"),
    m("proc.wire_decode_grant64k_ns", "ns", "lower", "run_s on proc_stream"),
    m("proc.transport_rtt_us", "us", "lower", "run_s on proc_stream"),
    m("obs.emit_closed_ns", "ns", "lower", "run_s everywhere: the cost of telemetry when off"),
    m("obs.emit_open_ns", "ns", "lower", "traced pass only"),
    // The harness and the machine.
    m("harness.cal_s", "s", "lower", "median calibration kernel time: the machine's speed"),
    m("harness.cal_spread", "ratio", "lower", "p75 / p25 of the kernel: the machine-noise gauge"),
    m("harness.run_raw_s", "s", "lower", "run_s before calibration"),
    m("harness.repeats", "count", "higher", "plain timed repeats behind the medians"),
    m("harness.fail_frac", "ratio", "lower", "failed / attempted operations; any rise regresses"),
];

/// Named values of one run.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// # Panics
    /// Panics on a name that is in neither table: a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&COMPARE_ONLY).any(|e| e.name == name)
                || PER_LAYER.iter().any(|p| p.name == name),
            "metric {name} is in no table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// untraced, every per-layer metric traced.  The driver wants a number
    /// under every name, so a metric the workload does not exercise reads
    /// 0; `run` fails a check when an exact metric the workload owns is
    /// unset or not finite, so such a 0 never passes for a measurement.
    pub fn result_metrics(&self, trace: bool) -> Json {
        let mut metrics = Json::obj();
        let mut push = |name: &str, unit: &str| {
            metrics.push(name, reading(self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0), unit));
        };
        if trace {
            PER_LAYER.iter().for_each(|p| push(p.name, p.unit));
        } else {
            END_TO_END.iter().for_each(|e| push(e.name, e.unit));
        }
        metrics
    }

    /// The [`COMPARE_ONLY`] metrics the run measured.
    pub fn compare_only_metrics(&self) -> Json {
        let mut metrics = Json::obj();
        for e in &COMPARE_ONLY {
            if let Some(value) = self.get(e.name).filter(|v| v.is_finite()) {
                metrics.push(e.name, reading(value, e.unit));
            }
        }
        metrics
    }
}

fn reading(value: f64, unit: &str) -> Json {
    let mut entry = Json::obj();
    entry.push("value", value).push("unit", unit);
    entry
}

/// `BENCHMARK.json`, from the tables.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| Json::from(s)).collect());
    let mut doc = Json::obj();
    doc.push(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    )
    .push("paths", strings(&["benchmark"]))
    .push("run_seconds", RUN_SECONDS)
    .push(
        "workloads",
        Json::Arr(
            REGISTRY
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.push("name", w.name).push("why", w.why);
                    o
                })
                .collect(),
        ),
    )
    .push(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|e| {
                    let mut o = Json::obj();
                    o.push("name", e.name)
                        .push("unit", e.unit)
                        .push("better", e.better)
                        .push("bound", e.bound);
                    o
                })
                .collect(),
        ),
    )
    .push(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|p| {
                    let mut o = Json::obj();
                    o.push("name", p.name).push("unit", p.unit).push("better", p.better);
                    o
                })
                .collect(),
        ),
    );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer table as markdown, as the README carries it.
    fn describe() -> String {
        let mut out =
            String::from("| metric | unit | better | exact | should move |\n|---|---|---|---|---|\n");
        for p in PER_LAYER {
            let exact = if p.exact { "yes" } else { "" };
            out += &format!("| `{}` | {} | {} | {exact} | {} |\n", p.name, p.unit, p.better, p.moves);
        }
        out
    }

    #[test]
    fn readme_carries_the_per_layer_table() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
        assert!(
            readme.contains(&describe()),
            "README.md per-layer table differs from PER_LAYER:\n{}",
            describe()
        );
    }

    fn well_formed(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= max && name.starts_with(|c: char| c.is_ascii_alphanumeric()) && name.chars().all(ok)
    }

    #[test]
    fn tables_fit_the_driver_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|e| e.name).chain(PER_LAYER.iter().map(|p| p.name)).collect();
        names.extend(REGISTRY.iter().map(|w| w.name));
        for (i, name) in names.iter().enumerate() {
            assert!(well_formed(name, 64), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        let unit_ok =
            |u: &str| u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(END_TO_END.iter().map(|e| e.unit).chain(PER_LAYER.iter().map(|p| p.unit)).all(unit_ok));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25 && ["lower", "higher"].contains(&e.better)));
        assert!(PER_LAYER.iter().all(|p| ["lower", "higher"].contains(&p.better)));
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == "lower");
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(SPAN_LAYERS.iter().all(|(_, metric)| PER_LAYER.iter().any(|p| p.name == *metric)));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the root of the repo");
        assert_eq!(committed, manifest().pretty());
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_metrics_print_every_name_of_the_mode_and_zero_for_the_unmeasured() {
        let mut ledger = Ledger::default();
        ledger.set("run_s", 0.25);
        ledger.set("proc.remote_reads", 12000.0);
        let Json::Obj(untraced) = ledger.result_metrics(false) else { panic!() };
        assert_eq!(untraced.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["run_s", "setup_s"]);
        assert_eq!(untraced[0].1.to_string(), r#"{"value":0.25,"unit":"s"}"#);
        let Json::Obj(traced) = ledger.result_metrics(true) else { panic!() };
        assert_eq!(traced.len(), PER_LAYER.len());
        let value =
            |name: &str| traced.iter().find(|(k, _)| k == name).unwrap().1.get("value").unwrap().as_f64();
        assert_eq!(value("proc.remote_reads"), Some(12000.0));
        assert_eq!(value("lk23.seq_point_ns"), Some(0.0));
    }

    #[test]
    fn compare_only_metrics_print_what_was_measured_and_nothing_else() {
        let mut ledger = Ledger::default();
        ledger.set("run_s", 0.25);
        ledger.set("cpu_s", 0.5);
        assert_eq!(ledger.compare_only_metrics().to_string(), r#"{"cpu_s":{"value":0.5,"unit":"s"}}"#);
        ledger.set("run_p80_s", f64::NAN);
        assert_eq!(ledger.compare_only_metrics().to_string(), r#"{"cpu_s":{"value":0.5,"unit":"s"}}"#);
    }
}
