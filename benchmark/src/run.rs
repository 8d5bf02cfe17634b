//! One benchmark run: set-up, timed repeats, the traced pass, checks.
//!
//! Closed loop, one client: the harness thread issues the next repeat only
//! after the previous one returned; the program under test spawns its own
//! task threads and worker processes.

use crate::cal::{Calibrator, Timing};
use crate::metrics::{Ledger, SPAN_LAYERS};
use crate::rusage::{children_cpu_s, self_cpu_s};
use crate::span::{self_times_ns, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::{fnv1a, Checks, Entry, Outcome, Workload};
use crate::{probes, telemetry};
use std::time::{Duration, Instant};

/// Executions of the one-off set-up per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fewest timed repeats of a run, however slow the machine.
const MIN_REPEATS: usize = 9;
/// Failed repeats after which a run stops waiting for its time to pass.
const MAX_FAILED_REPEATS: usize = 3;
/// The tail of `run_s` is its 80th percentile, reported once a run has
/// the 50 repeats that leave ten samples beyond it.  One fixed percentile:
/// a faster change gets more repeats in its time, and must still be
/// compared on the same statistic.
const TAIL_QUANTILE: f64 = 0.8;
const TAIL_MIN_REPEATS: usize = 50;

pub struct RunArgs {
    pub entry: &'static Entry,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run hands to `main`.
pub struct RunResult {
    pub checks: Checks,
    pub ledger: Ledger,
    /// Spans and counts of the traced pass (empty with `--trace 0`).
    pub tracer: Tracer,
}

/// One timed repeat.
struct Sample {
    timing: Timing,
    /// What turns wall seconds of this repeat into reported seconds: the
    /// repeat's calibration scale, or 1 on a wait-bound workload.
    wall_scale: f64,
    cpu_raw_s: f64,
    /// The tracer round of an observed repeat; `None` for a plain one.
    round: Option<u32>,
    outcome: Outcome,
}

fn cpu_now_s() -> f64 {
    self_cpu_s() + children_cpu_s()
}

pub fn run(args: &RunArgs) -> RunResult {
    let name = args.entry.name;
    let mut cal = Calibrator::new();
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut ledger = Ledger::default();
    cal.run(); // first touch of the kernel's arrays
    let mut before = cal.run();
    let wall_scale = |timing: &Timing| if args.entry.wait_bound { 1.0 } else { timing.scale };

    // Set-up: build the workload from the seed and run one warm-up repeat.
    let (mut setups, mut input_hashes) = (Vec::with_capacity(SETUPS), Vec::with_capacity(2));
    let mut workload: Option<Box<dyn Workload>> = None;
    for i in 0..SETUPS {
        let ((built, warm), timing) = cal.timed(before, || {
            let mut built = (args.entry.build)(args.seed);
            let warm = built.repeat(&mut tracer, false);
            (built, warm)
        });
        before = timing.cal_after;
        checks.check(warm.is_ok(), || format!("{name}: warm-up repeat: {}", warm.err().unwrap_or_default()));
        setups.push(timing.raw_s * wall_scale(&timing));
        if i == 0 || i == SETUPS - 1 {
            input_hashes.push(fnv1a(built.input_bytes()));
        }
        workload = Some(built);
    }
    let mut workload = workload.expect("SETUPS is positive");
    checks.check(input_hashes.first() == input_hashes.last(), || {
        format!("{name}: seed {} generated different inputs on different builds", args.seed)
    });

    // Timed repeats.  With tracing on, observed and plain repeats alternate
    // for half the time, so both see the same phases of the machine and
    // their ratio is the tracing overhead; the probes take the other half.
    let budget = Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let mut samples: Vec<Sample> = Vec::new();
    let mut failed_repeats = 0;
    let started = Instant::now();
    while (started.elapsed() < budget || samples.len() < MIN_REPEATS) && failed_repeats < MAX_FAILED_REPEATS {
        let round = (args.trace && samples.len() % 2 == 1).then_some(samples.len() as u32 / 2);
        if let Some(round) = round {
            tracer.start_round(round);
        }
        let ((outcome, cpu_raw_s), timing) = cal.timed(before, || {
            let cpu_before = cpu_now_s();
            let outcome = tracer.span("harness.repeat", |t| workload.repeat(t, round.is_some()));
            (outcome, cpu_now_s() - cpu_before)
        });
        tracer.stop();
        before = timing.cal_after;
        match outcome {
            Ok(outcome) => {
                // Exact values must repeat, whatever the scheduling did.
                let first = samples.first().map_or(&outcome.exact, |s| &s.outcome.exact);
                checks.check(*first == outcome.exact, || {
                    format!(
                        "{name}: repeat {} gave {:?}, the first gave {first:?}",
                        samples.len(),
                        outcome.exact
                    )
                });
                samples.push(Sample { timing, wall_scale: wall_scale(&timing), cpu_raw_s, round, outcome });
            }
            Err(e) => {
                failed_repeats += 1;
                checks.check(false, || format!("{name}: repeat failed: {e}"));
            }
        }
    }

    // Verification, outside every timed region.
    if let Some(latest) = samples.last() {
        for (metric, value) in workload.verify(&latest.outcome, &mut checks) {
            ledger.set(metric, value);
        }
    }

    let (observed, plain): (Vec<&Sample>, Vec<&Sample>) = samples.iter().partition(|s| s.round.is_some());
    if plain.is_empty() {
        checks.check(false, || format!("{name}: no repeat completed"));
        return RunResult { checks, ledger, tracer };
    }
    let run_s: Vec<f64> = plain.iter().map(|s| s.timing.raw_s * s.wall_scale).collect();
    let cpu_s: Vec<f64> = plain.iter().map(|s| s.cpu_raw_s * s.timing.scale).collect();
    ledger.set("run_s", median(&run_s));
    ledger.set("cpu_s", median(&cpu_s));
    ledger.set("setup_s", median(&setups));
    if run_s.len() >= TAIL_MIN_REPEATS {
        ledger.set("run_p80_s", percentile(&run_s, TAIL_QUANTILE));
    }
    eprintln!(
        "{name}: {} repeats, raw median {:.4} s, kernel median {:.4} s",
        plain.len(),
        median(&plain.iter().map(|s| s.timing.raw_s).collect::<Vec<_>>()),
        median(&cal.samples),
    );

    if args.trace {
        ledger.set("core.session.ops_per_s", args.entry.ops / median(&run_s));
        ledger.set("harness.run_raw_s", median(&plain.iter().map(|s| s.timing.raw_s).collect::<Vec<_>>()));
        ledger.set("harness.repeats", plain.len() as f64);
        if !observed.is_empty() {
            let observed_s: Vec<f64> = observed.iter().map(|s| s.timing.raw_s * s.wall_scale).collect();
            ledger.set("obs.overhead_frac", median(&observed_s) / median(&run_s) - 1.0);
        }
        outcome_metrics(&plain, &mut ledger);
        span_metrics(&tracer, &observed, &mut ledger);
        let observed_outcomes: Vec<&Outcome> = observed.iter().map(|s| &s.outcome).collect();
        telemetry::metrics(args.entry, &observed_outcomes, &mut checks, &mut ledger);
        probes::run(&mut cal, &mut ledger);
        for &metric in args.entry.exact {
            let value = ledger.get(metric);
            checks.check(value.is_some_and(f64::is_finite), || {
                format!("{name}: exact metric {metric} is {value:?}, want a measured, finite value")
            });
        }
    }
    ledger.set("harness.cal_s", median(&cal.samples));
    ledger.set("harness.cal_spread", percentile(&cal.samples, 0.75) / percentile(&cal.samples, 0.25));
    RunResult { checks, ledger, tracer }
}

/// What the plain repeats reported about themselves: exact values as they
/// are, durations scaled like the repeat's wall clock, then medians.
fn outcome_metrics(plain: &[&Sample], ledger: &mut Ledger) {
    let latest = &plain[plain.len() - 1].outcome;
    for &(name, value) in &latest.exact {
        ledger.set(name, value);
    }
    let mut medians = |pick: fn(&Outcome) -> &Vec<(&'static str, f64)>, factor: fn(&Sample) -> f64| {
        for (i, &(name, _)) in pick(latest).iter().enumerate() {
            let column: Vec<f64> =
                plain.iter().filter_map(|s| pick(&s.outcome).get(i).map(|&(_, v)| v * factor(s))).collect();
            ledger.set(name, median(&column));
        }
    };
    medians(|o| &o.scaled, |s| s.wall_scale);
    medians(|o| &o.cpu, |s| s.timing.scale);
    medians(|o| &o.ratios, |_| 1.0);
}

/// Per-layer self time of the traced repeats — for each layer the median
/// over repeats of the calibrated self time of its spans — and the share
/// of a repeat that no layer span covers.
fn span_metrics(tracer: &Tracer, observed: &[&Sample], ledger: &mut Ledger) {
    let self_ns = self_times_ns(&tracer.spans);
    let spans_of = |round: u32| tracer.spans.iter().zip(&self_ns).filter(move |(s, _)| s.round == round);
    for &(layer, metric) in SPAN_LAYERS {
        let per_repeat: Vec<f64> = observed
            .iter()
            .map(|sample| {
                let round = sample.round.expect("observed repeats have a round");
                let ns: u64 = spans_of(round).filter(|(s, _)| s.layer() == layer).map(|(_, &ns)| ns).sum();
                ns as f64 * 1e-9 * sample.wall_scale * 1e3
            })
            .collect();
        if !per_repeat.is_empty() {
            ledger.set(metric, median(&per_repeat));
        }
    }
    let unattributed: Vec<f64> = observed
        .iter()
        .filter_map(|sample| spans_of(sample.round?).find(|(s, _)| s.parent.is_none()))
        .map(|(root, &own_ns)| own_ns as f64 / root.duration_ns() as f64)
        .collect();
    if !unattributed.is_empty() {
        ledger.set("harness.unattributed_frac", median(&unattributed));
    }
}
