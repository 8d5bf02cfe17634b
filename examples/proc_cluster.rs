//! Multi-process cluster run: the dense stencil executed by real worker
//! processes speaking the ORWL lock protocol over sockets, with the
//! cluster simulator's prediction alongside the measured traffic.
//!
//! ```sh
//! cargo run --release --example proc_cluster            # 2 nodes
//! cargo run --release --example proc_cluster -- 4       # 4 nodes
//! cargo run --release --example proc_cluster -- 8       # 8 nodes
//! cargo run --release --example proc_cluster -- 2 --obs-dir obs_proc
//! ```
//!
//! For each placement policy the example spawns one worker process per
//! node, runs the stencil, and prints the inter-node bytes the workers
//! actually moved next to what the simulator predicted for the same
//! `policy_placement` sharding — the paper's locality claim, demonstrated
//! on real processes: `Hierarchical` must move no more bytes than
//! `Scatter`.
//!
//! With `--obs-dir DIR` the hierarchical proc run is observed: every
//! worker ships its telemetry back over the control socket and the merged
//! clock-aligned timeline lands in `DIR` as `merged.obs.json` (one
//! `orwl-obs/v1` document spanning every process), `node<k>.obs.json`
//! per worker track, and `merged.trace.json` (a Chrome trace with one
//! Perfetto process per track).  Feed `merged.obs.json` to the
//! `obs_report` bin for the contention table.
//!
//! With `--live` (optionally `--interval-ms N`, default 100) the
//! hierarchical run additionally streams telemetry *mid-run*: every
//! worker heartbeats each interval and ships an interval delta, and a
//! text ticker prints the per-node rates as they arrive, plus straggler
//! flags for nodes whose heartbeats stall:
//!
//! ```sh
//! cargo run --release --example proc_cluster -- 4 --live
//! cargo run --release --example proc_cluster -- 2 --live --interval-ms 50
//! ```
//!
//! Live runs use a longer schedule so the run spans many intervals; the
//! merged post-run document is identical either way (a worker's telemetry
//! is the concatenation of its frames, however many it was cut into).
//!
//! With `--kill NODE:MS` the hierarchical run doubles as a chaos drill:
//! worker `NODE` SIGKILLs itself `MS` milliseconds after Start (no
//! unwinding, no goodbye) and the coordinator must confirm the loss,
//! re-shard the dead node's tasks onto the survivors, and complete the
//! run degraded.  `--kill` implies `--live` (recovery rides the live
//! monitor) and prints a `[recover]` summary line; the hierarchical ≤
//! scatter traffic assertion is skipped because a degraded run's traffic
//! is not comparable:
//!
//! ```sh
//! cargo run --release --example proc_cluster -- 4 --kill 2:500
//! ```

use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_obs::export::{validate_chrome_trace, validate_obs};
use orwl_obs::merge::split_tracks;
use orwl_obs::{ObsConfig, RunTelemetry, ToJson};
use orwl_proc::{Fault, FaultPlan, LiveConfig, LiveEvent};
use orwl_repro::{ClusterBackend, ClusterMachine, Policy, ProcBackend, Session};
use std::time::Duration;

fn session(
    machine: &ClusterMachine,
    policy: Policy,
    backend: impl orwl_repro::ExecutionBackend + 'static,
    observe: bool,
) -> Session {
    let mut builder = Session::builder()
        .topology(machine.topology().clone())
        .policy(policy)
        .control_threads(0)
        .backend(backend);
    if observe {
        builder = builder.observe(ObsConfig::default());
    }
    builder.build().expect("the proc backend plugs into the unchanged builder surface")
}

/// Writes the merged timeline, its per-worker splits, and the Chrome
/// trace into `dir`, re-validating every artifact before it lands.
fn write_obs_artifacts(dir: &str, merged: &RunTelemetry) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let doc = merged.to_json();
    validate_obs(&doc).map_err(|e| format!("merged: invalid orwl-obs/v1 artifact: {e}"))?;
    std::fs::write(format!("{dir}/merged.obs.json"), doc.pretty())
        .map_err(|e| format!("cannot write {dir}/merged.obs.json: {e}"))?;
    let trace = merged.chrome_trace();
    validate_chrome_trace(&trace).map_err(|e| format!("merged: invalid Chrome trace: {e}"))?;
    std::fs::write(format!("{dir}/merged.trace.json"), trace.pretty())
        .map_err(|e| format!("cannot write {dir}/merged.trace.json: {e}"))?;
    for (info, telemetry) in split_tracks(merged) {
        if info.track == 0 {
            continue; // the coordinator's own events stay in the merged doc
        }
        let doc = telemetry.to_json();
        validate_obs(&doc).map_err(|e| format!("{}: invalid orwl-obs/v1 artifact: {e}", info.label))?;
        std::fs::write(format!("{dir}/{}.obs.json", info.label), doc.pretty())
            .map_err(|e| format!("cannot write {dir}/{}.obs.json: {e}", info.label))?;
    }
    Ok(())
}

/// The `--live` text ticker: one line per interval delta with that
/// node's rates, plus straggler / recovery / completion flags.
fn live_ticker(event: &LiveEvent) {
    match event {
        LiveEvent::Heartbeat { .. } => {}
        LiveEvent::Delta { node, bytes, stats } => {
            let fabric: u64 = stats.fabric_bytes.iter().sum();
            println!(
                "[live] node{node} interval: {} events, {} grants, lock-wait {:.2} ms, fabric {} B ({} B streamed)",
                stats.events,
                stats.grants,
                stats.lock_wait_ns as f64 / 1e6,
                fabric,
                bytes,
            );
        }
        LiveEvent::Straggler { node, silent_for, missed } => {
            println!(
                "[live] node{node} straggler: silent for {:.0} ms (~{missed} heartbeat intervals missed)",
                silent_for.as_secs_f64() * 1e3,
            );
        }
        LiveEvent::Recovered { node } => println!("[live] node{node} recovered"),
        LiveEvent::Done { node } => println!("[live] node{node} done"),
    }
}

fn main() {
    orwl_proc::maybe_worker(); // worker re-entry point: must run first

    let mut n_nodes: usize = 2;
    let mut obs_dir: Option<String> = None;
    let mut live = false;
    let mut interval_ms: u64 = 100;
    let mut iters: Option<usize> = None;
    let mut kill: Option<(usize, u64)> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--obs-dir" => obs_dir = Some(it.next().expect("--obs-dir expects a directory")),
            "--live" => live = true,
            "--interval-ms" => {
                interval_ms =
                    it.next().and_then(|v| v.parse().ok()).expect("--interval-ms expects a positive integer")
            }
            "--iters" => {
                iters =
                    Some(it.next().and_then(|v| v.parse().ok()).expect("--iters expects a positive integer"))
            }
            "--kill" => {
                let spec = it.next().expect("--kill expects NODE:MS");
                let (node, ms) = spec.split_once(':').expect("--kill expects NODE:MS");
                kill = Some((
                    node.parse().expect("--kill node must be an integer"),
                    ms.parse().expect("--kill delay must be in milliseconds"),
                ));
            }
            other => {
                n_nodes =
                    other.parse().expect("expected a node count, --live, --kill NODE:MS, or --obs-dir DIR")
            }
        }
    }
    // Recovery rides the live monitor, so a chaos drill is a live run.
    let live = live || kill.is_some();
    let machine = ClusterMachine::paper(n_nodes);
    let tasks = 16 * n_nodes;
    // Live runs default to a longer schedule so the run genuinely spans
    // several heartbeat intervals — the point is watching it mid-flight.
    let iterations = iters.unwrap_or(if live { 3000 } else { 2 });
    let spec = ScenarioSpec::new(ScenarioFamily::DenseStencil, tasks, 1).with_phases(vec![iterations]);
    println!("{}", orwl_repro::banner());
    println!(
        "proc backend: {} worker processes x {} PUs, {} tasks ({})",
        n_nodes,
        machine.cluster().pus_per_node(),
        spec.n_tasks(),
        spec.name(),
    );
    println!(
        "{:<14} {:>22} {:>22} {:>12}",
        "policy", "measured inter-node B", "predicted inter-node B", "wall ms"
    );

    let mut measured_by_policy = Vec::new();
    for policy in [Policy::Hierarchical, Policy::Scatter] {
        let predicted = session(&machine, policy, ClusterBackend::new(machine.clone()), false)
            .run(spec.workload())
            .expect("the simulator prices the same sharding")
            .fabric
            .expect("cluster reports carry the fabric split")
            .inter_node_bytes;
        let observed = (obs_dir.is_some() || live) && policy == Policy::Hierarchical;
        let mut backend = ProcBackend::new(machine.clone());
        if live && observed {
            backend = backend
                .with_live(LiveConfig::new(Duration::from_millis(interval_ms)).with_on_event(live_ticker));
        }
        if let (Some((node, after_ms)), true) = (kill, observed) {
            backend =
                backend.with_faults(FaultPlan::new().with(Fault::Sigkill { node, after_ms })).with_recovery();
        }
        let report = session(&machine, policy, backend, observed)
            .run(spec.workload())
            .expect("the multi-process run completes");
        if let (Some((node, _)), true) = (kill, observed) {
            let merged = report.obs.as_ref().expect("observed runs carry telemetry");
            let count =
                |name: &str| merged.metrics.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
            let adapt = report.adapt.as_ref().expect("a recovered run carries an adapt report");
            println!(
                "[recover] node {node} lost: {} reshard(s), {} task(s) migrated onto {} survivor(s); run completed degraded",
                adapt.node_reshards,
                count("live.tasks_migrated"),
                n_nodes - count("live.node_losses") as usize,
            );
        }
        if live && observed {
            let merged = report.obs.as_ref().expect("observed runs carry telemetry");
            let count =
                |name: &str| merged.metrics.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
            println!(
                "[live] summary: {} heartbeats, {} deltas ({} B streamed), {} straggler flags, {} duplicate deltas",
                count("live.heartbeats"),
                count("live.deltas"),
                count("live.delta_bytes"),
                count("live.stragglers_flagged"),
                count("live.duplicate_deltas"),
            );
        }
        if obs_dir.is_some() && observed {
            let dir = obs_dir.as_deref().expect("observed implies a directory");
            let merged = report.obs.as_ref().expect("observed runs carry telemetry");
            write_obs_artifacts(dir, merged).expect("telemetry artifacts validate and write");
            println!(
                "wrote {dir}/merged.obs.json (+{} per-node splits, +merged.trace.json): {} events across {} tracks",
                merged.tracks.len() - 1,
                merged.events.len(),
                merged.tracks.len(),
            );
        }
        let fabric = report.fabric.expect("proc reports carry the fabric split");
        println!(
            "{:<14} {:>22.0} {:>22.0} {:>12.1}",
            format!("{policy:?}"),
            fabric.inter_node_bytes,
            predicted,
            report.time.seconds() * 1e3,
        );
        measured_by_policy.push(fabric.inter_node_bytes);
    }

    let (hier, scatter) = (measured_by_policy[0], measured_by_policy[1]);
    if kill.is_some() {
        // A degraded run re-ran adopted tasks from scratch on fewer
        // nodes; its traffic is not comparable to the fault-free scatter.
        println!("hierarchical ran degraded (node loss injected); traffic comparison skipped");
        return;
    }
    assert!(
        hier <= scatter,
        "hierarchical placement must move no more bytes across processes than scatter ({hier} vs {scatter})"
    );
    println!("hierarchical moves {:.1}% of scatter's inter-process traffic", 100.0 * hier / scatter.max(1.0));
}
