//! One multi-process session, as both proc workloads run it.

use super::{fnv1a, Checks, Outcome};
use crate::rusage::children_cpu_s;
use crate::span::Tracer;
use orwl_cluster::{policy_placement, ClusterBackend, ClusterMachine};
use orwl_core::session::{Report, Session};
use orwl_lab::ScenarioSpec;
use orwl_obs::ObsConfig;
use orwl_proc::ProcBackend;
use orwl_treematch::policies::Policy;
use std::time::{Duration, Instant};

/// Worker processes per session: this box's core count.  More would put
/// more processes than cores on the wire protocol's blocking reads.
pub const NODES: usize = 2;

/// The deadline of every blocking protocol step: a hung worker fails the
/// repeat in ten seconds instead of stalling the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What the harness keeps of one proc session.
pub struct ProcRun {
    pub report: Report,
    /// Wall seconds of `Session::run`: run phase plus control plane.
    pub run_wall_s: f64,
    /// CPU seconds of the session's worker processes, reaped by the pool.
    pub worker_cpu_s: f64,
}

impl ProcRun {
    pub fn inter_node_bytes(&self) -> f64 {
        self.report.fabric.map_or(f64::NAN, |f| f.inter_node_bytes)
    }

    /// Spawn, rendezvous and drain: everything of `Session::run` that is
    /// not the run phase the report clocks.
    pub fn control_plane_s(&self) -> f64 {
        self.run_wall_s - self.report.time.seconds()
    }
}

/// Builds machine, workload and session, and runs it on two worker
/// processes, with a span around each layer call.
pub fn run(
    spec: &ScenarioSpec,
    policy: Policy,
    tracer: &mut Tracer,
    observe: bool,
) -> Result<ProcRun, String> {
    let machine = tracer.span("cluster.machine_build", |_| ClusterMachine::paper(NODES));
    let workload = tracer.span("lab.scenario_compile", |_| spec.workload());
    let session = tracer.span("core.session_build", |_| {
        let builder = Session::builder()
            .topology(machine.topology().clone())
            .policy(policy)
            .control_threads(0)
            .backend(ProcBackend::new(machine.clone()).with_io_timeout(IO_TIMEOUT));
        if observe { builder.observe(ObsConfig::default()) } else { builder }.build()
    });
    let session = session.map_err(|e| format!("{}: {e}", spec.name()))?;
    let cpu_before = children_cpu_s();
    tracer.span("core.session_run", |t| {
        let start = Instant::now();
        let report = session.run(workload).map_err(|e| format!("{}: {e}", spec.name()))?;
        let run_wall_s = start.elapsed().as_secs_f64();
        t.split_open("proc.control_plane", "proc.run_phase", (report.time.seconds() * 1e9) as u64);
        Ok(ProcRun { report, run_wall_s, worker_cpu_s: children_cpu_s() - cpu_before })
    })
}

/// Inter-node bytes the cluster simulator predicts for the same session
/// configuration: the figure the measured bytes must equal.
pub fn predicted_inter_node_bytes(spec: &ScenarioSpec, policy: Policy) -> Result<f64, String> {
    let machine = ClusterMachine::paper(NODES);
    let report = Session::builder()
        .topology(machine.topology().clone())
        .policy(policy)
        .control_threads(0)
        .backend(ClusterBackend::new(machine))
        .build()
        .map_err(|e| e.to_string())?
        .run(spec.workload())
        .map_err(|e| e.to_string())?;
    report
        .fabric
        .map(|f| f.inter_node_bytes)
        .ok_or_else(|| "cluster report carries no fabric split".to_string())
}

/// Remote reads of one session: every positive off-diagonal matrix entry
/// whose two tasks the policy puts on different nodes is one read per
/// iteration.
pub fn remote_reads(spec: &ScenarioSpec, policy: Policy) -> f64 {
    let machine = ClusterMachine::paper(NODES);
    // Sharding comes from the first phase, as in the backend.
    let cp = policy_placement(&machine, policy, 0, 0, &spec.phase_matrix(0).symmetrized());
    let mut reads = 0usize;
    for (k, iterations) in spec.phase_iterations.iter().enumerate() {
        let m = spec.phase_matrix(k);
        let crossing = (0..m.order())
            .flat_map(|src| (0..m.order()).map(move |dst| (src, dst)))
            .filter(|&(src, dst)| src != dst && m.get(src, dst) > 0.0)
            .filter(|&(src, dst)| cp.node_of_task[src] != cp.node_of_task[dst])
            .count();
        reads += crossing * iterations;
    }
    reads as f64
}

/// The outcome of a repeat made of `runs` sessions; `reads` is the
/// stated remote-read count of one session.
pub fn session_outcome(runs: &mut [ProcRun], reads: f64) -> Outcome {
    let sessions = runs.len() as f64;
    let run_phase_s: f64 = runs.iter().map(|r| r.report.time.seconds()).sum();
    let control_s: f64 = runs.iter().map(ProcRun::control_plane_s).sum();
    Outcome {
        exact: vec![
            ("proc.inter_node_bytes", runs[0].inter_node_bytes()),
            ("proc.remote_reads", reads),
            (
                "harness.output_hash",
                fnv1a(runs.iter().flat_map(|r| r.inter_node_bytes().to_bits().to_le_bytes())),
            ),
        ],
        scaled: vec![
            ("proc.run_phase_ms", run_phase_s * 1e3),
            ("proc.control_plane_ms", control_s * 1e3),
            ("proc.remote_read_us", run_phase_s / (reads * sessions) * 1e6),
        ],
        cpu: vec![("proc.worker_cpu_s", runs.iter().map(|r| r.worker_cpu_s).sum::<f64>() / sessions)],
        ratios: vec![("proc.control_plane_frac", control_s / (run_phase_s + control_s))],
        telemetry: runs.iter_mut().filter_map(|r| r.report.obs.take()).collect(),
        ..Outcome::default()
    }
}

/// Measured bytes against the simulator's prediction, and the read count
/// the harness states against the one it derives from the placement.
pub fn verify_session(
    name: &str,
    spec: &ScenarioSpec,
    policy: Policy,
    latest: &Outcome,
    stated_reads: f64,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let measured = latest.exact("proc.inter_node_bytes").unwrap_or(f64::NAN);
    let predicted = predicted_inter_node_bytes(spec, policy);
    checks.check(predicted.as_ref().is_ok_and(|&p| p == measured), || {
        format!("{name}: measured inter-node bytes {measured}, ClusterBackend predicts {predicted:?}")
    });
    let derived = remote_reads(spec, policy);
    checks.check(derived == stated_reads, || {
        format!("{name}: {derived} remote reads derived, {stated_reads} stated")
    });
    vec![("cluster.predicted_inter_node_bytes", predicted.unwrap_or(f64::NAN))]
}

/// A spec as bytes: its name (family, tasks, seed), schedule and matrices.
pub fn spec_bytes(spec: &ScenarioSpec) -> Vec<u8> {
    let mut bytes = format!("{} {:?}", spec.name(), spec.phase_iterations).into_bytes();
    for m in spec.phase_matrices() {
        bytes.extend(m.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    }
    bytes
}
