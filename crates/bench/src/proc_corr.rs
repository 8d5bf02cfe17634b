//! The sim-vs-real correlation study (experiment E-proc): for a battery
//! of lab scenario families × placement policies × cluster sizes
//! (`CORR_NODE_SWEEP`), run the cluster *simulator* and the
//! *multi-process* backend over the same `policy_placement` sharding and
//! pin the simulator's predicted inter-node bytes against the bytes the
//! worker processes actually moved over their sockets.
//!
//! Both pipelines traverse the same ordered communication-matrix pairs
//! (every positive off-diagonal entry is one read per iteration), so the
//! two figures agree up to payload rounding — the committed
//! `BENCH_proc_corr.json` regenerating with every row inside
//! [`CORR_TOLERANCE`](orwl_proc::CORR_TOLERANCE) is the backend's
//! acceptance gate.  The document is byte-deterministic: payload sizes
//! are a pure function of the matrices and the placement, never of
//! timing, so the gate compares the whole document byte for byte.

use orwl_cluster::ClusterBackend;
use orwl_core::session::Session;
use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_obs::json::Json;
use orwl_proc::{corr_document, CorrRow, ProcBackend};
use orwl_treematch::policies::Policy;

/// Node counts of the correlation sweep: every (scenario, policy) cell
/// is measured at each cluster size, so the artifact shows the byte
/// columns exactly predictable at every number of worker processes.
pub(crate) const CORR_NODE_SWEEP: [usize; 3] = [2, 4, 8];
/// Tasks in every correlation run (beyond the 32 PUs of the two-node
/// machine, so placement must oversubscribe and split every family across
/// nodes).
pub(crate) const CORR_TASKS: usize = 36;
/// Iterations per phase (schedules keep each family's phase *count*).
pub(crate) const CORR_ITERATIONS: usize = 2;
/// Measured-backend repetitions per row: the byte figures must agree
/// across all repeats (they are deterministic).
pub(crate) const CORR_REPEATS: usize = 3;

/// The scenario battery: one spec per family, phase schedules shortened
/// to [`CORR_ITERATIONS`] per phase so a full run stays in CI budget.
#[must_use]
pub(crate) fn corr_scenarios() -> Vec<ScenarioSpec> {
    [
        ScenarioFamily::DenseStencil,
        ScenarioFamily::RotatedStencil,
        ScenarioFamily::Pipeline,
        ScenarioFamily::Shuffle,
        ScenarioFamily::Hotspot,
    ]
    .into_iter()
    .map(|family| {
        let spec = ScenarioSpec::new(family, CORR_TASKS, 1);
        let phases = vec![CORR_ITERATIONS; spec.phase_iterations.len()];
        spec.with_phases(phases)
    })
    .collect()
}

fn run_backend(
    spec: &ScenarioSpec,
    policy: Policy,
    backend: impl orwl_core::session::ExecutionBackend + 'static,
    topology: orwl_topo::topology::Topology,
) -> Result<f64, String> {
    let report = Session::builder()
        .topology(topology)
        .policy(policy)
        .control_threads(0)
        .backend(backend)
        .build()
        .map_err(|e| format!("{} ({policy:?}): {e}", spec.name()))?
        .run(spec.workload())
        .map_err(|e| format!("{} ({policy:?}): {e}", spec.name()))?;
    report
        .fabric
        .map(|f| f.inter_node_bytes)
        .ok_or_else(|| format!("{} ({policy:?}): report carries no fabric split", spec.name()))
}

/// Runs the full correlation battery and returns the artifact document.
///
/// `worker_args` is forwarded to [`ProcBackend::with_worker_args`]: empty
/// for standalone binaries whose `main` opens with
/// [`maybe_worker`](orwl_proc::maybe_worker), the worker-entry test
/// filter for test harnesses.
pub fn proc_correlation(worker_args: &[String]) -> Result<Json, String> {
    let mut rows = Vec::new();
    for spec in corr_scenarios() {
        for policy in [Policy::Hierarchical, Policy::Scatter] {
            for n_nodes in CORR_NODE_SWEEP {
                let machine = orwl_cluster::ClusterMachine::paper(n_nodes);
                let predicted = run_backend(
                    &spec,
                    policy,
                    ClusterBackend::new(machine.clone()),
                    machine.topology().clone(),
                )?;
                let mut measured = None;
                for _ in 0..CORR_REPEATS {
                    let bytes = run_backend(
                        &spec,
                        policy,
                        ProcBackend::new(machine.clone()).with_worker_args(worker_args.to_vec()),
                        machine.topology().clone(),
                    )?;
                    match measured {
                        None => measured = Some(bytes),
                        Some(first) if first != bytes => {
                            return Err(format!(
                                "{} ({policy:?}, {n_nodes} nodes): byte counts diverged across repeats: {first} vs {bytes}",
                                spec.name()
                            ));
                        }
                        Some(_) => {}
                    }
                }
                rows.push(CorrRow {
                    scenario: spec.name(),
                    policy: format!("{policy:?}").to_lowercase(),
                    n_nodes,
                    tasks: spec.n_tasks(),
                    predicted_inter_node_bytes: predicted,
                    measured_inter_node_bytes: measured.expect("at least one repeat ran"),
                });
            }
        }
    }
    Ok(corr_document(&rows))
}
