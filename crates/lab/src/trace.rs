//! Trace capture and replay: turn *monitored* runs into first-class
//! workloads.
//!
//! Synthetic drift (the rotated stencil) is a controlled experiment;
//! captured drift is the real thing.  This module records the per-epoch
//! communication matrices a monitored execution actually produced — from
//! the simulator's [`SimMonitor`] transfer hooks, or from the thread
//! runtime's [`AdaptiveController::on_flow`] lock-grant flows — into a
//! [`Trace`]:
//!
//! * a trace **replays** as a [`PhasedWorkload`] (one phase per epoch), so
//!   adaptive policies can be evaluated against captured rather than
//!   synthetic drift, on any simulator backend;
//! * a trace **round-trips through JSON** (sparse, sorted entries), so
//!   captured runs can be committed, diffed and replayed later;
//! * replaying a trace through the same machine and placement reproduces
//!   the originating run's hop-bytes (the `lab_trace_replay` integration
//!   test pins the error under 1%).

use crate::scenario::{ELEMENTS_PER_TASK, PRIVATE_BYTES_PER_TASK};
use orwl_adapt::driver::{Backend, PhasedModel};
use orwl_adapt::SimBackend;
use orwl_cluster::ClusterBackend;
use orwl_comm::matrix::CommMatrix;
use orwl_core::json::Json;
use orwl_core::placement::PlacementPlan;
use orwl_core::runtime::AdaptiveController;
use orwl_core::session::Mode;
use orwl_core::task::TaskSpec;
use orwl_core::{AccessMode, LocationId, TaskId};
use orwl_numasim::exec::SimMonitor;
use orwl_numasim::machine::SimMachine;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_numasim::workload::{Phase, PhasedWorkload};
use orwl_topo::topology::Topology;
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;
use std::sync::Mutex;

/// One monitoring epoch of a captured run: the bytes observed between two
/// epoch boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEpoch {
    /// Iterations (simulator) or epoch units (thread runtime) the matrix
    /// accumulates over.
    pub iterations: usize,
    /// Total bytes observed per task pair during the epoch.
    pub matrix: CommMatrix,
}

impl TraceEpoch {
    /// The per-iteration mean matrix of the epoch.
    #[must_use]
    pub fn mean_matrix(&self) -> CommMatrix {
        self.matrix.scaled(1.0 / self.iterations.max(1) as f64)
    }
}

/// A captured communication timeline: what the monitor saw, epoch by epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Number of tasks observed.
    pub n_tasks: usize,
    /// Free-form provenance label (scenario name, machine, policy…).
    pub source: String,
    /// The recorded epochs, in time order.
    pub epochs: Vec<TraceEpoch>,
}

impl Trace {
    /// Total bytes observed over the whole trace.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.epochs.iter().map(|e| e.matrix.total_volume()).sum()
    }

    /// Total iterations over the whole trace.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        self.epochs.iter().map(|e| e.iterations).sum()
    }

    /// Replays the trace as a phased workload: one phase per epoch, the
    /// task graph rebuilt from the epoch's per-iteration mean matrix.  The
    /// trace becomes a first-class citizen of the `Session` API — any
    /// simulator backend, any policy, any mode.
    #[must_use]
    pub fn to_workload(&self) -> PhasedWorkload {
        let phases = self
            .epochs
            .iter()
            .filter(|e| e.iterations > 0)
            .map(|e| Phase {
                graph: TaskGraph::from_matrix(&e.mean_matrix(), ELEMENTS_PER_TASK, PRIVATE_BYTES_PER_TASK),
                iterations: e.iterations,
            })
            .collect();
        PhasedWorkload { phases }
    }

    /// Serialises the trace (sparse entries, sorted by `(src, dst)` — the
    /// output is byte-reproducible).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("format", "orwl-lab-trace/v1")
            .push("n_tasks", self.n_tasks)
            .push("source", self.source.as_str());
        let epochs: Vec<Json> = self
            .epochs
            .iter()
            .map(|e| {
                let mut eo = Json::obj();
                let mut entries = Vec::new();
                e.matrix.for_each_nonzero(|src, dst, bytes| {
                    entries.push(Json::Arr(vec![
                        Json::Num(src as f64),
                        Json::Num(dst as f64),
                        Json::Num(bytes),
                    ]));
                });
                eo.push("iterations", e.iterations).push("entries", Json::Arr(entries));
                eo
            })
            .collect();
        o.push("epochs", Json::Arr(epochs));
        o
    }

    /// Rebuilds a trace from its JSON form (strict: unknown format strings
    /// and malformed entries are errors, not guesses).
    pub fn from_json(json: &Json) -> Result<Trace, String> {
        let format = json.get("format").and_then(Json::as_str).ok_or("missing format")?;
        if format != "orwl-lab-trace/v1" {
            return Err(format!("unsupported trace format {format:?}"));
        }
        let n_tasks = json.get("n_tasks").and_then(Json::as_f64).ok_or("missing n_tasks")? as usize;
        let source = json.get("source").and_then(Json::as_str).ok_or("missing source")?.to_string();
        let epochs = json
            .get("epochs")
            .and_then(Json::as_arr)
            .ok_or("missing epochs")?
            .iter()
            .map(|e| {
                let iterations =
                    e.get("iterations").and_then(Json::as_f64).ok_or("missing epoch iterations")? as usize;
                let mut matrix = CommMatrix::zeros(n_tasks);
                for entry in e.get("entries").and_then(Json::as_arr).ok_or("missing epoch entries")? {
                    let [src, dst, bytes] = entry.as_arr().ok_or("entry is not an array")? else {
                        return Err("entry is not a [src, dst, bytes] triple".to_string());
                    };
                    let (src, dst) = (
                        src.as_f64().ok_or("src is not a number")? as usize,
                        dst.as_f64().ok_or("dst is not a number")? as usize,
                    );
                    if src >= n_tasks || dst >= n_tasks {
                        return Err(format!("entry ({src}, {dst}) outside {n_tasks} tasks"));
                    }
                    matrix.set(src, dst, bytes.as_f64().ok_or("bytes is not a number")?);
                }
                Ok(TraceEpoch { iterations, matrix })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Trace { n_tasks, source, epochs })
    }
}

/// A [`SimMonitor`] that accumulates transfers into trace epochs.  Drive it
/// through [`capture_trace`], or roll epochs yourself for custom loops.
#[derive(Debug)]
pub struct TraceRecorder {
    current: CommMatrix,
    iterations: usize,
    epochs: Vec<TraceEpoch>,
}

impl TraceRecorder {
    /// A recorder for `n_tasks` tasks with an empty first epoch.
    #[must_use]
    pub(crate) fn new(n_tasks: usize) -> Self {
        TraceRecorder { current: CommMatrix::zeros(n_tasks), iterations: 0, epochs: Vec::new() }
    }

    /// Closes the current epoch (no-op when nothing was observed and no
    /// iteration ran).
    pub(crate) fn roll_epoch(&mut self) {
        if self.iterations == 0 && self.current.total_volume() == 0.0 {
            return;
        }
        let n = self.current.order();
        let matrix = std::mem::replace(&mut self.current, CommMatrix::zeros(n));
        self.epochs.push(TraceEpoch { iterations: self.iterations.max(1), matrix });
        self.iterations = 0;
    }

    /// Finishes the recording into a [`Trace`] labelled `source`.
    #[must_use]
    pub(crate) fn finish(mut self, source: impl Into<String>) -> Trace {
        self.roll_epoch();
        Trace { n_tasks: self.current.order(), source: source.into(), epochs: self.epochs }
    }
}

impl SimMonitor for TraceRecorder {
    fn on_transfer(&mut self, _iteration: usize, src: usize, dst: usize, bytes: f64) {
        self.current.add(src, dst, bytes);
    }

    fn on_iteration_end(&mut self, _iteration: usize, _elapsed: f64) {
        self.iterations += 1;
    }
}

/// A static run of `workload` on `backend` through the shared driver, its
/// phases cut every `epoch_iterations` iterations and each chunk recorded
/// as one trace epoch.
fn capture<M: PhasedModel>(
    backend: &Backend<M>,
    policy: Policy,
    workload: &PhasedWorkload,
    epoch_iterations: usize,
    label: &str,
) -> Trace {
    let mut recorder = TraceRecorder::new(workload.n_tasks());
    let mut run = backend.start(policy, 0, None);
    let chunk = epoch_iterations.max(1);
    backend.drive(&mut run, workload, &Mode::Static, chunk, &mut recorder, TraceRecorder::roll_epoch);
    recorder.finish(format!("{label}:{}:{}", backend.machine().topology().name(), policy.name()))
}

/// Captures a trace from a *static* monitored run on the single-node
/// simulator: `SimBackend` in static mode (the placement computed once from
/// the first phase), looked at every `epoch_iterations` iterations.
///
/// The returned trace replays through the same machine and policy to the
/// originating run's hop-bytes (pinned within 1% by the integration test).
#[must_use]
pub fn capture_trace(
    machine: &SimMachine,
    policy: Policy,
    workload: &PhasedWorkload,
    epoch_iterations: usize,
) -> Trace {
    capture(&SimBackend::new(machine.clone()), policy, workload, epoch_iterations, "sim")
}

/// Captures a trace from a *static* monitored run on the multi-node
/// cluster simulator — [`capture_trace`]'s sibling for
/// [`ClusterMachine`](orwl_cluster::ClusterMachine): `ClusterBackend` in
/// static mode (the two-level, or for flat policies flattened, placement
/// computed once from the first phase), looked at every `epoch_iterations`
/// iterations.
///
/// The returned trace replays through the same machine and policy to the
/// originating run's hop-bytes (pinned within 1% by the
/// `cluster_trace_replay` integration test).
#[must_use]
pub fn capture_cluster_trace(
    machine: &orwl_cluster::ClusterMachine,
    policy: Policy,
    workload: &PhasedWorkload,
    epoch_iterations: usize,
) -> Trace {
    capture(&ClusterBackend::new(machine.clone()), policy, workload, epoch_iterations, "cluster")
}

/// An [`AdaptiveController`] that records a thread run's flows into trace
/// epochs: every flow the runtime reports (a grant of a location to task
/// *t* moves its bytes from its last writer to *t*) charges a fixed
/// `bytes_per_access` to the pair, rows and columns numbered by program
/// task id.  Each epoch boundary of the run closes a trace epoch; nothing
/// is ever re-placed.
///
/// Hand it to a `Session` through
/// [`AdaptiveSpec::with_controller`](orwl_core::runtime::AdaptiveSpec::with_controller),
/// then [`finish`](AccessTraceRecorder::finish) it into a trace.
pub struct AccessTraceRecorder {
    recorder: Mutex<TraceRecorder>,
    bytes_per_access: f64,
}

impl AccessTraceRecorder {
    /// A recorder charging `bytes_per_access` per observed flow (the
    /// runtime reports grants, not byte counts).
    #[must_use]
    pub fn new(bytes_per_access: f64) -> Self {
        AccessTraceRecorder { recorder: Mutex::new(TraceRecorder::new(0)), bytes_per_access }
    }

    fn recorder(&self) -> std::sync::MutexGuard<'_, TraceRecorder> {
        self.recorder.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Finishes the recording of the last run into a [`Trace`] labelled
    /// `source` (epochs are recorded with `iterations == 1`: the thread
    /// runtime has no iteration counter, so an epoch is the unit).
    #[must_use]
    pub fn finish(&self, source: impl Into<String>) -> Trace {
        std::mem::replace(&mut *self.recorder(), TraceRecorder::new(0)).finish(source)
    }
}

impl AdaptiveController for AccessTraceRecorder {
    fn on_run_start(&self, specs: &[TaskSpec], _: &PlacementPlan, _: &Topology) {
        *self.recorder() = TraceRecorder::new(specs.len());
    }

    fn on_flow(&self, from: TaskId, to: TaskId, _: LocationId, _: AccessMode) {
        self.recorder().current.add(from.0, to.0, self.bytes_per_access);
    }

    fn on_epoch(&self, _: u64) -> Option<Placement> {
        self.recorder().roll_epoch();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioFamily, ScenarioSpec};
    use orwl_numasim::costmodel::CostParams;
    use orwl_topo::synthetic;

    fn machine() -> SimMachine {
        SimMachine::new(synthetic::cluster2016_subset(2).unwrap(), CostParams::cluster2016())
    }

    #[test]
    fn capture_records_every_iteration_and_phase() {
        let spec = ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, 42);
        let trace = capture_trace(&machine(), Policy::TreeMatch, &spec.workload(), 4);
        assert_eq!(trace.n_tasks, 16);
        assert_eq!(trace.total_iterations(), spec.total_iterations());
        // 12 + 28 iterations in epochs of 4.
        assert_eq!(trace.epochs.len(), 10);
        assert!(trace.total_bytes() > 0.0);
        assert!(trace.source.contains("treematch"));
        // Epoch means equal the phase matrices the workload declared.
        let w = spec.workload();
        let first = trace.epochs[0].mean_matrix();
        let last = trace.epochs.last().unwrap().mean_matrix();
        assert_eq!(first, w.phases[0].graph.comm_matrix());
        assert_eq!(last, w.phases[1].graph.comm_matrix());
    }

    #[test]
    fn capture_is_deterministic() {
        let spec = ScenarioSpec::new(ScenarioFamily::PowerLaw, 16, 9);
        let a = capture_trace(&machine(), Policy::TreeMatch, &spec.workload(), 5);
        let b = capture_trace(&machine(), Policy::TreeMatch, &spec.workload(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn replayed_workload_mirrors_the_trace() {
        let spec = ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, 42);
        let trace = capture_trace(&machine(), Policy::TreeMatch, &spec.workload(), 4);
        let replay = trace.to_workload();
        assert_eq!(replay.phases.len(), trace.epochs.len());
        assert_eq!(replay.total_iterations(), trace.total_iterations());
        assert_eq!(replay.n_tasks(), 16);
        // Per-phase traffic of the replay equals the captured bytes.
        for (phase, epoch) in replay.phases.iter().zip(&trace.epochs) {
            let replay_bytes = phase.graph.comm_matrix().total_volume() * phase.iterations as f64;
            assert!((replay_bytes - epoch.matrix.total_volume()).abs() < 1e-6);
        }
    }

    #[test]
    fn json_round_trip_preserves_the_trace() {
        let spec = ScenarioSpec::new(ScenarioFamily::DriftMix, 16, 3);
        let trace = capture_trace(&machine(), Policy::Packed, &spec.workload(), 10);
        let json = trace.to_json();
        let text = json.pretty();
        let parsed = Trace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, trace);
        // Serialisation is byte-stable.
        assert_eq!(text, parsed.to_json().pretty());
    }

    #[test]
    fn from_json_rejects_malformed_traces() {
        let trace = Trace { n_tasks: 2, source: "t".into(), epochs: vec![] };
        let mut json = trace.to_json();
        assert!(Trace::from_json(&json).is_ok());
        json.push("format", "other/v9"); // later duplicate key is ignored by get()
        let mut bad_format = Json::obj();
        bad_format.push("format", "other/v9");
        assert!(Trace::from_json(&bad_format).unwrap_err().contains("unsupported"));
        assert!(Trace::from_json(&Json::obj()).unwrap_err().contains("format"));
        // Entry outside the task range.
        let text = r#"{"format":"orwl-lab-trace/v1","n_tasks":2,"source":"x",
                       "epochs":[{"iterations":1,"entries":[[5,0,1.0]]}]}"#;
        let err = Trace::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }
}
