//! # orwl-proc — multi-process cluster backend with the ORWL lock
//! protocol over the wire
//!
//! The other backends run in one address space (threads) or none at all
//! (discrete-event simulation).  This crate runs an ORWL program as
//! actual operating-system processes: a coordinator spawns one worker per
//! simulated cluster node, workers rendezvous over Unix-domain sockets,
//! and every remote ORWL read travels as two versioned frames of the
//! [`wire`] codec: the request, and the FIFO grant carrying the data (the
//! owner closes the section as it copies the value out, so no release
//! crosses the wire).  All processes run on one host by design: they share
//! its monotonic clock, and their telemetry merges by a shift of origin.
//!
//! The backend reuses the whole placement stack: node sharding comes from
//! [`orwl_cluster::policy_placement`] — the exact
//! function the cluster simulator uses, so `Policy::Hierarchical` lays
//! the same tasks on the same nodes in both worlds — and each worker runs
//! its local tasks on real `orwl_core` locations, one thread per task,
//! solving no placement of its own.  Reports
//! carry wall time, the plan's hop-bytes (identical to `ThreadBackend`
//! on the same communication matrix, except for a static TreeMatch program
//! the thread runtime packs onto one PU: DESIGN.md, "Pack or spread"), and a
//! [`ClusterTraffic`] split whose inter-node component is *measured*
//! from the grant bytes the workers count rather than modelled — the
//! committed `BENCH_proc_corr.json` artifact pins measured against
//! predicted per lab scenario family (see `corr`).
//!
//! Any binary or test harness that drives [`ProcBackend`] must call
//! [`maybe_worker`] as the first statement of `main` (or expose a test
//! named in [`ProcBackend::with_worker_args`]): workers are the current
//! executable re-exec'd with the worker-role environment.

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod assignment;
mod control;
mod coordinator;
mod corr;
mod fault;
pub mod transport;
pub mod wire;
mod worker;

pub use coordinator::WorkerPool;
pub use corr::{corr_document, validate_corr, CorrRow, CORR_TOLERANCE};
pub use fault::{Fault, FaultPlan};
pub use worker::maybe_worker;

use crate::assignment::{read_plans, Assignment, ObsSpec};
use crate::control::{Budgets, ControlIo, Coordinator, Finished, Output};
use crate::coordinator::WorkerFailure;
use orwl_cluster::{inter_node_bytes, policy_placement, split_hop_bytes, ClusterMachine};
use orwl_core::error::{ConfigError, OrwlError};
use orwl_core::placement::PlacementPlan;
use orwl_core::runtime::AdaptReport;
use orwl_core::session::{ClusterTraffic, ExecutionBackend, Mode, Report, RunTime, SessionConfig, Workload};
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::merge::merge_run;
use orwl_obs::{fold_deltas, ClockKind, EventKind, FabricLane, IntervalStats, ObsConfig, Recorder};
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of live telemetry: while the run executes, every worker
/// streams a heartbeat and a telemetry frame per `interval`, and the
/// coordinator folds them into an [`orwl_obs::LiveAggregator`], surfaces each
/// arrival through `on_event`, and flags any node silent for more than
/// `straggler_intervals` intervals as a straggler — *before* the run's
/// recv deadline turns the silence into a hard failure.
///
/// Live streaming requires an observed run (`SessionConfig::observe`):
/// the frames are drained from the worker's recorder, so a dark run has
/// nothing to stream and the config is ignored.
#[derive(Clone)]
pub struct LiveConfig {
    /// Streaming interval: one heartbeat (plus one telemetry frame, when
    /// anything happened) per worker per interval.
    pub interval: Duration,
    /// Heartbeat intervals a node may miss before it is flagged.
    pub straggler_intervals: u32,
    /// Observer invoked on the coordinator thread for every live event.
    pub on_event: Option<LiveObserver>,
}

/// The live-event observer callback: invoked on the coordinator thread
/// for every [`LiveEvent`] as it arrives.
pub(crate) type LiveObserver = Arc<dyn Fn(&LiveEvent) + Send + Sync>;

impl LiveConfig {
    /// Streams on `interval`, flagging after 4 missed intervals.
    #[must_use]
    pub fn new(interval: Duration) -> Self {
        LiveConfig { interval, straggler_intervals: 4, on_event: None }
    }

    /// Replaces the missed-interval budget before a straggler flag.
    #[must_use]
    pub fn with_straggler_intervals(mut self, straggler_intervals: u32) -> Self {
        self.straggler_intervals = straggler_intervals;
        self
    }

    /// Installs the live-event observer (the `--live` ticker, a test's
    /// heartbeat counter, ...).
    #[must_use]
    pub fn with_on_event(mut self, on_event: impl Fn(&LiveEvent) + Send + Sync + 'static) -> Self {
        self.on_event = Some(Arc::new(on_event));
        self
    }
}

impl std::fmt::Debug for LiveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveConfig")
            .field("interval", &self.interval)
            .field("straggler_intervals", &self.straggler_intervals)
            .field("on_event", &self.on_event.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// One observation of the live monitor, as delivered to
/// [`LiveConfig::on_event`].
#[derive(Debug, Clone)]
pub enum LiveEvent {
    /// A worker's liveness beacon arrived.
    Heartbeat {
        /// The reporting node.
        node: usize,
        /// The worker's beat counter.
        seq: u64,
    },
    /// A worker's telemetry frame arrived and was folded into the
    /// aggregator.
    Delta {
        /// The reporting node.
        node: usize,
        /// Encoded size of the frame on the wire.
        bytes: usize,
        /// The frame's own rates: its cumulative metrics minus the
        /// previous frame's.
        stats: IntervalStats,
    },
    /// A node exceeded its missed-heartbeat budget — the typed warning
    /// that precedes the eventual `WorkerFailed` if the silence persists
    /// to the recv deadline.
    Straggler {
        /// The silent node.
        node: usize,
        /// How long the node has been silent.
        silent_for: Duration,
        /// Whole heartbeat intervals that silence spans.
        missed: u64,
    },
    /// A previously-flagged straggler resumed heartbeating.
    Recovered {
        /// The recovered node.
        node: usize,
    },
    /// A worker reported all local tasks finished.
    Done {
        /// The finishing node.
        node: usize,
    },
}

/// Seed of the `NoBind` OS-spread placement model: the default of
/// [`ClusterBackend`](orwl_cluster::ClusterBackend), so the two backends
/// shard a `NoBind` session alike.
const NOBIND_SEED: u64 = 0xC0FFEE;

/// The multi-process cluster executor as a `Session` backend: one OS
/// process per node of the wrapped [`ClusterMachine`], the ORWL lock
/// protocol over sockets between them.
#[derive(Debug, Clone)]
pub struct ProcBackend {
    machine: ClusterMachine,
    io_timeout: Duration,
    worker_args: Vec<String>,
    live: Option<LiveConfig>,
    faults: FaultPlan,
    recovery: bool,
}

impl ProcBackend {
    /// Wraps a cluster machine: one worker process per node.
    #[must_use]
    pub fn new(machine: ClusterMachine) -> Self {
        ProcBackend {
            machine,
            io_timeout: Duration::from_secs(30),
            worker_args: Vec::new(),
            live: None,
            faults: FaultPlan::new(),
            recovery: false,
        }
    }

    /// The paper's cluster shape with `n_nodes` nodes.
    #[must_use]
    pub fn paper(n_nodes: usize) -> Self {
        ProcBackend::new(ClusterMachine::paper(n_nodes))
    }

    /// Arguments appended when re-exec'ing the current binary as a
    /// worker.  Test harnesses must pin their worker-entry hook here
    /// (e.g. `["proc_worker_entry", "--exact", "--nocapture"]`) so the
    /// re-exec'd test binary runs only the hook instead of recursing
    /// into the whole suite.
    #[must_use]
    pub fn with_worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Installs a fault-injection plan: the typed chaos knob the
    /// robustness tests turn.  The plan ships to every worker through the
    /// `ENV_FAULTS` environment variable; each clause names the node it
    /// hits, so one plan describes the whole cluster's chaos.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables failure-driven recovery: when a worker is confirmed lost
    /// mid-run (its process exited, its control socket closed, or it stayed
    /// silent for the kill-confirmation budget), the coordinator quiesces the
    /// survivors at their next iteration boundary, re-shards the lost
    /// node's tasks onto them ([`orwl_cluster::reshard_after_node_loss`] —
    /// only the affected shard moves) and resumes the run degraded; one
    /// loss is adopted, a second fails the run.
    ///
    /// Takes effect only on live observed runs ([`ProcBackend::with_live`]
    /// and `SessionConfig::observe`): loss detection rides the heartbeat
    /// stream, so a dark run has no liveness signal to act on.
    #[must_use]
    pub fn with_recovery(mut self) -> Self {
        self.recovery = true;
        self
    }

    /// Replaces the deadline applied to every blocking protocol step.
    #[must_use]
    pub fn with_io_timeout(mut self, io_timeout: Duration) -> Self {
        self.io_timeout = io_timeout;
        self
    }

    /// Enables live telemetry on observed runs: workers stream heartbeats
    /// and telemetry frames on [`LiveConfig::interval`], the coordinator
    /// aggregates them mid-run and flags stragglers.  Ignored unless the
    /// session asks for observation (`SessionConfig::observe`), because
    /// the stream is drained from the run's recorder.
    #[must_use]
    pub fn with_live(mut self, live: LiveConfig) -> Self {
        self.live = Some(live);
        self
    }

    /// Drives the coordinator side of the control protocol to completion.
    /// The assignment documents are built here, where the socket paths
    /// are; every decision from the first `Hello` to the last exit is
    /// [`control::Coordinator`]'s, carried out by [`control::drive`] — the
    /// assignments, the synchronized start, the wall-clocked execution span,
    /// (live runs) the stream and its straggler flags, (recovering runs) the
    /// re-shard around a lost node, shutdown, the lane byte counters of every
    /// survivor, every telemetry frame received and the survivors' exits.
    fn run_protocol(
        &self,
        mut pool: WorkerPool,
        workload: &PhasedWorkload,
        node_of_task: &[usize],
        observe: Option<&ObsConfig>,
        recorder: Option<&Recorder>,
    ) -> Result<Finished, WorkerFailure> {
        // Live streaming needs a worker recorder to drain, so the live
        // config takes effect only on observed runs.  Recovery in turn
        // needs the heartbeat stream as its liveness signal, so it takes
        // effect only on live runs.
        let live = self.live.as_ref().filter(|_| observe.is_some());
        let budgets = Budgets::new(self.io_timeout, live, live.is_some() && self.recovery);
        let cluster = self.machine.cluster();
        let n_nodes = cluster.n_nodes();
        let rack_of_node: Vec<usize> = (0..n_nodes).map(|k| cluster.rack_of_node(k)).collect();
        let peer_listen: Vec<String> =
            (0..n_nodes).map(|k| pool.peer_socket(k).to_string_lossy().into_owned()).collect();
        let schedules = read_plans(workload, n_nodes, |task| Some(node_of_task[task]));
        let interval_ms = budgets.beat_interval.map_or(0, |interval| interval.as_millis() as u64);
        let mut assignments = Vec::with_capacity(n_nodes);
        for (node, phases) in schedules.into_iter().enumerate() {
            let assignment = Assignment {
                node,
                n_nodes,
                n_tasks: workload.n_tasks(),
                io_timeout_ms: self.io_timeout.as_millis() as u64,
                rack_of_node: rack_of_node.clone(),
                node_of_task: node_of_task.to_vec(),
                listen: peer_listen[node].clone(),
                peer_listen: peer_listen.clone(),
                recovery: budgets.recovery,
                phases,
                obs: observe.map(|cfg| ObsSpec::new(cfg, interval_ms)),
            };
            assignments.push(assignment.to_json().pretty());
        }
        let now = pool.now();
        let mut coordinator =
            Coordinator::new(&self.machine, workload, node_of_task, assignments, budgets, now);
        let observer = live.and_then(|live| live.on_event.as_ref());
        let finished =
            control::drive(&mut pool, &mut coordinator, |seen| match (seen, observer, recorder) {
                (Output::Live(event), Some(observer), _) => observer(&event),
                (Output::Record(kind), _, Some(recorder)) => recorder.record(kind),
                _ => {}
            })?;
        // The run summary goes into the coordinator recorder's metrics, so
        // the merged telemetry records that (and how much) the run was
        // watched live.
        if let (Some(_), Some(recorder)) = (live, recorder) {
            for &(name, value) in &finished.counters {
                recorder.metrics().counter(name).add(value);
            }
        }
        Ok(finished)
    }

    /// Tree hops a byte pays on each fabric lane of this machine, probed
    /// from representative cross-node PU pairs (constant per lane in the
    /// balanced trees the machines model): `(same_rack, cross_rack)`.
    fn lane_hops(&self) -> (f64, f64) {
        let cluster = self.machine.cluster();
        let per_node = cluster.pus_per_node();
        let mut same_rack = 0.0;
        let mut cross_rack = 0.0;
        for node in 1..cluster.n_nodes() {
            let hops = cluster.hop_distance(0, node * per_node) as f64;
            if cluster.rack_of_node(node) == cluster.rack_of_node(0) {
                same_rack = hops;
            } else {
                cross_rack = hops;
            }
        }
        (same_rack, cross_rack)
    }
}

impl ExecutionBackend for ProcBackend {
    fn name(&self) -> &'static str {
        "proc"
    }

    fn run(&self, config: &SessionConfig, workload: Workload) -> Result<Report, OrwlError> {
        if std::env::var(coordinator::ENV_ROLE).is_ok() {
            // A worker must never spawn grand-workers: reaching this
            // point means a harness forgot `maybe_worker()` or its
            // worker-args filter, and recursing would fork-bomb.
            return Err(OrwlError::WorkerFailed {
                node: 0,
                detail: "ProcBackend invoked inside a worker process (recursive spawn guard)".to_string(),
            });
        }
        let workload = config.phased_on(self.name(), self.machine.topology(), workload)?;
        if !matches!(config.mode, Mode::Static) {
            return Err(ConfigError::UnsupportedMode {
                backend: self.name().to_string(),
                mode: config.mode.name().to_string(),
            }
            .into());
        }

        // The coordinator's recorder is the merged timeline's origin:
        // created before any worker spawns, so every worker event lands
        // after it.
        let recorder = config.observe.map(|cfg| Recorder::new(ClockKind::Wall, cfg));

        // The same sharding step as the cluster simulator, from the same
        // symmetrized first-phase matrix — the keystone of sim-vs-real
        // comparability.
        let cp = policy_placement(
            &self.machine,
            config.policy,
            config.control_threads,
            NOBIND_SEED,
            &workload.phases[0].graph.comm_matrix().symmetrized(),
        );
        let mapping = cp.global_mapping(&self.machine);
        let cluster = self.machine.cluster();

        // Intra-node traffic never touches a socket (it stays inside one
        // worker's address space), so its hop-bytes and the same-node
        // telemetry lane come from the plan, exactly as the simulator
        // prices them; only the inter-node side is measured.
        let mut intra_hop_model = 0.0;
        let mut same_node_bytes_model = 0.0;
        for phase in &workload.phases {
            let m = phase.graph.comm_matrix();
            let iters = phase.iterations as f64;
            let (intra, _) = split_hop_bytes(cluster, &m, &mapping);
            intra_hop_model += iters * intra;
            let mut off_diagonal = 0.0;
            m.for_each_nonzero(|src, dst, volume| {
                if src != dst {
                    off_diagonal += volume;
                }
            });
            same_node_bytes_model += iters * (off_diagonal - inter_node_bytes(cluster, &m, &mapping));
        }

        let mut worker_env = Vec::new();
        if !self.faults.is_empty() {
            worker_env.push((fault::ENV_FAULTS.to_string(), self.faults.to_env_value()));
        }
        let pool = WorkerPool::spawn(cluster.n_nodes(), &self.worker_args, &worker_env, self.io_timeout)
            .map_err(|e| OrwlError::WorkerFailed { node: 0, detail: format!("spawning workers: {e}") })?;
        let Finished { elapsed, lane_bytes, frames, node_reshards, .. } = self
            .run_protocol(pool, &workload, &cp.node_of_task, config.observe.as_ref(), recorder.as_deref())
            .map_err(|f| OrwlError::WorkerFailed { node: f.node, detail: f.detail })?;
        // A node's telemetry is the concatenation of its frames — which
        // also makes whatever a lost node streamed before it died a
        // complete (if short) track of its own.
        let telemetry: Vec<_> = frames
            .into_iter()
            .enumerate()
            .filter_map(|(node, frames)| Some((node as u32, fold_deltas(frames)?)))
            .collect();

        let same_rack_bytes: u64 = lane_bytes.iter().map(|&(_, same, _)| same).sum();
        let cross_rack_bytes: u64 = lane_bytes.iter().map(|&(_, _, cross)| cross).sum();
        let measured_inter_bytes = (same_rack_bytes + cross_rack_bytes) as f64;
        let (hops_same_rack, hops_cross_rack) = self.lane_hops();

        if let Some(obs) = recorder.as_ref() {
            // The coordinator's own track carries the run-level fabric
            // summary; per-section lock telemetry arrives from the
            // workers as first-class events in their frames.
            for (lane, bytes) in [
                (FabricLane::SameNode, same_node_bytes_model),
                (FabricLane::SameRack, same_rack_bytes as f64),
                (FabricLane::CrossRack, cross_rack_bytes as f64),
            ] {
                if bytes > 0.0 {
                    obs.record(EventKind::FabricTransfer { lane, bytes });
                }
            }
        }

        // The plan mirrors `ThreadBackend`'s: raw first-phase matrix plus
        // the policy's compute placement, so `report.hop_bytes` is
        // directly comparable across the two executors on one program.  A
        // static TreeMatch thread run that packs its task threads onto one
        // PU reports the packed placement instead; this one never packs.
        let matrix = workload.phases[0].graph.comm_matrix();
        let placement = match config.policy {
            Policy::NoBind => Placement::unbound(matrix.order(), config.control_threads),
            _ => {
                let mut p = cp.placement;
                p.control = vec![None; config.control_threads];
                p
            }
        };
        let plan = PlacementPlan::new(config.policy, matrix, placement);
        let breakdown = plan.breakdown(&config.topology);
        let hop_bytes = plan.hop_bytes(&config.topology);
        Ok(Report {
            backend: self.name().to_string(),
            mode: config.mode.name(),
            time: RunTime::Wall(elapsed),
            plan,
            breakdown,
            hop_bytes,
            // Present only when a loss actually re-sharded something, so
            // fault-free reports stay byte-identical to builds without
            // recovery wired in.
            adapt: (node_reshards > 0).then(|| AdaptReport { node_reshards, ..AdaptReport::default() }),
            thread: None,
            fabric: Some(ClusterTraffic {
                n_nodes: self.machine.n_nodes(),
                intra_node_hop_bytes: intra_hop_model,
                inter_node_hop_bytes: same_rack_bytes as f64 * hops_same_rack
                    + cross_rack_bytes as f64 * hops_cross_rack,
                inter_node_bytes: measured_inter_bytes,
            }),
            obs: recorder.map(|r| merge_run(r.finish(self.name()), r.origin_us(), &telemetry)),
        })
    }
}
