//! # orwl-proc — multi-process cluster backend with the ORWL lock
//! protocol over the wire
//!
//! The other backends run in one address space (threads) or none at all
//! (discrete-event simulation).  This crate runs an ORWL program as
//! actual operating-system processes: a coordinator spawns one worker per
//! simulated cluster node, workers rendezvous over Unix-domain sockets,
//! and every remote ORWL section — request, FIFO grant, data payload,
//! release — travels as a versioned frame of the [`wire`] codec.  The
//! framing is plain length-prefixed bytes, so the same protocol runs over
//! TCP between real hosts; only the connect calls are socket-family
//! specific.
//!
//! The backend reuses the whole placement stack: node sharding comes from
//! [`orwl_cluster::policy_placement`] — the exact
//! function the cluster simulator uses, so `Policy::Hierarchical` lays
//! the same tasks on the same nodes in both worlds — and each worker
//! drives its local tasks through a real `orwl_core` session.  Reports
//! carry wall time, the plan's hop-bytes (identical to `ThreadBackend`
//! on the same communication matrix), and a
//! [`ClusterTraffic`] split whose inter-node component is *measured*
//! from transport accounting rather than modelled — the committed
//! `BENCH_proc_corr.json` artifact pins measured against predicted per
//! lab scenario family (see `corr`).
//!
//! Any binary or test harness that drives [`ProcBackend`] must call
//! [`maybe_worker`] as the first statement of `main` (or expose a test
//! named in [`ProcBackend::with_worker_args`]): workers are the current
//! executable re-exec'd with the worker-role environment.

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod assignment;
mod coordinator;
mod corr;
mod fault;
mod metrics;
pub mod transport;
pub mod wire;
mod worker;

pub(crate) use assignment::{Assignment, ReAssignment};
pub use coordinator::WorkerPool;
pub(crate) use coordinator::{Polled, WorkerFailure};
pub use corr::{corr_document, deterministic_view, validate_corr, CorrRow, CORR_TOLERANCE};
pub use fault::{Fault, FaultPlan};
pub(crate) use metrics::WorkerMetrics;
pub use worker::maybe_worker;

use crate::assignment::{ObsSpec, PhasePlan, ReadEdge};
use crate::wire::Message;
use orwl_cluster::{
    inter_node_bytes, policy_placement, reshard_after_node_loss, split_hop_bytes, ClusterMachine,
};
use orwl_core::error::{ConfigError, OrwlError};
use orwl_core::placement::PlacementPlan;
use orwl_core::runtime::AdaptReport;
use orwl_core::session::{ClusterTraffic, ExecutionBackend, Mode, Report, RunTime, SessionConfig, Workload};
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::json::Json;
use orwl_obs::merge::merge_run;
use orwl_obs::{
    fold_deltas, ClockKind, EventKind, FabricLane, IntervalStats, LiveAggregator, ObsConfig, Recorder,
    TelemetryDelta, TelemetrySnapshot,
};
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of live telemetry: while the run executes, every worker
/// streams a heartbeat and a telemetry frame per `interval`, and the
/// coordinator folds them into a [`LiveAggregator`], surfaces each
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

/// The coordinator-side live monitor: consumes streaming frames during
/// the done-wait, rebases telemetry frames onto the coordinator clock
/// (each carries its track's NTP-midpoint offset), aggregates them,
/// tracks per-node liveness and keeps every frame for the post-run fold.
struct LiveMonitor<'a> {
    cfg: &'a LiveConfig,
    aggregator: LiveAggregator,
    frames: Vec<Vec<TelemetryDelta>>,
    last_beat: Vec<Instant>,
    flagged: Vec<bool>,
    heartbeats: u64,
    delta_bytes: u64,
    stragglers_flagged: u64,
    node_losses: u64,
    reshards: u64,
    tasks_migrated: u64,
}

impl<'a> LiveMonitor<'a> {
    fn new(n_nodes: usize, cfg: &'a LiveConfig) -> LiveMonitor<'a> {
        LiveMonitor {
            cfg,
            aggregator: LiveAggregator::new(),
            frames: vec![Vec::new(); n_nodes],
            last_beat: vec![Instant::now(); n_nodes],
            flagged: vec![false; n_nodes],
            heartbeats: 0,
            delta_bytes: 0,
            stragglers_flagged: 0,
            node_losses: 0,
            reshards: 0,
            tasks_migrated: 0,
        }
    }

    fn emit(&self, event: &LiveEvent) {
        if let Some(observer) = &self.cfg.on_event {
            observer(event);
        }
    }

    fn heartbeat(&mut self, node: usize, seq: u64) {
        self.heartbeats += 1;
        self.last_beat[node] = Instant::now();
        if std::mem::take(&mut self.flagged[node]) {
            self.emit(&LiveEvent::Recovered { node });
        }
        self.emit(&LiveEvent::Heartbeat { node, seq });
    }

    fn delta(&mut self, node: usize, bytes: &[u8]) -> Result<(), String> {
        let delta = decode_telemetry(bytes)?;
        // Workers merge onto track node+1 (track 0 is the coordinator);
        // the aggregator's tracks use the same numbering.  A repeated
        // frame is counted there and goes no further.
        if let Some(stats) = self.aggregator.ingest(node as u32 + 1, &delta) {
            self.delta_bytes += bytes.len() as u64;
            self.frames[node].push(delta);
            self.emit(&LiveEvent::Delta { node, bytes: bytes.len(), stats });
        }
        Ok(())
    }

    fn done(&mut self, node: usize) {
        self.emit(&LiveEvent::Done { node });
    }

    /// Flags any not-yet-done node whose silence exceeds the budget; a
    /// node is flagged once per silence episode (a heartbeat clears it).
    fn check_stragglers(&mut self, done: &[bool]) {
        let budget = self.cfg.interval * self.cfg.straggler_intervals.max(1);
        for (node, &node_done) in done.iter().enumerate().take(self.flagged.len()) {
            if node_done || self.flagged[node] {
                continue;
            }
            let silent_for = self.last_beat[node].elapsed();
            if silent_for >= budget {
                self.flagged[node] = true;
                self.stragglers_flagged += 1;
                let missed = (silent_for.as_secs_f64() / self.cfg.interval.as_secs_f64()) as u64;
                self.emit(&LiveEvent::Straggler { node, silent_for, missed });
            }
        }
    }

    /// How long until [`LiveMonitor::check_stragglers`] could flag each
    /// of `running` (nodes already flagged have no flag left to raise).
    fn next_straggler_check<'s>(&'s self, running: &'s [usize]) -> impl Iterator<Item = Duration> + 's {
        let budget = self.cfg.interval * self.cfg.straggler_intervals.max(1);
        running
            .iter()
            .filter(|&&node| !self.flagged[node])
            .map(move |&node| budget.saturating_sub(self.last_beat[node].elapsed()))
    }

    /// Streams the run summary into the coordinator recorder's metrics,
    /// so the merged telemetry records that (and how much) the run was
    /// watched live.
    fn record_summary(&self, recorder: &Recorder) {
        let metrics = recorder.metrics();
        metrics.counter("live.heartbeats").add(self.heartbeats);
        metrics.counter("live.deltas").add(self.frames.iter().map(|f| f.len() as u64).sum());
        metrics.counter("live.delta_bytes").add(self.delta_bytes);
        metrics.counter("live.stragglers_flagged").add(self.stragglers_flagged);
        metrics.counter("live.duplicate_deltas").add(self.aggregator.duplicates());
        // Recovery counters appear only when a loss actually happened, so
        // a fault-free run's telemetry is identical to a build without
        // recovery enabled.
        if self.node_losses > 0 {
            metrics.counter("live.node_losses").add(self.node_losses);
            metrics.counter("live.reshards").add(self.reshards);
            metrics.counter("live.tasks_migrated").add(self.tasks_migrated);
        }
    }
}

/// Heartbeat silence after which failure-driven recovery
/// ([`ProcBackend::with_recovery`]) declares a node dead (capped by the
/// backend's io timeout).  Process exit and socket closure are confirmed
/// immediately; the budget only gates the silent-hang case.
const KILL_CONFIRMATION: Duration = Duration::from_secs(10);
/// Seed of the `NoBind` OS-spread placement model: the default of
/// [`ClusterBackend`](orwl_cluster::ClusterBackend), so the two backends
/// shard a `NoBind` session alike.
const NOBIND_SEED: u64 = 0xC0FFEE;
/// Node losses a recovering run adopts before it fails anyway.  A loss
/// *during* recovery is always fatal, whatever the budget says.
const MAX_NODE_LOSSES: usize = 1;

fn decode_telemetry(bytes: &[u8]) -> Result<TelemetryDelta, String> {
    TelemetryDelta::decode(bytes).map_err(|e| format!("bad telemetry frame: {e}"))
}

/// What the protocol's recovery machinery did, folded into the report's
/// [`AdaptReport`] when any re-shard happened.  (The per-episode task
/// counts travel as [`EventKind::Recovery`] events and `live.*` counters
/// instead.)
#[derive(Debug, Clone, Copy, Default)]
struct RecoverySummary {
    node_reshards: u64,
}

/// The coordinator's mutable recovery state across one run: the current
/// routing table (updated by every re-shard) and the casualty list.
struct RecoveryState {
    node_of_task: Vec<usize>,
    down: Vec<usize>,
    round: u32,
}

/// What a completed control protocol hands back: the wall-clocked
/// execution span, one metrics document per surviving worker, (observed
/// runs only) one telemetry snapshot per node that sent any frame, and
/// the recovery summary.
type ProtocolOutcome = (Duration, Vec<WorkerMetrics>, Vec<(u32, TelemetrySnapshot)>, RecoverySummary);

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
    /// silent for `KILL_CONFIRMATION`), the coordinator quiesces the
    /// survivors at their next iteration boundary, re-shards the lost
    /// node's tasks onto them ([`orwl_cluster::reshard_after_node_loss`] —
    /// only the affected shard moves) and resumes the run degraded; up to
    /// `MAX_NODE_LOSSES` losses are adopted.
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

    /// Builds each worker's assignment from the node sharding and the
    /// phase schedule: every positive off-diagonal matrix entry
    /// `m[src][dst]` becomes one read of that many bytes by task `dst`
    /// from task `src`'s location per iteration, filtered to the readers
    /// hosted on each node.  This is the same ordered-pair traversal the
    /// cluster simulator prices, which is what makes measured and
    /// predicted inter-node bytes comparable.
    fn assignments(
        &self,
        workload: &PhasedWorkload,
        node_of_task: &[usize],
        pool: &WorkerPool,
        recovering: bool,
    ) -> Vec<Assignment> {
        let cluster = self.machine.cluster();
        let n_nodes = cluster.n_nodes();
        let n_tasks = workload.n_tasks();
        let node_topo = cluster.node_topology();
        let levels: Vec<(String, usize)> = node_topo
            .level_spec()
            .iter()
            .map(|level| (level.obj_type.short_name().to_string(), level.count))
            .collect();
        let rack_of_node: Vec<usize> = (0..n_nodes).map(|k| cluster.rack_of_node(k)).collect();
        let peer_listen: Vec<String> =
            (0..n_nodes).map(|k| pool.peer_socket(k).to_string_lossy().into_owned()).collect();

        (0..n_nodes)
            .map(|node| Assignment {
                node,
                n_nodes,
                n_tasks,
                io_timeout_ms: self.io_timeout.as_millis() as u64,
                topo_name: node_topo.name().to_string(),
                levels: levels.clone(),
                rack_of_node: rack_of_node.clone(),
                node_of_task: node_of_task.to_vec(),
                listen: peer_listen[node].clone(),
                peer_listen: peer_listen.clone(),
                recovery: recovering,
                phases: workload
                    .phases
                    .iter()
                    .map(|phase| {
                        let m = phase.graph.comm_matrix();
                        let mut reads = Vec::new();
                        for src in 0..n_tasks {
                            for (dst, &dst_node) in node_of_task.iter().enumerate() {
                                let bytes = m.get(src, dst);
                                if src != dst && bytes > 0.0 && dst_node == node {
                                    reads.push(ReadEdge { reader: dst, src, bytes });
                                }
                            }
                        }
                        PhasePlan { iterations: phase.iterations, reads }
                    })
                    .collect(),
                obs: None, // stamped per node at send time when observed
            })
            .collect()
    }

    /// Drives the coordinator side of the control protocol to completion:
    /// handshake, assignments, synchronized start, the wall-clocked
    /// execution span, shutdown, one metrics document per worker, and
    /// (observed runs) the fold of every telemetry frame received.
    fn run_protocol(
        &self,
        mut pool: WorkerPool,
        workload: &PhasedWorkload,
        node_of_task: &[usize],
        observe: Option<&ObsConfig>,
        recorder: Option<&Recorder>,
    ) -> Result<ProtocolOutcome, WorkerFailure> {
        // Live streaming needs a worker recorder to drain, so the live
        // config takes effect only on observed runs.  Recovery in turn
        // needs the heartbeat stream as its liveness signal, so it takes
        // effect only on live runs.
        let live = self.live.as_ref().filter(|_| observe.is_some());
        let mut recovery = (live.is_some() && self.recovery).then(|| RecoveryState {
            node_of_task: node_of_task.to_vec(),
            down: Vec::new(),
            round: 0,
        });
        let mut assignments = self.assignments(workload, node_of_task, &pool, recovery.is_some());
        let n_nodes = assignments.len();
        pool.accept_controls()?;
        for (node, assignment) in assignments.iter_mut().enumerate() {
            // The obs spec is stamped per node at send time: it carries
            // the two coordinator-side handshake timestamps the worker
            // needs for its clock-offset estimate, and the send stamp
            // must be taken as late as possible.
            if let Some(cfg) = observe {
                let interval_ms = live.map_or(0, |live| (live.interval.as_millis() as u64).max(1));
                assignment.obs = Some(ObsSpec::new(
                    cfg,
                    pool.hello_recv_us(node),
                    orwl_obs::process_clock_us(),
                    interval_ms,
                ));
            }
            pool.send_to(node, &Message::Assignment { json: assignment.to_json().pretty() })?;
        }
        pool.recv_all("ready")?;
        let started = Instant::now();
        pool.broadcast(&Message::Start)?;
        let mut monitor = live.map(|cfg| LiveMonitor::new(n_nodes, cfg));
        match monitor.as_mut() {
            None => {
                pool.recv_all("done")?;
            }
            Some(monitor) => {
                self.monitor_run(&mut pool, monitor, n_nodes, workload, &mut recovery, recorder)?;
            }
        }
        let elapsed = started.elapsed();
        // Once every node has reported Done, every section anywhere has
        // been granted and released, so a worker that drains its recorder
        // after seeing Shutdown misses no owner-side events.  (Draining
        // at Done would race a slow peer's read storm against the drain.)
        // Each observed worker answers Shutdown with its final telemetry
        // frame(s) and then its Metrics, in that order on one stream.
        pool.broadcast(&Message::Shutdown)?;
        let mut metrics = Vec::with_capacity(n_nodes);
        for (node, message) in pool.recv_all("metrics")? {
            let Message::Metrics { json, .. } = message else {
                unreachable!("recv_all returns the requested kind");
            };
            let parsed = Json::parse(&json)
                .map_err(|e| format!("metrics document is not valid JSON: {e}"))
                .and_then(|doc| WorkerMetrics::from_json(&doc));
            match parsed {
                Ok(m) => metrics.push(m),
                Err(e) => return Err(pool.fail(Some(node), format!("bad metrics report: {e}"))),
            }
        }
        // Telemetry frames can race any protocol step (a worker's last
        // interval fires while its Done is in flight) and the final ones
        // always precede Metrics; `recv_all` stashed them all instead of
        // failing, so by now the stash completes every node's track.
        let mut frames = vec![Vec::new(); n_nodes];
        for (node, message) in pool.take_stray() {
            match (message, monitor.as_mut()) {
                (Message::Heartbeat { seq, .. }, Some(monitor)) => monitor.heartbeat(node, seq),
                (Message::TelemetryDelta { delta, .. }, Some(monitor)) => {
                    monitor.delta(node, &delta).map_err(|e| pool.fail(Some(node), e))?;
                }
                (Message::TelemetryDelta { delta, .. }, None) => {
                    frames[node].push(decode_telemetry(&delta).map_err(|e| pool.fail(Some(node), e))?);
                }
                // Only a live run's workers beat, and recv_all stashes
                // nothing else.
                _ => {}
            }
        }
        if let Some(monitor) = monitor {
            if let Some(recorder) = recorder {
                monitor.record_summary(recorder);
            }
            frames = monitor.frames;
        }
        // A node's telemetry is the concatenation of its frames — which
        // also makes whatever a lost node streamed before it died a
        // complete (if short) track of its own.
        let telemetry = frames
            .into_iter()
            .enumerate()
            .filter_map(|(node, frames)| Some((node as u32, fold_deltas(frames)?)))
            .collect();
        pool.wait_all()?;
        let summary = recovery
            .map(|state| RecoverySummary { node_reshards: state.down.len() as u64 })
            .unwrap_or_default();
        Ok((elapsed, metrics, telemetry, summary))
    }

    /// The live done-wait: one readiness wait over the control
    /// connections of every node still running
    /// ([`WorkerPool::poll_any`]), dispatching heartbeats and telemetry
    /// frames to the monitor as they stream in, until every node reports
    /// `Done`.  The wait's timeout is the time to the next thing the clock
    /// alone can cause — a straggler flag or a silence budget running out
    /// — so silence on one node never parks the coordinator past a check
    /// that is due, and a node with no control traffic for the whole io
    /// timeout (heartbeats reset the clock) fails the run.
    ///
    /// With recovery enabled, a confirmed loss (socket closed + process
    /// reaped, observed exit, or silence past the kill-confirmation
    /// budget) triggers [`ProcBackend::recover`] instead of failing,
    /// while the loss budget lasts.
    fn monitor_run(
        &self,
        pool: &mut WorkerPool,
        monitor: &mut LiveMonitor<'_>,
        n_nodes: usize,
        workload: &PhasedWorkload,
        recovery: &mut Option<RecoveryState>,
        recorder: Option<&Recorder>,
    ) -> Result<(), WorkerFailure> {
        let mut done = vec![false; n_nodes];
        let mut last_activity = vec![Instant::now(); n_nodes];
        loop {
            let running: Vec<usize> = (0..n_nodes).filter(|&n| !done[n] && !pool.is_dead(n)).collect();
            if running.is_empty() {
                return Ok(());
            }
            let can_recover = recovery.as_ref().is_some_and(|s| s.down.len() < MAX_NODE_LOSSES);
            let silence_budget =
                if can_recover { KILL_CONFIRMATION.min(self.io_timeout) } else { self.io_timeout };
            let next_check = running
                .iter()
                .map(|&node| silence_budget.saturating_sub(last_activity[node].elapsed()))
                .chain(monitor.next_straggler_check(&running))
                .min()
                .unwrap_or(silence_budget);
            let mut lost: Option<(usize, String)> = None;
            let polled = pool.poll_any(&running, next_check)?;
            let quiet = polled.is_none();
            match polled {
                Some((node, Polled::Message(message))) => {
                    last_activity[node] = Instant::now();
                    match message {
                        Message::Done { .. } => {
                            done[node] = true;
                            monitor.done(node);
                        }
                        Message::Heartbeat { seq, .. } => monitor.heartbeat(node, seq),
                        Message::TelemetryDelta { delta, .. } => {
                            monitor.delta(node, &delta).map_err(|e| pool.fail(Some(node), e))?;
                        }
                        other => {
                            return Err(pool.fail(Some(node), format!("expected done, got {}", other.name())));
                        }
                    }
                }
                Some((node, Polled::Lost(detail))) => lost = Some((node, detail)),
                Some((_, Polled::Silence)) | None => {}
            }
            // Loss is confirmed three ways, cheapest signal first: the
            // control socket closed under a read (above), the child
            // process is observably gone — looked at only once no
            // connection has anything left to say, so a dying worker's
            // last words are read before its exit status — or the node
            // stayed silent past the confirmation budget.
            for &node in &running {
                if lost.is_some() || done[node] {
                    continue;
                }
                let exited = if quiet { pool.worker_exited(node) } else { None };
                if let Some(status) = exited {
                    lost =
                        Some((node, format!("worker exited ({status}) while the coordinator awaited done")));
                } else if last_activity[node].elapsed() >= silence_budget {
                    if !can_recover {
                        return Err(pool.fail(
                            Some(node),
                            "timed out waiting for done (no heartbeat within the io timeout)",
                        ));
                    }
                    lost = Some((
                        node,
                        format!("no control traffic for {silence_budget:?} (the kill-confirmation budget)"),
                    ));
                }
            }
            if let Some((node, detail)) = lost {
                if !can_recover {
                    return Err(pool.fail_cascade(node, detail));
                }
                let state = recovery.as_mut().expect("can_recover implies recovery state");
                self.recover(
                    pool,
                    monitor,
                    state,
                    workload,
                    node,
                    &detail,
                    &mut done,
                    &mut last_activity,
                    recorder,
                )?;
            }
            let settled: Vec<bool> = (0..n_nodes).map(|n| done[n] || pool.is_dead(n)).collect();
            monitor.check_stragglers(&settled);
        }
    }

    /// One recovery episode: confirm the loss, quiesce the survivors at
    /// their next iteration boundary, re-shard the dead node's tasks onto
    /// them (only the affected shard moves), ship each survivor its
    /// [`ReAssignment`], and resume.  The quiesce/ack/ready/resume
    /// exchange is a barrier: no survivor computes while the routing
    /// table is inconsistent.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        pool: &mut WorkerPool,
        monitor: &mut LiveMonitor<'_>,
        state: &mut RecoveryState,
        workload: &PhasedWorkload,
        dead: usize,
        detail: &str,
        done: &mut [bool],
        last_activity: &mut [Instant],
        recorder: Option<&Recorder>,
    ) -> Result<(), WorkerFailure> {
        let n_nodes = done.len();
        let tasks_lost = state.node_of_task.iter().filter(|&&n| n == dead).count();
        // Confirm first: reap (or kill) the child and drop its control
        // connection, so nothing below can block on the dead node.
        let (_status, _stderr_tail) = pool.confirm_loss(dead);
        if let Some(recorder) = recorder {
            recorder.record(EventKind::NodeLoss { node: dead as u32, tasks_lost });
        }
        let alive: Vec<usize> = (0..n_nodes).filter(|&n| !pool.is_dead(n)).collect();
        if alive.is_empty() {
            return Err(
                pool.fail(Some(dead), format!("node lost with no survivors to re-shard onto ({detail})"))
            );
        }
        state.round += 1;
        let round = state.round;
        pool.broadcast(&Message::Quiesce { round })?;
        for &node in &alive {
            self.await_recovery_frame(pool, monitor, node, "quiesce_ack", round, done)?;
        }
        // The same shard-migration step the simulator and the unit tests
        // exercise: survivors keep their tasks, orphans follow their
        // traffic partners under the capacity bound.
        let m = workload.phases[0].graph.comm_matrix();
        let plan = reshard_after_node_loss(&self.machine, &m, &state.node_of_task, dead, &state.down);
        let n_tasks = state.node_of_task.len();
        for &node in &alive {
            let adopted: Vec<usize> =
                plan.migrated_tasks.iter().copied().filter(|&t| plan.node_of_task[t] == node).collect();
            let phases = workload
                .phases
                .iter()
                .map(|phase| {
                    let pm = phase.graph.comm_matrix();
                    let mut reads = Vec::new();
                    for src in 0..n_tasks {
                        for &dst in &adopted {
                            let bytes = pm.get(src, dst);
                            if src != dst && bytes > 0.0 {
                                reads.push(ReadEdge { reader: dst, src, bytes });
                            }
                        }
                    }
                    PhasePlan { iterations: phase.iterations, reads }
                })
                .collect();
            let reassign =
                ReAssignment { node, round, dead, node_of_task: plan.node_of_task.clone(), adopted, phases };
            pool.send_to(node, &Message::ReAssignment { json: reassign.to_json().pretty() })?;
        }
        for &node in &alive {
            self.await_recovery_frame(pool, monitor, node, "ready", round, done)?;
        }
        let migrated = plan.migrated_tasks.len();
        state.node_of_task = plan.node_of_task;
        state.down.push(dead);
        monitor.node_losses += 1;
        monitor.reshards += 1;
        monitor.tasks_migrated += migrated as u64;
        if let Some(recorder) = recorder {
            recorder.record(EventKind::Recovery { node: dead as u32, tasks_migrated: migrated });
        }
        pool.broadcast(&Message::Resume { round })?;
        // Survivors go back to work (possibly with adopted tasks), so
        // their done flags and silence clocks restart.
        for &node in &alive {
            done[node] = false;
            last_activity[node] = Instant::now();
        }
        Ok(())
    }

    /// Waits for one survivor's recovery frame (`quiesce_ack` or
    /// `ready`), dispatching the streaming frames that keep arriving in
    /// the meantime.  A `Done` here is the quiesce racing the worker's
    /// natural finish — recorded, not an error (the worker still acks).
    /// Any loss during recovery is fatal: the routing table is mid-flight
    /// and a second re-shard on top of it has no consistent base.
    fn await_recovery_frame(
        &self,
        pool: &mut WorkerPool,
        monitor: &mut LiveMonitor<'_>,
        node: usize,
        expect: &'static str,
        round: u32,
        done: &mut [bool],
    ) -> Result<(), WorkerFailure> {
        let deadline = Instant::now() + self.io_timeout;
        loop {
            match pool.poll_from_lossy(node, Duration::from_millis(50))? {
                Polled::Message(message) => match message {
                    Message::QuiesceAck { round: acked, .. } if expect == "quiesce_ack" => {
                        if acked != round {
                            return Err(pool.fail(
                                Some(node),
                                format!("quiesce_ack for round {acked}, expected round {round}"),
                            ));
                        }
                        return Ok(());
                    }
                    Message::Ready { .. } if expect == "ready" => return Ok(()),
                    Message::Done { .. } => {
                        done[node] = true;
                        monitor.done(node);
                    }
                    Message::Heartbeat { seq, .. } => monitor.heartbeat(node, seq),
                    Message::TelemetryDelta { delta, .. } => {
                        monitor.delta(node, &delta).map_err(|e| pool.fail(Some(node), e))?;
                    }
                    other => {
                        return Err(pool.fail(
                            Some(node),
                            format!("expected {expect} during recovery, got {}", other.name()),
                        ));
                    }
                },
                Polled::Silence => {
                    if pool.worker_exited(node).is_some() || Instant::now() >= deadline {
                        return Err(pool.fail_cascade(
                            node,
                            format!(
                                "worker lost while the coordinator awaited {expect} (recovery round {round})"
                            ),
                        ));
                    }
                }
                Polled::Lost(detail) => {
                    return Err(
                        pool.fail_cascade(node, format!("second node loss during recovery: {detail}"))
                    );
                }
            }
        }
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

        // The coordinator's recorder anchors the merged timeline's clock:
        // created before any worker spawns so every handshake and worker
        // event lands after its origin.
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
        let (elapsed, metrics, telemetry, recovery) = self
            .run_protocol(pool, &workload, &cp.node_of_task, config.observe.as_ref(), recorder.as_deref())
            .map_err(|f| OrwlError::WorkerFailed { node: f.node, detail: f.detail })?;

        let mut same_rack_bytes = 0u64;
        let mut cross_rack_bytes = 0u64;
        for m in &metrics {
            same_rack_bytes += m.same_rack_payload_bytes;
            cross_rack_bytes += m.cross_rack_payload_bytes;
        }
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
        // directly comparable across the two executors on one program.
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
            adapt: (recovery.node_reshards > 0)
                .then(|| AdaptReport { node_reshards: recovery.node_reshards, ..AdaptReport::default() }),
            thread: None,
            fabric: Some(ClusterTraffic {
                n_nodes: self.machine.n_nodes(),
                intra_node_hop_bytes: intra_hop_model,
                inter_node_hop_bytes: same_rack_bytes as f64 * hops_same_rack
                    + cross_rack_bytes as f64 * hops_cross_rack,
                inter_node_bytes: measured_inter_bytes,
            }),
            obs: recorder.map(|r| {
                let origin_us = r.origin_us() as f64;
                merge_run(r.finish(self.name()), origin_us, &telemetry)
            }),
        })
    }
}
