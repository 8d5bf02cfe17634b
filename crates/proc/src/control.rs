//! The coordinator's control protocol as one pure state machine
//! (DESIGN.md, "Process backend & wire protocol", has its phase × input
//! table).
//!
//! Everything the coordinator decides from the first `Hello` to the last
//! worker's exit is decided by [`Coordinator::step`]: a function of the
//! machine's state, one [`Input`] and the caller's `now` that appends its
//! decisions to a list of [`Output`]s.  It reads no clock, owns no socket
//! and spawns nothing, so the same code runs against real worker processes
//! and against the scripted peers of this module's tests, where a seeded
//! scheduler picks every arrival order and clock jump.
//!
//! A run walks `AwaitHello → AwaitReady → Running → (Quiescing →
//! Reassigning → Running)* → Draining → Exiting → Finished`; a failure is
//! absorbing.  In every phase each live node either still *owes* the
//! phase's answer or has given it, and the phase advances when nobody
//! owes.  A dark run, an observed run, a live run and a recovering run are
//! this one walk with fewer things enabled.

use crate::assignment::{read_plans, ReAssignment};
use crate::coordinator::WorkerFailure;
use crate::wire::Message;
use crate::{LiveConfig, LiveEvent};
use orwl_cluster::{reshard_after_node_loss, ClusterMachine};
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::{EventKind, LiveAggregator, TelemetryDelta};
use std::time::Duration;

/// Silence after which failure-driven recovery declares a node dead
/// (capped by the io timeout).  A closed socket or an observed exit is a
/// loss at once; the budget only gates the silent-hang case, where
/// adopting the tasks of a node that might still be alive would give them
/// two owners.
const KILL_CONFIRMATION: Duration = Duration::from_secs(10);
/// Node losses a recovering run adopts before it fails anyway.  A loss
/// *during* recovery is always fatal: the routing table is mid-flight and
/// a second re-shard on top of it has no consistent base.
const MAX_NODE_LOSSES: usize = 1;

/// The run's time limits and which of the optional planes are on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budgets {
    /// The silence budget of a node that owes an answer.
    io_timeout: Duration,
    /// The streaming interval exactly as shipped to the workers
    /// (`ObsSpec::stream_interval_ms`), on live runs: straggler budgets and
    /// missed-beat counts derive from it.
    pub(crate) beat_interval: Option<Duration>,
    /// Heartbeat intervals a node may miss before it is flagged.
    straggler_intervals: u32,
    /// Whether a confirmed node loss is re-sharded around.
    pub(crate) recovery: bool,
}

impl Budgets {
    /// The streaming interval is clamped here, once: workers stream on
    /// whole milliseconds, at least one, and the coordinator budgets
    /// stragglers with the interval it ships, not the one it was given.
    pub(crate) fn new(io_timeout: Duration, live: Option<&LiveConfig>, recovery: bool) -> Budgets {
        Budgets {
            io_timeout,
            beat_interval: live.map(|live| Duration::from_millis((live.interval.as_millis() as u64).max(1))),
            straggler_intervals: live.map_or(0, |live| live.straggler_intervals),
            recovery,
        }
    }
}

/// What the world did, as the driver observed it.
#[derive(Debug)]
pub(crate) enum Input {
    /// A whole frame arrived on `node`'s control connection; a new
    /// connection's first is the `Hello` that names its node.
    Frame { node: usize, message: Message },
    /// `node`'s control connection is gone; reported once.
    Lost { node: usize, detail: String },
    /// `node`'s process exited, with `status`, and nothing is left to read
    /// from its connection; reported once.
    Exited { node: usize, status: String, clean: bool },
    /// Nothing else is readable: compare the clocks.
    Tick,
}

/// What the machine decided; the driver carries it out in order.
#[derive(Debug)]
pub(crate) enum Output {
    /// A message for one node.
    Send(usize, Message),
    /// Kill, reap and disconnect the node: nothing may block on it again.
    ConfirmLoss(usize),
    Live(LiveEvent),
    /// An event for the coordinator's own telemetry track.
    Record(EventKind),
    /// The run is over.  `cascade`: the failure was seen on `node` but may
    /// be collateral damage of a peer's death (see [`root_cause`]).
    Fail {
        node: usize,
        detail: String,
        cascade: bool,
    },
    Finished(Finished),
}

/// What a completed protocol hands back.
#[derive(Debug)]
pub(crate) struct Finished {
    /// `Start` broadcast to last `Done`.
    pub elapsed: Duration,
    /// One `(node, same_rack, cross_rack)` grant-byte report per surviving
    /// node, in node order.
    pub lane_bytes: Vec<(usize, u64, u64)>,
    /// Per node, every telemetry frame it sent (a lost node's included),
    /// each exactly once.
    pub frames: Vec<Vec<TelemetryDelta>>,
    /// The `live.*` counters of the coordinator's track.
    pub counters: Vec<(&'static str, u64)>,
    /// Node losses re-sharded around.
    pub node_reshards: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    AwaitHello,
    AwaitReady,
    Running,
    Quiescing { round: u32, dead: usize },
    Reassigning { round: u32, dead: usize, migrated: usize },
    Draining,
    Exiting,
    Finished,
    Failed,
}

impl Phase {
    /// The answer every live node owes in this phase.
    fn awaits(self) -> &'static str {
        match self {
            Phase::AwaitHello => "hello",
            Phase::AwaitReady | Phase::Reassigning { .. } => "ready",
            Phase::Running => "done",
            Phase::Quiescing { .. } => "quiesce_ack",
            Phase::Draining => "metrics",
            Phase::Exiting => "exit",
            Phase::Finished | Phase::Failed => "nothing",
        }
    }
}

#[derive(Debug, Default)]
struct Node {
    /// The phase's answer is still outstanding.
    owes: bool,
    /// Written off by a confirmed loss.
    dead: bool,
    /// When its last frame of any kind arrived: the silence clock.
    heard: Duration,
    /// When its last heartbeat arrived: the straggler clock.
    beat: Duration,
    flagged: bool,
    frames: Vec<TelemetryDelta>,
    /// Its `Metrics` report: `(same_rack, cross_rack)` bytes.
    lane_bytes: Option<(u64, u64)>,
    /// Left with a clean exit after its `Metrics`.
    exited: bool,
}

/// The coordinator side of one run, from the first `Hello` to the last
/// worker's exit.
pub(crate) struct Coordinator<'a> {
    budgets: Budgets,
    machine: &'a ClusterMachine,
    workload: &'a PhasedWorkload,
    /// Each node's `Assignment` document, sent when the last `Hello` is in.
    assignments: Vec<String>,
    phase: Phase,
    nodes: Vec<Node>,
    /// The current routing table, rewritten by every re-shard.
    routing: Vec<usize>,
    /// Nodes lost and re-sharded around, in order.
    down: Vec<usize>,
    round: u32,
    started: Duration,
    elapsed: Duration,
    aggregator: LiveAggregator,
    heartbeats: u64,
    delta_bytes: u64,
    stragglers_flagged: u64,
    tasks_migrated: u64,
}

impl<'a> Coordinator<'a> {
    /// A machine whose workers were spawned by `now` and owe their `Hello`.
    pub(crate) fn new(
        machine: &'a ClusterMachine,
        workload: &'a PhasedWorkload,
        node_of_task: &[usize],
        assignments: Vec<String>,
        budgets: Budgets,
        now: Duration,
    ) -> Self {
        let mut coordinator = Coordinator {
            budgets,
            machine,
            workload,
            assignments,
            phase: Phase::AwaitHello,
            nodes: (0..machine.n_nodes()).map(|_| Node::default()).collect(),
            routing: node_of_task.to_vec(),
            down: Vec::new(),
            round: 0,
            started: now,
            elapsed: Duration::ZERO,
            aggregator: LiveAggregator::new(),
            heartbeats: 0,
            delta_bytes: 0,
            stragglers_flagged: 0,
            tasks_migrated: 0,
        };
        coordinator.enter(Phase::AwaitHello, now);
        coordinator
    }

    /// The deadline rule, stated once.  Every node that owes an answer has
    /// a *silence budget* — the io timeout; the kill-confirmation budget
    /// while its loss could still be recovered from — which any frame from
    /// it restarts, and so does entering a phase: silent past it, the node
    /// fails the run (or is written off and re-sharded around).  A live
    /// run adds one softer clock per running node, restarted by heartbeats
    /// only: silent past the straggler budget, the node is flagged — once
    /// per silence episode; its next heartbeat clears the flag.  Yields
    /// `(when, node, is the straggler clock)` for every clock running.
    fn clocks(&self) -> impl Iterator<Item = (Duration, usize, bool)> + '_ {
        let (silence, flag_after) = (self.silence_budget(), self.straggler_budget());
        self.owing().flat_map(move |(n, node)| {
            let flag = flag_after.filter(|_| !node.flagged).map(|budget| (node.beat + budget, n, true));
            [Some((node.heard + silence, n, false)), flag].into_iter().flatten()
        })
    }

    /// The next instant at which the clock alone can change anything;
    /// `None` once the run is over.
    pub(crate) fn deadline(&self) -> Option<Duration> {
        self.clocks().map(|(when, ..)| when).min()
    }

    /// Advances the machine by one input observed at `now`.
    pub(crate) fn step(&mut self, now: Duration, input: Input, out: &mut Vec<Output>) {
        if matches!(self.phase, Phase::Finished | Phase::Failed) {
            return;
        }
        match input {
            Input::Frame { node, message } => {
                self.nodes[node].heard = now;
                self.frame(now, node, message, out);
            }
            Input::Lost { node, detail } => self.lose(now, node, &detail, out),
            // A written-off node's exit is not a second loss.
            Input::Exited { node, .. } if self.nodes[node].dead => {}
            Input::Exited { node, status, clean } => self.exited(now, node, &status, clean, out),
            Input::Tick => self.tick(now, out),
        }
    }

    /// The one place a worker's frame is looked at.
    fn frame(&mut self, now: Duration, node: usize, message: Message, out: &mut Vec<Output>) {
        let (phase, owes) = (self.phase, self.nodes[node].owes);
        match (phase, message) {
            (_, Message::Heartbeat { seq, .. }) => {
                self.heartbeats += 1;
                self.nodes[node].beat = now;
                if std::mem::take(&mut self.nodes[node].flagged) {
                    out.push(Output::Live(LiveEvent::Recovered { node }));
                }
                out.push(Output::Live(LiveEvent::Heartbeat { node, seq }));
            }
            // Frames stream during a live run and close every observed one
            // (after `Shutdown`, before `Metrics`); whenever one arrives it
            // goes to the node's one store.  Workers merge onto track
            // node+1 (track 0 is the coordinator's); a repeated frame is
            // counted by the aggregator and goes no further.
            (_, Message::TelemetryDelta { delta, .. }) => match TelemetryDelta::decode(&delta) {
                Ok(frame) => {
                    if let Some(stats) = self.aggregator.ingest(node as u32 + 1, &frame) {
                        self.delta_bytes += delta.len() as u64;
                        self.nodes[node].frames.push(frame);
                        out.push(Output::Live(LiveEvent::Delta { node, bytes: delta.len(), stats }));
                    }
                }
                Err(e) => self.fail(node, format!("bad telemetry frame: {e}"), false, out),
            },
            // The worker chose to fail — most often over a peer's death.
            (_, Message::Error { message }) => {
                self.fail(node, format!("worker reported: {message}"), true, out);
            }
            (Phase::AwaitHello, Message::Hello { .. })
            | (Phase::AwaitReady | Phase::Reassigning { .. }, Message::Ready { .. })
                if owes =>
            {
                self.answered(now, node, out);
            }
            // In a recovery phase this is the worker's natural finish
            // racing the `Quiesce`: noted, and `Resume` restarts the round.
            (Phase::Running | Phase::Quiescing { .. } | Phase::Reassigning { .. }, Message::Done { .. })
                if owes || phase != Phase::Running =>
            {
                out.push(Output::Live(LiveEvent::Done { node }));
                if phase == Phase::Running {
                    self.answered(now, node, out);
                }
            }
            (Phase::Quiescing { round, .. }, Message::QuiesceAck { round: acked, .. }) if owes => {
                if acked == round {
                    self.answered(now, node, out);
                } else {
                    self.fail(
                        node,
                        format!("quiesce_ack for round {acked}, expected round {round}"),
                        false,
                        out,
                    );
                }
            }
            (Phase::Draining, Message::Metrics { same_rack_bytes, cross_rack_bytes, .. }) if owes => {
                self.nodes[node].lane_bytes = Some((same_rack_bytes, cross_rack_bytes));
                self.answered(now, node, out);
            }
            (phase, other) => {
                self.fail(node, format!("expected {}, got {}", phase.awaits(), other.name()), false, out);
            }
        }
    }

    /// `node` gave the phase's answer; the phase advances with the last one.
    fn answered(&mut self, now: Duration, node: usize, out: &mut Vec<Output>) {
        self.nodes[node].owes = false;
        if self.owing().next().is_some() {
            return;
        }
        match self.phase {
            Phase::AwaitHello => {
                for (node, json) in std::mem::take(&mut self.assignments).into_iter().enumerate() {
                    out.push(Output::Send(node, Message::Assignment { json }));
                }
                self.enter(Phase::AwaitReady, now);
            }
            Phase::AwaitReady => {
                self.started = now;
                self.nodes.iter_mut().for_each(|node| node.beat = now);
                self.broadcast(Message::Start, out);
                self.enter(Phase::Running, now);
            }
            // Once every node has reported Done, every section anywhere has
            // been granted and released, so a worker that drains its
            // recorder after seeing Shutdown misses no owner-side events.
            Phase::Running => {
                self.elapsed = now.saturating_sub(self.started);
                self.broadcast(Message::Shutdown, out);
                self.enter(Phase::Draining, now);
            }
            Phase::Quiescing { round, dead } => {
                let migrated = self.reshard(round, dead, out);
                self.enter(Phase::Reassigning { round, dead, migrated }, now);
            }
            Phase::Reassigning { round, dead, migrated } => {
                self.down.push(dead);
                self.tasks_migrated += migrated as u64;
                out.push(Output::Record(EventKind::Recovery { node: dead as u32, tasks_migrated: migrated }));
                self.broadcast(Message::Resume { round }, out);
                // Survivors go back to work, possibly with adopted tasks.
                self.enter(Phase::Running, now);
            }
            // A worker that left before the last report owes no exit.
            Phase::Draining => {
                self.enter(Phase::Exiting, now);
                if self.owing().next().is_none() {
                    self.finish(out);
                }
            }
            Phase::Exiting => self.finish(out),
            Phase::Finished | Phase::Failed => {}
        }
    }

    /// Every survivor is parked: re-home the dead node's tasks — the same
    /// shard-migration step the simulator takes; survivors keep theirs —
    /// and ship each survivor its routing table and adopted schedule.
    fn reshard(&mut self, round: u32, dead: usize, out: &mut Vec<Output>) -> usize {
        let m = self.workload.phases[0].graph.comm_matrix();
        let plan = reshard_after_node_loss(self.machine, &m, &self.routing, dead, &self.down);
        let mut adopter = vec![None; plan.node_of_task.len()];
        for &task in &plan.migrated_tasks {
            adopter[task] = Some(plan.node_of_task[task]);
        }
        let schedules = read_plans(self.workload, self.nodes.len(), |task| adopter[task]);
        for (node, phases) in schedules.into_iter().enumerate().filter(|(node, _)| !self.nodes[*node].dead) {
            let adopted = plan.migrated_tasks.iter().copied().filter(|&t| adopter[t] == Some(node)).collect();
            let document =
                ReAssignment { node, round, dead, node_of_task: plan.node_of_task.clone(), adopted, phases };
            out.push(Output::Send(node, Message::ReAssignment { json: document.to_json().pretty() }));
        }
        self.routing = plan.node_of_task;
        plan.migrated_tasks.len()
    }

    /// `node`'s process is gone: a loss before its `Metrics`; after, a clean
    /// exit is how it leaves and any other fails the run.
    fn exited(&mut self, now: Duration, node: usize, status: &str, clean: bool, out: &mut Vec<Output>) {
        if self.nodes[node].lane_bytes.is_none() {
            return self.lose(now, node, &format!("worker exited ({status})"), out);
        }
        if !clean {
            return self.fail(node, format!("worker exited with {status} after its metrics"), false, out);
        }
        self.nodes[node].exited = true;
        if self.nodes[node].owes {
            self.answered(now, node, out);
        }
    }

    /// `node` is gone — its socket closed, its process exited, or it kept
    /// silent past the kill-confirmation budget.
    fn lose(&mut self, now: Duration, node: usize, detail: &str, out: &mut Vec<Output>) {
        // A worker leaves by hanging up once its last frame is in.
        if self.nodes[node].lane_bytes.is_some() {
            return;
        }
        match self.phase {
            Phase::Running if self.can_recover() => {
                let tasks_lost = self.routing.iter().filter(|&&home| home == node).count();
                self.nodes[node].dead = true;
                // Nothing still queued in this batch goes to a lost node.
                out.retain(|output| !matches!(output, Output::Send(to, _) if *to == node));
                out.push(Output::ConfirmLoss(node));
                out.push(Output::Record(EventKind::NodeLoss { node: node as u32, tasks_lost }));
                if self.nodes.iter().all(|node| node.dead) {
                    let detail = format!("node lost with no survivors to re-shard onto ({detail})");
                    return self.fail(node, detail, false, out);
                }
                self.round += 1;
                self.broadcast(Message::Quiesce { round: self.round }, out);
                self.enter(Phase::Quiescing { round: self.round, dead: node }, now);
            }
            Phase::Quiescing { .. } | Phase::Reassigning { .. } => {
                self.fail(node, format!("second node loss during recovery: {detail}"), true, out);
            }
            phase => {
                self.fail(node, format!("{detail} (the coordinator awaited {})", phase.awaits()), true, out);
            }
        }
    }

    /// Every clock that has run out by `now` is acted on, silence first.
    fn tick(&mut self, now: Duration, out: &mut Vec<Output>) {
        let due: Vec<(usize, bool)> =
            self.clocks().filter(|(when, ..)| *when <= now).map(|(_, node, flag)| (node, flag)).collect();
        if let Some(&(node, _)) = due.iter().find(|(_, flag)| !flag) {
            let silence = self.silence_budget();
            return if self.phase == Phase::Running && self.can_recover() {
                let detail = format!("no control traffic for {silence:?} (the kill-confirmation budget)");
                self.lose(now, node, &detail, out);
            } else {
                let awaited = self.phase.awaits();
                let detail = format!("timed out waiting for {awaited}: no control traffic for {silence:?}");
                self.fail(node, detail, false, out);
            };
        }
        let interval = self.budgets.beat_interval.unwrap_or_default().as_secs_f64();
        for (node, _) in due {
            let silent_for = now.saturating_sub(self.nodes[node].beat);
            self.nodes[node].flagged = true;
            self.stragglers_flagged += 1;
            let missed = (silent_for.as_secs_f64() / interval) as u64;
            out.push(Output::Live(LiveEvent::Straggler { node, silent_for, missed }));
        }
    }

    /// To every node not written off.
    fn broadcast(&self, message: Message, out: &mut Vec<Output>) {
        let live = self.nodes.iter().enumerate().filter(|(_, node)| !node.dead);
        out.extend(live.map(|(node, _)| Output::Send(node, message.clone())));
    }

    fn enter(&mut self, phase: Phase, now: Duration) {
        self.phase = phase;
        for node in self.nodes.iter_mut().filter(|node| !node.dead) {
            node.owes = !node.exited;
            node.heard = now;
        }
    }

    fn fail(&mut self, node: usize, detail: String, cascade: bool, out: &mut Vec<Output>) {
        self.phase = Phase::Failed;
        self.nodes.iter_mut().for_each(|node| node.owes = false);
        // A failed run sends nothing more, not even what this batch queued.
        out.retain(|output| !matches!(output, Output::Send(..)));
        out.push(Output::Fail { node, detail, cascade });
    }

    fn finish(&mut self, out: &mut Vec<Output>) {
        self.phase = Phase::Finished;
        let frames: Vec<Vec<TelemetryDelta>> =
            self.nodes.iter_mut().map(|node| std::mem::take(&mut node.frames)).collect();
        let mut counters = vec![
            ("live.heartbeats", self.heartbeats),
            ("live.deltas", frames.iter().map(|f| f.len() as u64).sum()),
            ("live.delta_bytes", self.delta_bytes),
            ("live.stragglers_flagged", self.stragglers_flagged),
            ("live.duplicate_deltas", self.aggregator.duplicates()),
        ];
        // Recovery counters appear only when a loss actually happened, so
        // a fault-free run's telemetry is identical to a build without
        // recovery enabled.
        let node_reshards = self.down.len() as u64;
        if node_reshards > 0 {
            counters.extend([
                ("live.node_losses", node_reshards),
                ("live.reshards", node_reshards),
                ("live.tasks_migrated", self.tasks_migrated),
            ]);
        }
        out.push(Output::Finished(Finished {
            elapsed: self.elapsed,
            lane_bytes: self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(n, node)| node.lane_bytes.map(|(same, cross)| (n, same, cross)))
                .collect(),
            frames,
            counters,
            node_reshards,
        }));
    }

    /// The live nodes that still owe the phase's answer.
    fn owing(&self) -> impl Iterator<Item = (usize, &Node)> {
        self.nodes.iter().enumerate().filter(|(_, node)| node.owes && !node.dead)
    }

    fn can_recover(&self) -> bool {
        self.budgets.recovery && self.down.len() < MAX_NODE_LOSSES
    }

    fn silence_budget(&self) -> Duration {
        if self.phase == Phase::Running && self.can_recover() {
            KILL_CONFIRMATION.min(self.budgets.io_timeout)
        } else {
            self.budgets.io_timeout
        }
    }

    /// Heartbeat silence that flags a running node, on live runs.
    fn straggler_budget(&self) -> Option<Duration> {
        let interval = self.budgets.beat_interval.filter(|_| self.phase == Phase::Running)?;
        Some(interval * self.budgets.straggler_intervals.max(1))
    }
}

/// Among the failed children of a run — `(node, crashed)` each — the
/// likeliest root cause of a failure seen on `node`.  A worker that exits
/// 1 diagnosed its own failure and said so, most often a symptom of a
/// peer's death; one that died any other way (a signal, a panic) diagnosed
/// nothing and is the root cause wherever the failure was first seen.  So
/// a crash outranks an exit 1, and `node` outranks its peers.
pub(crate) fn root_cause(node: usize, failed: impl Iterator<Item = (usize, bool)>) -> Option<(usize, bool)> {
    failed.min_by_key(|&(n, crashed)| (!crashed, n != node))
}

/// The outside world as the driver needs it: the smallest seam a test can
/// fake.
pub(crate) trait ControlIo {
    /// Time on the clock every `now` and deadline of one run is read from.
    fn now(&self) -> Duration;
    /// The next thing a worker did, waiting up to `limit` for it; `None`
    /// when the time passes with nothing to report.  A zero limit reports
    /// only what has already happened.
    fn poll(&mut self, limit: Duration) -> Result<Option<Input>, WorkerFailure>;
    fn send(&mut self, node: usize, message: &Message) -> Result<(), WorkerFailure>;
    fn confirm_loss(&mut self, node: usize);
    /// Tears the run down and composes its typed failure.
    fn fail(&mut self, node: usize, detail: String, cascade: bool) -> WorkerFailure;
}

/// Runs `machine` against `io` to the end of the protocol: drain every
/// input that is already there, deliver one `Tick`, carry out the outputs
/// (`Live` and `Record` go to `notify`), wait for the next input or the
/// machine's deadline, whichever comes first.
pub(crate) fn drive(
    io: &mut impl ControlIo,
    machine: &mut Coordinator<'_>,
    mut notify: impl FnMut(Output),
) -> Result<Finished, WorkerFailure> {
    let mut out = Vec::new();
    let mut woken_by = None;
    loop {
        while let Some(ready) = match woken_by.take() {
            None => io.poll(Duration::ZERO)?,
            ready => ready,
        } {
            machine.step(io.now(), ready, &mut out);
        }
        machine.step(io.now(), Input::Tick, &mut out);
        for output in out.drain(..) {
            match output {
                Output::Send(node, message) => io.send(node, &message)?,
                Output::ConfirmLoss(node) => io.confirm_loss(node),
                Output::Fail { node, detail, cascade } => return Err(io.fail(node, detail, cascade)),
                Output::Finished(finished) => return Ok(finished),
                seen @ (Output::Live(_) | Output::Record(_)) => notify(seen),
            }
        }
        let deadline = machine.deadline().expect("a run that is not over has a node that owes an answer");
        woken_by = io.poll(deadline.saturating_sub(io.now()))?;
    }
}

#[cfg(test)]
mod tests {
    //! The second implementation of [`ControlIo`]: an in-memory world of
    //! scripted worker peers, per-node FIFO wires, a virtual clock and a
    //! seeded scheduler that picks every latency, every delivery order and
    //! every stall of the coordinator.  [`drive`] runs against it unchanged.
    //!
    //! The [`Script::healthy`] peer is the specification of the worker's
    //! half of the control protocol.

    use super::*;
    use orwl_obs::json::Json;
    use std::collections::VecDeque;
    use std::sync::OnceLock;

    const MS: Duration = Duration::from_millis(1);
    /// The virtual io timeout of the battery (and, being under
    /// `KILL_CONFIRMATION`, its kill-confirmation budget).
    const IO_TIMEOUT: Duration = Duration::from_secs(2);
    /// Mirrors of the pool's grace periods, as far as blame depends on them.
    const CASCADE_GRACE: Duration = Duration::from_millis(50);
    const MAX_STALL: Duration = Duration::from_millis(120);
    const MAX_LATENCY_US: u64 = 400;

    /// xorshift64*: the battery's only source of choice.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }

        fn micros(&mut self, max_us: u64) -> Duration {
            Duration::from_micros(self.below(max_us + 1))
        }
    }

    /// Where in its lifecycle a peer is when a fault strikes.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        /// Started, before `Hello`.
        Connect,
        /// Assigned, before `Ready`.
        Boot,
        /// Right after `Ready`.
        Ready,
        /// Halfway through a round's work.
        Work,
        /// Right after `Done`.
        Idle,
        /// On receiving `Quiesce`, instead of the ack.
        Quiesce,
        /// On receiving its `ReAssignment`, instead of `Ready`.
        Reassign,
        /// On receiving `Shutdown`, before any final frame.
        Shutdown,
        /// Right after `Metrics`, instead of the exit.
        Leave,
    }

    /// How a peer stops playing along (`fault.rs`'s faults, and the fake
    /// workers of `coordinator.rs`'s tests, as the coordinator sees them).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Death {
        /// Dies without a goodbye (a panic, a SIGKILL): the socket closes
        /// and the exit status is a crash.
        Crash,
        /// Stops (a SIGSTOP, a deadlock): nothing more is ever sent, the
        /// socket stays open and the process never exits.
        Hang,
        /// Diagnoses its own failure: an `Error` frame, then exit 1.
        ErrorExit,
        /// The process exits (status 3) but its connection neither closes
        /// nor speaks — a descriptor leaked to a grandchild.
        ExitSilently,
    }

    /// What one scripted peer does.
    #[derive(Debug, Clone)]
    struct Script {
        /// Compute time of the first round.
        work: Duration,
        /// `Fault::StallStreamer`: the first heartbeat is held back this long.
        stall: Duration,
        /// `Fault::DropHeartbeats`: the first beats are swallowed.
        drop_beats: u64,
        die: Option<(Step, Death)>,
        /// Acknowledges a quiesce with the wrong round.
        wrong_round_ack: bool,
        /// Sends every telemetry frame twice.
        repeat_frames: bool,
        /// Telemetry frames between `Shutdown` and `Metrics` (observed runs).
        final_frames: u64,
        /// Exit status after `Metrics` (`dies_after_metrics`: 7).
        exit_code: i32,
    }

    impl Script {
        /// The worker half of the protocol, as the coordinator may rely on
        /// it: `Hello` once connected; `Ready` once its `Assignment` is in
        /// and it is set up; after `Start`, one `Heartbeat` per
        /// interval (live runs) and a `TelemetryDelta` when anything
        /// happened, until `Shutdown`; `Done` when the round's work is
        /// finished; `Quiesce{r}` answered by `QuiesceAck{r}` from wherever
        /// the round stands (a `Done` may already be on the wire), the
        /// `ReAssignment{r}` by `Ready`, and `Resume{r}` by another round
        /// ending in `Done`; after `Shutdown` the final frames, then
        /// `Metrics`, then exit 0.
        fn healthy(work: Duration) -> Script {
            Script {
                work,
                stall: Duration::ZERO,
                drop_beats: 0,
                die: None,
                wrong_round_ack: false,
                repeat_frames: false,
                final_frames: 1,
                exit_code: 0,
            }
        }

        fn dying(work: Duration, step: Step, death: Death) -> Script {
            Script { die: Some((step, death)), ..Script::healthy(work) }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Timer {
        Hello,
        Ready,
        Done,
        Die(Death),
    }

    struct Peer {
        script: Script,
        /// Coordinator → peer, with arrival times.
        mailbox: VecDeque<(Duration, Message)>,
        timer: Option<(Duration, Timer)>,
        next_beat: Option<Duration>,
        beat_seq: u64,
        frame_seq: u64,
        /// Work left in the current round, kept across a quiesce.
        remaining: Duration,
        /// Dead, hung or exited: takes no further part.
        gone: bool,
        /// Said `Hello`: the coordinator holds its connection.
        connected: bool,
        /// Once the socket is closed, a send to it breaks.
        socket_closed: bool,
        /// When its exit status becomes reapable, and the status.
        exit: Option<(Duration, i32)>,
        exit_reported: bool,
        received: Vec<Message>,
        beats_sent: u64,
        frames_sent: Vec<u64>,
        frame_bytes: u64,
        repeats_sent: u64,
    }

    /// How one schedule is set up.
    #[derive(Debug, Clone)]
    struct Setup {
        seed: u64,
        observed: bool,
        live: Option<LiveConfig>,
        recovery: bool,
        /// Chance that the coordinator oversleeps a wake-up.
        stall_percent: u64,
        /// One scripted oversleep: at the first wake-up at or after `.0`,
        /// for `.1`.
        stall_at: Option<(Duration, Duration)>,
        /// Chance that a working peer reports a crashed peer's reset
        /// connection (`Error`, exit 1).
        symptom_percent: u64,
        /// The parent commit's order: one frame per wake-up, then the
        /// clocks.  Exists only here, to show what drain-then-tick fixes.
        frame_per_wake: bool,
    }

    impl Setup {
        fn new(seed: u64) -> Setup {
            Setup {
                seed,
                observed: false,
                live: None,
                recovery: false,
                stall_percent: 0,
                stall_at: None,
                symptom_percent: 0,
                frame_per_wake: false,
            }
        }

        fn live(self, interval: Duration, straggler_intervals: u32) -> Setup {
            let live = LiveConfig::new(interval).with_straggler_intervals(straggler_intervals);
            Setup { observed: true, live: Some(live), ..self }
        }

        fn budgets(&self) -> Budgets {
            Budgets::new(IO_TIMEOUT, self.live.as_ref(), self.recovery && self.live.is_some())
        }
    }

    struct World {
        setup: Setup,
        now: Duration,
        rng: Rng,
        peers: Vec<Peer>,
        /// Per node, what the coordinator will find on its connection:
        /// FIFO, each entry readable from its instant on.
        wire: Vec<VecDeque<(Duration, Input)>>,
        /// The coordinator's end of each connection is still open.
        open: Vec<bool>,
        beat: Option<Duration>,
        served_this_wake: usize,
        polls: usize,
        /// Every fault that struck, in order: `(node, step, death, when)`.
        struck: Vec<(usize, Step, Death, Duration)>,
        wrong_acks: Vec<usize>,
        confirmed: Vec<usize>,
        /// The inputs handed to the driver, in order, as `(node, kind)`.
        delivered: Vec<(usize, &'static str)>,
    }

    impl World {
        fn new(scripts: Vec<Script>, setup: Setup) -> World {
            let mut rng = Rng::new(setup.seed);
            let peers = scripts
                .into_iter()
                .map(|script| Peer {
                    remaining: script.work,
                    timer: Some((rng.micros(5_000), Timer::Hello)),
                    script,
                    mailbox: VecDeque::new(),
                    next_beat: None,
                    beat_seq: 0,
                    frame_seq: 0,
                    gone: false,
                    connected: false,
                    socket_closed: false,
                    exit: None,
                    exit_reported: false,
                    received: Vec::new(),
                    beats_sent: 0,
                    frames_sent: Vec::new(),
                    frame_bytes: 0,
                    repeats_sent: 0,
                })
                .collect::<Vec<_>>();
            let n = peers.len();
            World {
                beat: setup.budgets().beat_interval,
                setup,
                now: Duration::ZERO,
                rng,
                peers,
                wire: (0..n).map(|_| VecDeque::new()).collect(),
                open: vec![true; n],
                served_this_wake: 0,
                polls: 0,
                struck: Vec::new(),
                wrong_acks: Vec::new(),
                confirmed: Vec::new(),
                delivered: Vec::new(),
            }
        }

        /// Puts `input` on `node`'s wire, behind whatever is already there.
        fn emit(&mut self, node: usize, input: Input) {
            let arrives = self.now + self.rng.micros(MAX_LATENCY_US);
            let behind = self.wire[node].back().map_or(Duration::ZERO, |(at, _)| *at);
            self.wire[node].push_back((arrives.max(behind), input));
        }

        fn say(&mut self, node: usize, message: Message) {
            self.emit(node, Input::Frame { node, message });
        }

        /// The process ends: the kernel closes its socket, if it had one,
        /// and the status becomes reapable a moment later.
        fn exit(&mut self, node: usize, code: i32) {
            let reapable = self.now + self.rng.micros(10_000);
            let peer = &mut self.peers[node];
            (peer.gone, peer.socket_closed, peer.exit) = (true, true, Some((reapable, code)));
            if peer.connected {
                let detail = format!("worker exited (exit status: {code}) during the run");
                self.emit(node, Input::Lost { node, detail });
            }
        }

        fn die(&mut self, node: usize, step: Step, death: Death) {
            self.struck.push((node, step, death, self.now));
            match death {
                Death::Crash => {
                    self.exit(node, 101);
                    // A peer in the middle of a round may be reading from
                    // the node that just vanished.  On a recovering run it
                    // parks and waits for the quiesce; otherwise it reports
                    // the symptom and gives up.
                    for other in 0..self.peers.len() {
                        let working = matches!(self.peers[other].timer, Some((_, Timer::Done)));
                        let reports = !self.setup.recovery && self.rng.chance(self.setup.symptom_percent);
                        if other != node && working && !self.peers[other].gone && reports {
                            let message = format!("peer {node}: connection reset");
                            self.say(other, Message::Error { message });
                            self.exit(other, 1);
                        }
                    }
                }
                Death::Hang => self.peers[node].gone = true,
                // A worker that gives up before its assignment has said
                // `Hello` already.
                Death::ErrorExit => {
                    if !std::mem::replace(&mut self.peers[node].connected, true) {
                        self.say(node, Message::Hello { node: node as u32 });
                    }
                    self.say(node, Message::Error { message: "injected failure".to_string() });
                    self.exit(node, 1);
                }
                Death::ExitSilently => {
                    let peer = &mut self.peers[node];
                    (peer.gone, peer.exit) = (true, Some((self.now, 3)));
                }
            }
        }

        /// True (and the fault applied) when `node`'s script dies at `step`.
        fn dies_at(&mut self, node: usize, step: Step) -> bool {
            match self.peers[node].script.die {
                Some((at, death)) if at == step => {
                    self.die(node, step, death);
                    true
                }
                _ => false,
            }
        }

        fn telemetry(&mut self, node: usize) {
            let seq = self.peers[node].frame_seq;
            self.peers[node].frame_seq += 1;
            let frame = TelemetryDelta {
                seq,
                t_end_us: self.now.as_micros() as f64,
                events: vec![orwl_obs::ObsEvent {
                    ts_us: self.now.as_micros() as f64,
                    dur_us: 0.0,
                    seq,
                    tid: 0,
                    track: 0,
                    kind: EventKind::LockWait { location: node as u64, wait_ns: seq },
                }],
                ..TelemetryDelta::default()
            };
            let delta = frame.encode();
            self.peers[node].frames_sent.push(seq);
            self.peers[node].frame_bytes += delta.len() as u64;
            for _ in 0..=u64::from(self.peers[node].script.repeat_frames) {
                self.say(node, Message::TelemetryDelta { node: node as u32, delta: delta.clone() });
            }
            self.peers[node].repeats_sent += u64::from(self.peers[node].script.repeat_frames);
        }

        /// A round starts (or resumes): `Done` is due when its work is.
        fn work(&mut self, node: usize) {
            let remaining = self.peers[node].remaining;
            self.peers[node].timer = Some(match self.peers[node].script.die {
                Some((Step::Work, death)) => (self.now + remaining / 2, Timer::Die(death)),
                _ => (self.now + remaining, Timer::Done),
            });
        }

        fn receive(&mut self, node: usize, message: Message) {
            self.peers[node].received.push(message.clone());
            match message {
                Message::Assignment { json } => {
                    assert_eq!(json, assignment_of(node), "an assignment reaches the node it names");
                    self.peers[node].timer = Some((self.now + self.rng.micros(2_000), Timer::Ready));
                }
                Message::Start => {
                    self.work(node);
                    let stall = self.peers[node].script.stall;
                    self.peers[node].next_beat = self.beat.map(|interval| self.now + stall + interval);
                }
                Message::Quiesce { round } => {
                    if self.dies_at(node, Step::Quiesce) {
                        return;
                    }
                    // Park at the iteration boundary: what is left of the
                    // round waits for the resume.
                    if let Some((due, Timer::Done)) = self.peers[node].timer.take() {
                        self.peers[node].remaining = due.saturating_sub(self.now);
                    }
                    let wrong = self.peers[node].script.wrong_round_ack;
                    if wrong {
                        self.wrong_acks.push(node);
                    }
                    self.say(
                        node,
                        Message::QuiesceAck { node: node as u32, round: round + u32::from(wrong) },
                    );
                }
                Message::ReAssignment { json } => {
                    let document = Json::parse(&json).expect("the re-assignment is JSON");
                    let document = ReAssignment::from_json(&document).expect("the re-assignment is valid");
                    assert_eq!(document.node, node, "a re-assignment reaches the node it names");
                    if self.dies_at(node, Step::Reassign) {
                        return;
                    }
                    // Adopted tasks start from zero: more work.
                    self.peers[node].remaining += 2 * MS * document.adopted.len() as u32;
                    self.say(node, Message::Ready { node: node as u32 });
                }
                Message::Resume { .. } => self.work(node),
                Message::Shutdown => {
                    self.peers[node].next_beat = None;
                    if self.dies_at(node, Step::Shutdown) {
                        return;
                    }
                    if self.setup.observed {
                        for _ in 0..self.peers[node].script.final_frames {
                            self.telemetry(node);
                        }
                    }
                    let (_, same_rack_bytes, cross_rack_bytes) = report_of(node);
                    self.say(node, Message::Metrics { node: node as u32, same_rack_bytes, cross_rack_bytes });
                    if !self.dies_at(node, Step::Leave) {
                        self.exit(node, self.peers[node].script.exit_code);
                    }
                }
                other => panic!("seed {}: node {node} was sent {}", self.setup.seed, other.name()),
            }
        }

        /// When `node` next does something of its own accord.
        fn peer_event(&self, node: usize) -> Option<Duration> {
            let peer = &self.peers[node];
            let mail = peer.mailbox.front().map(|(at, _)| *at);
            let timer = peer.timer.map(|(at, _)| at);
            [mail, timer, peer.next_beat].into_iter().flatten().min().filter(|_| !peer.gone)
        }

        fn run_peer(&mut self, node: usize) {
            let at = self.peer_event(node).expect("only a peer with something to do is run");
            if self.peers[node].mailbox.front().is_some_and(|(due, _)| *due == at) {
                let (_, message) = self.peers[node].mailbox.pop_front().expect("just looked at");
                return self.receive(node, message);
            }
            if let Some((_, timer)) = self.peers[node].timer.filter(|(due, _)| *due == at) {
                self.peers[node].timer = None;
                return match timer {
                    Timer::Hello if self.dies_at(node, Step::Connect) => {}
                    Timer::Hello => {
                        self.peers[node].connected = true;
                        self.say(node, Message::Hello { node: node as u32 });
                    }
                    Timer::Ready if self.dies_at(node, Step::Boot) => {}
                    Timer::Ready => {
                        self.say(node, Message::Ready { node: node as u32 });
                        self.dies_at(node, Step::Ready);
                    }
                    Timer::Done => {
                        self.peers[node].remaining = Duration::ZERO;
                        self.say(node, Message::Done { node: node as u32 });
                        self.dies_at(node, Step::Idle);
                    }
                    Timer::Die(death) => self.die(node, Step::Work, death),
                };
            }
            let interval = self.beat.expect("only a live run's peers beat");
            let seq = self.peers[node].beat_seq;
            self.peers[node].beat_seq += 1;
            if seq >= self.peers[node].script.drop_beats {
                self.peers[node].beats_sent += 1;
                self.say(node, Message::Heartbeat { node: node as u32, seq });
            }
            if self.rng.chance(60) {
                self.telemetry(node);
            }
            let jitter = self.rng.micros(interval.as_micros() as u64 / 4);
            self.peers[node].next_beat = Some(at + interval + jitter);
        }

        /// An exit the coordinator can observe: the process is reapable,
        /// nothing is left to read from its connection, and it was not
        /// written off (a written-off process is killed and reaped unseen).
        fn reportable_exit(&self) -> Option<usize> {
            (0..self.peers.len()).find(|&node| {
                let reapable = self.peers[node].exit.is_some_and(|(at, _)| at <= self.now);
                let seen = self.peers[node].exit_reported || self.confirmed.contains(&node);
                reapable && !seen && self.wire[node].is_empty()
            })
        }

        /// When an exit that is not reapable yet will be.
        fn next_exit(&self) -> Option<Duration> {
            let pending = self.peers.iter().filter(|peer| !peer.exit_reported).filter_map(|peer| peer.exit);
            pending.map(|(at, _)| at).filter(|at| *at > self.now).min()
        }

        /// Lets the world run until `until`: peers act, frames land.
        fn run_until(&mut self, until: Duration) {
            loop {
                let next = (0..self.peers.len()).filter_map(|n| Some((self.peer_event(n)?, n))).min();
                match next.filter(|(at, _)| *at <= until) {
                    Some((at, node)) => {
                        self.now = self.now.max(at);
                        self.run_peer(node);
                    }
                    None => break self.now = until,
                }
            }
        }

        /// The next input that is readable now, from a node of the
        /// scheduler's choosing.
        fn take_readable(&mut self) -> Option<Input> {
            let readable: Vec<usize> = (0..self.wire.len())
                .filter(|&n| self.open[n] && self.wire[n].front().is_some_and(|(at, _)| *at <= self.now))
                .collect();
            let input = if readable.is_empty() {
                let node = self.reportable_exit()?;
                (self.open[node], self.peers[node].exit_reported) = (false, true);
                let code = self.peers[node].exit.map_or(0, |(_, code)| code);
                Input::Exited { node, status: format!("exit status: {code}"), clean: code == 0 }
            } else {
                let node = readable[self.rng.below(readable.len() as u64) as usize];
                let (_, input) = self.wire[node].pop_front().expect("just looked at");
                self.open[node] = !matches!(input, Input::Lost { .. });
                input
            };
            self.served_this_wake += 1;
            self.delivered.push(match &input {
                Input::Frame { node, message } => (*node, message.name()),
                Input::Lost { node, .. } => (*node, "lost"),
                Input::Exited { node, .. } => (*node, "exited"),
                Input::Tick => unreachable!("ticks are the driver's"),
            });
            Some(input)
        }

        /// When something next becomes readable, if the world is left alone.
        fn next_readable(&self) -> Option<Duration> {
            (0..self.wire.len()).filter(|&n| self.open[n]).filter_map(|n| Some(self.wire[n].front()?.0)).min()
        }
    }

    impl ControlIo for World {
        fn now(&self) -> Duration {
            self.now
        }

        fn poll(&mut self, limit: Duration) -> Result<Option<Input>, WorkerFailure> {
            self.polls += 1;
            assert!(self.polls < 400_000, "seed {}: the run is stuck at {:?}", self.setup.seed, self.now);
            if limit.is_zero() {
                let held_back = self.setup.frame_per_wake && self.served_this_wake > 0;
                return Ok(if held_back { None } else { self.take_readable() });
            }
            self.served_this_wake = 0;
            // The wake-up: the first readable input, or the limit.
            let wake = self.now + limit;
            loop {
                let ready =
                    self.next_readable().is_some_and(|at| at <= self.now) || self.reportable_exit().is_some();
                let peer = (0..self.peers.len()).filter_map(|n| self.peer_event(n)).min();
                let readable = self.next_readable().filter(|at| *at > self.now);
                let next = [peer, readable, self.next_exit()].into_iter().flatten().min();
                match next.filter(|at| *at <= wake) {
                    _ if ready => break,
                    Some(at) => self.run_until(at),
                    None => break self.run_until(wake),
                }
            }
            // The coordinator's thread may get the processor late: the
            // world goes on without it.
            let scripted = self.setup.stall_at.filter(|(at, _)| *at <= self.now).map(|(_, length)| length);
            if scripted.is_some() {
                self.setup.stall_at = None;
            }
            let random = self
                .rng
                .chance(self.setup.stall_percent)
                .then(|| self.rng.micros(MAX_STALL.as_micros() as u64));
            if let Some(length) = scripted.or(random) {
                self.run_until(self.now + length);
            }
            Ok(self.take_readable())
        }

        fn send(&mut self, node: usize, message: &Message) -> Result<(), WorkerFailure> {
            let seed = self.setup.seed;
            assert!(
                self.open[node],
                "seed {seed}: {} sent to node {node} after its end was seen",
                message.name()
            );
            if self.peers[node].socket_closed {
                return Err(ControlIo::fail(
                    self,
                    node,
                    "control send failed: broken pipe".to_string(),
                    false,
                ));
            }
            let arrives = self.now + self.rng.micros(MAX_LATENCY_US);
            let behind = self.peers[node].mailbox.back().map_or(Duration::ZERO, |(at, _)| *at);
            self.peers[node].mailbox.push_back((arrives.max(behind), message.clone()));
            Ok(())
        }

        fn confirm_loss(&mut self, node: usize) {
            self.confirmed.push(node);
            self.open[node] = false;
            self.wire[node].clear();
            self.peers[node].gone = true;
        }

        /// The pool's blame, as far as the machine's `cascade` flag and
        /// [`root_cause`] decide it: every failed child that is reapable
        /// within the grace is a candidate.
        fn fail(&mut self, node: usize, detail: String, cascade: bool) -> WorkerFailure {
            let failed =
                (0..self.peers.len()).filter(|n| *n == node || !self.confirmed.contains(n)).filter_map(|n| {
                    let (at, code) = self.peers[n].exit?;
                    (code != 0 && at <= self.now + CASCADE_GRACE).then_some((n, code != 1))
                });
            match root_cause(node, failed).filter(|_| cascade) {
                Some((root, _)) if root != node => WorkerFailure {
                    node: root,
                    detail: format!("worker exited during the run (a peer then saw: {detail})"),
                },
                _ => WorkerFailure { node, detail },
            }
        }
    }

    /// The `Assignment` document the machine is handed for `node`.
    fn assignment_of(node: usize) -> String {
        format!("{{\"node\":{node}}}")
    }

    /// The `Metrics` report of a scripted peer as the machine keeps it:
    /// grant bytes per lane, nonzero and different on every node.
    fn report_of(node: usize) -> (usize, u64, u64) {
        (node, 1_000 * (node as u64 + 1), 7 + node as u64)
    }

    /// The cluster machines and the workload every schedule runs on,
    /// built once: 12 tasks, two phases.
    fn machine(n_nodes: usize) -> &'static ClusterMachine {
        static MACHINES: OnceLock<Vec<ClusterMachine>> = OnceLock::new();
        &MACHINES.get_or_init(|| (1..=4).map(ClusterMachine::paper).collect())[n_nodes - 1]
    }

    fn workload() -> &'static PhasedWorkload {
        static WORKLOAD: OnceLock<PhasedWorkload> = OnceLock::new();
        WORKLOAD.get_or_init(|| {
            let (a, b) = orwl_comm::patterns::rotating_sweep_matrices(3, 4096.0, 512.0);
            let graph = |m| orwl_numasim::taskgraph::TaskGraph::from_matrix(m, 1024.0, 4096.0);
            PhasedWorkload {
                phases: vec![
                    orwl_numasim::workload::Phase { graph: graph(&a), iterations: 4 },
                    orwl_numasim::workload::Phase { graph: graph(&b), iterations: 3 },
                ],
            }
        })
    }

    /// Tasks dealt to nodes in contiguous blocks.
    fn routing(n_nodes: usize) -> Vec<usize> {
        let n_tasks = workload().n_tasks();
        (0..n_tasks).map(|task| task * n_nodes / n_tasks).collect()
    }

    /// One schedule, run to its end.
    struct Outcome {
        result: Result<Finished, WorkerFailure>,
        world: World,
        live: Vec<LiveEvent>,
        recorded: Vec<EventKind>,
        /// The machine's routing table when the run ended.
        routing: Vec<usize>,
    }

    fn run(scripts: Vec<Script>, setup: Setup) -> Outcome {
        let n_nodes = scripts.len();
        let budgets = setup.budgets();
        let mut world = World::new(scripts, setup);
        let assignments = (0..n_nodes).map(assignment_of).collect();
        let mut coordinator = Coordinator::new(
            machine(n_nodes),
            workload(),
            &routing(n_nodes),
            assignments,
            budgets,
            world.now(),
        );
        let (mut live, mut recorded) = (Vec::new(), Vec::new());
        let result = drive(&mut world, &mut coordinator, |seen| match seen {
            Output::Live(event) => live.push(event),
            Output::Record(kind) => recorded.push(kind),
            _ => unreachable!("the driver forwards only these"),
        });
        // (a) While the machine runs the driver insists on a deadline;
        // once it has given its verdict there is none left.
        assert!(result.is_err() || coordinator.deadline().is_none(), "a finished run has no deadline left");
        Outcome { result, world, live, recorded, routing: coordinator.routing }
    }

    impl Outcome {
        fn seed(&self) -> u64 {
            self.world.setup.seed
        }

        fn flagged(&self, node: usize) -> bool {
            self.live.iter().any(|event| matches!(event, LiveEvent::Straggler { node: n, .. } if *n == node))
        }

        fn counter(&self, finished: &Finished, name: &str) -> Option<u64> {
            finished.counters.iter().find(|(n, _)| *n == name).map(|(_, value)| *value)
        }

        /// (b) accounting: what a finished run hands back is exactly what
        /// the peers sent.
        fn check_accounting(&self, finished: &Finished) {
            let seed = self.seed();
            let survivors: Vec<usize> =
                (0..self.world.peers.len()).filter(|n| !self.world.confirmed.contains(n)).collect();
            let reports: Vec<(usize, u64, u64)> = survivors.iter().copied().map(report_of).collect();
            assert_eq!(
                finished.lane_bytes, reports,
                "seed {seed}: one metrics report per surviving node, in node order, its lane bytes kept"
            );
            for &node in &survivors {
                let peer = &self.world.peers[node];
                assert!(
                    peer.exit_reported && matches!(peer.exit, Some((_, 0))),
                    "seed {seed}: survivor {node} was seen leaving with exit 0"
                );
            }
            for (node, peer) in self.world.peers.iter().enumerate() {
                let stored: Vec<u64> = finished.frames[node].iter().map(|frame| frame.seq).collect();
                assert_eq!(
                    stored, peer.frames_sent,
                    "seed {seed}: node {node}'s frames, once each, in order"
                );
            }
            let peers = &self.world.peers;
            let total = |of: fn(&Peer) -> u64| Some(peers.iter().map(of).sum::<u64>());
            assert_eq!(self.counter(finished, "live.heartbeats"), total(|p| p.beats_sent), "seed {seed}");
            assert_eq!(
                self.counter(finished, "live.deltas"),
                total(|p| p.frames_sent.len() as u64),
                "seed {seed}"
            );
            assert_eq!(self.counter(finished, "live.delta_bytes"), total(|p| p.frame_bytes), "seed {seed}");
            assert_eq!(
                self.counter(finished, "live.duplicate_deltas"),
                total(|p| p.repeats_sent),
                "seed {seed}"
            );
            let flags = self.live.iter().filter(|e| matches!(e, LiveEvent::Straggler { .. })).count() as u64;
            assert_eq!(self.counter(finished, "live.stragglers_flagged"), Some(flags), "seed {seed}");
            let beats = self.live.iter().filter(|e| matches!(e, LiveEvent::Heartbeat { .. })).count() as u64;
            assert_eq!(Some(beats), total(|p| p.beats_sent), "seed {seed}: every beat was surfaced");
        }

        /// (d) recovery: the one loss of a finished run was re-sharded
        /// around by the book.
        fn check_recovery(&self, finished: &Finished) {
            let seed = self.seed();
            let &[dead] = &self.world.confirmed[..] else {
                panic!("seed {seed}: a finished run adopts at most one loss: {:?}", self.world.confirmed);
            };
            let n_nodes = self.world.peers.len();
            let before = routing(n_nodes);
            let m = workload().phases[0].graph.comm_matrix();
            let plan = reshard_after_node_loss(machine(n_nodes), &m, &before, dead, &[]);
            assert_eq!(self.routing, plan.node_of_task, "seed {seed}: the routing table is the re-shard's");
            let tasks_lost = before.iter().filter(|&&home| home == dead).count();
            let (node, migrated) = (dead as u32, plan.migrated_tasks.len());
            assert_eq!(
                self.recorded,
                [
                    EventKind::NodeLoss { node, tasks_lost },
                    EventKind::Recovery { node, tasks_migrated: migrated }
                ],
                "seed {seed}: the loss, then the recovery"
            );
            assert_eq!(finished.node_reshards, 1, "seed {seed}");
            assert_eq!(self.counter(finished, "live.node_losses"), Some(1), "seed {seed}");
            assert_eq!(self.counter(finished, "live.reshards"), Some(1), "seed {seed}");
            assert_eq!(self.counter(finished, "live.tasks_migrated"), Some(migrated as u64), "seed {seed}");
            for (survivor, peer) in self.world.peers.iter().enumerate().filter(|(n, _)| *n != dead) {
                let heard: Vec<&str> = peer.received.iter().map(Message::name).collect();
                assert_eq!(
                    heard,
                    ["assignment", "start", "quiesce", "reassignment", "resume", "shutdown"],
                    "seed {seed}: what survivor {survivor} was told"
                );
                assert!(
                    matches!(peer.received[2], Message::Quiesce { round: 1 })
                        && matches!(peer.received[4], Message::Resume { round: 1 }),
                    "seed {seed}: one round, numbered 1"
                );
                let Message::ReAssignment { json } = &peer.received[3] else { unreachable!() };
                let document = ReAssignment::from_json(&Json::parse(json).unwrap()).unwrap();
                assert_eq!((document.round, document.dead), (1, dead), "seed {seed}");
                assert_eq!(document.node_of_task, plan.node_of_task, "seed {seed}");
            }
        }

        /// The verdict every schedule must meet, whatever was scheduled:
        /// (a) it ended, in time; (b) a finished run accounts for every
        /// frame; (c) a failed one blames a node that a fault struck; (d) a
        /// recovered one went by the book.
        fn check(&self) {
            let seed = self.seed();
            let struck: Vec<usize> = self.world.struck.iter().map(|(node, ..)| *node).collect();
            // A worker that reported and then died on its way out
            // (`exit_code`) is a failed child like any other.
            let died_leaving = |n: &usize| self.world.peers[*n].exit.is_some_and(|(_, code)| code > 1);
            let faulty: Vec<usize> = (0..self.world.peers.len())
                .filter(|n| struck.contains(n) || self.world.wrong_acks.contains(n) || died_leaving(n))
                .collect();
            // (a) Nothing outlasts its work, or the fault that decided it,
            // by more than the silence budget (and a few stalls) — one
            // budget per hung node: a second one is found out only when it
            // next owes an answer.
            let work = self.world.peers.iter().map(|peer| peer.script.work).max().unwrap_or_default();
            let decided = self.world.struck.iter().map(|(.., at)| *at).max().unwrap_or_default();
            let hangs =
                self.world.struck.iter().filter(|(_, _, death, _)| *death == Death::Hang).count() as u32;
            let limit = work.max(decided) + IO_TIMEOUT * hangs.max(1) + Duration::from_secs(1);
            assert!(self.world.now <= limit, "seed {seed}: ended at {:?}, limit {limit:?}", self.world.now);
            match &self.result {
                Ok(finished) => {
                    assert!(self.world.wrong_acks.is_empty(), "seed {seed}: a wrong-round ack went through");
                    assert_eq!(
                        struck, self.world.confirmed,
                        "seed {seed}: every fault that struck was adopted"
                    );
                    self.check_accounting(finished);
                    if struck.is_empty() {
                        assert!(self.recorded.is_empty() && finished.node_reshards == 0, "seed {seed}");
                        assert_eq!(self.counter(finished, "live.node_losses"), None, "seed {seed}");
                    } else {
                        self.check_recovery(finished);
                    }
                }
                Err(failure) => {
                    assert!(!faulty.is_empty(), "seed {seed}: a healthy run failed: {failure:?}");
                    assert!(
                        faulty.contains(&failure.node),
                        "seed {seed}: blamed node {}, faults struck {faulty:?}: {}",
                        failure.node,
                        failure.detail
                    );
                }
            }
        }
    }

    /// A seeded schedule: node count, mode, scripts and faults all drawn
    /// from `seed`.
    fn schedule(seed: u64) -> (Vec<Script>, Setup) {
        let mut rng = Rng::new(seed ^ 0x5EED);
        let n_nodes = 1 + rng.below(4) as usize;
        let mut setup = Setup::new(seed);
        match rng.below(4) {
            0 => {}
            1 => setup.observed = true,
            mode => {
                setup = setup.live(MS * (5 + rng.below(16) as u32), 3 + rng.below(3) as u32);
                setup.recovery = mode == 3;
            }
        }
        setup.stall_percent = [0, 5, 25][rng.below(3) as usize];
        setup.symptom_percent = [0, 50, 100][rng.below(3) as usize];
        // Some live runs outlast the io timeout: a worker that streams can
        // never hit it.
        let long = if setup.live.is_some() && rng.chance(6) { IO_TIMEOUT + 100 * MS } else { Duration::ZERO };
        let mut scripts: Vec<Script> =
            (0..n_nodes).map(|_| Script::healthy(long + MS * (10 + rng.below(150) as u32))).collect();
        for script in &mut scripts {
            script.final_frames = rng.below(4);
            script.repeat_frames = rng.chance(10);
            script.exit_code = if rng.chance(5) { 7 } else { 0 };
        }
        // Half the recovering runs lose a node mid-run, so that recovery
        // meets every other choice made here.
        if setup.recovery && n_nodes > 1 && rng.chance(50) {
            let death = [Death::Crash, Death::Hang, Death::ExitSilently][rng.below(3) as usize];
            scripts[rng.below(n_nodes as u64) as usize].die = Some((Step::Work, death));
        }
        for _ in 0..[0, 0, 1, 1, 1, 2][rng.below(6) as usize] {
            let script = &mut scripts[rng.below(n_nodes as u64) as usize];
            let step = [
                Step::Connect,
                Step::Boot,
                Step::Ready,
                Step::Work,
                Step::Work,
                Step::Idle,
                Step::Quiesce,
                Step::Reassign,
                Step::Shutdown,
                Step::Leave,
            ][rng.below(10) as usize];
            let death = [Death::Crash, Death::Crash, Death::Hang, Death::ErrorExit, Death::ExitSilently]
                [rng.below(5) as usize];
            match rng.below(8) {
                0 => script.wrong_round_ack = true,
                1 => script.stall = MS * rng.below(200) as u32,
                2 => script.drop_beats = rng.below(12),
                _ => script.die = Some((step, death)),
            }
        }
        (scripts, setup)
    }

    /// True when nothing in the schedule keeps a node from beating on time.
    fn beats_throughout(script: &Script) -> bool {
        script.stall.is_zero() && script.drop_beats == 0 && !matches!(script.die, Some((_, Death::Hang)))
    }

    #[test]
    fn the_battery_every_schedule_ends_accounted_for_and_blames_the_node_that_failed() {
        const SCHEDULES: u64 = 3_000;
        let (mut finished, mut failed, mut recovered, mut inputs) = (0, 0, 0, 0);
        // Death before `Hello`, hang before `Hello`, a non-zero exit after
        // `Metrics`, a worker that lingers after `Metrics`.
        let mut at_the_ends = [0; 4];
        for seed in 0..SCHEDULES {
            let (scripts, setup) = schedule(seed);
            let outcome = run(scripts.clone(), setup);
            outcome.check();
            let struck = |step, deaths: &[Death]| {
                outcome.world.struck.iter().any(|&(_, s, death, _)| s == step && deaths.contains(&death))
            };
            let left_failing = outcome.world.peers.iter().any(|peer| {
                peer.received.contains(&Message::Shutdown) && peer.exit.is_some_and(|(_, code)| code != 0)
            });
            let ends = [
                struck(Step::Connect, &[Death::Crash, Death::ExitSilently]),
                struck(Step::Connect, &[Death::Hang]),
                left_failing,
                struck(Step::Leave, &[Death::Hang]),
            ];
            for (count, hit) in at_the_ends.iter_mut().zip(ends) {
                *count += u32::from(hit);
            }
            // (e) A node that beat throughout is never flagged, however
            // late the coordinator gets to look.
            for (node, _) in scripts.iter().enumerate().filter(|(_, script)| beats_throughout(script)) {
                assert!(!outcome.flagged(node), "seed {seed}: node {node} beat throughout and was flagged");
            }
            inputs += outcome.world.delivered.len();
            match &outcome.result {
                Ok(_) if outcome.world.confirmed.is_empty() => finished += 1,
                Ok(_) => recovered += 1,
                Err(_) => failed += 1,
            }
        }
        // The battery is only worth its time if it reaches every ending.
        assert!(finished > 500 && failed > 300 && recovered > 100, "{finished} / {failed} / {recovered}");
        assert!(at_the_ends.iter().all(|&n| n > 20), "faults at the handshake and the exit: {at_the_ends:?}");
        eprintln!(
            "battery: {finished} finished / {failed} failed / {recovered} recovered, {inputs} inputs; \
             {at_the_ends:?} died / hung before hello, left failing / lingered after metrics"
        );
        assert!(inputs > 50_000, "{inputs} inputs stepped");
    }

    #[test]
    fn the_same_seed_gives_the_same_run() {
        for seed in [3, 77, 1_205] {
            let (first, second) = (schedule(seed), schedule(seed));
            let (first, second) = (run(first.0, first.1), run(second.0, second.1));
            assert_eq!(first.world.delivered, second.world.delivered, "seed {seed}");
            assert_eq!(first.world.now, second.world.now, "seed {seed}");
            assert_eq!(first.result.is_ok(), second.result.is_ok(), "seed {seed}");
        }
    }

    /// Two healthy peers beating every 10 ms under a 30 ms straggler
    /// budget, and a coordinator that oversleeps by `stall` some 50 ms in.
    fn stalled_coordinator(stall: Duration, frame_per_wake: bool) -> Outcome {
        let mut setup = Setup::new(1).live(10 * MS, 3);
        setup.stall_at = Some((50 * MS, stall));
        setup.frame_per_wake = frame_per_wake;
        let outcome = run(vec![Script::healthy(200 * MS), Script::healthy(200 * MS)], setup);
        assert!(outcome.result.is_ok(), "a late coordinator is not a failure: {:?}", outcome.result);
        outcome
    }

    #[test]
    fn a_beat_that_was_sent_in_time_is_never_a_straggler_however_late_it_is_read() {
        // Every beat was enqueued inside the budget; the coordinator slept
        // past it.  Read one frame and then compare clocks — the parent
        // commit's order — and the node whose beat is still in the buffer
        // looks silent, is flagged, and "recovers" with the next read.
        let parent_order = stalled_coordinator(31 * MS, true);
        let flagged: Vec<&LiveEvent> =
            parent_order.live.iter().filter(|e| matches!(e, LiveEvent::Straggler { .. })).collect();
        let [LiveEvent::Straggler { node, silent_for, missed }] = flagged[..] else {
            panic!("one frame then the clocks flags exactly the unread node: {flagged:?}");
        };
        assert!(*silent_for >= 30 * MS && *missed >= 3, "flagged at {silent_for:?} ({missed} missed)");
        assert!(
            parent_order.live.iter().any(|e| matches!(e, LiveEvent::Recovered { node: n } if n == node)),
            "and the beat that was there all along clears the flag"
        );
        // Drain, then tick: the same schedule raises nothing.
        let drained = stalled_coordinator(31 * MS, false);
        assert!(!drained.flagged(0) && !drained.flagged(1), "{:?}", drained.live);
    }

    #[test]
    fn seeded_stalls_flag_healthy_nodes_only_under_the_parents_order() {
        let flags = |frame_per_wake: bool| -> usize {
            (0..200u64)
                .filter(|&seed| {
                    let mut setup = Setup::new(seed).live(10 * MS, 3);
                    setup.stall_percent = 10;
                    setup.frame_per_wake = frame_per_wake;
                    let scripts = vec![Script::healthy(300 * MS); 1 + (seed % 4) as usize];
                    let outcome = run(scripts, setup);
                    assert!(outcome.result.is_ok(), "seed {seed}: {:?}", outcome.result);
                    (0..outcome.world.peers.len()).any(|node| outcome.flagged(node))
                })
                .count()
        };
        assert!(flags(true) > 0, "the seed search reproduces the false positive");
        assert_eq!(flags(false), 0, "and drain-then-tick has none");
    }

    #[test]
    fn a_zero_interval_is_budgeted_as_the_millisecond_that_was_shipped() {
        let asked = Setup::new(9).live(Duration::ZERO, 4);
        assert_eq!(asked.budgets().beat_interval, Some(MS), "workers are told one millisecond");
        assert_eq!(Setup::new(9).live(Duration::from_micros(2_700), 4).budgets().beat_interval, Some(2 * MS));
        let healthy = run(vec![Script::healthy(40 * MS); 2], asked.clone());
        assert!(healthy.result.is_ok(), "{:?}", healthy.result);
        assert!(
            !healthy.flagged(0) && !healthy.flagged(1),
            "nobody is flagged at the first look: {:?}",
            healthy.live
        );
        // A node that really is silent for 4 ms is flagged with a count
        // that means something.
        let stalled = Script { stall: 20 * MS, ..Script::healthy(40 * MS) };
        let outcome = run(vec![Script::healthy(40 * MS), stalled], asked);
        let missed: Vec<u64> = outcome
            .live
            .iter()
            .filter_map(|e| match e {
                LiveEvent::Straggler { node: 1, missed, .. } => Some(*missed),
                _ => None,
            })
            .collect();
        assert!(!missed.is_empty() && missed.iter().all(|m| (4..100).contains(m)), "missed: {missed:?}");
        assert!(!outcome.flagged(0));
    }

    #[test]
    fn a_stalled_streamer_is_flagged_past_the_budget_and_recovers() {
        let stalled = Script { stall: 120 * MS, ..Script::healthy(400 * MS) };
        let outcome = run(vec![Script::healthy(400 * MS), stalled], Setup::new(4).live(10 * MS, 5));
        assert!(outcome.result.is_ok(), "a straggler flag is a warning, not a failure");
        let at = outcome.live.iter().position(|e| matches!(e, LiveEvent::Straggler { node: 1, .. })).unwrap();
        let LiveEvent::Straggler { silent_for, missed, .. } = &outcome.live[at] else { unreachable!() };
        assert!(
            *silent_for >= 50 * MS && *silent_for < IO_TIMEOUT && *missed >= 5,
            "{silent_for:?} / {missed}"
        );
        assert!(outcome.live[at..].iter().any(|e| matches!(e, LiveEvent::Recovered { node: 1 })));
        assert!(!outcome.flagged(0), "the node that beat throughout is never flagged");
    }

    #[test]
    fn one_loss_is_resharded_around_and_the_survivors_are_told_in_order() {
        for (seed, death) in [Death::Crash, Death::Hang, Death::ExitSilently].into_iter().enumerate() {
            let mut setup = Setup::new(seed as u64).live(10 * MS, 400);
            setup.recovery = true;
            let mut scripts = vec![Script::healthy(300 * MS); 4];
            scripts[2] = Script::dying(300 * MS, Step::Work, death);
            let outcome = run(scripts, setup);
            let finished = outcome.result.as_ref().unwrap_or_else(|e| panic!("{death:?}: {e:?}"));
            assert_eq!(outcome.world.confirmed, [2], "{death:?}");
            outcome.check_recovery(finished);
            outcome.check_accounting(finished);
        }
    }

    #[test]
    fn a_done_racing_the_quiesce_is_tolerated() {
        // Node 0 finishes while the quiesce for node 1's crash is on its
        // way: the Done lands in the recovery phase, is noted, and the
        // resumed round ends with another one.
        let hit = (0..300u64).filter(|&seed| {
            let mut setup = Setup::new(seed).live(10 * MS, 400);
            setup.recovery = true;
            let crash_at = 60 * MS;
            let scripts = vec![
                Script::healthy(crash_at / 2 + Duration::from_micros(200 + seed)),
                Script::dying(crash_at, Step::Work, Death::Crash),
                Script::healthy(200 * MS),
            ];
            let outcome = run(scripts, setup);
            let finished = outcome.result.as_ref().unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            outcome.check_recovery(finished);
            let lost = outcome.world.delivered.iter().position(|d| *d == (1, "lost")).unwrap();
            let dones: Vec<usize> = outcome
                .world
                .delivered
                .iter()
                .enumerate()
                .filter(|(_, d)| **d == (0, "done"))
                .map(|(i, _)| i)
                .collect();
            let acked = outcome.world.delivered.iter().position(|d| *d == (0, "quiesce_ack")).unwrap();
            dones.len() == 2 && lost < dones[0] && dones[0] < acked
        });
        assert!(hit.count() > 0, "no seed put a Done between the loss and the ack");
    }

    #[test]
    fn a_wrong_round_ack_and_a_second_loss_are_typed_failures() {
        let recovering = |seed| {
            let mut setup = Setup::new(seed).live(10 * MS, 400);
            setup.recovery = true;
            setup
        };
        let mut scripts = vec![Script::healthy(300 * MS); 3];
        scripts[0] = Script::dying(300 * MS, Step::Work, Death::Crash);
        scripts[2].wrong_round_ack = true;
        let failure = run(scripts, recovering(1)).result.expect_err("round 2 was never opened");
        assert_eq!(failure.node, 2);
        assert!(failure.detail.contains("quiesce_ack for round 2, expected round 1"), "{}", failure.detail);

        for step in [Step::Quiesce, Step::Reassign] {
            let mut scripts = vec![Script::healthy(300 * MS); 3];
            scripts[0] = Script::dying(300 * MS, Step::Work, Death::Crash);
            scripts[1] = Script::dying(300 * MS, step, Death::Crash);
            let outcome = run(scripts, recovering(2));
            let failure = outcome.result.as_ref().expect_err("a loss during recovery is fatal");
            assert_eq!(failure.node, 1, "{step:?}: {}", failure.detail);
            assert!(failure.detail.contains("second node loss during recovery"), "{}", failure.detail);
            assert_eq!(outcome.world.confirmed, [0], "only the first loss was adopted");
        }

        // The loss budget is one: a later loss fails the run like any
        // unrecoverable one.
        let mut scripts = vec![Script::healthy(100 * MS); 3];
        scripts[0] = Script::dying(100 * MS, Step::Work, Death::Crash);
        scripts[1] = Script::dying(800 * MS, Step::Work, Death::Crash);
        let failure = run(scripts, recovering(3)).result.expect_err("the budget is spent");
        assert_eq!(failure.node, 1, "{}", failure.detail);
        assert!(failure.detail.contains("the coordinator awaited done"), "{}", failure.detail);
    }

    #[test]
    fn a_crash_behind_a_symptom_takes_the_blame_whichever_is_seen_first() {
        // `crash_behind_a_symptom`: node 0 dies; node 1, reading from it,
        // reports the reset connection and exits 1.
        let mut symptom_first = 0;
        for seed in 0..60 {
            let mut setup = Setup::new(seed);
            setup.symptom_percent = 100;
            let scripts = vec![Script::dying(80 * MS, Step::Work, Death::Crash), Script::healthy(200 * MS)];
            let outcome = run(scripts, setup);
            let failure = outcome.result.as_ref().expect_err("one worker crashed, the other said so");
            assert_eq!(failure.node, 0, "seed {seed}: {}", failure.detail);
            symptom_first += usize::from(outcome.world.delivered.last() == Some(&(1, "error")));
        }
        assert!(symptom_first > 0, "no seed delivered the symptom before the crash");
    }

    #[test]
    fn a_worker_that_dies_after_its_metrics_fails_the_run_with_its_status() {
        // `dies_after_metrics`: the report is in, the exit is still owed.
        let script = Script { exit_code: 7, ..Script::healthy(20 * MS) };
        let outcome = run(vec![script], Setup::new(5));
        let failure = outcome.result.as_ref().expect_err("exit status 7 is not a clean exit");
        assert_eq!(failure.node, 0);
        assert!(
            failure.detail.contains("worker exited with exit status: 7 after its metrics"),
            "{}",
            failure.detail
        );
        assert!(outcome.world.delivered.ends_with(&[(0, "metrics"), (0, "lost"), (0, "exited")]));
    }

    #[test]
    fn the_handshake_and_the_exit_are_owed_like_any_answer() {
        // A worker that never says `Hello`, or never leaves after its
        // `Metrics`, is silent past the budget; one that dies before its
        // `Hello` is a loss, seen as soon as its exit is.
        for (step, death, awaited) in [
            (Step::Connect, Death::Hang, "timed out waiting for hello"),
            (Step::Connect, Death::Crash, "worker exited (exit status: 101) (the coordinator awaited hello)"),
            (Step::Leave, Death::Hang, "timed out waiting for exit"),
        ] {
            let scripts = vec![Script::healthy(20 * MS), Script::dying(20 * MS, step, death)];
            let outcome = run(scripts, Setup::new(8));
            let failure = outcome.result.as_ref().expect_err("node 1 never finished its part");
            assert_eq!(failure.node, 1, "{step:?}: {}", failure.detail);
            assert!(failure.detail.contains(awaited), "{step:?}: {}", failure.detail);
            let silent = death == Death::Hang;
            let bound = if silent { IO_TIMEOUT + 100 * MS } else { 20 * MS };
            assert!(
                outcome.world.now < bound + outcome.world.struck[0].3,
                "{step:?}: {:?}",
                outcome.world.now
            );
            assert!(!silent || outcome.world.now >= IO_TIMEOUT, "{step:?}: the budget ran out");
        }
    }

    #[test]
    fn a_node_is_drained_while_another_is_awaited() {
        // `big_frame_from_the_later_node`, minus the sockets: node 0 never
        // answers the shutdown, and everything node 1 had to say is in its
        // store by the time node 0's silence fails the run.
        let mut setup = Setup::new(6);
        setup.observed = true;
        let talkative = Script { final_frames: 5, ..Script::healthy(20 * MS) };
        let outcome = run(vec![Script::dying(20 * MS, Step::Shutdown, Death::Hang), talkative], setup);
        let failure = outcome.result.as_ref().expect_err("node 0 hangs");
        assert_eq!(failure.node, 0);
        assert!(failure.detail.contains("timed out waiting for metrics"), "{}", failure.detail);
        let from_node_1 = outcome.world.delivered.iter().filter(|(node, _)| *node == 1);
        assert_eq!(from_node_1.filter(|(_, kind)| *kind == "telemetry_delta").count(), 5);
        assert!(outcome.world.delivered.contains(&(1, "metrics")) && outcome.world.wire[1].is_empty());
    }
}
