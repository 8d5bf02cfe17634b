//! Coordinator-side process management: spawn one worker per node, speak
//! the control protocol, and guarantee cleanup.
//!
//! The pool owns the run's rendezvous directory (under the system temp
//! dir), the control listener, one [`Child`] per node and one bounded
//! stderr-tail collector per child.  The protocol waits in one place,
//! [`ControlIo::poll`]: one [`wait_readable`] over the control
//! connections, the listener and the running children's exit descriptors,
//! with the machine's deadline as its timeout — the coordinator wakes when
//! a worker connects, speaks, hangs up or dies, and otherwise when the
//! deadline passes, and never sleeps to look again.  So a worker that
//! crashes, hangs or exits early surfaces as a typed [`WorkerFailure`]
//! carrying the worker's stderr tail — never as a hung coordinator.
//! Dropping the pool kills and reaps whatever is still running and removes
//! the rendezvous directory.

use crate::control::{root_cause, ControlIo, Input};
use crate::transport::{wait_readable, FramedStream, RecvError, PARTIAL_FRAME_WAIT};
use crate::wire::Message;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes of each worker's stderr kept for failure reports.
pub(crate) const STDERR_TAIL_BYTES: usize = 4096;

/// Environment variable selecting the worker role in a re-exec'd binary.
pub(crate) const ENV_ROLE: &str = "ORWL_PROC_ROLE";
/// Environment variable carrying the worker's node index.
pub(crate) const ENV_NODE: &str = "ORWL_PROC_NODE";
/// Environment variable carrying the coordinator socket path.
pub(crate) const ENV_COORD: &str = "ORWL_PROC_COORD";

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A worker failure attributable to one node.
#[derive(Debug)]
pub(crate) struct WorkerFailure {
    /// The failing worker's node index.
    pub node: usize,
    /// What happened, with the worker's stderr tail appended.
    pub detail: String,
}

/// How long a closed control connection waits for its worker to be
/// reaped, so the loss report can carry the exit status.
const EXIT_STATUS_GRACE: Duration = Duration::from_millis(20);

/// How long blame waits for the first failed child to show up when a
/// failure was seen on a node that may only be collateral damage.
const CASCADE_GRACE: Duration = Duration::from_millis(50);

fn tail_collector(mut stderr: ChildStderr) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut kept: VecDeque<u8> = VecDeque::new();
        let mut buf = [0u8; 1024];
        loop {
            match stderr.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    kept.extend(&buf[..n]);
                    while kept.len() > STDERR_TAIL_BYTES {
                        kept.pop_front();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(kept.make_contiguous()).into_owned()
    })
}

struct WorkerChild {
    child: Child,
    tail: Option<JoinHandle<String>>,
    /// The exit descriptor: one end of a socket pair whose other end is
    /// the worker's stdin and nobody else's.  Nothing is ever written to
    /// it, so it turns readable exactly when the kernel closes the
    /// worker's descriptors — the process is on its way out.
    exited: UnixStream,
    exit: Option<std::process::ExitStatus>,
    /// Its exit went to the machine, or it was written off.
    reported: bool,
}

impl WorkerChild {
    /// Non-blocking exit check, remembering the status once reaped.
    fn poll_exit(&mut self) -> Option<std::process::ExitStatus> {
        if self.exit.is_none() {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.exit = Some(status);
            }
        }
        self.exit
    }

    /// Waits up to `limit` for the process to exit and returns as soon as
    /// it is reaped.  A process closes its descriptors a moment before it
    /// becomes reapable, so the hang-up of the exit descriptor is followed
    /// by a blocking reap: by then the process is past running any code
    /// of its own and the wait is the kernel finishing the exit.
    fn wait_exit(&mut self, limit: Duration) -> Option<std::process::ExitStatus> {
        if self.poll_exit().is_none()
            && matches!(wait_readable(&[self.exited.as_raw_fd()], limit), Ok(Some(_)))
        {
            if let Ok(status) = self.child.wait() {
                self.exit = Some(status);
            }
        }
        self.poll_exit()
    }

    /// Kills (if still running), reaps, and returns the stderr tail.
    fn kill_and_tail(&mut self) -> String {
        if self.poll_exit().is_none() {
            let _ = self.child.kill();
            if let Ok(status) = self.child.wait() {
                self.exit = Some(status);
            }
        }
        match self.tail.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => String::new(),
        }
    }
}

/// A control connection, and the node its first frame, the `Hello`, named.
struct Control {
    node: Option<usize>,
    stream: FramedStream,
}

/// One run's worth of worker processes plus their control connections.
pub struct WorkerPool {
    dir: PathBuf,
    listener: UnixListener,
    children: Vec<WorkerChild>,
    /// Every open control connection, in the order they were accepted.
    controls: Vec<Control>,
    io_timeout: Duration,
    dead: Vec<bool>,
    /// Rotates which connection [`ControlIo::poll`] looks at first.
    turn: usize,
    /// Zero of the clock the control protocol runs on.
    epoch: Instant,
}

impl WorkerPool {
    /// Creates the rendezvous directory, binds the control listener and
    /// spawns `n_nodes` workers by re-exec'ing the current binary with
    /// `worker_args`, the worker-role environment and `extra_env`.
    pub fn spawn(
        n_nodes: usize,
        worker_args: &[String],
        extra_env: &[(String, String)],
        io_timeout: Duration,
    ) -> std::io::Result<WorkerPool> {
        let dir = std::env::temp_dir().join(format!(
            "orwl-proc-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let coord_sock = dir.join("coord.sock");
        let listener = UnixListener::bind(&coord_sock)?;
        listener.set_nonblocking(true)?;

        let exe = std::env::current_exe()?;
        let mut children = Vec::with_capacity(n_nodes);
        let mut pool_guard = PoolDirGuard { dir: Some(dir.clone()), children: &mut children };
        for node in 0..n_nodes {
            // A worker reads nothing from its stdin, so its stdin can be
            // the far end of its exit descriptor (see `WorkerChild`); the
            // coordinator's own copy of that end goes with `command`.
            let (exiting, exited) = UnixStream::pair()?;
            let mut command = Command::new(&exe);
            command
                .args(worker_args)
                .env(ENV_ROLE, "worker")
                .env(ENV_NODE, node.to_string())
                .env(ENV_COORD, &coord_sock)
                .stdin(Stdio::from(OwnedFd::from(exiting)))
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            for (key, value) in extra_env {
                command.env(key, value);
            }
            let mut child = command.spawn()?;
            let tail = child.stderr.take().map(tail_collector);
            pool_guard.children.push(WorkerChild { child, tail, exited, exit: None, reported: false });
        }
        pool_guard.dir = None; // spawns succeeded: the pool takes ownership
        drop(pool_guard);
        Ok(WorkerPool {
            dir,
            listener,
            children,
            controls: Vec::new(),
            io_timeout,
            dead: vec![false; n_nodes],
            turn: 0,
            epoch: Instant::now(),
        })
    }

    /// The OS process id of `node`'s worker (for signal-based tests).
    #[must_use]
    pub fn worker_pid(&self, node: usize) -> u32 {
        self.children[node].child.id()
    }

    /// Path of the peer listener socket assigned to `node`.
    #[must_use]
    pub(crate) fn peer_socket(&self, node: usize) -> PathBuf {
        self.dir.join(format!("worker{node}.sock"))
    }

    /// Kills every worker, joins the stderr tails and composes the typed
    /// failure for `node` (or the most informative node when `None`: the
    /// first still-credited child that exited with a failure status, else
    /// node 0).  Nodes already written off by a completed recovery are
    /// never auto-blamed — their deaths were already accounted for.
    fn fail(&mut self, node: Option<usize>, reason: impl Into<String>) -> WorkerFailure {
        let statuses: Vec<Option<std::process::ExitStatus>> =
            self.children.iter_mut().map(WorkerChild::poll_exit).collect();
        let node = node
            .or_else(|| {
                statuses
                    .iter()
                    .enumerate()
                    .position(|(n, s)| !self.dead[n] && s.is_some_and(|s| !s.success()))
            })
            .unwrap_or(0);
        let tails: Vec<String> = self.children.iter_mut().map(WorkerChild::kill_and_tail).collect();
        let mut detail = reason.into();
        if let Some(status) = statuses.get(node).copied().flatten() {
            detail.push_str(&format!(" ({status})"));
        }
        let tail = tails.get(node).map(String::as_str).unwrap_or("").trim();
        if tail.is_empty() {
            detail.push_str("; stderr: <empty>");
        } else {
            detail.push_str(&format!("; stderr tail:\n{tail}"));
        }
        WorkerFailure { node, detail }
    }

    /// One receive attempt on the `k`th control connection, blocking for
    /// at most `slice` — the building block under [`ControlIo::poll`];
    /// `None` when nothing whole arrived (the worker may simply be busy).
    /// The first frame must be the `Hello` of a node of this run, and names
    /// the connection; one that hangs up unnamed is dropped, and its
    /// worker's exit is what the machine hears of it.  A named connection
    /// that vanishes comes back as [`Input::Lost`] instead of tearing the
    /// run down — whether a loss is fatal is the protocol's call, not the
    /// transport's — and is dropped with the report, so a loss is reported
    /// once.
    fn receive(&mut self, k: usize, slice: Duration) -> Result<Option<Input>, WorkerFailure> {
        let control = &mut self.controls[k];
        let detail = match (control.node, control.stream.recv(Some(slice))) {
            (_, Err(RecvError::Timeout)) => return Ok(None),
            (Some(node), Ok(message)) => return Ok(Some(Input::Frame { node, message })),
            (None, Ok(message @ Message::Hello { node })) if (node as usize) < self.children.len() => {
                control.node = Some(node as usize);
                return Ok(Some(Input::Frame { node: node as usize, message }));
            }
            (None, Err(RecvError::Closed)) => {
                self.controls.swap_remove(k);
                return Ok(None);
            }
            (None, Ok(Message::Hello { node })) => format!("hello from unknown node {node}"),
            (None, Ok(other)) => format!("expected hello, got {}", other.name()),
            (None, Err(e)) => format!("control handshake failed: {e}"),
            // A crash shows up as a closed socket, and the exit status is
            // the useful part of the report: give the reaping a moment to
            // catch up with the hang-up.
            (Some(node), Err(RecvError::Closed)) => match self.children[node].wait_exit(EXIT_STATUS_GRACE) {
                Some(status) => format!("worker exited ({status}) during the run"),
                None => "worker closed its control connection during the run".to_string(),
            },
            (Some(_), Err(e)) => format!("control receive failed: {e}"),
        };
        match self.controls.swap_remove(k).node {
            Some(node) => Ok(Some(Input::Lost { node, detail })),
            None => Err(self.fail(None, detail)),
        }
    }

    /// Takes every connection waiting on the listener.
    fn accept(&mut self) -> Result<(), WorkerFailure> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => FramedStream::new(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(self.fail(None, format!("control accept failed: {e}"))),
            };
            self.controls.push(Control { node: None, stream });
        }
    }

    /// `node`'s reaped exit, for the machine: reported once, and its
    /// connection, with nothing left to read, goes with it.
    fn report_exit(&mut self, node: usize) -> Input {
        self.children[node].reported = true;
        self.controls.retain(|control| control.node != Some(node));
        let status = self.children[node].exit.expect("only a reaped child's exit is reported");
        Input::Exited { node, status: status.to_string(), clean: status.success() }
    }
}

/// The real outside world of [`control::drive`](crate::control::drive):
/// the control connections, the children and the process clock.
impl ControlIo for WorkerPool {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Waits up to `limit` for the next thing a worker did — a frame, a
    /// hang-up, an exit — whoever is awaited; `None` when the time passes
    /// in silence.  This is the pool's one protocol wait: one readiness
    /// wait over every control connection, the listener and every running
    /// child's exit descriptor, so whoever connects, speaks, hangs up or
    /// dies first is served first, a frame larger than a socket buffer is
    /// drained while its sender is still writing it, and no node waits for
    /// another's turn.  The connection looked at first rotates from call
    /// to call, so a chatty node cannot starve the rest.
    fn poll(&mut self, limit: Duration) -> Result<Option<Input>, WorkerFailure> {
        let started = Instant::now();
        self.turn = self.turn.wrapping_add(1);
        loop {
            let n = self.controls.len();
            let order: Vec<usize> = (0..n).map(|i| (self.turn + i) % n).collect();
            // A whole frame may already sit in a stream's reader, pulled in
            // by the read that completed the previous one, where poll(2)
            // cannot see it: a zero-length receive looks only there.
            for &k in &order {
                if let Some(input) = self.receive(k, Duration::ZERO)? {
                    return Ok(Some(input));
                }
            }
            // A child that is gone by now wrote its last words before this
            // look: once nothing is readable — not even its hang-up — its
            // exit is what there is to report.
            let exited = (0..self.children.len())
                .find(|&node| !self.children[node].reported && self.children[node].poll_exit().is_some());
            let left =
                if exited.is_some() { Duration::ZERO } else { limit.saturating_sub(started.elapsed()) };
            let mut fds: Vec<RawFd> = order.iter().map(|&k| self.controls[k].stream.as_raw_fd()).collect();
            fds.push(self.listener.as_raw_fd());
            fds.extend(self.children.iter().map(|child| child.exit.map_or(child.exited.as_raw_fd(), |_| -1)));
            match wait_readable(&fds, left) {
                Ok(None) => return Ok(exited.map(|node| self.report_exit(node))),
                // Part of a frame: its rest will wake the next wait.
                Ok(Some(ready)) if ready < n => {
                    if let Some(input) = self.receive(order[ready], PARTIAL_FRAME_WAIT)? {
                        return Ok(Some(input));
                    }
                }
                Ok(Some(ready)) if ready == n => self.accept()?,
                // A child is on its way out: reap it, and a later pass
                // reports it.
                Ok(Some(ready)) => {
                    self.children[ready - n - 1].wait_exit(Duration::ZERO);
                }
                Err(e) => return Err(WorkerPool::fail(self, None, format!("control poll failed: {e}"))),
            }
        }
    }

    /// Sends one message to `node`'s control connection.  The write is
    /// deadline-bounded by the pool's io timeout, so a worker whose
    /// socket buffer filled up (e.g. one that was SIGSTOPped mid-run)
    /// stalls the coordinator for at most one timeout, never forever.
    fn send(&mut self, node: usize, message: &Message) -> Result<(), WorkerFailure> {
        let io_timeout = self.io_timeout;
        let sent = match self.controls.iter_mut().find(|control| control.node == Some(node)) {
            Some(control) => control.stream.send_with_deadline(message, io_timeout),
            None => return Err(self.fail(Some(node), "no control connection")),
        };
        sent.map_err(|e| self.fail(Some(node), format!("control send failed: {e}")))
    }

    /// Writes `node` off as lost: kills and reaps its process, joins its
    /// stderr tail, drops its control connection and marks it dead, so
    /// waits and auto-blame skip it from here on.
    fn confirm_loss(&mut self, node: usize) {
        self.children[node].kill_and_tail();
        self.children[node].reported = true;
        self.controls.retain(|control| control.node != Some(node));
        self.dead[node] = true;
    }

    /// [`WorkerPool::fail`] for `node` — or, with `cascade`, for a failure
    /// observed on `node` that may be collateral damage: when some *other*
    /// worker is the likelier root cause (a dying peer tears down every
    /// connection it serves) its stderr tail carries the original panic —
    /// blame it instead of `node`.
    fn fail(&mut self, node: usize, reason: String, cascade: bool) -> WorkerFailure {
        if !cascade {
            return WorkerPool::fail(self, Some(node), reason);
        }
        // Which of the failed children to blame is `root_cause`'s call.  A
        // peer's cascade error can race the dying worker's reaping — a
        // worker that exits 1 over a peer's reset connection can be reaped
        // before the peer that crashed — so blame settles at once only on
        // a crash; otherwise it waits, on the exit descriptors of the
        // children still running and up to a short grace, for a crash to
        // show up.
        let grace = Instant::now() + CASCADE_GRACE;
        let candidates: Vec<usize> =
            (0..self.children.len()).filter(|&n| n == node || !self.dead[n]).collect();
        let root = loop {
            let failed = candidates.iter().filter_map(|&n| {
                let status = self.children[n].poll_exit().filter(|status| !status.success())?;
                Some((n, status.code() != Some(1)))
            });
            let root = root_cause(node, failed);
            let running: Vec<usize> =
                candidates.iter().copied().filter(|&n| self.children[n].exit.is_none()).collect();
            if root.is_some_and(|(_, crashed)| crashed) || running.is_empty() {
                break root;
            }
            let exits: Vec<RawFd> = running.iter().map(|&n| self.children[n].exited.as_raw_fd()).collect();
            match wait_readable(&exits, grace.saturating_duration_since(Instant::now())) {
                Ok(Some(ready)) => {
                    self.children[running[ready]].wait_exit(Duration::ZERO);
                }
                _ => break root,
            }
        };
        match root {
            Some((root, _)) if root != node => {
                let reason = format!("worker exited during the run (a peer then saw: {reason})");
                WorkerPool::fail(self, Some(root), reason)
            }
            _ => WorkerPool::fail(self, Some(node), reason),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Graceful first: SIGTERM everything still running, so a healthy
        // worker gets to unwind (flush stderr, drop sockets) instead of
        // dying mid-write.  A worker that ignores the courtesy — or one
        // that is SIGSTOPped and cannot even see it — is SIGKILLed after
        // a bounded grace, so teardown always completes.
        for child in &mut self.children {
            if child.poll_exit().is_none() {
                // SAFETY: kill(2) touches no memory of ours; the unreaped pid still names the child.
                unsafe {
                    libc::kill(child.child.id() as libc::pid_t, libc::SIGTERM);
                }
            }
        }
        let grace = Instant::now() + Duration::from_millis(500);
        for child in &mut self.children {
            child.wait_exit(grace.saturating_duration_since(Instant::now()));
            child.kill_and_tail();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cleans up the rendezvous directory and any already-spawned children if
/// spawning aborts partway.
struct PoolDirGuard<'a> {
    dir: Option<PathBuf>,
    children: &'a mut Vec<WorkerChild>,
}

impl Drop for PoolDirGuard<'_> {
    fn drop(&mut self) {
        if let Some(dir) = self.dir.take() {
            for child in self.children.iter_mut() {
                child.kill_and_tail();
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{drive, Budgets, Coordinator, Finished};
    use orwl_cluster::ClusterMachine;
    use orwl_numasim::workload::PhasedWorkload;
    use orwl_obs::{EventKind, ObsEvent, TelemetryDelta};
    use std::path::Path;

    /// Which worker the re-exec'd test binary should impersonate.
    const ENV_FAKE: &str = "ORWL_PROC_FAKE_WORKER";

    /// A pool of `n_nodes` impersonators: this test binary re-exec'd into
    /// [`fake_worker_entry`] alone, told by `ENV_FAKE` how to misbehave.
    fn fake_pool(n_nodes: usize, fake: &str, io_timeout: Duration) -> WorkerPool {
        let args = ["coordinator::tests::fake_worker_entry", "--exact", "--nocapture"].map(String::from);
        WorkerPool::spawn(n_nodes, &args, &[(ENV_FAKE.to_string(), fake.to_string())], io_timeout)
            .expect("spawning fake workers")
    }

    fn hello(node: usize) -> FramedStream {
        let coord = std::env::var(ENV_COORD).expect("coordinator socket");
        let mut control = FramedStream::connect(Path::new(&coord)).expect("connect to the coordinator");
        control.send(&Message::Hello { node: node as u32 }).expect("hello");
        control
    }

    /// A fake worker's dark run up to the point where it owes its metrics:
    /// (`Assignment`,) `Ready`, (`Start`,) `Done`, (`Shutdown`).
    fn play_until_shutdown(control: &mut FramedStream, node: usize) {
        let wait = Some(Duration::from_secs(20));
        assert!(matches!(control.recv(wait), Ok(Message::Assignment { .. })), "the assignment comes first");
        control.send(&Message::Ready { node: node as u32 }).expect("ready");
        assert_eq!(control.recv(wait).expect("start"), Message::Start);
        control.send(&Message::Done { node: node as u32 }).expect("done");
        assert_eq!(control.recv(wait).expect("shutdown"), Message::Shutdown);
    }

    /// A telemetry frame far larger than a socket buffer: the most events
    /// one frame may carry, and counters padded up to 3 MiB.
    fn big_frame() -> TelemetryDelta {
        let event = |seq| ObsEvent {
            ts_us: seq as f64,
            dur_us: 0.0,
            seq,
            tid: 0,
            track: 0,
            kind: EventKind::LockGrant { rseq: seq, location: 1, wait_ns: 1 },
        };
        let mut frame = TelemetryDelta {
            events: (0..orwl_obs::timeseries::MAX_FRAME_EVENTS as u64).map(event).collect(),
            ..TelemetryDelta::default()
        };
        frame.metrics.counters = (0..64).map(|k| (format!("{k:04}{}", "x".repeat(4000)), k)).collect();
        frame
    }

    /// Runs the control protocol over the pool's workers, from their
    /// `Hello` to their exit, as a dark run of a small stencil would.  The
    /// assignments are empty: the fakes take theirs unread.
    fn drive_dark(pool: &mut WorkerPool, n_nodes: usize) -> Result<Finished, WorkerFailure> {
        let machine = ClusterMachine::paper(n_nodes);
        let workload = PhasedWorkload::rotating_stencil(2, 64.0, 8.0, 16.0, 64.0, &[1]);
        let routing: Vec<usize> = (0..workload.n_tasks()).map(|task| task % n_nodes).collect();
        let budgets = Budgets::new(pool.io_timeout, None, false);
        let assignments = vec![String::new(); n_nodes];
        let mut coordinator =
            Coordinator::new(&machine, &workload, &routing, assignments, budgets, pool.now());
        drive(pool, &mut coordinator, |_| {})
    }

    /// A fake worker's lane bytes as the coordinator keeps them: nonzero,
    /// and different on every node.
    fn report_of(node: usize) -> (usize, u64, u64) {
        (node, 4_096 * (node as u64 + 1), 3 + node as u64)
    }

    /// Not a test of its own: the body of every fake worker.  In the
    /// harness's own pass the role is unset and it does nothing.
    #[test]
    fn fake_worker_entry() {
        if std::env::var(ENV_ROLE).is_err() {
            return;
        }
        let node: usize = std::env::var(ENV_NODE).expect("node index").parse().expect("node index");
        let (_, same_rack_bytes, cross_rack_bytes) = report_of(node);
        let metrics = Message::Metrics { node: node as u32, same_rack_bytes, cross_rack_bytes };
        // Where two fake workers of one pool meet, beside the coordinator's socket.
        let gate =
            Path::new(&std::env::var(ENV_COORD).expect("coordinator socket")).with_file_name("gate.sock");
        match std::env::var(ENV_FAKE).expect("fake worker kind").as_str() {
            // Alive, and never dials in.
            "never_connects" => loop {
                std::thread::park();
            },
            "exits_before_connecting" => std::process::exit(3),
            // Node 0 connects and never says `Hello`; node 1 exits 3 once
            // node 0 is connected.
            "silent_beside_an_exit" => {
                if node == 0 {
                    let coord = std::env::var(ENV_COORD).expect("coordinator socket");
                    let _control = FramedStream::connect(Path::new(&coord)).expect("connect");
                    let gate = UnixListener::bind(&gate).expect("bind the gate");
                    let _held = gate.accept().expect("node 1 at the gate");
                    loop {
                        std::thread::park();
                    }
                }
                let _held = FramedStream::connect_retry(&gate, Duration::from_secs(20)).expect("the gate");
                std::process::exit(3);
            }
            // Reports like a finished worker, then dies on the way out.
            "dies_after_metrics" => {
                let mut control = hello(node);
                play_until_shutdown(&mut control, node);
                control.send(&metrics).expect("metrics");
                std::process::exit(7);
            }
            // Reports like a finished worker, then never leaves.
            "lingers_after_metrics" => {
                let mut control = hello(node);
                play_until_shutdown(&mut control, node);
                control.send(&metrics).expect("metrics");
                loop {
                    std::thread::park();
                }
            }
            // Node 1's report starts with a frame far larger than a socket
            // buffer, and node 0 reports only once node 1 got all of its
            // own out — which takes a coordinator that drains node 1 while
            // node 0 is still silent.
            "big_frame_from_the_later_node" => {
                if node == 0 {
                    let gate = UnixListener::bind(&gate).expect("bind the gate");
                    let mut control = hello(node);
                    play_until_shutdown(&mut control, node);
                    gate.accept().expect("node 1 at the gate");
                    control.send(&metrics).expect("metrics");
                } else {
                    let mut control = hello(node);
                    play_until_shutdown(&mut control, node);
                    let delta = big_frame().encode();
                    control.send(&Message::TelemetryDelta { node: node as u32, delta }).expect("big frame");
                    control.send(&metrics).expect("metrics");
                    FramedStream::connect_retry(&gate, Duration::from_secs(20)).expect("open the gate");
                }
                std::process::exit(0);
            }
            // Node 1 reports the symptom — its peer's connection broke —
            // and exits 1; node 0, the cause, is only reaped after it.
            "crash_behind_a_symptom" => {
                if node == 0 {
                    let gate = UnixListener::bind(&gate).expect("bind the gate");
                    let _control = hello(node);
                    let (mut peer, _) = gate.accept().expect("node 1 at the gate");
                    // End-of-file: node 1 is gone ...
                    let _ = peer.read(&mut [0u8; 1]);
                    // ... and has been for a moment: long enough to be
                    // reaped alone, well inside the blame grace.
                    let _ = wait_readable(&[], CASCADE_GRACE / 10);
                    std::process::exit(101);
                }
                let mut control = hello(node);
                let _held = FramedStream::connect_retry(&gate, Duration::from_secs(20)).expect("the gate");
                control
                    .send(&Message::Error { message: "peer 0: connection reset".to_string() })
                    .expect("error");
                std::process::exit(1);
            }
            other => panic!("unknown fake worker kind {other:?}"),
        }
    }

    #[test]
    fn workers_that_never_connect_time_out_at_the_deadline() {
        let mut pool = fake_pool(2, "never_connects", Duration::from_millis(300));
        let started = Instant::now();
        let failure = drive_dark(&mut pool, 2).expect_err("nobody connected");
        assert_eq!(failure.node, 0);
        assert!(failure.detail.contains("timed out waiting for hello"), "{}", failure.detail);
        assert!(started.elapsed() >= Duration::from_millis(300), "gave up after {:?}", started.elapsed());
    }

    #[test]
    fn a_worker_that_exits_before_connecting_fails_the_run_well_before_the_deadline() {
        let io_timeout = Duration::from_secs(60);
        let mut pool = fake_pool(1, "exits_before_connecting", io_timeout);
        let started = Instant::now();
        let failure = drive_dark(&mut pool, 1).expect_err("the worker is gone");
        assert_eq!(failure.node, 0);
        assert!(failure.detail.contains("(the coordinator awaited hello)"), "{}", failure.detail);
        assert!(failure.detail.contains("exit status: 3"), "{}", failure.detail);
        assert!(started.elapsed() < io_timeout, "the exit itself ended the wait");
    }

    #[test]
    fn a_worker_that_stalls_before_its_hello_holds_nobody_past_a_peers_exit() {
        // The handshake used to block on each accepted connection for a
        // full io timeout: node 1's exit was reported only after node 0's
        // `Hello` was given up on.
        let io_timeout = Duration::from_secs(10);
        let mut pool = fake_pool(2, "silent_beside_an_exit", io_timeout);
        let started = Instant::now();
        let failure = drive_dark(&mut pool, 2).expect_err("node 1 is gone");
        assert_eq!(failure.node, 1, "{}", failure.detail);
        assert!(failure.detail.contains("exit status: 3"), "{}", failure.detail);
        assert!(started.elapsed() < io_timeout / 4, "failed after {:?}", started.elapsed());
    }

    #[test]
    fn a_worker_that_dies_between_metrics_and_exit_is_a_typed_failure() {
        let mut pool = fake_pool(1, "dies_after_metrics", Duration::from_secs(60));
        let failure = drive_dark(&mut pool, 1).expect_err("exit status 7 is not a clean exit");
        assert_eq!(failure.node, 0);
        assert!(
            failure.detail.contains("worker exited with exit status: 7 after its metrics"),
            "{}",
            failure.detail
        );
    }

    #[test]
    fn a_worker_that_outlives_shutdown_is_overdue_at_the_deadline() {
        let io_timeout = Duration::from_millis(200);
        let mut pool = fake_pool(1, "lingers_after_metrics", io_timeout);
        let started = Instant::now();
        let failure = drive_dark(&mut pool, 1).expect_err("the worker is still running");
        assert_eq!(failure.node, 0);
        assert!(failure.detail.contains("timed out waiting for exit"), "{}", failure.detail);
        assert!(started.elapsed() >= io_timeout, "gave up after {:?}", started.elapsed());
    }

    #[test]
    fn a_crash_reaped_after_its_symptom_still_takes_the_blame() {
        let mut pool = fake_pool(2, "crash_behind_a_symptom", Duration::from_secs(20));
        let failure = drive_dark(&mut pool, 2).expect_err("one worker crashed, the other said so");
        assert_eq!(failure.node, 0, "{}", failure.detail);
        assert!(failure.detail.contains("exit status: 101"), "{}", failure.detail);
    }

    #[test]
    fn every_node_is_drained_while_any_is_awaited() {
        let mut pool = fake_pool(2, "big_frame_from_the_later_node", Duration::from_secs(20));
        let finished = drive_dark(&mut pool, 2).expect("both workers report and exit cleanly");
        assert_eq!(finished.lane_bytes, [report_of(0), report_of(1)], "one report per node, in node order");
        let big = big_frame();
        let encoded = big.encode().len();
        assert!(encoded >= 3 << 20, "the frame is {encoded} bytes");
        assert!(
            finished.frames[0].is_empty() && finished.frames[1] == [big],
            "node 1's frame is in its store whole"
        );
    }
}
