//! Coordinator-side process management: spawn one worker per node, speak
//! the control protocol, and guarantee cleanup.
//!
//! The pool owns the run's rendezvous directory (under the system temp
//! dir), the control listener, one [`Child`] per node and one bounded
//! stderr-tail collector per child.  Every blocking wait is a short-tick
//! poll against a deadline that also watches for child death, so a worker
//! that crashes, hangs or exits early surfaces as a typed
//! [`WorkerFailure`] carrying the worker's stderr tail — never as a hung
//! coordinator.  Dropping the pool kills and reaps whatever is still
//! running and removes the rendezvous directory.

use crate::transport::{FramedStream, RecvError};
use crate::wire::Message;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes of each worker's stderr kept for failure reports.
pub const STDERR_TAIL_BYTES: usize = 4096;

/// Environment variable selecting the worker role in a re-exec'd binary.
pub const ENV_ROLE: &str = "ORWL_PROC_ROLE";
/// Environment variable carrying the worker's node index.
pub const ENV_NODE: &str = "ORWL_PROC_NODE";
/// Environment variable carrying the coordinator socket path.
pub const ENV_COORD: &str = "ORWL_PROC_COORD";

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A worker failure attributable to one node.
#[derive(Debug)]
pub struct WorkerFailure {
    /// The failing worker's node index.
    pub node: usize,
    /// What happened, with the worker's stderr tail appended.
    pub detail: String,
}

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
    exit: Option<std::process::ExitStatus>,
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

/// What one [`WorkerPool::poll_from_lossy`] attempt observed on a control
/// connection.  `Lost` is the caller's to judge: a recovery-enabled
/// coordinator re-shards, any other fails the run.
#[derive(Debug)]
pub enum Polled {
    /// A whole message arrived.
    Message(Message),
    /// Nothing whole arrived within the slice; the worker may simply be
    /// busy.
    Silence,
    /// The connection is gone (closed socket or receive error) — the
    /// worker is lost, with the best available diagnosis attached.
    Lost(String),
}

/// One run's worth of worker processes plus their control connections.
pub struct WorkerPool {
    dir: PathBuf,
    listener: UnixListener,
    children: Vec<WorkerChild>,
    controls: Vec<Option<FramedStream>>,
    hello_recv_us: Vec<u64>,
    io_timeout: Duration,
    stray: Vec<(usize, Message)>,
    dead: Vec<bool>,
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
            let mut command = Command::new(&exe);
            command
                .args(worker_args)
                .env(ENV_ROLE, "worker")
                .env(ENV_NODE, node.to_string())
                .env(ENV_COORD, &coord_sock)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            for (key, value) in extra_env {
                command.env(key, value);
            }
            let mut child = command.spawn()?;
            let tail = child.stderr.take().map(tail_collector);
            pool_guard.children.push(WorkerChild { child, tail, exit: None });
        }
        pool_guard.dir = None; // spawns succeeded: the pool takes ownership
        drop(pool_guard);
        let controls = (0..n_nodes).map(|_| None).collect();
        Ok(WorkerPool {
            dir,
            listener,
            children,
            controls,
            hello_recv_us: vec![0; n_nodes],
            io_timeout,
            stray: Vec::new(),
            dead: vec![false; n_nodes],
        })
    }

    /// True once `node` has been confirmed lost and written off — its
    /// control connection dropped, its process reaped.  Dead nodes are
    /// skipped by broadcasts, waits and auto-blame.
    #[must_use]
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    /// The OS process id of `node`'s worker (for signal-based tests).
    #[must_use]
    pub fn worker_pid(&self, node: usize) -> u32 {
        self.children[node].child.id()
    }

    /// Writes `node` off as lost: kills and reaps its process, joins its
    /// stderr tail, drops its control connection and marks it dead.
    /// Returns the exit status (when the process already exited) and the
    /// stderr tail, for the recovery telemetry.
    pub fn confirm_loss(&mut self, node: usize) -> (Option<std::process::ExitStatus>, String) {
        let status = self.children[node].poll_exit();
        let tail = self.children[node].kill_and_tail();
        self.controls[node] = None;
        self.dead[node] = true;
        (status.or(self.children[node].exit), tail)
    }

    /// The coordinator's process clock (µs) when `node`'s `Hello` arrived
    /// — one side of the clock-offset handshake (see `orwl_obs::merge`);
    /// `0` until [`WorkerPool::accept_controls`] has seen that node.
    #[must_use]
    pub fn hello_recv_us(&self, node: usize) -> u64 {
        self.hello_recv_us[node]
    }

    /// Path of the peer listener socket assigned to `node`.
    #[must_use]
    pub fn peer_socket(&self, node: usize) -> PathBuf {
        self.dir.join(format!("worker{node}.sock"))
    }

    /// The rendezvous directory (owned by the pool until drop).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Kills every worker, joins the stderr tails and composes the typed
    /// failure for `node` (or the most informative node when `None`: the
    /// first still-credited child that exited with a failure status, else
    /// node 0).  Nodes already written off by a completed recovery are
    /// never auto-blamed — their deaths were already accounted for.
    pub fn fail(&mut self, node: Option<usize>, reason: impl Into<String>) -> WorkerFailure {
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

    /// Like [`WorkerPool::fail`], but for failures observed on `node`
    /// that may be collateral damage: when some *other* worker is the
    /// likelier root cause (a dying peer tears down every connection it
    /// serves) its stderr tail carries the original panic — blame it
    /// instead of `node`.
    pub fn fail_cascade(&mut self, node: usize, reason: impl Into<String>) -> WorkerFailure {
        // A worker that exits 1 diagnosed its own failure and said so
        // (`maybe_worker`) — most often a symptom of a peer's death; one
        // that died any other way (a signal, a panic) diagnosed nothing
        // and is the root cause wherever the failure was first seen.  So
        // among the failed children a crash outranks an exit 1, and `node`
        // outranks its peers.  A peer's cascade error can race the dying
        // worker's reaping by a few milliseconds, so the first failed
        // child gets a short grace window to show up before blame settles.
        let crashed = |s: std::process::ExitStatus| s.code() != Some(1);
        let mut root = None;
        for _ in 0..5 {
            root = (0..self.children.len())
                .filter(|&n| n == node || !self.dead[n])
                .filter_map(|n| Some((n, self.children[n].poll_exit().filter(|s| !s.success())?)))
                .min_by_key(|&(n, s)| (!crashed(s), n != node))
                .map(|(n, _)| n);
            if root.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        match root {
            Some(root) if root != node => self.fail(
                Some(root),
                format!("worker exited during the run (a peer then saw: {})", reason.into()),
            ),
            _ => self.fail(Some(node), reason),
        }
    }

    /// Accepts one control connection per worker; each must open with
    /// [`Message::Hello`].  Polls for child death while waiting, so a
    /// worker that dies before connecting fails the run immediately.
    pub fn accept_controls(&mut self) -> Result<(), WorkerFailure> {
        let deadline = Instant::now() + self.io_timeout;
        let mut accepted = 0;
        while accepted < self.children.len() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let mut control = FramedStream::new(stream);
                    match control.recv(Some(self.io_timeout)) {
                        Ok(Message::Hello { node }) => {
                            let hello_us = orwl_obs::process_clock_us();
                            let node = node as usize;
                            if node >= self.children.len() {
                                return Err(self.fail(None, format!("hello from unknown node {node}")));
                            }
                            if self.controls[node].is_some() {
                                return Err(self.fail(Some(node), "duplicate hello"));
                            }
                            self.controls[node] = Some(control);
                            self.hello_recv_us[node] = hello_us;
                            accepted += 1;
                        }
                        Ok(other) => {
                            return Err(self.fail(None, format!("expected hello, got {}", other.name())));
                        }
                        Err(e) => {
                            return Err(self.fail(None, format!("control handshake failed: {e}")));
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Some(node) = self.first_dead_child() {
                        return Err(
                            self.fail(Some(node), "worker exited before connecting to the coordinator")
                        );
                    }
                    if Instant::now() >= deadline {
                        return Err(self.fail(None, "timed out waiting for workers to connect"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(self.fail(None, format!("control accept failed: {e}"))),
            }
        }
        Ok(())
    }

    fn first_dead_child(&mut self) -> Option<usize> {
        (0..self.children.len()).find(|&k| self.children[k].poll_exit().is_some())
    }

    /// Non-blocking probe: has `node`'s worker process exited?
    #[must_use]
    pub fn worker_exited(&mut self, node: usize) -> Option<std::process::ExitStatus> {
        self.children.get_mut(node).and_then(WorkerChild::poll_exit)
    }

    /// Sends one message to `node`'s control connection.  The write is
    /// deadline-bounded by the pool's io timeout, so a worker whose
    /// socket buffer filled up (e.g. one that was SIGSTOPped mid-run)
    /// stalls the coordinator for at most one timeout, never forever.
    pub fn send_to(&mut self, node: usize, message: &Message) -> Result<(), WorkerFailure> {
        let io_timeout = self.io_timeout;
        let Some(control) = self.controls[node].as_mut() else {
            return Err(self.fail(Some(node), "no control connection"));
        };
        if let Err(e) = control.send_with_deadline(message, io_timeout) {
            return Err(self.fail(Some(node), format!("control send failed: {e}")));
        }
        Ok(())
    }

    /// Broadcasts one message to every live (not written-off) worker.
    pub fn broadcast(&mut self, message: &Message) -> Result<(), WorkerFailure> {
        for node in 0..self.children.len() {
            if !self.dead[node] {
                self.send_to(node, message)?;
            }
        }
        Ok(())
    }

    /// One short-slice receive attempt on `node`'s control connection —
    /// the live monitor's building block: round-robin polling over every
    /// node multiplexes heartbeats, telemetry frames and `Done` reports
    /// without parking the coordinator on any single worker.  A vanished
    /// connection comes back as [`Polled::Lost`] instead of tearing the
    /// run down, so a recovery-enabled coordinator can confirm the loss
    /// and re-shard.  A worker-*reported* error is still fatal — the
    /// worker chose to fail, and the failure would recur on any survivor.
    pub fn poll_from_lossy(&mut self, node: usize, slice: Duration) -> Result<Polled, WorkerFailure> {
        let Some(control) = self.controls[node].as_mut() else {
            return Err(self.fail(Some(node), "no control connection"));
        };
        match control.recv(Some(slice)) {
            Ok(Message::Error { message }) => {
                Err(self.fail_cascade(node, format!("worker reported: {message}")))
            }
            Ok(message) => Ok(Polled::Message(message)),
            Err(RecvError::Timeout) => Ok(Polled::Silence),
            Err(RecvError::Closed) => {
                // Drain the exit status first: a crash shows up as a closed
                // socket, and the status is the useful part of the report.
                std::thread::sleep(Duration::from_millis(20));
                let status = self.children[node].poll_exit();
                Ok(Polled::Lost(match status {
                    Some(status) => format!("worker exited ({status}) during the run"),
                    None => "worker closed its control connection during the run".to_string(),
                }))
            }
            Err(e) => Ok(Polled::Lost(format!("control receive failed: {e}"))),
        }
    }

    /// Heartbeats and telemetry frames that arrived while a specific
    /// kind was awaited — [`WorkerPool::recv_from`] sets them aside
    /// instead of failing, and the coordinator drains them here: a live
    /// run's frames racing a protocol step, and every observed run's
    /// final frames, which precede `Metrics`.
    pub fn take_stray(&mut self) -> Vec<(usize, Message)> {
        std::mem::take(&mut self.stray)
    }

    /// Waits (deadline-bounded, death-aware) for one message of kind
    /// `expect` from `node`.  Heartbeats and telemetry frames may race
    /// (or, after `Shutdown`, precede) any protocol step, so they are set
    /// aside for [`WorkerPool::take_stray`] rather than failing the run;
    /// anything else unexpected — a worker-reported error, an unexpected
    /// kind, a dead or silent worker — fails the whole run.
    pub fn recv_from(&mut self, node: usize, expect: &'static str) -> Result<Message, WorkerFailure> {
        let deadline = Instant::now() + self.io_timeout;
        loop {
            match self.poll_from_lossy(node, Duration::from_millis(100))? {
                Polled::Message(message) if message.name() == expect => return Ok(message),
                Polled::Message(message @ (Message::Heartbeat { .. } | Message::TelemetryDelta { .. })) => {
                    self.stray.push((node, message));
                }
                Polled::Message(other) => {
                    return Err(self.fail(Some(node), format!("expected {expect}, got {}", other.name())));
                }
                Polled::Silence => {
                    if let Some(status) = self.children[node].poll_exit() {
                        return Err(self.fail(
                            Some(node),
                            format!("worker exited ({status}) while the coordinator awaited {expect}"),
                        ));
                    }
                    if Instant::now() >= deadline {
                        return Err(self.fail(Some(node), format!("timed out waiting for {expect}")));
                    }
                }
                Polled::Lost(detail) => {
                    return Err(self.fail(Some(node), format!("{detail} (the coordinator awaited {expect})")));
                }
            }
        }
    }

    /// Waits for every live worker to exit cleanly (deadline-bounded); a
    /// non-zero exit or an overdue worker fails the run.  Nodes written
    /// off by recovery were already reaped and are skipped.
    pub fn wait_all(&mut self) -> Result<(), WorkerFailure> {
        let deadline = Instant::now() + self.io_timeout;
        for node in 0..self.children.len() {
            if self.dead[node] {
                continue;
            }
            loop {
                if let Some(status) = self.children[node].poll_exit() {
                    if status.success() {
                        break;
                    }
                    return Err(self.fail(Some(node), format!("worker exited with {status}")));
                }
                if Instant::now() >= deadline {
                    return Err(self.fail(Some(node), "worker did not exit after shutdown"));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(())
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
                unsafe {
                    libc::kill(child.child.id() as libc::pid_t, libc::SIGTERM);
                }
            }
        }
        let grace = Instant::now() + Duration::from_millis(500);
        while Instant::now() < grace && self.children.iter_mut().any(|c| c.poll_exit().is_none()) {
            std::thread::sleep(Duration::from_millis(10));
        }
        for child in &mut self.children {
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
