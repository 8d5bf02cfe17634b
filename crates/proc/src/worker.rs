//! The worker side of the multi-process backend.
//!
//! A worker is the current binary re-exec'd with the worker-role
//! environment set.  Binaries and test harnesses that drive
//! [`ProcBackend`](crate::ProcBackend) call [`maybe_worker`] as their
//! first statement: in the parent it is a no-op, in a spawned worker it
//! runs the whole worker lifecycle and exits the process.
//!
//! Lifecycle: connect to the coordinator → `Hello` → receive the
//! [`Assignment`] → bind the peer listener and start the serving thread →
//! `Ready` → `Start` → run the local tasks, one thread each (one-shot ORWL
//! handles for local sections, the wire protocol for remote ones) → `Done`
//! → keep serving peers until
//! `Shutdown` → send the final telemetry frame (observed runs) → report
//! the grant payload bytes received per fabric lane (`Metrics`) → exit.
//!
//! From the assignment until `Shutdown` the connection has one reader, a
//! control thread: it hands every coordinator frame to the main thread in
//! order, raises the round's interrupt the moment a `Quiesce` lands, and
//! on live runs sends the heartbeats and telemetry frames between
//! receives.  Both threads write through a second handle on the socket.
//!
//! On recovery-enabled runs the execution span is a *loop of rounds*: a
//! coordinator `Quiesce` (a peer died) interrupts the running round at
//! the next iteration boundary, the worker acks, adopts whatever orphans
//! the [`ReAssignment`] routes here (fresh locations, zero progress —
//! the dead node's state died with it), and `Resume` starts the next
//! round on the remaining work.  Surviving tasks keep their iteration
//! progress across rounds.
//!
//! Fault injection comes exclusively from the typed plan in
//! [`ENV_FAULTS`](crate::fault::ENV_FAULTS) (see [`crate::fault`]); a
//! malformed plan fails the worker at startup rather than silently
//! running a different experiment.
//!
//! Remote sections run the ORWL FIFO discipline over the wire, in two
//! frames: the reader's `LockRequest` enters the owner's local FIFO (a
//! one-shot read handle on the owned location), and the `LockGrant`
//! carries back a copy of the location's value, taken under the grant.
//! The owner's section ends with that copy, before the grant is sent; the
//! reader only ever sees the copy, so it owes no `Release`.  A task's
//! remote reads of one iteration go out as one batch per owner: every
//! request in one write, then the grants in request order, as the owner
//! serves them.  Each (reader, owner) pair shares one connection and the
//! reader holds it for the whole batch, so a connection never interleaves
//! two batches and neither side needs a demultiplexer.  A round
//! resolves every read against the routing table before its tasks start,
//! dials each owner it names once, and hangs up on them when it ends:
//! routing changes only between rounds.

use crate::assignment::{Assignment, PhasePlan, ReAssignment};
use crate::coordinator::{ENV_COORD, ENV_NODE, ENV_ROLE};
use crate::fault::FaultPlan;
use crate::transport::{wait_readable, FramedStream, RecvError};
use crate::wire::{Message, WireAccess, MAX_DATA};
use orwl_core::location::Location;
use orwl_core::request::AccessMode;
use orwl_obs::json::Json;
use orwl_obs::{ClockKind, DeltaSampler, EventKind, Recorder, TelemetryDelta};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The owned-locations map, shared by the serving threads, the task
/// bodies and the recovery path (which inserts adopted locations between
/// rounds).  Readers clone the `Arc` out and drop the guard before any
/// blocking FIFO work, so a between-rounds write never deadlocks against
/// a section in flight.
type SharedLocations = Arc<RwLock<HashMap<u64, Arc<Location<u64>>>>>;

/// Process-local `LocationId` → global task index, read by every
/// telemetry send and grown by every adoption.
type SharedGlobals = Arc<RwLock<HashMap<u64, u64>>>;

/// Runs the worker lifecycle and exits iff this process was spawned as an
/// `orwl-proc` worker; returns immediately otherwise.  Call first thing
/// in `main` of any binary that drives `ProcBackend`.
pub fn maybe_worker() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("worker") {
        return;
    }
    match worker_main() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("orwl-proc worker failed: {e}");
            std::process::exit(1);
        }
    }
}

fn env_usize(key: &str) -> Result<usize, String> {
    std::env::var(key)
        .map_err(|_| format!("{key} is not set"))?
        .parse()
        .map_err(|e| format!("{key} is not a number: {e}"))
}

fn worker_main() -> Result<(), String> {
    let node = env_usize(ENV_NODE)?;
    let coord = std::env::var(ENV_COORD).map_err(|_| format!("{ENV_COORD} is not set"))?;
    // The connect retries under a bounded budget: the coordinator binds
    // the rendezvous socket before spawning, but a loaded machine can
    // still delay the listener's backlog.  `Hello` and the assignment go
    // over the stream itself; from then on it is the control thread's
    // reader, and every write goes through the clone.
    let mut stream = FramedStream::connect_retry(std::path::Path::new(&coord), Duration::from_secs(10))
        .map_err(|e| format!("connecting to coordinator: {e}"))?;
    let sender =
        Arc::new(Mutex::new(stream.try_clone().map_err(|e| format!("cloning the control stream: {e}"))?));
    stream.send(&Message::Hello { node: node as u32 }).map_err(|e| format!("sending hello: {e}"))?;
    let received = stream.recv(Some(Duration::from_secs(30)));
    let Message::Assignment { json } = expect_kind(&["assignment"], received)? else {
        unreachable!("expect_kind returns the expected kind");
    };
    let doc = Json::parse(&json).map_err(|e| format!("assignment is not valid JSON: {e}"))?;
    let assignment = Assignment::from_json(&doc).map_err(|e| format!("bad assignment: {e}"))?;
    if assignment.node != node {
        return Err(format!("assignment for node {} delivered to node {node}", assignment.node));
    }
    match run_worker(stream, &sender, &assignment) {
        Ok(()) => Ok(()),
        Err(e) => {
            // The control thread is not joined: it may be blocked in a
            // read, and the process exits right after this send.
            let _ = send_ctl(&sender, &Message::Error { message: e.clone() });
            Err(e)
        }
    }
}

/// Sends one control message under the send handle's lock.
fn send_ctl(sender: &Mutex<FramedStream>, message: &Message) -> Result<(), String> {
    sender.lock().map_err(|_| "control stream poisoned".to_string())?.send(message).map_err(|e| e.to_string())
}

/// One control receive checked against the kinds the protocol step
/// expects: anything else — including a peer-reported [`Message::Error`]
/// — becomes a descriptive error string.
fn expect_kind(kinds: &[&'static str], received: Result<Message, RecvError>) -> Result<Message, String> {
    let waiting = || kinds.join(" or ");
    match received {
        Ok(message) if kinds.contains(&message.name()) => Ok(message),
        Ok(Message::Error { message }) => Err(format!("peer reported: {message}")),
        Ok(other) => Err(format!("expected {}, got {}", waiting(), other.name())),
        Err(RecvError::Timeout) => Err(format!("while waiting for {}: timed out", waiting())),
        Err(e) => Err(format!("while waiting for {}: {e}", waiting())),
    }
}

/// The reader side of the data plane across rounds: where the owners
/// listen and which rack each is in, the request ids, and the grant
/// payload bytes received per fabric lane — the two numbers the worker
/// reports last.
struct Reader {
    peer_listen: Vec<String>,
    rack_of_node: Vec<usize>,
    my_rack: usize,
    io_timeout: Duration,
    wire_delay: Duration,
    /// Request ids, namespaced by node (high 32 bits) and never reset, so
    /// an id is unique across every reader process and every round of the
    /// run — the merged timeline matches requests to grants by this id.
    seq: AtomicU64,
    same_rack_bytes: AtomicU64,
    cross_rack_bytes: AtomicU64,
}

impl Reader {
    fn new(assignment: &Assignment, faults: &FaultPlan) -> Reader {
        Reader {
            peer_listen: assignment.peer_listen.clone(),
            rack_of_node: assignment.rack_of_node.clone(),
            my_rack: assignment.rack_of_node[assignment.node],
            io_timeout: Duration::from_millis(assignment.io_timeout_ms),
            wire_delay: Duration::from_millis(faults.wire_delay_ms(assignment.node).unwrap_or(0)),
            seq: AtomicU64::new((assignment.node as u64) << 32),
            same_rack_bytes: AtomicU64::new(0),
            cross_rack_bytes: AtomicU64::new(0),
        }
    }
}

/// One round's gateway: a serialized connection to every owner the
/// round's reads name, dialled before the round's tasks start.  Dropping
/// it when the round ends hangs up on those peers.
struct PeerGateway {
    reader: Arc<Reader>,
    conns: BTreeMap<usize, Mutex<FramedStream>>,
}

impl PeerGateway {
    /// Dials every one of `owners` (bounded retry: peers bind their
    /// listeners concurrently).
    fn dial(reader: &Arc<Reader>, owners: BTreeSet<usize>) -> Result<PeerGateway, String> {
        let mut conns = BTreeMap::new();
        for owner in owners {
            let path = std::path::Path::new(&reader.peer_listen[owner]);
            let stream = FramedStream::connect_retry(path, reader.io_timeout)
                .map_err(|e| format!("connecting to peer {owner}: {e}"))?;
            conns.insert(owner, Mutex::new(stream));
        }
        Ok(PeerGateway { reader: Arc::clone(reader), conns })
    }

    /// The remote reads `batch` (as `(src, bytes)`) of one task's
    /// iteration from `owner`, an owner this gateway dialled, under one
    /// hold of the connection: every request in one write, then each
    /// grant (with payload) in request order.  The owner closed each
    /// section when it copied the value into the grant, so nothing goes
    /// back; the `LockRelease` events, emitted after the batch's last
    /// grant, record this side's holds: each grant's from its arrival to
    /// the end of the batch.
    fn remote_reads(&self, owner: usize, batch: &[(usize, f64)]) -> Result<(), String> {
        let reader = &self.reader;
        if !reader.wire_delay.is_zero() {
            // Injected link latency (fault plans only; zero in production
            // runs): each read's delay, paid before the batch is sent.
            let reads = u32::try_from(batch.len()).unwrap_or(u32::MAX);
            std::thread::sleep(reader.wire_delay.saturating_mul(reads)); // sleep-ok: injected fault
        }
        let mut stream = self.conns[&owner].lock().map_err(|_| "gateway connection poisoned".to_string())?;
        let first = reader.seq.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let requests: Vec<Message> = (first..)
            .zip(batch)
            .map(|(seq, &(src, bytes))| {
                let location = src as u64;
                orwl_obs::emit(EventKind::LockRequest { rseq: seq, location, owner: owner as u32 });
                let want = (bytes.round().max(0.0) as u64).min(MAX_DATA as u64);
                Message::LockRequest { seq, location, access: WireAccess::Read, bytes: want }
            })
            .collect();
        stream.send_all(&requests).map_err(|e| format!("lock requests to peer {owner}: {e}"))?;
        let lane = if reader.rack_of_node[owner] == reader.my_rack {
            &reader.same_rack_bytes
        } else {
            &reader.cross_rack_bytes
        };
        // Each grant is held from its arrival until the batch's last grant
        // is in and the task goes on; its arrival is kept for the
        // `LockRelease` only when someone records it.
        let observed = orwl_obs::enabled();
        let mut arrivals = Vec::new();
        for (seq, &(src, _)) in (first..).zip(batch) {
            let location = src as u64;
            // The grant is read in place: only its length is wanted here.
            let frame = stream
                .recv_frame(Some(reader.io_timeout))
                .map_err(|e| format!("peer {owner}: waiting for grant: {e}"))?;
            let granted = match frame.grant() {
                Some(Ok((s, l, data))) if s == seq && l == location => data.len(),
                Some(Ok((s, l, _))) => {
                    return Err(format!(
                        "peer {owner}: grant {s} of location {l} arrived where grant {seq} of location {location} was due"
                    ));
                }
                _ => {
                    return Err(match frame.decode() {
                        Ok(Message::Error { message }) => format!("peer {owner}: {message}"),
                        Ok(other) => format!("peer {owner}: expected lock_grant, got {}", other.name()),
                        Err(e) => format!("peer {owner}: waiting for grant: protocol error: {e}"),
                    });
                }
            };
            if observed {
                arrivals.push((seq, location, Instant::now()));
            }
            lane.fetch_add(granted as u64, Ordering::Relaxed);
        }
        if observed {
            let released = Instant::now();
            for (rseq, location, arrived) in arrivals {
                let held_ns = released.duration_since(arrived).as_nanos() as u64;
                orwl_obs::emit(EventKind::LockRelease { rseq, location, held_ns });
            }
        }
        Ok(())
    }
}

/// Serves one inbound peer connection: each read `LockRequest` copies the
/// location's value under a read grant ([`copy_under_grant`]) and ships
/// the copy.  Anything else — a write request, a `Release` — gets an
/// `Error` and ends the connection: a section that closes at the copy can
/// grant no remote writer, and leaves nothing to release.
///
/// Every grant of the connection ships the same `Vec`, moved into the
/// message and taken back after the send.  Only its first eight bytes (the
/// location's value) are ever written and `resize` zero-fills what it adds,
/// so every byte past them is still zero, and a grant costs no fill.
fn serve_connection(mut stream: FramedStream, locations: SharedLocations, shutdown: Arc<AtomicBool>) {
    let mut data = Vec::new();
    let refusal = loop {
        let (seq, location, bytes) = match stream.recv(Some(Duration::from_millis(200))) {
            Ok(Message::LockRequest { seq, location, access: WireAccess::Read, bytes }) => {
                (seq, location, bytes)
            }
            Ok(Message::LockRequest { access: WireAccess::Write, .. }) => {
                break Some("remote writes are not served".into())
            }
            Ok(other) => break Some(format!("a peer sends only read requests, not {}", other.name())),
            Err(RecvError::Timeout) if !shutdown.load(Ordering::Relaxed) => continue,
            Err(_) => break None,
        };
        let (value, wait_ns) = match copy_under_grant(&locations, location) {
            Ok(copied) => copied,
            Err(refusal) => break Some(refusal),
        };
        let len = (bytes.min(MAX_DATA as u64)) as usize;
        data.resize(len, 0);
        let head = len.min(value.len());
        data[..head].copy_from_slice(&value[..head]);
        orwl_obs::emit(EventKind::LockGrant { rseq: seq, location, wait_ns });
        let grant = Message::LockGrant { seq, location, data: std::mem::take(&mut data) };
        let sent = stream.send(&grant);
        if let Message::LockGrant { data: shipped, .. } = grant {
            data = shipped;
        }
        if sent.is_err() {
            break None;
        }
    };
    if let Some(message) = refusal {
        let _ = stream.send(&Message::Error { message });
    }
}

/// One remote read section on an owned location: its value's bytes,
/// copied under a one-shot read grant in the location's ORWL FIFO, and the
/// nanoseconds from entering the FIFO to the grant.  The guard drops with
/// the copy, before any grant is sent, so no later section on the location
/// waits on a socket.
fn copy_under_grant(locations: &SharedLocations, location: u64) -> Result<([u8; 8], u64), String> {
    // Clone the Arc out and release the map guard before any FIFO work: a
    // blocked acquire must not hold the map against the recovery path's
    // adoption write.
    let loc = locations.read().ok().and_then(|map| map.get(&location).cloned());
    let mut handle =
        loc.ok_or_else(|| format!("location {location} is not hosted here"))?.handle(AccessMode::Read);
    let entered_fifo = Instant::now();
    handle.request().map_err(|e| format!("lock request: {e}"))?;
    let guard = handle.acquire().map_err(|e| format!("lock acquisition: {e}"))?;
    let wait_ns = entered_fifo.elapsed().as_nanos() as u64;
    Ok(((*guard).to_le_bytes(), wait_ns))
}

/// The accept loop: hands every inbound connection to its own serving
/// thread and, once shut down, joins them.
///
/// It waits on the listener and on `wake`, a wake descriptor whose other
/// end the main thread drops when the run is over: a peer's connection is
/// accepted the moment it lands, and the shutdown is seen the moment it is
/// signalled.
fn accept_loop(
    listener: UnixListener,
    wake: UnixStream,
    locations: SharedLocations,
    shutdown: Arc<AtomicBool>,
) {
    let mut handlers = Vec::new();
    // The worker's telemetry scope: this thread took it from the main
    // thread, and each serving thread takes it from here, so the grant
    // events they emit reach the worker's recorder.
    let obs = orwl_obs::current();
    // The wait has no deadline of its own, so a timeout only means "wait
    // again"; anything but the listener ending it — the wake descriptor
    // hung up, or the wait itself failing — ends the loop.
    while let Ok(ready) = wait_readable(&[listener.as_raw_fd(), wake.as_raw_fd()], Duration::MAX) {
        match ready {
            Some(0) => match listener.accept() {
                Ok((stream, _)) => {
                    let locations = Arc::clone(&locations);
                    let shutdown = Arc::clone(&shutdown);
                    let obs = obs.clone();
                    handlers.push(std::thread::spawn(move || {
                        let _obs_scope = obs.as_ref().map(orwl_obs::install);
                        serve_connection(FramedStream::new(stream), locations, shutdown)
                    }));
                }
                // The dialer gave up between the wake-up and the accept.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => break,
            },
            Some(_) => break,
            None => {}
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Why one iteration failed: a broken peer exchange (the worker-side
/// symptom of a node loss — recoverable) or anything local (never).
enum IterError {
    Remote(String),
    Local(String),
}

/// The round's one stop flag, shared by every task body, which checks it
/// at each iteration boundary.  A coordinator `Quiesce` raises it, and so
/// does a failed iteration, after recording its cause.  A cause is fatal
/// unless it is a broken peer exchange on a recovery-enabled run: the
/// worker-side symptom of a node loss, which parks the round until the
/// coordinator's quiesce instead of failing the worker.
struct Interrupt {
    recovery: bool,
    raised: AtomicBool,
    /// The first cause recorded, and whether it is fatal; a fatal cause
    /// replaces a parking one.
    cause: Mutex<Option<(String, bool)>>,
}

impl Interrupt {
    fn new(recovery: bool) -> Interrupt {
        Interrupt { recovery, raised: AtomicBool::new(false), cause: Mutex::new(None) }
    }

    /// The flag is up: the round's tasks stop at their next iteration
    /// boundary, and a round without a fatal cause ends parked.
    fn parked(&self) -> bool {
        self.raised.load(Ordering::Relaxed)
    }

    /// The coordinator asked for a quiesce (no local symptom needed).
    fn interrupt(&self) {
        self.raised.store(true, Ordering::Relaxed);
    }

    /// An iteration of `task` failed: record why, and raise the flag.
    fn stop(&self, task: usize, error: IterError) {
        let (cause, fatal) = match error {
            IterError::Remote(e) => (e, !self.recovery),
            IterError::Local(e) => (e, true),
        };
        if let Ok(mut slot) = self.cause.lock() {
            if slot.as_ref().is_none_or(|&(_, was_fatal)| fatal && !was_fatal) {
                *slot = Some((format!("task {task}: {cause}"), fatal));
            }
        }
        self.interrupt();
    }

    fn clear(&self) {
        self.raised.store(false, Ordering::Relaxed);
        if let Ok(mut slot) = self.cause.lock() {
            *slot = None;
        }
    }

    /// The recorded cause, fatal or not.
    fn cause(&self) -> Option<(String, bool)> {
        self.cause.lock().ok().and_then(|slot| slot.clone())
    }
}

/// The worker's side of the control connection after the assignment: the
/// send handle, shared with the control thread, and the frames that
/// thread reads, in arrival order.
struct Control {
    sender: Arc<Mutex<FramedStream>>,
    frames: mpsc::Receiver<Result<Message, RecvError>>,
    thread: std::thread::JoinHandle<Option<DeltaSampler>>,
}

impl Control {
    /// Spawns the control thread over `reader`, the connection's read side.
    fn spawn(
        reader: FramedStream,
        sender: Arc<Mutex<FramedStream>>,
        interrupt: Arc<Interrupt>,
        beats: Option<Beats>,
    ) -> Control {
        let (forward, frames) = mpsc::channel();
        let thread = std::thread::spawn(move || control_loop(reader, &forward, &interrupt, beats));
        Control { sender, frames, thread }
    }

    fn send(&self, message: &Message) -> Result<(), String> {
        send_ctl(&self.sender, message)
    }

    /// The next frame, which must be one of `kinds`, within `deadline`.
    fn recv(&self, kinds: &[&'static str], deadline: Duration) -> Result<Message, String> {
        let received = match self.frames.recv_timeout(deadline) {
            Ok(received) => received,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            // The thread hangs up only after forwarding `Shutdown` or the
            // error that ended its reads.
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        };
        expect_kind(kinds, received)
    }

    /// Joins the control thread once it has forwarded `Shutdown`, and
    /// takes back the sampler a live run lent it.
    fn finish(self) -> Result<Option<DeltaSampler>, String> {
        self.thread.join().map_err(|_| "control thread panicked".to_string())
    }
}

/// A live run's heartbeat schedule: from `Start`, after an injected
/// initial `stall` (straggler tests only; zero in production runs), one
/// `Heartbeat` and the interval's telemetry frames every `interval`.
struct Beats {
    link: TelemetryLink,
    sampler: DeltaSampler,
    interval: Duration,
    stall: Duration,
    /// The heartbeat-drop fault swallows the first `drop_first` beats (the
    /// seq keeps counting, frames keep flowing) — the minimal signal loss
    /// that trips straggler detection.
    drop_first: u64,
}

/// The control thread: the connection's one reader from the assignment
/// until `Shutdown`.  Every frame goes to the main thread in order, and a
/// `Quiesce` first raises the interrupt, so the round's tasks park at
/// their next iteration boundary while the main thread still waits on
/// the round.  On live runs a receive times out when the next beat is
/// due.  Returns the lent sampler.
fn control_loop(
    mut reader: FramedStream,
    forward: &mpsc::Sender<Result<Message, RecvError>>,
    interrupt: &Interrupt,
    mut beats: Option<Beats>,
) -> Option<DeltaSampler> {
    let mut next_beat: Option<Instant> = None;
    let mut seq = 0u64;
    loop {
        match reader.recv(next_beat.map(|at| at.saturating_duration_since(Instant::now()))) {
            Err(RecvError::Timeout) => {
                if let Some(b) = beats.as_mut() {
                    let beat = Message::Heartbeat { node: b.link.node, seq };
                    let sent = (seq < b.drop_first || send_ctl(&b.link.control, &beat).is_ok())
                        && b.link.send(b.sampler.sample(), true).is_ok();
                    seq += 1;
                    // A failed send means the coordinator is gone: stop
                    // beating, and let the next read report it.
                    next_beat = sent.then(|| Instant::now() + b.interval);
                }
            }
            Ok(message) => {
                match message {
                    Message::Quiesce { .. } => interrupt.interrupt(),
                    Message::Start => {
                        next_beat = beats.as_ref().map(|b| Instant::now() + b.stall + b.interval)
                    }
                    _ => {}
                }
                let shutdown = matches!(message, Message::Shutdown);
                if forward.send(Ok(message)).is_err() || shutdown {
                    break;
                }
            }
            Err(e) => {
                let _ = forward.send(Err(e));
                break;
            }
        }
    }
    beats.map(|b| b.sampler)
}

/// One task's plan: per phase, `(iterations, reads as (src, bytes))`.
type PhaseSchedule = Vec<(usize, Vec<(usize, f64)>)>;

/// One phase of a task's plan, resolved for the current round: its
/// iterations, the reads served from this node's FIFOs as
/// `(src, bytes, location)`, and the remote reads as one batch of
/// `(src, bytes)` per owner, sent through the round's gateway.
struct ResolvedPhase {
    iterations: usize,
    local: Vec<(usize, f64, Arc<Location<u64>>)>,
    remote: BTreeMap<usize, Vec<(usize, f64)>>,
}

/// The worker's mutable work ledger across rounds: per-task phase
/// schedules, completed-iteration progress and the routing table.
/// Surviving tasks carry their progress into the next round; adopted tasks
/// enter at zero (the run is checkpoint-free — the dead node's progress
/// died with it).
struct WorkState {
    /// Per task: for each phase, `(iterations, reads as (src, bytes))`.
    schedules: HashMap<usize, PhaseSchedule>,
    /// Per task: completed iterations per phase, advanced by the round's
    /// task thread.
    progress: HashMap<usize, Vec<AtomicUsize>>,
    /// The node hosting each task, replaced by every re-assignment.
    routing: Vec<usize>,
}

impl WorkState {
    fn new(assignment: &Assignment) -> WorkState {
        let mut work = WorkState {
            schedules: HashMap::new(),
            progress: HashMap::new(),
            routing: assignment.node_of_task.clone(),
        };
        work.enter(&assignment.local_tasks(), &assignment.phases);
        work
    }

    /// Enters `tasks` into the ledger at zero progress, each with the
    /// reads `phases` lists for it, in the order they are listed.  (Both
    /// documents are validated on arrival: every read's reader is one of
    /// the tasks the document brings.)
    fn enter(&mut self, tasks: &[usize], phases: &[PhasePlan]) {
        for &t in tasks {
            self.schedules.insert(t, phases.iter().map(|phase| (phase.iterations, Vec::new())).collect());
            self.progress.insert(t, phases.iter().map(|_| AtomicUsize::new(0)).collect());
        }
        for (k, phase) in phases.iter().enumerate() {
            for read in &phase.reads {
                if let Some(schedule) = self.schedules.get_mut(&read.reader) {
                    schedule[k].1.push((read.src, read.bytes));
                }
            }
        }
    }

    /// The tasks with any iterations left, in deterministic order.
    fn tasks_with_work(&self) -> Vec<usize> {
        let mut tasks: Vec<usize> =
            self.schedules
                .iter()
                .filter(|(t, schedule)| {
                    schedule.iter().enumerate().any(|(k, (iterations, _))| {
                        self.progress[*t][k].load(Ordering::Relaxed) < *iterations
                    })
                })
                .map(|(&t, _)| t)
                .collect();
        tasks.sort_unstable();
        tasks
    }
}

#[allow(clippy::too_many_lines)]
fn run_worker(
    reader: FramedStream,
    sender: &Arc<Mutex<FramedStream>>,
    assignment: &Assignment,
) -> Result<(), String> {
    let io_timeout = Duration::from_millis(assignment.io_timeout_ms);
    let faults = FaultPlan::from_env().map_err(|e| format!("fault plan: {e}"))?;
    let local_tasks = assignment.local_tasks();

    // When the assignment asks for observation, a wall-clock recorder
    // becomes this thread's scope, inherited by the peer server's threads
    // and by every round's task threads: the ORWL handles' lock-wait
    // hooks, the gateway's request/release events and the serving threads'
    // grant events all land in it.  It stamps the host's monotonic clock,
    // as the coordinator's recorder does, so the coordinator merges its
    // events by the two recorders' origins alone.  One sampler over that
    // recorder produces every telemetry frame of the run.
    let obs = assignment.obs.as_ref().map(|spec| {
        let recorder = Recorder::new(ClockKind::Wall, spec.config());
        let registration = orwl_obs::install(&recorder);
        (DeltaSampler::new(recorder), registration)
    });
    let (mut sampler, registration) = obs.unzip();

    // The locations this worker owns, keyed by global task index.  The
    // serving thread and the local task bodies share the same Arcs, so
    // remote and local sections contend in the same ORWL FIFO.
    let locations: SharedLocations = Arc::new(RwLock::new(HashMap::new()));
    {
        let mut map = locations.write().map_err(|_| "location map poisoned".to_string())?;
        for &t in &local_tasks {
            map.insert(t as u64, Location::new(format!("loc-{t}"), 0u64));
        }
    }

    let listener = UnixListener::bind(&assignment.listen)
        .map_err(|e| format!("binding peer listener at {}: {e}", assignment.listen))?;
    listener.set_nonblocking(true).map_err(|e| format!("peer listener: {e}"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (server_wake, server_woken) = UnixStream::pair().map_err(|e| format!("peer listener: {e}"))?;
    let server = {
        let locations = Arc::clone(&locations);
        let shutdown = Arc::clone(&shutdown);
        let obs = orwl_obs::current();
        std::thread::spawn(move || {
            let _obs_scope = obs.as_ref().map(orwl_obs::install);
            accept_loop(listener, server_woken, locations, shutdown)
        })
    };

    // Maps the process-local `LocationId` of every owned location to its
    // global task index — every telemetry frame must speak the global
    // location namespace.
    let global_of: SharedGlobals = Arc::new(RwLock::new(
        locations
            .read()
            .map_err(|_| "location map poisoned".to_string())?
            .iter()
            .map(|(&task, loc)| (loc.id().0, task))
            .collect(),
    ));

    // Live runs lend the sampler to the control thread — one heartbeat
    // (and, when anything happened, one frame) per configured interval
    // from `Start` until `Shutdown` — and take it back for the final
    // frame; other observed runs only ever send that final frame.
    let node = assignment.node as u32;
    let telemetry = TelemetryLink { control: Arc::clone(sender), global_of: Arc::clone(&global_of), node };
    let interval_ms = assignment.obs.as_ref().map_or(0, |spec| spec.stream_interval_ms);
    let beats = sampler.take_if(|_| interval_ms > 0).map(|sampler| Beats {
        link: telemetry.clone(),
        sampler,
        interval: Duration::from_millis(interval_ms),
        stall: Duration::from_millis(faults.stall_ms(assignment.node).unwrap_or(0)),
        drop_first: faults.drop_heartbeats(assignment.node),
    });
    let interrupt = Arc::new(Interrupt::new(assignment.recovery));
    let control = Control::spawn(reader, Arc::clone(sender), Arc::clone(&interrupt), beats);

    control.send(&Message::Ready { node })?;
    control.recv(&["start"], io_timeout)?;

    if faults.panics_after_start(assignment.node) {
        panic!("injected failure on node {} (for robustness tests)", assignment.node);
    }
    if let Some(after_ms) = faults.sigkill_after_ms(assignment.node) {
        // The hard-crash fault: this process disappears mid-run with no
        // goodbye of any kind — exactly what a powered-off host looks
        // like to the survivors.
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(after_ms)); // sleep-ok: injected fault

            // SAFETY: raising a signal against our own pid.
            unsafe {
                libc::kill(std::process::id() as libc::pid_t, libc::SIGKILL);
            }
        });
    }

    let reader = Arc::new(Reader::new(assignment, &faults));
    let mut work = WorkState::new(assignment);

    // The execution span: one round on a fault-free run; on recovery
    // runs, quiesce → ack → adopt → resume and go again until the
    // coordinator is satisfied and sends Shutdown.
    loop {
        run_round(assignment, &work, &locations, &reader, &interrupt)?;
        // A parked round is unfinished, and only the quiesce may follow.
        // A finished one reports Done, and a quiesce may still race it:
        // the coordinator tolerates that Done, and this node joins the
        // recovery round (it may adopt orphans).
        let parked = interrupt.parked();
        if !parked {
            control.send(&Message::Done { node })?;
        }
        let kinds: &[&'static str] = if parked { &["quiesce"] } else { &["shutdown", "quiesce"] };
        let next = control.recv(kinds, io_timeout).map_err(|e| match interrupt.cause() {
            Some((cause, _)) => format!("parked on a peer failure ({cause}) but recovery never arrived: {e}"),
            None => e,
        })?;
        let Message::Quiesce { round } = next else {
            break; // shutdown
        };
        apply_recovery(
            &control, assignment, round, io_timeout, &mut work, &locations, &global_of, &interrupt,
        )?;
    }
    let sampler = sampler.or(control.finish()?);

    // Every round hung up on its peers when it ended, and so did every
    // peer's last round, before the `Done` this `Shutdown` waited for: no
    // serving thread here waits on a peer, and the join is deadlock-free.
    shutdown.store(true, Ordering::Relaxed);
    drop(server_wake); // wakes the accept loop, which joins the serving threads
    let _ = server.join();

    // The final frame goes out after the Shutdown barrier: the
    // coordinator only broadcasts it once *every* node has reported Done,
    // at which point every section anywhere has been granted and released
    // — so the serving threads' grant events are all in the rings by now
    // and the drain loses nothing.  (Draining at Done instead would race
    // a slow peer's read storm against our own early finish.)  It is sent
    // even when empty: its cumulative metrics are the run's totals.  And
    // it is sent only now, with our peers hung up on, so that however long
    // a large frame spends in the write, no peer's server join is waiting
    // on our hangup meanwhile.  (The coordinator reads every node's stream
    // as it fills, so the write itself waits on nobody else's turn.)
    if let Some(mut sampler) = sampler {
        drop(registration); // stop the hooks before draining
        telemetry.send(sampler.sample(), false).map_err(|e| format!("sending final telemetry: {e}"))?;
    }

    let (same_rack_bytes, cross_rack_bytes) =
        (reader.same_rack_bytes.load(Ordering::Relaxed), reader.cross_rack_bytes.load(Ordering::Relaxed));
    send_ctl(sender, &Message::Metrics { node, same_rack_bytes, cross_rack_bytes })
}

/// One recovery exchange, entered after the round stopped (parked or
/// finished): ack the quiesce, receive and validate this node's
/// [`ReAssignment`], adopt the orphans routed here (fresh locations at
/// zero progress), replace the routing table, clear the interrupt,
/// signal `Ready` and wait out the `Resume` barrier.  The coordinator sends
/// no next `Quiesce` before that `Resume`, so the clear loses none.
#[allow(clippy::too_many_arguments)]
fn apply_recovery(
    control: &Control,
    assignment: &Assignment,
    round: u32,
    io_timeout: Duration,
    work: &mut WorkState,
    locations: &SharedLocations,
    global_of: &SharedGlobals,
    interrupt: &Interrupt,
) -> Result<(), String> {
    let node = assignment.node as u32;
    control.send(&Message::QuiesceAck { node, round })?;
    let Message::ReAssignment { json } = control.recv(&["reassignment"], io_timeout)? else {
        unreachable!("Control::recv returns the expected kind");
    };
    let doc = Json::parse(&json).map_err(|e| format!("re-assignment is not valid JSON: {e}"))?;
    let reassign = ReAssignment::from_json(&doc).map_err(|e| format!("bad re-assignment: {e}"))?;
    if reassign.node != assignment.node {
        return Err(format!(
            "re-assignment for node {} delivered to node {}",
            reassign.node, assignment.node
        ));
    }
    if reassign.round != round {
        return Err(format!("re-assignment answers round {}, quiesce was round {round}", reassign.round));
    }
    // Adopt the orphans: fresh locations (the dead node's state is gone)
    // entering the same maps the serving threads and the telemetry read.
    {
        let mut map = locations.write().map_err(|_| "location map poisoned".to_string())?;
        let mut globals = global_of.write().map_err(|_| "location namespace map poisoned".to_string())?;
        for &t in &reassign.adopted {
            let loc = Location::new(format!("loc-{t}"), 0u64);
            globals.insert(loc.id().0, t as u64);
            map.insert(t as u64, loc);
        }
    }
    work.enter(&reassign.adopted, &reassign.phases);
    work.routing = reassign.node_of_task;
    interrupt.clear();
    control.send(&Message::Ready { node })?;
    let Message::Resume { round: resumed } = control.recv(&["resume"], io_timeout)? else {
        unreachable!("Control::recv returns the expected kind");
    };
    if resumed != round {
        return Err(format!("resume for round {resumed}, expected round {round}"));
    }
    Ok(())
}

/// Where telemetry frames go: the control connection's send handle, plus
/// what a frame needs on its way out.
#[derive(Clone)]
struct TelemetryLink {
    control: Arc<Mutex<FramedStream>>,
    global_of: SharedGlobals,
    node: u32,
}

impl TelemetryLink {
    /// Sends `frames` as `TelemetryDelta` messages under one hold of the
    /// send handle's lock, after rewriting core-emitted `LockWait`
    /// locations from the process-local `LocationId` to the global task
    /// index so merged timelines speak one location namespace (the
    /// wire-level request/grant/release events already carry global
    /// indices).  With `skip_empty`, frames with nothing new stay home.
    fn send(&self, frames: Vec<TelemetryDelta>, skip_empty: bool) -> Result<(), String> {
        let globals = self.global_of.read().map_err(|_| "location namespace map poisoned".to_string())?;
        let mut stream = self.control.lock().map_err(|_| "control stream poisoned".to_string())?;
        for mut frame in frames {
            if skip_empty && frame.is_empty() {
                continue;
            }
            for ev in &mut frame.events {
                if let EventKind::LockWait { location, .. } = &mut ev.kind {
                    if let Some(&task) = globals.get(location) {
                        *location = task;
                    }
                }
            }
            stream
                .send(&Message::TelemetryDelta { node: self.node, delta: frame.encode() })
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs one round of this worker's unfinished tasks, one thread per task
/// in the worker's telemetry scope.  The threads are not bound: the
/// coordinator's plan places tasks on nodes, and the worker solves no
/// placement of its own.  Each iteration of each task writes its own
/// location under a one-shot write section, then reads its in-edges: the
/// local ones one section at a time through the shared FIFO, then the
/// remote ones in one batch per owner through the round's gateway, which
/// the owner serves one section at a time.  At most one lock is ever held,
/// so the schedule cannot deadlock whatever the interleaving across
/// processes.  Every read is resolved against the routing table before the
/// tasks start: it only changes at the quiesce barrier, where a re-shard
/// can adopt a source here and turn its reads local.  Returns the fatal
/// cause, if a task recorded one.
fn run_round(
    assignment: &Assignment,
    work: &WorkState,
    locations: &SharedLocations,
    reader: &Arc<Reader>,
    interrupt: &Interrupt,
) -> Result<(), String> {
    let tasks = work.tasks_with_work();
    if tasks.is_empty() {
        return Ok(());
    }
    let map = locations.read().map_err(|_| "location map poisoned".to_string())?;
    let hosted = |task: usize| {
        map.get(&(task as u64))
            .cloned()
            .ok_or_else(|| format!("task {task} is routed here but owns no location"))
    };
    let mut owners = BTreeSet::new();
    let mut resolved = Vec::with_capacity(tasks.len());
    for &t in &tasks {
        let mut schedule = Vec::new();
        for (iterations, reads) in &work.schedules[&t] {
            let mut phase =
                ResolvedPhase { iterations: *iterations, local: Vec::new(), remote: BTreeMap::new() };
            for &(src, bytes) in reads {
                match work.routing[src] {
                    owner if owner == assignment.node => phase.local.push((src, bytes, hosted(src)?)),
                    owner => {
                        owners.insert(owner);
                        phase.remote.entry(owner).or_default().push((src, bytes));
                    }
                }
            }
            schedule.push(phase);
        }
        resolved.push((t, hosted(t)?, schedule));
    }
    drop(map);
    let gateway = PeerGateway::dial(reader, owners)?;

    let obs = orwl_obs::current();
    let panicked: Vec<usize> = std::thread::scope(|scope| {
        let threads: Vec<_> = resolved
            .iter()
            .map(|(t, own, schedule)| {
                let (t, gateway, obs, progress) = (*t, &gateway, &obs, &work.progress[t]);
                let body = move || {
                    let _obs_scope = obs.as_ref().map(orwl_obs::install);
                    'phases: for (k, phase) in schedule.iter().enumerate() {
                        while progress[k].load(Ordering::Relaxed) < phase.iterations {
                            if interrupt.parked() {
                                break 'phases;
                            }
                            match iterate(own, phase, gateway) {
                                Ok(()) => progress[k].fetch_add(1, Ordering::Relaxed),
                                Err(error) => {
                                    interrupt.stop(t, error);
                                    break 'phases;
                                }
                            };
                        }
                    }
                };
                let thread =
                    std::thread::Builder::new().name(format!("orwl-task-{t}")).spawn_scoped(scope, body);
                (t, thread.expect("spawning a task thread cannot fail"))
            })
            .collect();
        threads.into_iter().filter_map(|(t, thread)| thread.join().is_err().then_some(t)).collect()
    });
    drop(gateway); // hang up on the round's peers
    if let Some(t) = panicked.first() {
        return Err(format!("task {t} panicked"));
    }
    match interrupt.cause() {
        Some((cause, true)) => Err(cause),
        _ => Ok(()),
    }
}

/// One iteration of a task owning `own`: write it, then take `phase`'s
/// local reads one section at a time and its remote reads one batch per
/// owner.
fn iterate(own: &Arc<Location<u64>>, phase: &ResolvedPhase, gateway: &PeerGateway) -> Result<(), IterError> {
    let mut write = own.handle(AccessMode::Write);
    write.request().map_err(|e| IterError::Local(e.to_string()))?;
    *write.acquire().map_err(|e| IterError::Local(e.to_string()))? += 1;
    drop(write);
    for (_, _, src_loc) in &phase.local {
        let mut read = src_loc.handle(AccessMode::Read);
        read.request().map_err(|e| IterError::Local(e.to_string()))?;
        std::hint::black_box(*read.acquire().map_err(|e| IterError::Local(e.to_string()))?);
    }
    for (owner, batch) in &phase.remote {
        gateway.remote_reads(*owner, batch).map_err(IterError::Remote)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_obs::ObsConfig;

    const WAIT: Duration = Duration::from_secs(10);

    /// A control thread over one end of a socket pair, beating on live
    /// runs at `(interval, stall)`, and the coordinator's end.
    fn control_pair(
        interrupt: &Arc<Interrupt>,
        live: Option<(Duration, Duration)>,
    ) -> (Control, FramedStream) {
        let (worker_end, coordinator_end) = UnixStream::pair().unwrap();
        let reader = FramedStream::new(worker_end);
        let sender = Arc::new(Mutex::new(reader.try_clone().unwrap()));
        let beats = live.map(|(interval, stall)| Beats {
            link: TelemetryLink {
                control: Arc::clone(&sender),
                global_of: Arc::new(RwLock::new(HashMap::new())),
                node: 4,
            },
            sampler: DeltaSampler::new(Recorder::new(ClockKind::Wall, ObsConfig::default())),
            interval,
            stall,
            drop_first: 0,
        });
        (Control::spawn(reader, sender, Arc::clone(interrupt), beats), FramedStream::new(coordinator_end))
    }

    #[test]
    fn the_peer_server_serves_a_first_connection_and_stops_on_the_wake_descriptor() {
        let dir = std::env::temp_dir().join(format!("orwl-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listener = UnixListener::bind(dir.join("peer.sock")).unwrap();
        listener.set_nonblocking(true).unwrap();
        let locations: SharedLocations =
            Arc::new(RwLock::new(HashMap::from([(7, Location::new("loc-7".to_string(), 41u64))])));
        let (wake, woken) = UnixStream::pair().unwrap();
        let server = {
            let shutdown = Arc::new(AtomicBool::new(false));
            std::thread::spawn(move || accept_loop(listener, woken, locations, shutdown))
        };

        // One whole remote read against an idle server: two frames.
        let socket = UnixStream::connect(dir.join("peer.sock")).unwrap();
        let mut peer = FramedStream::new(socket.try_clone().unwrap());
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
        match peer.recv(Some(WAIT)) {
            Ok(Message::LockGrant { seq: 1, location: 7, data }) => assert_eq!(data, 41u64.to_le_bytes()),
            other => panic!("expected the grant, got {other:?}"),
        }
        nothing_more_out(&mut peer, &socket);

        // The shutdown flag is never raised: hanging up the wake
        // descriptor is what ends the accept loop.
        drop(wake);
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The location, the peer's end, a second handle on that socket (to
    /// shut its writes down) and the owner's serving thread.
    type Served = (Arc<Location<u64>>, FramedStream, UnixStream, std::thread::JoinHandle<()>);

    /// Location 7, holding 41, served over one end of a socket pair, with
    /// location 9, holding 43, beside it.
    fn served_location() -> Served {
        let loc = Location::new("loc-7".to_string(), 41u64);
        let locations: SharedLocations = Arc::new(RwLock::new(HashMap::from([
            (7, Arc::clone(&loc)),
            (9, Location::new("loc-9".to_string(), 43u64)),
        ])));
        let (near, far) = UnixStream::pair().unwrap();
        let owner = std::thread::spawn(move || {
            serve_connection(FramedStream::new(far), locations, Arc::new(AtomicBool::new(false)))
        });
        (loc, FramedStream::new(near.try_clone().unwrap()), near, owner)
    }

    /// The peer is done asking: its writes end, and the owner, having read
    /// to the end, hangs up without another frame.
    fn nothing_more_out(peer: &mut FramedStream, socket: &UnixStream) {
        socket.shutdown(std::net::Shutdown::Write).unwrap();
        let next = peer.recv(Some(WAIT));
        assert!(matches!(next, Err(RecvError::Closed)), "nothing more out: {next:?}");
    }

    /// A gateway to owner 1, in this node's rack, over `stream`; request
    /// ids start at 1.
    fn gateway_over(stream: FramedStream, wire_delay: Duration) -> PeerGateway {
        let reader = Reader {
            peer_listen: Vec::new(),
            rack_of_node: vec![0, 0],
            my_rack: 0,
            io_timeout: WAIT,
            wire_delay,
            seq: AtomicU64::new(1),
            same_rack_bytes: AtomicU64::new(0),
            cross_rack_bytes: AtomicU64::new(0),
        };
        PeerGateway { reader: Arc::new(reader), conns: BTreeMap::from([(1, Mutex::new(stream))]) }
    }

    #[test]
    fn a_batch_of_requests_is_granted_in_request_order() {
        // Two locations, one named twice: the three requests arrive in one
        // write and the owner answers each, in order, with its length.
        let (_, mut peer, socket, owner) = served_location();
        let asks = [(7u64, 8usize, 41u64), (9, 1_024, 43), (7, 65_536, 41)];
        let requests: Vec<Message> = (0..)
            .zip(asks)
            .map(|(seq, (location, len, _))| Message::LockRequest {
                seq,
                location,
                access: WireAccess::Read,
                bytes: len as u64,
            })
            .collect();
        peer.send_all(&requests).unwrap();
        for (seq, (location, len, value)) in (0..).zip(asks) {
            let mut want = value.to_le_bytes().to_vec();
            want.resize(len, 0);
            match peer.recv(Some(WAIT)) {
                Ok(Message::LockGrant { seq: s, location: l, data }) if (s, l) == (seq, location) => {
                    assert_eq!(data, want, "grant {seq} of {len} bytes");
                }
                other => panic!("expected grant {seq} of location {location}, got {other:?}"),
            }
        }
        nothing_more_out(&mut peer, &socket);
        owner.join().unwrap();
    }

    #[test]
    fn a_grant_out_of_request_order_fails_the_batch_and_names_the_peer() {
        let (near, far) = UnixStream::pair().unwrap();
        let gateway = gateway_over(FramedStream::new(near), Duration::ZERO);
        // A fake owner that answers the batch's second request first.
        let fake = std::thread::spawn(move || {
            let mut owner = FramedStream::new(far);
            let mut asked = Vec::new();
            while asked.len() < 2 {
                match owner.recv(Some(WAIT)) {
                    Ok(Message::LockRequest { seq, location, bytes, .. }) => {
                        asked.push((seq, location, bytes))
                    }
                    other => panic!("expected a lock request, got {other:?}"),
                }
            }
            for (seq, location, bytes) in asked.into_iter().rev() {
                let _ = owner.send(&Message::LockGrant { seq, location, data: vec![0; bytes as usize] });
            }
            owner
        });
        // Both requests name one location, so only the request ids tell
        // the grants apart.
        let err = gateway.remote_reads(1, &[(7, 8.0), (7, 16.0)]).unwrap_err();
        assert!(err.starts_with("peer 1: grant 2 "), "{err}");
        assert_eq!(gateway.reader.same_rack_bytes.load(Ordering::Relaxed), 0, "no grant was taken");
        drop(fake.join().unwrap());
    }

    #[test]
    fn a_batch_releases_each_grant_after_its_last_one_arrives() {
        let (_, peer, socket, owner) = served_location();
        let gateway = gateway_over(peer, Duration::ZERO);
        let recorder = Recorder::new(ClockKind::Wall, ObsConfig::default());
        {
            let _obs_scope = orwl_obs::install(&recorder);
            gateway.remote_reads(1, &[(7, 8.0), (9, 1_024.0), (7, 65_536.0)]).unwrap();
        }
        nothing_more_out(&mut gateway.conns[&1].lock().unwrap(), &socket);
        owner.join().unwrap();

        // The releases come in request order, and an earlier grant was
        // held at least as long as a later one.
        let releases = releases_of(&recorder);
        let order: Vec<(u64, u64)> = releases.iter().map(|&(rseq, location, _)| (rseq, location)).collect();
        assert_eq!(order, [(1, 7), (2, 9), (3, 7)], "{releases:?}");
        assert!(releases.windows(2).all(|w| w[0].2 >= w[1].2), "holds increase: {releases:?}");

        // An owner that is slow with the last grant: the earlier two are
        // held while the task waits for it.
        let (near, far) = UnixStream::pair().unwrap();
        let gateway = gateway_over(FramedStream::new(near), Duration::ZERO);
        let slow = Duration::from_millis(5);
        let owner = std::thread::spawn(move || {
            let mut owner = FramedStream::new(far);
            for k in 0..3 {
                let Ok(Message::LockRequest { seq, location, bytes, .. }) = owner.recv(Some(WAIT)) else {
                    panic!("expected request {k}");
                };
                if k == 2 {
                    std::thread::sleep(slow); // sleep-ok: the owner under test is slow
                }
                owner.send(&Message::LockGrant { seq, location, data: vec![0; bytes as usize] }).unwrap();
            }
            owner
        });
        let recorder = Recorder::new(ClockKind::Wall, ObsConfig::default());
        {
            let _obs_scope = orwl_obs::install(&recorder);
            gateway.remote_reads(1, &[(7, 8.0), (9, 8.0), (7, 8.0)]).unwrap();
        }
        drop(owner.join().unwrap());
        let held: Vec<u64> = releases_of(&recorder).iter().map(|r| r.2).collect();
        let slow_ns = slow.as_nanos() as u64;
        assert!(held.len() == 3 && held[0] >= slow_ns && held[1] >= slow_ns && held[2] < slow_ns, "{held:?}");
    }

    /// The `LockRelease`s `recorder` holds: request id, location and hold.
    fn releases_of(recorder: &Arc<Recorder>) -> Vec<(u64, u64, u64)> {
        recorder
            .finish("proc")
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LockRelease { rseq, location, held_ns } => Some((rseq, location, held_ns)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_wire_delay_is_paid_once_per_read_of_a_batch() {
        let (_, peer, socket, owner) = served_location();
        let gateway = gateway_over(peer, Duration::from_millis(5));
        let started = Instant::now();
        gateway.remote_reads(1, &[(7, 8.0), (9, 8.0), (7, 8.0)]).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(15), "paid {:?}", started.elapsed());
        assert_eq!(gateway.reader.same_rack_bytes.load(Ordering::Relaxed), 24);
        nothing_more_out(&mut gateway.conns[&1].lock().unwrap(), &socket);
        owner.join().unwrap();
    }

    #[test]
    fn one_connection_reuses_its_grant_buffer_without_leaking_stale_bytes() {
        // Shrinking, growing past the value, zero length and a size just
        // past the value: a reused buffer that kept a stale byte anywhere
        // would show it in one of these grants.
        let (_, mut peer, socket, owner) = served_location();
        for (seq, len) in [64usize, 4, 16, 0, 9].into_iter().enumerate() {
            let seq = seq as u64;
            let request =
                Message::LockRequest { seq, location: 7, access: WireAccess::Read, bytes: len as u64 };
            peer.send(&request).unwrap();
            let mut want = 41u64.to_le_bytes()[..len.min(8)].to_vec();
            want.resize(len, 0);
            match peer.recv(Some(WAIT)) {
                Ok(Message::LockGrant { seq: s, location: 7, data }) if s == seq => {
                    assert_eq!(data, want, "grant of {len} bytes");
                }
                other => panic!("expected grant {seq}, got {other:?}"),
            }
        }
        nothing_more_out(&mut peer, &socket);
        owner.join().unwrap();
    }

    #[test]
    fn a_local_writer_is_not_held_by_a_reader_that_never_reads_its_grant() {
        let (loc, mut peer, socket, owner) = served_location();
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
        // The grant is on the wire once the peer's end turns readable; the
        // peer leaves it there.
        assert_eq!(wait_readable(&[peer.as_raw_fd()], WAIT).unwrap(), Some(0));
        let (acquired, took) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut write = loc.handle(AccessMode::Write);
            write.request().unwrap();
            *write.acquire().unwrap() = 42;
            let _ = acquired.send(());
        });
        assert!(took.recv_timeout(WAIT / 10).is_ok(), "the local writer waited on an unread grant");
        writer.join().unwrap();
        // The grant still carries the value at the reader's place in the
        // FIFO, not the writer's.
        match peer.recv(Some(WAIT)) {
            Ok(Message::LockGrant { seq: 1, location: 7, data }) => assert_eq!(data, 41u64.to_le_bytes()),
            other => panic!("expected the grant, got {other:?}"),
        }
        nothing_more_out(&mut peer, &socket);
        owner.join().unwrap();
    }

    #[test]
    fn a_remote_write_request_is_refused_and_ends_the_connection() {
        let (_, mut peer, _, owner) = served_location();
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Write, bytes: 8 })
            .unwrap();
        let refusal = Message::Error { message: "remote writes are not served".to_string() };
        assert_eq!(peer.recv(Some(WAIT)).unwrap(), refusal);
        assert!(matches!(peer.recv(Some(WAIT)), Err(RecvError::Closed)), "the owner hung up");
        owner.join().unwrap();
    }

    #[test]
    fn a_release_is_a_protocol_error_and_ends_the_connection() {
        // The grant closed the section, so a release names nothing open.
        let (_, mut peer, _, owner) = served_location();
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
        assert!(matches!(peer.recv(Some(WAIT)), Ok(Message::LockGrant { seq: 1, location: 7, .. })));
        peer.send(&Message::Release { seq: 1, location: 7 }).unwrap();
        match peer.recv(Some(WAIT)) {
            Ok(Message::Error { message }) => assert!(message.contains("release"), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(matches!(peer.recv(Some(WAIT)), Err(RecvError::Closed)), "the owner hung up");
        owner.join().unwrap();
    }

    #[test]
    fn a_queued_remote_read_records_its_owner_wait_as_one_lock_wait() {
        // The contention table counts the owner's FIFO wait of a remote
        // read through the serving thread's `LockWait`; the grant carries
        // the same wait for the stage breakdown only.
        let recorder = Recorder::new(
            ClockKind::Wall,
            ObsConfig { lock_wait_threshold_ns: 1_000, ..ObsConfig::default() },
        );
        let loc = Location::new("loc-7".to_string(), 41u64);
        let locations: SharedLocations = Arc::new(RwLock::new(HashMap::from([(7, Arc::clone(&loc))])));
        let (near, far) = UnixStream::pair().unwrap();
        let owner = {
            let recorder = Arc::clone(&recorder);
            std::thread::spawn(move || {
                let _obs_scope = orwl_obs::install(&recorder);
                serve_connection(FramedStream::new(far), locations, Arc::new(AtomicBool::new(false)))
            })
        };
        let mut peer = FramedStream::new(near);
        let mut write = loc.handle(AccessMode::Write);
        write.request().unwrap();
        let guard = write.acquire().unwrap();
        let unread = Arc::strong_count(&loc);
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
        // The hold is timed from the moment the serving thread has taken
        // the location out of its map for this request — a few statements
        // before its FIFO wait starts — not from the send, which the
        // serving thread may read late.
        let read_by = Instant::now() + WAIT;
        while Arc::strong_count(&loc) == unread {
            assert!(Instant::now() < read_by, "the owner never read the request");
            std::thread::yield_now();
        }
        let held = Duration::from_millis(20);
        assert_eq!(wait_readable(&[peer.as_raw_fd()], held).unwrap(), None, "granted past a held writer");
        drop(guard);
        assert!(matches!(peer.recv(Some(WAIT)), Ok(Message::LockGrant { seq: 1, location: 7, .. })));
        drop(peer);
        owner.join().unwrap();

        let events = recorder.finish("proc").events;
        let waits: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LockWait { location, wait_ns } => Some((location, wait_ns)),
                _ => None,
            })
            .collect();
        let grants: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::LockGrant { wait_ns, .. } => Some(wait_ns),
                _ => None,
            })
            .collect();
        let held_ns = held.as_nanos() as u64;
        assert_eq!(waits.len(), 1, "{waits:?}");
        assert_eq!(waits[0].0, loc.id().0, "the wait names the owned location");
        assert!(waits[0].1 >= held_ns, "{waits:?}");
        assert_eq!(grants.len(), 1, "{grants:?}");
        assert!(grants[0] >= waits[0].1, "the grant's wait spans the acquire: {grants:?} {waits:?}");
    }

    #[test]
    fn the_control_thread_hands_frames_over_in_order_and_raises_the_interrupt_first() {
        let interrupt = Arc::new(Interrupt::new(true));
        let (control, mut coordinator) = control_pair(&interrupt, None);
        assert_eq!(
            control.recv(&["start"], Duration::from_millis(1)).unwrap_err(),
            "while waiting for start: timed out"
        );
        coordinator.send(&Message::Start).unwrap();
        assert_eq!(control.recv(&["start"], WAIT).unwrap(), Message::Start);
        // Between frames the control thread waits in a receive with no
        // deadline; a send goes through the other handle and never waits
        // for it.
        control.send(&Message::Done { node: 4 }).unwrap();
        assert_eq!(coordinator.recv(Some(WAIT)).unwrap(), Message::Done { node: 4 });

        for message in [Message::Quiesce { round: 3 }, Message::Resume { round: 3 }, Message::Shutdown] {
            coordinator.send(&message).unwrap();
        }
        assert_eq!(control.recv(&["shutdown", "quiesce"], WAIT).unwrap(), Message::Quiesce { round: 3 });
        assert!(interrupt.parked(), "the interrupt is raised before the quiesce is handed over");
        assert_eq!(control.recv(&["reassignment"], WAIT).unwrap_err(), "expected reassignment, got resume");
        assert_eq!(control.recv(&["shutdown"], WAIT).unwrap(), Message::Shutdown);
        assert!(control.finish().unwrap().is_none(), "no sampler was lent");
    }

    #[test]
    fn the_control_thread_beats_from_start_and_hands_its_sampler_back_at_shutdown() {
        let interrupt = Arc::new(Interrupt::new(false));
        let (control, mut coordinator) =
            control_pair(&interrupt, Some((Duration::from_millis(1), Duration::ZERO)));
        let quiet = coordinator.recv(Some(Duration::from_millis(20)));
        assert!(matches!(quiet, Err(RecvError::Timeout)), "no beat before start: {quiet:?}");
        coordinator.send(&Message::Start).unwrap();
        assert_eq!(coordinator.recv(Some(WAIT)).unwrap(), Message::Heartbeat { node: 4, seq: 0 });
        coordinator.send(&Message::Shutdown).unwrap();
        assert_eq!(control.recv(&["start"], WAIT).unwrap(), Message::Start);
        assert_eq!(control.recv(&["shutdown"], WAIT).unwrap(), Message::Shutdown);
        assert!(control.finish().unwrap().is_some());

        // An interval, or an injected stall, that would outlast the test
        // run is cut short by the shutdown.
        let hour = Duration::from_secs(3600);
        for (interval, stall) in [(hour, Duration::ZERO), (Duration::from_millis(1), hour)] {
            let (control, mut coordinator) = control_pair(&interrupt, Some((interval, stall)));
            coordinator.send(&Message::Start).unwrap();
            coordinator.send(&Message::Shutdown).unwrap();
            assert_eq!(control.recv(&["start"], WAIT).unwrap(), Message::Start);
            assert_eq!(control.recv(&["shutdown"], WAIT).unwrap(), Message::Shutdown);
            assert!(control.finish().unwrap().is_some());
        }
    }
}
