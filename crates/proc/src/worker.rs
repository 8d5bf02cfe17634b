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
//! `Ready` → `Start` → run the local tasks through a real
//! `orwl_core` session (one-shot ORWL handles for local sections, the
//! wire protocol for remote ones) → `Done` → keep serving peers until
//! `Shutdown` → send the final telemetry frame (observed runs) → report
//! [`WorkerMetrics`] → exit.
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
//! reader only ever sees the copy, so it owes no `Release`.  Each
//! (reader, owner) pair shares one connection and the reader holds it for
//! the whole request→grant exchange, so a connection never interleaves
//! two sections and the server side needs no demultiplexer.

use crate::assignment::{Assignment, PhasePlan, ReAssignment};
use crate::coordinator::{ENV_COORD, ENV_NODE, ENV_ROLE};
use crate::fault::FaultPlan;
use crate::metrics::{WorkerMetrics, MAX_WAIT_SAMPLES};
use crate::transport::{wait_readable, FramedStream, RecvError, PARTIAL_FRAME_WAIT};
use crate::wire::{Message, WireAccess, MAX_DATA};
use orwl_core::location::Location;
use orwl_core::request::AccessMode;
use orwl_core::session::{Session, ThreadBackend};
use orwl_core::task::{LocationLink, OrwlProgram, TaskSpec};
use orwl_obs::json::Json;
use orwl_obs::{ClockKind, DeltaSampler, EventKind, Recorder, TelemetryDelta};
use orwl_topo::binding::RecordingBinder;
use orwl_topo::object::ObjectType;
use orwl_topo::topology::{LevelSpec, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
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
    // The control stream is shared between the main protocol thread and
    // (on live runs) the telemetry streamer, so it lives behind a mutex
    // from the start; every receive takes the lock in short slices so a
    // blocked wait never starves the streamer's sends.  The connect
    // retries under a bounded budget: the coordinator binds the
    // rendezvous socket before spawning, but a loaded machine can still
    // delay the listener's backlog.
    let control = Arc::new(Mutex::new(
        FramedStream::connect_retry(std::path::Path::new(&coord), Duration::from_secs(10))
            .map_err(|e| format!("connecting to coordinator: {e}"))?,
    ));
    send_ctl(&control, &Message::Hello { node: node as u32 }).map_err(|e| format!("sending hello: {e}"))?;
    let Message::Assignment { json } = recv_ctl(&control, "assignment", Duration::from_secs(30))? else {
        unreachable!("recv_ctl returns the expected kind");
    };
    let doc = Json::parse(&json).map_err(|e| format!("assignment is not valid JSON: {e}"))?;
    let assignment = Assignment::from_json(&doc).map_err(|e| format!("bad assignment: {e}"))?;
    if assignment.node != node {
        return Err(format!("assignment for node {} delivered to node {node}", assignment.node));
    }
    match run_worker(&control, &assignment) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = send_ctl(&control, &Message::Error { message: e.clone() });
            Err(e)
        }
    }
}

/// Sends one control message under the shared-stream lock.
fn send_ctl(control: &Arc<Mutex<FramedStream>>, message: &Message) -> Result<(), String> {
    control
        .lock()
        .map_err(|_| "control stream poisoned".to_string())?
        .send(message)
        .map_err(|e| e.to_string())
}

/// Receives one frame of the expected kind from the shared control stream
/// (anything else — including a peer-reported [`Message::Error`] — becomes a
/// descriptive error string), holding the lock only in 50 ms slices so the streamer thread can interleave its sends while
/// the main thread waits out a long protocol step.
fn recv_ctl(
    control: &Arc<Mutex<FramedStream>>,
    expect: &'static str,
    deadline: Duration,
) -> Result<Message, String> {
    recv_ctl_any(control, &[expect], deadline)
}

/// [`recv_ctl`] accepting any of several kinds — the post-`Done` wait can
/// legitimately see either `Shutdown` (run over) or `Quiesce` (a peer
/// died and this worker is being pulled into a recovery round).
fn recv_ctl_any(
    control: &Arc<Mutex<FramedStream>>,
    expect: &[&'static str],
    deadline: Duration,
) -> Result<Message, String> {
    let start = Instant::now();
    loop {
        let outcome = control
            .lock()
            .map_err(|_| "control stream poisoned".to_string())?
            .recv(Some(Duration::from_millis(50)));
        match outcome {
            Ok(message) if expect.contains(&message.name()) => return Ok(message),
            Ok(Message::Error { message }) => return Err(format!("peer reported: {message}")),
            Ok(other) => {
                return Err(format!("expected {}, got {}", expect.join(" or "), other.name()));
            }
            Err(RecvError::Timeout) => {
                if start.elapsed() >= deadline {
                    return Err(format!("while waiting for {}: timed out", expect.join(" or ")));
                }
            }
            Err(e) => return Err(format!("while waiting for {}: {e}", expect.join(" or "))),
        }
    }
}

/// Shared tallies of the reader side (remote sections this worker opened).
#[derive(Default)]
struct ReaderTallies {
    same_rack_payload_bytes: AtomicU64,
    cross_rack_payload_bytes: AtomicU64,
    remote_reads: AtomicU64,
    lock_wait_count: AtomicU64,
    lock_wait_total_ns: AtomicU64,
    lock_wait_samples: Mutex<Vec<(u64, u64)>>,
}

/// The reader-side gateway: one serialized connection per owner peer.
/// Recovery rewrites the routing table and drops the dead peer's
/// connection between rounds; connections to new owners open lazily on
/// first use.
struct PeerGateway {
    conns: RwLock<BTreeMap<usize, Arc<Mutex<FramedStream>>>>,
    routing: RwLock<Vec<usize>>,
    peer_listen: Vec<String>,
    rack_of_node: Vec<usize>,
    my_node: usize,
    my_rack: usize,
    io_timeout: Duration,
    wire_delay: Duration,
    seq: AtomicU64,
    tallies: ReaderTallies,
}

impl PeerGateway {
    fn connect(assignment: &Assignment, faults: &FaultPlan) -> Result<PeerGateway, String> {
        let gateway = PeerGateway {
            conns: RwLock::new(BTreeMap::new()),
            routing: RwLock::new(assignment.node_of_task.clone()),
            peer_listen: assignment.peer_listen.clone(),
            rack_of_node: assignment.rack_of_node.clone(),
            my_node: assignment.node,
            my_rack: assignment.rack_of_node[assignment.node],
            io_timeout: Duration::from_millis(assignment.io_timeout_ms),
            wire_delay: Duration::from_millis(faults.wire_delay_ms(assignment.node).unwrap_or(0)),
            // Seqs are namespaced by node (high 32 bits) so a request id
            // is unique across every reader process of the run — the
            // merged timeline matches requests to grants by this id.
            seq: AtomicU64::new((assignment.node as u64) << 32),
            tallies: ReaderTallies::default(),
        };
        // Eagerly dial every owner the initial schedule names; peers
        // adopted into the routing later connect lazily on first read.
        let mut peers = BTreeSet::new();
        for phase in &assignment.phases {
            for read in &phase.reads {
                let owner = assignment.node_of_task[read.src];
                if owner != assignment.node {
                    peers.insert(owner);
                }
            }
        }
        for peer in peers {
            gateway.conn_for(peer)?;
        }
        Ok(gateway)
    }

    /// The serialized connection to `owner`, dialling it (bounded retry:
    /// peers bind their listeners concurrently) on first use.
    fn conn_for(&self, owner: usize) -> Result<Arc<Mutex<FramedStream>>, String> {
        if let Some(conn) = self.conns.read().ok().and_then(|map| map.get(&owner).cloned()) {
            return Ok(conn);
        }
        let mut map = self.conns.write().map_err(|_| "gateway connection map poisoned".to_string())?;
        if let Some(conn) = map.get(&owner) {
            return Ok(Arc::clone(conn));
        }
        let path = std::path::Path::new(&self.peer_listen[owner]);
        let stream = FramedStream::connect_retry(path, self.io_timeout)
            .map_err(|e| format!("connecting to peer {owner}: {e}"))?;
        let conn = Arc::new(Mutex::new(stream));
        map.insert(owner, Arc::clone(&conn));
        Ok(conn)
    }

    /// Swaps in the post-loss routing table and hangs up on the dead
    /// peer.  Runs between rounds only (the quiesce barrier guarantees no
    /// section is in flight).
    fn apply_reassignment(&self, node_of_task: &[usize], dead: usize) {
        if let Ok(mut routing) = self.routing.write() {
            node_of_task.clone_into(&mut routing);
        }
        if let Ok(mut conns) = self.conns.write() {
            conns.remove(&dead);
        }
    }

    /// One remote read: request → grant (with payload).  The owner closed
    /// its section when it copied the value into the grant, so nothing
    /// goes back; the `LockRelease` event records this side's hold.
    fn remote_read(&self, src: usize, bytes: f64) -> Result<(), String> {
        let owner = self
            .routing
            .read()
            .map_err(|_| "gateway routing table poisoned".to_string())?
            .get(src)
            .copied()
            .ok_or_else(|| format!("task {src} is not in the routing table"))?;
        if owner == self.my_node {
            return Err(format!("task {src} is routed here but its location is absent"));
        }
        let conn = self.conn_for(owner)?;
        if !self.wire_delay.is_zero() {
            // Injected link latency (fault plans only; zero in production
            // runs), paid before the section opens.
            std::thread::sleep(self.wire_delay); // sleep-ok: injected fault
        }
        let mut stream = conn.lock().map_err(|_| "gateway connection poisoned".to_string())?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let want = (bytes.round().max(0.0) as u64).min(MAX_DATA as u64);
        let location = src as u64;
        orwl_obs::emit(EventKind::LockRequest { rseq: seq, location, owner: owner as u32 });
        stream
            .send(&Message::LockRequest { seq, location, access: WireAccess::Read, bytes: want })
            .map_err(|e| format!("lock request to peer {owner}: {e}"))?;
        let requested = Instant::now();
        // The grant is read in place: only its length is wanted here.
        let frame = stream
            .recv_frame(Some(self.io_timeout))
            .map_err(|e| format!("peer {owner}: waiting for grant: {e}"))?;
        let granted = match frame.grant() {
            Some(Ok((s, l, data))) if s == seq && l == location => data.len(),
            _ => {
                return Err(match frame.decode() {
                    Ok(Message::Error { message }) => format!("peer {owner}: {message}"),
                    Ok(other) => format!("peer {owner}: expected lock_grant, got {}", other.name()),
                    Err(e) => format!("peer {owner}: waiting for grant: protocol error: {e}"),
                });
            }
        };
        let wait_ns = requested.elapsed().as_nanos() as u64;
        let granted_at = Instant::now();
        orwl_obs::emit(EventKind::LockRelease {
            rseq: seq,
            location,
            held_ns: granted_at.elapsed().as_nanos() as u64,
        });
        drop(stream);

        let lane = if self.rack_of_node[owner] == self.my_rack {
            &self.tallies.same_rack_payload_bytes
        } else {
            &self.tallies.cross_rack_payload_bytes
        };
        lane.fetch_add(granted as u64, Ordering::Relaxed);
        self.tallies.remote_reads.fetch_add(1, Ordering::Relaxed);
        self.tallies.lock_wait_count.fetch_add(1, Ordering::Relaxed);
        self.tallies.lock_wait_total_ns.fetch_add(wait_ns, Ordering::Relaxed);
        if let Ok(mut samples) = self.tallies.lock_wait_samples.lock() {
            if samples.len() < MAX_WAIT_SAMPLES {
                samples.push((location, wait_ns));
            }
        }
        Ok(())
    }

    /// Tears the gateway apart for the teardown accounting.
    fn into_parts(self) -> (BTreeMap<usize, Arc<Mutex<FramedStream>>>, ReaderTallies) {
        let conns = self.conns.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        (conns, self.tallies)
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
fn serve_connection(
    mut stream: FramedStream,
    locations: SharedLocations,
    shutdown: Arc<AtomicBool>,
) -> (u64, u64, u64, u64) {
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
    (stream.frames_sent(), stream.frames_received(), stream.bytes_sent(), stream.bytes_received())
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
/// thread and, once shut down, joins them and returns the summed socket
/// counters as `(frames_sent, frames_received, bytes_sent, bytes_received)`.
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
) -> (u64, u64, u64, u64) {
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
    let mut totals = (0, 0, 0, 0);
    for handler in handlers {
        if let Ok((fs, fr, bs, br)) = handler.join() {
            totals = (totals.0 + fs, totals.1 + fr, totals.2 + bs, totals.3 + br);
        }
    }
    totals
}

/// Why one iteration failed: a broken peer exchange (the worker-side
/// symptom of a node loss — recoverable) or anything local (never).
enum IterError {
    Remote(String),
    Local(String),
}

/// The park-on-peer-failure switch shared by every task body of a round.
/// On recovery-enabled runs a remote failure (or a coordinator `Quiesce`
/// relayed by the watcher) flips it, and every task breaks out at its
/// next iteration boundary instead of failing the worker.
struct Interrupt {
    enabled: bool,
    quiesce: AtomicBool,
    reason: Mutex<Option<String>>,
}

impl Interrupt {
    fn new(enabled: bool) -> Interrupt {
        Interrupt { enabled, quiesce: AtomicBool::new(false), reason: Mutex::new(None) }
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn parked(&self) -> bool {
        self.enabled && self.quiesce.load(Ordering::Relaxed)
    }

    /// A task hit a broken peer: remember the first cause and park.
    fn park(&self, reason: String) {
        if let Ok(mut slot) = self.reason.lock() {
            slot.get_or_insert(reason);
        }
        self.quiesce.store(true, Ordering::Relaxed);
    }

    /// The coordinator asked for a quiesce (no local symptom needed).
    fn interrupt(&self) {
        self.quiesce.store(true, Ordering::Relaxed);
    }

    fn clear(&self) {
        self.quiesce.store(false, Ordering::Relaxed);
        if let Ok(mut slot) = self.reason.lock() {
            *slot = None;
        }
    }

    fn parked_reason(&self) -> Option<String> {
        self.reason.lock().ok().and_then(|slot| slot.clone())
    }
}

/// Listens for the coordinator's `Quiesce` while a round runs, so a
/// worker whose own tasks never touch the dead node still parks promptly.
/// The main thread joins the watcher *before* its next control receive,
/// so the two never contend for a frame.
struct QuiesceWatcher {
    /// Dropping this end of the wake descriptor stops the watcher.
    stop: UnixStream,
    handle: std::thread::JoinHandle<Option<u32>>,
}

impl QuiesceWatcher {
    fn spawn(
        control: Arc<Mutex<FramedStream>>,
        interrupt: Arc<Interrupt>,
    ) -> std::io::Result<QuiesceWatcher> {
        let (stop, stopped) = UnixStream::pair()?;
        let handle = std::thread::spawn(move || {
            // The descriptor is the same for as long as the stream lives,
            // and the watcher's own `Arc` keeps it alive.
            let control_fd = control.lock().ok()?.as_raw_fd();
            loop {
                // The stream is locked only to read what has arrived (or
                // was left in its reader by the main thread's last
                // receive), never while idle: the telemetry streamer
                // shares it and sends once per interval.
                let outcome = control.lock().ok()?.recv(Some(PARTIAL_FRAME_WAIT));
                match outcome {
                    Ok(Message::Quiesce { round }) => {
                        interrupt.interrupt();
                        return Some(round);
                    }
                    // Mid-round the coordinator sends nothing else; an
                    // unexpected frame is left to the main thread's own
                    // post-round receive to diagnose.
                    Ok(_) => continue,
                    Err(RecvError::Timeout) => {}
                    Err(_) => return None,
                }
                // Idle, unlocked: until the coordinator speaks or the
                // main thread hangs up the wake descriptor.
                match wait_readable(&[control_fd, stopped.as_raw_fd()], Duration::MAX) {
                    Ok(Some(0) | None) => {}
                    _ => return None,
                }
            }
        });
        Ok(QuiesceWatcher { stop, handle })
    }

    /// Joins the watcher; `Some(round)` if it consumed a `Quiesce`.
    fn stop(self) -> Option<u32> {
        drop(self.stop);
        self.handle.join().unwrap_or(None)
    }
}

/// One task's plan: per phase, `(iterations, reads as (src, bytes))`.
type PhaseSchedule = Vec<(usize, Vec<(usize, f64)>)>;

/// A [`PhaseSchedule`] with each read's locality resolved for the
/// current round: `Some(location)` when the source lives on this node.
type ResolvedSchedule = Vec<(usize, Vec<(usize, f64, Option<Arc<Location<u64>>>)>)>;

/// The worker's mutable work ledger across rounds: per-task phase
/// schedules and completed-iteration progress.  Surviving tasks carry
/// their progress into the next round; adopted tasks enter at zero (the
/// run is checkpoint-free — the dead node's progress died with it).
struct WorkState {
    /// Per task: for each phase, `(iterations, reads as (src, bytes))`.
    schedules: HashMap<usize, PhaseSchedule>,
    /// Per task: completed iterations per phase, shared with the round's
    /// task closure.
    progress: HashMap<usize, Arc<Vec<AtomicUsize>>>,
}

impl WorkState {
    fn new(assignment: &Assignment) -> WorkState {
        let mut work = WorkState { schedules: HashMap::new(), progress: HashMap::new() };
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
            self.progress.insert(t, Arc::new(phases.iter().map(|_| AtomicUsize::new(0)).collect()));
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
fn run_worker(control: &Arc<Mutex<FramedStream>>, assignment: &Assignment) -> Result<(), String> {
    let io_timeout = Duration::from_millis(assignment.io_timeout_ms);
    let faults = FaultPlan::from_env().map_err(|e| format!("fault plan: {e}"))?;
    let local_tasks = assignment.local_tasks();

    // When the assignment asks for observation, a wall-clock recorder
    // becomes this thread's scope, inherited by the peer server's threads
    // and by every round's session threads: the core session's lock-wait
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

    send_ctl(control, &Message::Ready { node: assignment.node as u32 })?;
    recv_ctl(control, "start", io_timeout)?;

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

    let gateway = Arc::new(PeerGateway::connect(assignment, &faults)?);

    // Live runs lend the sampler to a streamer from `Start` until
    // `Shutdown` — one heartbeat (and, when anything happened, one frame)
    // per configured interval, interleaved on the shared control stream —
    // and take it back for the final frame; other observed runs only ever
    // send that final frame.
    let telemetry = TelemetryLink {
        control: Arc::clone(control),
        global_of: Arc::clone(&global_of),
        node: assignment.node as u32,
    };
    let interval_ms = assignment.obs.as_ref().map_or(0, |spec| spec.stream_interval_ms);
    let streamer = if interval_ms > 0 {
        sampler
            .take()
            .map(|sampler| {
                Streamer::spawn(
                    telemetry.clone(),
                    sampler,
                    Duration::from_millis(interval_ms),
                    Duration::from_millis(faults.stall_ms(assignment.node).unwrap_or(0)),
                    faults.drop_heartbeats(assignment.node),
                )
            })
            .transpose()
            .map_err(|e| format!("starting the telemetry streamer: {e}"))?
    } else {
        None
    };

    let mut work = WorkState::new(assignment);
    let interrupt = Arc::new(Interrupt::new(assignment.recovery));
    let mut wall_seconds = 0.0;

    // The execution span: one round on a fault-free run; on recovery
    // rounds, quiesce → ack → adopt → resume and go again until the
    // coordinator is satisfied and sends Shutdown.
    let run_outcome = (|| -> Result<(), String> {
        loop {
            let watcher = assignment
                .recovery
                .then(|| QuiesceWatcher::spawn(Arc::clone(control), Arc::clone(&interrupt)))
                .transpose()
                .map_err(|e| format!("starting the quiesce watcher: {e}"))?;
            let started = Instant::now();
            let round_outcome = run_round(assignment, &work, &locations, &gateway, &interrupt);
            wall_seconds += started.elapsed().as_secs_f64();
            // Join before any receive: the watcher and the main thread
            // must never race for a control frame.
            let quiesce_round = watcher.and_then(QuiesceWatcher::stop);
            round_outcome?;
            if interrupt.parked() {
                // Parked on a peer failure (or the watcher's quiesce).
                // The coordinator's Quiesce is either already consumed by
                // the watcher or still in flight.
                let round = match quiesce_round {
                    Some(round) => round,
                    None => {
                        let message =
                            recv_ctl(control, "quiesce", io_timeout).map_err(|e| {
                                match interrupt.parked_reason() {
                                    Some(cause) => {
                                        format!(
                                        "parked on a peer failure ({cause}) but recovery never arrived: {e}"
                                    )
                                    }
                                    None => e,
                                }
                            })?;
                        let Message::Quiesce { round } = message else {
                            unreachable!("recv_ctl returns the expected kind");
                        };
                        round
                    }
                };
                apply_recovery(
                    control, assignment, round, io_timeout, &mut work, &locations, &global_of, &gateway,
                )?;
                interrupt.clear();
                continue;
            }
            send_ctl(control, &Message::Done { node: assignment.node as u32 })?;
            if let Some(round) = quiesce_round {
                // The quiesce raced our natural finish: the Done above is
                // tolerated by the coordinator, and we still join the
                // recovery round (we may adopt orphans).
                apply_recovery(
                    control, assignment, round, io_timeout, &mut work, &locations, &global_of, &gateway,
                )?;
                interrupt.clear();
                continue;
            }
            match recv_ctl_any(control, &["shutdown", "quiesce"], io_timeout)? {
                Message::Quiesce { round } => {
                    apply_recovery(
                        control, assignment, round, io_timeout, &mut work, &locations, &global_of, &gateway,
                    )?;
                    interrupt.clear();
                }
                _ => break, // shutdown
            }
        }
        Ok(())
    })();

    // The streamer holds the sampler, so the join happens before the
    // final frame — and before bailing on a failed run.
    if let Some(streamer) = streamer {
        sampler = Some(streamer.stop()?);
    }
    run_outcome?;

    // Order matters: every task body has returned by now (the session run
    // joined them), so the gateway Arc is unique again; closing its
    // connections makes every peer's serving thread observe the hangup,
    // and only then is joining our own server deadlock-free (peers close
    // their gateways at the same protocol step).
    let gateway = Arc::try_unwrap(gateway).map_err(|_| "gateway still shared after the run".to_string())?;
    let (conns, tallies) = gateway.into_parts();
    let mut gateway_counters = (0u64, 0u64, 0u64, 0u64);
    for conn in conns.values() {
        if let Ok(stream) = conn.lock() {
            gateway_counters.0 += stream.frames_sent();
            gateway_counters.1 += stream.frames_received();
            gateway_counters.2 += stream.bytes_sent();
            gateway_counters.3 += stream.bytes_received();
        }
    }
    drop(conns); // hang up on every owner peer
    shutdown.store(true, Ordering::Relaxed);
    drop(server_wake); // wakes the accept loop, which joins the serving threads
    let server_counters = server.join().unwrap_or_default();

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

    let metrics = compose_metrics(assignment, wall_seconds, &tallies, gateway_counters, server_counters);
    send_ctl(control, &Message::Metrics { node: assignment.node as u32, json: metrics.to_json().pretty() })?;
    Ok(())
}

/// One recovery exchange, entered after the round stopped (parked or
/// finished): ack the quiesce, receive and validate this node's
/// [`ReAssignment`], adopt the orphans routed here (fresh locations at
/// zero progress), swap the gateway's routing table, signal `Ready` and
/// wait out the `Resume` barrier.
#[allow(clippy::too_many_arguments)]
fn apply_recovery(
    control: &Arc<Mutex<FramedStream>>,
    assignment: &Assignment,
    round: u32,
    io_timeout: Duration,
    work: &mut WorkState,
    locations: &SharedLocations,
    global_of: &SharedGlobals,
    gateway: &PeerGateway,
) -> Result<(), String> {
    let node = assignment.node as u32;
    send_ctl(control, &Message::QuiesceAck { node, round })?;
    let Message::ReAssignment { json } = recv_ctl(control, "reassignment", io_timeout)? else {
        unreachable!("recv_ctl returns the expected kind");
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
    // entering the same maps the serving threads and the streamer read.
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
    gateway.apply_reassignment(&reassign.node_of_task, reassign.dead);
    send_ctl(control, &Message::Ready { node })?;
    let Message::Resume { round: resumed } = recv_ctl(control, "resume", io_timeout)? else {
        unreachable!("recv_ctl returns the expected kind");
    };
    if resumed != round {
        return Err(format!("resume for round {resumed}, expected round {round}"));
    }
    Ok(())
}

/// Where telemetry frames go: the shared control stream, plus what a
/// frame needs on its way out.
#[derive(Clone)]
struct TelemetryLink {
    control: Arc<Mutex<FramedStream>>,
    global_of: SharedGlobals,
    node: u32,
}

impl TelemetryLink {
    /// Sends `frames` as `TelemetryDelta` messages under one hold of the
    /// control-stream lock, after rewriting core-emitted `LockWait`
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

/// The worker's live-telemetry streamer: one background thread sampling
/// the recorder into frames and interleaving `Heartbeat` /
/// `TelemetryDelta` messages on the shared control stream, from `Start`
/// until [`Streamer::stop`].
struct Streamer {
    /// Dropping this end of the wake descriptor stops the streamer.
    stop: UnixStream,
    handle: std::thread::JoinHandle<DeltaSampler>,
}

impl Streamer {
    fn spawn(
        link: TelemetryLink,
        mut sampler: DeltaSampler,
        interval: Duration,
        stall: Duration,
        drop_first: u64,
    ) -> std::io::Result<Streamer> {
        let (stop, stopped) = UnixStream::pair()?;
        let handle = std::thread::spawn(move || {
            // Every pause is a wait on the wake descriptor with the pause
            // as its timeout: it runs its full length unless the main
            // thread hangs up, and then it ends at once.
            let pause = |length: Duration| matches!(wait_readable(&[stopped.as_raw_fd()], length), Ok(None));
            // Injected initial silence (straggler tests only; zero in
            // production runs).
            if !stall.is_zero() && !pause(stall) {
                return sampler;
            }
            let mut seq = 0u64;
            while pause(interval) {
                // The heartbeat-drop fault swallows the first `drop_first`
                // beats (the seq keeps counting, frames keep flowing) —
                // the minimal signal loss that trips straggler detection.
                let beat = Message::Heartbeat { node: link.node, seq };
                if (seq >= drop_first && send_ctl(&link.control, &beat).is_err())
                    || link.send(sampler.sample(), true).is_err()
                {
                    break; // coordinator gone: the main thread will fail too
                }
                seq += 1;
            }
            sampler
        });
        Ok(Streamer { stop, handle })
    }

    /// Signals the streaming thread, joins it and hands the sampler back
    /// for the final frame.
    fn stop(self) -> Result<DeltaSampler, String> {
        drop(self.stop);
        self.handle.join().map_err(|_| "telemetry streamer panicked".to_string())
    }
}

fn compose_metrics(
    assignment: &Assignment,
    wall_seconds: f64,
    t: &ReaderTallies,
    gateway_counters: (u64, u64, u64, u64),
    server_counters: (u64, u64, u64, u64),
) -> WorkerMetrics {
    WorkerMetrics {
        node: assignment.node,
        wall_seconds,
        same_rack_payload_bytes: t.same_rack_payload_bytes.load(Ordering::Relaxed),
        cross_rack_payload_bytes: t.cross_rack_payload_bytes.load(Ordering::Relaxed),
        frames_sent: gateway_counters.0 + server_counters.0,
        frames_received: gateway_counters.1 + server_counters.1,
        bytes_sent: gateway_counters.2 + server_counters.2,
        bytes_received: gateway_counters.3 + server_counters.3,
        remote_reads: t.remote_reads.load(Ordering::Relaxed),
        lock_wait_count: t.lock_wait_count.load(Ordering::Relaxed),
        lock_wait_total_ns: t.lock_wait_total_ns.load(Ordering::Relaxed),
        lock_wait_samples: t.lock_wait_samples.lock().map(|samples| samples.clone()).unwrap_or_default(),
    }
}

/// Runs one round of this worker's unfinished tasks through a real
/// `orwl_core` session on the reconstructed node topology.  Each
/// iteration of each task writes its own location under a one-shot write
/// section, then reads its in-edges one section at a time — locally
/// through the shared FIFO, remotely through the gateway.  At most one
/// lock is ever held, so the schedule cannot deadlock whatever the
/// interleaving across processes.  Locality is resolved against the
/// location map at round start: it only changes at the quiesce barrier,
/// where a re-shard can adopt a source here and turn its reads local.
#[allow(clippy::too_many_lines)]
fn run_round(
    assignment: &Assignment,
    work: &WorkState,
    locations: &SharedLocations,
    gateway: &Arc<PeerGateway>,
    interrupt: &Arc<Interrupt>,
) -> Result<(), String> {
    let tasks = work.tasks_with_work();
    if tasks.is_empty() {
        return Ok(());
    }
    let levels: Vec<LevelSpec> = assignment
        .levels
        .iter()
        .map(|(name, count)| ObjectType::parse(name).map(|obj_type| LevelSpec::new(obj_type, *count)))
        .collect::<Result<_, String>>()?;
    let topology = Topology::from_levels(&assignment.topo_name, &levels)
        .map_err(|e| format!("reconstructing the node topology: {e}"))?;

    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let mut program = OrwlProgram::new();
    for &t in &tasks {
        let map = locations.read().map_err(|_| "location map poisoned".to_string())?;
        let own = map
            .get(&(t as u64))
            .cloned()
            .ok_or_else(|| format!("task {t} is scheduled here but owns no location"))?;
        // Resolve each read's locality for this round and build the
        // session's link structure from the local ones.
        let schedule: ResolvedSchedule = work.schedules[&t]
            .iter()
            .map(|(iterations, reads)| {
                let reads =
                    reads.iter().map(|&(src, bytes)| (src, bytes, map.get(&(src as u64)).cloned())).collect();
                (*iterations, reads)
            })
            .collect();
        drop(map);
        let mut links = vec![LocationLink::write(own.id(), 8.0)];
        let mut local_read_bytes: BTreeMap<usize, (f64, Arc<Location<u64>>)> = BTreeMap::new();
        for (_, reads) in &schedule {
            for (src, bytes, loc) in reads {
                if let Some(loc) = loc {
                    let entry = local_read_bytes.entry(*src).or_insert_with(|| (0.0, Arc::clone(loc)));
                    entry.0 += bytes;
                }
            }
        }
        for (_, (bytes, loc)) in local_read_bytes {
            links.push(LocationLink::read(loc.id(), bytes));
        }

        let progress = Arc::clone(&work.progress[&t]);
        let gateway = Arc::clone(gateway);
        let failure = Arc::clone(&failure);
        let interrupt = Arc::clone(interrupt);
        program.add_task(TaskSpec::new(format!("task-{t}"), links), move |ctx| {
            let mut acquisitions = 0u64;
            'phases: for (k, (iterations, reads)) in schedule.iter().enumerate() {
                while progress[k].load(Ordering::Relaxed) < *iterations {
                    if interrupt.parked() || failure.lock().map(|f| f.is_some()).unwrap_or(true) {
                        break 'phases;
                    }
                    let outcome = (|| -> Result<(), IterError> {
                        let mut write = own.handle(AccessMode::Write);
                        write.request().map_err(|e| IterError::Local(e.to_string()))?;
                        *write.acquire().map_err(|e| IterError::Local(e.to_string()))? += 1;
                        drop(write);
                        acquisitions += 1;
                        for (src, bytes, loc) in reads {
                            match loc {
                                Some(src_loc) => {
                                    let mut read = src_loc.handle(AccessMode::Read);
                                    read.request().map_err(|e| IterError::Local(e.to_string()))?;
                                    let guard =
                                        read.acquire().map_err(|e| IterError::Local(e.to_string()))?;
                                    std::hint::black_box(*guard);
                                    drop(guard);
                                }
                                None => {
                                    gateway.remote_read(*src, *bytes).map_err(IterError::Remote)?;
                                }
                            }
                            acquisitions += 1;
                        }
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => {
                            progress[k].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(IterError::Remote(e)) if interrupt.enabled() => {
                            // A broken peer exchange is the worker-side
                            // symptom of a node loss: park and wait for
                            // the coordinator's quiesce instead of
                            // failing the whole worker.
                            interrupt.park(format!("task {t}: {e}"));
                            break 'phases;
                        }
                        Err(IterError::Remote(e) | IterError::Local(e)) => {
                            if let Ok(mut slot) = failure.lock() {
                                slot.get_or_insert(format!("task {t}: {e}"));
                            }
                            break 'phases;
                        }
                    }
                }
            }
            ctx.stats.record_acquisitions(acquisitions);
        });
    }

    let session = Session::builder()
        .topology(topology)
        .control_threads(0)
        .binder(Arc::new(RecordingBinder::new()))
        .backend(ThreadBackend)
        .build()
        .map_err(|e| format!("building the worker session: {e}"))?;
    let _report = session.run(program).map_err(|e| format!("worker session run: {e}"))?;

    let mut slot = failure.lock().map_err(|_| "failure flag poisoned".to_string())?;
    match slot.take() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_obs::ObsConfig;

    const WAIT: Duration = Duration::from_secs(10);

    fn control_pair() -> (Arc<Mutex<FramedStream>>, FramedStream) {
        let (worker_end, coordinator_end) = UnixStream::pair().unwrap();
        (Arc::new(Mutex::new(FramedStream::new(worker_end))), FramedStream::new(coordinator_end))
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
        let mut peer = FramedStream::connect(&dir.join("peer.sock")).unwrap();
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
        match peer.recv(Some(WAIT)) {
            Ok(Message::LockGrant { seq: 1, location: 7, data }) => assert_eq!(data, 41u64.to_le_bytes()),
            other => panic!("expected the grant, got {other:?}"),
        }
        drop(peer);

        // The shutdown flag is never raised: hanging up the wake
        // descriptor is what ends the accept loop, and the join returns
        // with the served read's counters.
        drop(wake);
        let (frames_sent, frames_received, _, _) = server.join().unwrap();
        assert_eq!((frames_sent, frames_received), (1, 1), "a grant out; a request in");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The location, the peer's end and the owner's serving thread.
    type Served = (Arc<Location<u64>>, FramedStream, std::thread::JoinHandle<(u64, u64, u64, u64)>);

    /// Location 7, holding 41, served over one end of a socket pair.
    fn served_location() -> Served {
        let loc = Location::new("loc-7".to_string(), 41u64);
        let locations: SharedLocations = Arc::new(RwLock::new(HashMap::from([(7, Arc::clone(&loc))])));
        let (near, far) = UnixStream::pair().unwrap();
        let owner = std::thread::spawn(move || {
            serve_connection(FramedStream::new(far), locations, Arc::new(AtomicBool::new(false)))
        });
        (loc, FramedStream::new(near), owner)
    }

    #[test]
    fn one_connection_reuses_its_grant_buffer_without_leaking_stale_bytes() {
        // Shrinking, growing past the value, zero length and a size just
        // past the value: a reused buffer that kept a stale byte anywhere
        // would show it in one of these grants.
        let (_, mut peer, owner) = served_location();
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
        drop(peer);
        let (frames_sent, frames_received, _, _) = owner.join().unwrap();
        assert_eq!((frames_sent, frames_received), (5, 5), "five grants out; five requests in");
    }

    #[test]
    fn a_local_writer_is_not_held_by_a_reader_that_never_reads_its_grant() {
        let (loc, mut peer, owner) = served_location();
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
        drop(peer);
        let (frames_sent, frames_received, _, _) = owner.join().unwrap();
        assert_eq!((frames_sent, frames_received), (1, 1), "a grant out; a request in");
    }

    #[test]
    fn a_remote_write_request_is_refused_and_ends_the_connection() {
        let (_, mut peer, owner) = served_location();
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Write, bytes: 8 })
            .unwrap();
        let refusal = Message::Error { message: "remote writes are not served".to_string() };
        assert_eq!(peer.recv(Some(WAIT)).unwrap(), refusal);
        assert!(matches!(peer.recv(Some(WAIT)), Err(RecvError::Closed)), "the owner hung up");
        let (frames_sent, frames_received, _, _) = owner.join().unwrap();
        assert_eq!((frames_sent, frames_received), (1, 1), "an error out; a request in");
    }

    #[test]
    fn a_release_is_a_protocol_error_and_ends_the_connection() {
        // The grant closed the section, so a release names nothing open.
        let (_, mut peer, owner) = served_location();
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
        assert!(matches!(peer.recv(Some(WAIT)), Ok(Message::LockGrant { seq: 1, location: 7, .. })));
        peer.send(&Message::Release { seq: 1, location: 7 }).unwrap();
        match peer.recv(Some(WAIT)) {
            Ok(Message::Error { message }) => assert!(message.contains("release"), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(matches!(peer.recv(Some(WAIT)), Err(RecvError::Closed)), "the owner hung up");
        let (frames_sent, frames_received, _, _) = owner.join().unwrap();
        assert_eq!(
            (frames_sent, frames_received),
            (2, 2),
            "a grant and an error out; a request and a release in"
        );
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
        peer.send(&Message::LockRequest { seq: 1, location: 7, access: WireAccess::Read, bytes: 8 }).unwrap();
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
    fn the_quiesce_watcher_relays_a_quiesce_and_stops_idle_on_request() {
        let (control, mut coordinator) = control_pair();
        let interrupt = Arc::new(Interrupt::new(true));
        let watcher = QuiesceWatcher::spawn(Arc::clone(&control), Arc::clone(&interrupt)).unwrap();
        // Idle, the watcher leaves the shared stream unlocked for the
        // streamer's sends.
        send_ctl(&control, &Message::Heartbeat { node: 0, seq: 0 }).unwrap();
        assert_eq!(coordinator.recv(Some(WAIT)).unwrap(), Message::Heartbeat { node: 0, seq: 0 });
        assert_eq!(watcher.stop(), None, "nothing arrived");
        assert!(!interrupt.parked());

        // A quiesce already on the wire wins over a simultaneous stop.
        let watcher = QuiesceWatcher::spawn(Arc::clone(&control), Arc::clone(&interrupt)).unwrap();
        coordinator.send(&Message::Quiesce { round: 3 }).unwrap();
        assert_eq!(watcher.stop(), Some(3));
        assert!(interrupt.parked());
    }

    #[test]
    fn the_streamer_beats_on_its_interval_and_stops_without_waiting_one_out() {
        let (control, mut coordinator) = control_pair();
        let link = TelemetryLink { control, global_of: Arc::new(RwLock::new(HashMap::new())), node: 4 };
        let sampler = || DeltaSampler::new(Recorder::new(ClockKind::Wall, ObsConfig::default()));

        let beating =
            Streamer::spawn(link.clone(), sampler(), Duration::from_millis(1), Duration::ZERO, 0).unwrap();
        assert_eq!(coordinator.recv(Some(WAIT)).unwrap(), Message::Heartbeat { node: 4, seq: 0 });
        beating.stop().unwrap();

        // An interval (or an injected stall) that would outlast the test
        // run is cut short by the stop.
        let hour = Duration::from_secs(3600);
        Streamer::spawn(link.clone(), sampler(), hour, Duration::ZERO, 0).unwrap().stop().unwrap();
        Streamer::spawn(link, sampler(), Duration::from_millis(1), hour, 0).unwrap().stop().unwrap();
    }
}
