//! Framed message transport over a stream socket.
//!
//! [`FramedStream`] wraps a connected [`UnixStream`] with the wire codec
//! from [`crate::wire`]: `send` writes one whole frame (the encoder's head
//! and the tail it lends out of the message, in vectored writes), `recv`
//! blocks (up to a deadline) until one whole message decoded from bytes
//! read straight into the stream's `FrameReader`.  The framing is pure
//! length-prefixed bytes, so the same code works over TCP for inter-host
//! deployment — only the connect/accept calls differ.
//!
//! `wait_readable` is the crate's one readiness wait: everything that
//! waits on more than one descriptor — a listener and a wake descriptor,
//! several control connections, a child's exit descriptor — blocks in one
//! `poll(2)` until something happens or a deadline passes, never in a
//! sleep-and-look-again loop.  A *wake descriptor* is one end of a
//! [`UnixStream::pair`]: nothing is ever written to it, and dropping the
//! other end makes it readable for good.

use crate::wire::{Frame, FrameReader, Message, WireError};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// How long a receive on a descriptor [`wait_readable`] reported ready may
/// block: what has arrived is read at once, and a frame whose rest is
/// still in flight is left for the next wake-up rather than waited out
/// while the coordinator's other control connections wait.
pub(crate) const PARTIAL_FRAME_WAIT: Duration = Duration::from_millis(1);

/// Blocks until one of `fds` is readable or `timeout` has passed, and
/// returns the index of the first ready descriptor (`None` on timeout).
///
/// Ready means a read will not block: data, end-of-file after the peer
/// hung up, or an error condition the read will then report.  An empty
/// set is a pure timeout.  A timeout too large to add to the clock
/// (`Duration::MAX`) waits for as long as it takes.  A signal that
/// interrupts the wait is not an outcome: the wait resumes for the time
/// that is left.
pub(crate) fn wait_readable(fds: &[RawFd], timeout: Duration) -> std::io::Result<Option<usize>> {
    wait_readable_with(sys_poll, fds, timeout)
}

/// One `poll(2)` call: how many entries of `set` have conditions.
fn sys_poll(set: &mut [libc::pollfd], timeout_ms: libc::c_int) -> std::io::Result<usize> {
    // SAFETY: `set` is an exclusively borrowed slice of `pollfd`, so the
    // pointer is valid for reads and writes of `set.len()` entries for
    // the whole call, which is all poll(2) asks of it.
    let ready = unsafe { libc::poll(set.as_mut_ptr(), set.len() as libc::nfds_t, timeout_ms) };
    usize::try_from(ready).map_err(|_| std::io::Error::last_os_error())
}

/// [`wait_readable`] over an injectable poll call, so a test can
/// interrupt the wait without delivering a real signal.
fn wait_readable_with(
    mut poll: impl FnMut(&mut [libc::pollfd], libc::c_int) -> std::io::Result<usize>,
    fds: &[RawFd],
    timeout: Duration,
) -> std::io::Result<Option<usize>> {
    let deadline = Instant::now().checked_add(timeout);
    let mut set: Vec<libc::pollfd> =
        fds.iter().map(|&fd| libc::pollfd { fd, events: libc::POLLIN, revents: 0 }).collect();
    loop {
        // Whole milliseconds, rounded up: rounding down would turn the
        // last fraction of a wait into a spin of zero-length polls.
        let (timeout_ms, last) = match deadline {
            None => (-1, false),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let ms = left.as_nanos().div_ceil(1_000_000);
                match libc::c_int::try_from(ms) {
                    Ok(ms) => (ms, true),
                    Err(_) => (libc::c_int::MAX, false),
                }
            }
        };
        match poll(&mut set, timeout_ms) {
            Ok(0) if last => return Ok(None),
            Ok(0) => {}
            Ok(_) => return Ok(set.iter().position(|entry| entry.revents != 0)),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Rendezvous connect gave up: the listener never appeared (or never
/// accepted) within the budget.
#[derive(Debug)]
pub(crate) struct RendezvousTimeout {
    /// The socket path that was tried.
    pub path: std::path::PathBuf,
    /// How many connect attempts were made.
    pub attempts: u32,
    /// The total budget that elapsed.
    pub budget: Duration,
    /// The last io error seen.
    pub last: std::io::Error,
}

impl std::fmt::Display for RendezvousTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rendezvous with {} timed out after {} attempts over {:?}: {}",
            self.path.display(),
            self.attempts,
            self.budget,
            self.last
        )
    }
}

impl std::error::Error for RendezvousTimeout {}

/// Why a `recv` failed.
#[derive(Debug)]
pub enum RecvError {
    /// The deadline passed with no complete message.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// The peer sent a malformed frame.
    Wire(WireError),
    /// The socket itself failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "timed out waiting for a message"),
            RecvError::Closed => write!(f, "peer closed the connection"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
            RecvError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A connected stream speaking whole [`Message`]s.
pub struct FramedStream {
    stream: UnixStream,
    /// Arriving bytes, read from the socket straight into its buffer.
    reader: FrameReader,
    /// The header and fixed fields of the frame being sent, reused.
    head: Vec<u8>,
    /// The read timeout last set on the socket: an unchanged tick costs
    /// no system call.
    read_timeout: Option<Duration>,
}

impl AsRawFd for FramedStream {
    /// The socket's descriptor, for `wait_readable`.  Readiness says
    /// nothing about frames a previous read already pulled into the
    /// stream's reader: look there first with `recv(Some(Duration::ZERO))`,
    /// which returns a buffered message without touching the socket.
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

impl FramedStream {
    /// Wraps a connected socket.
    #[must_use]
    pub fn new(stream: UnixStream) -> Self {
        FramedStream { stream, reader: FrameReader::new(), head: Vec::new(), read_timeout: None }
    }

    /// A second stream over the same socket, with its own empty reader:
    /// one thread can block in `recv` on one while another sends on the
    /// other.
    pub(crate) fn try_clone(&self) -> std::io::Result<Self> {
        self.stream.try_clone().map(FramedStream::new)
    }

    /// Connects to a Unix-domain listener at `path`.
    #[cfg(test)]
    pub(crate) fn connect(path: &std::path::Path) -> std::io::Result<Self> {
        UnixStream::connect(path).map(FramedStream::new)
    }

    /// Connects to a Unix-domain listener at `path`, retrying with
    /// jittered backoff until `budget` elapses.
    ///
    /// A worker races the peer it reads from: both bind their listeners
    /// after `Ready`, but nothing orders one worker's connect after
    /// another worker's bind, and under recovery a survivor may dial a
    /// peer that is still re-binding.  A single-attempt connect turns
    /// that race into a raw `ECONNREFUSED`/`ENOENT`; this retries at
    /// ~1–20 ms spacing (deterministic per-path jitter, no RNG state)
    /// and gives up with a typed [`RendezvousTimeout`].
    pub(crate) fn connect_retry(path: &std::path::Path, budget: Duration) -> Result<Self, RendezvousTimeout> {
        let start = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let last = match UnixStream::connect(path) {
                Ok(stream) => return Ok(FramedStream::new(stream)),
                Err(e) => e,
            };
            if start.elapsed() >= budget {
                return Err(RendezvousTimeout { path: path.to_path_buf(), attempts, budget, last });
            }
            // Deterministic jitter off the path bytes and attempt count:
            // spreads simultaneous dialers without pulling in an RNG.
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in path.as_os_str().as_encoded_bytes() {
                seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            seed = (seed ^ u64::from(attempts)).wrapping_mul(0x100_0000_01b3);
            let base = 1u64 << attempts.min(4); // 2, 4, 8, 16 ms, then flat
            let pause = Duration::from_millis(base + seed % base);
            let left = budget.saturating_sub(start.elapsed());
            std::thread::sleep(pause.min(left).max(Duration::from_millis(1))); // sleep-ok: back-off
        }
    }

    /// Writes one message as a single frame.
    pub fn send(&mut self, message: &Message) -> std::io::Result<()> {
        self.write_frame(message, None)
    }

    /// Writes one message as a single frame, bounded by `deadline`.
    ///
    /// A plain write against a peer that stopped reading blocks until the
    /// kernel buffer drains — potentially forever.  Control frames
    /// (quiesce, re-assignment, shutdown) must instead fail within the io
    /// budget so the coordinator can blame the wedged node.  Short write
    /// timeouts are retried until the deadline; a partial frame past the
    /// deadline is a hard `TimedOut` (the stream is unusable after that —
    /// framing is broken).
    pub(crate) fn send_with_deadline(
        &mut self,
        message: &Message,
        deadline: Duration,
    ) -> std::io::Result<()> {
        self.write_frame(message, Some(deadline))
    }

    /// The one frame writer: the head the encoder wrote into the reused
    /// buffer and the tail it lent out of `message` go to the socket
    /// together, by vectored writes until both are out.  With a
    /// `deadline`, each write waits at most 100 ms and the whole frame at
    /// most `deadline`.
    fn write_frame(&mut self, message: &Message, deadline: Option<Duration>) -> std::io::Result<()> {
        let tail = message.encode_head(&mut self.head);
        let len = self.head.len() + tail.len();
        let mut slices = [IoSlice::new(&self.head), IoSlice::new(tail)];
        let mut unsent = &mut slices[..];
        let deadline = deadline.map(|limit| (Instant::now(), limit));
        let mut written = 0usize;
        let outcome = loop {
            if unsent.is_empty() {
                break Ok(());
            }
            if let Some((start, limit)) = deadline {
                let left = limit.saturating_sub(start.elapsed());
                if left.is_zero() {
                    break Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!("send of {} stalled at {written}/{len} bytes", message.name()),
                    ));
                }
                if let Err(e) = self.stream.set_write_timeout(Some(left.min(Duration::from_millis(100)))) {
                    break Err(e);
                }
            }
            match self.stream.write_vectored(unsent) {
                Ok(0) => break Err(std::io::Error::new(ErrorKind::WriteZero, "peer closed mid-frame")),
                Ok(n) => {
                    written += n;
                    IoSlice::advance_slices(&mut unsent, n);
                }
                Err(e)
                    if deadline.is_some()
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if deadline.is_some() {
            self.stream.set_write_timeout(None)?;
        }
        outcome
    }

    /// Blocks until one whole message arrives, up to `deadline` from now.
    ///
    /// The wait is implemented with short socket read timeouts so a hung
    /// peer can never park the caller forever; a `None` deadline still
    /// polls but never gives up (the worker's control thread passes it when not streaming).
    pub fn recv(&mut self, deadline: Option<Duration>) -> Result<Message, RecvError> {
        self.recv_frame(deadline)?.decode().map_err(RecvError::Wire)
    }

    /// [`FramedStream::recv`] without the decode: the next whole frame,
    /// its payload borrowed from the buffer the socket was read into.
    pub(crate) fn recv_frame(&mut self, deadline: Option<Duration>) -> Result<Frame<'_>, RecvError> {
        let start = Instant::now();
        let span = loop {
            if let Some(span) = self.reader.whole_frame().map_err(RecvError::Wire)? {
                break span;
            }
            // One socket wait never overshoots the caller's deadline by
            // more than a millisecond, so a short deadline makes `recv` a
            // bounded look: zero reads only the reader's buffer, a
            // millisecond takes what a readable socket holds, and the
            // worker's control thread wakes for its next heartbeat on time.
            let mut tick = Duration::from_millis(100);
            if let Some(limit) = deadline {
                let elapsed = start.elapsed();
                if elapsed >= limit {
                    return Err(RecvError::Timeout);
                }
                tick = tick.min(limit - elapsed).max(Duration::from_millis(1));
            }
            if self.read_timeout != Some(tick) {
                self.stream.set_read_timeout(Some(tick)).map_err(RecvError::Io)?;
                self.read_timeout = Some(tick);
            }
            match self.stream.read(self.reader.read_space()) {
                Ok(0) => return Err(RecvError::Closed),
                Ok(n) => self.reader.filled(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e)),
            }
        };
        Ok(self.reader.take(span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_DATA;
    use std::time::Duration;

    fn pair() -> (FramedStream, FramedStream) {
        let (a, b) = UnixStream::pair().unwrap();
        (FramedStream::new(a), FramedStream::new(b))
    }

    #[test]
    fn wait_readable_names_the_first_ready_descriptor() {
        let (_a0, b0) = UnixStream::pair().unwrap();
        let (mut a1, b1) = UnixStream::pair().unwrap();
        let (mut a2, b2) = UnixStream::pair().unwrap();
        a1.write_all(b"x").unwrap();
        a2.write_all(b"y").unwrap();
        let fds = [b0.as_raw_fd(), b1.as_raw_fd(), b2.as_raw_fd()];
        assert_eq!(wait_readable(&fds, Duration::from_secs(5)).unwrap(), Some(1));
        // No deadline at all is still an answer when something is ready.
        assert_eq!(wait_readable(&fds, Duration::MAX).unwrap(), Some(1));
    }

    #[test]
    fn wait_readable_counts_a_hang_up_as_ready() {
        let (a, b) = UnixStream::pair().unwrap();
        let waiter = std::thread::spawn(move || wait_readable(&[b.as_raw_fd()], Duration::MAX).unwrap());
        drop(a);
        assert_eq!(waiter.join().unwrap(), Some(0));
    }

    #[test]
    fn wait_readable_times_out_on_silence_and_on_an_empty_set() {
        let (_a, b) = UnixStream::pair().unwrap();
        for fds in [&[b.as_raw_fd()][..], &[]] {
            let started = Instant::now();
            assert_eq!(wait_readable(fds, Duration::from_millis(30)).unwrap(), None);
            assert!(started.elapsed() >= Duration::from_millis(30), "returned after {:?}", started.elapsed());
        }
    }

    #[test]
    fn wait_readable_resumes_an_interrupted_wait_for_the_time_left() {
        let mut asked = Vec::new();
        let poll = |set: &mut [libc::pollfd], timeout_ms: libc::c_int| {
            asked.push(timeout_ms);
            if asked.len() == 1 {
                // Stand-in for a signal landing mid-wait; the pause makes
                // "the time left" observably less than the whole budget.
                let _ = sys_poll(&mut [], 20);
                return Err(std::io::Error::from(ErrorKind::Interrupted));
            }
            set[0].revents = libc::POLLIN;
            Ok(1)
        };
        assert_eq!(wait_readable_with(poll, &[0], Duration::from_secs(10)).unwrap(), Some(0));
        assert_eq!(asked.len(), 2, "the interruption is retried, not reported");
        assert_eq!(asked[0], 10_000);
        assert!(asked[1] < asked[0] && asked[1] > 0, "second wait asked for {} ms", asked[1]);
    }

    #[test]
    fn wait_readable_reports_a_failing_poll() {
        let poll = |_: &mut [libc::pollfd], _| Err(std::io::Error::from(ErrorKind::InvalidInput));
        let err = wait_readable_with(poll, &[0], Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn a_buffered_frame_is_found_without_touching_the_socket() {
        // Two frames land in one read; the second is then invisible to
        // poll(2) and a zero-length receive is how a poller finds it.
        let (mut a, mut b) = pair();
        a.send(&Message::Start).unwrap();
        a.send(&Message::Shutdown).unwrap();
        assert_eq!(b.recv(Some(Duration::from_secs(5))).unwrap(), Message::Start);
        assert_eq!(wait_readable(&[b.as_raw_fd()], Duration::ZERO).unwrap(), None);
        assert_eq!(b.recv(Some(Duration::ZERO)).unwrap(), Message::Shutdown);
        assert!(matches!(b.recv(Some(Duration::ZERO)), Err(RecvError::Timeout)));
    }

    #[test]
    fn a_stream_keeps_no_read_buffer_inline() {
        // Arriving bytes are read into the reader's heap buffer; an inline
        // array would be zeroed by every `new` and copied by every move.
        assert!(std::mem::size_of::<FramedStream>() <= 1024, "{} bytes", std::mem::size_of::<FramedStream>());
    }

    #[test]
    fn send_recv_roundtrip() {
        let (mut a, mut b) = pair();
        let msg =
            Message::LockRequest { seq: 1, location: 9, access: crate::wire::WireAccess::Read, bytes: 4096 };
        a.send(&msg).unwrap();
        let got = b.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn large_grant_crosses_the_socket() {
        let (mut a, mut b) = pair();
        let msg = Message::LockGrant { seq: 7, location: 3, data: vec![0xAB; MAX_DATA] };
        let writer = std::thread::spawn(move || {
            a.send(&msg).unwrap();
            (a, msg)
        });
        let got = b.recv(Some(Duration::from_secs(10))).unwrap();
        let (_a, msg) = writer.join().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let (_a, mut b) = pair();
        let start = std::time::Instant::now();
        match b.recv(Some(Duration::from_millis(150))) {
            Err(RecvError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn closed_peer_is_not_a_timeout() {
        let (a, mut b) = pair();
        drop(a);
        match b.recv(Some(Duration::from_secs(5))) {
            Err(RecvError::Closed) => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn connect_retry_reaches_a_late_binding_listener() {
        let dir = std::env::temp_dir().join(format!("orwl-rdv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.sock");
        let binder = {
            let path = path.clone();
            std::thread::spawn(move || {
                // Bind only after the dialer has already failed a few
                // attempts against the missing socket.
                std::thread::sleep(Duration::from_millis(60)); // sleep-ok: test, the late bind
                let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
                let (_stream, _) = listener.accept().unwrap();
            })
        };
        let connected = FramedStream::connect_retry(&path, Duration::from_secs(10));
        assert!(connected.is_ok(), "late bind must be reached: {:?}", connected.err());
        binder.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_retry_times_out_with_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("orwl-rdv-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("never.sock");
        let start = std::time::Instant::now();
        let err = match FramedStream::connect_retry(&path, Duration::from_millis(120)) {
            Ok(_) => panic!("connected to a socket that never existed"),
            Err(e) => e,
        };
        assert!(err.attempts >= 2, "retried before giving up (attempts {})", err.attempts);
        assert_eq!(err.budget, Duration::from_millis(120));
        assert!(err.to_string().contains("never.sock"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "the budget bounds the wait");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn send_with_deadline_fails_instead_of_blocking_on_a_full_pipe() {
        let (mut a, b) = pair();
        // Never read from `b`: the kernel buffer fills and a plain
        // write_all would park forever.  Keep `b` alive so the failure
        // is a timeout, not a broken pipe.
        let start = std::time::Instant::now();
        let mut hit_deadline = false;
        for _ in 0..256 {
            let msg = Message::LockGrant { seq: 1, location: 1, data: vec![0xEE; MAX_DATA] };
            match a.send_with_deadline(&msg, Duration::from_millis(200)) {
                Ok(()) => {}
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::TimedOut, "unexpected error: {e}");
                    hit_deadline = true;
                    break;
                }
            }
        }
        assert!(hit_deadline, "the socket buffer never filled — test needs a bigger payload");
        assert!(start.elapsed() < Duration::from_secs(60), "every send was deadline-bounded");
        drop(b);
    }

    #[test]
    fn send_with_deadline_delivers_when_the_peer_reads() {
        let (mut a, mut b) = pair();
        let msg = Message::QuiesceAck { node: 3, round: 1 };
        a.send_with_deadline(&msg, Duration::from_secs(5)).unwrap();
        assert_eq!(b.recv(Some(Duration::from_secs(5))).unwrap(), msg);
    }
}
