//! The wire codec of the ORWL lock protocol.
//!
//! Every message travels as one frame:
//!
//! ```text
//! | magic "ORWL" (4) | version u16 LE (2) | kind u8 (1) | len u32 LE (4) | payload (len) |
//! ```
//!
//! The framing is transport-agnostic — the backend speaks it over
//! Unix-domain sockets today, and the same length-prefixed frames work
//! over TCP for inter-host deployment later.  Payload fields are
//! little-endian and fixed-layout per kind; variable-length tails
//! (assignment JSON, grant data, telemetry) occupy the remainder of the
//! frame, so no field needs its own length prefix.
//!
//! The lock protocol proper is two frames per read:
//! [`Message::LockRequest`] enters the owner's FIFO for a location, and
//! [`Message::LockGrant`] answers once the FIFO grants the section *and
//! carries a copy of the location buffer as its payload*.  The owner
//! closes the section when it takes that copy, so the reader sends
//! nothing back.  A reader sends all the requests one task has for one
//! owner in one iteration as one write of several frames, and takes the
//! grants in request order: the owner serves a connection's requests one
//! after the other, and decodes the ones that arrived together from its
//! reader's buffer without another read.  A [`Message::Release`] stays in
//! the codec, but a worker's owner answers one with an error.  The remaining kinds run the
//! coordinator↔worker lifecycle (hello, assignment, ready/start barrier,
//! done, shutdown, and [`Message::Metrics`], the two lane byte counters a
//! worker reports last), liveness and telemetry ([`Message::Heartbeat`],
//! [`Message::TelemetryDelta`]), node-loss recovery
//! (quiesce/ack/re-assignment/resume) and error reporting — seventeen
//! kinds in all.
//!
//! The version check is exact: workers are the coordinator's own binary
//! re-exec'd, so both ends of every connection were compiled from the same
//! source and a frame stamped with any other `VERSION` is a typed
//! [`WireError::BadVersion`], never a compatibility case to decode.
//!
//! A grant's payload is copied only by the kernel on its way from owner to
//! reader.  There is one encoder, `Message::encode_head`: it appends the
//! header and the kind's fixed fields to a head buffer the sender
//! reuses, and hands back the variable tail (grant data, JSON text,
//! telemetry delta) *borrowed* from the message, so the transport writes
//! the heads and tails of one or more frames in one vectored write.  [`Message::encode`] is that head
//! plus that tail in one `Vec`, for callers that want the frame as bytes.
//!
//! [`FrameReader`] decodes incrementally: push whatever bytes arrived (or
//! let the transport read into the reader's own buffer), take out whole
//! frames — partial headers, split payloads and multiple frames per read
//! all work, which the proptests pin.  One header check serves both ways
//! out: `next_frame` yields a frame's kind and its payload *in place*, and
//! [`FrameReader::try_next`] is `next_frame` plus the owned decode.  A
//! reader takes its grant in place (`Frame::grant`, the same field parser
//! the owned decode uses), so the location bytes it only counts are never
//! copied out of the buffer they were read into.

use std::fmt;

/// Frame magic: `"ORWL"`.
pub(crate) const MAGIC: [u8; 4] = *b"ORWL";

/// Protocol version carried in, and required of, every frame header.  It
/// names the whole layout — the kind numbering and every payload — and
/// changes whenever any of it does.
pub(crate) const VERSION: u16 = 7;

/// Frame header length in bytes (magic + version + kind + payload len).
pub(crate) const HEADER_LEN: usize = 11;

/// Hard cap on a location buffer carried by a [`Message::LockGrant`].
pub(crate) const MAX_DATA: usize = 1 << 20;

/// Hard cap on most frame payloads: the largest grant plus its fixed
/// fields, with headroom for the JSON-bearing kinds.
pub(crate) const MAX_PAYLOAD: usize = MAX_DATA + 64;

/// Hard cap on an encoded telemetry frame carried by a
/// [`Message::TelemetryDelta`] — event drains are bigger than any single
/// location buffer, so this kind gets its own budget.  The producer splits
/// a drain at `orwl_obs::timeseries::MAX_FRAME_EVENTS` events per frame,
/// which keeps every frame under this cap.
pub(crate) const MAX_DELTA: usize = 4 << 20;

/// Access mode of a remote lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAccess {
    /// Shared read section.
    Read,
    /// Exclusive write section.
    Write,
}

impl WireAccess {
    fn code(self) -> u8 {
        match self {
            WireAccess::Read => 0,
            WireAccess::Write => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(WireAccess::Read),
            1 => Ok(WireAccess::Write),
            other => Err(WireError::BadField { kind: KIND_LOCK_REQUEST, what: "access mode", got: other }),
        }
    }
}

const KIND_HELLO: u8 = 0;
const KIND_ASSIGNMENT: u8 = 1;
const KIND_READY: u8 = 2;
const KIND_START: u8 = 3;
const KIND_LOCK_REQUEST: u8 = 4;
const KIND_LOCK_GRANT: u8 = 5;
const KIND_RELEASE: u8 = 6;
const KIND_DONE: u8 = 7;
const KIND_METRICS: u8 = 8;
const KIND_ERROR: u8 = 9;
const KIND_SHUTDOWN: u8 = 10;
const KIND_HEARTBEAT: u8 = 11;
const KIND_TELEMETRY_DELTA: u8 = 12;
const KIND_QUIESCE: u8 = 13;
const KIND_QUIESCE_ACK: u8 = 14;
const KIND_REASSIGNMENT: u8 = 15;
const KIND_RESUME: u8 = 16;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator: first message on the control connection.
    Hello {
        /// The worker's node index.
        node: u32,
    },
    /// Coordinator → worker: the run assignment (an
    /// `orwl-proc-assign/v2` JSON document, see `assignment`).
    Assignment {
        /// The assignment document text.
        json: String,
    },
    /// Worker → coordinator: the worker's peer listener is bound.
    Ready {
        /// The worker's node index.
        node: u32,
    },
    /// Coordinator → worker: every listener is up; start executing.
    Start,
    /// Peer → owner: enter the FIFO of `location` (the location owned by
    /// the task with that global index).
    LockRequest {
        /// Requester-chosen id echoed by the grant.
        seq: u64,
        /// Global task index owning the location.
        location: u64,
        /// Requested section mode.
        access: WireAccess,
        /// Bytes of the location buffer the requester wants carried back.
        bytes: u64,
    },
    /// Owner → peer: the FIFO granted the section; `data` is the location
    /// buffer (truncated to the requested size, capped at `MAX_DATA`).
    LockGrant {
        /// Echo of the request's `seq`.
        seq: u64,
        /// Echo of the request's `location`.
        location: u64,
        /// The location buffer.
        data: Vec<u8>,
    },
    /// Peer → owner: close the granted section.  No worker sends it: a
    /// grant closes its section on the owner, which answers a `Release`
    /// with an [`Message::Error`].
    Release {
        /// Echo of the grant's `seq`.
        seq: u64,
        /// Echo of the grant's `location`.
        location: u64,
    },
    /// Worker → coordinator: all local tasks finished.
    Done {
        /// The worker's node index.
        node: u32,
    },
    /// Worker → coordinator: the grant payload bytes this worker received
    /// as a reader, per fabric lane — the worker's last frame.
    Metrics {
        /// The worker's node index.
        node: u32,
        /// Bytes received from owners in this worker's rack.
        same_rack_bytes: u64,
        /// Bytes received from owners in other racks.
        cross_rack_bytes: u64,
    },
    /// Either direction: a fatal failure, with a human-readable reason.
    Error {
        /// The failure description.
        message: String,
    },
    /// Coordinator → worker: every worker is done; exit now.
    Shutdown,
    /// Worker → coordinator: a liveness beacon sent once per streaming
    /// interval while a live run executes.  The coordinator's monitor
    /// flags a node as a straggler when beats stop arriving.
    Heartbeat {
        /// The worker's node index.
        node: u32,
        /// Monotonic beat counter, starting at 0 on `Start`.
        seq: u64,
    },
    /// Worker → coordinator: one telemetry frame — the events drained
    /// since the previous frame plus the cumulative metrics, in the
    /// `orwl-obs` binary [`TelemetryDelta`](orwl_obs::TelemetryDelta)
    /// encoding, opaque at this layer.  The only way telemetry travels:
    /// a live worker sends one per interval alongside its heartbeats, and
    /// every observed worker sends its final drain after `Shutdown` (once
    /// every node's sections are served), just before `Metrics`.
    TelemetryDelta {
        /// The worker's node index.
        node: u32,
        /// The encoded frame.
        delta: Vec<u8>,
    },
    /// Coordinator → worker: a node died; park at the next
    /// iteration boundary and acknowledge.  `round` numbers the recovery
    /// episode so late acks can never be confused across episodes.
    Quiesce {
        /// Recovery episode counter, starting at 1 on the first loss.
        round: u32,
    },
    /// Worker → coordinator: this worker is parked and will accept
    /// a re-assignment for the echoed `round`.
    QuiesceAck {
        /// The worker's node index.
        node: u32,
        /// Echo of the quiesce's `round`.
        round: u32,
    },
    /// Coordinator → worker: the post-loss work distribution (an
    /// `orwl-proc-reassign/v1` JSON document, see `assignment`).
    ReAssignment {
        /// The re-assignment document text.
        json: String,
    },
    /// Coordinator → worker: every survivor re-acknowledged ready;
    /// resume executing under the new distribution.
    Resume {
        /// Echo of the quiesce's `round`.
        round: u32,
    },
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => KIND_HELLO,
            Message::Assignment { .. } => KIND_ASSIGNMENT,
            Message::Ready { .. } => KIND_READY,
            Message::Start => KIND_START,
            Message::LockRequest { .. } => KIND_LOCK_REQUEST,
            Message::LockGrant { .. } => KIND_LOCK_GRANT,
            Message::Release { .. } => KIND_RELEASE,
            Message::Done { .. } => KIND_DONE,
            Message::Metrics { .. } => KIND_METRICS,
            Message::Error { .. } => KIND_ERROR,
            Message::Shutdown => KIND_SHUTDOWN,
            Message::Heartbeat { .. } => KIND_HEARTBEAT,
            Message::TelemetryDelta { .. } => KIND_TELEMETRY_DELTA,
            Message::Quiesce { .. } => KIND_QUIESCE,
            Message::QuiesceAck { .. } => KIND_QUIESCE_ACK,
            Message::ReAssignment { .. } => KIND_REASSIGNMENT,
            Message::Resume { .. } => KIND_RESUME,
        }
    }

    /// Stable name of the message kind (diagnostics).
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Assignment { .. } => "assignment",
            Message::Ready { .. } => "ready",
            Message::Start => "start",
            Message::LockRequest { .. } => "lock_request",
            Message::LockGrant { .. } => "lock_grant",
            Message::Release { .. } => "release",
            Message::Done { .. } => "done",
            Message::Metrics { .. } => "metrics",
            Message::Error { .. } => "error",
            Message::Shutdown => "shutdown",
            Message::Heartbeat { .. } => "heartbeat",
            Message::TelemetryDelta { .. } => "telemetry_delta",
            Message::Quiesce { .. } => "quiesce",
            Message::QuiesceAck { .. } => "quiesce_ack",
            Message::ReAssignment { .. } => "reassignment",
            Message::Resume { .. } => "resume",
        }
    }

    /// Payload budget of one kind; telemetry frames get their own.
    fn max_payload_of(kind: u8) -> usize {
        match kind {
            KIND_TELEMETRY_DELTA => MAX_DELTA + 16,
            _ => MAX_PAYLOAD,
        }
    }

    /// Encodes the message as one complete frame: the one encoder's head
    /// followed by its tail (`Message::encode_head`).
    ///
    /// # Panics
    /// If the payload would exceed its kind's cap (`MAX_PAYLOAD`, or
    /// `MAX_DELTA` + fixed fields for a telemetry frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        let tail = self.encode_head(&mut frame);
        frame.extend_from_slice(tail);
        frame
    }

    /// The one encoder: appends the frame header and the kind's fixed
    /// fields to `head` and returns the variable tail — grant data, JSON
    /// text or telemetry delta — borrowed from the message.  The frame is
    /// what this call appended followed by the tail, so a sender can put
    /// the heads of several frames in one buffer, hand them and the tails
    /// to one vectored write, and never copy a tail.
    ///
    /// # Panics
    /// If the payload would exceed its kind's cap (`MAX_PAYLOAD`, or
    /// `MAX_DELTA` + fixed fields for a telemetry frame); callers cap
    /// grant data at `MAX_DATA` and telemetry frames at `MAX_DELTA`.
    pub(crate) fn encode_head<'m>(&'m self, head: &mut Vec<u8>) -> &'m [u8] {
        let start = head.len();
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.push(self.kind());
        head.extend_from_slice(&[0; 4]); // the payload length, known below
        let tail: &[u8] = match self {
            Message::Hello { node } | Message::Ready { node } | Message::Done { node } => {
                head.extend_from_slice(&node.to_le_bytes());
                &[]
            }
            Message::Assignment { json }
            | Message::Error { message: json }
            | Message::ReAssignment { json } => json.as_bytes(),
            Message::Start | Message::Shutdown => &[],
            Message::LockRequest { seq, location, access, bytes } => {
                head.extend_from_slice(&seq.to_le_bytes());
                head.extend_from_slice(&location.to_le_bytes());
                head.push(access.code());
                head.extend_from_slice(&bytes.to_le_bytes());
                &[]
            }
            Message::LockGrant { seq, location, data } => {
                assert!(data.len() <= MAX_DATA, "grant data over MAX_DATA");
                head.extend_from_slice(&seq.to_le_bytes());
                head.extend_from_slice(&location.to_le_bytes());
                data
            }
            Message::Release { seq, location } => {
                head.extend_from_slice(&seq.to_le_bytes());
                head.extend_from_slice(&location.to_le_bytes());
                &[]
            }
            Message::Metrics { node, same_rack_bytes, cross_rack_bytes } => {
                head.extend_from_slice(&node.to_le_bytes());
                head.extend_from_slice(&same_rack_bytes.to_le_bytes());
                head.extend_from_slice(&cross_rack_bytes.to_le_bytes());
                &[]
            }
            Message::Heartbeat { node, seq } => {
                head.extend_from_slice(&node.to_le_bytes());
                head.extend_from_slice(&seq.to_le_bytes());
                &[]
            }
            Message::TelemetryDelta { node, delta } => {
                assert!(delta.len() <= MAX_DELTA, "delta over MAX_DELTA");
                head.extend_from_slice(&node.to_le_bytes());
                delta
            }
            Message::Quiesce { round } | Message::Resume { round } => {
                head.extend_from_slice(&round.to_le_bytes());
                &[]
            }
            Message::QuiesceAck { node, round } => {
                head.extend_from_slice(&node.to_le_bytes());
                head.extend_from_slice(&round.to_le_bytes());
                &[]
            }
        };
        let len = head.len() - start - HEADER_LEN + tail.len();
        assert!(len <= Message::max_payload_of(self.kind()), "payload over its kind's cap");
        head[start + HEADER_LEN - 4..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        tail
    }
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with `"ORWL"`.
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The frame carries any protocol version but `VERSION`.
    BadVersion {
        /// The version found.
        got: u16,
    },
    /// The frame's kind byte names no message.
    UnknownKind(u8),
    /// The declared payload length exceeds the cap of the frame's kind.
    PayloadTooLarge {
        /// The declared length.
        len: u32,
        /// The cap it exceeded.
        cap: usize,
    },
    /// The payload is shorter than the kind's fixed fields.
    Truncated {
        /// The kind whose payload was short.
        kind: u8,
    },
    /// A JSON-bearing payload is not valid UTF-8.
    BadUtf8 {
        /// The kind whose payload was malformed.
        kind: u8,
    },
    /// A field value outside its domain.
    BadField {
        /// The kind carrying the field.
        kind: u8,
        /// Which field.
        what: &'static str,
        /// The raw value found.
        got: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            WireError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (speaking {VERSION})")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown message kind {kind}"),
            WireError::PayloadTooLarge { len, cap } => {
                write!(f, "payload of {len} bytes exceeds the {cap}-byte cap")
            }
            WireError::Truncated { kind } => write!(f, "payload of kind {kind} is truncated"),
            WireError::BadUtf8 { kind } => write!(f, "payload of kind {kind} is not valid UTF-8"),
            WireError::BadField { kind, what, got } => {
                write!(f, "kind {kind}: bad {what} value {got}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn take_u32(payload: &[u8], at: usize, kind: u8) -> Result<u32, WireError> {
    payload
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .ok_or(WireError::Truncated { kind })
}

fn take_u64(payload: &[u8], at: usize, kind: u8) -> Result<u64, WireError> {
    payload
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .ok_or(WireError::Truncated { kind })
}

fn take_string(payload: &[u8], at: usize, kind: u8) -> Result<String, WireError> {
    let tail = payload.get(at..).ok_or(WireError::Truncated { kind })?;
    String::from_utf8(tail.to_vec()).map_err(|_| WireError::BadUtf8 { kind })
}

/// A `LockGrant`'s `(seq, location, data)`, the data borrowed.
pub(crate) type GrantFields<'a> = (u64, u64, &'a [u8]);

/// The one grant parser, behind both the owned decode and [`Frame::grant`].
fn grant_fields(payload: &[u8]) -> Result<GrantFields<'_>, WireError> {
    let kind = KIND_LOCK_GRANT;
    let data = payload.get(16..).ok_or(WireError::Truncated { kind })?;
    Ok((take_u64(payload, 0, kind)?, take_u64(payload, 8, kind)?, data))
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    Ok(match kind {
        KIND_HELLO => Message::Hello { node: take_u32(payload, 0, kind)? },
        KIND_ASSIGNMENT => Message::Assignment { json: take_string(payload, 0, kind)? },
        KIND_READY => Message::Ready { node: take_u32(payload, 0, kind)? },
        KIND_START => Message::Start,
        KIND_LOCK_REQUEST => {
            let access_code = *payload.get(16).ok_or(WireError::Truncated { kind })?;
            Message::LockRequest {
                seq: take_u64(payload, 0, kind)?,
                location: take_u64(payload, 8, kind)?,
                access: WireAccess::from_code(access_code)?,
                bytes: take_u64(payload, 17, kind)?,
            }
        }
        KIND_LOCK_GRANT => {
            let (seq, location, data) = grant_fields(payload)?;
            Message::LockGrant { seq, location, data: data.to_vec() }
        }
        KIND_RELEASE => {
            Message::Release { seq: take_u64(payload, 0, kind)?, location: take_u64(payload, 8, kind)? }
        }
        KIND_DONE => Message::Done { node: take_u32(payload, 0, kind)? },
        KIND_METRICS => Message::Metrics {
            node: take_u32(payload, 0, kind)?,
            same_rack_bytes: take_u64(payload, 4, kind)?,
            cross_rack_bytes: take_u64(payload, 12, kind)?,
        },
        KIND_ERROR => Message::Error { message: take_string(payload, 0, kind)? },
        KIND_SHUTDOWN => Message::Shutdown,
        KIND_HEARTBEAT => {
            Message::Heartbeat { node: take_u32(payload, 0, kind)?, seq: take_u64(payload, 4, kind)? }
        }
        KIND_TELEMETRY_DELTA => Message::TelemetryDelta {
            node: take_u32(payload, 0, kind)?,
            delta: payload.get(4..).ok_or(WireError::Truncated { kind })?.to_vec(),
        },
        KIND_QUIESCE => Message::Quiesce { round: take_u32(payload, 0, kind)? },
        KIND_QUIESCE_ACK => {
            Message::QuiesceAck { node: take_u32(payload, 0, kind)?, round: take_u32(payload, 4, kind)? }
        }
        KIND_REASSIGNMENT => Message::ReAssignment { json: take_string(payload, 0, kind)? },
        KIND_RESUME => Message::Resume { round: take_u32(payload, 0, kind)? },
        other => return Err(WireError::UnknownKind(other)),
    })
}

/// One whole frame, its payload borrowed from the reader that holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'a> {
    kind: u8,
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The owned message.
    pub(crate) fn decode(self) -> Result<Message, WireError> {
        decode_payload(self.kind, self.payload)
    }

    /// A `LockGrant`'s `(seq, location, data)` with the data left where
    /// it was read; `None` for every other kind.
    pub(crate) fn grant(self) -> Option<Result<GrantFields<'a>, WireError>> {
        (self.kind == KIND_LOCK_GRANT).then(|| grant_fields(self.payload))
    }
}

/// Where a whole frame sits in a [`FrameReader`]: what
/// [`FrameReader::whole_frame`] found and [`FrameReader::take`] consumes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameSpan {
    kind: u8,
    total: usize,
}

/// The least room a read from the transport is given: a small frame
/// never costs a read of its own when more are queued behind it.
const MIN_READ: usize = 4 << 10;

/// Incremental frame decoder: push arriving bytes (or read them straight
/// into the reader's own buffer), take whole messages.
///
/// Survives partial headers, split payloads and several frames per push —
/// whatever chunking the socket produces.  The buffer is initialised
/// storage with a cursor pair over the unread bytes: taking a frame moves
/// the start cursor, an emptied buffer rewinds for free, and the unread
/// bytes are moved to the front only when a read would not fit behind
/// them.  Only if it still would not fit does the buffer grow, to exactly
/// what the read needs (a whole frame, once its header is in), and
/// zero-fill what it adds.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Room behind the unread bytes to read the transport into: at least
    /// the rest of a frame whose header has arrived, else at least
    /// `MIN_READ` bytes.  Report what landed with [`FrameReader::filled`].
    pub(crate) fn read_space(&mut self) -> &mut [u8] {
        let want = match self.header() {
            Ok(Some(span)) => span.total.saturating_sub(self.end - self.start).max(1),
            _ => MIN_READ,
        };
        self.room(want)
    }

    /// Counts `n` bytes written into [`FrameReader::read_space`] as arrived.
    pub(crate) fn filled(&mut self, n: usize) {
        assert!(self.end + n <= self.buf.len(), "filled past the read space");
        self.end += n;
    }

    /// At least `want` writable bytes behind the unread ones, made by the
    /// cheapest step that suffices.
    fn room(&mut self, want: usize) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < want && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Bytes buffered but not yet decoded.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.end - self.start
    }

    /// The buffer's size, moved cursors and all.
    #[cfg(test)]
    pub(crate) fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// The one header check: `Ok(None)` until the next frame's header
    /// has arrived, then its kind and total length.
    fn header(&self) -> Result<Option<FrameSpan>, WireError> {
        let head = &self.buf[self.start..self.end];
        if head.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic: [u8; 4] = head[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(WireError::BadMagic { got: magic });
        }
        let version = u16::from_le_bytes(head[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let kind = head[6];
        let len = u32::from_le_bytes(head[7..11].try_into().unwrap());
        let cap = Message::max_payload_of(kind);
        if len as usize > cap {
            return Err(WireError::PayloadTooLarge { len, cap });
        }
        Ok(Some(FrameSpan { kind, total: HEADER_LEN + len as usize }))
    }

    /// The next frame's span once all of it has arrived.  A header error
    /// is fatal for the stream: the reader makes no attempt to
    /// resynchronise.
    pub(crate) fn whole_frame(&self) -> Result<Option<FrameSpan>, WireError> {
        Ok(self.header()?.filter(|span| self.end - self.start >= span.total))
    }

    /// Consumes the frame [`FrameReader::whole_frame`] just found and
    /// lends out its payload.
    pub(crate) fn take(&mut self, span: FrameSpan) -> Frame<'_> {
        let at = self.start;
        self.start += span.total;
        Frame { kind: span.kind, payload: &self.buf[at + HEADER_LEN..at + span.total] }
    }

    /// The next whole frame, if one is buffered, its payload borrowed.
    fn next_frame(&mut self) -> Result<Option<Frame<'_>>, WireError> {
        Ok(self.whole_frame()?.map(|span| self.take(span)))
    }

    /// Decodes the next complete message, if one is buffered.  A decode
    /// error is fatal for the stream.
    pub fn try_next(&mut self) -> Result<Option<Message>, WireError> {
        self.next_frame()?.map(Frame::decode).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FramedStream;
    use proptest::prelude::*;
    use std::io::Read;
    use std::os::unix::net::UnixStream;

    /// Decodes exactly one message from a complete frame.
    fn decode_frame(frame: &[u8]) -> Result<Message, WireError> {
        let mut reader = FrameReader::new();
        reader.push(frame);
        match reader.try_next()? {
            Some(message) if reader.pending() == 0 => Ok(message),
            _ => Err(WireError::Truncated { kind: frame.get(6).copied().unwrap_or(0) }),
        }
    }

    fn roundtrip(message: &Message) {
        let frame = message.encode();
        assert_eq!(&decode_frame(&frame).unwrap(), message, "frame {frame:?}");
    }

    #[test]
    fn every_kind_roundtrips() {
        for message in [
            Message::Hello { node: 0 },
            Message::Assignment { json: "{\"schema\":\"orwl-proc-assign/v2\"}".to_string() },
            Message::Ready { node: 7 },
            Message::Start,
            Message::LockRequest { seq: 1, location: 2, access: WireAccess::Read, bytes: 65536 },
            Message::LockRequest { seq: u64::MAX, location: 0, access: WireAccess::Write, bytes: 0 },
            Message::LockGrant { seq: 1, location: 2, data: vec![1, 2, 3] },
            Message::LockGrant { seq: 0, location: 0, data: Vec::new() },
            Message::Release { seq: 9, location: 4 },
            Message::Done { node: 3 },
            Message::Metrics { node: 3, same_rack_bytes: 1 << 20, cross_rack_bytes: u64::MAX },
            Message::Error { message: "worker 2 panicked".to_string() },
            Message::Shutdown,
            Message::Heartbeat { node: 2, seq: 0 },
            Message::Heartbeat { node: 0, seq: u64::MAX },
            Message::TelemetryDelta { node: 1, delta: vec![0x4f, 0x44, 0x4c, 0x54] },
            Message::TelemetryDelta { node: 3, delta: Vec::new() },
            Message::Quiesce { round: 1 },
            Message::Quiesce { round: u32::MAX },
            Message::QuiesceAck { node: 2, round: 1 },
            Message::ReAssignment { json: "{\"schema\":\"orwl-proc-reassign/v1\"}".to_string() },
            Message::Resume { round: 1 },
        ] {
            roundtrip(&message);
        }
    }

    /// The exact bytes of one frame per payload shape, pinned so the
    /// layout can never drift silently: magic, version LE, kind, payload
    /// length LE, then the kind's fields.
    ///
    /// Version 6 changed no byte below but the version's own: it changed
    /// the protocol.  A read is request → grant, the owner's section ends
    /// at the copy into the grant, and an owner refuses a `Release` — so
    /// a version-5 reader, which sends one after every grant, must not
    /// meet a version-6 owner.
    ///
    /// Version 7 changed `Metrics`: a fixed payload of the node and the
    /// two lane byte counters replaces the JSON document after the node.
    #[test]
    fn frame_bytes_are_pinned() {
        let header = |kind: u8, len: u8| -> Vec<u8> {
            vec![b'O', b'R', b'W', b'L', 0x07, 0x00, kind, len, 0x00, 0x00, 0x00]
        };
        let pinned = |message: Message, kind: u8, payload: &[u8]| {
            let mut want = header(kind, payload.len() as u8);
            want.extend_from_slice(payload);
            assert_eq!(message.encode(), want, "layout of {}", message.name());
        };
        pinned(Message::Hello { node: 3 }, 0, &[3, 0, 0, 0]);
        pinned(Message::Start, 3, &[]);
        pinned(
            Message::LockRequest { seq: 7, location: 2, access: WireAccess::Write, bytes: 64 },
            4,
            &[7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 64, 0, 0, 0, 0, 0, 0, 0],
        );
        pinned(
            Message::LockGrant { seq: 7, location: 2, data: vec![0xAA, 0xBB] },
            5,
            &[7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xBB],
        );
        pinned(
            Message::Release { seq: 7, location: 2 },
            6,
            &[7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0],
        );
        pinned(
            Message::Metrics { node: 1, same_rack_bytes: 0x0102, cross_rack_bytes: 5 },
            8,
            &[1, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0],
        );
        pinned(Message::Heartbeat { node: 2, seq: 7 }, 11, &[2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
        pinned(
            Message::TelemetryDelta { node: 1, delta: vec![0xCC, 0xDD, 0xEE] },
            12,
            &[1, 0, 0, 0, 0xCC, 0xDD, 0xEE],
        );
        pinned(Message::Quiesce { round: 1 }, 13, &[1, 0, 0, 0]);
        pinned(Message::QuiesceAck { node: 3, round: 2 }, 14, &[3, 0, 0, 0, 2, 0, 0, 0]);
        pinned(Message::ReAssignment { json: "{}".to_string() }, 15, b"{}");
        pinned(Message::Resume { round: 2 }, 16, &[2, 0, 0, 0]);
    }

    #[test]
    fn any_other_version_is_bad_version() {
        // Both ends run the same binary, so there is exactly one version
        // to accept: everything else fails fast with a typed error —
        // never a hang waiting for more bytes, never a mis-parse.
        for message in [Message::Hello { node: 4 }, Message::Heartbeat { node: 2, seq: 5 }, Message::Shutdown]
        {
            for other in [0u16, 1, 2, 3, VERSION - 1, VERSION + 1, 99, u16::MAX] {
                let mut frame = message.encode();
                frame[4..6].copy_from_slice(&other.to_le_bytes());
                assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { got: other }));
            }
            assert_eq!(decode_frame(&message.encode()), Ok(message));
        }
    }

    #[test]
    fn delta_budget_is_enforced_both_ways() {
        // Encode refuses oversize telemetry frames...
        let caught = std::panic::catch_unwind(|| {
            Message::TelemetryDelta { node: 0, delta: vec![0; MAX_DELTA + 1] }.encode()
        });
        assert!(caught.is_err());
        // ...and decode refuses oversize declared lengths for the kind,
        // naming the cap that was actually exceeded...
        let mut over = Message::TelemetryDelta { node: 0, delta: Vec::new() }.encode();
        over[7..11].copy_from_slice(&((MAX_DELTA + 17) as u32).to_le_bytes());
        let err = decode_frame(&over).unwrap_err();
        assert_eq!(err, WireError::PayloadTooLarge { len: (MAX_DELTA + 17) as u32, cap: MAX_DELTA + 16 });
        assert_eq!(err.to_string(), "payload of 4194321 bytes exceeds the 4194320-byte cap");
        // ...while every other kind is held to the ordinary cap...
        let mut over = Message::Start.encode();
        over[7..11].copy_from_slice(&((MAX_PAYLOAD + 1) as u32).to_le_bytes());
        assert_eq!(
            decode_frame(&over).unwrap_err().to_string(),
            "payload of 1048641 bytes exceeds the 1048640-byte cap"
        );
        // ...which a telemetry frame may exceed.
        let big = Message::TelemetryDelta { node: 0, delta: vec![5; MAX_PAYLOAD + 1] }.encode();
        assert!(matches!(decode_frame(&big), Ok(Message::TelemetryDelta { .. })));
    }

    #[test]
    fn a_full_telemetry_frame_fits_the_delta_budget() {
        // The producer's event cap and this codec's byte cap are set
        // independently; pin that the first implies the second, with
        // 64 KiB to spare for the metrics tables, on the largest event.
        use orwl_obs::timeseries::MAX_FRAME_EVENTS;
        let event = orwl_obs::ObsEvent {
            ts_us: 1.0,
            dur_us: 0.0,
            seq: 0,
            tid: 0,
            track: 0,
            kind: orwl_obs::EventKind::LockGrant { rseq: 1, location: 2, wait_ns: 3 },
        };
        let full = orwl_obs::TelemetryDelta { events: vec![event; MAX_FRAME_EVENTS], ..Default::default() };
        assert!(full.encode().len() + (64 << 10) <= MAX_DELTA);
    }

    #[test]
    fn max_size_grant_roundtrips() {
        let data: Vec<u8> = (0..MAX_DATA).map(|i| (i % 251) as u8).collect();
        let message = Message::LockGrant { seq: 42, location: 17, data };
        let frame = message.encode();
        assert_eq!(frame.len(), HEADER_LEN + 16 + MAX_DATA);
        assert_eq!(decode_frame(&frame).unwrap(), message);
    }

    #[test]
    #[should_panic(expected = "MAX_DATA")]
    fn oversize_grant_is_refused_at_encode() {
        let _ = Message::LockGrant { seq: 0, location: 0, data: vec![0; MAX_DATA + 1] }.encode();
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let good = Message::Start.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode_frame(&bad_magic), Err(WireError::BadMagic { .. })));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(decode_frame(&bad_version), Err(WireError::BadVersion { got: 99 })));

        let mut bad_kind = good.clone();
        bad_kind[6] = 200;
        assert!(matches!(decode_frame(&bad_kind), Err(WireError::UnknownKind(200))));

        let mut huge = good.clone();
        huge[7..11].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_frame(&huge), Err(WireError::PayloadTooLarge { .. })));

        // A hello frame with a short payload.
        let mut short = Message::Hello { node: 1 }.encode();
        short.truncate(HEADER_LEN + 2);
        short[7..11].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(decode_frame(&short), Err(WireError::Truncated { .. })));

        // A lock request with an out-of-domain access mode.
        let mut bad_access =
            Message::LockRequest { seq: 1, location: 1, access: WireAccess::Read, bytes: 8 }.encode();
        bad_access[HEADER_LEN + 16] = 9;
        assert!(matches!(decode_frame(&bad_access), Err(WireError::BadField { .. })));

        // Errors render something human-readable.
        for err in [
            WireError::BadMagic { got: *b"XXXX" },
            WireError::BadVersion { got: 9 },
            WireError::UnknownKind(99),
            WireError::PayloadTooLarge { len: u32::MAX, cap: MAX_PAYLOAD },
            WireError::Truncated { kind: 1 },
            WireError::BadUtf8 { kind: 1 },
            WireError::BadField { kind: 4, what: "access mode", got: 9 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn reader_survives_byte_at_a_time_delivery() {
        let messages = [Message::Hello { node: 5 }, Message::Start, Message::Release { seq: 3, location: 1 }];
        let stream: Vec<u8> = messages.iter().flat_map(Message::encode).collect();
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in stream {
            reader.push(&[byte]);
            while let Some(m) = reader.try_next().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded.as_slice(), messages.as_slice());
        assert_eq!(reader.pending(), 0);
    }

    /// The raw bytes `FramedStream::send` puts on one end of a socket pair.
    fn sent_bytes(message: &Message) -> Vec<u8> {
        let (near, mut far) = UnixStream::pair().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || FramedStream::new(near).send(message).unwrap());
            let mut bytes = Vec::new();
            far.read_to_end(&mut bytes).unwrap();
            bytes
        })
    }

    #[test]
    fn the_largest_frames_go_out_byte_for_byte() {
        for message in [
            Message::LockGrant {
                seq: 3,
                location: 9,
                data: (0..MAX_DATA).map(|i| (i % 253) as u8).collect(),
            },
            Message::TelemetryDelta { node: 1, delta: (0..MAX_DELTA).map(|i| (i % 241) as u8).collect() },
        ] {
            assert!(sent_bytes(&message) == message.encode(), "{} differs on the wire", message.name());
        }
    }

    /// Small frames, a `MAX_DATA` grant bigger than the reader's buffer,
    /// small frames again.
    fn mixed_stream() -> Vec<Message> {
        let small = |i: u64| {
            [
                Message::Hello { node: i as u32 },
                Message::LockRequest { seq: i, location: 2, access: WireAccess::Read, bytes: 64 },
                Message::Metrics { node: 1, same_rack_bytes: i, cross_rack_bytes: i << 40 },
            ]
        };
        let big = Message::LockGrant {
            seq: 7,
            location: 2,
            data: (0..MAX_DATA).map(|i| (i % 251) as u8).collect(),
        };
        small(0).into_iter().chain(small(1)).chain([big]).chain(small(2)).chain(small(3)).collect()
    }

    #[test]
    fn the_reader_reads_a_socket_in_place_byte_at_a_time_and_in_chunks() {
        let messages = mixed_stream();
        for chunk in [1, 64 << 10] {
            let (near, mut far) = UnixStream::pair().unwrap();
            let decoded = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut writer = FramedStream::new(near);
                    for message in &messages {
                        writer.send(message).unwrap();
                    }
                });
                let mut reader = FrameReader::new();
                let mut decoded = Vec::new();
                loop {
                    let space = reader.read_space();
                    let limit = chunk.min(space.len());
                    let n = far.read(&mut space[..limit]).unwrap();
                    if n == 0 {
                        break;
                    }
                    reader.filled(n);
                    while let Some(message) = reader.try_next().unwrap() {
                        decoded.push(message);
                    }
                }
                assert_eq!(reader.pending(), 0, "chunk {chunk}");
                // Grown once, to exactly the largest frame.
                assert_eq!(reader.buffer_len(), HEADER_LEN + 16 + MAX_DATA, "chunk {chunk}");
                decoded
            });
            assert!(decoded == messages, "chunk {chunk}: the stream decodes to what was sent");
        }
    }

    #[test]
    fn the_reader_moves_unread_bytes_only_when_a_frame_would_not_fit() {
        let messages = mixed_stream();
        let frames: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
        let (before, big) = (&frames[..6], &frames[6]);
        let mut reader = FrameReader::new();
        // Six small frames and the big grant's first kilobyte in one push:
        // taking the small frames moves the start cursor, nothing else.
        let mut first: Vec<u8> = before.concat();
        first.extend_from_slice(&big[..1024]);
        reader.push(&first);
        for message in &messages[..6] {
            assert_eq!(reader.try_next().unwrap().as_ref(), Some(message));
        }
        assert_eq!(reader.pending(), 1024);
        assert_eq!(reader.buffer_len(), first.len(), "a push grows the buffer to what it needs");
        // The rest of the grant does not fit behind the unread kilobyte:
        // the kilobyte moves to the front and the buffer grows to exactly
        // the frame, which it could not without the move.
        reader.push(&big[1024..]);
        assert_eq!(reader.buffer_len(), big.len());
        assert_eq!(reader.try_next().unwrap().as_ref(), Some(&messages[6]));
        // Emptied, the reader rewinds and the next frames fit as they are.
        for frame in &frames[7..] {
            reader.push(frame);
        }
        assert_eq!(reader.buffer_len(), big.len());
        for message in &messages[7..] {
            assert_eq!(reader.try_next().unwrap().as_ref(), Some(message));
        }
        assert_eq!(reader.pending(), 0);
    }

    /// A strategy-driven arbitrary message: kind selector plus generously
    /// sized field material.
    fn build_message(
        selector: usize,
        a: u64,
        b: u64,
        small: u8,
        text_bytes: Vec<u8>,
        data: Vec<u8>,
    ) -> Message {
        let text: String = text_bytes.iter().map(|&b| char::from(b % 94 + 32)).collect();
        match selector % 17 {
            0 => Message::Hello { node: a as u32 },
            1 => Message::Assignment { json: text },
            2 => Message::Ready { node: b as u32 },
            3 => Message::Start,
            4 => Message::LockRequest {
                seq: a,
                location: b,
                access: if small.is_multiple_of(2) { WireAccess::Read } else { WireAccess::Write },
                bytes: a ^ b,
            },
            5 => Message::LockGrant { seq: a, location: b, data },
            6 => Message::Release { seq: a, location: b },
            7 => Message::Done { node: a as u32 },
            8 => Message::Metrics { node: b as u32, same_rack_bytes: a, cross_rack_bytes: a ^ b },
            9 => Message::Error { message: text },
            10 => Message::Shutdown,
            11 => Message::Heartbeat { node: a as u32, seq: b },
            12 => Message::TelemetryDelta { node: b as u32, delta: data },
            13 => Message::Quiesce { round: a as u32 },
            14 => Message::QuiesceAck { node: a as u32, round: b as u32 },
            15 => Message::ReAssignment { json: text },
            _ => Message::Resume { round: b as u32 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_message_roundtrips(
            selector in 0usize..17,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
            small in 0u8..255,
            text in proptest::collection::vec(0u8..255, 0..200),
            data in proptest::collection::vec(0u8..255, 0..2048),
        ) {
            let message = build_message(selector, a, b, small, text, data);
            let frame = message.encode();
            prop_assert_eq!(decode_frame(&frame).unwrap(), message);
        }

        #[test]
        fn send_writes_exactly_the_encoded_frame(
            selector in 0usize..17,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
            small in 0u8..255,
            text in proptest::collection::vec(0u8..255, 0..200),
            data in proptest::collection::vec(0u8..255, 0..2048),
        ) {
            let message = build_message(selector, a, b, small, text, data);
            prop_assert_eq!(sent_bytes(&message), message.encode());
        }

        #[test]
        fn split_reads_reassemble_any_stream(
            selectors in proptest::collection::vec(0usize..17, 1..6),
            a in 0u64..u64::MAX,
            b in 0u64..1_000_000,
            small in 0u8..255,
            data in proptest::collection::vec(0u8..255, 0..512),
            chunk_sizes in proptest::collection::vec(1usize..40, 1..64),
        ) {
            let messages: Vec<Message> = selectors
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    build_message(s, a.wrapping_add(i as u64), b + i as u64, small, vec![small; i], data.clone())
                })
                .collect();
            let stream: Vec<u8> = messages.iter().flat_map(Message::encode).collect();

            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            let mut at = 0usize;
            let mut chunk = 0usize;
            while at < stream.len() {
                let take = chunk_sizes[chunk % chunk_sizes.len()].min(stream.len() - at);
                chunk += 1;
                reader.push(&stream[at..at + take]);
                at += take;
                while let Some(m) = reader.try_next().map_err(|e| TestCaseError(e.to_string()))? {
                    decoded.push(m);
                }
            }
            prop_assert_eq!(decoded, messages);
            prop_assert_eq!(reader.pending(), 0);
        }
    }
}
