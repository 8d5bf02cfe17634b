//! The telemetry frame: how a recorder's output leaves its process, plus
//! the sampler that produces frames and the aggregator and fold that
//! consume them.
//!
//! A [`DeltaSampler`] drains the recorder's per-thread rings into
//! sequence-numbered [`TelemetryDelta`] frames.  Each frame carries the
//! events drained since the previous frame and the *cumulative*
//! [`MetricsSnapshot`] at the sample instant.  Ring drains are destructive
//! and disjoint, so every event (and every counted drop) leaves the
//! process exactly once; [`fold_deltas`] concatenates one producer's
//! frames back into the [`TelemetrySnapshot`] the post-run merge consumes
//! (metrics are the last frame's — cumulative values subsume every
//! earlier frame).  The same frame serves a mid-run stream and the single
//! drain at the end of a run.
//!
//! Frames encode to a compact little-endian binary layout, versioned
//! independently of whatever wire carries them (in `orwl-proc` that is
//! the `TelemetryDelta` frame):
//!
//! ```text
//! | magic "ODLT" (4) | version u16 | seq u64 | origin_us f64 |
//! | t_end_us f64 | dropped u64 |
//! | events u32 × event | counters u32 × (str, u64) |
//! | gauges u32 × (str, f64) | histograms u32 × (str, count, sum, buckets) |
//! ```
//!
//! Each event is `ts_us f64 | dur_us f64 | seq u64 | tid u64 | track u32 |
//! tag u8 | payload`, with one tag per [`EventKind`] variant.  Decoding is
//! strict: bad magic, unknown versions, unknown tags, non-finite
//! timestamps, oversized length prefixes, truncated buffers and trailing
//! bytes are all typed errors — a corrupt frame must never poison the
//! consumer's merged timeline.
//!
//! On the consuming side a [`LiveAggregator`] turns each arriving frame
//! into the rates of its interval — lock-wait nanoseconds, remote grants,
//! fabric bytes per lane, ring drops — as the difference of two
//! consecutive cumulative snapshots of the same track.

use crate::event::{DriftOutcome, EventKind, FabricLane, SolvePhase};
use crate::merge::TelemetrySnapshot;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::{ObsEvent, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Magic prefix of a serialized frame.
pub(crate) const DELTA_MAGIC: &[u8; 4] = b"ODLT";

/// Current frame format version.
pub(crate) const DELTA_VERSION: u16 = 3;

/// The event cap of one frame: [`DeltaSampler::sample`] splits a larger
/// drain over several frames and [`TelemetryDelta::decode`] rejects a
/// larger count.  At 61 bytes per encoded event a full frame stays under
/// 3 MiB.
pub const MAX_FRAME_EVENTS: usize = 50_000;

/// Hard caps on the other collection lengths: a malformed length prefix
/// must fail fast instead of asking the allocator for terabytes.
const MAX_INSTRUMENTS: u32 = 1 << 16;
const MAX_STRING: u32 = 1 << 12;

/// A decode failure (encoding is infallible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer does not start with `DELTA_MAGIC`.
    BadMagic,
    /// A version this build does not speak.
    BadVersion {
        /// The version the peer wrote.
        got: u16,
    },
    /// An enum code outside the known range.
    BadCode {
        /// Which field carried the code.
        field: &'static str,
        /// The offending code.
        got: u8,
    },
    /// The buffer ended inside a field.
    Truncated,
    /// Bytes left over after the last field.
    TrailingBytes,
    /// A string field was not UTF-8.
    BadUtf8,
    /// A numeric field failed a range check (non-finite timestamp,
    /// oversized length).
    BadField(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "telemetry frame does not start with ODLT"),
            FrameError::BadVersion { got } => write!(f, "unsupported telemetry frame version {got}"),
            FrameError::BadCode { field, got } => write!(f, "unknown {field} code {got}"),
            FrameError::Truncated => write!(f, "telemetry frame truncated"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after telemetry frame"),
            FrameError::BadUtf8 => write!(f, "telemetry frame string is not UTF-8"),
            FrameError::BadField(field) => write!(f, "telemetry frame field {field} out of range"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Everything a recorder produced between two samples, plus its
/// cumulative metric values at the second.
///
/// `origin_us` lets a consumer in another process on the same host rebase
/// the frame onto its own recorder: both stamp `CLOCK_MONOTONIC`, so the
/// difference of the two origins is the whole shift.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryDelta {
    /// Sampler-assigned frame sequence number (0, 1, 2, ... per run).
    pub seq: u64,
    /// The recorder's time zero on the shared clock.
    pub origin_us: f64,
    /// Sample instant in microseconds on the producing recorder's clock.
    pub t_end_us: f64,
    /// Ring overwrites since the previous frame (drain resets the
    /// counters, so consecutive frames never double-count).
    pub dropped: u64,
    /// Events drained from the rings since the previous frame,
    /// `(ts_us, seq)`-ordered.
    pub events: Vec<ObsEvent>,
    /// Every metric instrument's value at the sample instant, cumulative
    /// over the whole run.
    pub metrics: MetricsSnapshot,
}

impl TelemetryDelta {
    /// True when the frame carries no event and no drop.  Streamers may
    /// skip shipping such frames (the heartbeat alone proves liveness):
    /// metric movement of an event-free interval rides in the next frame,
    /// because the values are cumulative.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Serializes to the versioned binary layout.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.events.len() * 56);
        out.extend_from_slice(DELTA_MAGIC);
        out.extend_from_slice(&DELTA_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.origin_us.to_le_bytes());
        out.extend_from_slice(&self.t_end_us.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for ev in &self.events {
            put_event(&mut out, ev);
        }
        out.extend_from_slice(&(self.metrics.counters.len() as u32).to_le_bytes());
        for (name, value) in &self.metrics.counters {
            put_str(&mut out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.metrics.gauges.len() as u32).to_le_bytes());
        for (name, value) in &self.metrics.gauges {
            put_str(&mut out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.metrics.histograms.len() as u32).to_le_bytes());
        for (name, h) in &self.metrics.histograms {
            put_str(&mut out, name);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for &(log2, n) in &h.buckets {
                out.push(log2 as u8);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out
    }

    /// Strictly decodes a buffer produced by [`TelemetryDelta::encode`].
    pub fn decode(buf: &[u8]) -> Result<TelemetryDelta, FrameError> {
        let mut r = Reader { buf, at: 0 };
        if r.take(4)? != DELTA_MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = r.u16()?;
        if version != DELTA_VERSION {
            return Err(FrameError::BadVersion { got: version });
        }
        let seq = r.u64()?;
        let origin_us = r.finite_f64("origin_us")?;
        let t_end_us = r.finite_f64("t_end_us")?;
        let dropped = r.u64()?;
        let n_events = r.len_prefix(MAX_FRAME_EVENTS as u32, "events")?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(take_event(&mut r)?);
        }
        let mut metrics = MetricsSnapshot::default();
        for _ in 0..r.len_prefix(MAX_INSTRUMENTS, "counters")? {
            let name = r.string()?;
            metrics.counters.push((name, r.u64()?));
        }
        for _ in 0..r.len_prefix(MAX_INSTRUMENTS, "gauges")? {
            let name = r.string()?;
            metrics.gauges.push((name, r.finite_f64("gauge")?));
        }
        for _ in 0..r.len_prefix(MAX_INSTRUMENTS, "histograms")? {
            let name = r.string()?;
            let count = r.u64()?;
            let sum = r.u64()?;
            let n_buckets = r.len_prefix(64, "buckets")?;
            let mut buckets = Vec::with_capacity(n_buckets);
            for _ in 0..n_buckets {
                let log2 = r.u8()?;
                if log2 >= 64 {
                    return Err(FrameError::BadField("bucket log2"));
                }
                buckets.push((u32::from(log2), r.u64()?));
            }
            metrics.histograms.push((name, HistogramSnapshot { count, sum, buckets }));
        }
        if r.at != r.buf.len() {
            return Err(FrameError::TrailingBytes);
        }
        Ok(TelemetryDelta { seq, origin_us, t_end_us, dropped, events, metrics })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(MAX_STRING as usize)];
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_event(out: &mut Vec<u8>, ev: &ObsEvent) {
    out.extend_from_slice(&ev.ts_us.to_le_bytes());
    out.extend_from_slice(&ev.dur_us.to_le_bytes());
    out.extend_from_slice(&ev.seq.to_le_bytes());
    out.extend_from_slice(&ev.tid.to_le_bytes());
    out.extend_from_slice(&ev.track.to_le_bytes());
    match ev.kind {
        EventKind::Epoch { epoch, bytes } => {
            out.push(0);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        EventKind::PlacementSolve { phase, wall_ns } => {
            out.push(1);
            out.push(match phase {
                SolvePhase::Group => 0,
                SolvePhase::Coarsen => 1,
                SolvePhase::Refine => 2,
                SolvePhase::Total => 3,
            });
            out.extend_from_slice(&wall_ns.to_le_bytes());
        }
        EventKind::DriftDecision { outcome, delta } => {
            out.push(2);
            out.push(match outcome {
                DriftOutcome::Fired => 0,
                DriftOutcome::SuppressedByPatience => 1,
                DriftOutcome::Cooldown => 2,
                DriftOutcome::Quiet => 3,
            });
            out.extend_from_slice(&delta.to_le_bytes());
        }
        EventKind::LockWait { location, wait_ns } => {
            out.push(3);
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&wait_ns.to_le_bytes());
        }
        EventKind::FabricTransfer { lane, bytes } => {
            out.push(4);
            out.push(match lane {
                FabricLane::SameNode => 0,
                FabricLane::SameRack => 1,
                FabricLane::CrossRack => 2,
            });
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        EventKind::Rebind { task, pu } => {
            out.push(5);
            out.extend_from_slice(&(task as u64).to_le_bytes());
            out.extend_from_slice(&(pu as u64).to_le_bytes());
        }
        EventKind::Migration { tasks_moved, bytes, cross_node } => {
            out.push(6);
            out.extend_from_slice(&(tasks_moved as u64).to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
            out.push(u8::from(cross_node));
        }
        EventKind::LockRequest { rseq, location, owner } => {
            out.push(7);
            out.extend_from_slice(&rseq.to_le_bytes());
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&owner.to_le_bytes());
        }
        EventKind::LockGrant { rseq, location, wait_ns } => {
            out.push(8);
            out.extend_from_slice(&rseq.to_le_bytes());
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&wait_ns.to_le_bytes());
        }
        EventKind::LockRelease { rseq, location, held_ns } => {
            out.push(9);
            out.extend_from_slice(&rseq.to_le_bytes());
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&held_ns.to_le_bytes());
        }
        EventKind::NodeLoss { node, tasks_lost } => {
            out.push(10);
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&(tasks_lost as u64).to_le_bytes());
        }
        EventKind::Recovery { node, tasks_migrated } => {
            out.push(11);
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&(tasks_migrated as u64).to_le_bytes());
        }
    }
}

fn take_event(r: &mut Reader<'_>) -> Result<ObsEvent, FrameError> {
    let ts_us = r.finite_f64("ts_us")?;
    let dur_us = r.finite_f64("dur_us")?;
    let seq = r.u64()?;
    let tid = r.u64()?;
    let track = r.u32()?;
    let tag = r.u8()?;
    let kind = match tag {
        0 => EventKind::Epoch { epoch: r.u64()?, bytes: r.finite_f64("bytes")? },
        1 => EventKind::PlacementSolve {
            phase: match r.u8()? {
                0 => SolvePhase::Group,
                1 => SolvePhase::Coarsen,
                2 => SolvePhase::Refine,
                3 => SolvePhase::Total,
                got => return Err(FrameError::BadCode { field: "phase", got }),
            },
            wall_ns: r.u64()?,
        },
        2 => EventKind::DriftDecision {
            outcome: match r.u8()? {
                0 => DriftOutcome::Fired,
                1 => DriftOutcome::SuppressedByPatience,
                2 => DriftOutcome::Cooldown,
                3 => DriftOutcome::Quiet,
                got => return Err(FrameError::BadCode { field: "outcome", got }),
            },
            delta: r.finite_f64("delta")?,
        },
        3 => EventKind::LockWait { location: r.u64()?, wait_ns: r.u64()? },
        4 => EventKind::FabricTransfer {
            lane: match r.u8()? {
                0 => FabricLane::SameNode,
                1 => FabricLane::SameRack,
                2 => FabricLane::CrossRack,
                got => return Err(FrameError::BadCode { field: "lane", got }),
            },
            bytes: r.finite_f64("bytes")?,
        },
        5 => EventKind::Rebind { task: r.u64()? as usize, pu: r.u64()? as usize },
        6 => EventKind::Migration {
            tasks_moved: r.u64()? as usize,
            bytes: r.finite_f64("bytes")?,
            cross_node: match r.u8()? {
                0 => false,
                1 => true,
                got => return Err(FrameError::BadCode { field: "cross_node", got }),
            },
        },
        7 => EventKind::LockRequest { rseq: r.u64()?, location: r.u64()?, owner: r.u32()? },
        8 => EventKind::LockGrant { rseq: r.u64()?, location: r.u64()?, wait_ns: r.u64()? },
        9 => EventKind::LockRelease { rseq: r.u64()?, location: r.u64()?, held_ns: r.u64()? },
        10 => EventKind::NodeLoss { node: r.u32()?, tasks_lost: r.u64()? as usize },
        11 => EventKind::Recovery { node: r.u32()?, tasks_migrated: r.u64()? as usize },
        got => return Err(FrameError::BadCode { field: "event tag", got }),
    };
    Ok(ObsEvent { ts_us, dur_us, seq, tid, track, kind })
}

struct Reader<'b> {
    buf: &'b [u8],
    at: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], FrameError> {
        if self.buf.len() - self.at < n {
            return Err(FrameError::Truncated);
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finite_f64(&mut self, field: &'static str) -> Result<f64, FrameError> {
        let x = f64::from_le_bytes(self.take(8)?.try_into().unwrap());
        if x.is_finite() {
            Ok(x)
        } else {
            Err(FrameError::BadField(field))
        }
    }

    fn len_prefix(&mut self, max: u32, field: &'static str) -> Result<usize, FrameError> {
        let n = self.u32()?;
        if n > max {
            return Err(FrameError::BadField(field));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.len_prefix(MAX_STRING, "string length")?;
        std::str::from_utf8(self.take(n)?).map(str::to_string).map_err(|_| FrameError::BadUtf8)
    }
}

/// The frame producer: drains a [`Recorder`]'s rings and snapshots its
/// metrics on every [`DeltaSampler::sample`] call.
///
/// The sampler owns no timer — whoever drives the loop calls `sample()`
/// once per interval, or once at the end of an unstreamed run.
/// Successive samples are disjoint: rings are emptied and drop counters
/// reset by each drain, so concatenating every frame reconstructs the run
/// exactly (see [`fold_deltas`]).
#[derive(Debug)]
pub struct DeltaSampler {
    recorder: Arc<Recorder>,
    next_seq: u64,
}

impl DeltaSampler {
    /// A sampler over `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<Recorder>) -> DeltaSampler {
        DeltaSampler { recorder, next_seq: 0 }
    }

    /// Drains everything recorded since the previous sample into fresh
    /// sequence-numbered frames: one, unless the drain exceeds
    /// [`MAX_FRAME_EVENTS`], in which case the events are split in order
    /// over as many frames as it takes — never truncated.  Every frame
    /// carries the same cumulative metrics; the drop count rides in the
    /// first.
    pub fn sample(&mut self) -> Vec<TelemetryDelta> {
        let t_end_us = self.recorder.now_us();
        let (events, dropped) = self.recorder.drain_rings();
        let metrics = self.recorder.metrics().snapshot();
        let origin_us = self.recorder.origin_us();
        let n_frames = events.len().div_ceil(MAX_FRAME_EVENTS).max(1) as u64;
        let first_seq = self.next_seq;
        self.next_seq += n_frames;
        let mut chunks = events.chunks(MAX_FRAME_EVENTS);
        (0..n_frames)
            .map(|k| TelemetryDelta {
                seq: first_seq + k,
                origin_us,
                t_end_us,
                dropped: if k == 0 { dropped } else { 0 },
                events: chunks.next().unwrap_or_default().to_vec(),
                metrics: metrics.clone(),
            })
            .collect()
    }
}

/// The rates of one frame's interval on one track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    /// Frames the interval spans (always 1 for a frame's own rates).
    pub deltas: u32,
    /// Events carried by the frame.
    pub events: u64,
    /// Ring overwrites reported in the interval.
    pub dropped: u64,
    /// Nanoseconds spent blocked on locks (`lock_wait_ns` histogram sum).
    pub lock_wait_ns: u64,
    /// Remote grants served (`remote_grants` counter).
    pub grants: u64,
    /// Fabric bytes per lane: `[same_node, same_rack, cross_rack]`
    /// (`fabric_bytes_<lane>` histogram sums).
    pub fabric_bytes: [u64; 3],
}

impl IntervalStats {
    /// The cumulative value of every rate lane in one metrics snapshot;
    /// an interval's rates are the difference of two of these.
    fn lanes(metrics: &MetricsSnapshot) -> IntervalStats {
        let sum = |name: &str| metrics.histogram(name).map_or(0, |h| h.sum);
        IntervalStats {
            lock_wait_ns: sum("lock_wait_ns"),
            grants: metrics.counter("remote_grants").unwrap_or(0),
            fabric_bytes: [
                sum("fabric_bytes_same_node"),
                sum("fabric_bytes_same_rack"),
                sum("fabric_bytes_cross_rack"),
            ],
            ..IntervalStats::default()
        }
    }
}

/// Turns the frames of many tracks into per-interval rates, deduping
/// repeated frames by `(track, seq)`: a frame's rates are its cumulative
/// metrics minus the same track's previous frame's.
#[derive(Debug, Default)]
pub struct LiveAggregator {
    cumulative: BTreeMap<u32, IntervalStats>,
    seen: BTreeSet<(u32, u64)>,
    duplicates: u64,
}

impl LiveAggregator {
    /// A fresh aggregator: every track starts from zero.
    #[must_use]
    pub fn new() -> LiveAggregator {
        LiveAggregator::default()
    }

    /// Returns the rates of one frame of `track`; `None` when the
    /// `(track, seq)` pair was already ingested.
    pub fn ingest(&mut self, track: u32, delta: &TelemetryDelta) -> Option<IntervalStats> {
        if !self.seen.insert((track, delta.seq)) {
            self.duplicates += 1;
            return None;
        }
        let now = IntervalStats::lanes(&delta.metrics);
        let prev = self.cumulative.insert(track, now).unwrap_or_default();
        Some(IntervalStats {
            deltas: 1,
            events: delta.events.len() as u64,
            dropped: delta.dropped,
            lock_wait_ns: now.lock_wait_ns.saturating_sub(prev.lock_wait_ns),
            grants: now.grants.saturating_sub(prev.grants),
            fabric_bytes: std::array::from_fn(|lane| {
                now.fabric_bytes[lane].saturating_sub(prev.fabric_bytes[lane])
            }),
        })
    }

    /// Repeated frames rejected so far.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

/// Concatenates one producer's frames into the snapshot the post-run
/// merge consumes: events in frame-`seq` order, drop counts summed, origin
/// and metrics from the last frame (cumulative values subsume
/// every earlier one).  `None` when the producer sent no frame at all.
#[must_use]
pub fn fold_deltas(mut frames: Vec<TelemetryDelta>) -> Option<TelemetrySnapshot> {
    frames.sort_by_key(|frame| frame.seq);
    let last = frames.pop()?;
    let mut events =
        Vec::with_capacity(frames.iter().map(|f| f.events.len()).sum::<usize>() + last.events.len());
    let mut dropped = last.dropped;
    for frame in frames {
        dropped += frame.dropped;
        events.extend(frame.events);
    }
    events.extend(last.events);
    Some(TelemetrySnapshot { origin_us: last.origin_us, events, dropped, metrics: last.metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockKind, ObsConfig};
    use std::collections::HashSet;

    fn recorder(capacity: usize) -> Arc<Recorder> {
        Recorder::new(ClockKind::Simulated, ObsConfig { ring_capacity: capacity, ..Default::default() })
    }

    /// One frame holding every event kind plus all three instrument types.
    fn sample_frame() -> TelemetryDelta {
        let rec = Recorder::new(ClockKind::Wall, ObsConfig::default());
        let mut sampler = DeltaSampler::new(Arc::clone(&rec));
        rec.record(EventKind::Epoch { epoch: 1, bytes: 4096.0 });
        rec.record(EventKind::PlacementSolve { phase: SolvePhase::Total, wall_ns: 1_500_000 });
        rec.record(EventKind::DriftDecision { outcome: DriftOutcome::Quiet, delta: 0.01 });
        rec.record(EventKind::FabricTransfer { lane: FabricLane::SameRack, bytes: 2048.0 });
        rec.record(EventKind::Rebind { task: 2, pu: 5 });
        rec.record(EventKind::Migration { tasks_moved: 3, bytes: 96.0, cross_node: true });
        rec.record(EventKind::LockRequest { rseq: (2 << 32) | 7, location: 4, owner: 0 });
        rec.record(EventKind::LockGrant { rseq: (2 << 32) | 7, location: 4, wait_ns: 9_000 });
        rec.record(EventKind::LockRelease { rseq: (2 << 32) | 7, location: 4, held_ns: 700 });
        rec.record(EventKind::NodeLoss { node: 1, tasks_lost: 9 });
        rec.record(EventKind::Recovery { node: 1, tasks_migrated: 9 });
        rec.record_lock_wait(3, 60_000);
        sampler.sample().pop().unwrap()
    }

    #[test]
    fn every_kind_and_instrument_round_trips() {
        let frame = sample_frame();
        let back = TelemetryDelta::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.events.len(), 12);
        assert_eq!(back.metrics.counter("remote_grants"), Some(1));
        assert!(back.metrics.gauge("drift_delta_last").is_some());
        assert!(!back.metrics.histogram("lock_wait_ns").unwrap().buckets.is_empty());
    }

    #[test]
    fn an_idle_recorder_still_yields_one_round_tripping_frame() {
        let rec = recorder(1 << 10);
        let frames = DeltaSampler::new(rec).sample();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].is_empty());
        assert_eq!(TelemetryDelta::decode(&frames[0].encode()).unwrap(), frames[0]);
    }

    #[test]
    fn consecutive_samples_are_disjoint_and_account_drops_exactly() {
        // Forced overflow: a 4-slot ring fed 10 events keeps 4 and drops 6.
        let rec = recorder(4);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec));
        rec.set_sim_now(0.010);
        for epoch in 0..10 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let first = sampler.sample().pop().unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(first.t_end_us, 10_000.0);
        assert_eq!(first.events.len(), 4);
        assert_eq!(first.dropped, 6);

        // Draining again right away re-reports nothing.
        let empty = sampler.sample().pop().unwrap();
        assert!(empty.is_empty(), "re-drain must not duplicate: {empty:?}");

        // New events after the drain come out exactly once, no drops.
        for epoch in 10..13 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let second = sampler.sample().pop().unwrap();
        assert_eq!(second.events.len(), 3);
        assert_eq!(second.dropped, 0);
        let first_seqs: HashSet<u64> = first.events.iter().map(|e| e.seq).collect();
        assert!(second.events.iter().all(|e| !first_seqs.contains(&e.seq)));

        // Metric values are cumulative, not increments.
        assert_eq!(first.metrics.counter("events_recorded"), Some(10));
        assert_eq!(second.metrics.counter("events_recorded"), Some(13));
        assert_eq!(second.seq, 2);
    }

    #[test]
    fn an_oversized_drain_is_split_over_frames_not_truncated() {
        let n = 2 * MAX_FRAME_EVENTS + 1;
        let rec = recorder(n);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec));
        for epoch in 0..n as u64 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let frames = sampler.sample();
        assert_eq!(
            frames.iter().map(|f| f.events.len()).collect::<Vec<_>>(),
            [MAX_FRAME_EVENTS, MAX_FRAME_EVENTS, 1]
        );
        assert_eq!(frames.iter().map(|f| f.seq).collect::<Vec<_>>(), [0, 1, 2]);
        // A full frame decodes; one event more is over the decode cap.
        assert!(TelemetryDelta::decode(&frames[0].encode()).is_ok());
        let mut over = frames[0].clone();
        over.events.push(frames[2].events[0]);
        assert_eq!(TelemetryDelta::decode(&over.encode()), Err(FrameError::BadField("events")));
        // Folding the frames back loses nothing and keeps emission order.
        let snap = fold_deltas(frames).unwrap();
        assert_eq!(snap.events.len(), n);
        assert_eq!(snap.dropped, 0);
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let good = sample_frame().encode();

        assert_eq!(TelemetryDelta::decode(b"JUNK"), Err(FrameError::BadMagic));
        // Version 2 is the layout that still carried a clock offset.
        for got in [2u16, 9] {
            let mut wrong_version = good.clone();
            wrong_version[4..6].copy_from_slice(&got.to_le_bytes());
            assert_eq!(TelemetryDelta::decode(&wrong_version), Err(FrameError::BadVersion { got }));
        }

        // Truncation at any prefix length never panics and fails typed.
        for cut in 0..good.len() {
            let err = TelemetryDelta::decode(&good[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::Truncated
                        | FrameError::BadMagic
                        | FrameError::BadField(_)
                        | FrameError::BadCode { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(TelemetryDelta::decode(&trailing), Err(FrameError::TrailingBytes));

        // A non-finite origin is rejected (magic 4 + version 2 + seq 8).
        let mut nan_origin = good.clone();
        nan_origin[14..22].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(TelemetryDelta::decode(&nan_origin), Err(FrameError::BadField("origin_us")));

        // An unknown event tag: the first event's tag byte sits after the
        // 42-byte frame header and the event's 36 fixed bytes.
        let mut bad_tag = good;
        bad_tag[42 + 36] = 200;
        assert_eq!(
            TelemetryDelta::decode(&bad_tag),
            Err(FrameError::BadCode { field: "event tag", got: 200 })
        );
    }

    #[test]
    fn absurd_length_prefixes_fail_fast() {
        // A header, zero events, then a counter table claiming one entry
        // whose name is 4 GiB long: must be BadField, not an allocation.
        let mut buf = TelemetryDelta::default().encode();
        buf.truncate(42); // keep the header and the zero event count
        let mut huge_name = buf.clone();
        huge_name.extend_from_slice(&1u32.to_le_bytes());
        huge_name.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(TelemetryDelta::decode(&huge_name), Err(FrameError::BadField("string length")));
        // ... and a table claiming 4 G entries fails on the count itself.
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(TelemetryDelta::decode(&buf), Err(FrameError::BadField("counters")));
    }

    fn synthetic_delta(seq: u64, grants: u64, wait_ns: u64) -> TelemetryDelta {
        let hist = |sum: u64| HistogramSnapshot { count: 1, sum, buckets: vec![] };
        TelemetryDelta {
            seq,
            dropped: seq, // arbitrary distinct drop counts
            metrics: MetricsSnapshot {
                counters: vec![("remote_grants".to_string(), grants)],
                gauges: vec![],
                histograms: vec![
                    ("fabric_bytes_cross_rack".to_string(), hist(2_048 * (seq + 1))),
                    ("lock_wait_ns".to_string(), hist(wait_ns)),
                ],
            },
            ..TelemetryDelta::default()
        }
    }

    #[test]
    fn aggregator_differences_cumulative_frames_and_dedups() {
        let mut agg = LiveAggregator::new();
        let first = agg.ingest(1, &synthetic_delta(0, 3, 100)).unwrap();
        assert_eq!((first.deltas, first.grants, first.lock_wait_ns, first.dropped), (1, 3, 100, 0));
        assert_eq!(first.fabric_bytes, [0, 0, 2_048]);
        // Cumulative 8 grants / 300 ns after 3 / 100: the interval saw 5 / 200.
        let second = agg.ingest(1, &synthetic_delta(1, 8, 300)).unwrap();
        assert_eq!((second.grants, second.lock_wait_ns, second.dropped), (5, 200, 1));
        assert_eq!(second.fabric_bytes, [0, 0, 2_048]);
        assert!(agg.ingest(1, &synthetic_delta(1, 8, 300)).is_none(), "a repeat must yield nothing");
        assert_eq!(agg.duplicates(), 1);
        // Another track starts from its own zero.
        assert_eq!(agg.ingest(2, &synthetic_delta(0, 7, 400)).unwrap().grants, 7);
    }

    #[test]
    fn fold_deltas_reconstructs_the_full_timeline() {
        // Two mid-run samples and one at the end: folding must reproduce
        // every event exactly once with exact drop accounting, whatever
        // order the frames are handed over in.
        let rec = recorder(4);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec));
        for epoch in 0..10 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let d0 = sampler.sample().pop().unwrap(); // 4 events, 6 dropped
        for epoch in 10..13 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let d1 = sampler.sample().pop().unwrap(); // 3 events
        rec.record(EventKind::Epoch { epoch: 13, bytes: 0.0 });
        let d2 = sampler.sample().pop().unwrap(); // the tail
        assert_eq!(d2.events.len(), 1);

        let snap = fold_deltas(vec![d2.clone(), d0, d1]).unwrap();
        assert_eq!(snap.events.len(), 8);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.origin_us, rec.origin_us());
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq), "every event once, in order");
        // The last frame's cumulative metrics are the run's.
        assert_eq!(snap.metrics, d2.metrics);
        assert_eq!(snap.metrics.counter("epochs"), Some(14));

        assert!(fold_deltas(Vec::new()).is_none());
    }
}
