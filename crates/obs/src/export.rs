//! Exporters: the versioned `orwl-obs/v1` artifact and a Chrome
//! trace-event timeline (loadable in Perfetto / `chrome://tracing`), plus
//! the schema validators the lab's smoke jobs run against both.

use crate::event::{ClockKind, DriftOutcome, EventKind, FabricLane, ObsEvent, SolvePhase};
use crate::json::{Json, ToJson};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::{RunTelemetry, TrackInfo};
use std::collections::BTreeMap;

/// Schema tag of the telemetry artifact.
pub const OBS_SCHEMA: &str = "orwl-obs/v1";

fn event_to_json(ev: &ObsEvent) -> Json {
    let mut j = Json::obj();
    j.push("ts_us", ev.ts_us)
        .push("dur_us", ev.dur_us)
        .push("seq", ev.seq)
        .push("tid", ev.tid)
        .push("track", u64::from(ev.track))
        .push("kind", ev.kind.name());
    match ev.kind {
        EventKind::Epoch { epoch, bytes } => {
            j.push("epoch", epoch).push("bytes", bytes);
        }
        EventKind::PlacementSolve { phase, wall_ns } => {
            j.push("phase", phase.name()).push("wall_ns", wall_ns);
        }
        EventKind::DriftDecision { outcome, delta } => {
            j.push("outcome", outcome.name()).push("delta", delta);
        }
        EventKind::LockWait { location, wait_ns } => {
            j.push("location", location).push("wait_ns", wait_ns);
        }
        EventKind::FabricTransfer { lane, bytes } => {
            j.push("lane", lane.name()).push("bytes", bytes);
        }
        EventKind::Rebind { task, pu } => {
            j.push("task", task).push("pu", pu);
        }
        EventKind::Migration { tasks_moved, bytes, cross_node } => {
            j.push("tasks_moved", tasks_moved).push("bytes", bytes).push("cross_node", cross_node);
        }
        EventKind::LockRequest { rseq, location, owner } => {
            j.push("rseq", rseq).push("location", location).push("owner", u64::from(owner));
        }
        EventKind::LockGrant { rseq, location, wait_ns } => {
            j.push("rseq", rseq).push("location", location).push("wait_ns", wait_ns);
        }
        EventKind::LockRelease { rseq, location, held_ns } => {
            j.push("rseq", rseq).push("location", location).push("held_ns", held_ns);
        }
        EventKind::NodeLoss { node, tasks_lost } => {
            j.push("node", u64::from(node)).push("tasks_lost", tasks_lost);
        }
        EventKind::Recovery { node, tasks_migrated } => {
            j.push("node", u64::from(node)).push("tasks_migrated", tasks_migrated);
        }
    }
    j
}

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    let mut counters = Json::obj();
    for (name, value) in &m.counters {
        counters.push(name, *value);
    }
    let mut gauges = Json::obj();
    for (name, value) in &m.gauges {
        gauges.push(name, *value);
    }
    let mut histograms = Json::obj();
    for (name, h) in &m.histograms {
        let mut hj = Json::obj();
        hj.push("count", h.count).push("sum", h.sum).push(
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(log2, n)| Json::Arr(vec![Json::from(log2 as usize), Json::from(n)]))
                    .collect(),
            ),
        );
        histograms.push(name, hj);
    }
    let mut j = Json::obj();
    j.push("counters", counters).push("gauges", gauges).push("histograms", histograms);
    j
}

impl ToJson for RunTelemetry {
    /// The `orwl-obs/v1` artifact: run identity, the full event timeline,
    /// and the final metric values.
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("schema", OBS_SCHEMA)
            .push("backend", self.backend.as_str())
            .push("clock", self.clock.name())
            .push("dropped", self.dropped)
            .push(
                "tracks",
                Json::Arr(
                    self.tracks
                        .iter()
                        .map(|t| {
                            let mut tj = Json::obj();
                            tj.push("track", u64::from(t.track)).push("label", t.label.as_str());
                            tj
                        })
                        .collect(),
                ),
            )
            .push("events", Json::Arr(self.events.iter().map(event_to_json).collect()))
            .push("metrics", metrics_to_json(&self.metrics));
        j
    }
}

impl RunTelemetry {
    /// The timeline as a Chrome trace-event document (the JSON object
    /// format with a `traceEvents` array), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Placement solves become complete (`"X"`) spans with real durations;
    /// everything else is a thread-scoped instant (`"i"`).  Timestamps are
    /// microseconds on the run's clock, so simulated runs render simulated
    /// time.  Merged multi-process documents render one Perfetto process
    /// per track (`pid = track + 1`), named by `"M"` process-name metadata
    /// events.
    ///
    /// Each track additionally gets Perfetto counter (`"C"`) tracks —
    /// `grants`, `lock_wait_ns` and a per-lane `fabric_bytes` — derived by
    /// bucketing the track's lock and fabric events into
    /// `COUNTER_BUCKETS` fixed-width intervals, so the time series render
    /// alongside the event timeline (see `RunTelemetry::counter_events`).
    #[must_use]
    pub fn chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = self
            .tracks
            .iter()
            .map(|t| {
                let mut j = Json::obj();
                let mut args = Json::obj();
                args.push("name", t.label.as_str());
                j.push("name", "process_name")
                    .push("ph", "M")
                    .push("ts", 0.0)
                    .push("pid", u64::from(t.track) + 1)
                    .push("tid", 0u64)
                    .push("args", args);
                j
            })
            .collect();
        events.extend(self.events.iter().map(|ev| {
            let label = match ev.kind {
                EventKind::Epoch { epoch, .. } => format!("epoch {epoch}"),
                EventKind::PlacementSolve { phase, .. } => {
                    format!("solve:{}", phase.name())
                }
                EventKind::DriftDecision { outcome, .. } => {
                    format!("drift:{}", outcome.name())
                }
                EventKind::LockWait { location, .. } => format!("lock-wait L{location}"),
                EventKind::FabricTransfer { lane, .. } => {
                    format!("fabric:{}", lane.name())
                }
                EventKind::Rebind { task, .. } => format!("rebind T{task}"),
                EventKind::Migration { .. } => "migration".to_string(),
                EventKind::LockRequest { location, .. } => format!("lock-request L{location}"),
                EventKind::LockGrant { location, .. } => format!("lock-grant L{location}"),
                EventKind::LockRelease { location, .. } => format!("lock-release L{location}"),
                EventKind::NodeLoss { node, .. } => format!("node-loss N{node}"),
                EventKind::Recovery { node, .. } => format!("recovery N{node}"),
            };
            let complete = matches!(ev.kind, EventKind::PlacementSolve { .. });
            let mut j = Json::obj();
            j.push("name", label.as_str())
                .push("cat", ev.kind.name())
                .push("ph", if complete { "X" } else { "i" })
                .push("ts", ev.ts_us)
                .push("pid", u64::from(ev.track) + 1)
                .push("tid", ev.tid);
            if complete {
                j.push("dur", ev.dur_us);
            } else {
                j.push("s", "t");
            }
            j.push("args", event_to_json(ev));
            j
        }));
        events.extend(self.counter_events());
        let mut doc = Json::obj();
        doc.push("traceEvents", Json::Arr(events)).push("displayTimeUnit", "ms").push("otherData", {
            let mut meta = Json::obj();
            meta.push("backend", self.backend.as_str()).push("clock", self.clock.name());
            meta
        });
        doc
    }

    /// The counter (`"C"`) events of [`RunTelemetry::chrome_trace`]: per
    /// track, the timeline's span is cut into [`COUNTER_BUCKETS`] intervals
    /// and every interval emits one sample per series — `grants` (lock
    /// grants in the interval), `lock_wait_ns` (summed wait nanoseconds of
    /// lock-wait and grant events) and `fabric_bytes` (one stacked `args`
    /// series per lane).  Tracks with no lock or fabric activity emit no
    /// counter samples; active tracks emit every interval between their
    /// first and last contributing event, zeros included, so the rendered
    /// lines return to the axis between bursts.
    #[must_use]
    pub(crate) fn counter_events(&self) -> Vec<Json> {
        #[derive(Default, Clone, Copy)]
        struct Bucket {
            grants: u64,
            wait_ns: u64,
            fabric: [f64; 3],
        }
        let Some(first) = self.events.first().map(|e| e.ts_us) else {
            return Vec::new();
        };
        let last = self.events.last().map_or(first, |e| e.ts_us);
        let width = ((last - first) / COUNTER_BUCKETS as f64).max(1.0);
        let mut per_track: BTreeMap<u32, BTreeMap<u64, Bucket>> = BTreeMap::new();
        for ev in &self.events {
            let at = (((ev.ts_us - first) / width).floor().max(0.0) as u64).min(COUNTER_BUCKETS - 1);
            match ev.kind {
                EventKind::LockGrant { wait_ns, .. } => {
                    let b = per_track.entry(ev.track).or_default().entry(at).or_default();
                    b.grants += 1;
                    b.wait_ns += wait_ns;
                }
                EventKind::LockWait { wait_ns, .. } => {
                    per_track.entry(ev.track).or_default().entry(at).or_default().wait_ns += wait_ns;
                }
                EventKind::FabricTransfer { lane, bytes } => {
                    let slot = match lane {
                        FabricLane::SameNode => 0,
                        FabricLane::SameRack => 1,
                        FabricLane::CrossRack => 2,
                    };
                    per_track.entry(ev.track).or_default().entry(at).or_default().fabric[slot] += bytes;
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        for (track, buckets) in &per_track {
            let (lo, hi) = match (buckets.keys().next(), buckets.keys().next_back()) {
                (Some(&lo), Some(&hi)) => (lo, hi),
                _ => continue,
            };
            for at in lo..=hi {
                let b = buckets.get(&at).copied().unwrap_or_default();
                let ts = first + at as f64 * width;
                let counter = |name: &str, args: Json| {
                    let mut j = Json::obj();
                    j.push("name", name)
                        .push("ph", "C")
                        .push("ts", ts)
                        .push("pid", u64::from(*track) + 1)
                        .push("tid", 0u64)
                        .push("args", args);
                    j
                };
                let mut grants = Json::obj();
                grants.push("grants", b.grants);
                out.push(counter("grants", grants));
                let mut wait = Json::obj();
                wait.push("lock_wait_ns", b.wait_ns);
                out.push(counter("lock_wait_ns", wait));
                let mut fabric = Json::obj();
                fabric
                    .push("same_node", b.fabric[0])
                    .push("same_rack", b.fabric[1])
                    .push("cross_rack", b.fabric[2]);
                out.push(counter("fabric_bytes", fabric));
            }
        }
        out
    }
}

/// How many fixed-width intervals [`RunTelemetry::counter_events`] cuts a
/// timeline into (events exactly at the end of the span fold into the last
/// interval).
pub(crate) const COUNTER_BUCKETS: u64 = 50;

fn require_num(obj: &Json, key: &str, at: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(v) if v.as_f64().is_some() => Ok(()),
        Some(_) => Err(format!("{at}: field {key:?} is not a number")),
        None => Err(format!("{at}: missing field {key:?}")),
    }
}

fn require_str(obj: &Json, key: &str, at: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(v) if v.as_str().is_some() => Ok(()),
        Some(_) => Err(format!("{at}: field {key:?} is not a string")),
        None => Err(format!("{at}: missing field {key:?}")),
    }
}

/// Validates an `orwl-obs/v1` document: it parses into a
/// [`RunTelemetry`] (schema tag, clock name, every event's kind and fields,
/// the metrics shape).
pub fn validate_obs(doc: &Json) -> Result<(), String> {
    RunTelemetry::from_json(doc).map(drop)
}

/// Validates a Chrome trace-event document: a `traceEvents` array whose
/// entries carry `name`/`ph`/`ts`/`pid`/`tid`, with durations on complete
/// (`"X"`) events and `args` on metadata (`"M"`) and counter (`"C"`)
/// events.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        let at = format!("traceEvents[{i}]");
        require_str(ev, "name", &at)?;
        require_num(ev, "ts", &at)?;
        require_num(ev, "pid", &at)?;
        require_num(ev, "tid", &at)?;
        match ev.get("ph").and_then(Json::as_str) {
            Some("X") => require_num(ev, "dur", &at)?,
            Some("i") => {}
            Some("M") => {
                if ev.get("args").is_none() {
                    return Err(format!("{at}: metadata event missing args"));
                }
            }
            Some("C") => match ev.get("args") {
                Some(Json::Obj(series)) => {
                    for (name, v) in series {
                        if v.as_f64().is_none() {
                            return Err(format!("{at}: counter series {name:?} is not a number"));
                        }
                    }
                }
                _ => return Err(format!("{at}: counter event missing args object")),
            },
            Some(other) => return Err(format!("{at}: unknown phase {other:?}")),
            None => return Err(format!("{at}: missing ph")),
        }
    }
    Ok(())
}

fn field_f64(obj: &Json, key: &str, at: &str) -> Result<f64, String> {
    obj.get(key).and_then(Json::as_f64).ok_or_else(|| format!("{at}: missing number {key:?}"))
}

fn field_u64(obj: &Json, key: &str, at: &str) -> Result<u64, String> {
    let v = field_f64(obj, key, at)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("{at}: field {key:?} is not a non-negative integer"));
    }
    Ok(v as u64)
}

fn field_str<'j>(obj: &'j Json, key: &str, at: &str) -> Result<&'j str, String> {
    obj.get(key).and_then(Json::as_str).ok_or_else(|| format!("{at}: missing string {key:?}"))
}

fn event_from_json(ev: &Json, at: &str) -> Result<ObsEvent, String> {
    let kind_name = field_str(ev, "kind", at)?;
    let kind = match kind_name {
        "epoch" => {
            EventKind::Epoch { epoch: field_u64(ev, "epoch", at)?, bytes: field_f64(ev, "bytes", at)? }
        }
        "placement_solve" => EventKind::PlacementSolve {
            phase: SolvePhase::parse(field_str(ev, "phase", at)?)
                .ok_or_else(|| format!("{at}: unknown phase"))?,
            wall_ns: field_u64(ev, "wall_ns", at)?,
        },
        "drift_decision" => EventKind::DriftDecision {
            outcome: DriftOutcome::parse(field_str(ev, "outcome", at)?)
                .ok_or_else(|| format!("{at}: unknown outcome"))?,
            delta: field_f64(ev, "delta", at)?,
        },
        "lock_wait" => EventKind::LockWait {
            location: field_u64(ev, "location", at)?,
            wait_ns: field_u64(ev, "wait_ns", at)?,
        },
        "fabric_transfer" => EventKind::FabricTransfer {
            lane: FabricLane::parse(field_str(ev, "lane", at)?)
                .ok_or_else(|| format!("{at}: unknown lane"))?,
            bytes: field_f64(ev, "bytes", at)?,
        },
        "rebind" => EventKind::Rebind {
            task: field_u64(ev, "task", at)? as usize,
            pu: field_u64(ev, "pu", at)? as usize,
        },
        "migration" => EventKind::Migration {
            tasks_moved: field_u64(ev, "tasks_moved", at)? as usize,
            bytes: field_f64(ev, "bytes", at)?,
            cross_node: match ev.get("cross_node") {
                Some(Json::Bool(cross)) => *cross,
                _ => return Err(format!("{at}: missing bool \"cross_node\"")),
            },
        },
        "lock_request" => EventKind::LockRequest {
            rseq: field_u64(ev, "rseq", at)?,
            location: field_u64(ev, "location", at)?,
            owner: field_u64(ev, "owner", at)? as u32,
        },
        "lock_grant" => EventKind::LockGrant {
            rseq: field_u64(ev, "rseq", at)?,
            location: field_u64(ev, "location", at)?,
            wait_ns: field_u64(ev, "wait_ns", at)?,
        },
        "lock_release" => EventKind::LockRelease {
            rseq: field_u64(ev, "rseq", at)?,
            location: field_u64(ev, "location", at)?,
            held_ns: field_u64(ev, "held_ns", at)?,
        },
        "node_loss" => EventKind::NodeLoss {
            node: field_u64(ev, "node", at)? as u32,
            tasks_lost: field_u64(ev, "tasks_lost", at)? as usize,
        },
        "recovery" => EventKind::Recovery {
            node: field_u64(ev, "node", at)? as u32,
            tasks_migrated: field_u64(ev, "tasks_migrated", at)? as usize,
        },
        other => return Err(format!("{at}: unknown kind {other:?}")),
    };
    Ok(ObsEvent {
        ts_us: field_f64(ev, "ts_us", at)?,
        dur_us: field_f64(ev, "dur_us", at)?,
        seq: field_u64(ev, "seq", at)?,
        tid: field_u64(ev, "tid", at)?,
        track: if ev.get("track").is_some() { field_u64(ev, "track", at)? as u32 } else { 0 },
        kind,
    })
}

fn metrics_from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
    let metrics = doc.get("metrics").ok_or_else(|| "missing metrics object".to_string())?;
    let table = |name: &str| match metrics.get(name) {
        Some(Json::Obj(pairs)) => Ok(pairs),
        _ => Err(format!("metrics.{name} missing or not an object")),
    };
    let mut snap = MetricsSnapshot::default();
    for (name, v) in table("counters")? {
        let x = v.as_f64().ok_or_else(|| format!("counters.{name}: not a number"))?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("counters.{name}: not a non-negative integer"));
        }
        snap.counters.push((name.clone(), x as u64));
    }
    for (name, v) in table("gauges")? {
        let x = v.as_f64().ok_or_else(|| format!("gauges.{name}: not a number"))?;
        snap.gauges.push((name.clone(), x));
    }
    for (name, h) in table("histograms")? {
        let at = format!("histograms.{name}");
        let buckets_json =
            h.get("buckets").and_then(Json::as_arr).ok_or_else(|| format!("{at}: missing buckets array"))?;
        let mut buckets = Vec::new();
        for (i, b) in buckets_json.iter().enumerate() {
            let Some([log2, n]) = b.as_arr() else {
                return Err(format!("{at}.buckets[{i}]: not a pair"));
            };
            let log2 = log2.as_f64().ok_or_else(|| format!("{at}.buckets[{i}]: bad bucket"))?;
            let n = n.as_f64().ok_or_else(|| format!("{at}.buckets[{i}]: bad count"))?;
            buckets.push((log2 as u32, n as u64));
        }
        let (count, sum) = (field_u64(h, "count", &at)?, field_u64(h, "sum", &at)?);
        snap.histograms.push((name.clone(), HistogramSnapshot { count, sum, buckets }));
    }
    Ok(snap)
}

impl RunTelemetry {
    /// Parses an `orwl-obs/v1` document back into telemetry (the inverse
    /// of [`ToJson::to_json`]); a document that does not parse says where.
    pub fn from_json(doc: &Json) -> Result<RunTelemetry, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(OBS_SCHEMA) => {}
            Some(other) => return Err(format!("unexpected schema {other:?}")),
            None => return Err("missing schema tag".to_string()),
        }
        let backend = field_str(doc, "backend", "document")?.to_string();
        let clock = match doc.get("clock").and_then(Json::as_str) {
            Some(name) => ClockKind::parse(name).ok_or_else(|| format!("unknown clock {name:?}"))?,
            None => return Err("missing clock".to_string()),
        };
        let dropped = field_u64(doc, "dropped", "document")?;
        let mut tracks = Vec::new();
        if let Some(arr) = doc.get("tracks") {
            for (i, t) in arr.as_arr().ok_or("tracks is not an array")?.iter().enumerate() {
                let at = format!("tracks[{i}]");
                tracks.push(TrackInfo {
                    track: field_u64(t, "track", &at)? as u32,
                    label: field_str(t, "label", &at)?.to_string(),
                });
            }
        }
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("missing events array")?
            .iter()
            .enumerate()
            .map(|(i, ev)| event_from_json(ev, &format!("events[{i}]")))
            .collect::<Result<_, _>>()?;
        Ok(RunTelemetry { backend, clock, events, dropped, metrics: metrics_from_json(doc)?, tracks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ClockKind, DriftOutcome, FabricLane, SolvePhase};
    use crate::{ObsConfig, Recorder};

    fn sample_telemetry() -> RunTelemetry {
        let rec = Recorder::new(ClockKind::Simulated, ObsConfig::default());
        rec.set_sim_now(0.5);
        rec.record(EventKind::Epoch { epoch: 1, bytes: 4096.0 });
        rec.record(EventKind::PlacementSolve { phase: SolvePhase::Total, wall_ns: 1_500_000 });
        rec.record(EventKind::DriftDecision { outcome: DriftOutcome::Fired, delta: 0.4 });
        rec.record(EventKind::FabricTransfer { lane: FabricLane::CrossRack, bytes: 2048.0 });
        rec.record(EventKind::Migration { tasks_moved: 3, bytes: 96.0, cross_node: true });
        rec.record_lock_wait(11, 50_000);
        rec.record(EventKind::Rebind { task: 2, pu: 5 });
        rec.record(EventKind::LockRequest { rseq: (1 << 32) | 1, location: 4, owner: 0 });
        rec.record(EventKind::LockGrant { rseq: (1 << 32) | 1, location: 4, wait_ns: 2_000 });
        rec.record(EventKind::LockRelease { rseq: (1 << 32) | 1, location: 4, held_ns: 900 });
        rec.record(EventKind::NodeLoss { node: 1, tasks_lost: 9 });
        rec.record(EventKind::Recovery { node: 1, tasks_migrated: 9 });
        rec.finish("sim-test")
    }

    #[test]
    fn obs_artifact_round_trips_and_validates() {
        let t = sample_telemetry();
        let doc = t.to_json();
        validate_obs(&doc).unwrap();
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(reparsed, doc);
        validate_obs(&reparsed).unwrap();
        assert_eq!(reparsed.get("schema").unwrap().as_str(), Some(OBS_SCHEMA));
        assert_eq!(reparsed.get("events").unwrap().as_arr().unwrap().len(), t.events.len());
        let counters = reparsed.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("epochs").unwrap().as_f64(), Some(1.0));
        assert_eq!(counters.get("migrations").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn chrome_trace_validates_and_spans_solves() {
        let t = sample_telemetry();
        let doc = t.chrome_trace();
        validate_chrome_trace(&doc).unwrap();
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        validate_chrome_trace(&reparsed).unwrap();
        let events = reparsed.get("traceEvents").unwrap().as_arr().unwrap();
        // Every recorded event renders, plus the derived counter samples.
        let rendered = events.iter().filter(|e| e.get("ph").unwrap().as_str() != Some("C")).count();
        assert_eq!(rendered, t.events.len());
        let solve =
            events.iter().find(|e| e.get("cat").unwrap().as_str() == Some("placement_solve")).unwrap();
        assert_eq!(solve.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(solve.get("dur").unwrap().as_f64(), Some(1500.0));
        let instant =
            events.iter().find(|e| e.get("cat").unwrap().as_str() == Some("drift_decision")).unwrap();
        assert_eq!(instant.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(instant.get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn counter_events_pin_shape_and_validate() {
        let t = sample_telemetry();
        let counters = t.counter_events();
        assert!(!counters.is_empty(), "lock/fabric activity must derive counter samples");
        // All recorded events share one timestamp (simulated clock), so
        // everything folds into a single interval per series.
        assert_eq!(counters.len(), 3);
        let grants = &counters[0];
        assert_eq!(grants.get("name").unwrap().as_str(), Some("grants"));
        assert_eq!(grants.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(grants.get("pid").unwrap().as_f64(), Some(1.0));
        assert_eq!(grants.get("tid").unwrap().as_f64(), Some(0.0));
        assert_eq!(grants.get("ts").unwrap().as_f64(), Some(0.5e6));
        assert_eq!(grants.get("args").unwrap().get("grants").unwrap().as_f64(), Some(1.0));
        let wait = &counters[1];
        assert_eq!(wait.get("name").unwrap().as_str(), Some("lock_wait_ns"));
        // The lock_wait event (50 000 ns) plus the grant's fifo wait (2 000).
        assert_eq!(wait.get("args").unwrap().get("lock_wait_ns").unwrap().as_f64(), Some(52_000.0));
        let fabric = &counters[2];
        assert_eq!(fabric.get("name").unwrap().as_str(), Some("fabric_bytes"));
        let lanes = fabric.get("args").unwrap();
        assert_eq!(lanes.get("same_node").unwrap().as_f64(), Some(0.0));
        assert_eq!(lanes.get("same_rack").unwrap().as_f64(), Some(0.0));
        assert_eq!(lanes.get("cross_rack").unwrap().as_f64(), Some(2048.0));
        // The full trace (with counters embedded) passes the validator,
        // and a counter with a non-numeric series is rejected.
        validate_chrome_trace(&t.chrome_trace()).unwrap();
        let mut bad = Json::obj();
        let mut broken = counters[0].clone();
        if let Json::Obj(pairs) = &mut broken {
            for (k, v) in pairs.iter_mut() {
                if k == "args" {
                    let mut args = Json::obj();
                    args.push("grants", "not-a-number");
                    *v = args;
                }
            }
        }
        bad.push("traceEvents", Json::Arr(vec![broken]));
        let err = validate_chrome_trace(&bad).unwrap_err();
        assert!(err.contains("counter series"), "{err}");
        // Counters spread over the span: give the fabric event its own
        // interval and the series emits intermediate zeros.
        let mut spread = sample_telemetry();
        let span = 10.0e6;
        for ev in &mut spread.events {
            if matches!(ev.kind, EventKind::FabricTransfer { .. }) {
                ev.ts_us += span;
            }
        }
        spread.events.sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).unwrap());
        let spread_counters = spread.counter_events();
        assert_eq!(spread_counters.len(), 3 * COUNTER_BUCKETS as usize);
        let zeros = spread_counters
            .iter()
            .filter(|c| {
                c.get("name").unwrap().as_str() == Some("grants")
                    && c.get("args").unwrap().get("grants").unwrap().as_f64() == Some(0.0)
            })
            .count();
        assert_eq!(zeros, COUNTER_BUCKETS as usize - 1);
        // An event-free run derives no counters.
        assert!(!RunTelemetry::from_json(&sample_telemetry().to_json()).unwrap().counter_events().is_empty());
        let empty = RunTelemetry {
            backend: "x".to_string(),
            clock: ClockKind::Wall,
            events: vec![],
            dropped: 0,
            metrics: MetricsSnapshot::default(),
            tracks: vec![],
        };
        assert!(empty.counter_events().is_empty());
        assert!(validate_chrome_trace(&empty.chrome_trace()).is_ok());
    }

    #[test]
    fn validators_reject_malformed_documents() {
        let mut doc = Json::obj();
        doc.push("schema", "orwl-obs/v0");
        assert!(validate_obs(&doc).unwrap_err().contains("unexpected schema"));

        let t = sample_telemetry();
        let mut good = t.to_json();
        if let Json::Obj(pairs) = &mut good {
            pairs.retain(|(k, _)| k != "metrics");
        }
        assert!(validate_obs(&good).unwrap_err().contains("metrics"));

        let mut trace = Json::obj();
        trace.push("traceEvents", Json::Arr(vec![Json::obj()]));
        assert!(validate_chrome_trace(&trace).is_err());
    }

    #[test]
    fn from_json_inverts_to_json() {
        let t = sample_telemetry();
        let doc = t.to_json();
        let back = RunTelemetry::from_json(&doc).unwrap();
        assert_eq!(back, t);
        // Through text too (the artifact path).
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(RunTelemetry::from_json(&reparsed).unwrap(), t);
        // A document without the optional track fields parses as track 0.
        let mut stripped = doc.clone();
        if let Json::Obj(pairs) = &mut stripped {
            pairs.retain(|(k, _)| k != "tracks");
        }
        if let Some(Json::Arr(events)) = stripped.get("events").cloned() {
            let rewritten: Vec<Json> = events
                .into_iter()
                .map(|mut ev| {
                    if let Json::Obj(pairs) = &mut ev {
                        pairs.retain(|(k, _)| k != "track");
                    }
                    ev
                })
                .collect();
            if let Json::Obj(pairs) = &mut stripped {
                for (k, v) in pairs.iter_mut() {
                    if k == "events" {
                        *v = Json::Arr(rewritten.clone());
                    }
                }
            }
        }
        let legacy = RunTelemetry::from_json(&stripped).unwrap();
        assert!(legacy.tracks.is_empty());
        assert!(legacy.events.iter().all(|e| e.track == 0));
    }

    #[test]
    fn merged_trace_gets_one_pid_per_track_and_metadata() {
        let mut t = sample_telemetry();
        t.tracks = vec![
            crate::TrackInfo { track: 0, label: "coordinator".to_string() },
            crate::TrackInfo { track: 1, label: "node0".to_string() },
        ];
        t.events[0].track = 1;
        let doc = t.chrome_trace();
        validate_chrome_trace(&doc).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Two metadata events lead, naming pids 1 and 2.
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(events[0].get("pid").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("args").unwrap().get("name").unwrap().as_str(), Some("coordinator"));
        assert_eq!(events[1].get("pid").unwrap().as_f64(), Some(2.0));
        // The re-tracked event renders on pid 2, the rest on pid 1.
        assert_eq!(events[2].get("pid").unwrap().as_f64(), Some(2.0));
        assert_eq!(events[3].get("pid").unwrap().as_f64(), Some(1.0));
    }
}
