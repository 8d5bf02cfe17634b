//! The run assignment a coordinator ships to each worker.
//!
//! An `Assignment` is everything a freshly-exec'd worker process needs
//! to reconstruct its slice of the run: the cluster shape (rack layout),
//! the task → node sharding the placement policy chose, the socket
//! rendezvous points, and the per-phase read schedule filtered to the
//! tasks this worker hosts.  It travels as the JSON payload of
//! [`Message::Assignment`](crate::wire::Message::Assignment) under the
//! `orwl-proc-assign/v2` schema (v1 also carried the node topology, for a
//! worker-side placement nothing applied).  Coordinator and worker are the
//! same binary, so parsing is exact: every key the writer emits is
//! required, and a missing one is an error, not a default.

use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::json::Json;
use orwl_obs::ObsConfig;

/// Schema identifier of the assignment document.
pub(crate) const ASSIGN_SCHEMA: &str = "orwl-proc-assign/v2";

/// Schema identifier of the re-assignment document shipped after a node
/// loss ([`Message::ReAssignment`](crate::wire::Message::ReAssignment)).
pub(crate) const REASSIGN_SCHEMA: &str = "orwl-proc-reassign/v1";

/// The observation request riding along in an assignment: the worker's
/// recorder configuration and streaming interval.  It carries no clock
/// data: a worker shares the coordinator's host and time namespace, so
/// both recorders stamp the same monotonic clock (see `orwl_obs::merge`).
/// An unobserved run's assignment carries none.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObsSpec {
    /// Recorder ring capacity (events per thread).
    pub ring_capacity: usize,
    /// Lock-wait event threshold, nanoseconds.
    pub lock_wait_threshold_ns: u64,
    /// Live-streaming interval in milliseconds: every interval the worker
    /// sends a heartbeat and a telemetry frame to the coordinator.  `0`
    /// disables streaming — the worker sends only its final frame.
    pub stream_interval_ms: u64,
}

impl ObsSpec {
    /// Builds the spec from a recorder config and the streaming interval
    /// (`0` = none).
    #[must_use]
    pub(crate) fn new(cfg: &ObsConfig, stream_interval_ms: u64) -> Self {
        ObsSpec {
            ring_capacity: cfg.ring_capacity,
            lock_wait_threshold_ns: cfg.lock_wait_threshold_ns,
            stream_interval_ms,
        }
    }

    /// The worker-side recorder configuration this spec describes.
    #[must_use]
    pub(crate) fn config(&self) -> ObsConfig {
        ObsConfig { ring_capacity: self.ring_capacity, lock_wait_threshold_ns: self.lock_wait_threshold_ns }
    }

    fn to_json(&self) -> Json {
        let mut obs = Json::obj();
        obs.push("ring_capacity", self.ring_capacity)
            .push("lock_wait_threshold_ns", self.lock_wait_threshold_ns)
            .push("stream_interval_ms", self.stream_interval_ms);
        obs
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(ObsSpec {
            ring_capacity: req_usize(doc, "ring_capacity")?,
            lock_wait_threshold_ns: req_usize(doc, "lock_wait_threshold_ns")? as u64,
            stream_interval_ms: req_usize(doc, "stream_interval_ms")? as u64,
        })
    }
}

/// One read edge of the protocol: `reader` pulls `bytes` from the
/// location owned by `src`, once per iteration of the enclosing phase.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReadEdge {
    /// Global index of the reading task.
    pub reader: usize,
    /// Global index of the task owning the location read.
    pub src: usize,
    /// Bytes transferred per iteration.
    pub bytes: f64,
}

/// One phase of the read schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PhasePlan {
    /// Iterations of this phase.
    pub iterations: usize,
    /// Every read performed per iteration, filtered to readers hosted on
    /// the receiving worker.
    pub reads: Vec<ReadEdge>,
}

/// The read schedule of a set of reader tasks, one `Vec<PhasePlan>` per
/// node: every positive off-diagonal matrix entry `m[src][dst]` of a phase
/// is one read of that many bytes by task `dst` from task `src`'s location
/// per iteration, and it lands in the plan of node `home(dst)` (`None`:
/// not a reader this schedule covers).  Reads are listed in the matrix's
/// row-major `(src, dst)` order — the ordered-pair traversal the cluster
/// simulator prices, which is what makes measured and predicted inter-node
/// bytes comparable.  The initial assignments cover every task; a recovery
/// round covers the adopted orphans.
pub(crate) fn read_plans(
    workload: &PhasedWorkload,
    n_nodes: usize,
    home: impl Fn(usize) -> Option<usize>,
) -> Vec<Vec<PhasePlan>> {
    let mut plans = vec![Vec::with_capacity(workload.phases.len()); n_nodes];
    for phase in &workload.phases {
        for plan in &mut plans {
            plan.push(PhasePlan { iterations: phase.iterations, reads: Vec::new() });
        }
        phase.graph.comm_matrix().for_each_nonzero(|src, dst, bytes| {
            if let Some(node) = home(dst).filter(|_| src != dst && bytes > 0.0) {
                let plan = plans[node].last_mut().expect("one plan per phase was just pushed");
                plan.reads.push(ReadEdge { reader: dst, src, bytes });
            }
        });
    }
    plans
}

/// The complete per-worker run description.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Assignment {
    /// This worker's node index.
    pub node: usize,
    /// Total number of nodes in the run.
    pub n_nodes: usize,
    /// Total number of tasks across all nodes.
    pub n_tasks: usize,
    /// Deadline applied to every blocking socket read, in milliseconds.
    pub io_timeout_ms: u64,
    /// Rack index of each node (fabric lane classification).
    pub rack_of_node: Vec<usize>,
    /// Node hosting each task — the placement policy's sharding.
    pub node_of_task: Vec<usize>,
    /// Filesystem path of this worker's peer listener socket.
    pub listen: String,
    /// Peer listener paths, indexed by node.
    pub peer_listen: Vec<String>,
    /// The read schedule (filtered to this worker's tasks).
    pub phases: Vec<PhasePlan>,
    /// The observation request, when the run is observed.
    pub obs: Option<ObsSpec>,
    /// Whether the coordinator may interrupt this run for node-loss
    /// recovery: the worker then executes round-by-round, watching for
    /// `Quiesce` frames between rounds, and parks instead of failing when
    /// a peer read breaks.  `false` runs straight to completion.
    pub recovery: bool,
}

impl Assignment {
    /// Global indices of the tasks this worker hosts.
    #[must_use]
    pub(crate) fn local_tasks(&self) -> Vec<usize> {
        (0..self.n_tasks).filter(|&t| self.node_of_task[t] == self.node).collect()
    }

    /// Serialises under the `orwl-proc-assign/v2` schema.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", ASSIGN_SCHEMA);
        doc.push("node", self.node);
        doc.push("n_nodes", self.n_nodes);
        doc.push("n_tasks", self.n_tasks);
        doc.push("io_timeout_ms", self.io_timeout_ms);
        doc.push("rack_of_node", usize_arr(&self.rack_of_node));
        doc.push("node_of_task", usize_arr(&self.node_of_task));
        doc.push("listen", self.listen.as_str());
        doc.push("peer_listen", Json::Arr(self.peer_listen.iter().map(|p| Json::Str(p.clone())).collect()));
        doc.push("phases", phases_json(&self.phases));
        if let Some(obs) = &self.obs {
            doc.push("obs", obs.to_json());
        }
        doc.push("recovery", self.recovery);
        doc
    }

    /// Parses and validates an assignment document.
    pub(crate) fn from_json(doc: &Json) -> Result<Self, String> {
        let schema = req_str(doc, "schema")?;
        if schema != ASSIGN_SCHEMA {
            return Err(format!("schema is {schema:?}, expected {ASSIGN_SCHEMA:?}"));
        }
        let assignment = Assignment {
            node: req_usize(doc, "node")?,
            n_nodes: req_usize(doc, "n_nodes")?,
            n_tasks: req_usize(doc, "n_tasks")?,
            io_timeout_ms: req_usize(doc, "io_timeout_ms")? as u64,
            rack_of_node: usize_vec(doc, "rack_of_node")?,
            node_of_task: usize_vec(doc, "node_of_task")?,
            listen: req_str(doc, "listen")?.to_string(),
            peer_listen: req_arr(doc, "peer_listen")?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "peer_listen entries must be strings".to_string())
                })
                .collect::<Result<_, String>>()?,
            phases: phases_from_json(doc)?,
            obs: match doc.get("obs") {
                Some(obs) => Some(ObsSpec::from_json(obs).map_err(|e| format!("obs: {e}"))?),
                None => None,
            },
            recovery: match req(doc, "recovery")? {
                Json::Bool(b) => *b,
                v => return Err(format!("field \"recovery\" must be a boolean, got {v:?}")),
            },
        };
        assignment.validate()?;
        Ok(assignment)
    }

    /// Structural consistency checks beyond field presence.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.node >= self.n_nodes {
            return Err(format!("node {} out of range for {} nodes", self.node, self.n_nodes));
        }
        if self.rack_of_node.len() != self.n_nodes {
            return Err(format!(
                "rack_of_node has {} entries for {} nodes",
                self.rack_of_node.len(),
                self.n_nodes
            ));
        }
        if self.node_of_task.len() != self.n_tasks {
            return Err(format!(
                "node_of_task has {} entries for {} tasks",
                self.node_of_task.len(),
                self.n_tasks
            ));
        }
        if self.peer_listen.len() != self.n_nodes {
            return Err(format!(
                "peer_listen has {} entries for {} nodes",
                self.peer_listen.len(),
                self.n_nodes
            ));
        }
        if let Some(&bad) = self.node_of_task.iter().find(|&&n| n >= self.n_nodes) {
            return Err(format!("node_of_task references node {bad} of {}", self.n_nodes));
        }
        for (k, phase) in self.phases.iter().enumerate() {
            for r in &phase.reads {
                if r.reader >= self.n_tasks || r.src >= self.n_tasks {
                    return Err(format!(
                        "phase {k}: read edge ({}, {}) out of range for {} tasks",
                        r.reader, r.src, self.n_tasks
                    ));
                }
                if self.node_of_task[r.reader] != self.node {
                    return Err(format!(
                        "phase {k}: read edge for task {} is not local to node {}",
                        r.reader, self.node
                    ));
                }
                if !r.bytes.is_finite() || r.bytes < 0.0 {
                    return Err(format!("phase {k}: read bytes {} are not a valid size", r.bytes));
                }
            }
        }
        Ok(())
    }
}

/// The per-survivor recovery document a coordinator ships after a node
/// loss is confirmed: the post-loss task routing, the tasks this worker
/// adopts from the dead node, and the remaining read schedule for the
/// adopted tasks.  Travels as the JSON payload of
/// [`Message::ReAssignment`](crate::wire::Message::ReAssignment) under
/// the versioned `orwl-proc-reassign/v1` schema.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReAssignment {
    /// The receiving worker's node index.
    pub node: usize,
    /// The recovery round this document answers (matches the `Quiesce`
    /// frame that opened it).
    pub round: u32,
    /// The node whose loss triggered this re-shard.
    pub dead: usize,
    /// The complete post-loss routing: node hosting each task.
    pub node_of_task: Vec<usize>,
    /// Global indices of the tasks this worker adopts from the dead node.
    pub adopted: Vec<usize>,
    /// The remaining read schedule for the adopted tasks only (survivor
    /// tasks keep the schedules they already hold).
    pub phases: Vec<PhasePlan>,
}

impl ReAssignment {
    /// Serialises under the `orwl-proc-reassign/v1` schema.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", REASSIGN_SCHEMA);
        doc.push("node", self.node);
        doc.push("round", u64::from(self.round));
        doc.push("dead", self.dead);
        doc.push("node_of_task", usize_arr(&self.node_of_task));
        doc.push("adopted", usize_arr(&self.adopted));
        doc.push("phases", phases_json(&self.phases));
        doc
    }

    /// Parses and validates a re-assignment document.
    pub(crate) fn from_json(doc: &Json) -> Result<Self, String> {
        let schema = req_str(doc, "schema")?;
        if schema != REASSIGN_SCHEMA {
            return Err(format!("schema is {schema:?}, expected {REASSIGN_SCHEMA:?}"));
        }
        let reassignment = ReAssignment {
            node: req_usize(doc, "node")?,
            round: req_usize(doc, "round")? as u32,
            dead: req_usize(doc, "dead")?,
            node_of_task: usize_vec(doc, "node_of_task")?,
            adopted: usize_vec(doc, "adopted")?,
            phases: phases_from_json(doc)?,
        };
        reassignment.validate()?;
        Ok(reassignment)
    }

    /// Structural consistency checks beyond field presence.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n_tasks = self.node_of_task.len();
        if self.node_of_task.contains(&self.dead) {
            return Err(format!("node_of_task still routes tasks to dead node {}", self.dead));
        }
        for &t in &self.adopted {
            if t >= n_tasks {
                return Err(format!("adopted task {t} out of range for {n_tasks} tasks"));
            }
            if self.node_of_task[t] != self.node {
                return Err(format!(
                    "adopted task {t} is routed to node {}, not the receiving node {}",
                    self.node_of_task[t], self.node
                ));
            }
        }
        for (k, phase) in self.phases.iter().enumerate() {
            for r in &phase.reads {
                if r.reader >= n_tasks || r.src >= n_tasks {
                    return Err(format!(
                        "phase {k}: read edge ({}, {}) out of range for {n_tasks} tasks",
                        r.reader, r.src
                    ));
                }
                if !self.adopted.contains(&r.reader) {
                    return Err(format!("phase {k}: read edge for task {} is not adopted", r.reader));
                }
                if !r.bytes.is_finite() || r.bytes < 0.0 {
                    return Err(format!("phase {k}: read bytes {} are not a valid size", r.bytes));
                }
            }
        }
        Ok(())
    }
}

fn phases_json(phases: &[PhasePlan]) -> Json {
    Json::Arr(
        phases
            .iter()
            .map(|phase| {
                let mut p = Json::obj();
                p.push("iterations", phase.iterations);
                p.push(
                    "reads",
                    Json::Arr(
                        phase
                            .reads
                            .iter()
                            .map(|r| {
                                Json::Arr(vec![Json::from(r.reader), Json::from(r.src), Json::from(r.bytes)])
                            })
                            .collect(),
                    ),
                );
                p
            })
            .collect(),
    )
}

fn phases_from_json(doc: &Json) -> Result<Vec<PhasePlan>, String> {
    req_arr(doc, "phases")?
        .iter()
        .enumerate()
        .map(|(k, phase)| {
            Ok(PhasePlan {
                iterations: req_usize(phase, "iterations").map_err(|e| format!("phase {k}: {e}"))?,
                reads: req_arr(phase, "reads")
                    .map_err(|e| format!("phase {k}: {e}"))?
                    .iter()
                    .map(|r| {
                        let triple = r.as_arr().ok_or("reads entries must be [reader, src, bytes]")?;
                        match triple {
                            [reader, src, bytes] => Ok(ReadEdge {
                                reader: reader.as_f64().ok_or("reader must be a number")? as usize,
                                src: src.as_f64().ok_or("src must be a number")? as usize,
                                bytes: bytes.as_f64().ok_or("bytes must be a number")?,
                            }),
                            _ => Err("reads entries must be [reader, src, bytes]".to_string()),
                        }
                    })
                    .collect::<Result<_, String>>()?,
            })
        })
        .collect()
}

fn usize_arr(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    req(doc, key)?.as_str().ok_or_else(|| format!("field {key:?} must be a string"))
}

fn req_usize(doc: &Json, key: &str) -> Result<usize, String> {
    let x = req(doc, key)?.as_f64().ok_or_else(|| format!("field {key:?} must be a number"))?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!("field {key:?} must be a non-negative integer, got {x}"));
    }
    Ok(x as usize)
}

fn req_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(doc, key)?.as_arr().ok_or_else(|| format!("field {key:?} must be an array"))
}

fn usize_vec(doc: &Json, key: &str) -> Result<Vec<usize>, String> {
    req_arr(doc, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as usize)
                .ok_or_else(|| format!("field {key:?} must hold non-negative integers"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Assignment {
        Assignment {
            node: 1,
            n_nodes: 2,
            n_tasks: 4,
            io_timeout_ms: 30_000,
            rack_of_node: vec![0, 0],
            node_of_task: vec![0, 0, 1, 1],
            listen: "/tmp/w1.sock".to_string(),
            peer_listen: vec!["/tmp/w0.sock".to_string(), "/tmp/w1.sock".to_string()],
            phases: vec![PhasePlan {
                iterations: 3,
                reads: vec![
                    ReadEdge { reader: 2, src: 1, bytes: 4096.0 },
                    ReadEdge { reader: 3, src: 2, bytes: 128.5 },
                ],
            }],
            obs: None,
            recovery: false,
        }
    }

    fn sample_reassign() -> ReAssignment {
        ReAssignment {
            node: 0,
            round: 1,
            dead: 1,
            node_of_task: vec![0, 0, 0, 0],
            adopted: vec![2, 3],
            phases: vec![PhasePlan {
                iterations: 2,
                reads: vec![ReadEdge { reader: 2, src: 1, bytes: 4096.0 }],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let a = sample();
        let text = a.to_json().pretty();
        let parsed = Assignment::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.local_tasks(), vec![2, 3]);
    }

    #[test]
    fn obs_spec_roundtrips_and_every_key_is_required() {
        // An unobserved assignment (no "obs") parses to None — covered by
        // json_roundtrip_is_lossless; here the observed variant does.
        let mut a = sample();
        a.obs = Some(ObsSpec::new(&ObsConfig::default(), 0));
        let parsed = Assignment::from_json(&Json::parse(&a.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed, a);
        // The round-tripped config matches what the coordinator asked for.
        assert_eq!(parsed.obs.unwrap().config(), ObsConfig::default());

        // The streaming interval rides along when requested...
        let mut live = sample();
        live.obs = Some(ObsSpec::new(&ObsConfig::default(), 250));
        let parsed = Assignment::from_json(&Json::parse(&live.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed.obs.unwrap().stream_interval_ms, 250);

        // ...and is required like every other key of the spec.
        let mut partial = a.to_json();
        if let Json::Obj(pairs) = &mut partial {
            for (k, v) in pairs.iter_mut() {
                if k == "obs" {
                    if let Json::Obj(obs_pairs) = v {
                        obs_pairs.retain(|(key, _)| key != "stream_interval_ms");
                    }
                }
            }
        }
        assert!(Assignment::from_json(&partial).unwrap_err().contains("stream_interval_ms"));

        // A malformed obs object is a loud error, not a silent None.
        let mut bad = a.to_json();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "obs" {
                    *v = Json::obj();
                }
            }
        }
        assert!(Assignment::from_json(&bad).unwrap_err().contains("obs:"));
    }

    #[test]
    fn schema_and_structure_are_enforced() {
        let mut wrong_schema = sample().to_json();
        if let Json::Obj(pairs) = &mut wrong_schema {
            pairs[0].1 = Json::Str("orwl-proc-assign/v999".to_string());
        }
        assert!(Assignment::from_json(&wrong_schema).unwrap_err().contains("schema"));
        if let Json::Obj(pairs) = &mut wrong_schema {
            pairs[0].1 = Json::Str("orwl-proc-assign/v1".to_string());
        }
        assert!(Assignment::from_json(&wrong_schema).unwrap_err().contains("schema"));

        let mut bad = sample();
        bad.node_of_task = vec![0, 0, 9, 1];
        assert!(bad.validate().unwrap_err().contains("references node 9"));

        let mut foreign = sample();
        foreign.phases[0].reads[0].reader = 0; // task 0 lives on node 0
        assert!(foreign.validate().unwrap_err().contains("not local"));

        let mut short = sample();
        short.peer_listen.pop();
        assert!(short.validate().unwrap_err().contains("peer_listen"));
    }

    #[test]
    fn recovery_flag_roundtrips_and_is_required() {
        let mut a = sample();
        a.recovery = true;
        let parsed = Assignment::from_json(&Json::parse(&a.to_json().pretty()).unwrap()).unwrap();
        assert!(parsed.recovery);

        // A document without the key is an error, not run-to-completion.
        let mut partial = sample().to_json();
        if let Json::Obj(pairs) = &mut partial {
            pairs.retain(|(k, _)| k != "recovery");
        }
        assert!(Assignment::from_json(&partial).unwrap_err().contains("missing field \"recovery\""));

        // A malformed flag is a loud error, not a silent default.
        let mut bad = sample().to_json();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "recovery" {
                    *v = Json::Str("yes".to_string());
                }
            }
        }
        assert!(Assignment::from_json(&bad).unwrap_err().contains("recovery"));
    }

    #[test]
    fn reassignment_roundtrip_is_lossless() {
        let r = sample_reassign();
        let parsed = ReAssignment::from_json(&Json::parse(&r.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn reassignment_structure_is_enforced() {
        let mut wrong_schema = sample_reassign().to_json();
        if let Json::Obj(pairs) = &mut wrong_schema {
            pairs[0].1 = Json::Str("orwl-proc-reassign/v999".to_string());
        }
        assert!(ReAssignment::from_json(&wrong_schema).unwrap_err().contains("schema"));

        // The post-loss routing must not route anything to the dead node.
        let mut stale = sample_reassign();
        stale.node_of_task[3] = 1;
        assert!(stale.validate().unwrap_err().contains("dead node"));

        // Adopted tasks must be routed to the receiving node.
        let mut foreign = sample_reassign();
        foreign.node_of_task = vec![0, 0, 2, 0];
        assert!(foreign.validate().unwrap_err().contains("not the receiving node"));

        // Read edges must belong to adopted tasks (survivor tasks keep
        // their existing schedules).
        let mut extra = sample_reassign();
        extra.phases[0].reads.push(ReadEdge { reader: 0, src: 1, bytes: 8.0 });
        assert!(extra.validate().unwrap_err().contains("not adopted"));
    }
}
