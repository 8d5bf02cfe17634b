//! The transport-accounting document each worker reports back.
//!
//! After the coordinator broadcasts shutdown, a worker folds every
//! counter it kept — grant payload bytes split by fabric lane, raw frame
//! and byte tallies of all its sockets, and the request→grant lock-wait
//! distribution — into one `orwl-proc-metrics/v1` document and sends it
//! as [`Message::Metrics`](crate::wire::Message::Metrics).  The
//! coordinator's *measured* inter-node traffic is the sum of the
//! reader-side payload tallies, which is what the sim-vs-real correlation
//! artifact pins against the cluster simulator's prediction.

use orwl_obs::json::Json;

/// Schema identifier of the worker metrics document.
pub(crate) const METRICS_SCHEMA: &str = "orwl-proc-metrics/v1";

/// Cap on the lock-wait samples shipped verbatim (the full distribution
/// stays summarised by `count` / `total_ns`).
pub(crate) const MAX_WAIT_SAMPLES: usize = 64;

/// One worker's transport and lock-wait accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct WorkerMetrics {
    /// The reporting worker's node index.
    pub node: usize,
    /// Wall-clock seconds the worker spent between start and done.
    pub wall_seconds: f64,
    /// Grant payload bytes this worker *received* from same-rack peers.
    pub same_rack_payload_bytes: u64,
    /// Grant payload bytes this worker *received* from cross-rack peers.
    pub cross_rack_payload_bytes: u64,
    /// Frames written on all of this worker's sockets.
    pub frames_sent: u64,
    /// Frames decoded on all of this worker's sockets.
    pub frames_received: u64,
    /// Raw bytes written (headers included).
    pub bytes_sent: u64,
    /// Raw bytes read (headers included).
    pub bytes_received: u64,
    /// Remote read sections this worker completed as the reader.
    pub remote_reads: u64,
    /// Remote lock grants whose wait was measured (request → grant).
    pub lock_wait_count: u64,
    /// Total nanoseconds spent waiting for remote grants.
    pub lock_wait_total_ns: u64,
    /// Up to [`MAX_WAIT_SAMPLES`] individual waits as `(location, ns)`.
    pub lock_wait_samples: Vec<(u64, u64)>,
}

impl WorkerMetrics {
    /// Serialises under the `orwl-proc-metrics/v1` schema.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", METRICS_SCHEMA);
        doc.push("node", self.node);
        doc.push("wall_seconds", self.wall_seconds);
        let mut payload = Json::obj();
        payload.push("same_rack", self.same_rack_payload_bytes);
        payload.push("cross_rack", self.cross_rack_payload_bytes);
        doc.push("payload_bytes", payload);
        doc.push("frames_sent", self.frames_sent);
        doc.push("frames_received", self.frames_received);
        doc.push("bytes_sent", self.bytes_sent);
        doc.push("bytes_received", self.bytes_received);
        doc.push("remote_reads", self.remote_reads);
        let mut wait = Json::obj();
        wait.push("count", self.lock_wait_count);
        wait.push("total_ns", self.lock_wait_total_ns);
        wait.push(
            "samples",
            Json::Arr(
                self.lock_wait_samples
                    .iter()
                    .map(|&(loc, ns)| Json::Arr(vec![Json::from(loc), Json::from(ns)]))
                    .collect(),
            ),
        );
        doc.push("lock_wait", wait);
        doc
    }

    /// Parses a worker metrics document.
    pub(crate) fn from_json(doc: &Json) -> Result<Self, String> {
        let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing schema field")?;
        if schema != METRICS_SCHEMA {
            return Err(format!("schema is {schema:?}, expected {METRICS_SCHEMA:?}"));
        }
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let payload = doc.get("payload_bytes").ok_or("missing payload_bytes")?;
        let lane = |key: &str| -> Result<u64, String> {
            payload
                .get(key)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("missing payload_bytes.{key}"))
        };
        let wait = doc.get("lock_wait").ok_or("missing lock_wait")?;
        let wait_num = |key: &str| -> Result<u64, String> {
            wait.get(key)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("missing lock_wait.{key}"))
        };
        let samples = wait
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("missing lock_wait.samples")?
            .iter()
            .map(|s| {
                let pair = s.as_arr().filter(|p| p.len() == 2).ok_or("samples must be [location, ns]")?;
                Ok((
                    pair[0].as_f64().ok_or("sample location must be a number")? as u64,
                    pair[1].as_f64().ok_or("sample ns must be a number")? as u64,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkerMetrics {
            node: num("node")? as usize,
            wall_seconds: num("wall_seconds")?,
            same_rack_payload_bytes: lane("same_rack")?,
            cross_rack_payload_bytes: lane("cross_rack")?,
            frames_sent: num("frames_sent")? as u64,
            frames_received: num("frames_received")? as u64,
            bytes_sent: num("bytes_sent")? as u64,
            bytes_received: num("bytes_received")? as u64,
            remote_reads: num("remote_reads")? as u64,
            lock_wait_count: wait_num("count")?,
            lock_wait_total_ns: wait_num("total_ns")?,
            lock_wait_samples: samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_is_lossless() {
        let m = WorkerMetrics {
            node: 3,
            wall_seconds: 0.125,
            same_rack_payload_bytes: 1 << 20,
            cross_rack_payload_bytes: 4096,
            frames_sent: 17,
            frames_received: 19,
            bytes_sent: 90_000,
            bytes_received: 120_000,
            remote_reads: 8,
            lock_wait_count: 8,
            lock_wait_total_ns: 1_500_000,
            lock_wait_samples: vec![(2, 100_000), (5, 200_000)],
        };
        let text = m.to_json().pretty();
        let parsed = WorkerMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut doc = WorkerMetrics::default().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::Str("something-else".to_string());
        }
        assert!(WorkerMetrics::from_json(&doc).unwrap_err().contains("schema"));
    }
}
