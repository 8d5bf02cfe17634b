//! JSON support for the `Session` API's report types.
//!
//! The value tree, writer, parser and [`ToJson`] trait themselves live in
//! the dependency-free `orwl-obs` leaf crate (see `orwl_obs::json`) so the
//! observability exporters and the lab share one deterministic
//! implementation; this module re-exports them under the historical
//! `orwl_core::json` path and implements [`ToJson`] for the core report
//! types ([`Report`], [`AdaptReport`], [`ClusterTraffic`], [`RunTime`]), so
//! any backend's result can be logged as one JSON object.  (The
//! `TrafficBreakdown` impl lives next to its type in `orwl-comm`; the
//! orphan rule keeps it out of this crate.)

pub use orwl_obs::json::{Json, ToJson};

use crate::runtime::AdaptReport;
use crate::session::{ClusterTraffic, Report, RunTime, ThreadDetails};

impl ToJson for AdaptReport {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("epochs", self.epochs)
            .push("replacements", self.replacements)
            .push("rebinds_applied", self.rebinds_applied)
            .push("node_reshards", self.node_reshards)
            .push("drift_deltas", Json::Arr(self.drift_deltas.iter().map(|&d| Json::Num(d)).collect()));
        o
    }
}

impl ToJson for ClusterTraffic {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("n_nodes", self.n_nodes)
            .push("intra_node_hop_bytes", self.intra_node_hop_bytes)
            .push("inter_node_hop_bytes", self.inter_node_hop_bytes)
            .push("inter_node_bytes", self.inter_node_bytes)
            .push("inter_node_fraction", self.inter_node_fraction());
        o
    }
}

impl ToJson for RunTime {
    /// `{"kind": "wall"|"simulated", "seconds": …}` — note that wall
    /// seconds are inherently non-reproducible; deterministic artifacts
    /// (the lab reporter) null them out instead of embedding this value.
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        match self {
            RunTime::Wall(d) => o.push("kind", "wall").push("seconds", d.as_secs_f64()),
            RunTime::Simulated(s) => o.push("kind", "simulated").push("seconds", *s),
        };
        o
    }
}

impl ToJson for ThreadDetails {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("tasks_finished", self.stats.tasks_finished)
            .push("max_task_seconds", self.max_task_time().as_secs_f64());
        o
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("backend", self.backend.as_str())
            .push("mode", self.mode)
            .push("policy", self.plan.policy.name())
            .push("time", self.time.to_json())
            .push("hop_bytes", self.hop_bytes)
            .push("breakdown", self.breakdown.to_json())
            .push("adapt", self.adapt.as_ref().map(ToJson::to_json))
            .push("thread", self.thread.as_ref().map(ToJson::to_json))
            .push("fabric", self.fabric.as_ref().map(ToJson::to_json))
            .push("obs", self.obs.as_ref().map(ToJson::to_json));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::metrics::TrafficBreakdown;

    #[test]
    fn breakdown_and_adapt_reports_serialise_with_stable_keys() {
        let b = TrafficBreakdown {
            same_pu: 1.0,
            same_core: 2.0,
            shared_cache: 3.0,
            same_numa: 4.0,
            cross_numa: 5.0,
            cross_node: 0.0,
        };
        let j = b.to_json();
        assert_eq!(j.get("cross_numa").unwrap().as_f64().unwrap(), 5.0);
        assert!((j.get("local_fraction").unwrap().as_f64().unwrap() - 10.0 / 15.0).abs() < 1e-12);

        let a = AdaptReport {
            epochs: 10,
            replacements: 2,
            rebinds_applied: 0,
            node_reshards: 1,
            drift_deltas: vec![0.1, 0.4],
        };
        let j = a.to_json();
        assert_eq!(j.get("epochs").unwrap().as_f64().unwrap(), 10.0);
        assert_eq!(j.get("drift_deltas").unwrap().as_arr().unwrap().len(), 2);
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn runtime_and_cluster_traffic_serialise() {
        let w = RunTime::Wall(std::time::Duration::from_millis(1500));
        assert_eq!(w.to_json().get("kind").unwrap().as_str().unwrap(), "wall");
        let s = RunTime::Simulated(0.5);
        assert_eq!(s.to_json().get("seconds").unwrap().as_f64().unwrap(), 0.5);
        let t = ClusterTraffic {
            n_nodes: 4,
            intra_node_hop_bytes: 30.0,
            inter_node_hop_bytes: 10.0,
            inter_node_bytes: 5.0,
        };
        let j = t.to_json();
        assert_eq!(j.get("n_nodes").unwrap().as_f64().unwrap(), 4.0);
        assert!((j.get("inter_node_fraction").unwrap().as_f64().unwrap() - 0.25).abs() < 1e-12);
    }
}
