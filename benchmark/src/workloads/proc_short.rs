//! `proc_short`: the proc control plane.
//!
//! Eight consecutive sessions of the first row of `BENCH_proc_corr.json`
//! (dense stencil, 36 tasks, 2 iterations, 2 nodes, hierarchical): same
//! backend as `proc_stream`, opposite split — ~60 % of a session is spawn
//! → Ready and Done → Metrics drain, so a data-plane gain predicts no
//! change here and a spawn or telemetry-upload change shows here only.

use super::proc_session::{self, session_outcome, spec_bytes, verify_session};
use super::{Checks, Outcome, Workload};
use crate::span::Tracer;
use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_treematch::policies::Policy;

pub const TASKS: usize = 36;
pub const ITERATIONS: usize = 2;
pub const SESSIONS: f64 = 8.0;
/// Remote reads of one session (the hierarchical cut of the 6×6 stencil).
pub const REMOTE_READS: f64 = 64.0;
const POLICY: Policy = Policy::Hierarchical;

pub struct ProcShort {
    spec: ScenarioSpec,
}

impl ProcShort {
    pub fn new(seed: u64) -> Self {
        ProcShort {
            spec: ScenarioSpec::new(ScenarioFamily::DenseStencil, TASKS, seed).with_phases(vec![ITERATIONS]),
        }
    }
}

impl Workload for ProcShort {
    fn repeat(&mut self, tracer: &mut Tracer, observe: bool) -> Result<Outcome, String> {
        let mut runs = Vec::with_capacity(SESSIONS as usize);
        for _ in 0..SESSIONS as usize {
            runs.push(proc_session::run(&self.spec, POLICY, tracer, observe)?);
        }
        let first = runs[0].inter_node_bytes();
        if let Some(other) = runs.iter().map(|r| r.inter_node_bytes()).find(|&b| b != first) {
            return Err(format!("proc_short: sessions of one repeat moved {first} and {other} bytes"));
        }
        tracer.count("proc.inter_node_bytes", first);
        Ok(session_outcome(&mut runs, REMOTE_READS))
    }

    fn verify(&mut self, latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        let mut metrics = verify_session("proc_short", &self.spec, POLICY, latest, REMOTE_READS, checks);
        // The paper's claim on this input: the topology-aware policy moves
        // fewer bytes between nodes than the Scatter baseline.
        let scatter = proc_session::predicted_inter_node_bytes(&self.spec, Policy::Scatter);
        let measured = latest.exact("proc.inter_node_bytes").unwrap_or(f64::NAN);
        checks.check(scatter.as_ref().is_ok_and(|&s| measured <= s), || {
            format!("proc_short: hierarchical moved {measured} bytes, Scatter would move {scatter:?}")
        });
        metrics.push(("locality.ratio_vs_scatter", measured / scatter.unwrap_or(f64::NAN)));
        metrics
    }

    fn input_bytes(&self) -> Vec<u8> {
        spec_bytes(&self.spec)
    }
}
