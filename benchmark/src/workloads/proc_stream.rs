//! `proc_stream`: the proc data plane.
//!
//! A 4×4 dense stencil scattered over two worker processes for 600
//! iterations: 12 000 remote reads, each a request → grant(payload) →
//! release exchange over a Unix socket, moving 321 945 600 payload bytes.
//! Spawn, rendezvous and drain are ~5 % of the run, placement is noise.

use super::proc_session::{self, session_outcome, spec_bytes, verify_session};
use super::{Checks, Outcome, Workload};
use crate::span::Tracer;
use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_treematch::policies::Policy;

pub const TASKS: usize = 16;
pub const ITERATIONS: usize = 600;
pub const REMOTE_READS: f64 = 12_000.0;
const POLICY: Policy = Policy::Scatter;

pub struct ProcStream {
    spec: ScenarioSpec,
}

impl ProcStream {
    pub fn new(seed: u64) -> Self {
        ProcStream {
            spec: ScenarioSpec::new(ScenarioFamily::DenseStencil, TASKS, seed).with_phases(vec![ITERATIONS]),
        }
    }
}

impl Workload for ProcStream {
    fn repeat(&mut self, tracer: &mut Tracer, observe: bool) -> Result<Outcome, String> {
        let run = proc_session::run(&self.spec, POLICY, tracer, observe)?;
        tracer.count("proc.remote_reads", REMOTE_READS);
        tracer.count("proc.inter_node_bytes", run.inter_node_bytes());
        Ok(session_outcome(&mut [run], REMOTE_READS))
    }

    fn verify(&mut self, latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        verify_session("proc_stream", &self.spec, POLICY, latest, REMOTE_READS, checks)
    }

    fn input_bytes(&self) -> Vec<u8> {
        spec_bytes(&self.spec)
    }
}
