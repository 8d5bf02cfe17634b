//! A timeline check the proc suites share.

use orwl_obs::{EventKind, RunTelemetry};
use std::collections::HashMap;

/// Asserts that a merged proc timeline shows every remote section in the
/// order the lock protocol fixes — request ≤ grant ≤ release for each
/// `rseq` — and returns how many sections it saw with both a request and
/// a grant.
///
/// Workers share the coordinator's host and time namespace, so the merge
/// only shifts each process's events by its recorder's origin: this checks
/// the clock, not a repair.  A section may lack a stage (a node lost
/// mid-run takes its unsent events with it); the stages present must still
/// be in order.
pub fn assert_sections_in_protocol_order(obs: &RunTelemetry) -> usize {
    let mut stages: HashMap<u64, [Option<f64>; 3]> = HashMap::new();
    for e in &obs.events {
        let (rseq, stage) = match e.kind {
            EventKind::LockRequest { rseq, .. } => (rseq, 0),
            EventKind::LockGrant { rseq, .. } => (rseq, 1),
            EventKind::LockRelease { rseq, .. } => (rseq, 2),
            _ => continue,
        };
        let slot = &mut stages.entry(rseq).or_default()[stage];
        assert!(slot.is_none(), "rseq {rseq:#x}: stage {stage} recorded twice");
        *slot = Some(e.ts_us);
    }
    let mut sections = 0;
    for (rseq, [request, grant, release]) in &stages {
        let present: Vec<f64> = [request, grant, release].into_iter().filter_map(|t| *t).collect();
        assert!(
            present.windows(2).all(|w| w[0] <= w[1]),
            "rseq {rseq:#x} out of protocol order: request {request:?}, grant {grant:?}, release {release:?}"
        );
        sections += usize::from(request.is_some() && grant.is_some());
    }
    sections
}
