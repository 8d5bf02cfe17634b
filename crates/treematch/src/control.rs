//! The `extend_to_manage_control_threads` step of Algorithm 1.
//!
//! Besides the computation threads, the ORWL runtime runs *control threads*
//! (event management, request forwarding).  The paper's placement add-on
//! accounts for them in three ways, depending on the hardware:
//!
//! 1. **Hyperthread reserve** — when the machine has SMT, one hardware
//!    thread per physical core is reserved for control and the other for
//!    computation;
//! 2. **Spare cores** — when there are more cores than computation threads,
//!    the communication matrix is extended with one column/row per control
//!    thread so they are mapped onto the spare cores near the computation
//!    threads they serve;
//! 3. **Unmapped** — otherwise control threads are left to the OS scheduler.

use orwl_comm::matrix::CommMatrix;
use orwl_topo::topology::Topology;

/// Description of the runtime's control threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlThreadSpec {
    /// Number of control threads the runtime will start.
    pub count: usize,
    /// Affinity weight between a control thread and each compute thread it
    /// serves, expressed as a fraction of that compute thread's own traffic.
    /// The default (0.1) makes control threads gravitate towards their
    /// compute threads without displacing compute-compute affinity.
    pub affinity_fraction: f64,
}

impl Default for ControlThreadSpec {
    fn default() -> Self {
        ControlThreadSpec { count: 1, affinity_fraction: 0.1 }
    }
}

impl ControlThreadSpec {
    /// A spec with `count` control threads and the default affinity.
    pub fn with_count(count: usize) -> Self {
        ControlThreadSpec { count, ..Default::default() }
    }

    /// Compute threads served by control thread `k` when there are
    /// `n_compute` compute threads: a round-robin assignment, matching how
    /// the ORWL runtime shards its event loops.
    pub(crate) fn served_by(&self, k: usize, n_compute: usize) -> Vec<usize> {
        if self.count == 0 {
            return Vec::new();
        }
        (0..n_compute).filter(|t| t % self.count == k).collect()
    }
}

/// How the control threads will be handled by the mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPlacementMode {
    /// One hyperthread per core is reserved for control threads.
    HyperthreadReserve,
    /// Control threads are added to the communication matrix and mapped onto
    /// spare cores.
    SpareCores,
    /// Control threads are left to the OS scheduler.
    Unmapped,
}

/// Chooses the control-thread handling exactly as described in §II of the
/// paper: prefer reserving a hyperthread per core, then spare cores, then
/// give up and let the OS schedule them.
pub fn decide_control_mode(topo: &Topology, n_compute: usize, n_control: usize) -> ControlPlacementMode {
    if n_control == 0 {
        return ControlPlacementMode::Unmapped;
    }
    if topo.has_hyperthreading() && n_compute <= topo.nb_cores() {
        return ControlPlacementMode::HyperthreadReserve;
    }
    let spare = topo.nb_pus().saturating_sub(n_compute);
    if spare >= n_control {
        return ControlPlacementMode::SpareCores;
    }
    ControlPlacementMode::Unmapped
}

/// Extends the compute-thread communication matrix with `spec.count` extra
/// rows/columns representing the control threads (the paper's step 1).
///
/// Control thread `k` (matrix index `n_compute + k`) gets an affinity edge
/// with every compute thread it serves, weighted by `affinity_fraction` of
/// that thread's total traffic, in both directions.  Control threads do not
/// talk to each other.
pub(crate) fn extend_for_control(m: &CommMatrix, spec: &ControlThreadSpec) -> CommMatrix {
    let n = m.order();
    if spec.count == 0 {
        return m.clone();
    }
    let mut ext = m.extended(n + spec.count);
    for k in 0..spec.count {
        let ctl = n + k;
        for t in spec.served_by(k, n) {
            let w = spec.affinity_fraction * m.traffic_of(t) / 2.0;
            ext.add(t, ctl, w);
            ext.add(ctl, t, w);
        }
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::patterns;
    use orwl_topo::synthetic;

    #[test]
    fn served_by_round_robin() {
        let spec = ControlThreadSpec::with_count(2);
        assert_eq!(spec.served_by(0, 5), vec![0, 2, 4]);
        assert_eq!(spec.served_by(1, 5), vec![1, 3]);
        assert_eq!(ControlThreadSpec::with_count(0).served_by(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn mode_prefers_hyperthread_reserve() {
        let smt = synthetic::dual_socket_smt(); // 32 cores, 64 PUs
        assert_eq!(decide_control_mode(&smt, 32, 4), ControlPlacementMode::HyperthreadReserve);
        assert_eq!(decide_control_mode(&smt, 16, 1), ControlPlacementMode::HyperthreadReserve);
    }

    #[test]
    fn mode_falls_back_to_spare_cores_without_smt() {
        let smp = synthetic::cluster2016_subset(2).unwrap(); // 16 cores, no SMT
        assert_eq!(decide_control_mode(&smp, 8, 4), ControlPlacementMode::SpareCores);
        // Exactly enough spare cores.
        assert_eq!(decide_control_mode(&smp, 12, 4), ControlPlacementMode::SpareCores);
    }

    #[test]
    fn mode_unmapped_when_no_room() {
        let smp = synthetic::cluster2016_subset(1).unwrap(); // 8 cores
        assert_eq!(decide_control_mode(&smp, 8, 1), ControlPlacementMode::Unmapped);
        assert_eq!(decide_control_mode(&smp, 7, 2), ControlPlacementMode::Unmapped);
        // No control threads at all → nothing to place.
        assert_eq!(decide_control_mode(&smp, 4, 0), ControlPlacementMode::Unmapped);
    }

    #[test]
    fn smt_machine_with_too_many_compute_threads_uses_spare_pus() {
        let smt = synthetic::dual_socket_smt(); // 32 cores, 64 PUs
                                                // More compute threads than cores: cannot reserve a hyperthread per
                                                // core, but there are still spare PUs.
        assert_eq!(decide_control_mode(&smt, 40, 8), ControlPlacementMode::SpareCores);
        assert_eq!(decide_control_mode(&smt, 63, 2), ControlPlacementMode::Unmapped);
    }

    #[test]
    fn extend_adds_weighted_edges() {
        let m = patterns::chain(4, 10.0);
        let spec = ControlThreadSpec { count: 2, affinity_fraction: 0.5 };
        let ext = extend_for_control(&m, &spec);
        assert_eq!(ext.order(), 6);
        // Original entries preserved.
        assert_eq!(ext.get(0, 1), 10.0);
        // Control thread 0 serves compute 0 and 2.
        assert!(ext.get(0, 4) > 0.0);
        assert!(ext.get(2, 4) > 0.0);
        assert_eq!(ext.get(1, 4), 0.0);
        // Control thread 1 serves compute 1 and 3.
        assert!(ext.get(1, 5) > 0.0);
        // Control threads do not talk to each other.
        assert_eq!(ext.get(4, 5), 0.0);
        // Edge weight is affinity_fraction × traffic/2: thread 0 has total
        // traffic 20 (10 out + 10 in), so the edge is 0.5 × 10 = 5.
        assert_eq!(ext.get(0, 4), 5.0);
        // Extension is symmetric for the new edges.
        assert_eq!(ext.get(4, 0), ext.get(0, 4));
    }

    #[test]
    fn extend_with_zero_control_threads_is_identity() {
        let m = patterns::ring(4, 3.0);
        let ext = extend_for_control(&m, &ControlThreadSpec { count: 0, affinity_fraction: 0.1 });
        assert_eq!(ext, m);
    }

    #[test]
    fn extended_matrix_groups_control_near_served_threads() {
        // Sanity: when grouping the extended matrix, a control thread should
        // land with the compute threads it serves rather than with strangers.
        let m = patterns::clustered(2, 3, 100.0, 1.0); // 6 compute threads
        let spec = ControlThreadSpec { count: 2, affinity_fraction: 0.3 };
        let ext = extend_for_control(&m, &spec);
        let groups = crate::grouping::group_processes(&ext, 4);
        // Control thread 6 serves 0,2,4; control thread 7 serves 1,3,5.
        // With clusters {0,1,2} and {3,4,5}, each control thread has served
        // members in both clusters, so we only check that each control
        // thread shares a group with at least one thread it serves.
        for (ctl, served) in [(6usize, vec![0usize, 2, 4]), (7, vec![1, 3, 5])] {
            let g = groups.iter().find(|g| g.contains(&ctl)).unwrap();
            assert!(
                served.iter().any(|t| g.contains(t)),
                "control {ctl} grouped away from every served thread: {groups:?}"
            );
        }
    }
}
