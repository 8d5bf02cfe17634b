//! Placement results: which PU every compute and control thread should be
//! bound to.

use orwl_topo::bitmap::CpuSet;
use orwl_topo::topology::Topology;
use std::fmt;

/// The outcome of a placement computation.
///
/// `compute[t]` is the OS index of the PU that compute thread `t` should be
/// bound to, or `None` when the policy leaves the thread to the OS scheduler
/// (the paper's "NoBind" situation, or an unmappable control thread).
/// `control[k]` is the same for the runtime's control threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Binding of each compute thread.
    pub compute: Vec<Option<usize>>,
    /// Binding of each control thread.
    pub control: Vec<Option<usize>>,
}

impl Placement {
    /// A placement that binds nothing (the "NoBind"/OS-scheduled baseline).
    pub fn unbound(n_compute: usize, n_control: usize) -> Self {
        Placement { compute: vec![None; n_compute], control: vec![None; n_control] }
    }

    /// Number of compute threads covered.
    pub fn n_compute(&self) -> usize {
        self.compute.len()
    }

    /// Number of control threads covered.
    pub fn n_control(&self) -> usize {
        self.control.len()
    }

    /// Returns the compute mapping as a dense `Vec<usize>`, substituting
    /// `fallback(t)` for unbound threads.  Locality metrics need a concrete
    /// PU for every thread; for unbound threads the conventional stand-in is
    /// a round-robin guess of where the OS might run them.
    pub fn compute_mapping_with<F: Fn(usize) -> usize>(&self, fallback: F) -> Vec<usize> {
        self.compute.iter().enumerate().map(|(t, pu)| pu.unwrap_or_else(|| fallback(t))).collect()
    }

    /// Dense compute mapping where unbound threads default to PU 0.
    pub fn compute_mapping_or_zero(&self) -> Vec<usize> {
        self.compute_mapping_with(|_| 0)
    }

    /// Fraction of compute threads that received a concrete binding.
    pub fn bound_fraction(&self) -> f64 {
        if self.compute.is_empty() {
            return 1.0;
        }
        self.compute.iter().filter(|p| p.is_some()).count() as f64 / self.compute.len() as f64
    }

    /// Number of distinct PUs the bound compute threads use.
    pub fn pus_used(&self) -> usize {
        let mut pus: Vec<usize> = self.compute.iter().flatten().copied().collect();
        pus.sort_unstable();
        pus.dedup();
        pus.len()
    }

    /// True when no two *bound* compute threads share a PU.
    #[cfg(test)]
    pub(crate) fn is_injective(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        for pu in self.compute.iter().flatten() {
            if !seen.insert(*pu) {
                return false;
            }
        }
        true
    }

    /// Converts the compute bindings into singleton cpusets usable with a
    /// [`Binder`](orwl_topo::binding::Binder).  Unbound threads get `None`.
    pub fn compute_cpusets(&self) -> Vec<Option<CpuSet>> {
        self.compute.iter().map(|pu| pu.map(CpuSet::singleton)).collect()
    }

    /// Converts the control bindings into singleton cpusets.
    pub fn control_cpusets(&self) -> Vec<Option<CpuSet>> {
        self.control.iter().map(|pu| pu.map(CpuSet::singleton)).collect()
    }

    /// Checks that every bound PU exists in `topo`; returns the offending
    /// thread index on failure.
    pub fn validate_against(&self, topo: &Topology) -> Result<(), usize> {
        for (t, pu) in self.compute.iter().enumerate() {
            if let Some(p) = pu {
                if topo.pu_by_os_index(*p).is_none() {
                    return Err(t);
                }
            }
        }
        for (k, pu) in self.control.iter().enumerate() {
            if let Some(p) = pu {
                if topo.pu_by_os_index(*p).is_none() {
                    return Err(self.compute.len() + k);
                }
            }
        }
        Ok(())
    }

    /// Number of distinct NUMA nodes (or packages when the topology has no
    /// NUMA level) used by the bound compute threads.
    pub fn numa_nodes_used(&self, topo: &Topology) -> usize {
        use orwl_topo::object::ObjectType;
        let nodes = {
            let numa = topo.objects_of_type(ObjectType::NumaNode);
            if numa.is_empty() {
                topo.objects_of_type(ObjectType::Package)
            } else {
                numa
            }
        };
        if nodes.is_empty() {
            return if self.compute.iter().any(Option::is_some) { 1 } else { 0 };
        }
        let mut used = std::collections::HashSet::new();
        for pu in self.compute.iter().flatten() {
            for (i, node) in nodes.iter().enumerate() {
                if node.cpuset.is_set(*pu) {
                    used.insert(i);
                }
            }
        }
        used.len()
    }
}

impl fmt::Display for Placement {
    /// One line per thread: `compute[3] -> PU 17` / `control[0] -> (os)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, pu) in self.compute.iter().enumerate() {
            match pu {
                Some(p) => writeln!(f, "compute[{t}] -> PU {p}")?,
                None => writeln!(f, "compute[{t}] -> (os)")?,
            }
        }
        for (k, pu) in self.control.iter().enumerate() {
            match pu {
                Some(p) => writeln!(f, "control[{k}] -> PU {p}")?,
                None => writeln!(f, "control[{k}] -> (os)")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_topo::synthetic;

    #[test]
    fn unbound_placement_has_no_bindings() {
        let p = Placement::unbound(4, 2);
        assert_eq!(p.n_compute(), 4);
        assert_eq!(p.n_control(), 2);
        assert_eq!(p.bound_fraction(), 0.0);
        assert!(p.is_injective());
        assert_eq!(p.compute_mapping_or_zero(), vec![0, 0, 0, 0]);
        assert_eq!(p.compute_cpusets(), vec![None, None, None, None]);
    }

    #[test]
    fn mapping_with_fallback() {
        let p = Placement { compute: vec![Some(3), None, Some(5)], control: vec![] };
        assert_eq!(p.compute_mapping_with(|t| t + 100), vec![3, 101, 5]);
        assert!((p.bound_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn injectivity_detects_shared_pu() {
        let ok = Placement { compute: vec![Some(0), Some(1), None, None], control: vec![] };
        assert!(ok.is_injective());
        let bad = Placement { compute: vec![Some(0), Some(0)], control: vec![] };
        assert!(!bad.is_injective());
    }

    #[test]
    fn pus_used_counts_distinct_bound_pus() {
        let p = Placement { compute: vec![Some(4), None, Some(1), Some(4)], control: vec![Some(7)] };
        assert_eq!(p.pus_used(), 2, "unbound compute threads and control threads do not count");
        assert_eq!(Placement::unbound(3, 1).pus_used(), 0);
    }

    #[test]
    fn validate_against_topology() {
        let topo = synthetic::laptop(); // 8 PUs
        let ok = Placement { compute: vec![Some(0), Some(7)], control: vec![Some(3)] };
        assert!(ok.validate_against(&topo).is_ok());
        let bad = Placement { compute: vec![Some(0), Some(64)], control: vec![] };
        assert_eq!(bad.validate_against(&topo), Err(1));
        let bad_ctl = Placement { compute: vec![Some(0)], control: vec![Some(99)] };
        assert_eq!(bad_ctl.validate_against(&topo), Err(1));
    }

    #[test]
    fn numa_nodes_used_counts_distinct_sockets() {
        let topo = synthetic::cluster2016_subset(4).unwrap(); // 4 sockets × 8 cores
        let one_socket = Placement { compute: (0..8).map(Some).collect(), control: vec![] };
        assert_eq!(one_socket.numa_nodes_used(&topo), 1);
        let two_sockets = Placement { compute: vec![Some(0), Some(9)], control: vec![] };
        assert_eq!(two_sockets.numa_nodes_used(&topo), 2);
        let unbound = Placement::unbound(8, 0);
        assert_eq!(unbound.numa_nodes_used(&topo), 0);
    }

    #[test]
    fn display_mentions_os_and_pu() {
        let p = Placement { compute: vec![Some(1), None], control: vec![Some(2)] };
        let text = format!("{p}");
        assert!(text.contains("compute[0] -> PU 1"));
        assert!(text.contains("compute[1] -> (os)"));
        assert!(text.contains("control[0] -> PU 2"));
    }

    #[test]
    fn cpusets_are_singletons() {
        let p = Placement { compute: vec![Some(4)], control: vec![Some(6), None] };
        assert_eq!(p.compute_cpusets()[0], Some(CpuSet::singleton(4)));
        assert_eq!(p.control_cpusets(), vec![Some(CpuSet::singleton(6)), None]);
    }
}
