//! Distance matrices between processing units.
//!
//! HWLOC exposes optional "distances" objects (usually the ACPI SLIT NUMA
//! latency table).  Here distances are derived from the topology tree: the
//! relative cost of a memory transfer between two PUs depends on the deepest
//! level they share (same core < shared cache < same NUMA node < remote
//! NUMA node).  The simulator and the locality metrics both consume this.

use crate::object::ObjectType;
use crate::topology::Topology;

/// Relative access cost per shared level, from the point of view of a PU
/// reading data produced by another PU.
///
/// The values are unit-less multipliers relative to a same-core transfer
/// (`1.0`); the defaults follow the usual order-of-magnitude ratios of a
/// multi-socket NUMA machine (L2 ≈ 10 cycles, L3 ≈ 40 cycles, local DRAM
/// ≈ 100 ns, remote DRAM ≈ 2–3× local).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCosts {
    /// Both PUs are hardware threads of the same core (shared L1/L2).
    pub same_core: f64,
    /// Same L2 cache (when L2 is shared between cores).
    pub shared_l2: f64,
    /// Same L3 cache / same die.
    pub shared_l3: f64,
    /// Same NUMA node or package but no shared cache level modelled.
    pub same_numa: f64,
    /// Different NUMA node on the same machine.
    pub remote_numa: f64,
}

impl Default for LevelCosts {
    fn default() -> Self {
        LevelCosts { same_core: 1.0, shared_l2: 2.0, shared_l3: 5.0, same_numa: 12.0, remote_numa: 30.0 }
    }
}

impl LevelCosts {
    /// Cost multiplier for a transfer whose deepest shared object has the
    /// given type.  `None` means the PUs only share the machine root.
    pub(crate) fn for_shared_type(&self, ty: Option<ObjectType>) -> f64 {
        match ty {
            Some(ObjectType::Core) | Some(ObjectType::PU) => self.same_core,
            Some(ObjectType::L1Cache) | Some(ObjectType::L2Cache) => self.shared_l2,
            Some(ObjectType::L3Cache) => self.shared_l3,
            Some(ObjectType::NumaNode) | Some(ObjectType::Package) | Some(ObjectType::Group) => {
                self.same_numa
            }
            Some(ObjectType::Machine) | None => self.remote_numa,
        }
    }
}

/// A dense PU × PU relative-cost matrix, indexed by PU OS index.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    values: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the matrix from a topology and per-level costs.  The diagonal
    /// is zero (no transfer needed).
    pub fn from_topology(topo: &Topology, costs: &LevelCosts) -> Self {
        let pus = topo.pu_os_indices();
        let max_os = pus.iter().copied().max().unwrap_or(0) + 1;
        let mut values = vec![0.0; max_os * max_os];
        for &a in &pus {
            for &b in &pus {
                if a == b {
                    continue;
                }
                let shared_depth = topo.shared_level_of_pus(a, b);
                // Identify the type of the object at the shared depth.
                let ty = topo.objects_at_depth(shared_depth).next().map(|o| o.obj_type);
                values[a * max_os + b] = costs.for_shared_type(ty);
            }
        }
        DistanceMatrix { n: max_os, values }
    }

    /// Relative cost of a transfer from PU `a` to PU `b`.
    pub fn cost(&self, a: usize, b: usize) -> f64 {
        if a >= self.n || b >= self.n {
            return 0.0;
        }
        self.values[a * self.n + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    #[test]
    fn level_costs_order_is_monotone() {
        let c = LevelCosts::default();
        assert!(c.same_core < c.shared_l2);
        assert!(c.shared_l2 < c.shared_l3);
        assert!(c.shared_l3 < c.same_numa);
        assert!(c.same_numa < c.remote_numa);
    }

    #[test]
    fn matrix_for_paper_machine() {
        let topo = synthetic::cluster2016_smp192();
        let m = DistanceMatrix::from_topology(&topo, &LevelCosts::default());
        // Diagonal is 0.
        assert_eq!(m.cost(0, 0), 0.0);
        // Cores of the same socket share an L3.
        let same_socket = m.cost(0, 1);
        // Cores of different sockets are remote.
        let cross_socket = m.cost(0, 8);
        assert!(same_socket > 0.0);
        assert!(cross_socket > same_socket);
        assert_eq!(cross_socket, LevelCosts::default().remote_numa);
    }

    #[test]
    fn matrix_for_smt_machine_distinguishes_siblings() {
        let topo = synthetic::dual_socket_smt();
        let m = DistanceMatrix::from_topology(&topo, &LevelCosts::default());
        let siblings = m.cost(0, 1); // same core (pu:2)
        let same_socket = m.cost(0, 2); // same L3
        let cross = m.cost(0, 32); // other socket
        assert!(siblings < same_socket);
        assert!(same_socket < cross);
    }

    #[test]
    fn uniprocessor_matrix_is_zero() {
        let topo = synthetic::uniprocessor();
        let m = DistanceMatrix::from_topology(&topo, &LevelCosts::default());
        assert_eq!(m.cost(0, 0), 0.0);
        assert_eq!(m.cost(5, 7), 0.0); // out of range is 0, not a panic
    }

    #[test]
    fn shared_type_costs_cover_all_types() {
        let c = LevelCosts::default();
        assert_eq!(c.for_shared_type(None), c.remote_numa);
        assert_eq!(c.for_shared_type(Some(ObjectType::Machine)), c.remote_numa);
        assert_eq!(c.for_shared_type(Some(ObjectType::NumaNode)), c.same_numa);
        assert_eq!(c.for_shared_type(Some(ObjectType::L3Cache)), c.shared_l3);
        assert_eq!(c.for_shared_type(Some(ObjectType::L2Cache)), c.shared_l2);
        assert_eq!(c.for_shared_type(Some(ObjectType::Core)), c.same_core);
    }
}
