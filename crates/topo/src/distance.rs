//! Relative transfer costs between processing units.
//!
//! HWLOC exposes optional "distances" objects (usually the ACPI SLIT NUMA
//! latency table).  Here distances are derived from the topology tree: the
//! relative cost of a memory transfer between two PUs depends on the deepest
//! level they share (same core < shared cache < same NUMA node < remote
//! NUMA node).  The locality metrics price each communicating pair on the
//! fly from a per-depth table ([`PairCosts`]); no PU × PU table is built.

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

/// [`LevelCosts`] on one topology: the relative cost of a transfer between
/// any two PUs, priced per pair from the type of their deepest shared
/// object — one table entry per tree depth, nothing per PU pair.
#[derive(Debug, Clone)]
pub struct PairCosts<'a> {
    topo: &'a Topology,
    /// The cost of a pair whose deepest shared object sits at each depth.
    by_depth: Vec<f64>,
}

impl<'a> PairCosts<'a> {
    /// Looks up the per-depth costs of `topo`.
    pub fn new(topo: &'a Topology, costs: &LevelCosts) -> Self {
        let by_depth = (0..topo.depth())
            .map(|d| costs.for_shared_type(topo.objects_at_depth(d).next().map(|o| o.obj_type)))
            .collect();
        PairCosts { topo, by_depth }
    }

    /// Relative cost of a transfer from PU `a` to PU `b` (OS indices): `0`
    /// for the same PU (no transfer needed) and for an index that names no
    /// PU of the topology.
    pub fn cost(&self, a: usize, b: usize) -> f64 {
        match self.topo.shared_depth(a, b) {
            Some(depth) if a != b => self.by_depth[depth],
            _ => 0.0,
        }
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
        let m = PairCosts::new(&topo, &LevelCosts::default());
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
        let m = PairCosts::new(&topo, &LevelCosts::default());
        let siblings = m.cost(0, 1); // same core (pu:2)
        let same_socket = m.cost(0, 2); // same L3
        let cross = m.cost(0, 32); // other socket
        assert!(siblings < same_socket);
        assert!(same_socket < cross);
    }

    #[test]
    fn uniprocessor_matrix_is_zero() {
        let topo = synthetic::uniprocessor();
        let m = PairCosts::new(&topo, &LevelCosts::default());
        assert_eq!(m.cost(0, 0), 0.0);
        assert_eq!(m.cost(5, 7), 0.0); // out of range is 0, not a panic
    }

    /// The PU × PU table the per-pair costs replaced, as it was built:
    /// `(side, row-major costs)`, zero off the PUs.
    fn table(topo: &Topology, costs: &LevelCosts) -> (usize, Vec<f64>) {
        let pus = topo.pu_os_indices();
        let max_os = pus.iter().copied().max().unwrap_or(0) + 1;
        let mut values = vec![0.0; max_os * max_os];
        for &a in &pus {
            for &b in &pus {
                if a == b {
                    continue;
                }
                let shared_depth = topo.shared_level_of_pus(a, b);
                let ty = topo.objects_at_depth(shared_depth).next().map(|o| o.obj_type);
                values[a * max_os + b] = costs.for_shared_type(ty);
            }
        }
        (max_os, values)
    }

    #[test]
    fn pair_costs_equal_the_old_table_on_every_pair() {
        let mut topos: Vec<Topology> =
            synthetic::preset_names().iter().map(|name| synthetic::preset(name).unwrap()).collect();
        topos.push(crate::cluster::paper_cluster(3).unwrap().flatten().clone());
        topos.push(synthetic::from_synthetic("mini-cluster", "group:2 numa:2 l3:1 core:2 pu:2").unwrap());
        let odd =
            LevelCosts { same_core: 0.3, shared_l2: 1.7, shared_l3: 4.1, same_numa: 9.9, remote_numa: 31.0 };
        for topo in &topos {
            for costs in [LevelCosts::default(), odd.clone()] {
                let (n, values) = table(topo, &costs);
                let pairs = PairCosts::new(topo, &costs);
                // Two indices past the last PU: out of range is 0 too.
                for a in 0..n + 2 {
                    for b in 0..n + 2 {
                        let old = if a < n && b < n { values[a * n + b] } else { 0.0 };
                        assert_eq!(pairs.cost(a, b).to_bits(), old.to_bits(), "{} ({a}, {b})", topo.name());
                    }
                }
            }
        }
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
