//! The simulated machine: a topology plus the calibrated cost model.

use crate::costmodel::CostParams;
use orwl_topo::object::ObjectType;
use orwl_topo::topology::Topology;

/// A simulated NUMA machine.
///
/// Wraps a [`Topology`] and [`CostParams`] and pre-computes the lookups the
/// simulator needs on its hot path: the NUMA node of every PU and the
/// per-byte link cost between every pair of PUs.
#[derive(Debug, Clone)]
pub struct SimMachine {
    topo: Topology,
    params: CostParams,
    /// NUMA node index of each PU, indexed by PU OS index.
    node_of_pu: Vec<usize>,
    /// Number of NUMA nodes (at least 1).
    n_nodes: usize,
    /// Per-byte link cost between PUs, row-major `[pu_a * n_pus + pu_b]`.
    link_cost: Vec<f64>,
    n_pus: usize,
}

impl SimMachine {
    /// Builds the machine model; `O(P²)` in the number of PUs (a few tens of
    /// thousands of entries for the paper's 192-core machine).
    pub fn new(topo: Topology, params: CostParams) -> Self {
        let n_pus = topo.nb_pus();
        let nodes = {
            let numa = topo.objects_of_type(ObjectType::NumaNode);
            if numa.is_empty() {
                topo.objects_of_type(ObjectType::Package)
            } else {
                numa
            }
        };
        let node_cpusets: Vec<_> = if nodes.is_empty() {
            vec![topo.root().cpuset.clone()]
        } else {
            nodes.iter().map(|n| n.cpuset.clone()).collect()
        };
        let n_nodes = node_cpusets.len();

        let mut node_of_pu = vec![0usize; n_pus];
        for pu in topo.pus() {
            let os = pu.os_index;
            for (i, cs) in node_cpusets.iter().enumerate() {
                if cs.is_set(os) {
                    node_of_pu[os] = i;
                    break;
                }
            }
        }

        let mut link_cost = vec![0.0; n_pus * n_pus];
        for a in 0..n_pus {
            for b in 0..n_pus {
                if a == b {
                    continue;
                }
                let depth = topo.shared_level_of_pus(a, b);
                let ty = topo.objects_at_depth(depth).next().map(|o| o.obj_type);
                link_cost[a * n_pus + b] = params.link.for_shared_type(ty);
            }
        }

        SimMachine { topo, params, node_of_pu, n_nodes, link_cost, n_pus }
    }

    /// Builds the paper's evaluation machine (24 sockets × 8 cores) with the
    /// calibrated cost model.
    #[cfg(test)]
    pub(crate) fn cluster2016() -> Self {
        SimMachine::new(orwl_topo::synthetic::cluster2016_smp192(), CostParams::cluster2016())
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The calibration constants.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Number of processing units.
    pub fn n_pus(&self) -> usize {
        self.n_pus
    }

    /// Number of NUMA nodes (≥ 1).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// NUMA node hosting the given PU.
    pub fn node_of_pu(&self, pu: usize) -> usize {
        self.node_of_pu.get(pu).copied().unwrap_or(0)
    }

    /// Per-byte cost of moving halo data from `src_pu` to `dst_pu`.
    pub fn link_byte_cost(&self, src_pu: usize, dst_pu: usize) -> f64 {
        if src_pu >= self.n_pus || dst_pu >= self.n_pus {
            return self.params.link.remote_numa;
        }
        self.link_cost[src_pu * self.n_pus + dst_pu]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_topo::synthetic;

    #[test]
    fn paper_machine_has_24_nodes_192_pus() {
        let m = SimMachine::cluster2016();
        assert_eq!(m.n_pus(), 192);
        assert_eq!(m.n_nodes(), 24);
        assert_eq!(m.node_of_pu(0), 0);
        assert_eq!(m.node_of_pu(7), 0);
        assert_eq!(m.node_of_pu(8), 1);
        assert_eq!(m.node_of_pu(191), 23);
    }

    #[test]
    fn link_costs_reflect_topology() {
        let m = SimMachine::cluster2016();
        // Same PU: zero (no transfer).
        assert_eq!(m.link_byte_cost(0, 0), 0.0);
        // Same socket < cross socket.
        assert!(m.link_byte_cost(0, 1) < m.link_byte_cost(0, 8));
        // Symmetric.
        assert_eq!(m.link_byte_cost(3, 77), m.link_byte_cost(77, 3));
        // Out-of-range PUs are treated as remote, not a panic.
        assert_eq!(m.link_byte_cost(0, 9999), m.params().link.remote_numa);
    }

    #[test]
    fn machine_without_numa_level_has_one_node() {
        let m = SimMachine::new(synthetic::laptop(), CostParams::test_exaggerated());
        assert_eq!(m.n_nodes(), 1);
        assert_eq!(m.node_of_pu(5), 0);
    }

    #[test]
    fn smt_machine_same_core_link_is_cheapest() {
        let m = SimMachine::new(synthetic::dual_socket_smt(), CostParams::cluster2016());
        let same_core = m.link_byte_cost(0, 1);
        let same_socket = m.link_byte_cost(0, 2);
        let cross = m.link_byte_cost(0, 32);
        assert!(same_core < same_socket);
        assert!(same_socket < cross);
    }
}
