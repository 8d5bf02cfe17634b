//! The simulated cluster: a hierarchical topology, a per-node cost model
//! and an inter-node fabric cost model, described to numasim's pricer as
//! one machine ([`MachineCosts`]).

use orwl_numasim::costmodel::{CostParams, FabricParams};
use orwl_numasim::exec::MachineCosts;
use orwl_numasim::machine::SimMachine;
use orwl_topo::cluster::{paper_cluster, ClusterTopology, FabricClass};
use orwl_topo::topology::Topology;

/// A simulated multi-node machine: every node is one [`SimMachine`] (the
/// single-node NUMA model), and nodes exchange fabric messages priced by
/// [`FabricParams`].
#[derive(Debug, Clone)]
pub struct ClusterMachine {
    cluster: ClusterTopology,
    /// The single-node machine model (nodes are homogeneous, so one
    /// template serves them all).
    node: SimMachine,
    fabric: FabricParams,
}

impl ClusterMachine {
    /// Builds the cluster machine model.
    pub(crate) fn new(cluster: ClusterTopology, params: CostParams, fabric: FabricParams) -> Self {
        let node = SimMachine::new(cluster.node_topology().clone(), params);
        ClusterMachine { cluster, node, fabric }
    }

    /// The paper's evaluation machine scaled out: `n_nodes` nodes of
    /// 2 sockets × 8 cores with the calibrated single-node and fabric cost
    /// models.
    ///
    /// # Panics
    /// Panics when `n_nodes` is zero.
    pub fn paper(n_nodes: usize) -> Self {
        ClusterMachine::new(
            paper_cluster(n_nodes).expect("paper cluster preset is valid"),
            CostParams::cluster2016(),
            FabricParams::cluster2016(),
        )
    }

    /// The hierarchical topology.
    pub fn cluster(&self) -> &ClusterTopology {
        &self.cluster
    }

    /// The flattened single-tree topology (what a `Session` over this
    /// machine is built with).
    pub fn topology(&self) -> &Topology {
        self.cluster.flatten()
    }

    /// The fabric cost model.
    pub fn fabric(&self) -> &FabricParams {
        &self.fabric
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.cluster.n_nodes()
    }

    /// Total processing units.
    pub fn n_pus(&self) -> usize {
        self.cluster.nb_pus()
    }

    /// Per-byte streaming cost between two *global* PUs: the node-local
    /// link cost within a node, the fabric per-byte cost across nodes.
    pub(crate) fn link_byte_cost(&self, ga: usize, gb: usize) -> f64 {
        self.class_byte_cost(self.cluster.link_class(ga, gb), ga, gb)
    }

    /// [`link_byte_cost`](Self::link_byte_cost) of a link already
    /// classified as `class`.
    fn class_byte_cost(&self, class: FabricClass, ga: usize, gb: usize) -> f64 {
        match class {
            FabricClass::SameNode => {
                self.node.link_byte_cost(self.cluster.local_pu(ga), self.cluster.local_pu(gb))
            }
            class => self.fabric.per_byte(class),
        }
    }

    /// Relative per-byte fabric cost between two *nodes*, normalised so
    /// that the cheapest fabric class costs `1.0` (used to weight the
    /// partitioning stage's cut).  Zero for the same node.
    pub(crate) fn relative_node_cost(&self, node_a: usize, node_b: usize) -> f64 {
        if node_a == node_b {
            return 0.0;
        }
        let class =
            self.cluster.link_class(self.cluster.global_pu(node_a, 0), self.cluster.global_pu(node_b, 0));
        self.fabric.per_byte(class) / self.fabric.per_byte(FabricClass::SameRack)
    }
}

/// The cluster as numasim prices it: a memory domain is a (node, NUMA
/// domain) pair, a node is a host of the fabric, and a halo across nodes
/// is one fabric message.
impl MachineCosts for ClusterMachine {
    fn params(&self) -> &CostParams {
        self.node.params()
    }

    fn domain_of_pu(&self, g: usize) -> usize {
        self.cluster.node_of_pu(g) * self.node.n_nodes() + self.node.node_of_pu(self.cluster.local_pu(g))
    }

    fn host_of_pu(&self, g: usize) -> usize {
        self.cluster.node_of_pu(g)
    }

    /// The remote lock grant's latency plus the location transfer; within
    /// a node the latency is `0` and the node's link cost prices the bytes.
    fn halo_time(&self, ga: usize, gb: usize, bytes: f64) -> f64 {
        let class = self.cluster.link_class(ga, gb);
        self.fabric.latency(class) + bytes * self.class_byte_cost(class, ga, gb)
    }

    fn fabric_bandwidth(&self) -> f64 {
        self.fabric.aggregate_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_topo::cluster::ClusterTopology;
    use orwl_topo::synthetic;

    #[test]
    fn paper_cluster_machine_shape() {
        let m = ClusterMachine::paper(4);
        assert_eq!(m.n_nodes(), 4);
        assert_eq!(m.n_pus(), 64);
        assert_eq!(m.topology().nb_pus(), 64);
        assert_eq!(m.cluster().node_topology().nb_pus(), 16);
    }

    #[test]
    fn link_costs_escalate_with_distance() {
        let node = synthetic::cluster2016_subset(2).unwrap();
        let cluster = ClusterTopology::with_racks("racked", node, vec![0, 0, 1]).unwrap();
        let m = ClusterMachine::new(cluster, CostParams::cluster2016(), FabricParams::cluster2016());
        // Same socket < cross socket (same node) < same rack < cross rack.
        let same_socket = m.link_byte_cost(0, 1);
        let cross_socket = m.link_byte_cost(0, 8);
        let same_rack = m.link_byte_cost(0, 16);
        let cross_rack = m.link_byte_cost(0, 32);
        assert!(same_socket < cross_socket);
        assert!(cross_socket < same_rack);
        assert!(same_rack < cross_rack);
        // A halo pays latency only across nodes: within a node its time is
        // the bytes at the link cost, bit for bit.
        assert_eq!(m.halo_time(0, 8, 0.0), 0.0);
        assert_eq!(m.halo_time(0, 8, 4096.0).to_bits(), (4096.0 * cross_socket).to_bits());
        assert!(m.halo_time(0, 16, 0.0) > 0.0);
        assert!(m.halo_time(0, 16, 0.0) < m.halo_time(0, 32, 0.0));
        assert_eq!(m.halo_time(0, 16, 4096.0), m.halo_time(0, 16, 0.0) + 4096.0 * same_rack);
    }

    #[test]
    fn relative_node_costs_reflect_racks() {
        let node = synthetic::cluster2016_subset(1).unwrap();
        let cluster = ClusterTopology::with_racks("racked", node, vec![0, 0, 1]).unwrap();
        let m = ClusterMachine::new(cluster, CostParams::cluster2016(), FabricParams::cluster2016());
        assert_eq!(m.relative_node_cost(0, 0), 0.0);
        assert_eq!(m.relative_node_cost(0, 1), 1.0);
        assert!(m.relative_node_cost(0, 2) > 1.0);
        assert_eq!(m.relative_node_cost(0, 2), m.relative_node_cost(2, 0));
    }
}
