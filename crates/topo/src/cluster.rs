//! Hierarchical cluster topologies: cluster → node → socket/NUMA → core.
//!
//! The source paper targets *cluster*-scale ORWL; a [`ClusterTopology`]
//! extends the single-machine [`Topology`] tree with one more containment
//! level — compute **nodes** connected by a network fabric — optionally
//! grouped into **racks** (which select the fabric link class, see
//! [`FabricClass`]).  Nodes are homogeneous: every node carries the same
//! synthetic per-node topology, which is what real clusters are provisioned
//! as and what keeps the two-level placement problem well-posed.
//!
//! Processing units get **global** indices: PU `g` lives on node
//! `g / pus_per_node` at local index `g % pus_per_node`.  The whole cluster
//! can also be [`flattened`](ClusterTopology::flatten) into one balanced
//! [`Topology`] whose depth-1 level is a [`Group`](crate::object::ObjectType)
//! per node — the representation the flat placement policies and the
//! locality metrics consume, and the one a `Session` is built with.

use crate::object::ObjectType;
use crate::topology::{LevelSpec, Topology, TopologyError};
use std::fmt;

/// Errors produced while building or validating a cluster topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A cluster needs at least one node.
    NoNodes,
    /// The per-node topology carries no synthetic level specification, so
    /// the cluster cannot be flattened into a balanced tree (discovered
    /// topologies are not supported as node templates).
    NonSyntheticNode(String),
    /// A rack id in the rack map is out of range or a rack is empty.
    BadRack {
        /// The offending rack id.
        rack: usize,
        /// Number of racks implied by the map (`max + 1`).
        n_racks: usize,
    },
    /// Flattening the cluster into a single tree failed.
    Flatten(TopologyError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "a cluster topology needs at least one node"),
            ClusterError::NonSyntheticNode(name) => {
                write!(f, "node topology {name:?} has no synthetic level spec and cannot be flattened")
            }
            ClusterError::BadRack { rack, n_racks } => {
                write!(f, "rack {rack} is invalid for a rack map with {n_racks} racks")
            }
            ClusterError::Flatten(e) => write!(f, "cannot flatten cluster topology: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The class of fabric link between two processing units of a cluster.
///
/// Ordered from cheapest to most expensive; the cost attached to each class
/// lives in the simulator's fabric model (`orwl_numasim::costmodel`), not
/// here — the topology only knows the *structure*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FabricClass {
    /// Both endpoints are on the same node: no fabric is crossed.
    SameNode,
    /// Different nodes of the same rack (one switch hop).
    SameRack,
    /// Different racks (through the spine).
    CrossRack,
}

/// A multi-node cluster: `n_nodes` identical machines joined by a fabric.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    name: String,
    node: Topology,
    rack_of: Vec<usize>,
    flat: Topology,
}

impl ClusterTopology {
    /// A single-rack cluster of `n_nodes` identical `node` machines.
    pub(crate) fn homogeneous(name: &str, n_nodes: usize, node: Topology) -> Result<Self, ClusterError> {
        Self::with_racks(name, node, vec![0; n_nodes])
    }

    /// A cluster whose node `i` sits in rack `rack_of[i]`.
    ///
    /// Rack ids must be dense: every id in `0..max+1` must appear at least
    /// once ([`ClusterError::BadRack`] otherwise).
    pub fn with_racks(name: &str, node: Topology, rack_of: Vec<usize>) -> Result<Self, ClusterError> {
        if rack_of.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        if node.level_spec().is_empty() {
            return Err(ClusterError::NonSyntheticNode(node.name().to_string()));
        }
        let n_racks = rack_of.iter().max().copied().unwrap_or(0) + 1;
        for r in 0..n_racks {
            if !rack_of.contains(&r) {
                return Err(ClusterError::BadRack { rack: r, n_racks });
            }
        }
        let mut levels = vec![LevelSpec::new(ObjectType::Group, rack_of.len())];
        levels.extend_from_slice(node.level_spec());
        let flat = Topology::from_levels(name, &levels).map_err(ClusterError::Flatten)?;
        Ok(ClusterTopology { name: name.to_string(), node, rack_of, flat })
    }

    /// The per-node topology template (identical for every node).
    pub fn node_topology(&self) -> &Topology {
        &self.node
    }

    /// Number of compute nodes.
    pub fn n_nodes(&self) -> usize {
        self.rack_of.len()
    }

    /// Rack hosting node `node`.
    pub fn rack_of_node(&self, node: usize) -> usize {
        self.rack_of[node]
    }

    /// Processing units per node.
    pub fn pus_per_node(&self) -> usize {
        self.node.nb_pus()
    }

    /// Total processing units of the cluster.
    pub fn nb_pus(&self) -> usize {
        self.n_nodes() * self.pus_per_node()
    }

    /// Node hosting global PU `g`.
    ///
    /// # Panics
    /// Panics when `g` is out of range.
    pub fn node_of_pu(&self, g: usize) -> usize {
        assert!(g < self.nb_pus(), "global PU {g} out of range ({} PUs)", self.nb_pus());
        g / self.pus_per_node()
    }

    /// Node-local OS index of global PU `g`.
    pub fn local_pu(&self, g: usize) -> usize {
        g % self.pus_per_node()
    }

    /// Global index of node `node`'s local PU `local`.
    pub fn global_pu(&self, node: usize, local: usize) -> usize {
        debug_assert!(node < self.n_nodes() && local < self.pus_per_node());
        node * self.pus_per_node() + local
    }

    /// The fabric link class between two global PUs.
    pub fn link_class(&self, ga: usize, gb: usize) -> FabricClass {
        let (na, nb) = (self.node_of_pu(ga), self.node_of_pu(gb));
        if na == nb {
            FabricClass::SameNode
        } else if self.rack_of[na] == self.rack_of[nb] {
            FabricClass::SameRack
        } else {
            FabricClass::CrossRack
        }
    }

    /// Hop distance between two global PUs: the node-local tree distance
    /// within a node, the full up-and-down path through the cluster root
    /// across nodes.  Equals [`Topology::hop_distance`] on the
    /// [`flattened`](ClusterTopology::flatten) tree.
    pub fn hop_distance(&self, ga: usize, gb: usize) -> usize {
        if ga == gb {
            return 0;
        }
        if self.node_of_pu(ga) == self.node_of_pu(gb) {
            self.node.hop_distance(self.local_pu(ga), self.local_pu(gb))
        } else {
            // Up from the leaf to the cluster root and back down: the node
            // subtree is `node.depth()` levels deep in the flattened tree.
            2 * self.node.depth()
        }
    }

    /// The cluster as one balanced [`Topology`]: a `Group` per node at
    /// depth 1, the node levels below.  This is the topology a `Session`
    /// over a cluster backend is built with, and the one flat placement
    /// policies and locality metrics run on.
    pub fn flatten(&self) -> &Topology {
        &self.flat
    }

    /// The cluster with `node` removed — the topology a run degrades to
    /// after a node loss.  Surviving nodes keep their relative order;
    /// rack ids are re-densified (in ascending order of the old ids) when
    /// the loss empties a rack, so the result is always a valid cluster.
    ///
    /// Returns [`ClusterError::NoNodes`] when `node` is the last node.
    ///
    /// # Panics
    /// Panics when `node` is out of range.
    pub fn without_node(&self, node: usize) -> Result<Self, ClusterError> {
        assert!(node < self.n_nodes(), "node {node} out of range ({} nodes)", self.n_nodes());
        let mut racks: Vec<usize> =
            self.rack_of.iter().enumerate().filter(|&(i, _)| i != node).map(|(_, &r)| r).collect();
        if racks.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let mut surviving: Vec<usize> = racks.clone();
        surviving.sort_unstable();
        surviving.dedup();
        for r in &mut racks {
            *r = surviving.binary_search(r).unwrap();
        }
        Self::with_racks(&self.name, self.node.clone(), racks)
    }
}

/// A small multi-node preset: `n_nodes` nodes, each a 2-socket × 8-core
/// machine (the paper's evaluation machine restricted to 2 sockets), in one
/// rack.
pub fn paper_cluster(n_nodes: usize) -> Result<ClusterTopology, ClusterError> {
    ClusterTopology::homogeneous(
        &format!("cluster2016-{n_nodes}node"),
        n_nodes,
        crate::synthetic::cluster2016_subset(2).expect("preset is valid"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    fn cluster(n: usize) -> ClusterTopology {
        paper_cluster(n).unwrap()
    }

    #[test]
    fn global_pu_indexing_roundtrips() {
        let c = cluster(4); // 4 nodes × 16 PUs
        assert_eq!(c.n_nodes(), 4);
        assert_eq!(c.pus_per_node(), 16);
        assert_eq!(c.nb_pus(), 64);
        for g in [0, 15, 16, 47, 63] {
            assert_eq!(c.global_pu(c.node_of_pu(g), c.local_pu(g)), g);
        }
        assert_eq!(c.node_of_pu(16), 1);
        assert_eq!(c.local_pu(16), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pu_panics() {
        cluster(2).node_of_pu(32);
    }

    #[test]
    fn validation_errors_are_typed() {
        let node = synthetic::cluster2016_subset(1).unwrap();
        assert_eq!(ClusterTopology::homogeneous("c", 0, node.clone()).unwrap_err(), ClusterError::NoNodes);
        // Rack map with a hole: rack 1 missing.
        assert_eq!(
            ClusterTopology::with_racks("c", node.clone(), vec![0, 2, 2]).unwrap_err(),
            ClusterError::BadRack { rack: 1, n_racks: 3 }
        );
        // Non-synthetic node template: discovered topologies carry no level
        // spec (Topology::from_objects leaves it empty) and cannot be
        // flattened into a balanced cluster tree.
        let objects: Vec<_> = synthetic::laptop().objects().cloned().collect();
        let spec_free = Topology::from_objects("spec-free", objects).unwrap();
        assert_eq!(
            ClusterTopology::homogeneous("c", 2, spec_free).unwrap_err(),
            ClusterError::NonSyntheticNode("spec-free".to_string())
        );
        // Error messages are informative.
        assert!(ClusterError::NoNodes.to_string().contains("at least one node"));
        assert!(ClusterError::BadRack { rack: 1, n_racks: 3 }.to_string().contains("rack 1"));
    }

    #[test]
    fn rack_layout_selects_link_classes() {
        let node = synthetic::cluster2016_subset(1).unwrap(); // 8 PUs per node
        let c = ClusterTopology::with_racks("racked", node, vec![0, 0, 1, 1]).unwrap();
        assert_eq!(c.rack_of_node(1), 0);
        assert_eq!(c.rack_of_node(2), 1);
        assert_eq!(c.link_class(0, 7), FabricClass::SameNode); // node 0
        assert_eq!(c.link_class(0, 8), FabricClass::SameRack); // nodes 0-1
        assert_eq!(c.link_class(0, 16), FabricClass::CrossRack); // nodes 0-2
        assert!(FabricClass::SameNode < FabricClass::SameRack);
        assert!(FabricClass::SameRack < FabricClass::CrossRack);
    }

    #[test]
    fn hop_distance_matches_flattened_topology() {
        let c = cluster(3);
        let flat = c.flatten();
        assert_eq!(flat.nb_pus(), c.nb_pus());
        for &(a, b) in
            &[(0usize, 0usize), (0, 1), (0, 7), (0, 8), (0, 15), (0, 16), (15, 16), (17, 40), (32, 47)]
        {
            assert_eq!(c.hop_distance(a, b), flat.hop_distance(a, b), "PUs {a},{b}");
        }
    }

    #[test]
    fn cross_node_distance_dominates_intra_node() {
        let c = cluster(2);
        // Same socket < cross socket < cross node.
        assert!(c.hop_distance(0, 1) < c.hop_distance(0, 8));
        assert!(c.hop_distance(0, 8) < c.hop_distance(0, 16));
        // Cross-node distance does not depend on which PUs are involved.
        assert_eq!(c.hop_distance(0, 16), c.hop_distance(15, 31));
    }

    #[test]
    fn without_node_shrinks_and_redensifies_racks() {
        let node = synthetic::cluster2016_subset(1).unwrap();
        let c = ClusterTopology::with_racks("racked", node, vec![0, 0, 1, 2, 2]).unwrap();
        // Losing a node from a populated rack keeps every rack.
        let s = c.without_node(0).unwrap();
        assert_eq!(s.n_nodes(), 4);
        assert_eq!((0..4).map(|n| s.rack_of_node(n)).collect::<Vec<_>>(), vec![0, 1, 2, 2]);
        // Losing the only node of rack 1 re-densifies the ids.
        let s = c.without_node(2).unwrap();
        assert_eq!(s.n_nodes(), 4);
        assert_eq!((0..4).map(|n| s.rack_of_node(n)).collect::<Vec<_>>(), vec![0, 0, 1, 1]);
        // The shrunk cluster flattens like any other.
        assert_eq!(s.flatten().nb_pus(), 4 * s.pus_per_node());
        // Shrinking to nothing is a typed error.
        let one = paper_cluster(1).unwrap();
        assert_eq!(one.without_node(0).unwrap_err(), ClusterError::NoNodes);
    }

    #[test]
    fn flattened_tree_has_a_group_level_per_node() {
        let c = cluster(4);
        let flat = c.flatten();
        assert_eq!(flat.nb_objects_at_depth(1), 4);
        assert!(flat.objects_at_depth(1).all(|o| o.obj_type == ObjectType::Group));
        assert_eq!(flat.name(), "cluster2016-4node");
        flat.validate().unwrap();
        // Node subtrees own contiguous PU ranges in global order.
        for (i, group) in flat.objects_at_depth(1).enumerate() {
            let pus = group.cpuset.to_vec();
            assert_eq!(pus, (i * 16..(i + 1) * 16).collect::<Vec<_>>());
        }
    }
}
