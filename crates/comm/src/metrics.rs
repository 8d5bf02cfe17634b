//! Locality metrics: how good is a thread → PU mapping for a given
//! communication matrix on a given topology?
//!
//! These metrics quantify what the paper's placement strategy optimises:
//! keep heavy communication inside shared caches and NUMA nodes, push only
//! light traffic across sockets.  They are used by the tests (TreeMatch must
//! beat naive placements), by the ablation benchmarks and by the simulator's
//! reports.

use crate::matrix::CommMatrix;
use orwl_topo::distance::{LevelCosts, PairCosts};
use orwl_topo::object::ObjectType;
use orwl_topo::topology::Topology;

/// Hop-bytes metric: `Σ m[i][j] · hops(pu_i, pu_j)` where `hops` is the
/// number of tree edges between the two PUs.  This is the metric used in
/// the TreeMatch literature.
pub fn hop_bytes(m: &CommMatrix, topo: &Topology, mapping: &[usize]) -> f64 {
    assert!(mapping.len() >= m.order(), "mapping must cover every thread of the matrix");
    let mut cost = 0.0;
    m.for_each_nonzero(|i, j, v| cost += v * topo.hop_distance(mapping[i], mapping[j]) as f64);
    cost
}

/// Breakdown of the traffic of a mapping by the deepest hardware level the
/// two endpoints share.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficBreakdown {
    /// Volume exchanged between threads mapped on the same PU.
    pub same_pu: f64,
    /// Volume between different PUs of the same core (hyperthreads).
    pub same_core: f64,
    /// Volume between cores sharing a cache (L1/L2/L3) but not a core.
    pub shared_cache: f64,
    /// Volume within one NUMA node / package, not covered above.
    pub same_numa: f64,
    /// Volume crossing NUMA nodes (within one machine).
    pub cross_numa: f64,
    /// Volume crossing *machine* boundaries — the inter-node fabric traffic
    /// of a multi-node (cluster) topology, where the depth-1 level is one
    /// `Group` per node.  Always `0` on single-machine topologies.
    pub cross_node: f64,
}

impl orwl_obs::ToJson for TrafficBreakdown {
    fn to_json(&self) -> orwl_obs::Json {
        let mut o = orwl_obs::Json::obj();
        o.push("same_pu", self.same_pu)
            .push("same_core", self.same_core)
            .push("shared_cache", self.shared_cache)
            .push("same_numa", self.same_numa)
            .push("cross_numa", self.cross_numa)
            .push("cross_node", self.cross_node)
            .push("local_fraction", self.local_fraction());
        o
    }
}

impl TrafficBreakdown {
    /// Total volume accounted for.
    pub fn total(&self) -> f64 {
        self.same_pu + self.same_core + self.shared_cache + self.same_numa + self.cross_numa + self.cross_node
    }

    /// Fraction of the traffic that stays within a NUMA node (including
    /// same-core and same-PU traffic).  This is the quantity the paper's
    /// placement maximises.
    pub fn local_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            return 1.0;
        }
        (t - self.cross_numa - self.cross_node) / t
    }
}

/// Computes the [`TrafficBreakdown`] of a mapping.
///
/// On a cluster topology flattened with one `Group` per node at depth 1
/// (see `orwl_topo::cluster::ClusterTopology::flatten`), traffic whose
/// endpoints share only the root is classified as
/// [`cross_node`](TrafficBreakdown::cross_node); on single-machine
/// topologies it stays in [`cross_numa`](TrafficBreakdown::cross_numa).
pub fn traffic_breakdown(m: &CommMatrix, topo: &Topology, mapping: &[usize]) -> TrafficBreakdown {
    assert!(mapping.len() >= m.order(), "mapping must cover every thread of the matrix");
    // The object type of every depth, looked up once instead of per entry.
    let type_at_depth: Vec<Option<ObjectType>> =
        (0..topo.depth()).map(|d| topo.objects_at_depth(d).next().map(|o| o.obj_type)).collect();
    // A `Group` level right below the machine root marks a flattened
    // multi-node cluster: only then does "shares nothing but the root"
    // mean crossing a machine boundary.
    let node_level_is_group = type_at_depth.get(1) == Some(&Some(ObjectType::Group));
    let mut out = TrafficBreakdown::default();
    m.for_each_nonzero(|i, j, v| {
        let (a, b) = (mapping[i], mapping[j]);
        if a == b {
            out.same_pu += v;
            return;
        }
        let depth = topo.shared_level_of_pus(a, b);
        match type_at_depth[depth] {
            Some(ObjectType::Core) | Some(ObjectType::PU) => out.same_core += v,
            Some(t) if t.is_cache() => out.shared_cache += v,
            // Sharing only the per-node Group of a flattened cluster
            // means "same machine, nothing deeper": NUMA was crossed.
            Some(ObjectType::Group) if node_level_is_group && depth == 1 => out.cross_numa += v,
            Some(ObjectType::NumaNode) | Some(ObjectType::Package) | Some(ObjectType::Group) => {
                out.same_numa += v
            }
            _ if node_level_is_group => out.cross_node += v,
            _ => out.cross_numa += v,
        }
    });
    out
}

/// Total communication cost of a mapping with the default per-level
/// costs: `Σ m[i][j] · cost(pu_i, pu_j)`, each non-zero priced on the fly
/// by [`PairCosts`].  Lower is better; `0` means all traffic stays on one
/// PU.
pub fn mapping_cost_default(m: &CommMatrix, topo: &Topology, mapping: &[usize]) -> f64 {
    assert!(mapping.len() >= m.order(), "mapping must cover every thread of the matrix");
    let costs = PairCosts::new(topo, &LevelCosts::default());
    let mut cost = 0.0;
    m.for_each_nonzero(|i, j, v| cost += v * costs.cost(mapping[i], mapping[j]));
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use orwl_topo::synthetic;

    #[test]
    fn chain_mapped_contiguously_beats_scattered() {
        let topo = synthetic::cluster2016_subset(2).unwrap(); // 16 cores, 2 sockets
        let m = patterns::chain(8, 100.0);
        // Contiguous: all 8 threads on socket 0.
        let contiguous: Vec<usize> = (0..8).collect();
        // Scattered: alternate sockets.
        let scattered: Vec<usize> = (0..8).map(|i| if i % 2 == 0 { i / 2 } else { 8 + i / 2 }).collect();
        assert!(mapping_cost_default(&m, &topo, &contiguous) < mapping_cost_default(&m, &topo, &scattered));
        assert!(hop_bytes(&m, &topo, &contiguous) < hop_bytes(&m, &topo, &scattered));
    }

    #[test]
    fn breakdown_accounts_for_all_traffic() {
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let m = patterns::all_to_all(16, 1.0);
        let mapping: Vec<usize> = (0..16).collect();
        let b = traffic_breakdown(&m, &topo, &mapping);
        assert!((b.total() - m.total_volume()).abs() < 1e-9);
        assert!(b.cross_numa > 0.0);
        assert!(b.local_fraction() < 1.0);
    }

    #[test]
    fn breakdown_all_local_when_single_socket() {
        let topo = synthetic::cluster2016_subset(1).unwrap();
        let m = patterns::all_to_all(8, 1.0);
        let mapping: Vec<usize> = (0..8).collect();
        let b = traffic_breakdown(&m, &topo, &mapping);
        assert_eq!(b.cross_numa, 0.0);
        assert_eq!(b.local_fraction(), 1.0);
    }

    #[test]
    fn flattened_cluster_splits_cross_node_from_cross_numa() {
        // Two "nodes" of two sockets each, flattened with a Group per node.
        let topo = synthetic::from_synthetic("mini-cluster", "group:2 numa:2 core:2 pu:1").unwrap();
        let m = patterns::chain(3, 10.0);
        // Thread 0 and 1 on node 0 (different sockets), thread 2 on node 1.
        let b = traffic_breakdown(&m, &topo, &[0, 2, 4]);
        let link = m.get(0, 1) + m.get(1, 0);
        assert_eq!(b.cross_numa, link, "same node, different sockets");
        assert_eq!(b.cross_node, link, "different nodes");
        assert_eq!(b.same_numa, 0.0);
        assert!((b.total() - m.total_volume()).abs() < 1e-9);
        assert_eq!(b.local_fraction(), 0.0);
        // On a single machine the same traffic is all intra-node.
        let single = synthetic::from_synthetic("single", "numa:4 core:2 pu:1").unwrap();
        let bs = traffic_breakdown(&m, &single, &[0, 2, 4]);
        assert_eq!(bs.cross_node, 0.0);
        assert_eq!(bs.cross_numa, m.total_volume());
    }

    #[test]
    fn same_pu_traffic_is_free_in_mapping_cost() {
        let topo = synthetic::laptop();
        let m = patterns::all_to_all(4, 10.0);
        // Everything on PU 0.
        let mapping = vec![0; 4];
        assert_eq!(mapping_cost_default(&m, &topo, &mapping), 0.0);
        let b = traffic_breakdown(&m, &topo, &mapping);
        assert_eq!(b.same_pu, m.total_volume());
        assert_eq!(b.local_fraction(), 1.0);
    }

    #[test]
    fn empty_matrix_has_zero_cost_and_full_locality() {
        let topo = synthetic::laptop();
        let m = CommMatrix::zeros(4);
        let mapping = vec![0, 1, 2, 3];
        assert_eq!(mapping_cost_default(&m, &topo, &mapping), 0.0);
        assert_eq!(hop_bytes(&m, &topo, &mapping), 0.0);
        assert_eq!(traffic_breakdown(&m, &topo, &mapping).local_fraction(), 1.0);
    }

    #[test]
    fn smt_siblings_count_as_same_core() {
        let topo = synthetic::dual_socket_smt();
        let m = patterns::chain(2, 50.0);
        // PUs 0 and 1 are hyperthreads of core 0.
        let b = traffic_breakdown(&m, &topo, &[0, 1]);
        assert_eq!(b.same_core, m.total_volume());
        assert_eq!(b.cross_numa, 0.0);
    }

    #[test]
    #[should_panic]
    fn mapping_shorter_than_matrix_panics() {
        let topo = synthetic::laptop();
        let m = patterns::chain(4, 1.0);
        hop_bytes(&m, &topo, &[0, 1]);
    }
}
