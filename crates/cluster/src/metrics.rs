//! Cluster-level locality metrics: the hop-bytes metric split at the
//! machine boundary.

use crate::machine::ClusterMachine;
use orwl_comm::matrix::CommMatrix;
use orwl_topo::cluster::ClusterTopology;

/// Hop-bytes of a global mapping split into the intra-node and inter-node
/// components: `(intra, inter)`.  Their sum equals
/// [`orwl_comm::metrics::hop_bytes`] on the flattened topology.
pub fn split_hop_bytes(cluster: &ClusterTopology, m: &CommMatrix, mapping: &[usize]) -> (f64, f64) {
    assert!(mapping.len() >= m.order(), "mapping must cover every task of the matrix");
    let (mut intra, mut inter) = (0.0, 0.0);
    m.for_each_nonzero(|i, j, v| {
        let (a, b) = (mapping[i], mapping[j]);
        let hops = v * cluster.hop_distance(a, b) as f64;
        if cluster.node_of_pu(a) == cluster.node_of_pu(b) {
            intra += hops;
        } else {
            inter += hops;
        }
    });
    (intra, inter)
}

/// Bytes of `m` whose endpoints are mapped to different nodes (the
/// unweighted fabric cut of a mapping).
pub fn inter_node_bytes(cluster: &ClusterTopology, m: &CommMatrix, mapping: &[usize]) -> f64 {
    assert!(mapping.len() >= m.order(), "mapping must cover every task of the matrix");
    let mut bytes = 0.0;
    m.for_each_nonzero(|i, j, v| {
        if cluster.node_of_pu(mapping[i]) != cluster.node_of_pu(mapping[j]) {
            bytes += v;
        }
    });
    bytes
}

/// Fabric-aware communication cost of a mapping, in seconds per iteration:
/// every byte is priced at the machine's per-byte link cost between its
/// endpoints (node-local links within a node, fabric links across).  This
/// is the objective the adaptive cluster engine compares placements by —
/// unlike hop-bytes it knows that a fabric hop costs orders of magnitude
/// more than a tree hop.
pub(crate) fn cluster_cost(machine: &ClusterMachine, m: &CommMatrix, mapping: &[usize]) -> f64 {
    assert!(mapping.len() >= m.order(), "mapping must cover every task of the matrix");
    let mut cost = 0.0;
    m.for_each_nonzero(|i, j, v| cost += v * machine.link_byte_cost(mapping[i], mapping[j]));
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::metrics::hop_bytes;
    use orwl_comm::patterns;

    #[test]
    fn split_components_sum_to_flat_hop_bytes() {
        let machine = ClusterMachine::paper(3);
        let m = patterns::all_to_all(12, 7.0);
        // Spread tasks over the first PUs of each node.
        let mapping: Vec<usize> = (0..12).map(|t| (t % 3) * 16 + t / 3).collect();
        let (intra, inter) = split_hop_bytes(machine.cluster(), &m, &mapping);
        let flat = hop_bytes(&m, machine.topology(), &mapping);
        assert!((intra + inter - flat).abs() < 1e-9);
        assert!(inter > 0.0 && intra > 0.0);
    }

    #[test]
    fn colocated_mapping_has_zero_inter_node_traffic() {
        let machine = ClusterMachine::paper(2);
        let m = patterns::all_to_all(8, 3.0);
        let mapping: Vec<usize> = (0..8).collect(); // all on node 0
        let (_, inter) = split_hop_bytes(machine.cluster(), &m, &mapping);
        assert_eq!(inter, 0.0);
        assert_eq!(inter_node_bytes(machine.cluster(), &m, &mapping), 0.0);
    }

    #[test]
    fn cluster_cost_penalises_fabric_crossings() {
        let machine = ClusterMachine::paper(2);
        let m = patterns::chain(2, 1000.0);
        let local = cluster_cost(&machine, &m, &[0, 1]);
        let cross = cluster_cost(&machine, &m, &[0, 16]);
        assert!(cross > 10.0 * local, "fabric {cross} vs local {local}");
        // inter_node_bytes counts both directions of the chain link.
        assert_eq!(inter_node_bytes(machine.cluster(), &m, &[0, 16]), m.total_volume());
    }
}
