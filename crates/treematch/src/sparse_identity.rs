//! The sparse pipeline against the dense references, bit for bit.
//!
//! Every step that reads a matrix through `orwl_comm::sparse::SparseComm`
//! (or through `CommMatrix::for_each_nonzero`) is compared with a reference
//! that walks all `p²` entries: the retained `naive` grouping and
//! partitioning, and the dense double loops of aggregation, hop-bytes and
//! the traffic breakdown as they stood before the view existed.  The
//! generated matrices cover what a sparse walk could get wrong: nothing to
//! walk (all zeros), empty rows and columns, one-directional entries, a
//! non-zero diagonal, nothing to skip (all-to-all), and orders the arity
//! and the part count do not divide.

use crate::algorithm::{map_groups, tree_match_assign};
use crate::grouping::{self, group_processes};
use crate::oversub::manage_oversubscription;
use crate::partition::{self, partition, PartCosts};
use orwl_comm::aggregate::{aggregate, aggregate_sparse_into, AggregateScratch, Groups};
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::{hop_bytes, traffic_breakdown, TrafficBreakdown};
use orwl_comm::patterns;
use orwl_comm::sparse::SparseComm;
use orwl_topo::object::ObjectType;
use orwl_topo::synthetic;
use orwl_topo::topology::{Topology, TreeShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One of the shapes listed in the module docs, of order `p`.
fn matrix(p: usize, shape: usize, seed: u64) -> CommMatrix {
    match shape {
        0 => CommMatrix::zeros(p),
        1 => patterns::all_to_all(p, 987.654321),
        // Directed entries of inexact volumes (so sums round), about a
        // third of the rows and columns left empty, some diagonal entries.
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            let density = rng.gen::<f64>();
            let silent: Vec<bool> = (0..p).map(|_| rng.gen::<f64>() < 0.3).collect();
            let mut m = CommMatrix::zeros(p);
            for i in 0..p {
                for j in 0..p {
                    let keep = if i == j { 0.2 } else { density };
                    if !silent[i] && !silent[j] && rng.gen::<f64>() < keep {
                        m.set(i, j, rng.gen::<f64>() * 1234.5678);
                    }
                }
            }
            m
        }
    }
}

fn matrices() -> impl Strategy<Value = CommMatrix> {
    (1usize..26, 0usize..6, 0u64..100_000).prop_map(|(p, shape, seed)| matrix(p, shape, seed))
}

/// `AggregateComMatrix` over all `p²` entries.
fn dense_aggregate(m: &CommMatrix, groups: &Groups) -> CommMatrix {
    let mut owner = vec![usize::MAX; m.order()];
    for (g, members) in groups.iter().enumerate() {
        for &t in members {
            owner[t] = g;
        }
    }
    let mut out = CommMatrix::zeros(groups.len());
    for i in 0..m.order() {
        for j in 0..m.order() {
            if owner[i] != usize::MAX && owner[j] != usize::MAX {
                out.add(owner[i], owner[j], m.get(i, j));
            }
        }
    }
    out
}

fn dense_hop_bytes(m: &CommMatrix, topo: &Topology, mapping: &[usize]) -> f64 {
    let mut cost = 0.0;
    for i in 0..m.order() {
        for j in 0..m.order() {
            cost += m.get(i, j) * topo.hop_distance(mapping[i], mapping[j]) as f64;
        }
    }
    cost
}

fn dense_traffic_breakdown(m: &CommMatrix, topo: &Topology, mapping: &[usize]) -> TrafficBreakdown {
    let node_level_is_group = topo.objects_at_depth(1).next().map(|o| o.obj_type) == Some(ObjectType::Group);
    let mut out = TrafficBreakdown::default();
    for i in 0..m.order() {
        for j in 0..m.order() {
            let v = m.get(i, j);
            let (a, b) = (mapping[i], mapping[j]);
            if a == b {
                out.same_pu += v;
                continue;
            }
            let depth = topo.shared_level_of_pus(a, b);
            match topo.objects_at_depth(depth).next().map(|o| o.obj_type) {
                Some(ObjectType::Core) | Some(ObjectType::PU) => out.same_core += v,
                Some(t) if t.is_cache() => out.shared_cache += v,
                Some(ObjectType::Group) if node_level_is_group && depth == 1 => out.cross_numa += v,
                Some(ObjectType::NumaNode) | Some(ObjectType::Package) | Some(ObjectType::Group) => {
                    out.same_numa += v
                }
                _ if node_level_is_group => out.cross_node += v,
                _ => out.cross_numa += v,
            }
        }
    }
    out
}

/// Algorithm 1 with every matrix step dense: naive grouping, dense
/// aggregation, and the pipeline's own `MapGroups`.
fn dense_tree_match_assign(shape: &TreeShape, m: &CommMatrix) -> Vec<usize> {
    let plan = manage_oversubscription(shape, m.order());
    let mut partitions = Vec::new();
    let mut level = m.clone();
    for &arity in plan.shape.arities.iter().rev() {
        let groups = grouping::naive::group_processes(&level, arity);
        level = dense_aggregate(&level, &groups);
        partitions.push(groups);
    }
    map_groups(&partitions, &plan, m.order())
}

fn bits(m: &CommMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn grouping_aggregation_and_the_pipeline_match_the_dense_references(
        m in matrices(),
        arity in 1usize..7,
        upper in 1usize..4,
    ) {
        let groups = group_processes(&m, arity);
        prop_assert_eq!(&groups, &grouping::naive::group_processes(&m, arity));

        let expected = bits(&dense_aggregate(&m, &groups));
        prop_assert_eq!(bits(&aggregate(&m, &groups)), expected.clone());
        let mut through_view = CommMatrix::zeros(0);
        aggregate_sparse_into(&SparseComm::from_dense(&m), &groups, &mut AggregateScratch::default(), &mut through_view);
        prop_assert_eq!(bits(&through_view), expected);

        // Three levels, the deepest often oversubscribed: the aggregated
        // levels are viewed and grouped in turn.
        let shape = TreeShape::new(vec![upper, 2, arity]);
        prop_assert_eq!(tree_match_assign(&shape, &m), dense_tree_match_assign(&shape, &m));
    }

    #[test]
    fn partition_matches_the_naive_reference(
        m in matrices(),
        k in 1usize..6,
        extra_cap in 0usize..3,
    ) {
        let capacity = m.order().div_ceil(k) + extra_cap;
        let uniform = PartCosts::uniform(k);
        prop_assert_eq!(partition(&m, &uniform, capacity), partition::naive::partition(&m, &uniform, capacity));
        let racks = PartCosts::from_fn(k, |a, b| 1.0 + ((a * 7 + b * 3) % 5) as f64 / 3.0);
        prop_assert_eq!(partition(&m, &racks, capacity), partition::naive::partition(&m, &racks, capacity));
    }

    #[test]
    fn locality_metrics_match_the_dense_loops(m in matrices(), stride in 1usize..9) {
        for topo in [
            synthetic::dual_socket_smt(),
            synthetic::quad_socket_l3_groups(),
            synthetic::from_synthetic("mini-cluster", "group:2 numa:2 core:2 pu:2").unwrap(),
        ] {
            let pus = topo.pu_os_indices();
            let mapping: Vec<usize> = (0..m.order()).map(|t| pus[(t * stride) % pus.len()]).collect();
            prop_assert_eq!(
                hop_bytes(&m, &topo, &mapping).to_bits(),
                dense_hop_bytes(&m, &topo, &mapping).to_bits()
            );
            let (sparse, dense) =
                (traffic_breakdown(&m, &topo, &mapping), dense_traffic_breakdown(&m, &topo, &mapping));
            for (s, d) in [
                (sparse.same_pu, dense.same_pu),
                (sparse.same_core, dense.same_core),
                (sparse.shared_cache, dense.shared_cache),
                (sparse.same_numa, dense.same_numa),
                (sparse.cross_numa, dense.cross_numa),
                (sparse.cross_node, dense.cross_node),
            ] {
                prop_assert_eq!(s.to_bits(), d.to_bits());
            }
        }
    }
}
