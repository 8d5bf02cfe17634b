//! Property-based tests for the topology crate: bitmap algebra laws and
//! structural invariants of synthetically generated topologies.

use orwl_topo::bitmap::CpuSet;
use orwl_topo::object::ObjectType;
use orwl_topo::topology::{LevelSpec, Topology};
use proptest::prelude::*;

fn cpuset_strategy() -> impl Strategy<Value = CpuSet> {
    proptest::collection::vec(0usize..256, 0..32).prop_map(CpuSet::from_indices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_weight_bounds(a in cpuset_strategy(), b in cpuset_strategy()) {
        let u = a.or(&b);
        prop_assert!(u.weight() >= a.weight().max(b.weight()));
        prop_assert!(u.weight() <= a.weight() + b.weight());
        prop_assert!(a.is_subset_of(&u));
        prop_assert!(b.is_subset_of(&u));
    }

    #[test]
    fn iteration_is_sorted_and_unique(a in cpuset_strategy()) {
        let v = a.to_vec();
        prop_assert_eq!(v.len(), a.weight());
        for w in v.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &i in &v {
            prop_assert!(a.is_set(i));
        }
    }

    #[test]
    fn synthetic_topology_invariants(
        packages in 1usize..6,
        l3 in 1usize..3,
        cores in 1usize..6,
        pus in 1usize..3,
    ) {
        let topo = Topology::from_levels(
            "prop",
            &[
                LevelSpec::new(ObjectType::Package, packages),
                LevelSpec::new(ObjectType::L3Cache, l3),
                LevelSpec::new(ObjectType::Core, cores),
                LevelSpec::new(ObjectType::PU, pus),
            ],
        ).unwrap();

        // Structural invariants hold.
        topo.validate().unwrap();
        // Leaf count equals the product of level counts.
        prop_assert_eq!(topo.nb_pus(), packages * l3 * cores * pus);
        // The shape reproduces the level counts.
        prop_assert_eq!(topo.shape().arities, vec![packages, l3, cores, pus]);
        prop_assert_eq!(topo.shape().leaves(), topo.nb_pus());
        // Root spans every PU.
        prop_assert_eq!(topo.root().cpuset.weight(), topo.nb_pus());
        // Hop distance is a metric-ish: symmetric, zero on diagonal.
        let n = topo.nb_pus();
        for a in 0..n.min(6) {
            for b in 0..n.min(6) {
                prop_assert_eq!(topo.hop_distance(a, b), topo.hop_distance(b, a));
                if a == b {
                    prop_assert_eq!(topo.hop_distance(a, b), 0);
                }
            }
        }
    }

    #[test]
    fn hyperthreading_flag_matches_pu_per_core(cores in 1usize..5, pus in 1usize..4) {
        let topo = Topology::from_levels(
            "prop-smt",
            &[
                LevelSpec::new(ObjectType::Package, 2),
                LevelSpec::new(ObjectType::Core, cores),
                LevelSpec::new(ObjectType::PU, pus),
            ],
        ).unwrap();
        prop_assert_eq!(topo.has_hyperthreading(), pus > 1);
        prop_assert_eq!(topo.nb_cores() * pus, topo.nb_pus());
    }
}
