//! A matrix's kept view against a matrix that never built one.
//!
//! `CommMatrix::sparse` builds the view once and keeps it until a `&mut`
//! method drops it; `CommMatrix::for_each_nonzero` walks it whenever it is
//! built.  Two things can go wrong, and each has a property here:
//!
//! * a mutation that leaves the old view behind — after every `&mut` method
//!   the entries and the symmetrised rows a warm matrix reports must equal,
//!   bit for bit, those of a fresh matrix holding the same values;
//! * a reader that sums differently through the view — every solver and
//!   metric must give the same bits on a warm matrix as on a cold copy.

use crate::algorithm::tree_match_assign;
use crate::partition::{cut_bytes, partition, PartCosts};
use orwl_comm::aggregate::{aggregate_into, aggregate_sparse_into, AggregateScratch, Groups};
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::{hop_bytes, traffic_breakdown};
use orwl_comm::patterns;
use orwl_topo::synthetic;
use orwl_topo::topology::TreeShape;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded matrix of order `p`: directed entries of inexact volumes, some
/// rows and columns silent, some diagonal entries, or a structured pattern.
fn matrix(p: usize, seed: u64) -> CommMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    match rng.gen_index(4) {
        0 => patterns::power_law(p, 2, 1.0e6 / 3.0, seed),
        1 => patterns::random_symmetric(p, rng.gen::<f64>(), 987.654321, seed),
        _ => {
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

/// The same values in a matrix that has never built a view.
fn cold_copy(m: &CommMatrix) -> CommMatrix {
    let p = m.order();
    let mut c = CommMatrix::zeros(p);
    for (k, &v) in m.as_slice().iter().enumerate() {
        c.set(k / p, k % p, v);
    }
    c
}

/// What a matrix answers through its view, as bits.
#[derive(Debug, PartialEq)]
struct Seen {
    /// Every entry `for_each_nonzero` visits.
    entries: Vec<(usize, usize, u64)>,
    /// Every row of `M + Mᵀ`.
    rows: Vec<Vec<(usize, u64)>>,
}

/// The [`Seen`] of `m`, whose view it builds if none is.
fn seen(m: &CommMatrix) -> Seen {
    let mut entries = Vec::new();
    m.for_each_nonzero(|i, j, v| entries.push((i, j, v.to_bits())));
    let view = m.sparse();
    let rows = (0..m.order()).map(|i| view.sym_row(i).map(|(j, v)| (j, v.to_bits())).collect()).collect();
    Seen { entries, rows }
}

/// `p` tasks dealt round-robin into `k` groups.
fn groups(p: usize, k: usize) -> Groups {
    (0..k).map(|g| (g..p).step_by(k).collect()).collect()
}

/// Applies `&mut` method number `op` (parameters drawn from `rng`).
fn mutate(m: &mut CommMatrix, op: usize, rng: &mut StdRng) {
    let p = m.order();
    let (i, j) = (rng.gen_index(p), rng.gen_index(p));
    let volume = if rng.gen::<f64>() < 0.3 { 0.0 } else { rng.gen::<f64>() * 77.7 };
    match op {
        0 => m.set(i, j, volume),
        1 => m.add(i, j, volume),
        2 => m.add_scaled(&matrix(p, rng.gen::<u64>()), rng.gen::<f64>()),
        3 => m.reset(),
        // Aggregation into `m` reshapes it in place (`reset_to_order`) and
        // writes through unchecked entries.
        4 => {
            let src = matrix(p + 3, rng.gen::<u64>());
            aggregate_into(&src, &groups(p + 3, p), &mut AggregateScratch::default(), m);
        }
        _ => {
            let src = matrix(p + 3, rng.gen::<u64>());
            aggregate_sparse_into(src.sparse(), &groups(p + 3, p), &mut AggregateScratch::default(), m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn no_mutation_leaves_a_stale_view(p in 1usize..20, op in 0usize..6, seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = matrix(p, rng.gen::<u64>());
        m.sparse();
        mutate(&mut m, op, &mut rng);
        prop_assert_eq!(seen(&m), seen(&cold_copy(&m)));
        // Mutating again after the rebuilt view was read.
        mutate(&mut m, op, &mut rng);
        prop_assert_eq!(seen(&m), seen(&cold_copy(&m)));
    }

    #[test]
    fn warm_matrices_solve_and_measure_like_cold_ones(
        p in 1usize..26,
        seed in 0u64..100_000,
        arity in 1usize..5,
        k in 1usize..5,
        stride in 1usize..9,
    ) {
        let warm = matrix(p, seed);
        warm.sparse();
        let cold = || cold_copy(&warm);
        prop_assert_eq!(&warm, &cold());

        let shape = TreeShape::new(vec![3, 2, arity]);
        prop_assert_eq!(tree_match_assign(&shape, &warm), tree_match_assign(&shape, &cold()));
        let racks = PartCosts::from_fn(k, |a, b| 1.0 + ((a * 7 + b * 3) % 5) as f64 / 3.0);
        let capacity = p.div_ceil(k);
        let assignment = partition(&warm, &racks, capacity);
        prop_assert_eq!(&assignment, &partition(&cold(), &racks, capacity));
        let assignment = assignment.unwrap();
        prop_assert_eq!(cut_bytes(&warm, &assignment).to_bits(), cut_bytes(&cold(), &assignment).to_bits());

        let mini_cluster = synthetic::from_synthetic("mini-cluster", "group:2 numa:2 core:2 pu:2").unwrap();
        for topo in [synthetic::dual_socket_smt(), mini_cluster] {
            let pus = topo.pu_os_indices();
            let mapping: Vec<usize> = (0..p).map(|t| pus[(t * stride) % pus.len()]).collect();
            let (w, c) = (hop_bytes(&warm, &topo, &mapping), hop_bytes(&cold(), &topo, &mapping));
            prop_assert_eq!(w.to_bits(), c.to_bits());
            let (w, c) = (traffic_breakdown(&warm, &topo, &mapping), traffic_breakdown(&cold(), &topo, &mapping));
            for (w, c) in [
                (w.same_pu, c.same_pu),
                (w.same_core, c.same_core),
                (w.shared_cache, c.shared_cache),
                (w.same_numa, c.same_numa),
                (w.cross_numa, c.cross_numa),
                (w.cross_node, c.cross_node),
            ] {
                prop_assert_eq!(w.to_bits(), c.to_bits());
            }
        }
    }
}

#[test]
fn equality_ignores_the_view() {
    let cold = patterns::power_law(12, 2, 100.0, 5);
    let warm = cold.clone();
    warm.sparse();
    assert_eq!(warm, cold);
    assert_eq!(cold, warm);
    assert_ne!(warm, patterns::power_law(12, 2, 100.0, 6));
}
