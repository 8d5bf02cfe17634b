//! Aggregation of communication matrices over groups of threads.
//!
//! This is the `AggregateComMatrix` step of Algorithm 1 in the paper: after
//! threads have been grouped by affinity at one level of the topology tree,
//! the matrix is collapsed so that the next (upper) level works on the
//! traffic *between groups*.

use crate::matrix::{CommMatrix, Entries};
use crate::sparse::SparseComm;

/// A partition of threads into groups.  `groups[g]` lists the thread
/// indices belonging to group `g`.  Threads may be omitted (e.g. a thread
/// mapped nowhere), but no thread may appear in two groups.
pub type Groups = Vec<Vec<usize>>;

/// Reusable buffers of [`aggregate_into`] / [`aggregate_sparse_into`], so the
/// per-level aggregation of `tree_match_assign` allocates nothing once warm.
#[derive(Debug, Default, Clone)]
pub struct AggregateScratch {
    owner: Vec<usize>,
}

/// Collapses `m` according to `groups`: entry `(a, b)` of the result is the
/// total volume sent from any member of group `a` to any member of group
/// `b`.  The diagonal of the result therefore holds the *intra-group*
/// volume, which the grouping step at the upper level ignores.
///
/// # Panics
/// Panics when a thread index is out of range or appears in two groups.
pub fn aggregate(m: &CommMatrix, groups: &Groups) -> CommMatrix {
    let mut agg = CommMatrix::zeros(groups.len());
    aggregate_into(m, groups, &mut AggregateScratch::default(), &mut agg);
    agg
}

/// In-place variant of [`aggregate`]: fills `out` (reshaped to
/// `groups.len()`) reusing both `out`'s buffer and the `scratch` owner
/// table, so repeated aggregation — once per tree level, every placement —
/// stops allocating.  Produces bit-identical entries to [`aggregate`]
/// (same accumulation order).
///
/// # Panics
/// Panics when a thread index is out of range or appears in two groups.
pub fn aggregate_into(m: &CommMatrix, groups: &Groups, scratch: &mut AggregateScratch, out: &mut CommMatrix) {
    let owner = scratch.owners(m.order(), groups);
    out.reset_to_order(groups.len());
    let mut cells = out.entries_mut();
    m.for_each_nonzero(|i, j, v| add_entry(owner, &mut cells, i, j, v));
}

/// [`aggregate_into`] reading the matrix through an already-built
/// [`SparseComm`]: same entries in the same order, hence the same bits,
/// without the pass over the dense matrix.
///
/// # Panics
/// Panics when a thread index is out of range or appears in two groups.
pub fn aggregate_sparse_into(
    m: &SparseComm,
    groups: &Groups,
    scratch: &mut AggregateScratch,
    out: &mut CommMatrix,
) {
    let owner = scratch.owners(m.order(), groups);
    out.reset_to_order(groups.len());
    let mut cells = out.entries_mut();
    m.for_each_nonzero(|i, j, v| add_entry(owner, &mut cells, i, j, v));
}

impl AggregateScratch {
    /// The group of each of the `order` threads, `usize::MAX` for a thread
    /// in no group.
    fn owners(&mut self, order: usize, groups: &Groups) -> &[usize] {
        let owner = &mut self.owner;
        owner.clear();
        owner.resize(order, usize::MAX);
        for (g, members) in groups.iter().enumerate() {
            for &t in members {
                assert!(t < order, "thread index {t} out of range for matrix of order {order}");
                assert!(owner[t] == usize::MAX, "thread {t} appears in more than one group");
                owner[t] = g;
            }
        }
        owner
    }
}

/// Adds one `src → dst` entry to the cell of its endpoints' groups.
fn add_entry(owner: &[usize], out: &mut Entries<'_>, src: usize, dst: usize, volume: f64) {
    if owner[src] != usize::MAX && owner[dst] != usize::MAX {
        out.add(owner[src], owner[dst], volume);
    }
}

/// Volume exchanged between members of the same group (the traffic that the
/// grouping "keeps local"), summed over all groups.
pub fn intra_group_volume(m: &CommMatrix, groups: &Groups) -> f64 {
    let agg = aggregate(m, groups);
    (0..agg.order()).map(|g| agg.get(g, g)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn aggregate_pairs_of_a_chain() {
        // Chain 0-1-2-3 with volume 1 each way.  Grouping {0,1},{2,3} keeps
        // two links internal and one link external.
        let m = patterns::chain(4, 1.0);
        let groups = vec![vec![0, 1], vec![2, 3]];
        let agg = aggregate(&m, &groups);
        assert_eq!(agg.order(), 2);
        assert_eq!(agg.get(0, 0), 2.0); // 0↔1 both directions
        assert_eq!(agg.get(1, 1), 2.0);
        assert_eq!(agg.get(0, 1), 1.0); // 1→2
        assert_eq!(agg.get(1, 0), 1.0); // 2→1
        assert_eq!(intra_group_volume(&m, &groups), 4.0);
        // Total volume is conserved by aggregation.
        assert_eq!(agg.total_volume(), m.total_volume());
    }

    #[test]
    fn aggregate_with_bad_grouping_is_worse() {
        let m = patterns::chain(4, 1.0);
        let good = vec![vec![0, 1], vec![2, 3]];
        let bad = vec![vec![0, 2], vec![1, 3]];
        assert!(intra_group_volume(&m, &good) > intra_group_volume(&m, &bad));
    }

    #[test]
    fn aggregate_ignores_unassigned_threads() {
        let m = patterns::all_to_all(4, 1.0);
        let groups = vec![vec![0], vec![1]];
        let agg = aggregate(&m, &groups);
        // Only the 0↔1 traffic survives.
        assert_eq!(agg.total_volume(), 2.0);
    }

    #[test]
    fn aggregate_singleton_groups_is_identity_like() {
        let m = patterns::random_symmetric(6, 0.8, 10.0, 7);
        let groups: Groups = (0..6).map(|i| vec![i]).collect();
        let agg = aggregate(&m, &groups);
        assert_eq!(agg, m);
    }

    #[test]
    fn aggregate_into_reuses_buffers_and_matches_aggregate() {
        let m = patterns::random_symmetric(9, 0.7, 25.0, 13);
        let groups = vec![vec![0, 4, 8], vec![1, 2], vec![3, 5, 6, 7]];
        let mut scratch = AggregateScratch::default();
        let mut out = CommMatrix::zeros(17); // stale shape on purpose
        aggregate_into(&m, &groups, &mut scratch, &mut out);
        assert_eq!(out, aggregate(&m, &groups));
        // A second call with a smaller matrix reuses the buffers cleanly.
        let m2 = patterns::chain(4, 1.0);
        let groups2 = vec![vec![0, 1], vec![2, 3]];
        aggregate_into(&m2, &groups2, &mut scratch, &mut out);
        assert_eq!(out, aggregate(&m2, &groups2));
        // The sparse view feeds the same entries in the same order.
        aggregate_sparse_into(&SparseComm::from_dense(&m), &groups, &mut scratch, &mut out);
        assert_eq!(out, aggregate(&m, &groups));
    }

    #[test]
    #[should_panic]
    fn aggregate_rejects_duplicate_membership() {
        let m = CommMatrix::zeros(3);
        aggregate(&m, &vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic]
    fn aggregate_rejects_out_of_range() {
        let m = CommMatrix::zeros(3);
        aggregate(&m, &vec![vec![0, 7]]);
    }
}
