//! Weighted communication matrices.
//!
//! The placement strategy of the paper is driven by a square matrix `m`
//! where `m[i][j]` is the volume of data (bytes per iteration) that thread
//! `i` sends to thread `j`.  In the ORWL runtime the matrix is extracted
//! from the handles each task holds on its neighbours' locations; in tests
//! and benchmarks it is generated by [`crate::patterns`].

use crate::sparse::SparseComm;
use std::fmt;
use std::sync::OnceLock;

/// A dense square matrix of communication volumes between `order()` threads.
///
/// Entries are `f64` byte counts (fractional values are allowed so that
/// normalised matrices can be represented too).  The matrix is not required
/// to be symmetric — `i → j` and `j → i` traffic are tracked separately —
/// but most placement algorithms work on the symmetrised sum, see
/// [`CommMatrix::symmetrized`].
///
/// A matrix keeps its [sparse view](CommMatrix::sparse) once something
/// asked for it, until it is mutated: every reader of one unchanged matrix
/// shares one scan of the `order²` entries.  A clone keeps a copy of it.
#[derive(Clone, Default)]
pub struct CommMatrix {
    order: usize,
    values: Vec<f64>,
    /// The view of `values`, built on first use by [`CommMatrix::sparse`].
    /// Every `&mut self` method writes through [`CommMatrix::values_mut`],
    /// which drops it.  Boxed, so a matrix without one stays small to move.
    view: OnceLock<Box<SparseComm>>,
}

/// Unchecked writes into the entries of a matrix that has no view: what
/// [`CommMatrix::entries_mut`] hands out after its one check.
pub(crate) struct Entries<'a> {
    order: usize,
    values: &'a mut [f64],
}

impl Entries<'_> {
    /// Sets the volume sent from `src` to `dst`.
    #[inline]
    pub(crate) fn set(&mut self, src: usize, dst: usize, volume: f64) {
        self.values[src * self.order + dst] = volume;
    }

    /// Adds `volume` to the `src → dst` entry.
    #[inline]
    pub(crate) fn add(&mut self, src: usize, dst: usize, volume: f64) {
        self.values[src * self.order + dst] += volume;
    }
}

impl CommMatrix {
    /// Creates an `order × order` matrix of zeros.
    pub fn zeros(order: usize) -> Self {
        CommMatrix { order, values: vec![0.0; order * order], view: OnceLock::new() }
    }

    /// A fresh `order × order` matrix whose entries `fill` writes: no view
    /// can exist yet, so no write checks for one.
    pub(crate) fn filled(order: usize, fill: impl FnOnce(&mut Entries<'_>)) -> Self {
        let mut m = CommMatrix::zeros(order);
        fill(&mut m.entries_mut());
        m
    }

    /// Builds a matrix from `(src, dst, volume)` edges; repeated edges
    /// accumulate.
    pub fn from_edges(order: usize, edges: &[(usize, usize, f64)]) -> Self {
        CommMatrix::filled(order, |m| {
            for &(s, d, v) in edges {
                m.add(s, d, v);
            }
        })
    }

    /// Number of rows (= columns = communicating threads).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Volume sent from `src` to `dst`.
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.values[src * self.order + dst]
    }

    /// The entries, for writing.  Every `&mut self` method comes through
    /// here, so none can leave a stale view behind; with no view to drop
    /// the cost is one load and a branch that is not taken.
    #[inline]
    fn values_mut(&mut self) -> &mut Vec<f64> {
        if self.view.get_mut().is_some() {
            self.drop_view();
        }
        &mut self.values
    }

    /// Out of line: the matrices written entry by entry are accumulators
    /// nobody has viewed yet.
    #[cold]
    #[inline(never)]
    fn drop_view(&mut self) {
        self.view = OnceLock::new();
    }

    /// One check for a view to drop, then any number of unchecked writes.
    #[inline]
    pub(crate) fn entries_mut(&mut self) -> Entries<'_> {
        let order = self.order;
        Entries { order, values: self.values_mut() }
    }

    /// Sets the volume sent from `src` to `dst`.  The per-entry writers of
    /// other crates (the online accumulator, task-graph and trace
    /// matrices) call this and [`add`](Self::add) once per entry, so both
    /// inline into them.
    #[inline]
    pub fn set(&mut self, src: usize, dst: usize, volume: f64) {
        self.entries_mut().set(src, dst, volume);
    }

    /// Adds `volume` to the `src → dst` entry.
    #[inline]
    pub fn add(&mut self, src: usize, dst: usize, volume: f64) {
        self.entries_mut().add(src, dst, volume);
    }

    /// Sum of all entries (total traffic per iteration).
    pub fn total_volume(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sum of row `i` plus column `i`: the total traffic thread `i`
    /// participates in.
    pub fn traffic_of(&self, i: usize) -> f64 {
        let mut t = 0.0;
        for j in 0..self.order {
            t += self.get(i, j) + self.get(j, i);
        }
        t
    }

    /// The row-compressed view of this matrix ([`SparseComm`]): built by
    /// one scan of the `order²` entries on first use, then kept — for every
    /// later reader, on any thread — until a `&mut self` method changes the
    /// matrix and drops it.  It holds the non-zeros of `M` and of `M + Mᵀ`
    /// at 16 bytes each — 2 × nnz × 16 bytes for a symmetric matrix — plus
    /// `O(order)`.
    pub fn sparse(&self) -> &SparseComm {
        self.view.get_or_init(|| Box::new(SparseComm::from_dense(self)))
    }

    /// Calls `f(src, dst, volume)` for every non-zero entry, in row-major
    /// order — the one scan every consumer of a matrix shares (the locality
    /// metrics, aggregation, the copy constructors, [`SparseComm`]).  It
    /// walks the [view](CommMatrix::sparse) when one is built and the dense
    /// entries otherwise, so a one-shot scan allocates nothing.  An ordered
    /// sum over these entries equals the same sum over all `order²` entries
    /// bit for bit: an accumulator that starts at `0.0` and only ever adds
    /// non-negative terms is unchanged by an added `0.0`.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, usize, f64)) {
        if let Some(view) = self.view.get() {
            return view.for_each_nonzero(f);
        }
        // Sparse rows are mostly runs of zeros: test a block of entries with
        // one branch-free (vectorisable) reduction and look inside only the
        // blocks that hold something.
        const BLOCK: usize = 8;
        for (i, row) in self.values.chunks_exact(self.order.max(1)).enumerate() {
            for (b, block) in row.chunks(BLOCK).enumerate() {
                if block.iter().fold(false, |any, v| any | (*v != 0.0)) {
                    for (at, &v) in block.iter().enumerate() {
                        if v != 0.0 {
                            f(i, b * BLOCK + at, v);
                        }
                    }
                }
            }
        }
    }

    /// True when the matrix equals its transpose (within `1e-9`).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.order {
            for j in (i + 1)..self.order {
                if (self.get(i, j) - self.get(j, i)).abs() > 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the symmetrised matrix `S = M + Mᵀ` whose entry `S[i][j]` is
    /// the total volume exchanged between `i` and `j` in both directions.
    ///
    /// This and the other copy constructors ([`select`](Self::select),
    /// [`permuted`](Self::permuted), [`extended`](Self::extended)) write
    /// the non-zeros they read into a zeroed buffer, so an entry that is
    /// `-0.0` comes out as `+0.0`: equal under `==`, different in
    /// [`as_slice`](Self::as_slice) bytes.  No producer in this workspace
    /// emits `-0.0` — volumes and scale factors are non-negative.  Each
    /// cell of `S` receives at most its two terms, and IEEE addition
    /// commutes, so every other entry is the dense `M[i][j] + M[j][i]` bit
    /// for bit.
    pub fn symmetrized(&self) -> CommMatrix {
        CommMatrix::filled(self.order, |s| {
            self.for_each_nonzero(|i, j, v| {
                s.add(i, j, v);
                s.add(j, i, v);
            })
        })
    }

    /// Reshapes this matrix to `order × order` zeros, reusing the existing
    /// buffer (allocates only when capacity must grow).  The in-place
    /// counterpart of [`CommMatrix::zeros`] used by the aggregated level
    /// matrix that lives across placement levels.
    pub(crate) fn reset_to_order(&mut self, order: usize) {
        let values = self.values_mut();
        values.clear();
        values.resize(order * order, 0.0);
        self.order = order;
    }

    /// Returns the matrix restricted to the rows/columns listed in `keep`,
    /// in that order: one walk of this matrix's non-zeros.
    ///
    /// # Panics
    /// Panics when `keep` lists an index twice or one out of range.
    pub fn select(&self, keep: &[usize]) -> CommMatrix {
        let mut at = vec![usize::MAX; self.order];
        for (a, &i) in keep.iter().enumerate() {
            assert!(at[i] == usize::MAX, "select() lists index {i} twice");
            at[i] = a;
        }
        CommMatrix::filled(keep.len(), |m| {
            self.for_each_nonzero(|i, j, v| {
                if at[i] != usize::MAX && at[j] != usize::MAX {
                    m.set(at[i], at[j], v);
                }
            })
        })
    }

    /// Returns a copy with rows and columns permuted: entry `(i, j)` of the
    /// result equals entry `(perm[i], perm[j])` of `self`.
    ///
    /// # Panics
    /// Panics when `perm` is not a permutation of `0..order`.
    pub fn permuted(&self, perm: &[usize]) -> CommMatrix {
        assert_eq!(perm.len(), self.order, "permutation length must equal matrix order");
        // `at[p]` is the row of the result that row `p` of `self` becomes.
        let mut at = vec![usize::MAX; self.order];
        for (i, &p) in perm.iter().enumerate() {
            assert!(p < self.order && at[p] == usize::MAX, "not a permutation");
            at[p] = i;
        }
        CommMatrix::filled(self.order, |m| self.for_each_nonzero(|i, j, v| m.set(at[i], at[j], v)))
    }

    /// Returns a copy extended to `new_order ≥ order` with zero-filled new
    /// rows and columns.  Used when adding control-thread entries.
    pub fn extended(&self, new_order: usize) -> CommMatrix {
        assert!(new_order >= self.order, "extended() cannot shrink a matrix");
        CommMatrix::filled(new_order, |m| self.for_each_nonzero(|i, j, v| m.set(i, j, v)))
    }

    /// The underlying row-major values.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Returns a copy with every entry multiplied by `k`.
    pub fn scaled(&self, k: f64) -> CommMatrix {
        CommMatrix {
            order: self.order,
            values: self.values.iter().map(|v| v * k).collect(),
            view: OnceLock::new(),
        }
    }

    /// Adds `k · other` entry-wise.  Used by the online monitoring
    /// accumulator for its exponential-decay update.
    ///
    /// # Panics
    /// Panics when the orders differ.
    pub fn add_scaled(&mut self, other: &CommMatrix, k: f64) {
        assert_eq!(self.order, other.order, "add_scaled requires equal orders");
        for (a, b) in self.values_mut().iter_mut().zip(&other.values) {
            *a += k * b;
        }
    }

    /// Resets every entry to zero, keeping the order.
    pub fn reset(&mut self) {
        self.values_mut().fill(0.0);
    }

    /// Returns a copy scaled so the entries sum to `1.0` (no-op on the
    /// all-zero matrix).  Volume normalisation makes two matrices comparable
    /// by *structure* regardless of absolute traffic rates, which is what
    /// drift detection needs.
    pub fn volume_normalized(&self) -> CommMatrix {
        let total = self.total_volume();
        if total == 0.0 {
            return self.clone();
        }
        self.scaled(1.0 / total)
    }
}

/// Two matrices are equal when their entries are: whether either has built
/// its view does not matter.
impl PartialEq for CommMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order && self.values == other.values
    }
}

impl fmt::Debug for CommMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CommMatrix(order={})", self.order)?;
        let limit = self.order.min(16);
        for i in 0..limit {
            let row: Vec<String> = (0..limit).map(|j| format!("{:8.1}", self.get(i, j))).collect();
            writeln!(f, "  [{}]", row.join(" "))?;
        }
        if limit < self.order {
            writeln!(f, "  ... ({} more rows)", self.order - limit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_basic_accessors() {
        let mut m = CommMatrix::zeros(3);
        assert_eq!(m.order(), 3);
        assert_eq!(m.total_volume(), 0.0);
        m.set(0, 1, 5.0);
        m.add(0, 1, 3.0);
        m.add(2, 0, 4.0);
        assert_eq!(m.get(0, 1), 8.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.total_volume(), 12.0);
        assert_eq!(m.traffic_of(0), 12.0);
        assert_eq!(m.traffic_of(1), 8.0);
    }

    #[test]
    fn symmetry_detection_and_symmetrization() {
        let m = CommMatrix::from_edges(3, &[(0, 1, 4.0), (1, 0, 2.0)]);
        assert!(!m.is_symmetric());
        let s = m.symmetrized();
        assert!(s.is_symmetric());
        assert_eq!(s.get(0, 1), 6.0);
        assert_eq!(s.get(1, 0), 6.0);
        assert_eq!(s.total_volume(), 12.0);
    }

    #[test]
    fn select_extracts_submatrix() {
        let m = CommMatrix::from_edges(4, &[(0, 3, 7.0), (3, 0, 2.0), (1, 2, 9.0)]);
        let s = m.select(&[0, 3]);
        assert_eq!(s.order(), 2);
        assert_eq!(s.get(0, 1), 7.0);
        assert_eq!(s.get(1, 0), 2.0);
    }

    #[test]
    fn permuted_relabels_threads() {
        let m = CommMatrix::from_edges(3, &[(0, 1, 5.0)]);
        // Swap threads 0 and 2.
        let p = m.permuted(&[2, 1, 0]);
        assert_eq!(p.get(2, 1), 5.0);
        assert_eq!(p.get(0, 1), 0.0);
        assert_eq!(p.total_volume(), m.total_volume());
    }

    #[test]
    #[should_panic]
    fn permuted_rejects_non_permutation() {
        CommMatrix::zeros(3).permuted(&[0, 0, 1]);
    }

    #[test]
    fn extended_adds_zero_rows() {
        let m = CommMatrix::from_edges(2, &[(0, 1, 3.0)]);
        let e = m.extended(4);
        assert_eq!(e.order(), 4);
        assert_eq!(e.get(0, 1), 3.0);
        assert_eq!(e.get(3, 3), 0.0);
        assert_eq!(e.total_volume(), 3.0);
    }

    #[test]
    #[should_panic]
    fn extended_cannot_shrink() {
        CommMatrix::zeros(4).extended(2);
    }

    #[test]
    fn reset_to_order_reshapes_to_zeros() {
        let mut c = CommMatrix::from_edges(3, &[(0, 1, 4.0), (2, 2, 1.0)]);
        c.reset_to_order(2);
        assert_eq!(c, CommMatrix::zeros(2));
    }

    #[test]
    fn for_each_nonzero_visits_the_nonzero_entries_in_row_major_order() {
        let entries = |m: &CommMatrix| {
            let mut seen = Vec::new();
            m.for_each_nonzero(|i, j, v| seen.push((i, j, v)));
            seen
        };
        // Order 11: a full block of eight and a partial one per row.
        let mut m =
            CommMatrix::from_edges(11, &[(10, 0, 4.0), (0, 1, 1.5), (1, 1, 2.0), (0, 9, 3.0), (10, 10, 1.0)]);
        m.set(0, 2, -0.0); // compares equal to zero: not an entry
        assert_eq!(entries(&m), vec![(0, 1, 1.5), (0, 9, 3.0), (1, 1, 2.0), (10, 0, 4.0), (10, 10, 1.0)]);
        assert!(entries(&CommMatrix::zeros(4)).is_empty());
        assert!(entries(&CommMatrix::zeros(0)).is_empty());
    }

    #[test]
    fn debug_output_is_bounded() {
        let m = CommMatrix::zeros(64);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("more rows"));
    }
}
