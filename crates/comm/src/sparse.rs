//! A row-compressed view of a communication matrix.
//!
//! The matrices placement runs on are sparse — a 9-point stencil or a
//! power-law graph at `p = 1024` has under 1 % non-zero entries — while
//! [`CommMatrix`], the public input type, is dense.  [`SparseComm`] is the
//! one scan of that dense input the placement pipeline pays, kept by the
//! matrix itself ([`CommMatrix::sparse`]) until the matrix changes: it
//! holds the non-zero entries of `M` (what aggregation and the metrics sum
//! over) and the rows of the symmetrised matrix `S = M + Mᵀ` (what grouping
//! and partitioning work on) as per-row `(column, volume)` lists in
//! increasing column order, so every inner loop costs the entries it
//! touches instead of `p`.
//!
//! # Why sums over the view are bit-identical to sums over the matrix
//!
//! Volumes are non-negative.  Every consumer accumulates ordered sums that
//! start at `0.0`; adding an exact `0.0` to such an accumulator returns it
//! unchanged, so leaving the zero entries out while keeping the remaining
//! terms in their original (increasing-index) order produces the same bits.
//! The stored symmetrised value is the dense one as well: `S[i][j]` is
//! computed as `M[i][j] + M[j][i]`, and where one side is absent the other
//! is stored as is (`v + 0.0 == v` bit for bit for `v ≠ 0`).

use crate::matrix::CommMatrix;

/// Rows of `(column, value)` pairs, columns strictly increasing per row.
#[derive(Debug, Default, Clone)]
struct Rows {
    /// `start[i]..start[i + 1]` indexes row `i` in `entries`.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Rows {
    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }
}

/// The sparse view of one [`CommMatrix`]; see the [module docs](self).
///
/// Rebuilding ([`SparseComm::rebuild`]) reuses every buffer, so a view held
/// in a scratch structure stops allocating once it has seen its largest
/// matrix.
#[derive(Debug, Default, Clone)]
pub struct SparseComm {
    order: usize,
    /// The non-zero entries of `M`.
    directed: Rows,
    /// The non-zero pattern of `M + Mᵀ` with the summed volumes.
    sym: Rows,
    /// Build scratch: `Mᵀ`, whose row `i` is column `i` of `M`.
    transposed: Rows,
}

impl SparseComm {
    /// Builds a view of `m` to keep: the transpose used to build it is
    /// freed and the rows are trimmed to their length.  Readers get the
    /// matrix's own view from [`CommMatrix::sparse`].
    pub fn from_dense(m: &CommMatrix) -> Self {
        let mut view = SparseComm::default();
        view.rebuild(m);
        view.transposed = Rows::default();
        view.directed.entries.shrink_to_fit();
        view.sym.entries.shrink_to_fit();
        view
    }

    /// Re-points this view at `m`: one pass over the dense entries, then
    /// work proportional to the non-zeros.
    pub fn rebuild(&mut self, m: &CommMatrix) {
        let p = m.order();
        self.order = p;

        let d = &mut self.directed;
        d.entries.clear();
        d.start.clear();
        d.start.resize(p + 1, 0);
        m.for_each_nonzero(|i, j, v| {
            d.start[i + 1] += 1;
            d.entries.push((j, v));
        });
        for i in 0..p {
            d.start[i + 1] += d.start[i];
        }

        // Transpose by counting sort.  Entries arrive in increasing source
        // row, so every transposed row comes out sorted by column.
        let t = &mut self.transposed;
        t.start.clear();
        t.start.resize(p + 1, 0);
        for &(j, _) in &d.entries {
            t.start[j + 1] += 1;
        }
        for j in 0..p {
            t.start[j + 1] += t.start[j];
        }
        t.entries.clear();
        t.entries.resize(d.entries.len(), (0, 0.0));
        for i in 0..p {
            for &(j, v) in d.row(i) {
                // `start[j]` doubles as row `j`'s write cursor ...
                t.entries[t.start[j]] = (i, v);
                t.start[j] += 1;
            }
        }
        // ... which leaves every start one row ahead: shift them back.
        t.start.copy_within(0..p, 1);
        t.start[0] = 0;

        // S = M + Mᵀ: merge row i of M with row i of Mᵀ.  Both together
        // bound its length, so a fresh view allocates it once.
        let s = &mut self.sym;
        s.entries.clear();
        s.entries.reserve(2 * d.entries.len());
        s.start.clear();
        s.start.reserve(p + 1);
        s.start.push(0);
        for i in 0..p {
            let (out, into) = (d.row(i), t.row(i));
            let (mut a, mut b) = (0, 0);
            while a < out.len() || b < into.len() {
                let (out_col, out_val) = out.get(a).copied().unwrap_or((usize::MAX, 0.0));
                let (in_col, in_val) = into.get(b).copied().unwrap_or((usize::MAX, 0.0));
                let entry = match out_col.cmp(&in_col) {
                    std::cmp::Ordering::Less => (out_col, out_val),
                    std::cmp::Ordering::Greater => (in_col, in_val),
                    std::cmp::Ordering::Equal => (out_col, out_val + in_val),
                };
                a += usize::from(out_col <= in_col);
                b += usize::from(in_col <= out_col);
                s.entries.push(entry);
            }
            s.start.push(s.entries.len());
        }
    }

    /// Number of rows (= columns) of the viewed matrix.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Calls `f(src, dst, volume)` for every non-zero entry of `M`, in
    /// row-major order — the same sequence as
    /// [`CommMatrix::for_each_nonzero`].
    pub(crate) fn for_each_nonzero(&self, mut f: impl FnMut(usize, usize, f64)) {
        for i in 0..self.order {
            for &(j, v) in self.directed.row(i) {
                f(i, j, v);
            }
        }
    }

    /// Row `i` of `S = M + Mᵀ`: its non-zero `(column, volume)` pairs in
    /// increasing column order.  `S` is symmetric bit for bit (IEEE addition
    /// commutes), so this is column `i` as well.
    pub fn sym_row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.sym.row(i).iter().copied()
    }

    /// Entry `S[i][j]` of the symmetrised matrix (`0.0` where the view holds
    /// no entry), by binary search in row `i`.
    pub fn sym_get(&self, i: usize, j: usize) -> f64 {
        let row = self.sym.row(i);
        row.binary_search_by_key(&j, |&(col, _)| col).map_or(0.0, |k| row[k].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    /// The view reproduces the dense matrix and its dense symmetrisation
    /// entry for entry, bit for bit, with nothing stored for zeros.
    fn assert_view_matches(m: &CommMatrix) {
        let view = SparseComm::from_dense(m);
        let p = m.order();
        assert_eq!(view.order(), p);
        assert_eq!(entries_of_view(&view), entries_of(m));
        let s = m.symmetrized();
        for i in 0..p {
            let row: Vec<(usize, f64)> = view.sym_row(i).collect();
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row {i} columns must increase");
            for j in 0..p {
                assert_eq!(view.sym_get(i, j).to_bits(), s.get(i, j).to_bits(), "S[{i}][{j}]");
                let listed = row.iter().any(|&(c, _)| c == j);
                assert_eq!(listed, m.get(i, j) != 0.0 || m.get(j, i) != 0.0, "pattern at ({i}, {j})");
            }
        }
    }

    fn entries_of(m: &CommMatrix) -> Vec<(usize, usize, f64)> {
        let mut seen = Vec::new();
        m.for_each_nonzero(|i, j, v| seen.push((i, j, v)));
        seen
    }

    fn entries_of_view(view: &SparseComm) -> Vec<(usize, usize, f64)> {
        let mut seen = Vec::new();
        view.for_each_nonzero(|i, j, v| seen.push((i, j, v)));
        seen
    }

    #[test]
    fn view_matches_dense_on_the_shapes_that_matter() {
        assert_view_matches(&CommMatrix::zeros(0));
        assert_view_matches(&CommMatrix::zeros(5));
        assert_view_matches(&patterns::all_to_all(6, 3.0));
        assert_view_matches(&patterns::random_symmetric(17, 0.3, 123.456, 5));
        assert_view_matches(&patterns::power_law(40, 3, 1.0e6, 9));
        // Asymmetric entries, a non-zero diagonal, an empty row and column.
        let m = CommMatrix::from_edges(5, &[(0, 1, 4.0), (1, 0, 0.1), (3, 0, 0.2), (2, 2, 7.0), (0, 3, 0.7)]);
        assert_view_matches(&m);
    }

    #[test]
    fn rebuild_reuses_a_view_across_orders() {
        let mut view = SparseComm::from_dense(&patterns::all_to_all(9, 1.0));
        let small = patterns::chain(4, 2.0);
        view.rebuild(&small);
        assert_eq!(view.order(), 4);
        assert_eq!(entries_of_view(&view), entries_of(&small));
        assert_eq!(view.sym_row(3).collect::<Vec<_>>(), vec![(2, 4.0)]);
    }
}
