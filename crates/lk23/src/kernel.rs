//! The Livermore Kernel 23: a 2-D implicit hydrodynamics fragment.
//!
//! The original LINPACK loop is
//!
//! ```text
//! DO 23 j = 2,6
//!   DO 23 k = 2,n
//!     QA = ZA(k,j+1)*ZR(k,j) + ZA(k,j-1)*ZB(k,j)
//!        + ZA(k+1,j)*ZU(k,j) + ZA(k-1,j)*ZV(k,j) + ZZ(k,j)
//! 23  ZA(k,j) = ZA(k,j) + 0.175*(QA - ZA(k,j))
//! ```
//!
//! i.e. a 5-point implicit relaxation of the `ZA` field with per-point
//! coefficients.  The original loop updates in place (each point sees its
//! already-updated west/north neighbours); `sweep_jacobi` is the
//! double-buffered variant the parallel implementations use, whose result is
//! independent of the update order and therefore lets the block-decomposed
//! ORWL and OpenMP-like versions be verified bit-for-bit against the
//! sequential reference.
//!
//! The coefficient fields `ZR`, `ZB`, `ZU`, `ZV`, `ZZ` come from a
//! deterministic closed form (`coeff`) and, as in the original loop, are read
//! from arrays: a `Coefficients` store evaluates them once per grid (the
//! sequential reference, the OpenMP-like baseline) or once per block (the
//! ORWL tasks), at 5 × 8 = 40 bytes per point of its window.  The
//! 16384×16384 configuration of the paper is only a *workload description*
//! (`sim_model`) and allocates no store.  Every implementation updates rows
//! through the one `relax_row`, which computes each point's operands in
//! the same order as the closed form does; Rust does not contract into FMA,
//! so all of them agree bit for bit.

use std::ops::Range;

/// Relaxation factor of the kernel (0.175 in the original loop).
pub(crate) const RELAXATION: f64 = 0.175;

/// Deterministic coefficient fields.  `field` selects ZR/ZB/ZU/ZV/ZZ by
/// index 0..=4; the values are smooth, O(1) and distinct per field so the
/// computation does not degenerate.
#[inline]
pub(crate) fn coeff(field: usize, row: usize, col: usize) -> f64 {
    let r = row as f64;
    let c = col as f64;
    match field {
        0 => 0.20 + 0.05 * ((r * 0.013).sin() * (c * 0.017).cos()),
        1 => 0.20 + 0.05 * ((r * 0.011).cos() * (c * 0.019).sin()),
        2 => 0.20 + 0.05 * ((r * 0.007).sin() + (c * 0.003).sin()) * 0.5,
        3 => 0.20 + 0.05 * ((r * 0.005).cos() + (c * 0.009).cos()) * 0.5,
        _ => 0.01 * ((r + 2.0 * c) * 0.001).sin(),
    }
}

/// The five coefficient fields over a `rows × cols` window of the grid, one
/// row-major plane per field, evaluated once from [`coeff`].
#[derive(Debug, PartialEq)]
pub(crate) struct Coefficients {
    cols: usize,
    planes: [Vec<f64>; 5],
}

impl Coefficients {
    /// The fields of the window `rows × cols` (global coordinates).
    pub(crate) fn new(rows: Range<usize>, cols: Range<usize>) -> Self {
        let planes = std::array::from_fn(|field| {
            rows.clone().flat_map(|r| cols.clone().map(move |c| coeff(field, r, c))).collect()
        });
        Coefficients { cols: cols.len(), planes }
    }

    /// The fields of window row `r` over the window columns `span`.
    pub(crate) fn row(&self, r: usize, span: Range<usize>) -> [&[f64]; 5] {
        let at = r * self.cols;
        self.planes.each_ref().map(|plane| &plane[at + span.start..at + span.end])
    }
}

/// The LK23 update of one row segment: `out[i]` is the point whose west,
/// centre and east neighbours are `here[i..i + 3]` and whose north and south
/// neighbours are `north[i]` and `south[i]`; `k` holds its five fields.
/// Callers copy the global-boundary cells themselves.
#[inline]
pub(crate) fn relax_row(out: &mut [f64], north: &[f64], here: &[f64], south: &[f64], k: [&[f64]; 5]) {
    let n = out.len();
    let (north, here, south) = (&north[..n], &here[..n + 2], &south[..n]);
    let [zr, zb, zu, zv, zz] = k.map(|field| &field[..n]);
    for i in 0..n {
        let qa = here[i + 2] * zr[i] + here[i] * zb[i] + south[i] * zu[i] + north[i] * zv[i] + zz[i];
        let za = here[i + 1];
        out[i] = za + RELAXATION * (qa - za);
    }
}

/// A dense `rows × cols` grid of doubles (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Grid {
    /// Creates a grid filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Grid { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the canonical LK23 initial condition: a smooth deterministic
    /// field, identical for every implementation.
    pub fn initial(rows: usize, cols: usize) -> Self {
        let mut g = Grid::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                g.set(r, c, 1.0 + 0.1 * ((r as f64) * 0.02).sin() + 0.1 * ((c as f64) * 0.03).cos());
            }
        }
        g
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    #[inline]
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize, v: f64) {
        self.data[row * self.cols + col] = v;
    }

    /// Raw row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum absolute difference with another grid of identical shape.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn max_abs_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.rows, other.rows, "grid row mismatch");
        assert_eq!(self.cols, other.cols, "grid column mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// One double-buffered (Jacobi-style) sweep of the rows `row0..` that
/// `band` holds (row-major, `src.cols()` wide), reading `src`; `k` covers the
/// whole grid.  Cells on the grid boundary are copied unchanged.
pub(crate) fn sweep_jacobi(src: &Grid, band: &mut [f64], row0: usize, k: &Coefficients) {
    let (rows, cols) = (src.rows, src.cols);
    // `max(1)`: a zero-width grid has an empty band and no chunk.
    for (r, out) in (row0..).zip(band.chunks_mut(cols.max(1))) {
        let here = &src.data[r * cols..(r + 1) * cols];
        if r == 0 || r + 1 >= rows || cols < 3 {
            out.copy_from_slice(here);
            continue;
        }
        out[0] = here[0];
        out[cols - 1] = here[cols - 1];
        let north = &src.data[(r - 1) * cols + 1..];
        let south = &src.data[(r + 1) * cols + 1..];
        relax_row(&mut out[1..cols - 1], north, here, south, k.row(r, 1..cols - 1));
    }
}

/// Runs `iterations` Jacobi sweeps sequentially and returns the final grid —
/// the reference every parallel implementation is verified against.
pub fn reference_jacobi(initial: &Grid, iterations: usize) -> Grid {
    let k = Coefficients::new(0..initial.rows(), 0..initial.cols());
    let mut a = initial.clone();
    let mut b = Grid::zeros(initial.rows(), initial.cols());
    for _ in 0..iterations {
        sweep_jacobi(&a, &mut b.data, 0, &k);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockDecomposition;
    use crate::openmp_like::run_openmp_like;
    use crate::orwl_impl::run_orwl;
    use orwl_core::prelude::*;

    /// The closed form every implementation must reproduce: one interior
    /// point, its coefficients evaluated on the spot.
    fn update_point(read: &Grid, row: usize, col: usize) -> f64 {
        let qa = read.get(row, col + 1) * coeff(0, row, col)
            + read.get(row, col - 1) * coeff(1, row, col)
            + read.get(row + 1, col) * coeff(2, row, col)
            + read.get(row - 1, col) * coeff(3, row, col)
            + coeff(4, row, col);
        let za = read.get(row, col);
        za + RELAXATION * (qa - za)
    }

    /// `iterations` Jacobi sweeps of [`update_point`], boundary cells kept.
    fn oracle_jacobi(initial: &Grid, iterations: usize) -> Grid {
        let mut a = initial.clone();
        for _ in 0..iterations {
            let mut b = a.clone();
            for r in 1..a.rows() - 1 {
                for c in 1..a.cols() - 1 {
                    b.set(r, c, update_point(&a, r, c));
                }
            }
            a = b;
        }
        a
    }

    /// The first cell whose bits differ: `(row, col, got, want)`.
    fn first_diff(got: &Grid, want: &Grid) -> Option<(usize, usize, f64, f64)> {
        let at = got.as_slice().iter().zip(want.as_slice()).position(|(g, w)| g.to_bits() != w.to_bits())?;
        Some((at / want.cols(), at % want.cols(), got.as_slice()[at], want.as_slice()[at]))
    }

    #[test]
    fn every_implementation_equals_the_closed_form_bit_for_bit() {
        let session = Session::builder()
            .topology(orwl_topo::synthetic::laptop())
            .policy(Policy::NoBind)
            .backend(ThreadBackend)
            .build()
            .unwrap();
        for (rows, cols) in [(37, 29), (64, 64)] {
            let g0 = Grid::initial(rows, cols);
            let want = oracle_jacobi(&g0, 6);
            assert_eq!(first_diff(&reference_jacobi(&g0, 6), &want), None, "reference, {rows}x{cols}");
            for threads in [1, 2, 3, 7] {
                let got = run_openmp_like(&g0, 6, threads);
                assert_eq!(first_diff(&got, &want), None, "openmp-like x{threads}, {rows}x{cols}");
            }
            for (br, bc) in [(1, 1), (3, 4), (4, 4)] {
                let d = BlockDecomposition::new(rows, cols, br, bc).unwrap();
                let (got, _) = run_orwl(&g0, d, 6, &session).unwrap();
                assert_eq!(first_diff(&got, &want), None, "orwl {br}x{bc} blocks, {rows}x{cols}");
            }
        }
    }

    #[test]
    fn grid_accessors_roundtrip() {
        let mut g = Grid::zeros(4, 6);
        assert_eq!(g.rows(), 4);
        assert_eq!(g.cols(), 6);
        g.set(2, 5, 3.25);
        assert_eq!(g.get(2, 5), 3.25);
        assert_eq!(g.as_slice().len(), 24);
        g.as_mut_slice()[0] = 1.0;
        assert_eq!(g.get(0, 0), 1.0);
    }

    #[test]
    fn initial_condition_is_deterministic_and_nontrivial() {
        let a = Grid::initial(16, 16);
        let b = Grid::initial(16, 16);
        assert_eq!(a, b);
        // Not constant: at least two different values.
        let first = a.get(0, 0);
        assert!(a.as_slice().iter().any(|&v| (v - first).abs() > 1e-9));
    }

    #[test]
    fn coefficients_are_bounded_and_field_dependent() {
        for field in 0..5 {
            for &(r, c) in &[(0usize, 0usize), (7, 3), (100, 200), (16383, 16383)] {
                let v = coeff(field, r, c);
                assert!(v.abs() < 1.0, "field {field} at ({r},{c}) = {v}");
            }
        }
        assert_ne!(coeff(0, 5, 5), coeff(1, 5, 5));
    }

    #[test]
    fn jacobi_sweep_preserves_boundary() {
        let src = Grid::initial(8, 8);
        let mut dst = Grid::zeros(8, 8);
        sweep_jacobi(&src, &mut dst.data, 0, &Coefficients::new(0..8, 0..8));
        for i in 0..8 {
            assert_eq!(dst.get(0, i), src.get(0, i));
            assert_eq!(dst.get(7, i), src.get(7, i));
            assert_eq!(dst.get(i, 0), src.get(i, 0));
            assert_eq!(dst.get(i, 7), src.get(i, 7));
        }
        // Interior did change.
        assert!(dst.max_abs_diff(&src) > 0.0);
    }

    #[test]
    fn jacobi_iterations_converge_towards_a_fixed_point() {
        // The relaxation is a contraction for these coefficient magnitudes:
        // successive iterates get closer to each other.
        let g0 = Grid::initial(32, 32);
        let g1 = reference_jacobi(&g0, 1);
        let g5 = reference_jacobi(&g0, 5);
        let g6 = reference_jacobi(&g0, 6);
        let early_delta = g1.max_abs_diff(&g0);
        let late_delta = g6.max_abs_diff(&g5);
        assert!(late_delta < early_delta, "late {late_delta} vs early {early_delta}");
    }

    #[test]
    fn zero_iterations_returns_initial() {
        let g0 = Grid::initial(8, 8);
        assert_eq!(reference_jacobi(&g0, 0), g0);
    }

    #[test]
    fn max_abs_diff_sees_one_changed_cell() {
        let a = Grid::initial(8, 8);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(3, 3, b.get(3, 3) + 0.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn diff_of_mismatched_grids_panics() {
        Grid::zeros(4, 4).max_abs_diff(&Grid::zeros(4, 5));
    }
}
