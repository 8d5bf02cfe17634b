//! The OpenMP-style baseline: a fork-join parallel loop over rows.
//!
//! The paper compares the ORWL implementations against an OpenMP version
//! "of equivalent abstraction": a `parallel for` over the grid rows with
//! static scheduling, no topology awareness, and an implicit barrier at the
//! end of every sweep.  This module reproduces that structure with plain
//! threads: every iteration forks `n_threads` workers, hands each a
//! contiguous band of rows of the destination buffer, joins them (the
//! barrier), and swaps the buffers.
//!
//! Each worker runs the sequential reference's own sweep over its band,
//! reading the one coefficient store of the run, so the result is verified
//! to be *identical* to `reference_jacobi`.

use crate::kernel::{sweep_jacobi, Coefficients, Grid};

/// Runs `iterations` LK23 sweeps over `initial` using `n_threads` fork-join
/// workers and returns the final grid.
///
/// # Panics
/// Panics when `n_threads` is zero.
pub fn run_openmp_like(initial: &Grid, iterations: usize, n_threads: usize) -> Grid {
    assert!(n_threads > 0, "at least one worker thread is required");
    let rows = initial.rows();
    let cols = initial.cols();
    let k = Coefficients::new(0..rows, 0..cols);
    let mut src = initial.clone();
    let mut dst = Grid::zeros(rows, cols);

    for _ in 0..iterations {
        {
            // Split the destination into contiguous row bands, one per
            // worker (OpenMP static scheduling).
            let (src_ref, k) = (&src, &k);
            let bands = split_rows_mut(dst.as_mut_slice(), rows, cols, n_threads);
            std::thread::scope(|scope| {
                for (row_start, band) in bands {
                    scope.spawn(move || sweep_jacobi(src_ref, band, row_start, k));
                }
            });
            // Implicit barrier: `scope` joins every worker before returning.
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Splits a row-major buffer into up to `parts` contiguous row bands.
/// Returns `(first_row, band_slice)` pairs; bands are non-empty.
fn split_rows_mut(data: &mut [f64], rows: usize, cols: usize, parts: usize) -> Vec<(usize, &mut [f64])> {
    let parts = parts.min(rows).max(1);
    let base = rows / parts;
    let rem = rows % parts;
    let mut out = Vec::with_capacity(parts);
    let mut rest = data;
    let mut row = 0usize;
    for p in 0..parts {
        let band_rows = base + usize::from(p < rem);
        let (band, tail) = rest.split_at_mut(band_rows * cols);
        out.push((row, band));
        row += band_rows;
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::reference_jacobi;

    #[test]
    fn single_thread_matches_reference_exactly() {
        let g0 = Grid::initial(32, 32);
        let parallel = run_openmp_like(&g0, 4, 1);
        let reference = reference_jacobi(&g0, 4);
        assert_eq!(parallel.max_abs_diff(&reference), 0.0);
    }

    #[test]
    fn multi_threaded_matches_reference_exactly() {
        let g0 = Grid::initial(48, 40);
        for threads in [2, 3, 4, 7] {
            let parallel = run_openmp_like(&g0, 3, threads);
            let reference = reference_jacobi(&g0, 3);
            assert_eq!(parallel.max_abs_diff(&reference), 0.0, "mismatch with {threads} threads");
        }
    }

    #[test]
    fn more_threads_than_rows_is_handled() {
        let g0 = Grid::initial(6, 6);
        let parallel = run_openmp_like(&g0, 2, 64);
        let reference = reference_jacobi(&g0, 2);
        assert_eq!(parallel.max_abs_diff(&reference), 0.0);
    }

    #[test]
    fn zero_iterations_returns_initial_grid() {
        let g0 = Grid::initial(16, 16);
        assert_eq!(run_openmp_like(&g0, 0, 4), g0);
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        run_openmp_like(&Grid::initial(8, 8), 1, 0);
    }

    #[test]
    fn band_splitting_covers_all_rows_without_overlap() {
        let rows = 11;
        let cols = 4;
        let mut data = vec![0.0; rows * cols];
        let bands = split_rows_mut(&mut data, rows, cols, 3);
        assert_eq!(bands.len(), 3);
        let mut covered = 0;
        let mut expected_start = 0;
        for (start, band) in &bands {
            assert_eq!(*start, expected_start);
            assert_eq!(band.len() % cols, 0);
            covered += band.len() / cols;
            expected_start += band.len() / cols;
        }
        assert_eq!(covered, rows);
    }
}
