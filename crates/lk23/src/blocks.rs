//! Block decomposition of the LK23 grid.
//!
//! The ORWL implementation of the paper decomposes the matrix into blocks;
//! each block has one *main* operation performing the computation and eight
//! *frontier* sub-operations exporting its edges and corners to the
//! neighbouring blocks.  This module provides the decomposition geometry,
//! the per-pair communication volumes, and [`BlockView`] — a block's local
//! storage with a one-cell ghost ring used by the ORWL implementation.

use crate::kernel::{relax_row, Coefficients, Grid};
use orwl_comm::matrix::CommMatrix;
use std::ops::Range;
use std::sync::Arc;

/// The eight neighbour directions of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Direction {
    /// Row above.
    North,
    /// Row below.
    South,
    /// Column to the right.
    East,
    /// Column to the left.
    West,
    /// Upper-right corner.
    NorthEast,
    /// Upper-left corner.
    NorthWest,
    /// Lower-right corner.
    SouthEast,
    /// Lower-left corner.
    SouthWest,
}

impl Direction {
    /// All eight directions, edges first.
    pub(crate) fn all() -> [Direction; 8] {
        [
            Direction::North,
            Direction::South,
            Direction::East,
            Direction::West,
            Direction::NorthEast,
            Direction::NorthWest,
            Direction::SouthEast,
            Direction::SouthWest,
        ]
    }

    /// The `(row, col)` offset of the neighbouring block in this direction.
    pub(crate) fn offset(self) -> (isize, isize) {
        match self {
            Direction::North => (-1, 0),
            Direction::South => (1, 0),
            Direction::East => (0, 1),
            Direction::West => (0, -1),
            Direction::NorthEast => (-1, 1),
            Direction::NorthWest => (-1, -1),
            Direction::SouthEast => (1, 1),
            Direction::SouthWest => (1, -1),
        }
    }

    /// The direction a neighbour uses to refer back to this block.
    pub(crate) fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::NorthEast => Direction::SouthWest,
            Direction::NorthWest => Direction::SouthEast,
            Direction::SouthEast => Direction::NorthWest,
            Direction::SouthWest => Direction::NorthEast,
        }
    }

    /// True for the four corner directions.
    pub(crate) fn is_corner(self) -> bool {
        matches!(
            self,
            Direction::NorthEast | Direction::NorthWest | Direction::SouthEast | Direction::SouthWest
        )
    }
}

/// Geometry of a block decomposition of a `grid_rows × grid_cols` grid into
/// `blocks_r × blocks_c` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDecomposition {
    /// Grid rows.
    pub grid_rows: usize,
    /// Grid columns.
    pub grid_cols: usize,
    /// Blocks per column of blocks (vertical count).
    pub blocks_r: usize,
    /// Blocks per row of blocks (horizontal count).
    pub blocks_c: usize,
}

impl BlockDecomposition {
    /// Creates a decomposition; block sizes need not divide evenly (trailing
    /// blocks absorb the remainder).
    ///
    /// # Errors
    /// Fails when any dimension is zero or there are more blocks than rows
    /// or columns.
    pub fn new(grid_rows: usize, grid_cols: usize, blocks_r: usize, blocks_c: usize) -> Result<Self, String> {
        if grid_rows == 0 || grid_cols == 0 || blocks_r == 0 || blocks_c == 0 {
            return Err("all dimensions must be non-zero".to_string());
        }
        if blocks_r > grid_rows || blocks_c > grid_cols {
            return Err(format!(
                "cannot split a {grid_rows}x{grid_cols} grid into {blocks_r}x{blocks_c} blocks"
            ));
        }
        Ok(BlockDecomposition { grid_rows, grid_cols, blocks_r, blocks_c })
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks_r * self.blocks_c
    }

    /// Linear index of block `(bi, bj)`.
    pub(crate) fn block_index(&self, bi: usize, bj: usize) -> usize {
        bi * self.blocks_c + bj
    }

    /// Block coordinates of a linear index.
    pub(crate) fn block_coords(&self, idx: usize) -> (usize, usize) {
        (idx / self.blocks_c, idx % self.blocks_c)
    }

    /// Global row range of block row `bi`.
    pub(crate) fn row_range(&self, bi: usize) -> Range<usize> {
        split_range(self.grid_rows, self.blocks_r, bi)
    }

    /// Global column range of block column `bj`.
    pub(crate) fn col_range(&self, bj: usize) -> Range<usize> {
        split_range(self.grid_cols, self.blocks_c, bj)
    }

    /// The neighbour of block `idx` in the given direction, if it exists.
    pub(crate) fn neighbor(&self, idx: usize, dir: Direction) -> Option<usize> {
        let (bi, bj) = self.block_coords(idx);
        let (dr, dc) = dir.offset();
        let ni = bi as isize + dr;
        let nj = bj as isize + dc;
        if ni < 0 || nj < 0 || ni >= self.blocks_r as isize || nj >= self.blocks_c as isize {
            None
        } else {
            Some(self.block_index(ni as usize, nj as usize))
        }
    }

    /// The block × block communication matrix: for every pair of adjacent
    /// blocks, the number of bytes of halo data exchanged per iteration
    /// (edge length × `elem_bytes` for edge neighbours, `elem_bytes` for
    /// corner neighbours) — exactly the matrix the ORWL runtime derives from
    /// the frontier locations.
    pub fn comm_matrix(&self, elem_bytes: usize) -> CommMatrix {
        let n = self.n_blocks();
        let mut m = CommMatrix::zeros(n);
        for idx in 0..n {
            let (bi, bj) = self.block_coords(idx);
            let rows = self.row_range(bi).len();
            let cols = self.col_range(bj).len();
            for dir in Direction::all() {
                if let Some(other) = self.neighbor(idx, dir) {
                    let bytes = if dir.is_corner() {
                        elem_bytes as f64
                    } else {
                        match dir {
                            Direction::North | Direction::South => cols as f64 * elem_bytes as f64,
                            _ => rows as f64 * elem_bytes as f64,
                        }
                    };
                    m.add(idx, other, bytes);
                }
            }
        }
        m
    }
}

fn split_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    let base = total / parts;
    let rem = total % parts;
    // The first `rem` parts get one extra element.
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..start + len
}

/// A block's local storage: the interior cells plus a one-cell ghost ring
/// holding the neighbours' frontier data, and the block's coefficient
/// fields (built once, shared by every clone — the task's double buffers).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockView {
    /// Global row of the first interior cell.
    pub row0: usize,
    /// Global column of the first interior cell.
    pub col0: usize,
    /// Interior rows.
    pub rows: usize,
    /// Interior columns.
    pub cols: usize,
    /// `(rows + 2) × (cols + 2)` storage including the ghost ring.
    data: Vec<f64>,
    /// The coefficient fields of the `rows × cols` interior.
    coeffs: Arc<Coefficients>,
}

impl BlockView {
    /// Extracts a block (without ghost data) from a full grid.
    pub fn from_grid(grid: &Grid, row_range: Range<usize>, col_range: Range<usize>) -> Self {
        let rows = row_range.len();
        let cols = col_range.len();
        let mut view = BlockView {
            row0: row_range.start,
            col0: col_range.start,
            rows,
            cols,
            data: vec![0.0; (rows + 2) * (cols + 2)],
            coeffs: Arc::new(Coefficients::new(row_range.clone(), col_range.clone())),
        };
        for (lr, gr) in row_range.clone().enumerate() {
            for (lc, gc) in col_range.clone().enumerate() {
                view.set_interior(lr, lc, grid.get(gr, gc));
            }
        }
        view
    }

    #[inline]
    fn idx(&self, padded_r: usize, padded_c: usize) -> usize {
        padded_r * (self.cols + 2) + padded_c
    }

    /// Interior cell accessor (`r` in `0..rows`, `c` in `0..cols`).
    #[inline]
    pub(crate) fn interior(&self, r: usize, c: usize) -> f64 {
        self.data[self.idx(r + 1, c + 1)]
    }

    /// Interior cell mutator.
    #[inline]
    pub(crate) fn set_interior(&mut self, r: usize, c: usize, v: f64) {
        let i = self.idx(r + 1, c + 1);
        self.data[i] = v;
    }

    /// The block's own frontier values in a direction: the outermost
    /// interior row/column (edges) or cell (corners), in increasing
    /// row/column order.  This is what the block *exports* to its
    /// neighbours.
    pub(crate) fn edge(&self, dir: Direction) -> Vec<f64> {
        let mut out = Vec::new();
        self.edge_into(dir, &mut out);
        out
    }

    /// [`edge`](Self::edge) written into `out`, reusing its allocation.
    pub(crate) fn edge_into(&self, dir: Direction, out: &mut Vec<f64>) {
        let (last_r, last_c) = (self.rows - 1, self.cols - 1);
        out.clear();
        match dir {
            Direction::North => out.extend((0..self.cols).map(|c| self.interior(0, c))),
            Direction::South => out.extend((0..self.cols).map(|c| self.interior(last_r, c))),
            Direction::West => out.extend((0..self.rows).map(|r| self.interior(r, 0))),
            Direction::East => out.extend((0..self.rows).map(|r| self.interior(r, last_c))),
            Direction::NorthWest => out.push(self.interior(0, 0)),
            Direction::NorthEast => out.push(self.interior(0, last_c)),
            Direction::SouthWest => out.push(self.interior(last_r, 0)),
            Direction::SouthEast => out.push(self.interior(last_r, last_c)),
        }
    }

    /// Installs the frontier received from the neighbour in direction `dir`
    /// into the ghost ring.
    ///
    /// # Panics
    /// Panics when the slice length does not match the edge length
    /// (edges: `cols`/`rows` elements, corners: 1 element).
    pub(crate) fn set_ghost(&mut self, dir: Direction, values: &[f64]) {
        match dir {
            Direction::North => {
                assert_eq!(values.len(), self.cols);
                for (c, &v) in values.iter().enumerate() {
                    let i = self.idx(0, c + 1);
                    self.data[i] = v;
                }
            }
            Direction::South => {
                assert_eq!(values.len(), self.cols);
                for (c, &v) in values.iter().enumerate() {
                    let i = self.idx(self.rows + 1, c + 1);
                    self.data[i] = v;
                }
            }
            Direction::West => {
                assert_eq!(values.len(), self.rows);
                for (r, &v) in values.iter().enumerate() {
                    let i = self.idx(r + 1, 0);
                    self.data[i] = v;
                }
            }
            Direction::East => {
                assert_eq!(values.len(), self.rows);
                for (r, &v) in values.iter().enumerate() {
                    let i = self.idx(r + 1, self.cols + 1);
                    self.data[i] = v;
                }
            }
            Direction::NorthWest => {
                assert_eq!(values.len(), 1);
                let i = self.idx(0, 0);
                self.data[i] = values[0];
            }
            Direction::NorthEast => {
                assert_eq!(values.len(), 1);
                let i = self.idx(0, self.cols + 1);
                self.data[i] = values[0];
            }
            Direction::SouthWest => {
                assert_eq!(values.len(), 1);
                let i = self.idx(self.rows + 1, 0);
                self.data[i] = values[0];
            }
            Direction::SouthEast => {
                assert_eq!(values.len(), 1);
                let i = self.idx(self.rows + 1, self.cols + 1);
                self.data[i] = values[0];
            }
        }
    }

    /// Computes one Jacobi LK23 update of this block into `dst`, using the
    /// ghost ring for out-of-block neighbours.  Cells on the *global* grid
    /// boundary keep their value (same rule as the sequential reference).
    pub fn update_into(&self, dst: &mut BlockView, grid_rows: usize, grid_cols: usize) {
        assert_eq!(self.rows, dst.rows);
        assert_eq!(self.cols, dst.cols);
        let w = self.cols + 2;
        // Padded columns `lo..hi` of a row are off the global boundary.
        let lo = 1 + usize::from(self.col0 == 0);
        let hi = (1 + self.cols - usize::from(self.col0 + self.cols >= grid_cols)).max(lo);
        for r in 1..=self.rows {
            let here = &self.data[r * w..(r + 1) * w];
            let out = &mut dst.data[r * w..(r + 1) * w];
            let global_row = self.row0 + r - 1;
            if global_row == 0 || global_row + 1 >= grid_rows {
                out[1..=self.cols].copy_from_slice(&here[1..=self.cols]);
                continue;
            }
            out[1..lo].copy_from_slice(&here[1..lo]);
            out[hi..=self.cols].copy_from_slice(&here[hi..=self.cols]);
            let north = &self.data[(r - 1) * w + lo..];
            let south = &self.data[(r + 1) * w + lo..];
            relax_row(
                &mut out[lo..hi],
                north,
                &here[lo - 1..],
                south,
                self.coeffs.row(r - 1, lo - 1..hi - 1),
            );
        }
    }

    /// Copies the interior back into the full grid.
    pub fn write_back(&self, grid: &mut Grid) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                grid.set(self.row0 + r, self.col0 + c, self.interior(r, c));
            }
        }
    }

    /// Bytes of one edge exchange in a direction (`f64` elements).
    pub(crate) fn edge_bytes(&self, dir: Direction) -> f64 {
        let len = match dir {
            Direction::North | Direction::South => self.cols,
            Direction::East | Direction::West => self.rows,
            _ => 1,
        };
        (len * std::mem::size_of::<f64>()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{reference_jacobi, Grid};

    #[test]
    fn directions_have_consistent_opposites() {
        for dir in Direction::all() {
            assert_eq!(dir.opposite().opposite(), dir);
            let (dr, dc) = dir.offset();
            let (or, oc) = dir.opposite().offset();
            assert_eq!((dr + or, dc + oc), (0, 0));
        }
        assert!(Direction::NorthEast.is_corner());
        assert!(!Direction::North.is_corner());
    }

    #[test]
    fn decomposition_geometry_even_split() {
        let d = BlockDecomposition::new(16, 16, 4, 4).unwrap();
        assert_eq!(d.n_blocks(), 16);
        assert_eq!(d.row_range(0), 0..4);
        assert_eq!(d.row_range(3), 12..16);
        assert_eq!(d.block_index(2, 3), 11);
        assert_eq!(d.block_coords(11), (2, 3));
    }

    #[test]
    fn decomposition_geometry_uneven_split() {
        let d = BlockDecomposition::new(10, 7, 3, 2).unwrap();
        // Rows: 10 = 4 + 3 + 3, Cols: 7 = 4 + 3.
        assert_eq!(d.row_range(0), 0..4);
        assert_eq!(d.row_range(1), 4..7);
        assert_eq!(d.row_range(2), 7..10);
        assert_eq!(d.col_range(0), 0..4);
        assert_eq!(d.col_range(1), 4..7);
        // Ranges tile the grid exactly.
        let total: usize = (0..3).map(|bi| d.row_range(bi).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn decomposition_rejects_degenerate_inputs() {
        assert!(BlockDecomposition::new(0, 8, 2, 2).is_err());
        assert!(BlockDecomposition::new(8, 8, 0, 2).is_err());
        assert!(BlockDecomposition::new(8, 8, 9, 2).is_err());
    }

    #[test]
    fn neighbors_respect_grid_borders() {
        let d = BlockDecomposition::new(12, 12, 3, 3).unwrap();
        let center = d.block_index(1, 1);
        for dir in Direction::all() {
            assert!(d.neighbor(center, dir).is_some());
        }
        let corner = d.block_index(0, 0);
        assert_eq!(d.neighbor(corner, Direction::North), None);
        assert_eq!(d.neighbor(corner, Direction::West), None);
        assert_eq!(d.neighbor(corner, Direction::NorthWest), None);
        assert_eq!(d.neighbor(corner, Direction::South), Some(d.block_index(1, 0)));
        assert_eq!(d.neighbor(corner, Direction::SouthEast), Some(d.block_index(1, 1)));
    }

    #[test]
    fn comm_matrix_matches_stencil_pattern() {
        let d = BlockDecomposition::new(64, 64, 4, 4).unwrap();
        let m = d.comm_matrix(8);
        // Matches the generic 9-point stencil generator for square blocks.
        let spec = orwl_comm::patterns::StencilSpec::nine_point_blocks(4, 16, 8);
        let expected = orwl_comm::patterns::stencil_2d(&spec);
        assert_eq!(m, expected);
        // No block is its own neighbour: the task graph's diagonal filter
        // drops nothing.
        assert!((0..d.n_blocks()).all(|b| m.get(b, b) == 0.0));
    }

    #[test]
    fn block_view_roundtrips_grid_data() {
        let grid = Grid::initial(12, 12);
        let d = BlockDecomposition::new(12, 12, 3, 3).unwrap();
        let mut reconstructed = Grid::zeros(12, 12);
        for idx in 0..d.n_blocks() {
            let (bi, bj) = d.block_coords(idx);
            let view = BlockView::from_grid(&grid, d.row_range(bi), d.col_range(bj));
            view.write_back(&mut reconstructed);
        }
        assert_eq!(reconstructed.max_abs_diff(&grid), 0.0);
    }

    #[test]
    fn edges_and_ghosts_have_matching_shapes() {
        let grid = Grid::initial(8, 12);
        let view = BlockView::from_grid(&grid, 0..4, 0..6);
        assert_eq!(view.edge(Direction::North).len(), 6);
        assert_eq!(view.edge(Direction::East).len(), 4);
        assert_eq!(view.edge(Direction::SouthEast).len(), 1);
        assert_eq!(view.edge_bytes(Direction::North), 48.0);
        assert_eq!(view.edge_bytes(Direction::NorthWest), 8.0);
        let mut other = BlockView::from_grid(&grid, 4..8, 0..6);
        // The south edge of the top block becomes the north ghost of the
        // bottom block.
        other.set_ghost(Direction::North, &view.edge(Direction::South));
        assert_eq!(other.data[1], view.interior(3, 0));
    }

    #[test]
    #[should_panic]
    fn ghost_with_wrong_length_panics() {
        let grid = Grid::initial(8, 8);
        let mut view = BlockView::from_grid(&grid, 0..4, 0..4);
        view.set_ghost(Direction::North, &[1.0, 2.0]);
    }

    #[test]
    fn blocked_update_matches_sequential_reference_one_iteration() {
        // Decompose, exchange ghosts once, update every block, reassemble:
        // must equal one sequential Jacobi sweep exactly.
        let n = 24;
        let grid = Grid::initial(n, n);
        let d = BlockDecomposition::new(n, n, 3, 4).unwrap();
        let mut views: Vec<BlockView> = (0..d.n_blocks())
            .map(|idx| {
                let (bi, bj) = d.block_coords(idx);
                BlockView::from_grid(&grid, d.row_range(bi), d.col_range(bj))
            })
            .collect();
        // Halo exchange.
        let snapshots = views.clone();
        for (idx, view) in views.iter_mut().enumerate() {
            for dir in Direction::all() {
                if let Some(nb) = d.neighbor(idx, dir) {
                    let values = snapshots[nb].edge(dir.opposite());
                    view.set_ghost(dir, &values);
                }
            }
        }
        // Update and reassemble.
        let mut result = Grid::zeros(n, n);
        for view in &views {
            let mut dst = view.clone();
            view.update_into(&mut dst, n, n);
            dst.write_back(&mut result);
        }
        let reference = reference_jacobi(&grid, 1);
        assert_eq!(result.max_abs_diff(&reference), 0.0);
    }
}
