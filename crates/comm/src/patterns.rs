//! Generators for common communication patterns.
//!
//! The evaluation of the paper uses a 2-D stencil (the block-decomposed
//! Livermore Kernel 23): every block task exchanges its edges and corners
//! with its eight neighbours.  This module generates that matrix as well as
//! the classic patterns (ring, all-to-all, random, clustered) used by the
//! ablation benchmarks and the property tests.

use crate::matrix::CommMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Description of a 2-D block-stencil workload: a `rows × cols` grid of
/// tasks, each exchanging halo data with its neighbours every iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilSpec {
    /// Number of task rows in the grid.
    pub rows: usize,
    /// Number of task columns in the grid.
    pub cols: usize,
    /// Bytes exchanged with each edge-adjacent neighbour (N, S, E, W) per
    /// iteration.
    pub edge_volume: f64,
    /// Bytes exchanged with each corner-adjacent neighbour (NE, NW, SE, SW)
    /// per iteration; zero gives a 5-point stencil.
    pub corner_volume: f64,
}

impl StencilSpec {
    /// A 9-point stencil over a square grid of `side × side` tasks where each
    /// task owns a `block_side × block_side` tile of `elem_bytes`-wide
    /// elements — the shape of the paper's LK23 decomposition.
    pub fn nine_point_blocks(side: usize, block_side: usize, elem_bytes: usize) -> Self {
        StencilSpec {
            rows: side,
            cols: side,
            edge_volume: (block_side * elem_bytes) as f64,
            corner_volume: elem_bytes as f64,
        }
    }

    /// Total number of tasks in the grid.
    pub fn tasks(&self) -> usize {
        self.rows * self.cols
    }

    /// Linear task index of grid cell `(r, c)` in row-major order.
    pub(crate) fn task_at(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }
}

/// Builds the task × task communication matrix of a 2-D stencil.
///
/// The matrix is symmetric by construction (halos are exchanged both ways).
pub fn stencil_2d(spec: &StencilSpec) -> CommMatrix {
    CommMatrix::filled(spec.tasks(), |m| {
        for r in 0..spec.rows {
            for c in 0..spec.cols {
                let me = spec.task_at(r, c);
                // Edge neighbours.
                let edge_offsets: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];
                for (dr, dc) in edge_offsets {
                    if let Some(other) = neighbor(spec, r, c, dr, dc) {
                        m.add(me, other, spec.edge_volume);
                    }
                }
                // Corner neighbours.
                let corner_offsets: [(isize, isize); 4] = [(-1, -1), (-1, 1), (1, -1), (1, 1)];
                for (dr, dc) in corner_offsets {
                    if let Some(other) = neighbor(spec, r, c, dr, dc) {
                        m.add(me, other, spec.corner_volume);
                    }
                }
            }
        }
    })
}

fn neighbor(spec: &StencilSpec, r: usize, c: usize, dr: isize, dc: isize) -> Option<usize> {
    let nr = r as isize + dr;
    let nc = c as isize + dc;
    if nr < 0 || nc < 0 || nr >= spec.rows as isize || nc >= spec.cols as isize {
        None
    } else {
        Some(spec.task_at(nr as usize, nc as usize))
    }
}

/// A unidirectional ring: task `i` sends `volume` bytes to task `(i+1) % n`.
pub fn ring(n: usize, volume: f64) -> CommMatrix {
    CommMatrix::filled(n, |m| {
        if n < 2 {
            return;
        }
        for i in 0..n {
            m.add(i, (i + 1) % n, volume);
        }
    })
}

/// Every task sends `volume` bytes to every other task.
pub fn all_to_all(n: usize, volume: f64) -> CommMatrix {
    CommMatrix::filled(n, |m| {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, volume);
                }
            }
        }
    })
}

/// `groups` clusters of `group_size` tasks each; tasks exchange
/// `intra_volume` with every member of their own cluster and `inter_volume`
/// with every task of the next cluster (ring of clusters).  This is the
/// classic pattern where topology-aware placement has the largest payoff.
pub fn clustered(groups: usize, group_size: usize, intra_volume: f64, inter_volume: f64) -> CommMatrix {
    CommMatrix::filled(groups * group_size, |m| {
        for g in 0..groups {
            for a in 0..group_size {
                for b in 0..group_size {
                    if a != b {
                        m.add(g * group_size + a, g * group_size + b, intra_volume);
                    }
                }
                if groups > 1 {
                    let next = (g + 1) % groups;
                    m.add(g * group_size + a, next * group_size + a, inter_volume);
                }
            }
        }
    })
}

/// A random symmetric matrix: each unordered pair gets a volume drawn
/// uniformly from `[0, max_volume)` with probability `density`.  The
/// generator is seeded so experiments are reproducible.
pub fn random_symmetric(n: usize, density: f64, max_volume: f64, seed: u64) -> CommMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    CommMatrix::filled(n, |m| {
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    let v = rng.gen::<f64>() * max_volume;
                    m.set(i, j, v);
                    m.set(j, i, v);
                }
            }
        }
    })
}

/// A *directional* stencil: east/west halos carry `horizontal` bytes per
/// iteration, north/south halos carry `vertical` bytes, diagonal halos
/// carry `spec.corner_volume` (the `edge_volume` field of `spec` is ignored
/// in favour of the explicit per-axis volumes).
///
/// Directionally-swept solvers (ADI, line relaxation, LK23-style pipelined
/// sweeps) produce exactly this shape: the halo traffic is dominated by the
/// current sweep axis.  Note that for the *uniform* stencil a 90° rotation
/// is an automorphism of the communication graph — it changes nothing — so
/// the anisotropy is what makes [`stencil_2d_rotated`] a genuine phase
/// change for the adaptive-placement evaluation.
pub fn stencil_2d_directional(spec: &StencilSpec, horizontal: f64, vertical: f64) -> CommMatrix {
    CommMatrix::filled(spec.tasks(), |m| {
        for r in 0..spec.rows {
            for c in 0..spec.cols {
                let me = spec.task_at(r, c);
                for (dr, dc, volume) in
                    [(-1isize, 0isize, vertical), (1, 0, vertical), (0, -1, horizontal), (0, 1, horizontal)]
                {
                    if let Some(other) = neighbor(spec, r, c, dr, dc) {
                        m.add(me, other, volume);
                    }
                }
                for (dr, dc) in [(-1isize, -1isize), (-1, 1), (1, -1), (1, 1)] {
                    if let Some(other) = neighbor(spec, r, c, dr, dc) {
                        m.add(me, other, spec.corner_volume);
                    }
                }
            }
        }
    })
}

/// The directional stencil after a quarter (90°) rotation of the sweep
/// direction: horizontal and vertical halo volumes swap axes.  This is the
/// "rotated stencil" phase change used by `orwl-adapt`'s evaluation — same
/// tasks, same total traffic, different heavy neighbours.
pub fn stencil_2d_rotated(spec: &StencilSpec, horizontal: f64, vertical: f64) -> CommMatrix {
    stencil_2d_directional(spec, vertical, horizontal)
}

/// The two matrices of the canonical *rotating-sweep* stencil workload: a
/// `side × side` grid of tasks whose sweep axis carries `heavy` bytes per
/// halo and whose cross axis carries `light` bytes (diagonals carry
/// `light / 8`), before and after a 90° rotation of the sweep direction.
///
/// This is the phase-change workload of the adaptive-placement evaluation;
/// keeping its construction here guarantees the simulator harness, the
/// examples and the tests all measure exactly the same drift.
pub fn rotating_sweep_matrices(side: usize, heavy: f64, light: f64) -> (CommMatrix, CommMatrix) {
    let spec = StencilSpec { rows: side, cols: side, edge_volume: 0.0, corner_volume: light / 8.0 };
    (stencil_2d_directional(&spec, heavy, light), stencil_2d_rotated(&spec, heavy, light))
}

/// An irregular *power-law* communication graph: degrees follow a rich-get-
/// richer preferential-attachment process, so a few tasks concentrate most
/// of the edges — the shape of sparse-matrix, graph-analytics and
/// master-worker-ish workloads that stencil-tuned placement handles worst.
///
/// Construction (deterministic for a given `seed`): tasks join one at a
/// time; each new task draws `edges_per_task` partners among the existing
/// tasks with probability proportional to their current degree (plus one,
/// so isolated tasks stay reachable).  Each edge carries a volume drawn
/// uniformly from `(0, max_volume]`; the matrix is symmetric.
pub fn power_law(n: usize, edges_per_task: usize, max_volume: f64, seed: u64) -> CommMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    CommMatrix::filled(n, |m| {
        if n < 2 {
            return;
        }
        let mut degree = vec![1.0f64; n]; // +1 smoothing: everyone is reachable
        for joiner in 1..n {
            for _ in 0..edges_per_task.max(1) {
                // Roulette-wheel draw over the already-joined tasks.
                let mut ticket = rng.gen::<f64>() * degree[..joiner].iter().sum::<f64>();
                let mut partner = 0;
                for (t, &d) in degree[..joiner].iter().enumerate() {
                    ticket -= d;
                    if ticket <= 0.0 {
                        partner = t;
                        break;
                    }
                }
                let volume = (1.0 - rng.gen::<f64>()) * max_volume; // (0, max]
                m.add(joiner, partner, volume);
                m.add(partner, joiner, volume);
                degree[joiner] += 1.0;
                degree[partner] += 1.0;
            }
        }
    })
}

/// An owner-skewed *hotspot* pattern: `hubs` owner tasks hold the hot data
/// and every other task exchanges `spoke_volume` bytes with its (seeded,
/// randomly chosen) owner, while the owners gossip `hub_volume` bytes with
/// each other all-to-all.  This is the contended-lock / parameter-server
/// shape: placement should pack each owner with its clients, not spread
/// them.
pub fn hotspot(n: usize, hubs: usize, hub_volume: f64, spoke_volume: f64, seed: u64) -> CommMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let hubs = hubs.clamp(1, n.max(1));
    CommMatrix::filled(n, |m| {
        if n < 2 {
            return;
        }
        // Hubs are tasks 0..hubs; they gossip pairwise.
        for a in 0..hubs {
            for b in 0..hubs {
                if a != b {
                    m.set(a, b, hub_volume);
                }
            }
        }
        // Every spoke picks one owner, uniformly at random (seeded).
        for spoke in hubs..n {
            let owner = rng.gen_index(hubs);
            m.add(spoke, owner, spoke_volume);
            m.add(owner, spoke, spoke_volume);
        }
    })
}

/// The convex blend `(1-t)·a + t·b` of two equally-sized matrices — the
/// building block of *drifting-mix* workloads whose pattern morphs
/// gradually from one shape into another across phases, instead of
/// switching abruptly like the rotated stencil.
///
/// # Panics
/// Panics when the matrices differ in order.
pub fn blend(a: &CommMatrix, b: &CommMatrix, t: f64) -> CommMatrix {
    assert_eq!(a.order(), b.order(), "blend requires equally-sized matrices");
    let mut out = a.scaled(1.0 - t);
    out.add_scaled(b, t);
    out
}

/// A 1-D chain: task `i` exchanges `volume` bytes with `i+1` (both ways).
pub fn chain(n: usize, volume: f64) -> CommMatrix {
    CommMatrix::filled(n, |m| {
        for i in 0..n.saturating_sub(1) {
            m.add(i, i + 1, volume);
            m.add(i + 1, i, volume);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_interior_task_has_eight_neighbors() {
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 100.0, corner_volume: 1.0 };
        let m = stencil_2d(&spec);
        assert_eq!(m.order(), 16);
        // Task (1,1) = index 5 is interior: 4 edges + 4 corners.
        let me = spec.task_at(1, 1);
        let nonzero = (0..16).filter(|&j| m.get(me, j) > 0.0).count();
        assert_eq!(nonzero, 8);
        assert_eq!(m.get(me, spec.task_at(0, 1)), 100.0); // north edge
        assert_eq!(m.get(me, spec.task_at(0, 0)), 1.0); // NW corner
        assert!(m.is_symmetric());
    }

    #[test]
    fn stencil_corner_task_has_three_neighbors() {
        let spec = StencilSpec { rows: 3, cols: 3, edge_volume: 10.0, corner_volume: 1.0 };
        let m = stencil_2d(&spec);
        let corner = spec.task_at(0, 0);
        let nonzero = (0..9).filter(|&j| m.get(corner, j) > 0.0).count();
        assert_eq!(nonzero, 3); // E, S edges + SE corner
    }

    #[test]
    fn stencil_total_volume_formula() {
        // For an R×C grid: horizontal edges 2*R*(C-1), vertical 2*C*(R-1),
        // diagonals 4*(R-1)*(C-1) directed pairs... easier: symmetry check +
        // hand count on a 2×2 grid (each task: 2 edges + 1 corner).
        let spec = StencilSpec { rows: 2, cols: 2, edge_volume: 5.0, corner_volume: 1.0 };
        let m = stencil_2d(&spec);
        assert_eq!(m.total_volume(), 4.0 * (2.0 * 5.0 + 1.0));
    }

    #[test]
    fn nine_point_blocks_volumes() {
        let spec = StencilSpec::nine_point_blocks(8, 2048, 8);
        assert_eq!(spec.tasks(), 64);
        assert_eq!(spec.edge_volume, 2048.0 * 8.0);
        assert_eq!(spec.corner_volume, 8.0);
    }

    #[test]
    fn five_point_stencil_has_no_corner_traffic() {
        let spec = StencilSpec { rows: 3, cols: 3, edge_volume: 10.0, corner_volume: 0.0 };
        let m = stencil_2d(&spec);
        let center = spec.task_at(1, 1);
        let nonzero = (0..9).filter(|&j| m.get(center, j) > 0.0).count();
        assert_eq!(nonzero, 4);
    }

    #[test]
    fn ring_pattern() {
        let m = ring(4, 8.0);
        assert_eq!(m.get(0, 1), 8.0);
        assert_eq!(m.get(3, 0), 8.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.total_volume(), 32.0);
        assert_eq!(ring(1, 8.0).total_volume(), 0.0);
        assert_eq!(ring(0, 8.0).order(), 0);
    }

    #[test]
    fn all_to_all_pattern() {
        let m = all_to_all(4, 2.0);
        assert_eq!(m.total_volume(), (4.0 * 3.0) * 2.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert!(m.is_symmetric());
    }

    #[test]
    fn clustered_pattern_prefers_intra_cluster() {
        let m = clustered(4, 4, 100.0, 1.0);
        assert_eq!(m.order(), 16);
        // Intra-cluster edge.
        assert_eq!(m.get(0, 1), 100.0);
        // Inter-cluster edge toward the next cluster.
        assert_eq!(m.get(0, 4), 1.0);
        // No edge to a non-adjacent cluster.
        assert_eq!(m.get(0, 8), 0.0);
        // Single-cluster case has no inter traffic.
        let single = clustered(1, 3, 10.0, 99.0);
        assert_eq!(single.total_volume(), 3.0 * 2.0 * 10.0);
    }

    #[test]
    fn random_symmetric_is_reproducible_and_symmetric() {
        let a = random_symmetric(16, 0.5, 100.0, 42);
        let b = random_symmetric(16, 0.5, 100.0, 42);
        let c = random_symmetric(16, 0.5, 100.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_symmetric());
        // Density 0 gives the empty matrix; density 1 the full one.
        assert_eq!(random_symmetric(8, 0.0, 10.0, 1).total_volume(), 0.0);
        let full = random_symmetric(8, 1.1, 10.0, 1);
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert!(full.get(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn directional_stencil_weights_axes_independently() {
        let spec = StencilSpec { rows: 3, cols: 3, edge_volume: 0.0, corner_volume: 1.0 };
        let m = stencil_2d_directional(&spec, 100.0, 5.0);
        let center = spec.task_at(1, 1);
        assert_eq!(m.get(center, spec.task_at(1, 0)), 100.0); // west
        assert_eq!(m.get(center, spec.task_at(1, 2)), 100.0); // east
        assert_eq!(m.get(center, spec.task_at(0, 1)), 5.0); // north
        assert_eq!(m.get(center, spec.task_at(2, 1)), 5.0); // south
        assert_eq!(m.get(center, spec.task_at(0, 0)), 1.0); // corner
        assert!(m.is_symmetric());
        // Uniform volumes reproduce the classic stencil.
        let uniform = StencilSpec { rows: 3, cols: 3, edge_volume: 7.0, corner_volume: 1.0 };
        assert_eq!(stencil_2d_directional(&uniform, 7.0, 7.0), stencil_2d(&uniform));
    }

    #[test]
    fn rotation_swaps_axes_and_is_a_real_phase_change() {
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 2.0 };
        let a = stencil_2d_directional(&spec, 100.0, 5.0);
        let b = stencil_2d_rotated(&spec, 100.0, 5.0);
        // Same total traffic, symmetric, but a different matrix...
        assert_eq!(a.total_volume(), b.total_volume());
        assert!(b.is_symmetric());
        assert_ne!(a, b);
        // ...while rotating the *uniform* stencil is an automorphism (the
        // degenerate case the adaptive evaluation must avoid).
        let u = stencil_2d_directional(&spec, 5.0, 5.0);
        assert_eq!(stencil_2d_rotated(&spec, 5.0, 5.0), u);
        // Rotating twice restores the original pattern.
        assert_eq!(stencil_2d_rotated(&spec, 5.0, 100.0), a);
    }

    #[test]
    fn rotating_sweep_matrices_are_a_rotated_pair() {
        let (a, b) = rotating_sweep_matrices(4, 100.0, 4.0);
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 0.5 };
        assert_eq!(a, stencil_2d_directional(&spec, 100.0, 4.0));
        assert_eq!(b, stencil_2d_rotated(&spec, 100.0, 4.0));
        assert_eq!(a.total_volume(), b.total_volume());
        assert_ne!(a, b);
    }

    #[test]
    fn power_law_concentrates_degree_and_is_reproducible() {
        let a = power_law(64, 2, 1000.0, 7);
        let b = power_law(64, 2, 1000.0, 7);
        let c = power_law(64, 2, 1000.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_symmetric());
        // Preferential attachment: the heaviest-degree task sees far more
        // partners than the median task.
        let degrees: Vec<usize> = (0..64).map(|i| (0..64).filter(|&j| a.get(i, j) > 0.0).count()).collect();
        let max = *degrees.iter().max().unwrap();
        let mut sorted = degrees.clone();
        sorted.sort_unstable();
        let median = sorted[32];
        assert!(max >= 3 * median, "no hub emerged: max {max}, median {median}");
        // Degenerate sizes are quiet.
        assert_eq!(power_law(1, 3, 10.0, 1).total_volume(), 0.0);
        assert_eq!(power_law(0, 3, 10.0, 1).order(), 0);
    }

    #[test]
    fn hotspot_wires_spokes_to_owners() {
        let m = hotspot(16, 2, 50.0, 500.0, 3);
        assert!(m.is_symmetric());
        // Hubs gossip with each other.
        assert_eq!(m.get(0, 1), 50.0);
        // Every spoke talks to exactly one hub and to nobody else.
        for spoke in 2..16 {
            let partners: Vec<usize> = (0..16).filter(|&j| m.get(spoke, j) > 0.0).collect();
            assert_eq!(partners.len(), 1, "spoke {spoke} has partners {partners:?}");
            assert!(partners[0] < 2);
            assert_eq!(m.get(spoke, partners[0]), 500.0);
        }
        // Deterministic per seed.
        assert_eq!(m, hotspot(16, 2, 50.0, 500.0, 3));
        assert_ne!(m, hotspot(16, 2, 50.0, 500.0, 4));
        // Hub count is clamped into [1, n].
        let single = hotspot(4, 0, 10.0, 5.0, 1);
        assert_eq!(single.get(1, 0), 5.0);
    }

    #[test]
    fn blend_interpolates_between_patterns() {
        let a = ring(4, 100.0);
        let b = all_to_all(4, 10.0);
        let mid = blend(&a, &b, 0.5);
        assert_eq!(mid.get(0, 1), 0.5 * 100.0 + 0.5 * 10.0);
        assert_eq!(mid.get(0, 2), 5.0);
        assert_eq!(blend(&a, &b, 0.0), a);
        assert_eq!(blend(&a, &b, 1.0), b);
    }

    #[test]
    fn chain_pattern() {
        let m = chain(3, 4.0);
        assert!(m.is_symmetric());
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 2), 4.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(chain(1, 4.0).total_volume(), 0.0);
    }
}
