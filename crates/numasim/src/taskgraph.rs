//! Iterative task graphs: the workload description consumed by the
//! simulator.
//!
//! A [`TaskGraph`] describes one *iteration* of a bulk-iterative computation
//! (the LK23 stencil, or any other ORWL program): a set of tasks, each with
//! a compute cost and a private working set, plus directed edges carrying
//! the bytes a task must receive from another task's *previous* iteration
//! before it can start the current one.

use orwl_comm::matrix::CommMatrix;
use orwl_comm::patterns::StencilSpec;

/// One task of the iterative computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTask {
    /// Number of grid elements (or generic work units) processed per
    /// iteration.
    pub elements: f64,
    /// Bytes of the task's own working set streamed from memory per
    /// iteration.
    pub private_bytes: f64,
}

/// A directed dependency: `dst` needs `bytes` produced by `src` during the
/// previous iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEdge {
    /// Producer task index.
    pub src: usize,
    /// Consumer task index.
    pub dst: usize,
    /// Bytes transferred per iteration.
    pub bytes: f64,
}

/// The per-iteration task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<SimTask>,
    edges: Vec<SimEdge>,
    /// For every task, indices into `edges` of its incoming dependencies.
    in_edges: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// Creates a graph from tasks and edges.
    ///
    /// # Panics
    /// Panics when an edge references a task that does not exist.
    pub fn new(tasks: Vec<SimTask>, edges: Vec<SimEdge>) -> Self {
        let n = tasks.len();
        let mut in_edges = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            assert!(e.src < n && e.dst < n, "edge {i} references a missing task");
            in_edges[e.dst].push(i);
        }
        TaskGraph { tasks, edges, in_edges }
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Task accessor.
    pub fn task(&self, t: usize) -> &SimTask {
        &self.tasks[t]
    }

    /// All edges.
    pub fn edges(&self) -> &[SimEdge] {
        &self.edges
    }

    /// Incoming edges of task `t` with their indices into
    /// [`edges`](Self::edges), in increasing index order.
    pub(crate) fn in_edges(&self, t: usize) -> impl Iterator<Item = (usize, &SimEdge)> {
        self.in_edges[t].iter().map(move |&i| (i, &self.edges[i]))
    }

    /// The task × task communication matrix of the graph — exactly the
    /// matrix the placement algorithm consumes.
    pub fn comm_matrix(&self) -> CommMatrix {
        let mut m = CommMatrix::zeros(self.n_tasks());
        for e in &self.edges {
            if e.src != e.dst {
                m.add(e.src, e.dst, e.bytes);
            }
        }
        m
    }

    /// Builds a task graph from an arbitrary communication matrix: one task
    /// per row with uniform compute cost, one edge per non-zero entry.
    /// Used by the adaptive evaluation to turn phase-specific matrices
    /// (e.g. [`orwl_comm::patterns::stencil_2d_rotated`]) into workloads.
    pub fn from_matrix(m: &CommMatrix, elements_per_task: f64, private_bytes_per_task: f64) -> TaskGraph {
        let task = SimTask { elements: elements_per_task, private_bytes: private_bytes_per_task };
        TaskGraph::from_tasks_and_matrix(vec![task; m.order()], m)
    }

    /// Builds a task graph from its tasks and a communication matrix, one
    /// edge per positive off-diagonal entry in row-major order (the order
    /// [`CommMatrix::for_each_nonzero`] visits them).  This is the one
    /// place a matrix becomes edges: [`from_matrix`](Self::from_matrix),
    /// [`stencil`](Self::stencil) and the LK23 block graph all call it.
    ///
    /// # Panics
    /// Panics when a positive entry names a task past the end of `tasks`.
    pub fn from_tasks_and_matrix(tasks: Vec<SimTask>, m: &CommMatrix) -> TaskGraph {
        let mut edges = Vec::new();
        m.for_each_nonzero(|src, dst, bytes| {
            if src != dst && bytes > 0.0 {
                edges.push(SimEdge { src, dst, bytes });
            }
        });
        TaskGraph::new(tasks, edges)
    }

    /// Builds the task graph of a 2-D block stencil (the LK23 decomposition):
    /// a `spec.rows × spec.cols` grid of block tasks, each processing
    /// `block_elements` grid points, streaming `elem_bytes` per point, and
    /// exchanging edge/corner halos with its neighbours as described by
    /// `spec`.
    pub fn stencil(spec: &StencilSpec, block_elements: f64, elem_bytes: f64) -> TaskGraph {
        let m = orwl_comm::patterns::stencil_2d(spec);
        TaskGraph::from_matrix(&m, block_elements, block_elements * elem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_indexes_incoming_edges() {
        let tasks = vec![SimTask { elements: 10.0, private_bytes: 80.0 }; 3];
        let edges = vec![
            SimEdge { src: 0, dst: 1, bytes: 8.0 },
            SimEdge { src: 2, dst: 1, bytes: 4.0 },
            SimEdge { src: 1, dst: 2, bytes: 2.0 },
        ];
        let g = TaskGraph::new(tasks, edges);
        assert_eq!(g.n_tasks(), 3);
        assert_eq!(g.in_edges(1).count(), 2);
        assert_eq!(g.in_edges(0).count(), 0);
        assert_eq!(g.comm_matrix().total_volume(), 14.0);
        assert_eq!(g.task(2).private_bytes, 80.0);
        assert_eq!(g.task(0).elements, 10.0);
    }

    #[test]
    #[should_panic]
    fn graph_rejects_dangling_edges() {
        TaskGraph::new(
            vec![SimTask { elements: 1.0, private_bytes: 1.0 }],
            vec![SimEdge { src: 0, dst: 3, bytes: 1.0 }],
        );
    }

    #[test]
    fn stencil_graph_matches_comm_matrix() {
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 128.0, corner_volume: 8.0 };
        let g = TaskGraph::stencil(&spec, 1_000.0, 8.0);
        assert_eq!(g.n_tasks(), 16);
        // The graph's communication matrix equals the pattern generator's.
        let expected = orwl_comm::patterns::stencil_2d(&spec);
        assert_eq!(g.comm_matrix(), expected);
        // No block is its own neighbour, so the edge builder's diagonal
        // filter drops nothing.
        assert!((0..16).all(|t| expected.get(t, t) == 0.0));
        // Interior task has 8 incoming halos.
        assert_eq!(g.in_edges(5).count(), 8);
        // Corner task has 3.
        assert_eq!(g.in_edges(0).count(), 3);
        // Private bytes per task = elements × elem size.
        assert_eq!(g.task(0).private_bytes, 8_000.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::new(vec![], vec![]);
        assert_eq!(g.n_tasks(), 0);
        assert!(g.edges().is_empty());
        assert_eq!(g.comm_matrix().order(), 0);
    }
}
