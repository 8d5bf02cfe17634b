//! The ORWL implementation of the Livermore Kernel 23.
//!
//! Exactly as §III of the paper describes, the matrix is decomposed into
//! blocks; every block owns a *main* location (its state) and one frontier
//! location per existing neighbour (its edges and corners).  Block tasks
//! iterate: export the current frontiers, import the neighbours' frontiers
//! into the ghost ring, update the block.  Read/write dependencies between
//! blocks are expressed exclusively through ORWL handles, and the initial
//! request order (owner writes before neighbour reads, posted during a
//! deterministic initialisation phase) yields the periodic, deadlock-free
//! schedule characteristic of the model.
//!
//! The numerical result is identical to the sequential Jacobi reference,
//! whatever placement policy the runtime applies — locality only changes
//! *where* threads run, never what they compute.

use crate::blocks::{BlockDecomposition, BlockView, Direction};
use crate::kernel::Grid;
use orwl_core::prelude::*;
use orwl_core::Location;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything needed to run the ORWL LK23 program and collect its result.
pub struct Lk23OrwlProgram {
    /// The ORWL program (tasks + links), ready to hand to the runtime.
    pub program: OrwlProgram,
    /// The main location of every block, holding its final state after the
    /// run; indexed by block id.
    pub result_blocks: Vec<Arc<Location<BlockView>>>,
    /// The decomposition geometry.
    pub decomposition: BlockDecomposition,
}

/// Builds the ORWL program computing `iterations` LK23 sweeps of `initial`
/// under the given block decomposition.
pub fn build_program(
    initial: &Grid,
    decomposition: BlockDecomposition,
    iterations: usize,
) -> Lk23OrwlProgram {
    let grid_rows = initial.rows();
    let grid_cols = initial.cols();
    let n_blocks = decomposition.n_blocks();
    let elem = std::mem::size_of::<f64>() as f64;

    // Block views (the tasks' working state) and their main locations.
    let views: Vec<BlockView> = (0..n_blocks)
        .map(|idx| {
            let (bi, bj) = decomposition.block_coords(idx);
            BlockView::from_grid(initial, decomposition.row_range(bi), decomposition.col_range(bj))
        })
        .collect();
    let result_blocks: Vec<Arc<Location<BlockView>>> = views
        .iter()
        .enumerate()
        .map(|(idx, v)| Location::new(format!("block-{idx}-main"), v.clone()))
        .collect();

    // Frontier locations: one per (block, existing neighbour direction),
    // initialised with the block's initial edge so that the very first read
    // of a neighbour observes iteration-0 data.
    let mut frontiers: Vec<HashMap<Direction, Arc<Location<Vec<f64>>>>> = Vec::with_capacity(n_blocks);
    for (idx, view) in views.iter().enumerate() {
        let mut per_dir = HashMap::new();
        for dir in Direction::all() {
            if decomposition.neighbor(idx, dir).is_some() {
                per_dir.insert(dir, Location::new(format!("block-{idx}-frontier-{dir:?}"), view.edge(dir)));
            }
        }
        frontiers.push(per_dir);
    }

    // Deterministic initialisation phase (the ORWL model's "init" step):
    // post every owner's write request first, then every neighbour's read
    // request, so the per-location schedule alternates write → read.  A
    // block's handles, its declared links and its acquisitions all follow
    // `Direction::all()`.
    let mut write_handles: Vec<Vec<(Direction, Handle<Vec<f64>>)>> = Vec::with_capacity(n_blocks);
    for block_frontiers in frontiers.iter().take(n_blocks) {
        let mut per_dir = Vec::new();
        for dir in Direction::all() {
            if let Some(loc) = block_frontiers.get(&dir) {
                let mut h = loc.iterative_handle(AccessMode::Write);
                h.request().expect("fresh handle has no pending request");
                per_dir.push((dir, h));
            }
        }
        write_handles.push(per_dir);
    }
    let mut read_handles: Vec<Vec<(Direction, Handle<Vec<f64>>)>> = Vec::with_capacity(n_blocks);
    for idx in 0..n_blocks {
        let mut per_dir = Vec::new();
        for dir in Direction::all() {
            if let Some(nb) = decomposition.neighbor(idx, dir) {
                let loc = &frontiers[nb][&dir.opposite()];
                let mut h = loc.iterative_handle(AccessMode::Read);
                h.request().expect("fresh handle has no pending request");
                per_dir.push((dir, h));
            }
        }
        read_handles.push(per_dir);
    }

    // Assemble the program: one task per block.
    let mut program = OrwlProgram::new();
    let mut write_iter = write_handles.into_iter();
    let mut read_iter = read_handles.into_iter();
    for (idx, view) in views.into_iter().enumerate() {
        let my_writes = write_iter.next().expect("one write-handle map per block");
        let my_reads = read_iter.next().expect("one read-handle map per block");
        let main_loc = Arc::clone(&result_blocks[idx]);

        // Declared links: the communication matrix the placement add-on
        // extracts.  Frontier writes/reads carry the halo volumes; the main
        // location carries the block's private working set.
        let mut links = vec![LocationLink::write(main_loc.id(), (view.rows * view.cols) as f64 * elem)];
        for &(dir, _) in &my_writes {
            links.push(LocationLink::write(frontiers[idx][&dir].id(), view.edge_bytes(dir)));
        }
        for (dir, h) in &my_reads {
            links.push(LocationLink::read(h.location().id(), view.edge_bytes(*dir)));
        }

        program.add_task(TaskSpec::new(format!("lk23-block-{idx}"), links), move |_ctx| {
            run_block_task(view, my_writes, my_reads, main_loc, iterations, grid_rows, grid_cols);
        });
    }

    Lk23OrwlProgram { program, result_blocks, decomposition }
}

/// The body of one block task.
fn run_block_task(
    mut cur: BlockView,
    mut write_handles: Vec<(Direction, Handle<Vec<f64>>)>,
    mut read_handles: Vec<(Direction, Handle<Vec<f64>>)>,
    main_loc: Arc<Location<BlockView>>,
    iterations: usize,
    grid_rows: usize,
    grid_cols: usize,
) {
    let mut next = cur.clone();
    for _iter in 0..iterations {
        // 1. Export the current frontiers (state of this iteration).
        for (dir, handle) in &mut write_handles {
            let mut guard = handle.acquire().expect("iterative write handle always has a request");
            cur.edge_into(*dir, &mut guard);
        }
        // 2. Import the neighbours' frontiers into the ghost ring.
        for (dir, handle) in &mut read_handles {
            let guard = handle.acquire().expect("iterative read handle always has a request");
            cur.set_ghost(*dir, &guard);
        }
        // 3. Compute the next state.
        cur.update_into(&mut next, grid_rows, grid_cols);
        std::mem::swap(&mut cur, &mut next);
    }
    // Publish the final block state through the main location.
    let mut h = main_loc.handle(AccessMode::Write);
    h.request().expect("fresh handle");
    let mut guard = h.acquire().expect("single writer on the main location");
    *guard = cur;
}

/// Runs the ORWL LK23 program through the given [`Session`] and returns
/// the assembled result grid together with the unified run report.
pub fn run_orwl(
    initial: &Grid,
    decomposition: BlockDecomposition,
    iterations: usize,
    session: &Session,
) -> Result<(Grid, Report), OrwlError> {
    let built = build_program(initial, decomposition, iterations);
    let report = session.run(built.program)?;
    let mut result = Grid::zeros(initial.rows(), initial.cols());
    for loc in &built.result_blocks {
        loc.snapshot().write_back(&mut result);
    }
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::reference_jacobi;
    use orwl_topo::synthetic;

    fn initial(n: usize) -> Grid {
        Grid::initial(n, n)
    }

    fn nobind_session(topo: orwl_topo::topology::Topology) -> Session {
        Session::builder().topology(topo).policy(Policy::NoBind).backend(ThreadBackend).build().unwrap()
    }

    #[test]
    fn program_declares_one_task_per_block_with_links() {
        let g = initial(16);
        let d = BlockDecomposition::new(16, 16, 2, 2).unwrap();
        let built = build_program(&g, d, 3);
        assert_eq!(built.program.n_tasks(), 4);
        // The extracted communication matrix equals the geometric one.
        let m = built.program.comm_matrix();
        assert_eq!(m, d.comm_matrix(8));
        // Every block has a main location.
        assert_eq!(built.result_blocks.len(), 4);
    }

    /// The middle block of 3×3 (blocks of 6 rows × 4 columns) declares its
    /// main write, its eight frontier writes, then its eight reads, each
    /// in `Direction::all()` order; each read is the frontier the
    /// neighbour in its direction writes toward it.
    #[test]
    fn a_block_declares_its_links_in_direction_order() {
        let d = BlockDecomposition::new(18, 12, 3, 3).unwrap();
        let built = build_program(&Grid::initial(18, 12), d, 1);
        let specs = built.program.specs();
        let links = &specs[4].links;
        let edges = [32.0, 32.0, 48.0, 48.0, 8.0, 8.0, 8.0, 8.0];
        let mut declared = vec![(AccessMode::Write, 192.0)];
        declared.extend(edges.map(|bytes| (AccessMode::Write, bytes)));
        declared.extend(edges.map(|bytes| (AccessMode::Read, bytes)));
        assert_eq!(links.iter().map(|l| (l.mode, l.bytes_per_iteration)).collect::<Vec<_>>(), declared);
        for (k, dir) in Direction::all().into_iter().enumerate() {
            let nb = d.neighbor(4, dir).unwrap();
            let mut nb_dirs = Direction::all().into_iter().filter(|&x| d.neighbor(nb, x).is_some());
            let at = nb_dirs.position(|x| x == dir.opposite()).unwrap();
            assert_eq!(links[9 + k].location, specs[nb].links[1 + at].location, "{dir:?}");
        }
    }

    #[test]
    fn orwl_nobind_matches_sequential_reference() {
        let g = initial(24);
        let d = BlockDecomposition::new(24, 24, 2, 3).unwrap();
        let session = nobind_session(synthetic::laptop());
        let (result, report) = run_orwl(&g, d, 4, &session).unwrap();
        let reference = reference_jacobi(&g, 4);
        assert_eq!(result.max_abs_diff(&reference), 0.0);
        assert_eq!(report.thread.unwrap().stats.tasks_finished, 6);
    }

    #[test]
    fn orwl_bind_with_recording_binder_matches_reference_and_binds() {
        let g = initial(32);
        let d = BlockDecomposition::new(32, 32, 4, 2).unwrap();
        let binder = Arc::new(orwl_topo::binding::RecordingBinder::new());
        let session = Session::builder()
            .topology(synthetic::cluster2016_subset(1).unwrap())
            .binder(binder.clone())
            .backend(ThreadBackend)
            .build()
            .unwrap();
        let (result, report) = run_orwl(&g, d, 3, &session).unwrap();
        let reference = reference_jacobi(&g, 3);
        assert_eq!(result.max_abs_diff(&reference), 0.0);
        // The TreeMatch placement bound every block task.
        assert!(report.plan.placement.bound_fraction() > 0.99);
        assert!(!binder.anonymous_bindings().is_empty());
    }

    /// The benchmark's `lk23_fine` program, 64² in 4×4 blocks, on two PUs:
    /// its declared 8-neighbour links alone, played with no compute, price
    /// the spread cheaper, so a static TreeMatch run binds TreeMatch's plan
    /// as it is, over both PUs, and measures nothing; the result stays
    /// bit-identical to the sequential reference.
    #[test]
    fn a_static_treematch_run_on_two_pus_keeps_treematch_s_plan() {
        let g = initial(64);
        let d = BlockDecomposition::new(64, 64, 4, 4).unwrap();
        let topo = synthetic::from_synthetic("two-pus", "package:1 core:2 pu:1").unwrap();
        let session = Session::builder()
            .topology(topo.clone())
            .policy(Policy::TreeMatch)
            .control_threads(1)
            .binder(Arc::new(orwl_topo::binding::RecordingBinder::new()))
            .backend(ThreadBackend)
            .build()
            .unwrap();
        let planned = orwl_core::placement::plan_placement(
            &build_program(&g, d, 0).program,
            &topo,
            Policy::TreeMatch,
            1,
        );
        let (result, report) = run_orwl(&g, d, 20, &session).unwrap();
        assert_eq!(report.plan.placement, planned.placement);
        assert_eq!(report.plan.placement.pus_used(), 2);
        let bits = |grid: &Grid| grid.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&result), bits(&reference_jacobi(&g, 20)));
    }

    #[test]
    fn single_block_degenerates_to_sequential() {
        let g = initial(12);
        let d = BlockDecomposition::new(12, 12, 1, 1).unwrap();
        let session = nobind_session(synthetic::uniprocessor());
        let (result, _) = run_orwl(&g, d, 5, &session).unwrap();
        assert_eq!(result.max_abs_diff(&reference_jacobi(&g, 5)), 0.0);
    }

    #[test]
    fn zero_iterations_returns_initial_grid() {
        let g = initial(16);
        let d = BlockDecomposition::new(16, 16, 2, 2).unwrap();
        let session = nobind_session(synthetic::laptop());
        let (result, _) = run_orwl(&g, d, 0, &session).unwrap();
        assert_eq!(result.max_abs_diff(&g), 0.0);
    }

    #[test]
    fn many_blocks_oversubscribed_still_correct() {
        // 16 block tasks on a single simulated core: heavy oversubscription,
        // the FIFO schedule must still be deadlock-free and correct.
        let g = initial(32);
        let d = BlockDecomposition::new(32, 32, 4, 4).unwrap();
        let session = nobind_session(synthetic::uniprocessor());
        let (result, _) = run_orwl(&g, d, 3, &session).unwrap();
        assert_eq!(result.max_abs_diff(&reference_jacobi(&g, 3)), 0.0);
    }
}
