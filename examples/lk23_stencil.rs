//! Livermore Kernel 23 on the real ORWL runtime.
//!
//! Runs the block-decomposed LK23 on the host machine with both the unbound
//! and the topology-aware configurations, verifies the result against the
//! sequential reference, and prints the placement's locality breakdown —
//! the real-execution counterpart of the simulated Figure 1 (absolute times
//! on a laptop/container say nothing about NUMA, but correctness and the
//! extracted communication structure are exercised end to end).
//!
//! ```text
//! cargo run --release --example lk23_stencil [grid_size] [blocks_per_side] [iterations]
//! ```

use orwl_core::prelude::*;
use orwl_lk23::blocks::BlockDecomposition;
use orwl_lk23::kernel::{reference_jacobi, Grid};
use orwl_lk23::openmp_like::run_openmp_like;
use orwl_lk23::orwl_impl::run_orwl;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(192);
    let blocks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let iterations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);

    println!("{}", orwl_repro::banner());
    println!("LK23: {n}x{n} grid, {blocks}x{blocks} blocks, {iterations} iterations\n");

    let initial = Grid::initial(n, n);
    let reference = reference_jacobi(&initial, iterations);
    let decomp = BlockDecomposition::new(n, n, blocks, blocks).expect("valid decomposition");
    let topo = orwl_topo::discover::discover();

    // OpenMP-like baseline (fork-join over row bands).
    let t0 = std::time::Instant::now();
    let openmp = run_openmp_like(&initial, iterations, topo.nb_pus());
    let openmp_time = t0.elapsed();
    let mut mismatched = Vec::new();
    let diff = openmp.max_abs_diff(&reference);
    if diff != 0.0 {
        mismatched.push("openmp-like");
    }
    println!("openmp-like  : {openmp_time:>10.3?}  max|diff| vs reference = {diff:.3e}");

    for (label, policy) in [("orwl-nobind", Policy::NoBind), ("orwl-bind   ", Policy::TreeMatch)] {
        let session = Session::builder()
            .topology(topo.clone())
            .policy(policy)
            .backend(ThreadBackend)
            .build()
            .expect("the LK23 configuration is valid");
        let t0 = std::time::Instant::now();
        let (result, report) = run_orwl(&initial, decomp, iterations, &session).expect("orwl run");
        let elapsed = t0.elapsed();
        let diff = result.max_abs_diff(&reference);
        if diff != 0.0 {
            mismatched.push(label.trim_end());
        }
        println!(
            "{label}: {:>10.3?}  max|diff| vs reference = {diff:.3e}  bound = {:>3.0}% on {} PU(s)  NUMA-local traffic = {:>5.1}%",
            elapsed,
            100.0 * report.plan.placement.bound_fraction(),
            report.plan.placement.pus_used(),
            100.0 * report.breakdown.local_fraction(),
        );
    }

    if !mismatched.is_empty() {
        eprintln!("\nnot equal to the sequential Jacobi reference: {}", mismatched.join(", "));
        std::process::exit(1);
    }
    println!("\nAll implementations verified against the sequential Jacobi reference.");
}
