//! # orwl-lk23 — the Livermore Kernel 23 benchmark
//!
//! The validation workload of the paper: a 2-D implicit hydrodynamics
//! fragment (LINPACK loop 23) decomposed into blocks, with one main
//! operation and eight frontier operations per block, implemented three
//! ways:
//!
//! * a **sequential reference** ([`kernel`]) used to verify every parallel
//!   implementation bit-for-bit;
//! * an **OpenMP-like fork-join baseline** ([`openmp_like`]) — a parallel
//!   loop over row bands with an implicit barrier per sweep;
//! * the **ORWL implementation** ([`orwl_impl`]) — block tasks exchanging
//!   frontier locations through ordered read-write locks, run by the
//!   `orwl-core` runtime under any placement policy (Bind / NoBind);
//! * **simulator models** ([`sim_model`]) that replay the same decomposition
//!   and placements on the simulated 24-socket machine to regenerate the
//!   paper's Figure 1 at full scale (16384², 192 cores, 100 iterations).
//!
//! ```
//! use orwl_lk23::kernel::{Grid, reference_jacobi};
//! use orwl_lk23::blocks::BlockDecomposition;
//! use orwl_lk23::orwl_impl::run_orwl;
//! use orwl_core::prelude::*;
//!
//! let initial = Grid::initial(32, 32);
//! let decomp = BlockDecomposition::new(32, 32, 2, 2).unwrap();
//! let session = Session::builder()
//!     .topology(orwl_topo::synthetic::laptop())
//!     .policy(Policy::NoBind)
//!     .backend(ThreadBackend)
//!     .build()
//!     .unwrap();
//! let (result, _report) = run_orwl(&initial, decomp, 3, &session).unwrap();
//! assert_eq!(result.max_abs_diff(&reference_jacobi(&initial, 3)), 0.0);
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod blocks;
pub mod kernel;
pub mod openmp_like;
pub mod orwl_impl;
pub mod sim_model;

pub use blocks::{BlockDecomposition, BlockView};
pub use kernel::Grid;
