//! # orwl-comm — communication matrices and locality metrics
//!
//! The topology-aware placement of the paper is computed from two inputs:
//! the hardware topology (crate `orwl-topo`) and a **weighted communication
//! matrix** describing how much data every pair of threads exchanges per
//! iteration.  This crate provides that matrix type together with:
//!
//! * [`patterns`] — generators for the workloads used in the evaluation
//!   (2-D 9-point stencil à la Livermore Kernel 23, ring, all-to-all,
//!   clustered, random);
//! * [`aggregate`](mod@aggregate) — the `AggregateComMatrix` step of Algorithm 1 (collapse
//!   a matrix over groups of threads);
//! * [`metrics`] — mapping-quality metrics (communication cost, hop-bytes,
//!   traffic breakdown per hardware level);
//! * [`sparse`] — the row-compressed view of a matrix every inner loop of
//!   the placement pipeline runs over.
//!
//! # Example
//!
//! ```
//! use orwl_comm::patterns::{stencil_2d, StencilSpec};
//! use orwl_comm::metrics::hop_bytes;
//! use orwl_topo::synthetic;
//!
//! // An 8×8 grid of LK23-style block tasks.
//! let spec = StencilSpec::nine_point_blocks(8, 2048, 8);
//! let matrix = stencil_2d(&spec);
//! assert_eq!(matrix.order(), 64);
//!
//! // Identity placement on a 64-core machine.
//! let topo = synthetic::quad_socket_l3_groups();
//! let mapping: Vec<usize> = (0..64).collect();
//! assert!(hop_bytes(&matrix, &topo, &mapping) > 0.0);
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod aggregate;
pub mod matrix;
pub mod metrics;
pub mod patterns;
pub mod sparse;
