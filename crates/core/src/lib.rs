//! # orwl-core — the ORWL runtime with topology-aware placement
//!
//! A from-scratch Rust implementation of the **Ordered Read-Write Locks**
//! (ORWL) task-based programming model (Clauss & Gustedt, JPDC 2010),
//! enriched with the **topology-aware placement add-on** described in
//! *"Optimizing Locality by Topology-aware Placement for a Task Based
//! Programming Model"* (Gustedt, Jeannot, Mansouri — IEEE CLUSTER 2016).
//!
//! ## The model
//!
//! * Shared state lives in [`Location`]s.  Every location owns a FIFO of
//!   lock requests (`fifo::LockFifo`).
//! * Tasks access locations through [`Handle`]s: they *post* a request,
//!   *acquire* it when the FIFO grants it (writers exclusively, adjacent
//!   readers together), and *release* it by dropping the guard.  Iterative
//!   handles re-post automatically, producing the periodic, deadlock-free
//!   schedules iterative ORWL applications are built on.
//! * A program ([`OrwlProgram`](task::OrwlProgram)) declares, for every task, the locations it
//!   will use and the per-iteration volume — from which the runtime builds
//!   the thread-to-thread communication matrix.
//! * A [`Session`](session::Session) (built with [`Session::builder`](session::Session::builder)) is the single front
//!   door: it validates the configuration (topology, policy, control
//!   threads, run mode) and executes workloads on an [`ExecutionBackend`](session::ExecutionBackend) —
//!   [`ThreadBackend`](session::ThreadBackend) for the real event runtime (one thread per task, pooled across runs,
//!   TreeMatch placement via crate `orwl-treematch`, binding via
//!   [`orwl_topo::binding`]), or the NUMA simulator backend from
//!   `orwl-adapt`.
//!
//! ## Quick example
//!
//! ```
//! use orwl_core::prelude::*;
//! use std::sync::Arc;
//!
//! // One shared counter location, four incrementing tasks.
//! let counter = Location::new("counter", 0u64);
//! let mut program = OrwlProgram::new();
//! for t in 0..4 {
//!     let loc = Arc::clone(&counter);
//!     program.add_task(
//!         TaskSpec::new(format!("inc-{t}"), vec![LocationLink::write(counter.id(), 8.0)]),
//!         move |_ctx| {
//!             let mut handle = loc.iterative_handle(AccessMode::Write);
//!             for _ in 0..100 {
//!                 let mut guard = handle.acquire().unwrap();
//!                 *guard += 1;
//!             }
//!         },
//!     );
//! }
//!
//! let session = Session::builder()
//!     .topology(orwl_topo::discover::discover())
//!     .policy(Policy::NoBind)
//!     .backend(ThreadBackend)
//!     .build()
//!     .unwrap();
//! let report = session.run(program).unwrap();
//! assert_eq!(counter.snapshot(), 400);
//! assert_eq!(report.thread.unwrap().stats.tasks_finished, 4);
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod error;
mod fifo;
mod handle;
pub mod json;
pub mod location;
mod monitor;
mod pack;
pub mod placement;
mod pool;
pub mod request;
pub mod runtime;
pub mod session;
pub mod stats;
pub mod task;

pub use handle::Handle;
pub use location::{Location, LocationId};
pub use request::AccessMode;
pub use task::TaskId;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::error::OrwlError;
    pub use crate::handle::Handle;
    pub use crate::location::Location;
    pub use crate::request::AccessMode;
    pub use crate::runtime::AdaptiveSpec;
    pub use crate::session::{Mode, Report, Session, ThreadBackend};
    pub use crate::task::{LocationLink, OrwlProgram, TaskSpec};
    pub use orwl_treematch::policies::Policy;
}
