//! # orwl-treematch — topology-aware thread placement (Algorithm 1)
//!
//! This crate implements the placement algorithm at the heart of the paper
//! *"Optimizing Locality by Topology-aware Placement for a Task Based
//! Programming Model"* (CLUSTER 2016): a TreeMatch-derived mapping of
//! communicating threads onto the leaves of the hardware topology tree,
//! extended to handle
//!
//! * **control threads** — the ORWL runtime's event-management threads are
//!   reserved a hyperthread per core, placed on spare cores, or left to the
//!   OS (module [`control`]);
//! * **oversubscription** — when there are more threads than processing
//!   units, a virtual level is appended to the tree (module [`oversub`]);
//! * **two-level cluster placement** — a capacity-bounded k-way
//!   partitioning stage (module [`mod@partition`]) shards tasks across the
//!   depth-1 subtrees (cluster nodes) before TreeMatch maps each shard,
//!   surfaced as [`policies::Policy::Hierarchical`].
//!
//! The individual steps of Algorithm 1 are exposed as separate, testable
//! functions: [`grouping::group_processes`] (`GroupProcesses`),
//! [`orwl_comm::aggregate::aggregate`] (`AggregateComMatrix`) and
//! [`algorithm::tree_match_assign`] (the grouping loop plus `MapGroups`).
//! Baseline policies used in the evaluation (packed, scatter, random,
//! no-binding) live in [`policies`].
//!
//! # Example
//!
//! ```
//! use orwl_treematch::algorithm::TreeMatchMapper;
//! use orwl_comm::patterns;
//! use orwl_topo::synthetic;
//!
//! // Four groups of eight threads with strong intra-group traffic...
//! let matrix = patterns::clustered(4, 8, 1000.0, 1.0);
//! // ...placed on four sockets of eight cores.
//! let topo = synthetic::cluster2016_subset(4).unwrap();
//!
//! let placement = TreeMatchMapper::compute_only().compute_placement(&topo, &matrix);
//! assert_eq!(placement.bound_fraction(), 1.0);
//! assert_eq!(placement.numa_nodes_used(&topo), 4);
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod algorithm;
pub mod control;
pub mod grouping;
pub mod mapping;
pub mod oversub;
pub mod partition;
pub mod policies;
#[cfg(test)]
mod sparse_identity;
#[cfg(test)]
mod warm_view;

pub use algorithm::{tree_match_assign, PlacementScratch, TreeMatchMapper};
pub use mapping::Placement;
pub use partition::{partition, PartCosts};
pub use policies::{compute_placement, Policy};
