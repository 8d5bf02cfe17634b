//! # orwl-topo — portable hardware topology modelling
//!
//! This crate is the reproduction's substitute for the **HWLOC** (Hardware
//! Locality) library used by the paper *"Optimizing Locality by
//! Topology-aware Placement for a Task Based Programming Model"*
//! (Gustedt, Jeannot, Mansouri — IEEE CLUSTER 2016).  It provides:
//!
//! * [`bitmap::CpuSet`] — sets of processing-unit indices (HWLOC bitmaps);
//! * [`object`] / [`topology`] — the hardware containment tree (machine →
//!   NUMA node → package → caches → core → PU) with the queries the
//!   placement algorithm needs (levels, arities, common ancestors, the
//!   balanced [`topology::TreeShape`]);
//! * [`synthetic`] — building topologies from description strings and the
//!   named presets used in the evaluation, including the paper's
//!   24-socket × 8-core SMP machine;
//! * [`cluster`] — hierarchical multi-node topologies (cluster → node →
//!   socket/NUMA → core) with rack-aware fabric link classes and a
//!   flattened single-tree view for flat policies and metrics;
//! * [`discover`] — best-effort discovery of the host topology from Linux
//!   sysfs, with a portable fallback;
//! * [`distance`] — PU-to-PU relative transfer costs derived from the tree,
//!   priced per pair;
//! * [`binding`] — applying thread → PU placements (`sched_setaffinity` on
//!   Linux, recording and no-op binders everywhere).
//!
//! # Quick example
//!
//! ```
//! // The machine used in the paper's evaluation: 24 sockets × 8 cores.
//! let topo = orwl_topo::synthetic::cluster2016_smp192();
//! assert_eq!(topo.nb_pus(), 192);
//!
//! // The balanced tree shape consumed by the TreeMatch algorithm.
//! let shape = topo.shape();
//! assert_eq!(shape.leaves(), 192);
//!
//! // Cores 0 and 1 share a socket; cores 0 and 8 do not.
//! assert!(topo.hop_distance(0, 1) < topo.hop_distance(0, 8));
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod binding;
pub mod bitmap;
pub mod cluster;
pub mod discover;
pub mod distance;
pub mod object;
pub mod synthetic;
pub mod topology;
