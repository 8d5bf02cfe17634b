//! # orwl-cluster — hierarchical multi-node backend with two-level
//! topology-aware placement
//!
//! The source paper (CLUSTER 2016) targets cluster-scale ORWL; this crate
//! takes the reproduction beyond one shared-memory machine.  It has three
//! layers:
//!
//! 1. **Hierarchical topology** — [`ClusterMachine`] wraps a
//!    [`ClusterTopology`](orwl_topo::cluster::ClusterTopology) (cluster →
//!    node → socket/NUMA → core) with the single-node NUMA cost model and
//!    the inter-node fabric cost model
//!    ([`FabricParams`](orwl_numasim::costmodel::FabricParams): latency +
//!    bandwidth per link class, rack-aware).
//! 2. **Two-level placement** — [`hierarchical_placement`] shards the task
//!    graph across nodes minimising the fabric-weighted inter-node cut
//!    ([`mod@orwl_treematch::partition`]), then runs the paper's TreeMatch
//!    *inside* each node; surfaced through the unified `Session` API as
//!    [`Policy::Hierarchical`](orwl_treematch::policies::Policy).
//! 3. **Execution** — [`simulate_cluster`]: the cluster described to
//!    numasim's one pricer as a machine
//!    ([`MachineCosts`](orwl_numasim::exec::MachineCosts): per-node NUMA
//!    domains coupled by fabric messages for remote lock grants and
//!    location transfers), run by numasim's discrete-event loop and
//!    plugged in as the third `ExecutionBackend`: [`ClusterBackend`].
//!    Reports carry the inter-node vs intra-node traffic split
//!    (`Report::fabric`, `TrafficBreakdown::cross_node`), and adaptive
//!    runs can re-shard across nodes on drift
//!    (`AdaptReport::node_reshards`).
//!
//! ```
//! use orwl_cluster::{ClusterBackend, ClusterMachine};
//! use orwl_core::session::{Mode, Session};
//! use orwl_numasim::workload::PhasedWorkload;
//! use orwl_treematch::policies::Policy;
//!
//! let machine = ClusterMachine::paper(4); // 4 nodes × 2 sockets × 8 cores
//! let session = Session::builder()
//!     .topology(machine.topology().clone())
//!     .policy(Policy::Hierarchical)
//!     .control_threads(0)
//!     .backend(ClusterBackend::new(machine))
//!     .build()
//!     .unwrap();
//! let workload = PhasedWorkload::rotating_stencil(8, 65536.0, 1024.0, 16384.0, 131072.0, &[4]);
//! let report = session.run(workload).unwrap();
//! let fabric = report.fabric.unwrap();
//! assert_eq!(fabric.n_nodes, 4);
//! assert!(fabric.inter_node_fraction() < 0.5);
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

mod backend;
mod exec;
mod machine;
mod metrics;
mod placement;

pub use backend::ClusterBackend;
pub use exec::simulate_cluster;
pub use machine::ClusterMachine;
pub use metrics::{inter_node_bytes, split_hop_bytes};
pub use placement::{hierarchical_placement, policy_placement, reshard_after_node_loss};
