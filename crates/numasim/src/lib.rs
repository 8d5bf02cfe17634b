//! # orwl-numasim — a discrete-event NUMA machine simulator
//!
//! The paper's evaluation ran on a 24-socket × 8-core SMP machine that is
//! not available to this reproduction (which executes inside a single-core
//! container).  This crate substitutes that testbed with an analytical /
//! discrete-event model so the evaluation can still be *regenerated*: the
//! same task graphs, placed by the same placement algorithms, are executed
//! on a simulated machine whose cost model captures the effects the paper's
//! result rests on — NUMA-local vs remote accesses, shared caches, memory
//! controller and interconnect bandwidth sharing, OS migrations, fork-join
//! barriers and PU oversubscription.
//!
//! * [`costmodel`] — calibration constants ([`costmodel::CostParams`]);
//! * [`machine`] — the simulated machine ([`machine::SimMachine`]);
//! * [`taskgraph`] — iterative task graphs (stencil builder included);
//! * [`scenario`] — thread/data placement scenarios for the three
//!   implementations compared in Figure 1;
//! * [`workload`] — phased (pattern-changing) workloads, the unit of
//!   execution of the `Session` API's simulator backend;
//! * [`exec`] — the simulation engine ([`exec::simulate`]).
//!
//! # Example: one socket vs four sockets
//!
//! ```
//! use orwl_numasim::costmodel::CostParams;
//! use orwl_numasim::exec::simulate;
//! use orwl_numasim::machine::SimMachine;
//! use orwl_numasim::scenario::ExecutionScenario;
//! use orwl_numasim::taskgraph::TaskGraph;
//! use orwl_comm::patterns::StencilSpec;
//! use orwl_topo::synthetic;
//!
//! let machine = SimMachine::new(
//!     synthetic::cluster2016_subset(4).unwrap(),
//!     CostParams::cluster2016(),
//! );
//! let spec = StencilSpec::nine_point_blocks(8, 512, 8);
//! let graph = TaskGraph::stencil(&spec, 512.0 * 512.0, 8.0);
//!
//! // Topology-aware, pinned execution...
//! let bound = ExecutionScenario::bound(&machine, (0..64).map(|t| t % 32).collect());
//! // ...against the master-thread-initialised OpenMP baseline.
//! let openmp = ExecutionScenario::openmp_static(&machine, 64);
//!
//! let t_bound = simulate(&machine, &graph, &bound, 10).total_time;
//! let t_openmp = simulate(&machine, &graph, &openmp, 10).total_time;
//! assert!(t_bound < t_openmp);
//! ```

// `pub` means another crate (or a bin, test or example) calls it: everything
// else is `pub(crate)` so `dead_code` can see it.  DESIGN.md, "Public surface".
#![warn(unreachable_pub)]

pub mod costmodel;
pub mod exec;
pub mod machine;
pub mod scenario;
pub mod taskgraph;
pub mod workload;
