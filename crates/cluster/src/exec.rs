//! The multi-node cost model, run as numasim's bound scenario.
//!
//! [`simulate_cluster`] prices a placement with numasim's one pricer
//! (`orwl_numasim::exec::price`) on the [`ClusterMachine`]'s description
//! (`MachineCosts`, in `machine.rs`) and plays it with numasim's iteration
//! loop, PU serialisation included.  Tasks pay compute plus
//! bandwidth-shared working-set accesses, as on one NUMA node; halo edges
//! inside a node pay the node's link cost, and node-crossing ones become
//! **fabric messages** — a remote lock grant plus the location transfer —
//! paying the fabric's per-message latency and per-byte cost.  The sum of
//! all fabric bytes per iteration is bounded by the fabric's aggregate
//! bandwidth, and each node's socket-interconnect bytes by its backplane.
//!
//! Data follows the first-touch-by-owner rule of the bound scenario: a
//! task's working set lives on the node (and NUMA domain) of the PU it is
//! pinned to, which is exactly the invariant the two-level placement
//! guarantees (see `tests/proptests.rs`).

use crate::machine::ClusterMachine;
use orwl_numasim::exec::{simulate_monitored, SimMonitor, SimReport};
use orwl_numasim::scenario::ExecutionScenario;
use orwl_numasim::taskgraph::TaskGraph;

/// Simulates `iterations` iterations of `graph` with every task pinned to
/// the *global* PU `task_pu[t]`, reporting every halo transfer to
/// `monitor` (task indices, like the single-node executor): the bound
/// scenario of `task_pu`, simulated on the cluster.
///
/// # Panics
/// Panics when `task_pu` does not cover every task of the graph or names a
/// PU outside the machine.
pub fn simulate_cluster(
    machine: &ClusterMachine,
    graph: &TaskGraph,
    task_pu: &[usize],
    iterations: usize,
    monitor: &mut dyn SimMonitor,
) -> SimReport {
    let scenario = ExecutionScenario::bound(machine, task_pu.to_vec());
    simulate_monitored(machine, graph, &scenario, iterations, monitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_numasim::exec::NoopSimMonitor;
    use orwl_numasim::taskgraph::{SimEdge, SimTask};

    fn pair_graph(bytes: f64) -> TaskGraph {
        TaskGraph::new(
            vec![SimTask { elements: 1000.0, private_bytes: 1024.0 }; 2],
            vec![SimEdge { src: 0, dst: 1, bytes }, SimEdge { src: 1, dst: 0, bytes }],
        )
    }

    #[test]
    fn fabric_crossings_are_slower_than_local_halos() {
        let m = ClusterMachine::paper(2);
        let g = pair_graph(64.0 * 1024.0);
        let local = simulate_cluster(&m, &g, &[0, 1], 10, &mut NoopSimMonitor);
        let cross = simulate_cluster(&m, &g, &[0, 16], 10, &mut NoopSimMonitor);
        assert!(cross.total_time > 2.0 * local.total_time, "{} vs {}", cross.total_time, local.total_time);
        assert_eq!(local.inter_node_bytes, 0.0);
        assert_eq!(local.fabric_messages, 0);
        assert_eq!(cross.inter_node_bytes, 2.0 * 64.0 * 1024.0);
        assert_eq!(cross.fabric_messages, 2);
        assert_eq!(cross.intra_node_bytes, 0.0);
    }

    #[test]
    fn latency_dominates_small_fabric_messages() {
        let m = ClusterMachine::paper(2);
        let g = pair_graph(8.0); // tiny halos: latency-bound across the fabric
        let cross = simulate_cluster(&m, &g, &[0, 16], 5, &mut NoopSimMonitor);
        let latency = m.fabric().same_rack.latency;
        assert!(
            cross.iteration_times.iter().all(|&t| t >= latency),
            "{:?} < {latency}",
            cross.iteration_times
        );
    }

    #[test]
    fn aggregate_fabric_bandwidth_floors_the_iteration() {
        // Huge all-to-all across 2 nodes: the cut cannot move faster than
        // the aggregate fabric bandwidth.
        let m = ClusterMachine::paper(2);
        let n = 8;
        let tasks = vec![SimTask { elements: 1.0, private_bytes: 1.0 }; n];
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    edges.push(SimEdge { src: i, dst: j, bytes: 1.0e8 });
                }
            }
        }
        let g = TaskGraph::new(tasks, edges);
        let mapping: Vec<usize> = (0..n).map(|t| if t < 4 { t } else { 16 + t - 4 }).collect();
        let r = simulate_cluster(&m, &g, &mapping, 1, &mut NoopSimMonitor);
        let floor = r.inter_node_bytes / m.fabric().aggregate_bandwidth;
        assert!(r.total_time >= floor);
        assert!(r.inter_node_bytes > 0.0);
    }

    #[test]
    fn pu_serialisation_applies_globally() {
        let m = ClusterMachine::paper(2);
        let tasks = vec![SimTask { elements: 1.0e6, private_bytes: 0.0 }; 4];
        let g = TaskGraph::new(tasks, vec![]);
        let stacked = simulate_cluster(&m, &g, &[0, 0, 0, 0], 3, &mut NoopSimMonitor);
        let spread = simulate_cluster(&m, &g, &[0, 1, 16, 17], 3, &mut NoopSimMonitor);
        assert!(stacked.total_time > 3.0 * spread.total_time);
    }

    #[test]
    fn monitor_sees_every_halo_edge() {
        struct Count(usize);
        impl SimMonitor for Count {
            fn on_transfer(&mut self, _i: usize, _s: usize, _d: usize, _b: f64) {
                self.0 += 1;
            }
        }
        let m = ClusterMachine::paper(2);
        let g = pair_graph(1024.0);
        let mut c = Count(0);
        simulate_cluster(&m, &g, &[0, 16], 7, &mut c);
        assert_eq!(c.0, 2 * 7);
    }

    #[test]
    #[should_panic]
    fn mapping_must_cover_the_graph() {
        let m = ClusterMachine::paper(2);
        let g = pair_graph(1.0);
        simulate_cluster(&m, &g, &[0], 1, &mut NoopSimMonitor);
    }
}
