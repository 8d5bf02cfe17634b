//! The multi-node cost model.
//!
//! [`simulate_cluster`] plays an iterative task graph on a
//! [`ClusterMachine`] with numasim's iteration loop
//! (`orwl_numasim::exec::play`, PU serialisation included): this file only
//! prices a placement as `StepCosts`.  Tasks pay compute plus
//! bandwidth-shared working-set accesses, as on one NUMA node; halo edges
//! inside a node pay the node's link cost, and node-crossing ones become
//! **fabric messages** — a remote lock grant plus the location transfer —
//! paying the fabric's per-message latency and per-byte cost.  The sum of
//! all fabric bytes per iteration is bounded by the fabric's aggregate
//! bandwidth, and each node's socket-interconnect bytes by its backplane.
//!
//! Data follows the first-touch-by-owner rule of the bound scenarios: a
//! task's working set lives on the node (and NUMA domain) of the PU it is
//! pinned to, which is exactly the invariant the two-level placement
//! guarantees (see `tests/proptests.rs`).

use crate::machine::ClusterMachine;
use orwl_numasim::exec::{play, SimMonitor, StepCosts};
use orwl_numasim::taskgraph::TaskGraph;

/// Result of a cluster simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimReport {
    /// Simulated wall-clock time of the whole run, in seconds.
    pub total_time: f64,
    /// Simulated wall-clock time of each iteration.
    pub iteration_times: Vec<f64>,
    /// Halo bytes per iteration staying inside a node.
    pub intra_node_bytes: f64,
    /// Halo bytes per iteration crossing the fabric.
    pub inter_node_bytes: f64,
    /// Fabric messages per iteration (remote lock grants / transfers).
    pub fabric_messages: usize,
}

/// Simulates `iterations` iterations of `graph` with every task pinned to
/// the *global* PU `task_pu[t]`, reporting every halo transfer to
/// `monitor` (task indices, like the single-node executor).  One
/// [`price_cluster`] and one [`PricedCluster::play`].
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
) -> ClusterSimReport {
    price_cluster(machine, graph, task_pu).play(graph, iterations, monitor)
}

/// A mapping priced once on one cluster and graph: the `StepCosts` `play`
/// runs at and the per-iteration traffic split.  Playing it `k` times gives
/// the bits of `k` [`simulate_cluster`] calls.
#[derive(Debug)]
pub struct PricedCluster {
    costs: StepCosts,
    intra_node_bytes: f64,
    inter_node_bytes: f64,
    fabric_messages: usize,
}

/// Prices the mapping `task_pu` for `graph` on `machine`: everything a run
/// of it reads that does not depend on the iteration count.
///
/// # Panics
/// As [`simulate_cluster`].
pub fn price_cluster(machine: &ClusterMachine, graph: &TaskGraph, task_pu: &[usize]) -> PricedCluster {
    let n = graph.n_tasks();
    assert!(task_pu.len() >= n, "mapping covers {} tasks but the graph has {n}", task_pu.len());
    let cluster = machine.cluster();
    let node_sim = machine.node_machine();
    let params = node_sim.params();
    let fabric = machine.fabric();

    // Working sets are first-touched by their pinned owner: the data's NUMA
    // domain is the executing PU's, and accessors sharing one memory
    // controller split its bandwidth.  Controllers are per (node, NUMA
    // domain) pair.
    let numa_domains_per_node = node_sim.n_nodes();
    let mut sharers = vec![0usize; cluster.n_nodes() * numa_domains_per_node];
    let domain_of = |g: usize| -> usize {
        cluster.node_of_pu(g) * numa_domains_per_node + node_sim.node_of_pu(cluster.local_pu(g))
    };
    for t in 0..n {
        sharers[domain_of(task_pu[t])] += 1;
    }

    let mut task_duration = vec![0.0f64; n];
    for (t, duration) in task_duration.iter_mut().enumerate() {
        let task = graph.task(t);
        let compute = task.elements * params.sec_per_element;
        let s = sharers[domain_of(task_pu[t])].max(1) as f64;
        let latency_limited = task.private_bytes * params.local_byte_cost;
        let controller_limited = task.private_bytes * s / params.node_bandwidth;
        *duration = compute + latency_limited.max(controller_limited);
    }

    // Per-edge halo time and the per-iteration traffic split.
    let mut edge_time = Vec::with_capacity(graph.edges().len());
    let mut intra_node_bytes = 0.0;
    let mut inter_node_bytes = 0.0;
    let mut fabric_messages = 0usize;
    // Bytes crossing each node's socket interconnect (intra-node halos that
    // cross NUMA domains, plus every fabric byte entering or leaving).
    let mut node_backplane_bytes = vec![0.0f64; cluster.n_nodes()];
    for e in graph.edges() {
        let (a, b) = (task_pu[e.src], task_pu[e.dst]);
        let (na, nb) = (cluster.node_of_pu(a), cluster.node_of_pu(b));
        if na == nb {
            intra_node_bytes += e.bytes;
            edge_time.push(e.bytes * node_sim.link_byte_cost(cluster.local_pu(a), cluster.local_pu(b)));
            if node_sim.node_of_pu(cluster.local_pu(a)) != node_sim.node_of_pu(cluster.local_pu(b)) {
                node_backplane_bytes[na] += e.bytes;
            }
        } else {
            inter_node_bytes += e.bytes;
            fabric_messages += 1;
            // One fabric message per halo per iteration: the remote lock
            // grant (latency) plus the location transfer (serialisation).
            edge_time.push(machine.message_latency(a, b) + e.bytes * machine.link_byte_cost(a, b));
            node_backplane_bytes[na] += e.bytes;
            node_backplane_bytes[nb] += e.bytes;
        }
    }

    // Per-iteration floors: no overlap trick can beat the fabric's
    // aggregate bandwidth, nor any single node's socket interconnect.
    let fabric_floor = inter_node_bytes / fabric.aggregate_bandwidth;
    let node_floor =
        node_backplane_bytes.iter().map(|b| b / params.interconnect_bandwidth).fold(0.0f64, f64::max);
    let iteration_floor = fabric_floor.max(node_floor);

    PricedCluster {
        costs: StepCosts::new(task_pu, task_duration, edge_time, iteration_floor, None),
        intra_node_bytes,
        inter_node_bytes,
        fabric_messages,
    }
}

impl PricedCluster {
    /// Runs `iterations` iterations of `graph`, the graph this was priced
    /// for, reporting to `monitor`.
    pub fn play(
        &self,
        graph: &TaskGraph,
        iterations: usize,
        monitor: &mut dyn SimMonitor,
    ) -> ClusterSimReport {
        let played = play(graph, &self.costs, iterations, monitor);
        ClusterSimReport {
            total_time: played.total_time,
            iteration_times: played.iteration_times,
            intra_node_bytes: self.intra_node_bytes,
            inter_node_bytes: self.inter_node_bytes,
            fabric_messages: self.fabric_messages,
        }
    }
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

    /// Every callback a simulation makes, in order, floats as bits.
    #[derive(Debug, Default, PartialEq)]
    struct Recording {
        transfers: Vec<(usize, usize, usize, u64)>,
        iteration_ends: Vec<(usize, u64)>,
    }

    impl SimMonitor for Recording {
        fn on_transfer(&mut self, iteration: usize, src: usize, dst: usize, bytes: f64) {
            self.transfers.push((iteration, src, dst, bytes.to_bits()));
        }

        fn on_iteration_end(&mut self, iteration: usize, elapsed: f64) {
            self.iteration_ends.push((iteration, elapsed.to_bits()));
        }
    }

    /// A one-node cluster is its node's `SimMachine` under the bound
    /// scenario, term by term:
    /// * task duration — the bound run's migration factor is `1.0` and its
    ///   data is local, so both pay `elements × sec_per_element` plus
    ///   `max(bytes × local_byte_cost, bytes × sharers / node_bandwidth)`,
    ///   with sharers counted per NUMA domain either way;
    /// * edge time — no edge leaves the node, so every halo pays
    ///   `bytes × link_byte_cost` on the node's own PUs and no latency;
    /// * floor — no fabric bytes, and `node_backplane[0] /
    ///   interconnect_bandwidth` sums the same NUMA-crossing edges in the
    ///   same edge order as the bound run's `cross_bytes` (which has no
    ///   remote working set to add);
    /// * barrier — neither has one.
    ///
    /// So the two runs agree bit for bit, callbacks included.
    #[test]
    fn one_node_cluster_is_the_bound_numa_run() {
        use orwl_comm::patterns::{all_to_all, power_law, StencilSpec};
        use orwl_numasim::exec::simulate_monitored;
        use orwl_numasim::scenario::ExecutionScenario;

        let m = ClusterMachine::paper(1);
        let node = m.node_machine();
        let graphs = [
            // Oversubscribed memory controllers: the sharers term binds.
            TaskGraph::stencil(&StencilSpec::nine_point_blocks(6, 64, 8), 64.0 * 64.0, 8.0),
            TaskGraph::from_matrix(&power_law(40, 3, 1.0e5, 7), 16384.0, 131072.0),
            // Hundreds of socket-crossing halos and no work: the floor binds.
            TaskGraph::from_matrix(&all_to_all(24, 1.0e6), 1.0, 0.0),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for g in &graphs {
            // Oversubscribed and spread over both sockets of the node.
            let mapping: Vec<usize> = (0..g.n_tasks()).map(|t| t * 5 % m.n_pus()).collect();
            let (mut numa_calls, mut cluster_calls) = (Recording::default(), Recording::default());
            let bound = ExecutionScenario::bound(node, mapping.clone());
            let numa = simulate_monitored(node, g, &bound, 6, &mut numa_calls);
            let cluster = simulate_cluster(&m, g, &mapping, 6, &mut cluster_calls);
            assert_eq!(cluster.total_time.to_bits(), numa.total_time.to_bits());
            assert_eq!(bits(&cluster.iteration_times), bits(&numa.iteration_times));
            assert_eq!(cluster_calls, numa_calls);
            assert_eq!(numa_calls.transfers.len(), 6 * g.edges().len());
            assert!(numa.cross_node_bytes > 0.0, "some halos cross sockets, so the floor is non-zero");
            assert_eq!(cluster.inter_node_bytes, 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn mapping_must_cover_the_graph() {
        let m = ClusterMachine::paper(2);
        let g = pair_graph(1.0);
        simulate_cluster(&m, &g, &[0], 1, &mut NoopSimMonitor);
    }
}
