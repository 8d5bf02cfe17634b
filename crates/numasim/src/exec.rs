//! The discrete-event execution engine: one pricer, [`price`], and one
//! iteration loop, `play`, run at the costs it prices.  [`price`] reads a
//! machine through [`MachineCosts`]: a [`SimMachine`] is one node, and
//! `orwl-cluster`'s `ClusterMachine` is several nodes joined by a fabric.
//! A placement is priced once and played as many times as its run needs.
//!
//! [`simulate`] plays an iterative [`TaskGraph`] on a [`SimMachine`] under a
//! given [`ExecutionScenario`] and returns the simulated wall-clock time
//! together with a breakdown of where the time went.  Its cost model prices:
//!
//! * **compute** — `elements × sec_per_element`, inflated by the migration
//!   penalty when threads are not pinned;
//! * **working-set accesses** — `private_bytes × per-byte cost`, where the
//!   per-byte cost depends on whether the data is in the executing PU's
//!   memory domain and on how many tasks share that domain's memory
//!   controller (bandwidth sharing);
//! * **halo transfers** — per edge, the machine's halo time between the
//!   producer and consumer PUs (a fabric message across nodes), paid
//!   before the consumer can start its iteration;
//! * **interconnect saturation** — the bytes crossing a node's socket
//!   interconnect in an iteration cannot move faster than its backplane
//!   allows, nor the bytes crossing the fabric faster than the fabric;
//! * **PU serialisation** — tasks mapped to the same PU run one after the
//!   other (oversubscription);
//! * **fork-join barriers** — optional per-iteration synchronisation.

use crate::costmodel::CostParams;
use crate::machine::SimMachine;
use crate::scenario::ExecutionScenario;
use crate::taskgraph::TaskGraph;

/// Observer of the simulated execution, the simulator-side analogue of
/// `orwl_core::runtime::AdaptiveController::on_flow`.  `orwl-adapt` feeds
/// its online communication matrix from these callbacks.
pub trait SimMonitor {
    /// Called once per halo edge per iteration: `src` sent `bytes` to `dst`.
    fn on_transfer(&mut self, iteration: usize, src: usize, dst: usize, bytes: f64);

    /// Called when an iteration's simulated execution completes.
    fn on_iteration_end(&mut self, iteration: usize, elapsed: f64) {
        let _ = (iteration, elapsed);
    }
}

/// A borrowed monitor observes for its owner.
impl<M: SimMonitor + ?Sized> SimMonitor for &mut M {
    fn on_transfer(&mut self, iteration: usize, src: usize, dst: usize, bytes: f64) {
        (**self).on_transfer(iteration, src, dst, bytes);
    }

    fn on_iteration_end(&mut self, iteration: usize, elapsed: f64) {
        (**self).on_iteration_end(iteration, elapsed);
    }
}

/// Two monitors as one: each callback goes to the first, then the second.
impl<A: SimMonitor, B: SimMonitor> SimMonitor for (A, B) {
    fn on_transfer(&mut self, iteration: usize, src: usize, dst: usize, bytes: f64) {
        self.0.on_transfer(iteration, src, dst, bytes);
        self.1.on_transfer(iteration, src, dst, bytes);
    }

    fn on_iteration_end(&mut self, iteration: usize, elapsed: f64) {
        self.0.on_iteration_end(iteration, elapsed);
        self.1.on_iteration_end(iteration, elapsed);
    }
}

/// A monitor that observes nothing (the default for [`simulate`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSimMonitor;

impl SimMonitor for NoopSimMonitor {
    fn on_transfer(&mut self, _iteration: usize, _src: usize, _dst: usize, _bytes: f64) {}
}

/// Where the simulated time was spent, summed over all tasks and iterations
/// (seconds of task-time, not wall-clock).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Pure computation.
    pub compute: f64,
    /// Working-set (private block) memory accesses.
    pub memory: f64,
    /// Halo/frontier transfers between tasks.
    pub halo: f64,
    /// Barrier synchronisation overhead.
    pub barrier: f64,
}

impl TimeBreakdown {
    /// Total accumulated task-time.
    pub fn total(&self) -> f64 {
        self.compute + self.memory + self.halo + self.barrier
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated wall-clock time of the whole run, in seconds.
    pub total_time: f64,
    /// Simulated wall-clock time of each iteration.
    pub iteration_times: Vec<f64>,
    /// Aggregated task-time breakdown (helps explain *why* a scenario is
    /// slow; the components overlap in wall-clock time).
    pub breakdown: TimeBreakdown,
    /// Bytes crossing memory domains per iteration (working set + halos).
    pub cross_node_bytes: f64,
    /// Halo bytes per iteration staying inside a node (every halo of a
    /// [`SimMachine`]).
    pub intra_node_bytes: f64,
    /// Halo bytes per iteration crossing the fabric between nodes.
    pub inter_node_bytes: f64,
    /// Fabric messages per iteration (remote lock grants / transfers).
    pub fabric_messages: usize,
    /// Label copied from the scenario.
    pub label: String,
}

/// What [`price`] reads of a machine: its calibration, which memory
/// domain and which node each PU belongs to, what a halo between two PUs
/// takes, and the fabric joining the nodes.  A memory domain is one memory
/// controller (a NUMA node); a node is one shared-memory machine, and its
/// domains share its socket interconnect.  [`SimMachine`] is one node.
pub trait MachineCosts {
    /// The calibration constants.
    fn params(&self) -> &CostParams;

    /// Memory domain of PU `pu`, numbered over all nodes.
    fn domain_of_pu(&self, pu: usize) -> usize;

    /// Node hosting PU `pu`.
    fn host_of_pu(&self, pu: usize) -> usize;

    /// Seconds a halo of `bytes` takes from `src_pu` to `dst_pu`: the
    /// fabric latency (`0` within a node) plus `bytes ×` the link's
    /// per-byte cost.
    fn halo_time(&self, src_pu: usize, dst_pu: usize, bytes: f64) -> f64;

    /// Aggregate bandwidth of the fabric between nodes, in bytes/second.
    fn fabric_bandwidth(&self) -> f64;
}

/// One node with no fabric: a domain is a NUMA node.
impl MachineCosts for SimMachine {
    fn params(&self) -> &CostParams {
        SimMachine::params(self)
    }

    fn domain_of_pu(&self, pu: usize) -> usize {
        self.node_of_pu(pu)
    }

    fn host_of_pu(&self, _pu: usize) -> usize {
        0
    }

    fn halo_time(&self, src_pu: usize, dst_pu: usize, bytes: f64) -> f64 {
        bytes * self.link_byte_cost(src_pu, dst_pu)
    }

    fn fabric_bandwidth(&self) -> f64 {
        f64::INFINITY
    }
}

/// Simulates `iterations` iterations of `graph` under `scenario`.
///
/// # Panics
/// Panics when the scenario does not cover every task of the graph.
pub fn simulate(
    machine: &SimMachine,
    graph: &TaskGraph,
    scenario: &ExecutionScenario,
    iterations: usize,
) -> SimReport {
    simulate_monitored(machine, graph, scenario, iterations, &mut NoopSimMonitor)
}

/// [`simulate`] on any machine, with a [`SimMonitor`] observing every halo
/// transfer and iteration boundary — the hook `orwl-adapt` uses to monitor
/// the simulated executor online.  One [`price`] and one [`Priced::play`].
pub fn simulate_monitored<M: MachineCosts + ?Sized>(
    machine: &M,
    graph: &TaskGraph,
    scenario: &ExecutionScenario,
    iterations: usize,
    monitor: &mut dyn SimMonitor,
) -> SimReport {
    price(machine, graph, scenario).play(graph, iterations, monitor)
}

/// A scenario priced once on one machine and graph: the `StepCosts`
/// `play` runs at and the per-iteration sums the report scales or copies.
/// Playing it `k` times gives the bits of `k` [`simulate_monitored`] calls.
#[derive(Debug)]
pub struct Priced {
    costs: StepCosts,
    /// Compute and working-set seconds of one iteration, summed over tasks.
    compute: f64,
    memory: f64,
    /// The report of no iterations: the traffic and label every play copies.
    empty: SimReport,
}

/// Prices `scenario` for `graph` on `machine`: everything a run of it
/// reads that does not depend on the iteration count.
///
/// # Panics
/// Panics when the scenario does not cover every task of the graph.
pub fn price<M: MachineCosts + ?Sized>(
    machine: &M,
    graph: &TaskGraph,
    scenario: &ExecutionScenario,
) -> Priced {
    let n = graph.n_tasks();
    assert!(
        scenario.task_pu.len() >= n && scenario.data_node.len() >= n,
        "scenario covers {} tasks but the graph has {n}",
        scenario.task_pu.len()
    );
    let params = machine.params();
    // Each task's memory domain and node, read off its PU once.
    let task_pu = &scenario.task_pu[..n];
    let domain: Vec<usize> = task_pu.iter().map(|&pu| machine.domain_of_pu(pu)).collect();
    let host: Vec<usize> = task_pu.iter().map(|&pu| machine.host_of_pu(pu)).collect();

    // Number of tasks whose working set lives in each memory domain: they
    // share that domain's memory controller every iteration.
    let mut sharers_per_domain = vec![0usize; scenario.data_node[..n].iter().max().map_or(0, |d| d + 1)];
    for t in 0..n {
        sharers_per_domain[scenario.data_node[t]] += 1;
    }

    // Per-task duration of one iteration (compute + working-set accesses).
    let migration = if scenario.migrating { params.migration_penalty } else { 1.0 };
    let mut task_duration = vec![0.0f64; n];
    let mut sum_compute = 0.0;
    let mut sum_memory = 0.0;
    for (t, duration) in task_duration.iter_mut().enumerate() {
        let task = graph.task(t);
        let compute = task.elements * params.sec_per_element * migration;
        let data_domain = scenario.data_node[t];
        // Per-byte cost including the NUMA factor...
        let byte_cost = if domain[t] == data_domain {
            params.local_byte_cost
        } else {
            params.local_byte_cost * params.remote_access_factor
        };
        // ...and bandwidth sharing on the target memory controller: the
        // controller can stream `node_bandwidth` bytes/s in total, so with
        // `s` concurrent streams each sees `node_bandwidth / s`.
        let sharers = sharers_per_domain[data_domain].max(1) as f64;
        let controller_limited = task.private_bytes * sharers / params.node_bandwidth;
        let latency_limited = task.private_bytes * byte_cost;
        let memory = latency_limited.max(controller_limited);
        *duration = compute + memory;
        sum_compute += compute;
        sum_memory += memory;
    }

    // Bytes crossing memory domains every iteration (working sets fetched
    // from another domain, plus domain-crossing halos), and the share of
    // them each node's socket interconnect carries: its own crossings plus
    // every fabric byte entering or leaving it.
    let mut cross_bytes = 0.0;
    let mut backplane_bytes = vec![0.0f64; host.iter().max().map_or(0, |h| h + 1)];
    for t in 0..n {
        if domain[t] != scenario.data_node[t] {
            cross_bytes += graph.task(t).private_bytes;
            backplane_bytes[host[t]] += graph.task(t).private_bytes;
        }
    }
    let (mut intra_node_bytes, mut inter_node_bytes, mut fabric_messages) = (0.0, 0.0, 0usize);
    let mut edge_time = Vec::with_capacity(graph.edges().len());
    for e in graph.edges() {
        let (host_a, host_b) = (host[e.src], host[e.dst]);
        if domain[e.src] != domain[e.dst] {
            cross_bytes += e.bytes;
            backplane_bytes[host_a] += e.bytes;
        }
        if host_a == host_b {
            intra_node_bytes += e.bytes;
        } else {
            // One fabric message per halo per iteration: the remote lock
            // grant plus the location transfer.
            inter_node_bytes += e.bytes;
            fabric_messages += 1;
            backplane_bytes[host_b] += e.bytes;
        }
        edge_time.push(machine.halo_time(task_pu[e.src], task_pu[e.dst], e.bytes));
    }
    // An iteration's traffic cannot beat the fabric's aggregate bandwidth
    // nor any node's backplane, whatever the per-task overlap looked like.
    let fabric_floor = inter_node_bytes / machine.fabric_bandwidth();
    let backplane_floor =
        backplane_bytes.iter().map(|b| b / params.interconnect_bandwidth).fold(0.0f64, f64::max);

    // Barrier overhead per iteration (fork-join runtimes only).
    let barrier = scenario.fork_join_barrier.then_some(params.barrier_cost_per_thread * n as f64);

    Priced {
        costs: StepCosts::new(task_pu, task_duration, edge_time, fabric_floor.max(backplane_floor), barrier),
        compute: sum_compute,
        memory: sum_memory,
        empty: SimReport {
            total_time: 0.0,
            iteration_times: Vec::new(),
            breakdown: TimeBreakdown::default(),
            cross_node_bytes: cross_bytes,
            intra_node_bytes,
            inter_node_bytes,
            fabric_messages,
            label: scenario.label.clone(),
        },
    }
}

impl Priced {
    /// Runs `iterations` iterations of `graph`, the graph this was priced
    /// for, reporting to `monitor`.
    pub fn play(&self, graph: &TaskGraph, iterations: usize, monitor: &mut dyn SimMonitor) -> SimReport {
        let (total_time, iteration_times, halo, barrier) = play(graph, &self.costs, iterations, monitor);
        let (compute, memory) = (self.compute * iterations as f64, self.memory * iterations as f64);
        let breakdown = TimeBreakdown { compute, memory, halo, barrier };
        SimReport { total_time, iteration_times, breakdown, ..self.empty.clone() }
    }
}

/// The static costs of one placement, priced once by [`price`]:
/// everything `play` reads, and nothing that depends on how many
/// iterations are played.
#[derive(Debug)]
struct StepCosts {
    /// Seconds of compute and working-set streaming per task and iteration.
    duration: Vec<f64>,
    /// Each task's PU as a dense slot in `0..n_slots`, so that no PU
    /// number sizes anything.
    slot: Vec<usize>,
    n_slots: usize,
    /// Seconds each edge's halo takes, in edge order.
    edge_time: Vec<f64>,
    /// No iteration is shorter than this (the backplane or fabric bound).
    floor: f64,
    /// The fork-join barrier closing every iteration, if there is one.
    barrier: Option<f64>,
}

impl StepCosts {
    /// Costs of running task `t` on PU `task_pu[t]` for `t < duration.len()`;
    /// `edge_time` follows the graph's edge order.
    fn new(
        task_pu: &[usize],
        duration: Vec<f64>,
        edge_time: Vec<f64>,
        floor: f64,
        barrier: Option<f64>,
    ) -> Self {
        let task_pu = &task_pu[..duration.len()];
        let mut pus = task_pu.to_vec();
        pus.sort_unstable();
        pus.dedup();
        let slot = task_pu.iter().map(|pu| pus.binary_search(pu).expect("every PU is listed")).collect();
        StepCosts { duration, slot, n_slots: pus.len(), edge_time, floor, barrier }
    }
}

/// Runs `iterations` iterations of `graph` at `costs` — the one iteration
/// loop of every simulator — and returns the total and per-iteration times
/// and the halo and barrier sums.
///
/// Each iteration walks the tasks in index order and each task's in-edges
/// in edge order, reporting every edge to `monitor` and adding its time to
/// the halo sum; a task is ready once every producer's previous iteration
/// plus the edge's time has passed.  Tasks then run in ready order (a
/// stable sort: ties keep index order), one at a time per PU.  The
/// iteration lasts at least the floor, then pays the barrier, which also
/// re-synchronises every task and PU.  This order is part of the contract:
/// a monitor's online matrix sums in it.
fn play(
    graph: &TaskGraph,
    costs: &StepCosts,
    iterations: usize,
    monitor: &mut dyn SimMonitor,
) -> (f64, Vec<f64>, f64, f64) {
    let n = graph.n_tasks();
    let mut finish_prev = vec![0.0f64; n];
    let mut finish_cur = vec![0.0f64; n];
    let mut pu_free = vec![0.0f64; costs.n_slots];
    let mut iteration_times = Vec::with_capacity(iterations);
    let mut clock = 0.0f64;
    let (mut halo, mut barrier) = (0.0, 0.0);

    for iter in 0..iterations {
        // Order tasks by the time their dependencies are satisfied so that
        // PU serialisation favours the task that becomes ready first.
        let mut ready: Vec<(f64, usize)> = (0..n)
            .map(|t| {
                let mut r: f64 = clock;
                for (k, e) in graph.in_edges(t) {
                    let halo_time = costs.edge_time[k];
                    halo += halo_time;
                    monitor.on_transfer(iter, e.src, e.dst, e.bytes);
                    r = r.max(finish_prev[e.src] + halo_time);
                }
                (r, t)
            })
            .collect();
        ready.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        let mut iter_end = clock;
        for (ready_time, t) in ready {
            let free = &mut pu_free[costs.slot[t]];
            let finish = ready_time.max(*free) + costs.duration[t];
            *free = finish;
            finish_cur[t] = finish;
            iter_end = iter_end.max(finish);
        }
        iter_end = iter_end.max(clock + costs.floor);

        // Fork-join runtimes re-synchronise every iteration.
        if let Some(cost) = costs.barrier {
            iter_end += cost;
            barrier += cost;
            finish_cur.fill(iter_end);
            pu_free.fill(iter_end);
        }

        iteration_times.push(iter_end - clock);
        monitor.on_iteration_end(iter, iter_end - clock);
        clock = iter_end;
        std::mem::swap(&mut finish_prev, &mut finish_cur);
    }
    (clock, iteration_times, halo, barrier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostParams;
    use crate::scenario::ExecutionScenario;
    use crate::taskgraph::{SimEdge, SimTask};
    use orwl_comm::patterns::StencilSpec;
    use orwl_topo::synthetic;

    fn small_machine() -> SimMachine {
        SimMachine::new(synthetic::cluster2016_subset(4).unwrap(), CostParams::test_exaggerated())
    }

    fn stencil_graph(side: usize) -> TaskGraph {
        let spec = StencilSpec::nine_point_blocks(side, 64, 8);
        TaskGraph::stencil(&spec, 64.0 * 64.0, 8.0)
    }

    #[test]
    fn zero_iterations_takes_zero_time() {
        let m = small_machine();
        let g = stencil_graph(4);
        let s = ExecutionScenario::bound(&m, (0..16).collect());
        let r = simulate(&m, &g, &s, 0);
        assert_eq!(r.total_time, 0.0);
        assert!(r.iteration_times.is_empty());
    }

    #[test]
    fn time_scales_linearly_with_iterations() {
        let m = small_machine();
        let g = stencil_graph(4);
        let s = ExecutionScenario::bound(&m, (0..16).collect());
        let r1 = simulate(&m, &g, &s, 10);
        let r2 = simulate(&m, &g, &s, 20);
        assert!(r1.total_time > 0.0);
        // Steady-state: doubling iterations roughly doubles the time.
        let ratio = r2.total_time / r1.total_time;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
        assert_eq!(r1.iteration_times.len(), 10);
    }

    #[test]
    fn local_bound_run_beats_remote_unbound_run() {
        let m = small_machine();
        let g = stencil_graph(8); // 64 tasks on 32 PUs (oversubscribed ×2)
        let bound = ExecutionScenario::bound(&m, (0..64).map(|t| t % 32).collect());
        let nobind = ExecutionScenario::orwl_nobind(&m, 64, 7);
        let openmp = ExecutionScenario::openmp_static(&m, 64);
        let rb = simulate(&m, &g, &bound, 5);
        let rn = simulate(&m, &g, &nobind, 5);
        let ro = simulate(&m, &g, &openmp, 5);
        assert!(rb.total_time < rn.total_time, "bind {} vs nobind {}", rb.total_time, rn.total_time);
        assert!(rn.total_time < ro.total_time, "nobind {} vs openmp {}", rn.total_time, ro.total_time);
        // The OpenMP run funnels everything through node 0: more cross-node
        // traffic than the bound run.
        assert!(ro.cross_node_bytes > rb.cross_node_bytes);
    }

    #[test]
    fn breakdown_components_are_positive_and_labelled() {
        let m = small_machine();
        let g = stencil_graph(4);
        let s = ExecutionScenario::openmp_static(&m, 16);
        let r = simulate(&m, &g, &s, 3);
        assert!(r.breakdown.compute > 0.0);
        assert!(r.breakdown.memory > 0.0);
        assert!(r.breakdown.halo > 0.0);
        assert!(r.breakdown.barrier > 0.0);
        assert!(r.breakdown.total() > 0.0);
        assert_eq!(r.label, "openmp");
        // A bound ORWL run has no barrier component.
        let rb = simulate(&m, &g, &ExecutionScenario::bound(&m, (0..16).collect()), 3);
        assert_eq!(rb.breakdown.barrier, 0.0);
    }

    #[test]
    fn pu_serialisation_slows_oversubscribed_placements() {
        let m = small_machine();
        let g = stencil_graph(4); // 16 tasks
                                  // All tasks stacked on one PU vs spread over 16 PUs.
        let stacked = ExecutionScenario::bound(&m, vec![0; 16]);
        let spread = ExecutionScenario::bound(&m, (0..16).collect());
        let rs = simulate(&m, &g, &stacked, 3);
        let rp = simulate(&m, &g, &spread, 3);
        assert!(rs.total_time > rp.total_time * 4.0, "stacked {} spread {}", rs.total_time, rp.total_time);
    }

    #[test]
    fn pus_past_the_machine_serialise_without_sizing_anything() {
        // The machine prices a PU number past its last PU as remote on
        // node 0; the loop must serialise on it like any other PU, not
        // allocate up to it.
        let m = small_machine();
        let g = TaskGraph::new(vec![SimTask { elements: 1000.0, private_bytes: 0.0 }; 2], vec![]);
        let stacked = simulate(&m, &g, &ExecutionScenario::bound(&m, vec![usize::MAX; 2]), 2).total_time;
        let spread = simulate(&m, &g, &ExecutionScenario::bound(&m, vec![usize::MAX, 0]), 2).total_time;
        assert!(stacked > 1.5 * spread, "stacked {stacked} vs spread {spread}");
    }

    #[test]
    fn interconnect_floor_limits_remote_heavy_runs() {
        // A graph with huge working sets all resident on node 0, executed
        // from node 1: the iteration cannot be faster than cross-bytes /
        // backplane bandwidth.
        let m = small_machine();
        let tasks = vec![SimTask { elements: 1.0, private_bytes: 1.0e9 }; 8];
        let g = TaskGraph::new(tasks, vec![]);
        let s = ExecutionScenario {
            task_pu: (8..16).collect(), // node 1
            data_node: vec![0; 8],
            migrating: false,
            fork_join_barrier: false,
            label: "remote".to_string(),
        };
        let r = simulate(&m, &g, &s, 1);
        let floor = 8.0e9 / m.params().interconnect_bandwidth;
        assert!(r.total_time >= floor);
        assert_eq!(r.cross_node_bytes, 8.0e9);
    }

    #[test]
    fn remote_working_sets_pay_the_remote_access_factor() {
        // One task, no compute and no halo: its iteration is its working set.
        let m = small_machine();
        let p = m.params();
        let g = TaskGraph::new(vec![SimTask { elements: 0.0, private_bytes: 1.0e6 }], vec![]);
        let data_on = |node: usize| ExecutionScenario {
            task_pu: vec![0],
            data_node: vec![node],
            migrating: false,
            fork_join_barrier: false,
            label: String::new(),
        };
        let local = simulate(&m, &g, &data_on(0), 1).breakdown.memory;
        let remote = simulate(&m, &g, &data_on(1), 1).breakdown.memory;
        let controller = 1.0e6 / p.node_bandwidth;
        assert_eq!(local, (1.0e6 * p.local_byte_cost).max(controller));
        assert_eq!(remote, (1.0e6 * p.local_byte_cost * p.remote_access_factor).max(controller));
        assert!(remote > local, "remote {remote} vs local {local}");
    }

    #[test]
    fn halo_dependencies_delay_consumers() {
        // Two tasks: task 1 needs a big halo from task 0 each iteration.
        let m = small_machine();
        let tasks = vec![SimTask { elements: 1000.0, private_bytes: 0.0 }; 2];
        let edges = vec![SimEdge { src: 0, dst: 1, bytes: 1.0e6 }];
        let g = TaskGraph::new(tasks, edges.clone());
        // Same socket vs different sockets: the cross-socket link is slower,
        // so the total time grows.
        let near = ExecutionScenario::bound(&m, vec![0, 1]);
        let far = ExecutionScenario::bound(&m, vec![0, 8]);
        let rn = simulate(&m, &g, &near, 4);
        let rf = simulate(&m, &g, &far, 4);
        assert!(rf.total_time > rn.total_time);
    }

    #[test]
    #[should_panic]
    fn scenario_must_cover_all_tasks() {
        let m = small_machine();
        let g = stencil_graph(4);
        let s = ExecutionScenario::bound(&m, vec![0, 1]); // only 2 of 16
        simulate(&m, &g, &s, 1);
    }
}
