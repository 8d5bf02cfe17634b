//! Execution scenarios: where tasks run and where their data lives.
//!
//! The three implementations compared in the paper's Figure 1 differ in
//! exactly two respects that matter for NUMA performance: **thread
//! placement** (pinned by the topology-aware module, or left to the OS) and
//! **data placement** (first-touch by the thread that owns the block, or by
//! the master thread).  An [`ExecutionScenario`] captures both, plus whether
//! the implementation synchronises with a fork-join barrier every iteration.

use crate::exec::MachineCosts;
use crate::machine::SimMachine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A complete description of how a task graph is executed on the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionScenario {
    /// PU (OS index) on which each task executes.
    pub task_pu: Vec<usize>,
    /// Memory domain (NUMA node) in which each task's working set resides
    /// (first-touch); see [`MachineCosts::domain_of_pu`].
    pub data_node: Vec<usize>,
    /// True when threads are not pinned: the OS may migrate them, costing
    /// cache refills (modelled by `CostParams::migration_penalty`).
    pub migrating: bool,
    /// True for fork-join runtimes that synchronise every iteration with a
    /// barrier (the OpenMP baseline).
    pub fork_join_barrier: bool,
    /// Human-readable label used in reports ("orwl-bind", "openmp", …).
    pub label: String,
}

impl ExecutionScenario {
    /// The paper's **ORWL Bind** configuration: tasks pinned according to a
    /// placement (typically produced by the TreeMatch mapper), data
    /// first-touched by the pinned owner, so it is local to the memory
    /// domain the task runs in.  On a cluster `task_pu` holds global PUs.
    pub fn bound<M: MachineCosts + ?Sized>(machine: &M, task_pu: Vec<usize>) -> Self {
        let data_node = task_pu.iter().map(|&pu| machine.domain_of_pu(pu)).collect();
        ExecutionScenario {
            task_pu,
            data_node,
            migrating: false,
            fork_join_barrier: false,
            label: "orwl-bind".to_string(),
        }
    }

    /// The paper's **ORWL NoBind** configuration: the OS places (and may
    /// migrate) the per-operation threads.  Each block is first-touched by
    /// its own task thread, so right after allocation the data *is* local to
    /// wherever that thread happened to run; later migrations and wake-ups
    /// on other cores break that affinity for roughly half of the blocks.
    /// The scenario therefore keeps ~50% of the blocks node-local and
    /// scatters the rest, with unpinned (migrating) execution.
    pub fn orwl_nobind(machine: &SimMachine, n_tasks: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pus = machine.topology().pu_os_indices();
        // The OS spreads runnable threads over all PUs, but with no affinity
        // between a thread and the node holding its data.
        let mut exec_pus = pus.clone();
        exec_pus.shuffle(&mut rng);
        let task_pu: Vec<usize> = (0..n_tasks).map(|t| exec_pus[t % exec_pus.len()]).collect();
        // Roughly a third of the blocks stay where their owner first touched
        // them (the current executing node); for the rest the affinity is
        // lost to migrations and the pages end up wherever the allocating
        // thread happened to run — spread over the nodes, independent of the
        // consumer.  The spread is kept balanced (least-loaded node) because
        // the allocating threads themselves were spread over the machine.
        let n_nodes = machine.n_nodes();
        let mut node_load = vec![0usize; n_nodes];
        let mut data_node = vec![usize::MAX; n_tasks];
        // First pass: the blocks that kept first-touch locality.
        for (t, &pu) in task_pu.iter().enumerate() {
            if t % 3 == 0 || rng.gen::<f64>() < 0.05 {
                let node = machine.node_of_pu(pu);
                data_node[t] = node;
                node_load[node] += 1;
            }
        }
        // Second pass: the rest lands wherever memory pressure was lowest
        // (the allocator arenas are spread over the machine).
        for slot in data_node.iter_mut() {
            if *slot == usize::MAX {
                let node = (0..n_nodes).min_by_key(|&n| node_load[n]).unwrap_or(0);
                *slot = node;
                node_load[node] += 1;
            }
        }
        ExecutionScenario {
            task_pu,
            data_node,
            migrating: true,
            fork_join_barrier: false,
            label: "orwl-nobind".to_string(),
        }
    }

    /// The paper's **OpenMP** baseline "of equivalent abstraction": a
    /// parallel loop over row blocks with static scheduling and an implicit
    /// barrier per sweep.  Threads are unpinned, and because the
    /// initialisation loop's threads were not pinned either, the first-touch
    /// pages of the shared matrix end up spread over the NUMA nodes with no
    /// relation to the threads that later use them (modelled as node
    /// interleaving by task index).
    pub fn openmp_static(machine: &SimMachine, n_tasks: usize) -> Self {
        let pus = machine.topology().pu_os_indices();
        let task_pu: Vec<usize> = (0..n_tasks).map(|t| pus[t % pus.len()]).collect();
        let n_nodes = machine.n_nodes();
        let data_node: Vec<usize> = (0..n_tasks).map(|t| t % n_nodes).collect();
        ExecutionScenario {
            task_pu,
            data_node,
            migrating: true,
            fork_join_barrier: true,
            label: "openmp".to_string(),
        }
    }

    /// Overrides the label (useful when sweeping policies).
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Fraction of tasks whose working set lives on a different node than
    /// the one they execute on.
    pub fn remote_data_fraction(&self, machine: &SimMachine) -> f64 {
        if self.task_pu.is_empty() {
            return 0.0;
        }
        let remote = self
            .task_pu
            .iter()
            .zip(&self.data_node)
            .filter(|(&pu, &node)| machine.node_of_pu(pu) != node)
            .count();
        remote as f64 / self.task_pu.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostParams;
    use orwl_topo::synthetic;

    fn machine() -> SimMachine {
        SimMachine::new(synthetic::cluster2016_subset(4).unwrap(), CostParams::test_exaggerated())
    }

    #[test]
    fn bound_scenario_keeps_data_local() {
        let m = machine();
        let s = ExecutionScenario::bound(&m, (0..32).collect());
        assert_eq!(s.task_pu.len(), 32);
        assert!(!s.migrating);
        assert!(!s.fork_join_barrier);
        assert_eq!(s.remote_data_fraction(&m), 0.0);
        assert_eq!(s.label, "orwl-bind");
    }

    #[test]
    fn nobind_scenario_has_partially_remote_data() {
        let m = machine(); // 4 nodes
        let s = ExecutionScenario::orwl_nobind(&m, 64, 42);
        assert!(s.migrating);
        assert!(!s.fork_join_barrier);
        // About half of the blocks keep first-touch locality, the other half
        // land on an arbitrary node (3/4 of which is remote): expect a
        // remote fraction around 0.35–0.40, allow a generous band.
        let frac = s.remote_data_fraction(&m);
        assert!(frac > 0.15 && frac < 0.75, "remote fraction {frac}");
        // Reproducible.
        assert_eq!(s, ExecutionScenario::orwl_nobind(&m, 64, 42));
        assert_ne!(s, ExecutionScenario::orwl_nobind(&m, 64, 43));
    }

    #[test]
    fn openmp_scenario_interleaves_data_over_nodes() {
        let m = machine(); // 4 nodes, 32 PUs
        let s = ExecutionScenario::openmp_static(&m, 32);
        assert!(s.fork_join_barrier);
        // Data pages are spread evenly over the 4 nodes...
        for node in 0..4 {
            assert_eq!(s.data_node.iter().filter(|&&n| n == node).count(), 8);
        }
        // ...with essentially no relation to the executing thread: most
        // blocks are remote.
        let frac = s.remote_data_fraction(&m);
        assert!(frac > 0.5, "remote fraction {frac}");
    }

    #[test]
    fn with_label_renames() {
        let m = machine();
        let s = ExecutionScenario::bound(&m, vec![0, 1]).with_label("custom");
        assert_eq!(s.label, "custom");
    }

    #[test]
    fn empty_scenario_has_zero_remote_fraction() {
        let m = machine();
        let s = ExecutionScenario::bound(&m, vec![]);
        assert_eq!(s.remote_data_fraction(&m), 0.0);
    }
}
