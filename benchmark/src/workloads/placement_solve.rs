//! `placement_solve`: the solvers alone.
//!
//! A single-threaded batch — flat TreeMatch of a 32×32 stencil and of a
//! power-law graph (p = 1024) onto the paper's 192-PU machine, and the
//! two-level hierarchical placement of a power-law graph (p = 512) onto
//! eight nodes, each solved twice.  `orwl-treematch` grouping and
//! partitioning and `orwl-comm` aggregation do all the work; no thread,
//! lock or socket is touched, so runtime optimisations predict no change.
//!
//! The seed relabels the tasks of each graph; it does not rewire them.
//! Rewiring moved the solve time itself — 25–37 ms flat and 34–54 ms
//! hierarchical over twelve seeds — which would have been the whole spread
//! of `run_s`; under relabelling the same solves stay within ±5 %, and
//! the placements and their hop-bytes still differ from seed to seed.

use super::{fnv1a, splitmix64, Checks, Outcome, Workload};
use crate::span::Tracer;
use orwl_cluster::{hierarchical_placement, policy_placement, ClusterMachine};
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::hop_bytes;
use orwl_comm::patterns::{power_law, stencil_2d, StencilSpec};
use orwl_topo::topology::Topology;
use orwl_treematch::policies::{compute_placement, Policy};
use orwl_treematch::{PlacementScratch, TreeMatchMapper};

pub const FLAT_TASKS: usize = 1024;
pub const HIER_TASKS: usize = 512;
pub const HIER_NODES: usize = 8;
const TWICE: usize = 2;
pub const SOLVES: f64 = (3 * TWICE) as f64;

pub fn stencil_matrix() -> CommMatrix {
    stencil_2d(&StencilSpec { rows: 32, cols: 32, edge_volume: 8192.0, corner_volume: 8.0 })
}

/// The wiring of the power-law graphs: the paper's year, for every seed.
const WIRING_SEED: u64 = 2016;

pub fn power_law_matrix(tasks: usize) -> CommMatrix {
    power_law(tasks, 4, 1.0e6, WIRING_SEED)
}

/// `m` with its tasks relabelled by a seeded Fisher-Yates shuffle.
fn relabelled(m: &CommMatrix, seed: u64) -> CommMatrix {
    let mut state = seed;
    let mut labels: Vec<usize> = (0..m.order()).collect();
    for i in (1..labels.len()).rev() {
        labels.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    m.permuted(&labels)
}

pub struct PlacementSolve {
    smp192: Topology,
    cluster: ClusterMachine,
    stencil: CommMatrix,
    power_flat: CommMatrix,
    power_hier: CommMatrix,
    /// Task → PU of the latest repeat's three placements.
    mappings: Vec<Vec<usize>>,
}

impl PlacementSolve {
    pub fn new(seed: u64) -> Self {
        PlacementSolve {
            smp192: orwl_topo::synthetic::cluster2016_smp192(),
            cluster: ClusterMachine::paper(HIER_NODES),
            stencil: relabelled(&stencil_matrix(), seed),
            power_flat: relabelled(&power_law_matrix(FLAT_TASKS), seed),
            power_hier: relabelled(&power_law_matrix(HIER_TASKS).symmetrized(), seed),
            mappings: Vec::new(),
        }
    }

    /// The three problems as (matrix, topology the mapping lives on).
    fn problems(&self) -> [(&CommMatrix, &Topology); 3] {
        [
            (&self.stencil, &self.smp192),
            (&self.power_flat, &self.smp192),
            (&self.power_hier, self.cluster.topology()),
        ]
    }
}

impl Workload for PlacementSolve {
    fn repeat(&mut self, tracer: &mut Tracer, _observe: bool) -> Result<Outcome, String> {
        let repeat_start = std::time::Instant::now();
        let mapper = TreeMatchMapper::compute_only();
        let mut scratch = PlacementScratch::new();
        let mut mappings = Vec::with_capacity(3);
        let mut solve_s = 0.0;
        for _ in 0..TWICE {
            mappings.clear();
            for m in [&self.stencil, &self.power_flat] {
                let start = std::time::Instant::now();
                let placement = tracer.span("treematch.flat_solve", |_| {
                    mapper.compute_placement_with(&self.smp192, m, &mut scratch)
                });
                solve_s += start.elapsed().as_secs_f64();
                mappings.push(placement.compute_mapping_or_zero());
            }
            let cp = tracer
                .span("cluster.hier_place", |_| hierarchical_placement(&self.cluster, &self.power_hier));
            mappings.push(cp.global_mapping(&self.cluster));
        }
        let hops: Vec<f64> =
            self.problems().iter().zip(&mappings).map(|((m, topo), map)| hop_bytes(m, topo, map)).collect();
        tracer.count("treematch.solves", SOLVES);
        self.mappings = mappings;
        Ok(Outcome {
            exact: vec![
                ("treematch.hop_bytes_stencil", hops[0]),
                ("treematch.hop_bytes_powerlaw", hops[1]),
                ("cluster.hop_bytes_hier", hops[2]),
                (
                    "harness.output_hash",
                    fnv1a(self.mappings.iter().flatten().flat_map(|&pu| (pu as u32).to_le_bytes())),
                ),
            ],
            ratios: vec![("treematch.solve_share", solve_s / repeat_start.elapsed().as_secs_f64())],
            ..Outcome::default()
        })
    }

    fn verify(&mut self, latest: &Outcome, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        let names = ["stencil", "power-law flat", "power-law hierarchical"];
        let scatter = [
            compute_placement(Policy::Scatter, &self.smp192, &self.stencil, 0).compute_mapping_or_zero(),
            compute_placement(Policy::Scatter, &self.smp192, &self.power_flat, 0).compute_mapping_or_zero(),
            policy_placement(&self.cluster, Policy::Scatter, 0, 0, &self.power_hier)
                .global_mapping(&self.cluster),
        ];
        let solved = [
            latest.exact("treematch.hop_bytes_stencil"),
            latest.exact("treematch.hop_bytes_powerlaw"),
            latest.exact("cluster.hop_bytes_hier"),
        ];
        let mut log_ratio = 0.0;
        for (i, (m, topo)) in self.problems().into_iter().enumerate() {
            let mapping = self.mappings.get(i).map_or(&[][..], Vec::as_slice);
            let pus = topo.pu_os_indices();
            let capacity = m.order().div_ceil(pus.len());
            let mut load = std::collections::BTreeMap::new();
            for pu in mapping {
                *load.entry(pu).or_insert(0usize) += 1;
            }
            checks.check(mapping.len() == m.order() && load.keys().all(|pu| pus.contains(pu)), || {
                format!("placement_solve: {} placement leaves a task without a PU of the machine", names[i])
            });
            let heaviest = load.values().copied().max().unwrap_or(0);
            checks.check(heaviest <= capacity, || {
                format!("placement_solve: {} puts {heaviest} tasks on one PU, capacity {capacity}", names[i])
            });
            let baseline = hop_bytes(m, topo, &scatter[i]);
            let ratio = solved[i].unwrap_or(f64::NAN) / baseline;
            checks.check(ratio <= 1.0, || {
                format!("placement_solve: {} costs {ratio} of the Scatter baseline's hop-bytes", names[i])
            });
            log_ratio += ratio.ln();
        }
        vec![("locality.ratio_vs_scatter", (log_ratio / 3.0).exp())]
    }

    fn input_bytes(&self) -> Vec<u8> {
        self.problems().iter().flat_map(|(m, _)| m.as_slice()).flat_map(|v| v.to_le_bytes()).collect()
    }
}
