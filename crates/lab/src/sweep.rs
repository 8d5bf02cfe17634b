//! The sweep runner: grid experiments over scenario × backend × policy ×
//! mode, executed through the one `Session` front door.
//!
//! A [`SweepConfig`] is a list of [`SweepSection`]s, each a full cross
//! product of its axes.  Every cell builds a `Session` for the requested
//! backend (real threads, the single-node NUMA simulator, or the
//! fabric-coupled cluster simulator — the latter at a chosen node count and
//! oversubscription factor), runs the compiled scenario, and lowers the
//! unified [`Report`] into a flat [`SweepRow`].
//!
//! Two baselines are always run per cell group, whether or not they are in
//! the policy list: `Scatter` (the OS-spread the paper measures against)
//! and flat `TreeMatch` (single-level placement, the bar two-level
//! placement must clear).  Each row carries its hop-bytes ratio against
//! both, so regressions read directly off `BENCH_lab.json`.
//!
//! Everything that reaches a row is deterministic for a fixed seed; the
//! only non-deterministic measurement (thread-backend wall time) is
//! deliberately *not* recorded.

use crate::scenario::ScenarioSpec;
use orwl_adapt::driver::{Backend, PhasedModel};
use orwl_adapt::engine::AdaptConfig;
use orwl_cluster::ClusterMachine;
use orwl_core::error::OrwlError;
use orwl_core::runtime::AdaptiveSpec;
use orwl_core::session::{Mode, Report, Session, SessionBuilder, ThreadBackend};
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_obs::{ObsConfig, RunTelemetry};
use orwl_topo::binding::RecordingBinder;
use orwl_topo::synthetic;
use orwl_treematch::policies::Policy;
use std::sync::Arc;

/// Run modes of a sweep cell, lowered to [`Mode`] per backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeKind {
    /// Place once, never re-map.
    Static,
    /// The online monitor → drift → re-place loop (simulator backends).
    Adaptive,
    /// Free re-placement at every phase boundary (simulator backends).
    Oracle,
}

impl ModeKind {
    /// Machine-friendly name, identical to [`Mode::name`].
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ModeKind::Static => "static",
            ModeKind::Adaptive => "adaptive",
            ModeKind::Oracle => "oracle",
        }
    }

    fn to_mode(self, epoch_iterations: usize) -> Mode {
        match self {
            ModeKind::Static => Mode::Static,
            ModeKind::Adaptive => Mode::Adaptive(AdaptiveSpec::per_iterations(epoch_iterations)),
            ModeKind::Oracle => Mode::Oracle,
        }
    }
}

/// One execution substrate of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// The real thread runtime on the synthetic laptop topology (bindings
    /// recorded, not applied — CI machines are not the modelled machine).
    Threads,
    /// The single-node NUMA simulator on a `sockets`-socket subset of the
    /// paper's machine.
    NumaSim {
        /// Sockets of the simulated machine (8 cores each).
        sockets: usize,
    },
    /// The fabric-coupled cluster simulator.
    Cluster {
        /// Simulated nodes (2 sockets × 8 cores each).
        nodes: usize,
        /// Task multiplier: the scenario is resized to `factor × PUs`
        /// tasks (stencil families round up to the next square).
        oversubscription: usize,
    },
}

impl BackendSpec {
    /// The `Report::backend` name this spec produces.
    #[must_use]
    pub(crate) fn backend_name(&self) -> &'static str {
        match self {
            BackendSpec::Threads => "threads",
            BackendSpec::NumaSim { .. } => "numasim",
            BackendSpec::Cluster { .. } => "cluster",
        }
    }

    /// True when the backend can execute the mode.
    #[must_use]
    pub(crate) fn supports(&self, mode: ModeKind) -> bool {
        match self {
            // The thread backend has no oracle (no future knowledge) and
            // its adaptive mode needs an external controller — the sweep
            // sticks to static placement there.
            BackendSpec::Threads => mode == ModeKind::Static,
            BackendSpec::NumaSim { .. } | BackendSpec::Cluster { .. } => true,
        }
    }
}

/// One axis-complete block of the grid.
#[derive(Debug, Clone)]
pub struct SweepSection {
    /// Section label carried into every row (`"families"`,
    /// `"oversubscription"`…).
    pub label: &'static str,
    /// The scenario axis.
    pub scenarios: Vec<ScenarioSpec>,
    /// The backend axis.
    pub backends: Vec<BackendSpec>,
    /// The policy axis (Scatter and TreeMatch baselines are added
    /// automatically).
    pub policies: Vec<Policy>,
    /// The mode axis (filtered per backend by `BackendSpec::supports`).
    pub modes: Vec<ModeKind>,
}

/// A full sweep request.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seed shared by every seeded scenario generator.
    pub seed: u64,
    /// Iterations per adaptive monitoring epoch.
    pub epoch_iterations: usize,
    /// Lock acquisitions per task in thread-backend programs.
    pub thread_iterations: usize,
    /// The grid blocks.
    pub sections: Vec<SweepSection>,
}

impl SweepConfig {
    /// The CI-sized grid: every scenario family on all three backends plus
    /// a 1×/2× oversubscription block — small enough for a smoke job,
    /// complete enough to validate the whole pipeline.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        SweepConfig {
            seed,
            epoch_iterations: 4,
            thread_iterations: 2,
            sections: vec![
                SweepSection {
                    label: "families",
                    scenarios: ScenarioSpec::catalog(16, seed),
                    backends: vec![
                        BackendSpec::Threads,
                        BackendSpec::NumaSim { sockets: 2 },
                        BackendSpec::Cluster { nodes: 2, oversubscription: 1 },
                    ],
                    policies: vec![Policy::Hierarchical, Policy::TreeMatch, Policy::Scatter, Policy::Packed],
                    modes: vec![ModeKind::Static, ModeKind::Adaptive],
                },
                Self::oversubscription_section(seed, 2, &[1, 2]),
            ],
        }
    }

    /// The full grid: adds the oracle mode, a 4-node cluster, and the
    /// 1×/2×/4× oversubscription factors of the ROADMAP's rack-aware
    /// sweep.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        SweepConfig {
            seed,
            epoch_iterations: 4,
            thread_iterations: 2,
            sections: vec![
                SweepSection {
                    label: "families",
                    scenarios: ScenarioSpec::catalog(16, seed),
                    backends: vec![
                        BackendSpec::Threads,
                        BackendSpec::NumaSim { sockets: 2 },
                        BackendSpec::Cluster { nodes: 2, oversubscription: 1 },
                        BackendSpec::Cluster { nodes: 4, oversubscription: 1 },
                    ],
                    policies: vec![Policy::Hierarchical, Policy::TreeMatch, Policy::Scatter, Policy::Packed],
                    modes: vec![ModeKind::Static, ModeKind::Adaptive, ModeKind::Oracle],
                },
                Self::oversubscription_section(seed, 2, &[1, 2, 4]),
            ],
        }
    }

    /// The ROADMAP's rack-aware oversubscription sweep as a built-in grid:
    /// the rotated-stencil scenario on an `nodes`-node cluster with tasks
    /// = `factor × PUs` for every factor, static placement, hierarchical
    /// vs the Scatter and flat-TreeMatch baselines.
    #[must_use]
    pub fn oversubscription_section(seed: u64, nodes: usize, factors: &[usize]) -> SweepSection {
        SweepSection {
            label: "oversubscription",
            scenarios: vec![ScenarioSpec::new(
                crate::scenario::ScenarioFamily::RotatedStencil,
                16, // resized per cluster instance; see BackendSpec::Cluster
                seed,
            )],
            backends: factors
                .iter()
                .map(|&oversubscription| BackendSpec::Cluster { nodes, oversubscription })
                .collect(),
            policies: vec![Policy::Hierarchical, Policy::TreeMatch, Policy::Scatter],
            modes: vec![ModeKind::Static],
        }
    }
}

/// One cell result: everything the JSON reporter needs, flat.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Section label of the grid block.
    pub section: &'static str,
    /// Scenario name (family, effective tasks, seed).
    pub scenario: String,
    /// Scenario family name.
    pub family: &'static str,
    /// Effective task count.
    pub tasks: usize,
    /// Backend name (`threads` / `numasim` / `cluster`).
    pub backend: &'static str,
    /// Topology name the session ran on.
    pub topology: String,
    /// Cluster node count (`None` off-cluster).
    pub nodes: Option<usize>,
    /// Oversubscription factor (`None` off-cluster).
    pub oversubscription: Option<usize>,
    /// Placement policy name.
    pub policy: &'static str,
    /// Run mode name.
    pub mode: &'static str,
    /// Cumulative hop-bytes (static plan metric on the thread backend).
    pub hop_bytes: f64,
    /// Simulated seconds; `None` on the thread backend (wall time is not
    /// reproducible and is deliberately excluded from the artifact).
    pub sim_seconds: Option<f64>,
    /// Fraction of the plan's traffic that stays NUMA-local.
    pub local_fraction: f64,
    /// Cumulative fabric hop-bytes (`None` off-cluster).
    pub inter_node_hop_bytes: Option<f64>,
    /// Fabric share of the cumulative hop-bytes (`None` off-cluster).
    pub inter_node_fraction: Option<f64>,
    /// Adaptive counters (`None` for non-adaptive runs).
    pub adapt_epochs: Option<u64>,
    /// Migrations applied by the adaptive loop.
    pub adapt_replacements: Option<u64>,
    /// Node-level re-shards among those migrations.
    pub adapt_node_reshards: Option<u64>,
    /// `hop_bytes / hop_bytes(Scatter)` within the same cell group.
    pub vs_scatter: Option<f64>,
    /// `hop_bytes / hop_bytes(flat TreeMatch)` within the same cell group.
    pub vs_flat_treematch: Option<f64>,
}

/// The result of [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The seed the grid ran with.
    pub seed: u64,
    /// One row per (section, scenario, backend, mode, policy) cell, in
    /// deterministic grid order.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Rows of one section.
    pub fn section<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a SweepRow> + 'a {
        self.rows.iter().filter(move |r| r.section == label)
    }
}

/// The effective task count of `spec` on `backend`: cluster backends
/// resize to `oversubscription × PUs` (stencil families round **up** to
/// the next square so the factor is honoured), other backends keep the
/// spec's own count.
fn resized_for(spec: &ScenarioSpec, backend: &BackendSpec) -> ScenarioSpec {
    match *backend {
        BackendSpec::Cluster { nodes, oversubscription } => {
            let pus = ClusterMachine::paper(nodes).n_pus();
            let requested = oversubscription.max(1) * pus;
            let tasks = if spec.family.is_square() {
                // Round *up* to the next square so the factor is honoured
                // (never fewer tasks than requested).
                let side = (requested as f64).sqrt().ceil() as usize;
                side * side
            } else {
                requested
            };
            spec.clone().with_tasks(tasks)
        }
        _ => spec.clone(),
    }
}

fn run_cell(
    config: &SweepConfig,
    backend: &BackendSpec,
    spec: &ScenarioSpec,
    policy: Policy,
    mode: ModeKind,
    observe: Option<ObsConfig>,
) -> Result<(Report, String), OrwlError> {
    let observed = |b: SessionBuilder| match observe {
        Some(cfg) => b.observe(cfg),
        None => b,
    };
    match *backend {
        BackendSpec::Threads => {
            let topology = synthetic::laptop();
            let name = topology.name().to_string();
            let session = observed(
                Session::builder()
                    .topology(topology)
                    .policy(policy)
                    .binder(Arc::new(RecordingBinder::new()))
                    .mode(mode.to_mode(config.epoch_iterations))
                    .backend(ThreadBackend),
            )
            .build()
            .expect("static thread session configuration is valid");
            Ok((session.run(spec.program(config.thread_iterations))?, name))
        }
        BackendSpec::NumaSim { sockets } => {
            let topology = synthetic::cluster2016_subset(sockets)
                .expect("sweep grids use socket counts within the paper machine");
            let machine = SimMachine::new(topology, CostParams::cluster2016());
            run_simulated(machine, policy, mode.to_mode(config.epoch_iterations), observed, spec)
        }
        BackendSpec::Cluster { nodes, .. } => {
            let machine = ClusterMachine::paper(nodes);
            run_simulated(machine, policy, mode.to_mode(config.epoch_iterations), observed, spec)
        }
    }
}

/// One cell on a simulated machine: either simulator, through the one
/// backend both share.
fn run_simulated<M: PhasedModel + 'static>(
    machine: M,
    policy: Policy,
    mode: Mode,
    observed: impl Fn(SessionBuilder) -> SessionBuilder,
    spec: &ScenarioSpec,
) -> Result<(Report, String), OrwlError> {
    let topology = machine.topology().clone();
    let name = topology.name().to_string();
    let backend = Backend::new(machine).with_adapt_config(AdaptConfig::evaluation());
    let session = observed(
        Session::builder().topology(topology).policy(policy).control_threads(0).mode(mode).backend(backend),
    )
    .build()
    .expect("simulator session configuration is valid");
    Ok((session.run(spec.workload())?, name))
}

/// One executable cell of the flattened grid (see [`plan_cells`]).
struct PlannedCell {
    /// Index into `config.sections` (for the row's label).
    section: usize,
    backend: BackendSpec,
    /// The scenario, already resized for the backend.
    spec: ScenarioSpec,
    mode: ModeKind,
    policy: Policy,
    /// Ratio-group id: rows of one (section, backend, scenario, mode)
    /// share their Scatter / flat-TreeMatch anchors.
    group: usize,
}

/// Flattens the grid into cells in deterministic grid order: sections,
/// then backends, then scenarios, then modes, then policies (baselines
/// appended last within a group when they were not already on the axis).
fn plan_cells(config: &SweepConfig) -> Vec<PlannedCell> {
    let mut cells = Vec::new();
    let mut group = 0;
    for (section_idx, section) in config.sections.iter().enumerate() {
        // Scatter and flat TreeMatch always run: they anchor the ratios.
        let mut policies = section.policies.clone();
        for baseline in [Policy::Scatter, Policy::TreeMatch] {
            if !policies.contains(&baseline) {
                policies.push(baseline);
            }
        }
        for backend in &section.backends {
            for spec in &section.scenarios {
                let spec = resized_for(spec, backend);
                for &mode in section.modes.iter().filter(|&&m| backend.supports(m)) {
                    for &policy in &policies {
                        cells.push(PlannedCell {
                            section: section_idx,
                            backend: *backend,
                            spec: spec.clone(),
                            mode,
                            policy,
                            group,
                        });
                    }
                    group += 1;
                }
            }
        }
    }
    cells
}

/// The worker count [`run_sweep`] uses: the machine's available
/// parallelism, capped at 8 (cells are coarse; more workers only add
/// thread-backend oversubscription noise to *wall time*, never to
/// results).
#[must_use]
pub fn default_sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8)
}

/// Executes the whole grid, baselines included, and computes the per-group
/// baseline ratios.  Rows appear in deterministic grid order: sections,
/// then backends, then scenarios, then modes, then policies (baselines
/// appended last within a group when they were not already on the axis).
///
/// Cells fan out over [`default_sweep_threads`] workers; see
/// [`run_sweep_with_threads`] for the determinism argument.
pub fn run_sweep(config: &SweepConfig) -> Result<SweepResult, OrwlError> {
    run_sweep_with_threads(config, default_sweep_threads())
}

/// [`run_sweep`] with an explicit worker count (`0` and `1` both mean
/// in-place sequential execution).
///
/// # Determinism
///
/// Cells are planned upfront in grid order and are mutually independent —
/// each builds its own `Session` on its own topology, and every recorded
/// quantity is either simulated time or a placement metric (wall time is
/// never recorded).  Workers pull cells from a shared counter and send
/// `(cell index, result)` back; rows are assembled *by cell index*, so the
/// row order and every value are independent of scheduling: the artifact
/// is byte-for-byte identical whatever `threads` is (pinned by the
/// `parallel_sweep` integration test and the CI `lab_smoke` `cmp`).
pub fn run_sweep_with_threads(config: &SweepConfig, threads: usize) -> Result<SweepResult, OrwlError> {
    Ok(sweep_impl(config, threads, None)?.0)
}

/// One observed cell of [`run_sweep_observed`]: the grid coordinates as a
/// filesystem-safe label, plus the run's full telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedCell {
    /// `section__scenario__backend__mode__policy`, sanitised to
    /// `[a-z0-9._-]` (safe as a file stem).
    pub label: String,
    /// The cell's `orwl-obs/v1` telemetry.
    pub telemetry: RunTelemetry,
}

/// [`run_sweep_with_threads`] with observation enabled on every cell.
///
/// Each cell's recorder is the scope of the worker thread running the cell
/// (and of the threads that cell's session spawns), so concurrent cells
/// cannot reach each other's telemetry.  The rows are byte-identical to an
/// unobserved sweep — observation is read-only — and a simulated cell's
/// event counts do not depend on `threads`; the `obs_sweep` integration
/// test pins both.
pub fn run_sweep_observed(
    config: &SweepConfig,
    threads: usize,
    obs: ObsConfig,
) -> Result<(SweepResult, Vec<ObservedCell>), OrwlError> {
    sweep_impl(config, threads, Some(obs))
}

/// Filesystem-safe cell label: grid coordinates joined with `__`.
fn cell_label(config: &SweepConfig, cell: &PlannedCell) -> String {
    let raw = format!(
        "{}__{}__{}__{}__{}",
        config.sections[cell.section].label,
        cell.spec.name(),
        cell.backend.backend_name(),
        cell.mode.name(),
        cell.policy.name()
    );
    raw.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '.' | '_' | '-' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '-',
        })
        .collect()
}

fn sweep_impl(
    config: &SweepConfig,
    threads: usize,
    observe: Option<ObsConfig>,
) -> Result<(SweepResult, Vec<ObservedCell>), OrwlError> {
    let cells = plan_cells(config);
    let n = cells.len();

    // Execute every cell, results indexed by planned position.
    let mut results: Vec<Option<Result<(Report, String), OrwlError>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let workers = threads.min(n);
    if workers <= 1 {
        for (slot, cell) in results.iter_mut().zip(&cells) {
            *slot = Some(run_cell(config, &cell.backend, &cell.spec, cell.policy, cell.mode, observe));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, cells) = (&next, &cells);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = &cells[i];
                    let result = run_cell(config, &cell.backend, &cell.spec, cell.policy, cell.mode, observe);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                results[i] = Some(result);
            }
        });
    }

    // Assemble rows in planned order; a failed cell surfaces as the
    // sweep's error (the earliest in grid order, independent of which
    // worker hit it first).
    let mut rows = Vec::with_capacity(n);
    let mut observed = Vec::new();
    let mut group_start = 0;
    let mut scatter_hop = None;
    let mut treematch_hop = None;
    let ratio = |hop: f64, base: Option<f64>| base.and_then(|b| if b > 0.0 { Some(hop / b) } else { None });
    for (i, cell) in cells.iter().enumerate() {
        let (mut report, topology) =
            results[i].take().expect("every planned cell was executed exactly once")?;
        if let Some(telemetry) = report.obs.take() {
            observed.push(ObservedCell { label: cell_label(config, cell), telemetry });
        }
        if cell.policy == Policy::Scatter {
            scatter_hop = Some(report.hop_bytes);
        }
        if cell.policy == Policy::TreeMatch {
            treematch_hop = Some(report.hop_bytes);
        }
        let (nodes, oversubscription) = match cell.backend {
            BackendSpec::Cluster { nodes, oversubscription } => (Some(nodes), Some(oversubscription)),
            _ => (None, None),
        };
        rows.push(SweepRow {
            section: config.sections[cell.section].label,
            scenario: cell.spec.name(),
            family: cell.spec.family.name(),
            tasks: cell.spec.n_tasks(),
            backend: cell.backend.backend_name(),
            topology,
            nodes,
            oversubscription,
            policy: cell.policy.name(),
            mode: cell.mode.name(),
            hop_bytes: report.hop_bytes,
            sim_seconds: match report.time {
                orwl_core::session::RunTime::Simulated(s) => Some(s),
                orwl_core::session::RunTime::Wall(_) => None,
            },
            local_fraction: report.breakdown.local_fraction(),
            inter_node_hop_bytes: report.fabric.map(|f| f.inter_node_hop_bytes),
            inter_node_fraction: report.fabric.map(|f| f.inter_node_fraction()),
            adapt_epochs: report.adapt.as_ref().map(|a| a.epochs),
            adapt_replacements: report.adapt.as_ref().map(|a| a.replacements),
            adapt_node_reshards: report.adapt.as_ref().map(|a| a.node_reshards),
            vs_scatter: None,
            vs_flat_treematch: None,
        });
        // Anchor the group's ratios once its last cell (and therefore both
        // baselines) ran.
        let group_ends = cells.get(i + 1).is_none_or(|next| next.group != cell.group);
        if group_ends {
            for row in &mut rows[group_start..] {
                row.vs_scatter = ratio(row.hop_bytes, scatter_hop);
                row.vs_flat_treematch = ratio(row.hop_bytes, treematch_hop);
            }
            group_start = rows.len();
            scatter_hop = None;
            treematch_hop = None;
        }
    }
    Ok((SweepResult { seed: config.seed, rows }, observed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-cell grid for unit tests (integration tests exercise
    /// the real smoke grid).
    fn tiny() -> SweepConfig {
        SweepConfig {
            seed: 42,
            epoch_iterations: 4,
            thread_iterations: 1,
            sections: vec![SweepSection {
                label: "tiny",
                scenarios: vec![ScenarioSpec::new(crate::scenario::ScenarioFamily::DenseStencil, 16, 42)],
                backends: vec![BackendSpec::NumaSim { sockets: 2 }],
                policies: vec![Policy::TreeMatch],
                modes: vec![ModeKind::Static],
            }],
        }
    }

    #[test]
    fn baselines_are_always_present_with_ratios() {
        let result = run_sweep(&tiny()).unwrap();
        let policies: Vec<&str> = result.rows.iter().map(|r| r.policy).collect();
        assert_eq!(policies, vec!["treematch", "scatter"]);
        for row in &result.rows {
            let vs = row.vs_scatter.expect("scatter baseline ran");
            assert!(vs > 0.0 && vs.is_finite());
            assert!(row.vs_flat_treematch.unwrap() > 0.0);
            assert_eq!(row.section, "tiny");
            assert_eq!(row.backend, "numasim");
            assert!(row.nodes.is_none());
            assert!(row.sim_seconds.unwrap() > 0.0);
        }
        // TreeMatch never loses to Scatter on its own metric.
        let tm = &result.rows[0];
        assert!(tm.vs_scatter.unwrap() <= 1.0 + 1e-9);
        // The scatter row's self-ratio is exactly 1.
        assert!((result.rows[1].vs_scatter.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_sweep(&tiny()).unwrap();
        let b = run_sweep(&tiny()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_backends_resize_to_the_oversubscription_factor() {
        let spec = ScenarioSpec::new(crate::scenario::ScenarioFamily::Shuffle, 16, 1);
        let resized = resized_for(&spec, &BackendSpec::Cluster { nodes: 2, oversubscription: 2 });
        assert_eq!(resized.n_tasks(), 64); // 2 × 32 PUs
                                           // Non-square families take the requested count exactly — the
                                           // oversubscription label in the artifact is then literal.
        let one = resized_for(&spec, &BackendSpec::Cluster { nodes: 2, oversubscription: 1 });
        assert_eq!(one.n_tasks(), 32);
        let stencil = ScenarioSpec::new(crate::scenario::ScenarioFamily::DenseStencil, 16, 1);
        let resized = resized_for(&stencil, &BackendSpec::Cluster { nodes: 2, oversubscription: 2 });
        assert_eq!(resized.n_tasks(), 64); // ceil(sqrt(64))² = 64: factor honoured
        assert!(resized.n_tasks() >= 2 * 32);
        // Non-cluster backends keep the spec's own count.
        assert_eq!(resized_for(&spec, &BackendSpec::Threads).n_tasks(), 16);
    }

    #[test]
    fn thread_backend_skips_unsupported_modes() {
        assert!(BackendSpec::Threads.supports(ModeKind::Static));
        assert!(!BackendSpec::Threads.supports(ModeKind::Adaptive));
        assert!(!BackendSpec::Threads.supports(ModeKind::Oracle));
        assert!(BackendSpec::Cluster { nodes: 2, oversubscription: 1 }.supports(ModeKind::Oracle));
    }

    #[test]
    fn smoke_grid_covers_all_families_and_backends() {
        let smoke = SweepConfig::smoke(42);
        let families = &smoke.sections[0];
        assert!(families.scenarios.len() >= 6);
        let names: Vec<&str> = families.backends.iter().map(BackendSpec::backend_name).collect();
        assert_eq!(names, vec!["threads", "numasim", "cluster"]);
        assert_eq!(smoke.sections[1].label, "oversubscription");
    }
}
