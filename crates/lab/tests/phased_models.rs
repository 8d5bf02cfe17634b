//! What the shared phased driver promises, checked once and instantiated
//! for both models behind it — the single-node NUMA simulator
//! (`SimBackend`) and the cluster simulator (`ClusterBackend`): the
//! configuration errors, the mode invariants on a hand-picked workload, the
//! same invariants over generated lab scenarios × seeds, how often a run
//! prices its placement, and that one price played `k` times is `k`
//! one-shot simulations.

use orwl_adapt::driver::{Backend, Move, PhasedModel, Run};
use orwl_adapt::engine::{adaptive_session_spec, AdaptConfig, AdaptiveEngine};
use orwl_adapt::SimBackend;
use orwl_cluster::{simulate_cluster, ClusterBackend, ClusterMachine};
use orwl_comm::matrix::CommMatrix;
use orwl_core::error::{ConfigError, OrwlError};
use orwl_core::runtime::AdaptiveSpec;
use orwl_core::session::{ExecutionBackend, Mode, Report, Session, SessionBuilder};
use orwl_core::task::{OrwlProgram, TaskSpec};
use orwl_lab::scenario::{ScenarioFamily, ScenarioSpec};
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::exec::{price, simulate_monitored, MachineCosts, SimMonitor};
use orwl_numasim::machine::SimMachine;
use orwl_numasim::scenario::ExecutionScenario;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::{EventKind, ObsConfig};
use orwl_topo::topology::Topology;
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One model behind the driver, as the tests need it.
trait Rig {
    /// The backend's name in reports and errors.
    const NAME: &'static str;
    /// The policy the model is evaluated with.
    const POLICY: Policy;
    /// Rows × rows tasks of the hand-picked rotating stencil.
    const STENCIL_ROWS: usize;
    type Backend: ExecutionBackend + 'static;
    type Machine: PhasedModel + 'static;

    fn topology() -> Topology;
    fn backend() -> Self::Backend;
    fn machine() -> Self::Machine;
}

struct Numasim;

impl Rig for Numasim {
    const NAME: &'static str = "numasim";
    const POLICY: Policy = Policy::TreeMatch;
    const STENCIL_ROWS: usize = 4;
    type Backend = SimBackend;
    type Machine = SimMachine;

    fn topology() -> Topology {
        orwl_topo::synthetic::cluster2016_subset(2).unwrap()
    }

    fn backend() -> SimBackend {
        SimBackend::new(Self::machine()).with_adapt_config(AdaptConfig::evaluation())
    }

    fn machine() -> SimMachine {
        SimMachine::new(Self::topology(), CostParams::cluster2016())
    }
}

struct Cluster;

impl Rig for Cluster {
    const NAME: &'static str = "cluster";
    const POLICY: Policy = Policy::Hierarchical;
    const STENCIL_ROWS: usize = 8;
    type Backend = ClusterBackend;
    type Machine = ClusterMachine;

    fn topology() -> Topology {
        ClusterMachine::paper(4).topology().clone()
    }

    fn backend() -> ClusterBackend {
        ClusterBackend::new(Self::machine()).with_adapt_config(AdaptConfig::evaluation())
    }

    fn machine() -> ClusterMachine {
        ClusterMachine::paper(4)
    }
}

fn builder<R: Rig>() -> SessionBuilder {
    Session::builder().topology(R::topology()).policy(R::POLICY).control_threads(0).backend(R::backend())
}

fn run<R: Rig>(mode: Mode, workload: &PhasedWorkload) -> Report {
    builder::<R>().mode(mode).build().unwrap().run(workload.clone()).unwrap()
}

fn adaptive(epoch_iterations: usize) -> Mode {
    Mode::Adaptive(AdaptiveSpec::per_iterations(epoch_iterations))
}

fn stencil<R: Rig>(phases: &[usize]) -> PhasedWorkload {
    PhasedWorkload::rotating_stencil(R::STENCIL_ROWS, 65536.0, 1024.0, 16384.0, 131072.0, phases)
}

fn program_workloads_are_mismatched<R: Rig>() {
    let session = builder::<R>().build().unwrap();
    // Empty programs are caught by the session before the backend...
    assert_eq!(session.run(OrwlProgram::new()).unwrap_err(), OrwlError::Config(ConfigError::EmptyProgram));
    // ...non-empty ones by the driver's workload check.
    let mut program = OrwlProgram::new();
    program.add_task(TaskSpec::new("t", vec![]), |_| {});
    match session.run(program).unwrap_err() {
        OrwlError::Config(ConfigError::WorkloadMismatch { backend, expected }) => {
            assert_eq!(backend, R::NAME);
            assert_eq!(expected, "phased");
        }
        other => panic!("expected WorkloadMismatch, got {other:?}"),
    }
}

fn a_mismatched_session_topology_is_rejected<R: Rig>() {
    let session = Session::builder()
        .topology(orwl_topo::synthetic::laptop()) // not the machine the backend models
        .control_threads(0)
        .backend(R::backend())
        .build()
        .unwrap();
    match session.run(stencil::<R>(&[2])).unwrap_err() {
        OrwlError::Config(ConfigError::TopologyMismatch { backend, expected, got }) => {
            assert_eq!(backend, R::NAME);
            assert_eq!(expected, R::topology().name());
            assert_eq!(got, "laptop");
        }
        other => panic!("expected TopologyMismatch, got {other:?}"),
    }
}

fn controller_bearing_specs_are_rejected<R: Rig>() {
    let engine = AdaptiveEngine::new(AdaptConfig::default());
    let spec = adaptive_session_spec(engine, std::time::Duration::from_millis(15));
    let session = builder::<R>().adaptive(spec).build().unwrap();
    match session.run(stencil::<R>(&[2])).unwrap_err() {
        OrwlError::Config(ConfigError::UnsupportedController { backend }) => assert_eq!(backend, R::NAME),
        other => panic!("expected UnsupportedController, got {other:?}"),
    }
}

/// The mode invariants of one workload: a single-phase variant never
/// migrates and costs what the static run costs; the free-remap oracle is
/// a lower bound for the static placement; the adaptive counters are those
/// of the chunk loop; observation is read-only.
fn mode_invariants_hold<R: Rig>(label: &str, workload: &PhasedWorkload, epoch_iterations: usize) {
    let fixed = run::<R>(Mode::Static, workload);
    let oracle = run::<R>(Mode::Oracle, workload);
    let adaptive_report = run::<R>(adaptive(epoch_iterations), workload);
    assert!(fixed.adapt.is_none() && oracle.adapt.is_none(), "{label}: fixed schedules report no counters");
    assert!(
        oracle.hop_bytes <= fixed.hop_bytes,
        "{label}: oracle {} > static {}",
        oracle.hop_bytes,
        fixed.hop_bytes
    );
    assert!(oracle.time.as_wall().is_none(), "{label}: simulated runs report simulated time");

    let adapt = adaptive_report.adapt.as_ref().expect("adaptive runs report counters");
    let chunks: usize = workload.phases.iter().map(|p| p.iterations.div_ceil(epoch_iterations)).sum();
    assert_eq!(adapt.epochs, chunks as u64, "{label}: one epoch per chunk");
    assert!(adapt.drift_deltas.len() as u64 <= adapt.epochs, "{label}: at most one decision per epoch");
    assert!(adapt.node_reshards <= adapt.replacements, "{label}");

    let single = PhasedWorkload { phases: vec![workload.phases[0].clone()] };
    let single_fixed = run::<R>(Mode::Static, &single);
    let single_adaptive = run::<R>(adaptive(epoch_iterations), &single);
    assert_eq!(single_adaptive.adapt.as_ref().unwrap().replacements, 0, "{label}: no drift, no migration");
    // Same placement, same per-iteration hop-bytes; the adaptive run sums
    // them chunk by chunk where the static run multiplies once, so the two
    // agree to rounding (a few ulps), not to the bit.
    assert!(
        (single_adaptive.hop_bytes - single_fixed.hop_bytes).abs() <= 1e-12 * single_fixed.hop_bytes,
        "{label}: with no migration the adaptive run's hop-bytes are the static run's: {} vs {}",
        single_adaptive.hop_bytes,
        single_fixed.hop_bytes
    );

    for (mode, plain) in [(Mode::Static, &fixed), (adaptive(epoch_iterations), &adaptive_report)] {
        let mut observed = builder::<R>()
            .mode(mode)
            .observe(ObsConfig::default())
            .build()
            .unwrap()
            .run(workload.clone())
            .unwrap();
        assert!(observed.obs.take().is_some(), "{label}: observed runs carry telemetry");
        assert_eq!(format!("{observed:?}"), format!("{plain:?}"), "{label}: observation is read-only");
    }
}

fn the_hand_picked_stencil_keeps_the_mode_invariants<R: Rig>() {
    mode_invariants_hold::<R>("rotating stencil", &stencil::<R>(&[12, 60]), 4);
    // The free oracle is no slower than the static placement either.
    let w = stencil::<R>(&[12, 60]);
    let (fixed, oracle) = (run::<R>(Mode::Static, &w), run::<R>(Mode::Oracle, &w));
    assert!(oracle.time.seconds() <= fixed.time.seconds() * 1.0001);
}

fn generated_scenarios_keep_the_mode_invariants<R: Rig>() {
    for family in ScenarioFamily::ALL {
        for seed in [1, 7, 42] {
            // An epoch length that divides the phases and one that leaves
            // a short last chunk in every phase.
            for epoch_iterations in [4, 7] {
                let spec = ScenarioSpec::new(family, 16, seed);
                let label = format!("{}/{} seed {seed} epoch {epoch_iterations}", R::NAME, spec.name());
                mode_invariants_hold::<R>(&label, &spec.workload(), epoch_iterations);
            }
        }
    }
}

/// A model that counts how often the driver prices a placement.
struct Counting<M> {
    model: M,
    prices: Arc<AtomicUsize>,
}

impl<M: PhasedModel> PhasedModel for Counting<M> {
    const NAME: &'static str = M::NAME;
    type Placement = M::Placement;
    type Priced = M::Priced;

    fn topology(&self) -> &Topology {
        self.model.topology()
    }

    fn place(&self, run: &Run, matrix: &CommMatrix) -> M::Placement {
        self.model.place(run, matrix)
    }

    fn price(
        &self,
        run: &Run,
        placement: &M::Placement,
        graph: &TaskGraph,
        matrix: &CommMatrix,
    ) -> M::Priced {
        self.prices.fetch_add(1, Ordering::Relaxed);
        self.model.price(run, placement, graph, matrix)
    }

    fn task_pu(priced: &M::Priced) -> &[usize] {
        M::task_pu(priced)
    }

    fn simulate(
        &self,
        run: &mut Run,
        priced: &M::Priced,
        graph: &TaskGraph,
        iterations: usize,
        monitor: &mut dyn SimMonitor,
    ) {
        self.model.simulate(run, priced, graph, iterations, monitor);
    }

    fn replace(
        &self,
        run: &mut Run,
        live: &CommMatrix,
        current: &M::Placement,
        task_pu: &[usize],
        epoch_iterations: usize,
    ) -> Option<Move<M::Placement>> {
        self.model.replace(run, live, current, task_pu, epoch_iterations)
    }

    fn plan_placement(&self, run: &Run, initial: M::Placement) -> Placement {
        self.model.plan_placement(run, initial)
    }
}

/// A placement is priced at each phase start (oracle re-placements
/// included) and after each accepted move: never once per epoch.  The
/// counting model's run is the plain model's run.
fn placements_are_priced_per_phase_and_move_not_per_epoch<R: Rig>() {
    let workload = stencil::<R>(&[12, 60]);
    let phases = workload.phases.len();
    for mode in [Mode::Static, Mode::Oracle, adaptive(4)] {
        let prices = Arc::new(AtomicUsize::new(0));
        let counting = Counting { model: R::machine(), prices: Arc::clone(&prices) };
        let backend = Backend::new(counting).with_adapt_config(AdaptConfig::evaluation());
        let report = Session::builder()
            .topology(R::topology())
            .policy(R::POLICY)
            .control_threads(0)
            .mode(mode.clone())
            .backend(backend)
            .build()
            .unwrap()
            .run(workload.clone())
            .unwrap();
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", run::<R>(mode.clone(), &workload)),
            "{}",
            mode.name()
        );
        let prices = prices.load(Ordering::Relaxed);
        match &report.adapt {
            Some(adapt) => {
                assert!(adapt.replacements >= 1, "the rotation moves the placement: {adapt:?}");
                assert_eq!(prices, phases + adapt.replacements as usize, "{adapt:?}");
                assert!(adapt.epochs > prices as u64, "{} epochs, {prices} prices", adapt.epochs);
            }
            None => assert_eq!(prices, phases, "{}", mode.name()),
        }
    }
}

/// Every mode's epochs carry the bytes the monitor saw: over the run, the
/// graph's edge bytes once per iteration of each phase.
fn epochs_carry_the_bytes_the_monitor_saw<R: Rig>() {
    let workload = stencil::<R>(&[12, 60]);
    let want: f64 = workload
        .phases
        .iter()
        .map(|p| p.iterations as f64 * p.graph.edges().iter().map(|e| e.bytes).sum::<f64>())
        .sum();
    for mode in [Mode::Static, Mode::Oracle, adaptive(4)] {
        let report = builder::<R>()
            .mode(mode.clone())
            .observe(ObsConfig::default())
            .build()
            .unwrap()
            .run(workload.clone())
            .unwrap();
        let telemetry = report.obs.expect("observed runs carry telemetry");
        let epochs: Vec<f64> = telemetry
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Epoch { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        let seen: f64 = epochs.iter().sum();
        assert!(epochs.iter().all(|&b| b > 0.0), "{}: {epochs:?}", mode.name());
        assert!(
            (seen - want).abs() <= 1e-12 * want,
            "{}: epochs saw {seen}, the graphs move {want}",
            mode.name()
        );
    }
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One price played chunk by chunk is a fresh one-shot simulation per
/// chunk, bit for bit and callback for callback: numasim under the bound
/// and the OS-placement scenarios, and a two-node cluster, over every
/// scenario family's phase graphs.
#[test]
fn one_price_played_k_times_is_k_fresh_simulations() {
    let numa = Numasim::machine();
    let cluster = ClusterMachine::paper(2);
    let chunks = [4, 7, 1];
    for spec in ScenarioSpec::catalog(16, 7) {
        for (k, phase) in spec.workload().phases.iter().enumerate() {
            let g = &phase.graph;
            let label = format!("{} phase {k}", spec.name());
            let n = g.n_tasks();
            let spread: Vec<usize> = (0..n).map(|t| t * 5 % cluster.n_pus()).collect();
            for scenario in [
                ExecutionScenario::bound(&numa, (0..n).map(|t| t * 5 % numa.n_pus()).collect()),
                ExecutionScenario::orwl_nobind(&numa, n, 7),
            ] {
                let priced = price(&numa, g, &scenario);
                for iterations in chunks {
                    let (mut played, mut fresh) = (Recording::default(), Recording::default());
                    let a = priced.play(g, iterations, &mut played);
                    let b = simulate_monitored(&numa, g, &scenario, iterations, &mut fresh);
                    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits(), "{label} {}", scenario.label);
                    assert_eq!(bits(&a.iteration_times), bits(&b.iteration_times), "{label}");
                    assert_eq!(a, b, "{label} {}", scenario.label);
                    assert_eq!(played, fresh, "{label} {}", scenario.label);
                    assert_eq!(played.transfers.len(), iterations * g.edges().len());
                }
            }
            let priced = price(&cluster, g, &ExecutionScenario::bound(&cluster, spread.clone()));
            for iterations in chunks {
                let (mut played, mut fresh) = (Recording::default(), Recording::default());
                let a = priced.play(g, iterations, &mut played);
                let b = simulate_cluster(&cluster, g, &spread, iterations, &mut fresh);
                assert_eq!(a.total_time.to_bits(), b.total_time.to_bits(), "{label} cluster");
                assert_eq!(bits(&a.iteration_times), bits(&b.iteration_times), "{label} cluster");
                assert_eq!(a, b, "{label} cluster");
                assert_eq!(played, fresh, "{label} cluster");
            }
        }
    }
}

/// A one-node cluster is its node's `SimMachine` under the bound scenario:
/// its memory domains are the node's NUMA nodes, no halo pays the fabric,
/// and its floor is the node's backplane floor.  So the two agree bit for
/// bit, callbacks included, on every scenario family's phase graphs, with
/// one task per PU over both sockets and with four PUs oversubscribed.
#[test]
fn one_node_cluster_is_the_bound_numa_run() {
    let cluster = ClusterMachine::paper(1);
    let node = SimMachine::new(cluster.cluster().node_topology().clone(), *MachineCosts::params(&cluster));
    let mut floored = 0;
    for spec in ScenarioSpec::catalog(16, 7) {
        for (k, phase) in spec.workload().phases.iter().enumerate() {
            let g = &phase.graph;
            let n = g.n_tasks();
            let spread: Vec<usize> = (0..n).map(|t| t * 5 % cluster.n_pus()).collect();
            let oversubscribed: Vec<usize> = (0..n).map(|t| t % 4 * 5).collect();
            for mapping in [spread, oversubscribed] {
                let label = format!("{} phase {k} on {mapping:?}", spec.name());
                let (mut numa_calls, mut cluster_calls) = (Recording::default(), Recording::default());
                let bound = ExecutionScenario::bound(&node, mapping.clone());
                let numa = simulate_monitored(&node, g, &bound, 6, &mut numa_calls);
                let one = simulate_cluster(&cluster, g, &mapping, 6, &mut cluster_calls);
                assert_eq!(one.total_time.to_bits(), numa.total_time.to_bits(), "{label}");
                assert_eq!(bits(&one.iteration_times), bits(&numa.iteration_times), "{label}");
                assert_eq!(one, numa, "{label}");
                assert_eq!(cluster_calls, numa_calls, "{label}");
                assert_eq!(numa_calls.transfers.len(), 6 * g.edges().len());
                assert_eq!(one.inter_node_bytes, 0.0);
                floored += usize::from(numa.cross_node_bytes > 0.0);
            }
        }
    }
    assert!(floored > 0, "some halos cross sockets, so some floor is non-zero");
}

macro_rules! for_both_models {
    ($($check:ident),* $(,)?) => {
        mod numasim {
            $(#[test] fn $check() { super::$check::<super::Numasim>() })*
        }
        mod cluster {
            $(#[test] fn $check() { super::$check::<super::Cluster>() })*
        }
    };
}

for_both_models!(
    program_workloads_are_mismatched,
    a_mismatched_session_topology_is_rejected,
    controller_bearing_specs_are_rejected,
    the_hand_picked_stencil_keeps_the_mode_invariants,
    generated_scenarios_keep_the_mode_invariants,
    placements_are_priced_per_phase_and_move_not_per_epoch,
    epochs_carry_the_bytes_the_monitor_saw,
);
