//! What the shared phased driver promises, checked once and instantiated
//! for both models behind it — the single-node NUMA simulator
//! (`SimBackend`) and the cluster simulator (`ClusterBackend`): the
//! configuration errors, the mode invariants on a hand-picked workload, and
//! the same invariants over generated lab scenarios × seeds.

use orwl_adapt::engine::{adaptive_session_spec, AdaptConfig, AdaptiveEngine};
use orwl_adapt::SimBackend;
use orwl_cluster::{ClusterBackend, ClusterMachine};
use orwl_core::error::{ConfigError, OrwlError};
use orwl_core::runtime::AdaptiveSpec;
use orwl_core::session::{ExecutionBackend, Mode, Report, Session, SessionBuilder};
use orwl_core::task::{OrwlProgram, TaskSpec};
use orwl_lab::scenario::{ScenarioFamily, ScenarioSpec};
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::machine::SimMachine;
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::ObsConfig;
use orwl_topo::topology::Topology;
use orwl_treematch::policies::Policy;

/// One model behind the driver, as the tests need it.
trait Rig {
    /// The backend's name in reports and errors.
    const NAME: &'static str;
    /// The policy the model is evaluated with.
    const POLICY: Policy;
    /// Rows × rows tasks of the hand-picked rotating stencil.
    const STENCIL_ROWS: usize;
    type Backend: ExecutionBackend + 'static;

    fn topology() -> Topology;
    fn backend() -> Self::Backend;
}

struct Numasim;

impl Rig for Numasim {
    const NAME: &'static str = "numasim";
    const POLICY: Policy = Policy::TreeMatch;
    const STENCIL_ROWS: usize = 4;
    type Backend = SimBackend;

    fn topology() -> Topology {
        orwl_topo::synthetic::cluster2016_subset(2).unwrap()
    }

    fn backend() -> SimBackend {
        SimBackend::new(SimMachine::new(Self::topology(), CostParams::cluster2016()))
            .with_adapt_config(AdaptConfig::evaluation())
    }
}

struct Cluster;

impl Rig for Cluster {
    const NAME: &'static str = "cluster";
    const POLICY: Policy = Policy::Hierarchical;
    const STENCIL_ROWS: usize = 8;
    type Backend = ClusterBackend;

    fn topology() -> Topology {
        ClusterMachine::paper(4).topology().clone()
    }

    fn backend() -> ClusterBackend {
        ClusterBackend::new(ClusterMachine::paper(4)).with_adapt_config(AdaptConfig::evaluation())
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
);
