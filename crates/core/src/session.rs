//! The unified `Session` front door: one builder, one [`ExecutionBackend`]
//! trait, one [`Report`] — however a program is executed.
//!
//! The paper's pipeline (extract communication matrix → TreeMatch → bind →
//! execute → report) is one conceptual flow, and this module is its single
//! entry point.  A [`Session`] is built once, validated ([`ConfigError`] —
//! no panics, no silent clamping) and then runs [`Workload`]s on whichever
//! backend it was given:
//!
//! * [`ThreadBackend`] — the real event runtime (one OS thread per task,
//!   real binding), reachable through this door only;
//! * `orwl_adapt::SimBackend` — the discrete-event NUMA simulator, playing
//!   the role of the paper's 192-core testbed.
//!
//! Run behaviour is selected by [`Mode`]: `Static` places once and never
//! re-maps, `Adaptive` closes the monitor → drift → re-place loop online,
//! and `Oracle` re-maps for free at every phase boundary (simulator only —
//! it requires knowing the future).
//!
//! # Example
//!
//! ```
//! use orwl_core::prelude::*;
//! use orwl_core::Location;
//! use orwl_topo::binding::RecordingBinder;
//! use std::sync::Arc;
//!
//! // Four tasks incrementing a shared counter.
//! let counter = Location::new("counter", 0u64);
//! let mut program = OrwlProgram::new();
//! for t in 0..4 {
//!     let loc = Arc::clone(&counter);
//!     program.add_task(
//!         TaskSpec::new(format!("inc-{t}"), vec![LocationLink::write(counter.id(), 8.0)]),
//!         move |_ctx| {
//!             let mut handle = loc.iterative_handle(AccessMode::Write);
//!             for _ in 0..100 {
//!                 *handle.acquire().unwrap() += 1;
//!             }
//!         },
//!     );
//! }
//!
//! // One builder, whatever the backend: topology, policy, control threads,
//! // run mode — validated into a `Session`.
//! let session = Session::builder()
//!     .topology(orwl_topo::synthetic::laptop())
//!     .policy(Policy::TreeMatch)
//!     .control_threads(1)
//!     .binder(Arc::new(RecordingBinder::new()))
//!     .backend(ThreadBackend)
//!     .build()
//!     .unwrap();
//!
//! let report = session.run(program).unwrap();
//! assert_eq!(counter.snapshot(), 400);
//! assert_eq!(report.thread.as_ref().unwrap().stats.tasks_finished, 4);
//! assert!(report.plan.placement.bound_fraction() > 0.99);
//! ```

use crate::error::{ConfigError, OrwlError};
use crate::placement::PlacementPlan;
use crate::runtime::{AdaptReport, AdaptiveSpec, ThreadRun};
use crate::stats::StatsSnapshot;
use crate::task::OrwlProgram;
use orwl_comm::metrics::TrafficBreakdown;
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::{ClockKind, ObsConfig, Recorder, RunTelemetry};
use orwl_topo::binding::Binder;
use orwl_topo::topology::Topology;
use orwl_treematch::policies::Policy;
use std::sync::Arc;
use std::time::Duration;

/// How a session executes: place once, adapt online, or follow an oracle.
#[derive(Clone, Debug, Default)]
pub enum Mode {
    /// Compute one placement up front (from the program's declared matrix,
    /// or the first phase of a phased workload) and never re-map — the
    /// paper's static pipeline.
    #[default]
    Static,
    /// Online monitoring, drift detection and epoch-boundary re-placement.
    Adaptive(AdaptiveSpec),
    /// Re-map for free at every phase boundary: the unbeatable reference
    /// adaptive policies are measured against.  Requires a backend that
    /// knows the phase boundaries (the simulator).
    Oracle,
}

impl Mode {
    /// Short machine-friendly name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Static => "static",
            Mode::Adaptive(_) => "adaptive",
            Mode::Oracle => "oracle",
        }
    }
}

/// A unit of execution a [`Session`] can run.
///
/// Both variants convert implicitly (`session.run(program)` /
/// `session.run(workload)`); backends reject the kind they cannot execute
/// with [`ConfigError::WorkloadMismatch`].
pub enum Workload {
    /// A real ORWL program: tasks with closures, executed by thread
    /// backends.
    Program(OrwlProgram),
    /// A phased task-graph workload, executed by simulator backends.
    Phased(PhasedWorkload),
}

impl Workload {
    /// Structural validation run by [`Session::run`] before dispatch, so a
    /// malformed workload is a typed error rather than a downstream panic.
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Workload::Program(p) => {
                if p.is_empty() {
                    return Err(ConfigError::EmptyProgram);
                }
            }
            Workload::Phased(w) => {
                let Some(first) = w.phases.first() else {
                    return Err(ConfigError::EmptyProgram);
                };
                let expected = first.graph.n_tasks();
                if expected == 0 {
                    return Err(ConfigError::EmptyProgram);
                }
                for (phase, p) in w.phases.iter().enumerate() {
                    let got = p.graph.n_tasks();
                    if got != expected {
                        return Err(ConfigError::MismatchedPhases { phase, expected, got });
                    }
                }
            }
        }
        Ok(())
    }
}

impl From<OrwlProgram> for Workload {
    fn from(p: OrwlProgram) -> Self {
        Workload::Program(p)
    }
}

impl From<PhasedWorkload> for Workload {
    fn from(w: PhasedWorkload) -> Self {
        Workload::Phased(w)
    }
}

/// How long a run took, by the backend's own clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunTime {
    /// Real wall-clock time (thread backends).
    Wall(Duration),
    /// Simulated seconds (simulator backends).
    Simulated(f64),
}

impl RunTime {
    /// The run time in seconds, whichever clock produced it.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        match self {
            RunTime::Wall(d) => d.as_secs_f64(),
            RunTime::Simulated(s) => *s,
        }
    }

    /// The wall-clock duration, when the backend measured real time.
    #[must_use]
    pub fn as_wall(&self) -> Option<Duration> {
        match self {
            RunTime::Wall(d) => Some(*d),
            RunTime::Simulated(_) => None,
        }
    }
}

/// Thread-backend execution details (per-task times and runtime counters).
#[derive(Debug, Clone)]
pub struct ThreadDetails {
    /// Per-task execution time, indexed by task id.
    pub per_task_time: Vec<Duration>,
    /// Snapshot of the runtime counters at the end of the run.
    pub stats: StatsSnapshot,
}

impl ThreadDetails {
    /// The longest task execution time (the critical path lower bound).
    #[must_use]
    pub fn max_task_time(&self) -> Duration {
        self.per_task_time.iter().copied().max().unwrap_or(Duration::ZERO)
    }
}

/// Cumulative inter-node vs intra-node traffic of a multi-node run,
/// reported by cluster backends (`None` on single-machine backends).
///
/// The static, per-iteration analogue is the
/// [`cross_node`](TrafficBreakdown::cross_node) component of the plan's
/// [`TrafficBreakdown`]; this struct carries the *cumulative* split over
/// the whole run, including migration traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterTraffic {
    /// Number of simulated nodes.
    pub n_nodes: usize,
    /// Cumulative hop-bytes of traffic that stayed inside a node.
    pub intra_node_hop_bytes: f64,
    /// Cumulative hop-bytes of traffic that crossed the fabric.
    pub inter_node_hop_bytes: f64,
    /// Cumulative bytes that crossed the fabric (the unweighted cut).
    pub inter_node_bytes: f64,
}

impl ClusterTraffic {
    /// Fraction of the cumulative hop-bytes that crossed the fabric.
    #[must_use]
    pub fn inter_node_fraction(&self) -> f64 {
        let t = self.intra_node_hop_bytes + self.inter_node_hop_bytes;
        if t == 0.0 {
            0.0
        } else {
            self.inter_node_hop_bytes / t
        }
    }
}

/// The unified result of a [`Session`] run, whatever the backend.
#[must_use]
#[derive(Debug, Clone)]
pub struct Report {
    /// Name of the backend that produced the report.
    pub backend: String,
    /// The mode the session ran in (`"static"` / `"adaptive"` / `"oracle"`).
    pub mode: &'static str,
    /// Wall time (thread backends) or simulated time (simulator backends).
    pub time: RunTime,
    /// The initial placement plan (policy, extracted matrix, thread → PU
    /// placement).
    pub plan: PlacementPlan,
    /// Locality breakdown of the plan on the session topology.
    pub breakdown: TrafficBreakdown,
    /// Hop-bytes of the run: the plan's static metric for thread backends,
    /// the cumulative per-iteration hop-bytes (including migration traffic)
    /// for simulator backends.
    pub hop_bytes: f64,
    /// Adaptive-machinery counters; `None` for non-adaptive runs.
    pub adapt: Option<AdaptReport>,
    /// Thread-backend details; `None` for simulated runs.
    pub thread: Option<ThreadDetails>,
    /// Cumulative inter-node vs intra-node traffic split; `None` on
    /// single-machine backends.
    pub fabric: Option<ClusterTraffic>,
    /// Structured run telemetry (events + metrics); `None` unless the
    /// session was built with [`SessionBuilder::observe`].
    pub obs: Option<RunTelemetry>,
}

/// The validated, backend-independent settings of a [`Session`].
#[derive(Clone)]
pub struct SessionConfig {
    /// The machine topology placements are computed against.
    pub topology: Topology,
    /// The placement policy ([`Policy::TreeMatch`] = the paper's "Bind").
    pub policy: Policy,
    /// Number of control threads placed alongside the computation.
    pub control_threads: usize,
    /// How bindings are applied.
    pub binder: Arc<dyn Binder>,
    /// The run mode.
    pub mode: Mode,
    /// Telemetry settings; `None` (the default) records nothing and keeps
    /// the hot paths on their one-load disabled fast path.
    pub observe: Option<ObsConfig>,
}

impl SessionConfig {
    /// The checks every backend that *models* a machine (the two simulators
    /// and the multi-process backend) makes before it runs anything: the
    /// workload is phased; the session topology is the `modelled` one by
    /// name, PU count and level spec — placements are computed against the
    /// first while the cost model runs on the second, so a mismatch would
    /// silently mix two machines in every metric; and an adaptive spec
    /// carries no controller, which was tuned for the thread runtime and
    /// would be ignored in favour of the backend's own engine.
    pub fn phased_on(
        &self,
        backend: &str,
        modelled: &Topology,
        workload: Workload,
    ) -> Result<PhasedWorkload, ConfigError> {
        let Workload::Phased(workload) = workload else {
            return Err(ConfigError::WorkloadMismatch {
                backend: backend.to_string(),
                expected: "phased".to_string(),
            });
        };
        if self.topology.name() != modelled.name()
            || self.topology.nb_pus() != modelled.nb_pus()
            || self.topology.level_spec() != modelled.level_spec()
        {
            return Err(ConfigError::TopologyMismatch {
                backend: backend.to_string(),
                expected: modelled.name().to_string(),
                got: self.topology.name().to_string(),
            });
        }
        if matches!(&self.mode, Mode::Adaptive(spec) if spec.controller.is_some()) {
            return Err(ConfigError::UnsupportedController { backend: backend.to_string() });
        }
        Ok(workload)
    }
}

impl std::fmt::Debug for SessionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionConfig")
            .field("topology", &self.topology.name())
            .field("policy", &self.policy.name())
            .field("control_threads", &self.control_threads)
            .field("binder", &self.binder.name())
            .field("mode", &self.mode.name())
            .field("observe", &self.observe.is_some())
            .finish()
    }
}

/// An execution substrate a [`Session`] can drive: the real thread runtime,
/// the NUMA simulator, or anything future that can place and run a
/// [`Workload`].
pub trait ExecutionBackend: Send + Sync {
    /// Short machine-friendly backend name (used in reports and errors).
    fn name(&self) -> &'static str;

    /// Executes `workload` under the validated session `config`.
    ///
    /// The session has already rejected empty workloads and invalid
    /// configurations; backends still return
    /// [`ConfigError::UnsupportedMode`] / [`ConfigError::WorkloadMismatch`]
    /// (via [`OrwlError::Config`]) for combinations they cannot execute.
    fn run(&self, config: &SessionConfig, workload: Workload) -> Result<Report, OrwlError>;
}

/// A validated session: the one front door for running ORWL programs and
/// simulated workloads.  Built by [`Session::builder`].
pub struct Session {
    config: SessionConfig,
    backend: Arc<dyn ExecutionBackend>,
}

impl Session {
    /// Starts a builder with the defaults of the paper's "Bind"
    /// configuration: TreeMatch policy, one control thread, the platform's
    /// native binder, static mode.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The validated settings.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs a workload to completion and reports on the execution.
    pub fn run(&self, workload: impl Into<Workload>) -> Result<Report, OrwlError> {
        let workload = workload.into();
        workload.validate()?;
        self.backend.run(&self.config, workload)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .finish()
    }
}

/// Fluent builder for [`Session`]; see [`Session::builder`].
#[must_use]
pub struct SessionBuilder {
    topology: Option<Topology>,
    policy: Policy,
    control_threads: usize,
    binder: Option<Arc<dyn Binder>>,
    mode: Mode,
    backend: Option<Arc<dyn ExecutionBackend>>,
    observe: Option<ObsConfig>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            topology: None,
            policy: Policy::TreeMatch,
            control_threads: 1,
            binder: None,
            mode: Mode::Static,
            backend: None,
            observe: None,
        }
    }
}

impl SessionBuilder {
    /// Sets the machine topology (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the placement policy (default: [`Policy::TreeMatch`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the number of control threads (default: 1).
    pub fn control_threads(mut self, n: usize) -> Self {
        self.control_threads = n;
        self
    }

    /// Sets the binder (default: the platform's native binder).
    pub fn binder(mut self, binder: Arc<dyn Binder>) -> Self {
        self.binder = Some(binder);
        self
    }

    /// Selects adaptive mode with the given spec.
    pub fn adaptive(mut self, spec: AdaptiveSpec) -> Self {
        self.mode = Mode::Adaptive(spec);
        self
    }

    /// Sets the run mode explicitly (default: [`Mode::Static`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the execution backend (required).
    pub fn backend(mut self, backend: impl ExecutionBackend + 'static) -> Self {
        self.backend = Some(Arc::new(backend));
        self
    }

    /// Enables structured run telemetry: the backend records events and
    /// metrics during the run and hangs the drained [`RunTelemetry`] off
    /// [`Report::obs`].  Default: off (the zero-overhead path).
    pub fn observe(mut self, config: ObsConfig) -> Self {
        self.observe = Some(config);
        self
    }

    /// Validates the configuration into a [`Session`].
    pub fn build(self) -> Result<Session, ConfigError> {
        let topology = self.topology.ok_or(ConfigError::MissingTopology)?;
        let backend = self.backend.ok_or(ConfigError::MissingBackend)?;
        let available = topology.nb_pus();
        if self.control_threads > available {
            return Err(ConfigError::ControlThreadOverflow { requested: self.control_threads, available });
        }
        if let Mode::Adaptive(spec) = &self.mode {
            if spec.epoch == Duration::ZERO || spec.epoch_iterations == 0 {
                return Err(ConfigError::ZeroAdaptiveEpoch);
            }
        }
        let binder = self.binder.unwrap_or_else(|| Arc::from(orwl_topo::binding::native_binder()));
        Ok(Session {
            config: SessionConfig {
                topology,
                policy: self.policy,
                control_threads: self.control_threads,
                binder,
                mode: self.mode,
                observe: self.observe,
            },
            backend,
        })
    }
}

/// The real event runtime as an [`ExecutionBackend`]: one OS thread per
/// task, placements applied through the session binder (see
/// [`crate::runtime`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadBackend;

impl ExecutionBackend for ThreadBackend {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn run(&self, config: &SessionConfig, workload: Workload) -> Result<Report, OrwlError> {
        let Workload::Program(program) = workload else {
            return Err(ConfigError::WorkloadMismatch {
                backend: self.name().to_string(),
                expected: "program".to_string(),
            }
            .into());
        };
        let adaptive = match &config.mode {
            Mode::Static => None,
            Mode::Adaptive(spec) => Some(spec),
            Mode::Oracle => {
                return Err(ConfigError::UnsupportedMode {
                    backend: self.name().to_string(),
                    mode: Mode::Oracle.name().to_string(),
                }
                .into());
            }
        };
        // Observation: a wall-clock recorder, this thread's scope for the
        // duration of the run; the runtime's threads inherit the scope, so
        // deep hooks (lock waits, rebinds, epochs, solve phases) reach it.
        // An unobserved run leaves the caller's scope, if any, in place.
        let recorder = config.observe.map(|cfg| Recorder::new(ClockKind::Wall, cfg));
        let registration = recorder.as_ref().map(orwl_obs::install);
        let outcome = crate::runtime::run(config, adaptive, program);
        drop(registration);
        let ThreadRun { wall_time, plan, details, adapt } = outcome?;
        if let Some(recorder) = &recorder {
            details.stats.publish(recorder.metrics());
        }
        let breakdown = plan.breakdown(&config.topology);
        let hop_bytes = plan.hop_bytes(&config.topology);
        Ok(Report {
            backend: self.name().to_string(),
            mode: config.mode.name(),
            time: RunTime::Wall(wall_time),
            plan,
            breakdown,
            hop_bytes,
            adapt,
            thread: Some(details),
            fabric: None,
            obs: recorder.map(|r| r.finish(self.name())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{Location, LocationId};
    use crate::request::AccessMode;
    use crate::runtime::AdaptiveController;
    use crate::task::{LocationLink, TaskSpec};
    use orwl_topo::binding::RecordingBinder;
    use orwl_topo::synthetic;

    fn counter_program(n_tasks: usize, increments: u64) -> (OrwlProgram, Arc<Location<u64>>) {
        let counter = Location::new("counter", 0u64);
        let mut program = OrwlProgram::new();
        for t in 0..n_tasks {
            let loc = Arc::clone(&counter);
            program.add_task(
                TaskSpec::new(format!("inc-{t}"), vec![LocationLink::write(counter.id(), 8.0)]),
                move |_| {
                    let mut h = loc.iterative_handle(AccessMode::Write);
                    for _ in 0..increments {
                        *h.acquire().unwrap() += 1;
                    }
                },
            );
        }
        (program, counter)
    }

    fn thread_session(policy: Policy) -> Session {
        Session::builder()
            .topology(synthetic::laptop())
            .policy(policy)
            .binder(Arc::new(RecordingBinder::new()))
            .backend(ThreadBackend)
            .build()
            .unwrap()
    }

    #[test]
    fn missing_topology_is_rejected() {
        let err = Session::builder().backend(ThreadBackend).build().unwrap_err();
        assert_eq!(err, ConfigError::MissingTopology);
    }

    #[test]
    fn missing_backend_is_rejected() {
        let err = Session::builder().topology(synthetic::laptop()).build().unwrap_err();
        assert_eq!(err, ConfigError::MissingBackend);
    }

    #[test]
    fn control_thread_overflow_is_rejected_not_clamped() {
        let topo = synthetic::laptop(); // 8 PUs
        let err =
            Session::builder().topology(topo).control_threads(9).backend(ThreadBackend).build().unwrap_err();
        assert_eq!(err, ConfigError::ControlThreadOverflow { requested: 9, available: 8 });
    }

    #[test]
    fn zero_adaptive_epoch_is_rejected() {
        let spec = AdaptiveSpec::per_iterations(0);
        let err = Session::builder()
            .topology(synthetic::laptop())
            .adaptive(spec)
            .backend(ThreadBackend)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroAdaptiveEpoch);

        let spec = AdaptiveSpec::per_iterations(4);
        let zero_wall = AdaptiveSpec { epoch: Duration::ZERO, ..spec };
        let err = Session::builder()
            .topology(synthetic::laptop())
            .adaptive(zero_wall)
            .backend(ThreadBackend)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroAdaptiveEpoch);
    }

    #[test]
    fn empty_program_is_rejected_at_run() {
        let session = thread_session(Policy::NoBind);
        let err = session.run(OrwlProgram::new()).unwrap_err();
        assert_eq!(err, OrwlError::Config(ConfigError::EmptyProgram));
        // So is a phased workload without phases, before any backend sees it.
        let err = session.run(PhasedWorkload { phases: vec![] }).unwrap_err();
        assert_eq!(err, OrwlError::Config(ConfigError::EmptyProgram));
    }

    #[test]
    fn adaptive_without_controller_is_rejected_by_thread_backend() {
        let session = Session::builder()
            .topology(synthetic::laptop())
            .adaptive(AdaptiveSpec::per_iterations(4))
            .backend(ThreadBackend)
            .build()
            .unwrap();
        let (program, _) = counter_program(2, 1);
        let err = session.run(program).unwrap_err();
        assert_eq!(err, OrwlError::Config(ConfigError::MissingController));
    }

    #[test]
    fn oracle_mode_is_unsupported_on_threads() {
        let session = Session::builder()
            .topology(synthetic::laptop())
            .mode(Mode::Oracle)
            .backend(ThreadBackend)
            .build()
            .unwrap();
        let (program, _) = counter_program(2, 1);
        match session.run(program).unwrap_err() {
            OrwlError::Config(ConfigError::UnsupportedMode { backend, mode }) => {
                assert_eq!(backend, "threads");
                assert_eq!(mode, "oracle");
            }
            other => panic!("expected UnsupportedMode, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_phase_task_counts_are_rejected() {
        use orwl_numasim::workload::{Phase, PhasedWorkload};
        let session = thread_session(Policy::TreeMatch);
        let a = PhasedWorkload::rotating_stencil(2, 64.0, 8.0, 16.0, 64.0, &[2]);
        let b = PhasedWorkload::rotating_stencil(3, 64.0, 8.0, 16.0, 64.0, &[2]);
        let malformed = PhasedWorkload {
            phases: vec![
                Phase { graph: a.phases[0].graph.clone(), iterations: 2 },
                Phase { graph: b.phases[0].graph.clone(), iterations: 2 },
            ],
        };
        let err = session.run(malformed).unwrap_err();
        assert_eq!(err, OrwlError::Config(ConfigError::MismatchedPhases { phase: 1, expected: 4, got: 9 }));
    }

    #[test]
    fn phased_workload_is_mismatched_on_threads() {
        let session = thread_session(Policy::TreeMatch);
        let workload = PhasedWorkload::rotating_stencil(2, 64.0, 8.0, 16.0, 64.0, &[2]);
        match session.run(workload).unwrap_err() {
            OrwlError::Config(ConfigError::WorkloadMismatch { backend, expected }) => {
                assert_eq!(backend, "threads");
                assert_eq!(expected, "program");
            }
            other => panic!("expected WorkloadMismatch, got {other:?}"),
        }
    }

    #[test]
    fn thread_backend_runs_and_reports_unified_fields() {
        let session = thread_session(Policy::TreeMatch);
        let (program, counter) = counter_program(4, 200);
        let report = session.run(program).unwrap();
        assert_eq!(counter.snapshot(), 800);
        assert_eq!(report.backend, "threads");
        assert_eq!(report.mode, "static");
        assert!(report.time.as_wall().unwrap() > Duration::ZERO);
        assert!(report.time.seconds() > 0.0);
        assert!(report.plan.placement.bound_fraction() > 0.99);
        let details = report.thread.as_ref().unwrap();
        assert_eq!(details.stats.tasks_finished, 4);
        assert_eq!(details.per_task_time.len(), 4);
        assert!(details.max_task_time().as_secs_f64() <= report.time.seconds());
        assert!(report.adapt.is_none());
        // Breakdown and hop-bytes are consistent with the plan's own metric.
        assert_eq!(report.breakdown, report.plan.breakdown(&session.config().topology));
        assert_eq!(report.hop_bytes, report.plan.hop_bytes(&session.config().topology));
    }

    #[test]
    fn builder_defaults_match_the_papers_bind_configuration() {
        let session =
            Session::builder().topology(synthetic::laptop()).backend(ThreadBackend).build().unwrap();
        assert_eq!(session.config().policy, Policy::TreeMatch);
        assert_eq!(session.config().control_threads, 1);
        assert_eq!(session.config().mode.name(), "static");
        assert!(format!("{session:?}").contains("threads"));
    }

    #[test]
    fn adaptive_thread_session_drives_the_controller() {
        struct CountingController(std::sync::atomic::AtomicU64);
        impl AdaptiveController for CountingController {
            fn on_run_start(&self, _: &[TaskSpec], _: &PlacementPlan, _: &orwl_topo::topology::Topology) {}
            fn on_flow(&self, _: crate::task::TaskId, _: crate::task::TaskId, _: LocationId, _: AccessMode) {}
            fn on_epoch(&self, _epoch: u64) -> Option<orwl_treematch::mapping::Placement> {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                None
            }
        }
        let controller = Arc::new(CountingController(std::sync::atomic::AtomicU64::new(0)));
        let session = Session::builder()
            .topology(synthetic::laptop())
            .binder(Arc::new(RecordingBinder::new()))
            .adaptive(AdaptiveSpec::with_controller(
                Arc::clone(&controller) as Arc<dyn AdaptiveController>,
                Duration::from_millis(5),
            ))
            .backend(ThreadBackend)
            .build()
            .unwrap();
        let counter = Location::new("slow", 0u64);
        let mut program = OrwlProgram::new();
        let loc = Arc::clone(&counter);
        program.add_task(TaskSpec::new("slow", vec![LocationLink::write(counter.id(), 8.0)]), move |_| {
            let mut h = loc.iterative_handle(AccessMode::Write);
            for _ in 0..10 {
                *h.acquire().unwrap() += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let report = session.run(program).unwrap();
        let adapt = report.adapt.expect("adaptive run reports counters");
        assert!(adapt.epochs >= 1);
        assert_eq!(adapt.epochs, controller.0.load(std::sync::atomic::Ordering::Relaxed));
    }
}
