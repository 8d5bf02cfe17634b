//! The phased-workload driver: the one `ExecutionBackend` ([`Backend`]) and
//! the one loop behind both simulators.
//!
//! Place from the first phase's matrix, then run the phases chunk by chunk.
//! A chunk boundary means, by mode: **static** — nothing (one chunk per
//! phase); **oracle** — at a phase boundary, a free re-placement from the
//! phase's own matrix; **adaptive** — an epoch of the `DriftStep` the
//! executor's transfer hooks feed, and on a fire a re-placement the model
//! weighs, the run pays and the step adopts.  A placement is priced once
//! per phase and after each accepted re-placement, never per chunk.  What
//! differs between the two machines is behind [`PhasedModel`]; the driver
//! never asks which it serves.

use crate::drift::DriftStep;
use crate::engine::AdaptConfig;
use crate::replace::ReplacerConfig;
use orwl_comm::matrix::CommMatrix;
use orwl_core::error::OrwlError;
use orwl_core::placement::PlacementPlan;
use orwl_core::runtime::AdaptReport;
use orwl_core::session::{ClusterTraffic, ExecutionBackend, Mode, Report, RunTime, SessionConfig, Workload};
use orwl_numasim::exec::{NoopSimMonitor, SimMonitor};
use orwl_numasim::taskgraph::TaskGraph;
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::{ClockKind, EventKind, Recorder};
use orwl_topo::topology::Topology;
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;

/// A simulated machine as a `Session` backend: the model, the adaptive
/// tuning and the seed of the [`Policy::NoBind`] OS-placement model.
/// [`SimBackend`](crate::backend::SimBackend) and `ClusterBackend` are this.
#[derive(Debug, Clone)]
pub struct Backend<M> {
    machine: M,
    adapt: AdaptConfig,
    nobind_seed: u64,
}

/// One run's settings and running totals: what the driver and the model
/// share, and what becomes the [`Report`].
#[derive(Debug)]
pub struct Run<'a> {
    /// The session's placement policy.
    pub policy: Policy,
    /// Control threads placed alongside the computation.
    pub control_threads: usize,
    /// Seed of the backend's OS-placement model.
    pub nobind_seed: u64,
    /// The backend's re-placement tuning.
    pub replacer: ReplacerConfig,
    /// The run's recorder, when observed (simulated clock).
    pub obs: Option<&'a Recorder>,
    /// Simulated seconds so far, migrations included.
    pub time: f64,
    /// Cumulative hop-bytes so far, migrations included.
    pub hop_bytes: f64,
    /// The traffic split at the machine boundary, kept by multi-node models.
    pub fabric: Option<ClusterTraffic>,
}

/// An accepted (and already paid for) re-placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Move<P> {
    /// The placement to run from now on.
    pub placement: P,
    /// Tasks whose binding changed.
    pub tasks_moved: usize,
    /// Whether any task changed machines.
    pub cross_node: bool,
}

/// A simulated machine the driver can run phased workloads on: `SimMachine`
/// (in [`backend`](crate::backend)) and `orwl_cluster::ClusterMachine`.  Each
/// owns its float accumulations, so their operand order never changes.
///
/// A placement is [`price`](PhasedModel::price)d once per phase it runs in
/// and [`simulate`](PhasedModel::simulate)d chunk by chunk from that price:
/// the driver prices at each phase start and after each accepted [`Move`],
/// never per chunk.
pub trait PhasedModel: Send + Sync {
    /// The backend name, for reports, errors and telemetry.
    const NAME: &'static str;

    /// A thread → PU [`Placement`] plus whatever the model decides with it
    /// (the cluster's node assignment).
    type Placement: Clone;

    /// A placement priced for one phase: everything a chunk reads that
    /// depends only on (placement, phase) — the `StepCosts`, the task → PU
    /// mapping and the per-iteration hop-bytes (and fabric split).
    type Priced;

    /// The modelled machine's topology (flattened, for a cluster).
    fn topology(&self) -> &Topology;

    /// Places the tasks of the (symmetrised) `matrix`.
    fn place(&self, run: &Run, matrix: &CommMatrix) -> Self::Placement;

    /// Prices `placement` for the phase `graph` (raw matrix `matrix`).
    fn price(
        &self,
        run: &Run,
        placement: &Self::Placement,
        graph: &TaskGraph,
        matrix: &CommMatrix,
    ) -> Self::Priced;

    /// The PU every task of `priced` runs on: what drift is measured under
    /// and what a re-placement moves tasks from.
    fn task_pu(priced: &Self::Priced) -> &[usize];

    /// Simulates `iterations` of `graph`, the phase `priced` was priced
    /// for, reports every transfer to `monitor` and folds `iterations ×`
    /// the priced time and traffic into `run`.
    fn simulate(
        &self,
        run: &mut Run,
        priced: &Self::Priced,
        graph: &TaskGraph,
        iterations: usize,
        monitor: &mut dyn SimMonitor,
    );

    /// Prices a re-placement computed from `live` against `current` (running
    /// on `task_pu`) through [`ReplacerConfig::weigh`], in the model's own
    /// unit.  A move that pays is charged to `run` and returned.
    fn replace(
        &self,
        run: &mut Run,
        live: &CommMatrix,
        current: &Self::Placement,
        task_pu: &[usize],
        epoch_iterations: usize,
    ) -> Option<Move<Self::Placement>>;

    /// The `initial` placement as the report's plan shows it.
    fn plan_placement(&self, run: &Run, initial: Self::Placement) -> Placement;
}

/// The tally of every chunk, monitoring beside the caller's monitor: it
/// sums the bytes the chunk's epoch reports and feeds the adaptive mode's
/// drift step.
struct Feed<'a> {
    step: Option<&'a mut DriftStep>,
    bytes: f64,
}

impl SimMonitor for Feed<'_> {
    fn on_transfer(&mut self, _iteration: usize, src: usize, dst: usize, bytes: f64) {
        if let Some(step) = self.step.as_deref_mut() {
            step.record(src, dst, bytes);
        }
        self.bytes += bytes;
    }
}

impl<M: PhasedModel> Backend<M> {
    /// Wraps a simulated machine with the default adaptive tuning.
    #[must_use]
    pub fn new(machine: M) -> Self {
        Backend { machine, adapt: AdaptConfig::default(), nobind_seed: 0xC0FFEE }
    }

    /// Replaces the tuning of the adaptive mode (decay, detector, replacer).
    #[must_use]
    pub fn with_adapt_config(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = adapt;
        self
    }

    /// Replaces the seed of the [`Policy::NoBind`] OS-placement model.
    #[must_use]
    pub fn with_nobind_seed(mut self, seed: u64) -> Self {
        self.nobind_seed = seed;
        self
    }

    /// The simulated machine.
    #[must_use]
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// A run of this backend that has not started.
    #[must_use]
    pub fn start<'a>(&self, policy: Policy, control_threads: usize, obs: Option<&'a Recorder>) -> Run<'a> {
        Run {
            policy,
            control_threads,
            nobind_seed: self.nobind_seed,
            replacer: self.adapt.replacer,
            obs,
            time: 0.0,
            hop_bytes: 0.0,
            fabric: None,
        }
    }

    /// Runs `workload` in `mode` in chunks of at most `chunk_iterations`
    /// (`Session` runs: the epoch length when adaptive, whole phases
    /// otherwise).  `monitor` observes every transfer and gets `chunk_end`
    /// after each chunk.  Returns the initial placement and, when adaptive,
    /// the counters; the totals are in `run`.
    ///
    /// # Panics
    /// Panics when the workload has no phase or `chunk_iterations` is zero.
    pub fn drive<T: SimMonitor>(
        &self,
        run: &mut Run,
        workload: &PhasedWorkload,
        mode: &Mode,
        chunk_iterations: usize,
        monitor: &mut T,
        chunk_end: fn(&mut T),
    ) -> (M::Placement, Option<AdaptReport>) {
        assert!(chunk_iterations > 0, "a chunk holds at least one iteration");
        let model = &self.machine;
        let first = workload.phases[0].graph.comm_matrix().symmetrized();
        let initial = model.place(run, &first);
        let mut placement = initial.clone();
        let mut step = matches!(mode, Mode::Adaptive(_))
            .then(|| DriftStep::new(workload.n_tasks(), self.adapt.decay, self.adapt.drift, first));
        let mut adapt = AdaptReport::default();

        for (k, phase) in workload.phases.iter().enumerate() {
            if k > 0 && matches!(mode, Mode::Oracle) {
                placement = model.place(run, &phase.graph.comm_matrix().symmetrized());
            }
            let matrix = phase.graph.comm_matrix();
            let mut priced = model.price(run, &placement, &phase.graph, &matrix);
            let mut done = 0usize;
            while done < phase.iterations {
                let iterations = chunk_iterations.min(phase.iterations - done);
                // Every epoch carries the bytes its chunk's transfers
                // reported; an adaptive run's drift step sees them too.
                let mut feed = (Feed { step: step.as_mut(), bytes: 0.0 }, &mut *monitor);
                model.simulate(run, &priced, &phase.graph, iterations, &mut feed);
                let epoch_bytes = feed.0.bytes;
                chunk_end(monitor);
                done += iterations;

                adapt.epochs += 1;
                if let Some(obs) = run.obs {
                    obs.set_sim_now(run.time);
                    obs.record(EventKind::Epoch { epoch: adapt.epochs, bytes: epoch_bytes });
                }
                let Some(step) = step.as_mut() else { continue };
                let task_pu = M::task_pu(&priced);
                let (_, Some((observation, live))) = step.epoch(model.topology(), task_pu) else { continue };
                adapt.drift_deltas.push(observation.delta);
                if let Some(obs) = run.obs {
                    let (outcome, delta) = (observation.outcome(), observation.delta);
                    obs.record(EventKind::DriftDecision { outcome, delta });
                }
                if !observation.fired {
                    continue;
                }
                let Some(Move { placement: next, tasks_moved, cross_node }) =
                    model.replace(run, &live, &placement, task_pu, chunk_iterations)
                else {
                    continue;
                };
                if let Some(obs) = run.obs {
                    obs.set_sim_now(run.time);
                    let bytes = tasks_moved as f64 * run.replacer.model.task_state_bytes;
                    obs.record(EventKind::Migration { tasks_moved, bytes, cross_node });
                }
                placement = next;
                priced = model.price(run, &placement, &phase.graph, &matrix);
                step.adopt(live);
                adapt.replacements += 1;
                adapt.node_reshards += u64::from(cross_node);
            }
        }
        (initial, step.is_some().then_some(adapt))
    }
}

impl<M: PhasedModel + 'static> ExecutionBackend for Backend<M> {
    fn name(&self) -> &'static str {
        M::NAME
    }

    /// Validates the session against the model, installs the recorder,
    /// [`drive`](Backend::drive)s the workload and assembles the [`Report`].
    fn run(&self, config: &SessionConfig, workload: Workload) -> Result<Report, OrwlError> {
        let workload = config.phased_on(M::NAME, self.machine.topology(), workload)?;
        let chunk_iterations = match &config.mode {
            Mode::Adaptive(spec) => spec.epoch_iterations,
            Mode::Static | Mode::Oracle => usize::MAX,
        };
        // Simulated clock: event timestamps advance with the cost model's
        // notion of time, not the host's.  The recorder is also this
        // thread's scope — the whole simulated run happens on it — so the
        // placement-solve phase spans emitted from inside TreeMatch land in
        // the same timeline.
        let recorder = config.observe.map(|cfg| Recorder::new(ClockKind::Simulated, cfg));
        let registration = recorder.as_ref().map(orwl_obs::install);
        let mut run = self.start(config.policy, config.control_threads, recorder.as_deref());
        let (initial, adapt) =
            self.drive(&mut run, &workload, &config.mode, chunk_iterations, &mut NoopSimMonitor, |_| {});
        drop(registration);
        let placement = self.machine.plan_placement(&run, initial);
        let first = workload.phases[0].graph.comm_matrix().symmetrized();
        let plan = PlacementPlan::new(config.policy, first, placement);
        let breakdown = plan.breakdown(&config.topology);
        Ok(Report {
            backend: M::NAME.to_string(),
            mode: config.mode.name(),
            time: RunTime::Simulated(run.time),
            plan,
            breakdown,
            hop_bytes: run.hop_bytes,
            adapt,
            thread: None,
            fabric: run.fabric,
            obs: recorder.map(|r| r.finish(M::NAME)),
        })
    }
}
