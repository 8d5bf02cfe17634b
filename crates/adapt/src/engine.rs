//! The adaptive engine: closes the paper's measure → aggregate → map → bind
//! loop *online* for the real event runtime.
//!
//! An [`AdaptiveEngine`] is wrapped by [`adaptive_session_spec`] and handed
//! to `Session::builder().adaptive(..)`.  The runtime then
//!
//! 1. calls [`AdaptiveController::on_run_start`] with the program's task
//!    specs and the initial TreeMatch plan (the *baseline*);
//! 2. calls [`AdaptiveController::on_flow`] from its task threads: a read
//!    of location `L` by task `t` moves the declared per-iteration volume
//!    from `L`'s last writer to `t` into the step's
//!    [`OnlineCommMatrix`](crate::online::OnlineCommMatrix);
//! 3. calls [`AdaptiveController::on_epoch`] every epoch: the engine closes
//!    the epoch on its `DriftStep` (the same step the simulator driver
//!    runs on), and on a fire asks the [`Replacer`] whether migrating pays;
//!    an accepted migration is adopted by the step and the new placement
//!    returned for the runtime to publish to its task threads.

use crate::drift::{DriftConfig, DriftStep};
use crate::replace::{Decision, Replacer, ReplacerConfig};
use orwl_comm::matrix::CommMatrix;
use orwl_core::placement::PlacementPlan;
use orwl_core::request::AccessMode;
use orwl_core::runtime::AdaptiveController;
use orwl_core::task::{TaskId, TaskSpec};
use orwl_core::LocationId;
use orwl_topo::topology::Topology;
use orwl_treematch::algorithm::PlacementScratch;
use orwl_treematch::mapping::Placement;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Tuning of an [`AdaptiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Exponential-decay factor of the online matrix (see
    /// [`OnlineCommMatrix::new`](crate::online::OnlineCommMatrix::new)).
    pub decay: f64,
    /// Drift-detector tuning.
    pub drift: DriftConfig,
    /// Replacer tuning.
    pub replacer: ReplacerConfig,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig { decay: 0.25, drift: DriftConfig::default(), replacer: ReplacerConfig::default() }
    }
}

impl AdaptConfig {
    /// The tuning used throughout the evaluation (acceptance tests, the
    /// `adaptive_stencil` demo and the adaptive benchmarks) on the
    /// rotating-sweep stencil: one shared definition so the acceptance
    /// test, the golden pin, the bench and the demo cannot silently
    /// de-synchronise.
    #[must_use]
    pub fn evaluation() -> Self {
        AdaptConfig {
            decay: 0.2,
            drift: DriftConfig { threshold: 0.15, patience: 1, cooldown: 2 },
            replacer: ReplacerConfig {
                model: crate::replace::MigrationCostModel { task_state_bytes: 131072.0 },
                horizon_epochs: 20.0,
                min_relative_gain: 0.05,
            },
        }
    }
}

/// One epoch's record in the engine's timeline (for reports and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch number (counting from 1).
    pub epoch: u64,
    /// Transfer records observed in the epoch.
    pub records: u64,
    /// Structural drift measured against the baseline.
    pub delta: f64,
    /// Whether the drift detector fired.
    pub drift_fired: bool,
    /// Whether a migration was published.
    pub migrated: bool,
}

#[derive(Debug)]
struct EngineState {
    topo: Option<Topology>,
    n_control: usize,
    /// Declared read volume per (location, reader task).
    read_bytes: HashMap<(LocationId, TaskId), f64>,
    /// Fallback volume per location for *undeclared* readers (the mean of
    /// the location's declared read volumes) — a workload whose pattern
    /// drifted is reading locations it never declared, and those transfers
    /// are exactly the ones the monitor must not drop.
    default_read: HashMap<LocationId, f64>,
    /// The online matrix, the detector and the baseline `placement` was
    /// computed from.
    step: DriftStep,
    placement: Placement,
    /// Dense placement buffers reused by every epoch's re-placement
    /// evaluation, so the adaptive loop stops allocating per-level
    /// matrices once warm.
    scratch: PlacementScratch,
    timeline: Vec<EpochRecord>,
}

/// The drift-driven re-placement engine (see module docs).
pub struct AdaptiveEngine {
    config: AdaptConfig,
    state: Mutex<EngineState>,
}

impl AdaptiveEngine {
    /// Creates an engine; it initialises itself on `on_run_start`.
    pub fn new(config: AdaptConfig) -> Arc<Self> {
        Arc::new(AdaptiveEngine {
            config,
            state: Mutex::new(EngineState {
                topo: None,
                n_control: 0,
                read_bytes: HashMap::new(),
                default_read: HashMap::new(),
                step: DriftStep::new(0, config.decay, config.drift, CommMatrix::zeros(0)),
                placement: Placement::unbound(0, 0),
                scratch: PlacementScratch::new(),
                timeline: Vec::new(),
            }),
        })
    }

    /// The per-epoch timeline recorded so far.
    pub fn timeline(&self) -> Vec<EpochRecord> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).timeline.clone()
    }

    /// Number of migrations published so far.
    pub fn migrations(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).timeline.iter().filter(|r| r.migrated).count()
    }

    /// The placement the engine currently considers active.
    pub fn current_placement(&self) -> Placement {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).placement.clone()
    }
}

impl AdaptiveController for AdaptiveEngine {
    /// Initialises the engine from the program about to run.
    fn on_run_start(&self, specs: &[TaskSpec], plan: &PlacementPlan, topo: &Topology) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.topo = Some(topo.clone());
        state.n_control = plan.placement.n_control();
        state.read_bytes.clear();
        state.default_read.clear();
        let mut read_sum: HashMap<LocationId, (f64, usize)> = HashMap::new();
        for (t, spec) in specs.iter().enumerate() {
            for link in &spec.links {
                read_sum.entry(link.location).or_insert((0.0, 0));
                if link.mode == AccessMode::Read {
                    state.read_bytes.insert((link.location, TaskId(t)), link.bytes_per_iteration);
                    let entry = read_sum.entry(link.location).or_insert((0.0, 0));
                    entry.0 += link.bytes_per_iteration;
                    entry.1 += 1;
                }
            }
        }
        for (loc, (sum, count)) in read_sum {
            state.default_read.insert(loc, if count == 0 { 0.0 } else { sum / count as f64 });
        }
        state.step =
            DriftStep::new(specs.len(), self.config.decay, self.config.drift, plan.matrix.symmetrized());
        state.placement = plan.placement.clone();
        state.timeline.clear();
    }

    /// Records a read's declared volume; a write moves no read volume, and
    /// neither does a location the program never declared.
    fn on_flow(&self, from: TaskId, to: TaskId, location: LocationId, mode: AccessMode) {
        if mode == AccessMode::Write {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let bytes = state
            .read_bytes
            .get(&(location, to))
            .or_else(|| state.default_read.get(&location))
            .copied()
            .unwrap_or(0.0);
        if bytes > 0.0 {
            state.step.record(from.0, to.0, bytes);
        }
    }

    /// Rolls the monitoring epoch and decides on drift / migration.
    fn on_epoch(&self, epoch: u64) -> Option<Placement> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let topo = state.topo.clone().expect("on_run_start ran before on_epoch");
        let mapping = state.placement.compute_mapping_or_zero();
        let (records, drift) = state.step.epoch(&topo, &mapping);
        let mut record = EpochRecord { epoch, records, delta: 0.0, drift_fired: false, migrated: false };
        let mut migrated = None;
        if let Some((observation, live)) = drift {
            record.delta = observation.delta;
            record.drift_fired = observation.fired;
            orwl_obs::emit(orwl_obs::EventKind::DriftDecision {
                outcome: observation.outcome(),
                delta: observation.delta,
            });
            if observation.fired {
                // Run the (comparatively expensive) TreeMatch re-placement
                // WITHOUT the state lock: `on_flow` runs inside every task
                // thread's lock grant, and stalling all of them for the
                // length of a placement computation would pause the whole
                // application.  Only the monitor thread calls `on_epoch`, so
                // `placement` and the step's baseline cannot change
                // underneath us while unlocked — and the scratch buffers
                // travel out of the state for the same reason (taken, used
                // unlocked, put back).
                let placement = state.placement.clone();
                let n_control = state.n_control;
                let replacer = Replacer::new(self.config.replacer);
                let mut scratch = std::mem::take(&mut state.scratch);
                drop(state);
                let decision = replacer.evaluate_with(&topo, &live, &placement, n_control, &mut scratch);
                state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                state.scratch = scratch;
                if let Decision::Migrate { placement, .. } = decision {
                    if orwl_obs::enabled() {
                        let next = placement.compute_mapping_or_zero();
                        let tasks_moved = mapping.iter().zip(&next).filter(|(a, b)| a != b).count();
                        orwl_obs::emit(orwl_obs::EventKind::Migration {
                            tasks_moved,
                            bytes: tasks_moved as f64 * self.config.replacer.model.task_state_bytes,
                            cross_node: false,
                        });
                    }
                    state.placement = placement.clone();
                    state.step.adopt(live);
                    record.migrated = true;
                    migrated = Some(placement);
                }
            }
        }
        state.timeline.push(record);
        migrated
    }
}

/// Builds the [`AdaptiveSpec`](orwl_core::runtime::AdaptiveSpec) that plugs
/// `engine` into a `Session`: hand the result to
/// [`SessionBuilder::adaptive`](orwl_core::session::SessionBuilder::adaptive)
/// and the thread backend will monitor in wall-clock `epoch`s with the
/// engine as controller.
pub fn adaptive_session_spec(
    engine: Arc<AdaptiveEngine>,
    epoch: std::time::Duration,
) -> orwl_core::runtime::AdaptiveSpec {
    orwl_core::runtime::AdaptiveSpec::with_controller(engine, epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_core::placement::plan_placement;
    use orwl_core::task::{LocationLink, OrwlProgram, TaskSpec};
    use orwl_core::Location;
    use orwl_topo::synthetic;
    use orwl_treematch::policies::Policy;

    /// Builds a ring program whose declared links produce a ring matrix,
    /// returning the program plus the frontier locations.
    fn ring_program(n: usize, volume: f64) -> (OrwlProgram, Vec<std::sync::Arc<Location<u64>>>) {
        let locs: Vec<_> = (0..n).map(|i| Location::new(format!("ring-{i}"), 0u64)).collect();
        let mut program = OrwlProgram::new();
        for t in 0..n {
            let links = vec![
                LocationLink::write(locs[t].id(), volume),
                LocationLink::read(locs[(t + n - 1) % n].id(), volume),
            ];
            program.add_task(TaskSpec::new(format!("t{t}"), links), |_| {});
        }
        (program, locs)
    }

    #[test]
    fn engine_reconstructs_transfers_from_accesses() {
        let engine = AdaptiveEngine::new(AdaptConfig { decay: 0.0, ..AdaptConfig::default() });
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let (program, locs) = ring_program(4, 512.0);
        let plan = plan_placement(&program, &topo, Policy::TreeMatch, 0);
        engine.on_run_start(program.specs(), &plan, &topo);

        // Task 1 reads the frontier task 0 wrote: its declared volume.
        engine.on_flow(TaskId(0), TaskId(1), locs[0].id(), AccessMode::Read);
        // A write moves no read volume.
        engine.on_flow(TaskId(0), TaskId(2), locs[0].id(), AccessMode::Write);

        engine.on_epoch(1);
        let state = engine.state.lock().unwrap();
        assert_eq!(state.step.online().smoothed().get(0, 1), 512.0);
        assert_eq!(state.step.online().smoothed().total_volume(), 512.0);
    }

    #[test]
    fn stationary_traffic_never_migrates() {
        let engine = AdaptiveEngine::new(AdaptConfig { decay: 0.0, ..AdaptConfig::default() });
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let (program, locs) = ring_program(8, 256.0);
        let plan = plan_placement(&program, &topo, Policy::TreeMatch, 0);
        engine.on_run_start(program.specs(), &plan, &topo);

        for epoch in 1..=6 {
            // Replay exactly the declared ring pattern.
            for t in 0..locs.len() {
                let from = (t + 7) % 8;
                engine.on_flow(TaskId(from), TaskId(t), locs[from].id(), AccessMode::Read);
            }
            assert_eq!(engine.on_epoch(epoch), None);
        }
        assert_eq!(engine.migrations(), 0);
        let timeline = engine.timeline();
        assert_eq!(timeline.len(), 6);
        assert!(timeline.iter().all(|r| !r.drift_fired));
    }

    #[test]
    fn inverted_ring_triggers_a_migration() {
        let engine = AdaptiveEngine::new(AdaptConfig {
            decay: 0.0,
            drift: DriftConfig { threshold: 0.10, patience: 1, cooldown: 1 },
            replacer: ReplacerConfig {
                model: crate::replace::MigrationCostModel { task_state_bytes: 1.0 },
                horizon_epochs: 10.0,
                min_relative_gain: 0.0,
            },
        });
        // A topology with real distance between sockets and a *pair*
        // pattern: tasks {0,1}, {2,3}, ... exchange heavily.  After the
        // phase change the pairing shifts by one: {1,2}, {3,4}, ...
        let topo = synthetic::cluster2016_subset(4).unwrap();
        let locs: Vec<_> = (0..16).map(|i| Location::new(format!("buf-{i}"), 0u64)).collect();
        let mut program = OrwlProgram::new();
        for t in 0..16usize {
            let partner = if t % 2 == 0 { t + 1 } else { t - 1 };
            let links = vec![
                LocationLink::write(locs[t].id(), 4096.0),
                LocationLink::read(locs[partner].id(), 4096.0),
            ];
            program.add_task(TaskSpec::new(format!("t{t}"), links), |_| {});
        }
        let plan = plan_placement(&program, &topo, Policy::TreeMatch, 0);
        engine.on_run_start(program.specs(), &plan, &topo);

        let mut migrated_at = None;
        for epoch in 1..=8 {
            // Shifted pairing: t exchanges with (t+1) mod 16 for even t+1...
            // i.e. partner' = (partner + 2) % 16, which crosses the old
            // pair boundaries.
            for t in 0..locs.len() {
                let partner = if t % 2 == 0 { (t + 3) % 16 } else { (t + 1) % 16 };
                engine.on_flow(TaskId(partner), TaskId(t), locs[partner].id(), AccessMode::Read);
            }
            if engine.on_epoch(epoch).is_some() {
                migrated_at = Some(epoch);
                break;
            }
        }
        assert!(migrated_at.is_some(), "timeline: {:?}", engine.timeline());
        assert_eq!(engine.migrations(), 1);
    }
}
