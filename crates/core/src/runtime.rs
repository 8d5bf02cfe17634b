//! The event-based ORWL runtime behind
//! [`ThreadBackend`](crate::session::ThreadBackend), its only caller.
//!
//! The runtime executes an [`OrwlProgram`]: it computes a placement for the
//! program's tasks (and for its own control threads), runs each task on an
//! OS thread of its own — exactly as the reference ORWL library runs each
//! operation on an independent thread — binds every thread according to
//! the placement, and runs a small pool of *control threads* that drain the
//! runtime's event channel (task lifecycle notifications, progress
//! accounting).  Control threads are deliberately real threads doing real
//! work because the paper's Algorithm 1 places them alongside the
//! computation threads.
//!
//! A static TreeMatch run binds TreeMatch's plan, and moves every task
//! thread to the PU TreeMatch gave task 0 when a play of the program's lock
//! handoffs and measured compute prices that cheaper (`pack`).
//!
//! Threads outlive their run: every task, control and monitor thread is
//! taken from a process-wide list of parked idle threads (`pool`) and
//! handed back when the run joins it, with its binding, home and scopes
//! undone (DESIGN.md, "Task threads").
//!
//! Telemetry travels with the threads: the task threads and the adaptive
//! monitor thread install the caller's `orwl_obs` scope first thing, so
//! whatever they emit (lock waits, rebinds, epochs, the controller's drift
//! decisions and solves) reaches the recorder of the run that started them
//! and no other.

use crate::error::{ConfigError, OrwlError};
use crate::fifo;
use crate::location::LocationId;
use crate::monitor::{self, AdaptiveRun};
use crate::pack;
use crate::placement::{plan_placement, PlacementPlan};
use crate::pool;
use crate::request::AccessMode;
use crate::session::{SessionConfig, ThreadDetails};
use crate::stats::RuntimeStats;
use crate::task::{OrwlProgram, TaskContext, TaskId, TaskSpec};
use orwl_topo::binding::Binder;
use orwl_topo::bitmap::CpuSet;
use orwl_topo::topology::Topology;
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The brain of an adaptive run, implemented by `orwl_adapt::AdaptiveEngine`
/// (kept as a trait here so `orwl-core` does not depend on `orwl-adapt`).
///
/// The runtime drives it: `on_run_start` once with the initial plan,
/// `on_flow` from the task threads whenever a lock grant moves bytes, and
/// `on_epoch` at every epoch boundary from the monitor thread.  Returning a
/// new [`Placement`] from `on_epoch` publishes it to the task threads, which
/// re-bind cooperatively at their next lock acquisition.
pub trait AdaptiveController: Send + Sync {
    /// Called once before threads start, with the program's task specs, the
    /// initial placement plan and the machine topology.
    fn on_run_start(&self, specs: &[TaskSpec], plan: &PlacementPlan, topo: &Topology);

    /// Called inside the grant of `location` to task `to` in `mode` when
    /// task `from` (never `to`) wrote it last: the grant moves the
    /// location's bytes from `from` to `to`.  It runs on every such grant
    /// of the run, so it must be cheap and must not block.
    fn on_flow(&self, from: TaskId, to: TaskId, location: LocationId, mode: AccessMode);

    /// Called at every epoch boundary; `epoch` counts from 1.  Returns a
    /// replacement [`Placement`] when the controller decides to migrate.
    fn on_epoch(&self, epoch: u64) -> Option<Placement>;
}

/// Adaptive-mode settings, shared by every execution backend: real-time
/// backends monitor in wall-clock [`epoch`](AdaptiveSpec::epoch)s driven by
/// a [`controller`](AdaptiveSpec::controller); discrete (simulated) backends
/// monitor every [`epoch_iterations`](AdaptiveSpec::epoch_iterations)
/// iterations with their own built-in engine.
#[derive(Clone)]
pub struct AdaptiveSpec {
    /// The drift-detection / re-placement engine, for backends that need an
    /// external brain (the thread runtime).  Discrete backends carry their
    /// own engine and reject controller-bearing specs
    /// ([`ConfigError::UnsupportedController`](crate::error::ConfigError)).
    pub controller: Option<Arc<dyn AdaptiveController>>,
    /// Wall-clock length of one monitoring epoch (real-time backends).
    pub epoch: Duration,
    /// Iterations per monitoring epoch (discrete backends).
    pub epoch_iterations: usize,
}

impl AdaptiveSpec {
    /// Iterations per epoch used when a spec is built for the thread
    /// runtime without an explicit override.
    pub(crate) const DEFAULT_EPOCH_ITERATIONS: usize = 4;
    /// Wall-clock epoch used when a spec is built for a simulator backend
    /// without an explicit override.
    pub(crate) const DEFAULT_EPOCH: Duration = Duration::from_millis(15);

    /// A spec for real-time backends: `controller` drives the adaptation,
    /// one epoch per `epoch` of wall time.
    #[must_use]
    pub fn with_controller(controller: Arc<dyn AdaptiveController>, epoch: Duration) -> Self {
        AdaptiveSpec { controller: Some(controller), epoch, epoch_iterations: Self::DEFAULT_EPOCH_ITERATIONS }
    }

    /// A spec for discrete backends: one epoch every `epoch_iterations`
    /// simulated iterations, the backend's own engine doing the adaptation.
    #[must_use]
    pub fn per_iterations(epoch_iterations: usize) -> Self {
        AdaptiveSpec { controller: None, epoch: Self::DEFAULT_EPOCH, epoch_iterations }
    }
}

impl std::fmt::Debug for AdaptiveSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveSpec")
            .field("controller", &self.controller.as_ref().map(|_| "<dyn AdaptiveController>"))
            .field("epoch", &self.epoch)
            .field("epoch_iterations", &self.epoch_iterations)
            .finish()
    }
}

/// Counters describing the adaptive machinery's activity during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptReport {
    /// Epoch boundaries the monitor processed.
    pub epochs: u64,
    /// Re-placements published (i.e. `on_epoch` returned `Some`).
    pub replacements: u64,
    /// Individual thread re-bindings applied by task threads (real thread
    /// backends only; simulated migrations re-bind atomically).
    pub rebinds_applied: u64,
    /// Re-placements that moved at least one task to a *different node*
    /// (cluster backends only — node-level re-sharding is strictly more
    /// expensive than intra-node re-binding and is counted separately).
    pub node_reshards: u64,
    /// Per-epoch structural drift deltas, when the backend records them
    /// (the simulator backend does; the thread runtime's controller keeps
    /// its own timeline).
    pub drift_deltas: Vec<f64>,
}

/// Events flowing from computation threads to control threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlEvent {
    /// A task's thread started executing.
    TaskStarted(TaskId),
    /// A task's thread finished executing.
    TaskFinished(TaskId),
}

/// What [`run`] hands back for the session's [`Report`](crate::session::Report).
pub(crate) struct ThreadRun {
    /// Wall-clock time of the whole run (placement + execution + join).
    pub wall_time: Duration,
    /// The placement that was applied.
    pub plan: PlacementPlan,
    /// Per-task execution times and the runtime counters at the end.
    pub details: ThreadDetails,
    /// Adaptive-machinery counters; `None` for non-adaptive runs.
    pub adapt: Option<AdaptReport>,
}

/// A run's hold on a pooled thread: dropping it puts back, through the
/// run's binder when that binder reports one, the affinity the thread had
/// before the run bound it — by the plan, by pack's re-bind or by an
/// adaptive re-bind — and clears the thread's home.
struct Lease {
    binder: Arc<dyn Binder>,
    affinity: Option<CpuSet>,
}

impl Lease {
    fn new(binder: Arc<dyn Binder>) -> Lease {
        Lease { affinity: binder.current_affinity(), binder }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(pus) = &self.affinity {
            let _ = self.binder.bind_current_thread(pus);
        }
        fifo::leave_home();
    }
}

/// Runs a program to completion under the session's topology, policy,
/// control-thread count and binder, adapting online when `adaptive` is set.
///
/// Every task runs on its own OS thread (the ORWL execution model), a
/// pooled one that runs nothing else until the run joins it; the calling
/// thread blocks until all tasks and control threads have finished.
pub(crate) fn run(
    config: &SessionConfig,
    adaptive: Option<&AdaptiveSpec>,
    program: OrwlProgram,
) -> Result<ThreadRun, OrwlError> {
    if program.is_empty() {
        return Err(OrwlError::EmptyProgram);
    }
    let adaptive = match adaptive {
        Some(spec) => Some((spec.controller.clone().ok_or(ConfigError::MissingController)?, spec.epoch)),
        None => None,
    };
    let started = Instant::now();

    // 1. Placement: extract the communication matrix and map threads.  A
    //    static TreeMatch run whose declared lock handoffs price one PU
    //    cheaper gets a probe: its task threads measure their compute and
    //    re-bind to task 0's PU if that is still cheaper (`pack`).
    let mut plan = plan_placement(&program, &config.topology, config.policy, config.control_threads);
    let probe = (config.policy == Policy::TreeMatch && adaptive.is_none())
        .then(|| pack::Probe::screen(program.specs(), &plan.placement, Arc::clone(&config.binder)))
        .flatten();
    let compute_cpusets = plan.placement.compute_cpusets();
    let control_cpusets = plan.placement.control_cpusets();

    let stats = Arc::new(RuntimeStats::new());
    let (event_tx, event_rx) = mpsc::channel::<ControlEvent>();
    let event_rx = Arc::new(Mutex::new(event_rx));

    // The run's telemetry scope, for the threads that emit on its behalf.
    let obs = orwl_obs::current();

    // 1b. Adaptive mode: hand the controller the initial plan and start the
    //     epoch monitor thread, which runs until its stop channel closes.
    //     Task threads observe through the run's scope and pick
    //     re-placements up cooperatively from its plan.
    let adaptive = adaptive.map(|(controller, epoch_len)| {
        controller.on_run_start(program.specs(), &plan, &config.topology);
        let run = AdaptiveRun::new(controller, program.n_tasks(), Arc::clone(&config.binder));
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let monitor_run = Arc::clone(&run);
        let obs = obs.clone();
        let monitor = pool::spawn(move || {
            let _obs_scope = obs.as_ref().map(orwl_obs::install);
            let (mut epochs, mut replacements) = (0u64, 0u64);
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(epoch_len) {
                epochs += 1;
                orwl_obs::emit(orwl_obs::EventKind::Epoch { epoch: epochs, bytes: 0.0 });
                if let Some(placement) = monitor_run.controller.on_epoch(epochs) {
                    replacements += 1;
                    monitor_run.plan.publish(placement.compute);
                }
            }
            (epochs, replacements)
        });
        (run, stop_tx, monitor)
    });

    // 2. Control threads: bind them per the placement and let them drain
    //    the event channel until every sender is gone.
    let mut control_joins = Vec::new();
    for k in 0..config.control_threads {
        let rx = Arc::clone(&event_rx);
        let stats = Arc::clone(&stats);
        let binder = Arc::clone(&config.binder);
        let cpuset = control_cpusets.get(k).cloned().flatten();
        control_joins.push(pool::spawn(move || {
            let lease = Lease::new(binder);
            if let Some(cs) = cpuset {
                // Binding failures are not fatal for control threads; the
                // OS fallback is what the paper describes for the
                // unmappable case.
                let _ = lease.binder.bind_current_thread(&cs);
            }
            while rx.lock().unwrap_or_else(|e| e.into_inner()).recv().is_ok() {
                stats.record_control_event();
            }
        }));
    }
    drop(event_rx);

    // 3. Computation threads: one per task, bound per the placement.
    let (specs, bodies) = program.into_parts();
    let mut task_joins = Vec::new();
    for (idx, (spec, body)) in specs.into_iter().zip(bodies).enumerate() {
        let cpuset = compute_cpusets.get(idx).cloned().flatten();
        let binder = Arc::clone(&config.binder);
        let stats = Arc::clone(&stats);
        let tx = event_tx.clone();
        let task_id = TaskId(idx);
        let task_run = adaptive.as_ref().map(|(run, ..)| Arc::clone(run));
        let task_probe = probe.clone();
        let obs = obs.clone();
        let name = spec.name.clone();
        let join = pool::spawn(move || {
            let lease = Lease::new(binder);
            let _label = fifo::TaskLabel::enter(&name);
            let _obs_scope = obs.as_ref().map(orwl_obs::install);
            if let Some(cs) = &cpuset {
                lease.binder.bind_current_thread(cs).map_err(|e| OrwlError::Binding(e.to_string()))?;
                fifo::read_home(&*lease.binder);
            }
            let _task_scope = task_run.map(|run| monitor::enter_task(task_id, run));
            let _probe_scope = task_probe.map(|probe| pack::enter_task(idx, probe));
            let ctx = TaskContext { task_id, bound_to: cpuset, stats: Arc::clone(&stats) };
            let _ = tx.send(ControlEvent::TaskStarted(task_id));
            stats.record_task_started();
            let t0 = Instant::now();
            body(&ctx);
            let elapsed = t0.elapsed();
            stats.record_task_finished();
            let _ = tx.send(ControlEvent::TaskFinished(task_id));
            Ok::<Duration, OrwlError>(elapsed)
        });
        task_joins.push((spec.name, join));
    }
    drop(event_tx);

    // 4. Join computation threads, collecting per-task times.
    let mut per_task_time = Vec::with_capacity(task_joins.len());
    let mut first_error = None;
    for (name, join) in task_joins {
        match join.join() {
            Some(Ok(elapsed)) => per_task_time.push(elapsed),
            Some(Err(e)) => {
                per_task_time.push(Duration::ZERO);
                first_error.get_or_insert(e);
            }
            None => {
                per_task_time.push(Duration::ZERO);
                first_error.get_or_insert(OrwlError::TaskPanicked(name));
            }
        }
    }

    // 5. Control threads exit once every event sender is dropped.
    for join in control_joins {
        let _ = join.join();
    }

    // 6. Stop the adaptive machinery: close the monitor's stop channel and
    //    join it.  A controller that panicked in `on_epoch` fails the run
    //    like a panicking task.
    let adapt = adaptive.map(|(run, stop, monitor)| {
        drop(stop);
        let (epochs, replacements) = monitor.join().unwrap_or_else(|| {
            first_error.get_or_insert(OrwlError::TaskPanicked("orwl-adapt-monitor".to_string()));
            (0, 0)
        });
        AdaptReport {
            epochs,
            replacements,
            rebinds_applied: run.plan.rebinds_applied(),
            node_reshards: 0,
            drift_deltas: Vec::new(),
        }
    });

    if let Some(e) = first_error {
        return Err(e);
    }
    if probe.is_some_and(|probe| probe.packed()) {
        plan.placement = pack::packed(&plan.placement);
    }
    let details = ThreadDetails { per_task_time, stats: stats.snapshot() };
    Ok(ThreadRun { wall_time: started.elapsed(), plan, details, adapt })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::reporting::ReportingBinder;
    use crate::location::Location;
    use crate::request::AccessMode;
    use crate::session::{ExecutionBackend, Report, Session, SessionBuilder, ThreadBackend, Workload};
    use crate::task::{LocationLink, TaskSpec};
    use orwl_topo::binding::{NoopBinder, RecordingBinder};
    use orwl_topo::synthetic;
    use orwl_treematch::policies::compute_placement;
    use std::thread::ThreadId;

    /// The thread runtime on `topology` with a binder that binds nothing.
    fn threads_on(topology: Topology, policy: Policy) -> SessionBuilder {
        Session::builder()
            .topology(topology)
            .policy(policy)
            .binder(Arc::new(NoopBinder))
            .backend(ThreadBackend)
    }

    fn counter_program(n_tasks: usize, increments: u64) -> (OrwlProgram, Arc<Location<u64>>) {
        let counter = Location::new("counter", 0u64);
        let mut program = OrwlProgram::new();
        for t in 0..n_tasks {
            let loc = Arc::clone(&counter);
            program.add_task(
                TaskSpec::new(format!("inc-{t}"), vec![LocationLink::write(counter.id(), 8.0)]),
                move |ctx| {
                    let mut h = loc.iterative_handle(AccessMode::Write);
                    for _ in 0..increments {
                        let mut g = h.acquire().unwrap();
                        *g += 1;
                    }
                    ctx.stats.record_acquisitions(increments);
                },
            );
        }
        (program, counter)
    }

    /// One package of two single-PU cores.
    fn two_pus() -> Topology {
        synthetic::from_synthetic("two-pus", "package:1 core:2 pu:1").unwrap()
    }

    /// `n` tasks, each writing its own location, that report the home
    /// their thread parks with; the homes come back in task order.
    fn homes_of(builder: SessionBuilder, n: usize) -> (Report, Vec<Option<usize>>) {
        let homes = Arc::new(Mutex::new(vec![None; n]));
        let mut program = OrwlProgram::new();
        for t in 0..n {
            let own = Location::new(format!("own-{t}"), 0u8);
            let homes = Arc::clone(&homes);
            program.add_task(
                TaskSpec::new(format!("home-{t}"), vec![LocationLink::write(own.id(), 1.0)]),
                move |ctx| homes.lock().unwrap()[ctx.task_id.0] = fifo::home(),
            );
        }
        let report = builder.build().unwrap().run(program).unwrap();
        let homes = homes.lock().unwrap().clone();
        (report, homes)
    }

    #[test]
    fn binders_that_report_no_affinity_give_no_home() {
        for binder in [Arc::new(RecordingBinder::new()) as Arc<dyn Binder>, Arc::new(NoopBinder)] {
            let name = binder.name();
            let (report, homes) = homes_of(threads_on(two_pus(), Policy::TreeMatch).binder(binder), 4);
            assert!(report.plan.placement.bound_fraction() > 0.99, "{name}: every task was bound");
            assert_eq!(homes, [None; 4], "{name}");
        }
    }

    #[test]
    fn a_reporting_binder_gives_each_task_thread_its_planned_pu() {
        let builder = threads_on(synthetic::laptop(), Policy::TreeMatch).binder(Arc::new(ReportingBinder));
        let (report, homes) = homes_of(builder, 6);
        let planned: Vec<Option<usize>> = report
            .plan
            .placement
            .compute_cpusets()
            .iter()
            .map(|pus| pus.as_ref().and_then(CpuSet::first))
            .collect();
        assert!(planned.iter().all(Option::is_some), "{planned:?}");
        assert_eq!(homes, planned);
    }

    /// The `hub_fanout` shape with homes: one writer and seven readers on
    /// one location, every iterative request posted in the fenced init,
    /// each reader computing for `reader_busy` after each read.  Runs it
    /// for `ITERATIONS` under `builder` with a `ReportingBinder` and
    /// returns the eight threads' homes at their end, sorted, after
    /// checking that every reader saw every value.  A release whose wake
    /// order dropped a waiter would leave it parked for good; the deadline
    /// turns that hang into a failure.
    fn broadcast_homes<const ITERATIONS: u64>(
        builder: SessionBuilder,
        reader_busy: Duration,
    ) -> (Report, Vec<Option<usize>>) {
        const READERS: usize = 7;
        let start = 41u64;
        let hub = Location::new("hub", start);
        let homes = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut program = OrwlProgram::new();
        let mut writer = hub.iterative_handle(AccessMode::Write);
        writer.request().unwrap();
        let writer_homes = Arc::clone(&homes);
        program.add_task(TaskSpec::new("hub-writer", vec![LocationLink::write(hub.id(), 8.0)]), move |_| {
            for _ in 0..ITERATIONS {
                *writer.acquire().unwrap() += 1;
            }
            writer_homes.lock().unwrap().push(fifo::home());
        });
        for r in 0..READERS {
            let mut reader = hub.iterative_handle(AccessMode::Read);
            reader.request().unwrap();
            let (homes, seen) = (Arc::clone(&homes), Arc::clone(&seen));
            program.add_task(
                TaskSpec::new(format!("hub-reader-{r}"), vec![LocationLink::read(hub.id(), 8.0)]),
                move |_| {
                    let (mut increasing, mut last) = (true, start);
                    for _ in 0..ITERATIONS {
                        let value = *reader.acquire().unwrap();
                        increasing &= value > last;
                        last = value;
                        let busy = Instant::now();
                        while busy.elapsed() < reader_busy {
                            std::hint::spin_loop();
                        }
                    }
                    homes.lock().unwrap().push(fifo::home());
                    seen.lock().unwrap().push((increasing, last));
                },
            );
        }
        let session = builder.binder(Arc::new(ReportingBinder)).build().unwrap();
        let (done_tx, done) = mpsc::channel();
        let runner = std::thread::spawn(move || done_tx.send(session.run(program)).unwrap());
        let outcome = done
            .recv_timeout(Duration::from_secs(30))
            .expect("the broadcast hung: a release left one of its wake set parked");
        runner.join().unwrap();
        let report = outcome.unwrap();
        let mut homes = homes.lock().unwrap().clone();
        homes.sort_unstable();
        assert_eq!(hub.snapshot(), start + ITERATIONS);
        assert_eq!(*seen.lock().unwrap(), [(true, start + ITERATIONS); READERS]);
        (report, homes)
    }

    /// Scatter's round-robin homes the hub's eight threads four and four,
    /// so every release wakes readers on both PUs.
    #[test]
    fn a_broadcast_homed_on_two_pus_delivers_every_value_to_every_reader() {
        let (_, homes) = broadcast_homes::<500>(threads_on(two_pus(), Policy::Scatter), Duration::ZERO);
        assert_eq!(homes, [[Some(0); 4], [Some(1); 4]].concat(), "homes split four and four");
    }

    /// TreeMatch splits the hub four and four too, but its handoffs price
    /// cheaper on one PU and its readers compute nothing: after measuring
    /// that, every task thread moves to task 0's PU.
    #[test]
    fn a_static_treematch_broadcast_is_packed_onto_one_pu() {
        let (report, homes) =
            broadcast_homes::<500>(threads_on(two_pus(), Policy::TreeMatch), Duration::ZERO);
        let home = homes[0];
        assert!(home.is_some());
        assert_eq!(homes, [home; 8], "every task thread on one PU");
        assert_eq!(report.plan.placement.pus_used(), 1, "the report carries the bound plan");
    }

    /// The same hub with readers that compute 100 µs after each read: the
    /// readers run in parallel only when spread, so TreeMatch's plan stays.
    #[test]
    fn a_static_treematch_broadcast_whose_readers_compute_stays_spread() {
        let builder = threads_on(two_pus(), Policy::TreeMatch);
        let (report, homes) = broadcast_homes::<40>(builder, Duration::from_micros(100));
        assert_eq!(homes, [[Some(0); 4], [Some(1); 4]].concat(), "homes split four and four");
        assert_eq!(report.plan.placement.pus_used(), 2);
    }

    /// The adaptive controller owns an adaptive run's placement: the hub
    /// keeps TreeMatch's four-and-four split.
    #[test]
    fn an_adaptive_broadcast_is_not_packed() {
        struct Keeps;
        impl AdaptiveController for Keeps {
            fn on_run_start(&self, _: &[TaskSpec], _: &PlacementPlan, _: &Topology) {}
            fn on_flow(&self, _: TaskId, _: TaskId, _: LocationId, _: AccessMode) {}
            fn on_epoch(&self, _: u64) -> Option<Placement> {
                None
            }
        }
        let spec = AdaptiveSpec::with_controller(Arc::new(Keeps), Duration::from_millis(5));
        let builder = threads_on(two_pus(), Policy::TreeMatch).adaptive(spec);
        let (report, homes) = broadcast_homes::<500>(builder, Duration::ZERO);
        assert_eq!(homes, [[Some(0); 4], [Some(1); 4]].concat(), "homes split four and four");
        assert_eq!(report.plan.placement.pus_used(), 2);
    }

    /// Tasks that share no location gain nothing from one PU: TreeMatch's
    /// plan is bound as it is.
    #[test]
    fn independent_tasks_stay_spread() {
        let builder = threads_on(two_pus(), Policy::TreeMatch).binder(Arc::new(ReportingBinder));
        let (report, mut homes) = homes_of(builder, 4);
        homes.sort_unstable();
        homes.dedup();
        assert_eq!(homes, [Some(0), Some(1)]);
        assert_eq!(
            report.plan.placement,
            compute_placement(Policy::TreeMatch, &two_pus(), &report.plan.matrix, 1)
        );
    }

    #[test]
    fn empty_program_is_rejected() {
        // `Session::run` turns an empty workload away before dispatch; a
        // caller holding the backend itself meets the runtime's own guard.
        let session = threads_on(synthetic::laptop(), Policy::NoBind).build().unwrap();
        let outcome = ThreadBackend.run(session.config(), Workload::Program(OrwlProgram::new()));
        assert!(matches!(outcome, Err(OrwlError::EmptyProgram)));
    }

    #[test]
    fn runtime_executes_all_tasks_nobind() {
        let (program, counter) = counter_program(4, 500);
        let session = threads_on(synthetic::laptop(), Policy::NoBind).build().unwrap();
        let report = session.run(program).unwrap();
        assert_eq!(counter.snapshot(), 4 * 500);
        let details = report.thread.as_ref().unwrap();
        assert_eq!(details.per_task_time.len(), 4);
        assert_eq!(details.stats.tasks_started, 4);
        assert_eq!(details.stats.tasks_finished, 4);
        assert_eq!(details.stats.lock_acquisitions, 4 * 500);
        // Two lifecycle events per task were processed by control threads.
        assert_eq!(details.stats.control_events, 8);
        let wall_time = report.time.as_wall().unwrap();
        assert!(wall_time > Duration::ZERO);
        assert!(details.max_task_time() <= wall_time);
        assert_eq!(report.plan.placement.bound_fraction(), 0.0);
    }

    #[test]
    fn runtime_with_recording_binder_applies_treematch_placement() {
        let (program, counter) = counter_program(4, 100);
        let binder = Arc::new(RecordingBinder::new());
        let session = threads_on(synthetic::laptop(), Policy::TreeMatch)
            .binder(binder.clone())
            .control_threads(1)
            .build()
            .unwrap();
        let report = session.run(program).unwrap();
        assert_eq!(counter.snapshot(), 400);
        // All 4 compute threads were bound (laptop has 8 PUs), plus possibly
        // the control thread.
        assert!(binder.anonymous_bindings().len() >= 4, "bindings: {:?}", binder.anonymous_bindings());
        assert!(report.plan.placement.bound_fraction() > 0.99);
        assert_eq!(report.plan.policy.name(), "treematch");
    }

    #[test]
    fn stencil_like_program_produces_nonzero_matrix() {
        // 4 tasks in a ring, each writing its own frontier read by the next.
        let frontiers: Vec<_> = (0..4).map(|i| Location::new(format!("f{i}"), vec![0.0f64; 64])).collect();
        let mut program = OrwlProgram::new();
        for t in 0..4 {
            let me = Arc::clone(&frontiers[t]);
            let prev = Arc::clone(&frontiers[(t + 3) % 4]);
            program.add_task(
                TaskSpec::new(
                    format!("ring-{t}"),
                    vec![
                        LocationLink::write(frontiers[t].id(), 512.0),
                        LocationLink::read(frontiers[(t + 3) % 4].id(), 512.0),
                    ],
                ),
                move |_| {
                    let mut wh = me.iterative_handle(AccessMode::Write);
                    let mut rh = prev.iterative_handle(AccessMode::Read);
                    for i in 0..20 {
                        {
                            let mut g = wh.acquire().unwrap();
                            g[0] = i as f64;
                        }
                        {
                            let g = rh.acquire().unwrap();
                            assert!(g[0] >= 0.0);
                        }
                    }
                },
            );
        }
        let session = threads_on(synthetic::cluster2016_subset(1).unwrap(), Policy::TreeMatch)
            .binder(Arc::new(RecordingBinder::new()))
            .build()
            .unwrap();
        let report = session.run(program).unwrap();
        assert_eq!(report.plan.matrix.order(), 4);
        assert!(report.plan.matrix.total_volume() > 0.0);
        report.plan.placement.validate_against(&session.config().topology).unwrap();
    }

    /// A panicking task's thread dies with it; the pool serves the next
    /// runs from its other threads and new ones.
    #[test]
    fn task_panic_is_reported_with_name() {
        let session = threads_on(synthetic::laptop(), Policy::NoBind).build().unwrap();
        for _ in 0..3 {
            let mut program = OrwlProgram::new();
            program.add_task(TaskSpec::new("ok", vec![]), |_| {});
            program.add_task(TaskSpec::new("boom", vec![]), |_| panic!("intentional"));
            match session.run(program) {
                Err(OrwlError::TaskPanicked(name)) => assert_eq!(name, "boom"),
                other => panic!("expected TaskPanicked, got {other:?}"),
            }
            let (program, counter) = counter_program(4, 50);
            assert!(session.run(program).is_ok());
            assert_eq!(counter.snapshot(), 200);
        }
    }

    #[test]
    fn a_controller_panic_fails_the_run() {
        struct PanicsAtFirstEpoch(std::sync::Mutex<std::sync::mpsc::Sender<()>>);
        impl AdaptiveController for PanicsAtFirstEpoch {
            fn on_run_start(&self, _: &[TaskSpec], _: &PlacementPlan, _: &Topology) {}
            fn on_flow(&self, _: TaskId, _: TaskId, _: LocationId, _: AccessMode) {}
            fn on_epoch(&self, _: u64) -> Option<Placement> {
                self.0.lock().unwrap().send(()).unwrap();
                panic!("controller bug");
            }
        }
        let (epoch_reached, wait_epoch) = std::sync::mpsc::channel();
        let controller = Arc::new(PanicsAtFirstEpoch(std::sync::Mutex::new(epoch_reached)));
        let session = threads_on(synthetic::laptop(), Policy::NoBind)
            .adaptive(AdaptiveSpec::with_controller(controller, Duration::from_millis(1)))
            .build()
            .unwrap();
        let wait_epoch = std::sync::Mutex::new(wait_epoch);
        let mut program = OrwlProgram::new();
        // The task outlives the first epoch, so the monitor panics mid-run.
        program.add_task(TaskSpec::new("waits", vec![]), move |_| wait_epoch.lock().unwrap().recv().unwrap());
        match session.run(program) {
            Err(OrwlError::TaskPanicked(name)) => assert_eq!(name, "orwl-adapt-monitor"),
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    /// Where each of `n` tasks ran: its thread, its home and the affinity
    /// the binder reports to it, in task order.  Each task writes its own
    /// location, so a binding policy binds them all.
    fn where_tasks_ran(session: &Session, n: usize) -> Vec<(ThreadId, Option<usize>, Option<CpuSet>)> {
        let binder = Arc::clone(&session.config().binder);
        let ran = Arc::new(Mutex::new(vec![None; n]));
        let mut program = OrwlProgram::new();
        for t in 0..n {
            let own = Location::new(format!("own-{t}"), 0u8);
            let (binder, ran) = (Arc::clone(&binder), Arc::clone(&ran));
            program.add_task(
                TaskSpec::new(format!("ran-{t}"), vec![LocationLink::write(own.id(), 1.0)]),
                move |ctx| {
                    let here = (std::thread::current().id(), fifo::home(), binder.current_affinity());
                    ran.lock().unwrap()[ctx.task_id.0] = Some(here);
                },
            );
        }
        assert!(session.run(program).is_ok());
        let ran = ran.lock().unwrap().clone();
        ran.into_iter().map(Option::unwrap).collect()
    }

    /// A task thread whose job returned stays its run's until the run
    /// joins it: the run's later tasks, and a run beside it, get others.
    #[test]
    fn every_task_of_a_run_has_its_own_thread_also_beside_another_run() {
        let callers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    let session = threads_on(two_pus(), Policy::NoBind).build().unwrap();
                    for _ in 0..20 {
                        let mut threads: Vec<ThreadId> =
                            where_tasks_ran(&session, 8).into_iter().map(|(thread, ..)| thread).collect();
                        threads.sort_unstable_by_key(|id| format!("{id:?}"));
                        threads.dedup();
                        assert_eq!(threads.len(), 8, "eight tasks ran on {threads:?}");
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
    }

    /// A task of an unbound run that lands on a thread a bound run used
    /// finds the thread as it was before that run bound it.
    #[test]
    fn a_pooled_thread_comes_back_unbound_and_without_a_home() {
        let with = |policy| threads_on(two_pus(), policy).binder(Arc::new(ReportingBinder)).build().unwrap();
        let (bound, unbound) = (with(Policy::TreeMatch), with(Policy::NoBind));
        for _ in 0..100 {
            let before = where_tasks_ran(&bound, 4);
            assert!(before.iter().all(|(_, home, _)| home.is_some()), "{before:?}");
            let after = where_tasks_ran(&unbound, 4);
            for (_, home, affinity) in &after {
                assert_eq!(*home, None);
                assert_eq!(*affinity, Some(CpuSet::from_indices(fifo::reporting::UNBOUND)));
            }
            if after.iter().any(|(thread, ..)| before.iter().any(|(used, ..)| used == thread)) {
                return;
            }
        }
        panic!("no task of the unbound run landed on a thread of the bound run");
    }

    /// The debug cycle report names runtime tasks although their pooled
    /// threads carry no task name: two tasks that each hold their own
    /// write and only then post a read of the other's location close a
    /// cycle, and the task that closes it panics with the report.
    #[cfg(debug_assertions)]
    #[test]
    fn a_cycle_report_names_the_tasks_of_pooled_threads() {
        let locations = [Location::new("lazy-a", 0u8), Location::new("lazy-b", 0u8)];
        let writes_granted = Arc::new(std::sync::Barrier::new(2));
        let reports = Arc::new(Mutex::new(Vec::new()));
        let mut program = OrwlProgram::new();
        for (t, name) in ["cycle-a", "cycle-b"].into_iter().enumerate() {
            let (mine, other) = (Arc::clone(&locations[t]), Arc::clone(&locations[1 - t]));
            let (fence, reports) = (Arc::clone(&writes_granted), Arc::clone(&reports));
            let links = vec![LocationLink::write(mine.id(), 1.0), LocationLink::read(other.id(), 1.0)];
            program.add_task(TaskSpec::new(name, links), move |_| {
                let closed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut write = mine.iterative_handle(AccessMode::Write);
                    let mut read = other.iterative_handle(AccessMode::Read);
                    let guard = write.acquire().unwrap();
                    fence.wait();
                    drop(read.acquire().unwrap());
                    drop(guard);
                }));
                if let Err(report) = closed {
                    reports
                        .lock()
                        .unwrap()
                        .push(report.downcast_ref::<String>().cloned().unwrap_or_default());
                }
            });
        }
        assert!(threads_on(two_pus(), Policy::NoBind).build().unwrap().run(program).is_ok());
        let reports = reports.lock().unwrap();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("ORWL deadlock detected"), "{}", reports[0]);
        assert!(
            reports[0].contains("orwl-task-cycle-a") && reports[0].contains("orwl-task-cycle-b"),
            "{}",
            reports[0]
        );
    }

    #[test]
    fn zero_control_threads_is_supported() {
        let (program, counter) = counter_program(2, 50);
        let session = threads_on(synthetic::laptop(), Policy::NoBind).control_threads(0).build().unwrap();
        let report = session.run(program).unwrap();
        assert_eq!(counter.snapshot(), 100);
        assert_eq!(report.thread.unwrap().stats.control_events, 0);
    }
}
