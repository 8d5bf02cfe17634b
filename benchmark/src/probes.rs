//! Per-layer probes: one layer at a time, timed from outside around its
//! public functions.
//!
//! A probe round runs every probe once, in a fixed order, between two
//! runs of the calibration kernel; the rounds repeat and each probe
//! reports the median over rounds of its calibrated reading.  A slow phase
//! of the machine therefore lands in every probe's tail instead of one
//! probe's median.  The probes are the same whatever the workload: they
//! say what a layer costs alone, the workload's own metrics say what it
//! costs in the run.

use crate::cal::{scale, Calibrator};
use crate::metrics::Ledger;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::lk23_fine::{self, run_lk23, seeded_grid};
use crate::workloads::placement_solve::{
    power_law_matrix, stencil_matrix, FLAT_TASKS, HIER_NODES, HIER_TASKS,
};
use crate::workloads::{hub_fanout, thread_session};
use orwl_adapt::replace::{Replacer, ReplacerConfig};
use orwl_adapt::{AdaptConfig, SimBackend};
use orwl_cluster::{hierarchical_placement, simulate_cluster, ClusterMachine};
use orwl_comm::aggregate::{aggregate_into, AggregateScratch, Groups};
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::hop_bytes;
use orwl_core::prelude::*;
use orwl_core::runtime::AdaptiveSpec;
use orwl_core::Location;
use orwl_lab::{sweep_to_json, ScenarioFamily, ScenarioSpec, SweepResult};
use orwl_lk23::kernel::reference_jacobi;
use orwl_lk23::{BlockView, Grid};
use orwl_numasim::costmodel::CostParams;
use orwl_numasim::exec::{simulate, NoopSimMonitor};
use orwl_numasim::machine::SimMachine;
use orwl_numasim::scenario::ExecutionScenario;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_obs::{ClockKind, EventKind, ObsConfig, Recorder};
use orwl_proc::transport::FramedStream;
use orwl_proc::wire::{FrameReader, Message, WireAccess};
use orwl_topo::topology::Topology;
use orwl_treematch::{partition, PartCosts, PlacementScratch, TreeMatchMapper};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rounds of the probe set; each probe has this many samples.
const ROUNDS: usize = 9;
/// The heaviest probes run on every other round: five samples.
const HEAVY_EVERY: usize = 2;

const PAIR_HANDOFFS: u64 = 4000;
const FANOUT_ITERATIONS: u64 = 500;
const GRANT_BYTES: usize = 64 * 1024;
const RTT_EXCHANGES: usize = 200;
const BLOCK_SIDE: usize = 512;
const BLOCK_SWEEPS: usize = 25;

fn seconds<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Seconds per call of `f` over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    seconds(|| (0..reps).for_each(|_| f())) / reps as f64
}

/// Inputs every round reuses: building them is not what the probes time
/// (where it is, the probe builds its own).
struct Fixture {
    smp192: Topology,
    host: Topology,
    stencil: CommMatrix,
    power_1024: CommMatrix,
    power_2048: CommMatrix,
    power_512: CommMatrix,
    groups_1024: Groups,
    scatter_1024: Vec<usize>,
    cluster8: ClusterMachine,
    cluster4: ClusterMachine,
    sim: SimMachine,
    dense64: TaskGraph,
    dense64_matrix: CommMatrix,
    grid_fine: Grid,
    grid_block: Grid,
    sweep_rows: SweepResult,
}

impl Fixture {
    fn new() -> Self {
        let smp192 = orwl_topo::synthetic::cluster2016_smp192();
        let dense64_matrix = ScenarioSpec::new(ScenarioFamily::DenseStencil, 64, 1).phase_matrix(0);
        let pus = smp192.pu_os_indices();
        Fixture {
            host: orwl_topo::discover::discover(),
            stencil: stencil_matrix(),
            power_1024: power_law_matrix(FLAT_TASKS),
            power_2048: power_law_matrix(2 * FLAT_TASKS),
            power_512: power_law_matrix(HIER_TASKS).symmetrized(),
            groups_1024: (0..FLAT_TASKS / 4).map(|g| (4 * g..4 * g + 4).collect()).collect(),
            scatter_1024: (0..FLAT_TASKS).map(|t| pus[t % pus.len()]).collect(),
            cluster8: ClusterMachine::paper(HIER_NODES),
            cluster4: ClusterMachine::paper(4),
            sim: SimMachine::new(
                orwl_topo::synthetic::cluster2016_subset(4)
                    .expect("four sockets are within the paper machine"),
                CostParams::cluster2016(),
            ),
            dense64: ScenarioSpec::new(ScenarioFamily::DenseStencil, 64, 1).workload().phases[0]
                .graph
                .clone(),
            dense64_matrix,
            grid_fine: seeded_grid(lk23_fine::SIDE, lk23_fine::SIDE, 1),
            grid_block: seeded_grid(BLOCK_SIDE, BLOCK_SIDE, 1),
            sweep_rows: orwl_lab::run_sweep_with_threads(&orwl_lab::SweepConfig::smoke(1), 1)
                .expect("the smoke sweep runs"),
            smp192,
        }
    }
}

/// Raw readings of one round, by metric name.
#[derive(Default)]
struct Round {
    /// Durations, in the metric's unit: calibrated with the round's scale.
    timed: Vec<(&'static str, f64)>,
    /// Ratios of two durations of the same round: left as measured.
    ratios: Vec<(&'static str, f64)>,
}

impl Round {
    fn push(&mut self, reading: (&'static str, f64)) {
        self.timed.push(reading);
    }
}

fn round(fx: &Fixture, heavy: bool) -> Round {
    let mut out = Round::default();
    topo_and_comm(fx, &mut out);
    solvers(fx, heavy, &mut out);
    lock_fifo(fx, &mut out);
    lk23(fx, heavy, &mut out);
    simulators(fx, &mut out);
    wire(&mut out);
    obs(&mut out);
    out
}

fn topo_and_comm(fx: &Fixture, out: &mut Round) {
    out.push((
        "topo.synthetic_build_us",
        seconds(|| (orwl_topo::synthetic::cluster2016_smp192(), ClusterMachine::paper(HIER_NODES))) * 1e6,
    ));
    let pus = fx.smp192.pu_os_indices();
    let pairs = (pus.len() * pus.len()) as f64;
    let hop_total = seconds(|| {
        let mut sum = 0usize;
        for &a in &pus {
            for &b in &pus {
                sum += fx.smp192.hop_distance(a, b);
            }
        }
        sum
    });
    out.push(("topo.hop_distance_ns", hop_total / pairs * 1e9));
    out.push(("comm.pattern_build_ms", seconds(|| (stencil_matrix(), power_law_matrix(FLAT_TASKS))) * 1e3));
    let (mut scratch, mut aggregated) = (AggregateScratch::default(), CommMatrix::zeros(0));
    out.push((
        "comm.aggregate_us",
        seconds(|| aggregate_into(&fx.power_1024, &fx.groups_1024, &mut scratch, &mut aggregated)) * 1e6,
    ));
    out.push((
        "comm.hop_bytes_us",
        seconds(|| hop_bytes(&fx.power_1024, &fx.smp192, &fx.scatter_1024)) * 1e6,
    ));
}

fn solvers(fx: &Fixture, heavy: bool, out: &mut Round) {
    let mapper = TreeMatchMapper::compute_only();
    let mut scratch = PlacementScratch::new();
    let mut flat =
        |m: &CommMatrix| seconds(|| mapper.compute_placement_with(&fx.smp192, m, &mut scratch)) * 1e3;
    out.push(("treematch.flat_stencil_p1024_ms", flat(&fx.stencil)));
    out.push(("treematch.flat_powerlaw_p1024_ms", flat(&fx.power_1024)));
    if heavy {
        out.push(("treematch.flat_powerlaw_p2048_ms", flat(&fx.power_2048)));
    }
    let capacity = HIER_TASKS.div_ceil(HIER_NODES);
    out.push((
        "treematch.partition_p512_k8_ms",
        seconds(|| partition(&fx.power_512, &PartCosts::uniform(HIER_NODES), capacity)) * 1e3,
    ));
    out.push((
        "cluster.hier_place_p512_n8_ms",
        seconds(|| hierarchical_placement(&fx.cluster8, &fx.power_512)) * 1e3,
    ));
}

fn lock_fifo(fx: &Fixture, out: &mut Round) {
    // One iterative handle, one thread: the uncontended cycle.
    for (name, mode) in [
        ("core.fifo_uncontended_write_ns", AccessMode::Write),
        ("core.fifo_uncontended_read_ns", AccessMode::Read),
    ] {
        let location = Location::new("probe", 0u64);
        let mut handle = location.iterative_handle(mode);
        out.push((
            name,
            per_call(20_000, || drop(black_box(handle.acquire().expect("iterative handle")))) * 1e9,
        ));
    }

    // Two threads alternating write -> read on one location.
    let location = Location::new("pair", 0u64);
    let mut writer = location.iterative_handle(AccessMode::Write);
    let mut reader = location.iterative_handle(AccessMode::Read);
    writer.request().expect("fresh handle");
    reader.request().expect("fresh handle");
    let start = Arc::new(Barrier::new(2));
    let pair = seconds(|| {
        std::thread::scope(|s| {
            let gate = Arc::clone(&start);
            s.spawn(move || {
                gate.wait();
                for _ in 0..PAIR_HANDOFFS {
                    black_box(*reader.acquire().expect("iterative handle"));
                }
            });
            start.wait();
            for _ in 0..PAIR_HANDOFFS {
                *writer.acquire().expect("iterative handle") += 1;
            }
        });
    });
    out.push(("core.fifo_pair_handoff_us", pair / (2 * PAIR_HANDOFFS) as f64 * 1e6));

    // One writer waking seven readers: the hub_fanout program, shorter.
    let (program, _seen) = hub_fanout::build_program(&Location::new("fan", 0u64), FANOUT_ITERATIONS);
    let session =
        thread_session(&fx.host, false).expect("a thread session on the discovered topology is valid");
    out.push((
        "core.fifo_fanout_wake_us",
        seconds(|| session.run(program).expect("fan-out program runs")) / FANOUT_ITERATIONS as f64 * 1e6,
    ));

    // Sixteen empty task bodies: plan + spawn + bind + join.
    let mut empty = OrwlProgram::new();
    for t in 0..16 {
        let own = Location::new(format!("e{t}"), 0u8);
        empty.add_task(TaskSpec::new(format!("e{t}"), vec![LocationLink::write(own.id(), 1.0)]), |_| {});
    }
    out.push(("core.session_spawn_us", seconds(|| session.run(empty).expect("empty program runs")) * 1e6));
}

fn lk23(fx: &Fixture, heavy: bool, out: &mut Round) {
    let fine_points = lk23_fine::POINT_UPDATES;
    let seq_fine = seconds(|| reference_jacobi(&fx.grid_fine, lk23_fine::SWEEPS));
    out.push(("lk23.seq_point_ns", seq_fine / fine_points * 1e9));

    let view = BlockView::from_grid(&fx.grid_fine, 0..lk23_fine::SIDE, 0..lk23_fine::SIDE);
    let mut next = view.clone();
    let updates = 100;
    let block =
        seconds(|| (0..updates).for_each(|_| view.update_into(&mut next, lk23_fine::SIDE, lk23_fine::SIDE)));
    out.push(("lk23.block_point_ns", block / (updates * lk23_fine::SIDE * lk23_fine::SIDE) as f64 * 1e9));

    let mut off = Tracer::new();
    let blocks = (lk23_fine::BLOCKS, lk23_fine::BLOCKS);
    let orwl_fine = seconds(|| run_lk23(&fx.grid_fine, blocks, lk23_fine::SWEEPS, &fx.host, &mut off, false));
    out.ratios.push(("lk23.fine_speedup_vs_seq", seq_fine / orwl_fine));
    if heavy {
        let seq = seconds(|| reference_jacobi(&fx.grid_block, BLOCK_SWEEPS));
        let orwl = seconds(|| run_lk23(&fx.grid_block, (1, 2), BLOCK_SWEEPS, &fx.host, &mut off, false));
        out.ratios.push(("lk23.block_speedup_vs_seq", seq / orwl));
    }
}

fn simulators(fx: &Fixture, out: &mut Round) {
    let n = fx.dense64.n_tasks();
    let sim_pus = fx.sim.topology().pu_os_indices();
    let scenario = ExecutionScenario::bound(&fx.sim, (0..n).map(|t| sim_pus[t % sim_pus.len()]).collect());
    out.push(("numasim.simulate_ms", seconds(|| simulate(&fx.sim, &fx.dense64, &scenario, 10)) * 1e3));
    let cluster_pus = fx.cluster4.topology().pu_os_indices();
    let mapping: Vec<usize> = (0..n).map(|t| cluster_pus[t % cluster_pus.len()]).collect();
    out.push((
        "cluster.simulate_ms",
        seconds(|| simulate_cluster(&fx.cluster4, &fx.dense64, &mapping, 10, &mut NoopSimMonitor)) * 1e3,
    ));

    let topo = fx.sim.topology();
    let current = orwl_treematch::compute_placement(Policy::Scatter, topo, &fx.dense64_matrix, 0);
    let replacer = Replacer::new(ReplacerConfig::default());
    let mut scratch = PlacementScratch::new();
    out.push((
        "adapt.replace_eval_us",
        seconds(|| replacer.evaluate_with(topo, &fx.dense64_matrix, &current, 0, &mut scratch)) * 1e6,
    ));

    let rotated = ScenarioSpec::new(ScenarioFamily::RotatedStencil, 16, 1);
    let machine = SimMachine::new(
        orwl_topo::synthetic::cluster2016_subset(2).expect("two sockets are within the paper machine"),
        CostParams::cluster2016(),
    );
    let session = Session::builder()
        .topology(machine.topology().clone())
        .policy(Policy::TreeMatch)
        .control_threads(0)
        .adaptive(AdaptiveSpec::per_iterations(4))
        .backend(SimBackend::new(machine).with_adapt_config(AdaptConfig::evaluation()))
        .build()
        .expect("an adaptive simulator session is valid");
    out.push((
        "adapt.sim_adaptive_ms",
        seconds(|| session.run(rotated.workload()).expect("adaptive run")) * 1e3,
    ));

    let short = ScenarioSpec::new(ScenarioFamily::DenseStencil, 36, 1).with_phases(vec![2]);
    out.push(("lab.scenario_compile_us", seconds(|| short.workload()) * 1e6));
    out.push(("lab.report_json_ms", seconds(|| sweep_to_json(&fx.sweep_rows).pretty()) * 1e3));
}

fn wire(out: &mut Round) {
    let grant = Message::LockGrant { seq: 7, location: 3, data: vec![0xA5; GRANT_BYTES] };
    out.push(("proc.wire_encode_grant64k_ns", per_call(200, || drop(black_box(grant.encode()))) * 1e9));
    let frame = grant.encode();
    let mut reader = FrameReader::new();
    out.push((
        "proc.wire_decode_grant64k_ns",
        per_call(200, || {
            reader.push(&frame);
            black_box(reader.try_next().expect("a frame this build encoded decodes"));
        }) * 1e9,
    ));

    // request -> grant(64 KiB) -> release between two harness threads.
    let (near, far) = UnixStream::pair().expect("socketpair");
    let deadline = Some(Duration::from_secs(10));
    let rtt = std::thread::scope(|s| {
        s.spawn(move || {
            let mut owner = FramedStream::new(far);
            for _ in 0..RTT_EXCHANGES {
                let Ok(Message::LockRequest { seq, location, .. }) = owner.recv(deadline) else { return };
                let grant = Message::LockGrant { seq, location, data: vec![0xA5; GRANT_BYTES] };
                if owner.send(&grant).is_err() || owner.recv(deadline).is_err() {
                    return;
                }
            }
        });
        let mut peer = FramedStream::new(near);
        per_call(RTT_EXCHANGES, || {
            let request = Message::LockRequest {
                seq: 1,
                location: 3,
                access: WireAccess::Read,
                bytes: GRANT_BYTES as u64,
            };
            peer.send(&request).expect("request is sent");
            black_box(peer.recv(deadline).expect("grant arrives"));
            peer.send(&Message::Release { seq: 1, location: 3 }).expect("release is sent");
        })
    });
    out.push(("proc.transport_rtt_us", rtt * 1e6));
}

fn obs(out: &mut Round) {
    let event = EventKind::LockWait { location: 1, wait_ns: 20_000 };
    out.push(("obs.emit_closed_ns", per_call(200_000, || orwl_obs::emit(black_box(event))) * 1e9));
    let recorder = Recorder::new(ClockKind::Wall, ObsConfig::default());
    let registration = orwl_obs::install(&recorder);
    out.push(("obs.emit_open_ns", per_call(50_000, || orwl_obs::emit(black_box(event))) * 1e9));
    drop(registration);
}

/// Runs the probe rounds and writes each probe's median over rounds.
pub fn run(cal: &mut Calibrator, ledger: &mut Ledger) {
    let fixture = Fixture::new();
    black_box(round(&fixture, true).timed); // warm-up round, untimed
    let mut readings: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut record = |name: &'static str, value: f64| match readings.iter_mut().find(|(n, _)| *n == name) {
        Some((_, values)) => values.push(value),
        None => readings.push((name, vec![value])),
    };
    let mut before = cal.run();
    for r in 0..ROUNDS {
        let raw = round(&fixture, r % HEAVY_EVERY == 0);
        let after = cal.run();
        let factor = scale(before, after);
        before = after;
        raw.timed.into_iter().for_each(|(name, value)| record(name, value * factor));
        raw.ratios.into_iter().for_each(|(name, value)| record(name, value));
    }
    for (name, values) in readings {
        ledger.set(name, median(&values));
    }
}
