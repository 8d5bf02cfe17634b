//! Quickstart: the ORWL model in a few dozen lines.
//!
//! Builds a tiny ORWL program (four tasks incrementing a shared counter and
//! exchanging tokens around a ring), runs it twice — once unbound, once with
//! the topology-aware placement — and prints the placement and the runtime
//! statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use orwl_core::prelude::*;
use orwl_core::{Handle, Location};
use std::sync::Arc;

fn build_program(n_tasks: usize, iterations: u64) -> (OrwlProgram, Arc<Location<u64>>) {
    let counter = Location::new("counter", 0u64);
    // A ring of token locations so that tasks really communicate.
    let tokens: Vec<_> = (0..n_tasks).map(|i| Location::new(format!("token-{i}"), 0u64)).collect();

    // Deterministic initialisation phase (the ORWL model's "init" step):
    // post every request before any task thread runs — writers first, then
    // readers — so each location's schedule alternates write → read from
    // the start.  Posting lazily from racing threads can order a reader
    // behind a writer's *next* request, which deadlocks once that writer
    // finishes and parks.
    let mut counter_handles: Vec<Handle<u64>> = Vec::with_capacity(n_tasks);
    let mut write_handles: Vec<Handle<u64>> = Vec::with_capacity(n_tasks);
    let mut read_handles: Vec<Handle<u64>> = Vec::with_capacity(n_tasks);
    for token in &tokens {
        let mut h = counter.iterative_handle(AccessMode::Write);
        h.request().expect("fresh handle has no pending request");
        counter_handles.push(h);
        let mut h = token.iterative_handle(AccessMode::Write);
        h.request().expect("fresh handle has no pending request");
        write_handles.push(h);
    }
    for t in 0..n_tasks {
        let mut h = tokens[(t + n_tasks - 1) % n_tasks].iterative_handle(AccessMode::Read);
        h.request().expect("fresh handle has no pending request");
        read_handles.push(h);
    }

    let mut program = OrwlProgram::new();
    let handles = counter_handles.into_iter().zip(write_handles).zip(read_handles);
    for (t, ((mut counter_h, mut write_h), mut read_h)) in handles.enumerate() {
        let links = vec![
            LocationLink::write(counter.id(), 8.0),
            LocationLink::write(tokens[t].id(), 8.0),
            LocationLink::read(tokens[(t + n_tasks - 1) % n_tasks].id(), 8.0),
        ];
        program.add_task(TaskSpec::new(format!("worker-{t}"), links), move |ctx| {
            for i in 0..iterations {
                *counter_h.acquire().unwrap() += 1;
                *write_h.acquire().unwrap() = i;
                let _seen = *read_h.acquire().unwrap();
            }
            ctx.stats.record_acquisitions(3 * iterations);
        });
    }
    (program, counter)
}

fn run_with(label: &str, topo: orwl_topo::topology::Topology, policy: Policy) {
    let (program, counter) = build_program(4, 1_000);
    // The one front door: a Session over the real thread runtime.
    let session = Session::builder()
        .topology(topo)
        .policy(policy)
        .control_threads(1)
        .backend(ThreadBackend)
        .build()
        .expect("the quickstart configuration is valid");
    let report = session.run(program).expect("program runs to completion");
    let thread = report.thread.as_ref().expect("thread backend reports details");
    println!("--- {label} ---");
    println!("counter value        : {}", counter.snapshot());
    println!("wall time            : {:?}", report.time.as_wall().unwrap());
    println!("lock acquisitions    : {}", thread.stats.lock_acquisitions);
    println!("control events       : {}", thread.stats.control_events);
    println!("bound compute threads: {:.0}%", 100.0 * report.plan.placement.bound_fraction());
    println!("PUs bound to         : {}", report.plan.placement.pus_used());
    println!("communication matrix : order {}", report.plan.matrix.order());
    println!("NUMA-local traffic   : {:.1}%", 100.0 * report.breakdown.local_fraction());
    println!("placement:\n{}", report.plan.placement);
}

fn main() {
    println!("{}\n", orwl_repro::banner());
    let topo = orwl_topo::discover::discover();
    println!("host topology: {} ({} PUs, {} cores)\n", topo.name(), topo.nb_pus(), topo.nb_cores());

    // The paper's two ORWL configurations.
    run_with("ORWL NoBind", topo.clone(), Policy::NoBind);
    run_with("ORWL Bind (TreeMatch)", topo, Policy::TreeMatch);
}
