//! Pack or spread: a broadcast whose readers do more or less work.
//!
//! One writer and seven readers of one location (the shape of the
//! benchmark's `hub_fanout`), run as a static TreeMatch session on this
//! machine's topology with its native binder.  Each reader computes for a
//! fixed time after each read.  With no compute the readers only hand the
//! lock around, and one PU serves them best; with compute, the readers run
//! in parallel only when spread.  For each compute time the example prints
//! the median wall time of five runs and how many PUs the bound plan uses.
//!
//! ```text
//! cargo run --release --example pack_or_spread               # 0 5 20 100 µs
//! cargo run --release --example pack_or_spread -- 0 50        # chosen µs
//! ```

use orwl_core::prelude::*;
use std::time::{Duration, Instant};

const READERS: usize = 7;
const ITERATIONS: u64 = 500;
const RUNS: usize = 5;

/// The broadcast program, each reader computing for `busy` after a read.
fn build_program(busy: Duration) -> OrwlProgram {
    let hub = Location::new("hub", 0u64);
    let mut program = OrwlProgram::new();
    // The fenced init: the writer's request first, then every reader's.
    let mut writer = hub.iterative_handle(AccessMode::Write);
    writer.request().expect("fresh handle");
    program.add_task(TaskSpec::new("writer", vec![LocationLink::write(hub.id(), 8.0)]), move |_| {
        for _ in 0..ITERATIONS {
            *writer.acquire().expect("iterative handle") += 1;
        }
    });
    for r in 0..READERS {
        let mut reader = hub.iterative_handle(AccessMode::Read);
        reader.request().expect("fresh handle");
        program.add_task(
            TaskSpec::new(format!("reader-{r}"), vec![LocationLink::read(hub.id(), 8.0)]),
            move |_| {
                for _ in 0..ITERATIONS {
                    let value = *reader.acquire().expect("iterative handle");
                    let start = Instant::now();
                    while start.elapsed() < busy {
                        std::hint::black_box(value);
                    }
                }
            },
        );
    }
    program
}

fn main() {
    let compute_us: Vec<u64> =
        match std::env::args().skip(1).map(|a| a.parse()).collect::<Result<Vec<_>, _>>() {
            Ok(list) if !list.is_empty() => list,
            Ok(_) => vec![0, 5, 20, 100],
            Err(e) => {
                eprintln!("usage: pack_or_spread [READER_COMPUTE_US ...]: {e}");
                std::process::exit(2);
            }
        };
    let session = Session::builder()
        .topology(orwl_topo::discover::discover())
        .policy(Policy::TreeMatch)
        .backend(ThreadBackend)
        .build()
        .expect("a static TreeMatch session");
    println!("{READERS} readers, {ITERATIONS} iterations, median of {RUNS} runs");
    for us in compute_us {
        let mut times = Vec::with_capacity(RUNS);
        let mut pus = 0;
        for _ in 0..RUNS {
            let start = Instant::now();
            let report = session.run(build_program(Duration::from_micros(us))).expect("the broadcast runs");
            times.push(start.elapsed());
            let mut bound: Vec<usize> = report.plan.placement.compute.iter().flatten().copied().collect();
            bound.sort_unstable();
            bound.dedup();
            pus = bound.len();
        }
        times.sort_unstable();
        println!("reader compute {us:>4} µs: {:>10.3?} on {pus} PU(s)", times[RUNS / 2]);
    }
}
