//! Experiment A4 — ORWL runtime micro-benchmarks: request/acquire/release
//! throughput on a single location, FIFO fairness under contention, and the
//! end-to-end cost of running a small real ORWL program.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orwl_core::prelude::*;
use orwl_core::Location;
use std::sync::Arc;

fn bench_lock_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("orwl_lock");
    group.sample_size(20);

    group.bench_function("uncontended_write_cycle", |b| {
        let loc = Location::new("bench", 0u64);
        let mut h = loc.iterative_handle(AccessMode::Write);
        b.iter(|| {
            let mut g = h.acquire().unwrap();
            *g += 1;
        });
    });

    group.bench_function("uncontended_read_cycle", |b| {
        let loc = Location::new("bench", 0u64);
        let mut h = loc.iterative_handle(AccessMode::Read);
        b.iter(|| {
            let g = h.acquire().unwrap();
            criterion::black_box(*g);
        });
    });

    for threads in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("contended_increments", threads), &threads, |b, &n| {
            b.iter(|| {
                let loc = Location::new("bench", 0u64);
                std::thread::scope(|s| {
                    for _ in 0..n {
                        let loc = Arc::clone(&loc);
                        s.spawn(move || {
                            let mut h = loc.iterative_handle(AccessMode::Write);
                            for _ in 0..200 {
                                let mut g = h.acquire().unwrap();
                                *g += 1;
                            }
                        });
                    }
                });
                assert_eq!(loc.snapshot(), 200 * n as u64);
            });
        });
    }
    group.finish();
}

fn bench_runtime_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("orwl_runtime");
    group.sample_size(10);
    let session = Session::builder()
        .topology(orwl_topo::discover::discover())
        .policy(Policy::NoBind)
        .backend(ThreadBackend)
        .build()
        .expect("the host topology supports one control thread");
    for tasks in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("ring_program", tasks), &tasks, |b, &n| {
            b.iter(|| {
                let locs: Vec<_> = (0..n).map(|i| Location::new(format!("l{i}"), 0u64)).collect();
                // The fenced init of the ORWL model: every request is posted
                // before a task runs, each location's write ahead of its
                // read.  Posted lazily from the task bodies, a reader can
                // queue behind its partner's *re-posted* write all around
                // the ring — the circular wait the debug-build detector
                // panics on.
                let mut writers: Vec<_> =
                    locs.iter().map(|l| l.iterative_handle(AccessMode::Write)).collect();
                let mut readers: Vec<_> =
                    (0..n).map(|t| locs[(t + n - 1) % n].iterative_handle(AccessMode::Read)).collect();
                for handle in writers.iter_mut().chain(&mut readers) {
                    handle.request().expect("fresh handle");
                }
                let mut program = OrwlProgram::new();
                for (t, (mut w, mut r)) in writers.into_iter().zip(readers).enumerate() {
                    program.add_task(
                        TaskSpec::new(
                            format!("t{t}"),
                            vec![
                                LocationLink::write(locs[t].id(), 8.0),
                                LocationLink::read(locs[(t + n - 1) % n].id(), 8.0),
                            ],
                        ),
                        move |_| {
                            for i in 0..50u64 {
                                *w.acquire().unwrap() = i;
                                criterion::black_box(*r.acquire().unwrap());
                            }
                        },
                    );
                }
                session.run(program).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lock_throughput, bench_runtime_end_to_end);
criterion_main!(benches);
