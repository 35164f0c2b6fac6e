//! Criterion benchmarks of the simulation engine itself: raw event
//! throughput, queue operations, and analysis primitives — the numbers a
//! simulator maintainer watches.
//!
//! The bodies live in [`pfcsim_experiments::enginebench`] so that `repro
//! bench` runs the identical workloads when writing `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main};

use pfcsim_experiments::enginebench::{
    bench_arena_reuse, bench_deadlock_scan, bench_event_queue, bench_fat_tree_all_to_all,
    bench_hybrid_fabric, bench_line_forwarding, bench_serve, bench_telemetry_off,
};

criterion_group!(
    engine,
    bench_event_queue,
    bench_line_forwarding,
    bench_telemetry_off,
    bench_fat_tree_all_to_all,
    bench_hybrid_fabric,
    bench_deadlock_scan,
    bench_arena_reuse,
    bench_serve
);
criterion_main!(engine);
