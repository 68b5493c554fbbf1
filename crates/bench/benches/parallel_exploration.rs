//! Criterion bench for the exploration engines, on the pyswitch FullDfs
//! chain-ping workload and the load-balancer scenario:
//!
//! * `cow_snapshot` — one worker with a copy-on-write snapshot per frontier
//!   node and cached component digests (the default engine),
//! * `checkpoint_replay` — one worker, a snapshot every 8 transitions of
//!   depth and the suffix replayed, and
//! * `parallel_4` — four workers over one shared explored store.
//!
//! `cargo run --release -p nice-bench --bin parallel` prints states/sec and
//! speedups directly.

use criterion::{criterion_group, criterion_main, Criterion};
use nice_bench::{chain_ping_workload, exhaustive, load_balancer_workload};
use nice_mc::{CheckerConfig, Scenario};

const CHAIN_SWITCHES: u32 = 5;
const PINGS: u32 = 2;

fn bench_engines(c: &mut Criterion, group_name: &str, scenario: impl Fn() -> Scenario) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.bench_function("cow_snapshot", |b| {
        b.iter(|| exhaustive(scenario(), CheckerConfig::default()))
    });
    group.bench_function("checkpoint_replay", |b| {
        b.iter(|| {
            exhaustive(
                scenario(),
                CheckerConfig::default().with_checkpoint_interval(8),
            )
        })
    });
    group.bench_function("parallel_4", |b| {
        b.iter(|| exhaustive(scenario(), CheckerConfig::default().with_workers(4)))
    });
    group.finish();
}

fn bench_parallel_exploration(c: &mut Criterion) {
    bench_engines(c, "parallel_exploration/pyswitch_chain", || {
        chain_ping_workload(CHAIN_SWITCHES, PINGS)
    });
    bench_engines(
        c,
        "parallel_exploration/load_balancer",
        load_balancer_workload,
    );
}

criterion_group!(benches, bench_parallel_exploration);
criterion_main!(benches);
