//! Criterion bench for the design-choice ablation: a snapshot per frontier
//! node vs replay from the root, and coarse vs fine packet processing.

use criterion::{criterion_group, criterion_main, Criterion};
use nice_bench::{exhaustive, ping_workload};
use nice_mc::CheckerConfig;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("full_state_storage", |b| {
        b.iter(|| exhaustive(ping_workload(2, true), CheckerConfig::default()))
    });
    group.bench_function("replay_state_storage", |b| {
        b.iter(|| {
            exhaustive(
                ping_workload(2, true),
                CheckerConfig::default().with_checkpoint_interval(usize::MAX),
            )
        })
    });
    group.bench_function("fine_grained_packet_processing", |b| {
        b.iter(|| {
            exhaustive(
                ping_workload(2, true),
                CheckerConfig {
                    coarse_packet_processing: false,
                    ..CheckerConfig::default()
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
