//! Benchmarks for the competitive-ratio sweep engine: the Hungarian
//! offline-opt matcher as an `AssignStrategy`, and the sharded sweep
//! runner's scaling from one shard to all cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm::sweep::{run_sweep, sweep_instance, SweepConfig};
use pombm::{empirical_competitive_ratio, registry, PipelineConfig};
use std::hint::black_box;

fn base_config(shards: usize) -> SweepConfig {
    SweepConfig {
        mechanisms: vec!["identity".into(), "laplace".into()],
        matchers: vec!["greedy".into(), "offline-opt".into()],
        scenarios: Vec::new(),
        sizes: vec![64],
        epsilons: vec![0.4, 0.8],
        repetitions: 2,
        shards,
        timings: false,
        base: PipelineConfig {
            grid_side: 16,
            ..PipelineConfig::default()
        },
    }
}

/// One sweep cell (the unit the shards execute): ratio measurement of one
/// pairing on one instance.
fn bench_ratio_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("ratio_cell");
    group.sample_size(10);
    let instance = sweep_instance(11, 128);
    let config = PipelineConfig {
        grid_side: 16,
        ..PipelineConfig::default()
    };
    for name in ["opt", "tbf", "lap-gr"] {
        let spec = &registry().require_spec(name).unwrap();
        group.bench_function(BenchmarkId::new("pairing", name), |b| {
            b.iter(|| {
                black_box(
                    empirical_competitive_ratio(spec, &instance, &config, 2).expect("measurable"),
                )
            })
        });
    }
    group.finish();
}

/// Whole-sweep scaling: one shard versus all available cores on the same
/// job list (output is bit-identical; only wall-clock changes).
fn bench_sweep_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_sharding");
    group.sample_size(10);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    for shards in [1, cores] {
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            b.iter(|| black_box(run_sweep(&base_config(shards)).expect("valid config")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ratio_cell, bench_sweep_sharding);
criterion_main!(benches);
