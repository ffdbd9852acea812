//! Benchmarks for the dynamic-fleet pipeline: each registered dynamic
//! matcher on the same shift/task timeline, the clairvoyant oracle pricing
//! that timeline, and the sharded dynamic sweep's scaling from one shard
//! to all cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm::sweep::{
    dynamic_shift_plan, dynamic_task_times, run_sweep, sweep_instance, DynamicSweepConfig,
};
use pombm::{dynamic_offline_optimum_with_threads, registry, run_dynamic_spec, DynamicConfig};
use std::hint::black_box;

/// One dynamic simulation per registered matcher: 256 tasks streaming
/// against 256 workers on short shifts (heavy pool churn).
fn bench_dynamic_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_matcher");
    group.sample_size(10);
    let size = 256;
    let instance = sweep_instance(3, size);
    let times = dynamic_task_times(3, size);
    let plan = dynamic_shift_plan("short", size, 3).expect("named plan");
    let config = DynamicConfig {
        epsilon: 0.6,
        grid_side: 32,
        seed: 3,
    };
    let mechanism = registry().require_mechanism("hst").unwrap();
    for matcher in registry().dynamic_matchers() {
        group.bench_function(BenchmarkId::new("matcher", matcher.name()), |b| {
            b.iter(|| {
                black_box(
                    run_dynamic_spec(
                        &instance,
                        &times,
                        &plan,
                        &config,
                        mechanism.as_ref(),
                        matcher.as_ref(),
                    )
                    .expect("measurable pairing"),
                )
            })
        });
    }
    group.finish();
}

/// The clairvoyant oracle (`dynamic-opt`) pricing the same churning
/// timelines the matcher bench replays: the padded Hungarian solve at one
/// thread and at auto thread count. Pairs are bit-identical across thread
/// counts (pinned by tests); only wall-clock differs.
fn bench_clairvoyant_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("clairvoyant_oracle");
    group.sample_size(10);
    for size in [128usize, 256] {
        let instance = sweep_instance(3, size);
        let times = dynamic_task_times(3, size);
        let plan = dynamic_shift_plan("short", size, 3).expect("named plan");
        for threads in [1usize, 0] {
            let label = if threads == 1 {
                "threads_1"
            } else {
                "threads_auto"
            };
            group.bench_with_input(BenchmarkId::new(label, size), &instance, |b, inst| {
                b.iter(|| {
                    black_box(
                        dynamic_offline_optimum_with_threads(inst, &times, &plan, threads)
                            .expect("feasible timeline"),
                    )
                })
            });
        }
    }
    group.finish();
}

/// Whole dynamic-sweep scaling: one shard versus all available cores on
/// the same job list (output is bit-identical; only wall-clock changes).
fn bench_dynamic_sweep_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_sweep_sharding");
    group.sample_size(10);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let config = |shards: usize| DynamicSweepConfig {
        mechanisms: vec!["identity".into(), "hst".into()],
        matchers: vec!["hst-greedy".into(), "kd-rebuild".into()],
        scenarios: Vec::new(),
        shift_plans: vec!["short".into(), "long".into()],
        sizes: vec![96],
        epsilons: vec![0.6],
        shards,
        timings: false,
        ratio: false,
        grid_side: 16,
        seed: 0,
    };
    for shards in [1, cores] {
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            b.iter(|| black_box(run_sweep(&config(shards)).expect("valid config")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dynamic_matchers,
    bench_clairvoyant_oracle,
    bench_dynamic_sweep_sharding
);
criterion_main!(benches);
