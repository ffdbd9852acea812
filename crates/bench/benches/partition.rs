//! Benchmarks for partitioned sweep execution: the cost of computing one
//! `i/N` slice versus the whole space, the byte-exact merge itself (pure
//! reassembly — it must stay negligible next to cell computation), and
//! the checkpoint log's append/resume overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm::merge::merge;
use pombm::sweep::{
    run_sweep, run_sweep_partition, sweep_job_count, PartitionPlan, PartitionRun, SweepConfig,
};
use pombm::PipelineConfig;
use std::hint::black_box;

fn bench_config() -> SweepConfig {
    SweepConfig {
        mechanisms: vec!["identity".into(), "laplace".into()],
        matchers: vec!["greedy".into(), "offline-opt".into()],
        scenarios: Vec::new(),
        sizes: vec![48],
        epsilons: vec![0.4, 0.8],
        repetitions: 2,
        shards: 1,
        timings: false,
        base: PipelineConfig {
            grid_side: 16,
            ..PipelineConfig::default()
        },
    }
}

/// One partition slice versus the full job space: the wall-clock a fleet
/// scheduler buys per machine.
fn bench_partition_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_slice");
    group.sample_size(10);
    let config = bench_config();
    group.bench_function(BenchmarkId::new("jobs", "full"), |b| {
        b.iter(|| black_box(run_sweep(&config).expect("valid config")))
    });
    for n in [2usize, 4] {
        let run = PartitionRun {
            plan: PartitionPlan::new(1, n).expect("valid plan"),
            ..PartitionRun::default()
        };
        group.bench_function(BenchmarkId::new("jobs", format!("slice-1-of-{n}")), |b| {
            b.iter(|| black_box(run_sweep_partition(&config, &run).expect("valid slice")))
        });
    }
    group.finish();
}

/// The merge is pure validation + reassembly; it must stay microseconds
/// even for many partials so it never bottlenecks a fleet reconciliation.
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    let config = bench_config();
    let total = sweep_job_count(&config).expect("valid config");
    for n in [2usize, 8] {
        let n = n.min(total);
        let partials: Vec<_> = (1..=n)
            .map(|i| {
                let run = PartitionRun {
                    plan: PartitionPlan::new(i, n).expect("valid plan"),
                    ..PartitionRun::default()
                };
                run_sweep_partition(&config, &run).expect("valid slice").0
            })
            .collect();
        group.bench_function(BenchmarkId::new("partials", n), |b| {
            b.iter(|| black_box(merge(&partials).expect("full coverage")))
        });
    }
    group.finish();
}

/// Checkpointed versus plain execution of the same slice: the append
/// (serialize + write + flush per cell) and resume (parse log) overhead.
fn bench_checkpoint_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(10);
    let config = bench_config();
    let plain = PartitionRun::default();
    group.bench_function(BenchmarkId::new("run", "plain"), |b| {
        b.iter(|| black_box(run_sweep_partition(&config, &plain).expect("valid run")))
    });
    let dir = std::env::temp_dir().join("pombm-bench-checkpoint");
    group.bench_function(BenchmarkId::new("run", "checkpointed-cold"), |b| {
        b.iter(|| {
            // Cold every iteration: measure the append path, not resume.
            let _ = std::fs::remove_dir_all(&dir);
            let run = PartitionRun {
                checkpoint: Some(dir.clone()),
                ..PartitionRun::default()
            };
            black_box(run_sweep_partition(&config, &run).expect("valid run"))
        })
    });
    let warm = PartitionRun {
        checkpoint: Some(dir.clone()),
        ..PartitionRun::default()
    };
    run_sweep_partition(&config, &warm).expect("populate the log");
    group.bench_function(BenchmarkId::new("run", "resume-warm"), |b| {
        b.iter(|| black_box(run_sweep_partition(&config, &warm).expect("valid run")))
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_slice,
    bench_merge,
    bench_checkpoint_overhead
);
criterion_main!(benches);
