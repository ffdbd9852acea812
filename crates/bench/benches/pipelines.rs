//! End-to-end pipeline benchmarks: one full run (obfuscate + assign) per
//! registered algorithm spec at a fixed synthetic size, covering every
//! registry entry (including pairings the legacy enum could not express).
//! Related to the running-time comparison of Figs. 6e–h, but not
//! comparable point-for-point: the generic driver times worker
//! registration (matcher construction) inside the assignment stage,
//! which the paper's metric excluded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm::{registry, run_spec_with_server, PipelineConfig, Server};
use pombm_geom::seeded_rng;
use pombm_workload::{synthetic, SyntheticParams};
use std::hint::black_box;

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_full_run");
    group.sample_size(10);
    let params = SyntheticParams {
        num_tasks: 1000,
        num_workers: 2000,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(23, 0));
    let config = PipelineConfig::default();
    let server = Server::new(instance.region, config.grid_side, 23);

    for spec in registry().specs() {
        group.bench_with_input(BenchmarkId::new("spec", spec.name()), spec, |b, s| {
            b.iter(|| {
                black_box(
                    run_spec_with_server(s, &instance, &config, Some(&server), 0)
                        .expect("registered specs run"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
