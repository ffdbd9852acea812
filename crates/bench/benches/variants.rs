//! Benchmarks for the extension modules: alternative online matchers
//! (randomized greedy, chain reassignment, capacitated greedy), the
//! exponential mechanism, and alias-table sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm_geom::{seeded_rng, Grid, Rect};
use pombm_hst::{CodeContext, LeafCode};
use pombm_matching::{CapacitatedGreedy, ChainMatcher, RandomizedGreedy};
use pombm_privacy::{AliasTable, Epsilon, ExponentialMechanism};
use rand::Rng;
use std::hint::black_box;

fn random_leaves(ctx: CodeContext, n: usize, seed: u64) -> Vec<LeafCode> {
    let mut rng = seeded_rng(seed, 0);
    (0..n)
        .map(|_| LeafCode(rng.gen_range(0..ctx.num_leaves())))
        .collect()
}

/// Full-run comparison of the online assignment rules on identical inputs.
fn bench_matcher_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher_variants_full_run");
    group.sample_size(10);
    let ctx = CodeContext::new(2, 12);
    let n = 2000usize;
    let workers = random_leaves(ctx, n, 21);
    let tasks = random_leaves(ctx, n, 23);

    group.bench_function(BenchmarkId::new("greedy_indexed", n), |b| {
        b.iter(|| {
            let mut g = CapacitatedGreedy::uniform(ctx, workers.clone(), 1);
            for &t in &tasks {
                black_box(g.assign(t));
            }
        })
    });
    group.bench_function(BenchmarkId::new("randomized_greedy", n), |b| {
        b.iter(|| {
            let mut g = RandomizedGreedy::new(ctx, workers.clone());
            let mut rng = seeded_rng(29, 0);
            for &t in &tasks {
                black_box(g.assign(t, &mut rng));
            }
        })
    });
    group.bench_function(BenchmarkId::new("chain_matcher", n), |b| {
        b.iter(|| {
            let mut g = ChainMatcher::new(ctx, workers.clone());
            for &t in &tasks {
                black_box(g.assign(t));
            }
        })
    });
    group.bench_function(BenchmarkId::new("capacitated_q4", n), |b| {
        b.iter(|| {
            // Quarter the workers, capacity 4 each: same total slots.
            let quarter: Vec<LeafCode> = workers.iter().step_by(4).copied().collect();
            let mut g = CapacitatedGreedy::uniform(ctx, quarter, 4);
            for &t in &tasks {
                black_box(g.assign(t));
            }
        })
    });
    group.finish();
}

/// Exponential-mechanism sampling: cold (build the table) vs warm (cached).
fn bench_exponential(c: &mut Criterion) {
    let mut group = c.benchmark_group("exponential_mechanism");
    for side in [16usize, 32, 64] {
        let points = Grid::square(Rect::square(200.0), side).to_point_set();
        let n = points.len();
        group.bench_with_input(BenchmarkId::new("warm_cached", n), &n, |b, _| {
            let mut mech = ExponentialMechanism::new(points.clone(), Epsilon::new(0.6));
            let mut rng = seeded_rng(31, 0);
            // Prime the cache.
            let _ = mech.obfuscate(n / 2, &mut rng);
            b.iter(|| black_box(mech.obfuscate(n / 2, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("uncached_cdf_walk", n), &n, |b, _| {
            let mech = ExponentialMechanism::new(points.clone(), Epsilon::new(0.6));
            let mut rng = seeded_rng(31, 1);
            b.iter(|| black_box(mech.obfuscate_uncached(n / 2, &mut rng)))
        });
    }
    group.finish();
}

/// Alias-table construction and sampling vs support size.
fn bench_alias(c: &mut Criterion) {
    let mut group = c.benchmark_group("alias_table");
    for n in [256usize, 4096, 65536] {
        let mut rng = seeded_rng(37, n as u64);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-6).collect();
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| black_box(AliasTable::new(&weights)))
        });
        let table = AliasTable::new(&weights);
        group.bench_with_input(BenchmarkId::new("sample", n), &n, |b, _| {
            let mut rng = seeded_rng(41, 0);
            b.iter(|| black_box(table.sample(&mut rng)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matcher_variants,
    bench_exponential,
    bench_alias
);
criterion_main!(benches);
