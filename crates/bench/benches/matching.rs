//! Benchmarks the nearest-free-worker indexes against the paper's scans
//! (ablation `ablate-nn`): each metric's one production index — the HST
//! pool's subtree-count walk, the k-d tree — vs the reference scan it
//! reproduces pair for pair (`hst_greedy::greedy_reference`,
//! `euclidean::greedy_reference`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm_geom::{seeded_rng, Point};
use pombm_hst::{CodeContext, LeafCode};
use pombm_matching::kdtree::KdTree;
use pombm_matching::{euclidean, hst_greedy, CapacitatedGreedy};
use rand::Rng;
use std::hint::black_box;

fn random_leaves(ctx: CodeContext, n: usize, seed: u64) -> Vec<LeafCode> {
    let mut rng = seeded_rng(seed, 0);
    (0..n)
        .map(|_| LeafCode(rng.gen_range(0..ctx.num_leaves())))
        .collect()
}

fn random_points(n: usize, side: f64, seed: u64) -> Vec<Point> {
    let mut rng = seeded_rng(seed, 1);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
        .collect()
}

fn bench_hst_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("hst_greedy_full_run");
    group.sample_size(10);
    let ctx = CodeContext::new(2, 12);
    for n in [1000usize, 5000] {
        let workers = random_leaves(ctx, n, 11);
        let tasks = random_leaves(ctx, n, 13);
        let capacity = vec![1; n];
        group.bench_with_input(BenchmarkId::new("Scan", n), &n, |b, _| {
            b.iter(|| {
                black_box(hst_greedy::greedy_reference(
                    ctx, &workers, &capacity, &tasks,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("Indexed", n), &n, |b, _| {
            b.iter(|| {
                black_box(CapacitatedGreedy::uniform(ctx, workers.clone(), 1).assign_all(&tasks))
            })
        });
    }
    group.finish();
}

fn bench_euclid_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("euclid_greedy_full_run");
    group.sample_size(10);
    for n in [1000usize, 5000] {
        let workers = random_points(n, 200.0, 17);
        let tasks = random_points(n, 200.0, 19);
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| black_box(euclidean::greedy_reference(&workers, &tasks)))
        });
        group.bench_with_input(BenchmarkId::new("kd_tree", n), &n, |b, _| {
            b.iter(|| black_box(KdTree::build(workers.clone()).assign_all(&tasks)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hst_engines, bench_euclid_engines);
criterion_main!(benches);
