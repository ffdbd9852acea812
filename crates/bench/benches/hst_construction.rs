//! Benchmarks HST construction (Alg. 1), paid once when the server starts:
//! one `O(N²)` pass over squared distances sizes the tree, then each
//! point's owner cursor scans at most its own rank in the permutation
//! (`O(N²)` worst case, `N·(N−1)/2` distance evaluations), plus an
//! `O(N log N)` sort per level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pombm_geom::{seeded_rng, Grid, Rect};
use pombm_hst::Hst;
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("hst_construction");
    group.sample_size(10);
    for side in [8usize, 16, 32] {
        let grid = Grid::square(Rect::square(200.0), side);
        let points = grid.to_point_set();
        group.bench_with_input(BenchmarkId::new("frt", side * side), &side, |b, _| {
            let mut rng = seeded_rng(7, 0);
            b.iter(|| black_box(Hst::build(&points, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("quadtree", side * side), &side, |b, _| {
            b.iter(|| black_box(Hst::from_quadtree(&points)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
