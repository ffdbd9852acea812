//! Integration tests of the matching layer over real HSTs (not just raw
//! code contexts): HST-greedy vs the offline optimum, engine equivalence at
//! scale, and the greedy's competitive behaviour on the tree metric.

use pombm_geom::{seeded_rng, Grid, Point, Rect};
use pombm_hst::{Hst, LeafCode};
use pombm_matching::offline::OfflineOptimal;
use pombm_matching::{euclidean, hst_greedy, CapacitatedGreedy, Matching};
use rand::Rng;

fn grid_hst(side: usize, seed: u64) -> Hst {
    let grid = Grid::square(Rect::square(200.0), side);
    let mut rng = seeded_rng(seed, 0);
    Hst::build(&grid.to_point_set(), &mut rng)
}

/// HST-greedy on exact (unobfuscated) leaves never does better than the
/// offline optimum measured in tree distance, and stays within the
/// O(log N log² k) ballpark on random instances.
#[test]
fn hst_greedy_vs_offline_optimum_in_tree_metric() {
    let hst = grid_hst(8, 1);
    let mut rng = seeded_rng(2, 1);
    let n = 60;
    let workers: Vec<LeafCode> = (0..n)
        .map(|_| hst.leaf_of(rng.gen_range(0..hst.num_points())))
        .collect();
    let tasks: Vec<LeafCode> = (0..n)
        .map(|_| hst.leaf_of(rng.gen_range(0..hst.num_points())))
        .collect();

    let greedy = hst_greedy::greedy_reference(hst.ctx(), &workers, &vec![1; n], &tasks);
    assert_eq!(greedy.size(), n);
    let greedy_total: f64 = greedy
        .pairs
        .iter()
        .map(|&(t, w)| hst.tree_dist(tasks[t], workers[w]))
        .sum();

    let opt = OfflineOptimal::solve(tasks.len(), workers.len(), |t, w| {
        hst.tree_dist(tasks[t], workers[w])
    });
    let opt_total: f64 = opt
        .pairs
        .iter()
        .map(|&(t, w)| hst.tree_dist(tasks[t], workers[w]))
        .sum();

    assert!(greedy_total >= opt_total - 1e-9, "greedy beats OPT?");
    // Meyerson et al. give O(log³ k) in expectation for HST greedy; a fixed
    // instance can deviate, so use a loose sanity multiple.
    assert!(
        greedy_total <= opt_total.max(1.0) * 50.0,
        "greedy {greedy_total} vs opt {opt_total}: unreasonable gap"
    );
}

/// Engine equivalence on a real tree at moderate scale: the pool's index
/// (through the static matcher) reproduces the paper's scan.
#[test]
fn engines_agree_on_real_tree() {
    let hst = grid_hst(16, 3);
    let mut rng = seeded_rng(4, 2);
    let workers: Vec<LeafCode> = (0..800)
        .map(|_| LeafCode(rng.gen_range(0..hst.num_leaves())))
        .collect();
    let tasks: Vec<LeafCode> = (0..800)
        .map(|_| LeafCode(rng.gen_range(0..hst.num_leaves())))
        .collect();
    let scan = hst_greedy::greedy_reference(hst.ctx(), &workers, &[1; 800], &tasks);
    let indexed = CapacitatedGreedy::uniform(hst.ctx(), workers, 1).assign_all(&tasks);
    assert_eq!(scan.size(), 800);
    assert_eq!(scan, indexed);
}

/// Tree distances dominate Euclidean distances (the HST embedding property),
/// so a matching's tree cost upper-bounds its Euclidean cost on the
/// predefined points.
#[test]
fn tree_cost_dominates_euclidean_cost() {
    let hst = grid_hst(8, 5);
    let points = hst.points().clone();
    let mut rng = seeded_rng(6, 3);
    let task_ids: Vec<usize> = (0..40).map(|_| rng.gen_range(0..points.len())).collect();
    let worker_ids: Vec<usize> = (0..40).map(|_| rng.gen_range(0..points.len())).collect();

    let leaves = |ids: &[usize]| -> Vec<LeafCode> { ids.iter().map(|&p| hst.leaf_of(p)).collect() };
    let matching: Matching = hst_greedy::greedy_reference(
        hst.ctx(),
        &leaves(&worker_ids),
        &[1; 40],
        &leaves(&task_ids),
    );
    assert_eq!(matching.size(), 40);
    for &(t, w) in &matching.pairs {
        let de = points.point(task_ids[t]).dist(&points.point(worker_ids[w]));
        let dt = hst.tree_dist(hst.leaf_of(task_ids[t]), hst.leaf_of(worker_ids[w]));
        assert!(dt + 1e-9 >= de, "tree {dt} < euclid {de}");
    }
}

/// Greedy in the Euclidean plane vs greedy on the tree built over the same
/// points: both produce perfect matchings of the same size, and on exact
/// data their total distances are within a log-factor of each other.
#[test]
fn euclid_and_tree_greedy_are_comparable_on_exact_data() {
    let hst = grid_hst(8, 7);
    let points = hst.points().clone();
    let mut rng = seeded_rng(8, 4);
    let tasks: Vec<Point> = (0..50)
        .map(|_| points.point(rng.gen_range(0..points.len())))
        .collect();
    let workers: Vec<Point> = (0..80)
        .map(|_| points.point(rng.gen_range(0..points.len())))
        .collect();

    let euclid = euclidean::greedy_reference(&workers, &tasks);
    let euclid_total = euclid.total_distance(&tasks, &workers);

    let snap = |ps: &[Point]| -> Vec<LeafCode> { ps.iter().map(|p| hst.snap(p)).collect() };
    let tree = hst_greedy::greedy_reference(hst.ctx(), &snap(&workers), &[1; 80], &snap(&tasks));
    let tree_total = tree.total_distance(&tasks, &workers);
    assert_eq!((euclid.size(), tree.size()), (50, 50));

    assert!(euclid_total > 0.0 || tree_total >= 0.0);
    // The tree embedding distorts by O(log N); allow a wide but finite band.
    assert!(
        tree_total <= euclid_total.max(1.0) * 30.0,
        "tree-greedy total {tree_total} vs euclid {euclid_total}"
    );
}

/// Hungarian correctness on the tree metric: never worse than any greedy,
/// for several arrival orders.
#[test]
fn offline_optimum_lower_bounds_greedy_over_orders() {
    let hst = grid_hst(6, 9);
    let mut rng = seeded_rng(10, 5);
    let workers: Vec<LeafCode> = (0..30)
        .map(|_| LeafCode(rng.gen_range(0..hst.num_leaves())))
        .collect();
    let mut tasks: Vec<LeafCode> = (0..30)
        .map(|_| LeafCode(rng.gen_range(0..hst.num_leaves())))
        .collect();

    let opt = OfflineOptimal::solve(tasks.len(), workers.len(), |t, w| {
        hst.tree_dist(tasks[t], workers[w])
    });
    let opt_total: f64 = opt
        .pairs
        .iter()
        .map(|&(t, w)| hst.tree_dist(tasks[t], workers[w]))
        .sum();

    for _ in 0..5 {
        use rand::seq::SliceRandom;
        tasks.shuffle(&mut rng);
        let greedy = CapacitatedGreedy::uniform(hst.ctx(), workers.clone(), 1).assign_all(&tasks);
        assert_eq!(greedy.size(), 30);
        let total: f64 = greedy
            .pairs
            .iter()
            .map(|&(t, w)| hst.tree_dist(tasks[t], workers[w]))
            .sum();
        assert!(total >= opt_total - 1e-9);
    }
}
