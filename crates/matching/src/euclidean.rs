//! Online greedy matching in the Euclidean plane, as the baseline writes it.
//!
//! The greedy of Tong et al. (PVLDB'16) — Lap-GR's matcher — gives each
//! arriving task the nearest still-available worker by straight-line
//! distance over the (obfuscated) coordinates. Every planar matcher runs it
//! on a [`KdTree`](crate::kdtree::KdTree); this module keeps the `O(n)`
//! per-task scan as the reference the tree must equal.

use crate::Matching;
use pombm_geom::Point;

/// The Euclidean greedy as a linear scan: each task, in arrival order,
/// takes the available worker that minimizes `(distance², index)`.
///
/// [`KdTree::assign_all`](crate::kdtree::KdTree::assign_all) must reproduce this pair for pair; tests and the
/// `matching` bench's scan-vs-index ablation call it.
pub fn greedy_reference(workers: &[Point], tasks: &[Point]) -> Matching {
    let mut available = vec![true; workers.len()];
    let mut matching = Matching::new();
    for (t_idx, t) in tasks.iter().enumerate() {
        let d = |i: usize| workers[i].dist_sq(t);
        // `min_by` keeps the first of equal minima: the lowest index.
        let best = (0..workers.len())
            .filter(|&i| available[i])
            .min_by(|&a, &b| d(a).total_cmp(&d(b)));
        if let Some(i) = best {
            available[i] = false;
            matching.pairs.push((t_idx, i));
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;
    use pombm_geom::seeded_rng;
    use rand::Rng;

    /// Both engines on one input: the scan and the k-d tree.
    fn both(workers: &[Point], tasks: &[Point]) -> [Matching; 2] {
        [
            greedy_reference(workers, tasks),
            KdTree::build(workers.to_vec()).assign_all(tasks),
        ]
    }

    #[test]
    fn assigns_nearest_available() {
        let workers = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        // Worker 1 goes first; next nearest to 4.0 is worker 0; the fourth
        // task finds nobody.
        let tasks = vec![Point::new(4.0, 0.0); 4];
        for m in both(&workers, &tasks) {
            assert_eq!(m.pairs, vec![(0, 1), (1, 0), (2, 2)]);
        }
    }

    #[test]
    fn ties_break_to_lower_index() {
        let workers = vec![Point::new(-1.0, 0.0), Point::new(1.0, 0.0)];
        for m in both(&workers, &[Point::new(0.0, 0.0)]) {
            assert_eq!(m.pairs, vec![(0, 0)]);
        }
    }

    #[test]
    fn kd_tree_matches_linear_scan() {
        let mut rng = seeded_rng(31, 0);
        let mut draw = |n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
                .collect()
        };
        let (workers, tasks) = (draw(300), draw(300));
        let [scan, tree] = both(&workers, &tasks);
        assert_eq!(scan.size(), 300);
        assert_eq!(scan, tree);
    }

    #[test]
    fn far_away_tasks_still_find_the_nearest_worker() {
        let workers = vec![Point::new(1.0, 1.0), Point::new(9.0, 9.0)];
        let tasks = vec![Point::new(-50.0, -50.0), Point::new(100.0, 100.0)];
        for m in both(&workers, &tasks) {
            assert_eq!(m.pairs, vec![(0, 0), (1, 1)]);
        }
    }

    #[test]
    fn exhaustion_returns_none_and_stays_consistent() {
        let mut tree = KdTree::build(vec![Point::new(5.0, 5.0)]);
        assert_eq!(tree.take_nearest(&Point::new(0.0, 0.0)), Some(0));
        assert_eq!(tree.take_nearest(&Point::new(0.0, 0.0)), None);
        assert_eq!(tree.take_nearest(&Point::new(9.0, 9.0)), None);
        let tasks = vec![Point::new(0.0, 0.0), Point::new(9.0, 9.0)];
        for m in both(&[Point::new(5.0, 5.0)], &tasks) {
            assert_eq!(m.pairs, vec![(0, 0)]);
        }
    }
}
