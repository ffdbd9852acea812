//! A static k-d tree with deletions: the plane's one nearest-free-worker
//! index, which [`crate::DynamicKdRebuild`] builds over its pool and
//! rebuilds after shift churn.
//!
//! A k-d tree adapts to the data distribution, so hotspot workloads stay
//! cheap. Built once over the reported worker locations (`O(n log n)`), it
//! supports nearest-available queries with branch-and-bound pruning and
//! *logical* deletion (subtree live-counters), so a full greedy run is
//! `O(n log n)` amortized in benign cases. Ties break by (distance, worker
//! index), so it reproduces [`crate::euclidean::greedy_reference`].

use pombm_geom::Point;

/// Node of the k-d tree, region-splitting on the median by alternating axis.
#[derive(Debug, Clone)]
struct Node {
    /// Worker id stored at this node (the median of its range).
    worker: usize,
    /// Split axis: 0 = x, 1 = y.
    axis: u8,
    /// Whether this node's own worker is still available.
    alive: bool,
    /// Number of available workers in this subtree (including self).
    live: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// K-d tree over worker locations with logical deletion.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    points: Vec<Point>,
    root: Option<usize>,
    /// Node index holding each worker, for O(depth) deletion.
    node_of_worker: Vec<usize>,
}

impl KdTree {
    /// Builds the tree over worker locations. `O(n log n)` expected (median
    /// by sorting each range once per level).
    pub fn build(points: Vec<Point>) -> Self {
        let n = points.len();
        let mut tree = KdTree {
            nodes: Vec::with_capacity(n),
            node_of_worker: vec![usize::MAX; n],
            points,
            root: None,
        };
        let mut ids: Vec<usize> = (0..n).collect();
        tree.root = tree.build_range(&mut ids, 0);
        tree
    }

    fn build_range(&mut self, ids: &mut [usize], depth: u32) -> Option<usize> {
        if ids.is_empty() {
            return None;
        }
        let axis = (depth % 2) as u8;
        ids.sort_unstable_by(|&a, &b| {
            let (pa, pb) = (self.points[a], self.points[b]);
            let (ka, kb) = if axis == 0 {
                (pa.x, pb.x)
            } else {
                (pa.y, pb.y)
            };
            ka.partial_cmp(&kb)
                .expect("finite coordinates")
                .then(a.cmp(&b))
        });
        let mid = ids.len() / 2;
        let worker = ids[mid];
        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            worker,
            axis,
            alive: true,
            live: ids.len(),
            left: None,
            right: None,
        });
        self.node_of_worker[worker] = node_idx;
        // Split around the median; recurse on copies of the halves.
        let (mut left_ids, mut right_ids) = {
            let (l, r) = ids.split_at_mut(mid);
            (l.to_vec(), r[1..].to_vec())
        };
        let left = self.build_range(&mut left_ids, depth + 1);
        let right = self.build_range(&mut right_ids, depth + 1);
        self.nodes[node_idx].left = left;
        self.nodes[node_idx].right = right;
        Some(node_idx)
    }

    /// Number of available workers.
    pub fn live(&self) -> usize {
        self.root.map_or(0, |r| self.nodes[r].live)
    }

    /// True iff worker `worker` is known and still available.
    pub fn is_live(&self, worker: usize) -> bool {
        self.node_of_worker
            .get(worker)
            .is_some_and(|&node| self.nodes[node].alive)
    }

    /// Marks a worker unavailable. Returns `false` if already removed or
    /// unknown.
    pub fn remove(&mut self, worker: usize) -> bool {
        if worker >= self.node_of_worker.len() {
            return false;
        }
        let node_idx = self.node_of_worker[worker];
        if node_idx == usize::MAX || !self.nodes[node_idx].alive {
            return false;
        }
        self.nodes[node_idx].alive = false;
        // Decrement live counters on the root path. Walk down from the root
        // following the key, which is cheaper than storing parent pointers.
        let target = self.points[worker];
        let mut cur = self.root.expect("non-empty tree");
        loop {
            self.nodes[cur].live -= 1;
            if cur == node_idx {
                break;
            }
            let node = &self.nodes[cur];
            let (key_t, key_n) = if node.axis == 0 {
                (target.x, self.points[node.worker].x)
            } else {
                (target.y, self.points[node.worker].y)
            };
            // Equal keys were ordered by worker id at build time.
            let go_left = (key_t, worker) < (key_n, node.worker);
            cur = if go_left {
                node.left.expect("target below this node")
            } else {
                node.right.expect("target below this node")
            };
        }
        true
    }

    /// Nearest available worker to `t` by (distance, worker index).
    pub fn nearest(&self, t: &Point) -> Option<usize> {
        let root = self.root?;
        if self.nodes[root].live == 0 {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        self.search(root, t, &mut best);
        best.map(|(_, w)| w)
    }

    fn search(&self, idx: usize, t: &Point, best: &mut Option<(f64, usize)>) {
        let node = &self.nodes[idx];
        if node.live == 0 {
            return;
        }
        if node.alive {
            let d = self.points[node.worker].dist_sq(t);
            if best.is_none_or(|(bd, bw)| (d, node.worker) < (bd, bw)) {
                *best = Some((d, node.worker));
            }
        }
        let split = if node.axis == 0 {
            self.points[node.worker].x
        } else {
            self.points[node.worker].y
        };
        let key = if node.axis == 0 { t.x } else { t.y };
        let (near, far) = if key < split {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if let Some(n) = near {
            self.search(n, t, best);
        }
        // Prune the far side unless the splitting plane is closer than the
        // incumbent.
        let plane = key - split;
        if let Some(f) = far {
            if best.is_none_or(|(bd, _)| plane * plane <= bd) {
                self.search(f, t, best);
            }
        }
    }

    /// Convenience: find, remove and return the nearest available worker.
    pub fn take_nearest(&mut self, t: &Point) -> Option<usize> {
        let w = self.nearest(t)?;
        let removed = self.remove(w);
        debug_assert!(removed);
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matching;
    use pombm_geom::seeded_rng;
    use rand::Rng;

    /// The Euclidean greedy on the tree: every task in arrival order takes
    /// its nearest available worker.
    fn greedy(tree: &mut KdTree, tasks: &[Point]) -> Matching {
        let take = |(t, p)| Some((t, tree.take_nearest(p)?));
        Matching {
            pairs: tasks.iter().enumerate().filter_map(take).collect(),
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = seeded_rng(seed, 0);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let mut t = KdTree::build(vec![]);
        assert_eq!(t.live(), 0);
        assert_eq!(t.nearest(&Point::new(0.0, 0.0)), None);
        assert_eq!(t.take_nearest(&Point::new(0.0, 0.0)), None);
        assert!(!t.remove(0), "no worker 0 exists to remove");
    }

    #[test]
    fn single_point() {
        let mut t = KdTree::build(vec![Point::new(3.0, 4.0)]);
        assert_eq!(t.live(), 1);
        assert_eq!(t.take_nearest(&Point::new(0.0, 0.0)), Some(0));
        assert_eq!(t.live(), 0);
        assert_eq!(t.nearest(&Point::new(0.0, 0.0)), None);
        assert!(!t.remove(0), "double removal fails");
    }

    #[test]
    fn nearest_matches_scan_static() {
        let pts = random_points(200, 1);
        let tree = KdTree::build(pts.clone());
        let queries = random_points(100, 2);
        for q in &queries {
            let want = pts
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| {
                    (a.dist_sq(q), *i).partial_cmp(&(b.dist_sq(q), *j)).unwrap()
                })
                .map(|(i, _)| i);
            assert_eq!(tree.nearest(q), want);
        }
    }

    #[test]
    fn greedy_run_matches_linear_scan_engine() {
        let workers = random_points(300, 3);
        let tasks = random_points(300, 4);
        let mut tree = KdTree::build(workers.clone());
        let scan = crate::euclidean::greedy_reference(&workers, &tasks);
        assert_eq!(greedy(&mut tree, &tasks), scan);
        assert_eq!(scan.size(), 300);
        assert_eq!(tree.live(), 0);
    }

    #[test]
    fn duplicate_coordinates_resolve_by_index() {
        let p = Point::new(5.0, 5.0);
        let mut tree = KdTree::build(vec![p, p, p]);
        assert_eq!(tree.take_nearest(&p), Some(0));
        assert_eq!(tree.take_nearest(&p), Some(1));
        assert_eq!(tree.take_nearest(&p), Some(2));
        assert_eq!(tree.take_nearest(&p), None);
    }

    #[test]
    fn removal_updates_live_counters() {
        let pts = random_points(50, 5);
        let mut tree = KdTree::build(pts);
        for expected_live in (0..50).rev() {
            assert!(tree.remove(expected_live));
            assert_eq!(tree.live(), expected_live);
        }
    }

    #[test]
    fn clustered_points_still_correct() {
        // Hotspot-style distribution: 90% of points in a tiny cluster.
        let mut rng = seeded_rng(6, 0);
        let mut pts: Vec<Point> = (0..270)
            .map(|_| Point::new(50.0 + rng.gen::<f64>(), 50.0 + rng.gen::<f64>()))
            .collect();
        pts.extend((0..30).map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0)));
        let tasks = random_points(300, 7);
        let mut tree = KdTree::build(pts.clone());
        let scan = crate::euclidean::greedy_reference(&pts, &tasks);
        assert_eq!(greedy(&mut tree, &tasks), scan);
    }
}
