//! HST-greedy online matching (Alg. 4 of the paper), as the paper writes it.
//!
//! Every tree matcher runs Alg. 4 on [`crate::HstGreedyPool`]'s
//! subtree-count index (a static fleet fills it before the first task).
//! This module keeps the paper's `O(n·D)`-per-task scan as the reference
//! that index must equal.

use crate::Matching;
use pombm_hst::{CodeContext, LeafCode};

/// Alg. 4 as a linear scan: each task, in arrival order, takes the worker
/// with residual capacity that minimizes `(tree distance, leaf code,
/// index)`; worker `i` serves up to `capacity[i]` tasks. Obfuscated leaves
/// may be *fake* leaves — the tree metric is defined on every code.
///
/// [`crate::HstGreedyPool`], filled with the whole fleet first and given
/// back a worker while it has capacity left, must reproduce this pair for
/// pair; the tests call it.
///
/// # Panics
///
/// Panics if `workers` and `capacity` differ in length.
pub fn greedy_reference(
    ctx: CodeContext,
    workers: &[LeafCode],
    capacity: &[u32],
    tasks: &[LeafCode],
) -> Matching {
    assert_eq!(workers.len(), capacity.len(), "one capacity per worker");
    let mut residual = capacity.to_vec();
    let mut matching = Matching::new();
    for (t_idx, &t) in tasks.iter().enumerate() {
        let best = (0..workers.len())
            .filter(|&i| residual[i] > 0)
            .min_by_key(|&i| (ctx.tree_dist_units(t, workers[i]), workers[i].0, i));
        if let Some(i) = best {
            residual[i] -= 1;
            matching.pairs.push((t_idx, i));
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HstGreedyPool;
    use pombm_geom::seeded_rng;
    use rand::Rng;

    fn ctx() -> CodeContext {
        CodeContext::new(2, 4)
    }

    fn leaves(codes: &[u64]) -> Vec<LeafCode> {
        codes.iter().map(|&c| LeafCode(c)).collect()
    }

    /// The pool filled with the whole fleet, at unit capacity.
    fn filled(ctx: CodeContext, workers: &[LeafCode]) -> HstGreedyPool {
        let mut pool = HstGreedyPool::new(ctx);
        pool.add_batch((0..).zip(workers.iter().copied()));
        pool
    }

    fn indexed(ctx: CodeContext, workers: &[LeafCode], tasks: &[LeafCode]) -> Matching {
        let mut pool = filled(ctx, workers);
        let take = |(t, &leaf)| Some((t, pool.assign(leaf)? as usize));
        Matching {
            pairs: tasks.iter().enumerate().filter_map(take).collect(),
        }
    }

    fn scan(ctx: CodeContext, workers: &[LeafCode], tasks: &[LeafCode]) -> Matching {
        greedy_reference(ctx, workers, &vec![1; workers.len()], tasks)
    }

    #[test]
    fn assigns_nearest_on_tree() {
        // Workers at leaves 0, 2, 8 of a depth-4 binary tree. A task at
        // leaf 1 is closest to worker at 0 (LCA level 1); the next one to
        // leaf 2 (LCA level 2 = 12 units) rather than leaf 8 (level 4 = 60
        // units); the fourth finds nobody.
        let (workers, tasks) = (leaves(&[0, 2, 8]), leaves(&[1, 1, 1, 1]));
        let want = vec![(0, 0), (1, 1), (2, 2)];
        assert_eq!(scan(ctx(), &workers, &tasks).pairs, want);
        assert_eq!(indexed(ctx(), &workers, &tasks).pairs, want);
    }

    #[test]
    fn scan_ties_break_to_lower_leaf_code() {
        // Workers at leaves 2 and 3 are equidistant from a task at leaf 0
        // (both LCA level 2); the canonical tie-break picks the lower code.
        let workers = leaves(&[3, 2]);
        assert_eq!(scan(ctx(), &workers, &leaves(&[0])).pairs, vec![(0, 1)]);
    }

    #[test]
    fn scan_equal_codes_break_to_lower_index() {
        let workers = leaves(&[2, 2]);
        assert_eq!(scan(ctx(), &workers, &leaves(&[0])).pairs, vec![(0, 0)]);
    }

    #[test]
    fn engines_produce_identical_matchings() {
        // With the canonical (distance, leaf code, worker index) tie-break,
        // the scan and the pool's index agree worker-for-worker on any
        // arrival sequence.
        let c = CodeContext::new(3, 5);
        let mut rng = seeded_rng(17, 0);
        let mut draw = |n: usize| -> Vec<LeafCode> {
            (0..n)
                .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
                .collect()
        };
        let (workers, tasks) = (draw(120), draw(120));
        let a = scan(c, &workers, &tasks);
        assert_eq!(a.size(), 120);
        assert_eq!(a, indexed(c, &workers, &tasks));
    }

    #[test]
    fn indexed_engine_handles_duplicate_leaves() {
        let mut g = filled(ctx(), &leaves(&[5, 5, 5]));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let w = g.assign(LeafCode(5)).unwrap();
            assert!(seen.insert(w), "worker {w} assigned twice");
        }
        assert_eq!(g.assign(LeafCode(5)), None);
    }

    #[test]
    fn fake_leaf_tasks_and_workers_are_fine() {
        // Codes needn't correspond to real predefined points; any code in
        // the complete tree works.
        let (workers, tasks) = (leaves(&[15]), leaves(&[14]));
        assert_eq!(scan(ctx(), &workers, &tasks).pairs, vec![(0, 0)]);
        assert_eq!(indexed(ctx(), &workers, &tasks).pairs, vec![(0, 0)]);
    }

    #[test]
    fn empty_worker_pool() {
        let tasks = leaves(&[0]);
        assert_eq!(scan(ctx(), &[], &tasks).size(), 0);
        let mut g = filled(ctx(), &[]);
        assert_eq!(g.assign(LeafCode(0)), None);
        assert_eq!(g.available(), 0);
    }
}
