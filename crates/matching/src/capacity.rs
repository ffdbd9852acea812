//! Capacitated HST-greedy: the static tree matcher.
//!
//! The paper matches each worker at most once (OMBM is a bipartite
//! *matching*); real platforms let a driver take several orders per shift.
//! A worker with capacity `q` behaves exactly like `q` co-located unit
//! workers, so Alg. 4's nearest-free walk and its guarantees carry over:
//! the matcher keeps a worker in the pool until its residual capacity
//! reaches zero. At unit capacity this is Alg. 4 itself, which is how the
//! registry's `hst-greedy` and the epoch simulation run it.

use crate::{HstGreedyPool, Matching};
use pombm_hst::{CodeContext, LeafCode};

/// Online greedy matcher where worker `i` may serve up to `capacity[i]`
/// tasks: each task goes to the tree-nearest worker with residual capacity
/// by [`HstGreedyPool`]'s rule, equal to
/// [`crate::hst_greedy::greedy_reference`] pair for pair.
#[derive(Debug, Clone)]
pub struct CapacitatedGreedy {
    /// Workers with residual capacity, keyed by their index.
    pool: HstGreedyPool,
    workers: Vec<LeafCode>,
    residual: Vec<u32>,
}

impl CapacitatedGreedy {
    /// Creates a matcher from worker leaves and per-worker capacities.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn new(ctx: CodeContext, workers: Vec<LeafCode>, capacity: Vec<u32>) -> Self {
        assert_eq!(workers.len(), capacity.len(), "one capacity per worker");
        let mut pool = HstGreedyPool::new(ctx);
        // Highest index first: each leaf's resident stack is kept
        // descending, so every insertion lands at its end.
        for i in (0..workers.len()).rev().filter(|&i| capacity[i] > 0) {
            pool.add(i as u64, workers[i]);
        }
        CapacitatedGreedy {
            pool,
            workers,
            residual: capacity,
        }
    }

    /// Uniform capacity `q` for every worker.
    pub fn uniform(ctx: CodeContext, workers: Vec<LeafCode>, q: u32) -> Self {
        let n = workers.len();
        Self::new(ctx, workers, vec![q; n])
    }

    /// Total unassigned task slots across all workers.
    pub fn remaining_slots(&self) -> usize {
        self.residual.iter().map(|&q| q as usize).sum()
    }

    /// Residual capacity of worker `i`.
    #[inline]
    pub fn residual(&self, i: usize) -> u32 {
        self.residual[i]
    }

    /// Assigns the tree-nearest worker with residual capacity to the task
    /// leaf `t`. Returns `None` when every worker is saturated.
    pub fn assign(&mut self, t: LeafCode) -> Option<usize> {
        let id = self.pool.assign(t)?;
        let w = id as usize;
        self.residual[w] -= 1;
        // Re-adding the worker it just took puts the pool back exactly as
        // it was: same leaf counts, and the lowest id on top of its leaf.
        if self.residual[w] > 0 {
            self.pool.add(id, self.workers[w]);
        }
        Some(w)
    }

    /// Assigns every task leaf in arrival order; the matching lists the
    /// tasks that found a worker.
    pub fn assign_all(&mut self, tasks: &[LeafCode]) -> Matching {
        let take = |(t, &leaf)| Some((t, self.assign(leaf)?));
        Matching {
            pairs: tasks.iter().enumerate().filter_map(take).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::seeded_rng;
    use rand::Rng;

    fn ctx() -> CodeContext {
        CodeContext::new(2, 4)
    }

    #[test]
    fn capacity_one_equals_plain_greedy() {
        // At unit capacity no worker is ever re-added: the matcher is the
        // plain pool, fed the whole fleet before the first task.
        let c = CodeContext::new(3, 4);
        let mut rng = seeded_rng(0, 0);
        let workers: Vec<LeafCode> = (0..40)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let tasks: Vec<LeafCode> = (0..40)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let mut cap = CapacitatedGreedy::uniform(c, workers.clone(), 1);
        let mut plain = HstGreedyPool::new(c);
        plain.add_batch(workers.iter().enumerate().map(|(i, &w)| (i as u64, w)));
        for &t in &tasks {
            assert_eq!(
                cap.assign(t),
                plain.assign(t).map(|w| w as usize),
                "task {t}"
            );
        }
    }

    #[test]
    fn worker_serves_until_saturation() {
        let mut m = CapacitatedGreedy::new(ctx(), vec![LeafCode(0), LeafCode(15)], vec![3, 1]);
        assert_eq!(m.remaining_slots(), 4);
        // Three tasks at leaf 0 all go to worker 0.
        for _ in 0..3 {
            assert_eq!(m.assign(LeafCode(0)), Some(0));
        }
        assert_eq!(m.residual(0), 0);
        // Worker 0 is saturated; the next nearby task crosses the tree.
        assert_eq!(m.assign(LeafCode(0)), Some(1));
        assert_eq!(m.assign(LeafCode(0)), None);
    }

    #[test]
    fn zero_capacity_workers_never_assigned() {
        let mut m = CapacitatedGreedy::new(ctx(), vec![LeafCode(0), LeafCode(1)], vec![0, 2]);
        assert_eq!(m.assign(LeafCode(0)), Some(1));
        assert_eq!(m.assign(LeafCode(0)), Some(1));
        assert_eq!(m.assign(LeafCode(0)), None);
    }

    #[test]
    fn per_worker_loads_respect_capacities() {
        let c = CodeContext::new(2, 5);
        let mut rng = seeded_rng(1, 0);
        let workers: Vec<LeafCode> = (0..10)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let caps: Vec<u32> = (0..10).map(|_| rng.gen_range(0..4)).collect();
        let slots: usize = caps.iter().sum::<u32>() as usize;
        let mut m = CapacitatedGreedy::new(c, workers, caps.clone());
        let mut load = [0u32; 10];
        let mut assigned = 0;
        loop {
            let t = LeafCode(rng.gen_range(0..c.num_leaves()));
            match m.assign(t) {
                Some(w) => {
                    load[w] += 1;
                    assigned += 1;
                }
                None => break,
            }
        }
        assert_eq!(assigned, slots, "all slots must be fillable");
        for (w, (&l, &q)) in load.iter().zip(&caps).enumerate() {
            assert!(l <= q, "worker {w} over capacity: {l} > {q}");
        }
    }

    #[test]
    #[should_panic(expected = "one capacity per worker")]
    fn mismatched_lengths_panic() {
        let _ = CapacitatedGreedy::new(ctx(), vec![LeafCode(0)], vec![1, 2]);
    }
}
