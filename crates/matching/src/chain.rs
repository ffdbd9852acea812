//! Chain-reassignment online matching (Bansal et al., Algorithmica 2014).
//!
//! The paper's related work describes the `O(log² k)`-competitive algorithm
//! of its ref \[19\] as: *"The algorithm successively assigns the task to
//! workers (including those matched ones) until it finds an unmatched
//! worker as the result."* This module implements exactly that chain rule
//! on the HST metric:
//!
//! 1. An arriving task `t` finds its nearest worker `w₁` — matched or not.
//! 2. If `w₁` is unmatched, assign and stop. Otherwise the search restarts
//!    *from `w₁`'s leaf*, excluding workers already visited by this chain,
//!    and repeats until an unmatched worker is reached.
//!
//! Each hop is a nearest query over non-visited workers under the
//! canonical `(tree distance, leaf code, index)` order, so a task costs
//! `O(h·n·D)` where `h` is its chain length. The `O(log² k)` bound belongs
//! to Bansal et al.'s randomized algorithm; this deterministic chain does
//! not inherit it, because on the tree it reproduces greedy (below).
//!
//! # On the tree, the chain ends where greedy does
//!
//! The tree distance is an ultrametric, and every subtree is a contiguous
//! range of leaf codes. Let `S` be the smallest subtree around `t` that
//! holds a free worker, and `S'` its child holding `t` (which holds no
//! free worker; empty when `S` is `t`'s own leaf).
//!
//! * While a subtree around the chain's position holds an unvisited
//!   worker, the next hop stays inside it; so the chain visits every
//!   worker of `S'` (all matched) before it leaves `S'`, and never leaves
//!   `S` while `S` holds a free worker.
//! * Once `S'` is exhausted, the hops walk `S \ S'` in `(leaf code,
//!   index)` order. Say the visited part is a prefix of that order. The
//!   smallest subtree around the chain's position that holds an unvisited
//!   worker spans, as a code range, the next worker of the order; all its
//!   unvisited workers are equally far from the position; so the hop picks
//!   the one with the lowest `(code, index)`, which is that next worker.
//!
//! So the chain stops at the lowest-`(code, index)` free worker of `S`,
//! which is exactly Alg. 4's pick (every free worker of `S` is at the
//! same distance from `t`); only the hop count differs. The registered
//! `chain` matcher therefore runs the greedy tree-pool walk, and
//! [`ChainMatcher`] is kept as the literal rule: the reference that walk
//! is tested against, and the counter of chain hops.

use pombm_hst::{CodeContext, LeafCode};

/// Online chain-reassignment matcher on the complete HST: the literal rule
/// with its `O(h·n·D)` hop scan.
///
/// Its matching equals `crate::hst_greedy::greedy_reference` at unit
/// capacity (see the module docs for why), so production runs the greedy
/// walk; this struct is the paper-literal reference for that equivalence
/// and the one place that counts chain hops ([`ChainOutcome::hops`]).
#[derive(Debug, Clone)]
pub struct ChainMatcher {
    ctx: CodeContext,
    workers: Vec<LeafCode>,
    matched: Vec<bool>,
    remaining: usize,
    /// Scratch marker per worker; `visit_epoch[i] == epoch` means worker `i`
    /// was already visited by the current chain. Reused across tasks to
    /// avoid a per-task allocation.
    visit_epoch: Vec<u64>,
    epoch: u64,
}

/// Statistics of a single chain assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainOutcome {
    /// Index of the unmatched worker finally assigned.
    pub worker: usize,
    /// Number of matched workers the chain passed through before ending
    /// (0 = behaved exactly like greedy).
    pub hops: usize,
}

impl ChainMatcher {
    /// Creates a matcher over the reported (obfuscated) worker leaves.
    pub fn new(ctx: CodeContext, workers: Vec<LeafCode>) -> Self {
        let n = workers.len();
        ChainMatcher {
            ctx,
            workers,
            matched: vec![false; n],
            remaining: n,
            visit_epoch: vec![0; n],
            epoch: 0,
        }
    }

    /// Number of still-unassigned workers.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Runs the chain rule for a task at leaf `t`; returns the assigned
    /// worker and the chain length, or `None` when all workers are taken.
    pub fn assign(&mut self, t: LeafCode) -> Option<ChainOutcome> {
        if self.remaining == 0 {
            return None;
        }
        self.epoch += 1;
        let mut from = t;
        let mut hops = 0usize;
        loop {
            let next = self.nearest_unvisited(from)?;
            self.visit_epoch[next] = self.epoch;
            if !self.matched[next] {
                self.matched[next] = true;
                self.remaining -= 1;
                return Some(ChainOutcome { worker: next, hops });
            }
            hops += 1;
            from = self.workers[next];
        }
    }

    /// Nearest worker (matched or not) not yet visited by the current
    /// chain, with the canonical (distance, leaf code, index) tie-break.
    fn nearest_unvisited(&self, from: LeafCode) -> Option<usize> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (i, &w) in self.workers.iter().enumerate() {
            if self.visit_epoch[i] == self.epoch {
                continue;
            }
            let d = self.ctx.tree_dist_units(from, w);
            if best.is_none_or(|(_, bd, bc)| (d, w.0) < (bd, bc)) {
                best = Some((i, d, w.0));
            }
        }
        best.map(|(i, _, _)| i)
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
    fn behaves_like_greedy_when_unmatched_is_nearest() {
        let mut m = ChainMatcher::new(ctx(), vec![LeafCode(0), LeafCode(8)]);
        let out = m.assign(LeafCode(1)).unwrap();
        assert_eq!(out.worker, 0);
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn chain_hops_through_matched_workers() {
        // Workers at 0 and 1; first task takes 0. Second task at leaf 0:
        // nearest is the matched worker 0 (distance 0), chain hops to it,
        // then finds worker 1 from leaf 0.
        let mut m = ChainMatcher::new(ctx(), vec![LeafCode(0), LeafCode(1)]);
        assert_eq!(m.assign(LeafCode(0)).unwrap().worker, 0);
        let out = m.assign(LeafCode(0)).unwrap();
        assert_eq!(out.worker, 1);
        assert_eq!(out.hops, 1);
    }

    #[test]
    fn chain_can_be_longer_than_one_hop() {
        // Workers clustered at leaves 0,1,2 plus one far at 15. Exhaust the
        // cluster: the final cluster task must hop through matched workers
        // before reaching the far worker.
        let mut m = ChainMatcher::new(
            ctx(),
            vec![LeafCode(0), LeafCode(1), LeafCode(2), LeafCode(15)],
        );
        assert_eq!(m.assign(LeafCode(0)).unwrap().worker, 0);
        assert_eq!(m.assign(LeafCode(1)).unwrap().worker, 1);
        assert_eq!(m.assign(LeafCode(2)).unwrap().worker, 2);
        let out = m.assign(LeafCode(0)).unwrap();
        assert_eq!(out.worker, 3);
        assert!(out.hops >= 1, "expected a chain, got {out:?}");
    }

    #[test]
    fn all_tasks_match_and_assignment_is_a_permutation() {
        let c = CodeContext::new(3, 4);
        let mut rng = seeded_rng(5, 0);
        let workers: Vec<LeafCode> = (0..50)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let tasks: Vec<LeafCode> = (0..50)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let mut m = ChainMatcher::new(c, workers);
        let mut seen = std::collections::HashSet::new();
        for &t in &tasks {
            let out = m.assign(t).unwrap();
            assert!(seen.insert(out.worker), "worker assigned twice");
        }
        assert_eq!(m.remaining(), 0);
        assert_eq!(m.assign(LeafCode(0)), None);
    }

    #[test]
    fn chain_never_revisits_a_worker() {
        // With every worker at the same leaf the chain must still terminate
        // (the visited set breaks the distance-0 cycle).
        let mut m = ChainMatcher::new(ctx(), vec![LeafCode(7); 6]);
        for i in 0..6 {
            let out = m.assign(LeafCode(7)).unwrap();
            assert_eq!(out.hops, i, "task {i} should hop through {i} matched");
        }
        assert_eq!(m.assign(LeafCode(7)), None);
    }

    #[test]
    fn empty_pool_returns_none() {
        let mut m = ChainMatcher::new(ctx(), vec![]);
        assert_eq!(m.assign(LeafCode(0)), None);
    }
}
