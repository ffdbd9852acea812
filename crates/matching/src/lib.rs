#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "unit tests produce no compared output"
    )
)]

//! Bipartite matching algorithms for online task assignment.
//!
//! The paper's online step is one rule — give each arriving task the nearest
//! free worker — in two metrics, each with exactly one index:
//!
//! * **Tree** (Alg. 4, Lap-HG and TBF): [`HstGreedyPool`]'s `O(c·D)`
//!   subtree-count walk; static fleets run it through [`CapacitatedGreedy`]
//!   (unit capacity is the paper's matcher). [`hst_greedy::greedy_reference`]
//!   is the paper's `O(n·D)` scan it must equal.
//! * **Plane** (Tong et al., PVLDB'16 — Lap-GR): [`kdtree::KdTree`], rebuilt
//!   under churn by [`DynamicKdRebuild`]; [`euclidean::greedy_reference`] is
//!   the `O(n)` scan it must equal.
//!
//! * [`offline::OfflineOptimal`] — an exact min-cost offline matcher
//!   (successive shortest augmenting paths with potentials), used to measure
//!   empirical competitive ratios against `OPT`.
//! * [`clairvoyant::ClairvoyantOptimal`] — the dynamic analogue: the
//!   max-cardinality min-cost matching over a time-expanded feasibility
//!   graph (a task may only use a worker whose shift covers its arrival),
//!   solved by padding into the dense engine above; the denominator of the
//!   ratio-under-churn measurement.
//! * [`reachable::ProbMatcher`] / [`reachable::TbfReachMatcher`] — the case
//!   study (Sec. IV-C): maximize matching size when workers have bounded
//!   reachable radii.
//!
//! Beyond the paper's evaluation, the crate ships alternative online rules
//! for ablations and extensions:
//!
//! * [`RandomizedGreedy`] — Alg. 4 with the uniform tie-break randomization
//!   of Meyerson et al. (the paper's ref \[15\]).
//! * [`ChainMatcher`] — the chain-reassignment rule of Bansal et al. (the
//!   paper's ref \[19\]), kept as the literal `O(h·n·D)` hop scan: on the
//!   tree it ends at greedy's worker (proof sketch in [`chain`]), so the
//!   registered `chain` matcher runs the tree pool and this struct is its
//!   reference and the chain-hop counter.
//! * [`RandomAssign`] / [`DynamicRandomPool`] — location-blind uniform
//!   assignment, the sanity floor every mechanism/matcher pair must clear.
//!
//! Randomness lives only in the explicitly randomized matchers above (which
//! take an `Rng` per call); every other matcher is deterministic.
//!
//! # Example
//!
//! ```
//! use pombm_hst::{CodeContext, LeafCode};
//! use pombm_matching::HstGreedyPool;
//!
//! // A complete binary tree of depth 4; workers report (obfuscated) leaves.
//! let mut pool = HstGreedyPool::new(CodeContext::new(2, 4));
//! pool.add(0, LeafCode(0));
//! pool.add(1, LeafCode(6));
//! pool.add(2, LeafCode(15));
//!
//! // Each arriving task takes the tree-nearest available worker (Alg. 4).
//! assert_eq!(pool.assign(LeafCode(1)), Some(0));
//! assert_eq!(pool.assign(LeafCode(1)), Some(1));
//! assert_eq!(pool.available(), 1);
//! ```

pub mod capacity;
pub mod chain;
pub mod clairvoyant;
pub mod dynamic;
pub mod euclidean;
pub mod hst_greedy;
pub mod kdtree;
pub mod offline;
pub mod random_assign;
pub mod randomized;
pub mod reachable;

pub use capacity::CapacitatedGreedy;
pub use chain::{ChainMatcher, ChainOutcome};
pub use clairvoyant::{ClairvoyantAssignment, ClairvoyantOptimal};
pub use dynamic::{DynamicKdRebuild, DynamicRandomPool, HstGreedyPool};
pub use random_assign::RandomAssign;
pub use randomized::RandomizedGreedy;

/// A (task, worker) assignment produced by an online or offline matcher.
///
/// Indices refer to the caller's task/worker arrays. The paper's
/// effectiveness metric — total travel distance — is always evaluated on
/// *true* locations even when the matching was computed on obfuscated data;
/// see [`Matching::total_distance`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    /// Assigned pairs in assignment order: `(task index, worker index)`.
    pub pairs: Vec<(usize, usize)>,
}

impl Matching {
    /// Creates an empty matching.
    pub fn new() -> Self {
        Matching { pairs: Vec::new() }
    }

    /// Number of assigned pairs (the case study's "matching size").
    pub fn size(&self) -> usize {
        self.pairs.len()
    }

    /// Sums `d(tasks[t], workers[w])` over assigned pairs — the paper's
    /// total (travel) distance, computed on whatever coordinates the caller
    /// passes (true locations for evaluation). Empty is `0.0`, not the
    /// `-0.0` of `f64`'s `Sum`.
    pub fn total_distance(
        &self,
        tasks: &[pombm_geom::Point],
        workers: &[pombm_geom::Point],
    ) -> f64 {
        self.pairs
            .iter()
            .map(|&(t, w)| tasks[t].dist(&workers[w]))
            .fold(0.0, |s, d| s + d)
    }

    /// Checks that no worker and no task appears twice.
    pub fn is_valid(&self) -> bool {
        #[expect(
            clippy::disallowed_types,
            reason = "membership tests only; never iterated"
        )]
        let mut tasks = std::collections::HashSet::new();
        #[expect(
            clippy::disallowed_types,
            reason = "membership tests only; never iterated"
        )]
        let mut workers = std::collections::HashSet::new();
        self.pairs
            .iter()
            .all(|&(t, w)| tasks.insert(t) && workers.insert(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::Point;

    #[test]
    fn matching_metrics() {
        let tasks = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let workers = vec![Point::new(3.0, 4.0), Point::new(10.0, 1.0)];
        let m = Matching {
            pairs: vec![(0, 0), (1, 1)],
        };
        assert_eq!(m.size(), 2);
        assert!((m.total_distance(&tasks, &workers) - 6.0).abs() < 1e-12);
        assert!(m.is_valid());
    }

    #[test]
    fn duplicate_worker_is_invalid() {
        let m = Matching {
            pairs: vec![(0, 0), (1, 0)],
        };
        assert!(!m.is_valid());
        let m2 = Matching {
            pairs: vec![(0, 0), (0, 1)],
        };
        assert!(!m2.is_valid());
    }

    #[test]
    fn empty_matching_is_valid() {
        assert!(Matching::new().is_valid());
        assert_eq!(Matching::new().size(), 0);
    }
}
