//! Matching-size maximization with reachable radii (the case study,
//! Sec. IV-C).
//!
//! In this variant each worker has a *reachable distance*: an assignment
//! only succeeds if the true worker–task distance is within the radius
//! (incomplete bipartite graph). Under privacy, the server sees only
//! obfuscated locations, so both algorithms reason about reachability
//! indirectly:
//!
//! * [`ProbMatcher`] — the Prob baseline (To et al., ICDE'18 style): assign
//!   the available worker with the highest probability of being truly
//!   reachable given the observed Laplace-noised separation, skipping the
//!   task if no worker clears the acceptance threshold
//!   ([`DEFAULT_THRESHOLD`]).
//! * [`TbfReachMatcher`] — the paper's TBF adapted to the case study: "for
//!   each task find the nearest reachable worker on the HST". The paper does
//!   not pin how reachability is judged on obfuscated tree nodes; judging it
//!   by raw tree distance is hopeless because HST distances over-estimate
//!   Euclidean ones by `O(log N)` with high variance. Instead, every
//!   (possibly fake) leaf resolves to a *representative* predefined point
//!   (`pombm_hst::Hst::representative`), reachability is checked between
//!   representative positions, and the nearest eligible worker *on the
//!   tree* wins.

use pombm_geom::Point;
use pombm_hst::{CodeContext, LeafCode};
use pombm_privacy::reach::ReachProbability;
use pombm_privacy::ReachEstimator;

/// Prob: probabilistic reachability assignment over Laplace-obfuscated
/// coordinates.
///
/// Generic over the probability provider `P`. The case study
/// (`pombm::run_case_study`) runs it on a
/// [`pombm_privacy::reach::ReachTable`]: Prob asks `O(n·m)` queries per
/// run, too many for per-query Monte-Carlo.
/// [`pombm_privacy::ReachEstimator`] answers the same queries directly, for
/// small instances.
#[derive(Debug, Clone)]
pub struct ProbMatcher<P = ReachEstimator> {
    workers: Vec<Point>,
    radii: Vec<f64>,
    available: Vec<bool>,
    remaining: usize,
    estimator: P,
}

/// The acceptance threshold of [`ProbMatcher`]: assign only when the
/// worker is more likely reachable than not.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

impl<P: ReachProbability> ProbMatcher<P> {
    /// Creates the matcher over obfuscated worker locations and their
    /// (public) reachable radii.
    ///
    /// # Panics
    ///
    /// Panics if `workers` and `radii` lengths differ.
    pub fn new(workers: Vec<Point>, radii: Vec<f64>, estimator: P) -> Self {
        assert_eq!(workers.len(), radii.len(), "one radius per worker");
        let n = workers.len();
        ProbMatcher {
            workers,
            radii,
            available: vec![true; n],
            remaining: n,
            estimator,
        }
    }

    /// Number of still-unassigned workers.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Attempts to assign the task at obfuscated location `t`: picks the
    /// available worker maximizing the reachability probability, provided it
    /// reaches [`DEFAULT_THRESHOLD`]. Ties break to the lower worker index.
    pub fn assign(&mut self, t: &Point) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, w) in self.workers.iter().enumerate() {
            if !self.available[i] {
                continue;
            }
            let p = self.estimator.probability(w.dist(t), self.radii[i]);
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((i, p));
            }
        }
        let (i, p) = best?;
        if p < DEFAULT_THRESHOLD {
            return None;
        }
        self.available[i] = false;
        self.remaining -= 1;
        Some(i)
    }
}

/// TBF for the case study: nearest reachable worker on the HST, with
/// reachability judged between representative positions of the obfuscated
/// leaves.
#[derive(Debug, Clone)]
pub struct TbfReachMatcher {
    ctx: CodeContext,
    workers: Vec<LeafCode>,
    /// Representative Euclidean position of each worker's obfuscated leaf.
    worker_pos: Vec<Point>,
    radii: Vec<f64>,
    available: Vec<bool>,
    remaining: usize,
    /// Additive slack on the radius check, absorbing the predefined-grid
    /// snapping error (half a cell diagonal per endpoint).
    radius_slack: f64,
}

impl TbfReachMatcher {
    /// Creates the matcher over obfuscated worker leaves, their
    /// representative positions, and radii.
    ///
    /// `radius_slack` is added to every radius during the eligibility check;
    /// pass the grid cell diagonal to compensate the two snapping errors.
    pub fn new(
        ctx: CodeContext,
        workers: Vec<LeafCode>,
        worker_pos: Vec<Point>,
        radii: Vec<f64>,
        radius_slack: f64,
    ) -> Self {
        assert_eq!(workers.len(), radii.len(), "one radius per worker");
        assert_eq!(workers.len(), worker_pos.len(), "one position per worker");
        assert!(radius_slack >= 0.0, "slack must be non-negative");
        let n = workers.len();
        TbfReachMatcher {
            ctx,
            workers,
            worker_pos,
            radii,
            available: vec![true; n],
            remaining: n,
            radius_slack,
        }
    }

    /// Number of still-unassigned workers.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Attempts to assign the task at obfuscated leaf `t` (with
    /// representative position `t_pos`) to the tree-nearest available worker
    /// whose radius (plus slack) covers the representative separation.
    pub fn assign(&mut self, t: LeafCode, t_pos: &Point) -> Option<usize> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (i, &w) in self.workers.iter().enumerate() {
            if !self.available[i] {
                continue;
            }
            if self.worker_pos[i].dist(t_pos) > self.radii[i] + self.radius_slack {
                continue;
            }
            let d = self.ctx.tree_dist_units(t, w);
            if best.is_none_or(|(_, bd, bc)| (d, w.0) < (bd, bc)) {
                best = Some((i, d, w.0));
            }
        }
        let (i, _, _) = best?;
        self.available[i] = false;
        self.remaining -= 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_privacy::Epsilon;

    fn estimator() -> ReachEstimator {
        ReachEstimator::new(Epsilon::new(0.5), 4000, 3)
    }

    #[test]
    fn prob_prefers_closer_worker() {
        let mut m = ProbMatcher::new(
            vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)],
            vec![10.0, 10.0],
            estimator(),
        );
        assert_eq!(m.assign(&Point::new(1.0, 0.0)), Some(0));
    }

    #[test]
    fn prob_skips_hopeless_tasks() {
        let mut m = ProbMatcher::new(vec![Point::new(0.0, 0.0)], vec![1.0], estimator());
        // Separation 500 with radius 1: probability ~0 < threshold.
        assert_eq!(m.assign(&Point::new(500.0, 0.0)), None);
        assert_eq!(m.remaining(), 1, "worker is preserved for later tasks");
        // A genuinely close task still succeeds afterwards... with sep 0 and
        // radius 1 at ε=0.5 the reach probability is small too, so use a
        // wide-radius worker for the positive case below.
        let mut m2 = ProbMatcher::new(vec![Point::new(0.0, 0.0)], vec![50.0], estimator());
        assert_eq!(m2.assign(&Point::new(1.0, 0.0)), Some(0));
    }

    #[test]
    fn prob_exhausts_workers() {
        let mut m = ProbMatcher::new(
            vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)],
            vec![100.0, 100.0],
            estimator(),
        );
        assert!(m.assign(&Point::new(0.0, 0.0)).is_some());
        assert!(m.assign(&Point::new(0.0, 0.0)).is_some());
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn tbf_reach_respects_radius() {
        let ctx = CodeContext::new(2, 4);
        // Worker positioned 30 units away with radius 10: ineligible.
        let mut m = TbfReachMatcher::new(
            ctx,
            vec![LeafCode(8)],
            vec![Point::new(30.0, 0.0)],
            vec![10.0],
            0.0,
        );
        assert_eq!(m.assign(LeafCode(0), &Point::new(0.0, 0.0)), None);
        assert_eq!(m.remaining(), 1, "worker preserved for later tasks");
        // A task next to the worker succeeds.
        assert_eq!(m.assign(LeafCode(9), &Point::new(28.0, 0.0)), Some(0));
    }

    #[test]
    fn tbf_reach_picks_tree_nearest_among_eligible() {
        let ctx = CodeContext::new(2, 4);
        // Both workers eligible (generous radii); leaf 1 is 4 tree units
        // from the task at leaf 0, leaf 2 is 12 units.
        let mut m = TbfReachMatcher::new(
            ctx,
            vec![LeafCode(2), LeafCode(1)],
            vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
            vec![100.0, 100.0],
            0.0,
        );
        assert_eq!(m.assign(LeafCode(0), &Point::new(0.0, 0.0)), Some(1));
        assert_eq!(m.remaining(), 1);
    }

    #[test]
    fn tbf_slack_expands_eligibility() {
        let ctx = CodeContext::new(2, 4);
        let task_pos = Point::new(0.0, 0.0);
        let worker_pos = Point::new(12.0, 0.0);
        let mut strict =
            TbfReachMatcher::new(ctx, vec![LeafCode(8)], vec![worker_pos], vec![10.0], 0.0);
        assert_eq!(strict.assign(LeafCode(0), &task_pos), None, "12 > 10");
        let mut slacked =
            TbfReachMatcher::new(ctx, vec![LeafCode(8)], vec![worker_pos], vec![10.0], 3.0);
        assert_eq!(slacked.assign(LeafCode(0), &task_pos), Some(0), "12 <= 13");
    }

    #[test]
    #[should_panic(expected = "one radius per worker")]
    fn mismatched_radii_rejected() {
        let _ = TbfReachMatcher::new(
            CodeContext::new(2, 3),
            vec![LeafCode(0)],
            vec![Point::ORIGIN],
            vec![],
            0.0,
        );
    }
}
