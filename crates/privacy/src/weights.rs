//! Weight and cumulative-weight tables for the HST mechanism.

use crate::Epsilon;
use pombm_hst::level_distance;

/// `ln wt_i`: the exponent of the weight of a leaf at LCA level `level`.
fn log_weight(eps: f64, level: u32) -> f64 {
    -eps * level_distance(level) as f64
}

/// Precomputed sampling tables for the HST mechanism over a `(c, D)` tree at
/// budget ε (Sec. III-C / III-D of the paper).
///
/// * `wt[i] = exp(ε·(4 − 2^{i+2}))` for `i ≥ 1`, `wt[0] = 1` — the weight of
///   each individual leaf whose LCA with the exact leaf is at level `i`.
/// * `WT = wt_0 + Σ_{i=1}^{D} c^{i-1}(c-1)·wt_i` — the normalizer (Eq. 4).
/// * `tw[k] = Σ_{i≥k} (level-i leaf count)·wt_i` for `k ≥ 1`, `tw[0] = WT` —
///   total weight at-or-above level `k` (Eq. 7), driving the upward-walk
///   continuation probabilities `pu_i = tw_{i+1}/tw_i`.
///
/// The `tw` sums are accumulated from the deepest level downward so that the
/// tiny high-level weights are added before the dominant low-level ones,
/// avoiding catastrophic absorption.
#[derive(Debug, Clone)]
pub struct WeightTable {
    epsilon: Epsilon,
    branching: u32,
    depth: u32,
    wt: Vec<f64>,
    tw: Vec<f64>,
}

impl WeightTable {
    /// Builds the table for a complete `c`-ary HST of depth `D`.
    ///
    /// `epsilon` is interpreted per *tree unit*: the exponent for a leaf at
    /// LCA level `i` is `−ε·(2^{i+2} − 4)`, exactly the paper's constants.
    /// Callers that want a budget per original-metric unit multiply by the
    /// tree's scale first (see [`crate::HstMechanism::new`]).
    pub fn new(epsilon: Epsilon, branching: u32, depth: u32) -> Self {
        assert!(branching >= 2, "complete HST needs branching >= 2");
        assert!(depth >= 1, "HST needs at least one level");
        let eps = epsilon.value();
        let c = branching as f64;

        let mut wt = Vec::with_capacity(depth as usize + 1);
        wt.push(1.0); // wt_0
        for i in 1..=depth {
            wt.push(log_weight(eps, i).exp());
        }

        // leaf_count[i] = number of leaves in L_i(x): 1, then (c-1)c^{i-1}.
        let leaf_count = |i: u32| -> f64 {
            if i == 0 {
                1.0
            } else {
                (c - 1.0) * c.powi(i as i32 - 1)
            }
        };

        // tw[k] for k in 0..=depth+1; tw[depth+1] = 0 ends the walk at the
        // root. Accumulate from the top (smallest terms first).
        let mut tw = vec![0.0; depth as usize + 2];
        for k in (1..=depth).rev() {
            tw[k as usize] = tw[k as usize + 1] + leaf_count(k) * wt[k as usize];
        }
        tw[0] = tw[1] + wt[0]; // WT

        WeightTable {
            epsilon,
            branching,
            depth,
            wt,
            tw,
        }
    }

    /// The privacy budget per tree unit.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Branching factor `c`.
    #[inline]
    pub fn branching(&self) -> u32 {
        self.branching
    }

    /// Tree depth `D`.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// `wt_i`: weight of one leaf at LCA level `i` (Eq. 3 numerator).
    #[inline]
    pub fn wt(&self, level: u32) -> f64 {
        self.wt[level as usize]
    }

    /// `ln wt_i = −ε·(2^{i+2} − 4)`: the log of [`WeightTable::wt`], finite
    /// where `wt_i` itself underflows to zero.
    #[inline]
    pub fn log_wt(&self, level: u32) -> f64 {
        log_weight(self.epsilon.value(), level)
    }

    /// `WT`: the normalizer (Eq. 4).
    #[inline]
    pub fn total(&self) -> f64 {
        self.tw[0]
    }

    /// `tw_k`: total weight of leaves whose LCA level is `≥ k` (Eq. 7).
    #[inline]
    pub fn tw(&self, level: u32) -> f64 {
        self.tw[level as usize]
    }

    /// Probability that the obfuscated leaf equals one *specific* leaf at
    /// LCA level `level` (Eq. 3).
    #[inline]
    pub fn leaf_probability(&self, level: u32) -> f64 {
        self.wt(level) / self.total()
    }

    /// Probability that the obfuscated leaf's LCA with the exact leaf is at
    /// `level` (i.e. summed over all leaves of that level class).
    pub fn level_probability(&self, level: u32) -> f64 {
        let count = if level == 0 {
            1.0
        } else {
            (self.branching as f64 - 1.0) * (self.branching as f64).powi(level as i32 - 1)
        };
        count * self.leaf_probability(level)
    }

    /// Upward-continuation probability `pu_i = tw_{i+1} / tw_i` at level `i`
    /// of the random walk (Sec. III-D). Returns 0 when `tw_i` has fully
    /// underflowed (an unreachable state, kept safe anyway).
    #[inline]
    pub fn pu(&self, level: u32) -> f64 {
        let denom = self.tw[level as usize];
        if denom <= 0.0 {
            0.0
        } else {
            self.tw[level as usize + 1] / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I of the paper: c = 2, D = 4, ε = 0.1, from leaf o1.
    #[test]
    fn table1_weights_and_probabilities() {
        let t = WeightTable::new(Epsilon::new(0.1), 2, 4);
        // Weights (paper reports 3 decimals).
        assert!((t.wt(0) - 1.0).abs() < 1e-12);
        assert!((t.wt(1) - 0.670).abs() < 5e-4);
        assert!((t.wt(2) - 0.301).abs() < 5e-4);
        assert!((t.wt(3) - 0.061).abs() < 5e-4);
        assert!((t.wt(4) - 0.002).abs() < 5e-4);
        // Per-leaf probabilities.
        assert!((t.leaf_probability(0) - 0.394).abs() < 1e-3);
        assert!((t.leaf_probability(1) - 0.264).abs() < 1e-3);
        assert!((t.leaf_probability(2) - 0.119).abs() < 1e-3);
        assert!((t.leaf_probability(3) - 0.024).abs() < 1e-3);
        assert!((t.leaf_probability(4) - 0.001).abs() < 1e-3);
    }

    #[test]
    fn example3_walk_probabilities() {
        // Example 3: pu_0 = 0.606, pu_1 = 0.564 for the Table I setting.
        let t = WeightTable::new(Epsilon::new(0.1), 2, 4);
        assert!((t.pu(0) - 0.606).abs() < 1e-3);
        assert!((t.pu(1) - 0.564).abs() < 1e-3);
        // The walk always stops at the root.
        assert_eq!(t.pu(4), 0.0);
    }

    #[test]
    fn level_probabilities_sum_to_one() {
        for (c, d, eps) in [(2u32, 4u32, 0.1), (3, 6, 0.5), (5, 3, 1.0), (2, 12, 0.2)] {
            let t = WeightTable::new(Epsilon::new(eps), c, d);
            let sum: f64 = (0..=d).map(|l| t.level_probability(l)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "c={c} D={d} ε={eps}: sum {sum}");
        }
    }

    #[test]
    fn weights_decay_with_level() {
        let t = WeightTable::new(Epsilon::new(0.3), 3, 8);
        for i in 0..8 {
            assert!(t.wt(i) > t.wt(i + 1), "wt must strictly decay");
        }
    }

    #[test]
    fn tw_is_decreasing_and_anchored() {
        let t = WeightTable::new(Epsilon::new(0.4), 2, 6);
        for k in 0..=6 {
            assert!(t.tw(k) >= t.tw(k + 1));
        }
        assert!((t.tw(0) - t.total()).abs() < 1e-15);
        assert_eq!(t.tw(7), 0.0);
    }

    #[test]
    fn pu_matches_level_probability_decomposition() {
        // Stopping at level i has probability (∏_{j<i} pu_j)(1 - pu_i) which
        // must equal level_probability(i); this is Theorem 2 restated on the
        // tables.
        let t = WeightTable::new(Epsilon::new(0.25), 3, 5);
        let mut ascend = 1.0;
        for i in 0..=5 {
            let stop = ascend * (1.0 - t.pu(i));
            assert!(
                (stop - t.level_probability(i)).abs() < 1e-12,
                "level {i}: walk {stop} vs direct {}",
                t.level_probability(i)
            );
            ascend *= t.pu(i);
        }
        assert!(ascend < 1e-12, "walk must terminate by the root");
    }

    #[test]
    fn huge_epsilon_underflows_gracefully() {
        // ε so large that every non-zero level underflows: the mechanism
        // degenerates to the identity, never NaN.
        let t = WeightTable::new(Epsilon::new(1e6), 2, 10);
        assert!((t.leaf_probability(0) - 1.0).abs() < 1e-12);
        for l in 1..=10 {
            assert_eq!(t.wt(l), 0.0);
            assert!(t.pu(l).is_finite());
        }
        assert_eq!(t.pu(0), 0.0, "never leaves the exact leaf");
    }

    #[test]
    fn tiny_epsilon_is_nearly_uniform() {
        // ε → 0 makes every leaf equally likely: leaf probabilities at all
        // levels converge to 1/c^D.
        let t = WeightTable::new(Epsilon::new(1e-12), 2, 6);
        let uniform = 1.0 / 64.0;
        for l in 0..=6 {
            assert!((t.leaf_probability(l) - uniform).abs() < 1e-6);
        }
    }
}
