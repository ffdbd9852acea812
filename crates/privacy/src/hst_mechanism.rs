//! The tree-based privacy mechanism (Algs. 2 and 3 of the paper).

use crate::weights::WeightTable;
use crate::Epsilon;
use pombm_hst::{Hst, LeafCode};
use rand::Rng;

/// The paper's ε-Geo-Indistinguishable mechanism on a complete c-ary HST.
///
/// Given the exact leaf `x`, every leaf `z` is chosen with probability
/// `wt_{lvl(lca(x,z))} / WT` (Eq. 3) — exponentially decaying in the tree
/// distance, which by Theorem 1 yields ε-Geo-I *in the tree metric*.
///
/// Two samplers are provided:
///
/// * [`HstMechanism::obfuscate_naive`] — Alg. 2: enumerate all `c^D` leaves
///   and sample from the explicit distribution. `O(c^D · D)`; only usable on
///   small trees, kept as the executable specification.
/// * [`HstMechanism::obfuscate`] — Alg. 3: the `O(D)` random walk. Walk up
///   from `x`, at each level deciding between "continue upward" (probability
///   `pu_i = tw_{i+1}/tw_i`) and "stop"; on stopping at level `i ≥ 1`, pick
///   one of the `c − 1` sibling subtrees uniformly and then a uniform
///   root-to-leaf path inside it. Theorem 2 shows this generates exactly the
///   Alg. 2 distribution (re-verified here by a chi-square test).
///
/// # Budget scaling
///
/// The ε of Definition 7 is a rate per unit distance. [`HstMechanism::new`]
/// takes the budget per *original metric unit* and multiplies by the HST's
/// construction scale, so that the guarantee
/// `M(x1)(z) ≤ exp(ε · d_T(x1,x2)) · M(x2)(z)` holds with `d_T` measured in
/// the same units as the input coordinates (for unscaled point sets, e.g.
/// grids with pitch ≥ 1, the factor is 1 and this matches the paper
/// verbatim).
#[derive(Debug, Clone)]
pub struct HstMechanism {
    table: WeightTable,
}

impl HstMechanism {
    /// Builds the mechanism for `hst` with budget `epsilon` per
    /// original-metric unit.
    pub fn new(hst: &Hst, epsilon: Epsilon) -> Self {
        let eps_tree = Epsilon::new(epsilon.value() * hst.scale());
        HstMechanism {
            table: WeightTable::new(eps_tree, hst.branching(), hst.depth()),
        }
    }

    /// Builds the mechanism directly from a `(c, D)` shape with a budget in
    /// tree units; used by tests and by callers that manage scaling
    /// themselves.
    pub fn from_shape(epsilon: Epsilon, branching: u32, depth: u32) -> Self {
        HstMechanism {
            table: WeightTable::new(epsilon, branching, depth),
        }
    }

    /// The underlying weight table.
    #[inline]
    pub fn table(&self) -> &WeightTable {
        &self.table
    }

    /// Exact probability that leaf `x` is obfuscated to leaf `z` (Eq. 3).
    pub fn probability(&self, hst: &Hst, x: LeafCode, z: LeafCode) -> f64 {
        self.table.leaf_probability(hst.lca_level(x, z))
    }

    /// Alg. 2: sample by enumerating every leaf of the complete tree.
    ///
    /// # Panics
    ///
    /// Panics if the complete tree has more than 2²² leaves; use
    /// [`HstMechanism::obfuscate`] instead.
    pub fn obfuscate_naive<R: Rng + ?Sized>(
        &self,
        hst: &Hst,
        x: LeafCode,
        rng: &mut R,
    ) -> LeafCode {
        let leaves = hst.num_leaves();
        assert!(
            leaves <= 1 << 22,
            "naive enumeration over {leaves} leaves; use the random walk"
        );
        // Draw u ~ U[0, WT) and walk the cumulative distribution. Weights
        // depend only on the LCA level, computed per leaf.
        let mut u = rng.gen::<f64>() * self.table.total();
        for v in 0..leaves {
            let z = LeafCode(v);
            let w = self.table.wt(hst.lca_level(x, z));
            if u < w {
                return z;
            }
            u -= w;
        }
        // Floating-point slack: the residual mass belongs to the last leaf.
        LeafCode(leaves - 1)
    }

    /// Alg. 3: the `O(D)` random-walk sampler.
    pub fn obfuscate<R: Rng + ?Sized>(&self, hst: &Hst, x: LeafCode, rng: &mut R) -> LeafCode {
        debug_assert!(hst.ctx().contains(x), "exact leaf outside tree");
        let ctx = hst.ctx();
        let c = ctx.branching as u64;
        let depth = ctx.depth;

        // Upward phase: find the stopping level.
        let mut stop_level = depth;
        for i in 0..depth {
            if rng.gen::<f64>() >= self.table.pu(i) {
                stop_level = i;
                break;
            }
        }
        if stop_level == 0 {
            // Changed direction immediately at the leaf: keep x (probability
            // wt_0 / WT).
            return x;
        }

        // Downward phase. The LCA of x and the output is the level-
        // `stop_level` ancestor of x. First step down must avoid x's own
        // level-(stop_level - 1) ancestor: pick one of the other c-1
        // children uniformly.
        let anc = ctx.ancestor(x, stop_level);
        let own_digit = ctx.digit(x, stop_level - 1) as u64;
        let mut pick = rng.gen_range(0..c - 1);
        if pick >= own_digit {
            pick += 1;
        }
        let mut prefix = anc * c + pick;
        // Remaining descent: uniform child at every level.
        for _ in 0..stop_level - 1 {
            prefix = prefix * c + rng.gen_range(0..c);
        }
        debug_assert!(ctx.contains(LeafCode(prefix)));
        LeafCode(prefix)
    }

    /// Advances `rng` exactly as one [`HstMechanism::obfuscate`] call on a
    /// depth-`depth` tree would, skipping the descent arithmetic.
    ///
    /// The walk's draw schedule depends only on the stopping level, never
    /// on the exact leaf: the upward phase draws one coin per level until
    /// it stops, and a stop at level `s ≥ 1` consumes one sibling pick
    /// plus `s − 1` descent draws. No library path replays it: the `hst`
    /// mechanism obfuscates a batch with the scalar loop. It is kept for
    /// the pombm-perf benchmark's snapshot-pass probe, which times what a
    /// sequential pass over the walk would cost. It must consume exactly as
    /// many draws as `obfuscate` (pinned by a test).
    pub fn advance_obfuscate<R: Rng + ?Sized>(&self, depth: u32, rng: &mut R) {
        let mut stop_level = depth;
        for i in 0..depth {
            if rng.gen::<f64>() >= self.table.pu(i) {
                stop_level = i;
                break;
            }
        }
        for _ in 0..stop_level {
            let _ = rng.next_u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::{seeded_rng, Grid, Point, PointSet, Rect};
    use pombm_hst::FixedDraw;
    use std::collections::HashMap;

    fn example1_hst() -> Hst {
        let points = PointSet::new(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 3.0),
            Point::new(5.0, 3.0),
            Point::new(4.0, 4.0),
        ]);
        let draw = FixedDraw {
            beta: 0.5,
            permutation: vec![0, 1, 2, 3],
        };
        Hst::build_fixed(&points, draw)
    }

    #[test]
    fn probabilities_sum_to_one_over_all_leaves() {
        let hst = example1_hst();
        let m = HstMechanism::new(&hst, Epsilon::new(0.1));
        for p in 0..hst.num_points() {
            let x = hst.leaf_of(p);
            let sum: f64 = (0..hst.num_leaves())
                .map(|v| m.probability(&hst, x, LeafCode(v)))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "point {p}: total mass {sum}");
        }
    }

    #[test]
    fn example3_path_probability() {
        // Example 3 computes P(o1 -> f3) = 0.119, which equals the level-2
        // per-leaf probability in Table I. Identify the level-2 sibling
        // leaves of o1 and check each carries 0.119.
        let hst = example1_hst();
        let m = HstMechanism::new(&hst, Epsilon::new(0.1));
        let o1 = hst.leaf_of(0);
        let level2: Vec<u64> = (0..hst.num_leaves())
            .filter(|&v| hst.lca_level(o1, LeafCode(v)) == 2)
            .collect();
        assert_eq!(level2.len(), 2, "c=2: two leaves at LCA level 2");
        for v in level2 {
            assert!((m.probability(&hst, o1, LeafCode(v)) - 0.119).abs() < 1e-3);
        }
    }

    /// Chi-square statistic of observed counts against expected
    /// probabilities.
    fn chi_square(observed: &HashMap<u64, u64>, expected: &[f64], trials: u64) -> f64 {
        expected
            .iter()
            .enumerate()
            .map(|(v, &p)| {
                let e = p * trials as f64;
                let o = *observed.get(&(v as u64)).unwrap_or(&0) as f64;
                if e > 0.0 {
                    (o - e).powi(2) / e
                } else {
                    // Zero-probability cells must stay empty.
                    assert_eq!(o, 0.0, "mass on impossible leaf {v}");
                    0.0
                }
            })
            .sum()
    }

    #[test]
    fn random_walk_matches_alg2_distribution() {
        // Theorem 2: Alg. 3 generates exactly the Alg. 2 distribution.
        // Sample both heavily on the Example 1 tree and chi-square them
        // against the closed form.
        let hst = example1_hst();
        let m = HstMechanism::new(&hst, Epsilon::new(0.1));
        let x = hst.leaf_of(0);
        let trials = 200_000u64;
        let expected: Vec<f64> = (0..hst.num_leaves())
            .map(|v| m.probability(&hst, x, LeafCode(v)))
            .collect();

        for (name, stream) in [("walk", 11u64), ("naive", 12u64)] {
            let mut rng = seeded_rng(99, stream);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for _ in 0..trials {
                let z = if name == "walk" {
                    m.obfuscate(&hst, x, &mut rng)
                } else {
                    m.obfuscate_naive(&hst, x, &mut rng)
                };
                *counts.entry(z.0).or_insert(0) += 1;
            }
            let stat = chi_square(&counts, &expected, trials);
            // 15 degrees of freedom (16 leaves); the 0.999 quantile of
            // chi²(15) is ~37.7. Allow generous slack against flakiness.
            assert!(stat < 45.0, "{name}: chi-square {stat} too large");
        }
    }

    #[test]
    fn walk_and_naive_agree_on_ternary_tree() {
        // A non-binary shape exercises the sibling-choice branch properly.
        let grid = Grid::square(Rect::square(30.0), 3); // 9 points
        let ps = grid.to_point_set();
        let mut rng = seeded_rng(5, 0);
        let hst = Hst::build(&ps, &mut rng);
        let m = HstMechanism::new(&hst, Epsilon::new(0.05));
        let x = hst.leaf_of(4);
        let trials = 100_000u64;
        let expected: Vec<f64> = (0..hst.num_leaves())
            .map(|v| m.probability(&hst, x, LeafCode(v)))
            .collect();
        let mut rng2 = seeded_rng(6, 1);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..trials {
            *counts.entry(m.obfuscate(&hst, x, &mut rng2).0).or_insert(0) += 1;
        }
        let stat = chi_square(&counts, &expected, trials);
        let dof = hst.num_leaves() as f64 - 1.0;
        // Normal approximation of the chi-square 0.999 quantile.
        let bound = dof + 4.0 * (2.0 * dof).sqrt();
        assert!(stat < bound, "chi-square {stat} exceeds {bound}");
    }

    #[test]
    fn obfuscation_is_identity_for_huge_epsilon() {
        let hst = example1_hst();
        let m = HstMechanism::new(&hst, Epsilon::new(1e9));
        let mut rng = seeded_rng(1, 1);
        for p in 0..hst.num_points() {
            let x = hst.leaf_of(p);
            for _ in 0..50 {
                assert_eq!(m.obfuscate(&hst, x, &mut rng), x);
            }
        }
    }

    #[test]
    fn tiny_epsilon_spreads_mass_widely() {
        let hst = example1_hst();
        let m = HstMechanism::new(&hst, Epsilon::new(1e-9));
        let mut rng = seeded_rng(2, 2);
        let x = hst.leaf_of(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(m.obfuscate(&hst, x, &mut rng).0);
        }
        // Nearly uniform over 16 leaves: all should appear in 2000 draws.
        assert_eq!(seen.len() as u64, hst.num_leaves());
    }

    #[test]
    fn outputs_always_belong_to_tree() {
        let grid = Grid::square(Rect::square(100.0), 5);
        let ps = grid.to_point_set();
        let mut rng = seeded_rng(3, 3);
        let hst = Hst::build(&ps, &mut rng);
        let m = HstMechanism::new(&hst, Epsilon::new(0.4));
        for p in 0..hst.num_points() {
            let x = hst.leaf_of(p);
            for _ in 0..200 {
                let z = m.obfuscate(&hst, x, &mut rng);
                assert!(hst.ctx().contains(z));
            }
        }
    }
}
