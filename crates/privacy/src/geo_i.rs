//! Verification of ε-Geo-Indistinguishability (Definition 7).
//!
//! Definition 7 requires `M(x1)(z) ≤ e^{ε·d(x1,x2)}·M(x2)(z)` for all inputs
//! `x1, x2` and outputs `z`. For the HST mechanism the output distribution is
//! available in closed form (Eq. 3), so the property can be checked *exactly*
//! over every triple of leaves of a small tree — this is Theorem 1 turned
//! into an executable test. The check is exposed as a library function so
//! integration tests, property tests and examples can all call it.
//!
//! The check runs in log space. `M(x)(z) = wt_{lvl(lca(x,z))} / WT`, so the
//! normalizer cancels from every ratio and `ln(M(x1)(z)/M(x2)(z))` is a
//! difference of two log weights. Dividing the probabilities instead breaks
//! once ε is large enough for a weight to underflow: a subnormal divisor
//! overflows the quotient to `inf`, and a zero leaves nothing to compare.

use crate::hst_mechanism::HstMechanism;
use pombm_hst::{Hst, LeafCode};

/// Result of an exact Geo-I audit over all `(x1, x2, z)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoIAudit {
    /// The largest observed value of `ln(M(x1)(z)/M(x2)(z)) / d_T(x1,x2)`,
    /// i.e. the *effective* privacy loss rate. Geo-I holds iff this is at
    /// most ε (up to floating-point slack).
    pub max_loss_rate: f64,
    /// The ε the mechanism claims (in tree units).
    pub claimed_epsilon: f64,
    /// Number of triples inspected.
    pub triples: u64,
}

impl GeoIAudit {
    /// Whether the audit passed with relative slack `tol`.
    pub fn holds(&self, tol: f64) -> bool {
        self.max_loss_rate <= self.claimed_epsilon * (1.0 + tol) + f64::MIN_POSITIVE
    }
}

/// Exactly audits the HST mechanism over every `(x1, x2, z)` triple of real
/// *and fake* leaves.
///
/// `O(c^{3D}·D)` — intended for trees with at most a few hundred leaves.
///
/// # Panics
///
/// Panics if the complete tree has more than 2⁸ leaves.
pub fn audit_hst_mechanism(hst: &Hst, mechanism: &HstMechanism) -> GeoIAudit {
    let leaves = hst.num_leaves();
    assert!(
        leaves <= 1 << 8,
        "exact audit over {leaves} leaves is infeasible; shrink the tree"
    );
    let table = mechanism.table();
    let eps_tree = table.epsilon().value();
    let mut max_rate = 0.0f64;
    let mut triples = 0u64;
    for x1 in 0..leaves {
        for x2 in 0..leaves {
            if x1 == x2 {
                continue;
            }
            let (a, b) = (LeafCode(x1), LeafCode(x2));
            let d = hst.tree_dist_units(a, b) as f64;
            for z in 0..leaves {
                let z = LeafCode(z);
                // ln(M(a)(z) / M(b)(z)): `WT` cancels, leaving two log weights.
                let log_ratio =
                    table.log_wt(hst.lca_level(a, z)) - table.log_wt(hst.lca_level(b, z));
                max_rate = max_rate.max(log_ratio / d);
                triples += 1;
            }
        }
    }
    GeoIAudit {
        max_loss_rate: max_rate,
        claimed_epsilon: eps_tree,
        triples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Epsilon;
    use pombm_geom::{seeded_rng, Grid, Point, PointSet, Rect};

    /// Builds a small HST (≤ 256 complete-tree leaves) for exact auditing;
    /// skips random draws whose branching factor makes the complete tree too
    /// wide for the O(leaves³) audit.
    fn small_hst(seed: u64) -> Option<Hst> {
        let grid = Grid::square(Rect::square(8.0), 2);
        let mut rng = seeded_rng(seed, 0);
        let hst = Hst::build(&grid.to_point_set(), &mut rng);
        (hst.num_leaves() <= 256).then_some(hst)
    }

    #[test]
    fn theorem1_exact_audit_passes() {
        let mut audited = 0;
        for seed in 0..6 {
            let Some(hst) = small_hst(seed) else { continue };
            for eps in [0.05, 0.2, 1.0] {
                let m = HstMechanism::new(&hst, Epsilon::new(eps));
                let audit = audit_hst_mechanism(&hst, &m);
                assert!(
                    audit.holds(1e-9),
                    "seed {seed} ε {eps}: loss rate {} > {}",
                    audit.max_loss_rate,
                    audit.claimed_epsilon
                );
                assert!(audit.triples > 0);
                audited += 1;
            }
        }
        assert!(audited >= 3, "too few auditable trees");
    }

    #[test]
    fn loss_rate_is_tight_for_adjacent_leaves() {
        // The bound in Theorem 1 is achieved by obfuscating to the exact
        // leaf of a nearby point: the audit's max rate should be very close
        // to ε, not just below it — confirming the mechanism spends the
        // whole budget.
        let hst = small_hst(1).expect("2x2 grid always yields a small tree");
        let eps = 0.1;
        let m = HstMechanism::new(&hst, Epsilon::new(eps));
        let audit = audit_hst_mechanism(&hst, &m);
        let eps_tree = m.table().epsilon().value();
        assert!(
            audit.max_loss_rate > 0.9 * eps_tree,
            "mechanism wastes budget: rate {} vs ε {eps_tree}",
            audit.max_loss_rate
        );
    }

    /// Two points 3 apart give a tree of depth 3 with 8 leaves. At ε_tree
    /// 180 a level-1 leaf's probability is subnormal, and at 200 it is
    /// zero: dividing probabilities reported `inf` and `0` there. Every
    /// triple is audited, and the worst one (`z = x1`) spends exactly ε.
    #[test]
    fn audit_is_exact_where_leaf_probabilities_underflow() {
        let points = PointSet::new(vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)]);
        let hst = Hst::build(&points, &mut seeded_rng(0, 0));
        assert_eq!((hst.depth(), hst.num_leaves()), (3, 8));
        for eps_tree in [180.0, 200.0] {
            let m = HstMechanism::from_shape(Epsilon::new(eps_tree), hst.branching(), hst.depth());
            assert!(m.table().leaf_probability(1) < f64::MIN_POSITIVE);
            let audit = audit_hst_mechanism(&hst, &m);
            assert_eq!(audit.triples, 8 * 7 * 8);
            assert!(
                (audit.max_loss_rate - eps_tree).abs() <= 1e-9 * eps_tree,
                "ε_tree {eps_tree}: loss rate {}",
                audit.max_loss_rate
            );
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn audit_rejects_huge_trees() {
        let grid = Grid::square(Rect::square(512.0), 8);
        let mut rng = seeded_rng(0, 0);
        let hst = Hst::build(&grid.to_point_set(), &mut rng);
        let m = HstMechanism::new(&hst, Epsilon::new(0.1));
        let _ = audit_hst_mechanism(&hst, &m);
    }
}
