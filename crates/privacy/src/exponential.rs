//! The exponential mechanism over the predefined point set.
//!
//! A third ε-Geo-Indistinguishable baseline beyond the planar Laplace and
//! the paper's HST mechanism: the classic exponential mechanism of McSherry
//! and Talwar instantiated with the (negated) Euclidean distance as the
//! quality score, restricted to the server's predefined points. A true
//! location snapped to point `x` reports point `z` with probability
//!
//! ```text
//! M(x)(z) ∝ exp(-ε · d(x, z) / 2)
//! ```
//!
//! The `/2` pays for the shift of the normalizing constant between two
//! sources: for any `x₁, x₂, z`,
//!
//! ```text
//! M(x₁)(z) / M(x₂)(z) = exp(ε(d(x₂,z) − d(x₁,z))/2) · W(x₂)/W(x₁)
//!                     ≤ exp(ε·d(x₁,x₂)/2) · exp(ε·d(x₁,x₂)/2)
//! ```
//!
//! by the triangle inequality applied to both factors, so the mechanism is
//! ε-Geo-I on the discrete metric — the same guarantee and the same output
//! domain as the paper's HST mechanism, which makes it the natural ablation
//! for "how much of TBF's win is the *tree*, not just discretization?".
//!
//! Sampling uses per-source [`AliasTable`]s built lazily (`O(N)` the first
//! time a source point reports, `O(1)` afterwards), mirroring how a worker
//! app would cache its own distribution.

use crate::alias::AliasTable;
use crate::Epsilon;
use pombm_geom::{PointId, PointSet};
use rand::Rng;
#[expect(
    clippy::disallowed_types,
    reason = "imported for the lookup-only `tables` memo"
)]
use std::collections::HashMap;

/// Exponential mechanism over a predefined [`PointSet`]; see the module
/// docs for the privacy argument.
#[derive(Debug, Clone)]
pub struct ExponentialMechanism {
    epsilon: Epsilon,
    points: PointSet,
    #[expect(
        clippy::disallowed_types,
        reason = "per-point memo built via entry(); only ever read by key lookup, never iterated"
    )]
    tables: HashMap<PointId, AliasTable>,
}

impl ExponentialMechanism {
    /// Creates the mechanism over `points` with budget `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the lookup-only `tables` memo"
    )]
    pub fn new(points: PointSet, epsilon: Epsilon) -> Self {
        assert!(!points.is_empty(), "exponential mechanism needs candidates");
        ExponentialMechanism {
            epsilon,
            points,
            tables: HashMap::new(),
        }
    }

    /// The configured privacy budget.
    #[inline]
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The candidate output points.
    #[inline]
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// Unnormalized sampling weights for source point `x`.
    pub fn weights_for(&self, x: PointId) -> Vec<f64> {
        let eps = self.epsilon.value();
        (0..self.points.len())
            .map(|z| (-eps * self.points.dist(x, z) / 2.0).exp())
            .collect()
    }

    /// Exact probability that source `x` reports candidate `z`.
    pub fn probability(&self, x: PointId, z: PointId) -> f64 {
        let weights = self.weights_for(x);
        let total: f64 = weights.iter().sum();
        weights[z] / total
    }

    /// Obfuscates source point `x`, lazily caching its alias table.
    pub fn obfuscate<R: Rng + ?Sized>(&mut self, x: PointId, rng: &mut R) -> PointId {
        let eps = self.epsilon.value();
        let points = &self.points;
        let table = self.tables.entry(x).or_insert_with(|| {
            let weights: Vec<f64> = (0..points.len())
                .map(|z| (-eps * points.dist(x, z) / 2.0).exp())
                .collect();
            AliasTable::new(&weights)
        });
        table.sample(rng)
    }

    /// Obfuscates without touching the cache (`O(N)` inverse-CDF walk).
    /// Produces the same distribution as [`Self::obfuscate`]; used by tests
    /// and one-shot callers.
    pub fn obfuscate_uncached<R: Rng + ?Sized>(&self, x: PointId, rng: &mut R) -> PointId {
        let weights = self.weights_for(x);
        let total: f64 = weights.iter().sum();
        let mut u = rng.gen::<f64>() * total;
        for (z, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return z;
            }
        }
        weights.len() - 1
    }

    /// Number of cached per-source alias tables.
    #[inline]
    pub fn cached_sources(&self) -> usize {
        self.tables.len()
    }

    /// Exhaustively verifies ε-Geo-I over all `(x₁, x₂, z)` triples:
    /// `M(x₁)(z) ≤ exp(ε·d(x₁,x₂)) · M(x₂)(z)`. `O(N³)`; intended for tests
    /// and small candidate sets.
    pub fn audit_geo_i(&self, tol: f64) -> Result<(), String> {
        let n = self.points.len();
        let eps = self.epsilon.value();
        let probs: Vec<Vec<f64>> = (0..n)
            .map(|x| {
                let w = self.weights_for(x);
                let total: f64 = w.iter().sum();
                w.into_iter().map(|v| v / total).collect()
            })
            .collect();
        for x1 in 0..n {
            for x2 in 0..n {
                let bound = (eps * self.points.dist(x1, x2)).exp();
                for (z, (&p1, &p2)) in probs[x1].iter().zip(&probs[x2]).enumerate() {
                    if p1 > bound * p2 * (1.0 + tol) {
                        return Err(format!(
                            "Geo-I violated at x1={x1}, x2={x2}, z={z}: \
                             {p1} > e^(ε·d)·{p2} = {}",
                            bound * p2
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::{seeded_rng, Grid, Point, Rect};

    fn small_points() -> PointSet {
        Grid::square(Rect::square(10.0), 3).to_point_set()
    }

    #[test]
    fn probabilities_normalize() {
        let m = ExponentialMechanism::new(small_points(), Epsilon::new(0.5));
        let sum: f64 = (0..9).map(|z| m.probability(0, z)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_is_most_probable() {
        let m = ExponentialMechanism::new(small_points(), Epsilon::new(0.5));
        for x in 0..9 {
            let px = m.probability(x, x);
            for z in 0..9 {
                assert!(px >= m.probability(x, z), "source {x}, candidate {z}");
            }
        }
    }

    #[test]
    fn nearer_candidates_weigh_more() {
        let points = PointSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        ]);
        let m = ExponentialMechanism::new(points, Epsilon::new(1.0));
        assert!(m.probability(0, 1) > m.probability(0, 2));
    }

    #[test]
    fn geo_i_holds_exactly() {
        for eps in [0.2, 1.0, 4.0] {
            let m = ExponentialMechanism::new(small_points(), Epsilon::new(eps));
            m.audit_geo_i(1e-9).unwrap();
        }
    }

    #[test]
    fn cached_and_uncached_distributions_agree() {
        let mut m = ExponentialMechanism::new(small_points(), Epsilon::new(0.8));
        let draws = 60_000;
        let mut cached = [0usize; 9];
        let mut uncached = [0usize; 9];
        let mut rng = seeded_rng(4, 0);
        for _ in 0..draws {
            cached[m.obfuscate(2, &mut rng)] += 1;
        }
        let mut rng = seeded_rng(5, 0);
        for _ in 0..draws {
            uncached[m.obfuscate_uncached(2, &mut rng)] += 1;
        }
        assert_eq!(m.cached_sources(), 1);
        for z in 0..9 {
            let a = cached[z] as f64 / draws as f64;
            let b = uncached[z] as f64 / draws as f64;
            let exact = m.probability(2, z);
            assert!((a - exact).abs() < 0.012, "cached z={z}: {a} vs {exact}");
            assert!((b - exact).abs() < 0.012, "uncached z={z}: {b} vs {exact}");
        }
    }

    #[test]
    fn tighter_epsilon_flattens_distribution() {
        let strict = ExponentialMechanism::new(small_points(), Epsilon::new(0.05));
        let loose = ExponentialMechanism::new(small_points(), Epsilon::new(5.0));
        // Probability of reporting truthfully grows with ε.
        assert!(loose.probability(4, 4) > strict.probability(4, 4));
        // Under a tiny ε every candidate is nearly uniform.
        let p = strict.probability(4, 0);
        assert!((p - 1.0 / 9.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_candidates_panic() {
        // `PointSet::new` already rejects empty inputs, so the mechanism's
        // own guard is a second line of defence that normal construction
        // can never reach.
        let _ = ExponentialMechanism::new(PointSet::new(vec![]), Epsilon::new(1.0));
    }
}
