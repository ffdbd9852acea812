//! Reachability probabilities under planar Laplace noise.
//!
//! The paper's case study (Sec. IV-C) compares against **Prob** (To et al.,
//! ICDE 2018): workers and tasks report Laplace-obfuscated locations and the
//! server assigns a task to the worker that maximizes the probability that
//! the *true* worker–task distance is within the worker's reachable radius.
//!
//! With both endpoints obfuscated independently, the true displacement is
//! `s + n_w − n_t` where `s` is the observed (obfuscated) separation vector
//! and `n_w, n_t` are independent planar Laplace draws. The probability
//! `P(‖s + n_w − n_t‖ ≤ R)` has no convenient closed form, so we estimate it
//! by a *fixed, precomputed* Monte-Carlo sample of the noise-difference
//! distribution — deterministic (seeded), isotropic (only `‖s‖` matters) and
//! amortized across all queries of an experiment run. The case study
//! (`pombm::run_case_study`) answers every Prob query from a [`ReachTable`]
//! built once per run from a [`ReachEstimator`].

use crate::laplace::PlanarLaplace;
use crate::Epsilon;
use pombm_geom::{seeded_rng, Point};
use rand::Rng;

/// Anything that can answer `P(true distance ≤ radius | obfuscated
/// separation)` queries — implemented by the exact-ish Monte-Carlo
/// [`ReachEstimator`] and by the amortized [`ReachTable`].
pub trait ReachProbability {
    /// Probability that the true distance is within `radius` given the
    /// observed obfuscated separation.
    fn probability(&self, separation: f64, radius: f64) -> f64;
}

/// Estimator for `P(true distance ≤ radius | obfuscated separation)` under
/// double planar Laplace noise with budget ε. Each query scans the whole
/// sample, so the case study builds a [`ReachTable`] from it and queries
/// that instead.
#[derive(Debug, Clone)]
pub struct ReachEstimator {
    /// Precomputed draws of `n_w − n_t`.
    noise_diff: Vec<Point>,
}

impl ReachEstimator {
    /// Default number of Monte-Carlo noise samples; ~1.6% standard error on
    /// mid-range probabilities, negligible against workload noise.
    pub const DEFAULT_SAMPLES: usize = 4000;

    /// Builds the estimator with `samples` noise-difference draws using a
    /// deterministic seed.
    pub fn new(epsilon: Epsilon, samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one noise sample");
        let mech = PlanarLaplace::new(epsilon);
        let mut rng = seeded_rng(seed, 0xF00D);
        let origin = Point::ORIGIN;
        let noise_diff = (0..samples)
            .map(|_| {
                let a = mech.obfuscate(&origin, &mut rng);
                let b = mech.obfuscate(&origin, &mut rng);
                Point::new(a.x - b.x, a.y - b.y)
            })
            .collect();
        ReachEstimator { noise_diff }
    }

    /// Convenience constructor with [`ReachEstimator::DEFAULT_SAMPLES`].
    pub fn with_defaults(epsilon: Epsilon, seed: u64) -> Self {
        Self::new(epsilon, Self::DEFAULT_SAMPLES, seed)
    }

    /// Estimates `P(‖s + n‖ ≤ radius)` where `‖s‖ = separation` and `n` is
    /// the noise difference. By isotropy the separation can be placed on the
    /// x-axis.
    pub fn probability(&self, separation: f64, radius: f64) -> f64 {
        assert!(separation >= 0.0 && radius >= 0.0, "distances must be ≥ 0");
        let r2 = radius * radius;
        let hits = self
            .noise_diff
            .iter()
            .filter(|n| {
                let dx = separation + n.x;
                dx * dx + n.y * n.y <= r2
            })
            .count();
        hits as f64 / self.noise_diff.len() as f64
    }

    /// Number of stored noise samples.
    pub fn samples(&self) -> usize {
        self.noise_diff.len()
    }
}

impl ReachProbability for ReachEstimator {
    fn probability(&self, separation: f64, radius: f64) -> f64 {
        ReachEstimator::probability(self, separation, radius)
    }
}

/// Precomputed `(separation, radius) → probability` grid with bilinear
/// interpolation, turning each query into O(1). The case study's Prob
/// baseline runs on it.
///
/// The Prob baseline evaluates a reach probability for every available
/// worker on every task arrival — `O(n·m)` queries per run — so the
/// per-query Monte-Carlo cost of [`ReachEstimator`] must be paid once here,
/// not per query. Probabilities are monotone and smooth in both arguments,
/// so a modest grid with bilinear interpolation is accurate to well under
/// the Monte-Carlo noise floor.
#[derive(Debug, Clone)]
pub struct ReachTable {
    max_separation: f64,
    max_radius: f64,
    sep_bins: usize,
    rad_bins: usize,
    /// `values[r * (sep_bins + 1) + s]`, row-major over radius then
    /// separation grid nodes.
    values: Vec<f64>,
}

impl ReachTable {
    /// Builds the table from `estimator` over `[0, max_separation] × [0,
    /// max_radius]` with the given grid resolution.
    pub fn build(
        estimator: &ReachEstimator,
        max_separation: f64,
        max_radius: f64,
        sep_bins: usize,
        rad_bins: usize,
    ) -> Self {
        assert!(sep_bins > 0 && rad_bins > 0, "need at least one bin");
        assert!(
            max_separation > 0.0 && max_radius > 0.0,
            "table extents must be positive"
        );
        let mut values = Vec::with_capacity((sep_bins + 1) * (rad_bins + 1));
        for r in 0..=rad_bins {
            let radius = max_radius * r as f64 / rad_bins as f64;
            for s in 0..=sep_bins {
                let sep = max_separation * s as f64 / sep_bins as f64;
                values.push(estimator.probability(sep, radius));
            }
        }
        ReachTable {
            max_separation,
            max_radius,
            sep_bins,
            rad_bins,
            values,
        }
    }

    /// Convenience: default estimator + a `256 × 64` grid.
    pub fn with_defaults(
        epsilon: crate::Epsilon,
        max_separation: f64,
        max_radius: f64,
        seed: u64,
    ) -> Self {
        let estimator = ReachEstimator::with_defaults(epsilon, seed);
        Self::build(&estimator, max_separation, max_radius, 256, 64)
    }

    fn node(&self, s: usize, r: usize) -> f64 {
        self.values[r * (self.sep_bins + 1) + s]
    }
}

impl ReachProbability for ReachTable {
    fn probability(&self, separation: f64, radius: f64) -> f64 {
        // Queries beyond the table extent clamp to the border; separations
        // beyond max_separation have ~0 probability anyway if the extent was
        // chosen as the workspace diameter.
        let sx = (separation / self.max_separation * self.sep_bins as f64)
            .clamp(0.0, self.sep_bins as f64);
        let ry = (radius / self.max_radius * self.rad_bins as f64).clamp(0.0, self.rad_bins as f64);
        let (s0, r0) = (sx.floor() as usize, ry.floor() as usize);
        let (s1, r1) = ((s0 + 1).min(self.sep_bins), (r0 + 1).min(self.rad_bins));
        let (fs, fr) = (sx - s0 as f64, ry - r0 as f64);
        let top = self.node(s0, r0) * (1.0 - fs) + self.node(s1, r0) * fs;
        let bottom = self.node(s0, r1) * (1.0 - fs) + self.node(s1, r1) * fs;
        top * (1.0 - fr) + bottom * fr
    }
}

/// Samples one noise-difference vector; exposed for tests and simulations
/// that want per-draw (not amortized) noise.
pub fn sample_noise_diff<R: Rng + ?Sized>(epsilon: Epsilon, rng: &mut R) -> Point {
    let mech = PlanarLaplace::new(epsilon);
    let a = mech.obfuscate(&Point::ORIGIN, rng);
    let b = mech.obfuscate(&Point::ORIGIN, rng);
    Point::new(a.x - b.x, a.y - b.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_is_monotone_in_radius() {
        let est = ReachEstimator::new(Epsilon::new(0.5), 4000, 7);
        let mut prev = 0.0;
        for r in [0.0, 1.0, 2.0, 5.0, 10.0, 50.0] {
            let p = est.probability(3.0, r);
            assert!(p >= prev, "radius {r}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn probability_is_antitone_in_separation() {
        let est = ReachEstimator::new(Epsilon::new(0.5), 4000, 7);
        let mut prev = 1.0;
        for s in [0.0, 2.0, 5.0, 10.0, 40.0] {
            let p = est.probability(s, 5.0);
            assert!(p <= prev + 1e-12, "sep {s}: {p} > {prev}");
            prev = p;
        }
    }

    #[test]
    fn extreme_cases_saturate() {
        let est = ReachEstimator::new(Epsilon::new(2.0), 4000, 9);
        // Huge radius, small separation: near certain.
        assert!(est.probability(1.0, 1000.0) > 0.999);
        // Tiny radius, huge separation: near impossible.
        assert!(est.probability(1000.0, 1.0) < 1e-3);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = ReachEstimator::new(Epsilon::new(0.7), 1000, 42);
        let b = ReachEstimator::new(Epsilon::new(0.7), 1000, 42);
        assert_eq!(a.probability(4.0, 6.0), b.probability(4.0, 6.0));
    }

    #[test]
    fn matches_direct_monte_carlo() {
        // Cross-check the cached estimator against fresh per-draw sampling.
        let eps = Epsilon::new(0.4);
        let est = ReachEstimator::new(eps, 20_000, 11);
        let mut rng = pombm_geom::seeded_rng(12, 0);
        let (sep, radius) = (5.0, 8.0);
        let n = 20_000;
        let direct = (0..n)
            .filter(|_| {
                let d = sample_noise_diff(eps, &mut rng);
                let dx = sep + d.x;
                (dx * dx + d.y * d.y).sqrt() <= radius
            })
            .count() as f64
            / n as f64;
        let cached = est.probability(sep, radius);
        assert!(
            (direct - cached).abs() < 0.02,
            "direct {direct} vs cached {cached}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_samples_rejected() {
        let _ = ReachEstimator::new(Epsilon::new(1.0), 0, 0);
    }

    #[test]
    fn table_tracks_estimator() {
        let eps = Epsilon::new(0.5);
        let est = ReachEstimator::new(eps, 8000, 5);
        let table = ReachTable::build(&est, 100.0, 30.0, 200, 60);
        for (sep, rad) in [(0.0, 5.0), (3.3, 12.7), (20.0, 15.0), (60.0, 29.0)] {
            let direct = est.probability(sep, rad);
            let interp = ReachProbability::probability(&table, sep, rad);
            assert!(
                (direct - interp).abs() < 0.03,
                "sep {sep} rad {rad}: direct {direct} vs table {interp}"
            );
        }
    }

    #[test]
    fn table_clamps_out_of_range_queries() {
        let eps = Epsilon::new(0.5);
        let est = ReachEstimator::new(eps, 2000, 6);
        let table = ReachTable::build(&est, 50.0, 20.0, 64, 32);
        // Beyond max separation: clamps to border value (≈ 0 here).
        let far = ReachProbability::probability(&table, 500.0, 10.0);
        assert!(far <= ReachProbability::probability(&table, 50.0, 10.0) + 1e-12);
        // Beyond max radius: clamps to the widest-radius row.
        let wide = ReachProbability::probability(&table, 5.0, 100.0);
        assert!((0.0..=1.0).contains(&wide));
    }

    #[test]
    fn table_is_monotone_like_the_estimator() {
        let eps = Epsilon::new(0.8);
        let table = ReachTable::with_defaults(eps, 80.0, 25.0, 9);
        let mut prev = 1.0;
        for sep in [0.0, 5.0, 10.0, 20.0, 40.0, 79.0] {
            let p = ReachProbability::probability(&table, sep, 15.0);
            assert!(p <= prev + 0.02, "sep {sep}: {p} > {prev}");
            prev = p;
        }
    }
}
