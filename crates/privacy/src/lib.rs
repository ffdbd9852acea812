#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "unit tests produce no compared output"
    )
)]

//! ε-Geo-Indistinguishable privacy mechanisms for spatial crowdsourcing.
//!
//! This crate implements both sides of the paper's comparison:
//!
//! * [`HstMechanism`] — the paper's contribution: obfuscation of HST leaves
//!   with probabilities `M(x)(z) = wt_{lvl(lca(x,z))} / WT` where
//!   `wt_i = exp(ε·(4 − 2^{i+2}))`. Two implementations produce the same
//!   distribution: the naive `O(c^D)` enumeration of Alg. 2 and the `O(D)`
//!   random walk of Alg. 3.
//! * [`PlanarLaplace`] — the widely used planar Laplace mechanism of Andrés
//!   et al. (CCS'13), the privacy layer of the Lap-GR / Lap-HG / Prob
//!   baselines.
//! * [`ReachEstimator`] and [`reach::ReachTable`] — the reachability
//!   probabilities behind the Prob baseline of the paper's case study (To
//!   et al., ICDE'18 style). The case study queries the table, which is
//!   built once per run from the estimator's Monte-Carlo sample.
//! * [`ExponentialMechanism`] — the exponential mechanism over the
//!   predefined points; the ablation separating "discretize to the grid"
//!   from "use the tree" (same output domain as TBF, no HST).
//! * [`geo_i`] — exact and statistical verification that a mechanism
//!   satisfies ε-Geo-Indistinguishability (Definition 7).

//! # Example
//!
//! ```
//! use pombm_geom::{seeded_rng, Grid, Rect};
//! use pombm_hst::Hst;
//! use pombm_privacy::{Epsilon, HstMechanism};
//!
//! let points = Grid::square(Rect::square(100.0), 4).to_point_set();
//! let mut rng = seeded_rng(1, 0);
//! let hst = Hst::build(&points, &mut rng);
//!
//! // The paper's mechanism: obfuscate a leaf with the O(D) random walk.
//! let mech = HstMechanism::new(&hst, Epsilon::new(0.6));
//! let x = hst.leaf_of(5);
//! let z = mech.obfuscate(&hst, x, &mut rng);
//! assert!(hst.ctx().contains(z), "output is a leaf of the complete tree");
//!
//! // Exact probabilities are available for auditing (Theorem 1).
//! let p: f64 = (0..hst.num_leaves())
//!     .map(|v| mech.probability(&hst, x, pombm_hst::LeafCode(v)))
//!     .sum();
//! assert!((p - 1.0).abs() < 1e-9);
//! ```

pub mod alias;
pub mod batch;
pub mod budget;
pub mod exponential;
pub mod geo_i;
pub mod hst_mechanism;
pub mod laplace;
pub mod reach;
pub mod weights;

pub use alias::AliasTable;
pub use exponential::ExponentialMechanism;
pub use hst_mechanism::HstMechanism;
pub use laplace::PlanarLaplace;
pub use reach::ReachEstimator;
pub use weights::WeightTable;

/// A privacy budget ε > 0 (Definition 7).
///
/// The budget is interpreted per unit of distance *in the metric the
/// mechanism operates on*: Euclidean units for [`PlanarLaplace`], tree units
/// for [`HstMechanism`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Wraps a budget, validating it is finite and strictly positive.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value > 0.0,
            "privacy budget must be a positive finite number, got {value}"
        );
        Epsilon(value)
    }

    /// The raw budget value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl From<f64> for Epsilon {
    fn from(v: f64) -> Self {
        Epsilon::new(v)
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_accepts_positive() {
        assert_eq!(Epsilon::new(0.2).value(), 0.2);
        assert_eq!(Epsilon::from(1.0).value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn epsilon_rejects_zero() {
        let _ = Epsilon::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn epsilon_rejects_nan() {
        let _ = Epsilon::new(f64::NAN);
    }

    #[test]
    fn epsilon_displays() {
        assert_eq!(Epsilon::new(0.5).to_string(), "ε=0.5");
    }
}
