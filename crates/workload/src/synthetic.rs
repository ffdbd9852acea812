//! Synthetic Normal workloads (Table II).

use crate::instance::Instance;
use crate::params::SyntheticParams;
use pombm_geom::{Point, Rect};
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Draws per point that [`try_generate`]'s rejection sampler makes before
/// it gives up (2²⁰). A location distribution that puts probability `p`
/// inside the workspace hits the cap with chance `(1 - p)^(2²⁰)`, below
/// `e⁻¹⁰⁰` for `p ≥ 10⁻⁴` (µ up to about 2.3σ past the square's edge on
/// both axes), so a µ that places points near the square never hits it in
/// practice, while a µ far outside it fails within about 0.1 s
/// instead of looping forever.
pub const MAX_DRAWS_PER_POINT: usize = 1 << 20;

/// Why [`try_generate`] cannot produce an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyntheticError {
    /// The mean µ is not finite.
    InvalidMu(f64),
    /// The standard deviation σ is not positive and finite.
    InvalidSigma(f64),
    /// [`MAX_DRAWS_PER_POINT`] draws of `N(µ, σ²)` all fell outside the
    /// workspace.
    OutOfReach {
        /// The mean µ.
        mu: f64,
        /// The standard deviation σ.
        sigma: f64,
    },
}

impl std::fmt::Display for SyntheticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyntheticError::InvalidMu(mu) => {
                write!(f, "invalid mu {mu:?}: the mean must be finite")
            }
            SyntheticError::InvalidSigma(sigma) => write!(
                f,
                "invalid sigma {sigma:?}: the standard deviation must be positive and finite"
            ),
            SyntheticError::OutOfReach { mu, sigma } => write!(
                f,
                "N(mu = {mu:?}, sigma = {sigma:?}) put none of {MAX_DRAWS_PER_POINT} draws inside \
                 the {side} x {side} workspace",
                side = SyntheticParams::SPACE_SIDE
            ),
        }
    }
}

impl std::error::Error for SyntheticError {}

/// Generates a synthetic instance per Table II: tasks and workers drawn
/// i.i.d. from `N(µ, σ²)` per axis inside the 200 × 200 space, rejection-
/// sampled into the region (resampling rather than clamping avoids the
/// boundary atom a clamp would create).
///
/// A non-finite µ, a σ that is not positive and finite, or a point for
/// which [`MAX_DRAWS_PER_POINT`] draws all miss the space is a typed
/// [`SyntheticError`].
pub fn try_generate<R: Rng + ?Sized>(
    params: &SyntheticParams,
    rng: &mut R,
) -> Result<Instance, SyntheticError> {
    let (mu, sigma) = (params.mu, params.sigma);
    if !mu.is_finite() {
        return Err(SyntheticError::InvalidMu(mu));
    }
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(SyntheticError::InvalidSigma(sigma));
    }
    let normal = Normal::new(mu, sigma).expect("mu finite, sigma positive and finite");
    let region = Rect::square(SyntheticParams::SPACE_SIDE);
    let out_of_reach = SyntheticError::OutOfReach { mu, sigma };
    let tasks = sample_points(params.num_tasks, &normal, &region, rng).ok_or(out_of_reach)?;
    let workers = sample_points(params.num_workers, &normal, &region, rng).ok_or(out_of_reach)?;
    Ok(Instance::new(region, tasks, workers))
}

/// [`try_generate`] for parameters known to be valid, such as the Table II
/// grids.
///
/// # Panics
///
/// Panics where [`try_generate`] returns an error.
pub fn generate<R: Rng + ?Sized>(params: &SyntheticParams, rng: &mut R) -> Instance {
    try_generate(params, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Generates the case-study variant: the same instance plus uniform
/// reachable radii from [`SyntheticParams::REACH_RADIUS`].
pub fn generate_with_radii<R: Rng + ?Sized>(params: &SyntheticParams, rng: &mut R) -> Instance {
    let (lo, hi) = SyntheticParams::REACH_RADIUS;
    generate(params, rng).with_uniform_radii(lo, hi, rng)
}

/// `count` points rejection-sampled into `region`; `None` when some point
/// misses it [`MAX_DRAWS_PER_POINT`] times in a row.
fn sample_points<R: Rng + ?Sized>(
    count: usize,
    normal: &Normal<f64>,
    region: &Rect,
    rng: &mut R,
) -> Option<Vec<Point>> {
    // Sized up front: collecting into `Option<Vec>` would lose the exact
    // size hint, and doubling growth raises peak memory on large instances.
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        let p = (0..MAX_DRAWS_PER_POINT)
            .map(|_| Point::new(normal.sample(rng), normal.sample(rng)))
            .find(|p| region.contains(p))?;
        points.push(p);
    }
    Some(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::seeded_rng;

    #[test]
    fn default_instance_shape() {
        let mut rng = seeded_rng(1, 0);
        let inst = generate(&SyntheticParams::default(), &mut rng);
        assert_eq!(inst.num_tasks(), 3000);
        assert_eq!(inst.num_workers(), 5000);
        inst.validate().unwrap();
    }

    #[test]
    fn sample_mean_tracks_mu() {
        let mut rng = seeded_rng(2, 0);
        let params = SyntheticParams {
            mu: 75.0,
            sigma: 10.0,
            num_tasks: 5000,
            num_workers: 10,
        };
        let inst = generate(&params, &mut rng);
        let mean_x: f64 = inst.tasks.iter().map(|p| p.x).sum::<f64>() / inst.tasks.len() as f64;
        let mean_y: f64 = inst.tasks.iter().map(|p| p.y).sum::<f64>() / inst.tasks.len() as f64;
        // σ = 10, n = 5000: standard error ≈ 0.14; allow 1.0.
        assert!((mean_x - 75.0).abs() < 1.0, "mean_x {mean_x}");
        assert!((mean_y - 75.0).abs() < 1.0, "mean_y {mean_y}");
    }

    #[test]
    fn sample_spread_tracks_sigma() {
        let mut rng = seeded_rng(3, 0);
        let params = SyntheticParams {
            sigma: 25.0,
            num_tasks: 5000,
            num_workers: 10,
            ..SyntheticParams::default()
        };
        let inst = generate(&params, &mut rng);
        let mean: f64 = inst.tasks.iter().map(|p| p.x).sum::<f64>() / inst.tasks.len() as f64;
        let var: f64 =
            inst.tasks.iter().map(|p| (p.x - mean).powi(2)).sum::<f64>() / inst.tasks.len() as f64;
        let sd = var.sqrt();
        assert!((sd - 25.0).abs() < 2.0, "sd {sd}");
    }

    #[test]
    fn edge_mu_stays_in_region() {
        // µ = 150 with σ = 30 pushes mass toward the boundary; rejection
        // sampling must keep everything inside.
        let mut rng = seeded_rng(4, 0);
        let params = SyntheticParams {
            mu: 150.0,
            sigma: 30.0,
            num_tasks: 2000,
            num_workers: 2000,
        };
        let inst = generate(&params, &mut rng);
        inst.validate().unwrap();
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        let with = |mu, sigma| SyntheticParams {
            mu,
            sigma,
            num_tasks: 3,
            num_workers: 3,
        };
        let mut rng = seeded_rng(6, 0);
        for mu in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = try_generate(&with(mu, 20.0), &mut rng).unwrap_err();
            assert!(matches!(err, SyntheticError::InvalidMu(_)), "{err}");
        }
        for sigma in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let err = try_generate(&with(100.0, sigma), &mut rng).unwrap_err();
            assert!(matches!(err, SyntheticError::InvalidSigma(_)), "{err}");
        }
        assert_eq!(
            try_generate(&with(1e308, 20.0), &mut rng).unwrap_err(),
            SyntheticError::OutOfReach {
                mu: 1e308,
                sigma: 20.0
            }
        );
        // Far but reachable: about 1 draw in 26 000 lands, well inside the cap.
        try_generate(&with(-50.0, 20.0), &mut rng)
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn radii_variant_attaches_radii() {
        let mut rng = seeded_rng(5, 0);
        let params = SyntheticParams {
            num_tasks: 10,
            num_workers: 20,
            ..SyntheticParams::default()
        };
        let inst = generate_with_radii(&params, &mut rng);
        let radii = inst.radii.as_ref().unwrap();
        assert_eq!(radii.len(), 20);
        assert!(radii.iter().all(|r| (10.0..=20.0).contains(r)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = SyntheticParams {
            num_tasks: 50,
            num_workers: 50,
            ..SyntheticParams::default()
        };
        let a = generate(&params, &mut seeded_rng(9, 0));
        let b = generate(&params, &mut seeded_rng(9, 0));
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.workers, b.workers);
    }
}
