//! Minimal offline stand-in for `rand_distr`: [`Distribution`] and
//! [`Normal`], which is all this workspace samples.

use rand::{Rng, RngCore};

/// A distribution over values of type `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Parameter-validation error for distribution constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error(&'static str);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

/// Normal (Gaussian) distribution sampled with the Box–Muller transform.
///
/// Box–Muller draws exactly two uniforms per sample (the spare is
/// discarded), so sampling is deterministic per seed without interior
/// mutability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<F = f64> {
    mean: F,
    std_dev: F,
}

impl Normal<f64> {
    /// Creates a Normal with the given mean and standard deviation.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if !(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0) {
            return Err(Error("Normal requires finite mean and std_dev >= 0"));
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal<f64> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // u1 in (0, 1] so the log is finite; u2 in [0, 1).
        let u1 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::from_seed([9; 32])
    }

    #[test]
    fn normal_moments_are_close() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok());
    }
}
