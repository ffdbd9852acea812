//! Timed arrival streams.
//!
//! An [`ArrivalProcess`] lays task arrival timestamps out over a service
//! window — Poisson or evenly spaced — as the `task_times` of a
//! caller-built timeline for [`crate::run_dynamic_spec`] and its
//! clairvoyant oracle.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How task arrival times are laid out over the service window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson process: exponential inter-arrival gaps with the given rate
    /// (tasks per second). The realistic model for ride requests.
    Poisson {
        /// Expected arrivals per second.
        rate: f64,
    },
    /// Evenly spaced arrivals across a window of the given length.
    Uniform {
        /// Total window length in seconds.
        window_secs: f64,
    },
}

impl ArrivalProcess {
    /// Generates non-decreasing arrival timestamps (seconds from stream
    /// start) for `count` tasks.
    pub fn timestamps<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<f64> {
        match self {
            ArrivalProcess::Poisson { rate } => {
                assert!(*rate > 0.0, "rate must be positive");
                let mut t = 0.0;
                (0..count)
                    .map(|_| {
                        // Inverse-CDF exponential gap.
                        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                        t += -u.ln() / rate;
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Uniform { window_secs } => {
                assert!(*window_secs >= 0.0, "window must be non-negative");
                if count <= 1 {
                    return vec![0.0; count];
                }
                (0..count)
                    .map(|i| window_secs * i as f64 / (count - 1) as f64)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::seeded_rng;

    #[test]
    fn poisson_timestamps_are_increasing_with_right_rate() {
        let mut rng = seeded_rng(2, 0);
        let ts = ArrivalProcess::Poisson { rate: 10.0 }.timestamps(5000, &mut rng);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // 5000 arrivals at 10/s: span ≈ 500 s.
        let span = *ts.last().unwrap();
        assert!((span - 500.0).abs() < 30.0, "span {span}");
    }

    #[test]
    fn uniform_timestamps_are_evenly_spaced() {
        let mut rng = seeded_rng(3, 0);
        let ts = ArrivalProcess::Uniform { window_secs: 90.0 }.timestamps(10, &mut rng);
        assert_eq!(ts[0], 0.0);
        assert_eq!(*ts.last().unwrap(), 90.0);
        let gap = ts[1] - ts[0];
        assert!(ts.windows(2).all(|w| (w[1] - w[0] - gap).abs() < 1e-9));
    }

    #[test]
    fn degenerate_counts() {
        let mut rng = seeded_rng(4, 0);
        assert!(ArrivalProcess::Poisson { rate: 1.0 }
            .timestamps(0, &mut rng)
            .is_empty());
        assert_eq!(
            ArrivalProcess::Uniform { window_secs: 10.0 }.timestamps(1, &mut rng),
            vec![0.0]
        );
    }
}
