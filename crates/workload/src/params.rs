//! Parameter grids of the paper's evaluation (Tables II and III).

use serde::{Deserialize, Serialize};

/// Table II: synthetic-data settings.
///
/// The paper marks its defaults in bold in the PDF; bolding does not survive
/// text extraction, so this reproduction uses the mid-values of each range
/// as defaults (|T| = 3000, |W| = 5000, µ = 100, σ = 20, ε = 0.6). The
/// fields are what the generator reads; ε, which only the mechanisms read,
/// is swept through [`SyntheticParams::EPSILONS`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticParams {
    /// Number of tasks |T|.
    pub num_tasks: usize,
    /// Number of workers |W|.
    pub num_workers: usize,
    /// Mean µ of the Normal location distribution (both axes).
    pub mu: f64,
    /// Standard deviation σ of the Normal location distribution.
    pub sigma: f64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            num_tasks: 3000,
            num_workers: 5000,
            mu: 100.0,
            sigma: 20.0,
        }
    }
}

impl SyntheticParams {
    /// Side length of the synthetic workspace (200 × 200).
    pub const SPACE_SIDE: f64 = 200.0;

    /// The |T| sweep of Table II.
    pub const TASK_COUNTS: [usize; 5] = [1000, 2000, 3000, 4000, 5000];
    /// The |W| sweep of Table II.
    pub const WORKER_COUNTS: [usize; 5] = [3000, 4000, 5000, 6000, 7000];
    /// The µ sweep of Table II.
    pub const MUS: [f64; 5] = [50.0, 75.0, 100.0, 125.0, 150.0];
    /// The σ sweep of Table II.
    pub const SIGMAS: [f64; 5] = [10.0, 15.0, 20.0, 25.0, 30.0];
    /// The ε sweep of Table II.
    pub const EPSILONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
    /// The scalability sweep (|T| = |W|) of Table II.
    pub const SCALABILITY: [usize; 5] = [20_000, 40_000, 60_000, 80_000, 100_000];

    /// Case-study reachable-radius range for synthetic data (Sec. IV-C).
    pub const REACH_RADIUS: (f64, f64) = (10.0, 20.0);
}

/// Table III: real-data settings, reproduced against the Chengdu-like
/// trace of [`crate::chengdu`] because the Didi data is not
/// redistributable. Lengths are in meters, the city model's unit; a
/// generated day is in [`crate::chengdu::UNIT_METERS`] units. The defaults
/// are the mid-values of the sweeps (|W| = 8000, ε = 0.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealParams;

impl RealParams {
    /// Side length of the real-data region (10 km, in meters).
    pub const SPACE_SIDE: f64 = 10_000.0;

    /// Number of simulated days (the paper evaluates Nov 2016's 30 days).
    pub const NUM_DAYS: usize = 30;
    /// Task-count range per peak-hour day (4,245–5,034 in the real data).
    pub const TASKS_PER_DAY: (usize, usize) = (4245, 5034);
    /// The |W| sweep of Table III.
    pub const WORKER_COUNTS: [usize; 5] = [6000, 7000, 8000, 9000, 10000];
    /// The ε sweep of Table III.
    pub const EPSILONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

    /// Case-study reachable-radius range for real data, in meters.
    pub const REACH_RADIUS: (f64, f64) = (500.0, 1000.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_mid_values() {
        let p = SyntheticParams::default();
        assert_eq!(p.num_tasks, SyntheticParams::TASK_COUNTS[2]);
        assert_eq!(p.num_workers, SyntheticParams::WORKER_COUNTS[2]);
        assert_eq!(p.mu, SyntheticParams::MUS[2]);
        assert_eq!(p.sigma, SyntheticParams::SIGMAS[2]);
    }

    #[test]
    fn default_worker_count_covers_tasks() {
        // The paper always has |W| >= |T| in the default setting so every
        // task can be matched.
        let p = SyntheticParams::default();
        assert!(p.num_workers >= p.num_tasks);
        assert!(RealParams::WORKER_COUNTS[2] >= RealParams::TASKS_PER_DAY.1);
    }

    #[test]
    fn sweeps_are_sorted() {
        assert!(SyntheticParams::TASK_COUNTS.windows(2).all(|w| w[0] < w[1]));
        assert!(SyntheticParams::EPSILONS.windows(2).all(|w| w[0] < w[1]));
        assert!(RealParams::WORKER_COUNTS.windows(2).all(|w| w[0] < w[1]));
    }
}
