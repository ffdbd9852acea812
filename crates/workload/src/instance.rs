//! Problem instances: the input to one experiment run.

use pombm_geom::{Point, Rect};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Why an [`Instance`] failed [`Instance::validate`].
///
/// Typed so callers can match on the defect instead of parsing a message;
/// the [`std::fmt::Display`] texts are the exact strings the stringly
/// predecessor produced, so user-facing errors are unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// A task coordinate is non-finite or outside the region.
    TaskOutsideRegion {
        /// Arrival index of the offending task.
        index: usize,
        /// Its recorded location.
        location: Point,
    },
    /// A worker coordinate is non-finite or outside the region.
    WorkerOutsideRegion {
        /// Index of the offending worker.
        index: usize,
        /// Its recorded location.
        location: Point,
    },
    /// `radii` is present but its length differs from the worker count.
    RadiusCountMismatch {
        /// Number of radii recorded.
        radii: usize,
        /// Number of workers recorded.
        workers: usize,
    },
    /// A reachable radius is non-finite or negative.
    InvalidRadius {
        /// Index of the offending radius.
        index: usize,
        /// Its recorded value.
        radius: f64,
    },
    /// The region's `width² + height²` is not a finite `f64`, so distances
    /// across it would be infinite.
    RegionTooLarge {
        /// The region's width.
        width: f64,
        /// The region's height.
        height: f64,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::TaskOutsideRegion { index, location } => {
                write!(f, "task {index} at {location} outside region")
            }
            InstanceError::WorkerOutsideRegion { index, location } => {
                write!(f, "worker {index} at {location} outside region")
            }
            InstanceError::RadiusCountMismatch { .. } => f.write_str("radius count mismatch"),
            InstanceError::InvalidRadius { radius, .. } => {
                write!(f, "invalid radius {radius}")
            }
            InstanceError::RegionTooLarge { width, height } => write!(
                f,
                "region {width:e} x {height:e} too large: its squared diagonal overflows f64"
            ),
        }
    }
}

impl std::error::Error for InstanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Validation failures are leaf defects of the instance data itself;
        // there is no underlying cause to chain.
        None
    }
}

/// One POMBM problem instance: a region, a set of workers known upfront, and
/// a sequence of tasks in arrival order.
///
/// The competitive-ratio definition (Definition 8) uses the *random order
/// model*; [`Instance::shuffle_tasks`] re-randomizes the arrival order for
/// repeated trials.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    /// The workspace region (used for clamping obfuscated points and sizing
    /// indexes).
    pub region: Rect,
    /// Task locations in arrival order.
    pub tasks: Vec<Point>,
    /// Worker locations (registered before any task arrives).
    pub workers: Vec<Point>,
    /// Reachable radii, one per worker; `None` outside the case study.
    pub radii: Option<Vec<f64>>,
}

impl Instance {
    /// Creates an instance without radii.
    pub fn new(region: Rect, tasks: Vec<Point>, workers: Vec<Point>) -> Self {
        Instance {
            region,
            tasks,
            workers,
            radii: None,
        }
    }

    /// Attaches uniformly drawn reachable radii in `[lo, hi]` (the case
    /// study draws U[10, 20] for synthetic data and U[500, 1000] m for the
    /// real data).
    pub fn with_uniform_radii<R: Rng + ?Sized>(mut self, lo: f64, hi: f64, rng: &mut R) -> Self {
        assert!(lo <= hi && lo >= 0.0, "invalid radius range [{lo}, {hi}]");
        self.radii = Some(
            (0..self.workers.len())
                .map(|_| rng.gen_range(lo..=hi))
                .collect(),
        );
        self
    }

    /// Number of tasks `m = |T|`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers `n = |W|`.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The matching size bound `k = min(n, m)`.
    pub fn k(&self) -> usize {
        self.tasks.len().min(self.workers.len())
    }

    /// Shuffles the task arrival order in place (random order model).
    pub fn shuffle_tasks<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.tasks.shuffle(rng);
    }

    /// Returns a copy with all coordinates (region, locations, radii)
    /// multiplied by `factor`.
    ///
    /// Used to normalize the Chengdu-like trace (meters over 10 km) into the
    /// same unit scale as the synthetic 200 × 200 space, so a given ε means
    /// the same privacy level on both datasets (factor 1/50: 50 m per unit).
    pub fn scaled(&self, factor: f64) -> Instance {
        assert!(factor.is_finite() && factor > 0.0, "scale must be positive");
        let scale_point = |p: &Point| Point::new(p.x * factor, p.y * factor);
        Instance {
            region: Rect::new(
                self.region.min_x * factor,
                self.region.min_y * factor,
                self.region.max_x * factor,
                self.region.max_y * factor,
            ),
            tasks: self.tasks.iter().map(scale_point).collect(),
            workers: self.workers.iter().map(scale_point).collect(),
            radii: self
                .radii
                .as_ref()
                .map(|r| r.iter().map(|x| x * factor).collect()),
        }
    }

    /// Validates that the region's squared diagonal is finite, every
    /// coordinate is finite and inside the region, and radii (if any) are
    /// positive and one-per-worker.
    pub fn validate(&self) -> Result<(), InstanceError> {
        let (width, height) = (self.region.width(), self.region.height());
        if !(width * width + height * height).is_finite() {
            return Err(InstanceError::RegionTooLarge { width, height });
        }
        for (i, p) in self.tasks.iter().enumerate() {
            if !p.is_finite() || !self.region.contains(p) {
                return Err(InstanceError::TaskOutsideRegion {
                    index: i,
                    location: *p,
                });
            }
        }
        for (i, p) in self.workers.iter().enumerate() {
            if !p.is_finite() || !self.region.contains(p) {
                return Err(InstanceError::WorkerOutsideRegion {
                    index: i,
                    location: *p,
                });
            }
        }
        if let Some(r) = &self.radii {
            if r.len() != self.workers.len() {
                return Err(InstanceError::RadiusCountMismatch {
                    radii: r.len(),
                    workers: self.workers.len(),
                });
            }
            if let Some((i, bad)) = r
                .iter()
                .enumerate()
                .find(|(_, x)| !x.is_finite() || **x < 0.0)
            {
                return Err(InstanceError::InvalidRadius {
                    index: i,
                    radius: *bad,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::seeded_rng;

    fn small() -> Instance {
        Instance::new(
            Rect::square(10.0),
            vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)],
            vec![Point::new(3.0, 3.0)],
        )
    }

    #[test]
    fn counts_and_k() {
        let i = small();
        assert_eq!(i.num_tasks(), 2);
        assert_eq!(i.num_workers(), 1);
        assert_eq!(i.k(), 1);
        i.validate().unwrap();
    }

    #[test]
    fn radii_are_in_range() {
        let mut rng = seeded_rng(1, 0);
        let i = small().with_uniform_radii(10.0, 20.0, &mut rng);
        for r in i.radii.as_ref().unwrap() {
            assert!((10.0..=20.0).contains(r));
        }
        i.validate().unwrap();
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = seeded_rng(2, 0);
        let mut i = Instance::new(
            Rect::square(100.0),
            (0..50).map(|k| Point::new(k as f64, 0.0)).collect(),
            vec![],
        );
        let mut before: Vec<_> = i.tasks.iter().map(|p| p.x as i64).collect();
        i.shuffle_tasks(&mut rng);
        let mut after: Vec<_> = i.tasks.iter().map(|p| p.x as i64).collect();
        assert_ne!(before, after, "shuffle should change the order");
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn validate_catches_out_of_region() {
        let i = Instance::new(Rect::square(1.0), vec![Point::new(5.0, 5.0)], vec![]);
        assert!(i.validate().is_err());
    }

    #[test]
    fn validate_errors_are_typed_with_legacy_messages() {
        let task = Instance::new(Rect::square(1.0), vec![Point::new(5.0, 5.0)], vec![]);
        let err = task.validate().unwrap_err();
        assert_eq!(
            err,
            InstanceError::TaskOutsideRegion {
                index: 0,
                location: Point::new(5.0, 5.0),
            }
        );
        assert!(err.to_string().contains("task 0 at"));
        assert!(err.to_string().ends_with("outside region"));
        assert!(std::error::Error::source(&err).is_none());

        let worker = Instance::new(Rect::square(1.0), vec![], vec![Point::new(-3.0, 0.5)]);
        assert!(matches!(
            worker.validate().unwrap_err(),
            InstanceError::WorkerOutsideRegion { index: 0, .. }
        ));

        let mut mismatch = small();
        mismatch.radii = Some(vec![1.0, 2.0]);
        let err = mismatch.validate().unwrap_err();
        assert_eq!(
            err,
            InstanceError::RadiusCountMismatch {
                radii: 2,
                workers: 1,
            }
        );
        assert_eq!(err.to_string(), "radius count mismatch");

        let mut bad = small();
        bad.radii = Some(vec![-1.0]);
        let err = bad.validate().unwrap_err();
        assert_eq!(
            err,
            InstanceError::InvalidRadius {
                index: 0,
                radius: -1.0,
            }
        );
        assert_eq!(err.to_string(), "invalid radius -1");
    }

    #[test]
    fn validate_rejects_a_region_whose_diagonal_overflows() {
        let inside = vec![Point::new(1.0, 1.0)];
        Instance::new(Rect::square(1e150), inside.clone(), vec![])
            .validate()
            .unwrap();
        let err = Instance::new(Rect::square(1e155), inside, vec![])
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            InstanceError::RegionTooLarge {
                width: 1e155,
                height: 1e155,
            }
        );
        assert_eq!(
            err.to_string(),
            "region 1e155 x 1e155 too large: its squared diagonal overflows f64"
        );
    }

    #[test]
    fn scaled_rescales_everything() {
        let mut rng = seeded_rng(6, 0);
        let i = small().with_uniform_radii(10.0, 20.0, &mut rng);
        let s = i.scaled(0.1);
        assert_eq!(s.region.max_x, 1.0);
        assert_eq!(s.tasks[0], Point::new(0.1, 0.1));
        let r0 = i.radii.as_ref().unwrap()[0];
        assert!((s.radii.as_ref().unwrap()[0] - r0 * 0.1).abs() < 1e-12);
        s.validate().unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = seeded_rng(3, 0);
        let i = small().with_uniform_radii(1.0, 2.0, &mut rng);
        let json = serde_json::to_string(&i).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tasks.len(), i.tasks.len());
        assert_eq!(back.radii.unwrap().len(), 1);
    }
}
