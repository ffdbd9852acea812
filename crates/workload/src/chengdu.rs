//! Chengdu-like trace generator: the substitute for the Didi GAIA dataset.
//!
//! The paper's real experiments use trip records from Chengdu (Nov 2016):
//! task locations are passenger pickup origins in a 10 km × 10 km region
//! during the 14:00–14:30 peak half-hour, 4,245–5,034 tasks per day over 30
//! days. That dataset is licensed and not redistributable, so this module
//! generates a *city model* with the statistical features that matter to the
//! algorithms under test:
//!
//! * **Spatial clustering** — ride demand concentrates around hotspots
//!   (business districts, stations). Tasks are drawn from a mixture of
//!   anisotropic Gaussian hotspots plus a uniform background.
//! * **Day-to-day variation** — hotspot weights and task counts vary per
//!   day around a fixed city layout (same seed ⇒ same city).
//! * **Worker dispersion** — drivers are spread more evenly than demand: a
//!   flatter mixture of the same hotspots plus a heavier uniform component.
//!
//! The city model works in meters; every generated day is returned in
//! [`UNIT_METERS`] units, so the 10 km region is the synthetic workloads'
//! 200 × 200 space and a given ε is the same budget per unit on both.
//!
//! Absolute distances will not match the paper's plots, but the relative
//! behaviour of the compared mechanisms — which is all the evaluation
//! interprets — is preserved.

use crate::instance::Instance;
use crate::params::RealParams;
use pombm_geom::{seeded_rng, Point, Rect};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Meters per workspace unit of a generated day (10 km → 200 units).
pub const UNIT_METERS: f64 = 50.0;

/// A demand hotspot: an anisotropic Gaussian cluster.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Hotspot {
    /// Cluster center.
    pub center: Point,
    /// Standard deviation along x, in meters.
    pub sd_x: f64,
    /// Standard deviation along y, in meters.
    pub sd_y: f64,
    /// Relative demand weight (unnormalized).
    pub weight: f64,
}

/// A fixed city layout from which all 30 days are sampled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CityModel {
    /// The 10 km × 10 km region.
    pub region: Rect,
    /// Demand hotspots.
    pub hotspots: Vec<Hotspot>,
    /// Fraction of tasks drawn from the uniform background (the rest come
    /// from hotspots).
    pub task_background: f64,
    /// Fraction of workers drawn from the uniform background.
    pub worker_background: f64,
}

impl CityModel {
    /// Default number of hotspots in the generated city.
    pub const DEFAULT_HOTSPOTS: usize = 8;

    /// Builds a deterministic city for `seed`: hotspot centers biased toward
    /// the middle of the region (as city centers are), sizes 300–900 m.
    pub fn generate(seed: u64) -> Self {
        let mut rng = seeded_rng(seed, 0xC17F);
        let side = RealParams::SPACE_SIDE;
        let region = Rect::square(side);
        let hotspots = (0..Self::DEFAULT_HOTSPOTS)
            .map(|_| {
                // Average two uniforms per axis to bias toward the center.
                let cx = (rng.gen::<f64>() + rng.gen::<f64>()) / 2.0 * side;
                let cy = (rng.gen::<f64>() + rng.gen::<f64>()) / 2.0 * side;
                Hotspot {
                    center: Point::new(cx, cy),
                    sd_x: rng.gen_range(300.0..900.0),
                    sd_y: rng.gen_range(300.0..900.0),
                    weight: rng.gen_range(0.5..2.0),
                }
            })
            .collect();
        CityModel {
            region,
            hotspots,
            task_background: 0.2,
            worker_background: 0.5,
        }
    }

    /// Samples one location from the mixture with the given background
    /// fraction, rejection-sampled into the region.
    ///
    /// `weights` are unnormalized per-hotspot demand weights (one per
    /// [`CityModel::hotspots`] entry); with probability `background` the
    /// point comes from the uniform background instead. Public so scenario
    /// generators outside this crate can place points on the city's
    /// hotspot structure without replaying a whole [`generate_day`].
    pub fn sample<R: Rng + ?Sized>(&self, background: f64, weights: &[f64], rng: &mut R) -> Point {
        loop {
            let p = if rng.gen::<f64>() < background {
                Point::new(
                    rng.gen::<f64>() * self.region.width() + self.region.min_x,
                    rng.gen::<f64>() * self.region.height() + self.region.min_y,
                )
            } else {
                let h = &self.hotspots[pick_weighted(weights, rng)];
                let nx = Normal::new(h.center.x, h.sd_x).expect("valid sd");
                let ny = Normal::new(h.center.y, h.sd_y).expect("valid sd");
                Point::new(nx.sample(rng), ny.sample(rng))
            };
            if self.region.contains(&p) {
                return p;
            }
        }
    }
}

/// Samples an index proportional to `weights`.
fn pick_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Generates the instance for one simulated day, in [`UNIT_METERS`] units.
///
/// The day index perturbs hotspot weights (±50%) and draws the task count
/// uniformly from the paper's reported per-day range. Worker locations are
/// drawn from the flatter worker mixture; `num_workers` comes from the
/// Table III sweep. Deterministic in `(city seed, day, num_workers)`.
pub fn generate_day(city: &CityModel, day: usize, num_workers: usize, seed: u64) -> Instance {
    day_in_meters(city, day, num_workers, seed).scaled(1.0 / UNIT_METERS)
}

/// Case-study variant of [`generate_day`] with U[500, 1000] m radii, drawn
/// in meters and returned in [`UNIT_METERS`] units with the day.
pub fn generate_day_with_radii(
    city: &CityModel,
    day: usize,
    num_workers: usize,
    seed: u64,
) -> Instance {
    let mut rng = seeded_rng(seed, 0xBEEF + day as u64);
    let (lo, hi) = RealParams::REACH_RADIUS;
    day_in_meters(city, day, num_workers, seed)
        .with_uniform_radii(lo, hi, &mut rng)
        .scaled(1.0 / UNIT_METERS)
}

/// [`generate_day`] before the rescale: the city model's meters.
fn day_in_meters(city: &CityModel, day: usize, num_workers: usize, seed: u64) -> Instance {
    assert!(day < RealParams::NUM_DAYS, "day out of range");
    let mut rng = seeded_rng(seed, 0xDA7 + day as u64);
    let (lo, hi) = RealParams::TASKS_PER_DAY;
    let num_tasks = rng.gen_range(lo..=hi);

    // Per-day demand weights.
    let weights: Vec<f64> = city
        .hotspots
        .iter()
        .map(|h| h.weight * rng.gen_range(0.5..1.5))
        .collect();
    let tasks = (0..num_tasks)
        .map(|_| city.sample(city.task_background, &weights, &mut rng))
        .collect();
    // Workers use the base weights (supply adapts slower than demand).
    let base: Vec<f64> = city.hotspots.iter().map(|h| h.weight).collect();
    let workers = (0..num_workers)
        .map(|_| city.sample(city.worker_background, &base, &mut rng))
        .collect();
    Instance::new(city.region, tasks, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_is_deterministic() {
        let a = CityModel::generate(7);
        let b = CityModel::generate(7);
        assert_eq!(a.hotspots.len(), b.hotspots.len());
        for (x, y) in a.hotspots.iter().zip(&b.hotspots) {
            assert_eq!(x.center, y.center);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn day_instance_matches_table3_shape() {
        let city = CityModel::generate(1);
        let inst = generate_day(&city, 0, 8000, 1);
        let (lo, hi) = RealParams::TASKS_PER_DAY;
        assert!((lo..=hi).contains(&inst.num_tasks()));
        assert_eq!(inst.num_workers(), 8000);
        assert_eq!(inst.region, Rect::square(200.0), "the synthetic space");
        inst.validate().unwrap();
    }

    #[test]
    fn days_differ_but_are_reproducible() {
        let city = CityModel::generate(2);
        let d0 = generate_day(&city, 0, 1000, 2);
        let d1 = generate_day(&city, 1, 1000, 2);
        assert_ne!(d0.tasks[..10], d1.tasks[..10], "days must differ");
        let d0_again = generate_day(&city, 0, 1000, 2);
        assert_eq!(d0.tasks, d0_again.tasks);
    }

    #[test]
    fn tasks_are_more_clustered_than_workers() {
        // Average nearest-hotspot distance should be smaller for tasks than
        // for workers (workers have a heavier uniform background). The
        // city's hotspots are in meters, the day in units.
        let city = CityModel::generate(3);
        let inst = generate_day(&city, 5, 4000, 3);
        let centers: Vec<Point> = city
            .hotspots
            .iter()
            .map(|h| Point::new(h.center.x / UNIT_METERS, h.center.y / UNIT_METERS))
            .collect();
        let nearest_hotspot = |p: &Point| -> f64 {
            centers
                .iter()
                .map(|c| c.dist(p))
                .fold(f64::INFINITY, f64::min)
        };
        let avg = |pts: &[Point]| -> f64 {
            pts.iter().map(nearest_hotspot).sum::<f64>() / pts.len() as f64
        };
        let t = avg(&inst.tasks);
        let w = avg(&inst.workers);
        assert!(
            t < w,
            "tasks avg {t} should cluster tighter than workers {w}"
        );
    }

    #[test]
    fn radii_in_meter_range() {
        // U[500, 1000] m is U[10, 20] units.
        let city = CityModel::generate(4);
        let inst = generate_day_with_radii(&city, 2, 500, 4);
        for r in inst.radii.as_ref().unwrap() {
            assert!((10.0..=20.0).contains(r), "radius {r}");
        }
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut rng = seeded_rng(5, 0);
        let weights = [1.0, 9.0];
        let n = 20_000;
        let ones = (0..n)
            .filter(|_| pick_weighted(&weights, &mut rng) == 1)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn day_bound_enforced() {
        let city = CityModel::generate(0);
        let _ = generate_day(&city, 30, 10, 0);
    }
}
