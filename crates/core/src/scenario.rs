//! Named spatial+temporal workload models — the third registry axis —
//! and the arrival-time and shift-plan derivations they rest on.
//!
//! The paper varies *workloads* as deliberately as it varies mechanisms:
//! Table II sweeps Normal synthetics, Table III replays the Chengdu trace.
//! A [`Scenario`] packages that axis as an object-safe trait — seedable
//! worker placement, task placement, and the demand curve feeding the
//! shift-plan machinery — catalogued in the [registry](crate::registry())
//! next to mechanisms and matchers, and threaded through every execution
//! surface: `run`, `ratio`, both sweep flavours, `dynamic`, and `serve`.
//! The registered scenarios are the variants of one enum, [`Workload`].
//!
//! # Determinism contract
//!
//! A scenario is a pure function of its seed arguments: the same
//! `(seed, size)` must produce byte-identical instances on every shard,
//! thread, partition, and machine. Derive every stream through
//! [`pombm_geom::seeded_rng`] with a scenario-specific tag and never touch
//! ambient state (`tests/scenario.rs` and the workspace's clippy lints
//! both enforce this).
//! The `uniform` scenario reproduces the pre-scenario derivations
//! bit-exactly, which is why every legacy golden fingerprint still holds.
//!
//! # Registered scenarios
//!
//! * `uniform` — the legacy default: Table II synthetics at the default
//!   µ/σ (N(100, 20²) on each axis), on the exact pre-scenario RNG
//!   streams; only its arrival times are uniform.
//! * `normal` — Table II at the tight end of the σ sweep (µ 100, σ 10):
//!   one dense central cluster.
//! * `hotspot` — the Chengdu city model (8 anisotropic Gaussian hotspots
//!   plus uniform background) rescaled into the 200 × 200 space, with a
//!   front-loaded rush-hour demand curve on the dynamic surfaces.
//! * `poisson-disk` — blue-noise worker placement (grid-backed O(n)
//!   Bridson sampling) under uniform task demand: maximally even supply.
//! * `adversarial-cell` — every task and worker packed into one tiny
//!   patch, collapsing all mass onto a single HST cell to stress the tree
//!   mechanism's resolution.
//!
//! # Adding a custom scenario
//!
//! A registered scenario is a [`Workload`] variant; a custom one is one
//! [`Scenario`] impl, run directly, mirroring the [`crate::algorithm`]
//! worked example:
//!
//! ```
//! use pombm::scenario::Scenario;
//! use pombm_geom::{seeded_rng, Point, Rect};
//! use pombm_workload::{Instance, SyntheticParams};
//! use rand::Rng;
//!
//! /// Demand and supply on two parallel lines.
//! struct TwoLines;
//! impl Scenario for TwoLines {
//!     fn name(&self) -> &'static str { "two-lines" }
//!     fn summary(&self) -> &'static str { "tasks on x=50, workers on x=150" }
//!     fn instance(&self, seed: u64, size: usize) -> Instance {
//!         self.timeline_instance(seed, size, size)
//!     }
//!     fn timeline_instance(&self, seed: u64, tasks: usize, workers: usize) -> Instance {
//!         let side = SyntheticParams::SPACE_SIDE;
//!         let mut rng = seeded_rng(seed, 0x11E5);
//!         let mut column =
//!             |x: f64, n: usize| (0..n).map(|_| Point::new(x, rng.gen::<f64>() * side)).collect();
//!         let (t, w) = (column(50.0, tasks), column(150.0, workers));
//!         Instance::new(Rect::square(side), t, w)
//!     }
//! }
//! assert_eq!(TwoLines.instance(7, 32).num_workers(), 32);
//! ```

use crate::algorithm::PipelineError;
use pombm_geom::{seeded_rng, Point, Rect};
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::{chengdu, synthetic, Instance, SyntheticParams};
use rand::rngs::StdRng;
use rand::Rng;

/// The scenario every surface falls back to when none is named; its output
/// is bit-identical to the pre-scenario derivations.
pub const DEFAULT_SCENARIO: &str = "uniform";

/// Fixed simulation horizon of every dynamic timeline (seconds). Task
/// arrival times and shift windows both live in `[0, horizon)`.
pub const DYNAMIC_SWEEP_HORIZON: f64 = 1000.0;

/// The named shift-plan shapes a dynamic timeline can replay; an empty
/// `shift_plans` filter in [`DynamicSweepConfig`](crate::DynamicSweepConfig)
/// means all of them.
///
/// * `always-on` — every worker present for the whole horizon (the paper's
///   static model as a special case; nothing should drop);
/// * `short` — uniform random shifts of 5–15% of the horizon (sparse
///   coverage, the drop-rate stress case);
/// * `long` — uniform random shifts of 40–80% of the horizon.
pub const SHIFT_PLAN_KINDS: [&str; 3] = ["always-on", "short", "long"];

/// The stream a derivation for `count` items draws on: `count` mixed into
/// `seed` by 2⁶⁴/φ, so every size gets its own stream.
fn mixed(seed: u64, count: usize) -> u64 {
    seed ^ (count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A named, seedable spatial+temporal workload model.
///
/// Object-safe, like [`crate::algorithm::ReportMechanism`] and
/// [`crate::algorithm::AssignStrategy`]: registered instances live behind
/// `Arc<dyn Scenario>` in the [registry](crate::registry()). The two
/// required methods cover the spatial axis (where tasks and workers are);
/// the two provided methods cover the temporal axis (when tasks arrive,
/// when workers are on shift) and default to the legacy sweep derivations.
pub trait Scenario: Send + Sync {
    /// Registry name (lower-case; lookup is case-insensitive).
    fn name(&self) -> &'static str;

    /// One-line description for `pombm list scenarios`.
    fn summary(&self) -> &'static str;

    /// The square sweep instance for `size`: `size` tasks and `size`
    /// workers, a pure function of `(seed, size)`. Both sweep flavours and
    /// `pombm run --scenario` consume this.
    fn instance(&self, seed: u64, size: usize) -> Instance;

    /// The timeline instance for the event-driven surfaces (`pombm
    /// dynamic`, `pombm serve`), where task and worker counts differ; a
    /// pure function of `(seed, num_tasks, num_workers)`.
    fn timeline_instance(&self, seed: u64, num_tasks: usize, num_workers: usize) -> Instance;

    /// The demand curve: sorted task arrival times over
    /// `[0, DYNAMIC_SWEEP_HORIZON)`. Defaults to the legacy uniform draw
    /// of [`dynamic_task_times`].
    fn task_times(&self, seed: u64, num_tasks: usize) -> Vec<f64> {
        dynamic_task_times(seed, num_tasks)
    }

    /// The fleet's shift plan for a named kind (`always-on`, `short`,
    /// `long`). Defaults to the legacy derivation of
    /// [`dynamic_shift_plan`], including its listing-rich unknown-kind
    /// error.
    fn shift_plan(
        &self,
        kind: &str,
        num_workers: usize,
        seed: u64,
    ) -> Result<ShiftPlan, PipelineError> {
        dynamic_shift_plan(kind, num_workers, seed)
    }
}

/// The registered workload models: one variant per `--scenario` name.
///
/// Each variant draws its square instance and its timeline instance from
/// one generator on two stream tags of its own; `uniform`'s are the
/// pre-scenario tags, so its output is bit-identical to the legacy
/// workload. Only `hotspot` reshapes the demand curve, and every variant
/// keeps the legacy shift plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `uniform`: Table II synthetics at the default µ/σ, the legacy default.
    Uniform,
    /// `normal`: Table II synthetics at the tight end of the σ sweep.
    Normal,
    /// `hotspot`: the Chengdu city model, with rush-hour demand.
    Hotspot,
    /// `poisson-disk`: blue-noise workers under uniform task demand.
    PoissonDisk,
    /// `adversarial-cell`: all mass collapsed onto a single HST cell.
    AdversarialCell,
}

/// `normal`'s σ, Table II's sweep floor: one dense central cluster instead
/// of the default's broader cloud.
const NORMAL_SIGMA: f64 = 10.0;

/// The rescale aligning `hotspot`'s 10 km city with the 200-unit synthetic
/// space, so a given ε means the same privacy level: the real trace's own
/// [`chengdu::UNIT_METERS`].
const CITY_SCALE: f64 = 1.0 / chengdu::UNIT_METERS;

/// Candidate throws per active point of `poisson-disk`'s sampler —
/// Bridson's recommended k.
const BRIDSON_ATTEMPTS: usize = 30;

/// `adversarial-cell`'s patch side as a fraction of the workspace: 200/128
/// ≈ 1.56 units — well inside one predefined-point cell at the default grid
/// sides (200/32 = 6.25 units per cell), so the whole workload snaps to at
/// most a handful of leaves and the tree mechanism's resolution, not the
/// matcher, dominates the outcome.
const PATCH_DIVISOR: f64 = 128.0;

impl Workload {
    /// The stream tags of the square instance and of the timeline instance.
    fn tags(self) -> (u64, u64) {
        match self {
            Workload::Uniform => (0x51EE, 0xD1CE_0006),
            Workload::Normal => (0x5CE2_0001, 0x5CE2_0002),
            Workload::Hotspot => (0x5CE3_0001, 0x5CE3_0002),
            Workload::PoissonDisk => (0x5CE4_0001, 0x5CE4_0002),
            Workload::AdversarialCell => (0x5CE5_0001, 0x5CE5_0002),
        }
    }

    /// Draws `tasks` task points, then `workers` worker points, from `rng`.
    /// `seed` picks `hotspot`'s city.
    fn generate(self, seed: u64, tasks: usize, workers: usize, rng: &mut StdRng) -> Instance {
        let side = SyntheticParams::SPACE_SIDE;
        match self {
            Workload::Uniform | Workload::Normal => {
                let mut params = SyntheticParams {
                    num_tasks: tasks,
                    num_workers: workers,
                    ..SyntheticParams::default()
                };
                if self == Workload::Normal {
                    params.sigma = NORMAL_SIGMA;
                }
                synthetic::generate(&params, rng)
            }
            Workload::Hotspot => {
                // One fixed city per seed (same seed ⇒ same city, as in the
                // trace generator); only the sampled points vary with the
                // stream.
                let city = chengdu::CityModel::generate(seed);
                let weights: Vec<f64> = city.hotspots.iter().map(|h| h.weight).collect();
                let task_points = (0..tasks)
                    .map(|_| city.sample(city.task_background, &weights, rng))
                    .collect();
                let worker_points = (0..workers)
                    .map(|_| city.sample(city.worker_background, &weights, rng))
                    .collect();
                Instance::new(city.region, task_points, worker_points).scaled(CITY_SCALE)
            }
            Workload::PoissonDisk => {
                let task_points = (0..tasks)
                    .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
                    .collect();
                let worker_points = blue_noise(side, workers, rng);
                Instance::new(Rect::square(side), task_points, worker_points)
            }
            Workload::AdversarialCell => {
                let patch = side / PATCH_DIVISOR;
                let corner_x = rng.gen::<f64>() * (side - patch);
                let corner_y = rng.gen::<f64>() * (side - patch);
                let mut draw = || {
                    Point::new(
                        corner_x + rng.gen::<f64>() * patch,
                        corner_y + rng.gen::<f64>() * patch,
                    )
                };
                let task_points = (0..tasks).map(|_| draw()).collect();
                let worker_points = (0..workers).map(|_| draw()).collect();
                Instance::new(Rect::square(side), task_points, worker_points)
            }
        }
    }
}

impl Scenario for Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Normal => "normal",
            Workload::Hotspot => "hotspot",
            Workload::PoissonDisk => "poisson-disk",
            Workload::AdversarialCell => "adversarial-cell",
        }
    }

    fn summary(&self) -> &'static str {
        match self {
            Workload::Uniform => "legacy default synthetics (bit-identical to pre-scenario output)",
            Workload::Normal => "Table II Normal cluster at the tight sigma end (mu 100, sigma 10)",
            Workload::Hotspot => {
                "Chengdu city model: Gaussian hotspots + background, rush-hour demand"
            }
            Workload::PoissonDisk => {
                "blue-noise worker placement (Bridson O(n)) under uniform demand"
            }
            Workload::AdversarialCell => {
                "all mass on one tiny patch: a single-HST-cell stress test"
            }
        }
    }

    fn instance(&self, seed: u64, size: usize) -> Instance {
        let mut rng = seeded_rng(mixed(seed, size), self.tags().0);
        self.generate(seed, size, size, &mut rng)
    }

    fn timeline_instance(&self, seed: u64, num_tasks: usize, num_workers: usize) -> Instance {
        let mut rng = seeded_rng(seed, self.tags().1);
        self.generate(seed, num_tasks, num_workers, &mut rng)
    }

    /// The legacy uniform draw; `hotspot` squashes it toward the start of
    /// the horizon (`t → T·(t/T)²`), a rush hour. The transform is
    /// monotone, so the times stay sorted and the draw count stays
    /// identical.
    fn task_times(&self, seed: u64, num_tasks: usize) -> Vec<f64> {
        let mut times = dynamic_task_times(seed, num_tasks);
        if *self == Workload::Hotspot {
            for t in &mut times {
                *t = (*t / DYNAMIC_SWEEP_HORIZON).powi(2) * DYNAMIC_SWEEP_HORIZON;
            }
        }
        times
    }
}

/// Grid-backed O(n) Bridson sampling of `target` points in a `side × side`
/// square with pairwise distance ≥ r, where r is sized so `target` disks
/// slightly under-fill the square. If the walk saturates early (possible
/// for unlucky seeds), the remainder is topped up uniformly so counts are
/// always exact.
fn blue_noise(side: f64, target: usize, rng: &mut StdRng) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::with_capacity(target);
    if target == 0 {
        return points;
    }
    let r = side * (0.7 / target as f64).sqrt();
    // Cell side r/√2: at most one sample per grid cell, so the
    // neighborhood check below scans a constant 5×5 window.
    let cell = r / std::f64::consts::SQRT_2;
    let dim = (side / cell).ceil() as usize;
    let mut grid: Vec<Option<usize>> = vec![None; dim * dim];
    let cell_of = |p: &Point| -> (usize, usize) {
        (
            ((p.x / cell) as usize).min(dim - 1),
            ((p.y / cell) as usize).min(dim - 1),
        )
    };
    let mut active: Vec<usize> = Vec::new();
    let insert = |p: Point,
                  points: &mut Vec<Point>,
                  active: &mut Vec<usize>,
                  grid: &mut Vec<Option<usize>>| {
        let (cx, cy) = cell_of(&p);
        grid[cy * dim + cx] = Some(points.len());
        active.push(points.len());
        points.push(p);
    };
    let first = Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side);
    insert(first, &mut points, &mut active, &mut grid);
    while !active.is_empty() && points.len() < target {
        let slot = rng.gen_range(0..active.len());
        let center = points[active[slot]];
        let mut placed = false;
        for _ in 0..BRIDSON_ATTEMPTS {
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let dist = r * (1.0 + rng.gen::<f64>());
            let p = Point::new(center.x + dist * angle.cos(), center.y + dist * angle.sin());
            if !(0.0..=side).contains(&p.x) || !(0.0..=side).contains(&p.y) {
                continue;
            }
            let (cx, cy) = cell_of(&p);
            let clear = (cx.saturating_sub(2)..=(cx + 2).min(dim - 1)).all(|nx| {
                (cy.saturating_sub(2)..=(cy + 2).min(dim - 1))
                    .all(|ny| grid[ny * dim + nx].is_none_or(|i| points[i].dist(&p) >= r))
            });
            if clear {
                insert(p, &mut points, &mut active, &mut grid);
                placed = true;
                break;
            }
        }
        if !placed {
            active.swap_remove(slot);
        }
    }
    while points.len() < target {
        points.push(Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side));
    }
    points
}

/// `count` task arrival times evenly spaced over `[0, window]`, the first
/// at 0 and the last at `window` (a single task arrives at 0): the
/// `task_times` of a caller-built timeline for [`crate::run_dynamic_spec`]
/// and its clairvoyant oracle.
///
/// # Panics
///
/// Panics if `window` is negative.
pub fn even_task_times(count: usize, window: f64) -> Vec<f64> {
    assert!(window >= 0.0, "window must be non-negative");
    if count <= 1 {
        return vec![0.0; count];
    }
    (0..count)
        .map(|i| window * i as f64 / (count - 1) as f64)
        .collect()
}

/// The deterministic task arrival times a dynamic timeline uses for
/// `num_tasks` tasks: sorted uniform draws over `[0, horizon)`, seeded by
/// `(seed, num_tasks)` only — identical for every pairing and plan, so
/// cells differ only in what they measure.
pub fn dynamic_task_times(seed: u64, num_tasks: usize) -> Vec<f64> {
    let mut rng = seeded_rng(mixed(seed, num_tasks), 0xD1CE_0005);
    let mut times: Vec<f64> = (0..num_tasks)
        .map(|_| rng.gen::<f64>() * DYNAMIC_SWEEP_HORIZON)
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times
}

/// The deterministic shift plan a dynamic timeline uses for a
/// `(kind, num_workers)` cell, seeded by `(seed, num_workers, kind)` only.
/// Fails fast with a listing-rich error on an unknown kind.
pub fn dynamic_shift_plan(
    kind: &str,
    num_workers: usize,
    seed: u64,
) -> Result<ShiftPlan, PipelineError> {
    let stream = mixed(seed, num_workers);
    let h = DYNAMIC_SWEEP_HORIZON;
    match kind {
        // End strictly after the horizon so tasks at t < horizon always
        // find the full fleet (departures process before same-time tasks).
        "always-on" => Ok(ShiftPlan::always_on(num_workers, h + 1.0)),
        "short" => Ok(ShiftPlan::uniform(
            num_workers,
            h,
            0.05 * h,
            0.15 * h,
            &mut seeded_rng(stream, 0xD1CE_0003),
        )),
        "long" => Ok(ShiftPlan::uniform(
            num_workers,
            h,
            0.4 * h,
            0.8 * h,
            &mut seeded_rng(stream, 0xD1CE_0004),
        )),
        other => Err(PipelineError::UnknownEntry {
            kind: "shift plan",
            name: other.to_string(),
            known: SHIFT_PLAN_KINDS.iter().map(|s| s.to_string()).collect(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    #[test]
    fn uniform_matches_the_legacy_square_instance() {
        let scenario = registry().require_scenario("uniform").unwrap();
        for (seed, size) in [(0u64, 12usize), (5, 48), (99, 7)] {
            let a = scenario.instance(seed, size);
            let params = SyntheticParams {
                num_tasks: size,
                num_workers: size,
                ..SyntheticParams::default()
            };
            let stream = seed ^ (size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let b = synthetic::generate(&params, &mut seeded_rng(stream, 0x51EE));
            assert_eq!(a.tasks, b.tasks, "seed {seed} size {size}");
            assert_eq!(a.workers, b.workers, "seed {seed} size {size}");
        }
    }

    #[test]
    fn uniform_matches_the_legacy_timeline_instance() {
        let scenario = registry().require_scenario("uniform").unwrap();
        let a = scenario.timeline_instance(3, 20, 30);
        let params = SyntheticParams {
            num_tasks: 20,
            num_workers: 30,
            ..SyntheticParams::default()
        };
        let b = synthetic::generate(&params, &mut seeded_rng(3, 0xD1CE_0006));
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.workers, b.workers);
    }

    #[test]
    fn every_scenario_is_deterministic_and_in_region() {
        for scenario in registry().scenarios() {
            let a = scenario.instance(11, 40);
            let b = scenario.instance(11, 40);
            assert_eq!(a.tasks, b.tasks, "{}", scenario.name());
            assert_eq!(a.workers, b.workers, "{}", scenario.name());
            assert_eq!(a.num_tasks(), 40, "{}", scenario.name());
            assert_eq!(a.num_workers(), 40, "{}", scenario.name());
            a.validate().unwrap_or_else(|e| {
                panic!("{} instance invalid: {e}", scenario.name());
            });
            let t = scenario.timeline_instance(11, 25, 35);
            assert_eq!(
                (t.num_tasks(), t.num_workers()),
                (25, 35),
                "{}",
                scenario.name()
            );
            t.validate().unwrap_or_else(|e| {
                panic!("{} timeline instance invalid: {e}", scenario.name());
            });
        }
    }

    #[test]
    fn scenarios_differ_from_each_other() {
        let scenarios = registry().scenarios();
        for (i, a) in scenarios.iter().enumerate() {
            for b in &scenarios[i + 1..] {
                let x = a.instance(4, 24);
                let y = b.instance(4, 24);
                assert_ne!(
                    x.tasks,
                    y.tasks,
                    "{} and {} generated the same tasks",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn task_times_stay_sorted_and_bounded() {
        for scenario in registry().scenarios() {
            let times = scenario.task_times(9, 64);
            assert_eq!(times.len(), 64, "{}", scenario.name());
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "{}: times must be sorted",
                scenario.name()
            );
            assert!(
                times
                    .iter()
                    .all(|t| (0.0..DYNAMIC_SWEEP_HORIZON).contains(t)),
                "{}: times must live in [0, horizon)",
                scenario.name()
            );
        }
    }

    #[test]
    fn hotspot_demand_is_front_loaded() {
        let uniform = Workload::Uniform.task_times(2, 200);
        let rush = Workload::Hotspot.task_times(2, 200);
        let median = |v: &[f64]| v[v.len() / 2];
        assert!(
            median(&rush) < median(&uniform),
            "rush-hour median {} should precede uniform median {}",
            median(&rush),
            median(&uniform)
        );
    }

    #[test]
    fn blue_noise_spreads_workers_out() {
        let inst = Workload::PoissonDisk.instance(1, 64);
        let min_gap = |pts: &[Point]| -> f64 {
            let mut best = f64::INFINITY;
            for (i, a) in pts.iter().enumerate() {
                for b in &pts[i + 1..] {
                    best = best.min(a.dist(b));
                }
            }
            best
        };
        // Workers keep the Bridson separation; uniform tasks of the same
        // count land far closer together with overwhelming probability.
        assert!(
            min_gap(&inst.workers) > 2.0 * min_gap(&inst.tasks),
            "workers gap {} vs tasks gap {}",
            min_gap(&inst.workers),
            min_gap(&inst.tasks)
        );
    }

    #[test]
    fn adversarial_cell_is_tiny() {
        let inst = Workload::AdversarialCell.instance(6, 50);
        let span = |pts: &[Point]| {
            let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
            );
            for p in pts {
                lo_x = lo_x.min(p.x);
                hi_x = hi_x.max(p.x);
                lo_y = lo_y.min(p.y);
                hi_y = hi_y.max(p.y);
            }
            (hi_x - lo_x).max(hi_y - lo_y)
        };
        let all: Vec<Point> = inst.tasks.iter().chain(&inst.workers).copied().collect();
        let patch = SyntheticParams::SPACE_SIDE / PATCH_DIVISOR;
        assert!(span(&all) <= patch, "span {} > patch {patch}", span(&all));
    }

    #[test]
    fn uniform_timestamps_are_evenly_spaced() {
        let ts = even_task_times(10, 90.0);
        assert_eq!(ts[0], 0.0);
        assert_eq!(*ts.last().unwrap(), 90.0);
        let gap = ts[1] - ts[0];
        assert!(ts.windows(2).all(|w| (w[1] - w[0] - gap).abs() < 1e-9));
    }

    #[test]
    fn degenerate_counts() {
        assert!(even_task_times(0, 10.0).is_empty());
        assert_eq!(even_task_times(1, 10.0), vec![0.0]);
    }
}
