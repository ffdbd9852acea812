//! Correctness harness for the registry-driven dynamic-fleet pipeline:
//!
//! 1. a golden test pinning that `run_dynamic_spec` with the `hst-greedy`
//!    dynamic matcher reproduces the pre-registry hardwired driver
//!    seed-for-seed (fingerprints recorded from the last hardwired build,
//!    same seeds — the same pattern as `tests/registry.rs`), and that an
//!    event-at-a-time replay through the batch pool entry points serve
//!    uses reproduces the driver exactly;
//! 2. proptest invariants — no registered dynamic matcher ever assigns a
//!    worker outside its shift window or the same worker twice, and the
//!    dynamic sweep is bit-identical across shard counts `{1, 2, 7}`;
//! 3. golden tests pinning the `DynamicSweepReport` / `DynamicSweepCell` /
//!    `DynamicMeasurement` JSON field names, so the CLI's `--json`
//!    contract cannot drift silently.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests produce no compared output"
)]

use pombm::fingerprint::Fnv1a;
use pombm::sweep::{run_sweep, DynamicSweepConfig, FlavorReport};
use pombm::{
    dynamic_competitive_ratio, dynamic_offline_optimum_with_threads, registry, run_dynamic_spec,
    ArrivalProcess, DynamicAssignStrategy, DynamicConfig, DynamicOutcome, RatioError,
    ReportMechanism, Server, DEFAULT_DYNAMIC_ORACLE,
};
use pombm_geom::{seeded_rng, Point, Rect};
use pombm_privacy::Epsilon;
use pombm_workload::shifts::{Shift, ShiftPlan};
use pombm_workload::{synthetic, Instance, SyntheticParams};
use proptest::prelude::*;

fn instance(tasks: usize, workers: usize, seed: u64) -> Instance {
    let params = SyntheticParams {
        num_tasks: tasks,
        num_workers: workers,
        ..SyntheticParams::default()
    };
    synthetic::generate(&params, &mut seeded_rng(seed, 0))
}

fn fnv(pairs: &[(usize, usize)]) -> u64 {
    let mut h = Fnv1a::new();
    for &(t, w) in pairs {
        h.write_u64(t as u64).write_u64(w as u64);
    }
    h.finish()
}

/// The golden scenario: 80 tasks over a 500 s window, 60 workers on
/// uniform 50–200 s shifts, `grid_side` 16, ε 0.6.
fn golden_scenario(seed: u64) -> (Instance, Vec<f64>, ShiftPlan, DynamicConfig) {
    let inst = instance(80, 60, seed);
    let times =
        ArrivalProcess::Uniform { window_secs: 500.0 }.timestamps(80, &mut seeded_rng(seed, 99));
    let plan = ShiftPlan::uniform(60, 500.0, 50.0, 200.0, &mut seeded_rng(seed, 7));
    let config = DynamicConfig {
        epsilon: 0.6,
        grid_side: 16,
        seed,
    };
    (inst, times, plan, config)
}

/// Fingerprints recorded from the pre-registry dynamic driver (stage 2
/// hardwired to the tree pool, then named `DynamicHstGreedy`): `(mechanism, seed)` →
/// `(pair fnv, assigned, dropped, peak_available)` on [`golden_scenario`].
const GOLDEN: [(&str, u64, u64, usize, usize, usize); 12] = [
    ("hst", 0, 0xF3BB46DB5826EF15, 59, 21, 6),
    ("hst", 11, 0x932CA01B98DCC727, 60, 20, 5),
    ("hst", 42, 0x930820F94B2B5FC9, 58, 22, 7),
    ("laplace", 0, 0x3D39867EB0D53ED5, 59, 21, 6),
    ("laplace", 11, 0x83C0740143CF70A7, 60, 20, 5),
    ("laplace", 42, 0x6ACF06B3D23A19F1, 59, 21, 8),
    ("exp", 0, 0x7E4160A6F0C94495, 59, 21, 6),
    ("exp", 11, 0x90E7F6E9C38AF627, 60, 20, 5),
    ("exp", 42, 0x689F5BFC3F671A49, 58, 22, 7),
    ("identity", 0, 0xF3BB46DB5826EF15, 59, 21, 6),
    ("identity", 11, 0x932CA01B98DCC727, 60, 20, 5),
    ("identity", 42, 0x930820F94B2B5FC9, 58, 22, 7),
];

#[test]
fn hst_greedy_through_the_spec_driver_matches_the_hardwired_driver_exactly() {
    let matcher = registry()
        .require_dynamic_matcher("hst-greedy")
        .expect("registered");
    for (mech_name, seed, want_fnv, want_assigned, want_dropped, want_peak) in GOLDEN {
        let mechanism = registry().require_mechanism(mech_name).expect("registered");
        let (inst, times, plan, config) = golden_scenario(seed);
        let spec = run_dynamic_spec(
            &inst,
            &times,
            &plan,
            &config,
            mechanism.as_ref(),
            matcher.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{mech_name}/{seed}: {e}"));
        assert_eq!(
            fnv(&spec.pairs),
            want_fnv,
            "{mech_name}/{seed}: drifted from the pre-registry hardwired driver"
        );
        assert_eq!(spec.pairs.len(), want_assigned, "{mech_name}/{seed}");
        assert_eq!(spec.dropped_tasks, want_dropped, "{mech_name}/{seed}");
        assert_eq!(spec.peak_available, want_peak, "{mech_name}/{seed}");
    }
}

/// Replays a timeline one event at a time through the batch entry points
/// serve's engine uses — a fresh one-item `report_batch` per report, then
/// `insert_batch` / `assign_batch` — on the server and RNG streams of
/// `run_dynamic_spec`, with the driver's tie order at equal timestamps
/// (shift starts, then shift ends, then tasks, each by id).
fn replay_one_event_per_batch(
    inst: &Instance,
    times: &[f64],
    plan: &ShiftPlan,
    config: &DynamicConfig,
    mechanism: &dyn ReportMechanism,
    matcher: &dyn DynamicAssignStrategy,
) -> DynamicOutcome {
    let server = Server::new(inst.region, config.grid_side, config.seed ^ 0xD1CE);
    let epsilon = Epsilon::new(config.epsilon);
    let mut rng = seeded_rng(config.seed, 0xD1CE_0001);
    let mut tie_rng = seeded_rng(config.seed, 0xD1CE_0002);
    let mut events: Vec<(f64, u8, usize)> = plan
        .shifts
        .iter()
        .flat_map(|s| [(s.start, 0, s.worker), (s.end, 1, s.worker)])
        .chain(times.iter().enumerate().map(|(t, &at)| (at, 2, t)))
        .collect();
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut pool = matcher.pool(Some(&server)).unwrap();
    let report = |location: &Point, rng: &mut _| {
        mechanism
            .report_batch(
                epsilon,
                Some(&server),
                std::slice::from_ref(location),
                rng,
                1,
            )
            .unwrap()
            .remove(0)
    };
    let (mut pairs, mut dropped_tasks, mut peak_available) = (Vec::new(), 0, 0);
    for (_, kind, id) in events {
        match kind {
            0 => {
                let r = report(&inst.workers[id], &mut rng);
                pool.insert_batch(vec![(id as u64, r)]).unwrap();
                peak_available = peak_available.max(pool.available());
            }
            1 => {
                let _ = pool.withdraw(id as u64);
            }
            _ => {
                let r = report(&inst.tasks[id], &mut rng);
                match pool.assign_batch(vec![r], &mut tie_rng).unwrap()[0] {
                    Some(w) => pairs.push((id, w as usize)),
                    None => dropped_tasks += 1,
                }
            }
        }
    }
    let total_distance = pairs
        .iter()
        .map(|&(t, w)| inst.tasks[t].dist(&inst.workers[w]))
        .sum();
    DynamicOutcome {
        pairs,
        dropped_tasks,
        total_distance,
        peak_available,
    }
}

/// One event per batch through fresh one-item `report_batch` calls
/// reproduces the sequential driver, which keeps one persistent reporter:
/// a mechanism's per-call state (e.g. `exp`'s alias-table cache) must not
/// leak into its draws.
#[test]
fn event_at_a_time_batch_replay_matches_the_sequential_driver() {
    let matcher = registry()
        .require_dynamic_matcher("hst-greedy")
        .expect("registered");
    for (mech_name, seed, ..) in GOLDEN {
        let mechanism = registry().require_mechanism(mech_name).expect("registered");
        let (inst, times, plan, config) = golden_scenario(seed);
        let driver = run_dynamic_spec(
            &inst,
            &times,
            &plan,
            &config,
            mechanism.as_ref(),
            matcher.as_ref(),
        )
        .unwrap();
        let replay = replay_one_event_per_batch(
            &inst,
            &times,
            &plan,
            &config,
            mechanism.as_ref(),
            matcher.as_ref(),
        );
        assert_eq!(replay.pairs, driver.pairs, "{mech_name}/{seed}");
        assert_eq!(
            replay.total_distance.to_bits(),
            driver.total_distance.to_bits(),
            "{mech_name}/{seed}"
        );
        assert_eq!(
            replay.peak_available, driver.peak_available,
            "{mech_name}/{seed}"
        );
        assert_eq!(
            replay.dropped_tasks, driver.dropped_tasks,
            "{mech_name}/{seed}"
        );
    }
}

proptest! {
    /// No registered dynamic matcher ever assigns a withdrawn (off-shift)
    /// worker: every assigned pair's worker was on shift at the task's
    /// arrival time, no worker serves twice, and reruns reproduce the
    /// outcome bit-for-bit.
    #[test]
    fn no_dynamic_matcher_assigns_a_withdrawn_worker(
        seed in 0u64..5_000,
        tasks in 10usize..60,
        workers in 5usize..40,
    ) {
        let inst = instance(tasks, workers, seed);
        let times = ArrivalProcess::Uniform { window_secs: 300.0 }
            .timestamps(tasks, &mut seeded_rng(seed, 99));
        let plan = ShiftPlan::uniform(workers, 300.0, 20.0, 120.0, &mut seeded_rng(seed, 7));
        let config = DynamicConfig { epsilon: 0.6, grid_side: 16, seed };
        let mechanism = registry().require_mechanism("identity").unwrap();
        for matcher in registry().dynamic_matchers() {
            let out = run_dynamic_spec(
                &inst, &times, &plan, &config, mechanism.as_ref(), matcher.as_ref(),
            ).map_err(|e| TestCaseError::fail(format!("{}: {e}", matcher.name())))?;
            prop_assert_eq!(out.pairs.len() + out.dropped_tasks, tasks, "{}", matcher.name());
            let mut seen = std::collections::HashSet::new();
            for &(t, w) in &out.pairs {
                prop_assert!(seen.insert(w), "{}: worker {} served twice", matcher.name(), w);
                let shift = &plan.shifts[w];
                prop_assert!(
                    shift.covers(times[t]),
                    "{}: worker {} assigned at {} outside shift [{}, {})",
                    matcher.name(), w, times[t], shift.start, shift.end
                );
            }
            let again = run_dynamic_spec(
                &inst, &times, &plan, &config, mechanism.as_ref(), matcher.as_ref(),
            ).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&out.pairs, &again.pairs,
                "{} is not reproducible", matcher.name());
        }
    }

    /// Dynamic sweep output is a pure function of the seed: shard counts
    /// 1, 2 and 7 serialize to byte-identical JSON (assignment rates and
    /// all other cell fields included).
    #[test]
    fn dynamic_sweep_is_bit_identical_across_shard_counts(seed in 0u64..10_000) {
        let config = |shards: usize| DynamicSweepConfig {
            mechanisms: vec!["identity".into(), "hst".into()],
            matchers: vec!["hst-greedy".into(), "random".into()],
            scenarios: Vec::new(),
            shift_plans: vec!["always-on".into(), "short".into()],
            sizes: vec![10, 14],
            epsilons: vec![0.5],
            shards,
            timings: false,
            ratio: false,
            grid_side: 16,
            seed,
        };
        let baseline = serde_json::to_string(&run_sweep(&config(1)).unwrap()).unwrap();
        for shards in [2usize, 7] {
            let sharded =
                serde_json::to_string(&run_sweep(&config(shards)).unwrap()).unwrap();
            prop_assert_eq!(&baseline, &sharded, "shards = {} changed the sweep", shards);
        }
    }
}

/// The full `mechanism × dynamic-matcher × plan` registry product
/// completes at one size/ε: every measurable cell accounts for all tasks,
/// and exactly the blind × location-aware cells carry typed errors.
#[test]
fn full_dynamic_registry_product_sweep_completes() {
    let config = DynamicSweepConfig {
        mechanisms: Vec::new(),  // all 5
        matchers: Vec::new(),    // all 3
        scenarios: Vec::new(),   // just uniform
        shift_plans: Vec::new(), // all 3
        sizes: vec![12],
        epsilons: vec![0.6],
        shards: 4,
        timings: false,
        ratio: false,
        grid_side: 16,
        seed: 33,
    };
    let report = run_sweep(&config).unwrap();
    let mechanisms = registry().mechanisms().len();
    let matchers = registry().dynamic_matchers().len();
    assert_eq!(report.cells.len(), mechanisms * matchers * 3);

    for cell in &report.cells {
        match (&cell.measurement, &cell.error) {
            (Some(m), None) => {
                assert_eq!(
                    m.assigned + m.dropped,
                    12,
                    "{}+{}+{}: tasks unaccounted",
                    cell.mechanism,
                    cell.matcher,
                    cell.plan
                );
                if cell.plan == "always-on" {
                    assert_eq!(
                        m.assignment_rate, 1.0,
                        "{}+{}",
                        cell.mechanism, cell.matcher
                    );
                }
            }
            (None, Some(e)) => {
                assert_eq!(
                    cell.mechanism, "blind",
                    "unexpected failure {}+{}: {e}",
                    cell.mechanism, cell.matcher
                );
                assert_ne!(cell.matcher, "random", "blind+random is measurable: {e}");
            }
            other => panic!(
                "{}+{}: cell must hold exactly one of measurement/error, got {other:?}",
                cell.mechanism, cell.matcher
            ),
        }
    }
    let unmeasurable = (matchers - 1) * 3; // blind × location-aware × plans
    assert_eq!(report.failed().count(), unmeasurable);
    assert_eq!(
        report.measured().count(),
        mechanisms * matchers * 3 - unmeasurable
    );
}

/// The `DynamicSweepReport` / `DynamicSweepCell` / `DynamicMeasurement`
/// JSON field names are a public contract (CLI `--json`, the CI golden
/// diff): pin them exactly, in declaration order.
#[test]
fn dynamic_sweep_json_fields_are_pinned() {
    let config = DynamicSweepConfig {
        mechanisms: vec!["identity".into()],
        matchers: vec!["hst-greedy".into()],
        scenarios: Vec::new(),
        shift_plans: vec!["always-on".into()],
        sizes: vec![8],
        epsilons: vec![0.6],
        shards: 1,
        timings: false,
        ratio: false,
        grid_side: 16,
        seed: 1,
    };
    let value = serde_json::to_value(&run_sweep(&config).unwrap()).unwrap();
    let keys: Vec<&str> = value
        .as_object()
        .expect("a report serializes as an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["seed", "horizon", "cells"]);
    let cell = &value["cells"].as_array().unwrap()[0];
    let cell_keys: Vec<&str> = cell
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        cell_keys,
        [
            "mechanism",
            "matcher",
            "plan",
            "num_tasks",
            "num_workers",
            "epsilon",
            "measurement",
            "error",
        ],
        "DynamicSweepCell JSON contract drifted"
    );
    let m_keys: Vec<&str> = cell["measurement"]
        .as_object()
        .expect("always-on cell is measurable")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        m_keys,
        [
            "assigned",
            "dropped",
            "assignment_rate",
            "total_distance",
            "peak_available",
        ],
        "DynamicMeasurement JSON contract drifted"
    );
}

/// Exhaustive optimum over the time-expanded feasibility graph: every task
/// in arrival order tries every feasible unused worker or a drop;
/// maximum cardinality wins, ties broken by minimum total distance —
/// Definition 8's clairvoyant benchmark, spelled out.
fn brute_force_optimum(instance: &Instance, times: &[f64], plan: &ShiftPlan) -> (usize, f64) {
    #[allow(
        clippy::too_many_arguments,
        reason = "explicit search state, as in the solver's own oracle"
    )]
    fn go(
        t: usize,
        used: &mut [bool],
        instance: &Instance,
        times: &[f64],
        plan: &ShiftPlan,
        cost: f64,
        size: usize,
        best: &mut (usize, f64),
    ) {
        if t == times.len() {
            if size > best.0 || (size == best.0 && cost < best.1) {
                *best = (size, cost);
            }
            return;
        }
        go(t + 1, used, instance, times, plan, cost, size, best); // drop task t
        for w in 0..instance.num_workers() {
            let s = &plan.shifts[w];
            if !used[w] && s.start <= times[t] && times[t] < s.end {
                used[w] = true;
                let c = cost + instance.tasks[t].dist(&instance.workers[w]);
                go(t + 1, used, instance, times, plan, c, size + 1, best);
                used[w] = false;
            }
        }
    }
    let mut best = (0, f64::INFINITY);
    let mut used = vec![false; instance.num_workers()];
    go(0, &mut used, instance, times, plan, 0.0, 0, &mut best);
    best
}

/// Checks `dynamic_offline_optimum_with_threads` against
/// [`brute_force_optimum`] on one timeline, including the typed
/// infeasibility error and bit-identity across thread counts 1, 2 and 7.
fn check_against_brute_force(instance: &Instance, times: &[f64], plan: &ShiftPlan, label: &str) {
    let (size, cost) = brute_force_optimum(instance, times, plan);
    match dynamic_offline_optimum_with_threads(instance, times, plan, 1) {
        Ok(opt) => {
            assert_eq!(opt.size(), size, "{label}: cardinality");
            assert!(
                (opt.total_cost - cost).abs() < 1e-9,
                "{label}: cost {} vs brute force {cost}",
                opt.total_cost
            );
            for threads in [2, 7] {
                let sharded =
                    dynamic_offline_optimum_with_threads(instance, times, plan, threads).unwrap();
                assert_eq!(sharded.pairs, opt.pairs, "{label}: threads {threads}");
                assert_eq!(sharded.dropped, opt.dropped, "{label}: threads {threads}");
                assert_eq!(
                    sharded.total_cost.to_bits(),
                    opt.total_cost.to_bits(),
                    "{label}: threads {threads}"
                );
            }
        }
        Err(RatioError::InfeasibleTimeline { dropped }) => {
            assert_eq!(
                size, 0,
                "{label}: solver claims infeasible, brute force assigns"
            );
            assert_eq!(dropped, times.len(), "{label}");
        }
        Err(e) => panic!("{label}: unexpected error {e}"),
    }
}

/// Every realizable 3×3 shift-window pattern — all integer windows over
/// the arrival grid, plus a window overlapping no arrival at all — agrees
/// with the exhaustive brute force on a tie-heavy integer geometry
/// (aligned rows one unit apart, so distances repeat across pairs).
#[test]
fn clairvoyant_optimum_matches_brute_force_on_every_window_pattern() {
    let instance = Instance::new(
        Rect::square(4.0),
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ],
        vec![
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.0),
        ],
    );
    let times = [0.5, 1.5, 2.5];
    // All integer windows in [0, 3] plus one of zero overlap with every
    // arrival (shifts must be non-empty, so it sits past the last task).
    let mut windows = vec![(3.0, 4.0)];
    for a in 0..3u32 {
        for b in (a + 1)..=3 {
            windows.push((f64::from(a), f64::from(b)));
        }
    }
    for &(a0, b0) in &windows {
        for &(a1, b1) in &windows {
            for &(a2, b2) in &windows {
                let plan = ShiftPlan {
                    horizon: 4.0,
                    shifts: vec![
                        Shift {
                            worker: 0,
                            start: a0,
                            end: b0,
                        },
                        Shift {
                            worker: 1,
                            start: a1,
                            end: b1,
                        },
                        Shift {
                            worker: 2,
                            start: a2,
                            end: b2,
                        },
                    ],
                };
                let label = format!("windows [{a0},{b0}) [{a1},{b1}) [{a2},{b2})");
                check_against_brute_force(&instance, &times, &plan, &label);
            }
        }
    }
}

/// 6×6 timelines with arithmetic (deterministic, tie-heavy integer-grid)
/// geometries and windows, including per-worker zero-coverage shifts,
/// agree with the exhaustive brute force — the largest size where full
/// enumeration is still cheap.
#[test]
fn clairvoyant_optimum_matches_brute_force_at_six_by_six() {
    for seed in 0..25u64 {
        let tasks: Vec<Point> = (0..6)
            .map(|i| Point::new(((seed + 2 * i) % 5) as f64, ((seed / 3 + i) % 4) as f64))
            .collect();
        let workers: Vec<Point> = (0..6)
            .map(|w| Point::new(((3 * seed + w) % 5) as f64, ((seed + 2 * w) % 4) as f64))
            .collect();
        let instance = Instance::new(Rect::square(6.0), tasks, workers);
        let times: Vec<f64> = (0..6).map(|t| t as f64 + 0.5).collect();
        let shifts = (0..6u64)
            .map(|w| {
                if (seed + w) % 7 == 0 {
                    // Zero coverage: on shift only after the last arrival.
                    Shift {
                        worker: w as usize,
                        start: 6.0,
                        end: 7.0,
                    }
                } else {
                    let start = ((seed + 3 * w) % 4) as f64;
                    let len = 1.0 + ((seed / 2 + w) % 3) as f64;
                    Shift {
                        worker: w as usize,
                        start,
                        end: start + len,
                    }
                }
            })
            .collect();
        let plan = ShiftPlan {
            horizon: 7.0,
            shifts,
        };
        check_against_brute_force(&instance, &times, &plan, &format!("seed {seed}"));
    }
}

proptest! {
    /// With every worker on shift for the whole horizon and more workers
    /// than tasks, every registered pairing matcher reaches the oracle's
    /// cardinality, so its total distance is bounded below by the
    /// clairvoyant optimum: the empirical competitive ratio is ≥ 1 on
    /// every repetition.
    #[test]
    fn every_dynamic_matcher_is_at_least_the_oracle_under_full_coverage(
        seed in 0u64..2_000,
    ) {
        let inst = instance(24, 30, seed);
        let times = ArrivalProcess::Uniform { window_secs: 200.0 }
            .timestamps(24, &mut seeded_rng(seed, 99));
        let plan = ShiftPlan::always_on(30, 200.0);
        let config = DynamicConfig { epsilon: 0.6, grid_side: 16, seed };
        let mechanism = registry().require_mechanism("identity").unwrap();
        for matcher in registry().dynamic_matchers() {
            let report = dynamic_competitive_ratio(
                &inst, &times, &plan, &config, mechanism.as_ref(), matcher.as_ref(), 2,
            ).map_err(|e| TestCaseError::fail(format!("{}: {e}", matcher.name())))?;
            prop_assert!(
                report.min_ratio >= 1.0 - 1e-9,
                "{}: ratio {} beat the clairvoyant optimum",
                matcher.name(), report.min_ratio
            );
        }
    }
}

/// A ratio-enabled dynamic sweep over the full matcher catalog (the
/// `dynamic-opt` oracle included) is bit-identical across shard counts
/// `{1, 2, 7}`, every measured oracle cell reports a ratio of exactly 1.0
/// over a total equal to an independent solve of its timeline's optimum,
/// every measured cell carries a ratio, and the empty size's cells all
/// carry its error.
#[test]
fn ratio_sweep_is_shard_invariant_and_pins_the_oracle_row() {
    let config = |shards: usize| DynamicSweepConfig {
        mechanisms: vec!["identity".into(), "hst".into()],
        matchers: Vec::new(), // full catalog: the oracle joins the axis
        scenarios: Vec::new(),
        shift_plans: vec!["always-on".into(), "short".into()],
        sizes: vec![0, 12],
        epsilons: vec![0.6],
        shards,
        timings: false,
        ratio: true,
        grid_side: 16,
        seed: 5,
    };
    let baseline = run_sweep(&config(1)).unwrap();
    let json = serde_json::to_string(&baseline).unwrap();
    for shards in [2usize, 7] {
        let sharded = serde_json::to_string(&run_sweep(&config(shards)).unwrap()).unwrap();
        assert_eq!(json, sharded, "shards = {shards} changed the ratio sweep");
    }
    let oracle_cells: Vec<_> = baseline
        .cells
        .iter()
        .filter(|c| c.matcher == DEFAULT_DYNAMIC_ORACLE)
        .collect();
    assert!(
        !oracle_cells.is_empty(),
        "the oracle must join the matcher axis"
    );
    let uniform = registry().require_scenario("uniform").unwrap();
    for cell in oracle_cells.iter().filter(|c| c.num_tasks > 0) {
        assert_eq!(
            cell.competitive_ratio,
            Some(1.0),
            "{}+{}: the oracle against itself must be exactly 1.0",
            cell.mechanism,
            cell.plan
        );
        let size = cell.num_tasks;
        let opt = dynamic_offline_optimum_with_threads(
            &uniform.instance(5, size),
            &uniform.task_times(5, size),
            &uniform.shift_plan(&cell.plan, size, 5).unwrap(),
            1,
        )
        .unwrap();
        let m = cell.measurement.as_ref().unwrap();
        assert_eq!(
            m.total_distance.to_bits(),
            opt.total_cost.to_bits(),
            "{}+{}: the oracle row must be its timeline's own optimum",
            cell.mechanism,
            cell.plan
        );
    }
    let empty: Vec<_> = baseline.cells.iter().filter(|c| c.num_tasks == 0).collect();
    assert_eq!(empty.len(), baseline.cells.len() / 2);
    for cell in empty {
        assert!(
            cell.error
                .as_deref()
                .unwrap()
                .contains("non-empty instance"),
            "{cell:?}"
        );
    }
    for cell in baseline.cells.iter().filter(|c| c.measurement.is_some()) {
        assert!(
            cell.competitive_ratio.is_some(),
            "{}+{}+{}: measured ratio cell without a ratio",
            cell.mechanism,
            cell.matcher,
            cell.plan
        );
    }
}
