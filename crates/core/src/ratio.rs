//! Empirical competitive ratios against the offline optimum.
//!
//! Theorem 3 bounds Alg. 4's competitive ratio by `O(ε⁻⁴ log N log² k)`
//! against `OPT`, the minimum-total-distance matching computed with every
//! task known in advance (Definition 8). The paper does not plot the ratio
//! directly (its figures compare mechanisms' total distances), but
//! measuring it grounds the theory: this module runs any registered or
//! composed [`AlgorithmSpec`] repeatedly in the random order model —
//! Definition 8's expectation is over both the mechanism's coins and the
//! arrival order — and divides each run's total distance by `d(M_OPT)`
//! computed by the exact offline matcher on the true locations.
//!
//! The result is a structured [`RatioReport`] (mean/min/max ratio plus the
//! per-repetition distances) that serializes through the serde shim, so the
//! [`sweep`](crate::sweep) engine and the CLI's `--json` output share one
//! contract. Degenerate inputs (empty instances, zero-distance optima)
//! surface as a typed [`RatioError`] instead of a panic: the registry
//! admits arbitrary compositions, so the measurement layer must reject bad
//! denominators gracefully.
//!
//! # Ratio under churn
//!
//! The dynamic engine gets the same instrument. Definition 8's `OPT` knows
//! every task in advance; under a shifting fleet the honest analogue is the
//! *clairvoyant* optimum ([`dynamic_offline_optimum_with_threads`]): with
//! the full shift/task schedule revealed, the max-cardinality min-total-distance
//! matching on the time-expanded feasibility graph — a task may only use a
//! worker whose shift covers its arrival instant, exactly the availability
//! rule the event-sequential driver enforces one event at a time. That is
//! the `dynamic-opt` oracle of the
//! [`registry`](crate::registry::Registry::dynamic_matcher_any), solved by
//! [`pombm_matching::ClairvoyantOptimal`], and
//! [`dynamic_competitive_ratio`] divides any online
//! `mechanism × dynamic-matcher` pairing's total distance by it. Static and
//! dynamic reports share one statistical core ([`RatioStats`]), so the two
//! report shapes serialize the measurement under identical field names.

use crate::algorithm::{DynamicAssignStrategy, PipelineError, ReportMechanism};
use crate::dynamic::{check_timeline, run_dynamic_spec, DynamicConfig};
use crate::pipeline::{run_spec, PipelineConfig};
use crate::registry::{AlgorithmSpec, DEFAULT_DYNAMIC_ORACLE};
use pombm_geom::seeded_rng;
use pombm_matching::offline::OfflineOptimal;
use pombm_matching::{ClairvoyantAssignment, ClairvoyantOptimal};
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::Instance;
use serde::{Deserialize, Serialize};

/// Why a competitive ratio could not be measured.
#[derive(Debug, Clone, PartialEq)]
pub enum RatioError {
    /// `repetitions == 0`: the empirical mean is undefined.
    ZeroRepetitions,
    /// `k = min(n, m) = 0`: there is nothing to match, so the ratio's
    /// numerator and denominator are both empty sums.
    EmptyInstance {
        /// Number of tasks in the rejected instance.
        num_tasks: usize,
        /// Number of workers in the rejected instance.
        num_workers: usize,
    },
    /// The offline optimum has zero total distance (every matched task
    /// coincides with its worker), so the ratio would divide by zero.
    DegenerateOptimum {
        /// Size of the zero-distance optimal matching.
        matched: usize,
    },
    /// The clairvoyant optimum matched nothing: every task arrives outside
    /// every worker's shift, so even full foresight assigns zero tasks and
    /// the dynamic ratio has an empty denominator.
    InfeasibleTimeline {
        /// Number of tasks the oracle dropped (all of them).
        dropped: usize,
    },
    /// The pipeline rejected the composition (e.g. location-blind reports
    /// fed to a location-aware matcher).
    Pipeline(PipelineError),
}

impl std::fmt::Display for RatioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RatioError::ZeroRepetitions => {
                write!(f, "competitive ratio needs at least one repetition")
            }
            RatioError::EmptyInstance {
                num_tasks,
                num_workers,
            } => write!(
                f,
                "competitive ratio needs a non-empty instance \
                 ({num_tasks} tasks, {num_workers} workers)"
            ),
            RatioError::DegenerateOptimum { matched } => write!(
                f,
                "degenerate instance: OPT distance is zero over {matched} pairs"
            ),
            RatioError::InfeasibleTimeline { dropped } => write!(
                f,
                "infeasible timeline: the clairvoyant optimum assigns nothing \
                 ({dropped} tasks all arrive outside every shift)"
            ),
            RatioError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for RatioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RatioError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for RatioError {
    fn from(e: PipelineError) -> Self {
        RatioError::Pipeline(e)
    }
}

/// The statistical core shared by the static [`RatioReport`] and the
/// dynamic [`DynamicRatioReport`]: one optimum denominator, the
/// per-repetition numerators, and the derived ratio summary.
///
/// Both report shapes inline these six fields under these exact names (the
/// serde shim has no `#[serde(flatten)]`, so the sharing is by
/// construction + a field-name pinning test rather than by nesting):
/// static and dynamic ratio JSON stay drop-in comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioStats {
    /// The offline-optimum denominator.
    pub opt_distance: f64,
    /// Mean of the per-repetition total distances.
    pub mean_distance: f64,
    /// Mean of the per-repetition ratios `d_i / opt` — exactly 1.0 when
    /// every repetition reproduces the optimum bit-for-bit.
    pub ratio: f64,
    /// Smallest per-repetition ratio.
    pub min_ratio: f64,
    /// Largest per-repetition ratio.
    pub max_ratio: f64,
    /// Per-repetition total distances, in repetition order.
    pub distances: Vec<f64>,
}

/// The six shared field names, in serialization order — what the
/// field-name pinning tests (and external consumers diffing static vs
/// dynamic ratio JSON) key on.
pub const RATIO_STAT_FIELDS: [&str; 6] = [
    "opt_distance",
    "mean_distance",
    "ratio",
    "min_ratio",
    "max_ratio",
    "distances",
];

impl RatioStats {
    /// Derives the summary from one positive denominator and at least one
    /// per-repetition distance. Callers are responsible for the typed
    /// guards ([`RatioError::ZeroRepetitions`] and friends); this is the
    /// one place the ratio arithmetic lives.
    ///
    /// The headline `ratio` is the mean of per-repetition ratios, not mean
    /// distance over the optimum: when every repetition reproduces the
    /// optimum bit-for-bit each term divides to exactly 1.0, so oracle
    /// self-measurements report exactly 1.0 with no float residue.
    pub fn collect(opt_distance: f64, distances: Vec<f64>) -> Self {
        debug_assert!(opt_distance > 0.0, "denominator must be positive");
        debug_assert!(!distances.is_empty(), "need at least one repetition");
        let n = distances.len() as f64;
        let mean_distance = distances.iter().sum::<f64>() / n;
        let ratio = distances.iter().map(|d| d / opt_distance).sum::<f64>() / n;
        let min_ratio = distances
            .iter()
            .map(|d| d / opt_distance)
            .fold(f64::INFINITY, f64::min);
        let max_ratio = distances
            .iter()
            .map(|d| d / opt_distance)
            .fold(f64::NEG_INFINITY, f64::max);
        RatioStats {
            opt_distance,
            mean_distance,
            ratio,
            min_ratio,
            max_ratio,
            distances,
        }
    }
}

/// The measured competitive ratio of one `mechanism × matcher` pairing on
/// one instance at one ε — the unit of the sweep engine's output and of
/// the CLI's `--json` contract (field names are pinned by a golden test).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatioReport {
    /// Spec name (`tbf`, `identity+offline-opt`, ...).
    pub algorithm: String,
    /// Stage-1 mechanism name.
    pub mechanism: String,
    /// Stage-2 matcher name.
    pub matcher: String,
    /// Privacy budget ε the runs used.
    pub epsilon: f64,
    /// Number of tasks `m = |T|`.
    pub num_tasks: usize,
    /// Number of workers `n = |W|`.
    pub num_workers: usize,
    /// Number of shuffled-arrival repetitions averaged over.
    pub repetitions: u64,
    /// `d(M_OPT)`: exact offline optimum on the true locations.
    pub opt_distance: f64,
    /// Mean of the per-repetition total distances.
    pub mean_distance: f64,
    /// Mean of the per-repetition ratios `d_i / d(M_OPT)` — exactly 1.0
    /// for `identity × offline-opt` (each term divides to exactly 1).
    pub ratio: f64,
    /// Smallest per-repetition ratio.
    pub min_ratio: f64,
    /// Largest per-repetition ratio.
    pub max_ratio: f64,
    /// Per-repetition total distances, in repetition order.
    pub distances: Vec<f64>,
}

/// Computes `d(M_OPT)` on the true locations, rejecting empty and
/// zero-distance instances.
///
/// Pairs are summed in worker-index order: worker indices are stable under
/// task-arrival reshuffling, so the float summation order (and therefore
/// bit-exact comparability with
/// [`OfflineOptimalStrategy`](crate::algorithm::OfflineOptimalStrategy)
/// runs) does not depend on the arrival permutation. The Hungarian solve is sharded over `threads`
/// scoped threads (`0` = auto, `1` = sequential) and is bit-identical at
/// every thread count, so ratio denominators never depend on the machine.
pub fn offline_optimum_with_threads(
    instance: &Instance,
    threads: usize,
) -> Result<f64, RatioError> {
    if instance.k() == 0 {
        return Err(RatioError::EmptyInstance {
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
        });
    }
    let mut opt =
        OfflineOptimal::solve_euclidean_with_threads(&instance.tasks, &instance.workers, threads);
    opt.pairs.sort_unstable_by_key(|&(_, w)| w);
    let distance = opt.total_distance(&instance.tasks, &instance.workers);
    if distance <= 0.0 {
        return Err(RatioError::DegenerateOptimum {
            matched: opt.size(),
        });
    }
    Ok(distance)
}

/// Measures `E[d(M_A)] / d(M_OPT)` over `repetitions` runs with shuffled
/// arrival orders (Definition 8's expectation over mechanisms and orders)
/// for any registered or composed spec.
pub fn empirical_competitive_ratio(
    spec: &AlgorithmSpec,
    instance: &Instance,
    config: &PipelineConfig,
    repetitions: u64,
) -> Result<RatioReport, RatioError> {
    if repetitions == 0 {
        return Err(RatioError::ZeroRepetitions);
    }
    let opt = offline_optimum_with_threads(instance, config.threads)?;
    competitive_ratio_against(spec, instance, config, repetitions, opt)
}

/// [`empirical_competitive_ratio`] against a denominator the caller already
/// solved: `opt` must be [`offline_optimum_with_threads`] of `instance`, and
/// `repetitions` at least one. A sweep solves each instance's optimum once
/// and shares it among every cell that divides by it.
pub(crate) fn competitive_ratio_against(
    spec: &AlgorithmSpec,
    instance: &Instance,
    config: &PipelineConfig,
    repetitions: u64,
    opt: f64,
) -> Result<RatioReport, RatioError> {
    let mut distances = Vec::with_capacity(repetitions as usize);
    for rep in 0..repetitions {
        let mut shuffled = instance.clone();
        shuffled.shuffle_tasks(&mut seeded_rng(config.seed.wrapping_add(rep), 0x5EED));
        distances.push(
            run_spec(spec, &shuffled, config, rep)?
                .metrics
                .total_distance,
        );
    }

    let stats = RatioStats::collect(opt, distances);
    Ok(RatioReport {
        algorithm: spec.name().to_string(),
        mechanism: spec.mechanism.name().to_string(),
        matcher: spec.matcher.name().to_string(),
        epsilon: config.epsilon,
        num_tasks: instance.num_tasks(),
        num_workers: instance.num_workers(),
        repetitions,
        opt_distance: stats.opt_distance,
        mean_distance: stats.mean_distance,
        ratio: stats.ratio,
        min_ratio: stats.min_ratio,
        max_ratio: stats.max_ratio,
        distances: stats.distances,
    })
}

/// The measured ratio-under-churn of one `mechanism × dynamic-matcher`
/// pairing on one timeline — the dynamic sibling of [`RatioReport`]. The
/// six statistical fields of [`RatioStats`] appear under identical names
/// in both shapes (pinned by a field-name test), so static and dynamic
/// ratio JSON diff cleanly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicRatioReport {
    /// Stage-1 mechanism name.
    pub mechanism: String,
    /// Stage-2 dynamic matcher name.
    pub matcher: String,
    /// The oracle supplying the denominator (`dynamic-opt`).
    pub oracle: String,
    /// Privacy budget ε the runs used.
    pub epsilon: f64,
    /// Number of tasks in the timeline.
    pub num_tasks: usize,
    /// Number of workers (one shift each).
    pub num_workers: usize,
    /// Number of repetitions averaged over (seed-varied mechanism coins;
    /// the timeline itself is fixed).
    pub repetitions: u64,
    /// `d(M_OPT)` over the revealed timeline (shared stats field).
    pub opt_distance: f64,
    /// Mean per-repetition total distance (shared stats field).
    pub mean_distance: f64,
    /// Mean per-repetition ratio (shared stats field) — exactly 1.0 when
    /// the oracle measures itself.
    pub ratio: f64,
    /// Smallest per-repetition ratio (shared stats field).
    pub min_ratio: f64,
    /// Largest per-repetition ratio (shared stats field).
    pub max_ratio: f64,
    /// Per-repetition total distances (shared stats field).
    pub distances: Vec<f64>,
    /// Tasks the clairvoyant optimum assigns.
    pub opt_assigned: usize,
    /// Tasks even full foresight must drop (no covering shift).
    pub opt_dropped: usize,
}

/// Solves Definition 8's optimum transplanted to the dynamic timeline: the
/// clairvoyant max-cardinality min-total-distance matching where task `t`
/// may use worker `w` only if `w`'s shift covers `t`'s arrival instant
/// (`start <= at < end`, exactly the availability rule the
/// event-sequential driver enforces).
///
/// Distances are true-location Euclidean, matching the evaluation side of
/// every driver. Returns the full [`ClairvoyantAssignment`] so callers can
/// report the oracle's own assignment/drop split alongside the
/// denominator. Rejects a timeline that does not fit the instance with
/// the same typed [`PipelineError::InvalidConfig`] as
/// [`run_dynamic_spec`], then empty instances, timelines where even full
/// foresight assigns nothing ([`RatioError::InfeasibleTimeline`]), and
/// zero-distance optima.
///
/// The padded Hungarian solve is sharded over `threads` scoped threads
/// (`0` = auto, `1` = sequential) and is bit-identical at every thread
/// count, so ratio denominators never depend on the machine.
pub fn dynamic_offline_optimum_with_threads(
    instance: &Instance,
    task_times: &[f64],
    plan: &ShiftPlan,
    threads: usize,
) -> Result<ClairvoyantAssignment, RatioError> {
    check_timeline(instance, task_times, plan)?;
    if instance.k() == 0 {
        return Err(RatioError::EmptyInstance {
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
        });
    }
    // Shifts may be listed in any order; index the windows by worker.
    let mut window = vec![(f64::INFINITY, f64::NEG_INFINITY); instance.num_workers()];
    for s in &plan.shifts {
        window[s.worker] = (s.start, s.end);
    }
    let feasible = |t: usize, w: usize| {
        let (start, end) = window[w];
        task_times[t] >= start && task_times[t] < end
    };
    let cost = |t: usize, w: usize| instance.tasks[t].dist(&instance.workers[w]);
    let opt = ClairvoyantOptimal::solve_with_threads(
        task_times.len(),
        window.len(),
        feasible,
        cost,
        threads,
    );
    if opt.size() == 0 {
        return Err(RatioError::InfeasibleTimeline {
            dropped: instance.num_tasks(),
        });
    }
    if opt.total_cost <= 0.0 {
        return Err(RatioError::DegenerateOptimum {
            matched: opt.size(),
        });
    }
    Ok(opt)
}

/// Measures the ratio-under-churn: replays the fixed shift/task timeline
/// `repetitions` times through `mechanism × matcher` (seed varied per
/// repetition, so the expectation is over the mechanism's coins) and
/// divides each run's total distance by the clairvoyant optimum's.
///
/// The oracle itself is admitted in matcher position — its "run" *is* the
/// clairvoyant solution, so its cell reports ratio exactly 1.0 — which is
/// how a ratio sweep shows the denominator as a row. Any other use of an
/// oracle ([`DynamicAssignStrategy::is_oracle`]) stays a typed registry
/// error.
pub fn dynamic_competitive_ratio(
    instance: &Instance,
    task_times: &[f64],
    plan: &ShiftPlan,
    config: &DynamicConfig,
    mechanism: &dyn ReportMechanism,
    matcher: &dyn DynamicAssignStrategy,
    repetitions: u64,
) -> Result<DynamicRatioReport, RatioError> {
    if repetitions == 0 {
        return Err(RatioError::ZeroRepetitions);
    }
    let opt = dynamic_offline_optimum_with_threads(instance, task_times, plan, 1)?;

    let mut distances = Vec::with_capacity(repetitions as usize);
    for rep in 0..repetitions {
        if matcher.is_oracle() {
            // The oracle's run is the clairvoyant solution itself: the
            // numerator is the denominator, so each term divides to
            // exactly 1.0.
            distances.push(opt.total_cost);
            continue;
        }
        let rep_config = DynamicConfig {
            seed: config.seed.wrapping_add(rep),
            ..*config
        };
        let out = run_dynamic_spec(instance, task_times, plan, &rep_config, mechanism, matcher)?;
        distances.push(out.total_distance);
    }

    let stats = RatioStats::collect(opt.total_cost, distances);
    Ok(DynamicRatioReport {
        mechanism: mechanism.name().to_string(),
        matcher: matcher.name().to_string(),
        oracle: DEFAULT_DYNAMIC_ORACLE.to_string(),
        epsilon: config.epsilon,
        num_tasks: instance.num_tasks(),
        num_workers: instance.num_workers(),
        repetitions,
        opt_distance: stats.opt_distance,
        mean_distance: stats.mean_distance,
        ratio: stats.ratio,
        min_ratio: stats.min_ratio,
        max_ratio: stats.max_ratio,
        distances: stats.distances,
        opt_assigned: opt.size(),
        opt_dropped: opt.dropped.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use pombm_geom::{Point, Rect};
    use pombm_workload::{synthetic, SyntheticParams};

    fn instance(seed: u64) -> Instance {
        let params = SyntheticParams {
            num_tasks: 40,
            num_workers: 60,
            ..SyntheticParams::default()
        };
        synthetic::generate(&params, &mut seeded_rng(seed, 0))
    }

    #[test]
    fn ratio_is_at_least_one() {
        let inst = instance(1);
        let config = PipelineConfig::default();
        for algo in ["lap-gr", "lap-hg", "tbf"] {
            let spec = registry().require_spec(algo).unwrap();
            let r = empirical_competitive_ratio(&spec, &inst, &config, 3).unwrap();
            assert!(
                r.ratio >= 1.0 - 1e-9,
                "{algo}: ratio {} (avg {}, opt {}) below 1",
                r.ratio,
                r.mean_distance,
                r.opt_distance
            );
            assert!(r.min_ratio <= r.ratio && r.ratio <= r.max_ratio, "{algo}");
            assert_eq!(r.distances.len(), 3, "{algo}");
        }
    }

    #[test]
    fn identity_offline_opt_is_exactly_one() {
        let inst = instance(4);
        let spec = &registry().require_spec("opt").unwrap();
        let r = empirical_competitive_ratio(spec, &inst, &PipelineConfig::default(), 5).unwrap();
        assert_eq!(r.ratio, 1.0, "oracle pairing must reproduce OPT exactly");
        assert_eq!(r.min_ratio, 1.0);
        assert_eq!(r.max_ratio, 1.0);
    }

    #[test]
    fn loose_budget_shrinks_the_ratio() {
        let inst = instance(2);
        let strict = PipelineConfig {
            epsilon: 0.05,
            ..PipelineConfig::default()
        };
        let loose = PipelineConfig {
            epsilon: 5.0,
            ..PipelineConfig::default()
        };
        let tbf = &registry().require_spec("tbf").unwrap();
        let r_strict = empirical_competitive_ratio(tbf, &inst, &strict, 4)
            .unwrap()
            .ratio;
        let r_loose = empirical_competitive_ratio(tbf, &inst, &loose, 4)
            .unwrap()
            .ratio;
        assert!(
            r_loose < r_strict,
            "ε=5 ratio {r_loose} should beat ε=0.05 ratio {r_strict}"
        );
    }

    #[test]
    fn zero_repetitions_is_a_typed_error() {
        let inst = instance(3);
        let spec = &registry().require_spec("tbf").unwrap();
        assert_eq!(
            empirical_competitive_ratio(spec, &inst, &PipelineConfig::default(), 0).unwrap_err(),
            RatioError::ZeroRepetitions
        );
    }

    #[test]
    fn empty_instance_is_a_typed_error() {
        let empty = Instance::new(Rect::square(100.0), vec![], vec![Point::new(1.0, 1.0)]);
        let spec = &registry().require_spec("tbf").unwrap();
        assert_eq!(
            empirical_competitive_ratio(spec, &empty, &PipelineConfig::default(), 2).unwrap_err(),
            RatioError::EmptyInstance {
                num_tasks: 0,
                num_workers: 1
            }
        );
    }

    #[test]
    fn zero_distance_opt_is_a_typed_error() {
        // Every task coincides with a worker: OPT = 0, ratio undefined.
        let p = Point::new(5.0, 5.0);
        let inst = Instance::new(Rect::square(100.0), vec![p, p], vec![p, p]);
        let spec = &registry().require_spec("lap-gr").unwrap();
        assert_eq!(
            empirical_competitive_ratio(spec, &inst, &PipelineConfig::default(), 2).unwrap_err(),
            RatioError::DegenerateOptimum { matched: 2 }
        );
    }

    #[test]
    fn incompatible_pairings_surface_pipeline_errors() {
        let inst = instance(5);
        let blind_greedy = registry().compose("blind", "offline-opt").unwrap();
        let err = empirical_competitive_ratio(&blind_greedy, &inst, &PipelineConfig::default(), 2)
            .unwrap_err();
        assert!(matches!(err, RatioError::Pipeline(_)), "got {err}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let inst = instance(6);
        let spec = &registry().require_spec("lap-gr").unwrap();
        let r = empirical_competitive_ratio(spec, &inst, &PipelineConfig::default(), 2).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: RatioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, r.algorithm);
        assert_eq!(back.ratio, r.ratio);
        assert_eq!(back.distances, r.distances);
    }

    fn dynamic_instance(tasks: usize, workers: usize, seed: u64) -> Instance {
        let params = SyntheticParams {
            num_tasks: tasks,
            num_workers: workers,
            ..SyntheticParams::default()
        };
        synthetic::generate(&params, &mut seeded_rng(seed, 0))
    }

    /// Evenly spaced arrivals strictly inside `[0, horizon)`.
    fn spread_times(n: usize, horizon: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 + 0.5) * horizon / n as f64)
            .collect()
    }

    #[test]
    fn dynamic_ratio_is_at_least_one_under_full_coverage() {
        // Under an always-on fleet both the oracle and every online
        // matcher assign every task, so online totals dominate the
        // clairvoyant optimum and the ratio is well-ordered.
        let inst = dynamic_instance(30, 60, 11);
        let times = spread_times(30, 100.0);
        let plan = ShiftPlan::always_on(60, 101.0);
        let config = DynamicConfig::default();
        let mechanism = registry().require_mechanism("identity").unwrap();
        for matcher in registry().dynamic_matchers() {
            let r = dynamic_competitive_ratio(
                &inst,
                &times,
                &plan,
                &config,
                mechanism.as_ref(),
                matcher.as_ref(),
                3,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", matcher.name()));
            assert!(
                r.ratio >= 1.0 - 1e-9,
                "{}: ratio {} below 1 (opt {})",
                matcher.name(),
                r.ratio,
                r.opt_distance
            );
            assert!(r.min_ratio <= r.ratio && r.ratio <= r.max_ratio);
            assert_eq!(r.distances.len(), 3);
            assert_eq!(r.opt_assigned, 30, "{}", matcher.name());
            assert_eq!(r.opt_dropped, 0, "{}", matcher.name());
            assert_eq!(r.oracle, DEFAULT_DYNAMIC_ORACLE);
        }
    }

    #[test]
    fn oracle_cell_reports_exactly_one() {
        let inst = dynamic_instance(20, 25, 12);
        let times = spread_times(20, 50.0);
        let plan = ShiftPlan::uniform(25, 50.0, 10.0, 30.0, &mut seeded_rng(13, 0));
        let oracle = registry()
            .dynamic_matcher_any(DEFAULT_DYNAMIC_ORACLE)
            .unwrap();
        assert!(oracle.is_oracle());
        let mechanism = registry().require_mechanism("identity").unwrap();
        let r = dynamic_competitive_ratio(
            &inst,
            &times,
            &plan,
            &DynamicConfig::default(),
            mechanism.as_ref(),
            oracle.as_ref(),
            4,
        )
        .unwrap();
        assert_eq!(r.ratio, 1.0, "oracle vs itself must divide to exactly 1");
        assert_eq!(r.min_ratio, 1.0);
        assert_eq!(r.max_ratio, 1.0);
        assert_eq!(r.mean_distance, r.opt_distance);
        assert_eq!(r.matcher, "dynamic-opt");
        assert_eq!(r.opt_assigned + r.opt_dropped, 20);
    }

    #[test]
    fn zero_overlap_timeline_is_a_typed_error() {
        // Every shift is over before the first task arrives: even full
        // foresight assigns nothing.
        let inst = dynamic_instance(10, 8, 14);
        let times: Vec<f64> = (0..10).map(|i| 50.0 + i as f64).collect();
        let plan = ShiftPlan::uniform(8, 40.0, 5.0, 10.0, &mut seeded_rng(15, 0));
        assert_eq!(
            dynamic_offline_optimum_with_threads(&inst, &times, &plan, 1).unwrap_err(),
            RatioError::InfeasibleTimeline { dropped: 10 }
        );
    }

    #[test]
    fn dynamic_oracle_is_thread_invariant() {
        let inst = dynamic_instance(40, 30, 16);
        let times = spread_times(40, 200.0);
        let plan = ShiftPlan::uniform(30, 200.0, 30.0, 120.0, &mut seeded_rng(17, 0));
        let base = dynamic_offline_optimum_with_threads(&inst, &times, &plan, 1).unwrap();
        for threads in [2, 7] {
            let t = dynamic_offline_optimum_with_threads(&inst, &times, &plan, threads).unwrap();
            assert_eq!(t.pairs, base.pairs, "threads={threads}");
            assert_eq!(t.dropped, base.dropped, "threads={threads}");
            assert!(
                t.total_cost == base.total_cost,
                "threads={threads}: {} vs {}",
                t.total_cost,
                base.total_cost
            );
        }
    }

    #[test]
    fn static_and_dynamic_ratio_fields_share_names() {
        let inst = instance(7);
        let spec = &registry().require_spec("lap-gr").unwrap();
        let stat = empirical_competitive_ratio(spec, &inst, &PipelineConfig::default(), 2).unwrap();

        let dyn_inst = dynamic_instance(15, 20, 18);
        let times = spread_times(15, 60.0);
        let plan = ShiftPlan::always_on(20, 61.0);
        let mechanism = registry().require_mechanism("identity").unwrap();
        let matcher = registry().require_dynamic_matcher("kd-rebuild").unwrap();
        let dynamic = dynamic_competitive_ratio(
            &dyn_inst,
            &times,
            &plan,
            &DynamicConfig::default(),
            mechanism.as_ref(),
            matcher.as_ref(),
            2,
        )
        .unwrap();

        let keys = |json: String| -> Vec<String> {
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            v.as_object()
                .expect("report serializes as an object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let stat_keys = keys(serde_json::to_string(&stat).unwrap());
        let dyn_keys = keys(serde_json::to_string(&dynamic).unwrap());
        // Both shapes carry the six shared stats fields, contiguously and
        // in the same order.
        let shared: Vec<&str> = RATIO_STAT_FIELDS.to_vec();
        let tail_of = |keys: &[String]| -> Vec<String> {
            let start = keys
                .iter()
                .position(|k| k == shared[0])
                .expect("opt_distance present");
            keys[start..start + shared.len()].to_vec()
        };
        assert_eq!(tail_of(&stat_keys), shared, "static report");
        assert_eq!(tail_of(&dyn_keys), shared, "dynamic report");
    }

    #[test]
    fn dynamic_report_round_trips_through_json() {
        let inst = dynamic_instance(12, 18, 19);
        let times = spread_times(12, 40.0);
        let plan = ShiftPlan::always_on(18, 41.0);
        let mechanism = registry().require_mechanism("hst").unwrap();
        let matcher = registry().require_dynamic_matcher("hst-greedy").unwrap();
        let r = dynamic_competitive_ratio(
            &inst,
            &times,
            &plan,
            &DynamicConfig::default(),
            mechanism.as_ref(),
            matcher.as_ref(),
            2,
        )
        .unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: DynamicRatioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.matcher, r.matcher);
        assert_eq!(back.oracle, r.oracle);
        assert_eq!(back.ratio, r.ratio);
        assert_eq!(back.distances, r.distances);
        assert_eq!(back.opt_assigned, r.opt_assigned);
    }
}
