//! The pipeline driver: one generic obfuscate → register → assign loop.
//!
//! Historically each compared algorithm of Sec. IV was one arm of a large
//! `match` here, duplicating the plumbing seven times. The driver is now a
//! single generic function over an [`AlgorithmSpec`] — a named pairing of
//! a [`ReportMechanism`](crate::algorithm::ReportMechanism) and an
//! [`AssignStrategy`](crate::algorithm::AssignStrategy) from the
//! [`registry`](crate::registry::registry), addressed by name.
//!
//! Timing semantics: `obfuscation_time` covers mechanism construction plus
//! every report; `assign_time` covers worker registration (matcher
//! construction) plus the online assignment loop; `setup_time` covers
//! building the server's published artifacts (zero when a prebuilt server
//! is supplied).

use crate::algorithm::{AssignCtx, PipelineError, Report, ReportSet, Reports};
use crate::registry::AlgorithmSpec;
use crate::server::{check_epsilon, check_grid_side, check_region, Server};
use pombm_geom::seeded_rng;
use pombm_matching::Matching;
use pombm_privacy::Epsilon;
use pombm_workload::Instance;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Pipeline configuration shared by all algorithms of one experiment.
///
/// No field picks a matching engine: each metric has exactly one
/// nearest-free-worker index (the HST pool's subtree-count walk, the plane's
/// k-d tree), equal pair for pair to the paper's scans.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Privacy budget ε (per workspace unit); must be positive and finite.
    pub epsilon: f64,
    /// Predefined-point grid side; `N = grid_side²`.
    pub grid_side: usize,
    /// Per-worker task capacity for the `capacity` matcher; ignored by
    /// matchers that assign each worker at most once.
    pub capacity: u32,
    /// Base seed; mechanisms, tree construction and arrival shuffling derive
    /// independent streams from it.
    pub seed: u64,
    /// Worker threads for the in-run hot paths — batched obfuscation
    /// ([`crate::algorithm::ReportMechanism::report_batch`]) and the
    /// Hungarian `offline-opt` matcher. `0` = auto-size (one per core /
    /// batch-proportional), `1` = sequential. Results are bit-identical
    /// for every value: threads trade wall-clock for cores, never output.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epsilon: 0.6,
            grid_side: 32,
            capacity: 1,
            seed: 0,
            threads: 1,
        }
    }
}

/// Effectiveness and efficiency metrics of one run, mirroring the paper's
/// reported quantities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Total travel distance over *true* locations (Figs. 6a-d, 7a-d).
    pub total_distance: f64,
    /// Number of assigned pairs.
    pub matching_size: usize,
    /// Wall-clock time spent registering workers and assigning tasks —
    /// "from receiving a task to the completion of the assignment"
    /// (Figs. 6e-h, 7e-h).
    pub assign_time: Duration,
    /// Wall-clock time spent in the privacy mechanism (not part of the
    /// paper's running-time metric; reported separately).
    pub obfuscation_time: Duration,
    /// Wall-clock time spent building server artifacts (HST construction);
    /// zero when a prebuilt server is supplied.
    pub setup_time: Duration,
}

impl RunMetrics {
    /// Mean assignment latency per task.
    ///
    /// Divides in `u128` nanoseconds: the previous
    /// `assign_time / size as u32` silently wrapped the divisor for
    /// matchings larger than `u32::MAX`.
    pub fn avg_task_latency(&self) -> Duration {
        if self.matching_size == 0 {
            Duration::ZERO
        } else {
            let nanos = self.assign_time.as_nanos() / self.matching_size as u128;
            Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
        }
    }
}

/// A completed pipeline run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The produced assignment (task index, worker index).
    pub matching: Matching,
    /// Collected metrics.
    pub metrics: RunMetrics,
}

/// Runs a registered or composed spec, building the server artifacts
/// internally when either stage needs them.
///
/// `repetition` decorrelates the randomness of repeated runs: the paper
/// repeats every experiment 10 times and reports averages. A zero or
/// oversized `config.grid_side` or an `epsilon` that is not positive and
/// finite is a typed [`PipelineError::InvalidConfig`] for every spec, and
/// so is a region the grid cannot cover for a spec that builds a server.
pub fn run_spec(
    spec: &AlgorithmSpec,
    instance: &Instance,
    config: &PipelineConfig,
    repetition: u64,
) -> Result<RunResult, PipelineError> {
    check_grid_side(config.grid_side)?;
    check_epsilon("epsilon", config.epsilon)?;
    if spec.needs_server() {
        check_region(instance.region, config.grid_side)?;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "stage timing for RunMetrics.wall_ms, which the sweep strips before fingerprinting"
    )]
    let setup_start = Instant::now();
    let server = spec
        .needs_server()
        .then(|| {
            Server::try_new(
                instance.region,
                config.grid_side,
                config.seed ^ (repetition.wrapping_mul(0x9E37_79B9)),
            )
        })
        .transpose()?;
    let setup_time = setup_start.elapsed();
    let mut result = run_spec_with_server(spec, instance, config, server.as_ref(), repetition)?;
    result.metrics.setup_time = setup_time;
    Ok(result)
}

/// Runs a spec against an optional prebuilt [`Server`] — the single
/// generic driver behind every algorithm: obfuscate (stage 1), register +
/// assign (stage 2), evaluate on true locations. An `epsilon` that is not
/// positive and finite is a typed [`PipelineError::InvalidConfig`].
pub fn run_spec_with_server(
    spec: &AlgorithmSpec,
    instance: &Instance,
    config: &PipelineConfig,
    server: Option<&Server>,
    repetition: u64,
) -> Result<RunResult, PipelineError> {
    check_epsilon("epsilon", config.epsilon)?;
    let epsilon = Epsilon::new(config.epsilon);
    let mut mech_rng = seeded_rng(config.seed.wrapping_add(repetition), 0x0BF5);

    // Stage 1: obfuscation. Workers report first (step 2 of the paper's
    // workflow), then tasks in arrival order (step 3), all on one RNG
    // stream so runs are reproducible per (seed, repetition). The batched
    // entry point is contractually bit-identical to the scalar report loop
    // at every `config.threads`, so parallelism never moves a report.
    // One concatenated batch, split afterwards: a custom mechanism whose
    // reporter carries cross-report state sees the same single
    // worker-then-task stream the pre-batch driver fed it.
    #[expect(
        clippy::disallowed_methods,
        reason = "stage timing for RunMetrics.wall_ms, which the sweep strips before fingerprinting"
    )]
    let obf_start = Instant::now();
    let mut locations = Vec::with_capacity(instance.num_workers() + instance.num_tasks());
    locations.extend_from_slice(&instance.workers);
    locations.extend_from_slice(&instance.tasks);
    let mut worker_reports: Vec<Report> =
        spec.mechanism
            .report_batch(epsilon, server, &locations, &mut mech_rng, config.threads)?;
    let task_reports: Vec<Report> = worker_reports.split_off(instance.num_workers());
    let mechanism_name = spec.mechanism.name();
    let reports = ReportSet {
        workers: Reports::collect(worker_reports, mechanism_name)?,
        tasks: Reports::collect(task_reports, mechanism_name)?,
    };
    let obfuscation_time = obf_start.elapsed();

    // Stage 2: registration + online assignment.
    let mut tie_rng = seeded_rng(config.seed.wrapping_add(repetition), 0x7A9D);
    let mut ctx = AssignCtx {
        instance,
        config,
        server,
        mech_rng: &mut mech_rng,
        tie_rng: &mut tie_rng,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "stage timing for RunMetrics.wall_ms, which the sweep strips before fingerprinting"
    )]
    let assign_start = Instant::now();
    let matching = spec.matcher.assign(reports, &mut ctx)?;
    let assign_time = assign_start.elapsed();

    debug_assert!(
        valid_for(&matching, spec.matcher.reuses_workers()),
        "{}: invalid matching",
        spec.name()
    );

    // Evaluation is always on true locations, whatever was reported.
    let total_distance = matching.total_distance(&instance.tasks, &instance.workers);
    let matching_size = matching.size();
    Ok(RunResult {
        matching,
        metrics: RunMetrics {
            total_distance,
            matching_size,
            assign_time,
            obfuscation_time,
            setup_time: Duration::ZERO,
        },
    })
}

/// Tasks must be unique always; workers only for non-capacitated matchers.
fn valid_for(matching: &Matching, reuses_workers: bool) -> bool {
    if reuses_workers {
        #[expect(
            clippy::disallowed_types,
            reason = "membership test only; never iterated"
        )]
        let mut tasks = std::collections::HashSet::new();
        matching.pairs.iter().all(|&(t, _)| tasks.insert(t))
    } else {
        matching.is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use pombm_workload::{synthetic, SyntheticParams};

    /// The paper's compared algorithms (Sec. IV-A), in its plotting order.
    const PAPER: [&str; 3] = ["lap-gr", "lap-hg", "tbf"];

    /// This repository's extension/ablation pairings.
    const EXTENDED: [&str; 4] = ["exp-hg", "tbf-rand", "tbf-chain", "random"];

    fn run(name: &str, instance: &Instance, config: &PipelineConfig, rep: u64) -> RunResult {
        let spec = registry().require_spec(name).unwrap();
        run_spec(&spec, instance, config, rep).unwrap()
    }

    fn small_instance(seed: u64) -> Instance {
        let params = SyntheticParams {
            num_tasks: 60,
            num_workers: 100,
            ..SyntheticParams::default()
        };
        synthetic::generate(&params, &mut seeded_rng(seed, 0))
    }

    #[test]
    fn all_algorithms_match_every_task() {
        let instance = small_instance(1);
        let config = PipelineConfig::default();
        for algo in PAPER {
            let r = run(algo, &instance, &config, 0);
            assert_eq!(r.matching.size(), 60, "{algo} must match all tasks");
            assert!(r.matching.is_valid());
            assert!(r.metrics.total_distance > 0.0);
        }
    }

    #[test]
    fn zero_grid_side_is_a_typed_error_for_every_spec() {
        let instance = small_instance(1);
        let config = PipelineConfig {
            grid_side: 0,
            ..PipelineConfig::default()
        };
        for algo in PAPER.into_iter().chain(EXTENDED) {
            let spec = registry().require_spec(algo).unwrap();
            assert!(
                matches!(
                    run_spec(&spec, &instance, &config, 0),
                    Err(PipelineError::InvalidConfig {
                        field: "grid_side",
                        ..
                    })
                ),
                "{algo}"
            );
        }
    }

    #[test]
    fn an_empty_run_reports_positive_zero_distance() {
        let params = SyntheticParams {
            num_tasks: 0,
            num_workers: 10,
            ..SyntheticParams::default()
        };
        let instance = synthetic::generate(&params, &mut seeded_rng(1, 0));
        for algo in PAPER {
            let r = run(algo, &instance, &PipelineConfig::default(), 0);
            assert_eq!(r.metrics.total_distance.to_bits(), 0, "{algo}");
        }
    }

    #[test]
    fn a_tree_whose_leaf_codes_overflow_is_a_typed_grid_side_error() {
        // Once the grid pitch reaches 1 the FRT depth grows with the
        // region's diameter: over a 10000-wide region a 64-side grid
        // needs more than 2^64 leaf codes, and a 16-side grid does not.
        let instance = small_instance(1).scaled(50.0);
        assert_eq!(instance.region.width(), 10_000.0);
        let spec = registry().require_spec("tbf").unwrap();
        let config = PipelineConfig {
            grid_side: 64,
            ..PipelineConfig::default()
        };
        assert!(matches!(
            run_spec(&spec, &instance, &config, 0),
            Err(PipelineError::InvalidConfig {
                field: "grid_side",
                ..
            })
        ));
        let config = PipelineConfig {
            grid_side: 16,
            ..config
        };
        run_spec(&spec, &instance, &config, 0).unwrap();
    }

    #[test]
    fn runs_are_reproducible() {
        let instance = small_instance(2);
        let config = PipelineConfig::default();
        for algo in PAPER {
            let a = run(algo, &instance, &config, 3);
            let b = run(algo, &instance, &config, 3);
            assert_eq!(a.matching.pairs, b.matching.pairs, "{algo}");
            assert_eq!(a.metrics.total_distance, b.metrics.total_distance, "{algo}");
        }
    }

    #[test]
    fn repetitions_decorrelate() {
        let instance = small_instance(3);
        let config = PipelineConfig::default();
        let a = run("tbf", &instance, &config, 0);
        let b = run("tbf", &instance, &config, 1);
        assert_ne!(
            a.matching.pairs, b.matching.pairs,
            "different repetitions should use different randomness"
        );
    }

    #[test]
    fn non_positive_or_non_finite_epsilon_is_a_typed_error() {
        let instance = small_instance(1);
        let spec = registry().require_spec("tbf").unwrap();
        let server = Server::new(instance.region, 16, 0);
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = PipelineConfig {
                epsilon,
                ..PipelineConfig::default()
            };
            for result in [
                run_spec(&spec, &instance, &config, 0),
                run_spec_with_server(&spec, &instance, &config, Some(&server), 0),
            ] {
                assert!(
                    matches!(
                        result,
                        Err(PipelineError::InvalidConfig {
                            field: "epsilon",
                            ..
                        })
                    ),
                    "epsilon {epsilon}"
                );
            }
        }
    }

    /// The paper's scan over the very reports [`run_spec_with_server`]
    /// matched for `spec` at `repetition`: Alg. 4's scan on the tree, the
    /// Euclidean scan in the plane.
    fn scan_reference(
        spec: &AlgorithmSpec,
        instance: &Instance,
        config: &PipelineConfig,
        server: &Server,
        repetition: u64,
    ) -> Matching {
        // Re-derive the reports exactly as the driver does.
        let mut rng = seeded_rng(config.seed.wrapping_add(repetition), 0x0BF5);
        let mut locations = instance.workers.clone();
        locations.extend_from_slice(&instance.tasks);
        let mut reports = spec
            .mechanism
            .report_batch(
                Epsilon::new(config.epsilon),
                Some(server),
                &locations,
                &mut rng,
                1,
            )
            .unwrap();
        let tasks = reports.split_off(instance.num_workers());
        if spec.matcher.needs_server() {
            let leaf = |r: Report| r.into_leaf(Some(server), "test").unwrap();
            let workers: Vec<_> = reports.into_iter().map(leaf).collect();
            let tasks: Vec<_> = tasks.into_iter().map(leaf).collect();
            let capacity = vec![1; workers.len()];
            pombm_matching::hst_greedy::greedy_reference(
                server.hst().ctx(),
                &workers,
                &capacity,
                &tasks,
            )
        } else {
            let point = |r: Report| r.into_point(Some(server), "test").unwrap();
            let workers: Vec<_> = reports.into_iter().map(point).collect();
            let tasks: Vec<_> = tasks.into_iter().map(point).collect();
            pombm_matching::euclidean::greedy_reference(&workers, &tasks)
        }
    }

    #[test]
    fn cell_index_matches_plain_scan_for_lapgr() {
        // lap-gr's plane index (the k-d tree, which replaced the cell
        // index) pairs exactly as the plain Euclidean scan does.
        let instance = small_instance(5);
        let config = PipelineConfig::default();
        let spec = registry().require_spec("lap-gr").unwrap();
        let server = Server::new(instance.region, config.grid_side, 9);
        let run = run_spec_with_server(&spec, &instance, &config, Some(&server), 6).unwrap();
        let scan = scan_reference(&spec, &instance, &config, &server, 6);
        assert_eq!(run.matching.pairs, scan.pairs);
    }

    #[test]
    fn indexed_and_scan_engines_agree() {
        // Each metric's one index reproduces the paper's scan on the very
        // reports the pipeline matched: lap-hg and tbf on the tree (the
        // HST pool vs Alg. 4's scan), lap-gr and lap-kd in the plane (the
        // k-d tree vs the Euclidean scan).
        let instance = small_instance(4);
        let config = PipelineConfig::default();
        for algo in ["lap-hg", "tbf", "lap-gr", "lap-kd"] {
            let spec = registry().require_spec(algo).unwrap();
            let server = Server::new(instance.region, config.grid_side, 9);
            let run = run_spec_with_server(&spec, &instance, &config, Some(&server), 5).unwrap();
            let scan = scan_reference(&spec, &instance, &config, &server, 5);
            assert_eq!(run.matching, scan, "{algo}");
        }
    }

    #[test]
    fn more_tasks_than_workers_matches_all_workers() {
        let params = SyntheticParams {
            num_tasks: 50,
            num_workers: 20,
            ..SyntheticParams::default()
        };
        let instance = synthetic::generate(&params, &mut seeded_rng(7, 0));
        for algo in PAPER {
            let r = run(algo, &instance, &PipelineConfig::default(), 0);
            assert_eq!(r.matching.size(), 20, "{algo}: k = min(n, m)");
        }
    }

    #[test]
    fn tighter_privacy_budget_worsens_distance_on_average() {
        // ε = 0.05 vs ε = 5.0 over several repetitions: the loose budget
        // must win by a wide margin for every algorithm.
        let instance = small_instance(8);
        for algo in PAPER {
            let total = |eps: f64| -> f64 {
                (0..5)
                    .map(|rep| {
                        let config = PipelineConfig {
                            epsilon: eps,
                            ..PipelineConfig::default()
                        };
                        run(algo, &instance, &config, rep).metrics.total_distance
                    })
                    .sum::<f64>()
                    / 5.0
            };
            let strict = total(0.05);
            let loose = total(5.0);
            assert!(
                loose < strict,
                "{algo}: ε=5 distance {loose} should beat ε=0.05 {strict}"
            );
        }
    }

    #[test]
    fn extended_algorithms_match_every_task() {
        let instance = small_instance(10);
        let config = PipelineConfig::default();
        for algo in EXTENDED {
            let r = run(algo, &instance, &config, 0);
            assert_eq!(r.matching.size(), 60, "{algo} must match all tasks");
            assert!(r.matching.is_valid(), "{algo}");
            assert!(r.metrics.total_distance > 0.0, "{algo}");
        }
    }

    #[test]
    fn extended_runs_are_reproducible() {
        let instance = small_instance(11);
        let config = PipelineConfig::default();
        for algo in EXTENDED {
            let a = run(algo, &instance, &config, 2);
            let b = run(algo, &instance, &config, 2);
            assert_eq!(a.matching.pairs, b.matching.pairs, "{algo}");
        }
    }

    #[test]
    fn random_floor_loses_to_every_location_aware_algorithm() {
        let instance = small_instance(12);
        let config = PipelineConfig::default();
        let avg = |algo: &str| -> f64 {
            (0..5)
                .map(|rep| run(algo, &instance, &config, rep).metrics.total_distance)
                .sum::<f64>()
                / 5.0
        };
        let floor = avg("random");
        for algo in ["lap-gr", "lap-hg", "tbf", "exp-hg", "tbf-rand", "tbf-chain"] {
            let d = avg(algo);
            assert!(
                d < floor,
                "{algo} ({d}) should beat the random floor ({floor})"
            );
        }
    }

    #[test]
    fn tbf_variants_stay_close_to_plain_tbf() {
        // Randomized tie-breaking changes individual pairs but the total
        // distance must stay in the same ballpark (within 2× on average) —
        // it optimizes the same tree-distance objective. (Chain hops end at
        // greedy's worker on the tree, so `tbf-chain` equals `tbf`.)
        let instance = small_instance(13);
        let config = PipelineConfig::default();
        let avg = |algo: &str| -> f64 {
            (0..5)
                .map(|rep| run(algo, &instance, &config, rep).metrics.total_distance)
                .sum::<f64>()
                / 5.0
        };
        let tbf = avg("tbf");
        for algo in ["tbf-rand", "tbf-chain"] {
            let d = avg(algo);
            assert!(
                d < 2.0 * tbf && d > 0.3 * tbf,
                "{algo} ({d}) drifted far from TBF ({tbf})"
            );
        }
    }

    #[test]
    fn avg_task_latency_is_consistent() {
        let instance = small_instance(9);
        let r = run("tbf", &instance, &PipelineConfig::default(), 0);
        let avg = r.metrics.avg_task_latency();
        assert!(avg <= r.metrics.assign_time);
        // Duration division truncates, so allow up to 60 lost nanoseconds.
        assert!(avg.as_nanos() * 60 + 60 >= r.metrics.assign_time.as_nanos());
    }

    #[test]
    fn avg_task_latency_survives_huge_matchings() {
        // 5 billion pairs overflows a u32 divisor; the old
        // `assign_time / size as u32` wrapped to dividing by ~705 million,
        // reporting a latency ~7x too large.
        let metrics = RunMetrics {
            total_distance: 0.0,
            matching_size: 5_000_000_000,
            assign_time: Duration::from_secs(5_000),
            obfuscation_time: Duration::ZERO,
            setup_time: Duration::ZERO,
        };
        assert_eq!(metrics.avg_task_latency(), Duration::from_micros(1));
        let empty = RunMetrics {
            matching_size: 0,
            ..metrics
        };
        assert_eq!(empty.avg_task_latency(), Duration::ZERO);
    }

    #[test]
    fn capacity_spec_reuses_workers() {
        // 90 tasks onto 40 workers of capacity 3: every task is served,
        // which the unit-capacity matchers cannot do.
        let params = SyntheticParams {
            num_tasks: 90,
            num_workers: 40,
            ..SyntheticParams::default()
        };
        let instance = synthetic::generate(&params, &mut seeded_rng(21, 0));
        let config = PipelineConfig {
            capacity: 3,
            ..PipelineConfig::default()
        };
        let r = run("tbf-cap", &instance, &config, 0);
        assert_eq!(r.matching.size(), 90);
        let unit = run("tbf", &instance, &config, 0);
        assert_eq!(unit.matching.size(), 40);
    }
}
