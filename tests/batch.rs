//! The hot-path parallelism contracts end-to-end:
//!
//! 1. [`ReportMechanism::report_batch`] is bit-identical to the scalar
//!    report loop — output *and* final RNG state — for every registered
//!    mechanism at several thread counts (the overridden parallel path
//!    included), on a batch small enough for one auto thread and one
//!    large enough for two;
//! 2. the generic driver produces bit-identical `RunResult`s for every
//!    `PipelineConfig::threads` value, across all registered specs;
//! 3. the Hungarian `offline-opt` matcher (and the ratio denominator built
//!    on it) is thread-count invariant on instances large enough to take
//!    the blocked parallel scan;
//! 4. sweeps with `--threads`-style in-cell parallelism serialize to the
//!    same bytes as sequential sweeps, and `--timings` adds `wall_ms`
//!    without perturbing the timing-free JSON.

use pombm::algorithm::{Report, ReportMechanism};
use pombm::ratio::offline_optimum_with_threads;
use pombm::sweep::{run_sweep, SweepConfig};
use pombm::{registry, run_spec, PipelineConfig, Server};
use pombm_geom::{seeded_rng, Point, Rect};
use pombm_matching::offline::OfflineOptimal;
use pombm_privacy::Epsilon;
use pombm_workload::{synthetic, Instance, SyntheticParams};
use proptest::prelude::*;
use rand::Rng;

fn instance(tasks: usize, workers: usize, seed: u64) -> Instance {
    let params = SyntheticParams {
        num_tasks: tasks,
        num_workers: workers,
        ..SyntheticParams::default()
    };
    synthetic::generate(&params, &mut seeded_rng(seed, 0))
}

/// The scalar loop every `report_batch` implementation must reproduce.
fn scalar_reports(
    mechanism: &dyn ReportMechanism,
    server: Option<&Server>,
    locations: &[Point],
    rng: &mut rand::rngs::StdRng,
) -> Vec<Report> {
    let mut reporter = mechanism
        .reporter(Epsilon::new(0.6), server)
        .expect("reporter builds");
    locations.iter().map(|p| reporter.report(p, rng)).collect()
}

#[test]
fn report_batch_is_bit_identical_to_the_scalar_loop_for_every_mechanism() {
    let region = Rect::square(200.0);
    let server = Server::new(region, 16, 5);
    let mut loc_rng = seeded_rng(8, 1);
    // `threads = 0` gives one thread per ~4096 items, so the second batch
    // runs the auto path on two threads wherever two cores exist.
    for n in [600, 4500] {
        let locations: Vec<Point> = (0..n)
            .map(|_| Point::new(loc_rng.gen::<f64>() * 200.0, loc_rng.gen::<f64>() * 200.0))
            .collect();
        for mechanism in registry().mechanisms() {
            let name = mechanism.name();
            let server_opt = mechanism.needs_server().then_some(&server);
            let mut scalar_rng = seeded_rng(13, 2);
            let scalar =
                scalar_reports(mechanism.as_ref(), server_opt, &locations, &mut scalar_rng);
            for threads in [0usize, 1, 2, 7] {
                let mut rng = seeded_rng(13, 2);
                let batched = mechanism
                    .report_batch(Epsilon::new(0.6), server_opt, &locations, &mut rng, threads)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    batched, scalar,
                    "{name}, {n} items at {threads} threads: reports drifted"
                );
                assert_eq!(
                    rng, scalar_rng,
                    "{name}, {n} items at {threads} threads: stream state drifted"
                );
            }
        }
    }
}

#[test]
fn run_spec_is_thread_count_invariant_for_every_registered_spec() {
    let inst = instance(700, 900, 17);
    for spec in registry().specs() {
        let run_at = |threads: usize| {
            let config = PipelineConfig {
                grid_side: 16,
                threads,
                ..PipelineConfig::default()
            };
            run_spec(spec, &inst, &config, 1).unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
        };
        let baseline = run_at(1);
        for threads in [0usize, 2, 7] {
            let r = run_at(threads);
            assert_eq!(
                r.matching.pairs,
                baseline.matching.pairs,
                "{}: threads = {threads} changed the matching",
                spec.name()
            );
            assert_eq!(
                r.metrics.total_distance,
                baseline.metrics.total_distance,
                "{}: threads = {threads} changed the distance",
                spec.name()
            );
        }
    }
}

#[test]
fn offline_optimum_is_thread_count_invariant_past_the_parallel_cutoff() {
    // 1200 × 1200 exceeds the solver's sequential-fallback cutoff, so the
    // blocked parallel scan path really runs.
    let inst = instance(1200, 1200, 23);
    let baseline = offline_optimum_with_threads(&inst, 1).expect("measurable");
    for threads in [0usize, 2, 3, 7] {
        let par = offline_optimum_with_threads(&inst, threads).expect("measurable");
        assert_eq!(
            par.to_bits(),
            baseline.to_bits(),
            "threads = {threads} changed the OPT denominator"
        );
    }
}

proptest! {
    /// Random rectangular Euclidean instances, arbitrary thread counts:
    /// the parallel Hungarian returns the reference solver's exact pairs
    /// and a bit-identical total cost.
    #[test]
    fn hungarian_threads_match_reference_on_rectangular_instances(
        sizes in (1usize..120, 1usize..120),
        seed in 0u64..10_000,
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 7][threads_idx];
        let (tasks_n, workers_n) = sizes;
        let inst = instance(tasks_n, workers_n, seed);
        let cost = |t: usize, w: usize| inst.tasks[t].dist(&inst.workers[w]);
        let reference = OfflineOptimal::solve_reference(tasks_n, workers_n, cost);
        let parallel = OfflineOptimal::solve_with_threads(tasks_n, workers_n, threads, cost);
        prop_assert_eq!(&parallel.pairs, &reference.pairs);
        let ref_total: f64 = reference.pairs.iter().map(|&(t, w)| cost(t, w)).sum();
        let par_total: f64 = parallel.pairs.iter().map(|&(t, w)| cost(t, w)).sum();
        prop_assert_eq!(ref_total.to_bits(), par_total.to_bits());
    }

    /// Tie-heavy integer costs: the canonical (cost, lowest-column) rule
    /// keeps every path identical to the reference solver.
    #[test]
    fn hungarian_threads_match_reference_on_tie_heavy_costs(
        sizes in (1usize..40, 1usize..40),
        seed in 0u64..10_000,
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 7][threads_idx];
        let (rows, cols) = sizes;
        let mut rng = seeded_rng(seed, 0x71E5);
        let costs: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(0..3u32) as f64)
            .collect();
        let cost = |t: usize, w: usize| costs[t * cols + w];
        let reference = OfflineOptimal::solve_reference(rows, cols, cost);
        let parallel = OfflineOptimal::solve_with_threads(rows, cols, threads, cost);
        prop_assert_eq!(&parallel.pairs, &reference.pairs);
    }
}

#[test]
fn sweep_json_is_identical_across_in_cell_thread_counts() {
    let config = |threads: usize| SweepConfig {
        mechanisms: vec!["identity".into(), "laplace".into(), "hst".into()],
        matchers: vec!["offline-opt".into(), "greedy".into()],
        scenarios: Vec::new(),
        sizes: vec![16],
        epsilons: vec![0.6],
        repetitions: 2,
        shards: 2,
        timings: false,
        base: PipelineConfig {
            grid_side: 16,
            seed: 11,
            threads,
            ..PipelineConfig::default()
        },
    };
    let baseline = serde_json::to_string(&run_sweep(&config(1)).unwrap()).unwrap();
    for threads in [0usize, 2, 7] {
        let parallel = serde_json::to_string(&run_sweep(&config(threads)).unwrap()).unwrap();
        assert_eq!(baseline, parallel, "threads = {threads} changed the sweep");
    }
}

#[test]
fn timings_add_wall_ms_without_perturbing_the_deterministic_json() {
    let config = |timings: bool| SweepConfig {
        mechanisms: vec!["identity".into()],
        matchers: vec!["offline-opt".into(), "greedy".into()],
        scenarios: Vec::new(),
        sizes: vec![10],
        epsilons: vec![0.6],
        repetitions: 2,
        shards: 1,
        timings,
        base: PipelineConfig {
            grid_side: 16,
            seed: 3,
            ..PipelineConfig::default()
        },
    };
    let plain = run_sweep(&config(false)).unwrap();
    assert!(plain.cells.iter().all(|c| c.wall_ms.is_none()));
    let plain_json = serde_json::to_string(&plain).unwrap();
    assert!(
        !plain_json.contains("wall_ms"),
        "timings off must omit the column entirely: {plain_json}"
    );

    let timed = run_sweep(&config(true)).unwrap();
    assert!(timed
        .cells
        .iter()
        .all(|c| c.wall_ms.is_some_and(|ms| ms >= 0.0)));
    let timed_json = serde_json::to_string(&timed).unwrap();
    assert!(timed_json.contains("wall_ms"), "{timed_json}");

    // Stripping wall_ms from the timed report reproduces the plain JSON:
    // the timing column is purely additive.
    let mut stripped = timed.clone();
    for cell in &mut stripped.cells {
        cell.wall_ms = None;
    }
    assert_eq!(serde_json::to_string(&stripped).unwrap(), plain_json);
}
