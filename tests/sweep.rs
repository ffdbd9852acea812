//! Correctness harness for the registry-wide competitive-ratio subsystem:
//!
//! 1. proptest invariants — every registered pairing's measured ratio is
//!    ≥ 1 (the offline optimum really is a lower bound end-to-end), the
//!    `identity × offline-opt` oracle reports exactly 1.0, and sweep output
//!    is bit-identical across shard counts at a fixed seed;
//! 2. a full-registry product sweep that must complete with every
//!    measurable cell ≥ 1 and every unmeasurable cell carrying a typed
//!    error message;
//! 3. golden tests pinning the `RatioReport`/`SweepReport` JSON field
//!    names and a seeded deterministic 3-pairing sweep, so the CLI's
//!    `--json` contract cannot drift silently.

use pombm::ratio::{empirical_competitive_ratio, offline_optimum_with_threads, RatioError};
use pombm::sweep::{run_sweep, FlavorReport, SweepConfig};
use pombm::{registry, PipelineConfig};
use pombm_geom::seeded_rng;
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

fn fast_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        grid_side: 16,
        seed,
        ..PipelineConfig::default()
    }
}

proptest! {
    /// OPT is a true lower bound for every registered pairing: the measured
    /// ratio (and even its per-repetition minimum) never drops below 1.
    #[test]
    fn every_registered_pairing_ratio_is_at_least_one(
        seed in 0u64..10_000,
        extra in 0usize..8,
    ) {
        let inst = instance(10, 10 + extra, seed);
        let config = fast_config(seed);
        for spec in registry().specs() {
            let report = empirical_competitive_ratio(spec, &inst, &config, 2)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", spec.name())))?;
            prop_assert!(
                report.min_ratio >= 1.0 - 1e-9,
                "{}: min ratio {} below 1 (opt {})",
                spec.name(), report.min_ratio, report.opt_distance
            );
            prop_assert!(report.ratio >= 1.0 - 1e-9, "{}", spec.name());
            prop_assert!(report.max_ratio >= report.ratio, "{}", spec.name());
        }
    }

    /// The sanity oracle: the exact offline matcher fed true locations
    /// reproduces OPT bit-for-bit, in both rectangular orientations.
    #[test]
    fn identity_offline_opt_ratio_is_exactly_one(
        seed in 0u64..10_000,
        tasks in 2usize..24,
        workers in 2usize..24,
    ) {
        let inst = instance(tasks, workers, seed);
        let spec = registry().compose("identity", "offline-opt")
            .expect("both registered");
        let report = empirical_competitive_ratio(&spec, &inst, &fast_config(seed), 3)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.ratio, 1.0, "ratio drifted off the oracle");
        prop_assert_eq!(report.min_ratio, 1.0);
        prop_assert_eq!(report.max_ratio, 1.0);
        let opt = offline_optimum_with_threads(&inst, 1).map_err(|e| TestCaseError::fail(e.to_string()))?;
        for d in &report.distances {
            prop_assert_eq!(*d, opt, "a repetition diverged from OPT bitwise");
        }
    }

    /// Sweep output is a pure function of the seed: shard counts 1, 2 and 7
    /// serialize to byte-identical JSON. Cells of one instance share its
    /// optimum, whichever shard solved it: every measured cell divides by
    /// its own instance's OPT bit for bit, and the empty size's cells all
    /// carry its error.
    #[test]
    fn sweep_is_bit_identical_across_shard_counts(seed in 0u64..10_000) {
        let config = |shards: usize| SweepConfig {
            mechanisms: vec!["identity".into(), "laplace".into()],
            matchers: vec!["greedy".into(), "offline-opt".into()],
            scenarios: Vec::new(),
            sizes: vec![0, 8, 12],
            epsilons: vec![0.5],
            repetitions: 2,
            shards,
            timings: false,
            base: fast_config(seed),
        };
        let report = run_sweep(&config(1)).unwrap();
        let baseline = serde_json::to_string(&report).unwrap();
        for shards in [2usize, 7] {
            let sharded = serde_json::to_string(&run_sweep(&config(shards)).unwrap()).unwrap();
            prop_assert_eq!(&baseline, &sharded, "shards = {} changed the sweep", shards);
        }
        let uniform = registry().require_scenario("uniform").unwrap();
        prop_assert_eq!(report.measured().count(), 2 * 2 * 2);
        for (cell, r) in report.measured() {
            let opt = offline_optimum_with_threads(&uniform.instance(seed, cell.num_tasks), 1)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(r.opt_distance.to_bits(), opt.to_bits(), "size {}", cell.num_tasks);
        }
        prop_assert_eq!(report.failed().count(), 2 * 2);
        for cell in report.failed() {
            prop_assert_eq!(cell.num_tasks, 0);
            prop_assert!(cell.error.as_deref().unwrap().contains("non-empty instance"));
        }
    }
}

/// The full `mechanism × matcher` registry product completes at one
/// size/ε: every measurable pairing reports ratio ≥ 1, every incompatible
/// pairing (the blind mechanism with location-aware matchers) records a
/// typed error, and the oracle cell is exactly 1.0.
#[test]
fn full_registry_product_sweep_completes() {
    let config = SweepConfig {
        mechanisms: Vec::new(), // all 5
        matchers: Vec::new(),   // all 8
        scenarios: Vec::new(),  // just uniform
        sizes: vec![14],
        epsilons: vec![0.6],
        repetitions: 2,
        shards: 4,
        timings: false,
        base: fast_config(33),
    };
    let report = run_sweep(&config).unwrap();
    let mechanisms = registry().mechanisms().len();
    let matchers = registry().matchers().len();
    assert_eq!(report.cells.len(), mechanisms * matchers);

    for cell in &report.cells {
        match (&cell.report, &cell.error) {
            (Some(r), None) => assert!(
                r.min_ratio >= 1.0 - 1e-9,
                "{}+{}: ratio {} below 1",
                cell.mechanism,
                cell.matcher,
                r.min_ratio
            ),
            (None, Some(e)) => {
                // Only the blind mechanism composed with a location-aware
                // matcher is unmeasurable at this size.
                assert_eq!(
                    cell.mechanism, "blind",
                    "unexpected failure {}+{}: {e}",
                    cell.mechanism, cell.matcher
                );
                assert_ne!(cell.matcher, "random", "blind+random is measurable: {e}");
            }
            other => panic!(
                "{}+{}: cell must hold exactly one of report/error, got {other:?}",
                cell.mechanism, cell.matcher
            ),
        }
    }
    let (_, oracle) = report
        .measured()
        .find(|(c, _)| c.mechanism == "identity" && c.matcher == "offline-opt")
        .expect("oracle cell present");
    assert_eq!(oracle.ratio, 1.0);

    let measurable = mechanisms * matchers - (matchers - 1); // blind × location-aware
    assert_eq!(report.measured().count(), measurable);
    assert_eq!(report.failed().count(), matchers - 1);
}

/// The `RatioReport` JSON field names are a public contract (CLI `--json`,
/// sweep cells): pin them exactly, in declaration order.
#[test]
fn ratio_report_json_fields_are_pinned() {
    let inst = instance(10, 12, 3);
    let spec = &registry().require_spec("tbf").unwrap();
    let report = empirical_competitive_ratio(spec, &inst, &fast_config(3), 2).unwrap();
    let value = serde_json::to_value(&report).unwrap();
    let keys: Vec<&str> = value
        .as_object()
        .expect("a report serializes as an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "algorithm",
            "mechanism",
            "matcher",
            "epsilon",
            "num_tasks",
            "num_workers",
            "repetitions",
            "opt_distance",
            "mean_distance",
            "ratio",
            "min_ratio",
            "max_ratio",
            "distances",
        ],
        "RatioReport JSON contract drifted"
    );
}

/// Same pin for the sweep envelope and its cells.
#[test]
fn sweep_report_json_fields_are_pinned() {
    let config = SweepConfig {
        mechanisms: vec!["identity".into()],
        matchers: vec!["offline-opt".into()],
        scenarios: Vec::new(),
        sizes: vec![8],
        repetitions: 1,
        base: fast_config(1),
        ..SweepConfig::default()
    };
    let value = serde_json::to_value(&run_sweep(&config).unwrap()).unwrap();
    let keys: Vec<&str> = value
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["seed", "repetitions", "cells"]);
    let cell_keys: Vec<&str> = value["cells"].as_array().unwrap()[0]
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
            "num_tasks",
            "num_workers",
            "epsilon",
            "report",
            "error",
        ],
        "SweepCell JSON contract drifted"
    );
}

/// Golden sweep: a seeded 3-pairing sweep of fully deterministic components
/// (the identity mechanism adds no noise; greedy, kd-greedy and offline-opt
/// are deterministic matchers) must serialize to exactly this JSON. If this
/// test fails, the CLI `--json` contract changed — update deliberately.
#[test]
fn golden_three_pairing_sweep_json() {
    let config = SweepConfig {
        mechanisms: vec!["identity".into()],
        matchers: vec!["offline-opt".into(), "greedy".into(), "kd-greedy".into()],
        scenarios: Vec::new(),
        sizes: vec![6],
        epsilons: vec![0.8],
        repetitions: 2,
        shards: 2,
        timings: false,
        base: fast_config(7),
    };
    let json = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
    assert_eq!(json, GOLDEN_SWEEP_JSON, "golden sweep JSON drifted");
}

/// Recorded from the build that introduced the sweep engine (seed 7).
const GOLDEN_SWEEP_JSON: &str = "{\"seed\":7,\"repetitions\":2,\"cells\":[{\"mechanism\":\"identity\",\"matcher\":\"offline-opt\",\"num_tasks\":6,\"num_workers\":6,\"epsilon\":0.8,\"report\":{\"algorithm\":\"identity+offline-opt\",\"mechanism\":\"identity\",\"matcher\":\"offline-opt\",\"epsilon\":0.8,\"num_tasks\":6,\"num_workers\":6,\"repetitions\":2,\"opt_distance\":112.31898315485866,\"mean_distance\":112.31898315485866,\"ratio\":1.0,\"min_ratio\":1.0,\"max_ratio\":1.0,\"distances\":[112.31898315485866,112.31898315485866]},\"error\":null},{\"mechanism\":\"identity\",\"matcher\":\"greedy\",\"num_tasks\":6,\"num_workers\":6,\"epsilon\":0.8,\"report\":{\"algorithm\":\"identity+greedy\",\"mechanism\":\"identity\",\"matcher\":\"greedy\",\"epsilon\":0.8,\"num_tasks\":6,\"num_workers\":6,\"repetitions\":2,\"opt_distance\":112.31898315485866,\"mean_distance\":117.48329029993366,\"ratio\":1.0459789342817922,\"min_ratio\":1.0100578312461672,\"max_ratio\":1.0819000373174175,\"distances\":[113.44866853317133,121.51791206669597]},\"error\":null},{\"mechanism\":\"identity\",\"matcher\":\"kd-greedy\",\"num_tasks\":6,\"num_workers\":6,\"epsilon\":0.8,\"report\":{\"algorithm\":\"identity+kd-greedy\",\"mechanism\":\"identity\",\"matcher\":\"kd-greedy\",\"epsilon\":0.8,\"num_tasks\":6,\"num_workers\":6,\"repetitions\":2,\"opt_distance\":112.31898315485866,\"mean_distance\":140.26503738617282,\"ratio\":1.2488097153869693,\"min_ratio\":1.0170450637685,\"max_ratio\":1.4805743670054383,\"distances\":[166.29660738719934,114.2334673851463]},\"error\":null}]}";

/// Degenerate measurements are typed errors end-to-end, not panics.
#[test]
fn degenerate_ratio_inputs_are_typed_errors() {
    let spec = &registry().require_spec("tbf").unwrap();
    let config = fast_config(0);

    let empty = registry()
        .require_scenario("uniform")
        .unwrap()
        .instance(0, 0);
    assert!(matches!(
        empirical_competitive_ratio(spec, &empty, &config, 2),
        Err(RatioError::EmptyInstance { .. })
    ));
    assert!(matches!(
        offline_optimum_with_threads(&empty, 1),
        Err(RatioError::EmptyInstance {
            num_tasks: 0,
            num_workers: 0
        })
    ));

    let inst = instance(10, 10, 1);
    assert!(matches!(
        empirical_competitive_ratio(spec, &inst, &config, 0),
        Err(RatioError::ZeroRepetitions)
    ));
}
