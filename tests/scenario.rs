//! Invariants of the workload-scenario axis:
//!
//! 1. proptest invariants — for every registered scenario, the sweep JSON
//!    is byte-identical across shard counts {1, 2, 7}, in-cell thread
//!    counts, and a partitioned run merged back with [`merge`], on
//!    both flavours;
//! 2. the back-compat contract — an empty `scenarios` axis and an explicit
//!    `["uniform"]` produce byte-identical reports *and* identical config
//!    fingerprints, so pre-scenario checkpoints and partials still merge;
//! 3. golden pins — one output fingerprint per non-default scenario and
//!    flavour, and one per registered scenario over its timeline instance,
//!    so a drive-by change to any generator (placement, demand curve, city
//!    model) fails loudly instead of silently rewriting every downstream
//!    measurement.

use pombm::fingerprint::fnv1a_hex;
use pombm::merge::merge;
use pombm::sweep::{
    run_sweep, run_sweep_partition, sweep_fingerprint, DynamicSweepConfig, PartitionPlan,
    PartitionRun, SweepConfig,
};
use pombm::{registry, PipelineConfig, DEFAULT_SCENARIO};
use proptest::prelude::*;

fn scenario_names() -> Vec<&'static str> {
    registry().scenarios().iter().map(|s| s.name()).collect()
}

fn static_config(scenarios: Vec<String>, seed: u64) -> SweepConfig {
    SweepConfig {
        mechanisms: vec!["identity".into()],
        matchers: vec!["greedy".into()],
        scenarios,
        sizes: vec![6, 8],
        epsilons: vec![0.5],
        repetitions: 1,
        shards: 1,
        timings: false,
        base: PipelineConfig {
            grid_side: 16,
            seed,
            ..PipelineConfig::default()
        },
    }
}

fn dynamic_config(scenarios: Vec<String>, seed: u64) -> DynamicSweepConfig {
    DynamicSweepConfig {
        mechanisms: vec!["identity".into()],
        matchers: vec!["hst-greedy".into()],
        scenarios,
        shift_plans: vec!["short".into()],
        sizes: vec![8],
        epsilons: vec![0.6],
        shards: 1,
        timings: false,
        ratio: false,
        grid_side: 16,
        seed,
    }
}

proptest! {
    /// Every registered scenario is shard-, thread-, and
    /// partition-invariant: the sweep artifact is a pure function of the
    /// configuration, never of how the job space was fanned out.
    #[test]
    fn every_scenario_is_shard_thread_and_partition_invariant(seed in 0u64..1000) {
        for name in scenario_names() {
            let mut config = static_config(vec![name.to_string()], seed);
            let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
            for shards in [2, 7] {
                config.shards = shards;
                let other = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
                prop_assert_eq!(&full, &other, "scenario {}: shards {}", name, shards);
            }
            config.shards = 1;
            config.base.threads = 3;
            let threaded = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
            prop_assert_eq!(&full, &threaded, "scenario {}: in-cell threads", name);
            config.base.threads = 1;

            let partials: Vec<_> = (1..=2)
                .map(|i| {
                    let run = PartitionRun {
                        plan: PartitionPlan::new(i, 2).unwrap(),
                        ..PartitionRun::default()
                    };
                    run_sweep_partition(&config, &run).unwrap().0
                })
                .collect();
            let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
            prop_assert_eq!(&full, &merged, "scenario {}: partition merge", name);
        }
    }

    /// The dynamic flavour holds the same contract for every scenario.
    #[test]
    fn every_scenario_is_invariant_on_the_dynamic_flavour(seed in 0u64..500) {
        for name in scenario_names() {
            let mut config = dynamic_config(vec![name.to_string()], seed);
            let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
            config.shards = 3;
            let other = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
            prop_assert_eq!(&full, &other, "scenario {}: dynamic shards", name);
        }
    }
}

/// An empty axis and an explicit `["uniform"]` are the *same* sweep: the
/// reports match byte for byte and the config fingerprints coincide, so
/// checkpoints and partials written before the scenario axis existed keep
/// merging with runs that spell the default out.
#[test]
fn empty_axis_is_the_uniform_default() {
    let legacy = static_config(Vec::new(), 7);
    let explicit = static_config(vec![DEFAULT_SCENARIO.to_string()], 7);
    assert_eq!(
        serde_json::to_string(&run_sweep(&legacy).unwrap()).unwrap(),
        serde_json::to_string(&run_sweep(&explicit).unwrap()).unwrap(),
    );
    assert_eq!(
        sweep_fingerprint(&legacy).unwrap(),
        sweep_fingerprint(&explicit).unwrap(),
    );
    // A non-default axis is a different grid and must not share the
    // fingerprint namespace (stale checkpoints would resume wrong cells).
    let widened = static_config(vec!["uniform".into(), "normal".into()], 7);
    assert_ne!(
        sweep_fingerprint(&legacy).unwrap(),
        sweep_fingerprint(&widened).unwrap(),
    );

    let legacy = dynamic_config(Vec::new(), 7);
    let explicit = dynamic_config(vec![DEFAULT_SCENARIO.to_string()], 7);
    assert_eq!(
        serde_json::to_string(&run_sweep(&legacy).unwrap()).unwrap(),
        serde_json::to_string(&run_sweep(&explicit).unwrap()).unwrap(),
    );
    assert_eq!(
        sweep_fingerprint(&legacy).unwrap(),
        sweep_fingerprint(&explicit).unwrap(),
    );
}

/// A multi-scenario partitioned sweep merges byte-identically to its
/// single-process run — the scenario axis rides the existing job-index
/// space, so `pombm merge` needs no new logic (the PR's acceptance
/// criterion, exercised through the library API on both flavours).
#[test]
fn multi_scenario_partitions_merge_byte_exactly() {
    let all: Vec<String> = scenario_names().iter().map(|s| s.to_string()).collect();
    let config = static_config(all.clone(), 3);
    let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
    let partials: Vec<_> = (1..=3)
        .map(|i| {
            let run = PartitionRun {
                plan: PartitionPlan::new(i, 3).unwrap(),
                ..PartitionRun::default()
            };
            run_sweep_partition(&config, &run).unwrap().0
        })
        .collect();
    let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
    assert_eq!(full, merged, "static multi-scenario merge drifted");

    let config = dynamic_config(all, 3);
    let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
    let partials: Vec<_> = (1..=2)
        .map(|i| {
            let run = PartitionRun {
                plan: PartitionPlan::new(i, 2).unwrap(),
                ..PartitionRun::default()
            };
            run_sweep_partition(&config, &run).unwrap().0
        })
        .collect();
    let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
    assert_eq!(full, merged, "dynamic multi-scenario merge drifted");
}

/// One golden output fingerprint per non-default scenario (the default is
/// pinned far more strictly by `ci/golden/mini-sweep.json`). Every number
/// a scenario feeds downstream — worker placement, task placement, demand
/// curve — is load-bearing for reproducibility, so a generator change
/// must show up here as an explicit golden update.
#[test]
fn scenario_sweep_goldens_are_pinned() {
    for (name, expected) in [
        ("normal", "a36de37be9022ba0"),
        ("hotspot", "7321577dd90b4ba4"),
        ("poisson-disk", "cd4a27cb51a7eb9b"),
        ("adversarial-cell", "4d060b99cefff856"),
    ] {
        let config = static_config(vec![name.to_string()], 42);
        let json = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        assert_eq!(
            fnv1a_hex(json.as_bytes()),
            expected,
            "scenario `{name}` sweep output drifted; report:\n{json}"
        );
    }
}

/// The dynamic sweep output per scenario is pinned too. The dynamic sweep
/// replays the square `instance`, so this covers `task_times` (hotspot's
/// rush-hour curve included) and the shift-plan derivation on top of it;
/// `timeline_instance` is pinned by
/// `scenario_timeline_instances_are_pinned`.
#[test]
fn scenario_dynamic_goldens_are_pinned() {
    for (name, expected) in [
        ("normal", "1915d5c58843c8d4"),
        ("hotspot", "b837a7b2769d2e86"),
        ("poisson-disk", "3c572ab622b668c6"),
        ("adversarial-cell", "3c2a2969e34e724a"),
    ] {
        let config = dynamic_config(vec![name.to_string()], 42);
        let json = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        assert_eq!(
            fnv1a_hex(json.as_bytes()),
            expected,
            "scenario `{name}` dynamic output drifted; report:\n{json}"
        );
    }
}

/// One pin per registered scenario over its timeline instance, the
/// placement `pombm dynamic` and `pombm serve --load` draw from. The task
/// and worker counts differ, so a swap of the two draws shows.
#[test]
fn scenario_timeline_instances_are_pinned() {
    let pins = [
        ("uniform", "8310f69184fbc3e3"),
        ("normal", "84815f1ee9a2cbbf"),
        ("hotspot", "c7296f8096b68f82"),
        ("poisson-disk", "75d8d0829dde48f2"),
        ("adversarial-cell", "5aac8dddfea3bdf3"),
    ];
    assert_eq!(pins.map(|(name, _)| name).to_vec(), scenario_names());
    for (name, expected) in pins {
        let scenario = registry().require_scenario(name).unwrap();
        let instance = scenario.timeline_instance(42, 30, 20);
        let json = serde_json::to_string(&instance).unwrap();
        assert_eq!(
            fnv1a_hex(json.as_bytes()),
            expected,
            "scenario `{name}` timeline instance drifted"
        );
    }
}
