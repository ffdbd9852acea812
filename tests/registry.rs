//! Registry-level guarantees of the composable pipeline API:
//!
//! 1. a golden test pinning that the seven legacy pairings (`lap-gr` …
//!    `random`) produce matchings identical to the pre-refactor enum
//!    pipeline (fingerprints recorded from the last enum-dispatch build,
//!    same seeds), run by registry name;
//! 2. a registry-wide property test: every registered spec matches all
//!    tasks whenever `workers >= tasks` (unit capacity);
//! 3. end-to-end coverage of pairings the closed enum could not express.

use pombm::algorithm::{AssignCtx, ReportSet, Reports};
use pombm::fingerprint::Fnv1a;
use pombm::{registry, run_epochs, run_spec, EpochConfig, PipelineConfig, Server};
use pombm_geom::{seeded_rng, Rect};
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

/// Fingerprints recorded from the pre-refactor enum-dispatch pipeline
/// (60 tasks, 100 workers, instance seed 42) for repetitions 0 and 3.
/// Config 0 is `PipelineConfig::default()`; config 1 is
/// `{epsilon: 1.0, grid_side: 16, seed: 7}`. (Config 1 was recorded with the
/// since-retired indexed tree engine and 8×8 Euclidean cell index, config 0
/// with the paper's scans; every engine gave the same matchings, so both
/// now pin each metric's one index.)
const GOLDEN: [(&str, [u64; 4]); 7] = [
    (
        "lap-gr",
        [
            0x7A0B362294B9A1C4,
            0x73850A1C4DFFF23E,
            0xF5644AA25FA3F35E,
            0x9BA31C0112274213,
        ],
    ),
    (
        "lap-hg",
        [
            0x951AE23BD5DCF805,
            0x7844FCE53234C9C6,
            0x2A85785C96A7AC04,
            0x2B85BEDEEBFFE719,
        ],
    ),
    (
        "tbf",
        [
            0x3B8566C396C7C6A5,
            0xCC781D1E3B004EAC,
            0xB55FA04BBE8F651A,
            0x82802F8CB74AA8DC,
        ],
    ),
    (
        "exp-hg",
        [
            0xF7A380A2C85DA188,
            0x1923360CAD0B09DA,
            0x5AA375E6448CFDA5,
            0x4638AD5AAFEE3A42,
        ],
    ),
    (
        "tbf-rand",
        [
            0xF8BA6DBDDE44253D,
            0x6A6447A7B4574C65,
            0x9035A9BC4CC7B9F2,
            0xD4A590DEA20CB2F9,
        ],
    ),
    (
        "tbf-chain",
        [
            0x3B8566C396C7C6A5,
            0xCC781D1E3B004EAC,
            0xB55FA04BBE8F651A,
            0x82802F8CB74AA8DC,
        ],
    ),
    (
        "random",
        [
            0x09C2724C3718E456,
            0xC0E4C14F1DAFD811,
            0x7F563EBB12F3A9DF,
            0xA3714DCC42A9708F,
        ],
    ),
];

fn golden_configs() -> [PipelineConfig; 2] {
    [
        PipelineConfig::default(),
        PipelineConfig {
            epsilon: 1.0,
            grid_side: 16,
            seed: 7,
            ..PipelineConfig::default()
        },
    ]
}

#[test]
fn legacy_variants_match_pre_refactor_matchings_exactly() {
    let inst = instance(60, 100, 42);
    let configs = golden_configs();
    for (algo, expected) in GOLDEN {
        let spec = registry().require_spec(algo).expect("registered");
        for (ci, config) in configs.iter().enumerate() {
            for (ri, rep) in [0u64, 3].into_iter().enumerate() {
                let spec_run = run_spec(&spec, &inst, config, rep).expect("runnable");
                assert_eq!(
                    fnv(&spec_run.matching.pairs),
                    expected[ci * 2 + ri],
                    "{algo} config {ci} rep {rep}: drifted from the \
                     pre-refactor enum pipeline"
                );
            }
        }
    }
}

/// Fingerprints of pairings `GOLDEN` leaves out, recorded on the parent
/// of the change that moved the static nearest-worker matchers onto the
/// dynamic pools' indexes (while `HstGreedy`, `EuclideanGreedy` and the
/// capacitated matcher's own index still ran them), with the same digest,
/// configs and repetitions: `lap-kd` on the `GOLDEN` instance, and
/// `tbf-cap` at capacity 2 and 3 on a 60-task × 25-worker instance
/// (seed 42), where workers serve several tasks and slots run out.
const PARENT_PINS: [(&str, u32, [u64; 4]); 3] = [
    (
        "lap-kd",
        1,
        [
            0x7A0B362294B9A1C4,
            0x73850A1C4DFFF23E,
            0xF5644AA25FA3F35E,
            0x9BA31C0112274213,
        ],
    ),
    (
        "tbf-cap",
        2,
        [
            0x47C0394210303924,
            0x6459D2FE4D13A364,
            0x670A8491FE370024,
            0x7DB41553F4DCE824,
        ],
    ),
    (
        "tbf-cap",
        3,
        [
            0x130706AC104AC452,
            0xCAB0D2A4DA21146B,
            0xE619CC6C756FB7BB,
            0x8348108EDB76A356,
        ],
    ),
];

/// `run_epochs` under TBF's mechanism at `EpochConfig::default()`, for 400
/// workers (fewer than each epoch's 500 tasks) and 600: a digest of every
/// epoch's counters and the bits of its distances, then the budget spent.
/// Recorded on the same parent as `PARENT_PINS`.
const EPOCH_PINS: [(usize, u64); 2] = [(400, 0xFB9CF9FFDEF67A3C), (600, 0x64E024DFEA75598A)];

#[test]
fn parent_recorded_pairings_still_match() {
    let configs = golden_configs();
    for (algo, capacity, expected) in PARENT_PINS {
        let inst = match algo {
            "lap-kd" => instance(60, 100, 42),
            _ => instance(60, 25, 42),
        };
        let spec = registry().require_spec(algo).expect("registered");
        for (ci, config) in configs.iter().enumerate() {
            let config = PipelineConfig {
                capacity,
                ..*config
            };
            for (ri, rep) in [0u64, 3].into_iter().enumerate() {
                let run = run_spec(&spec, &inst, &config, rep).expect("runnable");
                assert_eq!(
                    fnv(&run.matching.pairs),
                    expected[ci * 2 + ri],
                    "{algo} capacity {capacity} config {ci} rep {rep}"
                );
            }
        }
    }
}

#[test]
fn epoch_simulation_matches_the_parent_recording() {
    let hst = registry().require_mechanism("hst").unwrap();
    for (workers, expected) in EPOCH_PINS {
        let report = run_epochs(workers, &EpochConfig::default(), hst.as_ref()).unwrap();
        let mut h = Fnv1a::new();
        for m in &report.per_epoch {
            h.write_u64(m.fresh_reports as u64)
                .write_u64(m.stale_reports as u64)
                .write_u64(m.matching_size as u64)
                .write_u64(m.total_distance.to_bits())
                .write_u64(m.avg_report_staleness.to_bits());
        }
        h.write_u64(report.worker_budget_spent.to_bits());
        assert_eq!(h.finish(), expected, "{workers} workers");
    }
}

proptest! {
    /// Every registered spec is a total matcher: workers >= tasks implies
    /// every task is assigned (at unit capacity), the assignment is valid,
    /// and reruns reproduce it.
    #[test]
    fn every_spec_matches_all_tasks_when_workers_cover(
        sizes in (5usize..40, 0usize..40),
        seed in 0u64..1000,
        rep in 0u64..3,
    ) {
        let (tasks, extra) = sizes;
        let inst = instance(tasks, tasks + extra, seed);
        let config = PipelineConfig {
            grid_side: 16,
            ..PipelineConfig::default()
        };
        for spec in registry().specs() {
            let r = run_spec(spec, &inst, &config, rep)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(r.matching.size(), tasks, "{} left tasks unmatched", spec.name());
            prop_assert!(r.matching.is_valid(), "{} produced an invalid matching", spec.name());
            let again = run_spec(spec, &inst, &config, rep)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&r.matching.pairs, &again.matching.pairs,
                "{} is not reproducible", spec.name());
        }
    }
}

#[test]
fn novel_pairings_run_end_to_end() {
    let inst = instance(50, 90, 5);
    let config = PipelineConfig {
        grid_side: 16,
        ..PipelineConfig::default()
    };
    // Registered novel pairings...
    for name in ["exp-chain", "tbf-cap", "lap-kd"] {
        let spec = registry().require_spec(name).unwrap();
        let r = run_spec(&spec, &inst, &config, 0).expect(name);
        assert_eq!(r.matching.size(), 50, "{name}");
        assert!(r.metrics.total_distance > 0.0, "{name}");
    }
    // ...and every free mechanism x matcher product that carries location
    // information (blind mechanisms only pair with the blind matcher).
    for mech in ["laplace", "hst", "exp", "identity"] {
        for matcher in [
            "greedy",
            "kd-greedy",
            "hst-greedy",
            "hst-rand",
            "chain",
            "capacity",
            "random",
        ] {
            let spec = registry().compose(mech, matcher).unwrap();
            let r = run_spec(&spec, &inst, &config, 1)
                .unwrap_or_else(|e| panic!("{mech}+{matcher}: {e}"));
            assert_eq!(r.matching.size(), 50, "{mech}+{matcher}");
        }
    }
    // The blind mechanism works with the location-blind matcher and is
    // rejected (not mis-assigned) by location-aware ones.
    let blind_ok = registry().compose("blind", "random").unwrap();
    assert_eq!(
        run_spec(&blind_ok, &inst, &config, 0)
            .unwrap()
            .matching
            .size(),
        50
    );
    let blind_bad = registry().compose("blind", "greedy").unwrap();
    assert!(run_spec(&blind_bad, &inst, &config, 0).is_err());
}

#[test]
fn empty_instances_produce_empty_matchings() {
    // Zero tasks or zero workers must yield an empty matching through
    // every spec — the pre-refactor enum arms did, and an empty side
    // carries no location information for a matcher to reject.
    let config = PipelineConfig {
        grid_side: 8,
        ..PipelineConfig::default()
    };
    for (tasks, workers) in [(0usize, 12usize), (12, 0), (0, 0)] {
        let inst = instance(tasks, workers, 3);
        for spec in registry().specs() {
            let r = run_spec(spec, &inst, &config, 0)
                .unwrap_or_else(|e| panic!("{} on {tasks}x{workers}: {e}", spec.name()));
            assert_eq!(r.matching.size(), 0, "{} on {tasks}x{workers}", spec.name());
        }
    }
}

#[test]
fn zero_capacity_is_rejected_not_clamped() {
    let inst = instance(10, 10, 4);
    let config = PipelineConfig {
        grid_side: 8,
        capacity: 0,
        ..PipelineConfig::default()
    };
    let tbf_cap = registry().require_spec("tbf-cap").unwrap();
    let err = run_spec(&tbf_cap, &inst, &config, 0).unwrap_err();
    assert!(err.to_string().contains("capacity"), "{err}");
}

/// What one static matcher makes of a probe in
/// `static_matchers_check_reports_in_a_fixed_order`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Every task matched.
    Matched,
    /// A location-blind side, named by the matcher's component.
    Blind,
    /// No server for reports that need one.
    NoServer,
    /// Capacity 0.
    NoSlots,
}

/// Every static online matcher's answer to unusable reports, and the order
/// it checks them in, recorded from the parent of the change that runs
/// each name through its registered dynamic pool (`hst-rand`'s row from
/// the parent of the change that moved it onto the tree pool). The texts
/// are the ones the CI goldens print for blind cells; `random` alone
/// accepts anything.
#[test]
fn static_matchers_check_reports_in_a_fixed_order() {
    use Outcome::*;
    let server = Server::new(Rect::square(200.0), 4, 1);
    let leaves = |n| Reports::Leaves(vec![server.hst().leaf_of(0); n]);
    // (workers, tasks, server, capacity): blind sides with and without a
    // server, leaf workers before blind tasks without one, and capacity 0
    // behind usable and unusable reports.
    let probes = || {
        [
            (Reports::Blind(3), Reports::Blind(2), Some(&server), 1),
            (Reports::Blind(3), Reports::Blind(2), None, 1),
            (leaves(3), Reports::Blind(2), None, 1),
            (leaves(3), leaves(2), Some(&server), 0),
            (Reports::Blind(3), leaves(2), Some(&server), 0),
        ]
    };
    let table = [
        ("hst-greedy", [Blind, NoServer, NoServer, Matched, Blind]),
        ("hst-rand", [Blind, NoServer, NoServer, Matched, Blind]),
        ("chain", [Blind, NoServer, NoServer, Matched, Blind]),
        ("capacity", [Blind, NoServer, NoServer, NoSlots, Blind]),
        ("greedy", [Blind, Blind, NoServer, Matched, Blind]),
        ("kd-greedy", [Blind, Blind, NoServer, Matched, Blind]),
        ("random", [Matched; 5]),
    ];
    let instance = instance(0, 0, 0);
    for (name, expected) in table {
        let matcher = registry().require_matcher(name).unwrap();
        for (i, ((workers, tasks, server, capacity), want)) in
            probes().into_iter().zip(expected).enumerate()
        {
            let config = PipelineConfig {
                capacity,
                ..PipelineConfig::default()
            };
            let (mut mech_rng, mut tie_rng) = (seeded_rng(0, 1), seeded_rng(0, 2));
            let mut ctx = AssignCtx {
                instance: &instance,
                config: &config,
                server,
                mech_rng: &mut mech_rng,
                tie_rng: &mut tie_rng,
            };
            let got = matcher
                .assign(ReportSet { workers, tasks }, &mut ctx)
                .map(|m| m.size())
                .map_err(|e| e.to_string());
            let want = match want {
                Matched => Ok(2),
                Blind => Err(format!(
                    "`{name} matcher` cannot consume these reports: needs location \
                     reports (got location-blind reports)"
                )),
                NoServer => Err(format!(
                    "`{name} matcher` needs a server (published HST), none supplied"
                )),
                NoSlots => Err("invalid config `capacity`: the capacity matcher needs \
                                at least one slot per worker"
                    .to_string()),
            };
            assert_eq!(got, want, "{name}, probe {i}");
        }
    }
}

#[test]
fn identity_mechanism_is_the_utility_ceiling() {
    // No obfuscation must beat every private mechanism on average distance
    // under the same matcher.
    let inst = instance(40, 80, 11);
    let config = PipelineConfig {
        grid_side: 16,
        ..PipelineConfig::default()
    };
    let avg = |mech: &str| -> f64 {
        let spec = registry().compose(mech, "greedy").unwrap();
        (0..4)
            .map(|rep| {
                run_spec(&spec, &inst, &config, rep)
                    .unwrap()
                    .metrics
                    .total_distance
            })
            .sum::<f64>()
            / 4.0
    };
    let clear = avg("identity");
    let laplace = avg("laplace");
    assert!(
        clear < laplace,
        "identity ({clear}) should beat laplace ({laplace})"
    );
}
