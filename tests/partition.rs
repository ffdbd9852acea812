//! Correctness harness for partitioned sweep execution and the byte-exact
//! merge:
//!
//! 1. proptest invariants — for arbitrary partition counts and arbitrary
//!    (including ragged/singleton) valid partitions, merging the partials
//!    reproduces the single-process sweep byte-for-byte on both flavours,
//!    while overlapping or gappy partition sets produce typed
//!    [`MergeError`]s, never silent cell loss;
//! 2. checkpoint/resume — a capped run stops with a typed error, the
//!    re-run resumes the surviving cells (stats prove it) and finishes
//!    byte-identical to a fresh run, even under a different partition
//!    spec;
//! 3. golden pins — the partial-report JSON field names, the `i/N` slice
//!    arithmetic, and the fingerprint's sensitivity/stability.

use pombm::merge::{merge, MergeError};
use pombm::sweep::{
    run_sweep, run_sweep_partition, run_sweep_range, sweep_fingerprint, sweep_job_count,
    DynamicSweepConfig, FlavorReport, PartitionPlan, PartitionRun, SweepConfig, SweepFlavor,
};
use pombm::{PipelineConfig, PipelineError};
use pombm_geom::seeded_rng;
use proptest::prelude::*;
use rand::Rng;

fn static_config(seed: u64) -> SweepConfig {
    SweepConfig {
        mechanisms: vec!["identity".into(), "laplace".into()],
        matchers: vec!["greedy".into(), "offline-opt".into()],
        scenarios: Vec::new(),
        sizes: vec![6, 8],
        epsilons: vec![0.5],
        repetitions: 1,
        shards: 2,
        timings: false,
        base: PipelineConfig {
            grid_side: 16,
            seed,
            ..PipelineConfig::default()
        },
    }
}

fn dynamic_config(seed: u64) -> DynamicSweepConfig {
    DynamicSweepConfig {
        mechanisms: vec!["identity".into(), "hst".into()],
        matchers: vec!["hst-greedy".into(), "random".into()],
        scenarios: Vec::new(),
        shift_plans: vec!["always-on".into(), "short".into()],
        sizes: vec![8],
        epsilons: vec![0.6],
        shards: 2,
        timings: false,
        ratio: false,
        grid_side: 16,
        seed,
    }
}

/// The dynamic config measured against the clairvoyant oracle: ratio
/// cells carry the extra columns and a distinct fingerprint.
fn ratio_config(seed: u64) -> DynamicSweepConfig {
    DynamicSweepConfig {
        ratio: true,
        ..dynamic_config(seed)
    }
}

/// Deterministic ragged cut points for `total` jobs: always includes 0 and
/// `total`, with interior cuts drawn from `cut_seed` (singleton and
/// full-width slices both occur).
fn ragged_cuts(total: usize, cut_seed: u64) -> Vec<usize> {
    let mut rng = seeded_rng(cut_seed, 0xCA7);
    let mut cuts = vec![0, total];
    for i in 1..total {
        if rng.gen::<f64>() < 0.35 {
            cuts.push(i);
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

proptest! {
    /// Balanced `i/N` partitions merge back to the single-process report
    /// byte-for-byte, for every partition count, on both flavours.
    #[test]
    fn balanced_partitions_merge_byte_exactly(seed in 0u64..10_000, n in 1usize..8) {
        let config = static_config(seed);
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        let partials: Vec<_> = (1..=n)
            .map(|i| {
                let run = PartitionRun {
                    plan: PartitionPlan::new(i, n).unwrap(),
                    ..PartitionRun::default()
                };
                run_sweep_partition(&config, &run).unwrap().0
            })
            .collect();
        let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
        prop_assert_eq!(&full, &merged, "static: n = {}", n);

        let config = dynamic_config(seed);
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        let partials: Vec<_> = (1..=n)
            .map(|i| {
                let run = PartitionRun {
                    plan: PartitionPlan::new(i, n).unwrap(),
                    ..PartitionRun::default()
                };
                run_sweep_partition(&config, &run).unwrap().0
            })
            .collect();
        let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
        prop_assert_eq!(&full, &merged, "dynamic: n = {}", n);
    }

    /// Arbitrary ragged (uneven, singleton, even whole-space) disjoint
    /// covering slices merge byte-exactly regardless of input order.
    #[test]
    fn ragged_partitions_merge_byte_exactly(seed in 0u64..10_000, cut_seed in 0u64..10_000) {
        let config = static_config(seed);
        let total = sweep_job_count(&config).unwrap();
        let cuts = ragged_cuts(total, cut_seed);
        let mut partials: Vec<_> = cuts
            .windows(2)
            .map(|w| run_sweep_range(&config, w[0]..w[1]).unwrap())
            .collect();
        partials.reverse(); // merge accepts partials in any order
        let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        prop_assert_eq!(&full, &merged, "cuts = {:?}", cuts);

        let config = dynamic_config(seed);
        let total = sweep_job_count(&config).unwrap();
        let cuts = ragged_cuts(total, cut_seed);
        let mut partials: Vec<_> = cuts
            .windows(2)
            .map(|w| run_sweep_range(&config, w[0]..w[1]).unwrap())
            .collect();
        partials.reverse();
        let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
        let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
        prop_assert_eq!(&full, &merged, "cuts = {:?}", cuts);
    }

    /// Dropping any one slice from a covering set is a typed `Gap`, and
    /// duplicating any one is a typed `Overlap` — never silent cell loss.
    #[test]
    fn gappy_and_overlapping_sets_are_typed_errors(
        seed in 0u64..10_000,
        cut_seed in 0u64..10_000,
        victim in 0usize..64,
    ) {
        let config = static_config(seed);
        let total = sweep_job_count(&config).unwrap();
        let cuts = ragged_cuts(total, cut_seed);
        let partials: Vec<_> = cuts
            .windows(2)
            .map(|w| run_sweep_range(&config, w[0]..w[1]).unwrap())
            .collect();
        let victim = victim % partials.len();

        let mut gappy = partials.clone();
        let removed = gappy.remove(victim);
        match merge(&gappy) {
            Err(MergeError::Gap { job }) => {
                prop_assert!(removed.covers().contains(&job), "gap {} outside victim", job);
            }
            // Removing the only slice leaves nothing at all.
            Err(MergeError::NoPartials) => prop_assert!(gappy.is_empty()),
            other => prop_assert!(false, "expected Gap, got {:?}", other.map(|_| ())),
        }

        let mut overlapping = partials.clone();
        overlapping.push(partials[victim].clone());
        match merge(&overlapping) {
            Err(MergeError::Overlap { job }) => {
                prop_assert!(
                    partials[victim].covers().contains(&job),
                    "overlap {} outside victim", job
                );
            }
            other => prop_assert!(false, "expected Overlap, got {:?}", other.map(|_| ())),
        }
    }

    /// `PartitionPlan::slice` is a partition in the mathematical sense:
    /// disjoint, covering, contiguous, balanced to within one job.
    #[test]
    fn partition_plan_slices_tile_the_job_space(total in 0usize..200, n in 1usize..12) {
        let mut next = 0;
        for i in 1..=n {
            let slice = PartitionPlan::new(i, n).unwrap().slice(total);
            prop_assert_eq!(slice.start, next, "i = {}", i);
            prop_assert!(slice.len() <= total.div_ceil(n), "i = {} oversized", i);
            prop_assert!(slice.len() + 1 >= total / n, "i = {} undersized", i);
            next = slice.end;
        }
        prop_assert_eq!(next, total, "slices must cover exactly");
    }
}

#[test]
fn partition_plan_parses_and_validates() {
    let plan = PartitionPlan::parse("2/3").unwrap();
    assert_eq!((plan.index(), plan.count()), (2, 3));
    assert_eq!(plan.to_string(), "2/3");
    assert_eq!(
        PartitionPlan::parse(" 1 / 1 ").unwrap(),
        PartitionPlan::full()
    );
    for bad in ["0/3", "4/3", "3", "a/b", "1/0", "/", "1/2/3", ""] {
        assert!(
            matches!(
                PartitionPlan::parse(bad),
                Err(PipelineError::InvalidConfig {
                    field: "partition",
                    ..
                })
            ),
            "`{bad}` should be rejected"
        );
    }
}

/// A ratio-enabled dynamic sweep — the full matcher catalog including
/// the `dynamic-opt` oracle — partitions and merges byte-exactly: the
/// `competitive_ratio` and drop-latency columns are part of the
/// fingerprinted deterministic contract, for balanced and ragged cuts
/// alike.
#[test]
fn ratio_partitions_merge_byte_exactly() {
    let mut config = dynamic_config(7);
    config.ratio = true;
    config.matchers = Vec::new(); // full catalog: the oracle joins the axis
    let report = run_sweep(&config).unwrap();
    assert!(
        report
            .cells
            .iter()
            .any(|c| c.matcher == pombm::DEFAULT_DYNAMIC_ORACLE),
        "a ratio sweep with no matcher filter must include the oracle row"
    );
    assert!(
        report
            .cells
            .iter()
            .all(|c| c.measurement.is_none() || c.competitive_ratio.is_some()),
        "every measured ratio cell carries a ratio"
    );
    let full = serde_json::to_string(&report).unwrap();
    for n in [2usize, 3, 5] {
        let partials: Vec<_> = (1..=n)
            .map(|i| {
                let run = PartitionRun {
                    plan: PartitionPlan::new(i, n).unwrap(),
                    ..PartitionRun::default()
                };
                run_sweep_partition(&config, &run).unwrap().0
            })
            .collect();
        let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
        assert_eq!(full, merged, "n = {n}");
    }
    let total = sweep_job_count(&config).unwrap();
    let cuts = ragged_cuts(total, 99);
    let mut partials: Vec<_> = cuts
        .windows(2)
        .map(|w| run_sweep_range(&config, w[0]..w[1]).unwrap())
        .collect();
    partials.reverse();
    let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
    assert_eq!(full, merged, "cuts = {cuts:?}");

    // Ratio on/off changes the fingerprint (the oracle name enters it),
    // so mixed ratio/plain partials can never silently merge.
    let mut plain = config.clone();
    plain.ratio = false;
    assert_ne!(
        sweep_fingerprint(&config).unwrap(),
        sweep_fingerprint(&plain).unwrap()
    );
}

/// The partial-report JSON field names are a public contract (CI
/// artifacts, `pombm merge` inputs): pin them exactly, in declaration
/// order, for both flavours.
#[test]
fn partial_report_json_fields_are_pinned() {
    let config = static_config(1);
    let partial = run_sweep_range(&config, 0..2).unwrap();
    let value = serde_json::to_value(&partial).unwrap();
    let keys: Vec<&str> = value
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "flavor",
            "fingerprint",
            "partition_index",
            "partition_count",
            "total_jobs",
            "start",
            "seed",
            "repetitions",
            "cells",
        ],
        "static Partial JSON contract drifted"
    );
    assert_eq!(value["flavor"], "static");

    let config = dynamic_config(1);
    let partial = run_sweep_range(&config, 0..2).unwrap();
    let value = serde_json::to_value(&partial).unwrap();
    let keys: Vec<&str> = value
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "flavor",
            "fingerprint",
            "partition_index",
            "partition_count",
            "total_jobs",
            "start",
            "seed",
            "horizon",
            "cells",
        ],
        "dynamic Partial JSON contract drifted"
    );
    assert_eq!(value["flavor"], "dynamic");
}

/// A partial survives a JSON round-trip bit-exactly — the property that
/// lets checkpoints and cross-machine transport preserve the byte-exact
/// merge contract.
#[test]
fn partial_report_json_roundtrip_is_exact() {
    let config = static_config(5);
    let total = sweep_job_count(&config).unwrap();
    let partial = run_sweep_range(&config, 0..total).unwrap();
    let json = serde_json::to_string(&partial).unwrap();
    let back: pombm::Partial<pombm::SweepReport> = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    let merged = serde_json::to_string(&merge(&[back]).unwrap()).unwrap();
    let full = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
    assert_eq!(merged, full);
}

/// The fingerprint distinguishes configurations that produce different
/// cells, and nothing else: parallelism/timings knobs and an explicit
/// full-registry filter leave it unchanged.
#[test]
fn fingerprint_tracks_job_semantics_only() {
    let base = static_config(3);
    let fp = sweep_fingerprint(&base).unwrap();

    let mut parallel = base.clone();
    parallel.shards = 7;
    parallel.timings = true;
    parallel.base.threads = 4;
    assert_eq!(fp, sweep_fingerprint(&parallel).unwrap());

    for (label, changed) in [
        ("seed", {
            let mut c = base.clone();
            c.base.seed = 4;
            c
        }),
        ("epsilons", {
            let mut c = base.clone();
            c.epsilons = vec![0.6];
            c
        }),
        ("sizes", {
            let mut c = base.clone();
            c.sizes = vec![6];
            c
        }),
        ("matchers", {
            let mut c = base.clone();
            c.matchers = vec!["greedy".into()];
            c
        }),
        ("repetitions", {
            let mut c = base.clone();
            c.repetitions = 2;
            c
        }),
        ("grid", {
            let mut c = base.clone();
            c.base.grid_side = 32;
            c
        }),
    ] {
        assert_ne!(fp, sweep_fingerprint(&changed).unwrap(), "{label}");
    }

    // Dynamic fingerprints live in a different namespace entirely.
    let dynamic = dynamic_config(3);
    assert_ne!(fp, sweep_fingerprint(&dynamic).unwrap());
}

/// Config fingerprints are persisted: they name checkpoint logs
/// (`{flavor}-{fingerprint}.jsonl`) and travel inside partial reports. Pin
/// them as literals so logs and partials written by earlier builds keep
/// resuming and merging.
#[test]
fn config_fingerprints_are_pinned() {
    for (seed, fixed, dynamic, ratio) in [
        (
            3,
            "818280982982526c",
            "ebd687514926d161",
            "2a22ed1524d75850",
        ),
        (
            11,
            "6cff1345eedaf8b7",
            "7437b0ac150c418a",
            "2bdf0d927628871d",
        ),
        (
            23,
            "d91b262379cfd7ec",
            "29f4ca067c55b3af",
            "9769bd4c9dd605ee",
        ),
    ] {
        assert_eq!(sweep_fingerprint(&static_config(seed)).unwrap(), fixed);
        assert_eq!(sweep_fingerprint(&dynamic_config(seed)).unwrap(), dynamic);
        assert_eq!(sweep_fingerprint(&ratio_config(seed)).unwrap(), ratio);
    }
}

fn checkpoint_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pombm-partition-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A capped checkpointed run stops with the typed `CellCap` error after
/// logging exactly the first `max_cells` missing jobs, at every shard
/// count; the re-run resumes exactly the persisted cells (stats prove it)
/// and its output is byte-identical to a fresh uncheckpointed run — even
/// when the resume happens under a different partition spec, because
/// checkpoint entries are keyed by global job index. Holds for both
/// flavours, ratio columns included.
#[test]
fn checkpointed_runs_resume_byte_identically() {
    for shards in [1, 2, 7] {
        let config = SweepConfig {
            shards,
            ..static_config(11)
        };
        resume_byte_identically(&config, &format!("static-resume-{shards}"));
        let config = DynamicSweepConfig {
            shards,
            ..ratio_config(11)
        };
        resume_byte_identically(&config, &format!("ratio-resume-{shards}"));
    }
}

fn resume_byte_identically<F: SweepFlavor>(config: &F, dir_name: &str) {
    let total = sweep_job_count(config).unwrap();
    let dir = checkpoint_dir(dir_name);
    let capped = PartitionRun {
        plan: PartitionPlan::full(),
        checkpoint: Some(dir.clone()),
        max_cells: Some(2),
    };
    match run_sweep_partition(config, &capped) {
        Err(PipelineError::CellCap { computed }) => assert_eq!(computed, 2),
        other => panic!("expected CellCap, got {:?}", other.map(|_| ())),
    }
    let log = dir.join(format!(
        "{}-{}.jsonl",
        F::Report::FLAVOR,
        sweep_fingerprint(config).unwrap()
    ));
    let mut logged: Vec<String> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .map(|line| line.split_once(',').unwrap().0.to_string())
        .collect();
    logged.sort();
    assert_eq!(
        logged,
        ["[0", "[1"],
        "{dir_name}: the cap keeps jobs 0 and 1"
    );

    // Resume under a 2-way partition spec: together the two partials see
    // both persisted cells.
    let mut resumed_total = 0;
    let mut partials = Vec::new();
    for i in 1..=2 {
        let run = PartitionRun {
            plan: PartitionPlan::new(i, 2).unwrap(),
            checkpoint: Some(dir.clone()),
            max_cells: None,
        };
        let (partial, stats) = run_sweep_partition(config, &run).unwrap();
        resumed_total += stats.resumed;
        partials.push(partial);
    }
    assert_eq!(resumed_total, 2, "both capped cells must be resumed");
    let merged = serde_json::to_string(&merge(&partials).unwrap()).unwrap();
    let fresh = serde_json::to_string(&run_sweep(config).unwrap()).unwrap();
    assert_eq!(merged, fresh);

    // A final full resume recomputes nothing.
    let run = PartitionRun {
        plan: PartitionPlan::full(),
        checkpoint: Some(dir.clone()),
        max_cells: None,
    };
    let (partial, stats) = run_sweep_partition(config, &run).unwrap();
    assert_eq!(stats.resumed, total);
    assert_eq!(stats.computed, 0);
    assert_eq!(serde_json::to_string(&partial.report).unwrap(), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--timings` is excluded from the fingerprint (timed and untimed runs
/// of the same grid share a checkpoint), so resumed cells may carry
/// `wall_ms` from a timed producer; a timings-off resume must strip them
/// to keep its output byte-identical to a fresh timings-off run.
#[test]
fn cross_timings_resume_stays_byte_identical() {
    let dir = checkpoint_dir("cross-timings");
    let mut timed = static_config(31);
    timed.timings = true;
    let full = PartitionRun {
        plan: PartitionPlan::full(),
        checkpoint: Some(dir.clone()),
        max_cells: None,
    };
    run_sweep_partition(&timed, &full).unwrap();

    let untimed = static_config(31);
    let (partial, stats) = run_sweep_partition(&untimed, &full).unwrap();
    assert!(stats.resumed > 0, "the timed run must seed the resume");
    assert!(partial.report.cells.iter().all(|c| c.wall_ms.is_none()));
    let fresh = serde_json::to_string(&run_sweep(&untimed).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&partial.report).unwrap(), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-cell cap could never make progress across re-runs; it is
/// rejected up front, as is a cap without a checkpoint.
#[test]
fn degenerate_caps_are_rejected() {
    let config = static_config(0);
    let dir = checkpoint_dir("zero-cap");
    for (checkpoint, max_cells) in [(Some(dir.clone()), Some(0)), (None, Some(1))] {
        let run = PartitionRun {
            plan: PartitionPlan::full(),
            checkpoint,
            max_cells,
        };
        assert!(matches!(
            run_sweep_partition(&config, &run),
            Err(PipelineError::InvalidConfig {
                field: "max-cells",
                ..
            })
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint is keyed by flavour + fingerprint: runs of a different
/// configuration sharing the directory never resume each other's cells,
/// and a truncated trailing line (a killed run) is recomputed, not fatal.
#[test]
fn checkpoint_isolation_and_truncation_tolerance() {
    let dir = checkpoint_dir("isolation");
    let config = static_config(21);
    let total = sweep_job_count(&config).unwrap();
    let full = PartitionRun {
        plan: PartitionPlan::full(),
        checkpoint: Some(dir.clone()),
        max_cells: None,
    };
    let (first, stats) = run_sweep_partition(&config, &full).unwrap();
    assert_eq!(stats.computed, total);

    // A reseeded config shares the directory but resumes nothing.
    let mut reseeded = config.clone();
    reseeded.base.seed = 22;
    let (_, stats) = run_sweep_partition(&reseeded, &full).unwrap();
    assert_eq!(stats.resumed, 0, "different fingerprint must not resume");

    // The dynamic flavour is isolated too.
    let dyn_config = dynamic_config(21);
    let (_, stats) = run_sweep_partition(&dyn_config, &full).unwrap();
    assert_eq!(stats.resumed, 0);

    // Truncate the static log mid-line (as a kill would): the damaged
    // entry is recomputed and the output is still byte-identical.
    let log = dir.join(format!(
        "static-{}.jsonl",
        sweep_fingerprint(&config).unwrap()
    ));
    let text = std::fs::read_to_string(&log).unwrap();
    assert_eq!(text.lines().count(), total);
    std::fs::write(&log, &text[..text.len() - 9]).unwrap();
    let (resumed, stats) = run_sweep_partition(&config, &full).unwrap();
    assert_eq!(stats.resumed, total - 1);
    assert_eq!(stats.computed, 1);
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        serde_json::to_string(&first).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-consistency contract of the append-only log: each line is a
/// single whole-line `write_all`, so a torn tail is only ever *one*
/// damaged line. Both damage shapes a shared checkpoint dir can exhibit —
/// a byte-truncated final line (a kill mid-write) and an
/// interleaved-garbage tail (two writers' fragments mashed into one
/// line) — must be skipped and recomputed, never a parse failure or a
/// wrong cell, on either flavour's log.
#[test]
fn checkpoint_tail_corruption_recomputes() {
    tail_corruption_recomputes(&static_config(23), "static");
    tail_corruption_recomputes(&ratio_config(23), "ratio");
}

fn tail_corruption_recomputes<F: SweepFlavor>(config: &F, tag: &str) {
    let total = sweep_job_count(config).unwrap();
    let fresh = serde_json::to_string(&run_sweep(config).unwrap()).unwrap();
    let log_name = format!(
        "{}-{}.jsonl",
        F::Report::FLAVOR,
        sweep_fingerprint(config).unwrap()
    );
    let full = PartitionRun {
        plan: PartitionPlan::full(),
        checkpoint: None, // filled per case
        max_cells: None,
    };

    // Case 1: byte-truncated tail — the final line loses its last bytes.
    let dir = checkpoint_dir(&format!("{tag}-tail-truncated"));
    let run = PartitionRun {
        checkpoint: Some(dir.clone()),
        ..full.clone()
    };
    run_sweep_partition(config, &run).unwrap();
    let log = dir.join(&log_name);
    let text = std::fs::read_to_string(&log).unwrap();
    std::fs::write(&log, &text[..text.len() - 7]).unwrap();
    let (report, stats) = run_sweep_partition(config, &run).unwrap();
    assert_eq!((stats.resumed, stats.computed), (total - 1, 1));
    assert_eq!(serde_json::to_string(&report.report).unwrap(), fresh);
    let _ = std::fs::remove_dir_all(&dir);

    // Case 2: interleaved-garbage tail — the final line is replaced by a
    // mash of two line fragments, as torn concurrent appends would leave.
    let dir = checkpoint_dir(&format!("{tag}-tail-interleaved"));
    let run = PartitionRun {
        checkpoint: Some(dir.clone()),
        ..full.clone()
    };
    run_sweep_partition(config, &run).unwrap();
    let log = dir.join(&log_name);
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2);
    let last = lines[lines.len() - 1];
    let mangled = format!(
        "{}{}\n",
        &last[..last.len() / 2],
        &lines[0][lines[0].len() / 3..]
    );
    let intact = lines[..lines.len() - 1].join("\n");
    std::fs::write(&log, format!("{intact}\n{mangled}")).unwrap();
    let (report, stats) = run_sweep_partition(config, &run).unwrap();
    assert_eq!((stats.resumed, stats.computed), (total - 1, 1));
    assert_eq!(serde_json::to_string(&report.report).unwrap(), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persisted index outside the job-count bound (a corrupt or foreign
/// line — e.g. a log produced by a larger grid sharing the fingerprint
/// through a format change) is skipped as recompute, not a panic or a
/// silently misplaced cell.
#[test]
fn checkpoint_out_of_bounds_index_recomputes() {
    let config = static_config(29);
    let total = sweep_job_count(&config).unwrap();
    let fresh = serde_json::to_string(&run_sweep(&config).unwrap()).unwrap();
    let dir = checkpoint_dir("foreign-index");
    let run = PartitionRun {
        plan: PartitionPlan::full(),
        checkpoint: Some(dir.clone()),
        max_cells: None,
    };
    run_sweep_partition(&config, &run).unwrap();
    let log = dir.join(format!(
        "static-{}.jsonl",
        sweep_fingerprint(&config).unwrap()
    ));
    let text = std::fs::read_to_string(&log).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(lines.len(), total);
    // Re-key the last line's (valid) cell to an out-of-range index, and
    // append a u64::MAX line that a blind `as usize` cast would mangle on
    // 32-bit targets. Both must be ignored: the displaced cell is
    // recomputed, everything else resumes, output stays byte-identical.
    let last = lines.pop().unwrap();
    let cell = last.split_once(',').unwrap().1;
    lines.push(format!("[{},{cell}", total + 7));
    lines.push(format!("[{},{cell}", u64::MAX));
    std::fs::write(&log, format!("{}\n", lines.join("\n"))).unwrap();
    let (report, stats) = run_sweep_partition(&config, &run).unwrap();
    assert_eq!((stats.resumed, stats.computed), (total - 1, 1));
    assert_eq!(serde_json::to_string(&report.report).unwrap(), fresh);
    let _ = std::fs::remove_dir_all(&dir);
}
