//! Sharded, registry-wide competitive-ratio sweeps: one engine, two
//! flavours.
//!
//! Theorem 3's `O(ε⁻⁴ log N log² k)` bound is about one algorithm; a sweep
//! asks the empirical question for every pairing at once. It expands a
//! configuration into a job list and measures one cell per job:
//!
//! * [`SweepConfig`]: `scenario × mechanism × matcher × size × ε`, each
//!   cell a [`RatioReport`] as
//!   [`empirical_competitive_ratio`](crate::ratio::empirical_competitive_ratio)
//!   measures it;
//! * [`DynamicSweepConfig`]: `scenario × mechanism × dynamic-matcher ×
//!   shift-plan × size × ε`, each cell one timeline replayed through
//!   [`crate::dynamic::run_dynamic_spec`] into a [`DynamicMeasurement`]
//!   (plus, under `ratio`, the ratio against the clairvoyant `dynamic-opt`
//!   optimum and drop-latency percentiles).
//!
//! Each config is a [`SweepFlavor`] (job list, per-job runner, fingerprint
//! parts) whose report is a [`FlavorReport`] (flavour tag, cells,
//! metadata). Everything else exists once, generic over the flavour:
//! [`run_sweep`], [`sweep_job_count`], [`sweep_fingerprint`],
//! [`run_sweep_partition`], [`run_sweep_range`], the [`Partial`] report,
//! checkpointing and [`crate::merge::merge`].
//!
//! # Shared denominators
//!
//! A ratio's denominator depends on the cell's instance alone, and the
//! instance on `(scenario, size)` (plus the shift plan for a dynamic
//! timeline), never on the mechanism, matcher or ε. So the job list holds
//! one shared, lazily solved slot per such key: the static flavour's
//! `d(M_OPT)`, and under `ratio` the dynamic flavour's clairvoyant optimum.
//! The first cell to reach a key solves it; a cell on another shard that
//! arrives mid-solve waits for it, and later cells read the stored value.
//! The slots live and die with one run's job list, and the value is a pure
//! function of the key, so no byte of output depends on which cell solved
//! it.
//!
//! # Determinism
//!
//! Jobs fan out over `crossbeam` scoped threads in contiguous shard
//! chunks, each shard writing only its own chunk of the output. Every job
//! seeds its RNG streams from its *index in the job list*, and instances,
//! task times and shift plans derive from `(seed, size)` and `(seed, size,
//! plan)` alone, so output is bit-identical for every shard count and
//! every pairing in a column faces the same workload. In-cell threads ([`PipelineConfig::threads`]) never
//! change a byte either. `timings` adds a `wall_ms` column that is absent
//! (not `null`) when off, keeping golden byte-compares exact. Incompatible
//! pairings and degenerate measurements record the typed error's message
//! in their cell instead of aborting the sweep.
//!
//! # Partitions and checkpoints
//!
//! The job list is a pure function of the configuration, so the invariance
//! extends across processes: a [`PartitionPlan`] (`i/N`) names a
//! contiguous slice of job indices, [`run_sweep_partition`] computes it
//! into a self-describing [`Partial`], and [`crate::merge::merge`]
//! reassembles a full set into JSON byte-identical to a single-process
//! run. With a checkpoint directory, a run plans before it fans out: it
//! reads the `{flavor}-{fingerprint}.jsonl` log once, only the slice's
//! jobs the log lacks go to the shards, and each fresh cell is appended to
//! the log as it finishes. A `max_cells` cap keeps the first `N` missing
//! jobs in job order, at every shard count. A re-run under any partition
//! spec resumes the logged cells byte-identically, since cells are
//! deterministic and the JSON encoding round-trips `f64`s exactly.

use crate::algorithm::{AssignStrategy, DynamicAssignStrategy, PipelineError, ReportMechanism};
use crate::dynamic::{run_dynamic_spec, DynamicConfig, DynamicOutcome};
use crate::fingerprint::Fnv1a;
use crate::pipeline::PipelineConfig;
use crate::ratio::{
    competitive_ratio_against, dynamic_offline_optimum_with_threads, offline_optimum_with_threads,
    RatioError, RatioReport,
};
use crate::registry::{registry, AlgorithmSpec, CatalogItem, DEFAULT_DYNAMIC_ORACLE};
use crate::scenario::{
    dynamic_shift_plan, Scenario, DEFAULT_SCENARIO, DYNAMIC_SWEEP_HORIZON, SHIFT_PLAN_KINDS,
};
use crate::server::check_epsilon;
use parking_lot::Mutex;
use pombm_matching::ClairvoyantAssignment;
use pombm_workload::shifts::ShiftPlan;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// What to sweep: the pairing filter, the instance/ε grid, and the
/// execution parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Mechanism names to include; empty means every registered mechanism.
    pub mechanisms: Vec<String>,
    /// Matcher names to include; empty means every registered matcher.
    pub matchers: Vec<String>,
    /// Workload scenario names ([`crate::scenario`]) to sweep; empty means
    /// just the legacy `uniform` default (NOT every registered scenario —
    /// the pre-scenario grid shape must survive unchanged).
    pub scenarios: Vec<String>,
    /// Instance sizes: each entry generates one synthetic instance with
    /// `size` tasks and `size` workers (so `k = size` pairs are matched).
    pub sizes: Vec<usize>,
    /// Privacy budgets ε to sweep.
    pub epsilons: Vec<f64>,
    /// Shuffled-arrival repetitions per cell.
    pub repetitions: u64,
    /// Worker threads to fan the job list over. Results are bit-identical
    /// for every value ≥ 1; this only trades wall-clock for cores.
    pub shards: usize,
    /// Record per-cell wall-clock into [`SweepCell::wall_ms`]. Off by
    /// default: timings are inherently machine-dependent, so the golden
    /// JSON byte-compares and the shard/thread-invariance checks run with
    /// timings disabled (the column is then absent from the JSON, not
    /// `null`).
    pub timings: bool,
    /// Base pipeline configuration: `seed` roots every derived RNG stream,
    /// `epsilon` is overridden per cell by the ε grid, and `threads`
    /// parallelizes *within* a cell (batched obfuscation + the Hungarian
    /// `offline-opt`/OPT solves) without changing any output.
    pub base: PipelineConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            mechanisms: Vec::new(),
            matchers: Vec::new(),
            scenarios: Vec::new(),
            sizes: vec![48],
            epsilons: vec![0.6],
            repetitions: 3,
            shards: 1,
            timings: false,
            base: PipelineConfig::default(),
        }
    }
}

/// One cell of the sweep product: exactly one of `report` / `error` is set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Workload scenario this cell's instance came from; absent — not
    /// `null` — for the legacy `uniform` default, so pre-scenario golden
    /// JSON byte-compares exactly and old reports still parse.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Stage-1 mechanism name.
    pub mechanism: String,
    /// Stage-2 matcher name.
    pub matcher: String,
    /// Tasks in this cell's instance.
    pub num_tasks: usize,
    /// Workers in this cell's instance.
    pub num_workers: usize,
    /// Privacy budget ε of this cell.
    pub epsilon: f64,
    /// The measured ratio, when the pairing is measurable.
    pub report: Option<RatioReport>,
    /// The typed error's message, when it is not (incompatible reports,
    /// degenerate optimum, ...).
    pub error: Option<String>,
    /// Wall-clock of this cell's measurement in milliseconds; present only
    /// when the sweep ran with [`SweepConfig::timings`] (and absent — not
    /// `null` — from the JSON otherwise, keeping golden byte-compares
    /// exact). The OPT denominator is shared by every cell of the same
    /// instance: the cell that solves it carries the solve's cost, a cell
    /// that waited for another shard's solve carries its wait, and the rest
    /// carry neither.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wall_ms: Option<f64>,
}

/// A completed sweep: the cell list in job order (mechanism-major, then
/// matcher, size, ε) plus the parameters needed to reproduce it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Root seed every cell's RNG streams derive from.
    pub seed: u64,
    /// Repetitions per cell.
    pub repetitions: u64,
    /// All measured cells.
    pub cells: Vec<SweepCell>,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// One sweep flavour, implemented by its configuration type: how the
/// configuration expands into jobs, how one job becomes one cell, and what
/// of it enters the config fingerprint. Everything else — fan-out,
/// partitioning, checkpointing, partial reports, merging — is generic over
/// this trait and exists once.
pub trait SweepFlavor: Sync {
    /// One unit of work, fully determined before any thread runs.
    type Job: Sync;
    /// The completed sweep (and a [`Partial`]'s payload).
    type Report: FlavorReport;

    /// Worker threads to fan the job list over.
    fn shards(&self) -> usize;

    /// Whether cells record the machine-dependent `wall_ms` column.
    fn timings(&self) -> bool;

    /// Validates the grid shape and resolves names into the full job list,
    /// each job seeded by its index alone.
    fn jobs(&self) -> Result<Vec<Self::Job>, PipelineError>;

    /// Everything after the flavour tag that shapes the job list and cell
    /// content: resolved names (so an empty filter and its explicit
    /// spelling agree), grids and output-relevant settings — never
    /// parallelism or timings, so partials produced at different
    /// parallelism levels merge.
    fn fingerprint_parts(&self) -> Result<Vec<String>, PipelineError>;

    /// Measures one job.
    fn run_job(&self, job: &Self::Job) -> <Self::Report as FlavorReport>::Cell;

    /// The report of this configuration over `cells` (in job order).
    fn report(&self, cells: Vec<<Self::Report as FlavorReport>::Cell>) -> Self::Report;
}

/// A flavour's report: what [`Partial`] carries after its header and what
/// [`crate::merge::merge`] reassembles.
pub trait FlavorReport: Serialize + Deserialize {
    /// Flavour tag: the first fingerprint part, the checkpoint log prefix
    /// and a partial's `flavor` field.
    const FLAVOR: &'static str;
    /// One cell of the sweep product.
    type Cell: Clone + Send + Serialize + Deserialize;
    /// What a measurable cell records.
    type Measurement;

    /// The cells, in job-index order.
    fn cells(&self) -> &[Self::Cell];

    /// A cell's measurement and its typed error's message; a well-formed
    /// cell has exactly one.
    fn outcome(cell: &Self::Cell) -> (Option<&Self::Measurement>, Option<&str>);

    /// Cells that produced a measurement.
    fn measured(&self) -> impl Iterator<Item = (&Self::Cell, &Self::Measurement)> {
        self.cells()
            .iter()
            .filter_map(|c| Some((c, Self::outcome(c).0?)))
    }

    /// Cells rejected with a typed error.
    fn failed(&self) -> impl Iterator<Item = &Self::Cell> {
        self.cells().iter().filter(|c| Self::outcome(c).1.is_some())
    }

    /// A report with this report's metadata and the given cells.
    fn with_cells(&self, cells: Vec<Self::Cell>) -> Self;

    /// The first metadata field on which `other` disagrees with this
    /// report (cells aside).
    fn mismatch(&self, other: &Self) -> Option<&'static str>;

    /// Drops the cell's machine-dependent `wall_ms` column.
    fn clear_wall_ms(cell: &mut Self::Cell);
}

/// Number of jobs (cells) the sweep grid expands to — the space a
/// [`PartitionPlan`] slices. Fails on the same configuration errors as
/// [`run_sweep`].
pub fn sweep_job_count<F: SweepFlavor>(config: &F) -> Result<usize, PipelineError> {
    Ok(config.jobs()?.len())
}

/// Runs the sweep, fanning the job list over `config.shards()` scoped
/// threads.
///
/// Fails fast on configuration errors (unknown names, empty grids, zero
/// shards/repetitions); per-cell measurement failures are recorded in the
/// cells, not returned.
pub fn run_sweep<F: SweepFlavor>(config: &F) -> Result<F::Report, PipelineError> {
    let jobs = config.jobs()?;
    let cells = execute(&jobs, config.shards(), |job| Ok(config.run_job(job)))?;
    Ok(config.report(cells))
}

// ---------------------------------------------------------------------------
// Partitioned execution
// ---------------------------------------------------------------------------

/// A named contiguous `i/N` slice of a sweep's job-index space
/// (1-based: `1/3`, `2/3`, `3/3`).
///
/// The job list is a pure function of the configuration
/// ([`SweepFlavor::jobs`]), so every process that agrees on the
/// configuration agrees on the job order; a plan only selects *which*
/// contiguous indices a process computes. Slices are balanced: `total`
/// jobs split into `N` runs whose lengths differ by at most one, with the
/// earlier partitions taking the longer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    /// 1-based partition number.
    index: usize,
    /// Total partitions the job space is split into.
    count: usize,
}

impl Default for PartitionPlan {
    fn default() -> Self {
        PartitionPlan::full()
    }
}

impl PartitionPlan {
    /// The trivial plan covering the whole job space (`1/1`).
    pub fn full() -> Self {
        PartitionPlan { index: 1, count: 1 }
    }

    /// Plan for partition `index` of `count` (1-based, `1 ≤ index ≤ count`).
    pub fn new(index: usize, count: usize) -> Result<Self, PipelineError> {
        if count == 0 || index == 0 || index > count {
            return Err(PipelineError::InvalidConfig {
                field: "partition",
                why: "expected `i/N` with 1 <= i <= N (partitions are 1-based)",
            });
        }
        Ok(PartitionPlan { index, count })
    }

    /// Parses the CLI form `i/N` (e.g. `2/3`).
    pub fn parse(s: &str) -> Result<Self, PipelineError> {
        let parse = || -> Option<(usize, usize)> {
            let (i, n) = s.split_once('/')?;
            Some((i.trim().parse().ok()?, n.trim().parse().ok()?))
        };
        let Some((index, count)) = parse() else {
            return Err(PipelineError::InvalidConfig {
                field: "partition",
                why: "expected the form `i/N` (e.g. `2/3`)",
            });
        };
        PartitionPlan::new(index, count)
    }

    /// 1-based partition number.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total partitions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous job-index range this plan covers out of `total`
    /// jobs. Empty for partitions beyond the job count (`total < N`).
    pub fn slice(&self, total: usize) -> Range<usize> {
        let base = total / self.count;
        let rem = total % self.count;
        let i = self.index - 1;
        let start = i * base + i.min(rem);
        let len = base + usize::from(i < rem);
        start..start + len
    }
}

impl std::fmt::Display for PartitionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// FNV-1a over length-delimited parts.
fn fingerprint_of(parts: &[String]) -> String {
    let mut hash = Fnv1a::new();
    for part in parts {
        // 0xff delimits parts: it never occurs inside UTF-8 text.
        hash.write(part.as_bytes()).write(&[0xff]);
    }
    hash.hex()
}

/// Deterministic fingerprint of everything that shapes a sweep's job list
/// and cell content: the flavour tag, then
/// [`SweepFlavor::fingerprint_parts`]. Two configs with equal fingerprints
/// produce byte-identical cells for the same job indices;
/// [`crate::merge::merge`] refuses to combine partials whose fingerprints
/// differ, and checkpoint logs are named after it.
pub fn sweep_fingerprint<F: SweepFlavor>(config: &F) -> Result<String, PipelineError> {
    let mut parts = vec![F::Report::FLAVOR.to_string()];
    parts.extend(config.fingerprint_parts()?);
    Ok(fingerprint_of(&parts))
}

/// One partition's worth of a sweep: self-describing enough for
/// [`crate::merge::merge`] to validate and reassemble the full report from
/// a set of these.
///
/// Serializes as one flat object: the header fields below, in order, then
/// the fields of the flavour's report (`seed`, `repetitions` or `horizon`,
/// `cells`).
#[derive(Debug, Clone)]
pub struct Partial<R> {
    /// The flavour tag ([`FlavorReport::FLAVOR`]); lets `pombm merge`
    /// sniff mixed inputs.
    pub flavor: String,
    /// [`sweep_fingerprint`] of the producing configuration.
    pub fingerprint: String,
    /// 1-based partition number, or `0` for a custom [`run_sweep_range`]
    /// slice.
    pub partition_index: usize,
    /// Total partitions, or `0` for a custom slice.
    pub partition_count: usize,
    /// Size of the full job-index space this partial was cut from.
    pub total_jobs: usize,
    /// First (global) job index this partial covers; it covers
    /// `start..start + cells.len()`.
    pub start: usize,
    /// The covered cells, in job-index order, with the producing
    /// configuration's report metadata.
    pub report: R,
}

impl<R: FlavorReport> Partial<R> {
    /// The global job-index range this partial covers (saturating: a
    /// corrupt `start` cannot overflow here; [`crate::merge::merge`]
    /// rejects it).
    pub fn covers(&self) -> Range<usize> {
        self.start..self.start.saturating_add(self.report.cells().len())
    }
}

impl<R: FlavorReport> Serialize for Partial<R> {
    fn to_value(&self) -> Value {
        let header = [
            ("flavor", self.flavor.to_value()),
            ("fingerprint", self.fingerprint.to_value()),
            ("partition_index", self.partition_index.to_value()),
            ("partition_count", self.partition_count.to_value()),
            ("total_jobs", self.total_jobs.to_value()),
            ("start", self.start.to_value()),
        ];
        let Value::Object(report) = self.report.to_value() else {
            unreachable!("sweep reports serialize as objects");
        };
        let fields = header.into_iter().map(|(key, v)| (key.to_string(), v));
        Value::Object(fields.chain(report).collect())
    }
}

impl<R: FlavorReport> Deserialize for Partial<R> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let header = serde::as_object(v)?;
        Ok(Partial {
            flavor: serde::field(header, "flavor")?,
            fingerprint: serde::field(header, "fingerprint")?,
            partition_index: serde::field(header, "partition_index")?,
            partition_count: serde::field(header, "partition_count")?,
            total_jobs: serde::field(header, "total_jobs")?,
            start: serde::field(header, "start")?,
            // The report's fields follow the header in the same object;
            // field lookup ignores the header keys.
            report: R::from_value(v)?,
        })
    }
}

/// How to execute one partition: which slice, and optionally where to
/// checkpoint completed cells and when to stop early.
#[derive(Debug, Clone, Default)]
pub struct PartitionRun {
    /// The `i/N` slice to compute (default: the full `1/1` space).
    pub plan: PartitionPlan,
    /// Checkpoint directory: completed cells are appended to a
    /// fingerprint-keyed JSONL log as they finish, and cells already in
    /// the log are resumed instead of recomputed.
    pub checkpoint: Option<PathBuf>,
    /// Compute only the first this-many cells the log lacks, in job order,
    /// and stop with [`PipelineError::CellCap`] if any remain; requires
    /// `checkpoint` so the work survives.
    pub max_cells: Option<usize>,
}

/// How a partitioned run's cells were obtained — the resume log the CLI
/// reports to stderr.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialRunStats {
    /// Cells served from the checkpoint log instead of recomputed.
    pub resumed: usize,
    /// Cells freshly computed this run.
    pub computed: usize,
}

/// A checkpointed run's append-only JSONL log of completed cells, keyed by
/// flavour + config fingerprint so runs of a different configuration can
/// share one directory without ever resuming each other's cells. Each
/// line is `[global_job_index, cell]`. [`run_slice`] reads the log once,
/// before any thread starts; the shards then append their fresh cells
/// through the one file lock. A kill can truncate only the final line,
/// which (like any unparseable line) is simply recomputed on resume.
struct Checkpoint {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Checkpoint {
    /// Opens (or creates) the log for `flavor`+`fingerprint` and reads its
    /// resumable cells by job index; a later line for an index replaces an
    /// earlier one. `total_jobs` bounds the persisted indices: a line
    /// whose u64 index does not fit `usize` or falls outside the job list
    /// is corrupt or foreign and is skipped — recomputed like a torn line,
    /// never a panic or a silent misplacement.
    fn open<T: Deserialize>(
        dir: &Path,
        flavor: &str,
        fingerprint: &str,
        total_jobs: usize,
    ) -> Result<(Self, BTreeMap<usize, T>), PipelineError> {
        let err = |path: &Path, why: String| PipelineError::Checkpoint {
            path: path.display().to_string(),
            why,
        };
        std::fs::create_dir_all(dir).map_err(|e| err(dir, e.to_string()))?;
        let path = dir.join(format!("{flavor}-{fingerprint}.jsonl"));
        let mut logged = BTreeMap::new();
        if path.exists() {
            let text = std::fs::read_to_string(&path).map_err(|e| err(&path, e.to_string()))?;
            for line in text.lines() {
                let Ok(entry) = serde_json::from_str::<Value>(line) else {
                    continue;
                };
                let Some([index, cell]) = entry.as_array().map(Vec::as_slice) else {
                    continue;
                };
                let (Some(index), Ok(cell)) = (index.as_u64(), T::from_value(cell)) else {
                    continue;
                };
                let Some(index) = usize::try_from(index).ok().filter(|&i| i < total_jobs) else {
                    continue;
                };
                logged.insert(index, cell);
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| err(&path, e.to_string()))?;
        let file = Mutex::new(file);
        Ok((Checkpoint { path, file }, logged))
    }

    /// Appends one `[index, cell]` line. The line is fully pre-formatted
    /// (payload *and* trailing newline) before any I/O, then emitted as a
    /// **single** `write_all`: with O_APPEND, one whole-line write cannot
    /// interleave with another process appending to the same log, and a
    /// crash mid-write can only tear the final line — which `open` skips
    /// as recompute. Never split this into multiple writes; the resume
    /// tolerance tests in `tests/partition.rs` (truncated and
    /// garbage-interleaved tails) pin the recovery behaviour.
    fn append<T: Serialize>(&self, index: usize, cell: &T) -> Result<(), PipelineError> {
        let err = |why: String| PipelineError::Checkpoint {
            path: self.path.display().to_string(),
            why,
        };
        let entry = Value::Array(vec![Value::UInt(index as u64), cell.to_value()]);
        let mut line = serde_json::to_string(&entry).map_err(|e| err(e.to_string()))?;
        line.push('\n');
        let mut file = self.file.lock();
        file.write_all(line.as_bytes())
            .and_then(|_| file.flush())
            .map_err(|e| err(e.to_string()))
    }
}

/// Fans `items` over `shards` scoped threads and returns `run`'s outputs
/// in item order: shard `s` takes the `s`-th contiguous chunk of the items
/// and writes the `s`-th chunk of the output, which no other shard
/// touches. A shard stops at its own first error, so the error returned is
/// the first in item order at every shard count. The one fan-out of both
/// sweep flavours, whole or partitioned.
fn execute<I: Sync, T: Send>(
    items: &[I],
    shards: usize,
    run: impl Fn(&I) -> Result<T, PipelineError> + Sync,
) -> Result<Vec<T>, PipelineError> {
    let chunk = items.len().div_ceil(shards).max(1);
    let mut out: Vec<Option<Result<T, PipelineError>>> = items.iter().map(|_| None).collect();
    let run = &run;
    crossbeam::thread::scope(|scope| {
        for (items, slots) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move |_| {
                for (item, slot) in items.iter().zip(slots) {
                    if slot.insert(run(item)).is_err() {
                        return;
                    }
                }
            });
        }
    })
    .expect("sweep shards never panic");
    // A shard leaves slots empty only after its own error, and `collect`
    // stops at the first error in item order, before any empty slot.
    out.into_iter()
        .map(|slot| slot.expect("only an error leaves a shard's later slots empty"))
        .collect()
}

/// Validates a custom slice against the job space and the
/// checkpoint/cap pairing rules shared by both flavours.
fn check_slice(
    range: &Range<usize>,
    total: usize,
    checkpoint: Option<&Path>,
    max_cells: Option<usize>,
) -> Result<(), PipelineError> {
    if range.start > range.end || range.end > total {
        return Err(PipelineError::InvalidConfig {
            field: "partition",
            why: "the covered range must lie inside the job-index space",
        });
    }
    if max_cells.is_some() && checkpoint.is_none() {
        return Err(PipelineError::InvalidConfig {
            field: "max-cells",
            why: "--max-cells requires --checkpoint (capped work must survive to be resumed)",
        });
    }
    if max_cells == Some(0) {
        return Err(PipelineError::InvalidConfig {
            field: "max-cells",
            why: "--max-cells must be at least 1 (a zero-cell cap can never make progress)",
        });
    }
    Ok(())
}

/// `slice_of` maps the job-space size to the covered range, so callers
/// with an `i/N` plan never build the job list twice just to learn its
/// length.
fn run_slice<F: SweepFlavor>(
    config: &F,
    slice_of: impl FnOnce(usize) -> Range<usize>,
    partition_index: usize,
    partition_count: usize,
    checkpoint: Option<&Path>,
    max_cells: Option<usize>,
) -> Result<(Partial<F::Report>, PartialRunStats), PipelineError> {
    let jobs = config.jobs()?;
    let range = slice_of(jobs.len());
    check_slice(&range, jobs.len(), checkpoint, max_cells)?;
    let fingerprint = sweep_fingerprint(config)?;
    let (ckpt, logged) = checkpoint
        .map(|dir| Checkpoint::open(dir, F::Report::FLAVOR, &fingerprint, jobs.len()))
        .transpose()?
        .unzip();
    let mut logged = logged.unwrap_or_default();
    // The plan, fixed before any thread starts: the slice's jobs the log
    // lacks, in job order, and of those the first `max_cells`.
    let missing: Vec<usize> = range.clone().filter(|i| !logged.contains_key(i)).collect();
    let work = &missing[..missing.len().min(max_cells.unwrap_or(usize::MAX))];
    let fresh = execute(work, config.shards(), |&index| {
        let cell = config.run_job(&jobs[index]);
        if let Some(ckpt) = &ckpt {
            ckpt.append(index, &cell)?;
        }
        Ok(cell)
    })?;
    if work.len() < missing.len() {
        return Err(PipelineError::CellCap {
            computed: work.len(),
        });
    }
    let stats = PartialRunStats {
        resumed: range.len() - missing.len(),
        computed: work.len(),
    };
    logged.extend(work.iter().copied().zip(fresh));
    let mut cells: Vec<_> = range
        .clone()
        .map(|index| logged.remove(&index).expect("each job is logged or fresh"))
        .collect();
    if !config.timings() {
        // Resumed cells may carry `wall_ms` from a `--timings` run of the
        // same fingerprint; normalize so resumed output stays
        // byte-identical to a fresh timings-off run.
        cells.iter_mut().for_each(F::Report::clear_wall_ms);
    }
    Ok((
        Partial {
            flavor: F::Report::FLAVOR.to_string(),
            fingerprint,
            partition_index,
            partition_count,
            total_jobs: jobs.len(),
            start: range.start,
            report: config.report(cells),
        },
        stats,
    ))
}

/// Runs one partition of the sweep (optionally checkpointed), returning
/// the self-describing partial report plus resume statistics.
/// Deterministic like [`run_sweep`]: the same `(config, plan)` produces
/// byte-identical partials at any shard count, fresh or resumed.
pub fn run_sweep_partition<F: SweepFlavor>(
    config: &F,
    run: &PartitionRun,
) -> Result<(Partial<F::Report>, PartialRunStats), PipelineError> {
    run_slice(
        config,
        |total| run.plan.slice(total),
        run.plan.index(),
        run.plan.count(),
        run.checkpoint.as_deref(),
        run.max_cells,
    )
}

/// Runs an arbitrary contiguous job-index slice of the sweep — the
/// building block for custom (ragged) schedulers; `partition_index` /
/// `partition_count` are recorded as `0` ("custom slice").
pub fn run_sweep_range<F: SweepFlavor>(
    config: &F,
    range: Range<usize>,
) -> Result<Partial<F::Report>, PipelineError> {
    run_slice(config, move |_| range, 0, 0, None, None).map(|(partial, _)| partial)
}

// ---------------------------------------------------------------------------
// Shared flavour plumbing
// ---------------------------------------------------------------------------

/// Resolves a name filter through the registry's typed, listing-rich
/// lookups (`require`); an empty filter means `default`.
fn resolve<T: Clone>(
    names: &[String],
    default: &[T],
    require: impl Fn(&str) -> Result<T, PipelineError>,
) -> Result<Vec<T>, PipelineError> {
    if names.is_empty() {
        return Ok(default.to_vec());
    }
    names.iter().map(|n| require(n)).collect()
}

/// The registry axes both flavours share, resolved: scenarios (empty
/// filter ⇒ just the legacy `uniform` default, NOT every scenario — the
/// pre-scenario grid shape must survive unchanged), mechanisms (empty ⇒
/// all) and the flavour's matchers.
struct Axes<M> {
    scenarios: Vec<Arc<dyn Scenario>>,
    mechanisms: Vec<Arc<dyn ReportMechanism>>,
    matchers: Vec<M>,
}

impl<M: CatalogItem> Axes<M> {
    fn resolve(
        scenarios: &[String],
        mechanisms: &[String],
        matchers: impl FnOnce() -> Result<Vec<M>, PipelineError>,
    ) -> Result<Self, PipelineError> {
        let mechanisms = resolve(mechanisms, registry().mechanisms(), |n| {
            registry().require_mechanism(n)
        })?;
        let matchers = matchers()?;
        let uniform = registry().require_scenario(DEFAULT_SCENARIO)?;
        let scenarios = resolve(scenarios, &[uniform], |n| registry().require_scenario(n))?;
        Ok(Axes {
            scenarios,
            mechanisms,
            matchers,
        })
    }

    /// The resolved names as fingerprint parts, so `[]` and an explicit
    /// full filter (the same job list) fingerprint identically.
    fn name_parts(&self) -> [String; 3] {
        [
            joined(self.scenarios.iter().map(|s| s.catalog_name())),
            joined(self.mechanisms.iter().map(|m| m.catalog_name())),
            joined(self.matchers.iter().map(|m| m.catalog_name())),
        ]
    }
}

fn joined<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    items.map(|i| i.to_string()).collect::<Vec<_>>().join(",")
}

fn epsilon_bits(epsilons: &[f64]) -> String {
    joined(epsilons.iter().map(|e| format!("{:016x}", e.to_bits())))
}

/// The grid checks both flavours share: they run before any job (and so
/// any thread) exists, so one bad ε fails the whole sweep up front.
fn check_grid(shards: usize, sizes: &[usize], epsilons: &[f64]) -> Result<(), PipelineError> {
    let (field, why) = if shards == 0 {
        ("shards", "the sweep needs at least one shard")
    } else if sizes.is_empty() {
        ("sizes", "the sweep needs at least one instance size")
    } else if epsilons.is_empty() {
        ("epsilons", "the sweep needs at least one privacy budget")
    } else {
        return epsilons
            .iter()
            .try_for_each(|&epsilon| check_epsilon("epsilons", epsilon));
    };
    Err(PipelineError::InvalidConfig { field, why })
}

/// Per-job seed from the job index: independent of the shard that
/// executes it, so shard count never changes any cell.
fn job_seed(root: u64, index: usize) -> u64 {
    root.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A ratio denominator shared by every job whose cell divides by it. The
/// first job to reach it solves it; a job on another shard that arrives
/// mid-solve waits, and later jobs read the stored value. It lives and dies
/// with one run's job list.
type Denominator<T> = Arc<OnceLock<T>>;

/// One unsolved [`Denominator`] per key; callers index keys by axis
/// position, row-major.
fn denominators<T>(keys: usize) -> Vec<Denominator<T>> {
    (0..keys).map(|_| Arc::default()).collect()
}

/// The scenario a sweep cell should record: `None` for the `uniform`
/// default (keeping the column absent from legacy-shaped JSON), the name
/// otherwise.
fn cell_scenario(scenario: &dyn Scenario) -> Option<String> {
    (scenario.name() != DEFAULT_SCENARIO).then(|| scenario.name().to_string())
}

// ---------------------------------------------------------------------------
// The static flavour
// ---------------------------------------------------------------------------

/// One unit of static sweep work (opaque: built by
/// [`SweepFlavor::jobs`]).
pub struct SweepJob {
    scenario: Arc<dyn Scenario>,
    spec: AlgorithmSpec,
    size: usize,
    epsilon: f64,
    /// Seed for this job's pipeline/shuffle streams.
    job_seed: u64,
    /// `d(M_OPT)` of this job's instance, shared by every job of the same
    /// `(scenario, size)`.
    opt: Denominator<Result<f64, RatioError>>,
}

impl SweepFlavor for SweepConfig {
    type Job = SweepJob;
    type Report = SweepReport;

    fn shards(&self) -> usize {
        self.shards
    }

    fn timings(&self) -> bool {
        self.timings
    }

    /// The `pairing × size × ε` product in mechanism-major order.
    fn jobs(&self) -> Result<Vec<SweepJob>, PipelineError> {
        check_grid(self.shards, &self.sizes, &self.epsilons)?;
        if self.repetitions == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "repetitions",
                why: "the sweep needs at least one repetition per cell",
            });
        }
        let axes = self.axes()?;
        // The instance, and so its optimum, depends on (scenario, size) only.
        let opts = denominators(axes.scenarios.len() * self.sizes.len());
        let mut jobs = Vec::new();
        // Scenario is the outermost axis: a single-scenario sweep
        // enumerates jobs in exactly the pre-scenario order, so every job
        // index (and therefore every job seed) is unchanged.
        for (s, scenario) in axes.scenarios.iter().enumerate() {
            for mechanism in &axes.mechanisms {
                for matcher in &axes.matchers {
                    for (z, &size) in self.sizes.iter().enumerate() {
                        for &epsilon in &self.epsilons {
                            jobs.push(SweepJob {
                                scenario: scenario.clone(),
                                spec: AlgorithmSpec::compose(mechanism.clone(), matcher.clone()),
                                size,
                                epsilon,
                                job_seed: job_seed(self.base.seed, jobs.len()),
                                opt: opts[s * self.sizes.len() + z].clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    fn fingerprint_parts(&self) -> Result<Vec<String>, PipelineError> {
        let base = &self.base;
        let mut parts = self.axes()?.name_parts().to_vec();
        parts.extend([
            joined(self.sizes.iter()),
            epsilon_bits(&self.epsilons),
            format!("reps={}", self.repetitions),
            format!("seed={}", base.seed),
            format!("grid={}", base.grid_side),
            // Retired engine knobs, frozen at their old defaults: every
            // engine produced the same cells, and keeping the parts keeps
            // fingerprints — and so checkpoint logs and partials — written
            // before the knobs went still matching.
            "engine=scan".to_string(),
            "euclid=0".to_string(),
            format!("capacity={}", base.capacity),
        ]);
        Ok(parts)
    }

    fn run_job(&self, job: &SweepJob) -> SweepCell {
        #[expect(
            clippy::disallowed_methods,
            reason = "the timings-gated wall_ms path itself; the merge strips wall_ms before fingerprinting"
        )]
        let started = self.timings.then(std::time::Instant::now);
        let instance = job.scenario.instance(self.base.seed, job.size);
        let config = PipelineConfig {
            epsilon: job.epsilon,
            seed: job.job_seed,
            ..self.base
        };
        // What `empirical_competitive_ratio` measures, with the optimum
        // solved once per `(scenario, size)`; `jobs` rejected zero
        // repetitions.
        let measured = job
            .opt
            .get_or_init(|| offline_optimum_with_threads(&instance, config.threads))
            .clone()
            .and_then(|opt| {
                competitive_ratio_against(&job.spec, &instance, &config, self.repetitions, opt)
            });
        let (report, error) = match measured {
            Ok(r) => (Some(r), None),
            Err(e) => (None, Some(e.to_string())),
        };
        SweepCell {
            scenario: cell_scenario(job.scenario.as_ref()),
            mechanism: job.spec.mechanism.name().to_string(),
            matcher: job.spec.matcher.name().to_string(),
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
            epsilon: job.epsilon,
            report,
            error,
            wall_ms: started.map(|s| s.elapsed().as_secs_f64() * 1e3),
        }
    }

    fn report(&self, cells: Vec<SweepCell>) -> SweepReport {
        SweepReport {
            seed: self.base.seed,
            repetitions: self.repetitions,
            cells,
        }
    }
}

impl SweepConfig {
    fn axes(&self) -> Result<Axes<Arc<dyn AssignStrategy>>, PipelineError> {
        Axes::resolve(&self.scenarios, &self.mechanisms, || {
            resolve(&self.matchers, registry().matchers(), |n| {
                registry().require_matcher(n)
            })
        })
    }
}

impl FlavorReport for SweepReport {
    const FLAVOR: &'static str = "static";
    type Cell = SweepCell;
    type Measurement = RatioReport;

    fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    fn outcome(cell: &SweepCell) -> (Option<&RatioReport>, Option<&str>) {
        (cell.report.as_ref(), cell.error.as_deref())
    }

    fn with_cells(&self, cells: Vec<SweepCell>) -> Self {
        SweepReport {
            seed: self.seed,
            repetitions: self.repetitions,
            cells,
        }
    }

    fn mismatch(&self, other: &Self) -> Option<&'static str> {
        if self.seed != other.seed {
            Some("seed")
        } else if self.repetitions != other.repetitions {
            Some("repetitions")
        } else {
            None
        }
    }

    fn clear_wall_ms(cell: &mut SweepCell) {
        cell.wall_ms = None;
    }
}

// ---------------------------------------------------------------------------
// The dynamic flavour
// ---------------------------------------------------------------------------

/// What the dynamic sweep runs: the pairing/plan filters, the instance/ε
/// grid, and the execution parameters. Mirrors [`SweepConfig`], with shift
/// plans as the extra axis and no repetitions (each cell replays one
/// deterministic timeline).
#[derive(Debug, Clone)]
pub struct DynamicSweepConfig {
    /// Mechanism names to include; empty means every registered mechanism.
    pub mechanisms: Vec<String>,
    /// Dynamic matcher names to include; empty means every registered
    /// dynamic matcher.
    pub matchers: Vec<String>,
    /// Workload scenario names to sweep; empty means just the legacy
    /// `uniform` default, exactly as in [`SweepConfig::scenarios`].
    pub scenarios: Vec<String>,
    /// Shift-plan kinds to replay; empty means all of
    /// [`SHIFT_PLAN_KINDS`].
    pub shift_plans: Vec<String>,
    /// Instance sizes: `size` tasks and `size` workers per cell.
    pub sizes: Vec<usize>,
    /// Privacy budgets ε to sweep.
    pub epsilons: Vec<f64>,
    /// Worker threads; results are bit-identical for every value ≥ 1.
    pub shards: usize,
    /// Record per-cell wall-clock into [`DynamicSweepCell::wall_ms`]; same
    /// golden-exclusion semantics as [`SweepConfig::timings`].
    pub timings: bool,
    /// Measure each cell against the clairvoyant `dynamic-opt` oracle:
    /// populates [`DynamicSweepCell::competitive_ratio`] and the
    /// drop-latency percentile columns, admits the oracle itself in
    /// matcher position (its cell reports ratio exactly 1.0), and enters
    /// the resolved oracle name into the config fingerprint — so
    /// partitioned/checkpointed/merged ratio sweeps can never mix with
    /// plain ones. Off (the default), cells serialize byte-identically to
    /// pre-ratio sweeps.
    pub ratio: bool,
    /// Predefined-point grid side of each cell's server.
    pub grid_side: usize,
    /// Root seed every derived stream (instances, times, plans, noise)
    /// descends from.
    pub seed: u64,
}

impl Default for DynamicSweepConfig {
    fn default() -> Self {
        DynamicSweepConfig {
            mechanisms: Vec::new(),
            matchers: Vec::new(),
            scenarios: Vec::new(),
            shift_plans: Vec::new(),
            sizes: vec![48],
            epsilons: vec![0.6],
            shards: 1,
            timings: false,
            ratio: false,
            grid_side: 32,
            seed: 0,
        }
    }
}

/// The measured outcome of one dynamic sweep cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicMeasurement {
    /// Tasks assigned to a worker.
    pub assigned: usize,
    /// Tasks that arrived while the pool was empty.
    pub dropped: usize,
    /// `assigned / (assigned + dropped)`; 1.0 for an empty timeline.
    pub assignment_rate: f64,
    /// Total true-location travel distance of the assigned pairs.
    pub total_distance: f64,
    /// Largest number of simultaneously available workers observed.
    pub peak_available: usize,
}

impl DynamicMeasurement {
    /// Summarizes a [`DynamicOutcome`] (the CLI's `--json` shape too).
    pub fn from_outcome(out: &DynamicOutcome) -> Self {
        DynamicMeasurement {
            assigned: out.pairs.len(),
            dropped: out.dropped_tasks,
            assignment_rate: out.assignment_rate(),
            total_distance: out.total_distance,
            peak_available: out.peak_available,
        }
    }
}

/// One cell of the dynamic sweep product: exactly one of
/// `measurement` / `error` is set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicSweepCell {
    /// Workload scenario this cell's instance/timeline came from; absent
    /// for the legacy `uniform` default, exactly as in
    /// [`SweepCell::scenario`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Stage-1 mechanism name.
    pub mechanism: String,
    /// Stage-2 dynamic matcher name.
    pub matcher: String,
    /// Shift-plan kind replayed by this cell.
    pub plan: String,
    /// Tasks in this cell's instance.
    pub num_tasks: usize,
    /// Workers in this cell's instance.
    pub num_workers: usize,
    /// Privacy budget ε of this cell.
    pub epsilon: f64,
    /// The measured outcome, when the pairing is measurable.
    pub measurement: Option<DynamicMeasurement>,
    /// This cell's total distance over the clairvoyant optimum's; present
    /// only under [`DynamicSweepConfig::ratio`]. Exactly 1.0 for the
    /// oracle's own cell.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub competitive_ratio: Option<f64>,
    /// Median time a dropped task would have waited for the next shift
    /// start (nearest-rank); present under [`DynamicSweepConfig::ratio`]
    /// when at least one dropped task has a future shift start.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub drop_latency_p50: Option<f64>,
    /// 95th-percentile drop latency (nearest-rank), same presence rule as
    /// [`DynamicSweepCell::drop_latency_p50`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub drop_latency_p95: Option<f64>,
    /// The typed error's message, when it is not (e.g. blind reports into
    /// a location-aware pool).
    pub error: Option<String>,
    /// Wall-clock of this cell's replay in milliseconds; present only
    /// when the sweep ran with [`DynamicSweepConfig::timings`]. Under
    /// [`DynamicSweepConfig::ratio`] the oracle is shared by every cell of
    /// the same timeline, with the same accounting as
    /// [`SweepCell::wall_ms`]: the solving cell carries its cost, a
    /// waiting cell its wait.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wall_ms: Option<f64>,
}

/// A completed dynamic sweep: cells in job order (mechanism-major, then
/// matcher, plan, size, ε).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicSweepReport {
    /// Root seed every cell's streams derive from.
    pub seed: u64,
    /// Simulation horizon shared by all cells.
    pub horizon: f64,
    /// All measured cells.
    pub cells: Vec<DynamicSweepCell>,
}

/// One unit of dynamic sweep work (opaque: built by
/// [`SweepFlavor::jobs`]).
pub struct DynamicSweepJob {
    scenario: Arc<dyn Scenario>,
    mechanism: Arc<dyn ReportMechanism>,
    matcher: Arc<dyn DynamicAssignStrategy>,
    plan_kind: String,
    size: usize,
    epsilon: f64,
    /// Seed for this job's noise streams.
    job_seed: u64,
    /// The clairvoyant optimum of this job's timeline, shared by every job
    /// of the same `(scenario, plan, size)`; present only under
    /// [`DynamicSweepConfig::ratio`].
    oracle: Option<Denominator<Result<ClairvoyantAssignment, RatioError>>>,
}

/// Resolves the dynamic-matcher filter. Ratio sweeps admit the
/// `dynamic-opt` oracle ([`DynamicAssignStrategy::is_oracle`]) — and
/// include it by default, so the denominator shows up as its own
/// ratio-1.0 row — while plain sweeps take online matchers only, making
/// oracle misuse a typed [`PipelineError::RoleMismatch`].
fn resolve_dynamic_matchers(
    names: &[String],
    ratio: bool,
) -> Result<Vec<Arc<dyn DynamicAssignStrategy>>, PipelineError> {
    if ratio {
        resolve(names, registry().dynamic_matcher_catalog().all(), |n| {
            registry().dynamic_matcher_any(n)
        })
    } else {
        resolve(names, &registry().dynamic_matchers(), |n| {
            registry().require_dynamic_matcher(n)
        })
    }
}

/// Nearest-rank (p50, p95) of how long each dropped task would have waited
/// for the next shift start after its arrival; dropped tasks with no
/// future shift start are excluded, and both are `None` when nothing
/// qualifies.
fn drop_latency_percentiles(
    dropped: impl Iterator<Item = usize>,
    times: &[f64],
    plan: &ShiftPlan,
) -> (Option<f64>, Option<f64>) {
    let mut starts: Vec<f64> = plan.shifts.iter().map(|s| s.start).collect();
    starts.sort_by(|a, b| a.partial_cmp(b).expect("finite shift starts"));
    let mut latencies: Vec<f64> = dropped
        .filter_map(|t| {
            let at = times[t];
            let next = starts.partition_point(|&start| start <= at);
            starts.get(next).map(|start| start - at)
        })
        .collect();
    if latencies.is_empty() {
        return (None, None);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = |p: f64| {
        let n = latencies.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        latencies[idx]
    };
    (Some(rank(0.50)), Some(rank(0.95)))
}

/// The oracle's "run" for its own sweep cell: the clairvoyant solution
/// presented as a [`DynamicMeasurement`]. `peak_available` replays the
/// timeline with the oracle's consumption schedule (a worker leaves the
/// pool when its assigned task arrives), mirroring how the online driver
/// samples the peak after each registration.
fn oracle_measurement(
    opt: &pombm_matching::ClairvoyantAssignment,
    times: &[f64],
    plan: &ShiftPlan,
) -> DynamicMeasurement {
    let num_tasks = times.len();
    let num_workers = plan.shifts.len();
    let mut worker_of = vec![None; num_tasks];
    for &(t, w) in &opt.pairs {
        worker_of[t] = Some(w);
    }
    let mut present = vec![false; num_workers];
    let mut consumed = vec![false; num_workers];
    let mut available = 0usize;
    let mut peak = 0usize;
    for &(_, kind) in &crate::dynamic::build_timeline(plan, times) {
        match kind {
            crate::dynamic::EventKind::ShiftStart(w) => {
                present[w] = true;
                available += 1;
                peak = peak.max(available);
            }
            crate::dynamic::EventKind::ShiftEnd(w) => {
                if present[w] && !consumed[w] {
                    present[w] = false;
                    available -= 1;
                }
            }
            crate::dynamic::EventKind::Task(t) => {
                if let Some(w) = worker_of[t] {
                    consumed[w] = true;
                    present[w] = false;
                    available -= 1;
                }
            }
        }
    }
    let assigned = opt.size();
    let dropped = opt.dropped.len();
    DynamicMeasurement {
        assigned,
        dropped,
        assignment_rate: if assigned + dropped == 0 {
            1.0
        } else {
            assigned as f64 / (assigned + dropped) as f64
        },
        total_distance: opt.total_cost,
        peak_available: peak,
    }
}

impl SweepFlavor for DynamicSweepConfig {
    type Job = DynamicSweepJob;
    type Report = DynamicSweepReport;

    fn shards(&self) -> usize {
        self.shards
    }

    fn timings(&self) -> bool {
        self.timings
    }

    /// The `pairing × plan × size × ε` product in mechanism-major order.
    fn jobs(&self) -> Result<Vec<DynamicSweepJob>, PipelineError> {
        check_grid(self.shards, &self.sizes, &self.epsilons)?;
        let axes = self.axes()?;
        let plans = self.plan_kinds()?;
        // The timeline, and so its oracle, depends on (scenario, plan,
        // size) only.
        let oracles = denominators(axes.scenarios.len() * plans.len() * self.sizes.len());
        let mut jobs = Vec::new();
        // Scenario outermost, exactly as in the static flavour: a
        // single-scenario sweep keeps the pre-scenario job order and seeds.
        for (s, scenario) in axes.scenarios.iter().enumerate() {
            for mechanism in &axes.mechanisms {
                for matcher in &axes.matchers {
                    for (p, plan_kind) in plans.iter().enumerate() {
                        for (z, &size) in self.sizes.iter().enumerate() {
                            for &epsilon in &self.epsilons {
                                let key = (s * plans.len() + p) * self.sizes.len() + z;
                                jobs.push(DynamicSweepJob {
                                    scenario: scenario.clone(),
                                    mechanism: mechanism.clone(),
                                    matcher: matcher.clone(),
                                    plan_kind: plan_kind.clone(),
                                    size,
                                    epsilon,
                                    job_seed: job_seed(self.seed, jobs.len()),
                                    oracle: self.ratio.then(|| oracles[key].clone()),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    fn fingerprint_parts(&self) -> Result<Vec<String>, PipelineError> {
        let mut parts = self.axes()?.name_parts().to_vec();
        parts.extend([
            self.plan_kinds()?.join(","),
            joined(self.sizes.iter()),
            epsilon_bits(&self.epsilons),
            format!("grid={}", self.grid_side),
            format!("seed={}", self.seed),
            format!("horizon={:016x}", DYNAMIC_SWEEP_HORIZON.to_bits()),
        ]);
        if self.ratio {
            // The resolved oracle name: ratio cells carry extra columns, so
            // a ratio sweep must never share checkpoints or merge inputs
            // with a plain sweep of the same grid.
            parts.push(format!("oracle={DEFAULT_DYNAMIC_ORACLE}"));
        }
        Ok(parts)
    }

    fn run_job(&self, job: &DynamicSweepJob) -> DynamicSweepCell {
        #[expect(
            clippy::disallowed_methods,
            reason = "the timings-gated wall_ms path itself; the merge strips wall_ms before fingerprinting"
        )]
        let started = self.timings.then(std::time::Instant::now);
        let instance = job.scenario.instance(self.seed, job.size);
        let times = job.scenario.task_times(self.seed, job.size);
        let plan = job
            .scenario
            .shift_plan(&job.plan_kind, job.size, self.seed)
            .expect("plan kinds were validated before the fan-out");
        let config = DynamicConfig {
            epsilon: job.epsilon,
            grid_side: self.grid_side,
            seed: job.job_seed,
        };
        // The oracle denominator is shared by every cell of this timeline;
        // solved at threads=1 so cells stay shard-invariant (the clairvoyant
        // engine is bit-identical at every thread count anyway).
        let oracle = job.oracle.as_ref().map(|oracle| {
            oracle.get_or_init(|| dynamic_offline_optimum_with_threads(&instance, &times, &plan, 1))
        });
        let is_oracle_cell = job.matcher.is_oracle();

        let outcome = if is_oracle_cell {
            match oracle {
                Some(Ok(opt)) => Ok((oracle_measurement(opt, &times, &plan), None)),
                Some(Err(e)) => Err(e.to_string()),
                // resolve_dynamic_matchers only admits the oracle under
                // --ratio, so a ratio-less oracle cell cannot be built by the
                // sweep; report the role error defensively anyway.
                None => Err(PipelineError::oracle_only(job.matcher.name()).to_string()),
            }
        } else {
            match run_dynamic_spec(
                &instance,
                &times,
                &plan,
                &config,
                job.mechanism.as_ref(),
                job.matcher.as_ref(),
            ) {
                Ok(out) => Ok((DynamicMeasurement::from_outcome(&out), Some(out))),
                Err(e) => Err(e.to_string()),
            }
        };

        let (measurement, competitive_ratio, drop_p50, drop_p95, error) = match outcome {
            Err(e) => (None, None, None, None, Some(e)),
            Ok((m, online)) => match (oracle, online) {
                // Ratio off: the pre-ratio cell, bit for bit.
                (None, _) => (Some(m), None, None, None, None),
                (Some(Err(e)), _) => (None, None, None, None, Some(e.to_string())),
                (Some(Ok(opt)), online) => {
                    let (numerator, dropped): (f64, Vec<usize>) = match online {
                        Some(out) => {
                            let mut assigned = vec![false; instance.num_tasks()];
                            for &(t, _) in &out.pairs {
                                assigned[t] = true;
                            }
                            let dropped = (0..assigned.len()).filter(|&t| !assigned[t]);
                            (out.total_distance, dropped.collect())
                        }
                        // The oracle's own cell: numerator = denominator, so
                        // the ratio divides to exactly 1.0.
                        None => (opt.total_cost, opt.dropped.clone()),
                    };
                    let (p50, p95) = drop_latency_percentiles(dropped.into_iter(), &times, &plan);
                    (Some(m), Some(numerator / opt.total_cost), p50, p95, None)
                }
            },
        };

        DynamicSweepCell {
            scenario: cell_scenario(job.scenario.as_ref()),
            mechanism: job.mechanism.name().to_string(),
            matcher: job.matcher.name().to_string(),
            plan: job.plan_kind.clone(),
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
            epsilon: job.epsilon,
            measurement,
            competitive_ratio,
            drop_latency_p50: drop_p50,
            drop_latency_p95: drop_p95,
            error,
            wall_ms: started.map(|s| s.elapsed().as_secs_f64() * 1e3),
        }
    }

    fn report(&self, cells: Vec<DynamicSweepCell>) -> DynamicSweepReport {
        DynamicSweepReport {
            seed: self.seed,
            horizon: DYNAMIC_SWEEP_HORIZON,
            cells,
        }
    }
}

impl DynamicSweepConfig {
    fn axes(&self) -> Result<Axes<Arc<dyn DynamicAssignStrategy>>, PipelineError> {
        Axes::resolve(&self.scenarios, &self.mechanisms, || {
            resolve_dynamic_matchers(&self.matchers, self.ratio)
        })
    }

    /// The shift-plan kinds to replay: the explicit filter, or all of
    /// [`SHIFT_PLAN_KINDS`] when empty — validated upfront so the fan-out
    /// cannot panic.
    fn plan_kinds(&self) -> Result<Vec<String>, PipelineError> {
        let all = SHIFT_PLAN_KINDS.map(String::from);
        resolve(&self.shift_plans, &all, |kind| {
            dynamic_shift_plan(kind, 1, 0).map(|_| kind.to_string())
        })
    }
}

impl FlavorReport for DynamicSweepReport {
    const FLAVOR: &'static str = "dynamic";
    type Cell = DynamicSweepCell;
    type Measurement = DynamicMeasurement;

    fn cells(&self) -> &[DynamicSweepCell] {
        &self.cells
    }

    fn outcome(cell: &DynamicSweepCell) -> (Option<&DynamicMeasurement>, Option<&str>) {
        (cell.measurement.as_ref(), cell.error.as_deref())
    }

    fn with_cells(&self, cells: Vec<DynamicSweepCell>) -> Self {
        DynamicSweepReport {
            seed: self.seed,
            horizon: self.horizon,
            cells,
        }
    }

    fn mismatch(&self, other: &Self) -> Option<&'static str> {
        if self.seed != other.seed {
            Some("seed")
        } else if self.horizon.to_bits() != other.horizon.to_bits() {
            Some("horizon")
        } else {
            None
        }
    }

    fn clear_wall_ms(cell: &mut DynamicSweepCell) {
        cell.wall_ms = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::dynamic_task_times;

    fn small_config() -> SweepConfig {
        SweepConfig {
            mechanisms: vec!["identity".into(), "laplace".into()],
            matchers: vec!["greedy".into(), "offline-opt".into()],
            scenarios: Vec::new(),
            sizes: vec![12],
            epsilons: vec![0.6],
            repetitions: 2,
            shards: 1,
            timings: false,
            base: PipelineConfig {
                grid_side: 16,
                ..PipelineConfig::default()
            },
        }
    }

    #[test]
    fn sweep_covers_the_product() {
        let report = run_sweep(&small_config()).unwrap();
        assert_eq!(report.cells.len(), 2 * 2);
        assert_eq!(report.measured().count(), 4);
        assert_eq!(report.failed().count(), 0);
        for (cell, r) in report.measured() {
            assert!(r.ratio >= 1.0 - 1e-9, "{}+{}", cell.mechanism, cell.matcher);
        }
    }

    #[test]
    fn identity_offline_opt_cell_is_the_oracle() {
        let report = run_sweep(&small_config()).unwrap();
        let (_, oracle) = report
            .measured()
            .find(|(c, _)| c.mechanism == "identity" && c.matcher == "offline-opt")
            .expect("oracle cell present");
        assert_eq!(oracle.ratio, 1.0);
    }

    #[test]
    fn unknown_names_fail_fast() {
        let mut config = small_config();
        config.mechanisms = vec!["bogus".into()];
        assert!(matches!(
            run_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "mechanism",
                ..
            })
        ));
        let mut config = small_config();
        config.matchers = vec!["bogus".into()];
        assert!(matches!(
            run_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "matcher",
                ..
            })
        ));
    }

    #[test]
    fn degenerate_grids_fail_fast() {
        for broken in [
            SweepConfig {
                shards: 0,
                ..small_config()
            },
            SweepConfig {
                repetitions: 0,
                ..small_config()
            },
            SweepConfig {
                sizes: vec![],
                ..small_config()
            },
            SweepConfig {
                epsilons: vec![],
                ..small_config()
            },
        ] {
            assert!(matches!(
                run_sweep(&broken),
                Err(PipelineError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn incompatible_cells_record_errors_without_aborting() {
        let config = SweepConfig {
            mechanisms: vec!["blind".into()],
            matchers: vec!["greedy".into(), "random".into()],
            ..small_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), 2);
        let by_matcher = |m: &str| report.cells.iter().find(|c| c.matcher == m).unwrap();
        assert!(by_matcher("greedy").error.is_some());
        assert!(by_matcher("random").report.is_some());
    }

    #[test]
    fn empty_size_cell_is_a_recorded_error() {
        let config = SweepConfig {
            mechanisms: vec!["identity".into()],
            matchers: vec!["greedy".into()],
            sizes: vec![0],
            ..small_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.cells[0]
            .error
            .as_deref()
            .unwrap()
            .contains("non-empty"));
    }

    #[test]
    fn zero_grid_side_is_a_recorded_cell_error_in_both_flavours() {
        let want = "invalid config `grid_side`";
        let mut config = small_config();
        config.mechanisms.push("hst".into());
        config.base.grid_side = 0;
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), 3 * 2);
        for cell in &report.cells {
            assert!(cell.error.as_deref().unwrap().contains(want), "{cell:?}");
        }
        let report = run_sweep(&DynamicSweepConfig {
            grid_side: 0,
            ..small_dynamic_config()
        })
        .unwrap();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        for cell in &report.cells {
            assert!(cell.error.as_deref().unwrap().contains(want), "{cell:?}");
        }
    }

    #[test]
    fn a_bad_epsilon_fails_both_flavours_before_any_job_runs() {
        let want = |r: Result<(), PipelineError>| {
            matches!(
                r,
                Err(PipelineError::InvalidConfig {
                    field: "epsilons",
                    ..
                })
            )
        };
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut config = small_config();
            config.epsilons = vec![0.6, epsilon];
            assert!(want(run_sweep(&config).map(drop)), "static {epsilon}");
            let config = DynamicSweepConfig {
                epsilons: vec![epsilon],
                ..small_dynamic_config()
            };
            assert!(want(run_sweep(&config).map(drop)), "dynamic {epsilon}");
        }
    }

    fn small_dynamic_config() -> DynamicSweepConfig {
        DynamicSweepConfig {
            mechanisms: vec!["identity".into(), "hst".into()],
            matchers: vec!["hst-greedy".into(), "kd-rebuild".into()],
            scenarios: Vec::new(),
            shift_plans: vec!["always-on".into(), "short".into()],
            sizes: vec![16],
            epsilons: vec![0.6],
            shards: 1,
            timings: false,
            ratio: false,
            grid_side: 16,
            seed: 0,
        }
    }

    #[test]
    fn dynamic_sweep_covers_the_product() {
        let report = run_sweep(&small_dynamic_config()).unwrap();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        assert_eq!(report.measured().count(), 8);
        assert_eq!(report.failed().count(), 0);
        for (cell, m) in report.measured() {
            assert_eq!(
                m.assigned + m.dropped,
                16,
                "{}+{}",
                cell.mechanism,
                cell.matcher
            );
            if cell.plan == "always-on" {
                assert_eq!(m.dropped, 0, "always-on never drops");
                assert_eq!(m.assignment_rate, 1.0);
                assert_eq!(m.peak_available, 16);
            }
        }
    }

    #[test]
    fn dynamic_sweep_timelines_are_shared_across_pairings() {
        // Task times and shift plans depend on (seed, size, plan) only, so
        // every pairing of one cell column faces the same scenario: the
        // identity x hst-greedy and hst x hst-greedy cells must report the
        // same peak availability under the same plan.
        let report = run_sweep(&small_dynamic_config()).unwrap();
        for plan in ["always-on", "short"] {
            let peaks: Vec<usize> = report
                .measured()
                .filter(|(c, _)| c.plan == plan)
                .map(|(_, m)| m.peak_available)
                .collect();
            assert!(
                peaks.windows(2).all(|w| w[0] == w[1]),
                "{plan}: peaks diverged {peaks:?}"
            );
        }
    }

    #[test]
    fn dynamic_sweep_records_incompatible_cells_without_aborting() {
        let config = DynamicSweepConfig {
            mechanisms: vec!["blind".into()],
            matchers: vec![],
            shift_plans: vec!["always-on".into()],
            ..small_dynamic_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.cells.len(), registry().dynamic_matchers().len());
        let by_matcher = |m: &str| report.cells.iter().find(|c| c.matcher == m).unwrap();
        assert!(by_matcher("hst-greedy").error.is_some());
        assert!(by_matcher("kd-rebuild").error.is_some());
        assert!(by_matcher("random").measurement.is_some());
    }

    #[test]
    fn dynamic_sweep_fails_fast_on_unknown_names_and_empty_grids() {
        let mut config = small_dynamic_config();
        config.matchers = vec!["bogus".into()];
        assert!(matches!(
            run_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "dynamic matcher",
                ..
            })
        ));
        let mut config = small_dynamic_config();
        config.shift_plans = vec!["bogus".into()];
        assert!(matches!(
            run_sweep(&config),
            Err(PipelineError::UnknownEntry {
                kind: "shift plan",
                ..
            })
        ));
        for broken in [
            DynamicSweepConfig {
                shards: 0,
                ..small_dynamic_config()
            },
            DynamicSweepConfig {
                sizes: vec![],
                ..small_dynamic_config()
            },
            DynamicSweepConfig {
                epsilons: vec![],
                ..small_dynamic_config()
            },
        ] {
            assert!(matches!(
                run_sweep(&broken),
                Err(PipelineError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn dynamic_sweep_empty_filters_mean_the_full_registry() {
        let config = DynamicSweepConfig {
            mechanisms: Vec::new(),
            matchers: Vec::new(),
            shift_plans: Vec::new(),
            sizes: vec![8],
            ..small_dynamic_config()
        };
        let report = run_sweep(&config).unwrap();
        let expected = registry().mechanisms().len()
            * registry().dynamic_matchers().len()
            * SHIFT_PLAN_KINDS.len();
        assert_eq!(report.cells.len(), expected);
        // Only blind x location-aware cells fail.
        assert_eq!(
            report.failed().count(),
            (registry().dynamic_matchers().len() - 1) * SHIFT_PLAN_KINDS.len()
        );
        for cell in report.failed() {
            assert_eq!(cell.mechanism, "blind");
            assert_ne!(cell.matcher, "random");
        }
    }

    #[test]
    fn shift_plan_kinds_generate_and_unknown_kinds_error() {
        for kind in SHIFT_PLAN_KINDS {
            let plan = dynamic_shift_plan(kind, 40, 3).unwrap();
            assert_eq!(plan.shifts.len(), 40, "{kind}");
            for s in &plan.shifts {
                assert!(s.start < s.end, "{kind}");
            }
        }
        assert!(dynamic_shift_plan("weekend", 4, 0).is_err());
        let times = dynamic_task_times(5, 64);
        assert_eq!(times.len(), 64);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "times are sorted");
        assert!(times
            .iter()
            .all(|&t| (0.0..DYNAMIC_SWEEP_HORIZON).contains(&t)));
        assert_eq!(times, dynamic_task_times(5, 64), "deterministic in seed");
        assert_ne!(times, dynamic_task_times(6, 64), "seed matters");
    }

    #[test]
    fn ratio_resolution_admits_the_oracle_only_under_ratio() {
        // Empty filter: pairing-only without --ratio, the full catalog
        // (oracle row included) with it.
        let plain = resolve_dynamic_matchers(&[], false).unwrap();
        let with_ratio = resolve_dynamic_matchers(&[], true).unwrap();
        assert_eq!(plain.len() + 1, with_ratio.len());
        assert!(with_ratio
            .iter()
            .any(|m| m.name() == DEFAULT_DYNAMIC_ORACLE));
        assert!(plain.iter().all(|m| m.name() != DEFAULT_DYNAMIC_ORACLE));
        // Naming the oracle outside a ratio sweep is a typed role error;
        // under --ratio the same name resolves.
        assert!(resolve_dynamic_matchers(&["dynamic-opt".into()], false).is_err());
        let named = resolve_dynamic_matchers(&["dynamic-opt".into()], true).unwrap();
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].name(), DEFAULT_DYNAMIC_ORACLE);
    }

    #[test]
    fn drop_latency_percentiles_use_the_next_shift_start() {
        use pombm_workload::shifts::Shift;
        let plan = ShiftPlan {
            horizon: 100.0,
            shifts: vec![
                Shift {
                    worker: 0,
                    start: 10.0,
                    end: 20.0,
                },
                Shift {
                    worker: 1,
                    start: 50.0,
                    end: 60.0,
                },
            ],
        };
        let times = [0.0, 30.0, 70.0, 5.0];
        // Tasks 0 and 3 wait for the start at 10 (latencies 10 and 5),
        // task 1 for the start at 50 (latency 20); task 2 arrives after
        // every start and is excluded. Sorted latencies [5, 10, 20]:
        // nearest-rank p50 is 10, p95 is 20.
        let (p50, p95) = drop_latency_percentiles([0usize, 1, 2, 3].into_iter(), &times, &plan);
        assert_eq!(p50, Some(10.0));
        assert_eq!(p95, Some(20.0));
        let (p50, p95) = drop_latency_percentiles(std::iter::empty(), &times, &plan);
        assert_eq!((p50, p95), (None, None));
        // Drops with no later shift to wait for leave both undefined.
        let (p50, p95) = drop_latency_percentiles([2usize].into_iter(), &times, &plan);
        assert_eq!((p50, p95), (None, None));
    }

    #[test]
    fn ratio_enters_the_fingerprint_and_nothing_else_new() {
        let plain = small_dynamic_config();
        let with_ratio = DynamicSweepConfig {
            ratio: true,
            ..small_dynamic_config()
        };
        assert_ne!(
            sweep_fingerprint(&plain).unwrap(),
            sweep_fingerprint(&with_ratio).unwrap(),
            "ratio sweeps must not share checkpoints with plain sweeps"
        );
        // Parallelism stays outside the fingerprint either way.
        let sharded = DynamicSweepConfig {
            shards: 7,
            ratio: true,
            ..small_dynamic_config()
        };
        assert_eq!(
            sweep_fingerprint(&with_ratio).unwrap(),
            sweep_fingerprint(&sharded).unwrap()
        );
    }

    #[test]
    fn execute_keeps_item_order_and_returns_the_first_error() {
        let items: Vec<usize> = (0..23).collect();
        // Each planted error carries its item's index.
        let planted = |bad: &'static [usize]| {
            move |&i: &usize| {
                if bad.contains(&i) {
                    Err(PipelineError::CellCap { computed: i })
                } else {
                    Ok(i * 10)
                }
            }
        };
        let want: Vec<usize> = items.iter().map(|i| i * 10).collect();
        for shards in [1, 2, 3, 7, items.len() + 5] {
            assert_eq!(execute(&items, shards, planted(&[])).unwrap(), want);
            assert!(execute(&[] as &[usize], shards, planted(&[]))
                .unwrap()
                .is_empty());
            // Errors in one chunk or several, listed in any order, and a
            // later chunk failing on its first item while an earlier one
            // fails further in: the lowest index wins at every shard count.
            for bad in [&[12][..], &[5, 6, 17, 22], &[22, 9, 0], &[12, 9]] {
                let lowest = *bad.iter().min().unwrap();
                match execute(&items, shards, planted(bad)) {
                    Err(PipelineError::CellCap { computed }) => {
                        assert_eq!(computed, lowest, "shards {shards}, errors at {bad:?}")
                    }
                    other => panic!("shards {shards}: expected an error, got {other:?}"),
                }
            }
        }
    }

    /// The distinct denominators of `jobs`, after checking that two jobs
    /// hold the same one exactly when they have the same key.
    fn distinct_denominators<'a, J, T, K: PartialEq>(
        jobs: &'a [J],
        slot: impl Fn(&'a J) -> &'a Denominator<T>,
        key: impl Fn(&J) -> K,
    ) -> Vec<&'a Denominator<T>> {
        for a in jobs {
            for b in jobs {
                assert_eq!(Arc::ptr_eq(slot(a), slot(b)), key(a) == key(b));
            }
        }
        let mut distinct: Vec<&Denominator<T>> = Vec::new();
        for job in jobs {
            if !distinct.iter().any(|d| Arc::ptr_eq(d, slot(job))) {
                distinct.push(slot(job));
            }
        }
        distinct
    }

    #[test]
    fn each_static_denominator_key_is_solved_once_per_run() {
        let config = SweepConfig {
            scenarios: vec!["uniform".into(), "hotspot".into()],
            sizes: vec![0, 12],
            shards: 2,
            ..small_config()
        };
        let jobs = config.jobs().unwrap();
        let opts = distinct_denominators(&jobs, |j| &j.opt, |j| (j.scenario.name(), j.size));
        assert_eq!(opts.len(), 2 * 2, "one shared OPT per (scenario, size)");
        assert!(opts.iter().all(|o| o.get().is_none()));

        let cells = execute(&jobs, config.shards, |job| Ok(config.run_job(job))).unwrap();
        assert!(opts.iter().all(|o| o.get().is_some()), "every key solved");
        for (job, cell) in jobs.iter().zip(&cells) {
            match job.opt.get().unwrap() {
                Ok(opt) => assert_eq!(cell.report.as_ref().unwrap().opt_distance, *opt),
                Err(e) => assert_eq!(cell.error, Some(e.to_string())),
            }
        }
        assert_eq!(
            serde_json::to_string(&config.report(cells)).unwrap(),
            serde_json::to_string(&run_sweep(&config).unwrap()).unwrap()
        );
    }

    #[test]
    fn each_dynamic_oracle_key_is_solved_once_per_run() {
        let config = DynamicSweepConfig {
            scenarios: vec!["uniform".into(), "hotspot".into()],
            sizes: vec![12, 16],
            shards: 2,
            ratio: true,
            ..small_dynamic_config()
        };
        let plain = DynamicSweepConfig {
            ratio: false,
            ..config.clone()
        };
        assert!(plain.jobs().unwrap().iter().all(|j| j.oracle.is_none()));

        let jobs = config.jobs().unwrap();
        let oracles = distinct_denominators(
            &jobs,
            |j| j.oracle.as_ref().unwrap(),
            |j| (j.scenario.name(), j.plan_kind.clone(), j.size),
        );
        assert_eq!(
            oracles.len(),
            2 * 2 * 2,
            "one oracle per (scenario, plan, size)"
        );
        assert!(oracles.iter().all(|o| o.get().is_none()));

        let cells = execute(&jobs, config.shards, |job| Ok(config.run_job(job))).unwrap();
        assert!(
            oracles.iter().all(|o| o.get().is_some()),
            "every key solved"
        );
        for (job, cell) in jobs.iter().zip(&cells) {
            let opt = job
                .oracle
                .as_ref()
                .unwrap()
                .get()
                .unwrap()
                .as_ref()
                .unwrap();
            let m = cell.measurement.as_ref().unwrap();
            assert_eq!(
                cell.competitive_ratio,
                Some(m.total_distance / opt.total_cost)
            );
        }
        assert_eq!(
            serde_json::to_string(&config.report(cells)).unwrap(),
            serde_json::to_string(&run_sweep(&config).unwrap()).unwrap()
        );
    }
}
