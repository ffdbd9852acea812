//! Traced copies of the three drivers, rebuilt from the public layer calls
//! in their documented order:
//!
//! * a sweep cell: `run_job` → `empirical_competitive_ratio` → `run_spec`,
//!   fanned over contiguous shard chunks like `execute`;
//! * a ratio repetition: the event loop of `run_dynamic_spec` over the
//!   timeline sorted by `(at, class, id)`;
//! * a serve session: the engine's three-phase window flush on the
//!   `0xD1CE_0001/2` streams.
//!
//! The caller checks that every copy reproduces its driver's output bit
//! for bit, so a trace can never describe a different program. The stream
//! and seed constants below are the drivers' own.

use crate::check::{fnv1a_fold, FNV_OFFSET};
use crate::clock::now_ns;
use crate::text;
use crate::trace::{Fold, Recorder};
use crate::workload::{
    events, Event, RatioShape, ServeShape, SweepShape, Timeline, EPSILON, GRID_SIDE, SERVER_SALT,
    SHARDS, THREADS,
};
use bytes::Bytes;
use pombm::algorithm::{AssignCtx, ReportSet, Reports};
use pombm::ratio::{dynamic_offline_optimum_with_threads, offline_optimum_with_threads};
use pombm::serve::assignment_fingerprint;
use pombm::{
    registry, AlgorithmSpec, DynamicAssignStrategy, DynamicConfig, DynamicRatioReport,
    DynamicWorkerPool, PipelineConfig, PipelineError, RatioError, RatioReport, RatioStats, Report,
    ReportMechanism, Scenario, ServeReport, ServeRequest, Server, SweepCell, SweepReport,
    DEFAULT_DYNAMIC_ORACLE, DEFAULT_SCENARIO,
};
use pombm_geom::{seeded_rng, Point};
use pombm_privacy::Epsilon;
use pombm_workload::Instance;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `build_jobs`: per-job seed multiplier over the job index.
const JOB_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// `empirical_competitive_ratio`: arrival-shuffle stream.
pub const SHUFFLE_STREAM: u64 = 0x5EED;
/// `run_spec`: server seed multiplier over the repetition.
const REP_SERVER_MIX: u64 = 0x9E37_79B9;
/// `run_spec`: mechanism stream.
const SPEC_MECH_STREAM: u64 = 0x0BF5;
/// `run_spec`: tie-break stream.
const SPEC_TIE_STREAM: u64 = 0x7A9D;
/// `run_dynamic_spec` and the serve engine: mechanism stream.
const TIMELINE_MECH_STREAM: u64 = 0xD1CE_0001;
/// `run_dynamic_spec` and the serve engine: tie-break stream.
const TIMELINE_TIE_STREAM: u64 = 0xD1CE_0002;

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

/// One sweep cell, fully determined before any shard runs.
pub struct Job {
    /// The cell's pairing.
    pub spec: AlgorithmSpec,
    /// Tasks = workers.
    pub size: usize,
    /// Privacy budget.
    pub epsilon: f64,
    /// Seed derived from the job's index.
    pub seed: u64,
}

/// The sweep's job list in `build_jobs` order: mechanism-major, then
/// matcher, size and ε, each seeded from its index.
pub fn jobs(shape: &SweepShape, seed: u64) -> Result<Vec<Job>, PipelineError> {
    let r = registry();
    let mut jobs = Vec::with_capacity(shape.cells());
    for m in shape.mechanisms {
        let mechanism = r.require_mechanism(m)?;
        for a in shape.matchers {
            let matcher = r.require_matcher(a)?;
            for &size in &shape.sizes {
                for &epsilon in shape.epsilons {
                    let index = jobs.len() as u64 + 1;
                    jobs.push(Job {
                        spec: AlgorithmSpec::compose(mechanism.clone(), matcher.clone()),
                        size,
                        epsilon,
                        seed: seed.wrapping_add(index.wrapping_mul(JOB_SEED_MIX)),
                    });
                }
            }
        }
    }
    Ok(jobs)
}

/// Hungarian solves in one sweep unit, and how many re-solved an instance
/// the unit had already solved.
#[derive(Default)]
struct OptLog {
    seen: Mutex<BTreeSet<u64>>,
    solves: AtomicU64,
    redundant: AtomicU64,
}

impl OptLog {
    fn denominator(&self, instance: &Instance) {
        let key = instance
            .tasks
            .iter()
            .chain(&instance.workers)
            .fold(FNV_OFFSET, |h, p| {
                fnv1a_fold(fnv1a_fold(h, &p.x.to_le_bytes()), &p.y.to_le_bytes())
            });
        // Statistics only; they publish no other data.
        self.solves.fetch_add(1, Ordering::Relaxed);
        let fresh = self
            .seen
            .lock()
            .expect("no shard panics while holding the solve log")
            .insert(key);
        if !fresh {
            self.redundant.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(solves, redundant solves)`.
    fn counts(&self) -> (u64, u64) {
        (
            self.solves.load(Ordering::Relaxed),
            self.redundant.load(Ordering::Relaxed),
        )
    }
}

/// What the traced sweep produced.
pub struct SweepTrace {
    /// The sweep JSON, byte-comparable with an untraced run's.
    pub json: String,
    /// Hungarian solves: OPT denominators plus `offline-opt` assignments.
    pub solves: u64,
    /// Denominator solves on an instance already solved in this unit.
    pub redundant: u64,
}

/// The traced sweep unit: jobs, shards, cells and the JSON rendering.
pub fn sweep(rec: &Recorder, shape: &SweepShape, seed: u64) -> Result<SweepTrace, String> {
    let name = format!("sweep/{seed}");
    let base = shape.config(seed, false).base;
    let log = OptLog::default();
    rec.span(None, "sweep.unit", &name, shape.cells() as u64, |root| {
        let (jobs, scenario) = rec
            .span(
                Some(root),
                "sweep.jobs",
                &name,
                shape.cells() as u64,
                |_| {
                    Ok::<_, PipelineError>((
                        jobs(shape, seed)?,
                        registry().require_scenario(DEFAULT_SCENARIO)?,
                    ))
                },
            )
            .map_err(text)?;
        let unit = SweepUnit {
            rec,
            name: &name,
            base: &base,
            reps: shape.reps,
            scenario: scenario.as_ref(),
            log: &log,
        };
        let chunk = jobs.len().div_ceil(SHARDS).max(1);
        let cells: Vec<SweepCell> = std::thread::scope(|scope| {
            let unit = &unit;
            let shards: Vec<_> = jobs
                .chunks(chunk)
                .map(|shard_jobs| {
                    scope.spawn(move || {
                        let n = shard_jobs.len() as u64;
                        rec.span(Some(root), "sweep.shard", unit.name, n, |shard| {
                            shard_jobs
                                .iter()
                                .map(|job| unit.cell(shard, job))
                                .collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            shards
                .into_iter()
                .flat_map(|h| h.join().expect("shard threads do not panic"))
                .collect()
        });
        let report = SweepReport {
            seed: base.seed,
            repetitions: shape.reps,
            cells,
        };
        let json = rec
            .span_n(Some(root), "io.json", &name, |_| {
                let json = serde_json::to_string_pretty(&report);
                let bytes = json.as_ref().map_or(0, |j| j.len() as u64);
                (json, bytes)
            })
            .map_err(text)?;
        let (solves, redundant) = log.counts();
        Ok(SweepTrace {
            json,
            solves,
            redundant,
        })
    })
}

/// What every cell of one traced sweep unit shares.
struct SweepUnit<'a> {
    rec: &'a Recorder,
    name: &'a str,
    base: &'a PipelineConfig,
    reps: u64,
    scenario: &'a dyn Scenario,
    log: &'a OptLog,
}

impl SweepUnit<'_> {
    /// `run_job`: derive the cell's instance, measure its ratio.
    fn cell(&self, parent: u64, job: &Job) -> SweepCell {
        let (rec, name) = (self.rec, self.name);
        rec.span(Some(parent), "sweep.cell", name, 1, |cell| {
            let instance = rec.span(Some(cell), "workload.derive", name, job.size as u64, |_| {
                self.scenario.instance(self.base.seed, job.size)
            });
            let config = PipelineConfig {
                epsilon: job.epsilon,
                seed: job.seed,
                ..*self.base
            };
            let (report, error) = match self.ratio_report(cell, job, &instance, &config) {
                Ok(r) => (Some(r), None),
                Err(e) => (None, Some(e.to_string())),
            };
            SweepCell {
                scenario: None,
                mechanism: job.spec.mechanism.name().to_string(),
                matcher: job.spec.matcher.name().to_string(),
                num_tasks: instance.num_tasks(),
                num_workers: instance.num_workers(),
                epsilon: job.epsilon,
                report,
                error,
                wall_ms: None,
            }
        })
    }

    /// `empirical_competitive_ratio`: the OPT denominator, then one
    /// shuffled-arrival run per repetition.
    fn ratio_report(
        &self,
        cell: u64,
        job: &Job,
        instance: &Instance,
        config: &PipelineConfig,
    ) -> Result<RatioReport, RatioError> {
        let (rec, name) = (self.rec, self.name);
        let opt = rec.span(
            Some(cell),
            "matching.offline.opt",
            name,
            instance.k() as u64,
            |_| offline_optimum_with_threads(instance, config.threads),
        )?;
        self.log.denominator(instance);
        let mut distances = Vec::with_capacity(self.reps as usize);
        for rep in 0..self.reps {
            let distance = rec.span(Some(cell), "sweep.rep", name, 1, |rep_span| {
                let shuffled = rec.span(
                    Some(rep_span),
                    "workload.shuffle",
                    name,
                    instance.num_tasks() as u64,
                    |_| {
                        let mut shuffled = instance.clone();
                        shuffled.shuffle_tasks(&mut seeded_rng(
                            config.seed.wrapping_add(rep),
                            SHUFFLE_STREAM,
                        ));
                        shuffled
                    },
                );
                self.run_spec(rep_span, &job.spec, &shuffled, config, rep)
            })?;
            distances.push(distance);
        }
        let stats = RatioStats::collect(opt, distances);
        Ok(RatioReport {
            algorithm: job.spec.name().to_string(),
            mechanism: job.spec.mechanism.name().to_string(),
            matcher: job.spec.matcher.name().to_string(),
            epsilon: config.epsilon,
            num_tasks: instance.num_tasks(),
            num_workers: instance.num_workers(),
            repetitions: self.reps,
            opt_distance: stats.opt_distance,
            mean_distance: stats.mean_distance,
            ratio: stats.ratio,
            min_ratio: stats.min_ratio,
            max_ratio: stats.max_ratio,
            distances: stats.distances,
        })
    }

    /// `run_spec`: server, reports, assignment, true-location distance.
    fn run_spec(
        &self,
        parent: u64,
        spec: &AlgorithmSpec,
        instance: &Instance,
        config: &PipelineConfig,
        rep: u64,
    ) -> Result<f64, PipelineError> {
        let (rec, name) = (self.rec, self.name);
        let server = spec.needs_server().then(|| {
            rec.span(
                Some(parent),
                "hst.build",
                name,
                (GRID_SIDE * GRID_SIDE) as u64,
                |_| spec_server(instance, config, rep),
            )
        });
        let (reports, mut mech_rng, mut tie_rng) = spec_reports(
            rec,
            parent,
            name,
            spec,
            instance,
            config,
            server.as_ref(),
            rep,
        )?;
        let mut ctx = AssignCtx {
            instance,
            config,
            server: server.as_ref(),
            mech_rng: &mut mech_rng,
            tie_rng: &mut tie_rng,
        };
        let matcher = spec.matcher.name();
        if matcher == "offline-opt" {
            self.log.solves.fetch_add(1, Ordering::Relaxed);
        }
        let matching = rec.span(
            Some(parent),
            &format!("matching.assign.{matcher}"),
            name,
            instance.num_tasks() as u64,
            |_| spec.matcher.assign(reports, &mut ctx),
        )?;
        Ok(matching.total_distance(&instance.tasks, &instance.workers))
    }
}

/// The server `run_spec` builds for repetition `rep` of a pairing that
/// needs one.
pub fn spec_server(instance: &Instance, config: &PipelineConfig, rep: u64) -> Server {
    Server::new(
        instance.region,
        config.grid_side,
        config.seed ^ rep.wrapping_mul(REP_SERVER_MIX),
    )
}

/// `run_spec`'s stage 1: workers then tasks through one `report_batch`
/// call on the mechanism stream, recorded as a span under `parent`.
/// Returns the reports and the mechanism and tie-break streams as stage 2
/// receives them.
#[allow(clippy::too_many_arguments)] // `run_spec`'s inputs plus the span's parent and unit.
pub fn spec_reports(
    rec: &Recorder,
    parent: u64,
    unit: &str,
    spec: &AlgorithmSpec,
    instance: &Instance,
    config: &PipelineConfig,
    server: Option<&Server>,
    rep: u64,
) -> Result<(ReportSet, StdRng, StdRng), PipelineError> {
    let mut mech_rng = seeded_rng(config.seed.wrapping_add(rep), SPEC_MECH_STREAM);
    let mut locations = Vec::with_capacity(instance.num_workers() + instance.num_tasks());
    locations.extend_from_slice(&instance.workers);
    locations.extend_from_slice(&instance.tasks);
    let mut worker_reports = rec.span(
        Some(parent),
        "privacy.report_batch",
        unit,
        locations.len() as u64,
        |_| {
            spec.mechanism.report_batch(
                Epsilon::new(config.epsilon),
                server,
                &locations,
                &mut mech_rng,
                config.threads,
            )
        },
    )?;
    let task_reports = worker_reports.split_off(instance.num_workers());
    let name = spec.mechanism.name();
    let reports = ReportSet {
        workers: Reports::collect(worker_reports, name)?,
        tasks: Reports::collect(task_reports, name)?,
    };
    let tie_rng = seeded_rng(config.seed.wrapping_add(rep), SPEC_TIE_STREAM);
    Ok((reports, mech_rng, tie_rng))
}

// ---------------------------------------------------------------------------
// Dynamic ratio
// ---------------------------------------------------------------------------

/// The traced ratio call: the clairvoyant denominator, then one replay of
/// the timeline per repetition.
pub fn ratio(
    rec: &Recorder,
    shape: &RatioShape,
    seed: u64,
    tl: &Timeline,
) -> Result<DynamicRatioReport, String> {
    let unit = format!("ratio/{seed}");
    let mechanism = registry()
        .require_mechanism(shape.mechanism)
        .map_err(text)?;
    let matcher = registry()
        .dynamic_matcher_any(shape.matcher)
        .map_err(text)?;
    let config = shape.config(seed);
    rec.span(None, "ratio.unit", &unit, 1, |root| {
        let opt = rec
            .span(
                Some(root),
                "matching.clairvoyant.solve",
                &unit,
                shape.tasks as u64,
                |_| dynamic_offline_optimum_with_threads(&tl.instance, &tl.times, &tl.plan, 1),
            )
            .map_err(text)?;
        let mut distances = Vec::with_capacity(shape.reps as usize);
        for rep in 0..shape.reps {
            let rep_config = DynamicConfig {
                seed: config.seed.wrapping_add(rep),
                ..config
            };
            let distance = rec.span(Some(root), "dynamic.rep", &unit, 1, |rep_span| {
                replay(
                    rec,
                    rep_span,
                    &unit,
                    tl,
                    &rep_config,
                    mechanism.as_ref(),
                    matcher.as_ref(),
                )
            });
            distances.push(distance.map_err(text)?);
        }
        let stats = RatioStats::collect(opt.total_cost, distances);
        Ok(DynamicRatioReport {
            mechanism: mechanism.name().to_string(),
            matcher: matcher.name().to_string(),
            oracle: DEFAULT_DYNAMIC_ORACLE.to_string(),
            epsilon: config.epsilon,
            num_tasks: tl.instance.num_tasks(),
            num_workers: tl.instance.num_workers(),
            repetitions: shape.reps,
            opt_distance: stats.opt_distance,
            mean_distance: stats.mean_distance,
            ratio: stats.ratio,
            min_ratio: stats.min_ratio,
            max_ratio: stats.max_ratio,
            distances: stats.distances,
            opt_assigned: opt.size(),
            opt_dropped: opt.dropped.len(),
        })
    })
}

/// `run_dynamic_spec`: one event at a time on the timeline streams. Returns
/// the total true-location distance of the assigned pairs.
fn replay(
    rec: &Recorder,
    parent: u64,
    unit: &str,
    tl: &Timeline,
    config: &DynamicConfig,
    mechanism: &dyn ReportMechanism,
    matcher: &dyn DynamicAssignStrategy,
) -> Result<f64, PipelineError> {
    let inst = &tl.instance;
    let server = rec.span(
        Some(parent),
        "hst.build",
        unit,
        (GRID_SIDE * GRID_SIDE) as u64,
        |_| Server::new(inst.region, config.grid_side, config.seed ^ SERVER_SALT),
    );
    let mut reporter = mechanism.reporter(Epsilon::new(config.epsilon), Some(&server))?;
    let mut rng = seeded_rng(config.seed, TIMELINE_MECH_STREAM);
    let mut tie_rng = seeded_rng(config.seed, TIMELINE_TIE_STREAM);
    let n_events = (2 * tl.plan.shifts.len() + tl.times.len()) as u64;
    let events = rec.span(Some(parent), "dynamic.timeline", unit, n_events, |_| {
        events(&tl.plan, &tl.times)
    });
    let mut pool = matcher.pool(Some(&server))?;
    let pairs = rec.span(Some(parent), "dynamic.replay", unit, n_events, |span| {
        let start = now_ns();
        let mut fold = Fold::default();
        let mut pairs = Vec::new();
        let mut run = || -> Result<(), PipelineError> {
            for &(_, event) in &events {
                match event {
                    Event::Start(w) => {
                        let report = fold.time("privacy.report", 1, || {
                            reporter.report(&inst.workers[w], &mut rng)
                        });
                        fold.time("dynamic.pool.insert", 1, || pool.insert(w as u64, report))?;
                    }
                    Event::End(w) => {
                        fold.time("dynamic.pool.withdraw", 1, || pool.withdraw(w as u64));
                    }
                    Event::Task(t) => {
                        let report = fold.time("privacy.report", 1, || {
                            reporter.report(&inst.tasks[t], &mut rng)
                        });
                        let slot = fold.time("dynamic.pool.assign", 1, || {
                            pool.assign(report, &mut tie_rng)
                        })?;
                        if let Some(w) = slot {
                            pairs.push((t, w as usize));
                        }
                    }
                }
            }
            Ok(())
        };
        let result = run();
        rec.fold(span, unit, start, fold);
        result.map(|()| pairs)
    })?;
    Ok(pairs
        .iter()
        .map(|&(t, w)| inst.tasks[t].dist(&inst.workers[w]))
        .sum())
}

// ---------------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------------

/// The traced equivalent of `serve_frames`: resolution, derivation, the
/// server, and the engine over a frame script on the calling thread.
pub fn serve(
    rec: &Recorder,
    shape: &ServeShape,
    seed: u64,
    frames: Vec<Bytes>,
) -> Result<ServeReport, String> {
    let unit = format!("serve/{seed}");
    let config = shape.config(seed);
    rec.span(None, "serve.unit", &unit, frames.len() as u64, |root| {
        let r = registry();
        let mechanism = r.require_mechanism(shape.mechanism).map_err(text)?;
        let matcher = r.require_dynamic_matcher(shape.matcher).map_err(text)?;
        let scenario = r.require_scenario(DEFAULT_SCENARIO).map_err(text)?;
        let instance = rec.span(
            Some(root),
            "workload.derive",
            &unit,
            (shape.tasks + shape.workers) as u64,
            |_| scenario.timeline_instance(seed, shape.tasks, shape.workers),
        );
        let server = rec.span(
            Some(root),
            "hst.build",
            &unit,
            (GRID_SIDE * GRID_SIDE) as u64,
            |_| Server::new(instance.region, GRID_SIDE, seed ^ SERVER_SALT),
        );
        let engine = rec.span(
            Some(root),
            "serve.frames",
            &unit,
            frames.len() as u64,
            |span| {
                let start = now_ns();
                let mut fold = Fold::default();
                let engine =
                    Engine::new(mechanism.as_ref(), &server, matcher.as_ref(), shape, seed)
                        .and_then(|mut e| e.run(frames, &mut fold).map(|()| e));
                rec.fold(span, &unit, start, fold);
                engine
            },
        );
        let e = engine.map_err(text)?;
        let assigned = e.assignments.iter().filter(|(_, s)| s.is_some()).count();
        let arrived = e.assignments.len();
        let dropped = arrived - assigned;
        Ok(ServeReport {
            scenario: None,
            mechanism: config.mechanism,
            matcher: config.matcher,
            plan: config.plan,
            num_tasks: config.num_tasks,
            num_workers: config.num_workers,
            epsilon: config.epsilon,
            seed: config.seed,
            batch_interval: config.batch_interval,
            requests: e.requests,
            batches: e.batches,
            assigned,
            dropped,
            assignment_rate: if arrived == 0 {
                1.0
            } else {
                assigned as f64 / arrived as f64
            },
            drop_rate: if arrived == 0 {
                0.0
            } else {
                dropped as f64 / arrived as f64
            },
            total_distance: e.total_distance,
            peak_queue_depth: e.peak_queue,
            mean_queue_depth: if e.batches == 0 {
                0.0
            } else {
                e.queue_sum as f64 / e.batches as f64
            },
            assignment_fingerprint: assignment_fingerprint(&e.assignments),
            latency: None,
            faults: None,
        })
    })
}

/// The serve engine for a clean frame script: ids admitted once, then Δt
/// windows flushed in three phases — check-ins obfuscated and inserted,
/// check-outs withdrawn, tasks obfuscated and drained in arrival order.
struct Engine<'a> {
    mechanism: &'a dyn ReportMechanism,
    server: &'a Server,
    pool: Box<dyn DynamicWorkerPool + 'a>,
    batch_interval: f64,
    mech_rng: StdRng,
    tie_rng: StdRng,
    window: Option<u64>,
    checkins: Vec<(u64, Point)>,
    checkouts: Vec<u64>,
    tasks: Vec<(u64, Point)>,
    seen_workers: BTreeSet<u64>,
    seen_tasks: BTreeSet<u64>,
    locations: BTreeMap<u64, Point>,
    assignments: Vec<(u64, Option<u64>)>,
    requests: usize,
    batches: usize,
    peak_queue: usize,
    queue_sum: usize,
    total_distance: f64,
}

impl<'a> Engine<'a> {
    fn new(
        mechanism: &'a dyn ReportMechanism,
        server: &'a Server,
        matcher: &dyn DynamicAssignStrategy,
        shape: &ServeShape,
        seed: u64,
    ) -> Result<Self, PipelineError> {
        Ok(Engine {
            mechanism,
            server,
            pool: matcher.pool(Some(server))?,
            batch_interval: shape.batch_interval,
            mech_rng: seeded_rng(seed, TIMELINE_MECH_STREAM),
            tie_rng: seeded_rng(seed, TIMELINE_TIE_STREAM),
            window: None,
            checkins: Vec::new(),
            checkouts: Vec::new(),
            tasks: Vec::new(),
            seen_workers: BTreeSet::new(),
            seen_tasks: BTreeSet::new(),
            locations: BTreeMap::new(),
            assignments: Vec::new(),
            requests: 0,
            batches: 0,
            peak_queue: 0,
            queue_sum: 0,
            total_distance: 0.0,
        })
    }

    fn run(&mut self, frames: Vec<Bytes>, fold: &mut Fold) -> Result<(), PipelineError> {
        for mut frame in frames {
            let request = fold.time("serve.decode", 1, || ServeRequest::decode(&mut frame))?;
            let (at, request) = match request {
                ServeRequest::Shutdown => return self.flush(fold),
                ServeRequest::CheckIn { at, .. }
                | ServeRequest::CheckOut { at, .. }
                | ServeRequest::Task { at, .. } => (at, request),
            };
            self.requests += 1;
            let window = (at / self.batch_interval).floor() as u64;
            if self.window != Some(window) {
                self.flush(fold)?;
                self.window = Some(window);
            }
            let fresh = match request {
                ServeRequest::CheckIn { worker, x, y, .. } => {
                    let fresh = self.seen_workers.insert(worker);
                    if fresh {
                        let location = Point::new(x, y);
                        self.locations.insert(worker, location);
                        self.checkins.push((worker, location));
                    }
                    fresh
                }
                ServeRequest::CheckOut { worker, .. } => {
                    self.checkouts.push(worker);
                    true
                }
                ServeRequest::Task { task, x, y, .. } => {
                    let fresh = self.seen_tasks.insert(task);
                    if fresh {
                        self.tasks.push((task, Point::new(x, y)));
                        self.peak_queue = self.peak_queue.max(self.tasks.len());
                    }
                    fresh
                }
                ServeRequest::Shutdown => unreachable!("handled above"),
            };
            if !fresh {
                // The engine absorbs it into a faults ledger this copy does
                // not keep; a clean script never repeats an id.
                return Err(PipelineError::Transport {
                    why: "a clean frame script repeated a worker or task id",
                });
            }
        }
        Err(PipelineError::Transport {
            why: "the frame script ended without a shutdown frame",
        })
    }

    fn report_batch(
        &mut self,
        points: &[Point],
        fold: &mut Fold,
    ) -> Result<Vec<Report>, PipelineError> {
        let (mechanism, server, rng) = (self.mechanism, self.server, &mut self.mech_rng);
        fold.time("privacy.report_batch", points.len() as u64, || {
            mechanism.report_batch(Epsilon::new(EPSILON), Some(server), points, rng, THREADS)
        })
    }

    fn flush(&mut self, fold: &mut Fold) -> Result<(), PipelineError> {
        if self.checkins.is_empty() && self.checkouts.is_empty() && self.tasks.is_empty() {
            return Ok(());
        }
        self.batches += 1;
        if !self.checkins.is_empty() {
            let points: Vec<Point> = self.checkins.iter().map(|&(_, p)| p).collect();
            let reports = self.report_batch(&points, fold)?;
            let batch: Vec<(u64, Report)> = self
                .checkins
                .drain(..)
                .zip(reports)
                .map(|((id, _), report)| (id, report))
                .collect();
            let pool = &mut self.pool;
            fold.time("matching.pool.insert_batch", batch.len() as u64, || {
                pool.insert_batch(batch)
            })?;
        }
        if !self.checkouts.is_empty() {
            let (pool, checkouts) = (&mut self.pool, &mut self.checkouts);
            fold.time("matching.pool.withdraw", checkouts.len() as u64, || {
                for id in checkouts.drain(..) {
                    let _ = pool.withdraw(id);
                }
            });
        }
        let depth = self.tasks.len();
        self.queue_sum += depth;
        if depth > 0 {
            let points: Vec<Point> = self.tasks.iter().map(|&(_, p)| p).collect();
            let reports = self.report_batch(&points, fold)?;
            let (pool, tie_rng) = (&mut self.pool, &mut self.tie_rng);
            let slots = fold.time("matching.pool.assign_batch", depth as u64, || {
                pool.assign_batch(reports, tie_rng)
            })?;
            for ((task, location), slot) in self.tasks.drain(..).zip(slots) {
                self.assignments.push((task, slot));
                if let Some(worker) = slot {
                    self.total_distance += location.dist(&self.locations[&worker]);
                }
            }
        }
        Ok(())
    }
}
