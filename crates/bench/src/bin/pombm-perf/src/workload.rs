//! The benchmark's workloads and the public configurations they drive.
//!
//! A workload bundles the three commands a user runs — `pombm sweep`
//! grids, a `pombm dynamic --ratio` report and an unthrottled `pombm serve`
//! session — on one side of the system: `tree` exercises the HST walk, the
//! tree matchers and the tree pool; `planar` exercises planar Laplace
//! noise, the Hungarian solver on both sides of its dense/in-kernel
//! crossover and the k-d pool under heavy churn. Every input derives from
//! the seed of the unit that uses it.

use bytes::Bytes;
use pombm::{
    DynamicConfig, PipelineConfig, PipelineError, ServeConfig, ServeRequest, SweepConfig,
    DEFAULT_SCENARIO,
};
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::Instance;

/// The seed whose first timed units have pinned output digests.
pub const DEFAULT_SEED: u64 = 1;
/// Sweep shards: with one thread per cell, two shards keep both cores of
/// the reference machine busy and no more.
pub const SHARDS: usize = 2;
/// Threads inside a cell or a serve window (`1` = scalar paths).
pub const THREADS: usize = 1;
/// Predefined-point grid side of every server.
pub const GRID_SIDE: usize = 32;
/// Privacy budget of the ratio and serve commands (the CLI default).
pub const EPSILON: f64 = 0.6;
/// Size of `planar`'s large grid: `LARGE_SIZE²` cells is just above the
/// 2²² at which the Hungarian solver stops materializing the cost matrix
/// and recomputes distances in-kernel. Much larger sizes vary too much in
/// solve time from seed to seed for a run's median to be steady.
pub const LARGE_SIZE: usize = 2112;
/// The salt `pombm dynamic` and `pombm serve` mix into a timeline's
/// server seed.
pub const SERVER_SALT: u64 = 0xD1CE;
/// The measuring time, in seconds, the full-scale cycle count is
/// calibrated to: `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 32;

/// Input sizes: `Full` is what the benchmark measures, `Smoke` is a tiny
/// copy for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny sizes that finish in well under a second.
    Smoke,
}

impl Scale {
    /// Timed cycles of an end-to-end run. A fixed count, so every commit
    /// times the same units on the same seeds; at full scale it takes
    /// about [`RUN_SECONDS`] on the reference machine, on both workloads.
    pub fn cycles(self) -> u64 {
        match self {
            Scale::Full => 16,
            Scale::Smoke => 1,
        }
    }

    /// Cycles of a traced run; per-layer metrics are their median.
    pub fn traced_cycles(self) -> u64 {
        match self {
            Scale::Full => 3,
            Scale::Smoke => 1,
        }
    }
}

/// A `pombm sweep` grid.
#[derive(Debug, Clone)]
pub struct SweepShape {
    /// Mechanism names.
    pub mechanisms: &'static [&'static str],
    /// Matcher names.
    pub matchers: &'static [&'static str],
    /// Instance sizes (tasks = workers = size).
    pub sizes: Vec<usize>,
    /// Privacy budgets.
    pub epsilons: &'static [f64],
    /// Shuffled-arrival repetitions per cell.
    pub reps: u64,
}

/// A `pombm dynamic --ratio` call.
#[derive(Debug, Clone)]
pub struct RatioShape {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Dynamic matcher name.
    pub matcher: &'static str,
    /// Tasks in the timeline.
    pub tasks: usize,
    /// Workers, one shift each.
    pub workers: usize,
    /// Shift-plan kind.
    pub plan: &'static str,
    /// Repetitions averaged over.
    pub reps: u64,
}

/// A `pombm serve --qps 0` session.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Dynamic matcher name.
    pub matcher: &'static str,
    /// Shift-plan kind.
    pub plan: &'static str,
    /// Δt window in virtual seconds.
    pub batch_interval: f64,
    /// Tasks in the timeline.
    pub tasks: usize,
    /// Workers, one shift each.
    pub workers: usize,
}

/// One workload: the three commands and how often each runs per cycle.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The sweep grids, each one `pombm sweep` call per cycle.
    pub sweeps: Vec<SweepShape>,
    /// The ratio call.
    pub ratio: RatioShape,
    /// The serve session.
    pub serve: ServeShape,
    /// Ratio calls per cycle, so each command gets a similar share of a
    /// run's time.
    pub ratio_calls: usize,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["tree", "planar"];

/// Looks up a workload by name at a scale.
pub fn workload(name: &str, scale: Scale) -> Result<Workload, String> {
    let full = scale == Scale::Full;
    let pick = |full_size: usize, smoke_size: usize| if full { full_size } else { smoke_size };
    let serve_tasks = pick(200_000, 400);
    let w = match name {
        "tree" => Workload {
            name: "tree",
            sweeps: vec![SweepShape {
                mechanisms: &["hst", "exp", "laplace"],
                matchers: &["hst-greedy", "hst-rand", "chain"],
                sizes: vec![pick(256, 24)],
                epsilons: &[0.2, 1.0],
                reps: 2,
            }],
            ratio: RatioShape {
                mechanism: "hst",
                matcher: "hst-greedy",
                tasks: pick(1000, 48),
                workers: pick(1000, 48),
                plan: "short",
                reps: 3,
            },
            // Windows of about 800 tasks: at Δt 2 (about 400) the median
            // latency's run-to-run spread was 1.2–3 times as large.
            serve: ServeShape {
                mechanism: "hst",
                matcher: "hst-greedy",
                plan: "long",
                batch_interval: 4.0,
                tasks: serve_tasks,
                workers: serve_tasks / 2,
            },
            ratio_calls: 5,
        },
        "planar" => Workload {
            name: "planar",
            sweeps: vec![
                SweepShape {
                    mechanisms: &["laplace", "hst"],
                    matchers: &["greedy", "offline-opt"],
                    sizes: vec![pick(256, 16), pick(640, 32)],
                    epsilons: &[0.6],
                    reps: 2,
                },
                // Above the Hungarian solver's 2048² dense/in-kernel
                // crossover, so both of its paths are timed. Two cells keep
                // both shards busy; both solve the same OPT instance.
                SweepShape {
                    mechanisms: &["laplace", "hst"],
                    matchers: &["greedy"],
                    sizes: vec![pick(LARGE_SIZE, 48)],
                    epsilons: &[0.6],
                    reps: 1,
                },
            ],
            ratio: RatioShape {
                mechanism: "laplace",
                matcher: "kd-rebuild",
                tasks: pick(1000, 48),
                workers: pick(1000, 48),
                plan: "short",
                reps: 3,
            },
            serve: ServeShape {
                mechanism: "laplace",
                matcher: "kd-rebuild",
                plan: "short",
                batch_interval: 0.5,
                tasks: serve_tasks,
                workers: serve_tasks / 2,
            },
            ratio_calls: 2,
        },
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of: {}",
                NAMES.join(" ")
            ))
        }
    };
    Ok(w)
}

impl SweepShape {
    /// Cells the grid expands to.
    pub fn cells(&self) -> usize {
        self.mechanisms.len() * self.matchers.len() * self.sizes.len() * self.epsilons.len()
    }

    /// The sweep configuration `pombm sweep` builds from these flags.
    pub fn config(&self, seed: u64, timings: bool) -> SweepConfig {
        SweepConfig {
            mechanisms: self.mechanisms.iter().map(|s| s.to_string()).collect(),
            matchers: self.matchers.iter().map(|s| s.to_string()).collect(),
            scenarios: Vec::new(),
            sizes: self.sizes.clone(),
            epsilons: self.epsilons.to_vec(),
            repetitions: self.reps,
            shards: SHARDS,
            timings,
            base: PipelineConfig {
                seed,
                threads: THREADS,
                grid_side: GRID_SIDE,
                ..PipelineConfig::default()
            },
        }
    }

    /// The untimed warm-up grid: every size quartered.
    pub fn quarter(&self) -> SweepShape {
        SweepShape {
            sizes: self.sizes.iter().map(|s| (s / 4).max(2)).collect(),
            ..self.clone()
        }
    }
}

/// A shift/task timeline and the fleet it replays.
pub struct Timeline {
    /// True task and worker locations.
    pub instance: Instance,
    /// Task arrival times.
    pub times: Vec<f64>,
    /// One shift per worker.
    pub plan: ShiftPlan,
}

/// Derives the timeline `pombm dynamic` and `pombm serve` replay.
pub fn timeline(
    seed: u64,
    tasks: usize,
    workers: usize,
    plan: &str,
) -> Result<Timeline, PipelineError> {
    let scenario = pombm::registry().require_scenario(DEFAULT_SCENARIO)?;
    Ok(Timeline {
        instance: scenario.timeline_instance(seed, tasks, workers),
        times: scenario.task_times(seed, tasks),
        plan: scenario.shift_plan(plan, workers, seed)?,
    })
}

impl RatioShape {
    /// The ratio call's timeline.
    pub fn timeline(&self, seed: u64) -> Result<Timeline, PipelineError> {
        timeline(seed, self.tasks, self.workers, self.plan)
    }

    /// The configuration `pombm dynamic --ratio` builds.
    pub fn config(&self, seed: u64) -> DynamicConfig {
        DynamicConfig {
            epsilon: EPSILON,
            grid_side: GRID_SIDE,
            seed,
        }
    }
}

impl ServeShape {
    /// The configuration `pombm serve --load --qps 0 --timings` builds.
    pub fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            scenario: None,
            mechanism: self.mechanism.into(),
            matcher: self.matcher.into(),
            plan: self.plan.into(),
            num_tasks: self.tasks,
            num_workers: self.workers,
            epsilon: EPSILON,
            grid_side: GRID_SIDE,
            seed,
            batch_interval: self.batch_interval,
            qps: 0.0,
            max_requests: None,
            threads: THREADS,
            timings: true,
            fault_plan: None,
            fault_rate: None,
            queue_cap: None,
            shed_policy: None,
        }
    }

    /// Frames the load generator sends: check-ins, check-outs and tasks.
    pub fn requests(&self) -> usize {
        2 * self.workers + self.tasks
    }
}

/// One timeline entry in replay order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A worker's shift starts.
    Start(usize),
    /// A worker's shift ends.
    End(usize),
    /// A task arrives.
    Task(usize),
}

/// The shift/task timeline in the documented replay order: by time, then
/// shift starts before shift ends before tasks, then by id.
pub fn events(plan: &ShiftPlan, times: &[f64]) -> Vec<(f64, Event)> {
    let mut keyed: Vec<(f64, u8, usize, Event)> =
        Vec::with_capacity(2 * plan.shifts.len() + times.len());
    for s in &plan.shifts {
        keyed.push((s.start, 0, s.worker, Event::Start(s.worker)));
        keyed.push((s.end, 1, s.worker, Event::End(s.worker)));
    }
    for (t, &at) in times.iter().enumerate() {
        keyed.push((at, 2, t, Event::Task(t)));
    }
    keyed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite timestamps")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    keyed.into_iter().map(|(at, _, _, e)| (at, e)).collect()
}

/// The serve load generator's frame script, shutdown frame included.
pub fn frame_script(tl: &Timeline) -> Vec<Bytes> {
    let (workers, tasks) = (&tl.instance.workers, &tl.instance.tasks);
    let mut frames: Vec<Bytes> = events(&tl.plan, &tl.times)
        .into_iter()
        .map(|(at, e)| {
            match e {
                Event::Start(w) => ServeRequest::CheckIn {
                    worker: w as u64,
                    at,
                    x: workers[w].x,
                    y: workers[w].y,
                },
                Event::End(w) => ServeRequest::CheckOut {
                    worker: w as u64,
                    at,
                },
                Event::Task(t) => ServeRequest::Task {
                    task: t as u64,
                    at,
                    x: tasks[t].x,
                    y: tasks[t].y,
                },
            }
            .encode()
        })
        .collect();
    frames.push(ServeRequest::Shutdown.encode());
    frames
}
