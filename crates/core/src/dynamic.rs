//! Event-driven simulation: task assignment over a shifting worker fleet.
//!
//! Extends the paper's static model (all workers registered upfront) to a
//! timeline where workers start and end shifts while tasks stream in:
//!
//! * **shift start** — the worker obfuscates its current location with the
//!   run's [`ReportMechanism`] and registers; one ε charge per shift;
//! * **shift end** — an unassigned worker withdraws from the pool;
//!   a worker already assigned keeps its task (departure is a no-op);
//! * **task arrival** — the pool's [`DynamicAssignStrategy`] assigns an
//!   available worker (Alg. 4's tree walk for `hst-greedy`), or *drops* the
//!   task if the pool is momentarily empty — the paper's matching-size
//!   objective shows up here as the drop rate.
//!
//! Events are replayed in time order with a deterministic tie order
//! (arrivals before departures before tasks at equal timestamps, then by
//! id) so runs are reproducible.
//!
//! Unlike the static driver, the dynamic driver does **not** use the
//! batched obfuscation path ([`ReportMechanism::report_batch`]): reports
//! are interleaved with pool mutations on one event-ordered RNG stream,
//! and that schedule is frozen by the golden fingerprints in
//! `tests/dynamic.rs` — batching across events would reorder draws and
//! change every pinned outcome. Dynamic cells therefore stay
//! event-sequential by contract; dynamic *sweeps* parallelize across
//! cells (`--shards`) instead. The micro-batched service mode
//! ([`crate::serve`]) replays the *same* timeline (via the shared
//! builder) under a deliberately different, Δt-windowed RNG schedule —
//! its own golden fingerprints pin that schedule separately. Serve adds
//! one more seedable axis on top of the shared timeline: a
//! [`crate::fault`] plan may rewrite the encoded frame script (corrupt,
//! duplicate or time-compress it) off a dedicated RNG stream before
//! delivery, without ever touching the timeline builder or the workload
//! streams this driver replays — faulted serve runs are pinned by their
//! own goldens while every dynamic fingerprint here stays frozen.
//!
//! Like the static pipeline, the dynamic pipeline is a free
//! `mechanism × matcher` product: [`run_dynamic_spec`] drives any
//! registered (or custom) [`ReportMechanism`] against any registered (or
//! custom) [`DynamicAssignStrategy`] — `hst-greedy`, `kd-rebuild` and
//! `random` ship in the [`registry`](crate::registry::registry).
//!
//! # The clairvoyant benchmark
//!
//! Every online matcher above decides under uncertainty: it commits a
//! worker the moment a task arrives, never knowing what arrives next.
//! The natural yardstick is the same one Definition 8 uses for the
//! static model — the exact offline optimum — transplanted to the
//! timeline: a clairvoyant solver that sees every arrival time and shift
//! window up front and picks the assignment maximizing matched tasks,
//! then minimizing total distance. That solver is registered in the same
//! dynamic-matcher catalog as `dynamic-opt`, but with the
//! [`Role::OracleOnly`](crate::registry::Role) role: it can never be
//! asked to drive this event loop (its `pool()` is a typed
//! `RoleMismatch`), only to price a revealed timeline via
//! [`crate::ratio::dynamic_offline_optimum_with_threads`], which is what
//! [`crate::ratio::dynamic_competitive_ratio`] and the dynamic sweep's
//! `ratio` columns divide by.
//!
//! # Adding a custom dynamic matcher
//!
//! Implement one trait; the strategy builds a fresh pool per run:
//!
//! ```
//! use pombm::algorithm::{
//!     DynamicAssignStrategy, DynamicWorkerPool, PipelineError, Report,
//! };
//! use pombm::Server;
//! use rand::rngs::StdRng;
//!
//! /// Last-in-first-out assignment: always take the newest live worker.
//! struct Lifo;
//! impl DynamicAssignStrategy for Lifo {
//!     fn name(&self) -> &'static str { "lifo" }
//!     fn summary(&self) -> &'static str { "newest live worker wins" }
//!     fn needs_server(&self) -> bool { false }
//!     fn pool<'a>(&self, _server: Option<&'a Server>)
//!         -> Result<Box<dyn DynamicWorkerPool + 'a>, PipelineError>
//!     {
//!         struct P(Vec<u64>);
//!         impl DynamicWorkerPool for P {
//!             fn insert(&mut self, id: u64, _r: Report) -> Result<(), PipelineError> {
//!                 self.0.push(id);
//!                 Ok(())
//!             }
//!             fn withdraw(&mut self, id: u64) -> bool {
//!                 let n = self.0.len();
//!                 self.0.retain(|&w| w != id);
//!                 self.0.len() < n
//!             }
//!             fn assign(&mut self, _r: Report, _rng: &mut StdRng)
//!                 -> Result<Option<u64>, PipelineError> { Ok(self.0.pop()) }
//!             fn available(&self) -> usize { self.0.len() }
//!         }
//!         Ok(Box::new(P(Vec::new())))
//!     }
//! }
//! ```

use crate::algorithm::{DynamicAssignStrategy, PipelineError, ReportMechanism};
use crate::server::{check_epsilon, check_grid_side, check_region, Server};
use pombm_geom::seeded_rng;
use pombm_privacy::Epsilon;
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::Instance;
use serde::{Deserialize, Serialize};

/// Configuration of a dynamic-fleet simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Privacy budget per report.
    pub epsilon: f64,
    /// Predefined-point grid side.
    pub grid_side: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            epsilon: 0.6,
            grid_side: 32,
            seed: 0,
        }
    }
}

/// Outcome of a dynamic simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicOutcome {
    /// Assigned `(task index, worker index)` pairs in assignment order.
    pub pairs: Vec<(usize, usize)>,
    /// Tasks that arrived while no worker was available.
    pub dropped_tasks: usize,
    /// Total true-location travel distance of the assigned pairs.
    pub total_distance: f64,
    /// Largest number of simultaneously available workers observed.
    pub peak_available: usize,
}

impl DynamicOutcome {
    /// Assigned fraction of all arrived tasks.
    pub fn assignment_rate(&self) -> f64 {
        let total = self.pairs.len() + self.dropped_tasks;
        if total == 0 {
            return 1.0;
        }
        self.pairs.len() as f64 / total as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    // Variant order is the tie order at equal timestamps.
    ShiftStart(usize),
    ShiftEnd(usize),
    Task(usize),
}

/// One timeline entry: `(timestamp, tie class, id, event)`. The tie class
/// mirrors the [`EventKind`] variant order so equal-timestamp events sort
/// ShiftStart < ShiftEnd < Task, then by id.
pub(crate) type TimelineEvent = (f64, u8, usize, EventKind);

/// Checks that `task_times` and `plan` describe a timeline over
/// `instance`: one finite arrival time per task, and one shift with
/// finite bounds per worker, each naming a worker of the instance. The
/// typed guard of every entry point that takes a caller-supplied
/// timeline ([`run_dynamic_spec`] and the clairvoyant oracle).
pub(crate) fn check_timeline(
    instance: &Instance,
    task_times: &[f64],
    plan: &ShiftPlan,
) -> Result<(), PipelineError> {
    let invalid = |field, why| Err(PipelineError::InvalidConfig { field, why });
    if task_times.len() != instance.num_tasks() {
        return invalid("task_times", "one arrival time per task");
    }
    if plan.shifts.len() != instance.num_workers() {
        return invalid("plan", "one shift per worker");
    }
    if !task_times.iter().all(|t| t.is_finite()) {
        return invalid("task_times", "arrival times must be finite");
    }
    for s in &plan.shifts {
        if !(s.start.is_finite() && s.end.is_finite()) {
            return invalid("plan", "shift times must be finite");
        }
        if s.worker >= instance.num_workers() {
            return invalid("plan", "every shift must name a worker of the instance");
        }
    }
    Ok(())
}

/// Builds the unified, deterministically ordered shift/task timeline that
/// both the event-sequential driver ([`run_dynamic_spec`]) and the
/// micro-batched serve loop ([`crate::serve`]) replay — a pure function
/// of `(plan, task_times)`, which is what makes a serve run a
/// byte-checkable artifact. Timestamps must be finite, which
/// [`check_timeline`] guarantees for caller-supplied timelines.
pub(crate) fn build_timeline(plan: &ShiftPlan, task_times: &[f64]) -> Vec<TimelineEvent> {
    let mut events: Vec<TimelineEvent> = Vec::new();
    for s in &plan.shifts {
        events.push((s.start, 0, s.worker, EventKind::ShiftStart(s.worker)));
        events.push((s.end, 1, s.worker, EventKind::ShiftEnd(s.worker)));
    }
    for (t, &at) in task_times.iter().enumerate() {
        events.push((at, 2, t, EventKind::Task(t)));
    }
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite timestamps")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    events
}

/// The generic dynamic driver: replays the shift/task timeline of `plan`
/// and `task_times` through any `mechanism × dynamic-matcher` pairing.
///
/// RNG discipline matches the static [`crate::run_spec`] driver: the
/// mechanism draws from one seeded stream (so a pairing's obfuscation noise
/// is independent of the matcher choice) and randomized matchers draw from
/// a dedicated tie-break stream. For the `hst-greedy` matcher this is
/// seed-for-seed identical to the pre-registry hardwired driver.
///
/// A timeline that does not fit the instance (a task-time or shift count
/// that differs from the task or worker count, a non-finite timestamp) is
/// a typed [`PipelineError::InvalidConfig`], and so are a zero or
/// oversized `config.grid_side`, an `epsilon` that is not positive and
/// finite, and a region the grid cannot cover when a server is needed.
/// The server (grid and HST) is built only when the
/// mechanism or the matcher reads it; the build draws from its own seeded
/// stream, so skipping it moves no other draw.
pub fn run_dynamic_spec(
    instance: &Instance,
    task_times: &[f64],
    plan: &ShiftPlan,
    config: &DynamicConfig,
    mechanism: &dyn ReportMechanism,
    matcher: &dyn DynamicAssignStrategy,
) -> Result<DynamicOutcome, PipelineError> {
    check_timeline(instance, task_times, plan)?;
    check_grid_side(config.grid_side)?;
    check_epsilon("epsilon", config.epsilon)?;
    let needs_server = mechanism.needs_server() || matcher.needs_server();
    if needs_server {
        check_region(instance.region, config.grid_side)?;
    }

    let server = needs_server
        .then(|| Server::try_new(instance.region, config.grid_side, config.seed ^ 0xD1CE))
        .transpose()?;
    let epsilon = Epsilon::new(config.epsilon);
    let mut reporter = mechanism.reporter(epsilon, server.as_ref())?;
    let mut rng = seeded_rng(config.seed, 0xD1CE_0001);
    let mut tie_rng = seeded_rng(config.seed, 0xD1CE_0002);

    let events = build_timeline(plan, task_times);

    let mut pool = matcher.pool(server.as_ref())?;
    let mut pairs = Vec::new();
    let mut dropped = 0usize;
    let mut peak = 0usize;

    for &(_, _, _, kind) in &events {
        match kind {
            EventKind::ShiftStart(w) => {
                let report = reporter.report(&instance.workers[w], &mut rng);
                pool.insert(w as u64, report)?;
                peak = peak.max(pool.available());
            }
            EventKind::ShiftEnd(w) => {
                // No-op if the worker was already assigned.
                let _ = pool.withdraw(w as u64);
            }
            EventKind::Task(t) => {
                let report = reporter.report(&instance.tasks[t], &mut rng);
                match pool.assign(report, &mut tie_rng)? {
                    Some(w) => pairs.push((t, w as usize)),
                    None => dropped += 1,
                }
            }
        }
    }

    // From 0.0: `f64`'s `Sum` starts from -0.0, which an empty run keeps.
    let total_distance = pairs
        .iter()
        .map(|&(t, w)| instance.tasks[t].dist(&instance.workers[w]))
        .fold(0.0, |s, d| s + d);
    Ok(DynamicOutcome {
        pairs,
        dropped_tasks: dropped,
        total_distance,
        peak_available: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::ratio::{dynamic_offline_optimum_with_threads, RatioError};
    use crate::registry::registry;
    use pombm_workload::{synthetic, SyntheticParams};

    fn instance(tasks: usize, workers: usize, seed: u64) -> Instance {
        let params = SyntheticParams {
            num_tasks: tasks,
            num_workers: workers,
            ..SyntheticParams::default()
        };
        synthetic::generate(&params, &mut seeded_rng(seed, 0))
    }

    fn uniform_times(n: usize, horizon: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed, 99);
        ArrivalProcess::Uniform {
            window_secs: horizon,
        }
        .timestamps(n, &mut rng)
    }

    /// Replays the timeline through a registered `mechanism × matcher`.
    fn run(
        inst: &Instance,
        times: &[f64],
        plan: &ShiftPlan,
        mechanism: &str,
        matcher: &str,
    ) -> Result<DynamicOutcome, PipelineError> {
        let mechanism = registry().require_mechanism(mechanism)?;
        let matcher = registry().require_dynamic_matcher(matcher)?;
        run_dynamic_spec(
            inst,
            times,
            plan,
            &DynamicConfig::default(),
            mechanism.as_ref(),
            matcher.as_ref(),
        )
    }

    /// The paper's pairing on a shifting fleet: the HST mechanism over the
    /// tree-greedy pool.
    fn tbf(inst: &Instance, times: &[f64], plan: &ShiftPlan) -> DynamicOutcome {
        run(inst, times, plan, "hst", "hst-greedy").unwrap()
    }

    #[test]
    fn an_empty_run_reports_positive_zero_distance() {
        // No worker, so no pair: the total is +0.0, not `Sum`'s -0.0.
        let inst = instance(5, 0, 1);
        let times = uniform_times(5, 10.0, 1);
        let out = tbf(&inst, &times, &ShiftPlan::always_on(0, 11.0));
        assert!(out.pairs.is_empty());
        assert_eq!(out.total_distance.to_bits(), 0);
    }

    #[test]
    fn always_on_fleet_drops_nothing() {
        let inst = instance(60, 120, 1);
        // Shifts end (exclusively) at the horizon and departures process
        // before equal-timestamp tasks, so arrivals must stay strictly
        // inside the window.
        let times = uniform_times(60, 100.0, 1);
        let plan = ShiftPlan::always_on(120, 101.0);
        let out = tbf(&inst, &times, &plan);
        assert_eq!(out.dropped_tasks, 0);
        assert_eq!(out.pairs.len(), 60);
        assert_eq!(out.assignment_rate(), 1.0);
        assert!(out.total_distance > 0.0);
        assert_eq!(out.peak_available, 120, "all workers registered at t=0");
    }

    #[test]
    fn sparse_shifts_drop_tasks() {
        // Short shifts with low coverage: some tasks must find an empty
        // pool.
        let inst = instance(100, 40, 2);
        let times = uniform_times(100, 1000.0, 2);
        let plan = ShiftPlan::uniform(40, 1000.0, 5.0, 15.0, &mut seeded_rng(3, 0));
        let out = tbf(&inst, &times, &plan);
        assert!(
            out.dropped_tasks > 0,
            "expected drops under sparse coverage"
        );
        assert!(out.assignment_rate() < 1.0);
        assert_eq!(out.pairs.len() + out.dropped_tasks, 100);
    }

    #[test]
    fn no_worker_serves_twice_and_only_on_shift_workers_serve() {
        let inst = instance(80, 60, 3);
        let times = uniform_times(80, 200.0, 3);
        let plan = ShiftPlan::uniform(60, 200.0, 50.0, 100.0, &mut seeded_rng(4, 0));
        let out = tbf(&inst, &times, &plan);
        let mut seen = std::collections::HashSet::new();
        for &(_, w) in &out.pairs {
            assert!(seen.insert(w), "worker {w} assigned twice");
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let inst = instance(50, 50, 5);
        let times = uniform_times(50, 100.0, 5);
        let plan = ShiftPlan::uniform(50, 100.0, 20.0, 60.0, &mut seeded_rng(6, 0));
        let a = tbf(&inst, &times, &plan);
        let b = tbf(&inst, &times, &plan);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.total_distance, b.total_distance);
    }

    #[test]
    fn higher_coverage_assigns_more() {
        let inst = instance(120, 50, 7);
        let times = uniform_times(120, 500.0, 7);
        let short = ShiftPlan::uniform(50, 500.0, 10.0, 20.0, &mut seeded_rng(8, 0));
        let long = ShiftPlan::uniform(50, 500.0, 200.0, 400.0, &mut seeded_rng(8, 0));
        let a = tbf(&inst, &times, &short);
        let b = tbf(&inst, &times, &long);
        assert!(
            b.pairs.len() > a.pairs.len(),
            "longer shifts ({}) should assign more than shorter ({})",
            b.pairs.len(),
            a.pairs.len()
        );
    }

    #[test]
    fn laplace_mechanism_drives_the_same_fleet() {
        // The dynamic pool accepts any location-reporting mechanism:
        // planar Laplace reports are snapped onto the tree (Lap-HG style).
        let inst = instance(60, 120, 4);
        let times = uniform_times(60, 100.0, 4);
        let plan = ShiftPlan::always_on(120, 101.0);
        let out = run(&inst, &times, &plan, "laplace", "hst-greedy").unwrap();
        assert_eq!(out.dropped_tasks, 0);
        assert_eq!(out.pairs.len(), 60);
        let hst = tbf(&inst, &times, &plan);
        assert_ne!(
            out.pairs, hst.pairs,
            "different mechanisms, different noise"
        );
    }

    #[test]
    fn blind_mechanism_is_rejected() {
        let inst = instance(5, 5, 6);
        let times = uniform_times(5, 10.0, 6);
        let plan = ShiftPlan::always_on(5, 11.0);
        let err = run(&inst, &times, &plan, "blind", "hst-greedy").unwrap_err();
        assert!(err.to_string().contains("location"), "{err}");
    }

    #[test]
    fn mismatched_times_rejected() {
        let inst = instance(10, 10, 9);
        let times = uniform_times(10, 9.0, 9);
        let plan = ShiftPlan::always_on(10, 10.0);
        let mut nan_shift = plan.clone();
        nan_shift.shifts[3].end = f64::NAN;
        let mut stray_worker = plan.clone();
        stray_worker.shifts[0].worker = 10;
        let mut nan_time = times.clone();
        nan_time[4] = f64::NAN;
        let short_plan = ShiftPlan::always_on(9, 10.0);
        let (finite, stray) = (
            "arrival times must be finite",
            "every shift must name a worker of the instance",
        );
        for (times, plan, field, why) in [
            (&[1.0][..], &plan, "task_times", "one arrival time per task"),
            (&times[..], &short_plan, "plan", "one shift per worker"),
            (&nan_time[..], &plan, "task_times", finite),
            (&times[..], &nan_shift, "plan", "shift times must be finite"),
            (&times[..], &stray_worker, "plan", stray),
        ] {
            let want = PipelineError::InvalidConfig { field, why };
            assert_eq!(
                run(&inst, times, plan, "hst", "hst-greedy").unwrap_err(),
                want
            );
            assert_eq!(
                dynamic_offline_optimum_with_threads(&inst, times, plan, 1).unwrap_err(),
                RatioError::Pipeline(want)
            );
        }
    }

    #[test]
    fn zero_grid_side_is_a_typed_error_for_every_pairing() {
        let inst = instance(10, 10, 9);
        let times = uniform_times(10, 9.0, 9);
        let plan = ShiftPlan::always_on(10, 10.0);
        let config = DynamicConfig {
            grid_side: 0,
            ..DynamicConfig::default()
        };
        // `laplace × kd-rebuild` builds no server, yet the field is still
        // checked.
        for (mechanism, matcher) in [("hst", "hst-greedy"), ("laplace", "kd-rebuild")] {
            let mechanism = registry().require_mechanism(mechanism).unwrap();
            let matcher = registry().require_dynamic_matcher(matcher).unwrap();
            let err = run_dynamic_spec(
                &inst,
                &times,
                &plan,
                &config,
                mechanism.as_ref(),
                matcher.as_ref(),
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    PipelineError::InvalidConfig {
                        field: "grid_side",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn non_positive_or_non_finite_epsilon_is_a_typed_error() {
        let inst = instance(10, 10, 9);
        let times = uniform_times(10, 9.0, 9);
        let plan = ShiftPlan::always_on(10, 10.0);
        let mechanism = registry().require_mechanism("hst").unwrap();
        let matcher = registry().require_dynamic_matcher("hst-greedy").unwrap();
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = DynamicConfig {
                epsilon,
                ..DynamicConfig::default()
            };
            let err = run_dynamic_spec(
                &inst,
                &times,
                &plan,
                &config,
                mechanism.as_ref(),
                matcher.as_ref(),
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    PipelineError::InvalidConfig {
                        field: "epsilon",
                        ..
                    }
                ),
                "epsilon {epsilon}: {err}"
            );
        }
    }

    #[test]
    fn server_is_built_only_when_the_pairing_reads_it() {
        use crate::algorithm::DynamicWorkerPool;
        use std::sync::atomic::{AtomicBool, Ordering};

        /// `kd-rebuild` behind a declared server need, recording whether
        /// `run_dynamic_spec` handed it a server.
        struct Probe {
            needs: bool,
            got_server: AtomicBool,
        }
        impl DynamicAssignStrategy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn summary(&self) -> &'static str {
                "kd-rebuild that records whether it got a server"
            }
            fn needs_server(&self) -> bool {
                self.needs
            }
            fn pool<'a>(
                &self,
                server: Option<&'a Server>,
            ) -> Result<Box<dyn DynamicWorkerPool + 'a>, PipelineError> {
                self.got_server.store(server.is_some(), Ordering::Relaxed);
                registry()
                    .require_dynamic_matcher("kd-rebuild")?
                    .pool(server)
            }
        }

        let inst = instance(30, 40, 6);
        let times = uniform_times(30, 50.0, 6);
        let plan = ShiftPlan::always_on(40, 51.0);
        let laplace = registry().require_mechanism("laplace").unwrap();
        let mut outcomes = Vec::new();
        for needs in [false, true] {
            let probe = Probe {
                needs,
                got_server: AtomicBool::new(!needs),
            };
            let out = run_dynamic_spec(
                &inst,
                &times,
                &plan,
                &DynamicConfig::default(),
                laplace.as_ref(),
                &probe,
            )
            .unwrap();
            assert_eq!(probe.got_server.load(Ordering::Relaxed), needs);
            outcomes.push(out);
        }
        // The build draws only from its own stream: skipping it moves
        // nothing.
        assert_eq!(outcomes[0].pairs, outcomes[1].pairs);
        assert_eq!(
            outcomes[0].total_distance.to_bits(),
            outcomes[1].total_distance.to_bits()
        );
    }

    #[test]
    fn every_registered_dynamic_matcher_drives_the_fleet() {
        let inst = instance(60, 120, 4);
        let times = uniform_times(60, 100.0, 4);
        let plan = ShiftPlan::always_on(120, 101.0);
        for matcher in registry().dynamic_matchers() {
            let out = run(&inst, &times, &plan, "identity", matcher.name())
                .unwrap_or_else(|e| panic!("{}: {e}", matcher.name()));
            assert_eq!(out.dropped_tasks, 0, "{}", matcher.name());
            assert_eq!(out.pairs.len(), 60, "{}", matcher.name());
            assert_eq!(out.peak_available, 120, "{}", matcher.name());
            let mut seen = std::collections::HashSet::new();
            for &(_, w) in &out.pairs {
                assert!(
                    seen.insert(w),
                    "{}: worker {w} assigned twice",
                    matcher.name()
                );
            }
        }
    }

    #[test]
    fn kd_rebuild_beats_the_random_floor_on_distance() {
        let inst = instance(80, 160, 21);
        let times = uniform_times(80, 100.0, 21);
        let plan = ShiftPlan::always_on(160, 101.0);
        let dist = |name: &str| {
            run(&inst, &times, &plan, "identity", name)
                .unwrap()
                .total_distance
        };
        let kd = dist("kd-rebuild");
        let random = dist("random");
        assert!(
            kd < random / 2.0,
            "nearest-worker matching (kd {kd}) should beat the blind floor ({random}) widely"
        );
    }

    #[test]
    fn blind_mechanism_pairs_only_with_the_random_dynamic_matcher() {
        let inst = instance(30, 30, 6);
        let times = uniform_times(30, 50.0, 6);
        let plan = ShiftPlan::always_on(30, 51.0);
        let out = run(&inst, &times, &plan, "blind", "random").unwrap();
        assert_eq!(out.pairs.len(), 30, "blind x random is measurable");
        for name in ["hst-greedy", "kd-rebuild"] {
            let err = run(&inst, &times, &plan, "blind", name).unwrap_err();
            assert!(err.to_string().contains("location"), "{name}: {err}");
        }
    }

    #[test]
    fn random_dynamic_matcher_does_not_perturb_the_mechanism_stream() {
        // The random pool draws from the dedicated tie stream, so the
        // mechanism's obfuscation noise must be byte-identical to what the
        // deterministic matchers observed under the same seed.
        let inst = instance(40, 80, 17);
        let times = uniform_times(40, 100.0, 17);
        let plan = ShiftPlan::always_on(80, 101.0);
        let a = run(&inst, &times, &plan, "laplace", "random").unwrap();
        let b = run(&inst, &times, &plan, "laplace", "random").unwrap();
        assert_eq!(a.pairs, b.pairs, "randomized matcher must be seeded");
    }
}
