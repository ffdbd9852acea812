//! The composable algorithm API: privacy **mechanisms** × online
//! **matchers**.
//!
//! The paper's framework is explicitly two-stage: a *mechanism* turns true
//! worker/task locations into obfuscated reports (planar points for the
//! Laplace baselines, HST leaf codes for the tree-based mechanisms), and a
//! *matcher* consumes those reports to build an online assignment. This
//! module encodes each stage as an object-safe trait so any mechanism can
//! be paired with any matcher — the paper's compared algorithms and this
//! repository's ablations are ordinary named entries in the
//! [`registry`](crate::registry::registry), and new pairings
//! (e.g. exponential mechanism + chain matcher) need no changes to the
//! pipeline driver.
//!
//! The registered mechanisms are the variants of one enum, [`Mechanism`].
//! Each online rule has one index, a [`DynamicWorkerPool`], and one type,
//! [`PoolStrategy`], with a constant per registered name. The paper's
//! static model is the dynamic one in which every worker checks in before
//! the first task, so a static matcher fills its rule's pool with the
//! whole fleet and then drains it, and a dynamic one hands the same pool
//! to the event loop.
//!
//! Report kinds are bridged automatically when a [`Server`] is available:
//! planar reports snap to tree leaves (this is exactly how the paper's
//! Lap-HG baseline is defined) and leaf reports project to their
//! representative predefined points, so even "impossible" pairings like
//! tree mechanism × Euclidean matcher are well-defined.
//!
//! # Adding a custom mechanism or matcher
//!
//! Implement one trait and compose a spec — no core code changes:
//!
//! ```
//! use pombm::algorithm::{
//!     AssignCtx, AssignStrategy, PipelineError, ReportSet,
//! };
//! use pombm::registry::{registry, AlgorithmSpec};
//! use pombm_matching::Matching;
//! use std::sync::Arc;
//!
//! /// Assigns every task to the lowest-indexed still-free worker.
//! struct FirstFree;
//!
//! impl AssignStrategy for FirstFree {
//!     fn name(&self) -> &'static str { "first-free" }
//!     fn summary(&self) -> &'static str { "lowest-index free worker" }
//!     fn needs_server(&self) -> bool { false }
//!     fn assign(&self, reports: ReportSet, _ctx: &mut AssignCtx<'_>)
//!         -> Result<Matching, PipelineError>
//!     {
//!         let mut matching = Matching::new();
//!         for t in 0..reports.tasks.len().min(reports.workers.len()) {
//!             matching.pairs.push((t, t));
//!         }
//!         Ok(matching)
//!     }
//! }
//!
//! let mech = registry().require_mechanism("laplace").unwrap();
//! let spec = AlgorithmSpec::compose(mech, Arc::new(FirstFree));
//! let instance = pombm_workload::synthetic::generate(
//!     &pombm_workload::SyntheticParams { num_tasks: 5, num_workers: 9,
//!         ..Default::default() },
//!     &mut pombm_geom::seeded_rng(1, 0));
//! let result = pombm::run_spec(&spec, &instance, &Default::default(), 0).unwrap();
//! assert_eq!(result.matching.size(), 5);
//! ```

use crate::pipeline::PipelineConfig;
use crate::server::Server;
use pombm_geom::Point;
use pombm_hst::LeafCode;
use pombm_matching::offline::OfflineOptimal;
use pombm_matching::{DynamicKdRebuild, DynamicRandomPool, HstGreedyPool, Matching};
use pombm_privacy::{Epsilon, ExponentialMechanism, HstMechanism, PlanarLaplace};
use pombm_workload::Instance;
use rand::rngs::StdRng;

/// Errors surfaced by the composable pipeline API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A component required the server's published artifacts (HST + grid)
    /// but none were supplied.
    MissingServer(&'static str),
    /// A matcher received reports it cannot interpret (e.g. location-blind
    /// reports fed to a location-aware matcher).
    IncompatibleReports {
        /// The component that rejected the reports.
        component: &'static str,
        /// What it needed.
        needed: &'static str,
    },
    /// A mechanism produced a mix of report kinds within one batch.
    MixedReports(&'static str),
    /// A configuration value is invalid for the selected component.
    InvalidConfig {
        /// The offending configuration field.
        field: &'static str,
        /// Why the value is rejected.
        why: &'static str,
    },
    /// A registry catalog lookup failed: no entry under that name on the
    /// named axis.
    UnknownEntry {
        /// The catalog axis looked up (`algorithm`, `mechanism`, ...).
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
        /// The valid names (sorted), for the error message.
        known: Vec<String>,
    },
    /// A registry catalog entry exists but cannot fill the requesting
    /// position: a ratio oracle ([`DynamicAssignStrategy::is_oracle`],
    /// `dynamic-opt`) asked to drive a fleet like an online matcher.
    RoleMismatch {
        /// The catalog axis involved.
        kind: &'static str,
        /// The (canonical) entry name.
        name: String,
        /// The role the entry is registered with.
        role: &'static str,
        /// The role the requesting position needs.
        wanted: &'static str,
    },
    /// A serve-transport frame could not be decoded
    /// ([`crate::serve::ServeRequest::decode`]).
    Transport {
        /// What was wrong with the frame.
        why: &'static str,
    },
    /// The sweep checkpoint store could not be opened or written.
    Checkpoint {
        /// The checkpoint file involved.
        path: String,
        /// The underlying I/O or encoding failure.
        why: String,
    },
    /// A checkpointed sweep stopped early because it reached its
    /// `--max-cells` cap; the completed cells survive in the checkpoint
    /// and a re-run with the same `--checkpoint` directory resumes.
    CellCap {
        /// Cells freshly computed (and persisted) before stopping.
        computed: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::MissingServer(who) => {
                write!(f, "`{who}` needs a server (published HST), none supplied")
            }
            PipelineError::IncompatibleReports { component, needed } => {
                write!(
                    f,
                    "`{component}` cannot consume these reports: needs {needed}"
                )
            }
            PipelineError::MixedReports(who) => {
                write!(f, "mechanism `{who}` produced mixed report kinds")
            }
            PipelineError::InvalidConfig { field, why } => {
                write!(f, "invalid config `{field}`: {why}")
            }
            PipelineError::UnknownEntry { kind, name, known } => {
                write!(
                    f,
                    "unknown {kind} `{name}`; expected one of: {}",
                    known.join(" ")
                )
            }
            PipelineError::RoleMismatch {
                kind,
                name,
                role,
                wanted,
            } => {
                write!(
                    f,
                    "{kind} `{name}` is registered as `{role}`; this position requires `{wanted}`"
                )
            }
            PipelineError::Transport { why } => {
                write!(f, "serve transport: {why}")
            }
            PipelineError::Checkpoint { path, why } => {
                write!(f, "checkpoint `{path}`: {why}")
            }
            PipelineError::CellCap { computed } => {
                write!(
                    f,
                    "stopped after {computed} freshly computed cells (--max-cells cap); \
                     re-run with the same --checkpoint directory to resume"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl PipelineError {
    /// The [`PipelineError::RoleMismatch`] of the ratio oracle `name` in
    /// a position only an online dynamic matcher may fill.
    pub(crate) fn oracle_only(name: &str) -> Self {
        PipelineError::RoleMismatch {
            kind: "dynamic matcher",
            name: name.to_string(),
            role: "oracle-only",
            wanted: "pairing",
        }
    }
}

/// One obfuscated location report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Report {
    /// A noisy point in the plane (planar Laplace, identity).
    Planar(Point),
    /// A leaf of the published HST (tree walk, exponential, snapping).
    Leaf(LeafCode),
    /// Nothing location-dependent is reported (the blind floor).
    Blind,
}

/// A homogeneous batch of reports for one side (workers or tasks).
#[derive(Debug, Clone, PartialEq)]
pub enum Reports {
    /// Planar reports.
    Planar(Vec<Point>),
    /// Tree-leaf reports.
    Leaves(Vec<LeafCode>),
    /// `n` participants reported nothing location-dependent.
    Blind(usize),
}

impl Reports {
    /// Number of participants behind this batch.
    pub fn len(&self) -> usize {
        match self {
            Reports::Planar(v) => v.len(),
            Reports::Leaves(v) => v.len(),
            Reports::Blind(n) => *n,
        }
    }

    /// True when no participants reported.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collects per-point reports into a homogeneous batch.
    pub fn collect(reports: Vec<Report>, mechanism: &'static str) -> Result<Self, PipelineError> {
        match reports.first() {
            None => Ok(Reports::Blind(0)),
            Some(Report::Planar(_)) => {
                let mut points = Vec::with_capacity(reports.len());
                for r in &reports {
                    match r {
                        Report::Planar(p) => points.push(*p),
                        _ => return Err(PipelineError::MixedReports(mechanism)),
                    }
                }
                Ok(Reports::Planar(points))
            }
            Some(Report::Leaf(_)) => {
                let mut leaves = Vec::with_capacity(reports.len());
                for r in &reports {
                    match r {
                        Report::Leaf(l) => leaves.push(*l),
                        _ => return Err(PipelineError::MixedReports(mechanism)),
                    }
                }
                Ok(Reports::Leaves(leaves))
            }
            Some(Report::Blind) => {
                if reports.iter().all(|r| matches!(r, Report::Blind)) {
                    Ok(Reports::Blind(reports.len()))
                } else {
                    Err(PipelineError::MixedReports(mechanism))
                }
            }
        }
    }

    /// Converts the batch into tree leaves, snapping planar reports onto
    /// the published tree (exactly the Lap-HG construction of the paper).
    /// Consumes the batch so the leaf case is a move, not a clone. An
    /// empty batch converts to an empty vector regardless of kind — a
    /// zero-participant side carries no location information to reject.
    pub fn into_leaves(
        self,
        server: Option<&Server>,
        component: &'static str,
    ) -> Result<Vec<LeafCode>, PipelineError> {
        match self {
            Reports::Leaves(v) => Ok(v),
            Reports::Planar(v) => {
                let server = server.ok_or(PipelineError::MissingServer(component))?;
                Ok(v.iter().map(|p| server.snap(p)).collect())
            }
            Reports::Blind(0) => Ok(Vec::new()),
            Reports::Blind(_) => Err(PipelineError::IncompatibleReports {
                component,
                needed: "location reports (got location-blind reports)",
            }),
        }
    }

    /// Converts the batch into planar points, projecting tree leaves to
    /// their representative predefined points (see [`Reports::into_leaves`]
    /// for the move/empty-batch semantics).
    pub fn into_points(
        self,
        server: Option<&Server>,
        component: &'static str,
    ) -> Result<Vec<Point>, PipelineError> {
        match self {
            Reports::Planar(v) => Ok(v),
            Reports::Leaves(v) => {
                let server = server.ok_or(PipelineError::MissingServer(component))?;
                Ok(v.iter()
                    .map(|&l| server.hst().representative_point(l))
                    .collect())
            }
            Reports::Blind(0) => Ok(Vec::new()),
            Reports::Blind(_) => Err(PipelineError::IncompatibleReports {
                component,
                needed: "location reports (got location-blind reports)",
            }),
        }
    }
}

impl Report {
    /// Views one report as a planar point (see [`Reports::into_points`]).
    pub fn into_point(
        self,
        server: Option<&Server>,
        component: &'static str,
    ) -> Result<Point, PipelineError> {
        match self {
            Report::Planar(p) => Ok(p),
            Report::Leaf(l) => {
                let server = server.ok_or(PipelineError::MissingServer(component))?;
                Ok(server.hst().representative_point(l))
            }
            Report::Blind => Err(PipelineError::IncompatibleReports {
                component,
                needed: "a location report (got a location-blind report)",
            }),
        }
    }

    /// Views one report as a tree leaf (see [`Reports::into_leaves`]).
    pub fn into_leaf(
        self,
        server: Option<&Server>,
        component: &'static str,
    ) -> Result<LeafCode, PipelineError> {
        match self {
            Report::Leaf(l) => Ok(l),
            Report::Planar(p) => {
                let server = server.ok_or(PipelineError::MissingServer(component))?;
                Ok(server.snap(&p))
            }
            Report::Blind => Err(PipelineError::IncompatibleReports {
                component,
                needed: "a location report (got a location-blind report)",
            }),
        }
    }
}

/// The obfuscated view the server matches on: worker reports (step 2 of
/// the paper's workflow) and task reports (step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSet {
    /// Registered worker reports.
    pub workers: Reports,
    /// Arriving task reports, in arrival order.
    pub tasks: Reports,
}

/// A per-run obfuscator produced by [`ReportMechanism::reporter`]; holds
/// whatever per-run state the mechanism needs (weight tables, alias-table
/// caches).
pub trait PointReporter {
    /// Obfuscates one true location into a report.
    fn report(&mut self, location: &Point, rng: &mut StdRng) -> Report;

    /// Obfuscates a whole batch, continuing `rng` exactly as the scalar
    /// loop `locations.iter().map(|p| self.report(p, rng))` would.
    ///
    /// **Contract:** output and final `rng` state are bit-identical to
    /// that scalar loop for every `threads` value (`0` = auto-size from
    /// the batch, `1` = scalar) — `threads` trades wall-clock for cores,
    /// never results. The generic driver ([`crate::run_spec`]) dispatches
    /// every mechanism through this entry point, which is why golden
    /// fingerprints recorded against the scalar driver stay valid.
    ///
    /// The default implementation is the scalar loop itself (correct for
    /// any reporter, including custom ones with cross-report state). Only
    /// [`Mechanism::Laplace`]'s reporter leaves it, dispatching into
    /// [`pombm_privacy::batch`], whose snapshot pass gives each item its own
    /// RNG stream so the expensive sampling parallelizes without perturbing
    /// the shared stream. The HST walk keeps the scalar loop: replaying its
    /// coin flips is most of the walk, so a snapshot pass made two threads
    /// slower than one.
    fn report_batch(
        &mut self,
        locations: &[Point],
        rng: &mut StdRng,
        threads: usize,
    ) -> Vec<Report> {
        // The scalar loop is what every thread count must reproduce, so
        // the default implementation is thread-count independent.
        let _ = threads;
        locations.iter().map(|p| self.report(p, rng)).collect()
    }
}

/// Stage 1 of the framework: turns true locations into obfuscated reports.
///
/// Implementations are stateless descriptors (safe to keep in a global
/// registry); per-run state lives in the [`PointReporter`] they build.
pub trait ReportMechanism: Send + Sync {
    /// Registry name (kebab-case).
    fn name(&self) -> &'static str;

    /// One-line description for `pombm list algorithms`.
    fn summary(&self) -> &'static str;

    /// True when the mechanism needs the server's published artifacts.
    fn needs_server(&self) -> bool;

    /// Builds the per-run obfuscator.
    fn reporter<'a>(
        &self,
        epsilon: Epsilon,
        server: Option<&'a Server>,
    ) -> Result<Box<dyn PointReporter + 'a>, PipelineError>;

    /// Obfuscates one batch through a fresh reporter's
    /// [`PointReporter::report_batch`], under its contract. A caller with
    /// many batches builds one reporter and keeps it.
    fn report_batch(
        &self,
        epsilon: Epsilon,
        server: Option<&Server>,
        locations: &[Point],
        rng: &mut StdRng,
        threads: usize,
    ) -> Result<Vec<Report>, PipelineError> {
        Ok(self
            .reporter(epsilon, server)?
            .report_batch(locations, rng, threads))
    }
}

/// Mutable context handed to [`AssignStrategy::assign`].
pub struct AssignCtx<'a> {
    /// The problem instance (true locations; used only for sizing —
    /// matchers never see true coordinates).
    pub instance: &'a Instance,
    /// The pipeline configuration (capacity, threads, ...).
    pub config: &'a PipelineConfig,
    /// The server's published artifacts, when available.
    pub server: Option<&'a Server>,
    /// Continuation of the mechanism's RNG stream; location-blind matchers
    /// draw from it (matching the historical `Random` floor exactly).
    pub mech_rng: &'a mut StdRng,
    /// Dedicated tie-breaking stream for randomized matchers.
    pub tie_rng: &'a mut StdRng,
}

/// Stage 2 of the framework: consumes reports, produces a [`Matching`].
pub trait AssignStrategy: Send + Sync {
    /// Registry name (kebab-case).
    fn name(&self) -> &'static str;

    /// One-line description for `pombm list algorithms`.
    fn summary(&self) -> &'static str;

    /// True when the matcher needs the server's published artifacts.
    fn needs_server(&self) -> bool;

    /// True when one worker may serve several tasks (capacitated
    /// matchers); relaxes the driver's worker-uniqueness validation.
    fn reuses_workers(&self) -> bool {
        false
    }

    /// Runs the online assignment over the reports (consumed: matchers
    /// take ownership so leaf/point batches register without copying).
    fn assign(
        &self,
        reports: ReportSet,
        ctx: &mut AssignCtx<'_>,
    ) -> Result<Matching, PipelineError>;
}

/// A live worker pool driven by the dynamic event loop
/// ([`crate::dynamic::run_dynamic_spec`]): stage 2 of the framework for
/// *shifting* fleets, produced per run by a [`DynamicAssignStrategy`].
///
/// The driver feeds it one event at a time — insert on shift start,
/// withdraw on shift end, assign on task arrival — in deterministic
/// timeline order. Reports arrive in whatever kind the mechanism emits;
/// pools convert via [`Report::into_leaf`] / [`Report::into_point`] and
/// surface incompatibilities (e.g. blind reports into a location-aware
/// pool) as typed errors.
pub trait DynamicWorkerPool {
    /// Registers a worker with its obfuscated report (shift start).
    ///
    /// `id`s are unique among live workers; a departed or assigned id may
    /// be reused.
    fn insert(&mut self, id: u64, report: Report) -> Result<(), PipelineError>;

    /// Registers a batch of workers at once — a whole micro-batch window
    /// of shift starts ([`crate::serve`]). Must be observation-equivalent
    /// to calling [`Self::insert`] for each pair in order (assignments,
    /// availability, tie-stream draws), which is exactly what the default
    /// does; pools override it to amortize index maintenance. On error
    /// nothing may have been inserted (validate-then-mutate), so a failed
    /// batch leaves the pool resumable.
    fn insert_batch(&mut self, batch: Vec<(u64, Report)>) -> Result<(), PipelineError> {
        for (id, report) in batch {
            self.insert(id, report)?;
        }
        Ok(())
    }

    /// Removes an unassigned worker (shift end). Returns `false` when the
    /// worker is not present (already assigned or never inserted) — a
    /// no-op, matching the departure semantics of the simulation.
    fn withdraw(&mut self, id: u64) -> bool;

    /// Assigns a worker to the arriving task's report and removes it from
    /// the pool; `Ok(None)` when the pool is momentarily empty (the task is
    /// dropped). `tie_rng` is a dedicated stream for randomized pools —
    /// deterministic pools must not touch it.
    fn assign(
        &mut self,
        report: Report,
        tie_rng: &mut StdRng,
    ) -> Result<Option<u64>, PipelineError>;

    /// Drains a micro-batch window of task arrivals: assigns each report
    /// in order, returning one slot per task. Semantically this *is* the
    /// sequential loop — online assignment is order-sensitive, so the
    /// default is also the contract: `assign_batch(reports)` must equal
    /// mapping [`Self::assign`] over `reports`, including every tie-stream
    /// draw. The batched entry point exists so the serve loop drains one
    /// window in one virtual call and pools can keep their index warm
    /// across the run of assignments.
    fn assign_batch(
        &mut self,
        reports: Vec<Report>,
        tie_rng: &mut StdRng,
    ) -> Result<Vec<Option<u64>>, PipelineError> {
        reports
            .into_iter()
            .map(|report| self.assign(report, tie_rng))
            .collect()
    }

    /// Number of present, unassigned workers.
    fn available(&self) -> usize;
}

/// Stage 2 of the framework for dynamic fleets: a named, stateless
/// descriptor that builds one [`DynamicWorkerPool`] per simulation run.
///
/// The dynamic mirror of [`AssignStrategy`]: object-safe, registered by
/// name in [`crate::registry::registry`], and freely composable with any
/// [`ReportMechanism`] through [`crate::dynamic::run_dynamic_spec`]. See
/// the [`crate::dynamic`] module docs for a complete worked example of
/// adding a custom dynamic matcher.
pub trait DynamicAssignStrategy: Send + Sync {
    /// Registry name (kebab-case).
    fn name(&self) -> &'static str;

    /// One-line description for `pombm list algorithms`.
    fn summary(&self) -> &'static str;

    /// True when the matcher needs the server's published artifacts.
    fn needs_server(&self) -> bool;

    /// True for a ratio oracle: a measurement denominator that sees the
    /// whole timeline at once, so it builds no pool. Only the ratio
    /// surfaces admit it; every other position refuses it with a typed
    /// [`PipelineError::RoleMismatch`].
    fn is_oracle(&self) -> bool {
        false
    }

    /// Builds an empty pool for one run.
    fn pool<'a>(
        &self,
        server: Option<&'a Server>,
    ) -> Result<Box<dyn DynamicWorkerPool + 'a>, PipelineError>;
}

// ---------------------------------------------------------------------------
// Mechanism implementations
// ---------------------------------------------------------------------------

/// The registered privacy mechanisms: one variant per `--mechanism` name.
///
/// The paper compares planar Laplace with its HST walk (Alg. 3); the
/// exponential, identity and blind variants are this repository's
/// ablations. Each builds its per-run state in a private
/// [`PointReporter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// `laplace`: planar Laplace (Andrés et al., CCS'13), noisy points in
    /// the plane.
    Laplace,
    /// `hst`: the paper's mechanism (Alg. 3), which snaps to the tree and
    /// random-walks the leaf.
    HstWalk,
    /// `exp`: the exponential mechanism over the predefined points, the
    /// ablation separating "discretize to the grid" from "use the tree".
    Exponential,
    /// `identity`: no privacy, true locations verbatim (the non-private
    /// ceiling, which prices any matcher's privacy/utility gap).
    Identity,
    /// `blind`: perfect privacy, nothing location-dependent (the floor).
    Blind,
}

/// A [`Mechanism`]'s per-run state: weight tables and alias-table caches.
enum MechanismReporter<'a> {
    Laplace(PlanarLaplace),
    HstWalk(HstMechanism, &'a Server),
    Exponential(ExponentialMechanism, &'a Server),
    Identity,
    Blind,
}

impl PointReporter for MechanismReporter<'_> {
    fn report(&mut self, location: &Point, rng: &mut StdRng) -> Report {
        match self {
            MechanismReporter::Laplace(mechanism) => {
                Report::Planar(mechanism.obfuscate(location, rng))
            }
            MechanismReporter::HstWalk(mechanism, server) => {
                let leaf = server.snap(location);
                Report::Leaf(mechanism.obfuscate(server.hst(), leaf, rng))
            }
            MechanismReporter::Exponential(mechanism, server) => {
                let nearest = server.grid().nearest(location);
                let noisy = mechanism.obfuscate(nearest, rng);
                Report::Leaf(server.hst().leaf_of(noisy))
            }
            MechanismReporter::Identity => Report::Planar(*location),
            MechanismReporter::Blind => Report::Blind,
        }
    }

    fn report_batch(
        &mut self,
        locations: &[Point],
        rng: &mut StdRng,
        threads: usize,
    ) -> Vec<Report> {
        let MechanismReporter::Laplace(mechanism) = self else {
            return locations.iter().map(|p| self.report(p, rng)).collect();
        };
        // `0` sizes the pool from the batch: one thread per ~4096 items,
        // capped by cores.
        let threads = match threads {
            0 => pombm_privacy::batch::default_threads(locations.len()),
            n => n,
        };
        pombm_privacy::batch::obfuscate_points_batch(mechanism, locations, rng, threads)
            .into_iter()
            .map(Report::Planar)
            .collect()
    }
}

impl ReportMechanism for Mechanism {
    fn name(&self) -> &'static str {
        match self {
            Mechanism::Laplace => "laplace",
            Mechanism::HstWalk => "hst",
            Mechanism::Exponential => "exp",
            Mechanism::Identity => "identity",
            Mechanism::Blind => "blind",
        }
    }

    fn summary(&self) -> &'static str {
        match self {
            Mechanism::Laplace => "planar Laplace noise in the plane (Geo-I baseline)",
            Mechanism::HstWalk => "the paper's HST random-walk mechanism (Alg. 3)",
            Mechanism::Exponential => "exponential mechanism over the predefined points",
            Mechanism::Identity => "no obfuscation: true locations (non-private ceiling)",
            Mechanism::Blind => "nothing location-dependent is reported (sanity floor)",
        }
    }

    fn needs_server(&self) -> bool {
        matches!(self, Mechanism::HstWalk | Mechanism::Exponential)
    }

    fn reporter<'a>(
        &self,
        epsilon: Epsilon,
        server: Option<&'a Server>,
    ) -> Result<Box<dyn PointReporter + 'a>, PipelineError> {
        Ok(Box::new(match self {
            Mechanism::Laplace => MechanismReporter::Laplace(PlanarLaplace::new(epsilon)),
            Mechanism::HstWalk => {
                let server = server.ok_or(PipelineError::MissingServer("hst mechanism"))?;
                MechanismReporter::HstWalk(HstMechanism::new(server.hst(), epsilon), server)
            }
            Mechanism::Exponential => {
                let server = server.ok_or(PipelineError::MissingServer("exp mechanism"))?;
                let points = server.hst().points().clone();
                MechanismReporter::Exponential(ExponentialMechanism::new(points, epsilon), server)
            }
            Mechanism::Identity => MechanismReporter::Identity,
            Mechanism::Blind => MechanismReporter::Blind,
        }))
    }
}

// ---------------------------------------------------------------------------
// Matcher implementations
// ---------------------------------------------------------------------------

/// An online rule: which pool runs it, and how it reads its reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Alg. 4 on the HST: leaf reports (planar ones snapped), after a
    /// server check, in the tree pool ([`HstGreedyPool::assign`]).
    Tree,
    /// Alg. 4 with the uniform tie-break of Meyerson et al. (the paper's
    /// ref \[15\]): [`Rule::Tree`]'s reports and pool, drawing the nearest
    /// worker on [`AssignCtx::tie_rng`] ([`HstGreedyPool::assign_random`]).
    TreeRandom,
    /// Euclidean greedy: planar reports (leaves projected) in the k-d pool
    /// ([`DynamicKdRebuild`]).
    Plane,
    /// The location-blind floor: the reports are ignored, and the random
    /// pool ([`DynamicRandomPool`]) draws from the mechanism's stream.
    Blind,
}

impl Rule {
    /// True for the rules whose pool lives on the published tree.
    fn needs_server(self) -> bool {
        matches!(self, Rule::Tree | Rule::TreeRandom)
    }

    /// One side's reports as the static matcher `component` hands them to
    /// the pool.
    fn convert(
        self,
        reports: Reports,
        server: Option<&Server>,
        component: &'static str,
    ) -> Result<Vec<Report>, PipelineError> {
        Ok(match self {
            Rule::Tree | Rule::TreeRandom => reports
                .into_leaves(server, component)?
                .into_iter()
                .map(Report::Leaf)
                .collect(),
            Rule::Plane => reports
                .into_points(server, component)?
                .into_iter()
                .map(Report::Planar)
                .collect(),
            Rule::Blind => vec![Report::Blind; reports.len()],
        })
    }

    /// An empty pool of the rule; the tree pools need the server. A report
    /// that does not convert names `component`, except in the tree pools,
    /// whose errors have always named `dynamic pool`.
    fn pool<'a>(
        self,
        server: Option<&'a Server>,
        component: &'static str,
    ) -> Result<RulePool<'a>, PipelineError> {
        let (pool, component) = match self {
            Rule::Tree | Rule::TreeRandom => {
                let server = server.ok_or(PipelineError::MissingServer(component))?;
                let pool = HstGreedyPool::new(server.hst().ctx());
                let random = self == Rule::TreeRandom;
                (Pool::Tree { pool, random }, "dynamic pool")
            }
            Rule::Plane => (Pool::Plane(DynamicKdRebuild::new()), component),
            Rule::Blind => (Pool::Blind(DynamicRandomPool::new()), component),
        };
        Ok(RulePool {
            pool,
            server,
            component,
        })
    }
}

/// The index a [`Rule`] runs.
enum Pool {
    /// The tree pool; `random` draws the nearest worker on the caller's
    /// stream.
    Tree { pool: HstGreedyPool, random: bool },
    /// The k-d pool.
    Plane(DynamicKdRebuild),
    /// The random pool.
    Blind(DynamicRandomPool),
}

/// A rule's pool behind [`DynamicWorkerPool`]: the one adapter
/// for every static and dynamic online matcher.
struct RulePool<'a> {
    pool: Pool,
    server: Option<&'a Server>,
    /// The component named when a report does not convert.
    component: &'static str,
}

impl DynamicWorkerPool for RulePool<'_> {
    fn insert(&mut self, id: u64, report: Report) -> Result<(), PipelineError> {
        match &mut self.pool {
            Pool::Tree { pool, .. } => pool.add(id, report.into_leaf(self.server, self.component)?),
            Pool::Plane(pool) => pool.add(id, report.into_point(self.server, self.component)?),
            Pool::Blind(pool) => pool.add(id),
        }
        Ok(())
    }

    fn insert_batch(&mut self, batch: Vec<(u64, Report)>) -> Result<(), PipelineError> {
        // Convert every report before the first add: an incompatible report
        // mid-batch must not leave a half-inserted window behind.
        let (server, component) = (self.server, self.component);
        match &mut self.pool {
            Pool::Tree { pool, .. } => pool.add_batch(
                batch
                    .into_iter()
                    .map(|(id, report)| Ok((id, report.into_leaf(server, component)?)))
                    .collect::<Result<Vec<_>, PipelineError>>()?,
            ),
            Pool::Plane(pool) => pool.add_batch(
                batch
                    .into_iter()
                    .map(|(id, report)| Ok((id, report.into_point(server, component)?)))
                    .collect::<Result<Vec<_>, PipelineError>>()?,
            ),
            Pool::Blind(pool) => {
                pool.add_batch(&batch.into_iter().map(|(id, _)| id).collect::<Vec<_>>());
            }
        }
        Ok(())
    }

    fn withdraw(&mut self, id: u64) -> bool {
        match &mut self.pool {
            Pool::Tree { pool, .. } => pool.withdraw(id),
            Pool::Plane(pool) => pool.withdraw(id),
            Pool::Blind(pool) => pool.withdraw(id),
        }
    }

    fn assign(&mut self, report: Report, rng: &mut StdRng) -> Result<Option<u64>, PipelineError> {
        Ok(match &mut self.pool {
            Pool::Tree { pool, random } => {
                let leaf = report.into_leaf(self.server, self.component)?;
                if *random {
                    pool.assign_random(leaf, rng)
                } else {
                    pool.assign(leaf)
                }
            }
            Pool::Plane(pool) => pool.assign(&report.into_point(self.server, self.component)?),
            Pool::Blind(pool) => pool.assign(rng),
        })
    }

    fn available(&self) -> usize {
        match &self.pool {
            Pool::Tree { pool, .. } => pool.available(),
            Pool::Plane(pool) => pool.available(),
            Pool::Blind(pool) => pool.available(),
        }
    }
}

/// The online matchers, static and dynamic: one constant per registered
/// name, each running the pool of its rule.
///
/// As a [`DynamicAssignStrategy`], a constant builds its rule's empty pool
/// for the event loop: `hst-greedy` ([`Self::DYNAMIC_HST_GREEDY`], the tree
/// pool), `kd-rebuild` ([`Self::KD_REBUILD`], the k-d pool) and `random`
/// ([`Self::DYNAMIC_RANDOM`], the random pool, drawing on the event loop's tie
/// stream).
///
/// As an [`AssignStrategy`], it runs the paper's static model, the dynamic
/// one in which every worker checks in before the first task: it fills its
/// rule's pool with the whole fleet (ids `0..n` in index order) and drains
/// the tasks in arrival order.
///
/// - `hst-greedy` (Alg. 4) and `chain` run the tree pool,
///   [`pombm_matching::HstGreedyPool`], equal pair for pair to the paper's
///   scan, `pombm_matching::hst_greedy::greedy_reference`. The
///   chain-reassignment rule of Bansal et al. (the paper's ref \[19\]) ends,
///   in the tree metric, at the worker greedy picks (see
///   [`pombm_matching::chain`]); [`pombm_matching::ChainMatcher`] keeps the
///   literal rule as the reference the tests pin `chain` to.
/// - `hst-rand` runs the tree pool with Meyerson et al.'s uniform
///   tie-break ([`pombm_matching::HstGreedyPool::assign_random`]) on
///   [`AssignCtx::tie_rng`].
/// - `capacity` is `hst-greedy` whose workers serve up to
///   [`PipelineConfig::capacity`] tasks each: a worker goes back into the
///   pool while it has capacity left. A zero capacity is rejected only
///   after the reports convert, so an unusable report set names itself
///   first.
/// - `greedy` (Lap-GR's matcher, Tong et al., PVLDB'16) and `kd-greedy`
///   run the k-d pool, [`pombm_matching::DynamicKdRebuild`].
/// - `random`, the location-blind floor, draws uniformly from the live
///   pool ([`pombm_matching::DynamicRandomPool`]) on
///   [`AssignCtx::mech_rng`].
///
/// Names that share a rule differ only in summary and error component.
pub struct PoolStrategy {
    name: &'static str,
    summary: &'static str,
    component: &'static str,
    rule: Rule,
    /// Reads [`PipelineConfig::capacity`]; otherwise one task per worker.
    capacitated: bool,
}

impl PoolStrategy {
    /// The `greedy` registration.
    pub const GREEDY: Self = PoolStrategy {
        name: "greedy",
        summary: "nearest available worker in the plane",
        component: "greedy matcher",
        rule: Rule::Plane,
        capacitated: false,
    };

    /// The `kd-greedy` registration.
    pub const KD_GREEDY: Self = PoolStrategy {
        name: "kd-greedy",
        summary: "nearest available worker via k-d tree",
        component: "kd-greedy matcher",
        rule: Rule::Plane,
        capacitated: false,
    };

    /// The `hst-greedy` registration.
    pub const HST_GREEDY: Self = PoolStrategy {
        name: "hst-greedy",
        summary: "tree-nearest available worker (Alg. 4)",
        component: "hst-greedy matcher",
        rule: Rule::Tree,
        capacitated: false,
    };

    /// The `hst-rand` registration.
    pub const HST_RAND: Self = PoolStrategy {
        name: "hst-rand",
        summary: "tree-nearest worker with randomized tie-breaking",
        component: "hst-rand matcher",
        rule: Rule::TreeRandom,
        capacitated: false,
    };

    /// The `chain` registration.
    pub const CHAIN: Self = PoolStrategy {
        name: "chain",
        summary: "chain-reassignment rule on the tree",
        component: "chain matcher",
        rule: Rule::Tree,
        capacitated: false,
    };

    /// The `capacity` registration.
    pub const CAPACITY: Self = PoolStrategy {
        name: "capacity",
        summary: "tree-nearest worker with residual capacity (config.capacity per worker)",
        component: "capacity matcher",
        rule: Rule::Tree,
        capacitated: true,
    };

    /// The `random` registration.
    pub const RANDOM: Self = PoolStrategy {
        name: "random",
        summary: "uniformly random available worker (location-blind)",
        component: "random matcher",
        rule: Rule::Blind,
        capacitated: false,
    };

    /// The dynamic `hst-greedy` registration.
    pub const DYNAMIC_HST_GREEDY: Self = PoolStrategy {
        name: "hst-greedy",
        summary: "tree-nearest available worker over a shifting fleet (Alg. 4)",
        component: "hst-greedy dynamic matcher",
        rule: Rule::Tree,
        capacitated: false,
    };

    /// The dynamic `kd-rebuild` registration.
    pub const KD_REBUILD: Self = PoolStrategy {
        name: "kd-rebuild",
        summary: "Euclidean-nearest worker via a k-d tree rebuilt on pool mutation",
        component: "kd-rebuild dynamic matcher",
        rule: Rule::Plane,
        capacitated: false,
    };

    /// The dynamic `random` registration.
    pub const DYNAMIC_RANDOM: Self = PoolStrategy {
        name: "random",
        summary: "uniformly random live worker (location-blind floor)",
        component: "random dynamic matcher",
        rule: Rule::Blind,
        capacitated: false,
    };
}

impl AssignStrategy for PoolStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    fn needs_server(&self) -> bool {
        self.rule.needs_server()
    }

    fn reuses_workers(&self) -> bool {
        self.capacitated
    }

    fn assign(
        &self,
        reports: ReportSet,
        ctx: &mut AssignCtx<'_>,
    ) -> Result<Matching, PipelineError> {
        if self.rule.needs_server() && ctx.server.is_none() {
            return Err(PipelineError::MissingServer(self.component));
        }
        let workers = self
            .rule
            .convert(reports.workers, ctx.server, self.component)?;
        let tasks = self
            .rule
            .convert(reports.tasks, ctx.server, self.component)?;
        let capacity = if self.capacitated {
            ctx.config.capacity
        } else {
            1
        };
        if capacity == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "capacity",
                why: "the capacity matcher needs at least one slot per worker",
            });
        }
        let mut pool = self.rule.pool(ctx.server, self.component)?;
        pool.insert_batch((0..).zip(workers.iter().copied()).collect())?;
        // `random` draws on the stream the location-blind floor has always
        // continued, `hst-rand` on the tie stream; the others draw nothing.
        let rng = match self.rule {
            Rule::TreeRandom => &mut *ctx.tie_rng,
            _ => &mut *ctx.mech_rng,
        };
        let mut served = vec![0; workers.len()];
        let mut matching = Matching::new();
        for (t, report) in tasks.into_iter().enumerate() {
            let Some(id) = pool.assign(report, rng)? else {
                continue;
            };
            let w = id as usize;
            served[w] += 1;
            // Re-adding the worker just taken puts the pool back as it was.
            if served[w] < capacity {
                pool.insert(id, workers[w])?;
            }
            matching.pairs.push((t, w));
        }
        Ok(matching)
    }
}

impl DynamicAssignStrategy for PoolStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    fn needs_server(&self) -> bool {
        self.rule.needs_server()
    }

    fn pool<'a>(
        &self,
        server: Option<&'a Server>,
    ) -> Result<Box<dyn DynamicWorkerPool + 'a>, PipelineError> {
        Ok(Box::new(self.rule.pool(server, self.component)?))
    }
}

/// Exact offline optimum (Hungarian) over the *reported* locations.
///
/// This is `OPT` of Definition 8 run on the obfuscated view: it sees every
/// task before assigning any of them, so it lower-bounds what any online
/// matcher can achieve on the same reports. Composed with the `identity`
/// mechanism it reproduces the true offline optimum exactly — the built-in
/// sanity oracle of the competitive-ratio sweep (ratio = 1.0).
pub struct OfflineOptimalStrategy;

impl AssignStrategy for OfflineOptimalStrategy {
    fn name(&self) -> &'static str {
        "offline-opt"
    }

    fn summary(&self) -> &'static str {
        "exact offline optimum on the reports (Hungarian; not online)"
    }

    fn needs_server(&self) -> bool {
        false
    }

    fn assign(
        &self,
        reports: ReportSet,
        ctx: &mut AssignCtx<'_>,
    ) -> Result<Matching, PipelineError> {
        let workers = reports
            .workers
            .into_points(ctx.server, "offline-opt matcher")?;
        let tasks = reports
            .tasks
            .into_points(ctx.server, "offline-opt matcher")?;
        // Bit-identical for every thread count (see `pombm_matching::offline`),
        // so `config.threads` only trades wall-clock for cores.
        let mut matching =
            OfflineOptimal::solve_euclidean_with_threads(&tasks, &workers, ctx.config.threads);
        // Canonical worker-index order: worker indices never change when the
        // task arrival order is reshuffled, so the float summation order of
        // `total_distance` — and hence the identity × offline-opt ratio of
        // exactly 1.0 — is independent of the arrival permutation.
        matching.pairs.sort_unstable_by_key(|&(_, w)| w);
        Ok(matching)
    }
}

// ---------------------------------------------------------------------------
// Dynamic oracle
// ---------------------------------------------------------------------------

/// The clairvoyant offline optimum over the revealed shift/task timeline
/// ([`pombm_matching::ClairvoyantOptimal`]): the ratio-under-churn
/// denominator of [`crate::ratio::dynamic_competitive_ratio`].
///
/// The one [`DynamicAssignStrategy::is_oracle`] entry: it is not an online
/// rule — it sees the whole schedule at once — so the event-sequential
/// [`DynamicWorkerPool`] position is a typed
/// [`PipelineError::RoleMismatch`], enforced both at registry resolution
/// and here as defense in depth.
pub struct DynamicOptStrategy;

impl DynamicAssignStrategy for DynamicOptStrategy {
    fn name(&self) -> &'static str {
        "dynamic-opt"
    }

    fn summary(&self) -> &'static str {
        "clairvoyant offline optimum over the revealed timeline (ratio denominator)"
    }

    fn needs_server(&self) -> bool {
        false
    }

    fn is_oracle(&self) -> bool {
        true
    }

    fn pool<'a>(
        &self,
        _server: Option<&'a Server>,
    ) -> Result<Box<dyn DynamicWorkerPool + 'a>, PipelineError> {
        Err(PipelineError::oracle_only(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_rejects_mixed_batches() {
        let mixed = vec![
            Report::Planar(Point::new(0.0, 0.0)),
            Report::Leaf(LeafCode(3)),
        ];
        assert!(matches!(
            Reports::collect(mixed, "test"),
            Err(PipelineError::MixedReports("test"))
        ));
        let blind = vec![Report::Blind, Report::Blind];
        assert_eq!(Reports::collect(blind, "test").unwrap(), Reports::Blind(2));
        assert_eq!(Reports::collect(vec![], "test").unwrap(), Reports::Blind(0));
    }

    #[test]
    fn blind_reports_cannot_become_locations() {
        assert!(Reports::Blind(4).into_points(None, "x").is_err());
        assert!(Reports::Blind(4).into_leaves(None, "x").is_err());
        assert!(Report::Blind.into_leaf(None, "x").is_err());
        // ...but an empty side carries nothing to reject.
        assert_eq!(Reports::Blind(0).into_points(None, "x").unwrap(), vec![]);
        assert_eq!(Reports::Blind(0).into_leaves(None, "x").unwrap(), vec![]);
    }

    #[test]
    fn planar_to_leaves_requires_server() {
        let planar = Reports::Planar(vec![Point::new(1.0, 2.0)]);
        assert_eq!(
            planar.into_leaves(None, "hst-greedy matcher"),
            Err(PipelineError::MissingServer("hst-greedy matcher"))
        );
    }

    #[test]
    fn errors_display_helpfully() {
        let e = PipelineError::UnknownEntry {
            kind: "algorithm",
            name: "nope".into(),
            known: vec!["tbf".into(), "lap-gr".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("nope") && msg.contains("tbf") && msg.contains("lap-gr"));
    }
}
