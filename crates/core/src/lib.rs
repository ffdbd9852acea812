#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "unit tests produce no compared output"
    )
)]

//! # pombm — Privacy-preserving Online Minimum Bipartite Matching
//!
//! A full reproduction of *"Differentially Private Online Task Assignment in
//! Spatial Crowdsourcing: A Tree-based Approach"* (Tao, Tong, Zhou, Shi,
//! Chen, Xu — ICDE 2020).
//!
//! The paper's setting: workers and tasks in the plane must report their
//! locations to an **untrusted** crowdsourcing server for task assignment.
//! A privacy mechanism obfuscates every location before it is reported; the
//! server then runs online minimum bipartite matching on the obfuscated
//! data. The paper's contribution (**TBF**) obfuscates over a
//! Hierarchically Well-Separated Tree, which is ε-Geo-Indistinguishable
//! *and* admits a matching algorithm with a provable competitive ratio.
//!
//! # Architecture: mechanisms × matchers
//!
//! Every algorithm is a pairing of two open, object-safe traits:
//!
//! * a [`ReportMechanism`] turns true locations into obfuscated reports
//!   (planar points or HST leaves); the registered ones are the variants
//!   of [`Mechanism`],
//! * an [`AssignStrategy`] consumes the reports and produces a
//!   [`pombm_matching::Matching`].
//!
//! Named pairings — the paper's three compared algorithms, this
//! repository's ablations, and novel combinations like `exp-chain` — live
//! in the global [`registry()`] under their names and figure labels, and a
//! single generic driver ([`run_spec`]) executes any of them with uniform
//! setup/obfuscation/assignment timing.
//!
//! The event-driven half mirrors this: shifting fleets pair any mechanism
//! with any registered [`DynamicAssignStrategy`] (`hst-greedy`,
//! `kd-rebuild`, `random`) through [`run_dynamic_spec`], and
//! [`run_sweep`] over a [`DynamicSweepConfig`] measures the whole product
//! under named shift plans — see the [`dynamic`] module docs for a worked
//! example of adding a custom dynamic matcher.
//!
//! Where the workload *comes from* is a third registry axis: a named
//! [`Scenario`] bundles worker placement, task placement and the demand
//! curve; the registered ones are the variants of [`Workload`] (`uniform`
//! — bit-identical to the legacy workload — `normal`, `hotspot`,
//! `poisson-disk`, `adversarial-cell`). It threads through every surface
//! from [`run_spec`] inputs to the [`serve`] load generator and enters the
//! sweep's config fingerprint — see the [`scenario`] module docs.
//!
//! How the service *misbehaves* is a fourth: a named [`FaultPlan`]
//! (`none`, `flaky-wire`, `dup-storm`, `burst`) deterministically rewrites
//! the serve frame script off its own RNG stream, and a bounded admission
//! queue sheds overload under a pluggable [`ShedPolicy`] with
//! virtual-time retry backoff — chaos with the same golden-fingerprint
//! contract as the clean path. See the [`fault`] and [`serve`] module
//! docs.
//!
//! # Quick start
//!
//! ```
//! use pombm::{registry, run_spec, PipelineConfig};
//! use pombm_workload::{synthetic, SyntheticParams};
//! use pombm_geom::seeded_rng;
//!
//! let params = SyntheticParams { num_tasks: 50, num_workers: 80, ..Default::default() };
//! let instance = synthetic::generate(&params, &mut seeded_rng(1, 0));
//! let config = PipelineConfig { epsilon: 0.6, ..Default::default() };
//!
//! // Run a registered algorithm by name...
//! let tbf = registry().require_spec("tbf").unwrap();
//! let result = run_spec(&tbf, &instance, &config, 1).unwrap();
//! assert_eq!(result.matching.size(), 50);
//!
//! // ...or compose a pairing the paper never evaluated.
//! let exp_chain = registry().compose("exp", "chain").unwrap();
//! let novel = run_spec(&exp_chain, &instance, &config, 1).unwrap();
//! assert_eq!(novel.matching.size(), 50);
//! println!("total travel distance: {:.1}", result.metrics.total_distance);
//! ```
//!
//! Adding your own mechanism or matcher is one trait impl plus
//! [`AlgorithmSpec::compose`] — see the [`algorithm`] module docs for a
//! complete ≤20-line example.
//!
//! # Measuring competitive ratios
//!
//! The exact offline optimum is itself a registered matcher
//! (`offline-opt`), so Definition 8's competitive ratio is measurable for
//! *any* pairing: [`empirical_competitive_ratio`] returns a structured
//! [`RatioReport`], and the [`sweep`] module fans the full
//! `mechanism × matcher × size × ε` product out across cores
//! deterministically (`pombm sweep` on the CLI):
//!
//! ```
//! use pombm::sweep::{run_sweep, FlavorReport, SweepConfig};
//!
//! let config = SweepConfig {
//!     mechanisms: vec!["identity".into()],
//!     matchers: vec!["offline-opt".into(), "greedy".into()],
//!     sizes: vec![24],
//!     repetitions: 2,
//!     ..SweepConfig::default()
//! };
//! let report = run_sweep(&config).unwrap();
//! let (_, oracle) = report.measured()
//!     .find(|(c, _)| c.matcher == "offline-opt").unwrap();
//! assert_eq!(oracle.ratio, 1.0); // identity × offline-opt reproduces OPT
//! ```
//!
//! The dynamic timeline has the same shape of oracle: `dynamic-opt`
//! ([`dynamic_offline_optimum_with_threads`]) is a clairvoyant solver that
//! sees every arrival time and shift window up front and computes the exact
//! offline optimum over the time-expanded feasibility graph — Definition 8's
//! denominator under churn. It is catalogued with the dynamic matchers
//! but is an oracle ([`DynamicAssignStrategy::is_oracle`]: it can price a
//! timeline, never drive the fleet), [`dynamic_competitive_ratio`] returns a
//! [`DynamicRatioReport`] whose statistics fields mirror [`RatioReport`]
//! name-for-name, and the dynamic sweep's `ratio` switch adds per-cell
//! `competitive_ratio` and drop-latency percentile columns
//! (`pombm dynamic --ratio` / `pombm sweep --dynamic --ratio` on the
//! CLI; plain reports stay byte-identical).
//!
//! Both sweeps run on one engine: [`SweepConfig`] and
//! [`DynamicSweepConfig`] each implement [`SweepFlavor`], and everything
//! downstream is generic over it. Sweeps also scale past one process:
//! [`run_sweep_partition`] computes an `i/N` slice of the job-index space
//! into a self-describing [`Partial`] (optionally checkpointed so an
//! interrupted run resumes instead of recomputing), and [`merge()`]
//! validates a partial set (identical config fingerprints, disjoint full
//! coverage) and reassembles JSON byte-identical to a single-process run —
//! `pombm sweep [--dynamic] --partition i/N [--checkpoint DIR]` and
//! `pombm merge <partials..>` on the CLI.

pub mod algorithm;
pub mod case_study;
pub mod dynamic;
pub mod epochs;
pub mod fault;
pub mod fingerprint;
pub mod merge;
pub mod pipeline;
pub mod ratio;
pub mod registry;
pub mod scenario;
pub mod serve;
pub mod server;
pub mod sweep;

pub use algorithm::{
    AssignStrategy, DynamicAssignStrategy, DynamicWorkerPool, Mechanism, PipelineError,
    PointReporter, Report, ReportMechanism,
};
pub use case_study::{run_case_study, CaseStudyAlgorithm, CaseStudyResult};
pub use dynamic::{run_dynamic_spec, DynamicConfig, DynamicOutcome};
pub use epochs::{run_epochs, EpochConfig, EpochMetrics, EpochReport};
pub use fault::{FaultPlan, ShedPolicy};
pub use merge::{merge, MergeError};
pub use pipeline::{run_spec, run_spec_with_server, PipelineConfig, RunMetrics, RunResult};
pub use ratio::{
    dynamic_competitive_ratio, dynamic_offline_optimum_with_threads, empirical_competitive_ratio,
    offline_optimum_with_threads, DynamicRatioReport, RatioError, RatioReport, RatioStats,
};
pub use registry::{registry, AlgorithmSpec, Catalog, Registry, DEFAULT_DYNAMIC_ORACLE};
pub use scenario::{even_task_times, Scenario, Workload, DEFAULT_SCENARIO};
pub use serve::{
    run_serve, serve_frames, FaultReport, ServeConfig, ServeLatency, ServeOutcome, ServeReport,
    ServeRequest,
};
pub use server::{Server, TreeConstruction};
pub use sweep::{
    run_sweep, run_sweep_partition, run_sweep_range, sweep_fingerprint, sweep_job_count,
    DynamicMeasurement, DynamicSweepCell, DynamicSweepConfig, DynamicSweepReport, FlavorReport,
    Partial, PartialRunStats, PartitionPlan, PartitionRun, SweepCell, SweepConfig, SweepFlavor,
    SweepReport,
};
