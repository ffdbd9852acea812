//! Multi-epoch deployment: repeated reporting under a finite budget.
//!
//! The paper analyzes a single assignment round; a deployed platform runs
//! every day. Each fresh obfuscated report leaks privacy, and by sequential
//! composition a worker who reports `r` times at budget ε per report has
//! spent `r·ε` in total. This module simulates that lifecycle on top of
//! the TBF pipeline:
//!
//! * Workers drift between epochs (Gaussian step, clamped to the region).
//! * At the start of each epoch a worker *re-reports* — obfuscating its
//!   current leaf with the per-epoch ε — **iff** its lifetime budget ledger
//!   still has ε available ([`pombm_privacy::budget::BudgetLedger`]).
//!   Once exhausted, the worker keeps serving from its **stale** last
//!   report: no further leakage, but the report decays as the worker moves.
//! * Tasks are one-shot participants and always pay the per-epoch ε.
//! * The server matches each epoch's tasks against that epoch's reports
//!   with HST-greedy (Alg. 4).
//!
//! The interesting output is the per-epoch total distance: it degrades as
//! the fleet's reports go stale, quantifying the deployment concern the
//! paper scopes out (its mechanism is single-shot by design).

use crate::algorithm::{PipelineError, ReportMechanism};
use crate::server::{check_epsilon, Server};
use pombm_geom::{seeded_rng, Point, Rect};
use pombm_hst::LeafCode;
use pombm_matching::{HstGreedyPool, Matching};
use pombm_privacy::budget::BudgetLedger;
use pombm_privacy::Epsilon;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Mean of the Normal hotspot, on both axes, that tasks and initial worker
/// positions are drawn from: Table II's default µ.
const HOTSPOT_MU: f64 = 100.0;
/// Standard deviation of that hotspot: Table II's default σ.
const HOTSPOT_SIGMA: f64 = 20.0;
/// The simulation's `2µ × 2µ` workspace.
const SIDE: f64 = 2.0 * HOTSPOT_MU;
/// Side of the predefined grid the simulation's server is built on.
const GRID_SIDE: usize = 32;

/// Configuration of a multi-epoch simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochConfig {
    /// Number of epochs ("days") to simulate.
    pub num_epochs: usize,
    /// Lifetime privacy budget per worker; re-reporting stops when the next
    /// report would exceed it.
    pub lifetime_epsilon: f64,
    /// Budget spent per fresh report (workers and tasks alike).
    pub epoch_epsilon: f64,
    /// Standard deviation of the per-epoch Gaussian drift of each worker,
    /// in workspace units.
    pub worker_drift: f64,
    /// Tasks arriving per epoch, drawn from the same Normal hotspot as the
    /// synthetic workloads (µ = 100, σ = 20).
    pub tasks_per_epoch: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            num_epochs: 10,
            lifetime_epsilon: 3.0,
            epoch_epsilon: 0.6,
            worker_drift: 10.0,
            tasks_per_epoch: 500,
            seed: 0,
        }
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Workers that re-reported this epoch (budget permitting).
    pub fresh_reports: usize,
    /// Workers serving from a stale report (budget exhausted).
    pub stale_reports: usize,
    /// Mean Euclidean distance between a worker's true position and the
    /// position its current report was based on.
    pub avg_report_staleness: f64,
    /// Total true-location travel distance of this epoch's matching.
    pub total_distance: f64,
    /// Pairs assigned this epoch.
    pub matching_size: usize,
}

/// The full simulation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// One entry per simulated epoch, in order.
    pub per_epoch: Vec<EpochMetrics>,
    /// Sum of ε charged across all workers over the whole run.
    pub worker_budget_spent: f64,
}

impl EpochReport {
    /// Ratio of the last epoch's total distance to the first's — the
    /// headline degradation number (> 1 means staleness hurt).
    pub fn degradation(&self) -> f64 {
        match (self.per_epoch.first(), self.per_epoch.last()) {
            (Some(a), Some(b)) if a.total_distance > 0.0 => b.total_distance / a.total_distance,
            _ => 1.0,
        }
    }
}

/// Runs the multi-epoch simulation described in the module docs.
///
/// `num_workers` workers are spawned from the Normal hotspot at epoch 0,
/// in a 200 × 200 workspace whose server publishes an HST over a 32 × 32
/// grid; every epoch they drift, (maybe) re-report through `mechanism`, and
/// serve that epoch's `tasks_per_epoch` arrivals. TBF's mechanism is the
/// registry's `hst`; planar reports are snapped onto the published tree,
/// like the paper's Lap-HG, and location-blind reports are a typed error.
///
/// A config the simulation cannot run is a typed
/// [`PipelineError::InvalidConfig`] naming its field: zero `num_epochs`, a
/// budget that is not positive and finite, a `lifetime_epsilon` too small
/// for one report at `epoch_epsilon`, or a non-finite `worker_drift`.
pub fn run_epochs(
    num_workers: usize,
    config: &EpochConfig,
    mechanism: &dyn ReportMechanism,
) -> Result<EpochReport, PipelineError> {
    let invalid = |field, why| PipelineError::InvalidConfig { field, why };
    check_epsilon("epoch_epsilon", config.epoch_epsilon)?;
    check_epsilon("lifetime_epsilon", config.lifetime_epsilon)?;
    if config.num_epochs == 0 {
        return Err(invalid(
            "num_epochs",
            "the simulation needs at least one epoch",
        ));
    }
    let normal = Normal::new(HOTSPOT_MU, HOTSPOT_SIGMA).expect("a finite, positive σ");
    let drift = Normal::new(0.0, config.worker_drift.max(1e-9))
        .map_err(|_| invalid("worker_drift", "must be a finite standard deviation"))?;
    let region = Rect::square(SIDE);
    let server = Server::try_new(region, GRID_SIDE, config.seed ^ 0xE70C)?;
    let epsilon = Epsilon::new(config.epoch_epsilon);
    let mut reporter = mechanism.reporter(epsilon, Some(&server))?;
    let ledger = BudgetLedger::new(config.lifetime_epsilon);

    let mut rng = seeded_rng(config.seed, 0xE70C_0001);
    let sample_point = |rng: &mut rand::rngs::StdRng| -> Point {
        region.clamp(&Point::new(normal.sample(rng), normal.sample(rng)))
    };

    // Worker state: true position, current report, and the true position
    // the report was based on.
    let mut positions: Vec<Point> = (0..num_workers).map(|_| sample_point(&mut rng)).collect();
    let mut reports: Vec<LeafCode> = Vec::with_capacity(num_workers);
    let mut report_basis: Vec<Point> = positions.clone();
    for (i, w) in positions.iter().enumerate() {
        // The registration report: the lifetime must afford the first one.
        ledger.charge(i as u64, config.epoch_epsilon).map_err(|_| {
            invalid(
                "lifetime_epsilon",
                "must cover at least one report at epoch_epsilon",
            )
        })?;
        reports.push(
            reporter
                .report(w, &mut rng)
                .into_leaf(Some(&server), "epoch reports")?,
        );
    }

    let mut per_epoch = Vec::with_capacity(config.num_epochs);

    for epoch in 0..config.num_epochs {
        if epoch > 0 {
            // Drift, then re-report where the ledger allows.
            for i in 0..num_workers {
                let p = positions[i];
                positions[i] = region.clamp(&Point::new(
                    p.x + drift.sample(&mut rng),
                    p.y + drift.sample(&mut rng),
                ));
                if ledger.charge(i as u64, config.epoch_epsilon).is_ok() {
                    reports[i] = reporter
                        .report(&positions[i], &mut rng)
                        .into_leaf(Some(&server), "epoch reports")?;
                    report_basis[i] = positions[i];
                }
            }
        }
        let fresh_reports = (0..num_workers)
            .filter(|&i| report_basis[i] == positions[i])
            .count();
        let avg_report_staleness = positions
            .iter()
            .zip(&report_basis)
            .fold(0.0, |sum, (p, b)| sum + p.dist(b))
            / num_workers.max(1) as f64;

        // This epoch's tasks: fresh arrivals, always able to pay.
        let tasks: Vec<Point> = (0..config.tasks_per_epoch)
            .map(|_| sample_point(&mut rng))
            .collect();
        let mut reported_tasks: Vec<LeafCode> = Vec::with_capacity(tasks.len());
        for t in &tasks {
            reported_tasks.push(
                reporter
                    .report(t, &mut rng)
                    .into_leaf(Some(&server), "epoch reports")?,
            );
        }

        // A fresh pool per epoch: workers come back on shift every day.
        let mut pool = HstGreedyPool::new(server.hst().ctx());
        pool.add_batch((0..).zip(reports.iter().copied()));
        let take = |(t, &leaf)| Some((t, pool.assign(leaf)? as usize));
        let matching = Matching {
            pairs: reported_tasks.iter().enumerate().filter_map(take).collect(),
        };
        let total_distance = matching.total_distance(&tasks, &positions);

        per_epoch.push(EpochMetrics {
            epoch,
            fresh_reports,
            stale_reports: num_workers - fresh_reports,
            avg_report_staleness,
            total_distance,
            matching_size: matching.size(),
        });
    }

    Ok(EpochReport {
        per_epoch,
        worker_budget_spent: ledger.total_spent(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    /// The simulation under TBF's mechanism.
    fn tbf(num_workers: usize, config: &EpochConfig) -> EpochReport {
        let hst = registry().require_mechanism("hst").unwrap();
        run_epochs(num_workers, config, hst.as_ref()).unwrap()
    }

    fn quick_config() -> EpochConfig {
        EpochConfig {
            num_epochs: 6,
            lifetime_epsilon: 1.8, // 3 fresh reports at ε = 0.6
            tasks_per_epoch: 80,
            ..EpochConfig::default()
        }
    }

    #[test]
    fn budget_caps_fresh_reports() {
        let report = tbf(100, &quick_config());
        assert_eq!(report.per_epoch.len(), 6);
        // Epochs 0-2 are fully fresh (3 reports × ε0.6 = 1.8 = lifetime);
        // from epoch 3 on, everyone is stale.
        assert_eq!(report.per_epoch[0].stale_reports, 0);
        assert_eq!(report.per_epoch[1].stale_reports, 0);
        assert_eq!(report.per_epoch[2].stale_reports, 0);
        assert_eq!(report.per_epoch[3].fresh_reports, 0);
        assert_eq!(report.per_epoch[5].fresh_reports, 0);
    }

    #[test]
    fn ledger_never_exceeds_lifetime() {
        let config = quick_config();
        let report = tbf(50, &config);
        assert!(report.worker_budget_spent <= 50.0 * config.lifetime_epsilon + 1e-9);
        // Exactly 3 charges per worker in this configuration.
        assert!((report.worker_budget_spent - 50.0 * 1.8).abs() < 1e-9);
    }

    #[test]
    fn staleness_grows_once_budget_exhausts() {
        let report = tbf(150, &quick_config());
        let early = report.per_epoch[2].avg_report_staleness;
        let late = report.per_epoch[5].avg_report_staleness;
        assert!(
            late > early,
            "staleness should grow after exhaustion: early {early}, late {late}"
        );
        assert_eq!(report.per_epoch[2].avg_report_staleness, 0.0);
    }

    #[test]
    fn an_empty_fleet_reports_positive_zeros() {
        // An empty f64 `sum` is -0.0, which the CLI prints as -0.00.
        let report = tbf(0, &quick_config());
        assert_eq!(report.per_epoch.len(), 6);
        for m in &report.per_epoch {
            assert_eq!(m.avg_report_staleness.to_bits(), 0, "epoch {}", m.epoch);
        }
        assert_eq!(report.worker_budget_spent.to_bits(), 0);
    }

    #[test]
    fn every_epoch_matches_all_tasks_when_workers_abound() {
        let report = tbf(200, &quick_config());
        for m in &report.per_epoch {
            assert_eq!(m.matching_size, 80, "epoch {}", m.epoch);
            assert!(m.total_distance > 0.0);
        }
    }

    #[test]
    fn simulation_is_reproducible() {
        let a = tbf(60, &quick_config());
        let b = tbf(60, &quick_config());
        for (x, y) in a.per_epoch.iter().zip(&b.per_epoch) {
            assert_eq!(x.total_distance, y.total_distance);
            assert_eq!(x.fresh_reports, y.fresh_reports);
        }
    }

    #[test]
    fn degradation_reflects_distance_growth() {
        let report = tbf(150, &quick_config());
        let deg = report.degradation();
        assert!(deg.is_finite() && deg > 0.0);
    }

    #[test]
    fn alternative_mechanisms_plug_in() {
        // Epoch reporting goes through the ReportMechanism trait: the
        // planar Laplace mechanism (snapped onto the tree) and the exact
        // identity mechanism both drive the same budget lifecycle.
        let config = quick_config();
        for name in ["laplace", "identity"] {
            let mechanism = registry().require_mechanism(name).unwrap();
            let report = run_epochs(80, &config, mechanism.as_ref()).unwrap();
            assert_eq!(report.per_epoch.len(), 6, "{name}");
            assert!(
                (report.worker_budget_spent - 80.0 * 1.8).abs() < 1e-9,
                "{name}"
            );
            for m in &report.per_epoch {
                assert_eq!(m.matching_size, 80, "{name} epoch {}", m.epoch);
            }
        }
    }

    /// Runs `config` under TBF's mechanism and returns the field a typed
    /// error names.
    fn rejected_field(config: EpochConfig) -> &'static str {
        let hst = registry().require_mechanism("hst").unwrap();
        match run_epochs(10, &config, hst.as_ref()) {
            Err(PipelineError::InvalidConfig { field, .. }) => field,
            other => panic!("expected a typed config error, got {other:?}"),
        }
    }

    #[test]
    fn zero_epochs_rejected() {
        let config = EpochConfig {
            num_epochs: 0,
            ..EpochConfig::default()
        };
        assert_eq!(rejected_field(config), "num_epochs");
    }

    #[test]
    fn unusable_budgets_and_distributions_are_typed_errors() {
        let base = quick_config();
        for (config, field) in [
            (
                EpochConfig {
                    epoch_epsilon: 0.0,
                    ..base
                },
                "epoch_epsilon",
            ),
            (
                EpochConfig {
                    epoch_epsilon: f64::NAN,
                    ..base
                },
                "epoch_epsilon",
            ),
            (
                EpochConfig {
                    lifetime_epsilon: -1.0,
                    ..base
                },
                "lifetime_epsilon",
            ),
            (
                EpochConfig {
                    lifetime_epsilon: 0.1,
                    ..base
                },
                "lifetime_epsilon",
            ),
            (
                EpochConfig {
                    worker_drift: f64::INFINITY,
                    ..base
                },
                "worker_drift",
            ),
        ] {
            assert_eq!(rejected_field(config), field);
        }
    }
}
