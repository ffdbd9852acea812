//! The case study on matching-size maximization (Sec. IV-C).
//!
//! Here each worker has a reachable radius and the objective flips from
//! minimizing total distance to maximizing the number of *successful*
//! assignments — an assignment succeeds only if the true worker–task
//! distance is within the worker's radius (the server, seeing only
//! obfuscated data, can get this wrong; such assignments waste the worker
//! and do not count toward the matching size).

use crate::algorithm::PipelineError;
use crate::registry::registry;
use crate::server::{check_epsilon, Server};
use pombm_geom::{seeded_rng, Point};
use pombm_hst::LeafCode;
use pombm_matching::reachable::{ProbMatcher, TbfReachMatcher, DEFAULT_THRESHOLD};
use pombm_privacy::{Epsilon, ReachEstimator};
use pombm_workload::Instance;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The two case-study algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CaseStudyAlgorithm {
    /// Prob: planar Laplace + probabilistic reachability assignment (To et
    /// al., ICDE'18 style).
    Prob,
    /// TBF: HST mechanism + nearest reachable worker on the tree.
    Tbf,
}

impl CaseStudyAlgorithm {
    /// Both algorithms in the paper's plotting order.
    pub const ALL: [CaseStudyAlgorithm; 2] = [CaseStudyAlgorithm::Prob, CaseStudyAlgorithm::Tbf];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            CaseStudyAlgorithm::Prob => "Prob",
            CaseStudyAlgorithm::Tbf => "TBF",
        }
    }
}

impl std::fmt::Display for CaseStudyAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of one case-study run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudyResult {
    /// Successful assignments: served within the worker's true reach.
    pub matching_size: usize,
    /// Assignments the server attempted (successful or not).
    pub attempted: usize,
    /// Time spent in the assignment loop.
    pub assign_time: Duration,
}

/// Runs a case-study algorithm on an instance carrying radii.
///
/// Fails with [`PipelineError::InvalidConfig`] on an instance without one
/// radius per worker (`radii`) and on a budget that is not positive and
/// finite (`epsilon`).
pub fn run_case_study(
    algorithm: CaseStudyAlgorithm,
    instance: &Instance,
    server: &Server,
    epsilon: f64,
    seed: u64,
) -> Result<CaseStudyResult, PipelineError> {
    let radii = instance
        .radii
        .as_ref()
        .filter(|radii| radii.len() == instance.num_workers())
        .ok_or(PipelineError::InvalidConfig {
            field: "radii",
            why: "the case study needs one reachable radius per worker",
        })?;
    check_epsilon("epsilon", epsilon)?;
    let epsilon = Epsilon::new(epsilon);
    let mut rng = seeded_rng(seed, 0xCA5E);

    Ok(match algorithm {
        CaseStudyAlgorithm::Prob => {
            // The Prob baseline reports through the registered planar
            // Laplace mechanism.
            let mechanism = registry().require_mechanism("laplace")?;
            let mut reporter = mechanism.reporter(epsilon, Some(server))?;
            let mut report = |p: &Point| {
                reporter
                    .report(p, &mut rng)
                    .into_point(Some(server), "prob case study")
            };
            let workers = instance
                .workers
                .iter()
                .map(&mut report)
                .collect::<Result<Vec<Point>, _>>()?;
            let tasks = instance
                .tasks
                .iter()
                .map(&mut report)
                .collect::<Result<Vec<Point>, _>>()?;
            let estimator = ReachEstimator::with_defaults(epsilon, seed);
            let mut matcher =
                ProbMatcher::new(workers, radii.clone(), estimator, DEFAULT_THRESHOLD);
            #[expect(
                clippy::disallowed_methods,
                reason = "running-time metric of the case study; measured output, not part of any golden fingerprint"
            )]
            let start = Instant::now();
            let mut attempted = 0;
            let mut matched = 0;
            for (t_idx, t) in tasks.iter().enumerate() {
                if let Some(w_idx) = matcher.assign(t) {
                    attempted += 1;
                    if instance.tasks[t_idx].dist(&instance.workers[w_idx]) <= radii[w_idx] {
                        matched += 1;
                    }
                }
            }
            CaseStudyResult {
                matching_size: matched,
                attempted,
                assign_time: start.elapsed(),
            }
        }
        CaseStudyAlgorithm::Tbf => {
            // TBF reports through the registered HST random-walk mechanism.
            let mechanism = registry().require_mechanism("hst")?;
            let mut reporter = mechanism.reporter(epsilon, Some(server))?;
            let mut report = |p: &Point| {
                reporter
                    .report(p, &mut rng)
                    .into_leaf(Some(server), "tbf case study")
            };
            let workers = instance
                .workers
                .iter()
                .map(&mut report)
                .collect::<Result<Vec<LeafCode>, _>>()?;
            let worker_pos = workers
                .iter()
                .map(|&w| server.hst().representative_point(w))
                .collect();
            let tasks = instance
                .tasks
                .iter()
                .map(&mut report)
                .collect::<Result<Vec<LeafCode>, _>>()?;
            // Snapping to the grid moves each endpoint by at most half a
            // cell diagonal (typical error is ~0.38 of a pitch), so half a
            // diagonal of slack balances false admissions (which burn a
            // worker on an unreachable task) against false rejections.
            let slack =
                (server.grid().pitch_x().powi(2) + server.grid().pitch_y().powi(2)).sqrt() / 2.0;
            let mut matcher = TbfReachMatcher::new(
                server.hst().ctx(),
                workers,
                worker_pos,
                radii.clone(),
                slack,
            );
            #[expect(
                clippy::disallowed_methods,
                reason = "running-time metric of the case study; measured output, not part of any golden fingerprint"
            )]
            let start = Instant::now();
            let mut attempted = 0;
            let mut matched = 0;
            for (t_idx, &t) in tasks.iter().enumerate() {
                let t_pos = server.hst().representative_point(t);
                if let Some(w_idx) = matcher.assign(t, &t_pos) {
                    attempted += 1;
                    if instance.tasks[t_idx].dist(&instance.workers[w_idx]) <= radii[w_idx] {
                        matched += 1;
                    }
                }
            }
            CaseStudyResult {
                matching_size: matched,
                attempted,
                assign_time: start.elapsed(),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_workload::{synthetic, SyntheticParams};

    fn radii_instance(seed: u64, tasks: usize, workers: usize) -> Instance {
        let params = SyntheticParams {
            num_tasks: tasks,
            num_workers: workers,
            ..SyntheticParams::default()
        };
        synthetic::generate_with_radii(&params, &mut seeded_rng(seed, 0))
    }

    #[test]
    fn both_algorithms_produce_results() {
        let instance = radii_instance(1, 80, 150);
        let server = Server::new(instance.region, 32, 9);
        for algo in CaseStudyAlgorithm::ALL {
            let r = run_case_study(algo, &instance, &server, 0.6, 0).unwrap();
            assert!(r.matching_size <= r.attempted, "{algo}");
            assert!(r.attempted <= 80, "{algo}");
        }
    }

    #[test]
    fn results_are_reproducible() {
        let instance = radii_instance(2, 50, 100);
        let server = Server::new(instance.region, 32, 9);
        for algo in CaseStudyAlgorithm::ALL {
            let a = run_case_study(algo, &instance, &server, 0.4, 7).unwrap();
            let b = run_case_study(algo, &instance, &server, 0.4, 7).unwrap();
            assert_eq!(a.matching_size, b.matching_size, "{algo}");
            assert_eq!(a.attempted, b.attempted, "{algo}");
        }
    }

    #[test]
    fn missing_radii_and_bad_budgets_are_typed_errors() {
        let params = SyntheticParams {
            num_tasks: 5,
            num_workers: 5,
            ..SyntheticParams::default()
        };
        let mut instance = synthetic::generate(&params, &mut seeded_rng(3, 0));
        let server = Server::new(instance.region, 16, 0);
        let field_of = |instance: &Instance, epsilon: f64| match run_case_study(
            CaseStudyAlgorithm::Tbf,
            instance,
            &server,
            epsilon,
            0,
        ) {
            Err(PipelineError::InvalidConfig { field, .. }) => field,
            other => panic!("expected a typed config error, got {other:?}"),
        };
        assert_eq!(field_of(&instance, 0.5), "radii");
        instance.radii = Some(vec![15.0; 4]);
        assert_eq!(field_of(&instance, 0.5), "radii", "one radius short");
        instance.radii = Some(vec![15.0; 5]);
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(field_of(&instance, epsilon), "epsilon", "ε {epsilon}");
        }
        for algo in CaseStudyAlgorithm::ALL {
            assert!(run_case_study(algo, &instance, &server, 0.5, 0).is_ok());
        }
    }

    #[test]
    fn looser_budget_helps_matching_size() {
        // With ε = 5 the obfuscation is nearly exact, so reachability
        // decisions are nearly always right; ε = 0.05 should do worse on
        // average for both algorithms.
        let instance = radii_instance(4, 150, 400);
        let server = Server::new(instance.region, 32, 5);
        for algo in CaseStudyAlgorithm::ALL {
            let avg = |eps: f64| -> f64 {
                (0..4)
                    .map(|s| {
                        run_case_study(algo, &instance, &server, eps, s)
                            .unwrap()
                            .matching_size as f64
                    })
                    .sum::<f64>()
                    / 4.0
            };
            let strict = avg(0.05);
            let loose = avg(5.0);
            assert!(
                loose >= strict,
                "{algo}: ε=5 size {loose} < ε=0.05 size {strict}"
            );
        }
    }
}
