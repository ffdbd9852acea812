//! Cross-crate integration tests of the full POMBM pipelines: workload
//! generation → privacy mechanism → online matching → metric collection.

use pombm::{
    empirical_competitive_ratio, registry, run_case_study, run_spec, CaseStudyAlgorithm,
    PipelineConfig, Server,
};
use pombm_geom::seeded_rng;
use pombm_workload::{chengdu, synthetic, SyntheticParams};

/// The paper's compared algorithms (Sec. IV-A), in its plotting order.
const PAPER: [&str; 3] = ["lap-gr", "lap-hg", "tbf"];

fn avg_distance(algo: &str, instance: &pombm_workload::Instance, eps: f64, reps: u64) -> f64 {
    let spec = registry().require_spec(algo).unwrap();
    (0..reps)
        .map(|rep| {
            let config = PipelineConfig {
                epsilon: eps,
                ..PipelineConfig::default()
            };
            run_spec(&spec, instance, &config, rep)
                .unwrap()
                .metrics
                .total_distance
        })
        .sum::<f64>()
        / reps as f64
}

/// The paper's headline claim (Figs. 6-7): under a tight privacy budget, TBF
/// produces notably shorter total distances than both Laplace baselines.
#[test]
fn tbf_beats_laplace_baselines_at_tight_epsilon() {
    let params = SyntheticParams {
        num_tasks: 300,
        num_workers: 500,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(11, 0));
    let eps = 0.2;
    let reps = 5;
    let tbf = avg_distance("tbf", &instance, eps, reps);
    let lap_gr = avg_distance("lap-gr", &instance, eps, reps);
    let lap_hg = avg_distance("lap-hg", &instance, eps, reps);
    assert!(
        tbf < lap_gr && tbf < lap_hg,
        "TBF {tbf} should beat Lap-GR {lap_gr} and Lap-HG {lap_hg} at eps = {eps}"
    );
}

/// Fig. 7a's second observation: TBF is relatively insensitive to ε while
/// the Laplace baselines degrade sharply as ε → 0.2.
#[test]
fn tbf_is_less_epsilon_sensitive_than_laplace() {
    let params = SyntheticParams {
        num_tasks: 300,
        num_workers: 500,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(12, 0));
    let reps = 5;
    let sensitivity = |algo: &str| -> f64 {
        let tight = avg_distance(algo, &instance, 0.2, reps);
        let loose = avg_distance(algo, &instance, 1.0, reps);
        tight / loose
    };
    let tbf = sensitivity("tbf");
    let lap_gr = sensitivity("lap-gr");
    assert!(
        tbf < lap_gr,
        "TBF ratio (eps 0.2 / eps 1.0) {tbf} should be flatter than Lap-GR {lap_gr}"
    );
}

/// Fig. 6b: adding workers reduces total distance for every algorithm.
#[test]
fn more_workers_shorten_total_distance() {
    for algo in PAPER {
        let dist_for = |workers: usize| -> f64 {
            let params = SyntheticParams {
                num_tasks: 200,
                num_workers: workers,
                ..SyntheticParams::default()
            };
            let instance = synthetic::generate(&params, &mut seeded_rng(13, 0));
            avg_distance(algo, &instance, 0.6, 4)
        };
        let few = dist_for(250);
        let many = dist_for(1000);
        assert!(
            many < few,
            "{algo}: 1000 workers ({many}) should beat 250 workers ({few})"
        );
    }
}

/// The real-data pipeline end to end: Chengdu-like day, normalized units.
#[test]
fn chengdu_day_runs_through_all_pipelines() {
    let city = chengdu::CityModel::generate(5);
    let mut instance = chengdu::generate_day(&city, 0, 2000, 5);
    instance.tasks.truncate(400);
    instance.validate().unwrap();
    for algo in PAPER {
        let config = PipelineConfig {
            epsilon: 0.6,
            ..PipelineConfig::default()
        };
        let spec = registry().require_spec(algo).unwrap();
        let result = run_spec(&spec, &instance, &config, 0).unwrap();
        assert_eq!(result.matching.size(), 400, "{algo}");
        assert!(result.matching.is_valid(), "{algo}");
    }
}

/// The case study end to end: TBF should not lose to Prob on matching size
/// under the default setting (the paper reports 5.6%-47.7% gains).
#[test]
fn case_study_tbf_at_least_matches_prob() {
    let params = SyntheticParams {
        num_tasks: 400,
        num_workers: 800,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate_with_radii(&params, &mut seeded_rng(14, 0));
    let server = Server::new(instance.region, 32, 14);
    let avg = |algo: CaseStudyAlgorithm| -> f64 {
        (0..5)
            .map(|rep| {
                run_case_study(algo, &instance, &server, 0.6, rep)
                    .unwrap()
                    .matching_size as f64
            })
            .sum::<f64>()
            / 5.0
    };
    let prob = avg(CaseStudyAlgorithm::Prob);
    let tbf = avg(CaseStudyAlgorithm::Tbf);
    assert!(
        tbf >= prob * 0.95,
        "TBF matching size {tbf} should be at least on par with Prob {prob}"
    );
}

/// Competitive ratio sanity: the empirical ratio is finite, at least 1, and
/// within a generous multiple of the theory's scale for mid ε.
#[test]
fn competitive_ratio_is_bounded() {
    let params = SyntheticParams {
        num_tasks: 80,
        num_workers: 120,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(15, 0));
    let config = PipelineConfig {
        epsilon: 0.6,
        ..PipelineConfig::default()
    };
    let tbf = registry().require_spec("tbf").unwrap();
    let report = empirical_competitive_ratio(&tbf, &instance, &config, 5).unwrap();
    let (ratio, avg, opt) = (report.ratio, report.mean_distance, report.opt_distance);
    assert!(ratio >= 1.0 - 1e-9);
    assert!(
        ratio < 100.0,
        "ratio {ratio} (avg {avg} / opt {opt}) looks unbounded"
    );
}
