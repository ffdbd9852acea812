//! Regeneration of every figure in the paper's evaluation (Sec. IV).
//!
//! Each `fig*` function sweeps the Table II / Table III parameter it
//! reproduces, runs the compared algorithms, and returns a [`Report`] whose
//! rows mirror the paper's plotted series. Figure ids follow the paper:
//! `fig6a`–`fig6l` (synthetic sweeps × {distance, time, memory}), `fig7a`–
//! `fig7l` (ε, scalability, real data), `fig8a`–`fig8h` (case study).
//!
//! Every figure but Table I and `distortion` averages through one loop,
//! `average`, and supplies only its measurement of one repetition.
//! Repetition `rep` of a synthetic figure draws its instance from
//! `seeded_rng(seed + rep, stream)` on the figure's own instance stream.

use crate::alloc::measure_peak;
use crate::report::Report;
use pombm::{
    empirical_competitive_ratio, registry, run_case_study, run_spec, AlgorithmSpec,
    CaseStudyAlgorithm, PipelineConfig, RunResult, Server, TreeConstruction,
};
use pombm_geom::{seeded_rng, Rect};
use pombm_privacy::{Epsilon, HstMechanism};
use pombm_workload::{chengdu, synthetic, Instance, RealParams, SyntheticParams};
use rand::rngs::StdRng;
use std::convert::identity;

/// The paper's compared algorithms (Sec. IV-A), by registry name, in its
/// plotting order.
const PAPER_ALGORITHMS: [&str; 3] = ["lap-gr", "lap-hg", "tbf"];

/// Predefined-point grid side (N = side²). 64 keeps TBF's snapping floor
/// well below the Laplace baselines across the whole ε sweep.
const GRID_SIDE: usize = 64;

/// The budget of every figure that does not sweep ε: the default of
/// Tables II and III, the mid-value of both ε sweeps.
const EPSILON: f64 = SyntheticParams::EPSILONS[2];

/// The fleet of the real-data figures that do not sweep |W|: Table III's
/// default, the mid-value of its |W| sweep.
const REAL_WORKERS: usize = RealParams::WORKER_COUNTS[2];

/// Resolves a figure algorithm by registry name; the spec carries the
/// figure label its rows are plotted under.
fn spec(name: &str) -> AlgorithmSpec {
    registry()
        .require_spec(name)
        .expect("figure algorithms are registered")
}

/// Registered pairings as series, each plotted under its spec's label.
fn labelled<const N: usize>(specs: &[AlgorithmSpec; N]) -> [(&str, &AlgorithmSpec); N] {
    specs.each_ref().map(|spec| (spec.label(), spec))
}

/// Runs one registered pairing; every figure pairing is runnable.
fn run(spec: &AlgorithmSpec, instance: &Instance, pc: &PipelineConfig, rep: u64) -> RunResult {
    run_spec(spec, instance, pc, rep).expect("figure pairings are runnable")
}

/// Harness-wide configuration. No field picks a matching engine: every
/// figure times the one nearest-free-worker index of each metric (the HST
/// pool, the k-d tree), which produce the paper's scans' matchings.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Repetitions averaged per point (the paper uses 10); at least one.
    pub repetitions: u64,
    /// Shrink workloads ~10× for smoke runs.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            repetitions: 3,
            quick: false,
            seed: 2020,
        }
    }
}

impl ExperimentConfig {
    fn scale_count(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(20)
        } else {
            n
        }
    }

    fn pipeline(&self, epsilon: f64, rep: u64) -> PipelineConfig {
        PipelineConfig {
            epsilon,
            grid_side: GRID_SIDE,
            seed: self.seed.wrapping_add(rep.wrapping_mul(0x51_7E)),
            ..PipelineConfig::default()
        }
    }

    /// Table II's defaults, with |T| and |W| scaled.
    fn synthetic_params(&self) -> SyntheticParams {
        let defaults = SyntheticParams::default();
        SyntheticParams {
            num_tasks: self.scale_count(defaults.num_tasks),
            num_workers: self.scale_count(defaults.num_workers),
            ..defaults
        }
    }

    /// Repetition `rep`'s generator on one of a figure's streams: every
    /// figure draws its instances (and `dynamic` its shifts) from
    /// `seeded_rng(seed + rep, stream)`.
    fn rng(&self, stream: u64, rep: u64) -> StdRng {
        seeded_rng(self.seed.wrapping_add(rep), stream)
    }

    /// Repetition `rep`'s day of the Chengdu-like `city` with `num_workers`
    /// workers, from `generate` (plain or with reachable radii), in
    /// `chengdu::UNIT_METERS` units. Repetitions cycle through `max(reps, 3)`
    /// days; `--quick` cycles through 2 and keeps a tenth of each day's
    /// tasks.
    fn real_day(
        &self,
        generate: fn(&chengdu::CityModel, usize, usize, u64) -> Instance,
        city: &chengdu::CityModel,
        num_workers: usize,
        rep: u64,
    ) -> Instance {
        let days = if self.quick {
            2
        } else {
            self.repetitions.max(3)
        };
        let mut inst = generate(city, (rep % days) as usize, num_workers, self.seed);
        if self.quick {
            inst.tasks.truncate(self.scale_count(inst.tasks.len()));
        }
        inst
    }

    /// Repetition `rep`'s server, for the figures that build their own.
    fn server(&self, region: Rect, construction: TreeConstruction, rep: u64) -> Server {
        let seed = self.seed ^ rep.wrapping_mul(0x9E37_79B9);
        Server::with_construction(region, GRID_SIDE, seed, construction)
    }
}

/// The one averaging loop behind every figure. For each x-value, then each
/// series, runs `measure(x, series, rep)` for every repetition, averages
/// each of its `K` values, and pushes one row per `(figure id, metric)`
/// pair of `ids` and `metrics`, in that order.
fn average<S: Copy, const K: usize>(
    cfg: &ExperimentConfig,
    ids: [&str; K],
    metrics: [&str; K],
    x_label: &str,
    xs: &[f64],
    series: &[(&str, S)],
    mut measure: impl FnMut(f64, S, u64) -> [f64; K],
) -> Report {
    let reps = cfg.repetitions;
    let mut report = Report::new();
    for &x in xs {
        for &(label, s) in series {
            let mut sums = [0.0; K];
            for rep in 0..reps {
                for (sum, value) in sums.iter_mut().zip(measure(x, s, rep)) {
                    *sum += value;
                }
            }
            for ((id, metric), sum) in ids.into_iter().zip(metrics).zip(sums) {
                report.push(
                    id,
                    x_label,
                    x,
                    label,
                    metric,
                    sum / reps as f64,
                    reps as u32,
                );
            }
        }
    }
    report
}

/// One Fig. 6/7 column: the compared algorithms' total distance, running
/// time and peak memory under figure ids `ids`, on repetition `rep`'s
/// instance `instance(x, rep)` at budget `eps_of(x)`.
fn paper_figure(
    cfg: &ExperimentConfig,
    ids: [&str; 3],
    x_label: &str,
    xs: &[f64],
    eps_of: impl Fn(f64) -> f64,
    mut instance: impl FnMut(f64, u64) -> Instance,
) -> Report {
    let algos = PAPER_ALGORITHMS.map(spec);
    let series = labelled(&algos);
    let metrics = ["total_distance", "running_time_s", "memory_mb"];
    average(cfg, ids, metrics, x_label, xs, &series, |x, algo, rep| {
        let instance = instance(x, rep);
        let pc = cfg.pipeline(eps_of(x), rep);
        let (result, peak) = measure_peak(|| run(algo, &instance, &pc, rep));
        let m = result.metrics;
        let mb = peak as f64 / (1024.0 * 1024.0);
        [m.total_distance, m.assign_time.as_secs_f64(), mb]
    })
}

/// Fig. 6, columns 1–4: varying |T|, |W|, µ and σ on synthetic data.
pub fn fig6(cfg: &ExperimentConfig) -> Report {
    let base = cfg.synthetic_params();
    let scaled = |counts: [usize; 5]| counts.map(|n| cfg.scale_count(n) as f64);
    let tasks = scaled(SyntheticParams::TASK_COUNTS);
    let workers = scaled(SyntheticParams::WORKER_COUNTS);
    let (mus, sigmas) = (SyntheticParams::MUS, SyntheticParams::SIGMAS);
    let eps = |_| EPSILON;
    let mut report = Report::new();
    for (ids, x_label, xs) in [
        (["fig6a", "fig6e", "fig6i"], "|T|", tasks),
        (["fig6b", "fig6f", "fig6j"], "|W|", workers),
        (["fig6c", "fig6g", "fig6k"], "mu", mus),
        (["fig6d", "fig6h", "fig6l"], "sigma", sigmas),
    ] {
        report.extend(paper_figure(cfg, ids, x_label, &xs, eps, |x, rep| {
            let mut params = base;
            match x_label {
                "|T|" => params.num_tasks = x as usize,
                "|W|" => params.num_workers = x as usize,
                "mu" => params.mu = x,
                _ => params.sigma = x,
            }
            synthetic::generate(&params, &mut cfg.rng(0x6A, rep))
        }));
    }
    report
}

/// Fig. 7, column 1: varying ε on synthetic data.
pub fn fig7_eps(cfg: &ExperimentConfig) -> Report {
    let params = cfg.synthetic_params();
    let (ids, xs) = (["fig7a", "fig7e", "fig7i"], SyntheticParams::EPSILONS);
    paper_figure(cfg, ids, "epsilon", &xs, identity, |_, rep| {
        synthetic::generate(&params, &mut cfg.rng(0x7E, rep))
    })
}

/// Fig. 7, column 2: scalability (|T| = |W| up to 10⁵).
pub fn fig7_scale(cfg: &ExperimentConfig) -> Report {
    let eps = |_| EPSILON;
    let mut params = SyntheticParams::default();
    let xs = SyntheticParams::SCALABILITY.map(|n| cfg.scale_count(n) as f64);
    let ids = ["fig7b", "fig7f", "fig7j"];
    paper_figure(cfg, ids, "|T|=|W|", &xs, eps, |n, rep| {
        (params.num_tasks, params.num_workers) = (n as usize, n as usize);
        synthetic::generate(&params, &mut cfg.rng(0x5C, rep))
    })
}

/// Fig. 7, columns 3–4: the Chengdu-like real workload, varying |W| and ε.
///
/// Repetitions iterate over simulated days (the paper averages 30 days).
pub fn fig7_real(cfg: &ExperimentConfig) -> Report {
    let city = chengdu::CityModel::generate(cfg.seed);
    let day = |w: f64, rep| cfg.real_day(chengdu::generate_day, &city, w as usize, rep);
    let eps = |_| EPSILON;
    let xs = RealParams::WORKER_COUNTS.map(|w| cfg.scale_count(w) as f64);
    let mut report = paper_figure(cfg, ["fig7c", "fig7g", "fig7k"], "|W|", &xs, eps, day);
    let w_default = cfg.scale_count(REAL_WORKERS) as f64;
    let fixed_w = |_, rep| day(w_default, rep);
    let (ids, xs) = (["fig7d", "fig7h", "fig7l"], RealParams::EPSILONS);
    report.extend(paper_figure(cfg, ids, "epsilon", &xs, identity, fixed_w));
    report
}

/// One Fig. 8 column: Prob's and TBF's matching size and running time
/// under figure ids `ids`, on repetition `rep`'s instance `instance(x, rep)`
/// at budget `eps_of(x)`. Only TBF builds a server.
fn case_study_figure(
    cfg: &ExperimentConfig,
    ids: [&str; 2],
    x_label: &str,
    xs: &[f64],
    eps_of: impl Fn(f64) -> f64,
    mut instance: impl FnMut(f64, u64) -> Instance,
) -> Report {
    let series = CaseStudyAlgorithm::ALL.map(|algo| (algo.label(), algo));
    let metrics = ["matching_size", "running_time_s"];
    average(cfg, ids, metrics, x_label, xs, &series, |x, algo, rep| {
        let instance = instance(x, rep);
        let server = (algo == CaseStudyAlgorithm::Tbf)
            .then(|| cfg.server(instance.region, TreeConstruction::Frt, rep));
        let seed = cfg.seed.wrapping_add(rep);
        let r = run_case_study(algo, &instance, server.as_ref(), eps_of(x), seed)
            .expect("case-study instances carry radii");
        [r.matching_size as f64, r.assign_time.as_secs_f64()]
    })
}

/// Fig. 8, columns 1–2: case study on synthetic data (vary |W|, vary ε).
pub fn fig8_syn(cfg: &ExperimentConfig) -> Report {
    let base = cfg.synthetic_params();
    let eps = |_| EPSILON;
    let instance = |params, rep| synthetic::generate_with_radii(&params, &mut cfg.rng(0x8A, rep));
    let xs = SyntheticParams::WORKER_COUNTS.map(|w| cfg.scale_count(w) as f64);
    let mut report = case_study_figure(cfg, ["fig8a", "fig8e"], "|W|", &xs, eps, |w, rep| {
        let mut params = base;
        params.num_workers = w as usize;
        instance(params, rep)
    });
    let fixed_w = |_, rep| instance(base, rep);
    let (ids, xs) = (["fig8b", "fig8f"], SyntheticParams::EPSILONS);
    let by_eps = case_study_figure(cfg, ids, "epsilon", &xs, identity, fixed_w);
    report.extend(by_eps);
    report
}

/// Fig. 8, columns 3–4: case study on the Chengdu-like workload.
pub fn fig8_real(cfg: &ExperimentConfig) -> Report {
    let city = chengdu::CityModel::generate(cfg.seed);
    let generate = chengdu::generate_day_with_radii;
    let day = |w: f64, rep| cfg.real_day(generate, &city, w as usize, rep);
    let eps = |_| EPSILON;
    let xs = RealParams::WORKER_COUNTS.map(|w| cfg.scale_count(w) as f64);
    let mut report = case_study_figure(cfg, ["fig8c", "fig8g"], "|W|", &xs, eps, day);
    let w_default = cfg.scale_count(REAL_WORKERS) as f64;
    let fixed_w = |_, rep| day(w_default, rep);
    let (ids, xs) = (["fig8d", "fig8h"], RealParams::EPSILONS);
    let by_eps = case_study_figure(cfg, ids, "epsilon", &xs, identity, fixed_w);
    report.extend(by_eps);
    report
}

/// Table I: the weights and per-leaf probabilities of the worked example
/// (ε = 0.1 on the Example 1 tree), rendered as the paper prints them.
pub fn table1() -> String {
    use pombm_geom::{Point, PointSet};
    use pombm_hst::{FixedDraw, Hst};
    let points = PointSet::new(vec![
        Point::new(1.0, 1.0),
        Point::new(2.0, 3.0),
        Point::new(5.0, 3.0),
        Point::new(4.0, 4.0),
    ]);
    let draw = FixedDraw {
        beta: 0.5,
        permutation: vec![0, 1, 2, 3],
    };
    let hst = Hst::build_fixed(&points, draw);
    let mech = HstMechanism::new(&hst, Epsilon::new(0.1));
    let mut out = String::from(
        "Table I (eps = 0.1, Example 1 tree)\nlevel  |L_i(o1)|        wt_i   probability\n",
    );
    for level in 0..=hst.depth() {
        let count = if level == 0 {
            1
        } else {
            hst.ctx().sibling_leaves_at(level)
        };
        out.push_str(&format!(
            "{level:>5}  {count:>9}  {:>10.3}  {:>12.3}\n",
            mech.table().wt(level),
            mech.table().leaf_probability(level),
        ));
    }
    out
}

/// Empirical competitive ratios (extension experiment `ratio`): TBF and the
/// baselines against the exact offline optimum, swept over ε.
pub fn ratio(cfg: &ExperimentConfig) -> Report {
    // OPT is cubic-ish; keep instances modest.
    let (num_tasks, num_workers) = if cfg.quick { (40, 60) } else { (200, 300) };
    let mut params = SyntheticParams::default();
    (params.num_tasks, params.num_workers) = (num_tasks, num_workers);
    let algos = PAPER_ALGORITHMS.map(spec);
    // Repetition 0 of each point solves OPT once and runs every repetition
    // on shuffled arrivals of one instance; each repetition's measurement
    // is its own distance over OPT, whose mean is the report's `ratio`.
    let mut point = None;
    let measure = |eps, algo, rep: u64| {
        if rep == 0 {
            let instance = synthetic::generate(&params, &mut cfg.rng(0x0C, 0));
            let pc = cfg.pipeline(eps, 0);
            let report = empirical_competitive_ratio(algo, &instance, &pc, cfg.repetitions)
                .expect("ratio experiment instances are non-degenerate");
            point = Some(report);
        }
        let r = point.as_ref().expect("measured at repetition 0");
        [r.distances[rep as usize] / r.opt_distance]
    };
    let (ids, metrics) = (["ratio"], ["competitive_ratio"]);
    let (xs, series) = (SyntheticParams::EPSILONS, labelled(&algos));
    average(cfg, ids, metrics, "epsilon", &xs, &series, measure)
}

/// Ablation `gridsweep`: TBF total distance and server setup cost as a
/// function of the predefined-grid resolution (N = side²). TBF's
/// total-distance floor is the snapping error, which shrinks with N while
/// the one-time construction cost grows with it; this is the knob behind
/// TBF's loose-ε crossovers with Lap-GR.
pub fn grid_sweep(cfg: &ExperimentConfig) -> Report {
    let params = cfg.synthetic_params();
    let tbf = spec("tbf");
    let measure = |n: f64, tbf, rep| {
        let instance = synthetic::generate(&params, &mut cfg.rng(0x9D, rep));
        let mut pc = cfg.pipeline(EPSILON, rep);
        // N is a perfect square, so its square root is exact.
        pc.grid_side = n.sqrt() as usize;
        let m = run(tbf, &instance, &pc, rep).metrics;
        [m.total_distance, m.setup_time.as_secs_f64()]
    };
    let xs = [16usize, 32, 48, 64, 96].map(|side| (side * side) as f64);
    let (ids, metrics) = (["gridsweep"; 2], ["total_distance", "setup_time_s"]);
    average(cfg, ids, metrics, "N", &xs, &[("TBF", &tbf)], measure)
}

/// Ablation: tree distance of the obfuscated leaf vs the exact leaf as a
/// function of ε — the empirical counterpart of Lemmas 1–2's distortion
/// window.
pub fn distortion(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let server = Server::new(pombm_geom::Rect::square(200.0), 32, cfg.seed);
    let mut rng = seeded_rng(cfg.seed, 0xD15);
    let samples = if cfg.quick { 200 } else { 2000 };
    for &eps in &SyntheticParams::EPSILONS {
        let mech = HstMechanism::new(server.hst(), Epsilon::new(eps));
        let mut total = 0.0;
        for _ in 0..samples {
            let p = pombm_geom::Point::new(
                rand::Rng::gen::<f64>(&mut rng) * 200.0,
                rand::Rng::gen::<f64>(&mut rng) * 200.0,
            );
            let x = server.snap(&p);
            let z = mech.obfuscate(server.hst(), x, &mut rng);
            total += server.hst().tree_dist(x, z);
        }
        report.push(
            "distortion",
            "epsilon",
            eps,
            "TBF",
            "mean_displacement",
            total / samples as f64,
            samples as u32,
        );
    }
    report
}

/// Ablation `ablatemech`: mechanism head-to-head under the *same* matcher.
///
/// TBF (HST mechanism), Exp-HG (exponential mechanism over the same grid)
/// and Lap-HG (planar Laplace snapped to the grid) all feed HST-greedy, and
/// the Random floor calibrates the headroom. Separates "discretize to the
/// predefined points" from "obfuscate *on the tree*" — the paper's design
/// choice that Sec. III motivates but never isolates.
pub fn ablate_mech(cfg: &ExperimentConfig) -> Report {
    let params = cfg.synthetic_params();
    let algos = ["tbf", "exp-hg", "lap-hg", "random"].map(spec);
    let measure = |eps, algo, rep| {
        let instance = synthetic::generate(&params, &mut cfg.rng(0xAB, rep));
        let m = run(algo, &instance, &cfg.pipeline(eps, rep), rep).metrics;
        [m.total_distance]
    };
    let (ids, metrics) = (["ablatemech"], ["total_distance"]);
    let (xs, series) = (SyntheticParams::EPSILONS, labelled(&algos));
    average(cfg, ids, metrics, "epsilon", &xs, &series, measure)
}

/// Ablation `ablatealg`: online assignment rules under the *same* TBF
/// mechanism — greedy (Alg. 4), randomized greedy (Meyerson et al.) and
/// chain reassignment (Bansal et al.) — total distance and assignment time.
pub fn ablate_alg(cfg: &ExperimentConfig) -> Report {
    let params = cfg.synthetic_params();
    let algos = ["tbf", "tbf-rand", "tbf-chain"].map(spec);
    let measure = |eps, algo, rep| {
        let instance = synthetic::generate(&params, &mut cfg.rng(0xA1, rep));
        let m = run(algo, &instance, &cfg.pipeline(eps, rep), rep).metrics;
        [m.total_distance, m.assign_time.as_secs_f64()]
    };
    let (ids, metrics) = (["ablatealg"; 2], ["total_distance", "running_time_s"]);
    let (xs, series) = (SyntheticParams::EPSILONS, labelled(&algos));
    average(cfg, ids, metrics, "epsilon", &xs, &series, measure)
}

/// Extension `epochs`: multi-epoch deployment under a lifetime budget.
///
/// Per-epoch total distance, fresh-report fraction and mean report
/// staleness as worker budgets exhaust (see `pombm::epochs`).
pub fn epochs(cfg: &ExperimentConfig) -> Report {
    use pombm::EpochConfig;
    let num_workers = if cfg.quick { 150 } else { 1000 };
    let mut epoch_cfg = EpochConfig {
        num_epochs: 12,
        lifetime_epsilon: 2.4, // 4 fresh reports at the default per-epoch ε
        epoch_epsilon: EPSILON,
        tasks_per_epoch: if cfg.quick { 60 } else { 400 },
        seed: cfg.seed,
        ..EpochConfig::default()
    };
    let xs: Vec<f64> = (0..epoch_cfg.num_epochs).map(|e| e as f64).collect();
    let hst = registry().require_mechanism("hst").expect("registered");
    // One run per repetition measures every epoch; epoch 0's points run
    // them, the later epochs read them.
    let mut runs = Vec::new();
    let measure = |e: f64, (), rep: u64| {
        if runs.len() == rep as usize {
            epoch_cfg.seed = cfg.seed.wrapping_add(rep.wrapping_mul(0xEAC7));
            let run = pombm::run_epochs(num_workers, &epoch_cfg, hst.as_ref())
                .expect("the hst mechanism reports tree leaves");
            runs.push(run);
        }
        let m = &runs[rep as usize].per_epoch[e as usize];
        let fresh = m.fresh_reports as f64 / num_workers as f64;
        [m.total_distance, m.avg_report_staleness, fresh]
    };
    let (ids, series) = (["epochs"; 3], [("TBF", ())]);
    let metrics = ["total_distance", "avg_staleness", "fresh_fraction"];
    average(cfg, ids, metrics, "epoch", &xs, &series, measure)
}

/// Extension `dynamic`: shift-based fleets. Sweeps fleet coverage (mean
/// shift length / horizon) and reports assignment rate and mean per-task
/// distance (see `pombm::dynamic`).
pub fn dynamic(cfg: &ExperimentConfig) -> Report {
    use pombm::{even_task_times, run_dynamic_spec, DynamicConfig};
    use pombm_workload::shifts::ShiftPlan;
    let (tasks, workers) = if cfg.quick { (120, 240) } else { (1500, 3000) };
    let horizon = 1000.0;
    let mut params = SyntheticParams::default();
    (params.num_tasks, params.num_workers) = (tasks, workers);
    let mechanism = registry().require_mechanism("hst").expect("registered");
    let matcher = registry()
        .require_dynamic_matcher("hst-greedy")
        .expect("registered");
    let durations: [(f64, f64); 5] = [
        (25.0, 75.0),
        (100.0, 200.0),
        (300.0, 500.0),
        (600.0, 800.0),
        (900.0, 1000.0),
    ];
    // Points are swept by index into `durations` and plotted below at
    // their mean coverage, which the runs measure.
    let mut coverage = [0.0f64; 5];
    let measure = |i: f64, (), rep| {
        let (lo, hi) = durations[i as usize];
        let instance = synthetic::generate(&params, &mut cfg.rng(0xDF, rep));
        let times = even_task_times(tasks, horizon * 0.99);
        let plan = ShiftPlan::uniform(workers, horizon, lo, hi, &mut cfg.rng(0xD1, rep));
        let dyn_cfg = DynamicConfig {
            epsilon: EPSILON,
            grid_side: 32,
            seed: cfg.seed.wrapping_add(rep),
        };
        let (mechanism, matcher) = (mechanism.as_ref(), matcher.as_ref());
        let out = run_dynamic_spec(&instance, &times, &plan, &dyn_cfg, mechanism, matcher)
            .expect("the tbf pairing drives the fleet");
        coverage[i as usize] += plan.mean_coverage();
        let pairs = out.pairs.len();
        let avg_dist = if pairs == 0 {
            0.0
        } else {
            out.total_distance / pairs as f64
        };
        [out.assignment_rate(), avg_dist]
    };
    let (ids, metrics) = (["dynamic"; 2], ["assignment_rate", "avg_task_distance"]);
    let (xs, series) = ([0.0, 1.0, 2.0, 3.0, 4.0], [("TBF", ())]);
    let mut report = average(cfg, ids, metrics, "coverage", &xs, &series, measure);
    let reps = cfg.repetitions as f64;
    for row in &mut report.rows {
        row.x = (coverage[row.x as usize] / reps * 1000.0).round() / 1000.0;
    }
    report
}

/// Ablation `ablatetree`: the paper's randomized FRT construction (Alg. 1)
/// vs a deterministic quadtree, same mechanism and matcher. FRT's random
/// boundaries are what keep the *expected* stretch `O(log N)`; the
/// quadtree's fixed dyadic cuts leave boundary-straddling pairs with
/// `Θ(2^D)` tree distance, which this experiment surfaces as a total-
/// distance gap.
pub fn ablate_tree(cfg: &ExperimentConfig) -> Report {
    let params = cfg.synthetic_params();
    let tbf = spec("tbf");
    let measure = |eps, construction, rep| {
        let instance = synthetic::generate(&params, &mut cfg.rng(0xA7, rep));
        let server = cfg.server(instance.region, construction, rep);
        let pc = cfg.pipeline(eps, rep);
        let r = pombm::run_spec_with_server(&tbf, &instance, &pc, Some(&server), rep)
            .expect("tbf runs on a prebuilt server");
        [r.metrics.total_distance]
    };
    let series = [
        ("TBF-FRT", TreeConstruction::Frt),
        ("TBF-Quadtree", TreeConstruction::Quadtree),
    ];
    let (ids, metrics) = (["ablatetree"], ["total_distance"]);
    let xs = SyntheticParams::EPSILONS;
    average(cfg, ids, metrics, "epsilon", &xs, &series, measure)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny config so every sweep finishes in test time.
    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            repetitions: 1,
            quick: true,
            seed: 1,
        }
    }

    #[test]
    fn table1_matches_paper_probabilities() {
        let t = table1();
        for expected in ["0.394", "0.264", "0.119", "0.024", "0.001"] {
            assert!(t.contains(expected), "Table I missing {expected}:\n{t}");
        }
    }

    #[test]
    fn distortion_decreases_with_epsilon() {
        let report = distortion(&tiny());
        let rows: Vec<f64> = report.rows.iter().map(|r| r.value).collect();
        assert_eq!(rows.len(), SyntheticParams::EPSILONS.len());
        assert!(
            rows.first().unwrap() > rows.last().unwrap(),
            "displacement should shrink as ε grows: {rows:?}"
        );
    }

    #[test]
    fn epochs_reports_all_metrics_per_epoch() {
        let report = epochs(&tiny());
        // 12 epochs × 3 metrics.
        assert_eq!(report.rows.len(), 36);
        assert!(report.rows.iter().all(|r| r.figure == "epochs"));
    }

    #[test]
    fn ablate_tree_produces_both_series() {
        let report = ablate_tree(&tiny());
        let labels: std::collections::HashSet<_> =
            report.rows.iter().map(|r| r.series.clone()).collect();
        assert!(labels.contains("TBF-FRT"));
        assert!(labels.contains("TBF-Quadtree"));
        assert_eq!(report.rows.len(), 2 * SyntheticParams::EPSILONS.len());
        assert!(report.rows.iter().all(|r| r.value > 0.0));
    }

    #[test]
    fn dynamic_assignment_rate_is_a_probability() {
        let report = dynamic(&tiny());
        for row in report.rows.iter().filter(|r| r.metric == "assignment_rate") {
            assert!((0.0..=1.0).contains(&row.value), "{row:?}");
        }
    }
}
