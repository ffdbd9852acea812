//! Regeneration of every figure in the paper's evaluation (Sec. IV).
//!
//! Each `fig*` function sweeps the Table II / Table III parameter it
//! reproduces, runs the compared algorithms, and returns a [`Report`] whose
//! rows mirror the paper's plotted series. Figure ids follow the paper:
//! `fig6a`–`fig6l` (synthetic sweeps × {distance, time, memory}), `fig7a`–
//! `fig7l` (ε, scalability, real data), `fig8a`–`fig8h` (case study).

use crate::alloc::measure_peak;
use crate::report::Report;
use pombm::{
    registry, run_case_study, run_spec, AlgorithmSpec, CaseStudyAlgorithm, PipelineConfig,
    RunResult, Server,
};
use pombm_geom::seeded_rng;
use pombm_matching::reachable::{ProbMatcher, DEFAULT_THRESHOLD};
use pombm_privacy::reach::ReachTable;
use pombm_privacy::{Epsilon, HstMechanism, PlanarLaplace};
use pombm_workload::{chengdu, synthetic, Instance, RealParams, SyntheticParams};
use std::time::Instant;

/// Chengdu-like traces are generated in meters over 10 km and normalized to
/// 50 m units (10 km → 200 units) so ε carries the same meaning on synthetic
/// and real workloads; see `Instance::scaled`.
pub const REAL_UNIT_METERS: f64 = 50.0;

/// The paper's compared algorithms (Sec. IV-A), by registry name, in its
/// plotting order.
const PAPER_ALGORITHMS: [&str; 3] = ["lap-gr", "lap-hg", "tbf"];

/// Resolves a figure algorithm by registry name; the spec carries the
/// figure label its rows are plotted under.
fn spec(name: &str) -> AlgorithmSpec {
    registry()
        .require_spec(name)
        .expect("figure algorithms are registered")
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
    /// Repetitions averaged per point (the paper uses 10).
    pub repetitions: u64,
    /// Shrink workloads ~10× for smoke runs.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Predefined-point grid side (N = grid_side²). 64 keeps TBF's snapping
    /// floor well below the Laplace baselines across the whole ε sweep.
    pub grid_side: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            repetitions: 3,
            quick: false,
            seed: 2020,
            grid_side: 64,
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
            grid_side: self.grid_side,
            seed: self.seed.wrapping_add(rep.wrapping_mul(0x51_7E)),
            ..PipelineConfig::default()
        }
    }
}

/// Runs the three main algorithms over one synthetic parameter sweep,
/// recording total distance, running time and memory under the three figure
/// ids of one Fig. 6/7 column.
fn sweep_main<FParams>(
    cfg: &ExperimentConfig,
    ids: [&str; 3],
    x_label: &str,
    xs: &[f64],
    mut make_instance: FParams,
) -> Report
where
    FParams: FnMut(f64, u64) -> Instance,
{
    let mut report = Report::new();
    let algos = PAPER_ALGORITHMS.map(spec);
    for &x in xs {
        for algo in &algos {
            let mut dist = 0.0;
            let mut secs = 0.0;
            let mut mem_mb = 0.0;
            for rep in 0..cfg.repetitions {
                let instance = make_instance(x, rep);
                let pc = cfg.pipeline(instance_epsilon(&instance, cfg), rep);
                let (result, peak) = measure_peak(|| run(algo, &instance, &pc, rep));
                dist += result.metrics.total_distance;
                secs += result.metrics.assign_time.as_secs_f64();
                mem_mb += peak as f64 / (1024.0 * 1024.0);
            }
            let r = cfg.repetitions as f64;
            report.push(
                ids[0],
                x_label,
                x,
                algo.label(),
                "total_distance",
                dist / r,
                cfg.repetitions as u32,
            );
            report.push(
                ids[1],
                x_label,
                x,
                algo.label(),
                "running_time_s",
                secs / r,
                cfg.repetitions as u32,
            );
            report.push(
                ids[2],
                x_label,
                x,
                algo.label(),
                "memory_mb",
                mem_mb / r,
                cfg.repetitions as u32,
            );
        }
    }
    report
}

// Epsilon riding along on the instance: sweeps that vary ε stash it in a
// thread-local; all other sweeps use the default.
std::thread_local! {
    static EPSILON_OVERRIDE: std::cell::Cell<Option<f64>> = const { std::cell::Cell::new(None) };
}

fn with_epsilon<T>(eps: f64, f: impl FnOnce() -> T) -> T {
    EPSILON_OVERRIDE.with(|c| c.set(Some(eps)));
    let out = f();
    EPSILON_OVERRIDE.with(|c| c.set(None));
    out
}

fn instance_epsilon(_instance: &Instance, _cfg: &ExperimentConfig) -> f64 {
    EPSILON_OVERRIDE
        .with(|c| c.get())
        .unwrap_or(SyntheticParams::default().epsilon)
}

/// Fig. 6, columns 1–4: varying |T|, |W|, µ and σ on synthetic data.
pub fn fig6(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let gen = |params: SyntheticParams, cfg: &ExperimentConfig, rep: u64| {
        synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0x6A))
    };

    // Column 1: |T|.
    let xs: Vec<f64> = SyntheticParams::TASK_COUNTS
        .iter()
        .map(|&t| cfg.scale_count(t) as f64)
        .collect();
    report.extend(sweep_main(
        cfg,
        ["fig6a", "fig6e", "fig6i"],
        "|T|",
        &xs,
        |x, rep| {
            let params = SyntheticParams {
                num_tasks: x as usize,
                num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
                ..SyntheticParams::default()
            };
            gen(params, cfg, rep)
        },
    ));

    // Column 2: |W|.
    let xs: Vec<f64> = SyntheticParams::WORKER_COUNTS
        .iter()
        .map(|&w| cfg.scale_count(w) as f64)
        .collect();
    report.extend(sweep_main(
        cfg,
        ["fig6b", "fig6f", "fig6j"],
        "|W|",
        &xs,
        |x, rep| {
            let params = SyntheticParams {
                num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
                num_workers: x as usize,
                ..SyntheticParams::default()
            };
            gen(params, cfg, rep)
        },
    ));

    // Column 3: µ.
    report.extend(sweep_main(
        cfg,
        ["fig6c", "fig6g", "fig6k"],
        "mu",
        &SyntheticParams::MUS,
        |x, rep| {
            let params = SyntheticParams {
                num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
                num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
                mu: x,
                ..SyntheticParams::default()
            };
            gen(params, cfg, rep)
        },
    ));

    // Column 4: σ.
    report.extend(sweep_main(
        cfg,
        ["fig6d", "fig6h", "fig6l"],
        "sigma",
        &SyntheticParams::SIGMAS,
        |x, rep| {
            let params = SyntheticParams {
                num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
                num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
                sigma: x,
                ..SyntheticParams::default()
            };
            gen(params, cfg, rep)
        },
    ));

    report
}

/// Fig. 7, column 1: varying ε on synthetic data.
pub fn fig7_eps(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    for &eps in &SyntheticParams::EPSILONS {
        let partial = with_epsilon(eps, || {
            sweep_main(
                cfg,
                ["fig7a", "fig7e", "fig7i"],
                "epsilon",
                &[eps],
                |_, rep| {
                    let params = SyntheticParams {
                        num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
                        num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
                        epsilon: eps,
                        ..SyntheticParams::default()
                    };
                    synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0x7E))
                },
            )
        });
        report.extend(partial);
    }
    report
}

/// Fig. 7, column 2: scalability (|T| = |W| up to 10⁵).
pub fn fig7_scale(cfg: &ExperimentConfig) -> Report {
    let xs: Vec<f64> = SyntheticParams::SCALABILITY
        .iter()
        .map(|&n| cfg.scale_count(n) as f64)
        .collect();
    sweep_main(
        cfg,
        ["fig7b", "fig7f", "fig7j"],
        "|T|=|W|",
        &xs,
        |x, rep| {
            let params = SyntheticParams {
                num_tasks: x as usize,
                num_workers: x as usize,
                ..SyntheticParams::default()
            };
            synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0x5C))
        },
    )
}

/// Fig. 7, columns 3–4: the Chengdu-like real workload, varying |W| and ε.
///
/// Repetitions iterate over simulated days (the paper averages 30 days).
pub fn fig7_real(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let city = chengdu::CityModel::generate(cfg.seed);
    let days = if cfg.quick { 2 } else { cfg.repetitions.max(3) } as usize;

    // Column 3: |W| sweep at default ε.
    for &w in &RealParams::WORKER_COUNTS {
        let w_scaled = cfg.scale_count(w);
        let partial = sweep_main(
            cfg,
            ["fig7c", "fig7g", "fig7k"],
            "|W|",
            &[w_scaled as f64],
            |_, rep| real_day_instance(&city, rep as usize % days, w_scaled, cfg),
        );
        report.extend(partial);
    }

    // Column 4: ε sweep at default |W|.
    let w_default = cfg.scale_count(RealParams::default().num_workers);
    for &eps in &RealParams::EPSILONS {
        let partial = with_epsilon(eps, || {
            sweep_main(
                cfg,
                ["fig7d", "fig7h", "fig7l"],
                "epsilon",
                &[eps],
                |_, rep| real_day_instance(&city, rep as usize % days, w_default, cfg),
            )
        });
        report.extend(partial);
    }
    report
}

fn real_day_instance(
    city: &chengdu::CityModel,
    day: usize,
    num_workers: usize,
    cfg: &ExperimentConfig,
) -> Instance {
    let mut inst =
        chengdu::generate_day(city, day, num_workers, cfg.seed).scaled(1.0 / REAL_UNIT_METERS);
    if cfg.quick {
        inst.tasks.truncate(cfg.scale_count(inst.tasks.len()));
    }
    inst
}

/// Case-study runner shared by `fig8_*`: returns (matching size, seconds).
fn case_study_point(
    cfg: &ExperimentConfig,
    instance: &Instance,
    algo: CaseStudyAlgorithm,
    eps: f64,
    rep: u64,
) -> (f64, f64) {
    match algo {
        CaseStudyAlgorithm::Tbf => {
            let server = Server::new(
                instance.region,
                cfg.grid_side,
                cfg.seed ^ rep.wrapping_mul(0x9E37_79B9),
            );
            let r = run_case_study(algo, instance, &server, eps, cfg.seed.wrapping_add(rep))
                .expect("case-study instances carry radii");
            (r.matching_size as f64, r.assign_time.as_secs_f64())
        }
        CaseStudyAlgorithm::Prob => {
            // Table-accelerated Prob (identical decisions up to interpolation
            // error, O(1) per probability query).
            let radii = instance.radii.as_ref().expect("case study needs radii");
            let epsilon = Epsilon::new(eps);
            let mut rng = seeded_rng(cfg.seed.wrapping_add(rep), 0xCA5E);
            let laplace = PlanarLaplace::new(epsilon);
            let workers: Vec<_> = instance
                .workers
                .iter()
                .map(|w| laplace.obfuscate(w, &mut rng))
                .collect();
            let tasks: Vec<_> = instance
                .tasks
                .iter()
                .map(|t| laplace.obfuscate(t, &mut rng))
                .collect();
            let max_radius = radii.iter().fold(0.0f64, |a, &b| a.max(b));
            let table = ReachTable::with_defaults(
                epsilon,
                instance.region.diameter() + 8.0 / eps,
                max_radius,
                cfg.seed,
            );
            let mut matcher = ProbMatcher::new(workers, radii.clone(), table, DEFAULT_THRESHOLD);
            // lint: allow(DET-TIME) — feeds the figure's running-time axis,
            // which is measured, not golden-checked.
            let start = Instant::now();
            let mut matched = 0usize;
            for (t_idx, t) in tasks.iter().enumerate() {
                if let Some(w_idx) = matcher.assign(t) {
                    if instance.tasks[t_idx].dist(&instance.workers[w_idx]) <= radii[w_idx] {
                        matched += 1;
                    }
                }
            }
            (matched as f64, start.elapsed().as_secs_f64())
        }
    }
}

fn sweep_case_study<FInst>(
    cfg: &ExperimentConfig,
    ids: [&str; 2],
    x_label: &str,
    xs: &[f64],
    eps_of: impl Fn(f64) -> f64,
    mut make_instance: FInst,
) -> Report
where
    FInst: FnMut(f64, u64) -> Instance,
{
    let mut report = Report::new();
    for &x in xs {
        for algo in CaseStudyAlgorithm::ALL {
            let mut size = 0.0;
            let mut secs = 0.0;
            for rep in 0..cfg.repetitions {
                let instance = make_instance(x, rep);
                let (s, t) = case_study_point(cfg, &instance, algo, eps_of(x), rep);
                size += s;
                secs += t;
            }
            let r = cfg.repetitions as f64;
            report.push(
                ids[0],
                x_label,
                x,
                algo.label(),
                "matching_size",
                size / r,
                cfg.repetitions as u32,
            );
            report.push(
                ids[1],
                x_label,
                x,
                algo.label(),
                "running_time_s",
                secs / r,
                cfg.repetitions as u32,
            );
        }
    }
    report
}

/// Fig. 8, columns 1–2: case study on synthetic data (vary |W|, vary ε).
pub fn fig8_syn(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let default_eps = SyntheticParams::default().epsilon;
    let gen = |tasks: usize, workers: usize, rep: u64, cfg: &ExperimentConfig| {
        let params = SyntheticParams {
            num_tasks: tasks,
            num_workers: workers,
            ..SyntheticParams::default()
        };
        synthetic::generate_with_radii(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0x8A))
    };

    let xs: Vec<f64> = SyntheticParams::WORKER_COUNTS
        .iter()
        .map(|&w| cfg.scale_count(w) as f64)
        .collect();
    report.extend(sweep_case_study(
        cfg,
        ["fig8a", "fig8e"],
        "|W|",
        &xs,
        |_| default_eps,
        |x, rep| {
            gen(
                cfg.scale_count(SyntheticParams::default().num_tasks),
                x as usize,
                rep,
                cfg,
            )
        },
    ));

    report.extend(sweep_case_study(
        cfg,
        ["fig8b", "fig8f"],
        "epsilon",
        &SyntheticParams::EPSILONS,
        |x| x,
        |_, rep| {
            gen(
                cfg.scale_count(SyntheticParams::default().num_tasks),
                cfg.scale_count(SyntheticParams::default().num_workers),
                rep,
                cfg,
            )
        },
    ));
    report
}

/// Fig. 8, columns 3–4: case study on the Chengdu-like workload.
pub fn fig8_real(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let city = chengdu::CityModel::generate(cfg.seed);
    let days = if cfg.quick { 2 } else { cfg.repetitions.max(3) } as usize;
    let default_eps = RealParams::default().epsilon;
    let gen = |workers: usize, rep: u64, cfg: &ExperimentConfig| {
        let mut inst =
            chengdu::generate_day_with_radii(&city, rep as usize % days, workers, cfg.seed)
                .scaled(1.0 / REAL_UNIT_METERS);
        if cfg.quick {
            inst.tasks.truncate(cfg.scale_count(inst.tasks.len()));
        }
        inst
    };

    let xs: Vec<f64> = RealParams::WORKER_COUNTS
        .iter()
        .map(|&w| cfg.scale_count(w) as f64)
        .collect();
    report.extend(sweep_case_study(
        cfg,
        ["fig8c", "fig8g"],
        "|W|",
        &xs,
        |_| default_eps,
        |x, rep| gen(x as usize, rep, cfg),
    ));

    let w_default = cfg.scale_count(RealParams::default().num_workers);
    report.extend(sweep_case_study(
        cfg,
        ["fig8d", "fig8h"],
        "epsilon",
        &RealParams::EPSILONS,
        |x| x,
        |_, rep| gen(w_default, rep, cfg),
    ));
    report
}

/// Table I: the weights and per-leaf probabilities of the worked example
/// (ε = 0.1 on the Example 1 tree), rendered as the paper prints them.
pub fn table1() -> String {
    use pombm_geom::{Point, PointSet};
    use pombm_hst::{FixedDraw, Hst, HstParams};
    let points = PointSet::new(vec![
        Point::new(1.0, 1.0),
        Point::new(2.0, 3.0),
        Point::new(5.0, 3.0),
        Point::new(4.0, 4.0),
    ]);
    let mut rng = seeded_rng(0, 0);
    let hst = Hst::build_with(
        &points,
        HstParams {
            fixed: Some(FixedDraw {
                beta: 0.5,
                permutation: vec![0, 1, 2, 3],
            }),
            branching: None,
        },
        &mut rng,
    );
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
    let mut report = Report::new();
    // OPT is cubic-ish; keep instances modest.
    let (tasks, workers) = if cfg.quick { (40, 60) } else { (200, 300) };
    let algos = PAPER_ALGORITHMS.map(spec);
    for &eps in &SyntheticParams::EPSILONS {
        let params = SyntheticParams {
            num_tasks: tasks,
            num_workers: workers,
            epsilon: eps,
            ..SyntheticParams::default()
        };
        let instance = synthetic::generate(&params, &mut seeded_rng(cfg.seed, 0x0C));
        for algo in &algos {
            let pc = cfg.pipeline(eps, 0);
            let r = pombm::empirical_competitive_ratio(algo, &instance, &pc, cfg.repetitions)
                .expect("ratio experiment instances are non-degenerate")
                .ratio;
            report.push(
                "ratio",
                "epsilon",
                eps,
                algo.label(),
                "competitive_ratio",
                r,
                cfg.repetitions as u32,
            );
        }
    }
    report
}

/// Ablation `gridsweep`: TBF total distance and server setup cost as a
/// function of the predefined-grid resolution (N = side²). This is the knob
/// behind the loose-ε crossovers recorded in EXPERIMENTS.md: TBF's
/// total-distance floor is the snapping error, which shrinks with N while
/// the one-time construction cost grows O(N²·D).
pub fn grid_sweep(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let params = SyntheticParams {
        num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
        num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
        ..SyntheticParams::default()
    };
    let tbf = spec("tbf");
    for side in [16usize, 32, 48, 64, 96] {
        let mut dist = 0.0;
        let mut setup = 0.0;
        for rep in 0..cfg.repetitions {
            let instance =
                synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0x9D));
            let pc = PipelineConfig {
                grid_side: side,
                ..cfg.pipeline(SyntheticParams::default().epsilon, rep)
            };
            let result = run(&tbf, &instance, &pc, rep);
            dist += result.metrics.total_distance;
            setup += result.metrics.setup_time.as_secs_f64();
        }
        let r = cfg.repetitions as f64;
        let n = (side * side) as f64;
        report.push(
            "gridsweep",
            "N",
            n,
            "TBF",
            "total_distance",
            dist / r,
            cfg.repetitions as u32,
        );
        report.push(
            "gridsweep",
            "N",
            n,
            "TBF",
            "setup_time_s",
            setup / r,
            cfg.repetitions as u32,
        );
    }
    report
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
    let mut report = Report::new();
    let algos = ["tbf", "exp-hg", "lap-hg", "random"].map(spec);
    for &eps in &SyntheticParams::EPSILONS {
        let params = SyntheticParams {
            num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
            num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
            epsilon: eps,
            ..SyntheticParams::default()
        };
        for algo in &algos {
            let mut dist = 0.0;
            for rep in 0..cfg.repetitions {
                let instance =
                    synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0xAB));
                let pc = cfg.pipeline(eps, rep);
                dist += run(algo, &instance, &pc, rep).metrics.total_distance;
            }
            report.push(
                "ablatemech",
                "epsilon",
                eps,
                algo.label(),
                "total_distance",
                dist / cfg.repetitions as f64,
                cfg.repetitions as u32,
            );
        }
    }
    report
}

/// Ablation `ablatealg`: online assignment rules under the *same* TBF
/// mechanism — greedy (Alg. 4), randomized greedy (Meyerson et al.) and
/// chain reassignment (Bansal et al.) — total distance and assignment time.
pub fn ablate_alg(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new();
    let algos = ["tbf", "tbf-rand", "tbf-chain"].map(spec);
    for &eps in &SyntheticParams::EPSILONS {
        let params = SyntheticParams {
            num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
            num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
            epsilon: eps,
            ..SyntheticParams::default()
        };
        for algo in &algos {
            let mut dist = 0.0;
            let mut secs = 0.0;
            for rep in 0..cfg.repetitions {
                let instance =
                    synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0xA1));
                let pc = cfg.pipeline(eps, rep);
                let r = run(algo, &instance, &pc, rep);
                dist += r.metrics.total_distance;
                secs += r.metrics.assign_time.as_secs_f64();
            }
            let reps = cfg.repetitions as f64;
            report.push(
                "ablatealg",
                "epsilon",
                eps,
                algo.label(),
                "total_distance",
                dist / reps,
                cfg.repetitions as u32,
            );
            report.push(
                "ablatealg",
                "epsilon",
                eps,
                algo.label(),
                "running_time_s",
                secs / reps,
                cfg.repetitions as u32,
            );
        }
    }
    report
}

/// Extension `epochs`: multi-epoch deployment under a lifetime budget.
///
/// Per-epoch total distance, fresh-report fraction and mean report
/// staleness as worker budgets exhaust (see `pombm::epochs`).
pub fn epochs(cfg: &ExperimentConfig) -> Report {
    use pombm::EpochConfig;
    let mut report = Report::new();
    let num_workers = if cfg.quick { 150 } else { 1000 };
    let epoch_cfg = EpochConfig {
        num_epochs: 12,
        lifetime_epsilon: 2.4, // 4 fresh reports at the default per-epoch ε
        epoch_epsilon: SyntheticParams::default().epsilon,
        tasks_per_epoch: if cfg.quick { 60 } else { 400 },
        grid_side: cfg.grid_side.min(32),
        seed: cfg.seed,
        ..EpochConfig::default()
    };
    // Average over repetitions (different seeds) per epoch index.
    let mut dist = vec![0.0f64; epoch_cfg.num_epochs];
    let mut stale = vec![0.0f64; epoch_cfg.num_epochs];
    let mut fresh = vec![0.0f64; epoch_cfg.num_epochs];
    let hst = registry().require_mechanism("hst").expect("registered");
    for rep in 0..cfg.repetitions {
        let mut c = epoch_cfg;
        c.seed = cfg.seed.wrapping_add(rep.wrapping_mul(0xEAC7));
        let r = pombm::run_epochs(num_workers, &c, hst.as_ref())
            .expect("the hst mechanism reports tree leaves");
        for m in &r.per_epoch {
            dist[m.epoch] += m.total_distance;
            stale[m.epoch] += m.avg_report_staleness;
            fresh[m.epoch] += m.fresh_reports as f64 / num_workers as f64;
        }
    }
    let reps = cfg.repetitions as f64;
    for e in 0..epoch_cfg.num_epochs {
        report.push(
            "epochs",
            "epoch",
            e as f64,
            "TBF",
            "total_distance",
            dist[e] / reps,
            cfg.repetitions as u32,
        );
        report.push(
            "epochs",
            "epoch",
            e as f64,
            "TBF",
            "avg_staleness",
            stale[e] / reps,
            cfg.repetitions as u32,
        );
        report.push(
            "epochs",
            "epoch",
            e as f64,
            "TBF",
            "fresh_fraction",
            fresh[e] / reps,
            cfg.repetitions as u32,
        );
    }
    report
}

/// Extension `dynamic`: shift-based fleets. Sweeps fleet coverage (mean
/// shift length / horizon) and reports assignment rate and mean per-task
/// distance (see `pombm::dynamic`).
pub fn dynamic(cfg: &ExperimentConfig) -> Report {
    use pombm::{run_dynamic_spec, ArrivalProcess, DynamicConfig};
    use pombm_workload::shifts::ShiftPlan;
    let mut report = Report::new();
    let (tasks, workers) = if cfg.quick { (120, 240) } else { (1500, 3000) };
    let horizon = 1000.0;
    let params = SyntheticParams {
        num_tasks: tasks,
        num_workers: workers,
        ..SyntheticParams::default()
    };
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
    for (lo, hi) in durations {
        let mut rate = 0.0;
        let mut avg_dist = 0.0;
        let mut coverage = 0.0;
        for rep in 0..cfg.repetitions {
            let instance =
                synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0xDF));
            let times = ArrivalProcess::Uniform {
                window_secs: horizon * 0.99,
            }
            .timestamps(tasks, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0xD0));
            let plan = ShiftPlan::uniform(
                workers,
                horizon,
                lo,
                hi,
                &mut seeded_rng(cfg.seed.wrapping_add(rep), 0xD1),
            );
            let dyn_cfg = DynamicConfig {
                epsilon: SyntheticParams::default().epsilon,
                grid_side: cfg.grid_side.min(32),
                seed: cfg.seed.wrapping_add(rep),
            };
            let out = run_dynamic_spec(
                &instance,
                &times,
                &plan,
                &dyn_cfg,
                mechanism.as_ref(),
                matcher.as_ref(),
            )
            .expect("the tbf pairing drives the fleet");
            rate += out.assignment_rate();
            avg_dist += if out.pairs.is_empty() {
                0.0
            } else {
                out.total_distance / out.pairs.len() as f64
            };
            coverage += plan.mean_coverage();
        }
        let reps = cfg.repetitions as f64;
        let x = (coverage / reps * 1000.0).round() / 1000.0;
        report.push(
            "dynamic",
            "coverage",
            x,
            "TBF",
            "assignment_rate",
            rate / reps,
            cfg.repetitions as u32,
        );
        report.push(
            "dynamic",
            "coverage",
            x,
            "TBF",
            "avg_task_distance",
            avg_dist / reps,
            cfg.repetitions as u32,
        );
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
    use pombm::{run_spec_with_server, TreeConstruction};
    let mut report = Report::new();
    let params = SyntheticParams {
        num_tasks: cfg.scale_count(SyntheticParams::default().num_tasks),
        num_workers: cfg.scale_count(SyntheticParams::default().num_workers),
        ..SyntheticParams::default()
    };
    let tbf = spec("tbf");
    for &eps in &SyntheticParams::EPSILONS {
        for (label, construction) in [
            ("TBF-FRT", TreeConstruction::Frt),
            ("TBF-Quadtree", TreeConstruction::Quadtree),
        ] {
            let mut dist = 0.0;
            for rep in 0..cfg.repetitions {
                let instance =
                    synthetic::generate(&params, &mut seeded_rng(cfg.seed.wrapping_add(rep), 0xA7));
                let server = Server::with_construction(
                    instance.region,
                    cfg.grid_side,
                    cfg.seed ^ rep.wrapping_mul(0x9E37_79B9),
                    construction,
                );
                let pc = cfg.pipeline(eps, rep);
                let r = run_spec_with_server(&tbf, &instance, &pc, Some(&server), rep)
                    .expect("tbf runs on a prebuilt server");
                dist += r.metrics.total_distance;
            }
            report.push(
                "ablatetree",
                "epsilon",
                eps,
                label,
                "total_distance",
                dist / cfg.repetitions as f64,
                cfg.repetitions as u32,
            );
        }
    }
    report
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
            grid_side: 16,
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
