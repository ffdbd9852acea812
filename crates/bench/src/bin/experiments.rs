//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p pombm-bench --bin experiments -- <command> [flags]
//!
//! Commands:
//!   table1      Table I weights/probabilities of the worked example
//!   fig6        Fig. 6 (synthetic sweeps over |T|, |W|, mu, sigma)
//!   fig7eps     Fig. 7 column 1 (synthetic, vary epsilon)
//!   fig7scale   Fig. 7 column 2 (scalability, |T| = |W|)
//!   fig7real    Fig. 7 columns 3-4 (Chengdu-like trace)
//!   fig8syn     Fig. 8 columns 1-2 (case study, synthetic)
//!   fig8real    Fig. 8 columns 3-4 (case study, real)
//!   ratio       extension: empirical competitive ratio vs OPT
//!   distortion  extension: mean HST displacement vs epsilon
//!   gridsweep   extension: TBF distance floor vs predefined-point count N
//!   ablatemech  ablation: mechanisms head-to-head under the same matcher
//!   ablatealg   ablation: online assignment rules under the TBF mechanism
//!   epochs      extension: multi-epoch deployment under a lifetime budget
//!   dynamic     extension: shift-based fleets (assignment rate vs coverage)
//!   ablatetree  ablation: randomized FRT vs deterministic quadtree HST
//!   all         everything above
//!
//! Flags:
//!   --quick       ~10x smaller workloads (smoke run)
//!   --plot        also render each figure as an ASCII chart
//!   --reps N      repetitions per point (default 3; paper uses 10)
//!   --seed N      base seed (default 2020)
//!   --out DIR     output directory for CSV/JSON (default results/)
//!
//! Running times are those of each metric's one nearest-free-worker index
//! (the HST pool, the k-d tree); the paper's literal scans survive as the
//! reference functions the proptests pin those indexes to.
//! ```

use pombm_bench::figures::{self, ExperimentConfig};
use pombm_bench::Report;
use std::path::PathBuf;

/// Track peak allocations for the paper's memory-usage figures.
#[global_allocator]
static ALLOC: pombm_bench::CountingAllocator = pombm_bench::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <command> [--quick] [--reps N] [--seed N] [--out DIR]");
        eprintln!("commands: table1 fig6 fig7eps fig7scale fig7real fig8syn fig8real ratio distortion gridsweep ablatemech ablatealg epochs dynamic ablatetree all");
        std::process::exit(2);
    }

    let mut cfg = ExperimentConfig::default();
    let mut plot = false;
    let mut out_dir = PathBuf::from("results");
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--plot" => plot = true,
            "--reps" => {
                cfg.repetitions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a number"));
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--out" => {
                out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if commands.is_empty() {
        die("no command given");
    }

    let mut report = Report::new();
    for cmd in &commands {
        match cmd.as_str() {
            "table1" => {
                println!("{}", figures::table1());
            }
            "fig6" => report.extend(timed("fig6", || figures::fig6(&cfg))),
            "fig7eps" => report.extend(timed("fig7eps", || figures::fig7_eps(&cfg))),
            "fig7scale" => report.extend(timed("fig7scale", || figures::fig7_scale(&cfg))),
            "fig7real" => report.extend(timed("fig7real", || figures::fig7_real(&cfg))),
            "fig8syn" => report.extend(timed("fig8syn", || figures::fig8_syn(&cfg))),
            "fig8real" => report.extend(timed("fig8real", || figures::fig8_real(&cfg))),
            "ratio" => report.extend(timed("ratio", || figures::ratio(&cfg))),
            "distortion" => report.extend(timed("distortion", || figures::distortion(&cfg))),
            "gridsweep" => report.extend(timed("gridsweep", || figures::grid_sweep(&cfg))),
            "ablatemech" => report.extend(timed("ablatemech", || figures::ablate_mech(&cfg))),
            "ablatealg" => report.extend(timed("ablatealg", || figures::ablate_alg(&cfg))),
            "epochs" => report.extend(timed("epochs", || figures::epochs(&cfg))),
            "dynamic" => report.extend(timed("dynamic", || figures::dynamic(&cfg))),
            "ablatetree" => report.extend(timed("ablatetree", || figures::ablate_tree(&cfg))),
            "all" => {
                println!("{}", figures::table1());
                report.extend(timed("fig6", || figures::fig6(&cfg)));
                report.extend(timed("fig7eps", || figures::fig7_eps(&cfg)));
                report.extend(timed("fig7scale", || figures::fig7_scale(&cfg)));
                report.extend(timed("fig7real", || figures::fig7_real(&cfg)));
                report.extend(timed("fig8syn", || figures::fig8_syn(&cfg)));
                report.extend(timed("fig8real", || figures::fig8_real(&cfg)));
                report.extend(timed("ratio", || figures::ratio(&cfg)));
                report.extend(timed("distortion", || figures::distortion(&cfg)));
                report.extend(timed("gridsweep", || figures::grid_sweep(&cfg)));
                report.extend(timed("ablatemech", || figures::ablate_mech(&cfg)));
                report.extend(timed("ablatealg", || figures::ablate_alg(&cfg)));
                report.extend(timed("epochs", || figures::epochs(&cfg)));
                report.extend(timed("dynamic", || figures::dynamic(&cfg)));
                report.extend(timed("ablatetree", || figures::ablate_tree(&cfg)));
            }
            other => die(&format!("unknown command {other}")),
        }
    }

    // Print every produced figure as a paper-style table (and, with
    // --plot, as an ASCII chart).
    for figure in report.figures() {
        for metric in report.metrics(&figure) {
            println!("{}", report.render_figure(&figure, &metric));
            if plot {
                if let Some(chart) = pombm_bench::render_chart(&report, &figure, &metric, 60) {
                    println!("{chart}");
                }
            }
        }
    }

    if !report.rows.is_empty() {
        let csv = out_dir.join("experiments.csv");
        let json = out_dir.join("experiments.json");
        report.write_csv(&csv).expect("write CSV");
        report.write_json(&json).expect("write JSON");
        println!(
            "wrote {} rows to {} and {}",
            report.rows.len(),
            csv.display(),
            json.display()
        );
    }
}

fn timed(name: &str, f: impl FnOnce() -> Report) -> Report {
    eprintln!("running {name}...");
    #[expect(
        clippy::disallowed_methods,
        reason = "progress logging on stderr; never serialized"
    )]
    let start = std::time::Instant::now();
    let r = f();
    eprintln!("{name} finished in {:.1}s", start.elapsed().as_secs_f64());
    r
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
