//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p pombm_bench --bin experiments -- <command>... [flags]
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
//!   --reps N      repetitions per point, at least 1 (default 3; paper uses 10)
//!   --seed N      base seed (default 2020)
//!   --out DIR     output directory for CSV/JSON (default results/)
//!
//! Running times are those of each metric's one nearest-free-worker index
//! (the HST pool, the k-d tree); the paper's literal scans survive as the
//! reference functions the proptests pin those indexes to.
//! ```

use pombm_bench::figures::{self, ExperimentConfig};
use pombm_bench::Report;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;

/// Track peak allocations for the paper's memory-usage figures.
#[global_allocator]
static ALLOC: pombm_bench::CountingAllocator = pombm_bench::CountingAllocator;

/// What one command regenerates.
type Figure = fn(&ExperimentConfig) -> Report;

/// Every command, in the order `all` runs them.
const COMMANDS: [(&str, Figure); 15] = [
    ("table1", table1),
    ("fig6", figures::fig6),
    ("fig7eps", figures::fig7_eps),
    ("fig7scale", figures::fig7_scale),
    ("fig7real", figures::fig7_real),
    ("fig8syn", figures::fig8_syn),
    ("fig8real", figures::fig8_real),
    ("ratio", figures::ratio),
    ("distortion", figures::distortion),
    ("gridsweep", figures::grid_sweep),
    ("ablatemech", figures::ablate_mech),
    ("ablatealg", figures::ablate_alg),
    ("epochs", figures::epochs),
    ("dynamic", figures::dynamic),
    ("ablatetree", figures::ablate_tree),
];

/// Table I is printed as the paper prints it, not as report rows.
fn table1(_: &ExperimentConfig) -> Report {
    print(&mut std::io::stdout().lock(), &figures::table1());
    Report::new()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        let names: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "usage: experiments <command>... [--quick] [--plot] [--reps N] [--seed N] [--out DIR]"
        );
        eprintln!("commands: {} all", names.join(" "));
        std::process::exit(2);
    }

    let mut cfg = ExperimentConfig::default();
    let mut plot = false;
    let mut out_dir = PathBuf::from("results");
    let mut commands = Vec::new();
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
            "all" => commands.extend(COMMANDS),
            cmd if !cmd.starts_with('-') => match COMMANDS.iter().find(|&&(name, _)| name == cmd) {
                Some(&command) => commands.push(command),
                None => die(&format!("unknown command {cmd}")),
            },
            other => die(&format!("unknown flag {other}")),
        }
    }
    if commands.is_empty() {
        die("no command given");
    }
    if cfg.repetitions == 0 {
        die("--reps must be at least 1: every point is a mean over repetitions");
    }

    let mut report = Report::new();
    for (name, figure) in commands {
        report.extend(timed(name, || figure(&cfg)));
    }
    let mut out = std::io::stdout().lock();

    // Print every produced figure as a paper-style table (and, with
    // --plot, as an ASCII chart).
    for figure in report.figures() {
        for metric in report.metrics(&figure) {
            print(&mut out, &report.render_figure(&figure, &metric));
            if plot {
                if let Some(chart) = pombm_bench::render_chart(&report, &figure, &metric, 60) {
                    print(&mut out, &chart);
                }
            }
        }
    }

    if !report.rows.is_empty() {
        let csv = out_dir.join("experiments.csv");
        let json = out_dir.join("experiments.json");
        if let Err(e) = report
            .write_csv(&csv)
            .and_then(|()| report.write_json(&json))
        {
            die(&format!("writing the report to {}: {e}", out_dir.display()));
        }
        let wrote = format!(
            "wrote {} rows to {} and {}",
            report.rows.len(),
            csv.display(),
            json.display()
        );
        print(&mut out, &wrote);
    }
}

/// Writes `text` and a newline to stdout. A reader that closed the pipe
/// early (`experiments ... | head`) wants no more output, so that ends the
/// program quietly with exit 0; any other write error ends it through
/// [`die`].
fn print(out: &mut impl Write, text: &str) {
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(&format!("writing to stdout: {e}")),
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
