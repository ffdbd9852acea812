//! The `pombm` subcommands.
//!
//! Every command is a pure function from parsed [`Args`] to a printable
//! string (plus file side effects where documented), so the whole surface
//! is unit-testable without spawning processes.

use crate::args::Args;
use pombm::server::{check_epsilon, check_grid_side};
use pombm::{
    dynamic_competitive_ratio, merge, registry, run_dynamic_spec, run_spec, run_sweep,
    run_sweep_partition, AlgorithmSpec, DynamicConfig, DynamicMeasurement, DynamicSweepCell,
    DynamicSweepConfig, DynamicSweepReport, EpochConfig, FlavorReport, Partial, PartialRunStats,
    PartitionPlan, PartitionRun, PipelineConfig, SweepCell, SweepConfig, SweepFlavor, SweepReport,
    DEFAULT_SCENARIO,
};
use pombm_geom::{seeded_rng, Point};
use pombm_hst::wire;
use pombm_workload::{chengdu, synthetic, Instance, RealParams, SyntheticParams};
use serde::Deserialize as _;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Top-level usage text.
pub const USAGE: &str = "\
pombm — privacy-preserving online task assignment (ICDE'20 TBF)

USAGE: pombm <command> [flags]

COMMANDS:
  gen         generate a workload instance as JSON
              [--tasks N] [--workers N] [--mu F] [--sigma F] [--seed N]
              [--real [--day N]] [--radii] --out FILE
              --tasks and --workers default to 3000 and 5000
              --real writes a day of the Chengdu-like trace in 50 m units
              (the 10 km city is 200 x 200, like the synthetic space);
              --tasks, --mu and --sigma apply only without --real
              --radii draws each worker a reachable radius for the case study
  run         run one algorithm on an instance JSON and print metrics
              (--input FILE | --scenario NAME [--size N])
              (--algo NAME | --mechanism M --matcher S)
              [--epsilon F] [--grid-side N] [--capacity N] [--seed N]
              [--threads N] [--json]
              --scenario generates the instance from a registered workload
              scenario (`pombm list scenarios`) instead of reading a file
              --threads parallelizes batched obfuscation and the Hungarian
              offline-opt matcher (0 = auto); results are bit-identical
              for every thread count
              `pombm list algorithms` lists every name; --algo accepts
              registered pairings (tbf, lap-gr, exp-chain, ...) while
              --mechanism and --matcher compose any mechanism x matcher
              product freely
  list        list the registry catalogs
              [algorithms|fault-plans|scenarios|all]   (default: all)
              algorithms covers --algo pairings, mechanisms, matchers and
              dynamic matchers (the `dynamic-opt` clairvoyant oracle is
              tagged [oracle-only]); scenarios are the named
              spatial+temporal workload models (use with --scenario /
              --scenarios)
  obfuscate   demo the TBF mechanism on one location
              --x F --y F [--epsilon F] [--grid-side N] [--samples N]
              [--side F] [--seed N]
  publish     build an HST over a grid and write the wire format
              [--grid-side N] [--side F] [--seed N] --out FILE
              --grid-side is the grid's side (default 32, N = 1024 points)
  inspect     decode a published HST file and print its shape
              --input FILE
  epochs      multi-epoch deployment simulation under a lifetime budget
              [--workers N] [--epochs N] [--lifetime F] [--epsilon F]
              [--drift F] [--tasks N] [--seed N]
              --workers is the fleet size (default 500); --drift is the
              standard deviation of each worker's step between epochs
              (default 10); --tasks is the tasks arriving per epoch
              (default 200)
  dynamic     event-driven simulation over a shifting worker fleet: any
              mechanism x dynamic-matcher pairing on one timeline
              [--tasks N] [--workers N] [--plan always-on|short|long]
              [--scenario NAME] [--mechanism M] [--matcher X] [--epsilon F]
              [--grid-side N] [--seed N] [--ratio [--reps N]] [--json]
              --ratio also solves the clairvoyant offline optimum
              (`dynamic-opt`) on the same timeline and reports the
              empirical competitive ratio over N repetitions (default 3);
              `--matcher dynamic-opt` is then legal and reports exactly 1.0
  serve       resident micro-batched matching service fed by a built-in
              deterministic load generator (in-process framed transport)
              --load [--tasks N] [--workers N] [--plan always-on|short|long]
              [--scenario NAME] [--mechanism M] [--matcher X] [--epsilon F]
              [--grid-side N] [--seed N] [--batch-interval F] [--qps F]
              [--requests N] [--threads N] [--timings] [--json]
              [--fault-plan NAME [--fault-rate F]]
              [--queue-cap N [--shed-policy P]]
              assignments are a pure function of (seed, plan,
              batch-interval): --qps paces wall-clock delivery and
              --threads parallelizes per-window obfuscation, neither
              changes results; --timings adds latency percentiles
              (excluded from the deterministic JSON contract)
              --fault-plan injects deterministic chaos (none, flaky-wire,
              dup-storm, burst; `pombm list fault-plans` lists them) into
              the frame script off a dedicated seed stream; --queue-cap
              bounds the admission queue and --shed-policy picks what
              gives way (drop-newest, drop-oldest, deadline) with
              virtual-time retry backoff — faulted reports gain a
              `faults` block and stay
              byte-identical across --qps/--threads
  sweep       registry-wide empirical competitive-ratio sweep against the
              exact offline optimum, sharded across cores
              [--mechanisms A,B,..] [--matchers X,Y,..] [--scenarios S,S,..]
              [--sizes N,N,..] [--epsilons F,F,..] [--reps N] [--shards N]
              [--threads N] [--timings] [--grid-side N] [--seed N] [--json]
              [--partition i/N] [--checkpoint DIR] [--max-cells N]
              --scenarios adds workload scenarios as an outermost axis
              (default: just `uniform`, the legacy workload); the resolved
              names enter the config fingerprint, so partitioned runs,
              checkpoints and `pombm merge` extend unchanged
              --threads parallelizes inside a cell (0 = auto), --shards
              across cells; output is byte-identical for every combination
              --timings adds per-cell wall_ms columns (excluded from the
              deterministic JSON contract)
              omitting --mechanisms/--matchers sweeps the full registry
              product; `identity x offline-opt` always reports ratio 1.0
              with --dynamic: sweep the dynamic-fleet product instead
              (--matchers then names dynamic matchers; extra axis
              [--shift-plans always-on,short,long]; no --reps)
              --dynamic --ratio adds per-cell competitive-ratio and
              drop-latency percentile columns against the clairvoyant
              `dynamic-opt` oracle (which then joins the matcher axis and
              reports ratio exactly 1.0); the oracle enters the config
              fingerprint, so partitioned/checkpointed/merged ratio
              sweeps reassemble byte-identically
              --partition i/N (1-based) computes one contiguous slice of
              the job space into a self-describing partial report for
              `pombm merge`; --checkpoint DIR appends finished cells to a
              resumable fingerprint-keyed log (re-runs skip them, logged
              to stderr); --max-cells N computes only the first N cells
              the log lacks, in job order, and exits nonzero if more
              remain (re-run to resume)
  merge       validate partitioned sweep partials (disjoint full coverage,
              identical config fingerprints) and reassemble the
              single-process report — with --json, byte-identical to the
              `pombm sweep --json` of the same config
              <partials..> [--json]    (static or dynamic, not mixed)
  help        this text
";

// The flags each command accepts, one list per command; its `USAGE` entry
// names every one (`usage_lists_every_flag_each_command_accepts`).
const GEN_FLAGS: &[&str] = &[
    "tasks", "workers", "mu", "sigma", "seed", "real", "day", "radii", "out",
];
const RUN_FLAGS: &[&str] = &[
    "input",
    "scenario",
    "size",
    "algo",
    "mechanism",
    "matcher",
    "epsilon",
    "grid-side",
    "capacity",
    "seed",
    "threads",
    "json",
];
const OBFUSCATE_FLAGS: &[&str] = &["x", "y", "epsilon", "grid-side", "samples", "side", "seed"];
const PUBLISH_FLAGS: &[&str] = &["grid-side", "side", "seed", "out"];
const INSPECT_FLAGS: &[&str] = &["input"];
const EPOCHS_FLAGS: &[&str] = &[
    "workers", "epochs", "lifetime", "epsilon", "drift", "tasks", "seed",
];
const DYNAMIC_FLAGS: &[&str] = &[
    "tasks",
    "workers",
    "plan",
    "scenario",
    "mechanism",
    "matcher",
    "epsilon",
    "grid-side",
    "seed",
    "ratio",
    "reps",
    "json",
];
const SERVE_FLAGS: &[&str] = &[
    "load",
    "tasks",
    "workers",
    "plan",
    "scenario",
    "mechanism",
    "matcher",
    "epsilon",
    "grid-side",
    "seed",
    "batch-interval",
    "qps",
    "requests",
    "threads",
    "timings",
    "json",
    "fault-plan",
    "fault-rate",
    "queue-cap",
    "shed-policy",
];
const SWEEP_FLAGS: &[&str] = &[
    "mechanisms",
    "matchers",
    "scenarios",
    "sizes",
    "epsilons",
    "reps",
    "shards",
    "threads",
    "timings",
    "grid-side",
    "seed",
    "json",
    "dynamic",
    "shift-plans",
    "ratio",
    "partition",
    "checkpoint",
    "max-cells",
];
const MERGE_FLAGS: &[&str] = &["json"];

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, String> {
    if !matches!(args.command.as_deref(), Some("merge") | Some("list")) {
        // Only `merge` (the partial files) and `list` (the topic) take
        // positional arguments.
        args.check_no_positionals()?;
    }
    match args.command.as_deref() {
        Some("gen") => gen(args),
        Some("run") => run_cmd(args),
        Some("list") => list_cmd(args),
        Some("obfuscate") => obfuscate(args),
        Some("publish") => publish(args),
        Some("inspect") => inspect(args),
        Some("epochs") => epochs(args),
        Some("dynamic") => dynamic(args),
        Some("serve") => serve(args),
        Some("sweep") => sweep(args),
        Some("merge") => merge_cmd(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// The topics `pombm list` accepts, in the order `all` prints them.
const LIST_TOPICS: &str = "algorithms fault-plans scenarios all";

/// `pombm list [algorithms|fault-plans|scenarios|all]`: the one
/// catalog-driven listing surface, so every name printed anywhere comes
/// from the registry catalogs.
pub fn list_cmd(args: &Args) -> Result<String, String> {
    args.check_known(&[])?;
    let topic = match args.positionals() {
        [] => "all",
        [one] => one.as_str(),
        more => {
            return Err(format!(
                "list takes at most one topic, got {} (expected one of: {LIST_TOPICS})",
                more.len()
            ))
        }
    };
    match topic {
        "algorithms" => Ok(algorithms_section()),
        "fault-plans" => Ok(fault_plans_section()),
        "scenarios" => Ok(scenarios_section()),
        "all" => Ok(format!(
            "{}\n{}\n{}",
            algorithms_section(),
            fault_plans_section(),
            scenarios_section()
        )),
        other => Err(format!(
            "unknown list topic `{other}`; expected one of: {LIST_TOPICS}"
        )),
    }
}

/// The algorithm/mechanism/matcher sections of the catalog listing.
fn algorithms_section() -> String {
    let reg = registry();
    let mut out = String::new();
    let _ = writeln!(out, "registered algorithms (use with --algo):");
    for spec in reg.specs() {
        let _ = writeln!(
            out,
            "  {:<10} {:<10} = {} + {}",
            spec.name(),
            format!("[{}]", spec.label()),
            spec.mechanism.name(),
            spec.matcher.name(),
        );
    }
    let _ = writeln!(out, "\nmechanisms (use with --mechanism):");
    for m in reg.mechanisms() {
        let _ = writeln!(out, "  {:<10} {}", m.name(), m.summary());
    }
    let _ = writeln!(out, "\nmatchers (use with --matcher):");
    for m in reg.matchers() {
        let _ = writeln!(out, "  {:<10} {}", m.name(), m.summary());
    }
    let _ = writeln!(
        out,
        "\ndynamic matchers (use with `pombm dynamic --matcher` / `pombm sweep --dynamic`):"
    );
    for m in reg.dynamic_matcher_catalog().all() {
        let tag = if m.is_oracle() { "[oracle-only] " } else { "" };
        let _ = writeln!(out, "  {:<10} {tag}{}", m.name(), m.summary());
    }
    out
}

/// The fault-plan section of the catalog listing.
fn fault_plans_section() -> String {
    let reg = registry();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault plans (use with `pombm serve --fault-plan`): deterministic chaos"
    );
    for p in reg.fault_plans() {
        let _ = writeln!(out, "  {:<10} {}", p.name(), p.summary());
    }
    out
}

/// The workload-scenario section of the catalog listing.
fn scenarios_section() -> String {
    let reg = registry();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "registered scenarios (use with `run --scenario`, `dynamic --scenario`, \
         `serve --scenario`, `sweep --scenarios`):"
    );
    for s in reg.scenarios() {
        let _ = writeln!(out, "  {:<16} {}", s.name(), s.summary());
    }
    let _ = writeln!(
        out,
        "\nthe default is `{DEFAULT_SCENARIO}`, which reproduces the legacy workload \
         bit-for-bit"
    );
    out
}

/// `pombm gen`: write a synthetic or Chengdu-like instance to JSON.
pub fn gen(args: &Args) -> Result<String, String> {
    args.check_known(GEN_FLAGS)?;
    if args.switch("day") && !args.switch("real") {
        return Err("--day only applies with --real \
                    (a synthetic instance has no trace days)"
            .to_string());
    }
    let seed: u64 = args.get_or("seed", 0)?;
    let num_workers: usize = args.get_or("workers", SyntheticParams::default().num_workers)?;
    let instance = if args.switch("real") {
        let day: usize = args.get_or("day", 0)?;
        if day >= RealParams::NUM_DAYS {
            return Err(format!(
                "invalid day {day}: the Chengdu-like trace has days 0-{}",
                RealParams::NUM_DAYS - 1
            ));
        }
        for flag in ["tasks", "mu", "sigma"] {
            if args.switch(flag) {
                return Err(format!(
                    "--{flag} only applies without --real (a trace day has its own tasks)"
                ));
            }
        }
        let city = chengdu::CityModel::generate(seed);
        if args.switch("radii") {
            chengdu::generate_day_with_radii(&city, day, num_workers, seed)
        } else {
            chengdu::generate_day(&city, day, num_workers, seed)
        }
    } else {
        let params = SyntheticParams {
            num_tasks: args.get_or("tasks", SyntheticParams::default().num_tasks)?,
            num_workers,
            mu: args.get_or("mu", SyntheticParams::default().mu)?,
            sigma: args.get_or("sigma", SyntheticParams::default().sigma)?,
        };
        let mut rng = seeded_rng(seed, 0xC11);
        let instance = synthetic::try_generate(&params, &mut rng).map_err(|e| e.to_string())?;
        if args.switch("radii") {
            let (lo, hi) = SyntheticParams::REACH_RADIUS;
            instance.with_uniform_radii(lo, hi, &mut rng)
        } else {
            instance
        }
    };
    let out: String = args.require("out")?;
    write_instance(&instance, Path::new(&out))?;
    Ok(format!(
        "wrote instance: {} tasks, {} workers -> {out}",
        instance.num_tasks(),
        instance.num_workers()
    ))
}

/// `pombm run`: execute one pipeline on an instance file.
pub fn run_cmd(args: &Args) -> Result<String, String> {
    args.check_known(RUN_FLAGS)?;
    if args.switch("size") && !args.switch("scenario") {
        return Err("--size only applies with --scenario \
                    (an --input instance has its own size)"
            .to_string());
    }
    let spec = parse_spec(args)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let instance = match (
        args.get_opt::<String>("input")?,
        args.get_opt::<String>("scenario")?,
    ) {
        (Some(_), Some(_)) => {
            return Err("give either --input or --scenario, not both".to_string());
        }
        (Some(input), None) => read_instance(Path::new(&input))?,
        (None, Some(name)) => {
            let scenario = registry()
                .require_scenario(&name)
                .map_err(|e| e.to_string())?;
            let size: usize = args.get_or("size", 48)?;
            scenario.instance(seed, size)
        }
        (None, None) => {
            return Err("missing instance: use --input FILE or --scenario NAME \
                 (see `pombm list scenarios`)"
                .to_string());
        }
    };
    let config = PipelineConfig {
        epsilon: args.get_or("epsilon", 0.6)?,
        grid_side: args.get_or("grid-side", 64)?,
        capacity: args.get_or("capacity", 1)?,
        seed,
        threads: args.get_or("threads", 1)?,
    };
    let result = run_spec(&spec, &instance, &config, 0).map_err(|e| e.to_string())?;
    let m = &result.metrics;
    if args.switch("json") {
        serde_json::to_string_pretty(m).map_err(|e| e.to_string())
    } else {
        let mut out = String::new();
        let _ = writeln!(out, "algorithm:       {} ({})", spec.label(), spec.name());
        let _ = writeln!(out, "mechanism:       {}", spec.mechanism.name());
        let _ = writeln!(out, "matcher:         {}", spec.matcher.name());
        let _ = writeln!(out, "matching size:   {}", m.matching_size);
        let _ = writeln!(out, "total distance:  {:.3}", m.total_distance);
        let _ = writeln!(out, "assign time:     {:?}", m.assign_time);
        let _ = writeln!(out, "obfuscation:     {:?}", m.obfuscation_time);
        let _ = writeln!(out, "setup (HST):     {:?}", m.setup_time);
        let _ = writeln!(out, "avg latency:     {:?}", m.avg_task_latency());
        Ok(out)
    }
}

/// Resolves `--algo NAME` or the free `--mechanism M --matcher S` pairing.
fn parse_spec(args: &Args) -> Result<AlgorithmSpec, String> {
    let algo = args.get_opt::<String>("algo")?;
    let mechanism = args.get_opt::<String>("mechanism")?;
    let matcher = args.get_opt::<String>("matcher")?;
    match (algo, mechanism, matcher) {
        (Some(name), None, None) => parse_algorithm(&name),
        (None, Some(mech), Some(strat)) => {
            registry().compose(&mech, &strat).map_err(|e| e.to_string())
        }
        (None, Some(_), None) | (None, None, Some(_)) => {
            Err("--mechanism and --matcher must be given together".to_string())
        }
        (Some(_), _, _) => Err("give either --algo or --mechanism/--matcher, not both".to_string()),
        (None, None, None) => Err(
            "missing algorithm: use --algo NAME or --mechanism M --matcher S \
             (see `pombm list algorithms`)"
                .to_string(),
        ),
    }
}

/// `pombm obfuscate`: show where the TBF mechanism sends one location.
pub fn obfuscate(args: &Args) -> Result<String, String> {
    args.check_known(OBFUSCATE_FLAGS)?;
    let x: f64 = args.require("x")?;
    let y: f64 = args.require("y")?;
    let side = workspace_side(args)?;
    let grid_side: usize = args.get_or("grid-side", 32)?;
    check_grid_side(grid_side).map_err(|e| e.to_string())?;
    let samples: usize = args.get_or("samples", 5)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let epsilon: f64 = args.get_or("epsilon", 0.6)?;
    check_epsilon("epsilon", epsilon).map_err(|e| e.to_string())?;
    let epsilon = pombm_privacy::Epsilon::new(epsilon);

    let location = Point::new(x, y);
    let server = pombm::Server::try_new(pombm_geom::Rect::square(side), grid_side, seed)
        .map_err(|e| e.to_string())?;
    if !server.region().contains(&location) {
        return Err(format!(
            "location ({x}, {y}) outside the {side}x{side} workspace"
        ));
    }
    let mech = pombm_privacy::HstMechanism::new(server.hst(), epsilon);
    let leaf = server.snap(&location);
    let snapped = server
        .leaf_location(leaf)
        .expect("snapped leaf is always real");
    let mut rng = seeded_rng(seed, 0x0BF);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "true location ({x}, {y}) snaps to predefined point ({}, {}) [leaf {}]",
        snapped.x, snapped.y, leaf
    );
    for i in 0..samples {
        let z = mech.obfuscate(server.hst(), leaf, &mut rng);
        let rep = server.hst().representative_point(z);
        let _ = writeln!(
            out,
            "sample {i}: leaf {z}{} near ({:.1}, {:.1}), tree distance {:.2}",
            if server.hst().is_real(z) {
                ""
            } else {
                " (fake)"
            },
            rep.x,
            rep.y,
            server.hst().tree_dist(leaf, z),
        );
    }
    Ok(out)
}

/// `pombm publish`: build an HST and write the paper's compact wire format.
pub fn publish(args: &Args) -> Result<String, String> {
    args.check_known(PUBLISH_FLAGS)?;
    let grid_side: usize = args.get_or("grid-side", 32)?;
    check_grid_side(grid_side).map_err(|e| e.to_string())?;
    let side = workspace_side(args)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let out: String = args.require("out")?;
    let server = pombm::Server::try_new(pombm_geom::Rect::square(side), grid_side, seed)
        .map_err(|e| e.to_string())?;
    let bytes = wire::encode(server.hst());
    let len = bytes.len();
    std::fs::write(&out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    Ok(format!(
        "published HST over N = {} points (depth {}, branching {}): {len} bytes -> {out}",
        server.num_predefined(),
        server.hst().depth(),
        server.hst().branching(),
    ))
}

/// `--side`: the side of the square workspace the server publishes over,
/// a positive, finite number (default 200).
fn workspace_side(args: &Args) -> Result<f64, String> {
    let side: f64 = args.get_or("side", 200.0)?;
    if side.is_finite() && side > 0.0 {
        Ok(side)
    } else {
        Err(format!(
            "--side must be a positive, finite number, got {side}"
        ))
    }
}

/// `pombm inspect`: decode a published HST file.
pub fn inspect(args: &Args) -> Result<String, String> {
    args.check_known(INSPECT_FLAGS)?;
    let input: String = args.require("input")?;
    let data = std::fs::read(&input).map_err(|e| format!("read {input}: {e}"))?;
    let published =
        wire::decode(bytes::Bytes::from(data)).map_err(|e| format!("decode {input}: {e}"))?;
    Ok(format!(
        "valid published HST: N = {} predefined points, depth {}, branching {}, scale {:.6}",
        published.points.len(),
        published.ctx.depth,
        published.ctx.branching,
        published.scale,
    ))
}

/// `pombm epochs`: the multi-epoch budget simulation as a console table.
pub fn epochs(args: &Args) -> Result<String, String> {
    args.check_known(EPOCHS_FLAGS)?;
    let num_workers: usize = args.get_or("workers", 500)?;
    let config = EpochConfig {
        num_epochs: args.get_or("epochs", 10)?,
        lifetime_epsilon: args.get_or("lifetime", 3.0)?,
        epoch_epsilon: args.get_or("epsilon", 0.6)?,
        worker_drift: args.get_or("drift", 10.0)?,
        tasks_per_epoch: args.get_or("tasks", 200)?,
        seed: args.get_or("seed", 0)?,
    };
    let hst = registry()
        .require_mechanism("hst")
        .map_err(|e| e.to_string())?;
    let report =
        pombm::run_epochs(num_workers, &config, hst.as_ref()).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>7} {:>7} {:>11} {:>14} {:>6}",
        "epoch", "fresh", "stale", "staleness", "total_dist", "pairs"
    );
    for m in &report.per_epoch {
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>7} {:>11.2} {:>14.1} {:>6}",
            m.epoch,
            m.fresh_reports,
            m.stale_reports,
            m.avg_report_staleness,
            m.total_distance,
            m.matching_size
        );
    }
    let _ = writeln!(
        out,
        "degradation (last/first): {:.2}x; worker budget spent: {:.1}",
        report.degradation(),
        report.worker_budget_spent
    );
    Ok(out)
}

/// `pombm dynamic`: one event-driven simulation over a shifting fleet,
/// through any registered `mechanism × dynamic-matcher` pairing.
pub fn dynamic(args: &Args) -> Result<String, String> {
    args.check_known(DYNAMIC_FLAGS)?;
    let ratio = args.switch("ratio");
    if args.switch("reps") && !ratio {
        return Err("--reps only applies with --ratio \
                    (plain `pombm dynamic` replays one deterministic timeline)"
            .to_string());
    }
    let num_tasks: usize = args.get_or("tasks", 200)?;
    let num_workers: usize = args.get_or("workers", 100)?;
    let plan_kind: String = args.get_or("plan", "short".to_string())?;
    let seed: u64 = args.get_or("seed", 0)?;
    let scenario = {
        let name: String = args.get_or("scenario", DEFAULT_SCENARIO.to_string())?;
        registry()
            .require_scenario(&name)
            .map_err(|e| e.to_string())?
    };
    let mechanism = {
        let name: String = args.get_or("mechanism", "hst".to_string())?;
        registry()
            .require_mechanism(&name)
            .map_err(|e| e.to_string())?
    };
    let matcher = {
        let name: String = args.get_or("matcher", "hst-greedy".to_string())?;
        // Under --ratio the oracle itself is a legal matcher (its cell
        // reports ratio exactly 1.0); without it, only pairing matchers
        // can drive the fleet.
        if ratio {
            registry()
                .dynamic_matcher_any(&name)
                .map_err(|e| e.to_string())?
        } else {
            registry()
                .require_dynamic_matcher(&name)
                .map_err(|e| e.to_string())?
        }
    };
    let instance = scenario.timeline_instance(seed, num_tasks, num_workers);
    let times = scenario.task_times(seed, num_tasks);
    let plan = scenario
        .shift_plan(&plan_kind, num_workers, seed)
        .map_err(|e| e.to_string())?;
    let config = DynamicConfig {
        epsilon: args.get_or("epsilon", 0.6)?,
        grid_side: args.get_or("grid-side", 32)?,
        seed,
    };
    if ratio {
        let reps: u64 = args.get_or("reps", 3)?;
        let report = dynamic_competitive_ratio(
            &instance,
            &times,
            &plan,
            &config,
            mechanism.as_ref(),
            matcher.as_ref(),
            reps,
        )
        .map_err(|e| e.to_string())?;
        if args.switch("json") {
            return serde_json::to_string_pretty(&report).map_err(|e| e.to_string());
        }
        let mut out = String::new();
        let _ = writeln!(out, "mechanism:        {}", report.mechanism);
        let _ = writeln!(out, "matcher:          {}", report.matcher);
        let _ = writeln!(out, "oracle:           {}", report.oracle);
        if scenario.name() != DEFAULT_SCENARIO {
            let _ = writeln!(out, "scenario:         {}", scenario.name());
        }
        let _ = writeln!(out, "shift plan:       {plan_kind}");
        let _ = writeln!(
            out,
            "tasks:            {num_tasks} (oracle assigns {}, drops {})",
            report.opt_assigned, report.opt_dropped
        );
        let _ = writeln!(out, "opt distance:     {:.3}", report.opt_distance);
        let _ = writeln!(
            out,
            "mean distance:    {:.3} over {} reps",
            report.mean_distance, report.repetitions
        );
        let _ = writeln!(
            out,
            "ratio:            {:.4} (min {:.4}, max {:.4})",
            report.ratio, report.min_ratio, report.max_ratio
        );
        return Ok(out);
    }
    let outcome = run_dynamic_spec(
        &instance,
        &times,
        &plan,
        &config,
        mechanism.as_ref(),
        matcher.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    if args.switch("json") {
        let m = DynamicMeasurement::from_outcome(&outcome);
        return serde_json::to_string_pretty(&m).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    let _ = writeln!(out, "mechanism:        {}", mechanism.name());
    let _ = writeln!(out, "matcher:          {}", matcher.name());
    if scenario.name() != DEFAULT_SCENARIO {
        let _ = writeln!(out, "scenario:         {}", scenario.name());
    }
    let _ = writeln!(out, "shift plan:       {plan_kind}");
    let _ = writeln!(
        out,
        "tasks:            {num_tasks} (assigned {}, dropped {})",
        outcome.pairs.len(),
        outcome.dropped_tasks
    );
    let _ = writeln!(out, "assignment rate:  {:.4}", outcome.assignment_rate());
    let _ = writeln!(out, "total distance:   {:.3}", outcome.total_distance);
    let _ = writeln!(out, "peak available:   {}", outcome.peak_available);
    Ok(out)
}

/// `pombm serve`: the resident micro-batched matching service, one loop
/// on the calling thread that serves length-prefixed frames as the
/// built-in deterministic load generator yields them. That generator is
/// the only ingress — `--load` is therefore required, making the contract
/// explicit on the command line. Assignments are a pure function of
/// `(seed, plan, batch-interval)`: `--qps` and `--threads` trade wall-clock
/// only, never results (CI's serve-smoke job byte-compares the JSON across
/// both).
pub fn serve(args: &Args) -> Result<String, String> {
    args.check_known(SERVE_FLAGS)?;
    if !args.switch("load") {
        return Err(
            "serve's transport is in-process: pass --load to run the built-in \
             deterministic load generator against the resident service \
             (external ingress would need a network dependency this build \
             intentionally avoids)"
                .to_string(),
        );
    }
    let config = pombm::ServeConfig {
        scenario: args.get_opt("scenario")?,
        mechanism: args.get_or("mechanism", "hst".to_string())?,
        matcher: args.get_or("matcher", "hst-greedy".to_string())?,
        plan: args.get_or("plan", "short".to_string())?,
        num_tasks: args.get_or("tasks", 200)?,
        num_workers: args.get_or("workers", 100)?,
        epsilon: args.get_or("epsilon", 0.6)?,
        grid_side: args.get_or("grid-side", 32)?,
        seed: args.get_or("seed", 0)?,
        batch_interval: args.get_or("batch-interval", 5.0)?,
        qps: args.get_or("qps", 0.0)?,
        max_requests: args.get_opt("requests")?,
        threads: args.get_or("threads", 1)?,
        timings: args.switch("timings"),
        fault_plan: args.get_opt("fault-plan")?,
        fault_rate: args.get_opt("fault-rate")?,
        queue_cap: args.get_opt("queue-cap")?,
        shed_policy: args.get_opt("shed-policy")?,
    };
    let outcome = pombm::run_serve(&config).map_err(|e| e.to_string())?;
    let report = outcome.report;
    if args.switch("json") {
        return serde_json::to_string_pretty(&report).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    let _ = writeln!(out, "mechanism:        {}", report.mechanism);
    let _ = writeln!(out, "matcher:          {}", report.matcher);
    if let Some(scenario) = &report.scenario {
        let _ = writeln!(out, "scenario:         {scenario}");
    }
    let _ = writeln!(out, "shift plan:       {}", report.plan);
    let _ = writeln!(
        out,
        "batch interval:   {} (virtual time)",
        report.batch_interval
    );
    let _ = writeln!(
        out,
        "requests:         {} over {} micro-batches",
        report.requests, report.batches
    );
    let _ = writeln!(
        out,
        "tasks:            {} (assigned {}, dropped {})",
        report.assigned + report.dropped,
        report.assigned,
        report.dropped
    );
    let _ = writeln!(out, "assignment rate:  {:.4}", report.assignment_rate);
    let _ = writeln!(out, "total distance:   {:.3}", report.total_distance);
    let _ = writeln!(
        out,
        "queue depth:      peak {} mean {:.2}",
        report.peak_queue_depth, report.mean_queue_depth
    );
    let _ = writeln!(out, "fingerprint:      {}", report.assignment_fingerprint);
    if let Some(latency) = report.latency {
        let _ = writeln!(
            out,
            "latency ms:       p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
            latency.p50_ms, latency.p95_ms, latency.p99_ms, latency.max_ms
        );
    }
    if let Some(faults) = &report.faults {
        if let (Some(plan), Some(rate)) = (&faults.plan, faults.rate) {
            let _ = writeln!(out, "fault plan:       {plan} @ rate {rate}");
        }
        if let Some(cap) = faults.queue_cap {
            let _ = writeln!(
                out,
                "queue cap:        {cap} ({})",
                faults.shed_policy.as_deref().unwrap_or("drop-newest")
            );
        }
        let _ = writeln!(
            out,
            "faults:           injected {} corrupt {} duplicates {}",
            faults.injected, faults.corrupt, faults.duplicates
        );
        let _ = writeln!(
            out,
            "overload:         shed {} retried {} expired {} (of {} submitted)",
            faults.shed, faults.retried, faults.expired, faults.submitted
        );
        for (class, count) in &faults.corrupt_classes {
            let _ = writeln!(out, "  corrupt class:  {count} × {class}");
        }
    }
    Ok(out)
}

/// `pombm sweep`: competitive ratios for a `mechanism × matcher × size × ε`
/// product, fanned across cores (deterministic in --seed for any --shards).
/// With `--dynamic`, sweeps the dynamic-fleet
/// `mechanism × dynamic-matcher × shift-plan × size × ε` product instead.
/// With `--partition i/N`, computes one slice into a partial report for
/// `pombm merge`; `--checkpoint DIR` makes any run resumable (the resume
/// statistics are logged to stderr, keeping stdout a pure report).
pub fn sweep(args: &Args) -> Result<String, String> {
    args.check_known(SWEEP_FLAGS)?;
    let shards = match args.get_or("shards", 0usize)? {
        0 => std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
        n => n,
    };
    let timings = args.switch("timings");
    let partitioning = partition_opts(args)?;
    if args.switch("dynamic") {
        if args.switch("threads") {
            return Err("--threads only applies to the static sweep: dynamic cells \
                        replay an event-sequential timeline whose RNG schedule is \
                        pinned by golden fingerprints"
                .to_string());
        }
        if args.switch("reps") {
            return Err("--reps does not apply to `sweep --dynamic` \
                        (each cell replays one deterministic timeline)"
                .to_string());
        }
        let defaults = DynamicSweepConfig::default();
        let config = DynamicSweepConfig {
            mechanisms: parse_name_list(args, "mechanisms")?,
            matchers: parse_name_list(args, "matchers")?,
            scenarios: parse_name_list(args, "scenarios")?,
            shift_plans: parse_name_list(args, "shift-plans")?,
            sizes: parse_number_list(args, "sizes", defaults.sizes)?,
            epsilons: parse_number_list(args, "epsilons", defaults.epsilons)?,
            shards,
            timings,
            ratio: args.switch("ratio"),
            grid_side: args.get_or("grid-side", 32)?,
            seed: args.get_or("seed", 0)?,
        };
        return run_and_render(args, &config, partitioning);
    }
    if args.switch("shift-plans") {
        return Err("--shift-plans only applies to `sweep --dynamic`".to_string());
    }
    if args.switch("ratio") {
        return Err("--ratio only applies to `sweep --dynamic` \
                    (the static sweep always reports competitive ratios)"
            .to_string());
    }
    let defaults = SweepConfig::default();
    let config = SweepConfig {
        mechanisms: parse_name_list(args, "mechanisms")?,
        matchers: parse_name_list(args, "matchers")?,
        scenarios: parse_name_list(args, "scenarios")?,
        sizes: parse_number_list(args, "sizes", defaults.sizes)?,
        epsilons: parse_number_list(args, "epsilons", defaults.epsilons)?,
        repetitions: args.get_or("reps", defaults.repetitions)?,
        shards,
        timings,
        base: PipelineConfig {
            grid_side: args.get_or("grid-side", 32)?,
            seed: args.get_or("seed", 0)?,
            // In-cell parallelism (batched obfuscation + Hungarian OPT);
            // bit-identical for every value, so the default of 1 leaves
            // the cores to the shard fan-out.
            threads: args.get_or("threads", 1)?,
            ..PipelineConfig::default()
        },
    };
    run_and_render(args, &config, partitioning)
}

/// Runs a sweep of either flavour and prints its report — or, under
/// `--partition`, its partial report — as a table or `--json`.
fn run_and_render<F: SweepFlavor>(
    args: &Args,
    config: &F,
    partitioning: Option<PartitionRun>,
) -> Result<String, String>
where
    F::Report: Render,
{
    let report = match partitioning {
        None => run_sweep(config).map_err(|e| e.to_string())?,
        Some(run) => {
            let (partial, stats) = run_sweep_partition(config, &run).map_err(|e| e.to_string())?;
            log_checkpoint(&run, stats);
            if args.switch("partition") {
                return emit(args, &partial, render_partial);
            }
            // --checkpoint without --partition: a resumable full run whose
            // output is exactly the ordinary sweep report.
            partial.report
        }
    };
    emit(args, &report, Render::render)
}

/// Pretty JSON under `--json`, the console rendering otherwise.
fn emit<T: serde::Serialize>(
    args: &Args,
    value: &T,
    render: impl FnOnce(&T) -> String,
) -> Result<String, String> {
    if args.switch("json") {
        serde_json::to_string_pretty(value).map_err(|e| e.to_string())
    } else {
        Ok(render(value))
    }
}

/// Resolves the `--partition` / `--checkpoint` / `--max-cells` trio into
/// a [`PartitionRun`]; `None` when none of them was given (the ordinary
/// single-process path).
fn partition_opts(args: &Args) -> Result<Option<PartitionRun>, String> {
    let plan = match list_flag(args, "partition")? {
        Some(v) => Some(PartitionPlan::parse(v).map_err(|e| e.to_string())?),
        None => None,
    };
    let checkpoint = list_flag(args, "checkpoint")?.map(PathBuf::from);
    let max_cells = args.get_opt("max-cells")?;
    if plan.is_none() && checkpoint.is_none() && max_cells.is_none() {
        return Ok(None);
    }
    Ok(Some(PartitionRun {
        plan: plan.unwrap_or_default(),
        checkpoint,
        max_cells,
    }))
}

/// Reports checkpoint resume statistics on stderr (stdout stays a pure
/// report so `--json > file` pipelines are unaffected).
fn log_checkpoint(run: &PartitionRun, stats: PartialRunStats) {
    if let Some(dir) = &run.checkpoint {
        eprintln!(
            "checkpoint {}: {} cells resumed (skipped recomputation), {} computed",
            dir.display(),
            stats.resumed,
            stats.computed
        );
    }
}

/// Console rendering of one sweep flavour's report, shared by `sweep`,
/// `sweep --partition` and `merge`.
trait Render: FlavorReport {
    /// The cell table.
    fn table(cells: &[Self::Cell]) -> String;

    /// The run parameters a partial's summary line names.
    fn params(&self) -> String;

    /// The run parameters the full report's summary line names.
    fn report_params(&self) -> String {
        self.params()
    }

    /// Table plus summary line.
    fn render(&self) -> String {
        format!(
            "{}{} cells measured, {} skipped ({})\n",
            Self::table(self.cells()),
            self.measured().count(),
            self.failed().count(),
            self.report_params()
        )
    }
}

/// The optional columns both sweep tables share, each present iff some
/// cell fills it, so legacy tables render byte-identically: a leading
/// scenario column and a trailing `wall_ms` column.
struct SharedColumns {
    scenarios: bool,
    timings: bool,
}

impl SharedColumns {
    fn of<'a>(cells: impl Iterator<Item = (&'a Option<String>, Option<f64>)>) -> Self {
        let mut cols = SharedColumns {
            scenarios: false,
            timings: false,
        };
        for (scenario, wall_ms) in cells {
            cols.scenarios |= scenario.is_some();
            cols.timings |= wall_ms.is_some();
        }
        cols
    }

    fn scenario(&self, name: Option<&str>) -> String {
        if self.scenarios {
            format!("{:<16} ", name.unwrap_or(DEFAULT_SCENARIO))
        } else {
            String::new()
        }
    }

    fn wall_header(&self) -> &'static str {
        if self.timings {
            "    wall_ms"
        } else {
            ""
        }
    }

    fn wall(wall_ms: Option<f64>) -> String {
        wall_ms.map(|ms| format!(" {ms:>10.2}")).unwrap_or_default()
    }
}

/// The message of a cell without a measurement.
fn skipped(error: Option<&str>) -> &str {
    error.unwrap_or("no measurement recorded")
}

impl Render for SweepReport {
    fn table(cells: &[SweepCell]) -> String {
        let cols = SharedColumns::of(cells.iter().map(|c| (&c.scenario, c.wall_ms)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}{:<10} {:<12} {:>6} {:>6} {:>9} {:>9} {:>9} {:>12}{}",
            cols.scenario(Some("scenario")),
            "mechanism",
            "matcher",
            "tasks",
            "eps",
            "ratio",
            "min",
            "max",
            "opt_dist",
            cols.wall_header()
        );
        for cell in cells {
            let scenario = cols.scenario(cell.scenario.as_deref());
            let _ = match &cell.report {
                Some(r) => writeln!(
                    out,
                    "{scenario}{:<10} {:<12} {:>6} {:>6.2} {:>9.4} {:>9.4} {:>9.4} {:>12.2}{}",
                    cell.mechanism,
                    cell.matcher,
                    cell.num_tasks,
                    cell.epsilon,
                    r.ratio,
                    r.min_ratio,
                    r.max_ratio,
                    r.opt_distance,
                    SharedColumns::wall(cell.wall_ms)
                ),
                None => writeln!(
                    out,
                    "{scenario}{:<10} {:<12} {:>6} {:>6.2} skipped: {}",
                    cell.mechanism,
                    cell.matcher,
                    cell.num_tasks,
                    cell.epsilon,
                    skipped(cell.error.as_deref())
                ),
            };
        }
        out
    }

    fn params(&self) -> String {
        format!("{} reps each, seed {}", self.repetitions, self.seed)
    }
}

impl Render for DynamicSweepReport {
    fn table(cells: &[DynamicSweepCell]) -> String {
        let cols = SharedColumns::of(cells.iter().map(|c| (&c.scenario, c.wall_ms)));
        // Ratio and drop-latency columns appear iff the sweep ran with
        // --ratio, so plain dynamic tables stay byte-identical.
        let ratios = cells.iter().any(|c| c.competitive_ratio.is_some());
        let ratio_header = if ratios {
            format!(" {:>8} {:>9} {:>9}", "ratio", "drop_p50", "drop_p95")
        } else {
            String::new()
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}{:<10} {:<11} {:<10} {:>6} {:>5} {:>8} {:>8} {:>8} {:>12} {:>6}{ratio_header}{}",
            cols.scenario(Some("scenario")),
            "mechanism",
            "matcher",
            "plan",
            "tasks",
            "eps",
            "rate",
            "assigned",
            "dropped",
            "distance",
            "peak",
            cols.wall_header()
        );
        for cell in cells {
            let scenario = cols.scenario(cell.scenario.as_deref());
            let ratio_cols = if ratios {
                let fmt = |v: Option<f64>, width: usize| match v {
                    Some(v) => format!(" {v:>width$.4}"),
                    // A ratio cell whose latency percentile is undefined
                    // (nothing dropped, or drops with no later shift).
                    None => format!(" {:>width$}", "-"),
                };
                format!(
                    "{}{}{}",
                    fmt(cell.competitive_ratio, 8),
                    fmt(cell.drop_latency_p50, 9),
                    fmt(cell.drop_latency_p95, 9)
                )
            } else {
                String::new()
            };
            let _ = match &cell.measurement {
                Some(m) => writeln!(
                    out,
                    "{scenario}{:<10} {:<11} {:<10} {:>6} {:>5.2} {:>8.4} {:>8} {:>8} \
                     {:>12.2} {:>6}{ratio_cols}{}",
                    cell.mechanism,
                    cell.matcher,
                    cell.plan,
                    cell.num_tasks,
                    cell.epsilon,
                    m.assignment_rate,
                    m.assigned,
                    m.dropped,
                    m.total_distance,
                    m.peak_available,
                    SharedColumns::wall(cell.wall_ms)
                ),
                None => writeln!(
                    out,
                    "{scenario}{:<10} {:<11} {:<10} {:>6} {:>5.2} skipped: {}",
                    cell.mechanism,
                    cell.matcher,
                    cell.plan,
                    cell.num_tasks,
                    cell.epsilon,
                    skipped(cell.error.as_deref())
                ),
            };
        }
        out
    }

    fn params(&self) -> String {
        format!("seed {}", self.seed)
    }

    fn report_params(&self) -> String {
        format!("horizon {}, seed {}", self.horizon, self.seed)
    }
}

/// Console rendering of one partition's partial report.
fn render_partial<R: Render>(partial: &Partial<R>) -> String {
    let covers = partial.covers();
    let cells = partial.report.cells();
    format!(
        "partition {}/{} ({} sweep): jobs {}..{} of {}, fingerprint {}\n{}\
         {} cells covered ({}); merge with `pombm merge`\n",
        partial.partition_index,
        partial.partition_count,
        R::FLAVOR,
        covers.start,
        covers.end,
        partial.total_jobs,
        partial.fingerprint,
        R::table(cells),
        cells.len(),
        partial.report.params()
    )
}

/// `pombm merge <partials..> [--json]`: validate partial reports from
/// `pombm sweep --partition` (any order, static or dynamic but not mixed)
/// and reassemble the single-process report. With `--json` the output is
/// byte-identical to `pombm sweep --json` of the same configuration (any
/// machine-dependent `wall_ms` columns are stripped).
pub fn merge_cmd(args: &Args) -> Result<String, String> {
    args.check_known(MERGE_FLAGS)?;
    let files = args.positionals();
    if files.is_empty() {
        return Err("merge needs at least one partial-report file \
                    (produce them with `pombm sweep --partition i/N --json`)"
            .to_string());
    }
    let mut parsed = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        let value: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("parse {file}: {e}"))?;
        let flavor = value["flavor"]
            .as_str()
            .ok_or_else(|| format!("{file}: not a partial sweep report (missing `flavor` field)"))?
            .to_string();
        parsed.push((file, value, flavor));
    }
    let flavor = parsed[0].2.as_str();
    if let Some((file, _, other)) = parsed.iter().find(|(_, _, f)| f != flavor) {
        return Err(format!(
            "cannot merge mixed flavours: {} is `{flavor}` but {file} is `{other}` \
             (merge static and dynamic partials separately)",
            parsed[0].0
        ));
    }
    if flavor == SweepReport::FLAVOR {
        merge_parsed::<SweepReport>(args, &parsed)
    } else if flavor == DynamicSweepReport::FLAVOR {
        merge_parsed::<DynamicSweepReport>(args, &parsed)
    } else {
        Err(format!(
            "{}: unknown partial flavour `{flavor}` (expected `{}` or `{}`)",
            parsed[0].0,
            SweepReport::FLAVOR,
            DynamicSweepReport::FLAVOR
        ))
    }
}

/// Decodes parsed partial files of flavour `R`, merges them and renders
/// the merged report.
fn merge_parsed<R: Render>(
    args: &Args,
    parsed: &[(&String, serde_json::Value, String)],
) -> Result<String, String> {
    let partials = parsed
        .iter()
        .map(|(file, value, _)| {
            Partial::<R>::from_value(value).map_err(|e| format!("parse {file}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let report = merge(&partials).map_err(|e| e.to_string())?;
    emit(args, &report, R::render)
}

/// The flag's comma-separated value, requiring a value when the flag is
/// present (`--sizes --json` must error, not fall back to the default).
fn list_flag<'a>(args: &'a Args, name: &str) -> Result<Option<&'a str>, String> {
    match args.get(name) {
        Some(v) => Ok(Some(v)),
        None if args.switch(name) => Err(format!("flag --{name} needs a value")),
        None => Ok(None),
    }
}

/// Splits a comma-separated list value, rejecting empty values, empty
/// entries and duplicates (`--mechanisms ""`, `--sizes 12,,16` and
/// `--sizes 16,16` must error, not silently shrink to the defaults or
/// inflate the sweep grid and its config fingerprint with repeated
/// jobs) — the same typed errors on the static and dynamic axes.
fn split_list<'a>(name: &str, value: &'a str) -> Result<Vec<&'a str>, String> {
    let items: Vec<&str> = value.split(',').map(str::trim).collect();
    if items.iter().all(|s| s.is_empty()) {
        return Err(format!("flag --{name} needs a value"));
    }
    if items.iter().any(|s| s.is_empty()) {
        return Err(format!("flag --{name}: empty entry in `{value}`"));
    }
    for (i, item) in items.iter().enumerate() {
        if items[..i].contains(item) {
            return Err(format!(
                "flag --{name}: duplicate entry `{item}` in `{value}`"
            ));
        }
    }
    Ok(items)
}

/// Splits a comma-separated name list; an absent flag means "all
/// registered" (the empty `SweepConfig` filter).
fn parse_name_list(args: &Args, name: &str) -> Result<Vec<String>, String> {
    match list_flag(args, name)? {
        None => Ok(Vec::new()),
        Some(v) => Ok(split_list(name, v)?.into_iter().map(String::from).collect()),
    }
}

/// Parses a comma-separated numeric flag into `Vec<T>`, with a default.
fn parse_number_list<T: std::str::FromStr>(
    args: &Args,
    name: &str,
    default: Vec<T>,
) -> Result<Vec<T>, String> {
    match list_flag(args, name)? {
        None => Ok(default),
        Some(v) => split_list(name, v)?
            .into_iter()
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("flag --{name}: cannot parse `{s}`"))
            })
            .collect(),
    }
}

/// Registry-driven, case-insensitive algorithm lookup with an error that
/// lists every valid name.
fn parse_algorithm(name: &str) -> Result<AlgorithmSpec, String> {
    registry().require_spec(name).map_err(|e| e.to_string())
}

fn write_instance(instance: &Instance, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string(instance).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_instance(path: &Path) -> Result<Instance, String> {
    let data =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let instance: Instance =
        serde_json::from_str(&data).map_err(|e| format!("parse {}: {e}", path.display()))?;
    instance.validate().map_err(|e| e.to_string())?;
    Ok(instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pombm-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn help_lists_all_commands() {
        let text = dispatch(&args("help")).unwrap();
        for cmd in [
            "gen",
            "run",
            "obfuscate",
            "publish",
            "inspect",
            "epochs",
            "dynamic",
            "serve",
            "sweep",
        ] {
            assert!(text.contains(cmd), "usage missing {cmd}");
        }
        assert_eq!(dispatch(&args("")).unwrap(), USAGE);
    }

    /// The `USAGE` entry of `command`: its line under COMMANDS plus the
    /// indented lines that follow, up to the next command.
    fn usage_entry(command: &str) -> String {
        let mut lines = USAGE.lines().skip_while(|line| {
            line.strip_prefix("  ")
                .and_then(|rest| rest.strip_prefix(command))
                .is_none_or(|rest| !rest.starts_with(' '))
        });
        let head = lines
            .next()
            .unwrap_or_else(|| panic!("no entry for {command}"));
        let body = lines.take_while(|line| line.starts_with("   "));
        std::iter::once(head)
            .chain(body)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn usage_lists_every_flag_each_command_accepts() {
        for (command, flags) in [
            ("gen", GEN_FLAGS),
            ("run", RUN_FLAGS),
            ("obfuscate", OBFUSCATE_FLAGS),
            ("publish", PUBLISH_FLAGS),
            ("inspect", INSPECT_FLAGS),
            ("epochs", EPOCHS_FLAGS),
            ("dynamic", DYNAMIC_FLAGS),
            ("serve", SERVE_FLAGS),
            ("sweep", SWEEP_FLAGS),
            ("merge", MERGE_FLAGS),
        ] {
            let entry = usage_entry(command);
            let named: Vec<&str> = entry
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .collect();
            for flag in flags {
                assert!(
                    named.contains(&format!("--{flag}").as_str()),
                    "`pombm help` does not list {command} --{flag}:\n{entry}"
                );
            }
        }
    }

    #[test]
    fn epochs_usage_gives_the_fleet_size_it_runs_without_workers() {
        let entry = usage_entry("epochs");
        assert!(entry.contains("[--workers N]"), "{entry}");
        assert!(
            entry.contains("--workers is the fleet size (default 500)"),
            "{entry}"
        );
        let out = epochs(&args("epochs --epochs 1 --tasks 5")).unwrap();
        let first = out.lines().nth(1).expect("one row per epoch");
        let fields: Vec<&str> = first.split_whitespace().take(3).collect();
        assert_eq!(fields, ["0", "500", "0"], "epoch 0: every worker fresh");
    }

    #[test]
    fn gen_and_publish_usage_give_the_defaults_they_run_without_flags() {
        let defaults = SyntheticParams::default();
        let entry = usage_entry("gen");
        assert!(entry.contains("[--tasks N] [--workers N]"), "{entry}");
        assert!(
            entry.contains(&format!(
                "--tasks and --workers default to {} and {}",
                defaults.num_tasks, defaults.num_workers
            )),
            "{entry}"
        );
        let path = tmp("defaults.json");
        let msg = gen(&args(&format!("gen --out {}", path.display()))).unwrap();
        assert!(
            msg.starts_with(&format!(
                "wrote instance: {} tasks, {} workers",
                defaults.num_tasks, defaults.num_workers
            )),
            "{msg}"
        );
        let entry = usage_entry("publish");
        assert!(entry.contains("[--grid-side N]"), "{entry}");
        assert!(
            entry.contains("--grid-side is the grid's side (default 32, N = 1024 points)"),
            "{entry}"
        );
        let path = tmp("defaults.hst");
        let msg = publish(&args(&format!("publish --out {}", path.display()))).unwrap();
        assert!(msg.contains("N = 1024"), "{msg}");
    }

    #[test]
    fn gen_day_without_real_is_an_error_before_writing() {
        let path = tmp("day-without-real.json");
        let _ = std::fs::remove_file(&path);
        let err = gen(&args(&format!(
            "gen --day 5 --tasks 10 --workers 10 --out {}",
            path.display()
        )))
        .unwrap_err();
        assert!(err.starts_with("--day only applies with --real"), "{err}");
        assert!(!path.exists(), "gen must fail before writing");
    }

    #[test]
    fn gen_synthetic_flags_with_real_are_an_error_before_writing() {
        let path = tmp("synthetic-with-real.json");
        let _ = std::fs::remove_file(&path);
        for flag in ["--tasks 10", "--mu 5", "--sigma 1"] {
            let err = gen(&args(&format!(
                "gen --real {flag} --workers 20 --out {}",
                path.display()
            )))
            .unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.starts_with(&format!("{name} only applies without --real")),
                "{err}"
            );
            assert!(!path.exists(), "gen must fail before writing");
        }
    }

    #[test]
    fn run_size_without_scenario_is_an_error() {
        let path = tmp("size-without-scenario.json");
        gen(&args(&format!(
            "gen --tasks 10 --workers 10 --out {}",
            path.display()
        )))
        .unwrap();
        let err = run_cmd(&args(&format!(
            "run --input {} --size 999 --algo tbf",
            path.display()
        )))
        .unwrap_err();
        assert!(
            err.starts_with("--size only applies with --scenario"),
            "{err}"
        );
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&args("frobnicate"))
            .unwrap_err()
            .contains("frobnicate"));
    }

    #[test]
    fn gen_then_run_roundtrip() {
        let path = tmp("roundtrip.json");
        let msg = gen(&args(&format!(
            "gen --tasks 40 --workers 70 --seed 3 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("40 tasks"));
        for algo in ["tbf", "lap-gr", "lap-hg", "exp-hg", "random"] {
            let out = run_cmd(&args(&format!(
                "run --input {} --algo {algo} --grid-side 16",
                path.display()
            )))
            .unwrap();
            assert!(out.contains("matching size:   40"), "{algo}: {out}");
        }
    }

    #[test]
    fn run_json_output_parses() {
        let path = tmp("json-out.json");
        gen(&args(&format!(
            "gen --tasks 20 --workers 30 --out {}",
            path.display()
        )))
        .unwrap();
        let out = run_cmd(&args(&format!(
            "run --input {} --algo tbf --grid-side 16 --json",
            path.display()
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["matching_size"], 20);
    }

    #[test]
    fn gen_real_writes_chengdu_day() {
        let path = tmp("real.json");
        let msg = gen(&args(&format!(
            "gen --real --day 2 --workers 300 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("300 workers"));
        let instance = read_instance(&path).unwrap();
        assert!(instance.num_tasks() > 1000, "a Chengdu day has 4k+ tasks");
    }

    #[test]
    fn obfuscate_prints_samples() {
        let out = obfuscate(&args(
            "obfuscate --x 50 --y 50 --grid-side 8 --samples 3 --epsilon 0.5",
        ))
        .unwrap();
        assert_eq!(out.matches("sample ").count(), 3);
        assert!(out.contains("snaps to predefined point"));
    }

    #[test]
    fn obfuscate_rejects_out_of_region() {
        let err = obfuscate(&args("obfuscate --x 500 --y 0")).unwrap_err();
        assert!(err.contains("outside"));
    }

    #[test]
    fn publish_then_inspect_roundtrip() {
        let path = tmp("tree.hst");
        let msg = publish(&args(&format!(
            "publish --grid-side 8 --seed 5 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("N = 64"));
        let info = inspect(&args(&format!("inspect --input {}", path.display()))).unwrap();
        assert!(info.contains("N = 64"), "{info}");
    }

    #[test]
    fn inspect_rejects_corrupt_file() {
        let path = tmp("corrupt.hst");
        std::fs::write(&path, b"not a tree").unwrap();
        assert!(inspect(&args(&format!("inspect --input {}", path.display()))).is_err());
    }

    #[test]
    fn epochs_prints_each_epoch() {
        let out = epochs(&args(
            "epochs --workers 60 --epochs 4 --lifetime 1.2 --tasks 30",
        ))
        .unwrap();
        assert_eq!(out.lines().count(), 4 + 2, "{out}");
        assert!(out.contains("degradation"));
    }

    #[test]
    fn algorithm_names_parse_case_insensitively() {
        assert_eq!(parse_algorithm("TBF").unwrap().name(), "tbf");
        assert_eq!(parse_algorithm("Tbf-Chain").unwrap().name(), "tbf-chain");
        assert_eq!(parse_algorithm("exp-chain").unwrap().name(), "exp-chain");
        for name in ["nope", "LapGr"] {
            let err = parse_algorithm(name).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown algorithm `{name}`"))
                    && err.contains("tbf")
                    && err.contains("exp-chain"),
                "error should list valid names: {err}"
            );
        }
    }

    #[test]
    fn algorithms_command_lists_registry() {
        let out = dispatch(&args("list algorithms")).unwrap();
        for name in [
            "tbf",
            "lap-gr",
            "exp-chain",
            "tbf-cap",
            "laplace",
            "chain",
            "capacity",
            "kd-rebuild",
            "dynamic matchers",
        ] {
            assert!(out.contains(name), "listing missing {name}:\n{out}");
        }
    }

    #[test]
    fn list_command_covers_every_catalog() {
        let all = dispatch(&args("list")).unwrap();
        assert_eq!(all, dispatch(&args("list all")).unwrap());
        let algorithms = dispatch(&args("list algorithms")).unwrap();
        let plans = dispatch(&args("list fault-plans")).unwrap();
        let scenarios = dispatch(&args("list scenarios")).unwrap();
        // `all` is exactly the topics in order, blank-line separated.
        assert_eq!(all, format!("{algorithms}\n{plans}\n{scenarios}"));
        assert!(
            algorithms.contains("dynamic-opt") && algorithms.contains("[oracle-only]"),
            "the clairvoyant oracle must be listed with its role:\n{algorithms}"
        );
        assert!(plans.contains("flaky-wire"), "{plans}");
        assert!(scenarios.contains("uniform"), "{scenarios}");
        let err = dispatch(&args("list nope")).unwrap_err();
        assert!(
            err.contains("nope") && err.contains("fault-plans"),
            "error should list valid topics: {err}"
        );
        let err = dispatch(&args("list algorithms scenarios")).unwrap_err();
        assert!(err.contains("at most one topic"), "{err}");
    }

    #[test]
    fn retired_listing_aliases_are_typed_errors() {
        for retired in ["algorithms", "scenarios"] {
            let err = dispatch(&args(retired)).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown command `{retired}`")),
                "{err}"
            );
        }
        let err = dispatch(&args("run --list-algorithms")).unwrap_err();
        assert!(err.starts_with("unknown flag --list-algorithms"), "{err}");
    }

    #[test]
    fn free_mechanism_matcher_pairing_runs() {
        let path = tmp("pairing.json");
        gen(&args(&format!(
            "gen --tasks 25 --workers 40 --seed 9 --out {}",
            path.display()
        )))
        .unwrap();
        // Two pairings the legacy enum could not express.
        for (mech, matcher) in [("exp", "chain"), ("hst", "capacity")] {
            let out = run_cmd(&args(&format!(
                "run --input {} --mechanism {mech} --matcher {matcher} --grid-side 16",
                path.display()
            )))
            .unwrap();
            assert!(
                out.contains("matching size:   25"),
                "{mech}+{matcher}: {out}"
            );
            assert!(out.contains(&format!("mechanism:       {mech}")), "{out}");
        }
    }

    #[test]
    fn algo_and_pairing_flags_are_exclusive() {
        let err = run_cmd(&args(
            "run --input x.json --algo tbf --mechanism exp --matcher chain",
        ))
        .unwrap_err();
        assert!(err.contains("not both"));
        let err = run_cmd(&args("run --input x.json --mechanism exp")).unwrap_err();
        assert!(err.contains("together"));
        let err = run_cmd(&args("run --input x.json")).unwrap_err();
        assert!(err.contains("pombm list algorithms"));
    }

    #[test]
    fn sweep_oracle_pairing_reports_ratio_one() {
        let out = sweep(&args(
            "sweep --mechanisms identity --matchers offline-opt --sizes 16 --reps 2 \
             --grid-side 16 --shards 1",
        ))
        .unwrap();
        assert!(out.contains("identity"), "{out}");
        assert!(out.contains("offline-opt"), "{out}");
        assert!(out.contains("1.0000"), "oracle ratio must be 1.0:\n{out}");
        assert!(out.contains("1 cells measured, 0 skipped"), "{out}");
    }

    #[test]
    fn sweep_json_output_parses_and_is_shard_independent() {
        let flags = "sweep --mechanisms identity,laplace --matchers greedy,offline-opt \
                     --sizes 12 --epsilons 0.4,1.0 --reps 2 --grid-side 16 --seed 5 --json";
        let one = sweep(&args(&format!("{flags} --shards 1"))).unwrap();
        let many = sweep(&args(&format!("{flags} --shards 3"))).unwrap();
        assert_eq!(one, many, "shard count changed the sweep output");
        let v: serde_json::Value = serde_json::from_str(&one).unwrap();
        assert_eq!(v["cells"].as_array().unwrap().len(), 2 * 2 * 2);
    }

    #[test]
    fn sweep_skips_incompatible_cells_and_rejects_unknown_names() {
        let out = sweep(&args(
            "sweep --mechanisms blind --matchers greedy,random --sizes 10 --reps 1 --shards 1",
        ))
        .unwrap();
        assert!(out.contains("skipped:"), "{out}");
        assert!(out.contains("1 cells measured, 1 skipped"), "{out}");
        let err = sweep(&args("sweep --mechanisms bogus")).unwrap_err();
        assert!(err.contains("bogus") && err.contains("identity"), "{err}");
    }

    #[test]
    fn sweep_list_flags_without_values_are_rejected() {
        // A list flag swallowed by the next flag must error, not silently
        // fall back to the full registry / grid defaults — on both the
        // static and the dynamic sweep axes.
        for flags in [
            "sweep --mechanisms --json",
            "sweep --matchers --json",
            "sweep --sizes --json",
            "sweep --epsilons --json",
            "sweep --dynamic --mechanisms --json",
            "sweep --dynamic --matchers --json",
            "sweep --dynamic --shift-plans --json",
            "sweep --dynamic --sizes --json",
            "sweep --dynamic --epsilons --json",
        ] {
            let err = sweep(&args(flags)).unwrap_err();
            assert!(err.contains("needs a value"), "{flags}: {err}");
        }
    }

    /// Builds `Args` from explicit tokens (the whitespace-splitting helper
    /// cannot express empty string values).
    fn argv(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|t| t.to_string())).unwrap()
    }

    #[test]
    fn sweep_list_flags_reject_empty_values_and_entries() {
        // `--mechanisms ""` / `--sizes 12,,16` must error on both axes,
        // never silently shrink to the registry/grid defaults.
        for name in ["mechanisms", "matchers", "sizes", "epsilons"] {
            let flag = format!("--{name}");
            for dynamic in [false, true] {
                let mut tokens = vec!["sweep"];
                if dynamic {
                    tokens.push("--dynamic");
                }
                let err = sweep(&argv(&[&tokens[..], &[&flag, ""]].concat())).unwrap_err();
                assert!(
                    err.contains("needs a value"),
                    "{flag} dynamic={dynamic}: {err}"
                );
                let err = sweep(&argv(&[&tokens[..], &[&flag, ","]].concat())).unwrap_err();
                assert!(
                    err.contains("needs a value"),
                    "{flag} dynamic={dynamic}: {err}"
                );
                let err = sweep(&argv(&[&tokens[..], &[&flag, "a,,b"]].concat())).unwrap_err();
                assert!(
                    err.contains("empty entry"),
                    "{flag} dynamic={dynamic}: {err}"
                );
            }
        }
        let err = sweep(&argv(&["sweep", "--dynamic", "--shift-plans", ",,"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        // Trailing commas are empty entries too.
        let err = sweep(&argv(&["sweep", "--sizes", "12,"])).unwrap_err();
        assert!(err.contains("empty entry"), "{err}");
    }

    #[test]
    fn sweep_list_flags_reject_duplicate_entries() {
        // `--sizes 16,16` / `--mechanisms laplace,laplace` would silently
        // run duplicate jobs, inflating the cell grid and the config
        // fingerprint — rejected with the same typed error style as empty
        // entries, on both axes. Whitespace variants are duplicates too.
        for (name, value, dup) in [
            ("mechanisms", "laplace,laplace", "laplace"),
            ("matchers", "greedy,offline-opt,greedy", "greedy"),
            ("sizes", "16,16", "16"),
            ("epsilons", "0.5,1.0,0.5", "0.5"),
            ("sizes", "16, 16", "16"),
        ] {
            let flag = format!("--{name}");
            for dynamic in [false, true] {
                let mut tokens = vec!["sweep"];
                if dynamic {
                    tokens.push("--dynamic");
                }
                let err = sweep(&argv(&[&tokens[..], &[&flag, value]].concat())).unwrap_err();
                assert!(
                    err.contains("duplicate entry") && err.contains(dup),
                    "{flag} dynamic={dynamic}: {err}"
                );
            }
        }
        let err = sweep(&argv(&[
            "sweep",
            "--dynamic",
            "--shift-plans",
            "short,short",
        ]))
        .unwrap_err();
        assert!(err.contains("duplicate entry"), "{err}");
    }

    #[test]
    fn partition_flag_is_validated() {
        for bad in ["0/3", "4/3", "3", "a/b", "1/0", "/"] {
            let err = sweep(&args(&format!(
                "sweep --mechanisms identity --matchers greedy --sizes 8 --partition {bad}"
            )))
            .unwrap_err();
            assert!(err.contains("partition"), "{bad}: {err}");
        }
        let err = sweep(&args("sweep --partition --json")).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = sweep(&args("sweep --max-cells 3")).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
    }

    #[test]
    fn partitioned_sweep_merges_back_to_the_single_process_report() {
        let flags = "--mechanisms identity,laplace --matchers greedy,offline-opt \
                     --sizes 10 --epsilons 0.5,1.0 --reps 1 --shards 2 --grid-side 16 --seed 3";
        let full = sweep(&args(&format!("sweep {flags} --json"))).unwrap();
        let dir = tmp("partials");
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for i in 1..=3 {
            let partial = sweep(&args(&format!("sweep {flags} --partition {i}/3 --json"))).unwrap();
            let path = dir.join(format!("static-{i}.json"));
            std::fs::write(&path, partial).unwrap();
            files.push(path.display().to_string());
        }
        let merged = merge_cmd(&argv(
            &[
                &["merge"],
                files
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
                    .as_slice(),
                &["--json"],
            ]
            .concat(),
        ))
        .unwrap();
        assert_eq!(
            full, merged,
            "merge is not byte-identical to the full sweep"
        );

        // The dynamic flavour holds the same contract.
        let dflags = "--dynamic --mechanisms identity,hst --matchers hst-greedy,random \
                      --shift-plans always-on,short --sizes 10 --grid-side 16 --seed 3";
        let dfull = sweep(&args(&format!("sweep {dflags} --json"))).unwrap();
        let mut dfiles = Vec::new();
        for i in 1..=2 {
            let partial =
                sweep(&args(&format!("sweep {dflags} --partition {i}/2 --json"))).unwrap();
            let path = dir.join(format!("dynamic-{i}.json"));
            std::fs::write(&path, partial).unwrap();
            dfiles.push(path.display().to_string());
        }
        let dmerged = merge_cmd(&argv(
            &[
                &["merge"],
                dfiles
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
                    .as_slice(),
                &["--json"],
            ]
            .concat(),
        ))
        .unwrap();
        assert_eq!(dfull, dmerged, "dynamic merge is not byte-identical");

        // Mixing the two flavours is a clean error, as is an empty call.
        let err = merge_cmd(&argv(&["merge", &files[0], &dfiles[0]])).unwrap_err();
        assert!(err.contains("mixed"), "{err}");
        let err = merge_cmd(&argv(&["merge"])).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        // An incomplete set is a typed gap, not silent cell loss.
        let err = merge_cmd(&argv(&["merge", &files[0], "--json"])).unwrap_err();
        assert!(err.contains("covered by no partial"), "{err}");
        // Garbage input names the file.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{\"flavor\":17}").unwrap();
        let err = merge_cmd(&argv(&["merge", &garbage.display().to_string()])).unwrap_err();
        assert!(err.contains("garbage.json"), "{err}");
    }

    #[test]
    fn partial_report_text_output_names_the_partition() {
        let out = sweep(&args(
            "sweep --mechanisms identity --matchers greedy,offline-opt --sizes 8 \
             --reps 1 --shards 1 --grid-side 16 --partition 2/2",
        ))
        .unwrap();
        assert!(out.contains("partition 2/2"), "{out}");
        assert!(out.contains("fingerprint"), "{out}");
        assert!(out.contains("pombm merge"), "{out}");
    }

    #[test]
    fn checkpointed_sweep_resumes_byte_identically() {
        let dir = tmp("checkpoint-cli");
        let _ = std::fs::remove_dir_all(&dir);
        let flags = format!(
            "sweep --mechanisms identity --matchers greedy,offline-opt --sizes 8,10 \
             --reps 1 --shards 2 --grid-side 16 --seed 9 --json --checkpoint {}",
            dir.display()
        );
        let fresh = sweep(&args(
            "sweep --mechanisms identity --matchers greedy,offline-opt --sizes 8,10 \
             --reps 1 --shards 2 --grid-side 16 --seed 9 --json",
        ))
        .unwrap();
        // A capped run stops early with a resumable error...
        let err = sweep(&args(&format!("{flags} --max-cells 1"))).unwrap_err();
        assert!(err.contains("--max-cells"), "{err}");
        assert!(err.contains("resume"), "{err}");
        // ...and the re-run resumes the surviving cell, finishing with
        // output byte-identical to an uncheckpointed sweep.
        let resumed = sweep(&args(&flags)).unwrap();
        assert_eq!(fresh, resumed);
        // A third run resumes everything and still matches.
        let resumed_all = sweep(&args(&flags)).unwrap();
        assert_eq!(fresh, resumed_all);
    }

    #[test]
    fn dynamic_command_runs_every_registered_matcher() {
        for matcher in ["hst-greedy", "kd-rebuild", "random"] {
            let out = dynamic(&args(&format!(
                "dynamic --tasks 40 --workers 30 --plan short --matcher {matcher} \
                 --grid-side 16 --seed 3"
            )))
            .unwrap();
            assert!(
                out.contains(&format!("matcher:          {matcher}")),
                "{out}"
            );
            assert!(out.contains("assignment rate:"), "{out}");
            assert!(out.contains("peak available:"), "{out}");
        }
    }

    #[test]
    fn dynamic_command_json_parses_and_is_reproducible() {
        let flags = "dynamic --tasks 30 --workers 40 --plan always-on --mechanism laplace \
                     --matcher kd-rebuild --grid-side 16 --seed 9 --json";
        let a = dynamic(&args(flags)).unwrap();
        let b = dynamic(&args(flags)).unwrap();
        assert_eq!(a, b, "same seed, same outcome");
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert_eq!(v["assigned"], 30, "always-on assigns everything");
        assert_eq!(v["dropped"], 0);
        assert_eq!(v["assignment_rate"], 1.0);
    }

    #[test]
    fn dynamic_command_rejects_unknown_names() {
        let err = dynamic(&args("dynamic --matcher bogus")).unwrap_err();
        assert!(err.contains("bogus") && err.contains("kd-rebuild"), "{err}");
        let err = dynamic(&args("dynamic --plan weekend")).unwrap_err();
        assert!(
            err.contains("weekend") && err.contains("always-on"),
            "{err}"
        );
        let err = dynamic(&args("dynamic --mechanism bogus")).unwrap_err();
        assert!(err.contains("bogus") && err.contains("laplace"), "{err}");
    }

    #[test]
    fn serve_requires_the_load_generator() {
        let err = serve(&args("serve")).unwrap_err();
        assert!(err.contains("--load"), "{err}");
    }

    #[test]
    fn serve_json_is_invariant_across_qps_and_threads() {
        let flags = "serve --load --tasks 60 --workers 45 --plan short --mechanism hst \
                     --matcher hst-greedy --batch-interval 5 --seed 7 --json";
        let base = serve(&args(flags)).unwrap();
        let throttled = serve(&args(&format!("{flags} --qps 3000"))).unwrap();
        assert_eq!(base, throttled, "QPS changed the serve artifact");
        let auto = serve(&args(&format!("{flags} --threads 0"))).unwrap();
        assert_eq!(base, auto, "thread count changed the serve artifact");
        let report: serde_json::Value = serde_json::from_str(&base).unwrap();
        // One CHECK_IN + one CHECK_OUT per worker, one TASK per task (the
        // SHUTDOWN sentinel is transport framing, not a request).
        assert_eq!(report["requests"].as_u64().unwrap(), 60 + 2 * 45);
        assert!(report.get("latency").is_none(), "{base}");
    }

    #[test]
    fn serve_table_reports_the_fingerprint_and_latency_needs_timings() {
        let flags = "serve --load --tasks 40 --workers 30 --seed 3 --requests 50";
        let out = serve(&args(flags)).unwrap();
        assert!(out.contains("fingerprint:"), "{out}");
        assert!(out.contains("requests:         50"), "{out}");
        assert!(!out.contains("latency"), "{out}");
        let timed = serve(&args(&format!("{flags} --timings"))).unwrap();
        assert!(timed.contains("latency ms:"), "{timed}");
    }

    #[test]
    fn serve_rejects_bad_flags_and_names() {
        let err = serve(&args("serve --load --mechanism bogus")).unwrap_err();
        assert!(err.contains("bogus") && err.contains("laplace"), "{err}");
        let err = serve(&args("serve --load --matcher greedy")).unwrap_err();
        assert!(
            err.contains("greedy") && err.contains("hst-greedy"),
            "{err}"
        );
        let err = serve(&args("serve --load --batch-interval 0")).unwrap_err();
        assert!(err.contains("batch-interval"), "{err}");
        let err = serve(&args("serve --load --qps -2")).unwrap_err();
        assert!(err.contains("qps"), "{err}");
        let err = serve(&args("serve --load --requests many")).unwrap_err();
        assert!(err.contains("--requests"), "{err}");
        let err = serve(&args("serve --laod")).unwrap_err();
        assert!(err.contains("--laod"), "{err}");
    }

    #[test]
    fn dynamic_sweep_runs_and_is_shard_independent() {
        let flags = "sweep --dynamic --mechanisms identity,hst --matchers hst-greedy,random \
                     --shift-plans always-on,short --sizes 12 --grid-side 16 --seed 5 --json";
        let one = sweep(&args(&format!("{flags} --shards 1"))).unwrap();
        let many = sweep(&args(&format!("{flags} --shards 3"))).unwrap();
        assert_eq!(one, many, "shard count changed the dynamic sweep output");
        let v: serde_json::Value = serde_json::from_str(&one).unwrap();
        assert_eq!(v["cells"].as_array().unwrap().len(), 2 * 2 * 2);
    }

    #[test]
    fn dynamic_sweep_table_reports_rates_and_skips() {
        let out = sweep(&args(
            "sweep --dynamic --mechanisms blind --matchers hst-greedy,random \
             --shift-plans always-on --sizes 10 --shards 1 --grid-side 16",
        ))
        .unwrap();
        assert!(out.contains("skipped:"), "{out}");
        assert!(out.contains("1 cells measured, 1 skipped"), "{out}");
        let err = sweep(&args("sweep --dynamic --shift-plans weekend")).unwrap_err();
        assert!(err.contains("weekend") && err.contains("short"), "{err}");
        let err = sweep(&args("sweep --dynamic --reps 3")).unwrap_err();
        assert!(err.contains("--reps"), "{err}");
        let err = sweep(&args("sweep --shift-plans always-on")).unwrap_err();
        assert!(err.contains("--shift-plans"), "{err}");
    }

    #[test]
    fn typo_flags_are_rejected() {
        let err = run_cmd(&args("run --inptu x.json --algo tbf")).unwrap_err();
        assert!(err.contains("--inptu"));
    }

    #[test]
    fn threads_never_change_run_or_sweep_output() {
        // In-cell parallelism (batched obfuscation + Hungarian OPT) is
        // contractually invisible in the output at any thread count.
        let path = tmp("threads.json");
        gen(&args(&format!(
            "gen --tasks 30 --workers 40 --seed 4 --out {}",
            path.display()
        )))
        .unwrap();
        let run_flags = |threads: &str| {
            format!(
                "run --input {} --algo lap-gr --grid-side 16 --json{threads}",
                path.display()
            )
        };
        let baseline = run_cmd(&args(&run_flags(""))).unwrap();
        let v: serde_json::Value = serde_json::from_str(&baseline).unwrap();
        let distance = v["total_distance"].clone();
        for threads in ["--threads 2", "--threads 0"] {
            let out = run_cmd(&args(&run_flags(&format!(" {threads}")))).unwrap();
            let w: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert_eq!(w["total_distance"], distance, "{threads}");
        }
        let sweep_flags = "sweep --mechanisms identity,hst --matchers offline-opt,greedy \
                           --sizes 12 --reps 2 --shards 1 --grid-side 16 --seed 5 --json";
        let one = sweep(&args(&format!("{sweep_flags} --threads 1"))).unwrap();
        let many = sweep(&args(&format!("{sweep_flags} --threads 3"))).unwrap();
        assert_eq!(one, many, "--threads changed the sweep output");
    }

    #[test]
    fn timings_flag_adds_wall_ms_and_stays_out_of_plain_output() {
        let flags = "sweep --mechanisms identity --matchers greedy --sizes 10 --reps 1 \
                     --shards 1 --grid-side 16";
        let plain = sweep(&args(flags)).unwrap();
        assert!(!plain.contains("wall_ms"), "{plain}");
        let timed = sweep(&args(&format!("{flags} --timings"))).unwrap();
        assert!(timed.contains("wall_ms"), "{timed}");
        let timed_json = sweep(&args(&format!("{flags} --timings --json"))).unwrap();
        let v: serde_json::Value = serde_json::from_str(&timed_json).unwrap();
        let cell = &v["cells"].as_array().unwrap()[0];
        assert!(cell["wall_ms"].as_f64().is_some_and(|ms| ms >= 0.0));
        let plain_json = sweep(&args(&format!("{flags} --json"))).unwrap();
        assert!(!plain_json.contains("wall_ms"), "{plain_json}");
        // The dynamic flavour carries the same column.
        let dynamic_timed = sweep(&args(
            "sweep --dynamic --mechanisms identity --matchers random \
             --shift-plans always-on --sizes 8 --shards 1 --grid-side 16 --timings",
        ))
        .unwrap();
        assert!(dynamic_timed.contains("wall_ms"), "{dynamic_timed}");
    }

    #[test]
    fn dynamic_sweep_rejects_threads() {
        let err = sweep(&args("sweep --dynamic --threads 2")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn scenarios_command_lists_the_catalogue() {
        let out = dispatch(&args("list scenarios")).unwrap();
        for name in [
            "uniform",
            "normal",
            "hotspot",
            "poisson-disk",
            "adversarial-cell",
        ] {
            assert!(out.contains(name), "missing `{name}` in:\n{out}");
        }
    }

    #[test]
    fn run_generates_instances_from_scenarios() {
        let base = run_cmd(&args(
            "run --scenario hotspot --size 24 --algo lap-gr --grid-side 16 --seed 2 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&base).unwrap();
        assert_eq!(v["matching_size"], 24);
        // Scenario lookup is case-insensitive, and resolution does not
        // perturb the generated instance (metrics JSON carries wall-clock
        // timings, so compare the deterministic field).
        let upper = run_cmd(&args(
            "run --scenario HotSpot --size 24 --algo lap-gr --grid-side 16 --seed 2 --json",
        ))
        .unwrap();
        let w: serde_json::Value = serde_json::from_str(&upper).unwrap();
        assert_eq!(
            v["total_distance"], w["total_distance"],
            "case changed the scenario resolution"
        );
        // Unknown names list the candidates; the two instance sources are
        // mutually exclusive and at least one is required.
        let err = run_cmd(&args("run --scenario bogus --algo tbf")).unwrap_err();
        assert!(
            err.contains("unknown scenario `bogus`") && err.contains("poisson-disk"),
            "{err}"
        );
        let err = run_cmd(&args("run --input x.json --scenario uniform --algo tbf")).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        let err = run_cmd(&args("run --algo tbf")).unwrap_err();
        assert!(
            err.contains("--input") && err.contains("--scenario"),
            "{err}"
        );
    }

    #[test]
    fn dynamic_and_serve_accept_scenarios() {
        // The uniform default is the legacy derivation: an explicit
        // `--scenario uniform` is byte-identical to omitting the flag.
        let legacy = dynamic(&args(
            "dynamic --tasks 30 --workers 20 --grid-side 16 --json",
        ))
        .unwrap();
        let explicit = dynamic(&args(
            "dynamic --tasks 30 --workers 20 --grid-side 16 --scenario uniform --json",
        ))
        .unwrap();
        assert_eq!(legacy, explicit, "uniform is not the default");
        let hot = dynamic(&args(
            "dynamic --tasks 30 --workers 20 --grid-side 16 --scenario hotspot",
        ))
        .unwrap();
        assert!(hot.contains("scenario:         hotspot"), "{hot}");
        let err = dynamic(&args("dynamic --scenario bogus")).unwrap_err();
        assert!(err.contains("unknown scenario `bogus`"), "{err}");

        let legacy = serve(&args(
            "serve --load --tasks 30 --workers 20 --seed 5 --json",
        ))
        .unwrap();
        assert!(!legacy.contains("scenario"), "{legacy}");
        let normal = serve(&args(
            "serve --load --tasks 30 --workers 20 --seed 5 --scenario normal --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&normal).unwrap();
        assert_eq!(v["scenario"], "normal");
        assert_ne!(legacy, normal, "the scenario did not reach the workload");
        let err = serve(&args("serve --load --scenario bogus")).unwrap_err();
        assert!(err.contains("unknown scenario `bogus`"), "{err}");
    }

    #[test]
    fn sweep_scenarios_axis_extends_the_grid() {
        let flags = "--mechanisms identity --matchers greedy --sizes 10 --reps 1 \
                     --shards 1 --grid-side 16 --seed 3 --json";
        let legacy = sweep(&args(&format!("sweep {flags}"))).unwrap();
        // An explicit uniform-only axis is the same job list, cell for cell.
        let uniform = sweep(&args(&format!("sweep {flags} --scenarios uniform"))).unwrap();
        assert_eq!(legacy, uniform, "explicit uniform changed the sweep");
        let both = sweep(&args(&format!(
            "sweep {flags} --scenarios uniform,adversarial-cell"
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&both).unwrap();
        let cells = v["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 2, "{both}");
        assert!(cells[0].get("scenario").is_none(), "{both}");
        assert_eq!(cells[1]["scenario"], "adversarial-cell");
        // The text table grows a scenario column only when one is present.
        let table = sweep(&args(
            "sweep --mechanisms identity --matchers greedy --sizes 10 --reps 1 \
             --shards 1 --grid-side 16 --scenarios uniform,normal",
        ))
        .unwrap();
        assert!(table.contains("scenario"), "{table}");
        let plain = sweep(&args(
            "sweep --mechanisms identity --matchers greedy --sizes 10 --reps 1 \
             --shards 1 --grid-side 16",
        ))
        .unwrap();
        assert!(!plain.contains("scenario"), "{plain}");
        // The dynamic flavour carries the same axis.
        let dyn_both = sweep(&args(
            "sweep --dynamic --mechanisms identity --matchers random \
             --shift-plans always-on --sizes 8 --shards 1 --grid-side 16 \
             --scenarios uniform,hotspot --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&dyn_both).unwrap();
        let cells = v["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 2, "{dyn_both}");
        assert_eq!(cells[1]["scenario"], "hotspot");
        let err = sweep(&args("sweep --scenarios uniform,uniform")).unwrap_err();
        assert!(err.contains("duplicate entry"), "{err}");
        let err = sweep(&args("sweep --scenarios bogus")).unwrap_err();
        assert!(err.contains("unknown scenario `bogus`"), "{err}");
    }
}
