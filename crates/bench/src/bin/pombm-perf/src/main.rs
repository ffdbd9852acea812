//! `pombm-perf`: the end-to-end and per-layer benchmark of pombm.
//!
//! ```text
//! pombm-perf --workload tree|planar [--seed N] [--trace 0|1|FILE]
//!            [--scale full|smoke] [--seconds 32]
//! ```
//!
//! With tracing off it times the commands a user runs — `pombm sweep`
//! grids, `pombm dynamic --ratio` and an unthrottled `pombm serve` session
//! — and prints the end-to-end metrics. With `--trace 1` (or a file name,
//! which also receives every span as JSONL) it runs traced copies of the
//! three drivers and prints the per-layer metrics. Every run checks the
//! outputs; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! nonzero when a check fails. See `README.md` beside this package.

mod check;
mod clock;
mod measure;
mod probe;
mod rebuild;
mod run;
mod stats;
mod trace;
mod workload;

use run::Outcome;
use serde::Value;
use stats::Summary;
use std::path::PathBuf;
use workload::{Scale, DEFAULT_SEED, RUN_SECONDS};

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "sweep_cells_per_s",
    "ratio_report_s",
    "serve_rps",
    "serve_p50_ms",
    "serve_p99_ms",
    "peak_rss_mb",
];

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 42] = [
    "workload.derive_ms",
    "hst.build_ms",
    "hst.builds",
    "privacy.report_batch_ms",
    "privacy.reports",
    "privacy.ns_per_report",
    "privacy.report_ms",
    "privacy.t2_speedup",
    "privacy.snapshot_share_t2",
    "matching.online.assign_ms",
    "matching.online.calls",
    "matching.offline.opt_ms",
    "matching.offline.opt_solves",
    "matching.offline.opt_redundant_frac",
    "matching.offline.opt_t2_speedup",
    "matching.clairvoyant.solve_ms",
    "matching.clairvoyant.share",
    "matching.clairvoyant.t2_speedup",
    "dynamic.replay_ms",
    "dynamic.pool.insert_ms",
    "dynamic.pool.withdraw_ms",
    "dynamic.pool.assign_ms",
    "dynamic.pool.events",
    "matching.pool.insert_batch_ms",
    "matching.pool.withdraw_ms",
    "matching.pool.assign_batch_ms",
    "matching.pool.inserts",
    "matching.pool.assigns",
    "matching.pool.ns_per_assign",
    "serve.encode_ms",
    "serve.decode_ms",
    "serve.ns_per_frame",
    "serve.frames",
    "serve.windows",
    "serve.engine_self_ms",
    "serve.transport_gap_ms",
    "sweep.cells",
    "sweep.shard_idle_frac",
    "io.json_ms",
    "io.json_bytes",
    "trace.overhead_pct",
    "trace.unexplained_pct",
];

const USAGE: &str = "usage: pombm-perf --workload tree|planar [--seed N] \
                     [--trace 0|1|FILE] [--scale full|smoke] [--seconds 32]";

/// Tracing: off, on, or on with the spans written to a file.
#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    On,
    File(PathBuf),
}

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: String,
    seed: u64,
    trace: Trace,
    scale: Scale,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        trace: Trace::Off,
        scale: Scale::Full,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a whole number"))?
            }
            // BENCHMARK.json's calling convention appends `--seconds
            // <run_seconds>`. A run is a fixed number of cycles calibrated
            // to that length, so the flag only confirms it and sets nothing.
            "--seconds" => {
                if value != RUN_SECONDS.to_string() {
                    return Err(format!(
                        "--seconds: runs are a fixed number of cycles calibrated \
                         to {RUN_SECONDS} s; got `{value}`"
                    ));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    _ => Trace::File(PathBuf::from(value)),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale: `{value}` is not full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Runs one benchmark invocation and returns its outcome.
fn execute(opts: &Options) -> Result<Outcome, String> {
    let w = workload::workload(&opts.workload, opts.scale)?;
    let mut out = match opts.trace {
        Trace::Off => run::end_to_end(&w, opts.scale, opts.seed)?,
        Trace::On | Trace::File(_) => run::traced(&w, opts.scale, opts.seed)?,
    };
    if let Trace::File(path) = &opts.trace {
        trace::write_jsonl(path, &out.spans)?;
    }
    let names: &[&str] = match opts.trace {
        Trace::Off => &END_TO_END,
        _ => &PER_LAYER,
    };
    for name in names {
        let ok = out
            .metrics
            .0
            .get(*name)
            .is_some_and(|(_, v)| !v.is_empty() && v.iter().all(|x| x.is_finite()));
        if !ok {
            out.ledger
                .problems
                .push(format!("metric {name} has no finite sample"));
        }
    }
    Ok(out)
}

/// An error's message, the form every fallible step reports in.
fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn number(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

/// Every metric with its median, quartiles, sample count and unit.
fn detail(opts: &Options, out: &Outcome) -> Value {
    let metrics = out
        .metrics
        .0
        .iter()
        .map(|(name, (unit, samples))| {
            let s = Summary::of(samples);
            let field = |q: Option<f64>| q.map_or(Value::Null, number);
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), number(s.median)),
                    ("p25".into(), field(s.p25)),
                    ("p75".into(), field(s.p75)),
                    ("n".into(), Value::UInt(s.n as u64)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let ledger = &out.ledger;
    Value::Object(vec![
        ("workload".into(), Value::Str(opts.workload.clone())),
        ("seed".into(), Value::UInt(opts.seed)),
        ("traced".into(), Value::Bool(opts.trace != Trace::Off)),
        ("nproc".into(), Value::UInt(nproc)),
        ("cycles".into(), Value::UInt(out.cycles)),
        (
            "failed_frac".into(),
            number(ledger.failed as f64 / ledger.attempted.max(1) as f64),
        ),
        (
            "problems".into(),
            Value::Array(ledger.problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// The last line: the checks and the metrics `BENCHMARK.json` names.
fn result(opts: &Options, out: &Outcome) -> Value {
    let names: &[&str] = match opts.trace {
        Trace::Off => &END_TO_END,
        _ => &PER_LAYER,
    };
    let metrics = names
        .iter()
        .filter_map(|name| {
            let (unit, samples) = out.metrics.0.get(*name)?;
            let value = Summary::of(samples).median;
            Some((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), number(value)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            ))
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(out.ledger.correct())),
        ("attempted".into(), Value::UInt(out.ledger.attempted)),
        ("failed".into(), Value::UInt(out.ledger.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pombm-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match execute(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("pombm-perf: {e}");
            std::process::exit(1);
        }
    };
    for problem in &out.ledger.problems {
        eprintln!("pombm-perf: check failed: {problem}");
    }
    let render = |v: &Value| serde_json::to_string(v).expect("metric values are finite or null");
    println!("{}", render(&detail(&opts, &out)));
    println!("{}", render(&result(&opts, &out)));
    if !out.ledger.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: Trace) -> Outcome {
        let opts = Options {
            workload: workload.into(),
            seed: DEFAULT_SEED,
            trace,
            scale: Scale::Smoke,
        };
        let out = execute(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(
            out.ledger.correct(),
            "{workload}: {:?}",
            out.ledger.problems
        );
        assert_eq!(out.ledger.failed, 0, "{workload}");
        out
    }

    #[test]
    fn every_workload_passes_its_checks_untraced() {
        for name in workload::NAMES {
            let out = smoke(name, Trace::Off);
            assert_eq!(out.cycles, 1);
            assert!(out.spans.is_empty());
        }
    }

    #[test]
    fn every_workload_passes_its_checks_traced() {
        for name in workload::NAMES {
            let out = smoke(name, Trace::On);
            assert!(!out.spans.is_empty(), "{name}");
        }
    }

    #[test]
    fn the_trace_file_holds_one_json_line_per_span() {
        // Relative to the package directory, where `cargo test` runs.
        let path = PathBuf::from(format!("trace-test-{}.jsonl", std::process::id()));
        let out = smoke("planar", Trace::File(path.clone()));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        std::fs::remove_file(&path).expect("trace file removable");
        assert_eq!(text.lines().count(), out.spans.len());
        let first: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        for key in [
            "id", "parent", "name", "start_ns", "end_ns", "unit", "count",
        ] {
            assert!(first.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(args("--workload tree --seed 7 --seconds 32 --trace 1")).unwrap();
        assert_eq!((o.seed, o.trace), (7, Trace::On));
        let o = parse(args("--workload tree --trace t.jsonl --scale smoke")).unwrap();
        assert_eq!(o.trace, Trace::File("t.jsonl".into()));
        assert_eq!(o.scale, Scale::Smoke);
        assert!(parse(args("--seed 1")).is_err());
        assert!(parse(args("--workload tree --seconds 20")).is_err());
        assert!(parse(args("--workload tree --bogus 1")).is_err());
        assert!(parse(args("--workload")).is_err());
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| m["name"].as_str().expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads = names("workloads");
        assert_eq!(workloads, workload::NAMES);
        assert_eq!(
            spec["run_seconds"].as_u64(),
            Some(RUN_SECONDS),
            "the cycle counts are calibrated to the benchmark's run length"
        );
    }
}
