//! The two kinds of run: end to end (tracing off) and traced.
//!
//! Both repeat a fixed number of *cycles*: set-up samples, each sweep
//! grid, `ratio_calls` ratio calls and one serve session, so machine noise
//! falls on all three commands and on set-up alike. Unit `i` of each
//! command uses seed `S + i`, the untimed warm-up uses `S` (sweep sizes
//! quartered) and set-up sample `j` uses `S + 1000 + j`, so no timed unit
//! reuses another call's inputs, and every commit times the same units.

use crate::check::Ledger;
use crate::clock::timed;
use crate::measure;
use crate::probe;
use crate::rebuild;
use crate::text;
use crate::trace::{self, Recorder, Span, Totals};
use crate::workload::{frame_script, Scale, Timeline, Workload, SHARDS};
use pombm::serve_frames;
use std::collections::BTreeMap;

/// Set-up samples per cycle; `setup_s` is the median of all of them.
/// Spread over the run, they see the same machine as the timed units.
pub const SETUP_PER_CYCLE: u64 = 2;

/// The traced copies' root spans, one per command.
const ROOT_SPANS: [&str; 3] = ["sweep.unit", "ratio.unit", "serve.unit"];

/// Spans of the benchmark's own driver code. Every other span under a
/// root is a call into a layer.
const DRIVER_SPANS: [&str; 7] = [
    "sweep.unit",
    "sweep.shard",
    "sweep.cell",
    "sweep.rep",
    "ratio.unit",
    "dynamic.rep",
    "serve.unit",
];

/// Samples of every metric a run measured, by name, with units.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (&'static str, Vec<f64>)>);

impl Metrics {
    /// Adds one sample.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0
            .entry(name.to_string())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric samples.
    pub metrics: Metrics,
    /// Check results and operation counts.
    pub ledger: Ledger,
    /// Cycles completed.
    pub cycles: u64,
    /// Every span of a traced run, in id order per cycle.
    pub spans: Vec<Span>,
}

/// Runs the workload's set-up and three commands once, untimed, at seed
/// `seed`.
fn warm_up(w: &Workload, seed: u64) -> Result<(), String> {
    measure::setup(w, seed)?;
    for grid in &w.sweeps {
        measure::sweep(&grid.quarter(), seed, false)?;
    }
    let tl = w.ratio.timeline(seed).map_err(text)?;
    measure::ratio(&w.ratio, seed, &tl)?;
    measure::serve(&w.serve, seed)?;
    Ok(())
}

/// The digest key of sweep grid `i`.
fn sweep_key(i: usize) -> String {
    format!("sweep{i}")
}

/// The end-to-end run: warm-up, then the scale's timed cycles.
pub fn end_to_end(w: &Workload, scale: Scale, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    warm_up(w, seed)?;
    let mut ratio_unit = 0;
    let mut setup_sample = 0;
    for unit in 1..=scale.cycles() {
        out.cycles += 1;
        let s = seed + unit;
        for _ in 0..SETUP_PER_CYCLE {
            let setup_s = measure::setup(w, seed + 1000 + setup_sample)?;
            out.metrics.push("setup_s", "s", setup_s);
            setup_sample += 1;
        }

        let (mut cells, mut wall_s) = (0, 0.0);
        for (i, grid) in w.sweeps.iter().enumerate() {
            let run = measure::sweep(grid, s, false)?;
            out.ledger.sweep(&run.report, grid.cells());
            if unit == 1 {
                let json = measure::sweep_json(&run.report)?;
                out.ledger
                    .digest((w.name, scale, &sweep_key(i)), seed, unit, &json);
            }
            cells += run.report.cells.len();
            wall_s += run.wall_s;
        }
        out.metrics
            .push("sweep_cells_per_s", "cells/s", cells as f64 / wall_s);

        for _ in 0..w.ratio_calls {
            ratio_unit += 1;
            let s = seed + ratio_unit;
            let tl = w.ratio.timeline(s).map_err(text)?;
            let (report, wall_s) = measure::ratio(&w.ratio, s, &tl)?;
            out.ledger.ratio(&report, w.ratio.tasks, w.ratio.reps);
            if ratio_unit == 1 {
                let json = measure::ratio_json(&report)?;
                out.ledger
                    .digest((w.name, scale, "ratio"), seed, ratio_unit, &json);
            }
            out.metrics.push("ratio_report_s", "s", wall_s);
        }

        let (outcome, wall_s) = measure::serve(&w.serve, s)?;
        out.ledger.serve(&outcome, &w.serve);
        if unit == 1 {
            let json = measure::serve_json(&outcome.report)?;
            out.ledger
                .digest((w.name, scale, "serve"), seed, unit, &json);
        }
        let r = &outcome.report;
        out.metrics
            .push("serve_rps", "requests/s", r.requests as f64 / wall_s);
        if let Some(latency) = r.latency {
            out.metrics.push("serve_p50_ms", "ms", latency.p50_ms);
            out.metrics.push("serve_p99_ms", "ms", latency.p99_ms);
        }
    }
    out.metrics
        .push("peak_rss_mb", "MB", measure::peak_rss_mb()?);
    Ok(out)
}

/// The traced run: warm-up, then cycles that each run every command
/// untraced and then through its traced copy, then the probes.
pub fn traced(w: &Workload, scale: Scale, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    warm_up(w, seed)?;
    for unit in 1..=scale.traced_cycles() {
        out.cycles += 1;
        traced_cycle(w, scale, seed, unit, &mut out)?;
    }
    let m = &mut out.metrics;
    let (speedup, share) = probe::privacy(&w.serve, seed)?;
    m.push("privacy.t2_speedup", "x", speedup);
    m.push("privacy.snapshot_share_t2", "fraction", share);
    m.push(
        "matching.offline.opt_t2_speedup",
        "x",
        probe::offline(&w.sweeps, seed)?,
    );
    let tl = w.ratio.timeline(seed).map_err(text)?;
    m.push(
        "matching.clairvoyant.t2_speedup",
        "x",
        probe::clairvoyant(&tl)?,
    );
    if let Some(hops) = probe::chain_hops(&w.sweeps, seed)? {
        m.push("matching.online.chain_hops_per_task", "count", hops);
    }
    Ok(out)
}

/// Runs `plain` and `traced`, in that order or the reverse, so that
/// whatever the first call leaves warm favours neither side of the
/// overhead comparison over a run.
fn both<A, B>(
    traced_first: bool,
    plain: impl FnOnce() -> Result<A, String>,
    traced: impl FnOnce() -> Result<B, String>,
) -> Result<(A, B), String> {
    if traced_first {
        let t = traced()?;
        Ok((plain()?, t))
    } else {
        let p = plain()?;
        Ok((p, traced()?))
    }
}

/// One traced cycle at seed `seed + unit`: each command untraced and
/// traced, alternating which goes first, then the two outputs compared
/// byte for byte.
fn traced_cycle(
    w: &Workload,
    scale: Scale,
    seed: u64,
    unit: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = seed + unit;
    let traced_first = unit.is_multiple_of(2);
    let rec = Recorder::default();
    let ledger = &mut out.ledger;
    let same = |ledger: &mut Ledger, what: &str, traced: &str, plain: &str| {
        if traced != plain {
            ledger.problems.push(format!(
                "{what}: the traced copy's output differs at seed {s}"
            ));
        }
    };

    // Sweeps, untraced with per-cell timings for the shard idle share.
    let (mut sweep_s, mut busy_s, mut cells) = (0.0, 0.0, 0);
    let (mut solves, mut redundant) = (0, 0);
    for (i, grid) in w.sweeps.iter().enumerate() {
        let (run, sweep_trace) = both(
            traced_first,
            || measure::sweep(grid, s, true),
            || rebuild::sweep(&rec, grid, s),
        )?;
        ledger.sweep(&run.report, grid.cells());
        let sweep_json = measure::sweep_json(&run.report)?;
        ledger.digest((w.name, scale, &sweep_key(i)), seed, unit, &sweep_json);
        same(ledger, "sweep", &sweep_trace.json, &sweep_json);
        sweep_s += run.wall_s;
        busy_s += run
            .report
            .cells
            .iter()
            .filter_map(|c| c.wall_ms)
            .sum::<f64>()
            / 1e3;
        cells += run.report.cells.len();
        solves += sweep_trace.solves;
        redundant += sweep_trace.redundant;
    }

    // Ratio.
    let tl = w.ratio.timeline(s).map_err(text)?;
    let ((report, ratio_s), traced_report) = both(
        traced_first,
        || measure::ratio(&w.ratio, s, &tl),
        || rebuild::ratio(&rec, &w.ratio, s, &tl),
    )?;
    ledger.ratio(&report, w.ratio.tasks, w.ratio.reps);
    let ratio_json = measure::ratio_json(&report)?;
    ledger.digest((w.name, scale, "ratio"), seed, unit, &ratio_json);
    let traced_json = json_span(&rec, &format!("ratio/{s}"), &traced_report)?;
    same(ledger, "ratio", &traced_json, &ratio_json);

    // Serve: the threaded session, then its single-thread ingress on the
    // same script and the traced engine.
    let (outcome, serve_s) = measure::serve(&w.serve, s)?;
    ledger.serve(&outcome, &w.serve);
    let serve_json = measure::serve_json(&outcome.report)?;
    ledger.digest((w.name, scale, "serve"), seed, unit, &serve_json);
    let shape = &w.serve;
    let scenario = pombm::registry()
        .require_scenario(pombm::DEFAULT_SCENARIO)
        .map_err(text)?;
    let instance = scenario.timeline_instance(s, shape.tasks, shape.workers);
    let name = format!("serve/{s}");
    let frames = rec
        .span(
            None,
            "serve.encode",
            &name,
            shape.requests() as u64 + 1,
            |_| {
                let tl = Timeline {
                    times: scenario.task_times(s, shape.tasks),
                    plan: scenario.shift_plan(shape.plan, shape.workers, s)?,
                    instance,
                };
                Ok::<_, pombm::PipelineError>(frame_script(&tl))
            },
        )
        .map_err(text)?;
    // Without latency sampling, which the traced copy does not do either.
    let config = pombm::ServeConfig {
        timings: false,
        ..shape.config(s)
    };
    let ((frames_report, frames_s), traced_report) = both(
        traced_first,
        || {
            let script = frames.clone();
            let (outcome, seconds) = timed(|| serve_frames(&config, script));
            Ok((outcome.map_err(text)?.report, seconds))
        },
        || rebuild::serve(&rec, shape, s, frames.clone()),
    )?;
    same(
        ledger,
        "serve_frames",
        &measure::serve_json(&frames_report)?,
        &serve_json,
    );
    let traced_json = json_span(&rec, &name, &traced_report)?;
    same(ledger, "serve", &traced_json, &serve_json);

    let spans = rec.into_spans();
    let t = trace::by_name(&spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let m = &mut out.metrics;

    // Overhead: each traced root against the untraced call it copies.
    let pairs = [
        ("sweep", get("sweep.unit").dur_ns, sweep_s),
        ("ratio", get("ratio.unit").dur_ns, ratio_s),
        ("serve", get("serve.unit").dur_ns, frames_s),
    ];
    let pct = |traced_s: f64, plain_s: f64| 100.0 * (traced_s - plain_s) / plain_s;
    for (command, traced_ns, plain_s) in pairs {
        m.push(
            &format!("trace.overhead_pct.{command}"),
            "%",
            pct(traced_ns as f64 / 1e9, plain_s),
        );
    }
    let traced_s = pairs.iter().map(|p| p.1).sum::<u64>() as f64 / 1e9;
    let plain_s = pairs.iter().map(|p| p.2).sum::<f64>();
    m.push("trace.overhead_pct", "%", pct(traced_s, plain_s));
    // Unexplained: the untraced calls' time that no layer span of their
    // traced copies accounts for. A library change the copies do not
    // follow moves the untraced time alone, and shows here.
    let layer_s = trace::layer_wall_ns(&spans, &ROOT_SPANS, &DRIVER_SPANS) as f64 / 1e9;
    m.push(
        "trace.unexplained_pct",
        "%",
        100.0 * (plain_s - layer_s) / plain_s,
    );

    let per = |x: Totals| {
        if x.count == 0 {
            0.0
        } else {
            x.self_ns as f64 / x.count as f64
        }
    };
    let sum = |pred: &dyn Fn(&str) -> bool| {
        t.iter()
            .filter(|(n, _)| pred(n))
            .fold(Totals::default(), |a, (_, x)| Totals {
                self_ns: a.self_ns + x.self_ns,
                dur_ns: a.dur_ns + x.dur_ns,
                count: a.count + x.count,
                spans: a.spans + x.spans,
            })
    };
    m.push(
        "workload.derive_ms",
        "ms",
        ms(get("workload.derive").self_ns),
    );
    m.push("hst.build_ms", "ms", ms(get("hst.build").self_ns));
    m.push("hst.builds", "count", get("hst.build").spans as f64);
    let batch = get("privacy.report_batch");
    m.push("privacy.report_batch_ms", "ms", ms(batch.self_ns));
    m.push("privacy.reports", "count", batch.count as f64);
    m.push("privacy.ns_per_report", "ns", per(batch));
    m.push("privacy.report_ms", "ms", ms(get("privacy.report").self_ns));

    let online = sum(&|n| n.starts_with("matching.assign.") && n != "matching.assign.offline-opt");
    m.push("matching.online.assign_ms", "ms", ms(online.self_ns));
    m.push("matching.online.calls", "count", online.spans as f64);
    for (n, x) in t.range("matching.assign.".to_string()..) {
        let Some(matcher) = n.strip_prefix("matching.assign.") else {
            break;
        };
        m.push(
            &format!("matching.online.assign_ms.{matcher}"),
            "ms",
            ms(x.self_ns),
        );
    }
    let opt = get("matching.offline.opt").self_ns + get("matching.assign.offline-opt").self_ns;
    m.push("matching.offline.opt_ms", "ms", ms(opt));
    m.push("matching.offline.opt_solves", "count", solves as f64);
    m.push(
        "matching.offline.opt_redundant_frac",
        "fraction",
        redundant as f64 / solves.max(1) as f64,
    );
    let solve = get("matching.clairvoyant.solve");
    m.push("matching.clairvoyant.solve_ms", "ms", ms(solve.self_ns));
    m.push(
        "matching.clairvoyant.share",
        "fraction",
        solve.dur_ns as f64 / get("ratio.unit").dur_ns as f64,
    );

    m.push("dynamic.replay_ms", "ms", ms(get("dynamic.replay").dur_ns));
    for op in ["insert", "withdraw", "assign"] {
        let x = get(&format!("dynamic.pool.{op}"));
        m.push(&format!("dynamic.pool.{op}_ms"), "ms", ms(x.self_ns));
    }
    m.push(
        "dynamic.pool.events",
        "count",
        sum(&|n| n.starts_with("dynamic.pool.")).count as f64,
    );

    let inserts = get("matching.pool.insert_batch");
    let assigns = get("matching.pool.assign_batch");
    m.push("matching.pool.insert_batch_ms", "ms", ms(inserts.self_ns));
    m.push(
        "matching.pool.withdraw_ms",
        "ms",
        ms(get("matching.pool.withdraw").self_ns),
    );
    m.push("matching.pool.assign_batch_ms", "ms", ms(assigns.self_ns));
    m.push("matching.pool.inserts", "count", inserts.count as f64);
    m.push("matching.pool.assigns", "count", assigns.count as f64);
    m.push("matching.pool.ns_per_assign", "ns", per(assigns));

    let encode = get("serve.encode");
    let decode = get("serve.decode");
    m.push("serve.encode_ms", "ms", ms(encode.self_ns));
    m.push("serve.decode_ms", "ms", ms(decode.self_ns));
    m.push("serve.ns_per_frame", "ns", per(decode));
    m.push("serve.frames", "count", decode.count as f64);
    m.push("serve.windows", "count", traced_report.batches as f64);
    m.push(
        "serve.engine_self_ms",
        "ms",
        ms(get("serve.frames").self_ns),
    );
    m.push(
        "serve.transport_gap_ms",
        "ms",
        (serve_s - frames_s) * 1e3 - ms(encode.self_ns),
    );

    m.push("sweep.cells", "count", cells as f64);
    m.push(
        "sweep.shard_idle_frac",
        "fraction",
        1.0 - busy_s / (SHARDS as f64 * sweep_s),
    );
    let json = get("io.json");
    m.push("io.json_ms", "ms", ms(json.self_ns));
    m.push("io.json_bytes", "bytes", json.count as f64);

    out.spans.extend(spans);
    Ok(())
}

/// Renders a report as the CLI's `--json` does, as a root-level
/// `io.json` span counting the bytes written.
fn json_span<T: serde::Serialize>(
    rec: &Recorder,
    unit: &str,
    report: &T,
) -> Result<String, String> {
    rec.span_n(None, "io.json", unit, |_| {
        let json = serde_json::to_string_pretty(report);
        let bytes = json.as_ref().map_or(0, |j| j.len() as u64);
        (json, bytes)
    })
    .map_err(text)
}
