//! Untraced units: each times exactly what one user command does, through
//! the library's public entry points.

use crate::clock::timed;
use crate::text;
use crate::workload::{
    frame_script, timeline, RatioShape, ServeShape, SweepShape, Timeline, Workload, GRID_SIDE,
    SERVER_SALT,
};
use pombm::{
    dynamic_competitive_ratio, registry, run_serve, run_sweep, DynamicRatioReport, ServeOutcome,
    ServeReport, Server, SweepReport, DEFAULT_SCENARIO,
};
use std::hint::black_box;

/// A `pombm sweep --json` unit: `run_sweep` plus the pretty JSON.
pub struct SweepRun {
    /// The sweep's report.
    pub report: SweepReport,
    /// Wall time of the sweep and its JSON, in seconds.
    pub wall_s: f64,
}

/// Runs one sweep grid and renders it as `pombm sweep --json` does.
pub fn sweep(shape: &SweepShape, seed: u64, timings: bool) -> Result<SweepRun, String> {
    let config = shape.config(seed, timings);
    let (result, wall_s) = timed(|| -> Result<SweepReport, String> {
        let report = run_sweep(&config).map_err(text)?;
        black_box(serde_json::to_string_pretty(&report).map_err(text)?);
        Ok(report)
    });
    Ok(SweepRun {
        report: result?,
        wall_s,
    })
}

/// The sweep JSON without the machine-dependent `wall_ms` column.
pub fn sweep_json(report: &SweepReport) -> Result<String, String> {
    let mut report = report.clone();
    for cell in &mut report.cells {
        cell.wall_ms = None;
    }
    serde_json::to_string_pretty(&report).map_err(text)
}

/// One `dynamic_competitive_ratio` call on a derived timeline, timed
/// without the derivation (that is set-up).
pub fn ratio(
    shape: &RatioShape,
    seed: u64,
    tl: &Timeline,
) -> Result<(DynamicRatioReport, f64), String> {
    let mechanism = registry()
        .require_mechanism(shape.mechanism)
        .map_err(text)?;
    let matcher = registry()
        .dynamic_matcher_any(shape.matcher)
        .map_err(text)?;
    let config = shape.config(seed);
    let (report, wall_s) = timed(|| {
        dynamic_competitive_ratio(
            &tl.instance,
            &tl.times,
            &tl.plan,
            &config,
            mechanism.as_ref(),
            matcher.as_ref(),
            shape.reps,
        )
    });
    Ok((report.map_err(text)?, wall_s))
}

/// The ratio report as `pombm dynamic --ratio --json` prints it.
pub fn ratio_json(report: &DynamicRatioReport) -> Result<String, String> {
    serde_json::to_string_pretty(report).map_err(text)
}

/// One `run_serve` session, timed whole.
pub fn serve(shape: &ServeShape, seed: u64) -> Result<(ServeOutcome, f64), String> {
    let config = shape.config(seed);
    let (outcome, wall_s) = timed(|| run_serve(&config));
    Ok((outcome.map_err(text)?, wall_s))
}

/// The serve report JSON without the machine-dependent `latency` block.
pub fn serve_json(report: &ServeReport) -> Result<String, String> {
    let mut report = report.clone();
    report.latency = None;
    serde_json::to_string_pretty(&report).map_err(text)
}

/// One set-up sample: the public calls each driver makes before its first
/// request — registry resolution, scenario derivation, the server a
/// timeline replay publishes, and the serve frame script.
pub fn setup(w: &Workload, seed: u64) -> Result<f64, String> {
    let (result, seconds) = timed(|| -> Result<(), pombm::PipelineError> {
        let r = registry();
        let scenario = r.require_scenario(DEFAULT_SCENARIO)?;
        for grid in &w.sweeps {
            for name in grid.mechanisms {
                r.require_mechanism(name)?;
            }
            for name in grid.matchers {
                r.require_matcher(name)?;
            }
            for &size in &grid.sizes {
                black_box(scenario.instance(seed, size));
            }
        }

        r.require_mechanism(w.ratio.mechanism)?;
        r.dynamic_matcher_any(w.ratio.matcher)?;
        let tl = w.ratio.timeline(seed)?;
        black_box(Server::new(
            tl.instance.region,
            GRID_SIDE,
            seed ^ SERVER_SALT,
        ));

        r.require_mechanism(w.serve.mechanism)?;
        r.require_dynamic_matcher(w.serve.matcher)?;
        let s = &w.serve;
        let tl = timeline(seed, s.tasks, s.workers, s.plan)?;
        black_box(frame_script(&tl));
        black_box(Server::new(
            tl.instance.region,
            GRID_SIDE,
            seed ^ SERVER_SALT,
        ));
        Ok(())
    });
    result.map_err(text)?;
    Ok(seconds)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
