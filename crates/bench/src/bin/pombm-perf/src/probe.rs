//! Probes run after the traced units: two-thread speed-ups of the three
//! parallel kernels, the share of `report_batch` its sequential snapshot
//! pass costs, and the chain matcher's hop count. Each speed-up probe also
//! checks the kernel's contract that its output does not depend on the
//! thread count.

use crate::clock::timed;
use crate::rebuild::{jobs, spec_reports, spec_server, SHUFFLE_STREAM};
use crate::stats::Summary;
use crate::text;
use crate::trace::Recorder;
use crate::workload::{
    timeline, ServeShape, SweepShape, Timeline, EPSILON, GRID_SIDE, SERVER_SALT,
};
use pombm::algorithm::AssignCtx;
use pombm::ratio::{dynamic_offline_optimum_with_threads, offline_optimum_with_threads};
use pombm::{registry, Server, DEFAULT_SCENARIO};
use pombm_geom::seeded_rng;
use pombm_matching::ChainMatcher;
use pombm_privacy::{Epsilon, HstMechanism, PlanarLaplace};
use rand::rngs::StdRng;
use std::hint::black_box;

/// Timings per probe and thread count; the median is kept.
const REPEATS: usize = 3;

/// Median wall time of `REPEATS` runs of `f`, checking that every run's
/// output equals `expected`.
fn median_time<T: PartialEq>(
    expected: &T,
    what: &str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let (out, seconds) = timed(&mut f);
        if out? != *expected {
            return Err(format!("{what}: output depends on the thread count"));
        }
        times.push(seconds);
    }
    Ok(Summary::of(&times).median)
}

/// Median-time ratio of `solve(1)` to `solve(2)`, both checked against
/// the single-threaded output.
fn t2_speedup<T: PartialEq>(
    what: &str,
    solve: impl Fn(usize) -> Result<T, String>,
) -> Result<(f64, f64), String> {
    let expected = solve(1)?;
    let t1 = median_time(&expected, what, || solve(1))?;
    let t2 = median_time(&expected, what, || solve(2))?;
    Ok((t1 / t2, t2))
}

/// `(t1 / t2 speed-up of report_batch, snapshot-pass share at t2)` on the
/// serve session's task locations.
pub fn privacy(shape: &ServeShape, seed: u64) -> Result<(f64, f64), String> {
    let tl = timeline(seed, shape.tasks, shape.workers, shape.plan).map_err(text)?;
    let server = Server::new(tl.instance.region, GRID_SIDE, seed ^ SERVER_SALT);
    let mechanism = registry()
        .require_mechanism(shape.mechanism)
        .map_err(text)?;
    let epsilon = Epsilon::new(EPSILON);
    let locations = &tl.instance.tasks;
    let (speedup, t2) = t2_speedup("report_batch", |threads| {
        mechanism
            .report_batch(
                epsilon,
                Some(&server),
                locations,
                &mut seeded_rng(seed, 1),
                threads,
            )
            .map_err(text)
    })?;
    let snapshot = median_time(&locations.len(), "snapshot pass", || {
        snapshot_pass(shape.mechanism, &server, epsilon, locations.len(), seed)
    })?;
    Ok((speedup, snapshot / t2))
}

/// The sequential pass of `pombm_privacy::batch`: one stream snapshot and
/// one draw replay per item. Returns the number of snapshots taken.
fn snapshot_pass(
    mechanism: &str,
    server: &Server,
    epsilon: Epsilon,
    n: usize,
    seed: u64,
) -> Result<usize, String> {
    let mut rng = seeded_rng(seed, 1);
    let mut states: Vec<StdRng> = Vec::with_capacity(n);
    match mechanism {
        "hst" => {
            let m = HstMechanism::new(server.hst(), epsilon);
            let depth = server.hst().depth();
            for _ in 0..n {
                states.push(rng.clone());
                m.advance_obfuscate(depth, &mut rng);
            }
        }
        "laplace" => {
            let m = PlanarLaplace::new(epsilon);
            for _ in 0..n {
                states.push(rng.clone());
                m.advance_obfuscate(&mut rng);
            }
        }
        other => return Err(format!("snapshot pass: `{other}` has no batch override")),
    }
    Ok(black_box(states).len())
}

/// t1 / t2 speed-up of the OPT denominator on the grids' largest instance.
pub fn offline(grids: &[SweepShape], seed: u64) -> Result<f64, String> {
    let scenario = registry()
        .require_scenario(DEFAULT_SCENARIO)
        .map_err(text)?;
    let size = grids
        .iter()
        .flat_map(|g| g.sizes.iter().copied())
        .max()
        .unwrap_or(0);
    let instance = scenario.instance(seed, size);
    let (speedup, _) = t2_speedup("offline optimum", |threads| {
        offline_optimum_with_threads(&instance, threads)
            .map(f64::to_bits)
            .map_err(text)
    })?;
    Ok(speedup)
}

/// t1 / t2 speed-up of the clairvoyant denominator on the ratio timeline.
pub fn clairvoyant(tl: &Timeline) -> Result<f64, String> {
    let (speedup, _) = t2_speedup("clairvoyant optimum", |threads| {
        dynamic_offline_optimum_with_threads(&tl.instance, &tl.times, &tl.plan, threads)
            .map(|a| (a.pairs, a.dropped, a.total_cost.to_bits()))
            .map_err(text)
    })?;
    Ok(speedup)
}

/// Mean chain hops per assigned task on the first `chain` cell's first
/// repetition, from `ChainMatcher` run on the reports the cell's `chain`
/// strategy saw; `None` when no grid has a `chain` cell. The two
/// matchings must agree.
pub fn chain_hops(grids: &[SweepShape], seed: u64) -> Result<Option<f64>, String> {
    let Some(shape) = grids.iter().find(|g| g.matchers.contains(&"chain")) else {
        return Ok(None);
    };
    let jobs = jobs(shape, seed).map_err(text)?;
    let Some(job) = jobs.iter().find(|j| j.spec.matcher.name() == "chain") else {
        return Ok(None);
    };
    let scenario = registry()
        .require_scenario(DEFAULT_SCENARIO)
        .map_err(text)?;
    let mut instance = scenario.instance(seed, job.size);
    let config = pombm::PipelineConfig {
        epsilon: job.epsilon,
        seed: job.seed,
        ..shape.config(seed, false).base
    };
    instance.shuffle_tasks(&mut seeded_rng(config.seed, SHUFFLE_STREAM));
    let server = spec_server(&instance, &config, 0);
    let scratch = Recorder::default();
    let (reports, mut mech_rng, mut tie_rng) = spec_reports(
        &scratch,
        0,
        "probe",
        &job.spec,
        &instance,
        &config,
        Some(&server),
        0,
    )
    .map_err(text)?;
    let workers = reports
        .workers
        .clone()
        .into_leaves(Some(&server), "chain probe")
        .map_err(text)?;
    let tasks = reports
        .tasks
        .clone()
        .into_leaves(Some(&server), "chain probe")
        .map_err(text)?;
    let mut ctx = AssignCtx {
        instance: &instance,
        config: &config,
        server: Some(&server),
        mech_rng: &mut mech_rng,
        tie_rng: &mut tie_rng,
    };
    let strategy = job.spec.matcher.assign(reports, &mut ctx).map_err(text)?;
    let mut matcher = ChainMatcher::new(server.hst().ctx(), workers);
    let (mut pairs, mut hops) = (Vec::new(), 0usize);
    for (t, &leaf) in tasks.iter().enumerate() {
        if let Some(out) = matcher.assign(leaf) {
            pairs.push((t, out.worker));
            hops += out.hops;
        }
    }
    if pairs != strategy.pairs {
        return Err("chain probe: ChainMatcher disagrees with the chain strategy".into());
    }
    Ok(Some(hops as f64 / pairs.len().max(1) as f64))
}
