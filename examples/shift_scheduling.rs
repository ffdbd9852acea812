//! Dynamic fleets: task assignment when workers run shifts instead of
//! being registered upfront.
//!
//! Sweeps shift duration (fleet coverage) in a worker-rich regime and
//! shows the trade-off the static model hides: with short shifts many
//! workers depart unassigned and tasks hit an empty pool; with long shifts
//! the pool stays deep and the system approaches the paper's always-on
//! setting (fewer drops, nearer workers).
//!
//! ```sh
//! cargo run --release -p pombm --example shift_scheduling
//! ```

use pombm::{even_task_times, registry, run_dynamic_spec, DynamicConfig};
use pombm_geom::seeded_rng;
use pombm_workload::shifts::ShiftPlan;
use pombm_workload::{synthetic, SyntheticParams};

fn main() {
    // Worker-rich: twice as many workers as tasks, so whether a worker is
    // *on shift* when a task arrives is the binding constraint.
    let params = SyntheticParams {
        num_tasks: 300,
        num_workers: 600,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(99, 0));
    let horizon = 1000.0;
    let times = even_task_times(params.num_tasks, horizon * 0.99);
    let config = DynamicConfig::default();
    // TBF on a shifting fleet: the HST mechanism over the tree-greedy pool.
    let mechanism = registry().require_mechanism("hst").expect("registered");
    let matcher = registry()
        .require_dynamic_matcher("hst-greedy")
        .expect("registered");

    println!(
        "dynamic fleet: {} tasks over {horizon}s, {} workers on random shifts\n",
        params.num_tasks, params.num_workers
    );
    println!(
        "{:>14} {:>9} {:>9} {:>9} {:>13} {:>13}",
        "shift length", "coverage", "assigned", "dropped", "assign rate", "avg distance"
    );
    for (i, (lo, hi)) in [
        (25.0, 75.0),
        (100.0, 200.0),
        (300.0, 500.0),
        (900.0, 1000.0),
    ]
    .into_iter()
    .enumerate()
    {
        let plan = ShiftPlan::uniform(
            params.num_workers,
            horizon,
            lo,
            hi,
            &mut seeded_rng(99, 2 + i as u64),
        );
        let out = run_dynamic_spec(
            &instance,
            &times,
            &plan,
            &config,
            mechanism.as_ref(),
            matcher.as_ref(),
        )
        .expect("the hst pairing drives the fleet");
        let avg_dist = if out.pairs.is_empty() {
            0.0
        } else {
            out.total_distance / out.pairs.len() as f64
        };
        println!(
            "{:>9.0}-{:<4.0} {:>9.2} {:>9} {:>9} {:>13.2} {:>13.2}",
            lo,
            hi,
            plan.mean_coverage(),
            out.pairs.len(),
            out.dropped_tasks,
            out.assignment_rate(),
            avg_dist
        );
    }
    println!("\nlonger shifts -> higher coverage -> fewer drops and nearer workers;");
    println!("the paper's static model is the coverage = 1.0 limit.");
}
