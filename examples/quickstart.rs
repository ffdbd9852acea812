//! Quickstart: run pipelines end to end on a synthetic workload through
//! the mechanism × matcher registry, and compose a pairing the paper never
//! evaluated.
//!
//! ```sh
//! cargo run --release -p pombm --example quickstart
//! ```

use pombm::{registry, run_spec, PipelineConfig};
use pombm_geom::seeded_rng;
use pombm_workload::{synthetic, SyntheticParams};

fn main() {
    // A Table II-style synthetic workload: tasks and workers drawn from a
    // Normal distribution in a 200 x 200 space.
    let params = SyntheticParams {
        num_tasks: 1000,
        num_workers: 2000,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(42, 0));

    // ε = 0.6 per workspace unit, 32 x 32 predefined points.
    let config = PipelineConfig {
        epsilon: 0.6,
        ..PipelineConfig::default()
    };

    println!(
        "POMBM quickstart: {} tasks, {} workers, eps = {}",
        params.num_tasks, params.num_workers, config.epsilon
    );
    println!(
        "{:<10} {:<22} {:>16} {:>14} {:>12}",
        "algo", "mechanism + matcher", "total distance", "assign time", "per task"
    );

    // The paper's three compared algorithms, straight from the registry...
    for name in ["lap-gr", "lap-hg", "tbf"] {
        let spec = registry().require_spec(name).expect("registered");
        let result = run_spec(&spec, &instance, &config, 0).expect("runnable");
        println!(
            "{:<10} {:<22} {:>16.1} {:>14.2?} {:>12.2?}",
            spec.label(),
            format!("{} + {}", spec.mechanism.name(), spec.matcher.name()),
            result.metrics.total_distance,
            result.metrics.assign_time,
            result.metrics.avg_task_latency(),
        );
    }

    // ...plus a free pairing the paper never evaluated.
    let novel = registry().compose("exp", "chain").expect("both registered");
    let result = run_spec(&novel, &instance, &config, 0).expect("runnable");
    println!(
        "{:<10} {:<22} {:>16.1} {:>14.2?} {:>12.2?}",
        novel.name(),
        "exp + chain",
        result.metrics.total_distance,
        result.metrics.assign_time,
        result.metrics.avg_task_latency(),
    );

    println!(
        "\nLower total distance is better; every mechanism above is \
         eps-Geo-Indistinguishable. Run `pombm list algorithms` for the full catalogue."
    );
}
