//! Deployment lifecycle: what happens to assignment quality when workers
//! re-report every "day" under a finite lifetime privacy budget.
//!
//! Each fresh obfuscated report costs ε; by sequential composition a worker
//! with lifetime budget E can afford E/ε fresh reports. After that it keeps
//! serving from its last (increasingly stale) report. This example runs the
//! multi-epoch simulator and shows the total distance degrading once the
//! fleet's budgets run out.
//!
//! ```sh
//! cargo run --release -p pombm --example epoch_budget
//! ```

use pombm::{registry, run_epochs, EpochConfig};

fn main() {
    let config = EpochConfig {
        num_epochs: 12,
        lifetime_epsilon: 2.4, // 4 fresh reports at ε = 0.6 each
        epoch_epsilon: 0.6,
        worker_drift: 10.0,
        tasks_per_epoch: 300,
        ..EpochConfig::default()
    };
    let num_workers = 800;

    println!(
        "epoch simulation: {num_workers} workers, lifetime E = {}, per-report eps = {}",
        config.lifetime_epsilon, config.epoch_epsilon
    );
    println!(
        "=> each worker affords {} fresh reports, then serves stale\n",
        (config.lifetime_epsilon / config.epoch_epsilon) as u32
    );

    // TBF's mechanism: every fresh report is an HST random walk.
    let hst = registry().require_mechanism("hst").expect("registered");
    let report = run_epochs(num_workers, &config, hst.as_ref()).expect("hst reports tree leaves");
    println!(
        "{:>5} {:>8} {:>8} {:>11} {:>14}",
        "epoch", "fresh", "stale", "staleness", "total dist"
    );
    for m in &report.per_epoch {
        println!(
            "{:>5} {:>8} {:>8} {:>11.2} {:>14.1}",
            m.epoch, m.fresh_reports, m.stale_reports, m.avg_report_staleness, m.total_distance
        );
    }
    println!(
        "\ndistance degradation last/first: {:.2}x (staleness is the price of capping leakage)",
        report.degradation()
    );
}
