//! Ride hailing: the paper's motivating scenario (Uber-style dispatch).
//!
//! Simulates a peak half-hour in a 10 km x 10 km city: thousands of
//! passengers (tasks) request rides and must be dispatched immediately to
//! drivers (workers) — without the dispatch server ever seeing true
//! locations. Compares the three ε-Geo-Indistinguishable pipelines on the
//! Chengdu-like trace over several simulated days.
//!
//! ```sh
//! cargo run --release -p pombm --example ride_hailing
//! ```

use pombm::{registry, run_spec, PipelineConfig};
use pombm_workload::chengdu::{self, CityModel};

/// Meters per workspace unit (10 km -> 200 units, the synthetic scale).
const UNIT_METERS: f64 = 50.0;

fn main() {
    let city = CityModel::generate(2016);
    let days = 3;
    let drivers = 8000;
    let config = PipelineConfig {
        epsilon: 0.6,
        ..PipelineConfig::default()
    };

    println!(
        "Ride hailing over {days} simulated Chengdu days, {drivers} drivers, eps = {}",
        config.epsilon
    );
    println!(
        "{:<8} {:>10} {:>20} {:>22} {:>14}",
        "algo", "rides", "total distance (km)", "avg pickup dist (m)", "assign time"
    );

    // The paper's three compared algorithms, in its plotting order.
    for name in ["lap-gr", "lap-hg", "tbf"] {
        let spec = registry().require_spec(name).expect("registered");
        let mut rides = 0usize;
        let mut total_m = 0.0;
        let mut time = std::time::Duration::ZERO;
        for day in 0..days {
            let instance =
                chengdu::generate_day(&city, day, drivers, 2016).scaled(1.0 / UNIT_METERS);
            let result = run_spec(&spec, &instance, &config, day as u64).expect("runnable");
            rides += result.matching.size();
            total_m += result.metrics.total_distance * UNIT_METERS;
            time += result.metrics.assign_time;
        }
        println!(
            "{:<8} {:>10} {:>20.1} {:>22.0} {:>14.2?}",
            spec.label(),
            rides,
            total_m / 1000.0,
            total_m / rides as f64,
            time,
        );
    }
    println!("\nTBF should yield clearly shorter pickup distances than the Laplace baselines.");
}
