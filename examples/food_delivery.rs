//! Food delivery: the case study on matching-size maximization (Sec. IV-C).
//!
//! Couriers accept orders only within a bounded pickup radius. The platform
//! must assign each incoming order to a courier who can actually reach it —
//! judging reachability on privacy-protected locations. Compares the Prob
//! baseline (Laplace + probabilistic reachability) against TBF (HST
//! mechanism + nearest reachable worker on the tree) by successful matches.
//!
//! ```sh
//! cargo run --release -p pombm --example food_delivery
//! ```

use pombm::{run_case_study, CaseStudyAlgorithm, Server};
use pombm_geom::seeded_rng;
use pombm_workload::{synthetic, SyntheticParams};

fn main() -> Result<(), pombm::PipelineError> {
    let params = SyntheticParams {
        num_tasks: 1000,
        num_workers: 2000,
        ..SyntheticParams::default()
    };
    // Orders + couriers with reachable radii U[10, 20] units.
    let instance = synthetic::generate_with_radii(&params, &mut seeded_rng(99, 0));
    let server = Server::new(instance.region, 32, 99);

    println!(
        "Food delivery case study: {} orders, {} couriers, pickup radius U[10,20]",
        instance.num_tasks(),
        instance.num_workers()
    );
    println!("{:>8} {:>16} {:>16}", "eps", "Prob matches", "TBF matches");
    for eps in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut sizes = Vec::new();
        for algo in CaseStudyAlgorithm::ALL {
            let mut total = 0.0;
            for rep in 0..3 {
                total += run_case_study(algo, &instance, &server, eps, rep)?.matching_size as f64;
            }
            sizes.push(total / 3.0);
        }
        println!("{eps:>8} {:>16.1} {:>16.1}", sizes[0], sizes[1]);
    }
    println!("\nHigher is better: matches are only counted when the courier's true\nlocation is within the pickup radius of the order.");
    Ok(())
}
