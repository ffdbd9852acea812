//! A tour of the three ε-Geo-Indistinguishable mechanisms in this
//! repository: where each one sends the same location, and what that does
//! to downstream matching.
//!
//! * planar Laplace (Andrés et al., CCS'13) — continuous noise in the plane;
//! * exponential mechanism — categorical over the predefined points;
//! * the paper's HST mechanism — categorical over the tree's leaves.
//!
//! ```sh
//! cargo run --release -p pombm --example mechanism_tour
//! ```

use pombm::{registry, run_spec, PipelineConfig, Server};
use pombm_geom::{seeded_rng, Point, Rect};
use pombm_privacy::{Epsilon, ExponentialMechanism, HstMechanism, PlanarLaplace};
use pombm_workload::{synthetic, SyntheticParams};

fn main() {
    let epsilon = Epsilon::new(0.6);
    let server = Server::new(Rect::square(200.0), 16, 7);
    let location = Point::new(83.0, 119.0);
    let mut rng = seeded_rng(2020, 0);

    println!(
        "one location, three mechanisms (eps = {}):\n",
        epsilon.value()
    );
    println!("true location: ({}, {})\n", location.x, location.y);

    // 1. Planar Laplace: continuous output.
    let laplace = PlanarLaplace::new(epsilon);
    println!("planar Laplace (continuous plane):");
    for i in 0..3 {
        let z = laplace.obfuscate(&location, &mut rng);
        println!(
            "  sample {i}: ({:>7.2}, {:>7.2})  displaced {:.2}",
            z.x,
            z.y,
            location.dist(&z)
        );
    }

    // 2. Exponential mechanism: one of the predefined points.
    let mut expm = ExponentialMechanism::new(server.hst().points().clone(), epsilon);
    let snapped = server.grid().nearest(&location);
    println!("\nexponential mechanism (predefined points):");
    for i in 0..3 {
        let z = expm.obfuscate(snapped, &mut rng);
        let p = server.hst().points().point(z);
        println!(
            "  sample {i}: point #{z} at ({:>6.1}, {:>6.1})  displaced {:.2}",
            p.x,
            p.y,
            location.dist(&p)
        );
    }

    // 3. The paper's HST mechanism: a leaf of the complete tree (possibly
    //    fake; fake leaves resolve to a representative real point).
    let hst_mech = HstMechanism::new(server.hst(), epsilon);
    let leaf = server.snap(&location);
    println!("\nHST mechanism (tree leaves; the paper's Alg. 3):");
    for i in 0..3 {
        let z = hst_mech.obfuscate(server.hst(), leaf, &mut rng);
        let p = server.hst().representative_point(z);
        println!(
            "  sample {i}: {z}{}  near ({:>6.1}, {:>6.1})  tree distance {:.2}",
            if server.hst().is_real(z) {
                ""
            } else {
                " (fake)"
            },
            p.x,
            p.y,
            server.hst().tree_dist(leaf, z)
        );
    }

    // What the choice means downstream: same workload, same matcher family,
    // different mechanisms.
    let params = SyntheticParams {
        num_tasks: 800,
        num_workers: 1500,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(11, 0));
    let config = PipelineConfig::default();
    println!("\nsame workload through each mechanism + HST-greedy:");
    println!("{:<8} {:>16}", "algo", "total distance");
    for name in ["lap-hg", "exp-hg", "tbf"] {
        let spec = registry().require_spec(name).expect("registered");
        let r = run_spec(&spec, &instance, &config, 0).expect("runnable");
        println!("{:<8} {:>16.1}", spec.label(), r.metrics.total_distance);
    }
    println!("\nTBF wins because its noise respects the tree the matcher uses.");
}
