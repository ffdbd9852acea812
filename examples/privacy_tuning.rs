//! Privacy tuning: the privacy/utility trade-off and an exact Geo-I audit.
//!
//! Sweeps the privacy budget ε and reports how each pipeline's total
//! distance degrades as privacy tightens (the paper's Fig. 7a), then runs an
//! exact audit of Theorem 1 on a small tree: over every leaf triple, the
//! observed privacy-loss rate never exceeds ε.
//!
//! ```sh
//! cargo run --release -p pombm --example privacy_tuning
//! ```

use pombm::{registry, run_spec, PipelineConfig};
use pombm_geom::{seeded_rng, Grid, Rect};
use pombm_hst::Hst;
use pombm_privacy::geo_i::audit_hst_mechanism;
use pombm_privacy::{Epsilon, HstMechanism};
use pombm_workload::{synthetic, SyntheticParams};

fn main() {
    let params = SyntheticParams {
        num_tasks: 500,
        num_workers: 1000,
        ..SyntheticParams::default()
    };
    let instance = synthetic::generate(&params, &mut seeded_rng(7, 0));

    println!(
        "Privacy/utility trade-off ({} tasks, {} workers)",
        params.num_tasks, params.num_workers
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "eps", "Lap-GR", "Lap-HG", "TBF"
    );
    // The paper's three compared algorithms, in its plotting order.
    let specs = ["lap-gr", "lap-hg", "tbf"].map(|name| registry().require_spec(name).unwrap());
    for eps in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut row = format!("{eps:>8}");
        for spec in &specs {
            let config = PipelineConfig {
                epsilon: eps,
                ..PipelineConfig::default()
            };
            // Average 3 repetitions to smooth mechanism noise.
            let avg: f64 = (0..3)
                .map(|rep| {
                    run_spec(spec, &instance, &config, rep)
                        .unwrap()
                        .metrics
                        .total_distance
                })
                .sum::<f64>()
                / 3.0;
            row.push_str(&format!(" {avg:>14.1}"));
        }
        println!("{row}");
    }

    println!("\nExact Geo-I audit (Theorem 1) on a 2x2-grid tree:");
    let grid = Grid::square(Rect::square(8.0), 2);
    let mut rng = seeded_rng(1, 0);
    let hst = Hst::build(&grid.to_point_set(), &mut rng);
    for eps in [0.1, 0.5, 1.0] {
        let mech = HstMechanism::new(&hst, Epsilon::new(eps));
        let audit = audit_hst_mechanism(&hst, &mech);
        println!(
            "  eps = {eps}: max observed loss rate {:.6} over {} triples -> {}",
            audit.max_loss_rate,
            audit.triples,
            if audit.holds(1e-9) {
                "OK (<= eps)"
            } else {
                "VIOLATION"
            },
        );
        assert!(audit.holds(1e-9));
    }
}
