//! Integration and property tests for the extension modules: the
//! exponential mechanism, alias tables, the randomized/chain/capacitated
//! matchers, the extended pipeline variants, and the epoch simulator.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests produce no compared output"
)]

use pombm::{registry, run_epochs, run_spec, EpochConfig, PipelineConfig, RunResult};
use pombm_geom::{seeded_rng, Grid, Rect};
use pombm_hst::{CodeContext, LeafCode};
use pombm_matching::{ChainMatcher, HstGreedyPool};
use pombm_privacy::{AliasTable, Epsilon, ExponentialMechanism};
use pombm_workload::{synthetic, SyntheticParams};
use proptest::prelude::*;

fn run(
    algo: &str,
    instance: &pombm_workload::Instance,
    config: &PipelineConfig,
    rep: u64,
) -> RunResult {
    let spec = registry().require_spec(algo).unwrap();
    run_spec(&spec, instance, config, rep).unwrap()
}

fn small_instance(tasks: usize, workers: usize, seed: u64) -> pombm_workload::Instance {
    let params = SyntheticParams {
        num_tasks: tasks,
        num_workers: workers,
        ..SyntheticParams::default()
    };
    synthetic::generate(&params, &mut seeded_rng(seed, 0))
}

// ---------------------------------------------------------------------------
// Cross-crate pipeline behaviour of the extended algorithms.
// ---------------------------------------------------------------------------

#[test]
fn mechanism_ablation_ordering_holds_at_strict_epsilon() {
    // At ε = 0.2 the tree-aware mechanism must beat the exponential
    // mechanism under the same matcher, and both must beat random: this is
    // the ordering the ablatemech experiment reports.
    let instance = small_instance(150, 250, 1);
    let reps = 4;
    let avg = |algo: &str| -> f64 {
        (0..reps)
            .map(|rep| {
                let config = PipelineConfig {
                    epsilon: 0.2,
                    ..PipelineConfig::default()
                };
                run(algo, &instance, &config, rep).metrics.total_distance
            })
            .sum::<f64>()
            / reps as f64
    };
    let tbf = avg("tbf");
    let exp = avg("exp-hg");
    let floor = avg("random");
    assert!(
        tbf < exp,
        "TBF ({tbf}) should beat Exp-HG ({exp}) at eps=0.2"
    );
    assert!(exp < floor, "Exp-HG ({exp}) should beat random ({floor})");
}

#[test]
fn extended_algorithms_respect_k_min_n_m() {
    // More tasks than workers: matching size is min(n, m) for every
    // distance-minimizing variant.
    let instance = small_instance(80, 30, 2);
    for algo in ["exp-hg", "tbf-rand", "tbf-chain", "random"] {
        let r = run(algo, &instance, &PipelineConfig::default(), 0);
        assert_eq!(r.matching.size(), 30, "{algo}");
        assert!(r.matching.is_valid(), "{algo}");
    }
}

#[test]
fn epoch_simulation_distance_degrades_after_budget_exhaustion() {
    let config = EpochConfig {
        num_epochs: 8,
        lifetime_epsilon: 1.2, // two fresh reports at ε = 0.6
        epoch_epsilon: 0.6,
        worker_drift: 12.0,
        tasks_per_epoch: 120,
        ..EpochConfig::default()
    };
    let hst = registry().require_mechanism("hst").unwrap();
    let report = run_epochs(250, &config, hst.as_ref()).unwrap();
    // Average of the fresh-report epochs vs the stale tail.
    let fresh_avg: f64 = report.per_epoch[..2]
        .iter()
        .map(|m| m.total_distance)
        .sum::<f64>()
        / 2.0;
    let stale_avg: f64 = report.per_epoch[5..]
        .iter()
        .map(|m| m.total_distance)
        .sum::<f64>()
        / (report.per_epoch.len() - 5) as f64;
    assert!(
        stale_avg > fresh_avg,
        "stale epochs ({stale_avg}) should cost more than fresh ones ({fresh_avg})"
    );
}

#[test]
fn exponential_mechanism_audit_on_grid() {
    // Exact ε-Geo-I audit over a small grid for several budgets.
    let points = Grid::square(Rect::square(100.0), 4).to_point_set();
    for eps in [0.1, 0.6, 2.0] {
        ExponentialMechanism::new(points.clone(), Epsilon::new(eps))
            .audit_geo_i(1e-9)
            .unwrap_or_else(|e| panic!("eps = {eps}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

fn arb_ctx() -> impl Strategy<Value = CodeContext> {
    (2u32..=4, 2u32..=6).prop_map(|(c, d)| CodeContext::new(c, d))
}

proptest! {
    /// Alias-table PMF equals the normalized weights and sampling stays in
    /// support, for arbitrary weight vectors.
    #[test]
    fn alias_table_pmf_matches_weights(
        weights in proptest::collection::vec(0.0f64..1e6, 1..64),
        seed in 0u64..10_000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            prop_assert!((table.probability(i) - w / total).abs() < 1e-9);
        }
        let mut rng = seeded_rng(seed, 0);
        for _ in 0..50 {
            let s = table.sample(&mut rng);
            prop_assert!(s < weights.len());
            prop_assert!(weights[s] > 0.0, "sampled zero-weight outcome {}", s);
        }
    }

    /// The tree pool's randomized rule always assigns a tree-nearest
    /// available worker and never reuses one.
    #[test]
    fn randomized_greedy_invariants(
        ctx in arb_ctx(),
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let mut rng = seeded_rng(seed, 1);
        use rand::Rng as _;
        let workers: Vec<LeafCode> =
            (0..n).map(|_| LeafCode(rng.gen_range(0..ctx.num_leaves()))).collect();
        let mut m = HstGreedyPool::new(ctx);
        m.add_batch((0..).zip(workers.iter().copied()));
        let mut available = vec![true; n];
        for _ in 0..n {
            let t = LeafCode(rng.gen_range(0..ctx.num_leaves()));
            let w = m.assign_random(t, &mut rng).expect("pool non-empty") as usize;
            prop_assert!(available[w]);
            let best = workers.iter().enumerate()
                .filter(|&(i, _)| available[i])
                .map(|(_, &x)| ctx.tree_dist_units(t, x))
                .min().unwrap();
            prop_assert_eq!(ctx.tree_dist_units(t, workers[w]), best);
            available[w] = false;
        }
        prop_assert_eq!(m.available(), 0);
    }

    /// The chain matcher matches min(n, m) tasks, never reuses a worker,
    /// and its hop counts stay below the pool size.
    #[test]
    fn chain_matcher_invariants(
        ctx in arb_ctx(),
        seed in 0u64..10_000,
        n in 1usize..30,
        m in 1usize..30,
    ) {
        let mut rng = seeded_rng(seed, 2);
        use rand::Rng as _;
        let workers: Vec<LeafCode> =
            (0..n).map(|_| LeafCode(rng.gen_range(0..ctx.num_leaves()))).collect();
        let mut matcher = ChainMatcher::new(ctx, workers);
        let mut used = std::collections::HashSet::new();
        let mut matched = 0usize;
        for _ in 0..m {
            let t = LeafCode(rng.gen_range(0..ctx.num_leaves()));
            match matcher.assign(t) {
                Some(out) => {
                    prop_assert!(used.insert(out.worker));
                    prop_assert!(out.hops < n);
                    matched += 1;
                }
                None => break,
            }
        }
        prop_assert_eq!(matched, n.min(m));
    }

    /// The capacity matcher at capacity 1 is exactly plain HST-greedy:
    /// `tbf-cap` and `tbf` produce one matching on any instance.
    #[test]
    fn capacity_one_equals_greedy(
        seed in 0u64..10_000,
        tasks in 1usize..40,
        workers in 1usize..40,
    ) {
        let instance = small_instance(tasks, workers, seed);
        let config = PipelineConfig {
            grid_side: 8,
            capacity: 1,
            ..PipelineConfig::default()
        };
        let greedy = run("tbf", &instance, &config, seed).matching;
        prop_assert_eq!(greedy.size(), tasks.min(workers));
        prop_assert_eq!(run("tbf-cap", &instance, &config, seed).matching, greedy);
    }

    /// Capacity is conserved: at a uniform capacity q the registered
    /// `capacity` matcher assigns exactly min(tasks, q·workers) tasks, and
    /// no worker serves more than q.
    #[test]
    fn capacity_slots_conserved(
        seed in 0u64..10_000,
        tasks in 0usize..60,
        workers in 1usize..20,
        q in 1u32..4,
    ) {
        let instance = small_instance(tasks, workers, seed);
        let config = PipelineConfig {
            grid_side: 8,
            capacity: q,
            ..PipelineConfig::default()
        };
        let pairs = run("tbf-cap", &instance, &config, seed).matching.pairs;
        prop_assert_eq!(pairs.len(), tasks.min(q as usize * workers));
        let mut load = vec![0u32; workers];
        for &(_, w) in &pairs {
            load[w] += 1;
        }
        prop_assert!(load.iter().all(|&l| l <= q), "loads {:?} over {}", load, q);
    }

    /// Exponential-mechanism probabilities are monotone in distance: a
    /// strictly closer candidate never has lower probability.
    #[test]
    fn exponential_monotone_in_distance(seed in 0u64..1_000) {
        let points = Grid::square(Rect::square(50.0), 3).to_point_set();
        let mech = ExponentialMechanism::new(points.clone(), Epsilon::new(0.8));
        let mut rng = seeded_rng(seed, 5);
        use rand::Rng as _;
        let x = rng.gen_range(0..points.len());
        for a in 0..points.len() {
            for b in 0..points.len() {
                if points.dist(x, a) < points.dist(x, b) {
                    prop_assert!(
                        mech.probability(x, a) >= mech.probability(x, b),
                        "closer candidate {} got lower probability than {}", a, b
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Quadtree construction properties.
// ---------------------------------------------------------------------------

proptest! {
    /// For arbitrary distinct point sets, the quadtree is structurally
    /// valid, dominates the Euclidean metric, and round-trips through the
    /// wire format.
    #[test]
    fn quadtree_valid_dominating_and_encodable(
        coords in proptest::collection::hash_set((0u32..200, 0u32..200), 2..40),
    ) {
        use pombm_geom::{Point, PointSet};
        use pombm_hst::{quadtree, wire, Hst};
        let points = PointSet::new(
            coords.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect(),
        );
        let raw = quadtree::build_quadtree(&points);
        prop_assert!(raw.validate(points.len()).is_ok());
        let hst = Hst::from_quadtree(&points);
        prop_assert!(hst.validate_domination().is_ok());
        // Wire round-trip preserves the published view.
        let encoded = wire::encode(&hst);
        let published = wire::decode(encoded).expect("decode what we encoded");
        prop_assert_eq!(published.points.len(), points.len());
        for p in 0..points.len() {
            prop_assert_eq!(published.leaf_codes[p], hst.leaf_of(p));
        }
    }

    /// FRT and quadtree trees agree on the *identity* of leaves (every
    /// point gets exactly one leaf) even though distances differ.
    #[test]
    fn constructions_agree_on_leaf_bijection(seed in 0u64..500) {
        use pombm_geom::{Grid, Rect};
        use pombm_hst::Hst;
        let points = Grid::square(Rect::square(64.0), 4).to_point_set();
        let frt = Hst::build(&points, &mut seeded_rng(seed, 0));
        let quad = Hst::from_quadtree(&points);
        for p in 0..points.len() {
            prop_assert_eq!(frt.point_of(frt.leaf_of(p)), Some(p));
            prop_assert_eq!(quad.point_of(quad.leaf_of(p)), Some(p));
        }
    }
}
