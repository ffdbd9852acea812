//! Property-based tests (proptest) on the core data structures and
//! invariants: leaf-code arithmetic, HST metric properties, subtree-counter
//! consistency, weight-table normalization and mechanism support — and the
//! equivalence oracles that pin every nearest-free-worker matcher to the
//! paper's reference scan of its metric.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests produce no compared output"
)]

use pombm::algorithm::{AssignCtx, ReportSet, Reports};
use pombm::{registry, PipelineConfig, Server};
use pombm_geom::{seeded_rng, Point, PointSet, Rect};
use pombm_hst::{CodeContext, Hst, LeafCode, SubtreeCounter};
use pombm_matching::kdtree::KdTree;
use pombm_matching::{euclidean, hst_greedy, CapacitatedGreedy, ChainMatcher, Matching};
use pombm_privacy::{Epsilon, WeightTable};
use proptest::prelude::*;

fn arb_ctx() -> impl Strategy<Value = CodeContext> {
    (2u32..=4, 1u32..=8).prop_map(|(c, d)| CodeContext::new(c, d))
}

proptest! {
    /// LCA level is a symmetric ultrametric valuation: lvl(a,b) = lvl(b,a),
    /// zero iff equal, and lvl(a,c) <= max(lvl(a,b), lvl(b,c)).
    #[test]
    fn lca_level_is_an_ultrametric(ctx in arb_ctx(), seeds in proptest::array::uniform3(0u64..1_000_000)) {
        let n = ctx.num_leaves();
        let a = LeafCode(seeds[0] % n);
        let b = LeafCode(seeds[1] % n);
        let c = LeafCode(seeds[2] % n);
        prop_assert_eq!(ctx.lca_level(a, b), ctx.lca_level(b, a));
        prop_assert_eq!(ctx.lca_level(a, a), 0);
        prop_assert!((ctx.lca_level(a, b) == 0) == (a == b));
        let ab = ctx.lca_level(a, b);
        let bc = ctx.lca_level(b, c);
        let ac = ctx.lca_level(a, c);
        prop_assert!(ac <= ab.max(bc), "ultrametric violated: {} > max({}, {})", ac, ab, bc);
    }

    /// Digit decomposition round-trips through from_digits.
    #[test]
    fn digits_roundtrip(ctx in arb_ctx(), seed in 0u64..1_000_000) {
        let code = LeafCode(seed % ctx.num_leaves());
        let digits = ctx.to_digits(code);
        prop_assert_eq!(digits.len() as u32, ctx.depth);
        prop_assert!(digits.iter().all(|&d| d < ctx.branching));
        prop_assert_eq!(ctx.from_digits(&digits), code);
    }

    /// Ancestor prefixes are monotone contractions: ancestor at level D is
    /// the root (0), level 0 is the identity, and each level divides by c.
    #[test]
    fn ancestors_contract(ctx in arb_ctx(), seed in 0u64..1_000_000) {
        let code = LeafCode(seed % ctx.num_leaves());
        prop_assert_eq!(ctx.ancestor(code, 0), code.value());
        prop_assert_eq!(ctx.ancestor(code, ctx.depth), 0);
        for lvl in 0..ctx.depth {
            prop_assert_eq!(
                ctx.ancestor(code, lvl) / ctx.branching as u64,
                ctx.ancestor(code, lvl + 1)
            );
        }
    }

    /// SubtreeCounter::nearest returns a stored leaf at the true minimum
    /// tree distance for arbitrary contents and queries.
    #[test]
    fn counter_nearest_is_minimal(
        ctx in arb_ctx(),
        stored in proptest::collection::vec(0u64..1_000_000, 1..20),
        query in 0u64..1_000_000,
    ) {
        let n = ctx.num_leaves();
        let stored: Vec<LeafCode> = stored.into_iter().map(|v| LeafCode(v % n)).collect();
        let query = LeafCode(query % n);
        let mut counter = SubtreeCounter::new(ctx);
        for &s in &stored {
            counter.insert(s);
        }
        let got = counter.nearest(query).expect("non-empty");
        let got_d = ctx.tree_dist_units(got, query);
        let best = stored.iter().map(|&s| ctx.tree_dist_units(s, query)).min().unwrap();
        prop_assert_eq!(got_d, best);
        prop_assert!(stored.contains(&got));
    }

    /// Insert/remove sequences keep the counter consistent with a reference
    /// multiset.
    #[test]
    fn counter_tracks_reference_multiset(
        ops in proptest::collection::vec((proptest::bool::ANY, 0u64..81), 1..60)
    ) {
        let ctx = CodeContext::new(3, 4); // 81 leaves
        let mut counter = SubtreeCounter::new(ctx);
        let mut reference: std::collections::HashMap<u64, u32> = Default::default();
        for (insert, v) in ops {
            let code = LeafCode(v);
            if insert {
                counter.insert(code);
                *reference.entry(v).or_insert(0) += 1;
            } else {
                let expect = reference.get(&v).copied().unwrap_or(0) > 0;
                prop_assert_eq!(counter.remove(code), expect);
                if expect {
                    *reference.get_mut(&v).unwrap() -= 1;
                }
            }
            let total: u32 = reference.values().sum();
            prop_assert_eq!(counter.len(), total as usize);
            for (&v, &cnt) in &reference {
                prop_assert_eq!(counter.count(LeafCode(v)), cnt);
            }
        }
    }

    /// Weight tables normalize: level probabilities sum to 1 for arbitrary
    /// shapes and budgets.
    #[test]
    fn weight_table_normalizes(
        c in 2u32..=5,
        d in 1u32..=14,
        eps in 1e-6f64..10.0,
    ) {
        let t = WeightTable::new(Epsilon::new(eps), c, d);
        let sum: f64 = (0..=d).map(|l| t.level_probability(l)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        // pu telescopes to the same distribution.
        let mut ascend = 1.0;
        for i in 0..=d {
            let stop = ascend * (1.0 - t.pu(i));
            prop_assert!((stop - t.level_probability(i)).abs() < 1e-9);
            ascend *= t.pu(i);
        }
    }

    /// HST construction over random distinct points: every point gets a
    /// distinct leaf and tree distances dominate the Euclidean metric.
    #[test]
    fn hst_over_random_points_is_valid(
        raw in proptest::collection::hash_set((0i32..40, 0i32..40), 2..25),
        seed in 0u64..1000,
    ) {
        let points: Vec<Point> = raw
            .into_iter()
            .map(|(x, y)| Point::new(x as f64 * 2.0, y as f64 * 2.0))
            .collect();
        let ps = PointSet::new(points);
        let mut rng = seeded_rng(seed, 77);
        let hst = Hst::build(&ps, &mut rng);
        // Distinct leaves per point.
        let mut seen = std::collections::HashSet::new();
        for p in 0..ps.len() {
            prop_assert!(seen.insert(hst.leaf_of(p)));
            prop_assert_eq!(hst.point_of(hst.leaf_of(p)), Some(p));
        }
        hst.validate_domination().map_err(TestCaseError::fail)?;
    }

    /// Wire-format roundtrip: encode → decode preserves every queryable
    /// fact for arbitrary distinct point sets and seeds.
    #[test]
    fn wire_roundtrip_is_lossless(
        raw in proptest::collection::hash_set((0i32..30, 0i32..30), 2..20),
        seed in 0u64..500,
    ) {
        let points: Vec<Point> = raw
            .into_iter()
            .map(|(x, y)| Point::new(x as f64 * 3.0, y as f64 * 3.0))
            .collect();
        let ps = PointSet::new(points);
        let mut rng = seeded_rng(seed, 99);
        let hst = Hst::build(&ps, &mut rng);
        let published = pombm_hst::wire::decode(pombm_hst::wire::encode(&hst))
            .expect("roundtrip decodes");
        prop_assert_eq!(published.ctx, hst.ctx());
        for p in 0..ps.len() {
            prop_assert_eq!(published.leaf_codes[p], hst.leaf_of(p));
        }
        // A corrupted byte anywhere must be rejected.
        let bytes = pombm_hst::wire::encode(&hst);
        let pos = (seed as usize * 31) % bytes.len();
        let mut corrupted = bytes.to_vec();
        corrupted[pos] ^= 0x01;
        prop_assert!(pombm_hst::wire::decode(corrupted.into()).is_err());
    }

    /// K-d tree greedy equals linear-scan greedy on arbitrary inputs.
    #[test]
    fn kdtree_greedy_equals_scan(
        worker_raw in proptest::collection::vec((0u32..1000, 0u32..1000), 1..40),
        task_raw in proptest::collection::vec((0u32..1000, 0u32..1000), 1..40),
    ) {
        let workers: Vec<Point> = worker_raw
            .iter()
            .map(|&(x, y)| Point::new(x as f64 / 10.0, y as f64 / 10.0))
            .collect();
        let tasks: Vec<Point> = task_raw
            .iter()
            .map(|&(x, y)| Point::new(x as f64 / 10.0, y as f64 / 10.0))
            .collect();
        let mut tree = KdTree::build(workers.clone());
        let scan = euclidean::greedy_reference(&workers, &tasks);
        for (t_idx, t) in tasks.iter().enumerate() {
            let want = scan.pairs.iter().find(|&&(t, _)| t == t_idx).map(|&(_, w)| w);
            prop_assert_eq!(tree.take_nearest(t), want);
        }
    }

    /// The budget ledger never grants more than the lifetime budget, for
    /// arbitrary charge sequences.
    #[test]
    fn budget_ledger_never_overspends(
        charges in proptest::collection::vec(1u32..100, 1..50),
        lifetime_tenths in 1u32..30,
    ) {
        let lifetime = lifetime_tenths as f64 / 10.0;
        let ledger = pombm_privacy::budget::BudgetLedger::new(lifetime);
        let mut granted = 0.0;
        for c in charges {
            let eps = c as f64 / 100.0;
            if ledger.charge(1, eps).is_ok() {
                granted += eps;
            }
        }
        prop_assert!(granted <= lifetime * (1.0 + 1e-9), "granted {} > {}", granted, lifetime);
        prop_assert!((ledger.remaining(1) - (lifetime - granted)).abs() < 1e-9);
    }

    /// The random-walk mechanism always outputs a leaf of the tree, for
    /// arbitrary budgets.
    #[test]
    fn mechanism_output_stays_in_tree(
        eps in 1e-4f64..5.0,
        seed in 0u64..1000,
    ) {
        let ps = PointSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
            Point::new(6.0, 6.0),
        ]);
        let mut rng = seeded_rng(seed, 88);
        let hst = Hst::build(&ps, &mut rng);
        let mech = pombm_privacy::HstMechanism::new(&hst, Epsilon::new(eps));
        for p in 0..ps.len() {
            let z = mech.obfuscate(&hst, hst.leaf_of(p), &mut rng);
            prop_assert!(hst.ctx().contains(z));
        }
    }
}

// ---------------------------------------------------------------------------
// Equivalence oracles: each production matcher equals its reference scan.
// ---------------------------------------------------------------------------

/// Raw leaf draws: [`leaf`] maps each onto a small palette of real and
/// *fake* leaves (so duplicates and equidistant leaves are common) or,
/// for every fourth draw, onto any code of the complete tree.
fn arb_leaves(max: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..u64::MAX, 0..max)
}

/// The leaf a raw draw of [`arb_leaves`] stands for on `hst`.
fn leaf(hst: &Hst, draw: u64) -> LeafCode {
    let n = hst.num_leaves();
    let palette = [
        hst.leaf_of(0),
        hst.leaf_of(4),
        hst.leaf_of(5),
        LeafCode(0),
        LeafCode(1),
        LeafCode(n - 1),
    ];
    match draw % 4 {
        0 => LeafCode(draw / 4 % n),
        _ => palette[(draw / 4 % 6) as usize],
    }
}

/// Points on a small integer lattice: many exact distance ties.
fn arb_lattice(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0u8..6, 0u8..6), 0..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point::new(f64::from(x) * 10.0, f64::from(y) * 10.0))
            .collect()
    })
}

/// Runs a registered static matcher on hand-built reports.
fn run_matcher(
    name: &str,
    reports: ReportSet,
    server: &Server,
    capacity: u32,
) -> Result<Matching, TestCaseError> {
    let instance = pombm_workload::Instance::new(server.region(), Vec::new(), Vec::new());
    let config = PipelineConfig {
        capacity,
        ..PipelineConfig::default()
    };
    let (mut mech_rng, mut tie_rng) = (seeded_rng(0, 1), seeded_rng(0, 2));
    let mut ctx = AssignCtx {
        instance: &instance,
        config: &config,
        server: Some(server),
        mech_rng: &mut mech_rng,
        tie_rng: &mut tie_rng,
    };
    let matcher = registry()
        .require_matcher(name)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    matcher
        .assign(reports, &mut ctx)
        .map_err(|e| TestCaseError::fail(e.to_string()))
}

proptest! {
    /// The tree: `CapacitatedGreedy` on the pool equals Alg. 4's scan for
    /// arbitrary per-worker capacities (zeros included), duplicate and
    /// fake leaves, empty sides and more tasks than workers; the literal
    /// `ChainMatcher` walk equals it at unit capacity; and the registered
    /// `hst-greedy` / `chain` / `capacity` strategies equal it at unit,
    /// unit and uniform capacity.
    #[test]
    fn tree_matchers_equal_the_reference_scan(
        workers in arb_leaves(30),
        tasks in arb_leaves(45),
        caps in proptest::collection::vec(0u32..4, 30..31),
        q in 1u32..4,
        seed in 0u64..64,
    ) {
        let server = Server::new(Rect::square(60.0), 3, seed);
        let ctx = server.hst().ctx();
        let workers: Vec<LeafCode> = workers.iter().map(|&d| leaf(server.hst(), d)).collect();
        let tasks: Vec<LeafCode> = tasks.iter().map(|&d| leaf(server.hst(), d)).collect();
        let caps = &caps[..workers.len()];

        let pooled = CapacitatedGreedy::new(ctx, workers.clone(), caps.to_vec()).assign_all(&tasks);
        prop_assert_eq!(&pooled, &hst_greedy::greedy_reference(ctx, &workers, caps, &tasks));

        // The literal chain walk ends at greedy's worker on every task.
        let mut chain = ChainMatcher::new(ctx, workers.clone());
        let walked = Matching {
            pairs: tasks
                .iter()
                .enumerate()
                .filter_map(|(t, &leaf)| Some((t, chain.assign(leaf)?.worker)))
                .collect(),
        };
        let unit = vec![1; workers.len()];
        prop_assert_eq!(&walked, &hst_greedy::greedy_reference(ctx, &workers, &unit, &tasks));

        for (name, capacity) in [("hst-greedy", 1), ("chain", 1), ("capacity", q)] {
            let reports = ReportSet {
                workers: Reports::Leaves(workers.clone()),
                tasks: Reports::Leaves(tasks.clone()),
            };
            let got = run_matcher(name, reports, &server, capacity)?;
            let uniform = vec![capacity; workers.len()];
            let want = hst_greedy::greedy_reference(ctx, &workers, &uniform, &tasks);
            prop_assert_eq!(got, want, "{}", name);
        }
    }

    /// The plane: the k-d tree and the registered `greedy` / `kd-greedy`
    /// strategies equal the Euclidean scan on lattice points with exact
    /// ties, empty sides and more tasks than workers.
    #[test]
    fn planar_matchers_equal_the_reference_scan(
        workers in arb_lattice(30),
        tasks in arb_lattice(45),
    ) {
        let want = euclidean::greedy_reference(&workers, &tasks);
        prop_assert_eq!(&KdTree::build(workers.clone()).assign_all(&tasks), &want);
        let server = Server::new(Rect::square(60.0), 3, 0);
        for name in ["greedy", "kd-greedy"] {
            let reports = ReportSet {
                workers: Reports::Planar(workers.clone()),
                tasks: Reports::Planar(tasks.clone()),
            };
            prop_assert_eq!(&run_matcher(name, reports, &server, 1)?, &want, "{}", name);
        }
    }
}
