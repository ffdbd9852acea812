//! Property-based tests (proptest) on the core data structures and
//! invariants: leaf-code arithmetic, HST metric properties, subtree-counter
//! and tree-pool consistency, weight-table normalization and mechanism
//! support — and the equivalence oracles that pin every nearest-free-worker
//! matcher to the paper's reference scan of its metric.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tests produce no compared output"
)]

use pombm::algorithm::{AssignCtx, ReportSet, Reports};
use pombm::{registry, PipelineConfig, Server};
use pombm_geom::{seeded_rng, Point, PointSet, Rect};
use pombm_hst::{CodeContext, Hst, LeafCode, LeafSlot, SubtreeCounter};
use pombm_matching::kdtree::KdTree;
use pombm_matching::{euclidean, hst_greedy, ChainMatcher, HstGreedyPool, Matching};
use pombm_privacy::{Epsilon, WeightTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn arb_ctx() -> impl Strategy<Value = CodeContext> {
    (2u32..=4, 1u32..=8).prop_map(|(c, d)| CodeContext::new(c, d))
}

/// Trees as wide as the workloads build (branching 14–21, depth 10), and
/// narrower ones.
fn arb_wide_ctx() -> impl Strategy<Value = CodeContext> {
    (2u32..=24, 1u32..=12).prop_map(|(c, d)| CodeContext::new(c, d))
}

/// One to four leaves that [`clustered_leaf`] draws around.
fn cluster_centres(ctx: CodeContext, rng: &mut StdRng) -> Vec<u64> {
    let count = rng.gen_range(1..=4);
    (0..count)
        .map(|_| rng.gen_range(0..ctx.num_leaves()))
        .collect()
}

/// A leaf under a cluster centre's ancestor at level 0 to 3: leaves drawn
/// this way share deep ancestors, so equidistant leaves (ties) and repeated
/// leaves are common.
fn clustered_leaf(ctx: CodeContext, centres: &[u64], rng: &mut StdRng) -> LeafCode {
    let centre = centres[rng.gen_range(0..centres.len())];
    let spread = ctx.leaves_below(rng.gen_range(0..=ctx.depth.min(3)));
    LeafCode(centre / spread * spread + rng.gen_range(0..spread))
}

/// A counter holding 1 to 39 clustered leaves, with the leaves and the
/// centres they were drawn around.
fn clustered_counter(
    ctx: CodeContext,
    rng: &mut StdRng,
) -> (Vec<u64>, Vec<LeafCode>, SubtreeCounter) {
    let centres = cluster_centres(ctx, rng);
    let count = rng.gen_range(1..40);
    let stored: Vec<LeafCode> = (0..count)
        .map(|_| clustered_leaf(ctx, &centres, rng))
        .collect();
    let mut counter = SubtreeCounter::new(ctx);
    for &s in &stored {
        counter.insert(s);
    }
    (centres, stored, counter)
}

/// The code of the leaf at a slot a counter's query ended on.
fn code_at(counter: &SubtreeCounter, slot: Option<LeafSlot>) -> Option<LeafCode> {
    slot.map(|slot| counter.code(slot))
}

/// A query leaf: a stored one (an exact hit), a clustered one, or any leaf.
fn arb_query(ctx: CodeContext, centres: &[u64], stored: &[LeafCode], rng: &mut StdRng) -> LeafCode {
    match rng.gen_range(0..3) {
        0 if !stored.is_empty() => stored[rng.gen_range(0..stored.len())],
        1 => clustered_leaf(ctx, centres, rng),
        _ => LeafCode(rng.gen_range(0..ctx.num_leaves())),
    }
}

/// The stored leaf that comes first by (tree distance, code).
fn reference_nearest(ctx: CodeContext, stored: &[LeafCode], query: LeafCode) -> Option<LeafCode> {
    stored
        .iter()
        .copied()
        .min_by_key(|&s| (ctx.tree_dist_units(s, query), s))
}

/// The worker `HstGreedyPool::assign` takes: the first by (tree distance,
/// leaf code, id).
fn reference_assign(ctx: CodeContext, live: &[(u64, LeafCode)], task: LeafCode) -> Option<u64> {
    live.iter()
        .min_by_key(|&&(id, leaf)| (ctx.tree_dist_units(leaf, task), leaf, id))
        .map(|&(id, _)| id)
}

/// The worker `HstGreedyPool::assign_random` takes: the highest id at the
/// leaf [`reference_nearest_random`] draws over the live workers' leaves.
fn reference_assign_random(
    ctx: CodeContext,
    live: &[(u64, LeafCode)],
    task: LeafCode,
    rng: &mut StdRng,
) -> Option<u64> {
    let leaves: Vec<LeafCode> = live.iter().map(|&(_, leaf)| leaf).collect();
    let drawn = reference_nearest_random(ctx, &leaves, task, rng)?;
    live.iter()
        .filter(|&&(_, leaf)| leaf == drawn)
        .map(|&(id, _)| id)
        .max()
}

/// `SubtreeCounter::nearest_random` by brute force over the stored leaves
/// (with multiplicity): below the lowest level at which the query meets a
/// stored leaf, each level counts the stored leaves under every child of
/// the current node, except the query's own child at the first step, and
/// makes one `u32` draw over the occupied ones in child order.
fn reference_nearest_random(
    ctx: CodeContext,
    stored: &[LeafCode],
    query: LeafCode,
    rng: &mut StdRng,
) -> Option<LeafCode> {
    let level = stored.iter().map(|&s| ctx.lca_level(s, query)).min()?;
    let c = u64::from(ctx.branching);
    let mut prefix = ctx.ancestor(query, level);
    let mut skip = level.checked_sub(1).map(|below| ctx.ancestor(query, below));
    for below in (0..level).rev() {
        let occupied: Vec<(u64, u32)> = (prefix * c..prefix * c + c)
            .filter(|&child| Some(child) != skip)
            .map(|child| {
                let under = stored.iter().filter(|&&s| ctx.ancestor(s, below) == child);
                (child, under.count() as u32)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        let mut pick = rng.gen_range(0..occupied.iter().map(|&(_, n)| n).sum::<u32>());
        for &(child, n) in &occupied {
            if pick < n {
                prefix = child;
                break;
            }
            pick -= n;
        }
        skip = None;
    }
    Some(LeafCode(prefix))
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

    /// `SubtreeCounter::nearest` returns the stored leaf that comes first
    /// by (tree distance, code), on trees as wide as the workloads build
    /// and with clustered leaves, so that equidistant leaves are common.
    #[test]
    fn counter_nearest_is_minimal(ctx in arb_wide_ctx(), seed in 0u64..1_000_000) {
        let mut rng = seeded_rng(seed, 0);
        let (centres, stored, counter) = clustered_counter(ctx, &mut rng);
        for _ in 0..20 {
            let query = arb_query(ctx, &centres, &stored, &mut rng);
            prop_assert_eq!(code_at(&counter, counter.nearest(query)), reference_nearest(ctx, &stored, query));
        }
    }

    /// `SubtreeCounter::nearest_random` draws the leaf a brute-force
    /// reference draws on a clone of the RNG, and leaves the RNG in the
    /// same state: one `u32` draw per level, none on an exact hit.
    #[test]
    fn counter_nearest_random_matches_the_count_weighted_reference(
        ctx in arb_wide_ctx(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed, 0);
        let (centres, stored, counter) = clustered_counter(ctx, &mut rng);
        let mut draws = seeded_rng(seed, 1);
        for _ in 0..20 {
            let query = arb_query(ctx, &centres, &stored, &mut rng);
            let mut reference = draws.clone();
            let want = reference_nearest_random(ctx, &stored, query, &mut reference);
            let drawn = counter.nearest_random(query, &mut draws);
            prop_assert_eq!(code_at(&counter, drawn), want);
            prop_assert_eq!(&draws, &reference);
        }
    }

    /// Interleaved inserts, removes and queries keep the counter consistent
    /// with a reference multiset of (code, slot) pairs: each stored leaf has
    /// one slot, which reads back its code and multiplicity, removals walk
    /// up from the slot (some empty a leaf, whose slot the next leaves
    /// inserted take), and both queries end on the slot of their
    /// brute-force reference's leaf.
    #[test]
    fn counter_tracks_reference_multiset(ctx in arb_wide_ctx(), seed in 0u64..1_000_000) {
        let mut rng = seeded_rng(seed, 0);
        let centres = cluster_centres(ctx, &mut rng);
        let mut counter = SubtreeCounter::new(ctx);
        let mut stored: Vec<(LeafCode, LeafSlot)> = Vec::new();
        let mut draws = seeded_rng(seed, 1);
        let slot_of = |stored: &[(LeafCode, LeafSlot)], code: LeafCode| {
            stored.iter().find(|&&(s, _)| s == code).map(|&(_, slot)| slot)
        };
        for _ in 0..150 {
            match rng.gen_range(0..10) {
                0..=3 => {
                    let code = clustered_leaf(ctx, &centres, &mut rng);
                    let slot = counter.insert(code);
                    prop_assert_eq!(counter.code(slot), code);
                    let held = slot_of(&stored, code);
                    prop_assert!(held.is_none_or(|held| held == slot), "a stored leaf keeps its slot");
                    stored.push((code, slot));
                }
                4..=5 if !stored.is_empty() => {
                    let (code, slot) = stored.swap_remove(rng.gen_range(0..stored.len()));
                    counter.remove(slot);
                    let left = stored.iter().filter(|&&(s, _)| s == code).count();
                    prop_assert_eq!(counter.count(slot) as usize, left);
                }
                6 if !stored.is_empty() => {
                    // Every occurrence of one leaf: its slot is freed.
                    let (code, slot) = stored[rng.gen_range(0..stored.len())];
                    while let Some(at) = stored.iter().position(|&(s, _)| s == code) {
                        stored.swap_remove(at);
                        counter.remove(slot);
                    }
                    prop_assert_eq!(counter.count(slot), 0);
                }
                _ => {
                    let codes: Vec<LeafCode> = stored.iter().map(|&(s, _)| s).collect();
                    let query = arb_query(ctx, &centres, &codes, &mut rng);
                    let want = reference_nearest(ctx, &codes, query);
                    prop_assert_eq!(counter.nearest(query), want.and_then(|code| slot_of(&stored, code)));
                    let mut reference = draws.clone();
                    let want = reference_nearest_random(ctx, &codes, query, &mut reference);
                    let drawn = counter.nearest_random(query, &mut draws);
                    prop_assert_eq!(drawn, want.and_then(|code| slot_of(&stored, code)));
                    prop_assert_eq!(&draws, &reference);
                }
            }
            prop_assert_eq!(counter.len(), stored.len());
            prop_assert_eq!(counter.is_empty(), stored.is_empty());
            for &(s, slot) in &stored {
                let want = stored.iter().filter(|&&(t, _)| t == s).count();
                prop_assert_eq!(counter.count(slot) as usize, want);
                prop_assert_eq!(counter.code(slot), s);
            }
        }
    }

    /// Random interleavings of `add`, `add_batch` (ids descending),
    /// `withdraw`, `assign` and `assign_random` keep `HstGreedyPool` equal to
    /// a live (id, leaf) list: `assign` takes the first worker by (tree
    /// distance, leaf code, id), and `assign_random` the highest id at the
    /// leaf the count-weighted reference draws, on a copy of the tie
    /// stream. Ids come from a small range, so departed and assigned ids
    /// come back; leaves are clustered, so several workers share a leaf;
    /// and leaves empty, so their slots go to other leaves. Every step
    /// compares the returned ids, `available()`, `contains()` and the tie
    /// stream.
    #[test]
    fn pool_tracks_reference_model(ctx in arb_wide_ctx(), seed in 0u64..1_000_000) {
        const IDS: u64 = 24;
        let mut rng = seeded_rng(seed, 0);
        let centres = cluster_centres(ctx, &mut rng);
        let mut pool = HstGreedyPool::new(ctx);
        let mut live: Vec<(u64, LeafCode)> = Vec::new();
        let (mut draws, mut reference) = (seeded_rng(seed, 1), seeded_rng(seed, 1));
        for _ in 0..150 {
            let mut absent: Vec<u64> = (0..IDS).filter(|&id| live.iter().all(|&(w, _)| w != id)).collect();
            match rng.gen_range(0..10) {
                0..=2 if !absent.is_empty() => {
                    let id = absent[rng.gen_range(0..absent.len())];
                    let leaf = clustered_leaf(ctx, &centres, &mut rng);
                    pool.add(id, leaf);
                    live.push((id, leaf));
                }
                3 if !absent.is_empty() => {
                    let keep = rng.gen_range(1..=absent.len().min(6));
                    while absent.len() > keep {
                        absent.swap_remove(rng.gen_range(0..absent.len()));
                    }
                    absent.sort_unstable_by(|a, b| b.cmp(a));
                    let batch: Vec<(u64, LeafCode)> = absent
                        .iter()
                        .map(|&id| (id, clustered_leaf(ctx, &centres, &mut rng)))
                        .collect();
                    pool.add_batch(batch.iter().copied());
                    live.extend(batch);
                }
                4 => {
                    let id = rng.gen_range(0..IDS);
                    let at = live.iter().position(|&(w, _)| w == id);
                    prop_assert_eq!(pool.withdraw(id), at.is_some());
                    if let Some(at) = at {
                        live.swap_remove(at);
                    }
                }
                step => {
                    let leaves: Vec<LeafCode> = live.iter().map(|&(_, leaf)| leaf).collect();
                    let task = arb_query(ctx, &centres, &leaves, &mut rng);
                    let (got, want) = if step < 7 {
                        (pool.assign(task), reference_assign(ctx, &live, task))
                    } else {
                        (
                            pool.assign_random(task, &mut draws),
                            reference_assign_random(ctx, &live, task, &mut reference),
                        )
                    };
                    prop_assert_eq!(got, want);
                    live.retain(|&(w, _)| Some(w) != want);
                }
            }
            prop_assert_eq!(&draws, &reference);
            prop_assert_eq!(pool.available(), live.len());
            for id in 0..IDS {
                prop_assert_eq!(pool.contains(id), live.iter().any(|&(w, _)| w == id));
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

    /// The k-d tree's nearest-available worker equals linear-scan greedy's
    /// choice on arbitrary inputs.
    #[test]
    fn kd_tree_take_nearest_equals_scan(
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
    /// The tree: the literal `ChainMatcher` walk equals Alg. 4's scan at
    /// unit capacity, and the registered `hst-greedy` / `chain` /
    /// `capacity` strategies (the tree pool) equal it at unit, unit and
    /// uniform capacity, on duplicate and fake leaves, empty sides and
    /// more tasks than workers.
    #[test]
    fn tree_matchers_equal_the_reference_scan(
        workers in arb_leaves(30),
        tasks in arb_leaves(45),
        q in 1u32..4,
        seed in 0u64..64,
    ) {
        let server = Server::new(Rect::square(60.0), 3, seed);
        let ctx = server.hst().ctx();
        let workers: Vec<LeafCode> = workers.iter().map(|&d| leaf(server.hst(), d)).collect();
        let tasks: Vec<LeafCode> = tasks.iter().map(|&d| leaf(server.hst(), d)).collect();

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

    /// The plane: the registered `greedy` / `kd-greedy` strategies (the k-d
    /// pool) equal the Euclidean scan on lattice points with exact ties,
    /// empty sides and more tasks than workers.
    #[test]
    fn planar_matchers_equal_the_reference_scan(
        workers in arb_lattice(30),
        tasks in arb_lattice(45),
    ) {
        let want = euclidean::greedy_reference(&workers, &tasks);
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
