//! Worker pools: workers that come and go.
//!
//! The paper registers the full worker set upfront; a deployed platform
//! sees drivers start and end shifts continuously. These pools are
//! *mutable*: workers are added (shift start, with their obfuscated report)
//! and withdrawn (shift end, if not yet assigned) between task arrivals. A
//! static run is the special case that adds every worker first.
//!
//! * [`HstGreedyPool`] — Alg. 4 on the tree: the `O(c·D)` subtree-count
//!   walk finds the nearest occupied leaf, whose lowest id takes the task.
//!   The static tree matchers run it too ([`crate::CapacitatedGreedy`]).
//! * [`DynamicKdRebuild`] — Euclidean nearest over planar reports via the
//!   [`crate::kdtree::KdTree`] the static planar matchers run, rebuilt
//!   lazily after pool mutations (assignments use its logical deletion, so
//!   only shift churn pays the rebuild).
//! * [`DynamicRandomPool`] — uniform draw from the live pool, blind to all
//!   location information: the sanity floor under fleet churn.

use pombm_geom::Point;
use pombm_hst::{CodeContext, LeafCode, SubtreeCounter};
use rand::Rng;
#[expect(
    clippy::disallowed_types,
    reason = "imported for the pools' lookup-only maps"
)]
use std::collections::HashMap;

/// Tree-nearest free worker over a mutable pool of leaf reports (see
/// module docs): ties at equal tree distance go to the lowest leaf code,
/// then to the lowest id within the leaf.
///
/// Workers are identified by caller-chosen `u64` ids (unique among
/// *present* workers).
#[derive(Debug, Clone)]
pub struct HstGreedyPool {
    counter: SubtreeCounter,
    /// Present, unassigned workers resident at each occupied leaf.
    #[expect(
        clippy::disallowed_types,
        reason = "per-leaf lookups only; draws resolve through the counter walk, never through map iteration"
    )]
    residents: HashMap<LeafCode, Vec<u64>>,
    /// Leaf of each present, unassigned worker.
    #[expect(
        clippy::disallowed_types,
        reason = "per-id lookups only; never iterated"
    )]
    leaf_of: HashMap<u64, LeafCode>,
}

impl HstGreedyPool {
    /// Creates an empty pool for trees with context `ctx`.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the lookup-only `residents` and `leaf_of` maps"
    )]
    pub fn new(ctx: CodeContext) -> Self {
        HstGreedyPool {
            counter: SubtreeCounter::new(ctx),
            residents: HashMap::new(),
            leaf_of: HashMap::new(),
        }
    }

    /// Number of present, unassigned workers.
    #[inline]
    pub fn available(&self) -> usize {
        self.leaf_of.len()
    }

    /// True iff worker `id` is present and unassigned.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.leaf_of.contains_key(&id)
    }

    /// Adds a worker with its reported (obfuscated) leaf.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present — ids must be unique among live
    /// workers (a departed or assigned id may be reused).
    pub fn add(&mut self, id: u64, leaf: LeafCode) {
        let prev = self.leaf_of.insert(id, leaf);
        assert!(prev.is_none(), "worker id {id} already present");
        self.counter.insert(leaf);
        let stack = self.residents.entry(leaf).or_default();
        // Keep each leaf's residents sorted descending so the lowest id
        // pops first — the canonical tie-break of the reference scan.
        let pos = stack.partition_point(|&other| other > id);
        stack.insert(pos, id);
    }

    /// Adds a batch of workers in order — observationally identical to
    /// calling [`Self::add`] for each pair (per-leaf counter inserts are
    /// inherently per-item, so this is a convenience, not a fast path).
    ///
    /// # Panics
    ///
    /// Panics like [`Self::add`] if any id is already present (including
    /// duplicates within the batch).
    pub fn add_batch(&mut self, batch: impl IntoIterator<Item = (u64, LeafCode)>) {
        for (id, leaf) in batch {
            self.add(id, leaf);
        }
    }

    /// Withdraws an unassigned worker (shift end). Returns `false` if the
    /// worker is not present (already assigned or never added).
    pub fn withdraw(&mut self, id: u64) -> bool {
        let Some(leaf) = self.leaf_of.remove(&id) else {
            return false;
        };
        self.detach(id, leaf);
        true
    }

    /// Assigns the tree-nearest available worker to the task leaf `t` and
    /// removes it from the pool. Returns `None` when the pool is empty.
    pub fn assign(&mut self, t: LeafCode) -> Option<u64> {
        let leaf = self.counter.nearest(t)?;
        let id = *self
            .residents
            .get(&leaf)
            .and_then(|stack| stack.last())
            .expect("counter and residents agree");
        self.leaf_of.remove(&id);
        self.detach(id, leaf);
        Some(id)
    }

    fn detach(&mut self, id: u64, leaf: LeafCode) {
        let removed = self.counter.remove(leaf);
        debug_assert!(removed);
        let stack = self.residents.get_mut(&leaf).expect("resident stack");
        // An assignment detaches the stack's last entry: search from there.
        let pos = stack
            .iter()
            .rposition(|&other| other == id)
            .expect("worker listed at its leaf");
        stack.remove(pos);
        if stack.is_empty() {
            self.residents.remove(&leaf);
        }
    }
}

/// Euclidean nearest-available matcher over a mutable pool of planar
/// reports, backed by a [`crate::kdtree::KdTree`] that is rebuilt lazily
/// after pool *mutations* (adds and withdrawals). Assignments themselves use
/// the tree's logical deletion, so a burst of task arrivals between two
/// shift events pays one rebuild, not one per task.
///
/// Tie-breaking is canonical — (distance, lowest id) — independent of
/// insertion order, mirroring [`HstGreedyPool`].
#[derive(Debug, Clone, Default)]
pub struct DynamicKdRebuild {
    /// Present, unassigned workers, sorted ascending by id (so k-d tree
    /// index ties resolve to the lowest id).
    live: Vec<(u64, Point)>,
    /// Tree over the `live` snapshot at the last rebuild; entry `i` of the
    /// snapshot is worker `snapshot[i]`.
    tree: Option<crate::kdtree::KdTree>,
    snapshot: Vec<u64>,
    /// Set when `live` changed since the last rebuild.
    dirty: bool,
}

impl DynamicKdRebuild {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of present, unassigned workers.
    #[inline]
    pub fn available(&self) -> usize {
        self.live.len()
    }

    /// True iff worker `id` is present and unassigned.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.live.binary_search_by_key(&id, |&(w, _)| w).is_ok()
    }

    /// Adds a worker with its reported (obfuscated) planar location.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present — ids must be unique among live
    /// workers (a departed or assigned id may be reused).
    pub fn add(&mut self, id: u64, location: Point) {
        match self.live.binary_search_by_key(&id, |&(w, _)| w) {
            Ok(_) => panic!("worker id {id} already present"),
            Err(pos) => self.live.insert(pos, (id, location)),
        }
        self.dirty = true;
    }

    /// Adds a batch of workers — the pool state afterwards is identical to
    /// calling [`Self::add`] for each pair, but one append + re-sort
    /// (`O((n + k) log (n + k))`) replaces `k` sorted insertions
    /// (`O(k · n)`), which matters for micro-batched arrivals on large
    /// fleets. Validation is atomic: every id is checked (against the live
    /// pool *and* within the batch) before any mutation.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::add`] if any id is already present (including
    /// duplicates within the batch).
    pub fn add_batch(&mut self, batch: Vec<(u64, Point)>) {
        for (i, &(id, _)) in batch.iter().enumerate() {
            let dup_in_batch = batch[..i].iter().any(|&(other, _)| other == id);
            if dup_in_batch || self.contains(id) {
                panic!("worker id {id} already present");
            }
        }
        if batch.is_empty() {
            return;
        }
        self.live.extend(batch);
        self.live.sort_by_key(|&(w, _)| w);
        self.dirty = true;
    }

    /// Withdraws an unassigned worker (shift end). Returns `false` if the
    /// worker is not present (already assigned or never added).
    pub fn withdraw(&mut self, id: u64) -> bool {
        match self.live.binary_search_by_key(&id, |&(w, _)| w) {
            Ok(pos) => {
                self.live.remove(pos);
                self.dirty = true;
                true
            }
            Err(_) => false,
        }
    }

    /// Assigns the Euclidean-nearest available worker to the task location
    /// `t` and removes it from the pool. Returns `None` when the pool is
    /// empty.
    pub fn assign(&mut self, t: &Point) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        if self.dirty || self.tree.is_none() {
            self.snapshot = self.live.iter().map(|&(w, _)| w).collect();
            self.tree = Some(crate::kdtree::KdTree::build(
                self.live.iter().map(|&(_, p)| p).collect(),
            ));
            self.dirty = false;
        }
        let idx = self.tree.as_mut().expect("just built").take_nearest(t)?;
        let id = self.snapshot[idx];
        let pos = self
            .live
            .binary_search_by_key(&id, |&(w, _)| w)
            .expect("assigned worker is live");
        self.live.remove(pos);
        // The tree's logical deletion keeps it consistent with `live`
        // without a rebuild; only shift churn sets `dirty`.
        Some(id)
    }
}

/// Location-blind uniform assignment over a mutable pool: the dynamic
/// counterpart of [`crate::RandomAssign`].
#[derive(Debug, Clone, Default)]
pub struct DynamicRandomPool {
    /// Present, unassigned worker ids; order is an implementation detail
    /// (draws are uniform regardless).
    live: Vec<u64>,
    /// Position of each live id in `live`, for O(1) withdrawal.
    #[expect(
        clippy::disallowed_types,
        reason = "per-id lookups only; draws index `live`"
    )]
    pos_of: HashMap<u64, usize>,
}

impl DynamicRandomPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of present, unassigned workers.
    #[inline]
    pub fn available(&self) -> usize {
        self.live.len()
    }

    /// True iff worker `id` is present and unassigned.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.pos_of.contains_key(&id)
    }

    /// Adds a worker (its location report is irrelevant to this matcher).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present.
    pub fn add(&mut self, id: u64) {
        let prev = self.pos_of.insert(id, self.live.len());
        assert!(prev.is_none(), "worker id {id} already present");
        self.live.push(id);
    }

    /// Adds a batch of workers in order — identical to calling
    /// [`Self::add`] per id, with the backing vector grown once.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::add`] if any id is already present (including
    /// duplicates within the batch).
    pub fn add_batch(&mut self, ids: &[u64]) {
        self.live.reserve(ids.len());
        for &id in ids {
            self.add(id);
        }
    }

    /// Withdraws an unassigned worker. Returns `false` if not present.
    pub fn withdraw(&mut self, id: u64) -> bool {
        let Some(pos) = self.pos_of.remove(&id) else {
            return false;
        };
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.pos_of.insert(moved, pos);
        }
        true
    }

    /// Assigns a uniformly random available worker; `None` when the pool is
    /// empty.
    pub fn assign<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        let id = self.live[rng.gen_range(0..self.live.len())];
        let removed = self.withdraw(id);
        debug_assert!(removed);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::seeded_rng;
    use rand::Rng;

    fn ctx() -> CodeContext {
        CodeContext::new(2, 4)
    }

    #[test]
    fn add_assign_roundtrip() {
        let mut m = HstGreedyPool::new(ctx());
        m.add(7, LeafCode(3));
        m.add(9, LeafCode(12));
        assert_eq!(m.available(), 2);
        assert_eq!(m.assign(LeafCode(2)), Some(7), "leaf 3 is nearer to 2");
        assert_eq!(m.assign(LeafCode(2)), Some(9));
        assert_eq!(m.assign(LeafCode(2)), None);
    }

    #[test]
    fn withdraw_removes_from_consideration() {
        let mut m = HstGreedyPool::new(ctx());
        m.add(1, LeafCode(0));
        m.add(2, LeafCode(15));
        assert!(m.withdraw(1));
        assert!(!m.withdraw(1), "second withdraw is a no-op");
        assert_eq!(m.assign(LeafCode(0)), Some(2), "withdrawn worker skipped");
    }

    #[test]
    fn assigned_worker_cannot_be_withdrawn() {
        let mut m = HstGreedyPool::new(ctx());
        m.add(4, LeafCode(5));
        assert_eq!(m.assign(LeafCode(5)), Some(4));
        assert!(!m.withdraw(4));
    }

    #[test]
    fn id_reuse_after_departure_is_allowed() {
        let mut m = HstGreedyPool::new(ctx());
        m.add(1, LeafCode(0));
        assert!(m.withdraw(1));
        m.add(1, LeafCode(8));
        assert_eq!(m.assign(LeafCode(8)), Some(1));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_live_id_panics() {
        let mut m = HstGreedyPool::new(ctx());
        m.add(1, LeafCode(0));
        m.add(1, LeafCode(1));
    }

    #[test]
    fn matches_static_indexed_engine_when_pool_is_static() {
        // With all workers added upfront (here one by one, in ascending id
        // order) and none withdrawn, assignment must be identical to the
        // static matcher (which adds them in bulk, highest id first) and to
        // the paper's scan.
        let c = CodeContext::new(3, 4);
        let mut rng = seeded_rng(2, 0);
        let workers: Vec<LeafCode> = (0..30)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let tasks: Vec<LeafCode> = (0..30)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let mut dynamic = HstGreedyPool::new(c);
        for (i, &w) in workers.iter().enumerate() {
            dynamic.add(i as u64, w);
        }
        let mut fixed = crate::CapacitatedGreedy::uniform(c, workers.clone(), 1);
        let scan = crate::hst_greedy::greedy_reference(c, &workers, &[1; 30], &tasks);
        for (t_idx, &t) in tasks.iter().enumerate() {
            let w = dynamic.assign(t);
            assert_eq!(w, fixed.assign(t).map(|w| w as u64));
            assert_eq!(w, Some(scan.pairs[t_idx].1 as u64));
        }
    }

    #[test]
    fn interleaved_adds_and_tasks() {
        let mut m = HstGreedyPool::new(ctx());
        assert_eq!(m.assign(LeafCode(0)), None, "empty pool drops the task");
        m.add(10, LeafCode(14));
        assert_eq!(m.assign(LeafCode(1)), Some(10), "only present worker");
        m.add(11, LeafCode(1));
        m.add(12, LeafCode(2));
        assert_eq!(m.assign(LeafCode(0)), Some(11), "nearest of the two");
        assert_eq!(m.available(), 1);
    }

    #[test]
    fn canonical_tie_break_matches_static_matcher() {
        // Two workers at equidistant leaves: lowest leaf code wins; equal
        // leaves: lowest id wins — regardless of insertion order.
        let mut m = HstGreedyPool::new(ctx());
        m.add(5, LeafCode(3));
        m.add(4, LeafCode(2));
        assert_eq!(m.assign(LeafCode(0)), Some(4));
        let mut m = HstGreedyPool::new(ctx());
        m.add(9, LeafCode(6));
        m.add(3, LeafCode(6));
        assert_eq!(m.assign(LeafCode(6)), Some(3));
    }

    // --- DynamicKdRebuild ---------------------------------------------

    #[test]
    fn kd_rebuild_roundtrip_and_withdraw() {
        let mut m = DynamicKdRebuild::new();
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), None, "empty pool");
        m.add(7, Point::new(1.0, 0.0));
        m.add(9, Point::new(10.0, 0.0));
        assert_eq!(m.available(), 2);
        assert!(m.contains(7) && m.contains(9));
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), Some(7), "nearest wins");
        assert!(!m.contains(7), "assigned worker left the pool");
        assert!(m.withdraw(9));
        assert!(!m.withdraw(9), "second withdraw is a no-op");
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn kd_rebuild_ties_resolve_to_lowest_id_any_insertion_order() {
        let p = Point::new(5.0, 5.0);
        let mut m = DynamicKdRebuild::new();
        m.add(9, p);
        m.add(3, p);
        m.add(6, p);
        assert_eq!(m.assign(&p), Some(3));
        assert_eq!(m.assign(&p), Some(6));
        assert_eq!(m.assign(&p), Some(9));
    }

    #[test]
    fn kd_rebuild_interleaved_mutations_match_brute_force() {
        // Random add/withdraw/assign churn against a linear-scan oracle.
        let mut rng = seeded_rng(8, 0);
        let mut m = DynamicKdRebuild::new();
        let mut oracle: Vec<(u64, Point)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..400 {
            match rng.gen_range(0..3u32) {
                0 => {
                    let p = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
                    m.add(next_id, p);
                    oracle.push((next_id, p));
                    next_id += 1;
                }
                1 => {
                    if !oracle.is_empty() {
                        let victim = oracle[rng.gen_range(0..oracle.len())].0;
                        assert!(m.withdraw(victim));
                        oracle.retain(|&(w, _)| w != victim);
                    }
                }
                _ => {
                    let t = Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0);
                    let want = oracle
                        .iter()
                        .min_by(|a, b| {
                            (a.1.dist_sq(&t), a.0)
                                .partial_cmp(&(b.1.dist_sq(&t), b.0))
                                .unwrap()
                        })
                        .map(|&(w, _)| w);
                    assert_eq!(m.assign(&t), want);
                    if let Some(w) = want {
                        oracle.retain(|&(o, _)| o != w);
                    }
                }
            }
            assert_eq!(m.available(), oracle.len());
        }
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn kd_rebuild_duplicate_live_id_panics() {
        let mut m = DynamicKdRebuild::new();
        m.add(1, Point::new(0.0, 0.0));
        m.add(1, Point::new(1.0, 1.0));
    }

    // --- DynamicRandomPool --------------------------------------------

    #[test]
    fn random_pool_assigns_each_live_worker_once() {
        let mut m = DynamicRandomPool::new();
        for id in 0..25 {
            m.add(id);
        }
        assert!(m.withdraw(13));
        let mut rng = seeded_rng(0, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..24 {
            let w = m.assign(&mut rng).unwrap();
            assert!(seen.insert(w));
            assert_ne!(w, 13, "withdrawn worker must never be assigned");
        }
        assert_eq!(m.assign(&mut rng), None);
        assert_eq!(m.available(), 0);
    }

    #[test]
    fn random_pool_first_pick_is_roughly_uniform() {
        let trials = 6000;
        let mut counts = [0usize; 4];
        for seed in 0..trials {
            let mut m = DynamicRandomPool::new();
            for id in 0..4 {
                m.add(id);
            }
            let mut rng = seeded_rng(seed, 1);
            counts[m.assign(&mut rng).unwrap() as usize] += 1;
        }
        for (w, &c) in counts.iter().enumerate() {
            let frac = c as f64 / trials as f64;
            assert!(
                (frac - 0.25).abs() < 0.03,
                "worker {w} picked {frac}, expected ~0.25"
            );
        }
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn random_pool_duplicate_live_id_panics() {
        let mut m = DynamicRandomPool::new();
        m.add(1);
        m.add(1);
    }

    // --- add_batch ----------------------------------------------------

    #[test]
    fn batched_adds_match_sequential_adds_on_every_pool() {
        // The same churn driven through add_batch vs a loop of add must
        // leave observationally identical pools (assignment order proves
        // it). Trait-level equivalence across registered matchers is
        // proptested in `tests/serve.rs`; this is the unit-level pin.
        let c = ctx();
        let mut rng = seeded_rng(17, 0);
        let workers: Vec<(u64, LeafCode)> = (0..40)
            .map(|i| (i, LeafCode(rng.gen_range(0..c.num_leaves()))))
            .collect();

        let mut batched = HstGreedyPool::new(c);
        batched.add_batch(workers.iter().copied());
        let mut sequential = HstGreedyPool::new(c);
        for &(id, leaf) in &workers {
            sequential.add(id, leaf);
        }
        for _ in 0..40 {
            let t = LeafCode(rng.gen_range(0..c.num_leaves()));
            assert_eq!(batched.assign(t), sequential.assign(t));
        }

        let points: Vec<(u64, Point)> = (0..40)
            .map(|i| {
                (
                    i,
                    Point::new(rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0),
                )
            })
            .collect();
        let mut batched = DynamicKdRebuild::new();
        batched.add_batch(points.clone());
        let mut sequential = DynamicKdRebuild::new();
        for &(id, p) in &points {
            sequential.add(id, p);
        }
        for _ in 0..40 {
            let t = Point::new(rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0);
            assert_eq!(batched.assign(&t), sequential.assign(&t));
        }

        let ids: Vec<u64> = (0..40).collect();
        let mut batched = DynamicRandomPool::new();
        batched.add_batch(&ids);
        let mut sequential = DynamicRandomPool::new();
        for &id in &ids {
            sequential.add(id);
        }
        let mut rng_a = seeded_rng(3, 9);
        let mut rng_b = seeded_rng(3, 9);
        for _ in 0..40 {
            assert_eq!(batched.assign(&mut rng_a), sequential.assign(&mut rng_b));
        }
    }

    #[test]
    fn kd_rebuild_batch_is_atomic_on_duplicate() {
        // A batch with an internal duplicate must panic before mutating.
        let points = vec![
            (1, Point::new(0.0, 0.0)),
            (2, Point::new(1.0, 0.0)),
            (2, Point::new(2.0, 0.0)),
        ];
        let mut m = DynamicKdRebuild::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.add_batch(points);
        }));
        assert!(err.is_err());
        assert_eq!(m.available(), 0, "failed batch must not mutate the pool");
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn kd_rebuild_batch_rejects_id_already_live() {
        let mut m = DynamicKdRebuild::new();
        m.add(5, Point::new(0.0, 0.0));
        m.add_batch(vec![(6, Point::new(1.0, 0.0)), (5, Point::new(2.0, 0.0))]);
    }
}
