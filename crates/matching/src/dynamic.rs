//! Worker pools: workers that come and go.
//!
//! The paper registers the full worker set upfront; a deployed platform
//! sees drivers start and end shifts continuously. These pools are
//! *mutable*: workers are added (shift start, with their obfuscated report)
//! and withdrawn (shift end, if not yet assigned) between task arrivals. A
//! static run is the special case that adds every worker first.
//!
//! * [`HstGreedyPool`] — Alg. 4 on the tree: the `O(c·D)` subtree-count
//!   walk ([`SubtreeCounter`], a digit trie of the occupied tree nodes)
//!   ends on the nearest occupied leaf's [`LeafSlot`], whose lowest id
//!   takes the task, and the counter's removal walks up from that slot;
//!   [`HstGreedyPool::assign_random`] draws the leaf uniformly among the
//!   nearest workers instead (Meyerson et al.'s tie-break), and its highest
//!   id takes the task. Each occupied leaf's ids sit in a list stored at
//!   its slot; a list that empties keeps its capacity for the next leaf
//!   that takes the slot.
//! * [`DynamicKdRebuild`] — Euclidean nearest over planar reports via a
//!   [`crate::kdtree::KdTree`], rebuilt lazily after pool mutations
//!   (assignments use its logical deletion, so only shift churn pays the
//!   rebuild).
//! * [`DynamicRandomPool`] — uniform draw from the live pool, blind to all
//!   location information: the sanity floor.
//!
//! The static matchers of each rule run the same pools: they fill one with
//! the whole fleet, as ids `0..n`, and then drain it.

use crate::kdtree::KdTree;
use pombm_geom::Point;
use pombm_hst::{CodeContext, LeafCode, LeafSlot, SubtreeCounter};
use rand::{Rng, RngCore};
use std::collections::hash_map::Entry;
#[expect(
    clippy::disallowed_types,
    reason = "imported for the pools' lookup-only maps"
)]
use std::collections::HashMap;
use std::collections::VecDeque;

/// Tree-nearest free worker over a mutable pool of leaf reports (see
/// module docs). [`Self::assign`] breaks ties at equal tree distance toward
/// the lowest leaf code, then the lowest id within the leaf;
/// [`Self::assign_random`] draws the leaf uniformly over the nearest
/// workers and takes the highest id resident there.
///
/// Workers are identified by caller-chosen `u64` ids (unique among
/// *present* workers).
#[derive(Debug, Clone)]
pub struct HstGreedyPool {
    /// The occupied leaves, with multiplicity: a digit trie of the occupied
    /// tree nodes, walked in `O(c·D)` pointer steps. Its [`LeafSlot`]s
    /// address `residents`.
    counter: SubtreeCounter,
    /// Present, unassigned workers resident at each occupied leaf, in
    /// ascending id order, at the leaf's slot: both ends leave in `O(1)`.
    /// A list that empties stays, with its capacity, for the next leaf that
    /// takes its slot, so there are as many lists as the peak number of
    /// occupied leaves.
    residents: Vec<VecDeque<u64>>,
    /// Leaf slot of each present, unassigned worker.
    #[expect(
        clippy::disallowed_types,
        reason = "per-id lookups only; never iterated"
    )]
    leaf_of: HashMap<u64, LeafSlot>,
}

impl HstGreedyPool {
    /// Creates an empty pool for trees with context `ctx`.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the lookup-only `leaf_of` map"
    )]
    pub fn new(ctx: CodeContext) -> Self {
        HstGreedyPool {
            counter: SubtreeCounter::new(ctx),
            residents: Vec::new(),
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
        let (_, residents) = self.enter(id, leaf);
        let pos = residents.partition_point(|&other| other < id);
        residents.insert(pos, id);
    }

    /// Adds a batch of workers — observationally identical to calling
    /// [`Self::add`] for each pair. Each id is appended to its leaf's list
    /// and a list left out of order is sorted once at the end, so a whole
    /// fleet fills in `O(k log k)` whatever order its ids come in, not the
    /// `O(k²)` of inserting each id among those already there.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::add`] if any id is already present (including
    /// duplicates within the batch).
    pub fn add_batch(&mut self, batch: impl IntoIterator<Item = (u64, LeafCode)>) {
        let mut unsorted = Vec::new();
        for (id, leaf) in batch {
            let (slot, residents) = self.enter(id, leaf);
            if residents.back().is_some_and(|&last| last > id) {
                unsorted.push(slot);
            }
            residents.push_back(id);
        }
        unsorted.sort_unstable();
        unsorted.dedup();
        for slot in unsorted {
            self.residents[slot.index()]
                .make_contiguous()
                .sort_unstable();
        }
    }

    /// Records worker `id` at `leaf` in `leaf_of` and the counter, and
    /// returns the leaf's slot and resident list, which `id` is not in yet.
    fn enter(&mut self, id: u64, leaf: LeafCode) -> (LeafSlot, &mut VecDeque<u64>) {
        let Entry::Vacant(entry) = self.leaf_of.entry(id) else {
            panic!("worker id {id} already present");
        };
        let slot = entry.insert(self.counter.insert(leaf));
        if slot.index() == self.residents.len() {
            self.residents.push(VecDeque::new());
        }
        (*slot, &mut self.residents[slot.index()])
    }

    /// Withdraws an unassigned worker (shift end). Returns `false` if the
    /// worker is not present (already assigned or never added).
    pub fn withdraw(&mut self, id: u64) -> bool {
        // Most check-outs name a worker already assigned, and a `get` misses
        // in about half the time a `remove` does.
        let Some(&slot) = self.leaf_of.get(&id) else {
            return false;
        };
        self.take(slot, |residents| {
            let pos = residents
                .binary_search(&id)
                .expect("worker listed at its leaf");
            residents.remove(pos)
        });
        true
    }

    /// Assigns the tree-nearest available worker to the task leaf `t` and
    /// removes it from the pool. Returns `None` when the pool is empty.
    pub fn assign(&mut self, t: LeafCode) -> Option<u64> {
        let slot = self.counter.nearest(t)?;
        Some(self.take(slot, VecDeque::pop_front))
    }

    /// Assigns a tree-nearest available worker drawn uniformly on `rng`
    /// ([`SubtreeCounter::nearest_random`]) and removes it from the pool:
    /// the drawn leaf gives up its highest id. Returns `None`, drawing
    /// nothing, when the pool is empty.
    pub fn assign_random(&mut self, t: LeafCode, rng: &mut dyn RngCore) -> Option<u64> {
        let slot = self.counter.nearest_random(t, rng)?;
        Some(self.take(slot, VecDeque::pop_back))
    }

    /// Removes the worker `pick` takes out of the list at the occupied
    /// `slot`, one occurrence of the slot's leaf from the counter, and the
    /// worker's `leaf_of` entry.
    fn take(
        &mut self,
        slot: LeafSlot,
        pick: impl FnOnce(&mut VecDeque<u64>) -> Option<u64>,
    ) -> u64 {
        let id = pick(&mut self.residents[slot.index()]).expect("an occupied leaf has residents");
        self.counter.remove(slot);
        self.leaf_of.remove(&id);
        id
    }
}

/// Euclidean nearest-available matcher over a mutable pool of planar
/// reports, backed by a [`KdTree`] that is rebuilt lazily after pool
/// *mutations* (adds and withdrawals). Assignments themselves use the
/// tree's logical deletion, so a burst of task arrivals between two shift
/// events pays one rebuild, not one per task, and a static fleet drains in
/// `O(n log n)`.
///
/// Tie-breaking is canonical — (distance, lowest id) — independent of
/// insertion order, mirroring [`HstGreedyPool`].
#[derive(Debug, Clone, Default)]
pub struct DynamicKdRebuild {
    /// Workers sorted ascending by id (so k-d tree index ties resolve to
    /// the lowest id). While `tree` is built, entry `i` is its worker `i`
    /// and stays here after the tree assigns it; otherwise every entry is
    /// present and unassigned.
    workers: Vec<(u64, Point)>,
    /// Tree over `workers`, built at the first assignment after a mutation.
    tree: Option<KdTree>,
}

impl DynamicKdRebuild {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of present, unassigned workers.
    #[inline]
    pub fn available(&self) -> usize {
        self.tree.as_ref().map_or(self.workers.len(), KdTree::live)
    }

    /// True iff worker `id` is present and unassigned.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        match self.workers.binary_search_by_key(&id, |&(w, _)| w) {
            Ok(i) => self.tree.as_ref().is_none_or(|tree| tree.is_live(i)),
            Err(_) => false,
        }
    }

    /// Drops the tree, and with it the workers it assigned, before a
    /// mutation: one `O(n)` pass per rebuild instead of one per assignment.
    fn settle(&mut self) {
        if let Some(tree) = self.tree.take() {
            let mut i = 0;
            self.workers.retain(|_| {
                i += 1;
                tree.is_live(i - 1)
            });
        }
    }

    /// Adds a worker with its reported (obfuscated) planar location.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present — ids must be unique among live
    /// workers (a departed or assigned id may be reused).
    pub fn add(&mut self, id: u64, location: Point) {
        self.settle();
        match self.workers.binary_search_by_key(&id, |&(w, _)| w) {
            Ok(_) => panic!("worker id {id} already present"),
            Err(pos) => self.workers.insert(pos, (id, location)),
        }
    }

    /// Adds a batch of workers — the pool state afterwards is identical to
    /// calling [`Self::add`] for each pair, but one append + re-sort
    /// (`O((n + k) log (n + k))`) replaces `k` sorted insertions
    /// (`O(k · n)`), which matters for micro-batched arrivals on large
    /// fleets. Validation is atomic: every id is checked (against the live
    /// pool *and* within the batch, in `O(k log k)`) before any mutation.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::add`] if any id is already present (including
    /// duplicates within the batch).
    pub fn add_batch(&mut self, batch: Vec<(u64, Point)>) {
        let mut ids: Vec<u64> = batch.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let dup_in_batch = ids.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        if let Some(id) = dup_in_batch.or_else(|| ids.into_iter().find(|&id| self.contains(id))) {
            panic!("worker id {id} already present");
        }
        if batch.is_empty() {
            return;
        }
        self.settle();
        self.workers.extend(batch);
        self.workers.sort_by_key(|&(w, _)| w);
    }

    /// Withdraws an unassigned worker (shift end). Returns `false` if the
    /// worker is not present (already assigned or never added).
    pub fn withdraw(&mut self, id: u64) -> bool {
        if !self.contains(id) {
            return false;
        }
        self.settle();
        let pos = self
            .workers
            .binary_search_by_key(&id, |&(w, _)| w)
            .expect("present worker is listed");
        self.workers.remove(pos);
        true
    }

    /// Assigns the Euclidean-nearest available worker to the task location
    /// `t` and removes it from the pool. Returns `None` when the pool is
    /// empty.
    pub fn assign(&mut self, t: &Point) -> Option<u64> {
        if self.available() == 0 {
            return None;
        }
        let workers = &self.workers;
        let tree = self
            .tree
            .get_or_insert_with(|| KdTree::build(workers.iter().map(|&(_, p)| p).collect()));
        let idx = tree.take_nearest(t)?;
        Some(self.workers[idx].0)
    }
}

/// Location-blind uniform assignment over a mutable pool. Filled with ids
/// `0..n` in order and never withdrawn from, it draws worker
/// `i = rng.gen_range(0..available)` in a list that loses each drawn entry
/// by swap-remove: the static `random` matcher.
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
    fn churn_at_fixed_occupancy_does_not_grow_resident_storage() {
        let c = CodeContext::new(5, 6);
        let mut m = HstGreedyPool::new(c);
        // 2 500 leaves visited in a scattered order, two workers each, 32
        // workers present at a time: at most 17 leaves are occupied at once.
        let leaf = |id: u64| LeafCode(id / 2 * 7919 % c.num_leaves());
        m.add_batch((0..32).map(|id| (id, leaf(id))));
        for id in 32..5000 {
            let oldest = id - 32;
            if id % 3 == 0 {
                assert_eq!(m.assign(leaf(oldest)), Some(oldest));
            } else {
                assert!(m.withdraw(oldest));
            }
            m.add(id, leaf(id));
        }
        assert_eq!(m.available(), 32);
        assert!(
            m.residents.len() <= 17,
            "{} resident lists after 5000 inserts",
            m.residents.len()
        );
    }

    #[test]
    fn matches_static_indexed_engine_when_pool_is_static() {
        // With all workers added upfront and none withdrawn, assignment
        // must be identical to the paper's scan, whatever order the ids
        // arrive in (here ascending one by one and descending in bulk).
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
        let mut fixed = HstGreedyPool::new(c);
        fixed.add_batch((0..30).rev().map(|i| (i, workers[i as usize])));
        let scan = crate::hst_greedy::greedy_reference(c, &workers, &[1; 30], &tasks);
        for (t_idx, &t) in tasks.iter().enumerate() {
            let w = dynamic.assign(t);
            assert_eq!(w, fixed.assign(t));
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

    // --- HstGreedyPool::assign_random -----------------------------------

    /// A pool holding `workers` as ids `0..n`, as the static matchers fill it.
    fn filled(ctx: CodeContext, workers: &[LeafCode]) -> HstGreedyPool {
        let mut pool = HstGreedyPool::new(ctx);
        pool.add_batch((0..).zip(workers.iter().copied()));
        pool
    }

    #[test]
    fn random_exact_leaf_hit_is_taken_first() {
        let mut m = filled(ctx(), &[LeafCode(9), LeafCode(5)]);
        let mut rng = seeded_rng(0, 0);
        let before = rng.clone();
        assert_eq!(m.assign_random(LeafCode(5), &mut rng), Some(1));
        assert_eq!(rng, before, "an exact hit draws nothing");
        assert_eq!(m.assign_random(LeafCode(5), &mut rng), Some(0));
        assert_ne!(rng, before, "a walk down from an ancestor draws");
        assert_eq!(m.assign_random(LeafCode(5), &mut rng), None);
        assert_eq!(m.available(), 0);
    }

    #[test]
    fn random_assignment_is_nearest_in_the_remaining_pool() {
        // Whatever the draws, each task gets a worker at minimum tree
        // distance among the pool's *remaining* workers (pools diverge
        // across runs once a tie is broken differently, so comparing
        // distances across runs would be wrong).
        let c = CodeContext::new(3, 4);
        let mut rng = seeded_rng(1, 0);
        for trial in 0..20 {
            let workers: Vec<LeafCode> = (0..40)
                .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
                .collect();
            let tasks: Vec<LeafCode> = (0..40)
                .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
                .collect();
            let mut pool = filled(c, &workers);
            let mut available = vec![true; workers.len()];
            let mut coin = seeded_rng(trial, 7);
            for &t in &tasks {
                let b = pool.assign_random(t, &mut coin).unwrap() as usize;
                assert!(available[b], "trial {trial}: worker {b} reused");
                let best = workers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| available[i])
                    .map(|(_, &w)| c.tree_dist_units(t, w))
                    .min()
                    .unwrap();
                assert_eq!(
                    c.tree_dist_units(t, workers[b]),
                    best,
                    "trial {trial}: task {t} not assigned a nearest worker"
                );
                available[b] = false;
            }
        }
    }

    #[test]
    fn random_equidistant_workers_are_chosen_uniformly() {
        // Workers at leaves 2 and 3 are both at LCA level 2 from a task at
        // leaf 0; each must win about half the time.
        let trials = 4000;
        let wins_2 = (0..trials)
            .filter(|&seed| {
                let mut m = filled(ctx(), &[LeafCode(2), LeafCode(3)]);
                m.assign_random(LeafCode(0), &mut seeded_rng(seed, 11)) == Some(0)
            })
            .count();
        let frac = wins_2 as f64 / trials as f64;
        assert!(
            (frac - 0.5).abs() < 0.04,
            "leaf 2 won {frac} of the time, expected ~0.5"
        );
    }

    #[test]
    fn random_choice_is_uniform_over_workers_not_leaves() {
        // Two workers at leaf 2, one at leaf 3: leaf 2 must win ~2/3.
        let trials = 4000;
        let wins_leaf2 = (0..trials)
            .filter(|&seed| {
                let mut m = filled(ctx(), &[LeafCode(2), LeafCode(2), LeafCode(3)]);
                m.assign_random(LeafCode(0), &mut seeded_rng(seed, 13)) < Some(2)
            })
            .count();
        let frac = wins_leaf2 as f64 / trials as f64;
        assert!(
            (frac - 2.0 / 3.0).abs() < 0.04,
            "leaf 2 won {frac} of the time, expected ~0.667"
        );
    }

    #[test]
    fn random_assignment_is_a_permutation() {
        let c = CodeContext::new(2, 6);
        let mut rng = seeded_rng(3, 0);
        let workers: Vec<LeafCode> = (0..64)
            .map(|_| LeafCode(rng.gen_range(0..c.num_leaves())))
            .collect();
        let mut m = filled(c, &workers);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            let w = m
                .assign_random(LeafCode(i % c.num_leaves()), &mut rng)
                .unwrap();
            assert!(seen.insert(w), "worker {w} assigned twice");
        }
        assert_eq!(m.assign_random(LeafCode(0), &mut rng), None);
    }

    #[test]
    fn random_empty_pool_returns_none() {
        let mut m = HstGreedyPool::new(ctx());
        let mut rng = seeded_rng(4, 0);
        let before = rng.clone();
        assert_eq!(m.assign_random(LeafCode(0), &mut rng), None);
        assert_eq!(rng, before, "an empty pool draws nothing");
    }

    #[test]
    fn random_drawn_leaf_gives_up_its_highest_id() {
        // Greedy takes a leaf's lowest id and the randomized rule its
        // highest, whatever order the ids arrived in.
        let mut m = HstGreedyPool::new(ctx());
        for id in [4, 9, 2] {
            m.add(id, LeafCode(12));
        }
        m.add_batch([(6, LeafCode(12)), (3, LeafCode(12))]);
        let mut rng = seeded_rng(5, 0);
        assert_eq!(m.assign_random(LeafCode(0), &mut rng), Some(9));
        assert_eq!(m.assign(LeafCode(0)), Some(2));
        assert!(m.withdraw(4));
        assert_eq!(m.assign_random(LeafCode(12), &mut rng), Some(6));
        assert_eq!(m.assign_random(LeafCode(0), &mut rng), Some(3));
        assert_eq!(m.available(), 0);
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
        assert!(!m.withdraw(7), "an assigned worker cannot be withdrawn");
        assert!(m.withdraw(9));
        assert!(!m.withdraw(9), "second withdraw is a no-op");
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), None);
        // An assigned id comes back while the tree that assigned it stands.
        m.add(3, Point::new(5.0, 0.0));
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), Some(3));
        m.add(3, Point::new(6.0, 0.0));
        assert_eq!((m.available(), m.contains(3)), (1, true));
        assert_eq!(m.assign(&Point::new(0.0, 0.0)), Some(3));
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
