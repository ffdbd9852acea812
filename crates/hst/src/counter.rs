//! Dynamic nearest-leaf index over the complete HST.

use crate::code::{CodeContext, LeafCode};
use rand::{Rng, RngCore};

/// The root's slot in the arena.
const ROOT: u32 = 0;

/// "No node" in a link. The root is no node's child or sibling, so its
/// slot is free to mean that.
const NIL: u32 = ROOT;

/// Room for a leaf code's digits and its root path: `c^D` fits in a `u64`
/// and `c ≥ 2`, so `D ≤ 63`.
const MAX_PATH: usize = 64;

/// An occupied node of the complete tree, 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Stored leaves in the node's subtree, with multiplicity.
    count: u32,
    /// The first occupied child, or [`NIL`].
    first: u32,
    /// The next occupied sibling in ascending digit order, or [`NIL`]. On
    /// the free list: the next free slot.
    next: u32,
    /// The branch from the parent: the node's code digit one level below
    /// the parent.
    digit: u32,
}

/// A dynamic multiset of complete-tree leaves supporting *nearest-leaf*
/// queries in `O(c·D)` pointer steps.
///
/// The paper's HST-greedy algorithm (Alg. 4) scans all unassigned workers for
/// every arriving task, `O(n·D)` per task. Because the HST metric is an
/// ultrametric determined entirely by LCA levels, the nearest available
/// worker can instead be found at the lowest ancestor of the task's leaf
/// whose subtree holds a worker outside the child on the task's path, by
/// walking down from it through occupied children. This index maintains the
/// per-(virtual-)node occupancy counts that make the walk possible.
///
/// One walk along the query's root path serves two descents:
/// [`Self::nearest`] takes the first occupied child at each level (Alg. 4's
/// deterministic tie-break), and [`Self::nearest_random`] draws a child
/// weighted by its count, which makes the leaf uniform over the nearest
/// stored leaves.
///
/// The index is a digit trie held in one arena of 16-byte nodes: one node
/// per occupied node of the complete tree, the root first, and each node's
/// occupied children linked in ascending digit order, which is ascending
/// child code. Insert, remove and both queries step along the code's `D`
/// digits, each step a scan of one child list, with no hashing. A node
/// whose count reaches 0 is unlinked and its slot goes on a free list that
/// inserts reuse, so memory is `O(peak stored · D)` regardless of `c^D`.
#[derive(Debug, Clone)]
pub struct SubtreeCounter {
    ctx: CodeContext,
    /// The root at [`ROOT`], then the occupied nodes and the free slots.
    nodes: Vec<Node>,
    /// The first free slot, linked through `next`, or [`NIL`].
    free: u32,
}

/// Where a descent starts: the node at `level` on the query's root path,
/// and its code prefix.
struct Start {
    level: u32,
    prefix: u64,
    node: u32,
}

impl SubtreeCounter {
    /// Creates an empty index for trees with context `ctx`.
    pub fn new(ctx: CodeContext) -> Self {
        let root = Node {
            count: 0,
            first: NIL,
            next: NIL,
            digit: 0,
        };
        SubtreeCounter {
            ctx,
            nodes: vec![root],
            free: NIL,
        }
    }

    /// Number of leaves currently stored (counting multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.node(ROOT).count as usize
    }

    /// True iff the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Multiplicity of a specific leaf.
    pub fn count(&self, code: LeafCode) -> u32 {
        self.path(code).map_or(0, |path| self.node(path[0]).count)
    }

    /// Inserts one occurrence of `code`.
    ///
    /// # Panics
    ///
    /// Panics if the code does not belong to the tree, or if the index
    /// would occupy more than `2^32` tree nodes.
    pub fn insert(&mut self, code: LeafCode) {
        let digits = self.digits(code).expect("code outside tree");
        let mut node = ROOT;
        self.nodes[ROOT as usize].count += 1;
        for level in (0..self.ctx.depth as usize).rev() {
            node = self.child_or_insert(node, digits[level]);
            self.nodes[node as usize].count += 1;
        }
    }

    /// Removes one occurrence of `code`. Returns `false` (and changes
    /// nothing) if the leaf is not present.
    pub fn remove(&mut self, code: LeafCode) -> bool {
        let Some(path) = self.path(code) else {
            return false;
        };
        let depth = self.ctx.depth as usize;
        for &node in &path[..=depth] {
            self.nodes[node as usize].count -= 1;
        }
        // A node counts at least what its child does, so the emptied nodes
        // are the path's lowest levels: free the highest and those below.
        let emptied = path[..depth]
            .iter()
            .take_while(|&&node| self.node(node).count == 0)
            .count();
        if emptied > 0 {
            self.unlink(path[emptied], path[emptied - 1]);
            for &node in &path[..emptied] {
                self.nodes[node as usize].next = self.free;
                self.free = node;
            }
        }
        true
    }

    /// The code-arithmetic context this index was built for.
    #[inline]
    pub fn ctx(&self) -> CodeContext {
        self.ctx
    }

    /// Finds a stored leaf at minimum tree distance from `query`.
    ///
    /// Ties (same LCA level) are broken toward the smallest child index on
    /// the downward walk, i.e. deterministically: the leaf that comes
    /// first by (tree distance, code). Returns `None` if empty.
    pub fn nearest(&self, query: LeafCode) -> Option<LeafCode> {
        let start = self.lowest_occupied(query)?;
        Some(self.descend(start, None))
    }

    /// Finds a stored leaf at minimum tree distance from `query`, drawn
    /// uniformly over the stored leaves at that distance (counted with
    /// multiplicity): the uniform tie-break of Meyerson et al. (SODA'06,
    /// the paper's ref \[15\]). On an ultrametric every stored leaf under
    /// the lowest occupied ancestor, outside the already-searched child, is
    /// equidistant, so the draw never costs tree distance.
    ///
    /// The downward walk makes one `rng.gen_range(0..total)` draw (`u32`)
    /// per level, over the occupied eligible children in child order, and
    /// takes the child the draw falls in. An empty index or an exact hit
    /// draws nothing. Returns `None` if empty.
    pub fn nearest_random(&self, query: LeafCode, rng: &mut dyn RngCore) -> Option<LeafCode> {
        let start = self.lowest_occupied(query)?;
        Some(self.descend(start, Some(rng)))
    }

    /// The walk shared by both descents, down `query`'s root path: the
    /// lowest node on it whose count exceeds its on-path child's (0 when
    /// that child is absent), whose subtree thus holds a stored leaf
    /// outside that child. That subtree holds the nearest leaves, at LCA
    /// level exactly `level` (distance `2^{level+2} - 4`). A stored `query`
    /// is an exact hit at level 0. Returns `None` if empty.
    ///
    /// When `query` is not stored, the on-path child of the node returned is
    /// absent: were it present, no lower node qualifying would mean equal
    /// counts all the way down to `query`, which would then be stored. So
    /// every linked child is eligible, and together they hold the node's
    /// whole count.
    fn lowest_occupied(&self, query: LeafCode) -> Option<Start> {
        if self.is_empty() {
            return None;
        }
        let digits = self.digits(query).expect("code outside tree");
        let c = u64::from(self.ctx.branching);
        let (mut node, mut prefix) = (ROOT, 0);
        let mut lowest = None;
        for level in (1..=self.ctx.depth).rev() {
            let digit = digits[level as usize - 1];
            let child = self.child(node, digit);
            if self.node(node).count > child.map_or(0, |child| self.node(child).count) {
                lowest = Some(Start {
                    level,
                    prefix,
                    node,
                });
            }
            let Some(child) = child else {
                return lowest;
            };
            node = child;
            prefix = prefix * c + u64::from(digit);
        }
        Some(Start {
            level: 0,
            prefix,
            node,
        })
    }

    /// Descends from `start` to a stored leaf. Without `rng` each step takes
    /// the first occupied child; with it, a child with probability
    /// proportional to its count (see [`Self::nearest_random`]).
    fn descend(&self, start: Start, mut rng: Option<&mut dyn RngCore>) -> LeafCode {
        let c = u64::from(self.ctx.branching);
        let Start {
            mut level,
            mut prefix,
            mut node,
        } = start;
        while level > 0 {
            let mut pick = match rng.as_deref_mut() {
                Some(rng) => rng.gen_range(0..self.node(node).count),
                None => 0,
            };
            node = self
                .children(node)
                .find(|&child| {
                    let n = self.node(child).count;
                    let hit = pick < n;
                    if !hit {
                        pick -= n;
                    }
                    hit
                })
                .expect("count invariant violated during descent");
            prefix = prefix * c + u64::from(self.node(node).digit);
            level -= 1;
        }
        LeafCode(prefix)
    }

    #[inline]
    fn node(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize]
    }

    /// `code`'s base-`c` digits, `digits[level]` being the branch from its
    /// level-`level + 1` ancestor down to level `level`, or `None` if the
    /// code is outside the tree.
    fn digits(&self, code: LeafCode) -> Option<[u32; MAX_PATH]> {
        let c = u64::from(self.ctx.branching);
        let mut digits = [0; MAX_PATH];
        let mut rest = code.0;
        for digit in &mut digits[..self.ctx.depth as usize] {
            *digit = (rest % c) as u32;
            rest /= c;
        }
        (rest == 0).then_some(digits)
    }

    /// The slot of each node on stored leaf `code`'s root path, `path[level]`
    /// at `level` (the root at `D`), or `None` if `code` is not stored.
    fn path(&self, code: LeafCode) -> Option<[u32; MAX_PATH]> {
        let digits = self.digits(code)?;
        let mut path = [ROOT; MAX_PATH];
        for level in (0..self.ctx.depth as usize).rev() {
            path[level] = self.child(path[level + 1], digits[level])?;
        }
        Some(path)
    }

    /// `parent`'s occupied children, in ascending digit order.
    fn children(&self, parent: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(self.node(parent).first), |&child| {
            Some(self.node(child).next)
        })
        .take_while(|&child| child != NIL)
    }

    /// `parent`'s occupied child on branch `digit`, if any.
    fn child(&self, parent: u32, digit: u32) -> Option<u32> {
        self.children(parent)
            .find(|&child| self.node(child).digit >= digit)
            .filter(|&child| self.node(child).digit == digit)
    }

    /// `parent`'s child on branch `digit`, linked in at its place in digit
    /// order (in a free slot, if there is one) when it is not occupied yet.
    fn child_or_insert(&mut self, parent: u32, digit: u32) -> u32 {
        let (mut prev, mut next) = (NIL, self.node(parent).first);
        while next != NIL && self.node(next).digit < digit {
            (prev, next) = (next, self.node(next).next);
        }
        if next != NIL && self.node(next).digit == digit {
            return next;
        }
        let node = Node {
            count: 0,
            first: NIL,
            next,
            digit,
        };
        let child = if self.free == NIL {
            let slot = u32::try_from(self.nodes.len()).expect("at most 2^32 occupied tree nodes");
            self.nodes.push(node);
            slot
        } else {
            let slot = self.free;
            self.free = self.node(slot).next;
            self.nodes[slot as usize] = node;
            slot
        };
        match prev {
            NIL => self.nodes[parent as usize].first = child,
            prev => self.nodes[prev as usize].next = child,
        }
        child
    }

    /// Unlinks `child` from `parent`'s child list.
    fn unlink(&mut self, parent: u32, child: u32) {
        let next = self.node(child).next;
        if self.node(parent).first == child {
            self.nodes[parent as usize].first = next;
            return;
        }
        let mut prev = self.node(parent).first;
        while self.node(prev).next != child {
            prev = self.node(prev).next;
        }
        self.nodes[prev as usize].next = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CodeContext {
        CodeContext::new(2, 4)
    }

    /// Finds and removes a nearest leaf — the greedy matchers' step.
    fn take(idx: &mut SubtreeCounter, query: LeafCode) -> Option<LeafCode> {
        let found = idx.nearest(query)?;
        assert!(idx.remove(found));
        Some(found)
    }

    /// Slots on the free list.
    fn free_slots(idx: &SubtreeCounter) -> usize {
        std::iter::successors(Some(idx.free), |&slot| Some(idx.node(slot).next))
            .take_while(|&slot| slot != NIL)
            .count()
    }

    /// Brute-force reference: nearest by scanning a vector.
    fn brute_nearest(ctx: &CodeContext, stored: &[u64], query: u64) -> Option<u64> {
        stored
            .iter()
            .copied()
            .min_by_key(|&s| (ctx.tree_dist_units(LeafCode(s), LeafCode(query)), s))
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = SubtreeCounter::new(ctx());
        assert_eq!(idx.nearest(LeafCode(3)), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn exact_hit_has_distance_zero() {
        let mut idx = SubtreeCounter::new(ctx());
        idx.insert(LeafCode(5));
        assert_eq!(idx.nearest(LeafCode(5)), Some(LeafCode(5)));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = SubtreeCounter::new(ctx());
        idx.insert(LeafCode(3));
        idx.insert(LeafCode(3));
        assert_eq!(idx.count(LeafCode(3)), 2);
        assert_eq!(idx.len(), 2);
        assert!(idx.remove(LeafCode(3)));
        assert_eq!(idx.count(LeafCode(3)), 1);
        assert!(idx.remove(LeafCode(3)));
        assert!(!idx.remove(LeafCode(3)), "third removal must fail");
        assert!(idx.is_empty());
        // Only the root is left: every other slot is back on the free list.
        assert_eq!(idx.nodes[ROOT as usize].first, NIL);
        assert_eq!(free_slots(&idx) + 1, idx.nodes.len());
    }

    #[test]
    fn churn_at_fixed_occupancy_does_not_grow_the_arena() {
        let c = CodeContext::new(5, 6);
        let mut idx = SubtreeCounter::new(c);
        // 15 625 leaves visited in a scattered order, 32 stored at a time.
        let code = |i: u64| LeafCode(i * 7919 % c.num_leaves());
        for i in 0..32 {
            idx.insert(code(i));
        }
        for i in 32..5000 {
            assert!(idx.remove(code(i - 32)));
            idx.insert(code(i));
        }
        assert_eq!(idx.len(), 32);
        // At most D nodes per stored leaf, plus the root.
        assert!(
            idx.nodes.len() <= 1 + 32 * 6,
            "arena grew to {}",
            idx.nodes.len()
        );
    }

    #[test]
    fn nearest_matches_brute_force_binary() {
        let c = ctx();
        let stored = [0u64, 3, 9, 14, 15];
        let mut idx = SubtreeCounter::new(c);
        for &s in &stored {
            idx.insert(LeafCode(s));
        }
        for q in 0..16u64 {
            let got = idx.nearest(LeafCode(q)).unwrap().0;
            let want_dist = c.tree_dist_units(
                LeafCode(brute_nearest(&c, &stored, q).unwrap()),
                LeafCode(q),
            );
            let got_dist = c.tree_dist_units(LeafCode(got), LeafCode(q));
            assert_eq!(got_dist, want_dist, "query {q}: got leaf {got}");
            assert!(stored.contains(&got));
        }
    }

    #[test]
    fn nearest_matches_brute_force_ternary() {
        let c = CodeContext::new(3, 3);
        let stored = [1u64, 7, 13, 26, 26];
        let mut idx = SubtreeCounter::new(c);
        for &s in &stored {
            idx.insert(LeafCode(s));
        }
        for q in 0..27u64 {
            let got = idx.nearest(LeafCode(q)).unwrap().0;
            let want = brute_nearest(&c, &stored, q).unwrap();
            assert_eq!(
                c.tree_dist_units(LeafCode(got), LeafCode(q)),
                c.tree_dist_units(LeafCode(want), LeafCode(q)),
                "query {q}"
            );
        }
    }

    #[test]
    fn take_nearest_depletes_in_distance_order() {
        let c = ctx();
        let mut idx = SubtreeCounter::new(c);
        for s in [0u64, 1, 8] {
            idx.insert(LeafCode(s));
        }
        // Query 0: distance 0 leaf first, then its level-1 sibling, then the
        // far side of the root.
        assert_eq!(take(&mut idx, LeafCode(0)), Some(LeafCode(0)));
        assert_eq!(take(&mut idx, LeafCode(0)), Some(LeafCode(1)));
        assert_eq!(take(&mut idx, LeafCode(0)), Some(LeafCode(8)));
        assert_eq!(take(&mut idx, LeafCode(0)), None);
    }

    #[test]
    fn multiplicity_survives_take() {
        let c = ctx();
        let mut idx = SubtreeCounter::new(c);
        idx.insert(LeafCode(6));
        idx.insert(LeafCode(6));
        assert_eq!(take(&mut idx, LeafCode(6)), Some(LeafCode(6)));
        assert_eq!(take(&mut idx, LeafCode(6)), Some(LeafCode(6)));
        assert_eq!(take(&mut idx, LeafCode(6)), None);
    }

    #[test]
    #[should_panic(expected = "outside tree")]
    fn inserting_foreign_code_panics() {
        let mut idx = SubtreeCounter::new(ctx());
        idx.insert(LeafCode(16));
    }
}
