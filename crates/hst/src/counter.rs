//! Dynamic nearest-leaf index over the complete HST.
//!
//! A stored leaf is named by its [`LeafSlot`]: [`SubtreeCounter::insert`]
//! returns it, both descents end on it, and [`SubtreeCounter::remove`] takes
//! it and walks up from it. An owner keeps its per-leaf data in a vector
//! indexed by the slot, with no map from codes. A leaf's slot passes to the
//! next leaf inserted once the leaf's last occurrence is removed, so such a
//! vector's entries are reused and it never outgrows the peak number of
//! distinct leaves stored at once.

use crate::code::{CodeContext, LeafCode};
use rand::{Rng, RngCore};

/// The root's slot in the inner arena.
const ROOT: u32 = 0;

/// "No node" in a link. No arena reaches `2^32` slots, so it names none.
const NIL: u32 = u32::MAX;

/// Room for a leaf code's digits: `c^D` fits in a `u64` and `c ≥ 2`, so
/// `D ≤ 63`.
const MAX_PATH: usize = 64;

/// The slot a link names, or `None` for [`NIL`].
#[inline]
fn linked(slot: u32) -> Option<u32> {
    (slot != NIL).then_some(slot)
}

/// An occupied node of the complete tree, 20 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Stored leaves in the node's subtree, with multiplicity.
    count: u32,
    /// The first occupied child, or [`NIL`]; always [`NIL`] at a leaf.
    first: u32,
    /// The next occupied sibling in ascending digit order, or [`NIL`]. On
    /// the free list: the next free slot.
    next: u32,
    /// The branch from the parent: the node's code digit one level below
    /// the parent.
    digit: u32,
    /// The parent's slot in the inner arena, or [`NIL`] at the root.
    parent: u32,
}

/// The nodes of one kind, leaves or inner nodes, with the slots they freed
/// linked through [`Node::next`].
#[derive(Debug, Clone)]
struct Arena {
    nodes: Vec<Node>,
    /// The first free slot, or [`NIL`].
    free: u32,
}

impl Arena {
    fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Stores `node` in a free slot if there is one, and returns the slot.
    fn alloc(&mut self, node: Node) -> u32 {
        if self.free == NIL {
            let slot = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&slot| slot != NIL)
                .expect("an arena holds fewer than 2^32 tree nodes");
            self.nodes.push(node);
            slot
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        }
    }

    /// Puts `slot` on the free list.
    fn release(&mut self, slot: u32) {
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
    }
}

/// A stored leaf's handle: its slot in a [`SubtreeCounter`]'s leaf arena.
///
/// A slot names its leaf from the insert that stores the leaf until the
/// removal of its last occurrence; the next leaf inserted may then take it.
/// Slots are dense: each is below the peak number of distinct leaves the
/// counter has held at once, so per-leaf data fits a vector indexed by
/// [`LeafSlot::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafSlot(u32);

impl LeafSlot {
    /// The slot as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
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
/// stored leaves. Both end on the stored leaf's [`LeafSlot`].
///
/// The index is a digit trie of 20-byte nodes: one node per occupied node
/// of the complete tree, each node's occupied children linked in ascending
/// digit order, which is ascending child code, and each node linked to its
/// parent. Inner nodes (the root first) and leaves live in two arenas, so
/// leaf slots stay dense. Insert and both queries step down the code's `D`
/// digits, each step a scan of one child list, with no hashing; a removal
/// steps up from the leaf's slot. A node whose count reaches 0 is unlinked
/// and its slot goes on its arena's free list, which inserts reuse, so
/// memory is `O(peak stored · D)` regardless of `c^D`.
#[derive(Debug, Clone)]
pub struct SubtreeCounter {
    ctx: CodeContext,
    /// Levels 1 to `D`: the root at [`ROOT`], then the occupied nodes and
    /// the free slots.
    inner: Arena,
    /// Level 0: the occupied leaves and the free slots.
    leaves: Arena,
}

/// Where a descent starts: the node at `level` on the query's root path.
struct Start {
    level: u32,
    node: u32,
}

impl SubtreeCounter {
    /// Creates an empty index for trees with context `ctx`.
    pub fn new(ctx: CodeContext) -> Self {
        let mut inner = Arena::new();
        inner.alloc(Node {
            count: 0,
            first: NIL,
            next: NIL,
            digit: 0,
            parent: NIL,
        });
        SubtreeCounter {
            ctx,
            inner,
            leaves: Arena::new(),
        }
    }

    /// Number of leaves currently stored (counting multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.nodes[ROOT as usize].count as usize
    }

    /// True iff the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Multiplicity of the leaf at `slot`: 0 once its last occurrence is
    /// removed.
    pub fn count(&self, slot: LeafSlot) -> u32 {
        self.leaves.nodes[slot.index()].count
    }

    /// The code of the stored leaf at `slot`, read off the digits on its
    /// root path.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no stored leaf.
    pub fn code(&self, slot: LeafSlot) -> LeafCode {
        let leaf = self.stored(slot);
        let c = u64::from(self.ctx.branching);
        let (mut code, mut scale, mut node) = (u64::from(leaf.digit), c, leaf.parent);
        for level in 1..self.ctx.depth {
            let inner = self.node(level, node);
            code += u64::from(inner.digit) * scale;
            scale *= c;
            node = inner.parent;
        }
        LeafCode(code)
    }

    /// Inserts one occurrence of `code` and returns its leaf's slot.
    ///
    /// # Panics
    ///
    /// Panics if the code does not belong to the tree, or if the index
    /// would occupy `2^32` leaves or inner nodes.
    pub fn insert(&mut self, code: LeafCode) -> LeafSlot {
        let digits = self.digits(code).expect("code outside tree");
        let mut node = ROOT;
        self.inner.nodes[ROOT as usize].count += 1;
        for level in (1..=self.ctx.depth).rev() {
            node = self.child_or_insert(level, node, digits[level as usize - 1]);
            self.arena_mut(level - 1).nodes[node as usize].count += 1;
        }
        LeafSlot(node)
    }

    /// Removes one occurrence of the stored leaf at `slot`, walking up its
    /// parent links. The last occurrence frees the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no stored leaf.
    pub fn remove(&mut self, slot: LeafSlot) {
        // An empty slot's count would wrap.
        self.stored(slot);
        let depth = self.ctx.depth;
        // A node counts at least what its child does, so the nodes that
        // reach 0 are the lowest on the path: `top` is the highest of them
        // below the root, with its level.
        let mut top = None;
        let (mut level, mut node) = (0, slot.0);
        while node != NIL {
            let n = &mut self.arena_mut(level).nodes[node as usize];
            n.count -= 1;
            if n.count == 0 && level < depth {
                top = Some((level, node));
            }
            (level, node) = (level + 1, n.parent);
        }
        let Some((top_level, top)) = top else {
            return;
        };
        self.unlink(top_level + 1, self.node(top_level, top).parent, top);
        // Free the emptied nodes, from the leaf up to `top`.
        let (mut level, mut node) = (0, slot.0);
        loop {
            let parent = self.node(level, node).parent;
            self.arena_mut(level).release(node);
            if level == top_level {
                break;
            }
            (level, node) = (level + 1, parent);
        }
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
    pub fn nearest(&self, query: LeafCode) -> Option<LeafSlot> {
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
    pub fn nearest_random(&self, query: LeafCode, rng: &mut dyn RngCore) -> Option<LeafSlot> {
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
        let mut node = ROOT;
        let mut lowest = None;
        for level in (1..=self.ctx.depth).rev() {
            let child = self.child(level, node, digits[level as usize - 1]);
            let below = child.map_or(0, |child| self.node(level - 1, child).count);
            if self.node(level, node).count > below {
                lowest = Some(Start { level, node });
            }
            let Some(child) = child else {
                return lowest;
            };
            node = child;
        }
        Some(Start { level: 0, node })
    }

    /// Descends from `start` to a stored leaf. Without `rng` each step takes
    /// the first occupied child; with it, a child with probability
    /// proportional to its count (see [`Self::nearest_random`]).
    fn descend(&self, start: Start, mut rng: Option<&mut dyn RngCore>) -> LeafSlot {
        let Start {
            mut level,
            mut node,
        } = start;
        while level > 0 {
            node = match rng.as_deref_mut() {
                None => self.node(level, node).first,
                Some(rng) => {
                    let mut pick = rng.gen_range(0..self.node(level, node).count);
                    self.children(level, node)
                        .find(|&child| {
                            let n = self.node(level - 1, child).count;
                            let hit = pick < n;
                            if !hit {
                                pick -= n;
                            }
                            hit
                        })
                        .expect("count invariant violated during descent")
                }
            };
            level -= 1;
        }
        LeafSlot(node)
    }

    /// The arena of the nodes at `level`.
    #[inline]
    fn arena(&self, level: u32) -> &Arena {
        if level == 0 {
            &self.leaves
        } else {
            &self.inner
        }
    }

    #[inline]
    fn arena_mut(&mut self, level: u32) -> &mut Arena {
        if level == 0 {
            &mut self.leaves
        } else {
            &mut self.inner
        }
    }

    #[inline]
    fn node(&self, level: u32, slot: u32) -> &Node {
        &self.arena(level).nodes[slot as usize]
    }

    /// The leaf at `slot`, which must be stored.
    fn stored(&self, slot: LeafSlot) -> &Node {
        let leaf = &self.leaves.nodes[slot.index()];
        assert!(leaf.count > 0, "{slot:?} holds no stored leaf");
        leaf
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

    /// The occupied children of `parent`, a node at `level ≥ 1`, in
    /// ascending digit order.
    fn children(&self, level: u32, parent: u32) -> impl Iterator<Item = u32> + '_ {
        let below = self.arena(level - 1);
        std::iter::successors(linked(self.node(level, parent).first), |&child| {
            linked(below.nodes[child as usize].next)
        })
    }

    /// The occupied child on branch `digit` of `parent`, a node at
    /// `level ≥ 1`, if any.
    fn child(&self, level: u32, parent: u32, digit: u32) -> Option<u32> {
        let below = self.arena(level - 1);
        self.children(level, parent)
            .find(|&child| below.nodes[child as usize].digit >= digit)
            .filter(|&child| below.nodes[child as usize].digit == digit)
    }

    /// The child on branch `digit` of `parent`, a node at `level ≥ 1`,
    /// linked in at its place in digit order (in a free slot, if there is
    /// one) when it is not occupied yet.
    fn child_or_insert(&mut self, level: u32, parent: u32, digit: u32) -> u32 {
        let below = self.arena(level - 1);
        let (mut prev, mut next) = (NIL, self.node(level, parent).first);
        while next != NIL && below.nodes[next as usize].digit < digit {
            (prev, next) = (next, below.nodes[next as usize].next);
        }
        if next != NIL && below.nodes[next as usize].digit == digit {
            return next;
        }
        let below = self.arena_mut(level - 1);
        let child = below.alloc(Node {
            count: 0,
            first: NIL,
            next,
            digit,
            parent,
        });
        match prev {
            NIL => self.inner.nodes[parent as usize].first = child,
            prev => below.nodes[prev as usize].next = child,
        }
        child
    }

    /// Unlinks `child` from the child list of `parent`, a node at
    /// `level ≥ 1`.
    fn unlink(&mut self, level: u32, parent: u32, child: u32) {
        let first = self.node(level, parent).first;
        let below = self.arena_mut(level - 1);
        let next = below.nodes[child as usize].next;
        if first == child {
            self.inner.nodes[parent as usize].first = next;
            return;
        }
        let mut prev = first;
        while below.nodes[prev as usize].next != child {
            prev = below.nodes[prev as usize].next;
        }
        below.nodes[prev as usize].next = next;
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
        let slot = idx.nearest(query)?;
        let code = idx.code(slot);
        idx.remove(slot);
        Some(code)
    }

    /// Slots on an arena's free list.
    fn free_slots(arena: &Arena) -> usize {
        std::iter::successors(linked(arena.free), |&slot| {
            linked(arena.nodes[slot as usize].next)
        })
        .count()
    }

    /// Brute-force reference: nearest by scanning a vector.
    fn brute_nearest(ctx: &CodeContext, stored: &[u64], query: u64) -> Option<u64> {
        stored
            .iter()
            .copied()
            .min_by_key(|&s| (ctx.tree_dist_units(LeafCode(s), LeafCode(query)), s))
    }

    /// An index holding `stored`, with the slot each insert returned.
    fn filled(ctx: CodeContext, stored: &[u64]) -> (SubtreeCounter, Vec<LeafSlot>) {
        let mut idx = SubtreeCounter::new(ctx);
        let slots = stored.iter().map(|&s| idx.insert(LeafCode(s))).collect();
        (idx, slots)
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
        let slot = idx.insert(LeafCode(5));
        assert_eq!(idx.nearest(LeafCode(5)), Some(slot));
        assert_eq!(idx.code(slot), LeafCode(5));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = SubtreeCounter::new(ctx());
        let slot = idx.insert(LeafCode(3));
        assert_eq!(idx.insert(LeafCode(3)), slot, "one slot per stored leaf");
        assert_eq!(idx.count(slot), 2);
        assert_eq!(idx.len(), 2);
        idx.remove(slot);
        assert_eq!(idx.count(slot), 1);
        idx.remove(slot);
        assert_eq!(idx.count(slot), 0);
        assert!(idx.is_empty());
        // Only the root is left: every other slot is back on a free list.
        assert_eq!(idx.inner.nodes[ROOT as usize].first, NIL);
        assert_eq!(free_slots(&idx.inner) + 1, idx.inner.nodes.len());
        assert_eq!(free_slots(&idx.leaves), idx.leaves.nodes.len());
    }

    #[test]
    #[should_panic(expected = "holds no stored leaf")]
    fn removing_an_emptied_slot_panics() {
        let mut idx = SubtreeCounter::new(ctx());
        let slot = idx.insert(LeafCode(3));
        idx.remove(slot);
        idx.remove(slot);
    }

    #[test]
    fn emptied_slots_go_to_the_next_leaves_inserted() {
        let mut idx = SubtreeCounter::new(ctx());
        let (a, b) = (idx.insert(LeafCode(3)), idx.insert(LeafCode(12)));
        idx.remove(a);
        let c = idx.insert(LeafCode(9));
        assert_eq!(c, a, "the freed leaf slot is reused");
        assert_eq!((idx.code(b), idx.code(c)), (LeafCode(12), LeafCode(9)));
        assert_eq!(idx.nearest(LeafCode(8)), Some(c));
        assert_eq!(idx.nearest(LeafCode(13)), Some(b));
    }

    #[test]
    fn churn_at_fixed_occupancy_does_not_grow_the_arena() {
        let c = CodeContext::new(5, 6);
        let mut idx = SubtreeCounter::new(c);
        // 15 625 leaves visited in a scattered order, 32 stored at a time.
        let code = |i: u64| LeafCode(i * 7919 % c.num_leaves());
        let mut live: std::collections::VecDeque<LeafSlot> =
            (0..32).map(|i| idx.insert(code(i))).collect();
        for i in 32..5000 {
            idx.remove(live.pop_front().unwrap());
            let slot = idx.insert(code(i));
            assert_eq!(idx.code(slot), code(i));
            live.push_back(slot);
        }
        assert_eq!(idx.len(), 32);
        // At most D - 1 inner nodes per stored leaf, plus the root, and one
        // leaf slot per stored leaf.
        let inner = idx.inner.nodes.len();
        assert!(inner <= 1 + 32 * 5, "inner arena grew to {inner}");
        let leaves = idx.leaves.nodes.len();
        assert!(leaves <= 32, "leaf arena grew to {leaves}");
    }

    #[test]
    fn nearest_matches_brute_force_binary() {
        let c = ctx();
        let stored = [0u64, 3, 9, 14, 15];
        let (idx, _) = filled(c, &stored);
        for q in 0..16u64 {
            let got = idx.code(idx.nearest(LeafCode(q)).unwrap()).0;
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
        // Each slot insert returns reads back its code, the greedy descent
        // ends on the slot of the brute-force answer's leaf, and the random
        // one on a stored leaf's slot at the same distance.
        let c = CodeContext::new(3, 3);
        let stored = [1u64, 7, 13, 26, 26, 4];
        let (idx, slots) = filled(c, &stored);
        for (&s, &slot) in stored.iter().zip(&slots) {
            assert_eq!(idx.code(slot), LeafCode(s));
        }
        let slot_of = |code: u64| slots[stored.iter().position(|&s| s == code).unwrap()];
        let mut rng = pombm_geom::seeded_rng(9, 0);
        for q in 0..27u64 {
            let want = brute_nearest(&c, &stored, q).unwrap();
            assert_eq!(idx.nearest(LeafCode(q)), Some(slot_of(want)), "query {q}");
            let drawn = idx.nearest_random(LeafCode(q), &mut rng).unwrap();
            let code = idx.code(drawn);
            assert_eq!(drawn, slot_of(code.0), "query {q}");
            assert_eq!(
                c.tree_dist_units(code, LeafCode(q)),
                c.tree_dist_units(LeafCode(want), LeafCode(q)),
                "query {q}"
            );
        }
    }

    #[test]
    fn take_nearest_depletes_in_distance_order() {
        let c = ctx();
        let (mut idx, _) = filled(c, &[0, 1, 8]);
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
        let (mut idx, _) = filled(c, &[6, 6]);
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
