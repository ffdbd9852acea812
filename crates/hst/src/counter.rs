//! Dynamic nearest-leaf index over the complete HST.

use crate::code::{CodeContext, LeafCode};
#[expect(
    clippy::disallowed_types,
    reason = "imported for the lookup-only `counts` map"
)]
use std::collections::HashMap;

/// A dynamic multiset of complete-tree leaves supporting *nearest-leaf*
/// queries in `O(c·D)`.
///
/// The paper's HST-greedy algorithm (Alg. 4) scans all unassigned workers for
/// every arriving task, `O(n·D)` per task. Because the HST metric is an
/// ultrametric determined entirely by LCA levels, the nearest available
/// worker can instead be found by walking up from the task's leaf and, at the
/// first ancestor whose subtree holds a worker outside the already-searched
/// child, walking down through occupied children. This index maintains the
/// per-(virtual-)node occupancy counts that make the walk possible.
///
/// Node keys are `(level, prefix)` where `prefix = code / c^level`; only
/// nodes on inserted leaves' root paths are stored, so memory is
/// `O(inserted · D)` regardless of `c^D`.
#[derive(Debug, Clone)]
pub struct SubtreeCounter {
    ctx: CodeContext,
    /// Occupancy count per visited virtual node, keyed by (level, prefix).
    #[expect(
        clippy::disallowed_types,
        reason = "per-key lookups on the hot assign path; the map is never iterated"
    )]
    counts: HashMap<(u32, u64), u32>,
    /// Total number of leaves currently in the multiset (with multiplicity).
    len: usize,
}

impl SubtreeCounter {
    /// Creates an empty index for trees with context `ctx`.
    #[expect(
        clippy::disallowed_types,
        reason = "builds the lookup-only `counts` map"
    )]
    pub fn new(ctx: CodeContext) -> Self {
        SubtreeCounter {
            ctx,
            counts: HashMap::new(),
            len: 0,
        }
    }

    /// Number of leaves currently stored (counting multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Multiplicity of a specific leaf.
    pub fn count(&self, code: LeafCode) -> u32 {
        *self.counts.get(&(0, code.0)).unwrap_or(&0)
    }

    /// Inserts one occurrence of `code`.
    ///
    /// # Panics
    ///
    /// Panics if the code does not belong to the tree.
    pub fn insert(&mut self, code: LeafCode) {
        assert!(self.ctx.contains(code), "code outside tree");
        for level in 0..=self.ctx.depth {
            *self
                .counts
                .entry((level, self.ctx.ancestor(code, level)))
                .or_insert(0) += 1;
        }
        self.len += 1;
    }

    /// Removes one occurrence of `code`. Returns `false` (and changes
    /// nothing) if the leaf is not present.
    pub fn remove(&mut self, code: LeafCode) -> bool {
        if self.count(code) == 0 {
            return false;
        }
        for level in 0..=self.ctx.depth {
            let key = (level, self.ctx.ancestor(code, level));
            let entry = self.counts.get_mut(&key).expect("inconsistent counts");
            *entry -= 1;
            if *entry == 0 {
                self.counts.remove(&key);
            }
        }
        self.len -= 1;
        true
    }

    /// The code-arithmetic context this index was built for.
    #[inline]
    pub fn ctx(&self) -> CodeContext {
        self.ctx
    }

    /// Occupancy of the virtual node `(level, prefix)`: how many stored
    /// leaves lie in that node's subtree. Level `0` nodes are leaves
    /// themselves. Public so callers can implement alternative descent
    /// policies (e.g. the randomized matchers) on top of the same counts.
    #[inline]
    pub fn node_count_at(&self, level: u32, prefix: u64) -> u32 {
        *self.counts.get(&(level, prefix)).unwrap_or(&0)
    }

    fn node_count(&self, level: u32, prefix: u64) -> u32 {
        self.node_count_at(level, prefix)
    }

    /// Finds a stored leaf at minimum tree distance from `query`.
    ///
    /// Ties (same LCA level) are broken toward the smallest child index on
    /// the downward walk, i.e. deterministically. Returns `None` if empty.
    pub fn nearest(&self, query: LeafCode) -> Option<LeafCode> {
        if self.is_empty() {
            return None;
        }
        // A leaf at the query position itself has distance 0.
        if self.count(query) > 0 {
            return Some(query);
        }
        // Walk upward: the first ancestor level l whose subtree count
        // exceeds the already-searched child's count holds the nearest leaf
        // (LCA level exactly l, distance 2^{l+2} - 4).
        for level in 1..=self.ctx.depth {
            let anc = self.ctx.ancestor(query, level);
            let searched_child = self.ctx.ancestor(query, level - 1);
            if self.node_count(level, anc) > self.node_count(level - 1, searched_child) {
                return Some(self.descend(level, anc, Some(searched_child)));
            }
        }
        unreachable!("non-empty index must yield a nearest leaf")
    }

    /// Descends from node `(level, prefix)` to any stored leaf, skipping the
    /// child with prefix `skip` (the subtree already known not to contain the
    /// answer) at the first step.
    fn descend(&self, mut level: u32, mut prefix: u64, mut skip: Option<u64>) -> LeafCode {
        let c = self.ctx.branching as u64;
        while level > 0 {
            let mut advanced = false;
            for j in 0..c {
                let child = prefix * c + j;
                if Some(child) == skip {
                    continue;
                }
                if self.node_count(level - 1, child) > 0 {
                    prefix = child;
                    level -= 1;
                    advanced = true;
                    break;
                }
            }
            assert!(advanced, "count invariant violated during descent");
            skip = None;
        }
        LeafCode(prefix)
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
        // Internal map fully cleaned up.
        assert!(idx.counts.is_empty());
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
