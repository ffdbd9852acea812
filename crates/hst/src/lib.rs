#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "unit tests produce no compared output"
    )
)]

//! Hierarchically Well-Separated Trees (HSTs) for the POMBM reproduction.
//!
//! An HST is a tree embedding `T = (V_T, d_T)` of a finite metric space
//! `(V, d)` in which every leaf sits at level 0, every edge from a level-`i`
//! node to its parent has length `2^{i+1}`, and the tree metric dominates the
//! original metric while over-estimating it by only `O(log |V|)` in
//! expectation (Fakcharoenphol–Rao–Talwar).
//!
//! The paper builds its entire privacy mechanism on a *complete c-ary* HST:
//! after the randomized construction (Alg. 1), fake nodes are added until
//! every internal node has exactly `c` children. The crucial consequence is
//! that from any leaf `x` the complete tree looks identical: exactly
//! `(c-1)·c^{i-1}` leaves have their lowest common ancestor with `x` at level
//! `i`, and all of them are at tree distance `2^{i+2} - 4`.
//!
//! This crate implements:
//!
//! * [`Hst`] — construction over a [`pombm_geom::PointSet`] (Alg. 1), with
//!   the radius factor and permutation drawn from an RNG ([`Hst::build`]) or
//!   pinned ([`Hst::build_fixed`], as in the paper's Example 1), including
//!   the completion step at the tree's maximum branching `c`. Fake subtrees
//!   are **never materialized**: leaves of the complete tree are identified
//!   by base-`c` *path codes* ([`LeafCode`]), and all tree-metric queries
//!   (LCA level, distance) are `O(D)` digit arithmetic.
//! * [`SubtreeCounter`] — a dynamic multiset of leaves supporting
//!   nearest-leaf queries in `O(c·D)` pointer steps, deterministic or drawn
//!   uniformly among the nearest, used to accelerate the paper's HST-greedy
//!   matching beyond its `O(n·D)`-per-task linear scan. It is a digit trie
//!   in two arenas, inner nodes and leaves: a node per occupied tree node,
//!   children linked in digit order, each node linked to its parent, freed
//!   slots reused. A stored leaf's [`LeafSlot`] is its handle: insert
//!   returns it, both queries end on it, removal walks up from it.
//!
//! # Example
//!
//! ```
//! use pombm_geom::{seeded_rng, Grid, Rect};
//! use pombm_hst::Hst;
//!
//! // Build an HST over a 4x4 grid of predefined points (Alg. 1).
//! let points = Grid::square(Rect::square(100.0), 4).to_point_set();
//! let hst = Hst::build(&points, &mut seeded_rng(7, 0));
//!
//! // The tree metric dominates the Euclidean metric (HST property).
//! let (a, b) = (hst.leaf_of(0), hst.leaf_of(15));
//! assert!(hst.tree_dist(a, b) >= points.dist(0, 15));
//!
//! // Arbitrary locations snap to their nearest predefined point's leaf.
//! let leaf = hst.snap(&pombm_geom::Point::new(1.0, 2.0));
//! assert_eq!(leaf, hst.leaf_of(0));
//! ```

pub mod code;
pub mod construct;
pub mod counter;
pub mod quadtree;
pub mod tree;
pub mod wire;

pub use code::{CodeContext, CodeOverflow, LeafCode};
pub use construct::{FixedDraw, RawTree};
pub use counter::{LeafSlot, SubtreeCounter};
pub use tree::Hst;

/// Tree distance between two leaves whose LCA is at `level`, in *tree units*
/// (the scaled metric of the construction).
///
/// A leaf at level 0 reaches its level-`l` ancestor through edges of lengths
/// `2^1, 2^2, …, 2^l`, totalling `2^{l+1} - 2`; doubling for both endpoints
/// gives `2^{l+2} - 4`, the constant the paper uses throughout (Sec. III-C).
#[inline]
pub fn level_distance(level: u32) -> u64 {
    if level == 0 {
        0
    } else {
        (1u64 << (level + 2)) - 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_distance_matches_paper_constants() {
        assert_eq!(level_distance(0), 0);
        assert_eq!(level_distance(1), 4); // 2^3 - 4
        assert_eq!(level_distance(2), 12); // 2^4 - 4
        assert_eq!(level_distance(3), 28); // 2^5 - 4
        assert_eq!(level_distance(4), 60); // 2^6 - 4
    }

    #[test]
    fn level_distance_is_strictly_increasing() {
        for l in 0..40 {
            assert!(level_distance(l) < level_distance(l + 1));
        }
    }
}
