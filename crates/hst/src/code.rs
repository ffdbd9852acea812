//! Path codes identifying leaves of the complete c-ary HST.

use serde::{Deserialize, Serialize};

/// A leaf of the *complete* c-ary HST, identified by its root-to-leaf path.
///
/// A complete HST of depth `D` and branching `c` has exactly `c^D` leaves.
/// Writing the child index chosen at each descent step as a base-`c` digit —
/// the digit at position `j` is the branch taken from the level-`j+1` node
/// down to level `j` — every leaf corresponds to a unique integer in
/// `[0, c^D)`. Real leaves (predefined points) occupy some of these codes;
/// the rest are the paper's "fake nodes", which exist only as codes and are
/// never materialized.
///
/// All interpretation (LCA level, tree distance, ancestor prefixes) needs the
/// tree's `(c, D)` context and lives on [`crate::Hst`]; the code itself is a
/// plain value type cheap to copy, hash and order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct LeafCode(pub u64);

impl LeafCode {
    /// The raw base-`c` integer value of the path.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for LeafCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "leaf#{}", self.0)
    }
}

/// Digit arithmetic over `(c, D)`-contexts, shared by [`crate::Hst`] and
/// [`crate::SubtreeCounter`].
///
/// Kept separate from `Hst` so the counter can answer queries without holding
/// a reference to the full tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeContext {
    /// Branching factor `c ≥ 2` of the complete tree.
    pub branching: u32,
    /// Depth `D ≥ 1`: root at level `D`, leaves at level 0.
    pub depth: u32,
}

/// A complete tree whose `c^D` leaf codes do not fit in a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeOverflow {
    /// Branching factor `c` of the tree.
    pub branching: u32,
    /// Depth `D` of the tree.
    pub depth: u32,
}

impl std::fmt::Display for CodeOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "c^D = {}^{} must fit in u64; use a coarser predefined point set",
            self.branching, self.depth
        )
    }
}

impl std::error::Error for CodeOverflow {}

impl CodeContext {
    /// Creates a context, validating that all `c^D` codes fit in a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2`, `D < 1`, or `c^D` overflows `u64`; see
    /// [`CodeContext::try_new`] for the last.
    pub fn new(branching: u32, depth: u32) -> Self {
        Self::try_new(branching, depth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CodeContext::new`], with an overflowing `c^D` returned as an error.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2` or `D < 1`.
    pub fn try_new(branching: u32, depth: u32) -> Result<Self, CodeOverflow> {
        assert!(branching >= 2, "complete HST needs branching >= 2");
        assert!(depth >= 1, "HST needs at least one level");
        match (branching as u64).checked_pow(depth) {
            Some(_) => Ok(CodeContext { branching, depth }),
            None => Err(CodeOverflow { branching, depth }),
        }
    }

    /// Total number of leaves `c^D` in the complete tree.
    #[inline]
    pub fn num_leaves(&self) -> u64 {
        (self.branching as u64).pow(self.depth)
    }

    /// `c^level`, the number of leaves under one subtree rooted at `level`.
    #[inline]
    pub fn leaves_below(&self, level: u32) -> u64 {
        debug_assert!(level <= self.depth);
        (self.branching as u64).pow(level)
    }

    /// Number of leaves whose LCA with a fixed leaf is exactly at `level`:
    /// `1` for level 0 and `(c-1)·c^{i-1}` for `i ≥ 1` (paper Sec. III-C).
    #[inline]
    pub fn sibling_leaves_at(&self, level: u32) -> u64 {
        debug_assert!(level <= self.depth);
        if level == 0 {
            1
        } else {
            (self.branching as u64 - 1) * (self.branching as u64).pow(level - 1)
        }
    }

    /// The base-`c` digit of `code` at position `level ∈ [0, D)`: the branch
    /// taken from the level-`level+1` ancestor down to level `level`.
    #[inline]
    pub fn digit(&self, code: LeafCode, level: u32) -> u32 {
        debug_assert!(level < self.depth);
        ((code.0 / self.leaves_below(level)) % self.branching as u64) as u32
    }

    /// Identifier of the level-`level` ancestor of `code`: the code with its
    /// lowest `level` digits stripped. Level `0` returns the code itself;
    /// level `D` returns `0` (the root) for every leaf.
    #[inline]
    pub fn ancestor(&self, code: LeafCode, level: u32) -> u64 {
        debug_assert!(level <= self.depth);
        code.0 / self.leaves_below(level)
    }

    /// Level of the lowest common ancestor of two leaves: `0` iff the codes
    /// are equal, otherwise `1 +` the position of the most significant
    /// differing digit. `O(D)`.
    #[inline]
    pub fn lca_level(&self, a: LeafCode, b: LeafCode) -> u32 {
        if a == b {
            return 0;
        }
        // Smallest p with a / c^p == b / c^p; digit p-1 then differs, so the
        // LCA sits at level p.
        let c = self.branching as u64;
        let (mut x, mut y) = (a.0, b.0);
        let mut level = 0;
        while x != y {
            x /= c;
            y /= c;
            level += 1;
        }
        level
    }

    /// Tree distance between two leaves in tree units (`2^{l+2} - 4` for LCA
    /// level `l ≥ 1`, `0` for identical leaves).
    #[inline]
    pub fn tree_dist_units(&self, a: LeafCode, b: LeafCode) -> u64 {
        crate::level_distance(self.lca_level(a, b))
    }

    /// Checks that a code indexes a leaf of this tree.
    #[inline]
    pub fn contains(&self, code: LeafCode) -> bool {
        code.0 < self.num_leaves()
    }

    /// Builds the leaf code from its digits, most significant (level `D-1`)
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if the digit count is not `D` or any digit is `≥ c`.
    pub fn from_digits(&self, digits: &[u32]) -> LeafCode {
        assert_eq!(digits.len() as u32, self.depth, "need exactly D digits");
        let mut v: u64 = 0;
        for &d in digits {
            assert!(d < self.branching, "digit {d} out of range");
            v = v * self.branching as u64 + d as u64;
        }
        LeafCode(v)
    }

    /// Decomposes a code into its digits, most significant first. Inverse of
    /// [`CodeContext::from_digits`].
    pub fn to_digits(&self, code: LeafCode) -> Vec<u32> {
        (0..self.depth)
            .rev()
            .map(|lvl| self.digit(code, lvl))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CodeContext {
        CodeContext::new(2, 4)
    }

    #[test]
    fn leaf_counts() {
        let c = ctx();
        assert_eq!(c.num_leaves(), 16);
        assert_eq!(c.sibling_leaves_at(0), 1);
        assert_eq!(c.sibling_leaves_at(1), 1);
        assert_eq!(c.sibling_leaves_at(2), 2);
        assert_eq!(c.sibling_leaves_at(3), 4);
        assert_eq!(c.sibling_leaves_at(4), 8);
        // Partition property: sum over levels = total leaves.
        let total: u64 = (0..=4).map(|l| c.sibling_leaves_at(l)).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn ternary_sibling_counts_partition_leaves() {
        let c = CodeContext::new(3, 3);
        assert_eq!(c.num_leaves(), 27);
        let total: u64 = (0..=3).map(|l| c.sibling_leaves_at(l)).sum();
        assert_eq!(total, 27);
        assert_eq!(c.sibling_leaves_at(2), 2 * 3);
    }

    #[test]
    fn digits_roundtrip() {
        let c = CodeContext::new(3, 5);
        for v in [0u64, 1, 80, 121, 242] {
            let code = LeafCode(v);
            let digits = c.to_digits(code);
            assert_eq!(c.from_digits(&digits), code);
        }
    }

    #[test]
    fn lca_level_from_digits() {
        let c = ctx();
        let a = c.from_digits(&[0, 1, 0, 1]);
        assert_eq!(c.lca_level(a, a), 0);
        // Differ in the least significant digit -> LCA at level 1.
        let b = c.from_digits(&[0, 1, 0, 0]);
        assert_eq!(c.lca_level(a, b), 1);
        // Differ at digit position 2 (level-3 branch) -> LCA at level 3.
        let d = c.from_digits(&[0, 0, 1, 1]);
        assert_eq!(c.lca_level(a, d), 3);
        // Differ at the most significant digit -> LCA at the root (level 4).
        let e = c.from_digits(&[1, 1, 0, 1]);
        assert_eq!(c.lca_level(a, e), 4);
    }

    #[test]
    fn lca_level_is_symmetric_and_bounded() {
        let c = CodeContext::new(3, 4);
        for x in 0..c.num_leaves() {
            for y in 0..c.num_leaves() {
                let l = c.lca_level(LeafCode(x), LeafCode(y));
                assert_eq!(l, c.lca_level(LeafCode(y), LeafCode(x)));
                assert!(l <= 4);
                assert_eq!(l == 0, x == y);
            }
        }
    }

    #[test]
    fn tree_distance_satisfies_strong_triangle() {
        // HST distances form an ultrametric on leaves:
        // d(x, z) <= max(d(x, y), d(y, z)).
        let c = CodeContext::new(2, 5);
        let codes = [0u64, 5, 9, 17, 31];
        for &x in &codes {
            for &y in &codes {
                for &z in &codes {
                    let dxz = c.tree_dist_units(LeafCode(x), LeafCode(z));
                    let dxy = c.tree_dist_units(LeafCode(x), LeafCode(y));
                    let dyz = c.tree_dist_units(LeafCode(y), LeafCode(z));
                    assert!(dxz <= dxy.max(dyz));
                }
            }
        }
    }

    #[test]
    fn ancestor_prefixes_nest() {
        let c = CodeContext::new(3, 4);
        let code = LeafCode(77);
        for lvl in 0..4 {
            let lower = c.ancestor(code, lvl);
            let upper = c.ancestor(code, lvl + 1);
            assert_eq!(lower / c.branching as u64, upper);
        }
        assert_eq!(c.ancestor(code, 4), 0);
    }

    #[test]
    #[should_panic(expected = "branching >= 2")]
    fn unary_tree_rejected() {
        let _ = CodeContext::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "fit in u64")]
    fn overflowing_context_rejected() {
        let _ = CodeContext::new(u32::MAX, 3);
    }

    #[test]
    fn overflowing_context_is_an_error() {
        let err = CodeContext::try_new(17, 16).unwrap_err();
        assert_eq!(
            err,
            CodeOverflow {
                branching: 17,
                depth: 16
            }
        );
        assert!(err.to_string().starts_with("c^D = 17^16 must fit in u64"));
        // 16^16 = 2^64 is one past the largest code; 16^15 fits.
        assert!(CodeContext::try_new(16, 16).is_err());
        assert_eq!(CodeContext::try_new(16, 15).unwrap().num_leaves(), 1 << 60);
    }
}
