//! The complete c-ary HST with virtual fake nodes.

use crate::code::{CodeContext, CodeOverflow, LeafCode};
use crate::construct::{build_raw, build_raw_fixed, FixedDraw, RawTree};
use pombm_geom::{Point, PointId, PointSet};
use rand::Rng;

/// A complete c-ary Hierarchically Well-Separated Tree over a predefined
/// point set.
///
/// This is the structure the server publishes in step 1 of the paper's
/// workflow (Fig. 1). It combines:
///
/// * the *real* HST produced by Alg. 1 ([`RawTree`], kept for inspection),
/// * the *complete-tree view*: every internal node conceptually has exactly
///   `c` children; the added "fake" subtrees exist only as unoccupied
///   [`LeafCode`]s. All mechanism and matching logic works on codes, so the
///   `c^D` completion cost of the naive algorithm in the paper is avoided
///   entirely (memory stays `O(N·D)`).
///
/// Distances returned by [`Hst::tree_dist`] are in the original metric's
/// units (tree units × the construction scale), so they are directly
/// comparable across trees built over differently scaled point sets.
#[derive(Debug, Clone)]
pub struct Hst {
    raw: RawTree,
    ctx: CodeContext,
    points: PointSet,
    /// `leaf_code[p]` is the complete-tree code of point `p`'s leaf.
    leaf_code: Vec<LeafCode>,
    /// Inverse mapping for real leaves: every real leaf's code with its
    /// point, sorted by code.
    point_of: Vec<(LeafCode, PointId)>,
    /// `representative[v]`: the lowest point id whose leaf lies beneath
    /// raw node `v`.
    representative: Vec<PointId>,
}

impl Hst {
    /// Builds an HST over `points` with randomness from `rng` (Alg. 1 plus
    /// virtual completion).
    pub fn build<R: Rng + ?Sized>(points: &PointSet, rng: &mut R) -> Self {
        let raw = build_raw(points, rng);
        Self::from_raw(raw, points.clone())
    }

    /// Builds an HST over `points` with the radius factor β and the
    /// permutation π pinned by `draw`, as tests and the paper's Example 1
    /// (Table I) do.
    pub fn build_fixed(points: &PointSet, draw: FixedDraw) -> Self {
        let raw = build_raw_fixed(points, draw);
        Self::from_raw(raw, points.clone())
    }

    /// Builds a *deterministic* quadtree HST over `points` (the ablation
    /// construction; see [`crate::quadtree`]).
    pub fn from_quadtree(points: &PointSet) -> Self {
        let raw = crate::quadtree::build_quadtree(points);
        Self::from_raw(raw, points.clone())
    }

    pub(crate) fn from_raw(raw: RawTree, points: PointSet) -> Self {
        Self::try_from_raw(raw, points).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Completes a raw tree over `points` into the complete `c`-ary HST
    /// (the step every constructor above ends with) at the paper's
    /// "maximum number of branches", `c = max(2, max_branching)`,
    /// returning the overflow when its `c^D` leaf codes do not fit in a
    /// `u64` instead of panicking.
    pub fn try_from_raw(raw: RawTree, points: PointSet) -> Result<Self, CodeOverflow> {
        let c = raw.max_branching().max(2);
        let ctx = CodeContext::try_new(c, raw.depth)?;

        // A real leaf's code concatenates the child indices on the
        // root-to-leaf path, most significant digit first. Parents precede
        // their children in `raw.nodes`, so one forward pass extends each
        // node's path prefix by its child index, and one reverse pass hands
        // the lowest point id under each node up to its parent.
        let nodes = &raw.nodes;
        let mut prefix = vec![0u64; nodes.len()];
        for (v, node) in nodes.iter().enumerate().skip(1) {
            assert!(node.parent < v, "raw tree nodes must follow their parents");
            prefix[v] = prefix[node.parent] * u64::from(c) + u64::from(node.child_index);
        }
        let leaf_code: Vec<LeafCode> = raw.leaf_of.iter().map(|&v| LeafCode(prefix[v])).collect();
        let mut point_of: Vec<(LeafCode, PointId)> = leaf_code.iter().copied().zip(0..).collect();
        point_of.sort_unstable();
        assert!(
            point_of.windows(2).all(|w| w[0].0 != w[1].0),
            "two points share a leaf code"
        );
        let mut representative = vec![PointId::MAX; nodes.len()];
        for (p, &v) in raw.leaf_of.iter().enumerate() {
            representative[v] = p;
        }
        for (v, node) in nodes.iter().enumerate().skip(1).rev() {
            representative[node.parent] = representative[node.parent].min(representative[v]);
        }

        Ok(Hst {
            raw,
            ctx,
            points,
            leaf_code,
            point_of,
            representative,
        })
    }

    /// The code-arithmetic context `(c, D)` of the complete tree.
    #[inline]
    pub fn ctx(&self) -> CodeContext {
        self.ctx
    }

    /// Branching factor `c` of the complete tree.
    #[inline]
    pub fn branching(&self) -> u32 {
        self.ctx.branching
    }

    /// Depth `D` (root level).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.ctx.depth
    }

    /// Number of predefined points `N`.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of leaves `c^D` of the complete tree (real + fake).
    #[inline]
    pub fn num_leaves(&self) -> u64 {
        self.ctx.num_leaves()
    }

    /// The predefined point set the tree was built over.
    #[inline]
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// The underlying real (pre-completion) tree.
    #[inline]
    pub fn raw(&self) -> &RawTree {
        &self.raw
    }

    /// Metric scale divisor applied before construction.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.raw.scale
    }

    /// Leaf code of predefined point `p`.
    #[inline]
    pub fn leaf_of(&self, p: PointId) -> LeafCode {
        self.leaf_code[p]
    }

    /// The predefined point occupying leaf `code`, or `None` for fake
    /// leaves. `O(log N)` by binary search.
    #[inline]
    pub fn point_of(&self, code: LeafCode) -> Option<PointId> {
        self.point_of
            .binary_search_by_key(&code, |&(c, _)| c)
            .ok()
            .map(|i| self.point_of[i].1)
    }

    /// Returns `true` iff `code` is a real (non-fake) leaf. `O(log N)`.
    #[inline]
    pub fn is_real(&self, code: LeafCode) -> bool {
        self.point_of(code).is_some()
    }

    /// The real point standing in for a (possibly fake) leaf: the leaf's own
    /// point if real, otherwise the lowest-id point under the leaf's lowest
    /// ancestor that contains real leaves. Every code resolves (the root
    /// covers all points), and the representative's distance to the true
    /// position is bounded by the ancestor cluster's diameter. `O(D)`: the
    /// lookup walks the real tree down the code's digits until a digit
    /// leaves it.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not a leaf of this tree.
    pub fn representative(&self, code: LeafCode) -> PointId {
        assert!(self.ctx.contains(code), "{code} is not a leaf of this tree");
        let nodes = &self.raw.nodes;
        let mut v = 0;
        for level in (0..self.ctx.depth).rev() {
            match nodes[v].children.get(self.ctx.digit(code, level) as usize) {
                Some(&child) => v = child,
                None => break,
            }
        }
        self.representative[v]
    }

    /// Euclidean coordinates of [`Hst::representative`].
    pub fn representative_point(&self, code: LeafCode) -> Point {
        self.points.point(self.representative(code))
    }

    /// Maps an arbitrary Euclidean location to the leaf of its nearest
    /// predefined point (step 2/3 of the paper's workflow). `O(N)`; callers
    /// with grid-shaped point sets should use
    /// [`pombm_geom::Grid::nearest`] + [`Hst::leaf_of`] for O(1).
    pub fn snap(&self, location: &Point) -> LeafCode {
        self.leaf_of(self.points.nearest(location))
    }

    /// Level of the lowest common ancestor of two leaves.
    #[inline]
    pub fn lca_level(&self, a: LeafCode, b: LeafCode) -> u32 {
        self.ctx.lca_level(a, b)
    }

    /// Tree distance between two leaves in original-metric units.
    #[inline]
    pub fn tree_dist(&self, a: LeafCode, b: LeafCode) -> f64 {
        self.ctx.tree_dist_units(a, b) as f64 * self.raw.scale
    }

    /// Tree distance in raw tree units (`2^{l+2} - 4`).
    #[inline]
    pub fn tree_dist_units(&self, a: LeafCode, b: LeafCode) -> u64 {
        self.ctx.tree_dist_units(a, b)
    }

    /// Checks the HST domination property `d(u,v) ≤ d_T(u,v)` for all pairs
    /// of predefined points. `O(N²·D)`; intended for tests.
    pub fn validate_domination(&self) -> Result<(), String> {
        for a in 0..self.points.len() {
            for b in (a + 1)..self.points.len() {
                let d = self.points.dist(a, b);
                let dt = self.tree_dist(self.leaf_of(a), self.leaf_of(b));
                if dt + 1e-9 < d {
                    return Err(format!(
                        "tree distance {dt} below metric distance {d} for points {a},{b}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::{seeded_rng, Grid, Rect};
    use std::collections::BTreeMap;

    fn example1_points() -> PointSet {
        PointSet::new(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 3.0),
            Point::new(5.0, 3.0),
            Point::new(4.0, 4.0),
        ])
    }

    /// The pinned Example 1 tree (β = 1/2, π = <o1, o2, o3, o4>).
    pub(crate) fn example1_hst() -> Hst {
        let draw = FixedDraw {
            beta: 0.5,
            permutation: vec![0, 1, 2, 3],
        };
        Hst::build_fixed(&example1_points(), draw)
    }

    #[test]
    fn example1_complete_tree_shape() {
        let t = example1_hst();
        assert_eq!(t.depth(), 4);
        assert_eq!(t.branching(), 2);
        assert_eq!(t.num_leaves(), 16, "complete binary tree of depth 4");
        assert_eq!(t.num_points(), 4);
    }

    #[test]
    fn example1_tree_distances_match_table1_levels() {
        let t = example1_hst();
        let o1 = t.leaf_of(0);
        let o2 = t.leaf_of(1);
        let o3 = t.leaf_of(2);
        let o4 = t.leaf_of(3);
        // From Table I: o2 is in L_3(o1); o3, o4 are in L_4(o1).
        assert_eq!(t.lca_level(o1, o2), 3);
        assert_eq!(t.lca_level(o1, o3), 4);
        assert_eq!(t.lca_level(o1, o4), 4);
        // o3 and o4 ride together until their level-2 cluster splits into
        // level-1 children, so their LCA is at level 2.
        assert_eq!(t.lca_level(o3, o4), 2);
        // Distances: 2^{l+2} - 4.
        assert_eq!(t.tree_dist_units(o1, o2), 28);
        assert_eq!(t.tree_dist_units(o1, o3), 60);
        assert_eq!(t.tree_dist_units(o3, o4), 12);
    }

    #[test]
    fn real_leaves_roundtrip() {
        let t = example1_hst();
        for p in 0..t.num_points() {
            let code = t.leaf_of(p);
            assert!(t.is_real(code));
            assert_eq!(t.point_of(code), Some(p));
        }
    }

    #[test]
    fn fake_leaves_exist_and_are_not_real() {
        let t = example1_hst();
        let real: Vec<u64> = (0..4).map(|p| t.leaf_of(p).0).collect();
        let fake_count = (0..16).filter(|v| !real.contains(v)).count();
        assert_eq!(fake_count, 12, "12 fake leaves in the complete tree");
        for v in 0..16u64 {
            let code = LeafCode(v);
            assert_eq!(t.is_real(code), real.contains(&v));
        }
    }

    #[test]
    fn snap_maps_to_nearest_point_leaf() {
        let t = example1_hst();
        // A location nearest to o3(5,3).
        assert_eq!(t.snap(&Point::new(5.1, 2.9)), t.leaf_of(2));
        // A location nearest to o1(1,1).
        assert_eq!(t.snap(&Point::new(0.0, 0.0)), t.leaf_of(0));
    }

    #[test]
    fn domination_holds_on_example1() {
        example1_hst().validate_domination().unwrap();
    }

    #[test]
    fn domination_holds_on_random_grids() {
        let grid = Grid::square(Rect::square(100.0), 6);
        let ps = grid.to_point_set();
        for seed in 0..5 {
            let mut rng = seeded_rng(seed, 2);
            let t = Hst::build(&ps, &mut rng);
            t.validate_domination().unwrap();
        }
    }

    #[test]
    fn expected_stretch_is_logarithmic() {
        // E[d_T(u,v)] <= O(log N) d(u,v): check the empirical average stretch
        // over random trees stays well below a generous bound.
        let grid = Grid::square(Rect::square(64.0), 8);
        let ps = grid.to_point_set();
        let n = ps.len();
        let trees: Vec<Hst> = (0..30)
            .map(|seed| {
                let mut rng = seeded_rng(seed, 3);
                Hst::build(&ps, &mut rng)
            })
            .collect();
        let mut worst_avg_stretch = 0.0f64;
        for a in 0..n {
            for b in (a + 1)..n {
                let d = ps.dist(a, b);
                let avg: f64 = trees
                    .iter()
                    .map(|t| t.tree_dist(t.leaf_of(a), t.leaf_of(b)))
                    .sum::<f64>()
                    / trees.len() as f64;
                worst_avg_stretch = worst_avg_stretch.max(avg / d);
            }
        }
        // log2(64) = 6; FRT guarantees O(log N) with a modest constant. A
        // bound of 16·log2(N) is far above anything a correct construction
        // produces but catches gross errors (e.g. wrong edge lengths).
        let bound = 16.0 * (n as f64).log2();
        assert!(
            worst_avg_stretch < bound,
            "avg stretch {worst_avg_stretch} exceeds {bound}"
        );
    }

    #[test]
    fn representative_of_real_leaf_is_itself() {
        let t = example1_hst();
        for p in 0..t.num_points() {
            assert_eq!(t.representative(t.leaf_of(p)), p);
        }
    }

    #[test]
    fn representative_of_fake_leaf_is_a_tree_neighbour() {
        let t = example1_hst();
        for v in 0..t.num_leaves() {
            let code = LeafCode(v);
            let rep = t.representative(code);
            // The representative's leaf shares the lowest occupied ancestor
            // with the query, so no real leaf can be strictly closer on the
            // tree than the representative's ancestor level allows.
            let rep_level = t.lca_level(code, t.leaf_of(rep));
            for p in 0..t.num_points() {
                assert!(
                    t.lca_level(code, t.leaf_of(p)) >= rep_level,
                    "point {p} is closer to {code} than its representative {rep}"
                );
            }
        }
    }

    /// The map lookups [`Hst::try_from_raw`] replaced, kept as the oracle
    /// for `point_of`, `is_real` and `representative`: the same keys and
    /// values as the hash maps it filled, in ordered maps.
    struct MapOracle {
        ctx: CodeContext,
        point_of: BTreeMap<LeafCode, PointId>,
        representative: BTreeMap<(u32, u64), PointId>,
    }

    impl MapOracle {
        fn new(hst: &Hst) -> Self {
            let ctx = hst.ctx();
            let mut point_of = BTreeMap::new();
            let mut representative: BTreeMap<(u32, u64), PointId> = BTreeMap::new();
            for p in 0..hst.num_points() {
                let code = hst.leaf_of(p);
                point_of.insert(code, p);
                for level in 0..=ctx.depth {
                    let key = (level, ctx.ancestor(code, level));
                    representative
                        .entry(key)
                        .and_modify(|cur| *cur = (*cur).min(p))
                        .or_insert(p);
                }
            }
            MapOracle {
                ctx,
                point_of,
                representative,
            }
        }

        fn representative(&self, code: LeafCode) -> PointId {
            (0..=self.ctx.depth)
                .find_map(|level| {
                    let key = (level, self.ctx.ancestor(code, level));
                    self.representative.get(&key).copied()
                })
                .expect("the root always has a representative")
        }
    }

    /// The leaf code of `p` from the digits on its root path, as
    /// [`Hst::try_from_raw`] computed it before the prefix pass.
    fn leaf_code_by_digits(hst: &Hst, p: PointId) -> LeafCode {
        let raw = hst.raw();
        let mut digits = vec![0u32; raw.depth as usize];
        let mut v = raw.leaf_of[p];
        while raw.nodes[v].parent != usize::MAX {
            digits[raw.nodes[v].level as usize] = raw.nodes[v].child_index;
            v = raw.nodes[v].parent;
        }
        digits.reverse();
        hst.ctx().from_digits(&digits)
    }

    #[test]
    fn lookups_match_the_map_oracle_on_every_code() {
        let mut trees = vec![example1_hst()];
        for (region, side) in [(3.0, 3), (4.0, 4), (5.0, 5), (8.0, 8), (0.5, 6), (100.0, 3)] {
            let points = Grid::square(Rect::square(region), side).to_point_set();
            trees.push(Hst::from_quadtree(&points));
            for seed in 0..6 {
                trees.push(Hst::build(&points, &mut seeded_rng(seed, 11)));
            }
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for n in [2, 5, 9, 17, 30] {
            let points = PointSet::new(
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        let x = (state >> 40) as f64 / (1u64 << 24) as f64 * 6.0;
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        let y = (state >> 40) as f64 / (1u64 << 24) as f64 * 6.0;
                        Point::new(x, y)
                    })
                    .collect(),
            );
            if points.pair_stats().all_distinct {
                trees.push(Hst::build(&points, &mut seeded_rng(n as u64, 12)));
            }
        }
        let mut checked = 0;
        for t in trees.iter().filter(|t| t.num_leaves() <= 1 << 16) {
            let oracle = MapOracle::new(t);
            for p in 0..t.num_points() {
                assert_eq!(t.leaf_of(p), leaf_code_by_digits(t, p));
            }
            for v in 0..t.num_leaves() {
                let code = LeafCode(v);
                assert_eq!(
                    t.point_of(code),
                    oracle.point_of.get(&code).copied(),
                    "{code}"
                );
                assert_eq!(
                    t.is_real(code),
                    oracle.point_of.contains_key(&code),
                    "{code}"
                );
                assert_eq!(
                    t.representative(code),
                    oracle.representative(code),
                    "{code}"
                );
            }
            // Codes past the last leaf are no leaf at all.
            assert_eq!(t.point_of(LeafCode(t.num_leaves())), None);
            assert!(!t.is_real(LeafCode(u64::MAX)));
            checked += 1;
        }
        assert!(
            checked >= 30,
            "only {checked} trees have at most 2^16 leaves"
        );
    }

    #[test]
    #[should_panic(expected = "is not a leaf of this tree")]
    fn representative_of_a_code_past_the_last_leaf_panics() {
        let t = example1_hst();
        let _ = t.representative(LeafCode(t.num_leaves()));
    }
}
