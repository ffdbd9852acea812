//! The complete c-ary HST with virtual fake nodes.

use crate::code::{CodeContext, CodeOverflow, LeafCode};
use crate::construct::{build_raw, build_raw_fixed, FixedDraw, RawTree};
use pombm_geom::{Point, PointId, PointSet};
use rand::Rng;
#[expect(
    clippy::disallowed_types,
    reason = "imported for the lookup-only code and representative maps"
)]
use std::collections::HashMap;

/// Construction parameters for [`Hst::build_with`].
#[derive(Debug, Clone, Default)]
pub struct HstParams {
    /// Pin the radius factor β and the permutation π (used by tests and the
    /// paper's worked example). `None` draws them from the RNG.
    pub fixed: Option<FixedDraw>,
    /// Force a branching factor for the completion step. Must be at least
    /// the real tree's maximum branching. `None` uses
    /// `max(2, max_branching)`, the paper's "maximum number of branches".
    pub branching: Option<u32>,
}

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
    /// Inverse mapping for real leaves.
    #[expect(
        clippy::disallowed_types,
        reason = "code-to-point lookups only; never iterated"
    )]
    point_of: HashMap<LeafCode, PointId>,
    /// Representative real point per occupied virtual node, keyed by
    /// `(level, prefix)`: the lowest-id point whose leaf lies beneath.
    #[expect(
        clippy::disallowed_types,
        reason = "per-node lookups only; never iterated"
    )]
    representative: HashMap<(u32, u64), PointId>,
}

impl Hst {
    /// Builds an HST over `points` with randomness from `rng` (Alg. 1 plus
    /// virtual completion).
    pub fn build<R: Rng + ?Sized>(points: &PointSet, rng: &mut R) -> Self {
        let raw = build_raw(points, rng);
        Self::from_raw(raw, points.clone(), None)
    }

    /// Builds a *deterministic* quadtree HST over `points` (the ablation
    /// construction; see [`crate::quadtree`]).
    pub fn from_quadtree(points: &PointSet) -> Self {
        let raw = crate::quadtree::build_quadtree(points);
        Self::from_raw(raw, points.clone(), None)
    }

    /// Quadtree construction with explicit completion parameters.
    /// `params.fixed` is ignored — the quadtree has no randomness to pin.
    pub fn from_quadtree_with(points: &PointSet, params: HstParams) -> Self {
        let raw = crate::quadtree::build_quadtree(points);
        Self::from_raw(raw, points.clone(), params.branching)
    }

    /// Builds an HST with explicit parameters; see [`HstParams`].
    pub fn build_with<R: Rng + ?Sized>(points: &PointSet, params: HstParams, rng: &mut R) -> Self {
        let raw = match params.fixed {
            Some(draw) => build_raw_fixed(points, draw),
            None => build_raw(points, rng),
        };
        Self::from_raw(raw, points.clone(), params.branching)
    }

    pub(crate) fn from_raw(raw: RawTree, points: PointSet, branching: Option<u32>) -> Self {
        Self::try_from_raw(raw, points, branching).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Completes a raw tree over `points` into the complete `c`-ary HST
    /// (the step every constructor above ends with), returning the
    /// overflow when its `c^D` leaf codes do not fit in a `u64` instead
    /// of panicking. `branching` is [`HstParams::branching`].
    ///
    /// # Panics
    ///
    /// Panics if `branching` is below the tree's natural branching.
    pub fn try_from_raw(
        raw: RawTree,
        points: PointSet,
        branching: Option<u32>,
    ) -> Result<Self, CodeOverflow> {
        let natural = raw.max_branching().max(2);
        let c = match branching {
            Some(c) => {
                assert!(
                    c >= natural,
                    "requested branching {c} below the tree's natural branching {natural}"
                );
                c
            }
            None => natural,
        };
        let ctx = CodeContext::try_new(c, raw.depth)?;

        // A real leaf's code concatenates the child indices on the
        // root-to-leaf path, most significant digit first.
        let mut leaf_code = vec![LeafCode(0); points.len()];
        #[expect(
            clippy::disallowed_types,
            reason = "the `point_of` field's map: lookups only"
        )]
        let mut point_of = HashMap::with_capacity(points.len());
        for (p, code) in leaf_code.iter_mut().enumerate() {
            let mut digits = vec![0u32; raw.depth as usize];
            let mut v = raw.leaf_of[p];
            while raw.nodes[v].parent != usize::MAX {
                let node = &raw.nodes[v];
                digits[node.level as usize] = node.child_index;
                v = node.parent;
            }
            // digits[j] is the branch from level j+1 down to level j, which
            // is exactly the base-c digit at position j.
            let mut value = 0u64;
            for j in (0..raw.depth).rev() {
                value = value * c as u64 + digits[j as usize] as u64;
            }
            *code = LeafCode(value);
            let prev = point_of.insert(LeafCode(value), p);
            assert!(prev.is_none(), "two points share a leaf code");
        }

        // Representatives: for every ancestor prefix of every real leaf,
        // remember the lowest-id resident point. Fake leaves inherit the
        // representative of their lowest ancestor that contains real leaves.
        #[expect(
            clippy::disallowed_types,
            reason = "the `representative` field's map: lookups only"
        )]
        let mut representative: HashMap<(u32, u64), PointId> = HashMap::new();
        for (p, &code) in leaf_code.iter().enumerate() {
            for level in 0..=ctx.depth {
                let key = (level, ctx.ancestor(code, level));
                representative
                    .entry(key)
                    .and_modify(|cur| *cur = (*cur).min(p))
                    .or_insert(p);
            }
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

    /// The predefined point occupying leaf `code`, or `None` for fake leaves.
    #[inline]
    pub fn point_of(&self, code: LeafCode) -> Option<PointId> {
        self.point_of.get(&code).copied()
    }

    /// Returns `true` iff `code` is a real (non-fake) leaf.
    #[inline]
    pub fn is_real(&self, code: LeafCode) -> bool {
        self.point_of.contains_key(&code)
    }

    /// The real point standing in for a (possibly fake) leaf: the leaf's own
    /// point if real, otherwise the lowest-id point under the leaf's lowest
    /// ancestor that contains real leaves. Every code resolves (the root
    /// covers all points), and the representative's distance to the true
    /// position is bounded by the ancestor cluster's diameter.
    pub fn representative(&self, code: LeafCode) -> PointId {
        for level in 0..=self.ctx.depth {
            let key = (level, self.ctx.ancestor(code, level));
            if let Some(&p) = self.representative.get(&key) {
                return p;
            }
        }
        unreachable!("the root always has a representative")
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
        let mut rng = seeded_rng(0, 0);
        Hst::build_with(
            &example1_points(),
            HstParams {
                fixed: Some(FixedDraw {
                    beta: 0.5,
                    permutation: vec![0, 1, 2, 3],
                }),
                branching: None,
            },
            &mut rng,
        )
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

    #[test]
    fn forced_branching_widens_tree() {
        let mut rng = seeded_rng(1, 0);
        let t = Hst::build_with(
            &example1_points(),
            HstParams {
                fixed: Some(FixedDraw {
                    beta: 0.5,
                    permutation: vec![0, 1, 2, 3],
                }),
                branching: Some(4),
            },
            &mut rng,
        );
        assert_eq!(t.branching(), 4);
        assert_eq!(t.num_leaves(), 256);
        // Real-leaf relationships are unchanged by completion width.
        assert_eq!(t.lca_level(t.leaf_of(0), t.leaf_of(1)), 3);
    }

    #[test]
    #[should_panic(expected = "below the tree's natural branching")]
    fn too_small_forced_branching_panics() {
        let mut rng = seeded_rng(1, 0);
        let grid = Grid::square(Rect::square(100.0), 5);
        // A 25-point grid will have some node with more than 2 children for
        // most draws; to make the panic deterministic, force branching 2
        // while requiring at least one wider split.
        for seed in 0..50 {
            let mut r = seeded_rng(seed, 9);
            let raw = crate::construct::build_raw(&grid.to_point_set(), &mut r);
            if raw.max_branching() > 2 {
                let _ = Hst::build_with(
                    &grid.to_point_set(),
                    HstParams {
                        fixed: Some(FixedDraw {
                            beta: raw.beta,
                            permutation: raw.permutation.clone(),
                        }),
                        branching: Some(2),
                    },
                    &mut rng,
                );
                return; // the call above must panic
            }
        }
        panic!("below the tree's natural branching (no wide tree found, vacuous)");
    }
}
