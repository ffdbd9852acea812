//! Deterministic quadtree construction: the ablation against Alg. 1.
//!
//! A quadtree over the plane *is* a 2-HST: leaves at level 0, each level-`i`
//! cell of side `2^i` nested in a level-`i+1` cell of side `2^{i+1}`. This
//! module builds the same [`RawTree`] structure as the paper's randomized
//! FRT construction ([`crate::construct::build_raw`]) but by deterministic
//! dyadic subdivision, so the two can be compared under identical
//! mechanisms and matchers.
//!
//! Why the paper randomizes instead: a quadtree's cell boundaries are
//! *fixed*, so two points a hair's width apart but straddling a high-level
//! boundary are separated near the root — tree distance `Θ(2^D)` for
//! Euclidean distance `ε`. The FRT construction randomizes the boundaries
//! (via `β` and the permutation) so every pair is *likely* cut low; its
//! `O(log N)` stretch holds only in expectation over trees. The
//! `ablatetree` experiment measures what that randomization buys.
//!
//! Domination still holds deterministically: the metric is pre-scaled so
//! the minimum pairwise distance is at least 2, which (a) makes every
//! level-0 unit cell a singleton (a unit cell's diameter is √2 < 2) and
//! (b) keeps the Euclidean distance of any two points below their tree
//! distance (points sharing a level-`l` cell are at most `√2·2^l` apart,
//! below the `2^{l+2} − 4` tree distance for every `l ≥ 1`).

use crate::construct::{RawNode, RawTree};
use pombm_geom::{PointId, PointSet};

/// Builds a quadtree [`RawTree`] over `points` by dyadic subdivision.
///
/// Deterministic: the same input always produces the same tree. The
/// returned tree's `beta`/`permutation` fields are filled with inert
/// placeholder values (β = 1/2, identity permutation) — they parameterize
/// only the randomized construction.
///
/// # Panics
///
/// Panics if `points` contains duplicates (each point needs its own leaf).
pub fn build_quadtree(points: &PointSet) -> RawTree {
    let n = points.len();
    let stats = points.pair_stats();
    assert!(
        stats.all_distinct,
        "predefined points must be pairwise distinct so each gets its own leaf"
    );

    // Scale so the minimum pairwise distance is >= 2: level-0 unit cells
    // are then singletons (unit-cell diameter √2 < 2).
    let scale = match stats.min_distance {
        Some(d) if d < 2.0 => d / 2.0,
        _ => 1.0,
    };

    // Shift into the positive quadrant and size the root cell.
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points.points() {
        min_x = min_x.min(p.x / scale);
        min_y = min_y.min(p.y / scale);
        max_x = max_x.max(p.x / scale);
        max_y = max_y.max(p.y / scale);
    }
    let extent = (max_x - min_x).max(max_y - min_y).max(1.0);
    // Root cell side 2^D must cover the extent; nudge up so points on the
    // far edge stay strictly inside.
    let depth = (extent * (1.0 + 1e-12)).log2().ceil().max(1.0) as u32;
    let side = (1u64 << depth) as f64;
    debug_assert!(side >= extent);

    let cell_xy = |p: PointId, level: u32| -> (u64, u64) {
        let q = points.point(p);
        let cell = (1u64 << level) as f64;
        let cx = (((q.x / scale - min_x) / cell).floor() as u64).min((side / cell) as u64 - 1);
        let cy = (((q.y / scale - min_y) / cell).floor() as u64).min((side / cell) as u64 - 1);
        (cx, cy)
    };

    let root = RawNode {
        level: depth,
        parent: usize::MAX,
        child_index: 0,
        children: Vec::new(),
        point: None,
    };
    let mut nodes = vec![root];
    let mut leaf_of = vec![usize::MAX; n];
    // Frontier of (node index, member point ids) at the current level.
    let mut frontier: Vec<(usize, Vec<PointId>)> = vec![(0, (0..n).collect())];

    for level in (0..depth).rev() {
        let mut next = Vec::with_capacity(frontier.len());
        for (node_idx, members) in frontier {
            // Group members by their level-`level` cell. Quadrant order
            // (SW, SE, NW, NE by parity) keeps child indices deterministic.
            let mut quadrants: [Vec<PointId>; 4] = Default::default();
            for &p in &members {
                let (cx, cy) = cell_xy(p, level);
                quadrants[((cy & 1) * 2 + (cx & 1)) as usize].push(p);
            }
            for quadrant in quadrants {
                if quadrant.is_empty() {
                    continue;
                }
                let child_index = nodes[node_idx].children.len() as u32;
                let point = if level == 0 {
                    assert_eq!(
                        quadrant.len(),
                        1,
                        "level-0 cell holds {} points; scaling violated",
                        quadrant.len()
                    );
                    Some(quadrant[0])
                } else {
                    None
                };
                let child = RawNode {
                    level,
                    parent: node_idx,
                    child_index,
                    children: Vec::new(),
                    point,
                };
                let idx = nodes.len();
                nodes.push(child);
                nodes[node_idx].children.push(idx);
                if level == 0 {
                    leaf_of[quadrant[0]] = idx;
                } else {
                    next.push((idx, quadrant));
                }
            }
        }
        frontier = next;
    }
    debug_assert!(leaf_of.iter().all(|&l| l != usize::MAX));

    RawTree {
        nodes,
        leaf_of,
        depth,
        beta: 0.5,
        permutation: (0..n).collect(),
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Hst;
    use pombm_geom::{Grid, Point, Rect};

    fn grid_points(side: usize) -> PointSet {
        Grid::square(Rect::square(100.0), side).to_point_set()
    }

    #[test]
    fn structure_is_valid() {
        let ps = grid_points(5);
        let raw = build_quadtree(&ps);
        raw.validate(ps.len()).unwrap();
    }

    #[test]
    fn construction_is_deterministic() {
        let ps = grid_points(6);
        let a = build_quadtree(&ps);
        let b = build_quadtree(&ps);
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.leaf_of, b.leaf_of);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn branching_is_at_most_four() {
        let raw = build_quadtree(&grid_points(7));
        assert!(raw.max_branching() <= 4, "quadtree children exceed 4");
    }

    #[test]
    fn domination_holds_via_hst() {
        let ps = grid_points(6);
        let hst = Hst::from_quadtree(&ps);
        hst.validate_domination().unwrap();
    }

    #[test]
    fn each_point_has_its_own_leaf() {
        let ps = PointSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0), // closer than 1: scaling must separate
            Point::new(10.0, 10.0),
        ]);
        let raw = build_quadtree(&ps);
        raw.validate(3).unwrap();
        let hst = Hst::from_quadtree(&ps);
        let codes: std::collections::HashSet<_> = (0..3).map(|p| hst.leaf_of(p)).collect();
        assert_eq!(codes.len(), 3);
    }

    #[test]
    fn quadtree_stretch_is_finite_but_boundary_pairs_pay() {
        // The deterministic boundary effect: neighbouring grid points that
        // straddle the root split have near-maximal tree distance.
        let ps = grid_points(8);
        let hst = Hst::from_quadtree(&ps);
        let mut max_stretch = 0.0f64;
        for a in 0..ps.len() {
            for b in (a + 1)..ps.len() {
                let stretch = hst.tree_dist(hst.leaf_of(a), hst.leaf_of(b)) / ps.dist(a, b);
                max_stretch = max_stretch.max(stretch);
            }
        }
        // Adjacent points across the mid-line: tree distance Θ(2^D) vs
        // Euclidean ~ grid pitch. The stretch must be large (that is the
        // point of the ablation) but finite.
        assert!(max_stretch.is_finite());
        assert!(
            max_stretch > 8.0,
            "expected a boundary pair with large stretch, got {max_stretch}"
        );
    }

    #[test]
    fn single_point_builds() {
        let ps = PointSet::new(vec![Point::new(3.0, 4.0)]);
        let raw = build_quadtree(&ps);
        raw.validate(1).unwrap();
        assert_eq!(raw.depth, 1);
    }
}
