//! Indexed finite metric spaces.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// Index of a point inside a [`PointSet`].
pub type PointId = usize;

/// A finite set of points treated as a metric space `(V, d)` under the
/// Euclidean metric.
///
/// This is the input to HST construction (Alg. 1 takes "a metric space
/// `(V, d)`"): the server publishes a predefined point set and builds the
/// tree over it. Points are addressed by dense [`PointId`]s so that tree
/// nodes, leaf codes and mechanism tables can use plain arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSet {
    points: Vec<Point>,
}

impl PointSet {
    /// Wraps a vector of points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains a non-finite coordinate.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(!points.is_empty(), "point set must be non-empty");
        assert!(
            points.iter().all(Point::is_finite),
            "point set must contain only finite coordinates"
        );
        PointSet { points }
    }

    /// Number of points (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty. Always `false` for constructed sets, but
    /// kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point with the given id.
    #[inline]
    pub fn point(&self, id: PointId) -> Point {
        self.points[id]
    }

    /// All points in id order.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Euclidean distance between two points in the set.
    #[inline]
    pub fn dist(&self, a: PointId, b: PointId) -> f64 {
        self.points[a].dist(&self.points[b])
    }

    /// Distinctness, smallest nonzero distance and diameter of the set, in
    /// one brute-force `O(N²)` pass. Used once at HST construction to check,
    /// scale and size the tree.
    ///
    /// The pass compares squared distances and takes one square root per
    /// extreme at the end. `sqrt` is correctly rounded and monotone, so
    /// both extremes are bit-identical to the extremes of
    /// [`PointSet::dist`] over all pairs.
    pub fn pair_stats(&self) -> PairStats {
        let mut all_distinct = true;
        let mut min_sq = f64::INFINITY;
        let mut max_sq = 0.0f64;
        for (i, p) in self.points.iter().enumerate() {
            for q in &self.points[i + 1..] {
                // A squared distance is never NaN, so plain comparisons
                // agree with `f64::min`/`max` without their NaN handling.
                let d = p.dist_sq(q);
                if d > 0.0 {
                    if d < min_sq {
                        min_sq = d;
                    }
                } else if p == q {
                    // Equal points have a zero distance; a zero distance
                    // alone may be an underflow between distinct points.
                    all_distinct = false;
                }
                if d > max_sq {
                    max_sq = d;
                }
            }
        }
        let min = min_sq.sqrt();
        PairStats {
            all_distinct,
            min_distance: (min != f64::INFINITY).then_some(min),
            diameter: max_sq.sqrt(),
        }
    }

    /// Id of the point nearest to `p` by linear scan, with ties broken by the
    /// lower id. `O(N)`; [`crate::grid::Grid`] provides an O(1) alternative
    /// for grid-shaped sets.
    pub fn nearest(&self, p: &Point) -> PointId {
        let mut best = 0;
        let mut best_d = self.points[0].dist_sq(p);
        for (i, q) in self.points.iter().enumerate().skip(1) {
            let d = q.dist_sq(p);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }
}

/// Pairwise summary of a [`PointSet`]; see [`PointSet::pair_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStats {
    /// Whether all points are pairwise distinct.
    pub all_distinct: bool,
    /// Smallest nonzero pairwise distance; `None` if the set has fewer than
    /// two distinct points. HST construction scales the metric by this
    /// value so the level-0 radius separates points into singleton
    /// clusters.
    pub min_distance: Option<f64>,
    /// Largest pairwise distance (the metric diameter); it sizes the tree.
    pub diameter: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_set() -> PointSet {
        // The running example of the paper (Example 1):
        // o1(1,1), o2(2,3), o3(5,3), o4(4,4).
        PointSet::new(vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 3.0),
            Point::new(5.0, 3.0),
            Point::new(4.0, 4.0),
        ])
    }

    #[test]
    fn diameter_matches_example1() {
        // The paper computes D = ceil(log2(2 * d(o1, o3))) = 4, i.e. the
        // diameter is d(o1, o3) = sqrt(16 + 4) = sqrt(20).
        let s = example_set();
        assert!((s.pair_stats().diameter - 20f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_distance_is_smallest_nonzero() {
        let s = example_set();
        // Closest pair is o3(5,3)-o4(4,4): sqrt(2).
        assert!((s.pair_stats().min_distance.unwrap() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_distance_none_for_singleton() {
        let s = PointSet::new(vec![Point::new(0.0, 0.0)]);
        let stats = s.pair_stats();
        assert_eq!(stats.min_distance, None);
        assert_eq!(stats.diameter, 0.0);
        assert!(stats.all_distinct);
    }

    #[test]
    fn min_distance_skips_duplicates() {
        let s = PointSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
        ]);
        let stats = s.pair_stats();
        assert_eq!(stats.min_distance, Some(3.0));
        assert!(!stats.all_distinct);
    }

    #[test]
    fn pair_stats_match_per_pair_distances_bit_for_bit() {
        // Brute force over `dist`, as separate passes compute it.
        fn reference(s: &PointSet) -> PairStats {
            let (mut distinct, mut min, mut max) = (true, f64::INFINITY, 0.0f64);
            for i in 0..s.len() {
                for j in (i + 1)..s.len() {
                    distinct &= s.point(i) != s.point(j);
                    let d = s.dist(i, j);
                    if d > 0.0 {
                        min = min.min(d);
                    }
                    max = max.max(d);
                }
            }
            PairStats {
                all_distinct: distinct,
                min_distance: (min != f64::INFINITY).then_some(min),
                diameter: max,
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut coord = |spread: f64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 * spread
        };
        let mut sets = vec![
            example_set(),
            // Distinct points whose squared distance underflows to zero.
            PointSet::new(vec![Point::new(0.0, 0.0), Point::new(1e-200, 0.0)]),
            PointSet::new(vec![Point::new(-0.0, 0.0), Point::new(0.0, 0.0)]),
        ];
        for spread in [1e-6, 0.3, 1.0, 7.0, 1e9] {
            for n in [2, 3, 17, 64] {
                sets.push(PointSet::new(
                    (0..n)
                        .map(|_| Point::new(coord(spread), coord(spread)))
                        .collect(),
                ));
            }
        }
        for s in &sets {
            let (got, want) = (s.pair_stats(), reference(s));
            assert_eq!(got.all_distinct, want.all_distinct);
            assert_eq!(
                got.min_distance.map(f64::to_bits),
                want.min_distance.map(f64::to_bits)
            );
            assert_eq!(got.diameter.to_bits(), want.diameter.to_bits());
        }
    }

    #[test]
    fn nearest_breaks_ties_by_lower_id() {
        let s = PointSet::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)]);
        // (1, 0) is equidistant; the lower id wins.
        assert_eq!(s.nearest(&Point::new(1.0, 0.0)), 0);
        assert_eq!(s.nearest(&Point::new(1.5, 0.0)), 1);
    }

    #[test]
    fn dist_is_symmetric() {
        let s = example_set();
        for i in 0..s.len() {
            for j in 0..s.len() {
                assert_eq!(s.dist(i, j), s.dist(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_set_panics() {
        let _ = PointSet::new(vec![]);
    }
}
