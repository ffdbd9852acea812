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

    /// Distinctness, smallest nonzero distance and diameter of the set.
    /// Used once at HST construction to check, scale and size the tree.
    ///
    /// A lattice that [`PointSet::lattice_cols`] accepts takes `O(N)`;
    /// every other set takes one brute-force `O(N²)` pass.
    ///
    /// Both compare squared distances and take one square root per
    /// extreme at the end. `sqrt` is correctly rounded and monotone, so
    /// both extremes are bit-identical to the extremes of
    /// [`PointSet::dist`] over all pairs.
    pub fn pair_stats(&self) -> PairStats {
        match self.lattice_cols() {
            Some(cols) => self.lattice_pair_stats(cols),
            None => self.brute_force_pair_stats(),
        }
    }

    /// The column count of the set read as a row-major lattice whose
    /// distances the HST can resolve, or `None` if it is not one.
    ///
    /// Such a lattice has x depending only on the column and y only on
    /// the row, both strictly increasing. Every two axis-adjacent points
    /// are a normal `f64` squared distance apart, so no pair underflows,
    /// and the corner pair a finite one, so no pair overflows. Every
    /// [`crate::Grid::to_point_set`] whose points meet those two bounds is
    /// one; a grid whose points round onto each other is not.
    pub fn lattice_cols(&self) -> Option<usize> {
        let p = &self.points;
        // The first row ends where x stops increasing.
        let cols = (1..p.len())
            .find(|&k| p[k].x <= p[k - 1].x)
            .unwrap_or(p.len());
        if !p.len().is_multiple_of(cols) {
            return None;
        }
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let on_lattice = p
            .iter()
            .enumerate()
            .all(|(k, q)| same(q.x, p[k % cols].x) && same(q.y, p[k - k % cols].y));
        // Adjacent points along the first row differ in x only, and along
        // the first column in y only.
        let normal = |a: &Point, b: &Point| a.dist_sq(b).is_normal();
        let resolved = p[..cols].windows(2).all(|w| normal(&w[0], &w[1]))
            && first_column_steps(p, cols).all(|(a, b)| a.y < b.y && normal(a, b))
            && p[0].dist_sq(&p[p.len() - 1]).is_finite();
        (on_lattice && resolved).then_some(cols)
    }

    /// [`PointSet::pair_stats`] of a row-major lattice with `cols` columns,
    /// from its `cols + rows − 2` adjacent pairs and one corner pair.
    ///
    /// IEEE subtraction, squaring and the addition of non-negative terms
    /// are monotone, and `fl(a − b) = −fl(b − a)`. So a pair in different
    /// columns is at least as far apart in x as some two adjacent columns,
    /// and two points of one row are exactly their x term apart: the
    /// minimum over all pairs is the minimum over axis-adjacent pairs, all
    /// of which are positive. No pair is farther apart in x or in y than
    /// the corner pair, whose distance is therefore the diameter.
    fn lattice_pair_stats(&self, cols: usize) -> PairStats {
        let p = &self.points;
        let min_sq = p[..cols]
            .windows(2)
            .map(|w| (&w[0], &w[1]))
            .chain(first_column_steps(p, cols))
            .map(|(a, b)| a.dist_sq(b))
            .fold(f64::INFINITY, f64::min);
        let min = min_sq.sqrt();
        PairStats {
            all_distinct: true,
            min_distance: (min != f64::INFINITY).then_some(min),
            diameter: p[0].dist_sq(&p[p.len() - 1]).sqrt(),
        }
    }

    /// [`PointSet::pair_stats`] by one pass over all `N·(N−1)/2` pairs, for
    /// sets that are not lattices.
    fn brute_force_pair_stats(&self) -> PairStats {
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

/// The vertically adjacent pairs of the first column of a row-major
/// lattice with `cols` columns, top to bottom.
fn first_column_steps(p: &[Point], cols: usize) -> impl Iterator<Item = (&Point, &Point)> {
    p.iter().step_by(cols).zip(p[cols..].iter().step_by(cols))
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
    use crate::{Grid, Rect};

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

    /// The row-major lattice `xs × ys`, one row per y.
    fn lattice(xs: &[f64], ys: &[f64]) -> PointSet {
        PointSet::new(
            ys.iter()
                .flat_map(|&y| xs.iter().map(move |&x| Point::new(x, y)))
                .collect(),
        )
    }

    fn grid(min: (f64, f64), max: (f64, f64), cols: usize, rows: usize) -> PointSet {
        Grid::new(Rect::new(min.0, min.1, max.0, max.1), cols, rows).to_point_set()
    }

    fn assert_same_stats(got: PairStats, want: PairStats, what: &str) {
        assert_eq!(got.all_distinct, want.all_distinct, "{what}");
        assert_eq!(
            got.min_distance.map(f64::to_bits),
            want.min_distance.map(f64::to_bits),
            "{what}"
        );
        assert_eq!(got.diameter.to_bits(), want.diameter.to_bits(), "{what}");
    }

    #[test]
    fn lattice_pair_stats_match_the_brute_force_pass_bit_for_bit() {
        let lattices = [
            ("square", grid((0.0, 0.0), (200.0, 200.0), 32, 32)),
            ("wide 300 x 40", grid((0.0, 0.0), (300.0, 40.0), 40, 24)),
            (
                "far offset",
                grid((1e15, -3e15), (1e15 + 300.0, -3e15 + 40.0), 24, 16),
            ),
            (
                "negative far offset",
                grid((-7e9, -7e9), (-7e9 + 5.0, -7e9 + 5.0), 20, 20),
            ),
            ("sub-unit pitch", grid((0.0, 0.0), (1.0, 1.0), 30, 30)),
            ("one row", grid((0.0, 0.0), (200.0, 0.0), 17, 1)),
            ("one column", grid((3.0, 0.0), (3.0, 200.0), 1, 17)),
            ("one point", grid((0.0, 0.0), (200.0, 200.0), 1, 1)),
            ("-0.0 first", lattice(&[-0.0, 1.0, 2.5], &[-0.0, 0.5, 4.0])),
            ("-0.0 last", lattice(&[-2.0, -0.0], &[-1.0, -0.0])),
            (
                "uneven pitch",
                lattice(&[0.0, 0.1, 5.0, 5.3], &[1.0, 1.0 + 1e-9, 9.0]),
            ),
            (
                "normal squares",
                lattice(&[0.0, 1.5e-154], &[0.0, 1.5e-154]),
            ),
        ];
        for (what, s) in &lattices {
            assert!(s.lattice_cols().is_some(), "{what} takes the lattice path");
            assert_same_stats(s.pair_stats(), s.brute_force_pair_stats(), what);
        }
    }

    #[test]
    fn sets_that_are_not_resolvable_lattices_take_the_brute_force_pass() {
        let mut shuffled = grid((0.0, 0.0), (200.0, 200.0), 5, 5).points().to_vec();
        shuffled.swap(3, 17);
        let mut ragged = grid((0.0, 0.0), (200.0, 200.0), 4, 3).points().to_vec();
        ragged.pop();
        let mut bent = grid((0.0, 0.0), (200.0, 200.0), 4, 3).points().to_vec();
        bent[6].y += 1.0;
        let not_lattices = [
            // Adjacent squares below the normal range, then zero.
            (
                "subnormal squares",
                grid((0.0, 0.0), (1e-155, 1e-155), 8, 8),
            ),
            ("subnormal rows", lattice(&[0.0, 1.0], &[0.0, 1e-160])),
            (
                "underflowing squares",
                grid((0.0, 0.0), (1e-160, 1e-160), 4, 4),
            ),
            ("overflowing square", lattice(&[-1e308, 1e308], &[0.0])),
            (
                "overflowing diagonal",
                lattice(&[0.0, 1e154], &[0.0, 1e154]),
            ),
            // Grid points that round onto each other.
            (
                "collapsed",
                grid((1e15, 1e15), (1e15 + 1.0, 1e15 + 1.0), 16, 16),
            ),
            ("decreasing rows", lattice(&[0.0, 1.0], &[2.0, 1.0])),
            ("shuffled", PointSet::new(shuffled)),
            ("ragged", PointSet::new(ragged)),
            ("bent", PointSet::new(bent)),
            ("-0.0 and 0.0 in one column", {
                PointSet::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(1.0, 0.0),
                    Point::new(-0.0, 1.0),
                    Point::new(1.0, 1.0),
                ])
            }),
        ];
        for (what, s) in &not_lattices {
            assert_eq!(s.lattice_cols(), None, "{what} is not a lattice");
            assert_same_stats(s.pair_stats(), s.brute_force_pair_stats(), what);
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
