//! 2-D points in the Euclidean plane.

use serde::{Deserialize, Serialize};

/// A point in the 2-D Euclidean plane.
///
/// Workers (Definition 1) and tasks (Definition 2) in the paper are tuples of
/// coordinates in Euclidean space; this type represents both.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Cheaper than [`Point::dist`]; prefer it for nearest-neighbour
    /// comparisons where the monotone transform does not matter.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Sum of Euclidean distances of matched pairs; the paper's primary
/// effectiveness metric ("total distance", Definition 8 numerator).
///
/// Folded from `0.0`: `f64`'s `Sum` starts from `-0.0`, so an empty sum
/// would report `-0.0`. A non-empty sum is bit-identical either way.
pub fn total_distance(pairs: &[(Point, Point)]) -> f64 {
    pairs.iter().map(|(a, b)| a.dist(b)).fold(0.0, |s, d| s + d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.dist(&a), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn dist_to_self_is_zero() {
        let p = Point::new(1.5, -2.5);
        assert_eq!(p.dist(&p), 0.0);
    }

    #[test]
    fn conversions_roundtrip() {
        let p: Point = (7.0, 8.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (7.0, 8.0));
    }

    #[test]
    fn total_distance_sums_pairs() {
        let pairs = vec![
            (Point::new(0.0, 0.0), Point::new(3.0, 4.0)),
            (Point::new(1.0, 1.0), Point::new(1.0, 2.0)),
        ];
        assert!((total_distance(&pairs) - 6.0).abs() < 1e-12);
        // An empty sum is +0.0, never the -0.0 `Sum` starts from.
        assert_eq!(total_distance(&[]).to_bits(), 0);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_formats_coordinates() {
        assert_eq!(Point::new(1.0, 2.5).to_string(), "(1, 2.5)");
    }
}
