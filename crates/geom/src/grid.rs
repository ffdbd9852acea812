//! Uniform grids of predefined points.

use crate::point::Point;
use crate::pointset::{PointId, PointSet};
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// A uniform `cols × rows` grid of predefined points covering a region.
///
/// The paper's server "constructs an HST upon a predefined set of points and
/// publishes the tree as well as the set of points" (Sec. III-A). The paper
/// does not fix how the predefined set is chosen; a uniform grid is the
/// natural instantiation — it covers the workspace evenly, its minimum
/// pairwise distance equals the cell pitch (good for HST level-0 separation)
/// and nearest-point lookup is O(1) arithmetic instead of an O(N) scan.
///
/// Grid points are placed at cell centers so the worst-case snapping error is
/// half a cell diagonal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grid {
    region: Rect,
    cols: usize,
    rows: usize,
    pitch_x: f64,
    pitch_y: f64,
}

impl Grid {
    /// Creates a `cols × rows` grid over `region`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the region is degenerate in a
    /// dimension with more than one cell.
    pub fn new(region: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        assert!(
            Grid::fits(region, cols, rows),
            "degenerate region for multi-cell grid"
        );
        Grid {
            region,
            cols,
            rows,
            pitch_x: region.width() / cols as f64,
            pitch_y: region.height() / rows as f64,
        }
    }

    /// Whether [`Grid::new`] accepts these arguments: at least one cell, and
    /// a positive width (height) unless the grid has a single column (row).
    pub fn fits(region: Rect, cols: usize, rows: usize) -> bool {
        cols > 0
            && rows > 0
            && (region.width() > 0.0 || cols == 1)
            && (region.height() > 0.0 || rows == 1)
    }

    /// Square grid with `side × side` cells, the configuration used in all
    /// experiments.
    pub fn square(region: Rect, side: usize) -> Self {
        Grid::new(region, side, side)
    }

    /// Number of predefined points (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Whether the grid has no points; always `false` by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The covered region.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Distance between horizontally adjacent grid points.
    #[inline]
    pub fn pitch_x(&self) -> f64 {
        self.pitch_x
    }

    /// Distance between vertically adjacent grid points.
    #[inline]
    pub fn pitch_y(&self) -> f64 {
        self.pitch_y
    }

    /// Coordinates of grid point `id` (row-major order).
    #[inline]
    pub fn point(&self, id: PointId) -> Point {
        debug_assert!(id < self.len());
        let col = id % self.cols;
        let row = id / self.cols;
        Point::new(
            self.region.min_x + (col as f64 + 0.5) * self.pitch_x,
            self.region.min_y + (row as f64 + 0.5) * self.pitch_y,
        )
    }

    /// Id of the grid point nearest to `p`, clamping points outside the
    /// region onto the boundary cells. O(1).
    #[inline]
    pub fn nearest(&self, p: &Point) -> PointId {
        let col = if self.pitch_x > 0.0 {
            (((p.x - self.region.min_x) / self.pitch_x).floor() as isize)
                .clamp(0, self.cols as isize - 1) as usize
        } else {
            0
        };
        let row = if self.pitch_y > 0.0 {
            (((p.y - self.region.min_y) / self.pitch_y).floor() as isize)
                .clamp(0, self.rows as isize - 1) as usize
        } else {
            0
        };
        row * self.cols + col
    }

    /// Materializes the grid as a [`PointSet`] (row-major id order matches
    /// [`Grid::point`] / [`Grid::nearest`]).
    pub fn to_point_set(&self) -> PointSet {
        PointSet::new((0..self.len()).map(|i| self.point(i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_are_cell_centers() {
        let g = Grid::square(Rect::square(4.0), 2);
        assert_eq!(g.len(), 4);
        assert_eq!(g.point(0), Point::new(1.0, 1.0));
        assert_eq!(g.point(1), Point::new(3.0, 1.0));
        assert_eq!(g.point(2), Point::new(1.0, 3.0));
        assert_eq!(g.point(3), Point::new(3.0, 3.0));
    }

    #[test]
    fn nearest_is_consistent_with_linear_scan() {
        let g = Grid::square(Rect::square(200.0), 8);
        let ps = g.to_point_set();
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(199.9, 199.9),
            Point::new(100.0, 50.0),
            Point::new(13.7, 180.2),
            Point::new(25.0, 25.0), // cell center itself
        ];
        for p in probes {
            let by_grid = g.point(g.nearest(&p));
            let by_scan = ps.point(ps.nearest(&p));
            // Ties at cell boundaries may resolve differently; compare
            // distances rather than ids.
            assert!(
                (by_grid.dist(&p) - by_scan.dist(&p)).abs() < 1e-9,
                "grid nearest {by_grid} vs scan nearest {by_scan} for {p}"
            );
        }
    }

    #[test]
    fn nearest_clamps_outside_points() {
        let g = Grid::square(Rect::square(10.0), 5);
        assert_eq!(g.nearest(&Point::new(-100.0, -100.0)), 0);
        assert_eq!(g.nearest(&Point::new(100.0, 100.0)), g.len() - 1);
    }

    #[test]
    fn min_distance_equals_pitch() {
        let g = Grid::square(Rect::square(200.0), 16);
        let ps = g.to_point_set();
        let pitch = 200.0 / 16.0;
        assert!((ps.pair_stats().min_distance.unwrap() - pitch).abs() < 1e-9);
    }

    #[test]
    fn rectangular_grid_ids_are_row_major() {
        let g = Grid::new(Rect::new(0.0, 0.0, 6.0, 2.0), 3, 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g.point(2), Point::new(5.0, 1.0));
        assert_eq!(g.nearest(&Point::new(5.2, 0.4)), 2);
    }

    #[test]
    fn fits_is_the_constructor_precondition() {
        let flat = Rect::new(0.0, 5.0, 10.0, 5.0);
        assert!(Grid::fits(flat, 1, 1) && Grid::fits(flat, 4, 1));
        assert_eq!(Grid::new(flat, 4, 1).len(), 4);
        assert!(!Grid::fits(flat, 4, 4) && !Grid::fits(flat, 1, 2));
        assert!(!Grid::fits(Rect::square(1.0), 0, 3));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_dimension_panics() {
        let _ = Grid::new(Rect::square(1.0), 0, 3);
    }
}
