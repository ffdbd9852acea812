//! The untrusted crowdsourcing server's published artifacts.

use crate::algorithm::PipelineError;
use pombm_geom::{seeded_rng, Grid, Point, Rect};
use pombm_hst::construct::build_raw;
use pombm_hst::quadtree::build_quadtree;
use pombm_hst::{CodeOverflow, Hst, LeafCode};

/// The most predefined points a server is built on: `N = side² ≤ 2¹⁶`
/// (side 256). The FRT build grows faster than linearly in `N` — on a
/// 2-core Xeon VM side 256 builds in 12–14 s and side 512 did not finish
/// in 4 minutes — and side 100 000 would ask the allocator for about
/// 160 GB.
/// Every side the experiments use (at most 64) is far below the cap.
pub const MAX_GRID_POINTS: usize = 1 << 16;

/// Rejects a grid side no server can be built on: the predefined grid
/// needs at least one cell and at most [`MAX_GRID_POINTS`]. Every entry
/// point that builds a [`Server`] calls this first, so a zero or oversized
/// `grid_side` is a typed [`PipelineError::InvalidConfig`], not a panic
/// inside [`Server::new`] or an allocator abort.
pub fn check_grid_side(grid_side: usize) -> Result<(), PipelineError> {
    if grid_side == 0 {
        return Err(PipelineError::InvalidConfig {
            field: "grid_side",
            why: "the predefined grid needs at least one cell",
        });
    }
    if grid_side
        .checked_mul(grid_side)
        .is_none_or(|n| n > MAX_GRID_POINTS)
    {
        return Err(PipelineError::InvalidConfig {
            field: "grid_side",
            why: "the predefined grid holds at most 65536 points (side 256)",
        });
    }
    Ok(())
}

/// Rejects an instance region the `grid_side × grid_side` grid cannot
/// cover, by [`Grid::new`]'s own condition: a region of zero width or
/// height fits only a one-cell grid. Drivers call it before building a
/// [`Server`] over a caller's instance, so such a region is a typed
/// [`PipelineError::InvalidConfig`], not a panic inside [`Grid::new`].
pub fn check_region(region: Rect, grid_side: usize) -> Result<(), PipelineError> {
    if Grid::fits(region, grid_side, grid_side) {
        return Ok(());
    }
    Err(PipelineError::InvalidConfig {
        field: "region",
        why: "a region of zero width or height fits only a one-cell grid (grid side 1)",
    })
}

/// Rejects a privacy budget that is not a positive, finite number, naming
/// the config `field` it came from (`epsilon`, `epsilons`, `epoch_epsilon`,
/// `lifetime_epsilon`). Drivers call it before building a server, so a bad
/// budget is a typed error instead of the panic in
/// [`pombm_privacy::Epsilon::new`].
pub fn check_epsilon(field: &'static str, epsilon: f64) -> Result<(), PipelineError> {
    if epsilon.is_finite() && epsilon > 0.0 {
        return Ok(());
    }
    Err(PipelineError::InvalidConfig {
        field,
        why: "the privacy budget must be a positive, finite number",
    })
}

/// Step 1 of the paper's workflow: the server constructs an HST upon a
/// predefined set of points and publishes both.
///
/// The predefined set is a uniform grid over the workspace (the paper leaves
/// the choice open; a grid gives even coverage and O(1) location-to-point
/// snapping — see `pombm_geom::Grid`). Workers and tasks use
/// [`Server::snap`] to map a true location to its HST leaf, then obfuscate
/// that leaf with their mechanism of choice before reporting.
#[derive(Debug, Clone)]
pub struct Server {
    region: Rect,
    grid: Grid,
    hst: Hst,
}

/// Which HST construction the server publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeConstruction {
    /// The paper's randomized FRT construction (Alg. 1).
    #[default]
    Frt,
    /// Deterministic dyadic quadtree (the `ablatetree` ablation); ignores
    /// the seed.
    Quadtree,
}

impl Server {
    /// Builds the server's artifacts: a `grid_side × grid_side` grid of
    /// predefined points over `region` and a random HST over it, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `grid_side` is 0, or above 1 and `region` has zero width
    /// or height; entry points reject those first with [`check_grid_side`]
    /// and [`check_region`]. Also panics where [`Server::try_new`] returns
    /// an error.
    pub fn new(region: Rect, grid_side: usize, seed: u64) -> Self {
        Self::with_construction(region, grid_side, seed, TreeConstruction::Frt)
    }

    /// [`Server::new`], returning [`PipelineError::InvalidConfig`] on
    /// `grid_side` when the tree's `c^D` leaf codes overflow `u64`. The
    /// FRT depth grows with the region's diameter once the grid pitch
    /// reaches 1, so a large region needs a coarser grid: at side 64 a
    /// 10000 × 10000 region overflows. Every driver builds its server
    /// through this.
    pub fn try_new(region: Rect, grid_side: usize, seed: u64) -> Result<Self, PipelineError> {
        Self::build(region, grid_side, seed, TreeConstruction::Frt).map_err(|_| {
            PipelineError::InvalidConfig {
                field: "grid_side",
                why: "the HST over this grid and region needs more than 2^64 leaf codes; \
                      use a smaller grid side",
            }
        })
    }

    /// Builds the server with an explicit HST construction.
    pub fn with_construction(
        region: Rect,
        grid_side: usize,
        seed: u64,
        construction: TreeConstruction,
    ) -> Self {
        Self::build(region, grid_side, seed, construction).unwrap_or_else(|e| panic!("{e}"))
    }

    fn build(
        region: Rect,
        grid_side: usize,
        seed: u64,
        construction: TreeConstruction,
    ) -> Result<Self, CodeOverflow> {
        let grid = Grid::square(region, grid_side);
        let points = grid.to_point_set();
        let raw = match construction {
            TreeConstruction::Frt => build_raw(&points, &mut seeded_rng(seed, 0x45F7)),
            TreeConstruction::Quadtree => build_quadtree(&points),
        };
        let hst = Hst::try_from_raw(raw, points, None)?;
        Ok(Server { region, grid, hst })
    }

    /// The workspace region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// The predefined point grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The published HST.
    pub fn hst(&self) -> &Hst {
        &self.hst
    }

    /// Number of predefined points `N` (the paper's competitive ratio is
    /// `O(ε⁻⁴ log N log² k)`).
    pub fn num_predefined(&self) -> usize {
        self.grid.len()
    }

    /// Maps a location to the HST leaf of its nearest predefined point.
    /// O(1) via grid arithmetic.
    pub fn snap(&self, location: &Point) -> LeafCode {
        self.hst.leaf_of(self.grid.nearest(location))
    }

    /// The Euclidean coordinates of a *real* leaf's predefined point;
    /// `None` for fake leaves.
    pub fn leaf_location(&self, code: LeafCode) -> Option<Point> {
        self.hst.point_of(code).map(|p| self.grid.point(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_is_consistent_with_grid() {
        let server = Server::new(Rect::square(200.0), 8, 42);
        let p = Point::new(13.0, 187.0);
        let id = server.grid().nearest(&p);
        assert_eq!(server.snap(&p), server.hst().leaf_of(id));
    }

    #[test]
    fn leaf_location_roundtrips_real_leaves() {
        let server = Server::new(Rect::square(200.0), 4, 7);
        for id in 0..server.grid().len() {
            let code = server.hst().leaf_of(id);
            assert_eq!(server.leaf_location(code), Some(server.grid().point(id)));
        }
    }

    #[test]
    fn same_seed_same_tree() {
        let a = Server::new(Rect::square(100.0), 8, 5);
        let b = Server::new(Rect::square(100.0), 8, 5);
        for id in 0..a.grid().len() {
            assert_eq!(a.hst().leaf_of(id), b.hst().leaf_of(id));
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let a = Server::new(Rect::square(100.0), 8, 5);
        let b = Server::new(Rect::square(100.0), 8, 6);
        let same = (0..a.grid().len())
            .filter(|&id| a.hst().leaf_of(id) == b.hst().leaf_of(id))
            .count();
        assert!(same < a.grid().len(), "trees should differ between seeds");
    }

    #[test]
    fn grid_side_and_region_checks_admit_exactly_what_builds() {
        assert!(check_grid_side(0).is_err());
        for side in [1, 32, 64, 256] {
            check_grid_side(side).unwrap();
        }
        for side in [257, 100_000, usize::MAX] {
            assert!(check_grid_side(side).is_err(), "{side}");
        }
        let flat = Rect::new(0.0, 5.0, 10.0, 5.0);
        assert!(check_region(flat, 2).is_err());
        check_region(flat, 1).unwrap();
        assert_eq!(Server::new(flat, 1, 3).num_predefined(), 1);
        check_region(Rect::square(200.0), 256).unwrap();
    }

    #[test]
    fn num_predefined_is_grid_size() {
        let server = Server::new(Rect::square(50.0), 6, 0);
        assert_eq!(server.num_predefined(), 36);
    }
}
