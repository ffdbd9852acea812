//! Randomized HST construction (Alg. 1 of the paper, FRT-style).
//!
//! Given a finite metric space `(V, d)`, the construction draws a random
//! permutation `π` of `V` and a radius factor `β`, then partitions each
//! level-`i+1` cluster by sweeping balls of radius `β·2^i` around the points
//! in permutation order. Each non-empty intersection becomes a child cluster
//! at level `i`. Level-0 clusters are singletons (guaranteed because the
//! metric is pre-scaled so the minimum pairwise distance is at least 1 and
//! `β < 1`), so each point ends at its own leaf.
//!
//! The sweep is evaluated per point, as FRT (Fakcharoenphol, Rao & Talwar,
//! STOC 2003) define it: point `u` joins the ball of its *owner*, the first
//! position `k` in `π` with `d(u, π[k]) ≤ β·2^i`. A cluster's children are
//! its members grouped by owner, in owner order, which is the order the
//! sweep creates them. Blelloch, Gu & Sun (ICALP 2017) build the same tree
//! in near-linear time from each point's owner at every level.
//!
//! The owner is the lowest `π` position within the radius, so each level
//! answers it from a bucketing of all points into square cells at least a
//! radius wide, each cell's points in `π` order: every point within the
//! radius of `u` lies in the 3 × 3 block of cells around `u`'s, and
//! scanning each of those cells in `π` order up to the best position found
//! so far takes `O(1)` expected steps on well-spread sets. Where cells a
//! radius wide would outnumber the points more than four to one (one pair
//! far closer than the rest, or the finest levels of a wide region), the
//! cells are widened until they do not; the 3 × 3 block still holds the
//! ball. `π[rank(u)] = u` always owns `u`, so the search never passes the
//! point's own rank.

use pombm_geom::{PointId, PointSet};
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;

/// One node of the *real* (pre-completion) HST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawNode {
    /// Level of this node; the root is at `depth`, leaves at 0.
    pub level: u32,
    /// Parent index in [`RawTree::nodes`]; `usize::MAX` for the root.
    pub parent: usize,
    /// Position of this node among its parent's children (the base-`c` digit
    /// assigned during completion).
    pub child_index: u32,
    /// Children node indices, in creation (permutation-sweep) order.
    pub children: Vec<usize>,
    /// The single point id for level-0 leaves, `None` for internal nodes.
    pub point: Option<PointId>,
}

/// The real HST produced by Alg. 1 before fake-node completion.
#[derive(Debug, Clone)]
pub struct RawTree {
    /// All nodes; index 0 is the root.
    pub nodes: Vec<RawNode>,
    /// `leaf_of[p]` is the node index of point `p`'s leaf.
    pub leaf_of: Vec<usize>,
    /// Number of levels `D` (root level).
    pub depth: u32,
    /// The radius factor β drawn for this tree.
    pub beta: f64,
    /// The permutation π of point ids drawn for this tree.
    pub permutation: Vec<PointId>,
    /// Factor by which original distances were divided before construction
    /// (1.0 when the input metric already has minimum distance ≥ 1).
    pub scale: f64,
}

impl RawTree {
    /// Maximum number of children over all internal nodes (the completion
    /// branching factor before clamping to ≥ 2).
    pub fn max_branching(&self) -> u32 {
        self.nodes
            .iter()
            .map(|n| n.children.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// Total number of real nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tree has no nodes; never true for constructed trees.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Verified properties: the root is node 0 at level `depth`; every child
    /// is exactly one level below its parent with a consistent back-pointer
    /// and `child_index`; every point owns exactly one level-0 leaf.
    pub fn validate(&self, num_points: usize) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty tree".into());
        }
        if self.nodes[0].level != self.depth || self.nodes[0].parent != usize::MAX {
            return Err("node 0 is not a root at level D".into());
        }
        let mut seen_points = vec![false; num_points];
        for (i, n) in self.nodes.iter().enumerate() {
            for (ci, &ch) in n.children.iter().enumerate() {
                let child = &self.nodes[ch];
                if child.parent != i {
                    return Err(format!("child {ch} of {i} has wrong parent"));
                }
                if child.child_index as usize != ci {
                    return Err(format!("child {ch} of {i} has wrong child_index"));
                }
                if child.level + 1 != n.level {
                    return Err(format!("child {ch} of {i} skips a level"));
                }
            }
            match (n.level, n.point) {
                (0, Some(p)) => {
                    if seen_points[p] {
                        return Err(format!("point {p} has two leaves"));
                    }
                    seen_points[p] = true;
                    if !n.children.is_empty() {
                        return Err(format!("leaf {i} has children"));
                    }
                }
                (0, None) => return Err(format!("level-0 node {i} has no point")),
                (_, Some(_)) => return Err(format!("internal node {i} has a point")),
                (_, None) => {
                    if n.children.is_empty() {
                        return Err(format!("internal node {i} has no children"));
                    }
                }
            }
        }
        if !seen_points.iter().all(|&b| b) {
            return Err("some point has no leaf".into());
        }
        Ok(())
    }
}

/// Fixed construction parameters, exposed so tests and worked examples (the
/// paper's Example 1) can pin the randomness through
/// [`Hst::build_fixed`](crate::Hst::build_fixed).
#[derive(Debug, Clone)]
pub struct FixedDraw {
    /// Radius factor β ∈ [1/2, 1).
    pub beta: f64,
    /// Permutation π of all point ids.
    pub permutation: Vec<PointId>,
}

/// Runs Alg. 1 with randomness drawn from `rng`; see [`build_raw_fixed`]
/// for the cost.
pub fn build_raw<R: Rng + ?Sized>(points: &PointSet, rng: &mut R) -> RawTree {
    let mut permutation: Vec<PointId> = (0..points.len()).collect();
    permutation.shuffle(rng);
    // β ∈ [1/2, 1): the half-open upper end guarantees the level-0 radius is
    // strictly below the (scaled) minimum pairwise distance, so level-0
    // clusters are singletons. The paper samples from [1/2, 1]; the endpoint
    // has probability zero, so the distributions coincide.
    let beta = rng.gen_range(0.5..1.0);
    build_raw_fixed(points, FixedDraw { beta, permutation })
}

/// Runs Alg. 1 with pinned randomness. Panics if `beta ∉ [1/2, 1)` or the
/// permutation is not a permutation of `0..N`.
///
/// Cost: [`PointSet::pair_stats`] sizes the tree, in `O(N)` on a lattice
/// and `O(N²)` otherwise. Each level that still has a cluster of two or
/// more points buckets all `N` points into at most `4N` cells and answers
/// each clustered point's owner from its 3 × 3 block of cells. That scan
/// evaluates at most `rank(u)` distances for point `u`, and `O(1)`
/// expected when each cell holds `O(1)` points, as on a grid whose two
/// pitches are within a small factor of each other; sorting the clusters
/// by owner adds `O(N log N)`. Such a grid therefore builds in
/// `O(N log N · D)`. On a grid over a `w × h` region with `w ≥ h`, a
/// widened cell holds about `2·√(w/h)` points. Points that already sit
/// alone in their cluster are not searched again. Transient memory is
/// `O(N)`.
pub fn build_raw_fixed(points: &PointSet, draw: FixedDraw) -> RawTree {
    let n = points.len();
    assert!(
        (0.5..1.0).contains(&draw.beta),
        "beta must lie in [1/2, 1), got {}",
        draw.beta
    );
    assert_eq!(draw.permutation.len(), n, "permutation length mismatch");
    {
        let mut seen = vec![false; n];
        for &p in &draw.permutation {
            assert!(p < n && !seen[p], "invalid permutation");
            seen[p] = true;
        }
    }
    let stats = points.pair_stats();
    assert!(
        stats.all_distinct,
        "predefined points must be pairwise distinct so each gets its own leaf"
    );
    // An infinite diameter would ask for `u32::MAX` levels.
    assert!(
        stats.diameter.is_finite(),
        "the squared diameter of the predefined points must be a finite f64"
    );

    // Scale the metric so the minimum pairwise distance is >= 1 (required for
    // singleton separation at level 0). Sets that already satisfy this are
    // left untouched, matching the paper's worked example exactly.
    let scale = match stats.min_distance {
        Some(d) if d < 1.0 => d,
        _ => 1.0,
    };
    let dist = |a: PointId, b: PointId| points.dist(a, b) / scale;

    // D = ceil(log2(2 * diameter)), at least 1.
    let diameter = stats.diameter / scale;
    let depth = if diameter <= 0.0 {
        1
    } else {
        (2.0 * diameter).log2().ceil().max(1.0) as u32
    };

    let root = RawNode {
        level: depth,
        parent: usize::MAX,
        child_index: 0,
        children: Vec::new(),
        point: None,
    };
    let mut nodes = vec![root];
    // Members of the current level's clusters: each frontier entry is a node
    // index and the range of `order` holding its members. The ranges tile
    // `order` in node order.
    let mut order: Vec<PointId> = (0..n).collect();
    let mut frontier: Vec<(usize, Range<usize>)> = vec![(0, 0..n)];
    // `owner[u]`: π position of u's owner at the last level u shared a
    // cluster.
    let mut owner = vec![0usize; n];
    let mut rank = vec![0usize; n];
    for (k, &p) in draw.permutation.iter().enumerate() {
        rank[p] = k;
    }
    let mut cells = Cells::new(points);

    for i in (0..depth).rev() {
        let radius = draw.beta * (1u64 << i) as f64;
        // A level whose clusters are all singletons searches no owner.
        if frontier.iter().any(|(_, members)| members.len() > 1) {
            cells.bucket(points, &draw.permutation, radius * scale);
        }
        let mut next = Vec::with_capacity(frontier.len());
        for (node_idx, range) in frontier {
            let members = &mut order[range.clone()];
            // A singleton passes straight down one level; its own ball would
            // reproduce this split.
            if members.len() > 1 {
                // Lines 8-13 of Alg. 1: u joins the first ball in π order
                // that holds it. A scaled distance is never NaN, so `>` is
                // the exact negation of `<=`.
                for &u in members.iter() {
                    let outside = |v: PointId| dist(u, v) > radius;
                    owner[u] = cells.owner(u, rank[u], &draw.permutation, outside);
                }
                // Owner order is the order the sweep creates the children.
                members.sort_by_key(|&u| owner[u]);
            }
            let mut start = range.start;
            for claimed in members.chunk_by(|&a, &b| owner[a] == owner[b]) {
                let child_index = nodes[node_idx].children.len() as u32;
                let child = RawNode {
                    level: i,
                    parent: node_idx,
                    child_index,
                    children: Vec::new(),
                    point: (i == 0 && claimed.len() == 1).then(|| claimed[0]),
                };
                let ci = nodes.len();
                nodes.push(child);
                nodes[node_idx].children.push(ci);
                next.push((ci, start..start + claimed.len()));
                start += claimed.len();
            }
            debug_assert_eq!(start, range.end, "ball sweep must cover the cluster");
        }
        frontier = next;
    }

    let mut leaf_of = vec![usize::MAX; n];
    for (node_idx, members) in &frontier {
        assert_eq!(
            members.len(),
            1,
            "level-0 cluster not a singleton; metric scaling is broken"
        );
        let p = order[members.start];
        leaf_of[p] = *node_idx;
        debug_assert_eq!(nodes[*node_idx].point, Some(p));
    }

    let tree = RawTree {
        nodes,
        leaf_of,
        depth,
        beta: draw.beta,
        permutation: draw.permutation,
        scale,
    };
    debug_assert_eq!(tree.validate(n), Ok(()));
    tree
}

/// The most cells per point a level buckets into; wider cells are used
/// where cells a radius wide would be more. A square grid's finest level
/// needs just under 4 (cells half a pitch wide when `β` is near 1/2).
const MAX_CELLS_PER_POINT: usize = 4;

/// Relative padding of the cell side over the unscaled radius; see
/// [`Cells::bucket`].
const CELL_PAD: f64 = 1.0 / (1u64 << 20) as f64;

/// The narrowest cell [`Cells::bucket`] uses, well above the range where
/// squared distances lose precision to underflow; see there.
const MIN_CELL_SIDE: f64 = 1e-150;

/// All points bucketed into square cells of one side, each cell's points
/// in `π` order: the index one level's owner queries are answered from.
struct Cells {
    /// Lower-left corner of the points' bounding box.
    min_x: f64,
    min_y: f64,
    /// Extent of the bounding box, as `fl(max − min)`.
    width: f64,
    height: f64,
    /// Cell columns and rows of the current bucketing.
    cols: usize,
    rows: usize,
    /// `ranks[start[c]..start[c + 1]]` holds the `π` positions of the
    /// points in cell `c = row · cols + col`, ascending.
    start: Vec<usize>,
    ranks: Vec<usize>,
    /// `cell[u]`: the cell of point `u`.
    cell: Vec<usize>,
}

impl Cells {
    fn new(points: &PointSet) -> Self {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points.points() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let n = points.len();
        Cells {
            min_x,
            min_y,
            width: max_x - min_x,
            height: max_y - min_y,
            cols: 0,
            rows: 0,
            start: Vec::new(),
            ranks: vec![0; n],
            cell: vec![0; n],
        }
    }

    /// Buckets every point into square cells a padded `reach` wide, where
    /// `reach` is the level's radius in the points' own (unscaled) units,
    /// and returns the cell side. A side below [`MIN_CELL_SIDE`] is raised
    /// to it, and one that needs more than [`MAX_CELLS_PER_POINT`] cells
    /// per point (or `2^30`) is doubled until it does not, which stops
    /// within a factor 2 of the narrowest side that fits.
    ///
    /// Why every point the owner test accepts lies in the 3 × 3 block
    /// around `u`'s cell. Write `ε = 2^-53` for the unit roundoff and
    /// `R = fl(r·scale)` for `reach`. The test accepts `v` when
    /// `fl(fl(√D)/scale) ≤ r`, with `D = fl(fl(a²) + fl(b²))`,
    /// `a = fl(x_u − x_v)` and `b = fl(y_u − y_v)`. Rounding is monotone
    /// and within `ε` relative, except that a square underflowing below the
    /// normal range loses up to `2^-1075` absolute. So acceptance gives
    /// `√D ≤ R·(1 + 4ε)`, then `|a| ≤ √D·(1 + ε) + 2^-537`, then
    /// `|x_u − x_v| ≤ R·(1 + 8ε) + 2^-536`, and the same for y. A cell
    /// index is `⌊fl(fl(x − min_x)/side)⌋`; the quotient is within `3ε` of
    /// exact and below `cols ≤ 2^30`, so it is off by at most `2^-21.4`
    /// cells. Two accepted points are therefore at most
    /// `(R·(1 + 8ε) + 2^-536)/side + 2^-20.4` cells apart, which is below 1
    /// for every `side ≥ R·(1 + 2^-20)` that is also at least `10^-150`,
    /// and their cell indices differ by at most 1 on each axis. The same
    /// monotonicity keeps every index below `cols` and `rows`. The
    /// bounding box's extent is finite because the diameter is, so the
    /// doubling ends by the time one cell covers it.
    fn bucket(&mut self, points: &PointSet, permutation: &[PointId], reach: f64) -> f64 {
        let n = points.len();
        let cap = (MAX_CELLS_PER_POINT * n).min(1 << 30) as f64;
        let count = |extent: f64, side: f64| (extent / side).floor() + 1.0;
        let mut side = (reach * (1.0 + CELL_PAD)).max(MIN_CELL_SIDE);
        while count(self.width, side) * count(self.height, side) > cap {
            side *= 2.0;
        }
        self.cols = count(self.width, side) as usize;
        self.rows = count(self.height, side) as usize;
        let cells = self.cols * self.rows;
        // A counting sort by cell, filled in π order.
        self.start.clear();
        self.start.resize(cells + 1, 0);
        for (u, p) in points.points().iter().enumerate() {
            let col = ((p.x - self.min_x) / side) as usize;
            let row = ((p.y - self.min_y) / side) as usize;
            assert!(
                col < self.cols && row < self.rows,
                "a point outside the cells"
            );
            self.cell[u] = row * self.cols + col;
            self.start[self.cell[u] + 1] += 1;
        }
        for c in 0..cells {
            self.start[c + 1] += self.start[c];
        }
        for (k, &p) in permutation.iter().enumerate() {
            let next = &mut self.start[self.cell[p]];
            self.ranks[*next] = k;
            *next += 1;
        }
        // Filling advanced each cell's start to the next cell's.
        self.start.copy_within(0..cells, 1);
        self.start[0] = 0;
        side
    }

    /// The `π` position of `u`'s owner: the lowest position whose point is
    /// not `outside` the level's radius of `u`. `rank_u` is `u`'s own
    /// position, which always qualifies.
    fn owner(
        &self,
        u: PointId,
        rank_u: usize,
        permutation: &[PointId],
        outside: impl Fn(PointId) -> bool,
    ) -> usize {
        let mut best = rank_u;
        let mut scan = |cell: usize| {
            for &k in &self.ranks[self.start[cell]..self.start[cell + 1]] {
                if k >= best {
                    break;
                }
                if !outside(permutation[k]) {
                    best = k;
                    break;
                }
            }
        };
        // u's own cell first: it usually holds the owner, and the rank
        // found there cuts the neighbours' scans short.
        let home = self.cell[u];
        scan(home);
        let (col, row) = (home % self.cols, home / self.cols);
        for r in row.saturating_sub(1)..=(row + 1).min(self.rows - 1) {
            for c in col.saturating_sub(1)..=(col + 1).min(self.cols - 1) {
                if (r, c) != (row, col) {
                    scan(r * self.cols + c);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hst;
    use pombm_geom::{seeded_rng, Grid, Point, Rect};
    use proptest::prelude::*;

    /// The ball sweep [`build_raw_fixed`] replaced, kept as its equivalence
    /// oracle: every cluster sweeps the centers of π in order and each ball
    /// claims the still unassigned members, after a brute-force pass over
    /// [`PointSet::dist`] (a square root per pair) sizes the tree.
    fn build_raw_reference(points: &PointSet, draw: FixedDraw) -> RawTree {
        let n = points.len();
        let (mut distinct, mut min_distance, mut diameter) = (true, f64::INFINITY, 0.0f64);
        for i in 0..n {
            for j in (i + 1)..n {
                distinct &= points.point(i) != points.point(j);
                let d = points.dist(i, j);
                if d > 0.0 {
                    min_distance = min_distance.min(d);
                }
                diameter = diameter.max(d);
            }
        }
        assert!(
            distinct,
            "predefined points must be pairwise distinct so each gets its own leaf"
        );
        let scale = if min_distance < 1.0 {
            min_distance
        } else {
            1.0
        };
        let dist = |a: PointId, b: PointId| points.dist(a, b) / scale;
        let diameter = diameter / scale;
        let depth = if diameter <= 0.0 {
            1
        } else {
            (2.0 * diameter).log2().ceil().max(1.0) as u32
        };

        let mut nodes = vec![RawNode {
            level: depth,
            parent: usize::MAX,
            child_index: 0,
            children: Vec::new(),
            point: None,
        }];
        let mut frontier: Vec<(usize, Vec<PointId>)> = vec![(0, (0..n).collect())];
        for i in (0..depth).rev() {
            let radius = draw.beta * (1u64 << i) as f64;
            let mut next = Vec::with_capacity(frontier.len());
            for (node_idx, members) in frontier {
                let singleton = members.len() == 1;
                let mut remaining = members;
                for &center in &draw.permutation {
                    if remaining.is_empty() {
                        break;
                    }
                    // A singleton passes straight down one level.
                    let mut claimed = Vec::new();
                    remaining.retain(|&u| {
                        let inside = singleton || dist(u, center) <= radius;
                        if inside {
                            claimed.push(u);
                        }
                        !inside
                    });
                    if claimed.is_empty() {
                        continue;
                    }
                    let child_index = nodes[node_idx].children.len() as u32;
                    let ci = nodes.len();
                    nodes.push(RawNode {
                        level: i,
                        parent: node_idx,
                        child_index,
                        children: Vec::new(),
                        point: (i == 0 && claimed.len() == 1).then(|| claimed[0]),
                    });
                    nodes[node_idx].children.push(ci);
                    next.push((ci, claimed));
                }
                assert!(remaining.is_empty(), "ball sweep must cover the cluster");
            }
            frontier = next;
        }
        let mut leaf_of = vec![usize::MAX; n];
        for (node_idx, members) in &frontier {
            assert_eq!(members.len(), 1, "level-0 cluster not a singleton");
            leaf_of[members[0]] = *node_idx;
        }
        RawTree {
            nodes,
            leaf_of,
            depth,
            beta: draw.beta,
            permutation: draw.permutation,
            scale,
        }
    }

    /// A draw the way [`build_raw`] makes one.
    fn random_draw(n: usize, seed: u64) -> FixedDraw {
        let mut rng = seeded_rng(seed, 0x0C7);
        let mut permutation: Vec<PointId> = (0..n).collect();
        permutation.shuffle(&mut rng);
        FixedDraw {
            beta: rng.gen_range(0.5..1.0),
            permutation,
        }
    }

    /// Asserts that both constructions give the same tree, field by field,
    /// and the same completed leaf codes where `c^D` fits the code space.
    fn assert_matches_reference(points: &PointSet, draw: FixedDraw) {
        let got = build_raw_fixed(points, draw.clone());
        let want = build_raw_reference(points, draw);
        assert_eq!(got.nodes, want.nodes, "nodes differ");
        assert_eq!(got.leaf_of, want.leaf_of, "leaf_of differs");
        assert_eq!(got.depth, want.depth, "depth differs");
        assert_eq!(got.beta.to_bits(), want.beta.to_bits(), "beta differs");
        assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "scale differs");
        assert_eq!(got.permutation, want.permutation, "permutation differs");
        let branching = u64::from(got.max_branching().max(2));
        if branching.checked_pow(got.depth).is_none() {
            return;
        }
        let got = Hst::from_raw(got, points.clone());
        let want = Hst::from_raw(want, points.clone());
        for p in 0..points.len() {
            assert_eq!(got.leaf_of(p), want.leaf_of(p), "leaf code of {p} differs");
        }
    }

    /// Square grids of sides 1 to 40 over `region`, one draw each.
    fn assert_grids_match_reference(region: f64) {
        for side in 1..=40usize {
            let points = Grid::square(Rect::square(region), side).to_point_set();
            let seed = region.to_bits() ^ side as u64;
            assert_matches_reference(&points, random_draw(points.len(), seed));
        }
    }

    #[test]
    fn owner_scan_matches_ball_sweep_on_sub_unit_grids() {
        // Cells narrower than 1 take the rescaling branch.
        assert_grids_match_reference(0.01);
        assert_grids_match_reference(1.0);
    }

    #[test]
    fn owner_scan_matches_ball_sweep_on_wide_grids() {
        assert_grids_match_reference(100.0);
        assert_grids_match_reference(5000.0);
    }

    #[test]
    fn owner_search_matches_ball_sweep_on_lattice_shapes() {
        let grid = |min: (f64, f64), max: (f64, f64), cols: usize, rows: usize| {
            Grid::new(Rect::new(min.0, min.1, max.0, max.1), cols, rows).to_point_set()
        };
        let lattice = |xs: &[f64], ys: &[f64]| {
            PointSet::new(
                ys.iter()
                    .flat_map(|&y| xs.iter().map(move |&x| Point::new(x, y)))
                    .collect(),
            )
        };
        let shapes = [
            grid((0.0, 0.0), (200.0, 200.0), 24, 24),
            // Wide: the finest levels would need more than four cells per
            // point a radius wide, so they use wider cells.
            grid((0.0, 0.0), (300.0, 40.0), 32, 32),
            grid((0.0, 0.0), (300.0, 40.0), 60, 8),
            grid((1e15, -1e15), (1e15 + 300.0, -1e15 + 300.0), 24, 24),
            grid((-6e12, 2e12), (-6e12 + 0.5, 2e12 + 0.5), 12, 12),
            grid((0.0, 0.0), (1.0, 1.0), 30, 30),
            grid((0.0, 0.0), (200.0, 0.0), 50, 1),
            grid((7.0, 0.0), (7.0, 200.0), 1, 50),
            grid((0.0, 0.0), (200.0, 200.0), 1, 1),
            lattice(&[-0.0, 1.0, 2.5, 4.0], &[-0.0, 0.75, 3.0]),
            lattice(&[-3.0, -0.0], &[-2.0, -0.0, 5.0]),
            // Squares in the subnormal range, and normal squares of
            // points closer than the narrowest cell: both use cells wider
            // than the radius.
            grid((0.0, 0.0), (1e-155, 1e-155), 8, 8),
            grid((0.0, 0.0), (1e-150, 1e-150), 8, 8),
        ];
        for (i, points) in shapes.iter().enumerate() {
            for seed in 0..3 {
                assert_matches_reference(points, random_draw(points.len(), 31 * i as u64 + seed));
            }
        }
    }

    /// For each level the build searched (one below a cluster of two or
    /// more points), top first, the cell side over the padded radius (1
    /// where the cells were not widened) and the cells per point.
    fn cell_widening(points: &PointSet, draw: &FixedDraw) -> Vec<(f64, f64)> {
        let tree = build_raw_fixed(points, draw.clone());
        let mut size = vec![0usize; tree.len()];
        for &leaf in &tree.leaf_of {
            size[leaf] = 1;
        }
        for v in (1..tree.len()).rev() {
            size[tree.nodes[v].parent] += size[v];
        }
        let mut cells = Cells::new(points);
        (0..tree.depth)
            .rev()
            .filter(|&i| (0..tree.len()).any(|v| tree.nodes[v].level == i + 1 && size[v] > 1))
            .map(|i| {
                let reach = draw.beta * (1u64 << i) as f64 * tree.scale;
                let side = cells.bucket(points, &draw.permutation, reach);
                let per_point = (cells.cols * cells.rows) as f64 / points.len() as f64;
                (side / (reach * (1.0 + CELL_PAD)), per_point)
            })
            .collect()
    }

    #[test]
    fn square_grids_keep_cells_a_radius_wide_and_skewed_sets_widen_them() {
        for (region, side) in [(200.0, 16), (200.0, 32), (200.0, 64), (3.0, 32), (1e4, 32)] {
            let points = Grid::square(Rect::square(region), side).to_point_set();
            for beta in [0.5, 0.75, 0.999] {
                let mut draw = random_draw(points.len(), side as u64);
                draw.beta = beta;
                let levels = cell_widening(&points, &draw);
                assert!(levels.len() >= 2, "side {side} over {region}");
                assert!(
                    levels.iter().all(|&(widened, _)| widened == 1.0),
                    "side {side} over {region}, β {beta}: {levels:?}"
                );
            }
        }
        // A wide region's finest levels, and the levels that split a pair
        // far closer than the rest from its neighbours, would need more
        // than four cells per point a radius wide. Widened cells number
        // between one and four per point.
        let wide = Grid::square(Rect::new(0.0, 0.0, 300.0, 40.0), 32).to_point_set();
        let mut near = Grid::square(Rect::square(200.0), 16)
            .to_point_set()
            .points()
            .to_vec();
        near.push(Point::new(near[0].x + 1e-6, near[0].y));
        let near = PointSet::new(near);
        for (points, seed) in [(&wide, 3), (&near, 5)] {
            let levels = cell_widening(points, &random_draw(points.len(), seed));
            assert!(levels.iter().any(|&(w, _)| w == 1.0), "{levels:?}");
            assert!(levels.iter().any(|&(w, _)| w > 1.0), "{levels:?}");
            for &(widened, per_point) in &levels {
                assert!(per_point <= 4.0, "{levels:?}");
                assert!(widened == 1.0 || per_point > 1.0, "{levels:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn owner_scan_matches_ball_sweep_on_random_sets(
            coords in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..301),
            magnitude in -3.0f64..4.0,
            seed in 0u64..1_000_000,
        ) {
            let spread = 10f64.powf(magnitude);
            let points = PointSet::new(
                coords.iter().map(|&(x, y)| Point::new(x * spread, y * spread)).collect(),
            );
            prop_assume!(points.pair_stats().all_distinct);
            assert_matches_reference(&points, random_draw(points.len(), seed));
        }
    }

    proptest! {
        #[test]
        fn owner_search_matches_ball_sweep_around_a_near_duplicate(
            coords in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..201),
            magnitude in -3.0f64..4.0,
            far in 0usize..3,
            gap in 1e-9f64..1e-4,
            seed in 0u64..1_000_000,
        ) {
            // One pair far closer than the rest shrinks the scale, so the
            // finest levels widen their cells far beyond the radius.
            let spread = 10f64.powf(magnitude);
            let offset = [0.0, 1e9, -3e12][far];
            let at = |x: f64, y: f64| Point::new(offset + x * spread, offset + y * spread);
            let mut points: Vec<Point> = coords.iter().map(|&(x, y)| at(x, y)).collect();
            let (x, y) = coords[0];
            points.push(at(x + gap, y));
            let points = PointSet::new(points);
            prop_assume!(points.pair_stats().all_distinct);
            assert_matches_reference(&points, random_draw(points.len(), seed));
        }
    }

    #[test]
    fn owner_scan_matches_ball_sweep_on_boundary_ties() {
        // With β = 1/2 the level-i radius is 2^(i-1): on lattices of pitch
        // 1 and 2, neighbours at distance 1, 2, 4, ... sit exactly on a
        // ball boundary, where `d <= radius` must still claim them.
        for (w, h) in [(1, 2), (2, 2), (3, 5), (8, 8), (16, 9), (20, 20)] {
            for pitch in [1.0, 2.0, 3.0] {
                let points = PointSet::new(
                    (0..w * h)
                        .map(|k| Point::new((k % w) as f64 * pitch, (k / w) as f64 * pitch))
                        .collect(),
                );
                for seed in 0..4 {
                    let draw = FixedDraw {
                        beta: 0.5,
                        permutation: random_draw(points.len(), seed).permutation,
                    };
                    assert_matches_reference(&points, draw);
                }
            }
        }
    }

    /// The paper's Example 1 point set.
    fn example1() -> PointSet {
        PointSet::new(vec![
            Point::new(1.0, 1.0), // o1
            Point::new(2.0, 3.0), // o2
            Point::new(5.0, 3.0), // o3
            Point::new(4.0, 4.0), // o4
        ])
    }

    fn example1_tree() -> RawTree {
        build_raw_fixed(
            &example1(),
            FixedDraw {
                beta: 0.5,
                permutation: vec![0, 1, 2, 3],
            },
        )
    }

    #[test]
    fn example1_has_depth_4() {
        // D = ceil(log2(2 * d(o1,o3))) = ceil(log2(2*sqrt(20))) = 4.
        let t = example1_tree();
        assert_eq!(t.depth, 4);
        assert_eq!(t.scale, 1.0, "example metric needs no rescaling");
    }

    #[test]
    fn example1_splits_match_figure_2() {
        let t = example1_tree();
        t.validate(4).unwrap();
        // The first split happens at level 3 (radius r_3 = 4): V splits into
        // {o1,o2} (ball around o1) and {o3,o4} (ball around o2), exactly the
        // red circles of the paper's Fig. 2a.
        let root = &t.nodes[0];
        assert_eq!(root.level, 4);
        assert_eq!(root.children.len(), 2, "split into {{o1,o2}} and {{o3,o4}}");
        // First child claims o1's group (permutation starts at o1).
        let g1 = &t.nodes[root.children[0]];
        let g2 = &t.nodes[root.children[1]];
        assert_eq!(g1.level, 3);
        // {o1,o2} splits at level 2 (radius 2): two children.
        assert_eq!(g1.children.len(), 2);
        // {o3,o4} stays together at level 2 (ball around o3 radius 2 covers
        // o4 at distance sqrt(2)), then splits at level 1 (radius 1).
        assert_eq!(g2.children.len(), 1);
        let g2l2 = &t.nodes[g2.children[0]];
        assert_eq!(g2l2.children.len(), 2);
        assert_eq!(t.max_branching(), 2, "Example 1 yields a binary tree");
    }

    #[test]
    fn example1_leaves_are_all_points() {
        let t = example1_tree();
        for p in 0..4 {
            let leaf = &t.nodes[t.leaf_of[p]];
            assert_eq!(leaf.level, 0);
            assert_eq!(leaf.point, Some(p));
        }
    }

    #[test]
    fn random_construction_is_valid_for_many_seeds() {
        let ps = PointSet::new(
            (0..40)
                .map(|i| Point::new((i % 8) as f64 * 3.0, (i / 8) as f64 * 5.0))
                .collect(),
        );
        for seed in 0..10 {
            let mut rng = seeded_rng(seed, 0);
            let t = build_raw(&ps, &mut rng);
            t.validate(40).unwrap();
            assert!(t.depth >= 1);
            assert!(t.max_branching() >= 1);
        }
    }

    #[test]
    fn sub_unit_metric_is_rescaled() {
        let ps = PointSet::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.25, 0.0),
            Point::new(0.6, 0.0),
        ]);
        let mut rng = seeded_rng(7, 0);
        let t = build_raw(&ps, &mut rng);
        assert!((t.scale - 0.25).abs() < 1e-12);
        t.validate(3).unwrap();
    }

    #[test]
    fn two_identical_coordinates_rejected() {
        let ps = PointSet::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]);
        let mut rng = seeded_rng(0, 0);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build_raw(&ps, &mut rng)));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "squared diameter")]
    fn an_overflowing_diameter_is_rejected() {
        let ps = PointSet::new(vec![Point::new(-1e200, 0.0), Point::new(1e200, 0.0)]);
        let _ = build_raw(&ps, &mut seeded_rng(0, 0));
    }

    #[test]
    fn singleton_set_builds_trivial_tree() {
        let ps = PointSet::new(vec![Point::new(3.0, 3.0)]);
        let mut rng = seeded_rng(0, 0);
        let t = build_raw(&ps, &mut rng);
        assert_eq!(t.depth, 1);
        t.validate(1).unwrap();
        assert_eq!(t.nodes[t.leaf_of[0]].level, 0);
    }

    #[test]
    fn cluster_diameters_respect_level_radius() {
        // Every level-i cluster is contained in a ball of radius β·2^i, so
        // its (scaled) diameter is at most 2·β·2^i < 2^{i+1}.
        let ps = PointSet::new(
            (0..30)
                .map(|i| Point::new((i * 17 % 41) as f64, (i * 29 % 37) as f64))
                .collect(),
        );
        let mut rng = seeded_rng(3, 1);
        let t = build_raw(&ps, &mut rng);
        // Recover members of every node by walking up from the leaves.
        let mut members: Vec<Vec<PointId>> = vec![Vec::new(); t.nodes.len()];
        for p in 0..ps.len() {
            let mut v = t.leaf_of[p];
            loop {
                members[v].push(p);
                if v == 0 {
                    break;
                }
                v = t.nodes[v].parent;
            }
        }
        for (idx, node) in t.nodes.iter().enumerate() {
            let m = &members[idx];
            for i in 0..m.len() {
                for j in (i + 1)..m.len() {
                    let d = ps.dist(m[i], m[j]) / t.scale;
                    assert!(
                        d <= 2.0 * t.beta * (1u64 << node.level) as f64 + 1e-9,
                        "cluster at level {} has diameter {d}",
                        node.level
                    );
                }
            }
        }
    }
}
