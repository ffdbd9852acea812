//! Clairvoyant offline optimum on a time-expanded feasibility graph.
//!
//! The dynamic driver replays a shift/task timeline online: a task can only
//! go to a worker that is on shift at the arrival instant and not already
//! consumed. The *clairvoyant* optimum answers "what would a scheduler with
//! the whole timeline revealed in advance have paid": a
//! maximum-cardinality, minimum-total-cost matching over exactly the edges
//! the online driver could ever have used. It is the denominator of the
//! dynamic competitive ratio (the churn analogue of Definition 8's `OPT`).
//!
//! # Reduction to the dense Hungarian engine
//!
//! Rather than a bespoke sparse solver, the production path pads the
//! feasibility graph into a complete bipartite instance and reuses the
//! cache-blocked successive-shortest-augmenting-path engine of
//! [`OfflineOptimal`] (dense materialization + fused SIMD column scans +
//! blocked threading): every infeasible edge gets one shared penalty cost
//! `BIG`, chosen as a power of two strictly greater than
//! `min(n, m) · max_feasible_cost`. Any matching that uses one fewer
//! penalty edge then beats any real-cost rearrangement, so the padded
//! optimum uses as few penalty edges as possible — i.e. it is
//! maximum-cardinality over the *feasible* edges — and among those it
//! minimizes the real cost. Stripping the penalty pairs afterwards yields
//! the clairvoyant assignment. With integer edge costs the power-of-two
//! penalty keeps every dual update exact in `f64`, which is what lets the
//! equivalence tests compare totals bit-for-bit.
//!
//! The result inherits [`OfflineOptimal`]'s determinism contract: the
//! assignment is bit-identical at every thread count.
//!
//! # Reference solver
//!
//! [`ClairvoyantOptimal::solve_reference`] re-solves the same padded
//! instance as a naive successive-shortest-path min-cost-flow: each
//! augmenting path is found by plain Bellman-Ford relaxation sweeps over
//! the residual graph, with no dual potentials, no materialized matrix and
//! no SIMD. Under cost ties distinct optimal matchings exist and the two
//! engines may pick different ones, so equivalence is pinned on the
//! optimum's invariants — cardinality and total cost (bit-exact on integer
//! costs) — rather than on the pair list.

use crate::offline::OfflineOptimal;
use crate::Matching;

/// Exact clairvoyant matching over an explicit feasibility predicate.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClairvoyantOptimal;

/// The clairvoyant optimum: feasible pairs, unmatchable tasks, total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ClairvoyantAssignment {
    /// Matched `(task, worker)` pairs over feasible edges only, sorted by
    /// task index.
    pub pairs: Vec<(usize, usize)>,
    /// Tasks the optimum leaves unmatched (no feasible worker left even
    /// with full foresight), ascending.
    pub dropped: Vec<usize>,
    /// Total cost of `pairs`, summed in worker-index order — the same
    /// arrival-invariant convention as the static ratio denominator.
    pub total_cost: f64,
}

impl ClairvoyantAssignment {
    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.pairs.len()
    }
}

impl ClairvoyantOptimal {
    /// Computes the maximum-cardinality, minimum-total-cost matching using
    /// only edges with `feasible(task, worker)`, sequentially.
    ///
    /// `cost(task, worker)` must be finite and non-negative for feasible
    /// edges; it is never evaluated on infeasible ones.
    pub fn solve<F, C>(
        num_tasks: usize,
        num_workers: usize,
        feasible: F,
        cost: C,
    ) -> ClairvoyantAssignment
    where
        F: Fn(usize, usize) -> bool + Sync,
        C: Fn(usize, usize) -> f64 + Sync,
    {
        Self::solve_with_threads(num_tasks, num_workers, feasible, cost, 1)
    }

    /// [`ClairvoyantOptimal::solve`] with the padded Hungarian solve
    /// sharded over `threads` scoped threads (`0` = one per core).
    /// Bit-identical at every thread count.
    pub fn solve_with_threads<F, C>(
        num_tasks: usize,
        num_workers: usize,
        feasible: F,
        cost: C,
        threads: usize,
    ) -> ClairvoyantAssignment
    where
        F: Fn(usize, usize) -> bool + Sync,
        C: Fn(usize, usize) -> f64 + Sync,
    {
        if num_tasks == 0 || num_workers == 0 {
            return finish(num_tasks, Matching::new(), &feasible, &cost);
        }
        let big = penalty(num_tasks, num_workers, &feasible, &cost);
        let padded = OfflineOptimal::solve_with_threads(num_tasks, num_workers, threads, |t, w| {
            if feasible(t, w) {
                cost(t, w)
            } else {
                big
            }
        });
        finish(num_tasks, padded, &feasible, &cost)
    }

    /// The equivalence oracle: solves the same penalty-padded instance as a
    /// naive successive-shortest-path min-cost flow whose augmenting paths
    /// come from plain Bellman-Ford sweeps (no potentials, no blocking, no
    /// SIMD). Test/bench use only.
    pub fn solve_reference<F, C>(
        num_tasks: usize,
        num_workers: usize,
        feasible: F,
        cost: C,
    ) -> ClairvoyantAssignment
    where
        F: Fn(usize, usize) -> bool,
        C: Fn(usize, usize) -> f64,
    {
        if num_tasks == 0 || num_workers == 0 {
            return finish(num_tasks, Matching::new(), &feasible, &cost);
        }
        let big = penalty(num_tasks, num_workers, &feasible, &cost);
        let padded_cost = |t: usize, w: usize| if feasible(t, w) { cost(t, w) } else { big };
        // The row-sequential formulation needs rows <= columns; swap sides
        // when there are more tasks than workers (mirrors the engine).
        let padded = if num_tasks <= num_workers {
            Matching {
                pairs: bellman_ford_assignment(num_tasks, num_workers, padded_cost),
            }
        } else {
            let assignment =
                bellman_ford_assignment(num_workers, num_tasks, |r, c| padded_cost(c, r));
            Matching {
                pairs: assignment.into_iter().map(|(w, t)| (t, w)).collect(),
            }
        };
        finish(num_tasks, padded, &feasible, &cost)
    }
}

/// The shared infeasible-edge penalty: the smallest power of two strictly
/// greater than `min(n, m) · max_feasible_cost`. A power of two keeps
/// integer-cost dual arithmetic exact, and the bound guarantees that
/// dropping one penalty edge always beats any real-cost rearrangement.
fn penalty<F, C>(num_tasks: usize, num_workers: usize, feasible: &F, cost: &C) -> f64
where
    F: Fn(usize, usize) -> bool,
    C: Fn(usize, usize) -> f64,
{
    let mut max_cost = 0.0f64;
    for t in 0..num_tasks {
        for w in 0..num_workers {
            if feasible(t, w) {
                let c = cost(t, w);
                debug_assert!(
                    c.is_finite() && c >= 0.0,
                    "cost({t}, {w}) must be finite and non-negative"
                );
                max_cost = max_cost.max(c);
            }
        }
    }
    let bound = num_tasks.min(num_workers) as f64 * max_cost;
    let mut big = 1.0f64;
    while big <= bound {
        big *= 2.0;
    }
    big
}

/// Strips penalty pairs out of a padded matching and normalizes the result:
/// feasible pairs sorted by task, dropped tasks ascending, total cost
/// summed in worker-index order.
fn finish<F, C>(num_tasks: usize, padded: Matching, feasible: &F, cost: &C) -> ClairvoyantAssignment
where
    F: Fn(usize, usize) -> bool,
    C: Fn(usize, usize) -> f64,
{
    let mut pairs: Vec<(usize, usize)> = padded
        .pairs
        .into_iter()
        .filter(|&(t, w)| feasible(t, w))
        .collect();
    let mut by_worker = pairs.clone();
    by_worker.sort_unstable_by_key(|&(_, w)| w);
    // From 0.0: `f64`'s `Sum` starts from -0.0, which an empty set keeps.
    let total_cost = by_worker
        .iter()
        .map(|&(t, w)| cost(t, w))
        .fold(0.0, |s, c| s + c);
    pairs.sort_unstable();
    let mut matched = vec![false; num_tasks];
    for &(t, _) in &pairs {
        matched[t] = true;
    }
    let dropped = (0..num_tasks).filter(|&t| !matched[t]).collect();
    ClairvoyantAssignment {
        pairs,
        dropped,
        total_cost,
    }
}

/// Min-cost assignment of all `rows` (requires `rows <= cols`) by
/// successive shortest augmenting paths, each found with textbook
/// Bellman-Ford over the residual graph. `O(rows · cols³)` worst case —
/// an oracle, not an engine.
fn bellman_ford_assignment<C: Fn(usize, usize) -> f64>(
    rows: usize,
    cols: usize,
    cost: C,
) -> Vec<(usize, usize)> {
    debug_assert!(rows <= cols, "caller orients rows <= cols");
    // row_of[c]: the row currently matched to column c.
    let mut row_of: Vec<Option<usize>> = vec![None; cols];
    for r0 in 0..rows {
        // dist[c]: cheapest residual path source -> r0 -> ... -> c.
        // parent[c]: the previous column on that path (None = direct).
        let mut dist: Vec<f64> = (0..cols).map(|c| cost(r0, c)).collect();
        let mut parent: Vec<Option<usize>> = vec![None; cols];
        // Bellman-Ford: relax matched-column pivots until a fixpoint. The
        // residual graph of a min-cost partial matching has no negative
        // cycle, so at most `cols + 1` sweeps converge.
        for sweep in 0.. {
            let mut changed = false;
            for c in 0..cols {
                let Some(r) = row_of[c] else { continue };
                let through = dist[c] - cost(r, c);
                for c2 in 0..cols {
                    if c2 == c {
                        continue;
                    }
                    let alt = through + cost(r, c2);
                    if alt < dist[c2] {
                        dist[c2] = alt;
                        parent[c2] = Some(c);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            debug_assert!(sweep <= cols, "Bellman-Ford failed to converge");
        }
        // Cheapest free column ends the augmenting path (lowest index on a
        // tie, matching the ascending scan).
        let mut end = None;
        for (c, &d) in dist.iter().enumerate() {
            if row_of[c].is_none() && end.is_none_or(|(_, best)| d < best) {
                end = Some((c, d));
            }
        }
        let (mut c, _) = end.expect("rows <= cols leaves a free column");
        // Augment: every column on the path takes its parent's row; the
        // path head takes the new row.
        while let Some(pc) = parent[c] {
            row_of[c] = row_of[pc];
            c = pc;
        }
        row_of[c] = Some(r0);
    }
    (0..cols)
        .filter_map(|c| row_of[c].map(|r| (r, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive optimum by branch-and-bound over all task->worker
    /// injections: maximize cardinality, then minimize total cost.
    fn brute_force<F, C>(
        num_tasks: usize,
        num_workers: usize,
        feasible: &F,
        cost: &C,
    ) -> (usize, f64)
    where
        F: Fn(usize, usize) -> bool,
        C: Fn(usize, usize) -> f64,
    {
        #[allow(
            clippy::too_many_arguments,
            reason = "recursive brute force threads its whole search state explicitly"
        )]
        fn go<F, C>(
            t: usize,
            num_tasks: usize,
            num_workers: usize,
            used: &mut Vec<bool>,
            size: usize,
            total: f64,
            best: &mut (usize, f64),
            feasible: &F,
            cost: &C,
        ) where
            F: Fn(usize, usize) -> bool,
            C: Fn(usize, usize) -> f64,
        {
            if t == num_tasks {
                if size > best.0 || (size == best.0 && total < best.1) {
                    *best = (size, total);
                }
                return;
            }
            // Drop task t.
            go(
                t + 1,
                num_tasks,
                num_workers,
                used,
                size,
                total,
                best,
                feasible,
                cost,
            );
            for w in 0..num_workers {
                if !used[w] && feasible(t, w) {
                    used[w] = true;
                    go(
                        t + 1,
                        num_tasks,
                        num_workers,
                        used,
                        size + 1,
                        total + cost(t, w),
                        best,
                        feasible,
                        cost,
                    );
                    used[w] = false;
                }
            }
        }
        let mut best = (0usize, f64::INFINITY);
        let mut used = vec![false; num_workers];
        go(
            0,
            num_tasks,
            num_workers,
            &mut used,
            0,
            0.0,
            &mut best,
            feasible,
            cost,
        );
        if best.0 == 0 {
            best.1 = 0.0;
        }
        (best.0, best.1)
    }

    /// Deterministic integer cost in `0..=15` from the pattern id.
    fn tie_heavy_cost(pattern: u64) -> impl Fn(usize, usize) -> f64 {
        move |t, w| {
            let x = pattern
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((t as u64) << 8)
                .wrapping_add(w as u64);
            let x = x ^ (x >> 29);
            (x % 16) as f64
        }
    }

    #[test]
    fn exhaustive_feasibility_patterns_match_brute_force() {
        // Every feasibility bitmask on shapes up to 3x3 (incl. the empty
        // mask — zero overlap), with tie-heavy small-integer costs. All
        // arithmetic is exact, so totals compare bitwise.
        for (n, m) in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)] {
            for mask in 0u32..(1 << (n * m)) {
                let feasible = |t: usize, w: usize| mask & (1 << (t * m + w)) != 0;
                let cost = tie_heavy_cost(mask as u64);
                let got = ClairvoyantOptimal::solve(n, m, feasible, &cost);
                let (best_size, best_cost) = brute_force(n, m, &feasible, &cost);
                assert_eq!(got.size(), best_size, "{n}x{m} mask {mask:b}");
                assert_eq!(got.total_cost, best_cost, "{n}x{m} mask {mask:b}");
                assert_eq!(got.pairs.len() + got.dropped.len(), n);
                for &(t, w) in &got.pairs {
                    assert!(feasible(t, w), "{n}x{m} mask {mask:b}: infeasible pair");
                }
                let reference = ClairvoyantOptimal::solve_reference(n, m, feasible, &cost);
                assert_eq!(reference.size(), best_size, "{n}x{m} mask {mask:b} (bf)");
                assert_eq!(
                    reference.total_cost, best_cost,
                    "{n}x{m} mask {mask:b} (bf)"
                );
            }
        }
    }

    #[test]
    fn zero_overlap_drops_everything() {
        let got = ClairvoyantOptimal::solve(4, 5, |_, _| false, |_, _| 1.0);
        assert!(got.pairs.is_empty());
        assert_eq!(got.dropped, vec![0, 1, 2, 3]);
        assert_eq!(got.total_cost, 0.0);
        let reference = ClairvoyantOptimal::solve_reference(4, 5, |_, _| false, |_, _| 1.0);
        assert_eq!(got, reference);
    }

    #[test]
    fn empty_sides_are_fine() {
        let a = ClairvoyantOptimal::solve(0, 3, |_, _| true, |_, _| 1.0);
        assert!(a.pairs.is_empty() && a.dropped.is_empty());
        let b = ClairvoyantOptimal::solve(3, 0, |_, _| true, |_, _| 1.0);
        assert!(b.pairs.is_empty());
        assert_eq!(b.dropped, vec![0, 1, 2]);
        // An empty optimum costs +0.0, never the -0.0 `Sum` starts from.
        assert_eq!(a.total_cost.to_bits(), 0);
        assert_eq!(b.total_cost.to_bits(), 0);
    }

    #[test]
    fn full_feasibility_reduces_to_the_hungarian_optimum() {
        // With every edge feasible the clairvoyant optimum must cost
        // exactly what the plain engine computes.
        let cost = tie_heavy_cost(99);
        let plain = OfflineOptimal::solve(7, 9, &cost);
        let mut sorted = plain.pairs.clone();
        sorted.sort_unstable_by_key(|&(_, w)| w);
        let plain_total: f64 = sorted.iter().map(|&(t, w)| cost(t, w)).sum();
        let clair = ClairvoyantOptimal::solve(7, 9, |_, _| true, &cost);
        assert_eq!(clair.size(), 7);
        assert!(clair.dropped.is_empty());
        assert_eq!(clair.total_cost, plain_total);
    }

    #[test]
    fn engine_is_thread_invariant_and_reference_equivalent() {
        for seed in 0..12u64 {
            let n = 6 + (seed % 5) as usize;
            let m = 5 + (seed % 7) as usize;
            // Sparse-ish deterministic feasibility with some all-zero rows.
            let feasible = move |t: usize, w: usize| {
                let x = seed
                    .wrapping_mul(0xA076_1D64_78BD_642F)
                    .wrapping_add((t as u64) << 16)
                    .wrapping_add(w as u64);
                let x = x ^ (x >> 31);
                x % 3 != 0
            };
            let cost = tie_heavy_cost(seed.wrapping_add(7));
            let reference = ClairvoyantOptimal::solve_reference(n, m, feasible, &cost);
            let base = ClairvoyantOptimal::solve_with_threads(n, m, feasible, &cost, 1);
            assert_eq!(base.size(), reference.size(), "seed {seed}");
            assert_eq!(base.total_cost, reference.total_cost, "seed {seed}");
            for threads in [2, 7] {
                let t = ClairvoyantOptimal::solve_with_threads(n, m, feasible, &cost, threads);
                assert_eq!(t, base, "seed {seed} threads {threads}");
            }
        }
    }
}
