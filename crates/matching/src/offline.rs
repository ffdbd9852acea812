//! Exact offline minimum-cost bipartite matching.
//!
//! `OPT` in the competitive-ratio definition (Definition 8) is the minimum
//! total distance matching when *all* tasks and workers are known in
//! advance. This module implements the Hungarian algorithm in its successive
//! shortest augmenting path form with dual potentials — `O(k²·max(n,m))`
//! for `k = min(n,m)`.
//!
//! # Performance shape
//!
//! The historical formulation re-invoked the cost closure on every probe,
//! evaluating `O(k²·max(n,m))` Euclidean square roots; it survives as
//! [`OfflineOptimal::solve_reference`], the equivalence oracle for the
//! tests. The production engine instead works
//! cache-blocked, in three stacked layers (each bit-identical to the
//! last):
//!
//! 1. **Dense materialization** — the generic closure path evaluates each
//!    cost once into a row-major buffer; every probe becomes a sequential
//!    load. For Euclidean instances past the ~32 MB crossover
//!    (`EUCLID_DENSE_MAX_CELLS`), where the matrix would stream from
//!    memory, the kernels instead recompute `Point::dist` from the
//!    cache-resident coordinate arrays — the same correctly-rounded
//!    `sub/mul/add/sqrt`, so the value is bit-identical either way.
//! 2. **Fused SIMD scan** — each augmenting step's dual update and
//!    column-minimum scan run as one branch-free pass (AVX-512F or AVX2
//!    when the CPU has them, runtime-detected; an element-equivalent
//!    scalar kernel otherwise). Per-element IEEE operations match the
//!    textbook loop exactly, and the `(minimum, lowest column)` reduction
//!    reproduces the ascending scan's strict-`<` tie rule.
//! 3. **Blocked threading** — [`OfflineOptimal::solve_with_threads`]
//!    gives each `crossbeam` scoped thread a contiguous column block,
//!    synchronized per step by spin barriers; block minima combine in
//!    `(cost, lowest column)` order. The augmenting path, the final
//!    pairing and the total cost are **bit-identical at every thread
//!    count** — the same shard-invariance contract the sweep engine
//!    guarantees.

use crate::Matching;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Exact min-cost bipartite matching over an explicit cost function.
#[derive(Debug, Clone, Copy, Default)]
pub struct OfflineOptimal;

/// Below this many columns a parallel solve falls back to the sequential
/// scan: the per-step reduction is too small to amortize synchronization.
/// The fallback never changes the result — only wall-clock.
const PARALLEL_MIN_COLS: usize = 1024;

/// Minimum column-block size handed to one thread; caps the effective
/// thread count on mid-size instances so blocks stay cache-line friendly.
const MIN_BLOCK_COLS: usize = 256;

/// Crossover for Euclidean instances: at or below this many matrix cells
/// (2048², a 32 MB f64 matrix) the materialized dense path wins because
/// the matrix stays cache-resident; above it, streaming the matrix from
/// memory loses to recomputing distances in-kernel from the coordinate
/// arrays. Both paths are bit-identical — the cutover is purely a
/// wall-clock choice.
const EUCLID_DENSE_MAX_CELLS: usize = 1 << 22;

impl OfflineOptimal {
    /// Computes a minimum-total-cost matching of size `min(num_tasks,
    /// num_workers)`; `cost(t, w)` gives the edge cost.
    ///
    /// Costs must be finite and non-negative. Equivalent to
    /// [`OfflineOptimal::solve_with_threads`] with one thread.
    pub fn solve<F>(num_tasks: usize, num_workers: usize, cost: F) -> Matching
    where
        F: Fn(usize, usize) -> f64,
    {
        Self::solve_oriented(num_tasks, num_workers, 1, cost)
    }

    /// [`OfflineOptimal::solve`] with the inner column scan sharded over
    /// `threads` scoped threads (`0` = one per available core).
    ///
    /// The result is bit-identical for every thread count, including the
    /// sequential `threads = 1` path — parallelism only trades wall-clock
    /// for cores.
    pub fn solve_with_threads<F>(
        num_tasks: usize,
        num_workers: usize,
        threads: usize,
        cost: F,
    ) -> Matching
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        Self::solve_oriented(num_tasks, num_workers, resolve_threads(threads), cost)
    }

    fn solve_oriented<F>(num_tasks: usize, num_workers: usize, threads: usize, cost: F) -> Matching
    where
        F: Fn(usize, usize) -> f64,
    {
        if num_tasks == 0 || num_workers == 0 {
            return Matching::new();
        }
        // The potentials formulation needs rows ≤ columns; swap sides when
        // there are more tasks than workers.
        if num_tasks <= num_workers {
            let a = materialize(num_tasks, num_workers, &cost);
            let matrix = CostMatrix::Dense {
                a: &a,
                cols: num_workers,
            };
            let assignment = hungarian_dense(num_tasks, matrix, threads);
            Matching { pairs: assignment }
        } else {
            let a = materialize(num_workers, num_tasks, &|r, c| cost(c, r));
            let matrix = CostMatrix::Dense {
                a: &a,
                cols: num_tasks,
            };
            let assignment = hungarian_dense(num_workers, matrix, threads);
            Matching {
                pairs: assignment.into_iter().map(|(w, t)| (t, w)).collect(),
            }
        }
    }

    /// Convenience wrapper over Euclidean points: minimizes total travel
    /// distance between `tasks` and `workers`.
    pub fn solve_euclidean(tasks: &[pombm_geom::Point], workers: &[pombm_geom::Point]) -> Matching {
        Self::solve_euclidean_with_threads(tasks, workers, 1)
    }

    /// [`OfflineOptimal::solve_euclidean`] over `threads` scoped threads
    /// (`0` = auto); bit-identical to the sequential path and to the
    /// generic closure path.
    ///
    /// Point instances skip matrix materialization entirely: the scan
    /// kernels recompute [`pombm_geom::Point::dist`] from the coordinate
    /// arrays (structure-of-arrays, cache-resident) with the same
    /// correctly-rounded operations, which at large `k` beats streaming a
    /// `k²` matrix from memory — and squared differences make the
    /// row/column orientation swap exact.
    pub fn solve_euclidean_with_threads(
        tasks: &[pombm_geom::Point],
        workers: &[pombm_geom::Point],
        threads: usize,
    ) -> Matching {
        if tasks.is_empty() || workers.is_empty() {
            return Matching::new();
        }
        let threads = resolve_threads(threads);
        if tasks.len().saturating_mul(workers.len()) <= EUCLID_DENSE_MAX_CELLS {
            // Cache-resident regime: the materialized matrix beats
            // in-kernel square roots.
            return Self::solve_oriented(tasks.len(), workers.len(), threads, |t, w| {
                tasks[t].dist(&workers[w])
            });
        }
        let (tx, ty): (Vec<f64>, Vec<f64>) = tasks.iter().map(|p| (p.x, p.y)).unzip();
        let (wx, wy): (Vec<f64>, Vec<f64>) = workers.iter().map(|p| (p.x, p.y)).unzip();
        if tasks.len() <= workers.len() {
            let matrix = CostMatrix::Euclid {
                row_x: &tx,
                row_y: &ty,
                col_x: &wx,
                col_y: &wy,
            };
            Matching {
                pairs: hungarian_dense(tasks.len(), matrix, threads),
            }
        } else {
            let matrix = CostMatrix::Euclid {
                row_x: &wx,
                row_y: &wy,
                col_x: &tx,
                col_y: &ty,
            };
            let assignment = hungarian_dense(workers.len(), matrix, threads);
            Matching {
                pairs: assignment.into_iter().map(|(w, t)| (t, w)).collect(),
            }
        }
    }

    /// The pre-refactor solver: probes the cost closure on every scan step
    /// instead of materializing the matrix, single-threaded.
    ///
    /// Kept verbatim as the equivalence oracle — proptests pin the dense
    /// and parallel paths to its exact pairs. Not for production use.
    pub fn solve_reference<F>(num_tasks: usize, num_workers: usize, cost: F) -> Matching
    where
        F: Fn(usize, usize) -> f64,
    {
        if num_tasks == 0 || num_workers == 0 {
            return Matching::new();
        }
        if num_tasks <= num_workers {
            let assignment = hungarian_reference(num_tasks, num_workers, &cost);
            Matching { pairs: assignment }
        } else {
            let assignment = hungarian_reference(num_workers, num_tasks, |r, c| cost(c, r));
            Matching {
                pairs: assignment.into_iter().map(|(w, t)| (t, w)).collect(),
            }
        }
    }
}

/// Resolves a user-facing thread count: `0` means one per available core.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Evaluates the cost function once per cell into a dense row-major
/// `rows × cols` buffer.
fn materialize<F: Fn(usize, usize) -> f64>(rows: usize, cols: usize, cost: &F) -> Vec<f64> {
    let mut a = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = cost(r, c);
            debug_assert!(v.is_finite(), "cost({r}, {c}) must be finite");
            a.push(v);
        }
    }
    a
}

/// How the engine reads edge costs.
///
/// `Dense` is the generic path: the closure was materialized once into a
/// row-major buffer. `Euclid` is the cache-blocked specialization for
/// point instances: costs are recomputed inside the scan kernel from the
/// two coordinate arrays (a few hundred KB that live in cache), because at
/// `k ≳ 4096` streaming a multi-hundred-MB dense matrix from memory costs
/// more than eight-lane `sub/mul/add/sqrt` — every operation of
/// [`pombm_geom::Point::dist`], correctly rounded, so the computed cost is
/// bit-identical to the materialized one.
#[derive(Clone, Copy)]
enum CostMatrix<'a> {
    Dense {
        a: &'a [f64],
        cols: usize,
    },
    Euclid {
        row_x: &'a [f64],
        row_y: &'a [f64],
        col_x: &'a [f64],
        col_y: &'a [f64],
    },
}

/// One scan step's view of row `i0`: a dense row slice, or the row point
/// whose distances the kernel computes against the block's column points.
#[derive(Clone, Copy)]
enum RowData<'a> {
    Slice(&'a [f64]),
    Point { x: f64, y: f64 },
}

impl<'a> CostMatrix<'a> {
    /// Number of columns.
    fn cols(&self) -> usize {
        match *self {
            CostMatrix::Dense { a, cols } => {
                debug_assert!(cols == 0 || a.len() % cols == 0);
                cols
            }
            CostMatrix::Euclid { col_x, .. } => col_x.len(),
        }
    }

    /// Row `i0` (1-indexed) restricted to columns `[lo, hi)` (1-indexed).
    fn row_data(&self, i0: usize, lo: usize, hi: usize) -> RowData<'a> {
        match *self {
            CostMatrix::Dense { a, cols } => {
                let base = (i0 - 1) * cols;
                RowData::Slice(&a[base + lo - 1..base + hi - 1])
            }
            CostMatrix::Euclid { row_x, row_y, .. } => RowData::Point {
                x: row_x[i0 - 1],
                y: row_y[i0 - 1],
            },
        }
    }

    /// Column coordinates restricted to `[lo, hi)` (1-indexed); empty in
    /// dense mode.
    fn col_block(&self, lo: usize, hi: usize) -> (&'a [f64], &'a [f64]) {
        match *self {
            CostMatrix::Dense { .. } => (&[], &[]),
            CostMatrix::Euclid { col_x, col_y, .. } => {
                (&col_x[lo - 1..hi - 1], &col_y[lo - 1..hi - 1])
            }
        }
    }
}

/// Hungarian algorithm (shortest augmenting paths with potentials) over a
/// [`CostMatrix`], `rows ≤ cols`. Returns `(row, col)` pairs for every
/// row.
///
/// One blocked engine drives both execution modes: a single block run
/// inline (the sequential path) or one contiguous column block per scoped
/// thread synchronized step-wise by spin barriers. Every block executes
/// the same fused kernel — apply the previous step's dual update, mark the
/// newly-used column, scan for the block's `(minimum, lowest column)` —
/// with identical per-element IEEE operations in the AVX-512, AVX2 and
/// scalar kernels, so results are bit-identical across thread counts and
/// ISA paths.
fn hungarian_dense(rows: usize, matrix: CostMatrix<'_>, threads: usize) -> Vec<(usize, usize)> {
    let cols = matrix.cols();
    debug_assert!(rows <= cols);
    let threads = threads.min(cols.div_ceil(MIN_BLOCK_COLS)).max(1);
    if threads > 1 && cols >= PARALLEL_MIN_COLS {
        hungarian_blocked(rows, matrix, threads)
    } else {
        hungarian_blocked(rows, matrix, 1)
    }
}

/// A sense-reversing barrier that spins briefly before yielding, so steps
/// synchronize in sub-microsecond time when threads have dedicated cores
/// yet degrade gracefully under oversubscription (e.g. inside a sharded
/// sweep).
struct StepBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl StepBarrier {
    fn new(total: usize) -> Self {
        StepBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            self.generation.store(generation + 1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins += 1;
                if spins < 4096 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Commands the coordinator publishes to the scan threads.
const CMD_SCAN: usize = 0;
const CMD_FLUSH: usize = 1;
const CMD_DONE: usize = 2;

/// Sentinel for "no column to mark used this step".
const NO_MARK: usize = usize::MAX;

/// One step of work, fully described. `delta` is the previous step's dual
/// update (fused into this step's pass), `mark` the column selected by the
/// previous step — it was unused when `delta` was issued, so its potential
/// is exempt from the update even though the scan must now skip it.
#[derive(Clone, Copy)]
enum Step<'r> {
    Scan {
        row: RowData<'r>,
        u_i0: f64,
        j0: usize,
        delta: Option<f64>,
        mark: Option<usize>,
        row_start: bool,
    },
    Flush {
        delta: f64,
    },
}

/// Step state shared between the coordinator and the scan threads; every
/// field is published before a barrier and read after it, so `Relaxed`
/// element accesses are ordered by the barrier's acquire/release pairs.
struct StepState {
    command: AtomicUsize,
    /// Row index `i0` driving this scan (1-indexed; threads re-derive
    /// their row view from the shared [`CostMatrix`]).
    i0: AtomicUsize,
    /// `u[i0]` of that row, as f64 bits.
    u_i0: AtomicU64,
    /// Origin column of this scan (for `way`).
    j0: AtomicUsize,
    /// Pending dual update from the previous step, as f64 bits;
    /// meaningful only when `has_pending`.
    pending: AtomicU64,
    has_pending: AtomicBool,
    /// Column to mark used before scanning ([`NO_MARK`] = none).
    mark: AtomicUsize,
    /// Set on the first step of each row: blocks reset their slices
    /// before scanning.
    row_start: AtomicBool,
}

impl StepState {
    fn publish(&self, step: &Step<'_>, i0: usize) {
        match *step {
            Step::Scan {
                u_i0,
                j0,
                delta,
                mark,
                row_start,
                ..
            } => {
                self.command.store(CMD_SCAN, Ordering::Relaxed);
                self.i0.store(i0, Ordering::Relaxed);
                self.u_i0.store(u_i0.to_bits(), Ordering::Relaxed);
                self.j0.store(j0, Ordering::Relaxed);
                self.pending
                    .store(delta.unwrap_or(0.0).to_bits(), Ordering::Relaxed);
                self.has_pending.store(delta.is_some(), Ordering::Relaxed);
                self.mark.store(mark.unwrap_or(NO_MARK), Ordering::Relaxed);
                self.row_start.store(row_start, Ordering::Relaxed);
            }
            Step::Flush { delta } => {
                self.command.store(CMD_FLUSH, Ordering::Relaxed);
                self.pending.store(delta.to_bits(), Ordering::Relaxed);
            }
        }
    }

    fn recover<'r>(&self, matrix: &CostMatrix<'r>, lo: usize, hi: usize) -> Step<'r> {
        match self.command.load(Ordering::Relaxed) {
            CMD_FLUSH => Step::Flush {
                delta: f64::from_bits(self.pending.load(Ordering::Relaxed)),
            },
            _ => {
                let i0 = self.i0.load(Ordering::Relaxed);
                let mark = self.mark.load(Ordering::Relaxed);
                Step::Scan {
                    row: matrix.row_data(i0, lo, hi),
                    u_i0: f64::from_bits(self.u_i0.load(Ordering::Relaxed)),
                    j0: self.j0.load(Ordering::Relaxed),
                    delta: self
                        .has_pending
                        .load(Ordering::Relaxed)
                        .then(|| f64::from_bits(self.pending.load(Ordering::Relaxed))),
                    mark: match mark {
                        NO_MARK => None,
                        m => Some(m),
                    },
                    row_start: self.row_start.load(Ordering::Relaxed),
                }
            }
        }
    }
}

/// Per-block reduction slot, padded to its own cache line to avoid false
/// sharing between adjacent blocks.
#[repr(align(64))]
struct BlockMin {
    /// Smallest `minv` in the block, as f64 bits (`INF` when empty).
    best: AtomicU64,
    /// Lowest column attaining it.
    best_j: AtomicUsize,
}

/// One thread's owned state: a contiguous column block `[lo, hi)` of the
/// 1-indexed column range plus its slices of the per-column arrays.
/// `used_f` encodes "column is used" in the f64 sign bit (`-0.0` used,
/// `+0.0` free), which is exactly the lane-select predicate of
/// `vblendvpd` — the kernels stay branch-free. `col_x`/`col_y` hold the
/// block's column coordinates in Euclid mode (empty for dense).
struct Block<'a> {
    lo: usize,
    hi: usize,
    v: &'a mut [f64],
    minv: &'a mut [f64],
    used_f: &'a mut [f64],
    col_x: &'a [f64],
    col_y: &'a [f64],
}

impl Block<'_> {
    /// Executes one step on this block; returns the block's
    /// `(minimum, lowest column)` candidate for `Step::Scan`.
    fn step(&mut self, step: &Step<'_>, way: &[AtomicUsize]) -> (f64, usize) {
        match *step {
            Step::Flush { delta } => {
                // End of row: apply the last pending update so `v` is
                // exact for the next row. The column the final step
                // selected was never marked used, so the masked update
                // leaves its potential alone — exactly the sequential
                // skip rule.
                apply_update(self.v, self.minv, self.used_f, delta);
                (f64::INFINITY, 0)
            }
            Step::Scan {
                row,
                u_i0,
                j0,
                delta,
                mark,
                row_start,
            } => {
                if row_start {
                    self.minv.fill(f64::INFINITY);
                    self.used_f.fill(0.0);
                }
                // Mark before the fused pass; the saved potential undoes
                // the one update the masked subtract will now wrongly
                // apply to the freshly-marked column (it was unused when
                // `delta` was issued). Store/restore, not arithmetic —
                // exactness is what makes the fusion legal.
                let saved = mark.and_then(|m| {
                    (self.lo..self.hi).contains(&m).then(|| {
                        let k = m - self.lo;
                        self.minv[k] = f64::INFINITY;
                        self.used_f[k] = -0.0;
                        (k, self.v[k])
                    })
                });
                let (best, best_j) = fused_scan(
                    self.v,
                    self.minv,
                    self.used_f,
                    row,
                    self.col_x,
                    self.col_y,
                    u_i0,
                    delta,
                    j0,
                    self.lo,
                    way,
                );
                if let Some((k, v_saved)) = saved {
                    if delta.is_some() {
                        self.v[k] = v_saved;
                    }
                }
                (best, best_j)
            }
        }
    }
}

/// The fused dual-update + column-minimum scan over one block.
/// Dispatches to the widest kernel the CPU has; all kernels perform the
/// identical per-element operations.
#[allow(
    clippy::too_many_arguments,
    reason = "the scan consumes the solver's whole working set; separate slice parameters keep the mutable borrows disjoint"
)]
#[allow(
    unsafe_code,
    reason = "calls the AVX kernels, each only after detecting its feature at runtime"
)]
fn fused_scan(
    v: &mut [f64],
    minv: &mut [f64],
    used_f: &[f64],
    row: RowData<'_>,
    col_x: &[f64],
    col_y: &[f64],
    u_i0: f64,
    delta: Option<f64>,
    j0: usize,
    lo: usize,
    way: &[AtomicUsize],
) -> (f64, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the AVX-512F feature was just detected at runtime.
            return unsafe {
                fused_scan_avx512(v, minv, used_f, row, col_x, col_y, u_i0, delta, j0, lo, way)
            };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature was just detected at runtime.
            return unsafe {
                fused_scan_avx2(v, minv, used_f, row, col_x, col_y, u_i0, delta, j0, lo, way)
            };
        }
    }
    fused_scan_scalar(
        v, minv, used_f, row, col_x, col_y, u_i0, delta, j0, lo, way, 0,
    )
}

/// Scalar kernel: the element-wise reference the vector kernels mirror.
/// `from` supports tail processing after a vectorized prefix.
#[allow(
    clippy::too_many_arguments,
    reason = "same working-set signature as `fused_scan`, plus the tail start"
)]
fn fused_scan_scalar(
    v: &mut [f64],
    minv: &mut [f64],
    used_f: &[f64],
    row: RowData<'_>,
    col_x: &[f64],
    col_y: &[f64],
    u_i0: f64,
    delta: Option<f64>,
    j0: usize,
    lo: usize,
    way: &[AtomicUsize],
    from: usize,
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut best_j = 0usize;
    for k in from..minv.len() {
        let used = used_f[k].is_sign_negative();
        if let Some(d) = delta {
            // The sequential split: `v -= δ` for used columns,
            // `minv -= δ` for free ones. Used `minv` is pinned at +∞, so
            // the unconditional subtraction leaves it there.
            minv[k] -= d;
            if used {
                v[k] -= d;
            }
        }
        let cost = match row {
            RowData::Slice(r) => r[k],
            RowData::Point { x, y } => {
                // Exactly `Point::dist`: sub, mul, add, sqrt — each
                // correctly rounded, so recomputation equals the
                // materialized value bit-for-bit.
                let dx = x - col_x[k];
                let dy = y - col_y[k];
                (dx * dx + dy * dy).sqrt()
            }
        };
        let cur = cost - u_i0 - v[k];
        let cur = if used { f64::INFINITY } else { cur };
        if cur < minv[k] {
            minv[k] = cur;
            way[lo + k].store(j0, Ordering::Relaxed);
        }
        if minv[k] < best {
            best = minv[k];
            best_j = lo + k;
        }
    }
    (best, best_j)
}

/// Shared lane-fold: resolves per-lane `(minimum, first column)` partials
/// in `(value, lowest column)` order — the ascending scan's strict-< rule
/// — then folds in the scalar tail (tail columns are larger, so ties keep
/// the vector winner).
fn fold_lanes(best_arr: &[f64], j_arr: &[i64], tail: (f64, usize)) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut best_j = 0usize;
    for lane in 0..best_arr.len() {
        let (val, col) = (best_arr[lane], j_arr[lane] as usize);
        if val < best || (val == best && col != 0 && (best_j == 0 || col < best_j)) {
            best = val;
            best_j = col;
        }
    }
    if tail.0 < best {
        return tail;
    }
    (best, best_j)
}

/// AVX2 kernel: four columns per lane-step, branch-free via sign-select
/// blends. Per-element arithmetic — `minv − δ`, `v − δ` (used lanes only),
/// `cost − u_i0 − v`, strict `<` updates — is exactly the scalar kernel's,
/// so live values are bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(
    clippy::too_many_arguments,
    reason = "same working-set signature as the scalar reference kernel"
)]
#[allow(
    unsafe_code,
    reason = "AVX2 intrinsics; `fused_scan` calls this only after detecting AVX2"
)]
// SAFETY: callers must have detected AVX2 at runtime. Every slice spans
// the full block, so all lane accesses below `minv.len()` are in bounds.
unsafe fn fused_scan_avx2(
    v: &mut [f64],
    minv: &mut [f64],
    used_f: &[f64],
    row: RowData<'_>,
    col_x: &[f64],
    col_y: &[f64],
    u_i0: f64,
    delta: Option<f64>,
    j0: usize,
    lo: usize,
    way: &[AtomicUsize],
) -> (f64, usize) {
    use std::arch::x86_64::*;

    // The closure-parameterized inner loop; shares the outer kernel's
    // working set plus the per-lane cost source.
    #[inline(always)]
    #[allow(
        clippy::too_many_arguments,
        reason = "the outer kernel's working set plus the per-lane cost source"
    )]
    // SAFETY: callers run this with AVX2 enabled and pass `vec_n` no
    // larger than any slice's length; `cost4(k)` must be in bounds for
    // all `k < vec_n`.
    unsafe fn run(
        v: &mut [f64],
        minv: &mut [f64],
        used_f: &[f64],
        cost4: impl Fn(usize) -> __m256d,
        u_i0: f64,
        delta: Option<f64>,
        j0: usize,
        lo: usize,
        way: &[AtomicUsize],
        vec_n: usize,
    ) -> ([f64; 4], [i64; 4]) {
        // SAFETY: the caller upholds this fn's contract — AVX2 enabled,
        // `vec_n` within every slice — so each unaligned load/store at
        // `k < vec_n` is in bounds.
        unsafe {
            const LANES: usize = 4;
            let inf_v = _mm256_set1_pd(f64::INFINITY);
            let u_v = _mm256_set1_pd(u_i0);
            let delta_v = _mm256_set1_pd(delta.unwrap_or(0.0));
            let has_delta = delta.is_some();
            let mut best_v = inf_v;
            let mut best_j_v = _mm256_setzero_si256();
            let mut j_v =
                _mm256_setr_epi64x(lo as i64, lo as i64 + 1, lo as i64 + 2, lo as i64 + 3);
            let step_v = _mm256_set1_epi64x(LANES as i64);

            let mut k = 0usize;
            while k < vec_n {
                let uf = _mm256_loadu_pd(used_f.as_ptr().add(k));
                let mut mv = _mm256_loadu_pd(minv.as_ptr().add(k));
                let mut vv = _mm256_loadu_pd(v.as_ptr().add(k));
                if has_delta {
                    mv = _mm256_sub_pd(mv, delta_v);
                    // Sign-select: used lanes take `v − δ`, free lanes keep `v`.
                    vv = _mm256_blendv_pd(vv, _mm256_sub_pd(vv, delta_v), uf);
                    _mm256_storeu_pd(v.as_mut_ptr().add(k), vv);
                }
                let cur = _mm256_sub_pd(_mm256_sub_pd(cost4(k), u_v), vv);
                let cur = _mm256_blendv_pd(cur, inf_v, uf);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(cur, mv);
                mv = _mm256_blendv_pd(mv, cur, lt);
                _mm256_storeu_pd(minv.as_mut_ptr().add(k), mv);
                let hit = _mm256_movemask_pd(lt);
                if hit != 0 {
                    // Rare past the first steps of a row: record the scan
                    // origin for path unwinding, lane by lane.
                    for lane in 0..LANES {
                        if hit & (1 << lane) != 0 {
                            way[lo + k + lane].store(j0, Ordering::Relaxed);
                        }
                    }
                }
                let better = _mm256_cmp_pd::<_CMP_LT_OQ>(mv, best_v);
                best_v = _mm256_blendv_pd(best_v, mv, better);
                best_j_v = _mm256_blendv_epi8(best_j_v, j_v, _mm256_castpd_si256(better));
                j_v = _mm256_add_epi64(j_v, step_v);
                k += LANES;
            }
            let mut best_arr = [0f64; 4];
            let mut j_arr = [0i64; 4];
            _mm256_storeu_pd(best_arr.as_mut_ptr(), best_v);
            _mm256_storeu_si256(j_arr.as_mut_ptr().cast(), best_j_v);
            (best_arr, j_arr)
        }
    }

    let n = minv.len();
    let vec_n = n - n % 4;
    let (best_arr, j_arr) = match row {
        // SAFETY: this fn's own contract matches `run`'s — AVX2 is on and
        // `vec_n <= minv.len() <= r.len()` keeps the closure loads in bounds.
        RowData::Slice(r) => unsafe {
            run(
                v,
                minv,
                used_f,
                |k| _mm256_loadu_pd(r.as_ptr().add(k)),
                u_i0,
                delta,
                j0,
                lo,
                way,
                vec_n,
            )
        },
        RowData::Point { x, y } => {
            let tx = _mm256_set1_pd(x);
            let ty = _mm256_set1_pd(y);
            // SAFETY: as above; `col_x`/`col_y` span the full block, so the
            // closure loads at `k < vec_n` are in bounds.
            unsafe {
                run(
                    v,
                    minv,
                    used_f,
                    |k| {
                        let dx = _mm256_sub_pd(tx, _mm256_loadu_pd(col_x.as_ptr().add(k)));
                        let dy = _mm256_sub_pd(ty, _mm256_loadu_pd(col_y.as_ptr().add(k)));
                        _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)))
                    },
                    u_i0,
                    delta,
                    j0,
                    lo,
                    way,
                    vec_n,
                )
            }
        }
    };
    let tail = fused_scan_scalar(
        v, minv, used_f, row, col_x, col_y, u_i0, delta, j0, lo, way, vec_n,
    );
    fold_lanes(&best_arr, &j_arr, tail)
}

/// AVX-512F kernel: eight columns per lane-step with native write masks.
/// Same per-element operations and `(value, lowest column)` reduction as
/// the scalar and AVX2 kernels — bit-identical results, wider lanes. The
/// "used" predicate is the f64 sign bit, recovered with an integer
/// compare (`-0.0` is `i64::MIN`), so only the F subset is required.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(
    clippy::too_many_arguments,
    reason = "same working-set signature as the scalar reference kernel"
)]
#[allow(
    unsafe_code,
    reason = "AVX-512F intrinsics; `fused_scan` calls this only after detecting AVX-512F"
)]
// SAFETY: callers must have detected AVX-512F at runtime. Every slice
// spans the full block, so all lane accesses below `minv.len()` are in
// bounds.
unsafe fn fused_scan_avx512(
    v: &mut [f64],
    minv: &mut [f64],
    used_f: &[f64],
    row: RowData<'_>,
    col_x: &[f64],
    col_y: &[f64],
    u_i0: f64,
    delta: Option<f64>,
    j0: usize,
    lo: usize,
    way: &[AtomicUsize],
) -> (f64, usize) {
    use std::arch::x86_64::*;

    // The closure-parameterized inner loop; shares the outer kernel's
    // working set plus the per-lane cost source.
    #[inline(always)]
    #[allow(
        clippy::too_many_arguments,
        reason = "the outer kernel's working set plus the per-lane cost source"
    )]
    // SAFETY: callers run this with AVX-512F enabled and pass `vec_n` no
    // larger than any slice's length; `cost8(k)` must be in bounds for
    // all `k < vec_n`.
    unsafe fn run(
        v: &mut [f64],
        minv: &mut [f64],
        used_f: &[f64],
        cost8: impl Fn(usize) -> __m512d,
        u_i0: f64,
        delta: Option<f64>,
        j0: usize,
        lo: usize,
        way: &[AtomicUsize],
        vec_n: usize,
    ) -> ([f64; 8], [i64; 8]) {
        // SAFETY: the caller upholds this fn's contract — AVX-512F
        // enabled, `vec_n` within every slice — so each unaligned
        // load/store at `k < vec_n` is in bounds.
        unsafe {
            const LANES: usize = 8;
            let inf_v = _mm512_set1_pd(f64::INFINITY);
            let u_v = _mm512_set1_pd(u_i0);
            let delta_v = _mm512_set1_pd(delta.unwrap_or(0.0));
            let has_delta = delta.is_some();
            let mut best_v = inf_v;
            let mut best_j_v = _mm512_setzero_si512();
            let mut j_v = _mm512_setr_epi64(
                lo as i64,
                lo as i64 + 1,
                lo as i64 + 2,
                lo as i64 + 3,
                lo as i64 + 4,
                lo as i64 + 5,
                lo as i64 + 6,
                lo as i64 + 7,
            );
            let step_v = _mm512_set1_epi64(LANES as i64);
            let zero_i = _mm512_setzero_si512();

            let mut k = 0usize;
            while k < vec_n {
                let uf = _mm512_loadu_pd(used_f.as_ptr().add(k));
                let used_m = _mm512_cmplt_epi64_mask(_mm512_castpd_si512(uf), zero_i);
                let mut mv = _mm512_loadu_pd(minv.as_ptr().add(k));
                let mut vv = _mm512_loadu_pd(v.as_ptr().add(k));
                if has_delta {
                    mv = _mm512_sub_pd(mv, delta_v);
                    vv = _mm512_mask_sub_pd(vv, used_m, vv, delta_v);
                    _mm512_storeu_pd(v.as_mut_ptr().add(k), vv);
                }
                let cur = _mm512_sub_pd(_mm512_sub_pd(cost8(k), u_v), vv);
                let cur = _mm512_mask_mov_pd(cur, used_m, inf_v);
                let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(cur, mv);
                mv = _mm512_mask_mov_pd(mv, lt, cur);
                _mm512_storeu_pd(minv.as_mut_ptr().add(k), mv);
                if lt != 0 {
                    for lane in 0..LANES {
                        if lt & (1 << lane) != 0 {
                            way[lo + k + lane].store(j0, Ordering::Relaxed);
                        }
                    }
                }
                let better = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(mv, best_v);
                best_v = _mm512_mask_mov_pd(best_v, better, mv);
                best_j_v = _mm512_mask_mov_epi64(best_j_v, better, j_v);
                j_v = _mm512_add_epi64(j_v, step_v);
                k += LANES;
            }
            let mut best_arr = [0f64; 8];
            let mut j_arr = [0i64; 8];
            _mm512_storeu_pd(best_arr.as_mut_ptr(), best_v);
            _mm512_storeu_si512(j_arr.as_mut_ptr().cast(), best_j_v);
            (best_arr, j_arr)
        }
    }

    let n = minv.len();
    let vec_n = n - n % 8;
    let (best_arr, j_arr) = match row {
        // SAFETY: this fn's own contract matches `run`'s — AVX-512F is on
        // and `vec_n <= minv.len() <= r.len()` keeps the closure loads in
        // bounds.
        RowData::Slice(r) => unsafe {
            run(
                v,
                minv,
                used_f,
                |k| _mm512_loadu_pd(r.as_ptr().add(k)),
                u_i0,
                delta,
                j0,
                lo,
                way,
                vec_n,
            )
        },
        RowData::Point { x, y } => {
            let tx = _mm512_set1_pd(x);
            let ty = _mm512_set1_pd(y);
            // SAFETY: as above; `col_x`/`col_y` span the full block, so the
            // closure loads at `k < vec_n` are in bounds.
            unsafe {
                run(
                    v,
                    minv,
                    used_f,
                    |k| {
                        let dx = _mm512_sub_pd(tx, _mm512_loadu_pd(col_x.as_ptr().add(k)));
                        let dy = _mm512_sub_pd(ty, _mm512_loadu_pd(col_y.as_ptr().add(k)));
                        _mm512_sqrt_pd(_mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)))
                    },
                    u_i0,
                    delta,
                    j0,
                    lo,
                    way,
                    vec_n,
                )
            }
        }
    };
    let tail = fused_scan_scalar(
        v, minv, used_f, row, col_x, col_y, u_i0, delta, j0, lo, way, vec_n,
    );
    fold_lanes(&best_arr, &j_arr, tail)
}

/// Applies a pending dual update without scanning (row-end flush):
/// `v −= δ` on used columns, `minv −= δ` elsewhere, element-exact.
fn apply_update(v: &mut [f64], minv: &mut [f64], used_f: &[f64], delta: f64) {
    for k in 0..minv.len() {
        minv[k] -= delta;
        if used_f[k].is_sign_negative() {
            v[k] -= delta;
        }
    }
}

/// The blocked Hungarian engine behind [`hungarian_dense`]: `threads`
/// contiguous column blocks execute each augmenting step in lock step
/// (inline when `threads == 1`), the coordinator combines block minima in
/// `(value, lowest column)` order and drives the row potentials.
fn hungarian_blocked(rows: usize, matrix: CostMatrix<'_>, threads: usize) -> Vec<(usize, usize)> {
    const INF: f64 = f64::INFINITY;
    let cols = matrix.cols();
    let mut u = vec![0.0f64; rows + 1];
    // Column-indexed shared arrays: `p` (column → matched row) is written
    // by the coordinator only between steps; `way` records each column's
    // scan origin for path unwinding.
    let p: Vec<AtomicUsize> = (0..=cols).map(|_| AtomicUsize::new(0)).collect();
    let way: Vec<AtomicUsize> = (0..=cols).map(|_| AtomicUsize::new(0)).collect();

    // Contiguous column blocks over the 1-indexed range [1, cols]; block 0
    // belongs to the coordinator.
    let chunk = cols.div_ceil(threads);
    let bounds: Vec<(usize, usize)> = (0..threads)
        .map(|t| (1 + t * chunk, (1 + (t + 1) * chunk).min(cols + 1)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    let workers = bounds.len();

    // Per-block ownership of v/minv/used_f as disjoint slices.
    let mut v_store = vec![0.0f64; cols];
    let mut minv_store = vec![INF; cols];
    let mut used_store = vec![0.0f64; cols];
    let mut blocks: Vec<Block<'_>> = Vec::with_capacity(workers);
    {
        let (mut v_rest, mut m_rest, mut u_rest) =
            (&mut v_store[..], &mut minv_store[..], &mut used_store[..]);
        for &(lo, hi) in &bounds {
            let (v_head, v_tail) = v_rest.split_at_mut(hi - lo);
            let (m_head, m_tail) = m_rest.split_at_mut(hi - lo);
            let (u_head, u_tail) = u_rest.split_at_mut(hi - lo);
            v_rest = v_tail;
            m_rest = m_tail;
            u_rest = u_tail;
            let (col_x, col_y) = matrix.col_block(lo, hi);
            blocks.push(Block {
                lo,
                hi,
                v: v_head,
                minv: m_head,
                used_f: u_head,
                col_x,
                col_y,
            });
        }
    }

    let state = StepState {
        command: AtomicUsize::new(CMD_SCAN),
        i0: AtomicUsize::new(1),
        u_i0: AtomicU64::new(0f64.to_bits()),
        j0: AtomicUsize::new(0),
        pending: AtomicU64::new(0),
        has_pending: AtomicBool::new(false),
        mark: AtomicUsize::new(NO_MARK),
        row_start: AtomicBool::new(true),
    };
    let mins: Vec<BlockMin> = (0..workers)
        .map(|_| BlockMin {
            best: AtomicU64::new(INF.to_bits()),
            best_j: AtomicUsize::new(0),
        })
        .collect();
    let start = StepBarrier::new(workers);
    let done = StepBarrier::new(workers);

    let mut result = Vec::with_capacity(rows);
    let mut own_block = blocks.remove(0);
    let (own_lo, own_hi) = (own_block.lo, own_block.hi);
    crossbeam::thread::scope(|scope| {
        // Blocks 1.. get scan threads (none in the inline/sequential mode).
        for (slot, mut block) in blocks.into_iter().enumerate() {
            let (state, way, start, done) = (&state, &way, &start, &done);
            let matrix = &matrix;
            let out = &mins[slot + 1];
            scope.spawn(move |_| loop {
                start.wait();
                if state.command.load(Ordering::Relaxed) == CMD_DONE {
                    done.wait();
                    return;
                }
                let step = state.recover(matrix, block.lo, block.hi);
                let (best, best_j) = block.step(&step, way);
                out.best.store(best.to_bits(), Ordering::Relaxed);
                out.best_j.store(best_j, Ordering::Relaxed);
                done.wait();
            });
        }

        // Executes one step across all blocks and returns the combined
        // (delta, column) minimum under the canonical tie rule.
        let mut run_step = |step: Step<'_>, i0: usize| -> (f64, usize) {
            if workers == 1 {
                return own_block.step(&step, &way);
            }
            state.publish(&step, i0);
            start.wait();
            let (own_best, own_j) = own_block.step(&step, &way);
            done.wait();
            let mut delta = own_best;
            let mut j1 = own_j;
            for m in &mins[1..] {
                let best = f64::from_bits(m.best.load(Ordering::Relaxed));
                // Strict <: ties keep the earlier (lower-column) block,
                // matching the ascending sequential scan.
                if best < delta {
                    delta = best;
                    j1 = m.best_j.load(Ordering::Relaxed);
                }
            }
            (delta, j1)
        };

        for i in 1..=rows {
            p[0].store(i, Ordering::Relaxed);
            // Columns marked used this row, in marking order; drives the
            // coordinator's `u[p[j]] += delta` updates (j = 0 stands for
            // the current row i).
            let mut used_cols: Vec<usize> = vec![0];
            let mut j0 = 0usize;
            let mut pending: Option<f64> = None;
            let mut mark: Option<usize> = None;
            let mut row_start = true;
            loop {
                let i0 = p[j0].load(Ordering::Relaxed);
                let (delta, j1) = run_step(
                    Step::Scan {
                        row: matrix.row_data(i0, own_lo, own_hi),
                        u_i0: u[i0],
                        j0,
                        delta: pending,
                        mark,
                        row_start,
                    },
                    i0,
                );
                row_start = false;
                debug_assert!(delta < INF, "graph must be complete");

                // The sequential loop applies `u[p[j]] += delta` for every
                // used column now; `v`/`minv` updates are fused into the
                // blocks' next pass.
                for &j in &used_cols {
                    let row = p[j].load(Ordering::Relaxed);
                    u[row] += delta;
                }
                pending = Some(delta);
                mark = Some(j1);

                j0 = j1;
                if p[j0].load(Ordering::Relaxed) == 0 {
                    // Flush the pending update so `v` is exact for the
                    // next row, then unwind the augmenting path.
                    run_step(Step::Flush { delta }, 0);
                    break;
                }
                used_cols.push(j0);
            }
            loop {
                let j1 = way[j0].load(Ordering::Relaxed);
                let moved = p[j1].load(Ordering::Relaxed);
                p[j0].store(moved, Ordering::Relaxed);
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        if workers > 1 {
            state.command.store(CMD_DONE, Ordering::Relaxed);
            start.wait();
            done.wait();
        }

        for (j, slot) in p.iter().enumerate().skip(1) {
            let row = slot.load(Ordering::Relaxed);
            if row != 0 {
                result.push((row - 1, j - 1));
            }
        }
    })
    .expect("hungarian scan threads never panic");
    result
}

/// The pre-refactor Hungarian: probes `cost` on every scan step
/// (`O(k²·max(n,m))` closure evaluations), `rows ≤ cols`.
fn hungarian_reference<F>(rows: usize, cols: usize, cost: F) -> Vec<(usize, usize)>
where
    F: Fn(usize, usize) -> f64,
{
    debug_assert!(rows <= cols);
    const INF: f64 = f64::INFINITY;
    let mut u = vec![0.0f64; rows + 1];
    let mut v = vec![0.0f64; cols + 1];
    let mut p = vec![0usize; cols + 1];
    let mut way = vec![0usize; cols + 1];

    for i in 1..=rows {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; cols + 1];
        let mut used = vec![false; cols + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                debug_assert!(cur.is_finite() || cur == INF, "cost must be finite");
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta < INF, "graph must be complete");
            for j in 0..=cols {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    (1..=cols)
        .filter(|&j| p[j] != 0)
        .map(|j| (p[j] - 1, j - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::{seeded_rng, Point};
    use rand::Rng;

    #[test]
    fn trivial_instances() {
        let m = OfflineOptimal::solve(1, 1, |_, _| 3.0);
        assert_eq!(m.pairs, vec![(0, 0)]);
        assert_eq!(OfflineOptimal::solve(0, 5, |_, _| 1.0).size(), 0);
        assert_eq!(OfflineOptimal::solve(5, 0, |_, _| 1.0).size(), 0);
    }

    #[test]
    fn picks_cheaper_cross_assignment() {
        // cost matrix [[1, 10], [10, 1]] -> diagonal, total 2.
        let costs = [[1.0, 10.0], [10.0, 1.0]];
        let m = OfflineOptimal::solve(2, 2, |t, w| costs[t][w]);
        let total: f64 = m.pairs.iter().map(|&(t, w)| costs[t][w]).sum();
        assert!((total - 2.0).abs() < 1e-12);
        assert!(m.is_valid());
    }

    #[test]
    fn anti_greedy_instance() {
        // Greedy would pair task0 with worker0 (distance 1) forcing task1 to
        // worker1 (distance 10); OPT crosses for total 2 + 2 = 4... classic
        // configuration on a line: t0=0, t1=3; w0=1, w1=-10.
        let tasks = vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)];
        let workers = vec![Point::new(1.0, 0.0), Point::new(-10.0, 0.0)];
        let m = OfflineOptimal::solve_euclidean(&tasks, &workers);
        // OPT pairs t0-w1 (10) + t1-w0 (2) = 12 vs t0-w0 (1) + t1-w1 (13) =
        // 14: OPT must pick 12.
        let total = m.total_distance(&tasks, &workers);
        assert!((total - 12.0).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn rectangular_more_workers() {
        let tasks = vec![Point::new(0.0, 0.0)];
        let workers = vec![
            Point::new(5.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let m = OfflineOptimal::solve_euclidean(&tasks, &workers);
        assert_eq!(m.pairs, vec![(0, 1)]);
    }

    #[test]
    fn rectangular_more_tasks() {
        let tasks = vec![
            Point::new(5.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let workers = vec![Point::new(0.0, 0.0)];
        let m = OfflineOptimal::solve_euclidean(&tasks, &workers);
        assert_eq!(m.pairs.len(), 1);
        assert_eq!(m.pairs[0], (1, 0), "nearest task gets the only worker");
    }

    /// Brute-force minimum over all permutations (small instances).
    fn brute_force(tasks: &[Point], workers: &[Point]) -> f64 {
        fn perms(k: usize) -> Vec<Vec<usize>> {
            if k == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(k - 1) {
                for i in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(i, k - 1);
                    out.push(q);
                }
            }
            out
        }
        // Choose |tasks| workers out of n in all ordered ways: iterate over
        // permutations of workers and take the first |tasks|; minimal cost.
        let mut best = f64::INFINITY;
        for p in perms(workers.len()) {
            let total: f64 = tasks
                .iter()
                .zip(p.iter())
                .map(|(t, &w)| t.dist(&workers[w]))
                .sum();
            best = best.min(total);
        }
        best
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = seeded_rng(41, 0);
        for trial in 0..30 {
            let m_tasks = rng.gen_range(1..=5);
            let n_workers = rng.gen_range(m_tasks..=6);
            let tasks: Vec<Point> = (0..m_tasks)
                .map(|_| Point::new(rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0))
                .collect();
            let workers: Vec<Point> = (0..n_workers)
                .map(|_| Point::new(rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0))
                .collect();
            let opt = OfflineOptimal::solve_euclidean(&tasks, &workers);
            assert!(opt.is_valid());
            assert_eq!(opt.size(), m_tasks);
            let brute = brute_force(&tasks, &workers);
            let got = opt.total_distance(&tasks, &workers);
            assert!(
                (got - brute).abs() < 1e-9,
                "trial {trial}: hungarian {got} vs brute {brute}"
            );
        }
    }

    /// Brute-force minimum cost over every injective assignment of the
    /// smaller side into the larger one, for an arbitrary cost function.
    fn brute_force_cost<F: Fn(usize, usize) -> f64>(
        num_tasks: usize,
        num_workers: usize,
        cost: &F,
    ) -> f64 {
        fn dfs<G: Fn(usize, usize) -> f64>(
            row: usize,
            rows: usize,
            used: &mut Vec<bool>,
            cost: &G,
        ) -> f64 {
            if row == rows {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for col in 0..used.len() {
                if !used[col] {
                    used[col] = true;
                    best = best.min(cost(row, col) + dfs(row + 1, rows, used, cost));
                    used[col] = false;
                }
            }
            best
        }
        if num_tasks == 0 || num_workers == 0 {
            return 0.0;
        }
        if num_tasks <= num_workers {
            dfs(0, num_tasks, &mut vec![false; num_workers], cost)
        } else {
            dfs(0, num_workers, &mut vec![false; num_tasks], &|w, t| {
                cost(t, w)
            })
        }
    }

    /// Exhaustive comparison against the `O(n!)` brute force on every shape
    /// up to 6×6 — square, rectangular both ways, and 0/1-sided degenerate —
    /// with several seeded random cost matrices per shape.
    #[test]
    fn matches_brute_force_exhaustively_up_to_six_by_six() {
        let mut rng = seeded_rng(97, 0);
        for n_tasks in 0..=6usize {
            for n_workers in 0..=6usize {
                for trial in 0..4 {
                    let costs: Vec<Vec<f64>> = (0..n_tasks.max(1))
                        .map(|_| {
                            (0..n_workers.max(1))
                                .map(|_| (rng.gen::<f64>() * 100.0).round() / 4.0)
                                .collect()
                        })
                        .collect();
                    let cost = |t: usize, w: usize| costs[t][w];
                    let m = OfflineOptimal::solve(n_tasks, n_workers, cost);
                    assert!(m.is_valid(), "{n_tasks}x{n_workers} trial {trial}");
                    assert_eq!(
                        m.size(),
                        n_tasks.min(n_workers),
                        "{n_tasks}x{n_workers} trial {trial}: not maximum"
                    );
                    assert!(
                        m.pairs.iter().all(|&(t, w)| t < n_tasks && w < n_workers),
                        "{n_tasks}x{n_workers} trial {trial}: out-of-range pair"
                    );
                    let got: f64 = m.pairs.iter().map(|&(t, w)| cost(t, w)).sum();
                    let brute = brute_force_cost(n_tasks, n_workers, &cost);
                    let reference = if n_tasks.min(n_workers) == 0 {
                        0.0
                    } else {
                        brute
                    };
                    assert!(
                        (got - reference).abs() < 1e-9,
                        "{n_tasks}x{n_workers} trial {trial}: hungarian {got} vs brute {reference}"
                    );
                }
            }
        }
    }

    /// Ties and zero costs (many co-optimal matchings) must still hit the
    /// brute-force minimum.
    #[test]
    fn matches_brute_force_with_degenerate_costs() {
        let mut rng = seeded_rng(98, 0);
        for trial in 0..20 {
            let n_tasks = rng.gen_range(1..=5);
            let n_workers = rng.gen_range(1..=5);
            // Integer costs in {0, 1, 2}: heavy ties by construction.
            let costs: Vec<Vec<f64>> = (0..n_tasks)
                .map(|_| {
                    (0..n_workers)
                        .map(|_| rng.gen_range(0..3u32) as f64)
                        .collect()
                })
                .collect();
            let cost = |t: usize, w: usize| costs[t][w];
            let m = OfflineOptimal::solve(n_tasks, n_workers, cost);
            let got: f64 = m.pairs.iter().map(|&(t, w)| cost(t, w)).sum();
            let brute = brute_force_cost(n_tasks, n_workers, &cost);
            assert!(
                (got - brute).abs() < 1e-12,
                "trial {trial} ({n_tasks}x{n_workers}): hungarian {got} vs brute {brute}"
            );
        }
    }

    #[test]
    fn one_sided_and_single_pair_instances() {
        // 1×1: the only possible pair.
        assert_eq!(OfflineOptimal::solve(1, 1, |_, _| 7.5).pairs, vec![(0, 0)]);
        // 1×n and n×1 pick the cheapest partner.
        let m = OfflineOptimal::solve(1, 6, |_, w| (6 - w) as f64);
        assert_eq!(m.pairs, vec![(0, 5)]);
        let m = OfflineOptimal::solve(6, 1, |t, _| (t + 1) as f64);
        assert_eq!(m.pairs, vec![(0, 0)]);
        // 0-sided instances are empty, whatever the other side holds.
        for n in 0..=6 {
            assert_eq!(OfflineOptimal::solve(0, n, |_, _| 1.0).size(), 0);
            assert_eq!(OfflineOptimal::solve(n, 0, |_, _| 1.0).size(), 0);
        }
    }

    #[test]
    fn opt_lower_bounds_any_greedy_order() {
        let mut rng = seeded_rng(43, 0);
        let tasks: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let workers: Vec<Point> = (0..50)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let opt =
            OfflineOptimal::solve_euclidean(&tasks, &workers).total_distance(&tasks, &workers);
        let greedy = crate::euclidean::greedy_reference(&workers, &tasks);
        assert_eq!(greedy.size(), 40);
        let greedy_total = greedy.total_distance(&tasks, &workers);
        assert!(
            opt <= greedy_total + 1e-9,
            "OPT {opt} > greedy {greedy_total}"
        );
    }

    /// Random rectangular Euclidean instances: the dense solver and the
    /// parallel solver at several thread counts return the reference
    /// solver's exact pairs (and hence bit-identical totals).
    #[test]
    fn dense_and_parallel_match_reference_exactly() {
        let mut rng = seeded_rng(71, 0);
        for trial in 0..12 {
            let m_tasks = rng.gen_range(1..=90);
            let n_workers = rng.gen_range(1..=90);
            let tasks: Vec<Point> = (0..m_tasks)
                .map(|_| Point::new(rng.gen::<f64>() * 80.0, rng.gen::<f64>() * 80.0))
                .collect();
            let workers: Vec<Point> = (0..n_workers)
                .map(|_| Point::new(rng.gen::<f64>() * 80.0, rng.gen::<f64>() * 80.0))
                .collect();
            let cost = |t: usize, w: usize| tasks[t].dist(&workers[w]);
            let reference = OfflineOptimal::solve_reference(m_tasks, n_workers, cost);
            let dense = OfflineOptimal::solve(m_tasks, n_workers, cost);
            assert_eq!(dense.pairs, reference.pairs, "trial {trial}: dense drifted");
            for threads in [1usize, 2, 7] {
                let par = OfflineOptimal::solve_with_threads(m_tasks, n_workers, threads, cost);
                assert_eq!(
                    par.pairs, reference.pairs,
                    "trial {trial}: {threads} threads drifted"
                );
            }
        }
    }

    /// The parallel scan path proper (columns past the sequential-fallback
    /// cutoff) is bit-identical to the sequential dense scan, including on
    /// tie-heavy integer costs where the `(cost, lowest column)` rule is
    /// load-bearing.
    #[test]
    fn parallel_scan_path_is_bit_identical_beyond_the_cutoff() {
        let rows = 48;
        let cols = PARALLEL_MIN_COLS + 37;
        for (name, seed, tie_heavy) in [("euclidean", 5u64, false), ("ties", 6, true)] {
            let mut rng = seeded_rng(seed, 0);
            let a: Vec<f64> = (0..rows * cols)
                .map(|_| {
                    if tie_heavy {
                        rng.gen_range(0..4u32) as f64
                    } else {
                        rng.gen::<f64>() * 100.0
                    }
                })
                .collect();
            let cost = |t: usize, w: usize| a[t * cols + w];
            let sequential = OfflineOptimal::solve(rows, cols, cost);
            for threads in [2usize, 3, 7] {
                let par = OfflineOptimal::solve_with_threads(rows, cols, threads, cost);
                assert_eq!(par.pairs, sequential.pairs, "{name}: {threads} threads");
            }
            // Swapped orientation exercises the transposed materialization.
            let transposed = |t: usize, w: usize| a[w * cols + t];
            let swapped_seq = OfflineOptimal::solve(cols, rows, transposed);
            let swapped_par = OfflineOptimal::solve_with_threads(cols, rows, 5, transposed);
            assert_eq!(swapped_par.pairs, swapped_seq.pairs, "{name}: swapped");
        }
    }

    /// The Euclidean entry point is bit-identical to the closure-probing
    /// reference in both orientations, at several thread counts, in both
    /// engine regimes: the cache-resident dense path (small instances,
    /// past the parallel cutoff) and the in-kernel distance path (past
    /// the dense/Euclid crossover).
    #[test]
    fn euclid_kernels_match_reference_across_threads_and_orientations() {
        let mut rng = seeded_rng(31, 0);
        let mut points = |n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen::<f64>() * 150.0, rng.gen::<f64>() * 150.0))
                .collect()
        };
        let small = points(70);
        // Past the parallel cutoff but within the dense crossover.
        let mid = points(PARALLEL_MIN_COLS + 53);
        // 40 × this exceeds EUCLID_DENSE_MAX_CELLS: the in-kernel
        // distance path runs (rows stay few so the check is fast).
        let tiny = points(40);
        let huge = points(EUCLID_DENSE_MAX_CELLS / 40 + 101);
        assert!(tiny.len() * huge.len() > EUCLID_DENSE_MAX_CELLS);
        for (tasks, workers) in [
            (&small, &mid),
            (&mid, &small),
            (&tiny, &huge),
            (&huge, &tiny),
        ] {
            let reference = OfflineOptimal::solve_reference(tasks.len(), workers.len(), |t, w| {
                tasks[t].dist(&workers[w])
            });
            for threads in [1usize, 2, 7] {
                let got = OfflineOptimal::solve_euclidean_with_threads(tasks, workers, threads);
                assert_eq!(
                    got.pairs,
                    reference.pairs,
                    "{}x{} at {threads} threads",
                    tasks.len(),
                    workers.len()
                );
            }
        }
    }

    #[test]
    fn auto_thread_count_resolves() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // threads = 0 must run and agree on a mid-size instance.
        let mut rng = seeded_rng(9, 0);
        let a: Vec<f64> = (0..32 * 1200).map(|_| rng.gen::<f64>()).collect();
        let cost = |t: usize, w: usize| a[t * 1200 + w];
        let auto = OfflineOptimal::solve_with_threads(32, 1200, 0, cost);
        let seq = OfflineOptimal::solve(32, 1200, cost);
        assert_eq!(auto.pairs, seq.pairs);
    }
}
