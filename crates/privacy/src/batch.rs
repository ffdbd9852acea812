//! Parallel batch obfuscation, bit-identical to the scalar loop.
//!
//! The paper's workflow obfuscates every *registered worker* before any task
//! arrives (step 2 of Fig. 1) — an embarrassingly parallel batch that
//! dominates setup latency at the 10⁵ scale of the scalability experiments.
//!
//! # Determinism contract
//!
//! The contract is **shard-invariant per-item RNG streams**: a cheap
//! sequential pass advances the caller's stream exactly as the scalar loop
//! would ([`PlanarLaplace::advance_obfuscate`]), snapshotting the 32-byte
//! generator state at every item boundary; the expensive sampling then
//! runs on `threads` scoped threads, each replaying one contiguous chunk
//! of items from their snapshots straight into its own chunk of the
//! output, so no thread waits on another. The result — and the state the
//! caller's RNG is left in — is **bit-identical to the scalar loop for
//! every thread count**, which is what lets the generic pipeline driver
//! dispatch here without disturbing any golden fingerprint.
//!
//! The split pays off for planar Laplace because its sequential pass is
//! two `next_u64` calls per item while the trigonometry, `exp` and
//! Lambert-W work all happen in the parallel pass. The HST walk of Alg. 3
//! has no such split: replaying its coin flips is most of the walk, so a
//! snapshot pass ran slower at two threads than the scalar loop at one,
//! and the `hst` mechanism obfuscates with the scalar loop instead.

use crate::laplace::PlanarLaplace;
use pombm_geom::Point;
use rand::rngs::StdRng;

/// Number of worker threads to use for a batch of `n` items: one thread
/// per ~4096 items, capped by available parallelism.
pub fn default_threads(n: usize) -> usize {
    let by_size = n.div_ceil(4096).max(1);
    let by_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    by_size.min(by_cores)
}

/// Obfuscates a batch of Euclidean locations with the planar Laplace
/// mechanism, continuing the caller's RNG stream exactly as the scalar loop
/// [`obfuscate_points_scalar`] would.
///
/// Output and final stream state are bit-identical for every `threads ≥ 1`.
pub fn obfuscate_points_batch(
    mechanism: &PlanarLaplace,
    locations: &[Point],
    rng: &mut StdRng,
    threads: usize,
) -> Vec<Point> {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || locations.is_empty() {
        return obfuscate_points_scalar(mechanism, locations, rng);
    }
    // Pass 1 (sequential): snapshot the stream at every item boundary.
    let mut states: Vec<StdRng> = locations
        .iter()
        .map(|_| {
            let state = rng.clone();
            mechanism.advance_obfuscate(rng);
            state
        })
        .collect();
    // Pass 2 (parallel): thread `s` replays the `s`-th chunk of items,
    // each from its own snapshot, into the `s`-th chunk of the output.
    let chunk = locations.len().div_ceil(threads);
    let mut out = vec![Point::ORIGIN; locations.len()];
    crossbeam::thread::scope(|scope| {
        for ((items, states), out) in locations
            .chunks(chunk)
            .zip(states.chunks_mut(chunk))
            .zip(out.chunks_mut(chunk))
        {
            scope.spawn(move |_| {
                for ((p, state), slot) in items.iter().zip(states).zip(out) {
                    *slot = mechanism.obfuscate(p, state);
                }
            });
        }
    })
    .expect("obfuscation threads never panic");
    out
}

/// The scalar reference loop for [`obfuscate_points_batch`]; also the
/// `threads = 1` fast path.
pub fn obfuscate_points_scalar(
    mechanism: &PlanarLaplace,
    locations: &[Point],
    rng: &mut StdRng,
) -> Vec<Point> {
    locations
        .iter()
        .map(|p| mechanism.obfuscate(p, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epsilon, HstMechanism};
    use pombm_geom::{seeded_rng, Grid, Rect};
    use pombm_hst::Hst;
    use rand::Rng;

    fn locations(n: usize) -> Vec<Point> {
        let mut loc_rng = seeded_rng(2, 7);
        (0..n)
            .map(|_| Point::new(loc_rng.gen::<f64>() * 100.0, loc_rng.gen::<f64>() * 100.0))
            .collect()
    }

    #[test]
    fn point_batch_equals_scalar_loop_at_every_thread_count() {
        let lap = PlanarLaplace::new(Epsilon::new(0.7));
        let locations = locations(800);
        let mut scalar_rng = seeded_rng(3, 0);
        let scalar = obfuscate_points_scalar(&lap, &locations, &mut scalar_rng);
        for threads in [1, 2, 5, 8] {
            let mut rng = seeded_rng(3, 0);
            let par = obfuscate_points_batch(&lap, &locations, &mut rng, threads);
            assert_eq!(par, scalar, "threads = {threads}");
            assert_eq!(rng, scalar_rng, "threads = {threads}: stream drifted");
        }
    }

    #[test]
    fn advance_consumes_exactly_the_obfuscation_draws() {
        // The advance replays must stay in lock step with the full
        // samplers draw-for-draw, or a snapshot pass silently drifts.
        let grid = Grid::square(Rect::square(200.0), 16);
        let hst = Hst::build(&grid.to_point_set(), &mut seeded_rng(1, 0));
        let mech = HstMechanism::new(&hst, Epsilon::new(0.4));
        let mut walked = seeded_rng(11, 0);
        let mut advanced = seeded_rng(11, 0);
        for i in 0..500 {
            let x = hst.leaf_of(i % hst.num_points());
            let _ = mech.obfuscate(&hst, x, &mut walked);
            mech.advance_obfuscate(hst.depth(), &mut advanced);
            assert_eq!(walked, advanced, "hst walk drifted at item {i}");
        }
        let lap = PlanarLaplace::new(Epsilon::new(0.5));
        let p = Point::new(4.0, 2.0);
        for i in 0..500 {
            let _ = lap.obfuscate(&p, &mut walked);
            lap.advance_obfuscate(&mut advanced);
            assert_eq!(walked, advanced, "laplace drifted at item {i}");
        }
    }

    #[test]
    fn determinism_across_runs() {
        let lap = PlanarLaplace::new(Epsilon::new(0.7));
        let locations = locations(500);
        let a = obfuscate_points_batch(&lap, &locations, &mut seeded_rng(3, 0), 4);
        let b = obfuscate_points_batch(&lap, &locations, &mut seeded_rng(3, 0), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let lap = PlanarLaplace::new(Epsilon::new(0.7));
        let locations = locations(500);
        let a = obfuscate_points_batch(&lap, &locations, &mut seeded_rng(3, 0), 4);
        let b = obfuscate_points_batch(&lap, &locations, &mut seeded_rng(4, 0), 4);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_batch_is_fine() {
        let lap = PlanarLaplace::new(Epsilon::new(1.0));
        assert!(obfuscate_points_batch(&lap, &[], &mut seeded_rng(0, 0), 2).is_empty());
    }

    #[test]
    fn point_batch_matches_distribution() {
        // Mean displacement of the parallel Laplace batch ≈ 2/ε.
        let eps = 0.5;
        let lap = PlanarLaplace::new(Epsilon::new(eps));
        let origin = vec![Point::new(50.0, 50.0); 40_000];
        let noisy = obfuscate_points_batch(&lap, &origin, &mut seeded_rng(7, 0), 8);
        let mean: f64 = noisy
            .iter()
            .zip(&origin)
            .map(|(a, b)| a.dist(b))
            .sum::<f64>()
            / noisy.len() as f64;
        assert!((mean - 2.0 / eps).abs() < 0.1, "mean displacement {mean}");
    }

    #[test]
    fn default_threads_is_sane() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) >= 1);
        assert!(default_threads(1 << 20) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let lap = PlanarLaplace::new(Epsilon::new(1.0));
        let _ = obfuscate_points_batch(&lap, &locations(1), &mut seeded_rng(0, 0), 0);
    }
}
