//! The benchmark's only wall-clock reads.
//!
//! Every other module times work through these helpers, so the determinism
//! lint has one file to waive.

// lint: allow-file(DET-TIME) — wall-clock measurement is this benchmark's
// purpose; no reading here reaches an output that a digest or an equality
// check covers.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process; spans from every
/// thread share this one clock.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
