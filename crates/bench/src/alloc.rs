//! A counting global allocator for the memory-usage metric.
//!
//! The paper reports "memory usage (MB)" per algorithm (Figs. 6i–l, 7i–l).
//! This wrapper around the system allocator tracks live and peak bytes so
//! the experiments binary can report the peak allocation attributable to one
//! pipeline run (reset the peak, run, read the peak).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through [`CountingAllocator`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System-allocator wrapper that maintains live/peak byte counters.
///
/// Register it in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pombm_bench::CountingAllocator = pombm_bench::CountingAllocator;
/// ```
pub struct CountingAllocator;

#[allow(
    unsafe_code,
    reason = "a global allocator must implement the unsafe `GlobalAlloc` trait"
)]
// SAFETY: delegates directly to `System`; the counter updates do not
// allocate and are async-signal-safe atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: contract — same as `GlobalAlloc::alloc` (nonzero layout).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged from our own contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: contract — `ptr` came from this allocator with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: our caller guarantees `ptr`/`layout` match an earlier
        // `alloc`, which we delegated to `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: contract — same as `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged from
        // our own contract, and the underlying blocks live in `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes currently live.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live bytes since the last reset.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live count and returns the previous peak.
pub fn reset_peak() -> usize {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// Runs `f` and returns `(f(), peak-over-baseline bytes during the call)`.
///
/// Only meaningful in binaries that registered [`CountingAllocator`];
/// elsewhere the byte count is 0.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = live_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(baseline))
}

#[cfg(test)]
mod tests {
    // The allocator is not registered in the test harness (registering a
    // global allocator in a lib would leak into every dependent), so only
    // the counter plumbing is testable here.
    use super::*;

    #[test]
    fn counters_are_readable() {
        // Not registered in the test harness: both counters are stable.
        let _ = (peak_bytes(), live_bytes());
    }

    #[test]
    fn measure_peak_without_registration_is_zero() {
        let (value, bytes) = measure_peak(|| vec![0u8; 1 << 16].len());
        assert_eq!(value, 1 << 16);
        // Not registered in tests: counters never move.
        assert_eq!(bytes, 0);
    }

    #[test]
    fn reset_peak_returns_previous() {
        let before = peak_bytes();
        let ret = reset_peak();
        assert_eq!(ret, before);
    }
}
