//! Task arrival times.
//!
//! [`even_task_times`] lays task arrival timestamps out evenly over a
//! service window, as the `task_times` of a caller-built timeline for
//! [`crate::run_dynamic_spec`] and its clairvoyant oracle.

/// `count` task arrival times evenly spaced over `[0, window]`, the first
/// at 0 and the last at `window` (a single task arrives at 0).
///
/// # Panics
///
/// Panics if `window` is negative.
pub fn even_task_times(count: usize, window: f64) -> Vec<f64> {
    assert!(window >= 0.0, "window must be non-negative");
    if count <= 1 {
        return vec![0.0; count];
    }
    (0..count)
        .map(|i| window * i as f64 / (count - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_timestamps_are_evenly_spaced() {
        let ts = even_task_times(10, 90.0);
        assert_eq!(ts[0], 0.0);
        assert_eq!(*ts.last().unwrap(), 90.0);
        let gap = ts[1] - ts[0];
        assert!(ts.windows(2).all(|w| (w[1] - w[0] - gap).abs() < 1e-9));
    }

    #[test]
    fn degenerate_counts() {
        assert!(even_task_times(0, 10.0).is_empty());
        assert_eq!(even_task_times(1, 10.0), vec![0.0]);
    }
}
