//! Minimal deterministic fork-join helpers: the worker-thread count every
//! parallel path resolves, and a parallel index map for batched
//! generation.
//!
//! The build environment cannot vendor `rayon`, so this module provides the
//! tiny subset needed on top of [`std::thread::scope`]:
//!
//! * [`thread_count`] — the `GQS_THREADS` knob the sweep engine shares;
//! * [`map`] — parallel index map: runs `f(0..count)` across worker
//!   threads and returns the results **in index order**, so callers see
//!   exactly the sequence a serial loop would produce.
//!
//! Determinism contract: `f` must derive all randomness from its index
//! argument (e.g. `SplitMix64::new(mix(seed, i))`) — never from shared
//! mutable state — and then results are bit-identical regardless of the
//! thread count, including `GQS_THREADS=1`.
//!
//! The thread count is `min(available_parallelism, 8)`, overridable with
//! the `GQS_THREADS` environment variable (useful for perf A/B runs).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Number of worker threads to use.
fn threads() -> usize {
    threads_from(std::env::var("GQS_THREADS").ok().as_deref())
}

/// The worker-thread count the sweep helpers resolve from the
/// environment: `GQS_THREADS` if set to a positive integer, otherwise
/// `min(available_parallelism, 8)`.
///
/// Exposed so the streaming sweep engine uses the same knob as [`map`].
pub fn thread_count() -> usize {
    threads()
}

/// Resolves the worker-thread count from an optional `GQS_THREADS` value.
///
/// Only a positive integer (surrounding whitespace tolerated) overrides
/// the default; `0`, the empty string, and garbage all mean "use the
/// default" — an unset-but-exported variable or a typo must not silently
/// serialize (or otherwise distort) every sweep.
fn threads_from(var: Option<&str>) -> usize {
    match var.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
    }
}

/// Applies `f` to every index in `0..count` across worker threads and
/// collects the results in index order.
///
/// Work is claimed dynamically (one shared atomic counter), so uneven
/// per-trial costs — common in CSP sweeps where a few instances backtrack
/// hard — do not leave threads idle.
pub fn map<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads().min(count.max(1));
    if workers <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<(usize, T)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, v) in results {
        slots[i] = Some(v);
    }
    slots.into_iter().map(|v| v.expect("every index claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_small_counts() {
        assert_eq!(map(0, |i| i), Vec::<usize>::new());
        assert_eq!(map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_matches_serial_with_derived_rngs() {
        use gqs_simnet::SplitMix64;
        let per_trial = |i: usize| SplitMix64::new(42 ^ (i as u64)).range(0, 1_000_000);
        let parallel = map(64, per_trial);
        let serial: Vec<u64> = (0..64).map(per_trial).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn threads_from_rejects_zero_empty_and_garbage() {
        let default = threads_from(None);
        assert!(default >= 1, "default thread count is at least one");
        // Explicit positive values win, with surrounding whitespace.
        assert_eq!(threads_from(Some("1")), 1);
        assert_eq!(threads_from(Some("12")), 12);
        assert_eq!(threads_from(Some(" 3\n")), 3);
        // 0, empty, and garbage all fall back to the default.
        for bad in ["0", "", "  ", "-2", "four", "2x", "1.5", "0x4"] {
            assert_eq!(threads_from(Some(bad)), default, "GQS_THREADS={bad:?}");
        }
    }
}
