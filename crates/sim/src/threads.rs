//! Amplitude-level thread-count resolution shared by the simulator
//! back-ends.
//!
//! Every simulator takes a `threads` knob (`with_threads`) that controls
//! how many scoped worker threads a kernel sweep may use (see
//! [`qra_circuit::kernel::Kernel::apply_threaded`]). `0` means "one per
//! available core" and is resolved here, once, at configuration time —
//! including the case where the runtime query itself fails, which callers
//! must be able to surface instead of silently degrading to one thread.

use std::sync::OnceLock;

/// Resolves a configured thread count: `0` means one worker per available
/// core. Returns the resolved count and whether the core-count query
/// failed (in which case the count degrades to 1 and the caller should
/// surface the degradation to the user). The core count is queried once
/// per process, on the first `0`, and remembered.
pub fn resolve_threads(threads: usize) -> (usize, bool) {
    static CORES: OnceLock<Option<usize>> = OnceLock::new();
    if threads != 0 {
        return (threads, false);
    }
    match CORES.get_or_init(|| std::thread::available_parallelism().ok().map(|n| n.get())) {
        Some(n) => (*n, false),
        None => (1, true),
    }
}

/// Resolves a `--workers` pool size like [`resolve_threads`], warning on
/// stderr (never degrading to serial silently) when an auto (`0`) count
/// fell back to one worker because the core-count query failed.
pub fn resolve_workers(workers: usize, pool: &str) -> usize {
    let (resolved, fallback) = resolve_threads(workers);
    if fallback {
        eprintln!(
            "warning: available-parallelism query failed; {pool} degrading to \
             {resolved} worker(s) — pass explicit --workers to override"
        );
    }
    resolved
}

/// Derives a per-shot RNG seed from a base seed and a shot index using
/// the SplitMix64 finalizer over the packed pair — the same scheme the
/// campaign runner uses for `(seed, cell)` derivation. Distinct
/// `(base, shot)` pairs map to well-separated seeds, and the derivation
/// depends on nothing else, so batch execution is reproducible at any
/// thread count or shot partitioning.
pub fn derive_shot_seed(base: u64, shot: u64) -> u64 {
    let mut z = base
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(shot)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_counts_pass_through() {
        assert_eq!(resolve_threads(1), (1, false));
        assert_eq!(resolve_threads(7), (7, false));
    }

    #[test]
    fn zero_resolves_to_at_least_one() {
        let (t, _) = resolve_threads(0);
        assert!(t >= 1);
    }

    #[test]
    fn shot_seeds_are_distinct_and_stable() {
        let a = derive_shot_seed(42, 0);
        let b = derive_shot_seed(42, 1);
        let c = derive_shot_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_shot_seed(42, 0));
    }
}
