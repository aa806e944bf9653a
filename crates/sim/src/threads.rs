//! Thread-count resolution and the per-shot driver shared by the
//! simulator back-ends.
//!
//! The state-vector, density and trajectory simulators take a `threads`
//! knob (`with_threads`). `0` means "one per available core" and is
//! resolved here, once, at configuration time — including the case where
//! the runtime query itself fails, which callers must be able to surface
//! instead of silently degrading to one thread.
//!
//! Threads are spent in one of two ways. A kernel sweep splits its
//! amplitudes across threads
//! ([`qra_circuit::kernel::Kernel::apply_threaded`]); terminal runs,
//! unitary prefixes and the density engine use that. A program that
//! re-simulates every shot (mid-circuit measurement or reset, noise
//! trajectories) instead splits its shots across workers with
//! [`run_shot_ranges`]. Shot `s` draws only from its own generator,
//! seeded by [`derive_shot_seed`]`(seed, s)`, so its outcome does not
//! depend on which worker ran it, and the histogram is identical at every
//! thread count.

use crate::{Counts, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
/// depends on nothing else, so per-shot execution is reproducible at any
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

/// Runs shots `0..shots` and histograms their outcome keys.
///
/// The shots split into contiguous ranges over `min(threads, shots)`
/// scoped workers. Each worker builds its own state and scratch with
/// `worker(amplitude_threads)`, where `amplitude_threads` is
/// `threads / workers`, so a run with fewer shots than threads still
/// threads its kernel sweeps. Shot `s` runs as
/// `shot(&mut worker_state, rng)` with `rng` seeded by
/// [`derive_shot_seed`]`(seed, s)`; the per-range histograms merge by key.
/// A shot's outcome therefore depends only on `(seed, s)`, and the counts
/// are identical at every thread count.
///
/// # Errors
///
/// The first error any shot returns, in range order.
pub(crate) fn run_shot_ranges<W>(
    seed: u64,
    shots: u64,
    threads: usize,
    num_clbits: usize,
    worker: impl Fn(usize) -> W + Sync,
    shot: impl Fn(&mut W, &mut StdRng) -> Result<u64, SimError> + Sync,
) -> Result<Counts, SimError> {
    let workers = threads.clamp(1, usize::try_from(shots).unwrap_or(usize::MAX).max(1));
    let amplitude_threads = threads.max(1) / workers;
    // Worker `w` runs the shots `bound(w)..bound(w + 1)`.
    let bound = |w: usize| (u128::from(shots) * w as u128 / workers as u128) as u64;
    let range = |w: usize| -> Result<Counts, SimError> {
        let mut state = worker(amplitude_threads);
        let mut counts = Counts::new(num_clbits);
        for s in bound(w)..bound(w + 1) {
            let mut rng = StdRng::seed_from_u64(derive_shot_seed(seed, s));
            counts.record(shot(&mut state, &mut rng)?, 1);
        }
        Ok(counts)
    };
    if workers == 1 {
        return range(0);
    }
    let range = &range;
    let parts = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || range(w)))
            .collect();
        // The calling thread runs the first range.
        let mut parts = vec![range(0)];
        parts.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("shot worker panicked")),
        );
        parts
    });
    let mut counts = Counts::new(num_clbits);
    for part in parts {
        for (key, n) in part?.iter() {
            counts.record(key, n);
        }
    }
    Ok(counts)
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
