//! Shot-worker invariance: a program that re-simulates every shot gives
//! shot `s` its own generator, seeded from `(seed, s)`, and splits the
//! shots into contiguous ranges over the thread budget. Its counts must
//! therefore be **bit-identical** at every thread count — with uneven
//! ranges (513 shots) and with fewer shots than threads (3 shots at 16
//! threads, where each worker also threads its kernel sweeps).

use qra_circuit::Circuit;
use qra_sim::{
    Counts, DevicePreset, NoiseModel, StabilizerSimulator, StatevectorSimulator,
    TrajectorySimulator,
};

/// Checks `run(circuit, threads, shots)` against its one-thread counts:
/// 513 shots of `narrow`, then 3 shots of `wide`, whose 11 qubits clear
/// the kernel threading threshold, so workers holding several threads
/// thread their sweeps too.
fn assert_worker_invariant(what: &str, run: impl Fn(&Circuit, usize, u64) -> Counts) {
    let (narrow, wide) = (ghz_midcircuit(5), ghz_midcircuit(11));
    let base = run(&narrow, 1, 513);
    assert_eq!(base.total(), 513);
    for threads in [2usize, 3, 4, 16] {
        assert_eq!(
            base,
            run(&narrow, threads, 513),
            "{what}: {threads} threads"
        );
    }
    let few = run(&wide, 1, 3);
    assert_eq!(few, run(&wide, 16, 3), "{what}: 3 shots on 16 threads");
}

/// GHZ-`n` of exact H/CX with a mid-circuit syndrome measurement and a
/// reset, then every qubit measured.
fn ghz_midcircuit(n: usize) -> Circuit {
    let mut c = Circuit::with_clbits(n, n + 1);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure(n - 1, n).unwrap();
    c.reset(n - 1).unwrap();
    c.h(n - 1).cx(n - 1, 0);
    for q in 0..n {
        c.measure(q, q).unwrap();
    }
    c
}

fn assert_trajectories_worker_invariant(what: &str, noise: NoiseModel) {
    assert_worker_invariant(what, |c, threads, shots| {
        TrajectorySimulator::new(noise.clone(), 62)
            .with_threads(threads)
            .run(c, shots)
            .unwrap()
    });
}

#[test]
fn trajectory_counts_are_worker_invariant_at_low_noise() {
    assert_trajectories_worker_invariant("low noise", DevicePreset::LowNoise.noise_model());
}

#[test]
fn trajectory_counts_are_worker_invariant_on_melbourne() {
    assert_trajectories_worker_invariant("melbourne", DevicePreset::melbourne_like());
}

/// The statevector engine splits this Clifford program's shots over its
/// threads; the tableau has no thread knob and must equal it at every
/// thread count.
#[test]
fn statevector_and_stabilizer_mid_circuit_counts_are_worker_invariant() {
    assert_worker_invariant("statevector", |c, threads, shots| {
        let counts = StatevectorSimulator::with_seed(64)
            .with_threads(threads)
            .run(c, shots)
            .unwrap();
        let tableau = StabilizerSimulator::with_seed(64).run(c, shots).unwrap();
        assert_eq!(
            counts, tableau,
            "stabilizer vs {threads} statevector threads"
        );
        counts
    });
}
