//! Stabilizer ↔ statevector identity: for any all-Clifford circuit and
//! any seed, [`StabilizerSimulator::run`] must produce [`Counts`]
//! **bit-identical** to [`StatevectorSimulator::run`] at overlapping
//! widths. This is the same seed-compatibility contract the compiled and
//! density engines carry (see `compiled_identity.rs`); campaign reports
//! rely on it so `--backend auto` can route cells to the tableau without
//! changing a single report byte.
//!
//! The contract's fine print (documented in `stabilizer.rs`): identity
//! holds exactly when the statevector's sampling draw does not land on a
//! floating-point boundary tie, a ~2⁻⁵² per-shot event that none of the
//! fixed seeds below hits.

use qra_circuit::{Circuit, Gate};
use qra_sim::{StabilizerSimulator, StatevectorSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_identical(c: &Circuit, shots: u64, seed: u64, what: &str) {
    let sv = StatevectorSimulator::with_seed(seed).run(c, shots).unwrap();
    let st = StabilizerSimulator::with_seed(seed).run(c, shots).unwrap();
    assert_eq!(sv, st, "{what} diverged at seed {seed}");
}

/// Pushes a random Clifford generator.
fn push_random_clifford(c: &mut Circuit, rng: &mut StdRng, n: usize) {
    let q0 = rng.gen_range(0..n);
    let mut q1 = rng.gen_range(0..n);
    while q1 == q0 {
        q1 = rng.gen_range(0..n);
    }
    match rng.gen_range(0..9u32) {
        0 => c.h(q0),
        1 => c.s(q0),
        2 => c.sdg(q0),
        3 => c.x(q0),
        4 => c.y(q0),
        5 => c.z(q0),
        6 => c.cx(q0, q1),
        7 => c.cz(q0, q1),
        _ => c.swap(q0, q1),
    };
}

/// GHZ ladders across widths: the canonical paper workload, terminal
/// sampling path (affine-support enumeration vs cumulative table).
#[test]
fn ghz_ladders_are_bit_identical() {
    for n in [1usize, 2, 3, 5, 8, 12, 16] {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_identical(&c, 4096, seed, &format!("GHZ-{n}"));
        }
    }
}

/// Random all-generator circuits: terminal path with arbitrary
/// stabilizer groups (rank < n, signed phases, entangled supports).
#[test]
fn random_clifford_circuits_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..16 {
        let n = rng.gen_range(2..8);
        let mut c = Circuit::new(n);
        for _ in 0..rng.gen_range(4..40) {
            push_random_clifford(&mut c, &mut rng, n);
        }
        c.measure_all();
        let seed = rng.gen_range(0..1_000_000);
        assert_identical(&c, 2048, seed, &format!("trial {trial}"));
    }
}

/// Mid-circuit measurement and reset: the per-shot replay path, where
/// both engines burn one RNG draw per collapse in the same order.
#[test]
fn midcircuit_measure_and_reset_are_bit_identical() {
    let mut c = Circuit::new(3);
    c.expand_clbits(3);
    c.h(0);
    c.cx(0, 1);
    c.measure(0, 0).unwrap();
    c.x(2);
    c.reset(1).unwrap();
    c.h(2);
    c.cx(2, 0);
    c.measure(2, 1).unwrap();
    c.measure(0, 2).unwrap();
    for seed in [7u64, 19, 1234] {
        assert_identical(&c, 1024, seed, "mid-circuit measure/reset");
    }

    // Re-measuring the same qubit into the same clbit (non-terminal by
    // the duplicate-measure rule) and overwrite semantics.
    let mut c = Circuit::new(2);
    c.expand_clbits(2);
    c.h(0);
    c.measure(0, 0).unwrap();
    c.h(0);
    c.measure(0, 0).unwrap();
    c.measure(1, 1).unwrap();
    for seed in [3u64, 99] {
        assert_identical(&c, 512, seed, "duplicate clbit");
    }
}

/// A hand-built SWAP-style assertion on a classical set spec, the shape
/// `--backend auto` campaigns route to the tableau: prepare, uncompute
/// via the linear coset, park the parity on ancillas, recompute, and
/// measure only the ancillas.
#[test]
fn swap_assertion_circuit_is_bit_identical() {
    let n = 4;
    let mut c = Circuit::new(n + 2);
    c.expand_clbits(2);
    // Prepare GHZ-4.
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    // Uncompute the coset map (GHZ -> |+000>), swap-check two qubits
    // against fresh ancillas, recompute.
    for q in (0..n - 1).rev() {
        c.cx(q, q + 1);
    }
    for (q, a) in [(1, n), (2, n + 1)] {
        c.cx(q, a);
        c.cx(a, q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure(n, 0).unwrap();
    c.measure(n + 1, 1).unwrap();
    for seed in [11u64, 17, 23] {
        assert_identical(&c, 4096, seed, "swap assertion");
    }

    // A faulted variant (stray X before the checks) must flip ancilla
    // statistics identically on both engines.
    let mut f = Circuit::new(n + 2);
    f.expand_clbits(2);
    f.h(0);
    for q in 0..n - 1 {
        f.cx(q, q + 1);
    }
    f.x(1);
    for q in (0..n - 1).rev() {
        f.cx(q, q + 1);
    }
    for (q, a) in [(1, n), (2, n + 1)] {
        f.cx(q, a);
        f.cx(a, q);
    }
    for q in 0..n - 1 {
        f.cx(q, q + 1);
    }
    f.measure(n, 0).unwrap();
    f.measure(n + 1, 1).unwrap();
    let seed = 11;
    assert_identical(&f, 4096, seed, "faulted swap assertion");
    let flagged = StabilizerSimulator::with_seed(seed).run(&f, 4096).unwrap();
    assert!(
        flagged.any_set_frequency(&[0, 1]) > 0.9,
        "stray X should trip the ancilla parity"
    );
}

/// Gates the recognizer rejects must error, not silently misroute —
/// including u2(0, π), which is mathematically H but not bit-exactly so.
#[test]
fn near_clifford_gates_are_rejected_not_approximated() {
    for gate in [
        Gate::T,
        Gate::Rz(std::f64::consts::PI),
        Gate::Sx,
        Gate::U2(0.0, std::f64::consts::PI),
    ] {
        let mut c = Circuit::new(1);
        c.append(gate, &[0]).unwrap();
        c.measure_all();
        assert!(!StabilizerSimulator::supports(&c));
        assert!(StabilizerSimulator::with_seed(1).run(&c, 16).is_err());
    }
}
