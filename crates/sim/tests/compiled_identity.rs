//! Compiled-engine ↔ interpreter identity: for any circuit and any seed,
//! [`StatevectorSimulator::run`] (kernel lowering, prefix caching, binary-
//! search sampling) must produce [`Counts`] **byte-identical** to
//! [`StatevectorSimulator::run_interpreted`] (the original instruction
//! walker). This is the seed-compatibility contract documented in
//! DESIGN.md; campaign reports rely on it to stay stable across engine
//! changes.

use qra_circuit::{Circuit, Gate};
use qra_sim::{CompiledProgram, StatevectorSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pushes a random gate drawn from all four kernel classes.
fn push_random_gate(c: &mut Circuit, rng: &mut StdRng, n: usize) {
    let q0 = rng.gen_range(0..n);
    let mut q1 = rng.gen_range(0..n);
    while q1 == q0 {
        q1 = rng.gen_range(0..n);
    }
    match rng.gen_range(0..10u32) {
        // Single-qubit butterflies.
        0 => c.h(q0),
        1 => c.ry(rng.gen_range(0.0..3.0), q0),
        // Diagonals.
        2 => c.t(q0),
        3 => c.rz(rng.gen_range(0.0..3.0), q0),
        4 => c.cz(q0, q1),
        // Permutations.
        5 => c.x(q0),
        6 => c.cx(q0, q1),
        7 => c.swap(q0, q1),
        // Generic fallbacks.
        8 => c.ch(q0, q1),
        _ => c.cu3(
            rng.gen_range(0.0..3.0),
            rng.gen_range(0.0..3.0),
            rng.gen_range(0.0..3.0),
            q0,
            q1,
        ),
    };
}

/// Random unitary-then-measure-all circuits: the terminal fast path with
/// cumulative-table binary-search sampling and the outcome→key table.
#[test]
fn terminal_circuits_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(101);
    for trial in 0..12 {
        let n = rng.gen_range(2..6);
        let mut c = Circuit::new(n);
        for _ in 0..rng.gen_range(4..24) {
            push_random_gate(&mut c, &mut rng, n);
        }
        c.measure_all();
        let seed = rng.gen_range(0..1_000_000);
        let fast = StatevectorSimulator::with_seed(seed).run(&c, 2048).unwrap();
        let slow = StatevectorSimulator::with_seed(seed)
            .run_interpreted(&c, 2048)
            .unwrap();
        assert_eq!(fast, slow, "trial {trial}: terminal counts diverged");
    }
}

/// Random circuits with interleaved mid-circuit measurements and resets:
/// the per-shot path with the cached unitary prefix.
#[test]
fn mid_circuit_and_reset_circuits_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(202);
    for trial in 0..12 {
        let n = rng.gen_range(2..5);
        let clbits = rng.gen_range(2..5);
        let mut c = Circuit::with_clbits(n, clbits);
        // Unitary prefix the compiled engine caches across shots.
        for _ in 0..rng.gen_range(2..10) {
            push_random_gate(&mut c, &mut rng, n);
        }
        // Suffix mixing gates, measurements and resets.
        for _ in 0..rng.gen_range(2..8) {
            match rng.gen_range(0..4u32) {
                0 => {
                    c.measure(rng.gen_range(0..n), rng.gen_range(0..clbits))
                        .unwrap();
                }
                1 => {
                    c.reset(rng.gen_range(0..n)).unwrap();
                }
                _ => push_random_gate(&mut c, &mut rng, n),
            }
        }
        c.measure(rng.gen_range(0..n), rng.gen_range(0..clbits))
            .unwrap();
        let seed = rng.gen_range(0..1_000_000);
        let fast = StatevectorSimulator::with_seed(seed).run(&c, 512).unwrap();
        let slow = StatevectorSimulator::with_seed(seed)
            .run_interpreted(&c, 512)
            .unwrap();
        assert_eq!(fast, slow, "trial {trial}: per-shot counts diverged");
    }
}

/// A 16-qubit GHZ chain with a partial measurement: the wide-register
/// terminal path (exercises the non-key-table branch boundary and the
/// binary-search sampler over a 2¹⁶-entry cumulative table).
#[test]
fn ghz16_terminal_is_bit_identical() {
    let n = 16;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    let fast = StatevectorSimulator::with_seed(7).run(&c, 4096).unwrap();
    let slow = StatevectorSimulator::with_seed(7)
        .run_interpreted(&c, 4096)
        .unwrap();
    assert_eq!(fast, slow);
}

/// Gate::Unitary (arbitrary matrix) lowers through the borrow path; it
/// must sample identically too.
#[test]
fn arbitrary_unitary_gates_are_bit_identical() {
    let mut c = Circuit::new(3);
    c.h(0);
    let m = Gate::Crx(1.1).matrix();
    c.unitary(m, &[0, 2], "crx-custom").unwrap();
    c.cx(1, 2);
    c.measure_all();
    let fast = StatevectorSimulator::with_seed(5).run(&c, 1024).unwrap();
    let slow = StatevectorSimulator::with_seed(5)
        .run_interpreted(&c, 1024)
        .unwrap();
    assert_eq!(fast, slow);
}

/// Compiling once and re-running must equal compiling per run: the program
/// is immutable and neither it nor the simulator keeps hidden state, so a
/// second run on the same simulator repeats the first.
#[test]
fn compiled_program_is_reusable() {
    let mut c = Circuit::with_clbits(3, 3);
    c.h(0).cx(0, 1);
    c.measure(0, 0).unwrap();
    c.h(0);
    c.measure(0, 1).unwrap();
    let program = CompiledProgram::compile(&c).unwrap();
    assert!(!program.is_terminal());
    assert_eq!(program.prefix_len(), 2);
    let sim = StatevectorSimulator::with_seed(9);
    let a = sim.run_compiled(&program, 256).unwrap();
    let b = StatevectorSimulator::with_seed(9).run(&c, 256).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, sim.run_compiled(&program, 256).unwrap());
}

/// Amplitude-level threading must be invisible in results: for a fixed
/// seed, `run` counts and `evolve_compiled` states are **byte-identical**
/// at every thread count. The 12-qubit register (dim 4096) clears the
/// kernel parallel threshold, so the threaded sweeps genuinely engage.
#[test]
fn thread_matrix_run_and_evolve_are_bit_identical() {
    let n = 12;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.ry(0.1 * (q + 1) as f64, q).t(q);
    }
    c.measure_all();
    let program = CompiledProgram::compile(&c).unwrap();
    let base_counts = StatevectorSimulator::with_seed(33).run(&c, 1024).unwrap();
    let base_state = StatevectorSimulator::new().evolve_compiled(&program);
    for threads in [1usize, 2, 4] {
        let counts = StatevectorSimulator::with_seed(33)
            .with_threads(threads)
            .run(&c, 1024)
            .unwrap();
        assert_eq!(base_counts, counts, "threads = {threads}: counts diverged");
        let state = StatevectorSimulator::new()
            .with_threads(threads)
            .evolve_compiled(&program);
        assert_eq!(
            base_state.as_slice(),
            state.as_slice(),
            "threads = {threads}: state diverged"
        );
    }
}

/// The per-shot (mid-circuit) path under threading: shots split into
/// ranges over the threads, and each shot draws only from its own
/// `(seed, shot)` generator, so the histogram must not depend on the
/// thread count.
#[test]
fn thread_matrix_mid_circuit_is_bit_identical() {
    let n = 11;
    let mut c = Circuit::with_clbits(n, n + 1);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure(n - 1, n).unwrap();
    c.reset(n - 1).unwrap();
    c.cx(n - 2, n - 1);
    for q in 0..n {
        c.measure(q, q).unwrap();
    }
    let base = StatevectorSimulator::with_seed(44).run(&c, 128).unwrap();
    for threads in [2usize, 4] {
        let counts = StatevectorSimulator::with_seed(44)
            .with_threads(threads)
            .run(&c, 128)
            .unwrap();
        assert_eq!(base, counts, "threads = {threads}");
    }
}
