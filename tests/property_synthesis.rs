//! Randomized property tests on the synthesis substrate: state
//! preparation, unitary synthesis and the cost model.
//!
//! Seeded PRNG loops replace the former proptest strategies; every case is
//! deterministic for a fixed base seed.

use qra::circuit::synthesis::{prepare_state, unitary_circuit};
use qra::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 16;

fn random_state(rng: &mut StdRng, n: usize) -> CVector {
    let dim = 1usize << n;
    loop {
        let v = CVector::new(
            (0..dim)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        if let Ok(u) = v.normalized() {
            return u;
        }
    }
}

/// A random small circuit over `n` qubits built from a fixed opcode set.
fn random_circuit(rng: &mut StdRng, n: usize, len: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let op = rng.gen_range(0usize..6);
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        let angle = rng.gen_range(-2.0..2.0);
        let b2 = if a == b { (b + 1) % n } else { b };
        match op {
            0 => {
                c.h(a);
            }
            1 => {
                c.rz(angle, a);
            }
            2 => {
                c.ry(angle, a);
            }
            3 => {
                c.cx(a, b2);
            }
            4 => {
                c.cz(a, b2);
            }
            _ => {
                c.t(a);
            }
        }
    }
    c
}

#[test]
fn prepare_state_roundtrips() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..CASES {
        let state = random_state(&mut rng, 3);
        let c = prepare_state(&state).unwrap();
        let sv = c.statevector().unwrap();
        assert!(sv.approx_eq_up_to_phase(&state, 1e-7));
    }
}

#[test]
fn prepare_state_respects_cx_bound() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..CASES {
        let state = random_state(&mut rng, 4);
        let c = prepare_state(&state).unwrap();
        let counts = GateCounts::of(&c).unwrap();
        // O(2ⁿ) bound with a generous constant.
        assert!(counts.cx <= 2 * 16, "cx = {}", counts.cx);
    }
}

#[test]
fn unitary_synthesis_roundtrips_from_circuits() {
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..CASES {
        // Any random 2-qubit unitary built from gates must re-synthesise.
        let c = random_circuit(&mut rng, 2, 8);
        let u = c.unitary_matrix().unwrap();
        let synth = unitary_circuit(&u).unwrap();
        let got = synth.unitary_matrix().unwrap();
        assert!(got.approx_eq_up_to_phase(&u, 1e-6));
    }
}

#[test]
fn cost_model_is_additive() {
    let mut rng = StdRng::seed_from_u64(16);
    for _ in 0..CASES {
        let a = random_circuit(&mut rng, 3, 10);
        let b = random_circuit(&mut rng, 3, 10);
        let ca = GateCounts::of(&a).unwrap();
        let cb = GateCounts::of(&b).unwrap();
        let mut joined = a.clone();
        joined.compose(&b, &[0, 1, 2], &[]).unwrap();
        let cj = GateCounts::of(&joined).unwrap();
        assert_eq!(cj.cx, ca.cx + cb.cx);
        assert_eq!(cj.sg, ca.sg + cb.sg);
    }
}

#[test]
fn inverse_circuit_cancels() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..CASES {
        let c = random_circuit(&mut rng, 3, 12);
        let mut full = c.clone();
        let inv = c.inverse().unwrap();
        full.compose(&inv, &[0, 1, 2], &[]).unwrap();
        let sv = full.statevector().unwrap();
        assert!(sv.approx_eq_up_to_phase(&CVector::basis_state(8, 0), 1e-7));
    }
}

#[test]
fn basis_completion_is_orthonormal() {
    let mut rng = StdRng::seed_from_u64(18);
    for _ in 0..CASES {
        let state = random_state(&mut rng, 3);
        let basis = qra::math::complete_basis(std::slice::from_ref(&state), 8).unwrap();
        assert_eq!(basis.len(), 8);
        assert!(qra::math::gram_schmidt::is_orthonormal(&basis, 1e-7));
        assert!(basis[0].approx_eq(&state, 1e-9));
    }
}

#[test]
fn density_eigendecomposition_roundtrips() {
    let mut rng = StdRng::seed_from_u64(19);
    for _ in 0..CASES {
        let a = random_state(&mut rng, 2);
        let b = random_state(&mut rng, 2);
        let p = rng.gen_range(0.05..0.95);
        let rho = CMatrix::outer(&a, &a)
            .scale(C64::from(p))
            .add(&CMatrix::outer(&b, &b).scale(C64::from(1.0 - p)))
            .unwrap();
        let eig = qra::math::hermitian_eigen(&rho).unwrap();
        assert!(eig.reconstruct().approx_eq(&rho, 1e-7));
        let trace: f64 = eig.values.iter().sum();
        assert!((trace - 1.0).abs() < 1e-7);
        for v in &eig.values {
            assert!(*v > -1e-9, "density eigenvalues must be ≥ 0");
        }
    }
}

#[test]
fn qasm_export_roundtrips_gate_names() {
    let mut rng = StdRng::seed_from_u64(20);
    for _ in 0..CASES {
        let c = random_circuit(&mut rng, 3, 10);
        let text = qra::circuit::qasm::to_qasm(&c).unwrap();
        assert!(text.starts_with("OPENQASM 2.0;"));
        for inst in c.instructions() {
            if let Some(g) = inst.as_gate() {
                let name = match g.name() {
                    "p" => "u1",
                    other => other,
                };
                assert!(text.contains(name), "missing {name}");
            }
        }
    }
}

#[test]
fn qasm_full_roundtrip_preserves_unitary() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..CASES {
        let c = random_circuit(&mut rng, 3, 12);
        let text = qra::circuit::qasm::to_qasm(&c).unwrap();
        let parsed = qra::circuit::qasm_parser::from_qasm(&text).unwrap();
        assert_eq!(parsed.num_qubits(), c.num_qubits());
        assert_eq!(parsed.gate_count(), c.gate_count());
        let u1 = c.unitary_matrix().unwrap();
        let u2 = parsed.unitary_matrix().unwrap();
        assert!(
            u1.approx_eq_up_to_phase(&u2, 1e-9),
            "QASM roundtrip changed the unitary"
        );
    }
}

#[test]
fn depth_is_consistent_under_composition() {
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..CASES {
        let a = random_circuit(&mut rng, 3, 8);
        let b = random_circuit(&mut rng, 3, 8);
        let da = a.depth();
        let db = b.depth();
        let mut joined = a.clone();
        joined.compose(&b, &[0, 1, 2], &[]).unwrap();
        let dj = joined.depth();
        assert!(dj <= da + db);
        assert!(dj >= da.max(db));
    }
}
