//! Circuit-equivalence checks for the paper's Figures 4, 13 and 14: the
//! systematically synthesised assertion circuits coincide with (or are
//! unitarily equivalent to) the hand-designed circuits of the prior work
//! (Liu/Byrd/Zhou, ASPLOS'20) that the paper proves equal in its
//! appendices.

use qra_circuit::Circuit;
use qra_core::ndd::build_ndd_assertion;
use qra_core::spec::StateSpec;
use qra_core::swap::build_swap_assertion;
use qra_math::{CMatrix, CVector, C64};

const TOL: f64 = 1e-9;

/// Strips measurements so unitaries can be compared.
fn gates_only(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for inst in circuit.instructions() {
        if let Some(g) = inst.as_gate() {
            out.append(g.clone(), &inst.qubits).unwrap();
        }
    }
    out
}

#[test]
fn fig4_plus_state_swap_assertion_semantics() {
    // Our synthesised |+⟩ SWAP assertion must act as the paper's Fig. 4
    // circuits do: the |+⟩ component survives on the test qubit with the
    // ancilla reading |0⟩; the |−⟩ component moves the flag to |1⟩ while
    // the test qubit is re-prepared to |+⟩.
    let s = 0.5f64.sqrt();
    let plus = CVector::from_real(&[s, s]);
    let minus = CVector::from_real(&[s, -s]);
    let spec = StateSpec::pure(plus.clone()).unwrap();
    let built = build_swap_assertion(&spec.correct_states().unwrap()).unwrap();
    let u = gates_only(&built.circuit).unitary_matrix().unwrap();

    // |+⟩ ⊗ |0⟩ → |+⟩ ⊗ |0⟩.
    let input = plus.kron(&CVector::basis_state(2, 0));
    let out = u.mul_vec(&input);
    assert!(out.approx_eq_up_to_phase(&input, TOL));

    // |−⟩ ⊗ |0⟩ → |+⟩ ⊗ |1⟩ (flag raised, state corrected).
    let input = minus.kron(&CVector::basis_state(2, 0));
    let out = u.mul_vec(&input);
    let expect = plus.kron(&CVector::basis_state(2, 1));
    assert!(out.approx_eq_up_to_phase(&expect, TOL));
}

#[test]
fn fig4_prior_circuit_equivalence() {
    // The explicit prior-work form of the |+⟩ assertion (Appendix A's end
    // point): H(t) · CX(t,a) · CX(a,t) · H(t). Our synthesised circuit uses
    // Ry(π/2) for the preparation, which differs from H only by a phase on
    // the flagged branch — unobservable after the ancilla measurement. So
    // compare the two circuits input-by-input up to phase.
    let s = 0.5f64.sqrt();
    let plus = CVector::from_real(&[s, s]);
    let minus = CVector::from_real(&[s, -s]);
    let spec = StateSpec::pure(plus.clone()).unwrap();
    let built = build_swap_assertion(&spec.correct_states().unwrap()).unwrap();
    let ours = gates_only(&built.circuit).unitary_matrix().unwrap();

    let mut prior = Circuit::new(2);
    prior.h(0).cx(0, 1).cx(1, 0).h(0);
    let theirs = prior.unitary_matrix().unwrap();

    for input_state in [plus, minus] {
        let input = input_state.kron(&CVector::basis_state(2, 0));
        let a = ours.mul_vec(&input);
        let b = theirs.mul_vec(&input);
        assert!(
            a.approx_eq_up_to_phase(&b, TOL),
            "our |+⟩ SWAP assertion disagrees with the Appendix-A form"
        );
    }
}

#[test]
fn fig13_zero_state_ndd_equals_prior_cx() {
    // §V-A / Fig. 13: asserting |0⟩ gives U = Z, so our circuit is
    // H(a)·CZ·H(a); the prior work's circuit is a bare CX(t→a). They are
    // the same unitary.
    let spec = StateSpec::pure(CVector::basis_state(2, 0)).unwrap();
    let built = build_ndd_assertion(&spec.correct_states().unwrap()).unwrap();
    let ours = gates_only(&built.circuit).unitary_matrix().unwrap();

    let mut prior = Circuit::new(2);
    prior.cx(0, 1); // test qubit 0 controls the ancilla 1
    let theirs = prior.unitary_matrix().unwrap();
    assert!(
        ours.approx_eq_up_to_phase(&theirs, TOL),
        "NDD |0⟩ assertion must reduce to the prior CX circuit"
    );
}

#[test]
fn fig14_parity_set_ndd_equals_prior_double_cx() {
    // §V-C / Fig. 14: the {|00⟩, |11⟩} set gives U = Z⊗Z; our circuit is
    // H(a)·CZ·CZ·H(a), the prior work's is CX(t1→a)·CX(t2→a). Same unitary.
    let spec =
        StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap();
    let built = build_ndd_assertion(&spec.correct_states().unwrap()).unwrap();
    let ours = gates_only(&built.circuit).unitary_matrix().unwrap();

    let mut prior = Circuit::new(3);
    prior.cx(0, 2).cx(1, 2); // both test qubits parity-copy into ancilla 2
    let theirs = prior.unitary_matrix().unwrap();
    assert!(
        ours.approx_eq_up_to_phase(&theirs, TOL),
        "NDD parity assertion must reduce to the prior double-CX circuit"
    );
}

#[test]
fn appendix_b_basis_transform_proposition() {
    // Appendix B: for any orthonormal basis {ψᵢ}, U = Σ|i⟩⟨ψᵢ| is unitary
    // and maps each ψᵢ to |i⟩. Check on a completed GHZ basis.
    let s = 0.5f64.sqrt();
    let mut ghz = CVector::zeros(8);
    ghz[0] = C64::from(s);
    ghz[7] = C64::from(s);
    let cs = StateSpec::pure(ghz).unwrap().correct_states().unwrap();
    let w = cs.basis_matrix().unwrap();
    let u_inv = w.adjoint();
    assert!(u_inv.is_unitary(TOL));
    for (i, psi) in cs.basis().unwrap().iter().enumerate() {
        let out = u_inv.mul_vec(psi);
        assert!(
            out.approx_eq_up_to_phase(&CVector::basis_state(8, i), TOL),
            "ψ_{i} did not map to |{i}⟩"
        );
    }
    // And U†U = UU† = I (the proposition's unitarity proof).
    let id = CMatrix::identity(8);
    assert!(w.mul(&w.adjoint()).unwrap().approx_eq(&id, TOL));
    assert!(w.adjoint().mul(&w).unwrap().approx_eq(&id, TOL));
}

#[test]
fn swap_design_reduces_to_bell_basis_change() {
    // §IV-B Bell example: U⁻¹ for the Bell state is "a CNOT gate followed
    // by a Hadamard on the control" — our prepare-state inverse must match
    // that unitary.
    let s = 0.5f64.sqrt();
    let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
    let prep = qra_circuit::synthesis::prepare_state(&bell).unwrap();
    let u_inv = prep.inverse().unwrap().unitary_matrix().unwrap();
    let mut reference = Circuit::new(2);
    reference.cx(0, 1).h(0);
    let expect = reference.unitary_matrix().unwrap();
    // Both must map Bell → |00⟩ and keep the Bell basis orthonormal; the
    // matrices may differ by basis ordering, so compare actions on the
    // Bell state itself.
    let ours = u_inv.mul_vec(&bell);
    let theirs = expect.mul_vec(&bell);
    assert!(ours.approx_eq_up_to_phase(&CVector::basis_state(4, 0), TOL));
    assert!(theirs.approx_eq_up_to_phase(&CVector::basis_state(4, 0), TOL));
}
