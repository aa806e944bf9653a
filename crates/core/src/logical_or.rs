//! Logical-OR based assertion circuits (paper §IV-E).
//!
//! Same `U⁻¹ … U` sandwich as the SWAP design, but instead of swapping
//! each checked qubit out to its own ancilla, the checked qubits are ORed
//! into a single ancilla (open-controlled multi-controlled-X followed by an
//! X on the ancilla): one ancilla and one measurement per step regardless
//! of how many qubits are checked. Unlike the SWAP design, the program
//! state is *not* corrected when the assertion fails.

use crate::plan::{AssertionPlan, StepGlue};
use crate::spec::CorrectStates;
use crate::swap::BuiltAssertion;
use crate::AssertionError;
use qra_circuit::synthesis::mc_gate::{mcx, mcx_v_chain, ControlState};
use qra_circuit::Circuit;

/// Builds the logical-OR based assertion circuit.
///
/// # Errors
///
/// Propagates plan/synthesis failures.
pub fn build_or_assertion(cs: &CorrectStates) -> Result<BuiltAssertion, AssertionError> {
    AssertionPlan::build(cs)?.assemble(cs.num_qubits(), &OrFlag::Recursive)
}

/// Builds the logical-OR assertion with a **V-chain** multi-controlled-X:
/// linear CX count (the paper's cited linear-complexity Toffoli
/// decompositions \[24\]) at the price of `k − 2` extra clean ancillas when
/// a step checks `k > 2` qubits. The paper's Table III assumes this
/// linear regime; [`build_or_assertion`] keeps the one-ancilla footprint
/// with an exponential ancilla-free recursion instead.
///
/// # Errors
///
/// Propagates plan/synthesis failures.
pub fn build_or_assertion_v_chain(cs: &CorrectStates) -> Result<BuiltAssertion, AssertionError> {
    AssertionPlan::build(cs)?.assemble(cs.num_qubits(), &OrFlag::VChain)
}

/// How the logical-OR design folds a step's checked qubits into its flag
/// ancilla, the first of the step's ancillas and the only one measured.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OrFlag {
    /// Ancilla-free recursive multi-controlled X.
    Recursive,
    /// V-chain of Toffolis over `k − 2` clean helper ancillas.
    VChain,
}

impl StepGlue for OrFlag {
    fn ancillas(&self, checked: usize) -> usize {
        match self {
            OrFlag::Recursive => 1,
            OrFlag::VChain => 1 + checked.saturating_sub(2),
        }
    }

    fn measured(&self, _checked: usize) -> usize {
        1
    }

    fn emit(
        &self,
        circuit: &mut Circuit,
        checked: &[usize],
        ancillas: &[usize],
    ) -> Result<(), AssertionError> {
        let (&flag, helpers) = ancillas
            .split_first()
            .expect("the OR design allocates a flag ancilla per step");
        if let [q] = checked {
            // OR of one bit is the bit itself.
            circuit.cx(*q, flag);
            return Ok(());
        }
        // A multi-controlled X on open controls sets the flag when ALL
        // checked qubits are |0⟩ (the pass condition); the trailing X
        // inverts it so flag |1⟩ = assertion error.
        match self {
            OrFlag::Recursive => {
                let controls: Vec<(usize, ControlState)> =
                    checked.iter().map(|&q| (q, ControlState::Open)).collect();
                mcx(circuit, &controls, flag)?;
            }
            OrFlag::VChain => {
                // Open controls: X-wrap the checked qubits around the V-chain.
                for &q in checked {
                    circuit.x(q);
                }
                mcx_v_chain(circuit, checked, flag, helpers)?;
                for &q in checked {
                    circuit.x(q);
                }
            }
        }
        circuit.x(flag);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StateSpec;
    use qra_math::{CVector, C64};
    use qra_sim::StatevectorSimulator;

    fn error_rate(prep: &Circuit, built: &BuiltAssertion) -> f64 {
        let k = built.num_test;
        let mut full = Circuit::with_clbits(k + built.num_ancilla, built.num_clbits);
        full.compose(prep, &(0..k).collect::<Vec<_>>(), &[])
            .unwrap();
        let map: Vec<usize> = (0..k + built.num_ancilla).collect();
        let cl: Vec<usize> = (0..built.num_clbits).collect();
        full.compose(&built.circuit, &map, &cl).unwrap();
        let counts = StatevectorSimulator::with_seed(11)
            .run(&full, 8192)
            .unwrap();
        counts.any_set_frequency(&cl)
    }

    fn ghz() -> CVector {
        let s = 0.5f64.sqrt();
        let mut v = CVector::zeros(8);
        v[0] = C64::from(s);
        v[7] = C64::from(s);
        v
    }

    #[test]
    fn single_qubit_or_is_one_cx() {
        // §IV-E / Table III: single-qubit OR assertion = 1 CX + 2 SG.
        let plus = CVector::from_real(&[0.5f64.sqrt(), 0.5f64.sqrt()]);
        let built =
            build_or_assertion(&StateSpec::pure(plus).unwrap().correct_states().unwrap()).unwrap();
        let counts = qra_circuit::GateCounts::of(&built.circuit).unwrap();
        assert_eq!(counts.cx, 1);
        assert_eq!(counts.sg, 2);
        assert_eq!(built.num_ancilla, 1);
        assert_eq!(counts.measure, 1);
    }

    #[test]
    fn correct_ghz_passes_with_one_ancilla() {
        let built =
            build_or_assertion(&StateSpec::pure(ghz()).unwrap().correct_states().unwrap()).unwrap();
        assert_eq!(built.num_ancilla, 1);
        assert_eq!(built.num_clbits, 1);
        let mut prep = Circuit::new(3);
        prep.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(error_rate(&prep, &built), 0.0);
    }

    #[test]
    fn ghz_bugs_detected() {
        let built =
            build_or_assertion(&StateSpec::pure(ghz()).unwrap().correct_states().unwrap()).unwrap();
        let mut bug1 = Circuit::new(3);
        bug1.u2(std::f64::consts::PI, 0.0, 0).cx(0, 1).cx(1, 2);
        assert!(error_rate(&bug1, &built) > 0.4);
        let mut bug2 = Circuit::new(3);
        bug2.h(0).cx(1, 2).cx(0, 1);
        assert!(error_rate(&bug2, &built) > 0.2);
    }

    #[test]
    fn or_design_does_not_correct_failing_state() {
        // Assert |0⟩ on a qubit in |1⟩: the test qubit stays |1⟩ after the
        // (failing) assertion — §IV-E's distinguishing property.
        let spec = StateSpec::pure(CVector::basis_state(2, 0)).unwrap();
        let built = build_or_assertion(&spec.correct_states().unwrap()).unwrap();
        let mut full = Circuit::new(2);
        full.x(0);
        // Strip measurement to inspect the joint state.
        let mut stripped = Circuit::new(built.circuit.num_qubits());
        for inst in built.circuit.instructions() {
            if let Some(g) = inst.as_gate() {
                stripped.append(g.clone(), &inst.qubits).unwrap();
            }
        }
        full.compose(&stripped, &[0, 1], &[]).unwrap();
        let sv = full.statevector().unwrap();
        // Expected: |1⟩ ⊗ |1⟩ (ancilla flagged, test qubit untouched).
        assert!(sv.approx_eq_up_to_phase(
            &CVector::basis_state(2, 1).kron(&CVector::basis_state(2, 1)),
            1e-9
        ));
    }

    #[test]
    fn mixed_state_or_assertion() {
        let e = |i: usize| CVector::basis_state(4, i);
        let rho = qra_math::CMatrix::outer(&e(0), &e(0))
            .scale(C64::from(0.5))
            .add(&qra_math::CMatrix::outer(&e(3), &e(3)).scale(C64::from(0.5)))
            .unwrap();
        let built =
            build_or_assertion(&StateSpec::mixed(rho).unwrap().correct_states().unwrap()).unwrap();
        let mut prep = Circuit::new(2);
        prep.h(0).cx(0, 1); // Bell state is a valid purification
        assert_eq!(error_rate(&prep, &built), 0.0);
        let mut bad = Circuit::new(2);
        bad.x(0);
        assert!(error_rate(&bad, &built) > 0.99);
    }

    #[test]
    fn approximate_set_or_assertion() {
        let set =
            StateSpec::set(vec![CVector::basis_state(8, 0), CVector::basis_state(8, 7)]).unwrap();
        let built = build_or_assertion(&set.correct_states().unwrap()).unwrap();
        let mut prep = Circuit::new(3);
        prep.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(error_rate(&prep, &built), 0.0);
        let mut bad = Circuit::new(3);
        bad.x(2);
        assert!(error_rate(&bad, &built) > 0.99);
    }

    #[test]
    fn v_chain_variant_matches_recursive_semantics() {
        // GHZ-type 4-qubit pure assertion: both OR variants agree on
        // pass/fail; the v-chain costs fewer CX at the price of ancillas.
        let s = 0.5f64.sqrt();
        let mut v = CVector::zeros(16);
        v[0] = C64::from(s);
        v[15] = C64::from(s);
        let cs = StateSpec::pure(v).unwrap().correct_states().unwrap();
        let recursive = build_or_assertion(&cs).unwrap();
        let chained = build_or_assertion_v_chain(&cs).unwrap();
        assert_eq!(recursive.num_ancilla, 1);
        assert_eq!(chained.num_ancilla, 1 + 2, "flag + (4−2) helpers");

        let mut good = Circuit::new(4);
        good.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        assert_eq!(error_rate(&good, &recursive), 0.0);
        assert_eq!(error_rate(&good, &chained), 0.0);

        let mut bad = Circuit::new(4);
        bad.u2(std::f64::consts::PI, 0.0, 0)
            .cx(0, 1)
            .cx(1, 2)
            .cx(2, 3);
        let r1 = error_rate(&bad, &recursive);
        let r2 = error_rate(&bad, &chained);
        assert!(r1 > 0.4 && (r1 - r2).abs() < 0.03, "r1={r1} r2={r2}");

        // Cost comparison: the chain must be cheaper in CX.
        let c_rec = qra_circuit::GateCounts::of(&recursive.circuit).unwrap();
        let c_chain = qra_circuit::GateCounts::of(&chained.circuit).unwrap();
        assert!(
            c_chain.cx < c_rec.cx,
            "v-chain {} should beat recursive {}",
            c_chain.cx,
            c_rec.cx
        );
    }

    #[test]
    fn v_chain_small_checked_sets_degrade_gracefully() {
        // With ≤ 2 checked qubits no helpers are needed.
        let plus = CVector::from_real(&[0.5f64.sqrt(), 0.5f64.sqrt()]);
        let cs = StateSpec::pure(plus).unwrap().correct_states().unwrap();
        let built = build_or_assertion_v_chain(&cs).unwrap();
        assert_eq!(built.num_ancilla, 1);
        let counts = qra_circuit::GateCounts::of(&built.circuit).unwrap();
        assert_eq!(counts.cx, 1);
    }

    #[test]
    fn superset_pair_uses_two_ancillas() {
        let set = StateSpec::set(vec![
            CVector::basis_state(8, 0),
            CVector::basis_state(8, 1),
            CVector::basis_state(8, 2),
        ])
        .unwrap();
        let built = build_or_assertion(&set.correct_states().unwrap()).unwrap();
        assert_eq!(built.num_ancilla, 2);
        assert_eq!(built.num_clbits, 2);
        let mut ok = Circuit::new(3);
        ok.x(2); // |001⟩ is a member
        assert_eq!(error_rate(&ok, &built), 0.0);
        let mut bad = Circuit::new(3);
        bad.x(0); // |100⟩ is not
        assert!(error_rate(&bad, &built) > 0.99);
    }
}
