//! NDD-based assertion circuits (paper §V).
//!
//! The non-destructive-discrimination design is a phase-kickback circuit:
//! `H(anc) · ctrl-U · H(anc) · measure(anc)` with
//! `U = Σ_{i<t} |ψᵢ⟩⟨ψᵢ| − Σ_{i≥t} |ψᵢ⟩⟨ψᵢ| = 2·P_correct − I`.
//! Correct states are `+1` eigenstates of `U` (ancilla reads `|0⟩`);
//! incorrect ones are `−1` eigenstates (ancilla reads `|1⟩`). Unlike the
//! SWAP/OR designs, any rank `1 ≤ t < 2ⁿ` is handled by a single step —
//! no superset pairs or extension ancillas.
//!
//! Synthesis of `ctrl-U` picks the cheapest applicable strategy:
//!
//! 1. `U` diagonal ±1 → algebraic-normal-form CZ network (gives the
//!    paper's `n`-CX circuits for parity sets, Fig. 14);
//! 2. `U` a tensor product of one-qubit unitaries → per-qubit controlled
//!    gates (gives the 3-CX GHZ approximate circuit of §III);
//! 3. general → `W† · ctrl-D · W` with `W` the basis change and `D` the
//!    ±1 diagonal.

use crate::plan::{AssertionPlan, SharedPlan};
use crate::spec::CorrectStates;
use crate::swap::BuiltAssertion;
use crate::AssertionError;
use qra_circuit::synthesis::diagonal::{
    controlled_tensor_product, diagonal_pm_one, is_diagonal_pm_one, try_factor_tensor,
};
use qra_circuit::synthesis::mc_gate::{mc_unitary, Control, ControlState};
use qra_circuit::synthesis::unitary_circuit;
use qra_circuit::{Circuit, Gate};
use std::cell::OnceCell;

const TOL: f64 = 1e-9;

/// Builds the NDD-based assertion circuit.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn build_ndd_assertion(cs: &CorrectStates) -> Result<BuiltAssertion, AssertionError> {
    build_ndd(cs, &OnceCell::new())
}

/// [`build_ndd_assertion`] taking strategy 3's plan from `plan`, which is
/// filled on first use, so `Design::Auto` builds one plan for NDD, SWAP
/// and logical-OR.
pub(crate) fn build_ndd(
    cs: &CorrectStates,
    plan: &SharedPlan,
) -> Result<BuiltAssertion, AssertionError> {
    let k = cs.num_qubits();
    let anc = k; // single ancilla after the test qubits
    let mut circuit = Circuit::with_clbits(k + 1, 1);
    circuit.h(anc);
    append_controlled_u(&mut circuit, cs, anc, plan)?;
    circuit.h(anc);
    circuit.measure(anc, 0)?;
    Ok(BuiltAssertion {
        circuit,
        num_test: k,
        num_ancilla: 1,
        num_clbits: 1,
    })
}

/// Appends `ctrl-U` with control `anc` and targets `0..k` to `circuit`.
fn append_controlled_u(
    circuit: &mut Circuit,
    cs: &CorrectStates,
    anc: usize,
    plan: &SharedPlan,
) -> Result<(), AssertionError> {
    let k = cs.num_qubits();
    let u = cs.ndd_unitary();

    // Strategy 1: U diagonal ±1 → controlled version is diagonal ±1 too.
    if let Some(signs) = is_diagonal_pm_one(&u, TOL) {
        let mut qubits = vec![anc];
        qubits.extend(0..k);
        let dim = signs.len();
        let mut ext = vec![false; 2 * dim];
        ext[dim..].copy_from_slice(&signs);
        diagonal_pm_one(circuit, &qubits, &ext)?;
        return Ok(());
    }

    // Strategy 2: U = ⊗ single-qubit factors.
    if let Some(factors) = try_factor_tensor(&u) {
        let targets: Vec<usize> = (0..k).collect();
        controlled_tensor_product(circuit, anc, &targets, &factors)?;
        return Ok(());
    }

    // Strategy 3: reuse the §IV planning machinery. Any single-step plan
    // gives U = u · D · u⁻¹ with D = +1 exactly on the checked-zeros
    // subspace, and ctrl-D factors into Z(anc) and ONE multi-controlled Z
    // firing when anc = 1 and all checked qubits read 0 — far cheaper than
    // a general basis-change synthesis. A plan whose `u` fails to
    // synthesise falls through like a failed plan.
    let single_step = match plan.get_or_init(|| AssertionPlan::build(cs)) {
        Ok(plan) if plan.steps.len() == 1 && !plan.steps[0].has_extension => {
            let step = &plan.steps[0];
            step.circuits()
                .ok()
                .map(|circuits| (&step.checked, circuits))
        }
        _ => None,
    };
    if let Some((checked, (u, u_inv))) = single_step {
        let test_map: Vec<usize> = (0..k).collect();
        circuit.compose(u_inv, &test_map, &[])?;
        circuit.z(anc);
        // MCZ: anc closed, all checked qubits open; realise the last
        // checked qubit as an X-wrapped target.
        let (&target, rest) = checked
            .split_last()
            .expect("checked is never empty for t < 2^n");
        let mut controls: Vec<Control> = vec![(anc, ControlState::Closed)];
        controls.extend(rest.iter().map(|&q| (q, ControlState::Open)));
        circuit.x(target);
        mc_unitary(circuit, &controls, target, &Gate::Z.matrix())?;
        circuit.x(target);
        circuit.compose(u, &test_map, &[])?;
        return Ok(());
    }

    // Strategy 4 (fallback): W† · ctrl-D · W with a general basis change.
    let w = cs.basis_matrix()?;
    let w_circ = unitary_circuit(&w)?;
    let w_inv_circ = w_circ.inverse()?;
    let test_map: Vec<usize> = (0..k).collect();
    circuit.compose(&w_inv_circ, &test_map, &[])?;
    // ctrl-D: signs over (anc, index): −1 when anc=1 and index ≥ t.
    let dim = cs.dim();
    let mut ext = vec![false; 2 * dim];
    for (i, slot) in ext.iter_mut().enumerate().skip(dim) {
        *slot = (i - dim) >= cs.t();
    }
    let mut qubits = vec![anc];
    qubits.extend(0..k);
    diagonal_pm_one(circuit, &qubits, &ext)?;
    circuit.compose(&w_circ, &test_map, &[])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StateSpec;
    use qra_circuit::GateCounts;
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
        let counts = StatevectorSimulator::with_seed(21)
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
    fn classical_zero_assertion_is_cz() {
        // §V-A: asserting |0⟩ gives U = Z, ctrl-U = CZ — one entangler.
        let spec = StateSpec::pure(CVector::basis_state(2, 0)).unwrap();
        let built = build_ndd_assertion(&spec.correct_states().unwrap()).unwrap();
        let counts = GateCounts::of(&built.circuit).unwrap();
        assert_eq!(counts.cx, 1);
        assert_eq!(built.num_ancilla, 1);
        assert_eq!(counts.measure, 1);
        // |0⟩ passes, |1⟩ flags.
        let pass = Circuit::new(1);
        assert_eq!(error_rate(&pass, &built), 0.0);
        let mut fail = Circuit::new(1);
        fail.x(0);
        assert_eq!(error_rate(&fail, &built), 1.0);
    }

    #[test]
    fn even_parity_set_is_cz_chain() {
        // §V-C / Fig. 14: set {|00⟩, |11⟩} → ctrl-(Z⊗Z) = 2 CZ.
        let set =
            StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap();
        let built = build_ndd_assertion(&set.correct_states().unwrap()).unwrap();
        let counts = GateCounts::of(&built.circuit).unwrap();
        assert_eq!(counts.cx, 2, "paper: n CX for the n-qubit parity set");
        assert_eq!(counts.sg, 2, "just the two Hadamards");
        // a|00⟩ + b|11⟩ passes for any coefficients.
        let mut prep = Circuit::new(2);
        prep.ry(1.1, 0).cx(0, 1);
        assert_eq!(error_rate(&prep, &built), 0.0);
        let mut bad = Circuit::new(2);
        bad.x(0);
        assert_eq!(error_rate(&bad, &built), 1.0);
    }

    #[test]
    fn ghz_parity_pair_set_is_three_cx() {
        // §III: the 4-member ± pair set makes U = X⊗X⊗X → 3 CX.
        let s = 0.5f64.sqrt();
        let pair = |a: usize, b: usize| {
            let mut v = CVector::zeros(8);
            v[a] = C64::from(s);
            v[b] = C64::from(s);
            v
        };
        let set = StateSpec::set(vec![
            pair(0b000, 0b111),
            pair(0b001, 0b110),
            pair(0b011, 0b100),
            pair(0b010, 0b101),
        ])
        .unwrap();
        let built = build_ndd_assertion(&set.correct_states().unwrap()).unwrap();
        let counts = GateCounts::of(&built.circuit).unwrap();
        assert_eq!(counts.cx, 3, "paper Fig 1: NDD approximate GHZ = 3 CX");
        // GHZ passes.
        let mut prep = Circuit::new(3);
        prep.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(error_rate(&prep, &built), 0.0);
        // The negative-phase GHZ is OUTSIDE this set and must flag.
        let mut neg = Circuit::new(3);
        neg.u2(std::f64::consts::PI, 0.0, 0).cx(0, 1).cx(1, 2);
        assert_eq!(error_rate(&neg, &built), 1.0);
    }

    #[test]
    fn precise_ghz_ndd_assertion() {
        let built = build_ndd_assertion(&StateSpec::pure(ghz()).unwrap().correct_states().unwrap())
            .unwrap();
        let mut prep = Circuit::new(3);
        prep.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(error_rate(&prep, &built), 0.0);
        // Bug1 (sign flip) — orthogonal to GHZ, detected with certainty.
        let mut bug1 = Circuit::new(3);
        bug1.u2(std::f64::consts::PI, 0.0, 0).cx(0, 1).cx(1, 2);
        assert!(error_rate(&bug1, &built) > 0.99);
        // Bug2 (wrong entanglement): overlap ⟨GHZ|buggy⟩ = ½, so the
        // correct component carries probability ¼ — error rate ¾.
        let mut bug2 = Circuit::new(3);
        bug2.h(0).cx(1, 2).cx(0, 1);
        let rate = error_rate(&bug2, &built);
        assert!((rate - 0.75).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn ndd_preserves_state_on_pass() {
        // Passing the assertion projects onto the correct component and
        // leaves the test qubits in the asserted state.
        let spec = StateSpec::pure(ghz()).unwrap();
        let built = build_ndd_assertion(&spec.correct_states().unwrap()).unwrap();
        let mut full = Circuit::new(4);
        full.h(0).cx(0, 1).cx(1, 2);
        let mut stripped = Circuit::new(built.circuit.num_qubits());
        for inst in built.circuit.instructions() {
            if let Some(g) = inst.as_gate() {
                stripped.append(g.clone(), &inst.qubits).unwrap();
            }
        }
        full.compose(&stripped, &[0, 1, 2, 3], &[]).unwrap();
        let sv = full.statevector().unwrap();
        let expect = ghz().kron(&CVector::basis_state(2, 0));
        assert!(sv.approx_eq_up_to_phase(&expect, 1e-8));
    }

    #[test]
    fn mixed_state_ndd_any_rank() {
        // Rank-3 mixed state on 2 qubits — NDD needs no extension ancilla.
        let set = StateSpec::set(vec![
            CVector::basis_state(4, 0),
            CVector::basis_state(4, 1),
            CVector::basis_state(4, 2),
        ])
        .unwrap();
        let built = build_ndd_assertion(&set.correct_states().unwrap()).unwrap();
        assert_eq!(built.num_ancilla, 1);
        for idx in [0usize, 1, 2] {
            let mut prep = Circuit::new(2);
            for q in 0..2 {
                if (idx >> (1 - q)) & 1 == 1 {
                    prep.x(q);
                }
            }
            assert_eq!(error_rate(&prep, &built), 0.0, "member {idx} flagged");
        }
        let mut bad = Circuit::new(2);
        bad.x(0).x(1);
        assert_eq!(error_rate(&bad, &built), 1.0);
    }

    #[test]
    fn general_strategy_handles_nonclassical_basis() {
        // Assert the Bell state precisely: U is not diagonal nor a tensor
        // product, exercising the W†·ctrl-D·W path.
        let s = 0.5f64.sqrt();
        let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
        let built =
            build_ndd_assertion(&StateSpec::pure(bell).unwrap().correct_states().unwrap()).unwrap();
        let mut prep = Circuit::new(2);
        prep.h(0).cx(0, 1);
        assert_eq!(error_rate(&prep, &built), 0.0);
        // The orthogonal Bell state Φ⁻ flags with certainty.
        let mut bad = Circuit::new(2);
        bad.x(0);
        bad.h(0).cx(0, 1); // (|00⟩ − |11⟩)/√2 up to phase
        assert!(error_rate(&bad, &built) > 0.99);
    }

    #[test]
    fn superposition_state_with_phase() {
        // (|0⟩ + e^{iπ/4}|1⟩)/√2 — the "other entanglement types" the prior
        // primitives cannot check (§VI-A).
        let s = 0.5f64.sqrt();
        let state = CVector::new(vec![
            C64::from(s),
            C64::cis(std::f64::consts::FRAC_PI_4).scale(s),
        ]);
        let built = build_ndd_assertion(&StateSpec::pure(state).unwrap().correct_states().unwrap())
            .unwrap();
        let mut prep = Circuit::new(1);
        prep.h(0).p(std::f64::consts::FRAC_PI_4, 0);
        assert_eq!(error_rate(&prep, &built), 0.0);
        // The wrong phase must be detected.
        let mut bad = Circuit::new(1);
        bad.h(0).p(-std::f64::consts::FRAC_PI_4, 0);
        let rate = error_rate(&bad, &built);
        assert!(rate > 0.2, "phase bug missed: {rate}");
    }
}
