//! Baseline assertion schemes the paper compares against (§II-B, §VI).
//!
//! * [`statistical_assertion`] — Huang & Martonosi's statistical scheme:
//!   destructive measurement at a breakpoint plus a distribution test. It
//!   only observes computational-basis probabilities, so phase bugs are
//!   invisible to it (Table I, Bug1 = False).
//! * [`primitive`] — Liu/Byrd/Zhou's runtime assertion primitives: ad-hoc
//!   ancilla circuits limited to classical states, `|±⟩` superpositions,
//!   and even/odd-parity entangled sets. [`primitive::supports`] encodes
//!   the coverage limits (Table I, GHZ = N/A).
//! * [`proq`] — Li et al.'s projection-based assertions: basis-change,
//!   direct mid-circuit measurement, basis-restore. Needs no ancilla but
//!   requires hardware able to measure mid-circuit and keep computing —
//!   which our simulator has, and 2020-era devices did not.

use crate::plan::AssertionPlan;
use crate::spec::StateSpec;
use crate::AssertionError;
use qra_circuit::Circuit;
use qra_math::CVector;
use qra_sim::{Counts, StatevectorSimulator};

/// Outcome of a statistical assertion: the measured distribution versus
/// the expected one.
#[derive(Debug, Clone)]
pub struct StatOutcome {
    /// Total-variation distance between measured and expected
    /// computational-basis distributions.
    pub total_variation: f64,
    /// The measured histogram.
    pub counts: Counts,
}

impl StatOutcome {
    /// `true` when the distributions agree within `threshold` total
    /// variation (the statistical test "passes").
    pub fn passed(&self, threshold: f64) -> bool {
        self.total_variation <= threshold
    }
}

/// Runs the statistical assertion: appends measurements of `qubits` to a
/// *copy* of the program (destructive — execution cannot continue), runs
/// `shots` shots, and compares against the spec's basis distribution.
///
/// # Errors
///
/// Propagates circuit/simulation failures.
pub fn statistical_assertion(
    program: &Circuit,
    qubits: &[usize],
    spec: &StateSpec,
    shots: u64,
    seed: u64,
) -> Result<StatOutcome, AssertionError> {
    let mut circuit = program.clone();
    circuit.expand_clbits(qubits.len());
    for (i, &q) in qubits.iter().enumerate() {
        circuit.measure(q, i)?;
    }
    let counts = StatevectorSimulator::with_seed(seed).run(&circuit, shots)?;

    // Expected distribution: diagonal of the spec's density matrix.
    let rho = spec.density();
    let dim = rho.rows();
    let k = qubits.len();
    let mut tv = 0.0;
    for outcome in 0..dim {
        let expected = rho.get(outcome, outcome).re;
        // Map state-index bit (qubit i of the spec) to clbit i.
        let mut key = 0u64;
        for (i, _) in qubits.iter().enumerate() {
            if (outcome >> (k - 1 - i)) & 1 == 1 {
                key |= 1 << i;
            }
        }
        let measured = if counts.total() == 0 {
            0.0
        } else {
            counts.count(key) as f64 / counts.total() as f64
        };
        tv += (expected - measured).abs();
    }
    Ok(StatOutcome {
        total_variation: tv / 2.0,
        counts,
    })
}

/// The ASPLOS'20 runtime assertion primitives.
pub mod primitive {
    use super::*;
    use crate::swap::BuiltAssertion;

    /// The three primitive assertion types of the prior work.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PrimitiveKind {
        /// A computational basis state.
        Classical,
        /// A per-qubit `|+⟩`/`|−⟩` superposition.
        Superposition,
        /// An entangled set with even (or odd) parity of ones.
        EvenParity,
        /// Odd-parity counterpart.
        OddParity,
    }

    /// Classifies whether the primitives support `spec`, returning the
    /// primitive kind when they do. This encodes the coverage limits the
    /// paper lists: no arbitrary coefficients, no general entanglement
    /// (GHZ precise → `None`), no mixed states beyond parity sets.
    pub fn supports(spec: &StateSpec) -> Option<PrimitiveKind> {
        const TOL: f64 = 1e-9;
        match spec {
            StateSpec::Pure(v) => {
                // Classical basis state?
                if basis_index(v).is_some() {
                    return Some(PrimitiveKind::Classical);
                }
                // Tensor product of |±⟩ and basis states?
                if is_pm_product(v) {
                    return Some(PrimitiveKind::Superposition);
                }
                None
            }
            StateSpec::Mixed(_) | StateSpec::Set(_) => {
                // Parity sets: correct basis states exactly the even- (or
                // odd-) parity computational states.
                let cs = spec.correct_states().ok()?;
                let dim = cs.dim();
                let mut even = vec![false; dim];
                for v in cs.correct() {
                    let idx = basis_index(v)?;
                    even[idx] = true;
                }
                let all_even = (0..dim).all(|i| even[i] == (i.count_ones() % 2 == 0));
                if all_even {
                    return Some(PrimitiveKind::EvenParity);
                }
                let all_odd = (0..dim).all(|i| even[i] == (i.count_ones() % 2 == 1));
                if all_odd {
                    return Some(PrimitiveKind::OddParity);
                }
                let _ = TOL;
                None
            }
        }
    }

    /// Builds the primitive assertion circuit when supported.
    ///
    /// # Errors
    ///
    /// Returns [`AssertionError::Unsupported`] outside the primitive
    /// coverage (the paper's "N/A" entries).
    pub fn build(spec: &StateSpec) -> Result<BuiltAssertion, AssertionError> {
        let kind = supports(spec).ok_or_else(|| AssertionError::Unsupported {
            scheme: "primitive",
            reason: "only classical, |±⟩ superposition and parity-set states".into(),
        })?;
        let k = spec.num_qubits();
        match kind {
            PrimitiveKind::Classical => {
                let target = match spec {
                    StateSpec::Pure(v) => basis_index(v).expect("checked by supports"),
                    _ => unreachable!(),
                };
                // One ancilla per qubit: CX(q → anc), X(anc) when expecting 1.
                let mut c = Circuit::with_clbits(2 * k, k);
                for q in 0..k {
                    let anc = k + q;
                    c.cx(q, anc);
                    if (target >> (k - 1 - q)) & 1 == 1 {
                        c.x(anc);
                    }
                    c.measure(anc, q)?;
                }
                Ok(BuiltAssertion {
                    circuit: c,
                    num_test: k,
                    num_ancilla: k,
                    num_clbits: k,
                })
            }
            PrimitiveKind::Superposition => {
                let v = match spec {
                    StateSpec::Pure(v) => v,
                    _ => unreachable!(),
                };
                // Per qubit: rotate |±⟩ → |0/1⟩ with H, copy to an ancilla,
                // rotate back — the ASPLOS'20 superposition primitive.
                let signs = pm_signs(v).expect("checked by supports");
                let mut c = Circuit::with_clbits(2 * k, k);
                for (q, minus) in signs.iter().enumerate() {
                    let anc = k + q;
                    c.h(q);
                    c.cx(q, anc);
                    if *minus {
                        c.x(anc);
                    }
                    c.h(q);
                    c.measure(anc, q)?;
                }
                Ok(BuiltAssertion {
                    circuit: c,
                    num_test: k,
                    num_ancilla: k,
                    num_clbits: k,
                })
            }
            PrimitiveKind::EvenParity | PrimitiveKind::OddParity => {
                // Parity check: CX every test qubit into one ancilla.
                let mut c = Circuit::with_clbits(k + 1, 1);
                let anc = k;
                for q in 0..k {
                    c.cx(q, anc);
                }
                if kind == PrimitiveKind::OddParity {
                    c.x(anc);
                }
                c.measure(anc, 0)?;
                Ok(BuiltAssertion {
                    circuit: c,
                    num_test: k,
                    num_ancilla: 1,
                    num_clbits: 1,
                })
            }
        }
    }

    fn basis_index(v: &CVector) -> Option<usize> {
        let mut hot = None;
        for (i, amp) in v.iter().enumerate() {
            if amp.norm() > 1e-9 {
                if hot.is_some() || (amp.norm() - 1.0).abs() > 1e-6 {
                    return None;
                }
                hot = Some(i);
            }
        }
        hot
    }

    /// For a tensor product of |+⟩/|−⟩ factors, the per-qubit sign flags
    /// (`true` = |−⟩).
    fn pm_signs(v: &CVector) -> Option<Vec<bool>> {
        let n = qra_math::qubits_for_dim(v.len()).ok()?;
        let mut signs = Vec::with_capacity(n);
        let mut rest = v.clone();
        for _ in 0..n {
            let half = rest.len() / 2;
            let top = CVector::new(rest.as_slice()[..half].to_vec());
            let bottom = CVector::new(rest.as_slice()[half..].to_vec());
            let plus_like = top.approx_eq(&bottom, 1e-8);
            let minus_like = top.approx_eq(&bottom.scale(qra_math::C64::from(-1.0)), 1e-8);
            if plus_like {
                signs.push(false);
            } else if minus_like {
                signs.push(true);
            } else {
                return None;
            }
            rest = top.scale(qra_math::C64::from(2.0f64.sqrt()));
        }
        Some(signs)
    }

    fn is_pm_product(v: &CVector) -> bool {
        pm_signs(v).is_some()
    }
}

/// The projection-based (Proq) baseline.
pub mod proq {
    use super::*;

    /// A Proq insertion: basis-change, direct mid-circuit measurement of
    /// the checked qubits, basis restore. Returns the host-circuit clbits
    /// holding the measurements (1 = error).
    #[derive(Debug, Clone)]
    pub struct ProqHandle {
        /// Host classical bits; any set bit flags an assertion error.
        pub clbits: Vec<usize>,
    }

    impl ProqHandle {
        /// Fraction of shots flagged.
        pub fn error_rate(&self, counts: &Counts) -> f64 {
            counts.any_set_frequency(&self.clbits)
        }
    }

    /// Inserts a projection-based assertion directly into `circuit`.
    /// No ancillas are used; the checked qubits are measured in place,
    /// which requires mid-circuit measurement support from the backend.
    ///
    /// # Errors
    ///
    /// Propagates plan/synthesis and circuit errors.
    pub fn insert(
        circuit: &mut Circuit,
        qubits: &[usize],
        spec: &StateSpec,
    ) -> Result<ProqHandle, AssertionError> {
        let cs = spec.correct_states()?;
        if qubits.len() != cs.num_qubits() {
            return Err(AssertionError::InvalidQubitList {
                reason: "qubit list length mismatch".into(),
            });
        }
        let plan = AssertionPlan::build(&cs)?;
        // Synthesise every step before the host circuit changes.
        let steps = plan
            .steps
            .iter()
            .map(|step| Ok((step, step.circuits()?)))
            .collect::<Result<Vec<_>, AssertionError>>()?;
        let cl_base = circuit.num_clbits();
        let mut clbits = Vec::new();
        let mut next_cl = cl_base;
        let mut anc_base = circuit.num_qubits();

        for (step, (u, u_inv)) in steps {
            let mut map: Vec<usize> = Vec::with_capacity(step.n_local);
            if step.has_extension {
                circuit.expand_qubits(anc_base + 1);
                map.push(anc_base);
                anc_base += 1;
            }
            map.extend_from_slice(qubits);
            circuit.expand_clbits(next_cl + step.checked.len());
            circuit.compose(u_inv, &map, &[])?;
            for &local in &step.checked {
                circuit.measure(map[local], next_cl)?;
                clbits.push(next_cl);
                next_cl += 1;
            }
            circuit.compose(u, &map, &[])?;
        }
        Ok(ProqHandle { clbits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qra_math::C64;

    fn ghz_vec() -> CVector {
        let s = 0.5f64.sqrt();
        let mut v = CVector::zeros(8);
        v[0] = C64::from(s);
        v[7] = C64::from(s);
        v
    }

    fn ghz_prep() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        c
    }

    #[test]
    fn stat_passes_correct_ghz() {
        let spec = StateSpec::pure(ghz_vec()).unwrap();
        let out = statistical_assertion(&ghz_prep(), &[0, 1, 2], &spec, 8192, 1).unwrap();
        assert!(out.passed(0.05), "tv = {}", out.total_variation);
    }

    #[test]
    fn stat_misses_phase_bug_but_catches_entanglement_bug() {
        let spec = StateSpec::pure(ghz_vec()).unwrap();
        // Bug1: sign flip — identical basis distribution, stat CANNOT see it.
        let mut bug1 = Circuit::new(3);
        bug1.u2(std::f64::consts::PI, 0.0, 0).cx(0, 1).cx(1, 2);
        let out1 = statistical_assertion(&bug1, &[0, 1, 2], &spec, 8192, 2).unwrap();
        assert!(out1.passed(0.05), "Table I: Stat must miss Bug1");
        // Bug2: wrong entanglement — distribution shifts, stat catches it.
        let mut bug2 = Circuit::new(3);
        bug2.h(0).cx(1, 2).cx(0, 1);
        let out2 = statistical_assertion(&bug2, &[0, 1, 2], &spec, 8192, 3).unwrap();
        assert!(!out2.passed(0.05), "Table I: Stat must catch Bug2");
    }

    #[test]
    fn primitive_supports_matrix() {
        use primitive::{supports, PrimitiveKind};
        // Classical.
        let c = StateSpec::pure(CVector::basis_state(4, 2)).unwrap();
        assert_eq!(supports(&c), Some(PrimitiveKind::Classical));
        // |+−⟩ superposition.
        let s = 0.5f64.sqrt();
        let pm = CVector::from_real(&[s, s]).kron(&CVector::from_real(&[s, -s]));
        assert_eq!(
            supports(&StateSpec::pure(pm).unwrap()),
            Some(PrimitiveKind::Superposition)
        );
        // Even-parity set {|00⟩, |11⟩}.
        let even =
            StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap();
        assert_eq!(supports(&even), Some(PrimitiveKind::EvenParity));
        // Odd-parity set {|01⟩, |10⟩}.
        let odd =
            StateSpec::set(vec![CVector::basis_state(4, 1), CVector::basis_state(4, 2)]).unwrap();
        assert_eq!(supports(&odd), Some(PrimitiveKind::OddParity));
        // GHZ precise: NOT supported (the paper's headline limitation).
        assert_eq!(supports(&StateSpec::pure(ghz_vec()).unwrap()), None);
        // Arbitrary-coefficient 1-qubit state: not supported.
        let tilted = CVector::from_real(&[0.6, 0.8]);
        assert_eq!(supports(&StateSpec::pure(tilted).unwrap()), None);
    }

    #[test]
    fn primitive_build_rejects_unsupported() {
        let err = primitive::build(&StateSpec::pure(ghz_vec()).unwrap()).unwrap_err();
        assert!(matches!(err, AssertionError::Unsupported { .. }));
    }

    #[test]
    fn primitive_parity_assertion_works() {
        let even =
            StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap();
        let built = primitive::build(&even).unwrap();
        assert_eq!(built.num_ancilla, 1);
        let counts = qra_circuit::GateCounts::of(&built.circuit).unwrap();
        assert_eq!(counts.cx, 2, "Table III: n CX for the parity primitive");

        let mut full = Circuit::with_clbits(3, 1);
        full.h(0).cx(0, 1);
        full.compose(&built.circuit, &[0, 1, 2], &[0]).unwrap();
        let c = StatevectorSimulator::with_seed(4).run(&full, 2048).unwrap();
        assert_eq!(c.any_set_frequency(&[0]), 0.0);

        let mut bad = Circuit::with_clbits(3, 1);
        bad.x(0);
        bad.compose(&built.circuit, &[0, 1, 2], &[0]).unwrap();
        let c = StatevectorSimulator::with_seed(4).run(&bad, 2048).unwrap();
        assert_eq!(c.any_set_frequency(&[0]), 1.0);
    }

    #[test]
    fn primitive_classical_assertion_works() {
        let spec = StateSpec::pure(CVector::basis_state(4, 0b10)).unwrap();
        let built = primitive::build(&spec).unwrap();
        let mut full = Circuit::with_clbits(4, 2);
        full.x(0);
        full.compose(&built.circuit, &[0, 1, 2, 3], &[0, 1])
            .unwrap();
        let c = StatevectorSimulator::with_seed(6).run(&full, 512).unwrap();
        assert_eq!(c.any_set_frequency(&[0, 1]), 0.0);
    }

    #[test]
    fn primitive_superposition_assertion_works() {
        let s = 0.5f64.sqrt();
        let spec = StateSpec::pure(CVector::from_real(&[s, -s])).unwrap();
        let built = primitive::build(&spec).unwrap();
        // Program in |−⟩ passes.
        let mut full = Circuit::with_clbits(2, 1);
        full.x(0).h(0);
        full.compose(&built.circuit, &[0, 1], &[0]).unwrap();
        let c = StatevectorSimulator::with_seed(8).run(&full, 512).unwrap();
        assert_eq!(c.any_set_frequency(&[0]), 0.0);
        // Program in |+⟩ flags.
        let mut bad = Circuit::with_clbits(2, 1);
        bad.h(0);
        bad.compose(&built.circuit, &[0, 1], &[0]).unwrap();
        let c = StatevectorSimulator::with_seed(8).run(&bad, 512).unwrap();
        assert_eq!(c.any_set_frequency(&[0]), 1.0);
    }

    #[test]
    fn proq_ghz_assertion_no_ancilla() {
        let spec = StateSpec::pure(ghz_vec()).unwrap();
        let mut program = ghz_prep();
        let before_qubits = program.num_qubits();
        let handle = proq::insert(&mut program, &[0, 1, 2], &spec).unwrap();
        assert_eq!(program.num_qubits(), before_qubits, "proq adds no ancilla");
        assert_eq!(handle.clbits.len(), 3);
        let counts = StatevectorSimulator::with_seed(14)
            .run(&program, 2048)
            .unwrap();
        assert_eq!(handle.error_rate(&counts), 0.0);
    }

    #[test]
    fn proq_detects_both_ghz_bugs() {
        let spec = StateSpec::pure(ghz_vec()).unwrap();
        let mut bug1 = Circuit::new(3);
        bug1.u2(std::f64::consts::PI, 0.0, 0).cx(0, 1).cx(1, 2);
        let h1 = proq::insert(&mut bug1, &[0, 1, 2], &spec).unwrap();
        let c1 = StatevectorSimulator::with_seed(15)
            .run(&bug1, 4096)
            .unwrap();
        assert!(h1.error_rate(&c1) > 0.4, "Table I: Proq catches Bug1");

        let mut bug2 = Circuit::new(3);
        bug2.h(0).cx(1, 2).cx(0, 1);
        let h2 = proq::insert(&mut bug2, &[0, 1, 2], &spec).unwrap();
        let c2 = StatevectorSimulator::with_seed(16)
            .run(&bug2, 4096)
            .unwrap();
        assert!(h2.error_rate(&c2) > 0.2, "Table I: Proq catches Bug2");
    }

    #[test]
    fn proq_program_continues_after_pass() {
        // After a passing proq assertion the program can keep computing:
        // assert |+⟩ then apply H and measure — outcome deterministic 0.
        let plus = CVector::from_real(&[0.5f64.sqrt(), 0.5f64.sqrt()]);
        let spec = StateSpec::pure(plus).unwrap();
        let mut program = Circuit::new(1);
        program.h(0);
        let handle = proq::insert(&mut program, &[0], &spec).unwrap();
        let data_cl = program.num_clbits();
        program.expand_clbits(data_cl + 1);
        program.h(0);
        program.measure(0, data_cl).unwrap();
        let counts = StatevectorSimulator::with_seed(17)
            .run(&program, 1024)
            .unwrap();
        assert_eq!(handle.error_rate(&counts), 0.0);
        assert_eq!(counts.marginal_frequency(data_cl), 0.0);
    }
}
