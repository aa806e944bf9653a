//! The top-level assertion API: synthesise, select, and insert.
//!
//! This mirrors the four-argument `assert(circuit, qubitList, stateSet,
//! design)` function the paper adds to Qiskit (§VII): callers hand a
//! [`StateSpec`], pick a [`Design`] (or [`Design::Auto`], the paper's
//! `NONE`, which selects the cheapest in entangling gates), and
//! [`insert_assertion`] splices the assertion — ancillas, measurements and
//! all — into an existing program circuit.

use crate::logical_or::{build_or_assertion, OrFlag};
use crate::ndd::{build_ndd, build_ndd_assertion};
use crate::plan::{AssertionPlan, StepGlue};
use crate::spec::{CorrectStates, StateSpec};
use crate::swap::{build_swap_assertion, BuiltAssertion, SwapPlacement};
use crate::AssertionError;
use qra_circuit::{Circuit, GateCounts};
use qra_sim::Counts;
use std::cell::OnceCell;
use std::fmt;

/// The assertion circuit design to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Design {
    /// Cost all three designs and keep the one with the fewest
    /// entangling gates (the paper's `design = NONE`). CX-count ties
    /// resolve deterministically in the preference order
    /// Ndd > LogicalOr > Swap; see [`Candidates`].
    #[default]
    Auto,
    /// SWAP-based design (§IV): corrects the state on pass.
    Swap,
    /// Logical-OR based design (§IV-E): one ancilla, one measurement.
    LogicalOr,
    /// NDD phase-kickback design (§V): one ancilla, any rank.
    Ndd,
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Design::Auto => "auto",
            Design::Swap => "swap",
            Design::LogicalOr => "logical-or",
            Design::Ndd => "ndd",
        };
        write!(f, "{name}")
    }
}

/// A synthesised assertion: the local circuit plus metadata.
#[derive(Debug, Clone)]
pub struct Assertion {
    built: BuiltAssertion,
    design: Design,
    counts: GateCounts,
}

impl Assertion {
    /// Wraps a built circuit, costing it with [`GateCounts::of`].
    fn counted(built: BuiltAssertion, design: Design) -> Result<Assertion, AssertionError> {
        let counts = GateCounts::of(&built.circuit)?.with_ancilla(built.num_ancilla);
        Ok(Assertion {
            built,
            design,
            counts,
        })
    }

    /// The design that was actually used (never [`Design::Auto`]).
    pub fn design(&self) -> Design {
        self.design
    }

    /// The local assertion circuit: test qubits `0..num_test_qubits()`,
    /// ancillas after.
    pub fn circuit(&self) -> &Circuit {
        &self.built.circuit
    }

    /// Number of qubits under test.
    pub fn num_test_qubits(&self) -> usize {
        self.built.num_test
    }

    /// Number of ancilla qubits required.
    pub fn num_ancillas(&self) -> usize {
        self.built.num_ancilla
    }

    /// Number of classical bits (assertion measurements).
    pub fn num_clbits(&self) -> usize {
        self.built.num_clbits
    }

    /// The paper's cost quadruple for this assertion circuit.
    pub fn gate_counts(&self) -> GateCounts {
        self.counts
    }

    /// `true` when a passing assertion re-prepares the asserted state
    /// (only the SWAP design has this property, §IV-E).
    pub fn corrects_state(&self) -> bool {
        self.design == Design::Swap
    }
}

/// The three designs [`Design::Auto`] chooses among, evaluated for one
/// spec from one set of correct states and at most one [`AssertionPlan`].
/// NDD is built outright, since its circuit is what it costs. SWAP and
/// logical-OR are priced from the plan's parts (`U⁻¹`, `U` and each
/// design's per-step glue), from `U`'s circuits only when NDD built them,
/// and only the design chosen is assembled.
///
/// [`Candidates::new`] prices every design exactly.
/// [`Candidates::bounded`], which [`Design::Auto`] uses, prices SWAP and
/// logical-OR only until their `U⁻¹` and `U` reach NDD's CX count: both
/// designs cost at least that, and a later candidate wins only with
/// strictly fewer CX, so a design priced that far cannot win.
///
/// ```rust
/// use qra_core::{Candidates, Design, StateSpec};
/// use qra_math::CVector;
///
/// let spec = StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)])?;
/// let candidates = Candidates::new(&spec)?;
/// assert_eq!(candidates.counts(Design::Ndd)?.cx, 2);
/// assert!(candidates.counts(Design::Auto).is_err());
/// assert_eq!(candidates.cheapest()?, Design::Ndd);
/// let assertion = candidates.into_assertion()?;
/// assert_eq!(assertion.design(), Design::Ndd);
/// # Ok::<(), qra_core::AssertionError>(())
/// ```
#[derive(Debug)]
pub struct Candidates {
    num_test: usize,
    plan: Result<AssertionPlan, AssertionError>,
    ndd: Result<Assertion, AssertionError>,
    /// `Ok(None)` when priced out: its `U⁻¹` and `U` reach `bound` CX.
    logical_or: Result<Option<GateCounts>, AssertionError>,
    /// As `logical_or`.
    swap: Result<Option<GateCounts>, AssertionError>,
    /// The CX count at which pricing stops; `usize::MAX` prices in full.
    bound: usize,
}

impl Candidates {
    /// Derives `spec`'s correct states, builds NDD and the shared plan,
    /// and prices SWAP and logical-OR exactly. A failure of one design is
    /// kept as that design's result; only a spec that yields no correct
    /// states fails here.
    ///
    /// # Errors
    ///
    /// Everything [`StateSpec::correct_states`] can return.
    pub fn new(spec: &StateSpec) -> Result<Candidates, AssertionError> {
        Ok(Candidates::price(&spec.correct_states()?, false))
    }

    /// [`Design::Auto`]'s candidates: as [`Candidates::new`], but SWAP and
    /// logical-OR are priced only until their `U⁻¹` and `U` reach NDD's CX
    /// count, and [`Candidates::counts`] reports such a design as
    /// [`AssertionError::Unsupported`]. When NDD fails there is no bound.
    pub fn bounded(cs: &CorrectStates) -> Candidates {
        Candidates::price(cs, true)
    }

    fn price(cs: &CorrectStates, bounded: bool) -> Candidates {
        let shared = OnceCell::new();
        let ndd = build_ndd(cs, &shared).and_then(|built| Assertion::counted(built, Design::Ndd));
        let plan = shared
            .into_inner()
            .unwrap_or_else(|| AssertionPlan::build(cs));
        let bound = match &ndd {
            Ok(ndd) if bounded => ndd.gate_counts().cx,
            _ => usize::MAX,
        };
        let costs = |plan: &AssertionPlan| -> Result<_, AssertionError> {
            let Some(parts) = plan.part_counts(bound)? else {
                return Ok((Ok(None), Ok(None)));
            };
            Ok((
                plan.predict_counts(&parts, &OrFlag::Recursive).map(Some),
                plan.predict_counts(&parts, &SwapPlacement::Optimized)
                    .map(Some),
            ))
        };
        let (logical_or, swap) = match plan.as_ref().map_err(Clone::clone).and_then(costs) {
            Ok(pair) => pair,
            Err(e) => (Err(e.clone()), Err(e)),
        };
        Candidates {
            num_test: cs.num_qubits(),
            plan,
            ndd,
            logical_or,
            swap,
            bound,
        }
    }

    /// `design`'s counts, `None` when it was priced out, or why it cannot
    /// be synthesised.
    fn priced(&self, design: Design) -> Result<Option<GateCounts>, AssertionError> {
        match design {
            Design::Ndd => self
                .ndd
                .as_ref()
                .map(|a| Some(a.gate_counts()))
                .map_err(Clone::clone),
            Design::LogicalOr => self.logical_or.clone(),
            Design::Swap => self.swap.clone(),
            Design::Auto => Err(AssertionError::Unsupported {
                scheme: "auto",
                reason: "auto picks one of the three designs and has no counts of its own".into(),
            }),
        }
    }

    /// The gate counts of `design`'s circuit, or why that design cannot be
    /// synthesised.
    ///
    /// # Errors
    ///
    /// The design's own synthesis failure,
    /// [`AssertionError::Unsupported`] for a design that
    /// [`Candidates::bounded`] priced out, or for [`Design::Auto`], which
    /// has no circuit of its own ([`Candidates::cheapest`] names the design
    /// it picks).
    pub fn counts(&self, design: Design) -> Result<GateCounts, AssertionError> {
        self.priced(design)?
            .ok_or_else(|| AssertionError::Unsupported {
                scheme: "auto",
                reason: format!(
                    "{design} was priced only until it reached NDD's {} CX",
                    self.bound
                ),
            })
    }

    /// The paper's `design = NONE` rule: the design with the fewest
    /// entangling gates. Candidates are tried in the fixed preference
    /// order Ndd > LogicalOr > Swap and a later one wins only when
    /// strictly cheaper, so CX-count ties resolve deterministically. A
    /// design priced out costs at least NDD's CX count and is passed over.
    ///
    /// # Errors
    ///
    /// [`AssertionError::AutoSelectionFailed`] with every candidate's
    /// failure, in that order, when none can be synthesised.
    pub fn cheapest(&self) -> Result<Design, AssertionError> {
        let mut best: Option<(Design, usize)> = None;
        let mut failures = Vec::new();
        for d in [Design::Ndd, Design::LogicalOr, Design::Swap] {
            match self.priced(d) {
                Ok(Some(c)) => {
                    if best.is_none_or(|(_, cx)| c.cx < cx) {
                        best = Some((d, c.cx));
                    }
                }
                Ok(None) => {}
                Err(e) => failures.push((d, Box::new(e))),
            }
        }
        best.map(|(d, _)| d)
            .ok_or(AssertionError::AutoSelectionFailed { failures })
    }

    /// Synthesises the [`Candidates::cheapest`] design: NDD as built by
    /// [`Candidates::new`], or SWAP or logical-OR assembled from the shared
    /// plan with the predicted counts.
    ///
    /// # Errors
    ///
    /// [`Candidates::cheapest`]'s, or a failure to assemble the winner.
    pub fn into_assertion(self) -> Result<Assertion, AssertionError> {
        let design = self.cheapest()?;
        let glue: &dyn StepGlue = match design {
            Design::LogicalOr => &OrFlag::Recursive,
            Design::Swap => &SwapPlacement::Optimized,
            // NDD was built by `new`.
            _ => return self.ndd,
        };
        let counts = self.counts(design)?;
        let built = self.plan?.assemble(self.num_test, glue)?;
        debug_assert_eq!(
            GateCounts::of(&built.circuit)
                .ok()
                .map(|c| c.with_ancilla(built.num_ancilla)),
            Some(counts),
            "{design}: predicted counts differ from the assembled circuit's"
        );
        Ok(Assertion {
            built,
            design,
            counts,
        })
    }
}

/// Synthesises an assertion circuit for `spec` with the requested design.
/// [`Design::Auto`] goes through [`Candidates::bounded`], so only the
/// chosen design's circuit is built.
///
/// # Errors
///
/// * [`AssertionError::Unassertable`] for full-rank mixed states;
/// * synthesis failures from the underlying design builders.
///
/// ```rust
/// use qra_core::{synthesize_assertion, Design, StateSpec};
/// use qra_math::CVector;
///
/// let spec = StateSpec::pure(CVector::basis_state(2, 0))?;
/// let assertion = synthesize_assertion(&spec, Design::Ndd)?;
/// assert_eq!(assertion.num_ancillas(), 1);
/// assert_eq!(assertion.gate_counts().cx, 1); // CZ counted as one CX
/// # Ok::<(), qra_core::AssertionError>(())
/// ```
pub fn synthesize_assertion(spec: &StateSpec, design: Design) -> Result<Assertion, AssertionError> {
    let built = match design {
        Design::Auto => return Candidates::bounded(&spec.correct_states()?).into_assertion(),
        Design::Swap => build_swap_assertion(&spec.correct_states()?)?,
        Design::LogicalOr => build_or_assertion(&spec.correct_states()?)?,
        Design::Ndd => build_ndd_assertion(&spec.correct_states()?)?,
    };
    Assertion::counted(built, design)
}

/// A handle returned by [`insert_assertion`], locating the assertion's
/// ancillas and classical bits inside the host circuit.
#[derive(Debug, Clone)]
pub struct AssertionHandle {
    /// The design that was used.
    pub design: Design,
    /// Host-circuit indices of the ancilla qubits added.
    pub ancilla_qubits: Vec<usize>,
    /// Host-circuit classical bits holding the assertion measurements
    /// (any bit reading 1 = assertion error).
    pub clbits: Vec<usize>,
    /// Circuit cost of the inserted assertion.
    pub counts: GateCounts,
}

impl AssertionHandle {
    /// Fraction of shots that raised this assertion (any flag bit set).
    pub fn error_rate(&self, counts: &Counts) -> f64 {
        counts.any_set_frequency(&self.clbits)
    }

    /// Post-selects the shots where this assertion passed, returning the
    /// filtered histogram and the retained fraction (the paper's
    /// error-filtering use case, §IX-B).
    pub fn post_select(&self, counts: &Counts) -> (Counts, f64) {
        counts.post_select_zero(&self.clbits)
    }
}

/// Inserts an assertion for `spec` on `qubits` of `circuit`, appending the
/// required ancillas and classical bits. This is the Rust counterpart of
/// the paper's `assert(circuit, qubitList, stateSet, design)`: it runs
/// [`validate_qubits`], [`synthesize_assertion`] and
/// [`Assertion::compose_into`] in turn, which callers inserting one
/// assertion into many circuits (a fault campaign) call apart.
///
/// # Errors
///
/// * [`AssertionError::InvalidQubitList`] for duplicate/out-of-range
///   qubits or a length mismatch with the spec;
/// * everything [`synthesize_assertion`] can return.
pub fn insert_assertion(
    circuit: &mut Circuit,
    qubits: &[usize],
    spec: &StateSpec,
    design: Design,
) -> Result<AssertionHandle, AssertionError> {
    validate_qubits(circuit, qubits, spec)?;
    synthesize_assertion(spec, design)?.compose_into(circuit, qubits)
}

/// Checks that `qubits` can carry an assertion for `spec` in `circuit`:
/// one qubit per spec qubit, each in range, none twice.
///
/// # Errors
///
/// [`AssertionError::InvalidQubitList`] naming the first problem.
pub fn validate_qubits(
    circuit: &Circuit,
    qubits: &[usize],
    spec: &StateSpec,
) -> Result<(), AssertionError> {
    if qubits.len() != spec.num_qubits() {
        return Err(AssertionError::InvalidQubitList {
            reason: format!(
                "spec covers {} qubits but {} were supplied",
                spec.num_qubits(),
                qubits.len()
            ),
        });
    }
    for (i, &q) in qubits.iter().enumerate() {
        if q >= circuit.num_qubits() {
            return Err(AssertionError::InvalidQubitList {
                reason: format!("qubit {q} out of range"),
            });
        }
        if qubits[..i].contains(&q) {
            return Err(AssertionError::InvalidQubitList {
                reason: format!("qubit {q} listed twice"),
            });
        }
    }
    Ok(())
}

impl Assertion {
    /// Splices this assertion onto `qubits` of `circuit` (which
    /// [`validate_qubits`] accepted for the assertion's spec), appending
    /// its ancillas and classical bits.
    ///
    /// # Errors
    ///
    /// A composition failure from [`Circuit::compose`].
    pub fn compose_into(
        &self,
        circuit: &mut Circuit,
        qubits: &[usize],
    ) -> Result<AssertionHandle, AssertionError> {
        let anc_base = circuit.num_qubits();
        let cl_base = circuit.num_clbits();
        circuit.expand_qubits(anc_base + self.num_ancillas());
        circuit.expand_clbits(cl_base + self.num_clbits());

        let mut qubit_map: Vec<usize> = qubits.to_vec();
        qubit_map.extend(anc_base..anc_base + self.num_ancillas());
        let clbit_map: Vec<usize> = (cl_base..cl_base + self.num_clbits()).collect();
        circuit.compose(self.circuit(), &qubit_map, &clbit_map)?;

        Ok(AssertionHandle {
            design: self.design(),
            ancilla_qubits: (anc_base..anc_base + self.num_ancillas()).collect(),
            clbits: clbit_map,
            counts: self.gate_counts(),
        })
    }
}

/// Inserts a *de-allocation assertion*: checks that `qubits` are back in
/// `|0…0⟩` — the paper's §VIII "de-allocation of ancillary qubits"
/// pattern (ancillas must be returned clean before reuse, or later
/// computations silently corrupt).
///
/// # Errors
///
/// Same conditions as [`insert_assertion`].
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_core::{insert_deallocation_assertion, Design};
/// use qra_sim::StatevectorSimulator;
///
/// // A compute/uncompute pair leaves the helper qubit clean…
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).cx(0, 1);
/// let handle = insert_deallocation_assertion(&mut c, &[1], Design::Ndd)?;
/// let counts = StatevectorSimulator::with_seed(1).run(&c, 512)?;
/// assert_eq!(handle.error_rate(&counts), 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn insert_deallocation_assertion(
    circuit: &mut Circuit,
    qubits: &[usize],
    design: Design,
) -> Result<AssertionHandle, AssertionError> {
    let dim = 1usize.checked_shl(qubits.len() as u32).ok_or_else(|| {
        AssertionError::InvalidQubitList {
            reason: "too many qubits".into(),
        }
    })?;
    let spec = StateSpec::pure(qra_math::CVector::basis_state(dim, 0))?;
    insert_assertion(circuit, qubits, &spec, design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qra_math::{CVector, C64};
    use qra_sim::StatevectorSimulator;

    fn ghz() -> CVector {
        let s = 0.5f64.sqrt();
        let mut v = CVector::zeros(8);
        v[0] = C64::from(s);
        v[7] = C64::from(s);
        v
    }

    #[test]
    fn auto_selects_cheapest_design() {
        // For the even-parity set, NDD (2 CX) beats SWAP and OR.
        let spec =
            StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap();
        let auto = synthesize_assertion(&spec, Design::Auto).unwrap();
        for d in [Design::Swap, Design::LogicalOr, Design::Ndd] {
            let a = synthesize_assertion(&spec, d).unwrap();
            assert!(auto.gate_counts().cx <= a.gate_counts().cx);
        }
        assert_ne!(auto.design(), Design::Auto);
    }

    #[test]
    fn auto_tie_break_is_deterministic() {
        // For every spec, Auto must pick the most-preferred design
        // (Ndd > LogicalOr > Swap) among those with minimal CX count —
        // same answer on every run.
        let specs = [
            StateSpec::pure(CVector::basis_state(2, 0)).unwrap(),
            StateSpec::pure(ghz()).unwrap(),
            StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap(),
        ];
        for spec in &specs {
            let auto = synthesize_assertion(spec, Design::Auto).unwrap();
            let expected = [Design::Ndd, Design::LogicalOr, Design::Swap]
                .into_iter()
                .filter_map(|d| {
                    synthesize_assertion(spec, d)
                        .ok()
                        .map(|a| (d, a.gate_counts().cx))
                })
                .fold(None, |best: Option<(Design, usize)>, (d, cx)| match best {
                    Some((_, best_cx)) if best_cx <= cx => best,
                    _ => Some((d, cx)),
                })
                .map(|(d, _)| d)
                .unwrap();
            assert_eq!(auto.design(), expected);
            // Re-running gives the identical choice.
            let again = synthesize_assertion(spec, Design::Auto).unwrap();
            assert_eq!(again.design(), auto.design());
        }
    }

    #[test]
    fn corrects_state_flag() {
        let spec = StateSpec::pure(CVector::basis_state(2, 0)).unwrap();
        assert!(synthesize_assertion(&spec, Design::Swap)
            .unwrap()
            .corrects_state());
        assert!(!synthesize_assertion(&spec, Design::Ndd)
            .unwrap()
            .corrects_state());
        assert!(!synthesize_assertion(&spec, Design::LogicalOr)
            .unwrap()
            .corrects_state());
    }

    #[test]
    fn insert_assertion_end_to_end_each_design() {
        for design in [Design::Swap, Design::LogicalOr, Design::Ndd, Design::Auto] {
            let mut program = Circuit::new(3);
            program.h(0).cx(0, 1).cx(1, 2);
            let handle = insert_assertion(
                &mut program,
                &[0, 1, 2],
                &StateSpec::pure(ghz()).unwrap(),
                design,
            )
            .unwrap();
            let counts = StatevectorSimulator::with_seed(5)
                .run(&program, 2048)
                .unwrap();
            assert_eq!(
                handle.error_rate(&counts),
                0.0,
                "{design} flagged a correct state"
            );
        }
    }

    #[test]
    fn insert_assertion_detects_bug_each_design() {
        for design in [Design::Swap, Design::LogicalOr, Design::Ndd] {
            let mut program = Circuit::new(3);
            program.u2(std::f64::consts::PI, 0.0, 0).cx(0, 1).cx(1, 2);
            let handle = insert_assertion(
                &mut program,
                &[0, 1, 2],
                &StateSpec::pure(ghz()).unwrap(),
                design,
            )
            .unwrap();
            let counts = StatevectorSimulator::with_seed(5)
                .run(&program, 2048)
                .unwrap();
            assert!(
                handle.error_rate(&counts) > 0.4,
                "{design} missed the sign bug"
            );
        }
    }

    #[test]
    fn insert_on_subset_of_qubits() {
        // 4-qubit program; assert |+⟩ on qubit 2 only.
        let mut program = Circuit::new(4);
        program.h(2).x(3);
        let plus = CVector::from_real(&[0.5f64.sqrt(), 0.5f64.sqrt()]);
        let handle = insert_assertion(
            &mut program,
            &[2],
            &StateSpec::pure(plus).unwrap(),
            Design::LogicalOr,
        )
        .unwrap();
        assert_eq!(handle.ancilla_qubits, vec![4]);
        let counts = StatevectorSimulator::with_seed(2)
            .run(&program, 1024)
            .unwrap();
        assert_eq!(handle.error_rate(&counts), 0.0);
    }

    #[test]
    fn multiple_assertions_stack() {
        // Two sequential assertions on the same program.
        let mut program = Circuit::new(2);
        program.h(0).cx(0, 1);
        let s = 0.5f64.sqrt();
        let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
        let h1 = insert_assertion(
            &mut program,
            &[0, 1],
            &StateSpec::pure(bell.clone()).unwrap(),
            Design::Swap,
        )
        .unwrap();
        let h2 = insert_assertion(
            &mut program,
            &[0, 1],
            &StateSpec::pure(bell).unwrap(),
            Design::Ndd,
        )
        .unwrap();
        assert_ne!(h1.clbits, h2.clbits);
        let counts = StatevectorSimulator::with_seed(9)
            .run(&program, 1024)
            .unwrap();
        assert_eq!(h1.error_rate(&counts), 0.0);
        assert_eq!(h2.error_rate(&counts), 0.0);
    }

    #[test]
    fn invalid_qubit_lists_rejected() {
        let spec = StateSpec::pure(CVector::basis_state(4, 0)).unwrap();
        let mut c = Circuit::new(2);
        assert!(matches!(
            insert_assertion(&mut c, &[0], &spec, Design::Ndd),
            Err(AssertionError::InvalidQubitList { .. })
        ));
        assert!(matches!(
            insert_assertion(&mut c, &[0, 5], &spec, Design::Ndd),
            Err(AssertionError::InvalidQubitList { .. })
        ));
        assert!(matches!(
            insert_assertion(&mut c, &[0, 0], &spec, Design::Ndd),
            Err(AssertionError::InvalidQubitList { .. })
        ));
    }

    #[test]
    fn post_select_filters_errors() {
        // Prepare (|0⟩+|1⟩)/√2, assert |0⟩ with NDD: half the shots flag;
        // post-selection keeps only |0⟩ results.
        let mut program = Circuit::new(1);
        program.h(0);
        let handle = insert_assertion(
            &mut program,
            &[0],
            &StateSpec::pure(CVector::basis_state(2, 0)).unwrap(),
            Design::Ndd,
        )
        .unwrap();
        program.measure(0, handle.clbits.len()).ok();
        // Ensure the data measurement lands on its own clbit.
        let data_clbit = handle.clbits.iter().max().unwrap() + 1;
        let mut program2 = Circuit::new(1);
        program2.h(0);
        let handle2 = insert_assertion(
            &mut program2,
            &[0],
            &StateSpec::pure(CVector::basis_state(2, 0)).unwrap(),
            Design::Ndd,
        )
        .unwrap();
        program2.expand_clbits(data_clbit + 1);
        program2.measure(0, data_clbit).unwrap();
        let counts = StatevectorSimulator::with_seed(3)
            .run(&program2, 4096)
            .unwrap();
        let rate = handle2.error_rate(&counts);
        assert!((rate - 0.5).abs() < 0.05);
        let (filtered, kept) = handle2.post_select(&counts);
        assert!((kept - 0.5).abs() < 0.05);
        // Every retained shot has the data qubit measured as 0.
        assert_eq!(filtered.marginal_frequency(data_clbit), 0.0);
    }

    #[test]
    fn deallocation_assertion_flags_dirty_ancilla() {
        // Compute WITHOUT uncompute: the helper is left entangled/dirty.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let handle = insert_deallocation_assertion(&mut c, &[1], Design::Ndd).unwrap();
        let counts = StatevectorSimulator::with_seed(4).run(&c, 2048).unwrap();
        let rate = handle.error_rate(&counts);
        assert!((rate - 0.5).abs() < 0.05, "dirty ancilla rate {rate}");
    }

    #[test]
    fn deallocation_assertion_multi_qubit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(0, 2).cx(0, 1).cx(0, 2);
        let handle = insert_deallocation_assertion(&mut c, &[1, 2], Design::Swap).unwrap();
        let counts = StatevectorSimulator::with_seed(5).run(&c, 512).unwrap();
        assert_eq!(handle.error_rate(&counts), 0.0);
    }

    #[test]
    fn design_display() {
        assert_eq!(Design::Auto.to_string(), "auto");
        assert_eq!(Design::Swap.to_string(), "swap");
        assert_eq!(Design::LogicalOr.to_string(), "logical-or");
        assert_eq!(Design::Ndd.to_string(), "ndd");
    }
}
