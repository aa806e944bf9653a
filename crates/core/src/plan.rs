//! Shared planning for the SWAP-based and logical-OR designs.
//!
//! Both designs share the paper's §IV structure: find a unitary `U` whose
//! inverse maps every correct state into the computational subspace with
//! certain qubits pinned to `|0⟩`, check those qubits, and restore with
//! `U`. [`AssertionPlan::build`] handles all the rank cases of §IV-C:
//!
//! * `t = 1` — pure state, `U` from state preparation, all qubits checked;
//! * `t = 2^m ≤ 2^{n−1}` — single assertion checking the leading `n − m`
//!   qubits;
//! * `2^m < t < 2^{m+1}`, `t < 2^{n−1}` — two superset assertions whose
//!   intersection is the correct set;
//! * `2^{n−1} < t < 2ⁿ` — one extension ancilla enlarges the space so the
//!   union of correct and "virtually correct" states has size `2ⁿ`.
//!
//! A *linear-coset fast path* recognises correct sets that are affine
//! subspaces of computational basis states (GHZ-style parity sets) and
//! synthesises `U` as a CNOT/X network, reproducing the paper's hand
//! costs (e.g. 2-CX `U` for the GHZ approximate set `{|000⟩, |111⟩}`).
//!
//! Otherwise a step's `U` comes from the general two-level synthesis of
//! its basis change `W`. The step keeps `W` as a matrix and synthesises
//! `U` and `U⁻¹` only when a reader needs the circuits
//! ([`SingleStep::circuits`]); pricing a design needs only their counts.
//!
//! The designs differ only in the glue (`StepGlue`) placed between each
//! step's `U⁻¹` and `U`. `AssertionPlan::assemble` builds a design's
//! circuit from it, and `AssertionPlan::predict_counts` costs the same
//! design from the plan's parts without building it.

use crate::spec::CorrectStates;
use crate::swap::BuiltAssertion;
use crate::AssertionError;
use qra_circuit::synthesis::{prepare_state, unitary_circuit, unitary_pair_counts};
use qra_circuit::{Circuit, GateCounts};
use qra_math::{CMatrix, CVector, C64};
use std::sync::OnceLock;

const TOL: f64 = 1e-9;

/// A single §IV assertion step: invert, check pinned qubits, restore.
#[derive(Debug, Clone)]
pub struct SingleStep {
    /// Local qubit count, including the extension ancilla when present
    /// (local qubit 0 is the extension ancilla in that case).
    pub n_local: usize,
    /// `true` when local qubit 0 is a fresh `|0⟩` extension ancilla rather
    /// than a qubit under test.
    pub has_extension: bool,
    /// Local indices that must read `|0⟩` after `U⁻¹` when the assertion
    /// passes.
    pub checked: Vec<usize>,
    /// The general path's basis change `W`, whose two-level synthesis is
    /// `U`; `None` on the fast paths, which build `U` outright.
    basis_change: Option<CMatrix>,
    /// `(U, U⁻¹)` as circuits over the local qubits, from the fast path or
    /// from the first [`SingleStep::circuits`] call.
    circuits: OnceLock<(Circuit, Circuit)>,
}

impl SingleStep {
    /// A step whose restoring unitary `u` a fast path built.
    fn built(
        n_local: usize,
        has_extension: bool,
        checked: Vec<usize>,
        u: Circuit,
        u_inv: Circuit,
    ) -> SingleStep {
        SingleStep {
            n_local,
            has_extension,
            checked,
            basis_change: None,
            circuits: OnceLock::from((u, u_inv)),
        }
    }

    /// The restoring unitary `U` and `U⁻¹`, as circuits over the local
    /// qubits; a general-path step synthesises them from `W` on the first
    /// call and keeps them.
    ///
    /// # Errors
    ///
    /// A synthesis failure of `U`.
    pub fn circuits(&self) -> Result<(&Circuit, &Circuit), AssertionError> {
        if self.circuits.get().is_none() {
            let u = unitary_circuit(self.w())?;
            let u_inv = u.inverse()?;
            let _ = self.circuits.set((u, u_inv));
        }
        let (u, u_inv) = self.circuits.get().expect("filled above");
        Ok((u, u_inv))
    }

    /// The general path's basis change `W`, whose two-level synthesis is
    /// `U`; `None` for a step a fast path built.
    pub fn basis_change(&self) -> Option<&CMatrix> {
        self.basis_change.as_ref()
    }

    fn w(&self) -> &CMatrix {
        self.basis_change
            .as_ref()
            .expect("a step without circuits keeps its W")
    }

    /// The counts of `U⁻¹` and `U` together: from the circuits when they
    /// are built, else from the count-only emitter. `None` when the CX
    /// total reaches `cx_bound`.
    fn part_counts(&self, cx_bound: usize) -> Result<Option<GateCounts>, AssertionError> {
        let part = if let Some((u, u_inv)) = self.circuits.get() {
            GateCounts::of(u_inv)? + GateCounts::of(u)?
        } else {
            match unitary_pair_counts(self.w(), cx_bound)? {
                Some(part) => part,
                None => return Ok(None),
            }
        };
        Ok((part.cx < cx_bound).then_some(part))
    }
}

/// A plan built at most once, on first use, and shared by every design
/// that needs it; a failed build is shared too.
pub(crate) type SharedPlan = std::cell::OnceCell<Result<AssertionPlan, AssertionError>>;

/// The full plan: one or two [`SingleStep`]s (two for the superset-pair
/// rank case).
#[derive(Debug, Clone)]
pub struct AssertionPlan {
    /// The assertion steps, applied in order.
    pub steps: Vec<SingleStep>,
}

impl AssertionPlan {
    /// Builds the plan for a canonical correct-state decomposition.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failures; `t = 2ⁿ` is rejected earlier by
    /// [`CorrectStates`] construction.
    pub fn build(cs: &CorrectStates) -> Result<AssertionPlan, AssertionError> {
        let dim = cs.dim();
        let n = cs.num_qubits();
        let t = cs.t();
        debug_assert!(t >= 1 && t < dim);

        let half = dim / 2;
        if t == 1 {
            return Ok(AssertionPlan {
                steps: vec![pure_step(cs)?],
            });
        }
        // Product-projector fast path: when the correct subspace factors
        // per qubit (e.g. |++⟩⟨++| ⊗ I for the Deutsch–Jozsa constant set,
        // Fig. 20), `U` is a tensor of one-qubit gates — no entanglers.
        if let Some(step) = try_product_projector(cs.correct(), n)? {
            return Ok(AssertionPlan { steps: vec![step] });
        }
        // Selector-multiplexed fast path: two correct states living in
        // opposite slices of one qubit (the QPE slot-5 set
        // {|++++⟩|0⟩, |θ₄⟩|1⟩} of §IX-A3) synthesise as a controlled pair
        // of state preparations.
        if t == 2 {
            if let Some(step) = try_selector_multiplexed(cs.correct(), n)? {
                return Ok(AssertionPlan { steps: vec![step] });
            }
        }
        if t.is_power_of_two() && t <= half {
            return Ok(AssertionPlan {
                steps: vec![subspace_step(cs.basis()?, t, n, false)?],
            });
        }
        if t > half || (dim == 2 && t == 1) {
            // Extension-ancilla case (§IV-C.3): pad with "virtually correct"
            // states |1⟩⊗ψ_j until exactly half of the extended space is
            // correct.
            return Ok(AssertionPlan {
                steps: vec![extension_step(cs)?],
            });
        }
        // Superset pair (§IV-C.2): 2^m < t < 2^{m+1} ≤ half.
        let m_plus = t.next_power_of_two();
        let k = m_plus - t;
        debug_assert!(t + 2 * k <= dim, "superset padding must fit");
        let mut basis1 = cs.basis()?.to_vec();
        // S1 keeps order: correct ∪ incorrect[0..k].
        let step1 = subspace_step(&basis1, m_plus, n, false)?;
        // S2: correct ∪ incorrect[k..2k]; swap the pad blocks.
        basis1[t..t + 2 * k].rotate_left(k);
        let step2 = subspace_step(&basis1, m_plus, n, false)?;
        Ok(AssertionPlan {
            steps: vec![step1, step2],
        })
    }

    /// Ancillas of the design with per-step `glue`: each step's extension
    /// ancilla, if it has one, plus the glue's own.
    fn num_ancillas(&self, glue: &dyn StepGlue) -> usize {
        self.steps
            .iter()
            .map(|s| usize::from(s.has_extension) + glue.ancillas(s.checked.len()))
            .sum()
    }

    /// Assembles the design with per-step `glue` over `k` test qubits: each
    /// step emits `U⁻¹`, the glue, `U`, then measures the glue's measured
    /// ancillas. Ancillas follow the test qubits in step order, a step's
    /// extension ancilla before its glue ancillas.
    pub(crate) fn assemble(
        &self,
        k: usize,
        glue: &dyn StepGlue,
    ) -> Result<BuiltAssertion, AssertionError> {
        let num_ancilla = self.num_ancillas(glue);
        let num_clbits: usize = self
            .steps
            .iter()
            .map(|s| glue.measured(s.checked.len()))
            .sum();

        let mut circuit = Circuit::with_clbits(k + num_ancilla, num_clbits);
        let mut next_ancilla = k;
        let mut next_clbit = 0;

        for step in &self.steps {
            // Map the step's local qubits onto the assertion circuit: local
            // 0 is the extension ancilla when present, then the test qubits.
            let mut map: Vec<usize> = Vec::with_capacity(step.n_local);
            if step.has_extension {
                map.push(next_ancilla);
                next_ancilla += 1;
            }
            map.extend(0..k);
            debug_assert_eq!(map.len(), step.n_local);
            let n_glue = glue.ancillas(step.checked.len());
            let ancillas: Vec<usize> = (next_ancilla..next_ancilla + n_glue).collect();
            next_ancilla += n_glue;
            let checked: Vec<usize> = step.checked.iter().map(|&c| map[c]).collect();

            let (u, u_inv) = step.circuits()?;
            circuit.compose(u_inv, &map, &[])?;
            glue.emit(&mut circuit, &checked, &ancillas)?;
            circuit.compose(u, &map, &[])?;
            for &a in &ancillas[..glue.measured(checked.len())] {
                circuit.measure(a, next_clbit)?;
                next_clbit += 1;
            }
        }
        debug_assert_eq!(next_ancilla, k + num_ancilla);
        debug_assert_eq!(next_clbit, num_clbits);

        Ok(BuiltAssertion {
            circuit,
            num_test: k,
            num_ancilla,
            num_clbits,
        })
    }

    /// Per-step counts of `U⁻¹` and `U` together: the part of every §IV
    /// design's cost that does not depend on its glue. `None` once their
    /// CX total reaches `cx_bound` (`usize::MAX` never stops): every §IV
    /// design then costs at least `cx_bound` CX.
    pub(crate) fn part_counts(
        &self,
        cx_bound: usize,
    ) -> Result<Option<Vec<GateCounts>>, AssertionError> {
        let mut parts = Vec::with_capacity(self.steps.len());
        let mut cx = 0;
        for step in &self.steps {
            let Some(part) = step.part_counts(cx_bound - cx)? else {
                return Ok(None);
            };
            cx += part.cx;
            parts.push(part);
        }
        Ok(Some(parts))
    }

    /// The counts [`AssertionPlan::assemble`] with `glue` would report,
    /// from the per-step [`AssertionPlan::part_counts`] and the glue alone,
    /// which is emitted on its own small circuit. `GateCounts::of` is a sum
    /// over instructions and the glue's cost does not depend on which
    /// qubits it acts on, so the prediction is exact.
    pub(crate) fn predict_counts(
        &self,
        parts: &[GateCounts],
        glue: &dyn StepGlue,
    ) -> Result<GateCounts, AssertionError> {
        let mut total = GateCounts::default();
        for (step, &part) in self.steps.iter().zip(parts) {
            let c = step.checked.len();
            let a = glue.ancillas(c);
            let mut local = Circuit::new(c + a);
            let checked: Vec<usize> = (0..c).collect();
            let ancillas: Vec<usize> = (c..c + a).collect();
            glue.emit(&mut local, &checked, &ancillas)?;
            total = total + part + GateCounts::of(&local)?;
            total.measure += glue.measured(c);
        }
        Ok(total.with_ancilla(self.num_ancillas(glue)))
    }
}

/// What a §IV design places between a step's `U⁻¹` and `U`. One value
/// emits the gates both into the assembled circuit and into the small
/// circuit its cost is read from, so a design's predicted and built
/// counts cannot drift apart.
pub(crate) trait StepGlue {
    /// Fresh ancillas a step with `checked` checked qubits needs, besides
    /// its extension ancilla.
    fn ancillas(&self, checked: usize) -> usize;
    /// How many of those ancillas, the leading ones, are measured after
    /// `U`.
    fn measured(&self, checked: usize) -> usize;
    /// Emits the glue on the step's `checked` qubits (already mapped onto
    /// the circuit) and its fresh `ancillas`.
    fn emit(
        &self,
        circuit: &mut Circuit,
        checked: &[usize],
        ancillas: &[usize],
    ) -> Result<(), AssertionError>;
}

/// `t = 1`: prepare-state synthesis, all qubits checked.
fn pure_step(cs: &CorrectStates) -> Result<SingleStep, AssertionError> {
    let n = cs.num_qubits();
    let u = prepare_state(&cs.correct()[0])?;
    let u_inv = u.inverse()?;
    Ok(SingleStep::built(n, false, (0..n).collect(), u, u_inv))
}

/// `t = 2^m`: synthesise `U` mapping `|0…0 x⟩ → ψ_x`; check the leading
/// `n − m` qubits.
fn subspace_step(
    basis: &[CVector],
    t: usize,
    n: usize,
    has_extension: bool,
) -> Result<SingleStep, AssertionError> {
    debug_assert!(t.is_power_of_two());
    let m = t.trailing_zeros() as usize;

    // Linear-coset fast path for classical correct sets (may pick a
    // cheaper set of checked qubits than the leading ones).
    if let Some((u, u_inv, checked)) = try_linear_coset(basis, t, n)? {
        return Ok(SingleStep::built(n, has_extension, checked, u, u_inv));
    }

    // General path: full basis-change unitary W = Σ|ψ_i⟩⟨i|, synthesised
    // when a reader needs `U`.
    let d = basis.len();
    Ok(SingleStep {
        n_local: n,
        has_extension,
        checked: (0..n - m).collect(),
        basis_change: Some(CMatrix::from_fn(d, d, |r, c| basis[c].amplitude(r))),
        circuits: OnceLock::new(),
    })
}

/// `t > 2^{n−1}`: prepend an extension ancilla and pad with virtually
/// correct states.
fn extension_step(cs: &CorrectStates) -> Result<SingleStep, AssertionError> {
    let dim = cs.dim();
    let n = cs.num_qubits();
    let t = cs.t();
    let basis = cs.basis()?;
    let ext_dim = 2 * dim;
    let e0 = CVector::basis_state(2, 0);
    let e1 = CVector::basis_state(2, 1);

    // Correct-ext: |0⟩⊗ψ_i (i < t) plus |1⟩⊗ψ_j (j ≥ t) until 2ⁿ states.
    let mut ext_basis: Vec<CVector> = Vec::with_capacity(ext_dim);
    for v in &basis[..t] {
        ext_basis.push(e0.kron(v));
    }
    for v in &basis[t..] {
        ext_basis.push(e1.kron(v));
    }
    debug_assert_eq!(ext_basis.len(), dim);
    // Incorrect-ext: the orthogonal complement.
    for v in &basis[..t] {
        ext_basis.push(e1.kron(v));
    }
    for v in &basis[t..] {
        ext_basis.push(e0.kron(v));
    }
    debug_assert_eq!(ext_basis.len(), ext_dim);

    subspace_step(&ext_basis, dim, n + 1, true)
}

/// Detects a correct *subspace projector* that factors as a tensor product
/// of per-qubit projectors (each of rank 1 or 2) and synthesises `U` as a
/// tensor of one-qubit gates. Rank-1 qubits become the checked qubits;
/// rank-2 qubits are left free. Returns `None` when the projector does not
/// factor or when no qubit is checked.
pub(crate) fn try_product_projector(
    correct: &[CVector],
    n: usize,
) -> Result<Option<SingleStep>, AssertionError> {
    const TOL: f64 = 1e-8;
    let dim = 1usize << n;
    // Projector onto the correct span (basis-independent, which sidesteps
    // the arbitrary eigenvector choice in degenerate eigenspaces).
    let mut p = CMatrix::zeros(dim, dim);
    for v in correct {
        p = p.add(&CMatrix::outer(v, v))?;
    }

    // Peel one qubit at a time: P = A ⊗ B requires
    // P ≈ (tr_rest P) ⊗ (tr_q0 P) / tr(P).
    let mut factors: Vec<CMatrix> = Vec::with_capacity(n);
    let mut rest = p;
    for q in 0..n {
        if q == n - 1 {
            factors.push(rest.clone());
            break;
        }
        let remaining = n - q;
        let tr = rest.trace()?.re;
        if tr < TOL {
            return Ok(None);
        }
        let traced_rest: Vec<usize> = (1..remaining).collect();
        let a = rest.partial_trace(&traced_rest)?; // 2×2
        let b = rest.partial_trace(&[0])?;
        let candidate = a.kron(&b).scale(C64::from(1.0 / tr));
        if candidate.max_abs_diff(&rest) > TOL {
            return Ok(None);
        }
        // Normalise A to a projector: its rank is 1 or 2.
        let det = a.get(0, 0) * a.get(1, 1) - a.get(0, 1) * a.get(1, 0);
        let rank_a = if det.norm() < TOL { 1.0 } else { 2.0 };
        let a_proj = a.scale(C64::from(rank_a / a.trace()?.re));
        // Validate projector property.
        if a_proj.mul(&a_proj)?.max_abs_diff(&a_proj) > 1e-6 {
            return Ok(None);
        }
        factors.push(a_proj);
        // B = tr_q0(P) / tr(A) with tr(A) = rank_a.
        rest = b.scale(C64::from(1.0 / rank_a));
    }
    // Last factor must also be a projector of rank 1 or 2.
    {
        let last = factors.last_mut().expect("n ≥ 1");
        let det = last.get(0, 0) * last.get(1, 1) - last.get(0, 1) * last.get(1, 0);
        let tr = last.trace()?.re;
        let rank = if det.norm() < TOL { 1.0 } else { 2.0 };
        if (tr - rank).abs() > 1e-6 {
            *last = last.scale(C64::from(rank / tr));
        }
        if last.mul(last)?.max_abs_diff(last) > 1e-6 {
            return Ok(None);
        }
    }

    // Build U = ⊗ u_q and the checked list.
    let mut u = Circuit::new(n);
    let mut checked = Vec::new();
    let mut t_product = 1usize;
    for (q, a) in factors.iter().enumerate() {
        let det = a.get(0, 0) * a.get(1, 1) - a.get(0, 1) * a.get(1, 0);
        if det.norm() < TOL {
            // Rank 1: A = |φ⟩⟨φ|; u_q maps |0⟩ → |φ⟩; qubit is checked.
            let col = if a.get(0, 0).norm() >= a.get(1, 1).norm() {
                CVector::new(vec![a.get(0, 0), a.get(1, 0)])
            } else {
                CVector::new(vec![a.get(0, 1), a.get(1, 1)])
            };
            let phi = col.normalized()?;
            let theta = 2.0 * phi.amplitude(1).norm().atan2(phi.amplitude(0).norm());
            if theta.abs() > 1e-12 {
                u.ry(theta, q);
            }
            if phi.amplitude(0).norm() > TOL && phi.amplitude(1).norm() > TOL {
                let lambda = phi.amplitude(1).arg() - phi.amplitude(0).arg();
                if lambda.abs() > 1e-12 {
                    u.rz(lambda, q);
                }
            }
            checked.push(q);
        } else {
            // Rank 2: A = I, qubit unchecked, u_q = I.
            t_product *= 2;
        }
    }
    if checked.is_empty() || t_product != correct.len() {
        return Ok(None);
    }
    // Defensive verification: U⁻¹ P U must be supported on the subspace
    // with the checked qubits at |0⟩.
    let u_inv = u.inverse()?;
    let umat = u_inv.unitary_matrix()?;
    for v in correct {
        let out = umat.mul_vec(v);
        for (i, amp) in out.iter().enumerate() {
            if amp.norm() > 1e-6 {
                for &cq in &checked {
                    if (i >> (n - 1 - cq)) & 1 == 1 {
                        return Ok(None);
                    }
                }
            }
        }
    }
    Ok(Some(SingleStep::built(n, false, checked, u, u_inv)))
}

/// Fast path for `t = 2`: if a *selector* qubit `s` exists such that the
/// two correct states live in opposite `|0⟩/|1⟩` slices of `s`
/// (`ψ₀ = φ₀ ⊗ |b⟩_s`, `ψ₁ = φ₁ ⊗ |1−b⟩_s`), synthesise `U` as a pair of
/// oppositely-controlled state preparations. Checked qubits: all but `s`.
fn try_selector_multiplexed(
    correct: &[CVector],
    n: usize,
) -> Result<Option<SingleStep>, AssertionError> {
    use qra_circuit::synthesis::controlled::controlled_circuit;
    use qra_circuit::synthesis::mc_gate::ControlState;
    debug_assert_eq!(correct.len(), 2);
    if n < 2 {
        return Ok(None);
    }
    let dim = 1usize << n;
    for s in 0..n {
        let slice_of = |v: &CVector| -> Option<(usize, CVector)> {
            // Returns (bit value, reduced (n−1)-qubit state) when `v` is
            // supported on a single value of qubit s.
            let mask = 1usize << (n - 1 - s);
            let mut bit = None;
            for (i, amp) in v.iter().enumerate() {
                if amp.norm() > TOL {
                    let b = usize::from(i & mask != 0);
                    match bit {
                        None => bit = Some(b),
                        Some(prev) if prev != b => return None,
                        _ => {}
                    }
                }
            }
            let b = bit?;
            let mut reduced = CVector::zeros(dim / 2);
            for i in 0..dim {
                if usize::from(i & mask != 0) == b {
                    // Remove bit s from the index.
                    let high = (i >> (n - s)) << (n - 1 - s);
                    let low = i & (mask - 1);
                    reduced[high | low] = v.amplitude(i);
                }
            }
            Some((b, reduced))
        };
        let Some((b0, phi0)) = slice_of(&correct[0]) else {
            continue;
        };
        let Some((b1, phi1)) = slice_of(&correct[1]) else {
            continue;
        };
        if b0 == b1 {
            continue;
        }
        // Build the controlled preparations on the non-selector qubits.
        let others: Vec<usize> = (0..n).filter(|&q| q != s).collect();
        let embed = |prep: &Circuit| -> Result<Circuit, AssertionError> {
            let mut wide = Circuit::new(n);
            wide.compose(prep, &others, &[])?;
            Ok(wide)
        };
        let prep0 = embed(&prepare_state(&phi0.normalized()?)?)?;
        let prep1 = embed(&prepare_state(&phi1.normalized()?)?)?;
        let pol = |b: usize| {
            if b == 1 {
                ControlState::Closed
            } else {
                ControlState::Open
            }
        };
        let mut u = controlled_circuit(&prep0, s, pol(b0))?;
        let second = controlled_circuit(&prep1, s, pol(b1))?;
        let map: Vec<usize> = (0..n).collect();
        u.compose(&second, &map, &[])?;
        let u_inv = u.inverse()?;
        return Ok(Some(SingleStep::built(n, false, others, u, u_inv)));
    }
    Ok(None)
}

/// Detects a correct set that is exactly the computational basis states of
/// an affine subspace `offset ⊕ span(G)` and synthesises `U⁻¹` as an
/// X/CNOT network pinning the leading `n − m` coordinates to zero.
#[allow(clippy::type_complexity)]
fn try_linear_coset(
    basis: &[CVector],
    t: usize,
    n: usize,
) -> Result<Option<(Circuit, Circuit, Vec<usize>)>, AssertionError> {
    // All 2ⁿ basis vectors must be computational basis states (else the
    // completion reordered nothing and the transform would break them).
    let mut indices = Vec::with_capacity(basis.len());
    for v in basis {
        match computational_index(v) {
            Some(i) => indices.push(i),
            None => return Ok(None),
        }
    }
    let correct: Vec<usize> = indices[..t].to_vec();

    // Affine structure: offset = first element; differences must form a
    // linear subspace of dimension m with exactly t elements.
    let offset = correct[0];
    let mut diffs: Vec<usize> = correct.iter().map(|&x| x ^ offset).collect();
    diffs.sort_unstable();
    diffs.dedup();
    if diffs.len() != t {
        return Ok(None);
    }
    // Closure check: xor of any two diffs must be a diff.
    for &a in &diffs {
        for &b in &diffs {
            if diffs.binary_search(&(a ^ b)).is_err() {
                return Ok(None);
            }
        }
    }
    let m = t.trailing_zeros() as usize;

    // Basis of the subspace via Gaussian elimination (bit = qubit position:
    // bit b of an index ↔ qubit n−1−b).
    let mut gens: Vec<usize> = Vec::new();
    let mut reduced: Vec<usize> = Vec::new();
    for &d in diffs.iter().filter(|&&d| d != 0) {
        let mut x = d;
        for &r in &reduced {
            let pivot = 1usize << (usize::BITS - 1 - r.leading_zeros());
            if x & pivot != 0 {
                x ^= r;
            }
        }
        if x != 0 {
            reduced.push(x);
            gens.push(d);
        }
        if gens.len() == m {
            break;
        }
    }
    if gens.len() != m {
        return Ok(None);
    }

    // Build a CNOT network T (sequence of row ops) putting the generator
    // matrix G (n×m over GF(2), rows = qubit coordinates) into reduced row
    // echelon form with freely chosen pivot rows. Pivot coordinates stay
    // "free" (they carry the m subspace degrees of freedom); all other
    // rows reduce to zero, so those coordinates are pinned to |0⟩ on the
    // correct subspace — they become the checked qubits.
    //
    // A CX(control c, target tq) maps index bits `bit(tq) ^= bit(c)`, i.e.
    // the row operation `row[tq] ^= row[c]` on G.
    let mut g_rows: Vec<Vec<u8>> = (0..n)
        .map(|q| {
            gens.iter()
                .map(|&g| ((g >> (n - 1 - q)) & 1) as u8)
                .collect()
        })
        .collect();
    let mut cx_ops: Vec<(usize, usize)> = Vec::new(); // (control, target)
    let mut pivot_of_col: Vec<usize> = Vec::with_capacity(m);

    for col in 0..m {
        // Choose the first non-pivot row with a 1 in this column.
        let pivot = (0..n)
            .find(|r| !pivot_of_col.contains(r) && g_rows[*r][col] == 1)
            .ok_or(AssertionError::InvalidSpec {
                reason: "generator matrix lost rank".into(),
            })?;
        pivot_of_col.push(pivot);
        // Eliminate this column from every other row.
        for r in 0..n {
            if r != pivot && g_rows[r][col] == 1 {
                // Indexed loop: `g_rows[r]` and `g_rows[pivot]` alias the
                // same Vec, so iterator forms fail the borrow check.
                #[allow(clippy::needless_range_loop)]
                for c in 0..m {
                    g_rows[r][c] ^= g_rows[pivot][c];
                }
                cx_ops.push((pivot, r));
            }
        }
    }
    // RREF cleanup: clear later columns from earlier pivot rows.
    for col in 0..m {
        let p = pivot_of_col[col];
        for c in 0..m {
            if c != col && g_rows[p][c] == 1 {
                let other = pivot_of_col[c];
                #[allow(clippy::needless_range_loop)]
                for cc in 0..m {
                    g_rows[p][cc] ^= g_rows[other][cc];
                }
                cx_ops.push((other, p));
            }
        }
    }
    // Verify: pivot rows are unit vectors, all other rows zero.
    for (q, row) in g_rows.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            let expect = u8::from(pivot_of_col.get(c) == Some(&q));
            if v != expect {
                return Ok(None);
            }
        }
    }
    let checked: Vec<usize> = (0..n).filter(|q| !pivot_of_col.contains(q)).collect();
    debug_assert_eq!(checked.len(), n - m);

    // U⁻¹ = X gates clearing the offset, then the CX network.
    let mut u_inv = Circuit::new(n);
    for q in 0..n {
        if (offset >> (n - 1 - q)) & 1 == 1 {
            u_inv.x(q);
        }
    }
    for &(c, tq) in &cx_ops {
        u_inv.cx(c, tq);
    }
    let u = u_inv.inverse()?;

    // Defensive validation: every correct index must land with zeros at
    // all checked coordinates.
    let umat = u_inv.unitary_matrix()?;
    for &i in &correct {
        let out = umat.mul_vec(&CVector::basis_state(basis.len(), i));
        let idx = computational_index(&out).ok_or(AssertionError::InvalidSpec {
            reason: "linear coset map produced a superposition".into(),
        })?;
        for &q in &checked {
            if (idx >> (n - 1 - q)) & 1 == 1 {
                return Err(AssertionError::InvalidSpec {
                    reason: "linear coset map missed the target subspace".into(),
                });
            }
        }
    }
    Ok(Some((u, u_inv, checked)))
}

/// Returns the basis index when `v` is a computational basis state (up to
/// global phase), else `None`.
fn computational_index(v: &CVector) -> Option<usize> {
    let mut hot = None;
    for (i, amp) in v.iter().enumerate() {
        if amp.norm() > TOL {
            if hot.is_some() {
                return None;
            }
            if (amp.norm() - 1.0).abs() > 1e-6 {
                return None;
            }
            hot = Some(i);
        }
    }
    hot
}

/// Convenience: the all-zero local input check — after `u_inv · u` the
/// circuit must act as identity (used in tests).
#[doc(hidden)]
pub fn verify_step_roundtrip(step: &SingleStep) -> bool {
    let Ok((u, u_inv)) = step.circuits() else {
        return false;
    };
    let mut c = u.clone();
    let map: Vec<usize> = (0..step.n_local).collect();
    if c.compose(u_inv, &map, &[]).is_err() {
        return false;
    }
    match c.unitary_matrix() {
        Ok(m) => m.approx_eq_up_to_phase(&qra_math::CMatrix::identity(1 << step.n_local), 1e-7),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StateSpec;
    use qra_math::CMatrix;

    fn ghz() -> CVector {
        let s = 0.5f64.sqrt();
        let mut v = CVector::zeros(8);
        v[0] = C64::from(s);
        v[7] = C64::from(s);
        v
    }

    fn classical_set(n: usize, indices: &[usize]) -> CorrectStates {
        let states: Vec<CVector> = indices
            .iter()
            .map(|&i| CVector::basis_state(1 << n, i))
            .collect();
        StateSpec::set(states).unwrap().correct_states().unwrap()
    }

    #[test]
    fn pure_plan_checks_all_qubits() {
        let cs = StateSpec::pure(ghz()).unwrap().correct_states().unwrap();
        let plan = AssertionPlan::build(&cs).unwrap();
        assert_eq!(plan.steps.len(), 1);
        let step = &plan.steps[0];
        assert_eq!(step.checked, vec![0, 1, 2]);
        assert!(!step.has_extension);
        assert!(verify_step_roundtrip(step));
        // U|0…0⟩ must equal the GHZ state.
        let sv = step.circuits().unwrap().0.statevector().unwrap();
        assert!(sv.approx_eq_up_to_phase(&ghz(), 1e-8));
    }

    #[test]
    fn ghz_approx_set_uses_linear_fast_path() {
        // {|000⟩, |111⟩}: affine subspace, U should be a 2-CX network.
        let cs = classical_set(3, &[0, 7]);
        let plan = AssertionPlan::build(&cs).unwrap();
        let step = &plan.steps[0];
        assert_eq!(step.checked.len(), 2);
        let counts = qra_circuit::GateCounts::of(step.circuits().unwrap().0).unwrap();
        assert_eq!(counts.cx, 2, "paper's Fig 1 accounting: 2-CX U");
        assert!(verify_step_roundtrip(step));
        // U⁻¹ maps both correct states to indices whose checked qubits are 0.
        let m = step.circuits().unwrap().1.unitary_matrix().unwrap();
        let n = 3usize;
        for idx in [0usize, 7] {
            let out = m.mul_vec(&CVector::basis_state(8, idx));
            let ok: f64 = out
                .probabilities()
                .iter()
                .enumerate()
                .filter(|(i, _)| step.checked.iter().all(|&q| (i >> (n - 1 - q)) & 1 == 0))
                .map(|(_, p)| p)
                .sum();
            assert!((ok - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extended_four_set_costs_one_cx() {
        // {|000⟩,|011⟩,|100⟩,|111⟩} — paper reduces U to ~1 CX.
        let cs = classical_set(3, &[0b000, 0b011, 0b100, 0b111]);
        let plan = AssertionPlan::build(&cs).unwrap();
        let step = &plan.steps[0];
        assert_eq!(step.checked.len(), 1);
        let counts = qra_circuit::GateCounts::of(step.circuits().unwrap().0).unwrap();
        assert!(
            counts.cx <= 1,
            "affine fast path expected, got {}",
            counts.cx
        );
        assert!(verify_step_roundtrip(step));
    }

    #[test]
    fn non_affine_power_of_two_uses_general_path() {
        // {|00⟩…} pick {0, 1} on 2 qubits: affine (dim 1). Use a genuinely
        // non-classical set instead: {|00⟩, |+1⟩}.
        let plus1 = {
            let s = 0.5f64.sqrt();
            let mut v = CVector::zeros(4);
            v[0b01] = C64::from(s);
            v[0b11] = C64::from(s);
            v
        };
        let cs = StateSpec::set(vec![CVector::basis_state(4, 0), plus1])
            .unwrap()
            .correct_states()
            .unwrap();
        assert_eq!(cs.t(), 2);
        let plan = AssertionPlan::build(&cs).unwrap();
        let step = &plan.steps[0];
        assert!(verify_step_roundtrip(step));
        // U must map |00⟩ and |01⟩ onto the correct span.
        let m = step.circuits().unwrap().0.unitary_matrix().unwrap();
        for i in 0..2 {
            let out = m.mul_vec(&CVector::basis_state(4, i));
            assert!(cs.accepts(&out, 1e-7), "column {i} escaped correct span");
        }
    }

    #[test]
    fn superset_pair_for_rank_three() {
        // Paper §IV-C.2 example: ρ = .5|000⟩⟨000| + .25|001⟩⟨001| + .25|010⟩⟨010|.
        let e = |i: usize| CVector::basis_state(8, i);
        let rho = CMatrix::outer(&e(0), &e(0))
            .scale(C64::from(0.5))
            .add(&CMatrix::outer(&e(1), &e(1)).scale(C64::from(0.25)))
            .unwrap()
            .add(&CMatrix::outer(&e(2), &e(2)).scale(C64::from(0.25)))
            .unwrap();
        let cs = StateSpec::mixed(rho).unwrap().correct_states().unwrap();
        assert_eq!(cs.t(), 3);
        let plan = AssertionPlan::build(&cs).unwrap();
        assert_eq!(plan.steps.len(), 2, "rank 3 needs a superset pair");
        for step in &plan.steps {
            assert_eq!(step.checked.len(), 1);
            assert!(verify_step_roundtrip(step));
        }
        // Each correct state must pass BOTH steps (map into the subspace).
        for idx in [0usize, 1, 2] {
            for step in &plan.steps {
                let m = step.circuits().unwrap().1.unitary_matrix().unwrap();
                let out = m.mul_vec(&e(idx));
                let leading_zero: f64 = out.probabilities()[..4].iter().sum();
                assert!(
                    (leading_zero - 1.0).abs() < 1e-8,
                    "correct state {idx} failed a superset step"
                );
            }
        }
        // At least one incorrect state must fail at least one step.
        let m1 = plan.steps[0]
            .circuits()
            .unwrap()
            .1
            .unitary_matrix()
            .unwrap();
        let m2 = plan.steps[1]
            .circuits()
            .unwrap()
            .1
            .unitary_matrix()
            .unwrap();
        let mut some_reject = false;
        for idx in 3..8 {
            let p1: f64 = m1.mul_vec(&e(idx)).probabilities()[..4].iter().sum();
            let p2: f64 = m2.mul_vec(&e(idx)).probabilities()[..4].iter().sum();
            if p1 < 0.5 || p2 < 0.5 {
                some_reject = true;
            }
        }
        assert!(some_reject);
    }

    #[test]
    fn high_rank_uses_extension_ancilla() {
        // t = 3 of dim 4 (2^{n−1} = 2 < 3): extension case.
        let cs = classical_set(2, &[0, 1, 2]);
        assert_eq!(cs.t(), 3);
        let plan = AssertionPlan::build(&cs).unwrap();
        assert_eq!(plan.steps.len(), 1);
        let step = &plan.steps[0];
        assert!(step.has_extension);
        assert_eq!(step.n_local, 3);
        assert_eq!(step.checked, vec![0]);
        assert!(verify_step_roundtrip(step));
        // With the extension ancilla in |0⟩, correct states map to leading 0.
        let m = step.circuits().unwrap().1.unitary_matrix().unwrap();
        for idx in [0usize, 1, 2] {
            let input = CVector::basis_state(2, 0).kron(&CVector::basis_state(4, idx));
            let out = m.mul_vec(&input);
            let leading_zero: f64 = out.probabilities()[..4].iter().sum();
            assert!((leading_zero - 1.0).abs() < 1e-8);
        }
        // The incorrect state |3⟩ must map to leading 1.
        let input = CVector::basis_state(2, 0).kron(&CVector::basis_state(4, 3));
        let out = m.mul_vec(&input);
        let leading_zero: f64 = out.probabilities()[..4].iter().sum();
        assert!(leading_zero < 1e-8);
    }

    #[test]
    fn bell_pair_mixed_state_plan() {
        // ½(|00⟩⟨00| + |11⟩⟨11|): t=2, n=2 → t = 2^{n−1}, single step, 1 check.
        let cs = classical_set(2, &[0, 3]);
        let plan = AssertionPlan::build(&cs).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].checked.len(), 1);
    }

    #[test]
    fn dj_constant_set_uses_product_projector() {
        // {|++⟩|0⟩, |++⟩|1⟩}: projector |++⟩⟨++| ⊗ I factors per qubit →
        // U = H⊗H⊗I, 0 CX, checked = {0, 1} (paper Fig. 20: 4-CX SWAP
        // assertion total).
        let plus = CVector::from_real(&[0.5, 0.5, 0.5, 0.5]);
        let s0 = plus.kron(&CVector::basis_state(2, 0));
        let s1 = plus.kron(&CVector::basis_state(2, 1));
        let cs = StateSpec::set(vec![s0, s1])
            .unwrap()
            .correct_states()
            .unwrap();
        assert_eq!(cs.t(), 2);
        let plan = AssertionPlan::build(&cs).unwrap();
        assert_eq!(plan.steps.len(), 1);
        let step = &plan.steps[0];
        assert_eq!(step.checked, vec![0, 1]);
        let counts = qra_circuit::GateCounts::of(step.circuits().unwrap().0).unwrap();
        assert_eq!(counts.cx, 0, "product projector U needs no entanglers");
        assert!(counts.sg <= 2);
        assert!(verify_step_roundtrip(step));
    }

    #[test]
    fn product_projector_with_phase_factor() {
        // Correct span: (|0⟩+i|1⟩)/√2 on qubit 0, free qubit 1.
        let s = 0.5f64.sqrt();
        let phi = CVector::new(vec![C64::from(s), C64::new(0.0, s)]);
        let a = phi.kron(&CVector::basis_state(2, 0));
        let b = phi.kron(&CVector::basis_state(2, 1));
        let cs = StateSpec::set(vec![a.clone(), b])
            .unwrap()
            .correct_states()
            .unwrap();
        let plan = AssertionPlan::build(&cs).unwrap();
        let step = &plan.steps[0];
        assert_eq!(step.checked, vec![0]);
        // U⁻¹ maps members into the checked-zero subspace.
        let m = step.circuits().unwrap().1.unitary_matrix().unwrap();
        let out = m.mul_vec(&a);
        let bad: f64 = out
            .probabilities()
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> 1) & 1 == 1)
            .map(|(_, p)| p)
            .sum();
        assert!(bad < 1e-9);
    }

    #[test]
    fn non_product_projector_falls_through() {
        // Bell-pair span {|00⟩, |11⟩} is NOT a per-qubit product projector
        // (its reduced factors are maximally mixed, so A⊗B/t ≠ P).
        let cs = classical_set(2, &[0, 3]);
        let got = try_product_projector(cs.correct(), 2).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn single_qubit_pure_plan() {
        let plus = CVector::from_real(&[0.5f64.sqrt(), 0.5f64.sqrt()]);
        let cs = StateSpec::pure(plus).unwrap().correct_states().unwrap();
        let plan = AssertionPlan::build(&cs).unwrap();
        let step = &plan.steps[0];
        assert_eq!(step.checked, vec![0]);
        let counts = qra_circuit::GateCounts::of(step.circuits().unwrap().0).unwrap();
        assert_eq!(counts.cx, 0);
        assert!(counts.sg <= 2);
    }
}
