//! Arbitrary-unitary synthesis via two-level (Givens) decomposition.
//!
//! Any `d×d` unitary factors into at most `d(d−1)/2` two-level unitaries
//! plus a diagonal of phases. Each two-level unitary is routed through a
//! Gray-code sequence of multi-controlled X permutations onto a fully
//! controlled single-qubit gate. The CX count is `O(4ⁿ)`, the general
//! bound the paper cites; special states hit the fast paths in the sibling
//! modules instead.
//!
//! [`unitary_circuit`] emits that decomposition into one circuit;
//! [`unitary_pair_counts`] runs the same emitter one two-level operation
//! at a time and keeps only the gate counts of `U` and `U⁻¹`, stopping
//! once their CX total reaches a bound.

use crate::synthesis::mc_gate::{mc_unitary, mcx, Control, ControlState};
use crate::{Circuit, CircuitError, Gate, GateCounts};
use qra_math::{CMatrix, C64};

const TOL: f64 = 1e-10;

/// Synthesises a circuit implementing `u` on `n = log₂(dim)` qubits
/// (exact up to global phase).
///
/// # Errors
///
/// * [`CircuitError::NotUnitary`] when `u` is not unitary;
/// * [`CircuitError::Math`] when the dimension is not a power of two.
///
/// ```rust
/// use qra_circuit::{Gate, synthesis::unitary_circuit};
///
/// let cx = Gate::Cx.matrix();
/// let c = unitary_circuit(&cx)?;
/// assert!(c.unitary_matrix()?.approx_eq_up_to_phase(&cx, 1e-8));
/// # Ok::<(), qra_circuit::CircuitError>(())
/// ```
pub fn unitary_circuit(u: &CMatrix) -> Result<Circuit, CircuitError> {
    match decompose(u)? {
        Synthesis::Direct(c) => Ok(c),
        Synthesis::TwoLevel(n, ops) => {
            let mut c = Circuit::new(n);
            for op in &ops {
                emit_two_level(&mut c, n, op)?;
            }
            Ok(c)
        }
    }
}

/// The gate counts of [`unitary_circuit`]`(u)` and of its inverse
/// together, without building either circuit: the same emitter writes one
/// two-level operation at a time into a scratch circuit, and each chunk
/// and its inverse are counted with [`GateCounts::of`]. Both counts are
/// sums over instructions and inverting maps instructions one to one, so
/// the total is exact. Returns `None` as soon as the running CX total
/// reaches `cx_bound`, that is, exactly when the full total's CX count is
/// at least `cx_bound`; `usize::MAX` never stops early.
///
/// # Errors
///
/// Those of [`unitary_circuit`].
///
/// ```rust
/// use qra_circuit::{Gate, GateCounts, synthesis::{unitary_circuit, unitary_pair_counts}};
///
/// let swap = Gate::Swap.matrix();
/// let built = unitary_circuit(&swap)?;
/// let exact = GateCounts::of(&built)? + GateCounts::of(&built.inverse()?)?;
/// assert_eq!(unitary_pair_counts(&swap, usize::MAX)?, Some(exact));
/// assert_eq!(unitary_pair_counts(&swap, exact.cx)?, None);
/// # Ok::<(), qra_circuit::CircuitError>(())
/// ```
pub fn unitary_pair_counts(
    u: &CMatrix,
    cx_bound: usize,
) -> Result<Option<GateCounts>, CircuitError> {
    let mut total = GateCounts::default();
    let mut add = |chunk: &Circuit| -> Result<bool, CircuitError> {
        total = total + GateCounts::of(chunk)? + GateCounts::of(&chunk.inverse()?)?;
        Ok(total.cx < cx_bound)
    };
    match decompose(u)? {
        Synthesis::Direct(c) => {
            if !add(&c)? {
                return Ok(None);
            }
        }
        Synthesis::TwoLevel(n, ops) => {
            for op in &ops {
                let mut chunk = Circuit::new(n);
                emit_two_level(&mut chunk, n, op)?;
                if !add(&chunk)? {
                    return Ok(None);
                }
            }
        }
    }
    Ok(Some(total))
}

/// How [`unitary_circuit`] realises a unitary.
enum Synthesis {
    /// A fast path's whole circuit.
    Direct(Circuit),
    /// The general path: the qubit count and the two-level operations, in
    /// emission order.
    TwoLevel(usize, Vec<TwoLevel>),
}

/// A two-level operation acting on basis indices `i` (role `|0⟩`) and `j`
/// (role `|1⟩`) with a 2×2 block.
struct TwoLevel {
    i: usize,
    j: usize,
    block: CMatrix,
}

/// Validates `u` and picks its synthesis: a fast path, or the two-level
/// decomposition of the general path.
fn decompose(u: &CMatrix) -> Result<Synthesis, CircuitError> {
    let n = qra_math::qubits_for_dim(u.rows())?;
    if !u.is_unitary(1e-8) {
        return Err(CircuitError::NotUnitary { deviation: 1.0 });
    }

    // Fast path: single qubit.
    if n == 1 {
        let mut c = Circuit::new(1);
        crate::synthesis::mc_gate::apply_1q(&mut c, 0, u);
        return Ok(Synthesis::Direct(c));
    }
    // Fast path: diagonal ±1.
    if let Some(signs) = crate::synthesis::diagonal::is_diagonal_pm_one(u, TOL) {
        let mut c = Circuit::new(n);
        let qubits: Vec<usize> = (0..n).collect();
        crate::synthesis::diagonal::diagonal_pm_one(&mut c, &qubits, &signs)?;
        return Ok(Synthesis::Direct(c));
    }
    // Fast path: tensor product of single-qubit gates.
    if let Some(factors) = crate::synthesis::diagonal::try_factor_tensor(u) {
        let mut c = Circuit::new(n);
        for (q, f) in factors.iter().enumerate() {
            crate::synthesis::mc_gate::apply_1q(&mut c, q, f);
        }
        return Ok(Synthesis::Direct(c));
    }

    Ok(Synthesis::TwoLevel(n, general_two_level(u)))
}

/// The two-level operations whose product is `u` up to global phase, in
/// circuit order.
fn general_two_level(u: &CMatrix) -> Vec<TwoLevel> {
    let d = u.rows();
    let mut work = u.clone();
    let mut givens: Vec<TwoLevel> = Vec::new();

    // Reduce `work` to a diagonal of phases with left-multiplied two-level
    // Givens rotations: G_m … G_1 · U = D. Then U = G_1† … G_m† · D.
    for col in 0..d {
        for row in (col + 1)..d {
            let b = work.get(row, col);
            if b.norm() <= TOL {
                continue;
            }
            let a = work.get(col, col);
            let s = (a.norm_sqr() + b.norm_sqr()).sqrt();
            // V = [[a*, b*], [−b, a]]/s zeroes (row,col) and makes (col,col)=s.
            let v = CMatrix::new(2, 2, vec![a.conj() / s, b.conj() / s, -b / s, a / s]);
            apply_two_level_left(&mut work, col, row, &v);
            givens.push(TwoLevel {
                i: col,
                j: row,
                block: v,
            });
        }
    }

    // `work` is now diagonal with unit-modulus phases. Fold the phases into
    // two-level diagonal ops (pairing each index with index 0).
    let mut phases: Vec<f64> = (0..d).map(|i| work.get(i, i).arg()).collect();
    // A global phase is unobservable: subtract phases[0].
    let p0 = phases[0];
    for p in phases.iter_mut() {
        *p -= p0;
    }

    // U = (Π G_k†, reversed) · D; circuit order is D first.
    // D as two-level diagonals diag(1, e^{iφ_j}) on pairs (0, j).
    let mut ops: Vec<TwoLevel> = phases
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, phi)| phi.abs() > TOL)
        .map(|(j, &phi)| TwoLevel {
            i: 0,
            j,
            block: CMatrix::diagonal(&[C64::one(), C64::cis(phi)]),
        })
        .collect();
    ops.extend(givens.iter().rev().map(|g| TwoLevel {
        block: g.block.adjoint(),
        ..*g
    }));
    ops
}

/// Left-multiplies `m` by the two-level unitary acting on rows `i`, `j`.
fn apply_two_level_left(m: &mut CMatrix, i: usize, j: usize, v: &CMatrix) {
    for c in 0..m.cols() {
        let mi = m.get(i, c);
        let mj = m.get(j, c);
        m.set(i, c, v.get(0, 0) * mi + v.get(0, 1) * mj);
        m.set(j, c, v.get(1, 0) * mi + v.get(1, 1) * mj);
    }
}

/// Emits the circuit for the two-level operation `op` on `n` qubits.
fn emit_two_level(circuit: &mut Circuit, n: usize, op: &TwoLevel) -> Result<(), CircuitError> {
    let TwoLevel { i, j, ref block } = *op;
    debug_assert_ne!(i, j);
    // Gray-code walk from i towards j, leaving one differing bit.
    let diff = i ^ j;
    let diff_bits: Vec<usize> = (0..n).filter(|b| (diff >> b) & 1 == 1).collect(); // LSB order
    let target_bit = *diff_bits.last().expect("i != j");
    let steps: &[usize] = &diff_bits[..diff_bits.len() - 1];

    // Permutations moving i through the Gray path; record for undo.
    let mut current = i;
    let mut perms: Vec<(Vec<Control>, usize)> = Vec::new();
    for &bit in steps {
        // MCX flipping `bit`, controlled on all other bits matching `current`.
        let controls: Vec<Control> = (0..n)
            .filter(|&b| b != bit)
            .map(|b| {
                let qubit = n - 1 - b;
                let state = if (current >> b) & 1 == 1 {
                    ControlState::Closed
                } else {
                    ControlState::Open
                };
                (qubit, state)
            })
            .collect();
        let target = n - 1 - bit;
        mcx(circuit, &controls, target)?;
        perms.push((controls, target));
        current ^= 1 << bit;
    }

    // Now `current` and `j` differ only at `target_bit`.
    debug_assert_eq!(current ^ j, 1 << target_bit);
    // Role: `current` carries the i-amplitude. If its target bit is 1 the
    // block's basis roles are swapped: conjugate with X.
    let block_adj = if (current >> target_bit) & 1 == 1 {
        let x = Gate::X.matrix();
        x.mul(block)
            .and_then(|m| m.mul(&x))
            .map_err(CircuitError::Math)?
    } else {
        block.clone()
    };
    let controls: Vec<Control> = (0..n)
        .filter(|&b| b != target_bit)
        .map(|b| {
            let qubit = n - 1 - b;
            let state = if (j >> b) & 1 == 1 {
                ControlState::Closed
            } else {
                ControlState::Open
            };
            (qubit, state)
        })
        .collect();
    mc_unitary(circuit, &controls, n - 1 - target_bit, &block_adj)?;

    // Undo the permutations.
    for (controls, target) in perms.iter().rev() {
        mcx(circuit, controls, *target)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_unitary(n: usize, rng: &mut impl Rng) -> CMatrix {
        // QR-free Haar-ish unitary: Gram-Schmidt on a random complex matrix.
        let d = 1usize << n;
        let cols: Vec<qra_math::CVector> = (0..d)
            .map(|_| {
                qra_math::CVector::new(
                    (0..d)
                        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                        .collect(),
                )
            })
            .collect();
        let basis = qra_math::orthonormalize(&cols).unwrap();
        assert_eq!(basis.len(), d, "random matrix was singular");
        CMatrix::from_fn(d, d, |r, c| basis[c].amplitude(r))
    }

    fn roundtrip(u: &CMatrix) {
        let c = unitary_circuit(u).unwrap();
        let got = c.unitary_matrix().unwrap();
        assert!(
            got.approx_eq_up_to_phase(u, 1e-7),
            "two-level synthesis mismatch (dim {})",
            u.rows()
        );
    }

    #[test]
    fn synthesizes_cx_and_swap() {
        roundtrip(&Gate::Cx.matrix());
        roundtrip(&Gate::Swap.matrix());
        roundtrip(&Gate::Cz.matrix());
    }

    #[test]
    fn synthesizes_single_qubit() {
        roundtrip(&Gate::H.matrix());
        roundtrip(&Gate::U3(0.7, 0.2, 1.9).matrix());
    }

    #[test]
    fn synthesizes_bell_basis_change() {
        // The Bell-basis U⁻¹ of the paper's §IV-B: CX then H on control —
        // reconstructed here as a raw matrix.
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0);
        let u = c.unitary_matrix().unwrap();
        roundtrip(&u);
    }

    #[test]
    fn synthesizes_random_two_qubit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..5 {
            roundtrip(&random_unitary(2, &mut rng));
        }
    }

    #[test]
    fn synthesizes_random_three_qubit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for _ in 0..2 {
            roundtrip(&random_unitary(3, &mut rng));
        }
    }

    #[test]
    fn diagonal_phases_only() {
        let d = CMatrix::diagonal(&[C64::one(), C64::cis(0.4), C64::cis(-1.3), C64::cis(2.2)]);
        roundtrip(&d);
    }

    #[test]
    fn permutation_matrix() {
        // A 3-cycle on basis states 0→1→2→0 (and 3 fixed).
        let mut p = CMatrix::zeros(4, 4);
        p.set(1, 0, C64::one());
        p.set(2, 1, C64::one());
        p.set(0, 2, C64::one());
        p.set(3, 3, C64::one());
        roundtrip(&p);
    }

    /// `unitary_pair_counts` against counting `unitary_circuit`'s output
    /// and its inverse: equal when unbounded, and with a bound `None`
    /// exactly when that total's CX count reaches it.
    fn check_pair_counts(u: &CMatrix) {
        let built = unitary_circuit(u).unwrap();
        let full =
            GateCounts::of(&built).unwrap() + GateCounts::of(&built.inverse().unwrap()).unwrap();
        assert_eq!(unitary_pair_counts(u, usize::MAX).unwrap(), Some(full));
        let cx = full.cx;
        for bound in [0, 1, cx / 2, cx.saturating_sub(1), cx, cx + 1, 2 * cx + 1] {
            assert_eq!(
                unitary_pair_counts(u, bound).unwrap(),
                (cx < bound).then_some(full),
                "dim {}, bound {bound}, full {full}",
                u.rows()
            );
        }
    }

    /// The permutation matrix whose column `c` is `|cols[c]⟩`.
    fn permutation(cols: &[usize]) -> CMatrix {
        let d = cols.len();
        CMatrix::from_fn(d, d, |r, c| {
            if cols[c] == r {
                C64::one()
            } else {
                C64::zero()
            }
        })
    }

    /// A basis-state set's completed basis: the set, then the remaining
    /// indices in ascending order (the order basis completion adds them).
    fn completed(set: &[usize], d: usize) -> Vec<usize> {
        let mut order = set.to_vec();
        order.extend((0..d).filter(|i| !set.contains(i)));
        order
    }

    #[test]
    fn pair_counts_match_random_unitaries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for n in 1..=4 {
            check_pair_counts(&random_unitary(n, &mut rng));
        }
    }

    #[test]
    fn pair_counts_match_plan_permutations() {
        for n in 3..=6 {
            let d = 1usize << n;
            // Superset pair of {0, 3, 5}: the completed basis, then the
            // same with the two pad states swapped.
            let mut order = completed(&[0, 3, 5], d);
            check_pair_counts(&permutation(&order));
            order[3..5].rotate_left(1);
            check_pair_counts(&permutation(&order));
            // Extension of {0, …, 2ⁿ⁻¹}: |0⟩⊗correct, |1⟩⊗incorrect, then
            // their complements, over the extension ancilla.
            let t = d / 2 + 1;
            let order = completed(&(0..t).collect::<Vec<_>>(), d);
            let (correct, incorrect) = order.split_at(t);
            let ext: Vec<usize> = correct
                .iter()
                .copied()
                .chain(incorrect.iter().map(|j| d + j))
                .chain(correct.iter().map(|i| d + i))
                .chain(incorrect.iter().copied())
                .collect();
            check_pair_counts(&permutation(&ext));
        }
    }

    #[test]
    fn pair_counts_match_phases_and_fast_paths() {
        let mut p = CMatrix::zeros(4, 4);
        p.set(1, 0, C64::one());
        p.set(2, 1, C64::one());
        p.set(0, 2, C64::one());
        p.set(3, 3, C64::one());
        let phases = CMatrix::diagonal(&[C64::one(), C64::cis(0.4), C64::cis(-1.3), C64::cis(2.2)]);
        let tensor = Gate::H.matrix().kron(&Gate::U3(0.7, 0.2, 1.9).matrix());
        for u in [
            p,
            phases,
            Gate::U3(0.7, 0.2, 1.9).matrix(),
            Gate::Cz.matrix(),
            tensor,
        ] {
            check_pair_counts(&u);
        }
    }

    #[test]
    fn pair_counts_reject_what_synthesis_rejects() {
        let bad = CMatrix::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(unitary_pair_counts(&bad, usize::MAX).is_err());
        assert!(unitary_pair_counts(&CMatrix::identity(3), 0).is_err());
    }

    #[test]
    fn rejects_non_unitary() {
        let bad = CMatrix::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(unitary_circuit(&bad).is_err());
        assert!(unitary_circuit(&CMatrix::identity(3)).is_err());
    }

    #[test]
    fn identity_synthesizes_to_empty_or_trivial() {
        let c = unitary_circuit(&CMatrix::identity(4)).unwrap();
        let got = c.unitary_matrix().unwrap();
        assert!(got.approx_eq_up_to_phase(&CMatrix::identity(4), 1e-9));
    }
}
