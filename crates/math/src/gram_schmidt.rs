//! Modified Gram–Schmidt orthonormalisation and basis completion.
//!
//! The paper's assertion constructions (§IV-B, §V-A) start from one or more
//! "correct" states and require *an orthonormal basis that includes them*.
//! [`complete_basis`] implements exactly that: it orthonormalises the seed
//! states and extends them with computational-basis vectors until a full
//! basis of the Hilbert space is obtained.

use crate::{CVector, MathError, C64};

/// Threshold below which a residual vector is considered linearly dependent
/// on the previously accepted ones.
const DEPENDENCE_TOL: f64 = 1e-8;

/// Orthonormalises `vectors` with the modified Gram–Schmidt process.
///
/// Linearly dependent inputs are **dropped** (not an error): the returned
/// set spans the same space and is orthonormal. This mirrors the paper's
/// treatment of approximate-assertion state sets, whose members "may not be
/// orthogonal" (§IV-D).
///
/// # Errors
///
/// Returns [`MathError::ShapeMismatch`] when input vectors have differing
/// lengths.
///
/// ```rust
/// use qra_math::{CVector, orthonormalize};
///
/// let v1 = CVector::from_real(&[1.0, 1.0]);
/// let v2 = CVector::from_real(&[2.0, 2.0]); // dependent — dropped
/// let basis = orthonormalize(&[v1, v2])?;
/// assert_eq!(basis.len(), 1);
/// # Ok::<(), qra_math::MathError>(())
/// ```
pub fn orthonormalize(vectors: &[CVector]) -> Result<Vec<CVector>, MathError> {
    let mut basis: Vec<CVector> = Vec::new();
    let dim = match vectors.first() {
        Some(v) => v.len(),
        None => return Ok(basis),
    };
    for v in vectors {
        if v.len() != dim {
            return Err(MathError::ShapeMismatch {
                op: "orthonormalize",
                left: (dim, 1),
                right: (v.len(), 1),
            });
        }
        let mut residual = v.clone();
        // Two rounds of projection for numerical stability (re-orthogonalisation).
        for _ in 0..2 {
            for b in &basis {
                project_out(b, &mut residual)?;
            }
        }
        let norm = residual.norm();
        if norm > DEPENDENCE_TOL {
            basis.push(residual.scale(C64::from(1.0 / norm)));
        }
    }
    Ok(basis)
}

/// Extends `seeds` to a **complete orthonormal basis** of their Hilbert
/// space, with the (orthonormalised) seeds occupying the leading positions.
///
/// This is the core primitive of the paper's systematic assertion
/// construction: given the "correct" state(s), the full basis defines the
/// unitary `U⁻¹ = Σᵢ |i⟩⟨ψᵢ|` that maps correct states to leading
/// computational-basis states (Appendix B of the paper).
///
/// # Errors
///
/// * [`MathError::ShapeMismatch`] when seed lengths differ;
/// * [`MathError::NotPowerOfTwo`] when the dimension is not `2ⁿ`;
/// * [`MathError::LinearlyDependent`] when completion fails to produce a
///   full basis (cannot happen for valid inputs, kept as a defensive check).
///
/// ```rust
/// use qra_math::{CVector, complete_basis};
///
/// let s = 0.5f64.sqrt();
/// let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
/// let basis = complete_basis(&[bell.clone()], 4)?;
/// assert_eq!(basis.len(), 4);
/// assert!(basis[0].approx_eq(&bell.normalized()?, 1e-9));
/// # Ok::<(), qra_math::MathError>(())
/// ```
pub fn complete_basis(seeds: &[CVector], dim: usize) -> Result<Vec<CVector>, MathError> {
    crate::qubits_for_dim(dim)?;
    for v in seeds {
        if v.len() != dim {
            return Err(MathError::ShapeMismatch {
                op: "complete_basis",
                left: (dim, 1),
                right: (v.len(), 1),
            });
        }
    }
    let mut basis = orthonormalize(seeds)?;
    // Greedily add the computational basis vector with the largest residual
    // until the basis is complete; this keeps the completion well-conditioned.
    //
    // `residuals[k]` is |k⟩ projected, in order, against `basis[..projected]`.
    // Each round extends it by the vectors accepted since the last round
    // only, so every residual goes through the same floating-point
    // operations, in the same order, as a fresh projection of |k⟩ against
    // the whole basis: the result is bit-identical at O(d) work per
    // candidate and round instead of O(d·|basis|).
    let mut residuals: Vec<CVector> = (0..dim).map(|k| CVector::basis_state(dim, k)).collect();
    let mut projected = 0;
    while basis.len() < dim {
        for b in &basis[projected..] {
            for residual in &mut residuals {
                project_out(b, residual)?;
            }
        }
        projected = basis.len();
        let mut best: Option<(f64, usize)> = None;
        for (k, residual) in residuals.iter().enumerate() {
            let norm = residual.norm();
            if best.is_none_or(|(bn, _)| norm > bn) {
                best = Some((norm, k));
            }
        }
        let (norm, k) = best.ok_or(MathError::LinearlyDependent)?;
        if norm <= DEPENDENCE_TOL {
            return Err(MathError::LinearlyDependent);
        }
        // Re-orthogonalise once more for stability, then normalise.
        let mut residual = residuals[k].clone();
        for b in &basis {
            project_out(b, &mut residual)?;
        }
        let n2 = residual.norm();
        if n2 <= DEPENDENCE_TOL {
            return Err(MathError::LinearlyDependent);
        }
        basis.push(residual.scale(C64::from(1.0 / n2)));
    }
    Ok(basis)
}

/// `residual ← residual − ⟨b|residual⟩·b`, in place, with the same
/// operations in the same order as `residual.sub(&b.scale(b.inner(residual)?))`.
fn project_out(b: &CVector, residual: &mut CVector) -> Result<(), MathError> {
    let overlap = b.inner(residual)?;
    for (r, x) in residual.as_mut_slice().iter_mut().zip(b.iter()) {
        *r -= *x * overlap;
    }
    Ok(())
}

/// Verifies that `basis` is orthonormal within `tol`.
///
/// ```rust
/// use qra_math::{CVector, gram_schmidt::is_orthonormal};
///
/// let basis = vec![CVector::basis_state(2, 0), CVector::basis_state(2, 1)];
/// assert!(is_orthonormal(&basis, 1e-9));
/// ```
pub fn is_orthonormal(basis: &[CVector], tol: f64) -> bool {
    for (i, a) in basis.iter().enumerate() {
        for (j, b) in basis.iter().enumerate() {
            let expected = if i == j { C64::one() } else { C64::zero() };
            match a.inner(b) {
                Ok(ip) if ip.approx_eq(expected, tol) => {}
                _ => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn orthonormalize_empty_input() {
        assert!(orthonormalize(&[]).unwrap().is_empty());
    }

    #[test]
    fn orthonormalize_drops_dependent_vectors() {
        let v1 = CVector::from_real(&[1.0, 0.0, 0.0, 0.0]);
        let v2 = CVector::from_real(&[0.5, 0.0, 0.0, 0.0]);
        let v3 = CVector::from_real(&[1.0, 1.0, 0.0, 0.0]);
        let basis = orthonormalize(&[v1, v2, v3]).unwrap();
        assert_eq!(basis.len(), 2);
        assert!(is_orthonormal(&basis, TOL));
    }

    #[test]
    fn orthonormalize_preserves_first_direction() {
        let s = 0.5f64.sqrt();
        let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
        let basis = orthonormalize(std::slice::from_ref(&bell)).unwrap();
        assert!(basis[0].approx_eq(&bell, TOL));
    }

    #[test]
    fn orthonormalize_rejects_mixed_dims() {
        let v1 = CVector::zeros(2);
        let v2 = CVector::zeros(4);
        assert!(orthonormalize(&[v1, v2]).is_err());
    }

    #[test]
    fn complete_basis_from_single_state() {
        let s = 0.5f64.sqrt();
        let ghz = {
            let mut v = CVector::zeros(8);
            v[0] = C64::from(s);
            v[7] = C64::from(s);
            v
        };
        let basis = complete_basis(std::slice::from_ref(&ghz), 8).unwrap();
        assert_eq!(basis.len(), 8);
        assert!(is_orthonormal(&basis, TOL));
        assert!(basis[0].approx_eq(&ghz, TOL));
    }

    #[test]
    fn complete_basis_with_complex_seed() {
        let s = 0.5f64.sqrt();
        let state = CVector::new(vec![C64::from(s), C64::new(0.0, s)]);
        let basis = complete_basis(std::slice::from_ref(&state), 2).unwrap();
        assert_eq!(basis.len(), 2);
        assert!(is_orthonormal(&basis, TOL));
        assert!(basis[0].approx_eq(&state, TOL));
    }

    #[test]
    fn complete_basis_with_multiple_seeds_keeps_order() {
        let a = CVector::basis_state(4, 3);
        let b = CVector::basis_state(4, 1);
        let basis = complete_basis(&[a.clone(), b.clone()], 4).unwrap();
        assert!(basis[0].approx_eq(&a, TOL));
        assert!(basis[1].approx_eq(&b, TOL));
        assert!(is_orthonormal(&basis, TOL));
    }

    #[test]
    fn complete_basis_rejects_bad_dimension() {
        assert!(complete_basis(&[], 3).is_err());
    }

    #[test]
    fn complete_basis_no_seeds_gives_full_basis() {
        let basis = complete_basis(&[], 4).unwrap();
        assert_eq!(basis.len(), 4);
        assert!(is_orthonormal(&basis, TOL));
    }

    #[test]
    fn is_orthonormal_detects_failure() {
        let v = CVector::from_real(&[1.0, 1.0]); // not normalised
        assert!(!is_orthonormal(&[v], TOL));
        let a = CVector::basis_state(2, 0);
        let b = CVector::from_real(&[0.6, 0.8]);
        assert!(!is_orthonormal(&[a, b], TOL)); // not orthogonal
    }
}
