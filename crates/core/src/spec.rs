//! Assertion state specifications and their orthonormal decomposition.
//!
//! All three assertion designs start the same way (paper §IV-B/C, §V):
//! turn the specification into a set of `t` orthonormal "correct" states,
//! complete them into a full basis, and treat the remaining `2ⁿ − t` basis
//! states as "incorrect". [`StateSpec::correct_states`] performs that
//! reduction: pure states pass through, density matrices are
//! eigendecomposed, and state sets are averaged into a density matrix
//! first (approximate assertion, §IV-D). The completion itself waits for
//! its first reader ([`CorrectStates::basis`]): many constructions read
//! only the correct states, and a rank-1 spec never needs the rest.

use crate::AssertionError;
use qra_math::{complete_basis, hermitian_eigen, orthonormalize, CMatrix, CVector, MathError, C64};
use std::sync::OnceLock;

/// Eigenvalue threshold below which a density-matrix eigenstate is
/// considered absent (rank counting).
pub const RANK_TOL: f64 = 1e-9;

/// What to assert: a precise pure state, a precise mixed state, or an
/// approximate set of states.
#[derive(Debug, Clone, PartialEq)]
pub enum StateSpec {
    /// A pure state vector (precise assertion).
    Pure(CVector),
    /// A density matrix (precise mixed-state assertion).
    Mixed(CMatrix),
    /// A set of pure states (approximate assertion — membership check).
    Set(Vec<CVector>),
}

impl StateSpec {
    /// Creates a pure-state spec, validating normalisability and dimension.
    ///
    /// # Errors
    ///
    /// Returns [`AssertionError::InvalidSpec`] for a zero vector or a
    /// non-power-of-two dimension.
    pub fn pure(state: CVector) -> Result<Self, AssertionError> {
        qra_math::qubits_for_dim(state.len()).map_err(|e| AssertionError::InvalidSpec {
            reason: e.to_string(),
        })?;
        let normalized = state
            .normalized()
            .map_err(|e| AssertionError::InvalidSpec {
                reason: e.to_string(),
            })?;
        Ok(StateSpec::Pure(normalized))
    }

    /// Creates a mixed-state spec, validating the density matrix.
    ///
    /// # Errors
    ///
    /// Returns [`AssertionError::InvalidSpec`] for non-Hermitian or
    /// non-unit-trace matrices.
    pub fn mixed(rho: CMatrix) -> Result<Self, AssertionError> {
        rho.validate_density(1e-6)
            .map_err(|e| AssertionError::InvalidSpec {
                reason: e.to_string(),
            })?;
        qra_math::qubits_for_dim(rho.rows()).map_err(|e| AssertionError::InvalidSpec {
            reason: e.to_string(),
        })?;
        Ok(StateSpec::Mixed(rho))
    }

    /// Creates an approximate (set) spec from one or more pure states.
    ///
    /// # Errors
    ///
    /// Returns [`AssertionError::InvalidSpec`] for an empty set, mixed
    /// dimensions, or unnormalisable members.
    pub fn set(states: Vec<CVector>) -> Result<Self, AssertionError> {
        if states.is_empty() {
            return Err(AssertionError::InvalidSpec {
                reason: "state set is empty".into(),
            });
        }
        let dim = states[0].len();
        qra_math::qubits_for_dim(dim).map_err(|e| AssertionError::InvalidSpec {
            reason: e.to_string(),
        })?;
        let mut normalized = Vec::with_capacity(states.len());
        for s in states {
            if s.len() != dim {
                return Err(AssertionError::InvalidSpec {
                    reason: "state set members have differing dimensions".into(),
                });
            }
            normalized.push(s.normalized().map_err(|e| AssertionError::InvalidSpec {
                reason: e.to_string(),
            })?);
        }
        Ok(StateSpec::Set(normalized))
    }

    /// The Hilbert-space dimension of the specification.
    pub fn dim(&self) -> usize {
        match self {
            StateSpec::Pure(v) => v.len(),
            StateSpec::Mixed(m) => m.rows(),
            StateSpec::Set(v) => v[0].len(),
        }
    }

    /// The number of qubits under test.
    pub fn num_qubits(&self) -> usize {
        qra_math::qubits_for_dim(self.dim()).expect("validated at construction")
    }

    /// Returns `true` for the approximate (set) form.
    pub fn is_approximate(&self) -> bool {
        matches!(self, StateSpec::Set(_))
    }

    /// The density matrix this spec asserts membership in: `|ψ⟩⟨ψ|` for
    /// pure states, the matrix itself for mixed, the equal mixture for
    /// sets.
    pub fn density(&self) -> CMatrix {
        match self {
            StateSpec::Pure(v) => CMatrix::outer(v, v),
            StateSpec::Mixed(m) => m.clone(),
            StateSpec::Set(states) => {
                let dim = states[0].len();
                let p = C64::from(1.0 / states.len() as f64);
                let mut acc = CMatrix::zeros(dim, dim);
                for s in states {
                    acc = acc
                        .add(&CMatrix::outer(s, s).scale(p))
                        .expect("shapes agree");
                }
                acc
            }
        }
    }

    /// Reduces the specification to the paper's canonical form: `t`
    /// orthonormal correct states, completed to a full basis when a reader
    /// first asks for it ([`CorrectStates::basis`]).
    ///
    /// # Errors
    ///
    /// * [`AssertionError::Unassertable`] when `t = 2ⁿ`;
    /// * [`AssertionError::Math`] on numerical failure. A failure of the
    ///   basis completion (which cannot happen for valid inputs) surfaces
    ///   from the completion's first reader instead, unless
    ///   orthonormalisation drops a correct state and the basis is
    ///   completed here.
    pub fn correct_states(&self) -> Result<CorrectStates, AssertionError> {
        let dim = self.dim();
        let n = self.num_qubits();
        let seeds: Vec<CVector> = match self {
            StateSpec::Pure(v) => vec![v.clone()],
            _ => {
                let rho = self.density();
                let eig = hermitian_eigen(&rho)?;
                eig.values
                    .iter()
                    .zip(eig.vectors)
                    .filter(|(&val, _)| val > RANK_TOL)
                    .map(|(_, v)| v)
                    .collect()
            }
        };
        if seeds.len() == dim {
            return Err(AssertionError::Unassertable { num_qubits: n });
        }
        debug_assert!(
            !seeds.is_empty(),
            "density matrix must have at least one eigenstate"
        );
        CorrectStates::from_seeds(seeds, dim)
    }
}

/// The canonical decomposition: `t` orthonormal "correct" states, which
/// lead a full orthonormal basis of the `2ⁿ`-dimensional space whose
/// other states are incorrect.
///
/// The full basis is completed by [`complete_basis`] on its first read,
/// through [`CorrectStates::basis`] or [`CorrectStates::basis_matrix`], and
/// kept. Those readers are the §IV plan's subspace, superset-pair and
/// extension steps and NDD's general fallback; the pure, product-projector
/// and selector plans, [`CorrectStates::ndd_unitary`] and
/// [`CorrectStates::accepts`] read only the correct states.
#[derive(Debug, Clone)]
pub struct CorrectStates {
    /// The states the completion starts from: the pure state, or the
    /// density matrix's eigenvectors above [`RANK_TOL`].
    seeds: Vec<CVector>,
    /// The leading `t` states of the basis.
    correct: Vec<CVector>,
    /// Hilbert-space dimension.
    dim: usize,
    /// The full basis, filled on first read.
    basis: OnceLock<Result<Vec<CVector>, MathError>>,
}

impl CorrectStates {
    /// The first `seeds.len()` states of `complete_basis(&seeds, dim)`,
    /// with the rest of that basis left for its first reader.
    fn from_seeds(seeds: Vec<CVector>, dim: usize) -> Result<CorrectStates, AssertionError> {
        let t = seeds.len();
        // `complete_basis` opens with this same orthonormalisation, so
        // these are bit for bit the leading states of the completed basis.
        let mut correct = orthonormalize(&seeds)?;
        let basis = OnceLock::new();
        if correct.len() < t {
            // A dropped state leaves its slot to a completion vector, so
            // the leading `t` states need the completion now.
            let full = complete_basis(&seeds, dim)?;
            correct = full[..t].to_vec();
            let _ = basis.set(Ok(full));
        }
        Ok(CorrectStates {
            seeds,
            correct,
            dim,
            basis,
        })
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        qra_math::qubits_for_dim(self.dim).expect("dimension is a power of two")
    }

    /// The rank `t` (number of correct states).
    pub fn t(&self) -> usize {
        self.correct.len()
    }

    /// The `t` orthonormal correct states: the leading entries of
    /// [`CorrectStates::basis`], without completing it.
    pub fn correct(&self) -> &[CVector] {
        &self.correct
    }

    /// The full orthonormal basis: entries `0..t` are the correct states,
    /// the rest incorrect. Completed on the first call and kept.
    ///
    /// # Errors
    ///
    /// [`AssertionError::Math`] when the completion fails, which cannot
    /// happen for valid inputs (kept as a defensive check).
    pub fn basis(&self) -> Result<&[CVector], AssertionError> {
        self.basis
            .get_or_init(|| complete_basis(&self.seeds, self.dim))
            .as_deref()
            .map_err(|e| AssertionError::Math(e.clone()))
    }

    /// `true` once some reader has completed the basis.
    pub fn basis_completed(&self) -> bool {
        self.basis.get().is_some()
    }

    /// The basis-change unitary `W = Σᵢ |ψᵢ⟩⟨i|` whose columns are the
    /// basis states (`W` maps `|i⟩` to `|ψᵢ⟩`; `W†` is the paper's `U⁻¹`).
    ///
    /// # Errors
    ///
    /// Those of [`CorrectStates::basis`].
    pub fn basis_matrix(&self) -> Result<CMatrix, AssertionError> {
        let basis = self.basis()?;
        let d = self.dim;
        Ok(CMatrix::from_fn(d, d, |r, c| basis[c].amplitude(r)))
    }

    /// The NDD unitary `U = Σ_{i<t} |ψᵢ⟩⟨ψᵢ| − Σ_{i≥t} |ψᵢ⟩⟨ψᵢ|`
    /// (`= 2P_correct − I`), built in one pass: each entry folds
    /// `δ·(−1) + Σᵢ (ψᵢ[r]·ψ̄ᵢ[c])·2` in the order of the correct states.
    pub fn ndd_unitary(&self) -> CMatrix {
        let (minus_one, two) = (C64::from(-1.0), C64::from(2.0));
        CMatrix::from_fn(self.dim, self.dim, |r, c| {
            let delta = if r == c { C64::one() } else { C64::zero() };
            self.correct.iter().fold(delta * minus_one, |acc, v| {
                acc + (v.amplitude(r) * v.amplitude(c).conj()) * two
            })
        })
    }

    /// Returns `true` when the state `|φ⟩` lies entirely in the correct
    /// subspace (used by tests and the coverage analysis).
    pub fn accepts(&self, phi: &CVector, tol: f64) -> bool {
        let mut in_correct = 0.0;
        for v in &self.correct {
            if let Ok(ip) = v.inner(phi) {
                in_correct += ip.norm_sqr();
            }
        }
        (in_correct - phi.norm() * phi.norm()).abs() <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-8;

    fn ghz() -> CVector {
        let s = 0.5f64.sqrt();
        let mut v = CVector::zeros(8);
        v[0] = C64::from(s);
        v[7] = C64::from(s);
        v
    }

    #[test]
    fn pure_spec_normalizes() {
        let spec = StateSpec::pure(CVector::from_real(&[3.0, 4.0])).unwrap();
        match &spec {
            StateSpec::Pure(v) => assert!(v.is_normalized(TOL)),
            _ => panic!(),
        }
        assert_eq!(spec.num_qubits(), 1);
        assert!(!spec.is_approximate());
    }

    #[test]
    fn pure_spec_rejects_zero_and_bad_dims() {
        assert!(StateSpec::pure(CVector::zeros(2)).is_err());
        assert!(StateSpec::pure(CVector::from_real(&[1.0, 0.0, 0.0])).is_err());
    }

    #[test]
    fn mixed_spec_validates_density() {
        let rho = CMatrix::from_real(2, 2, &[0.5, 0.0, 0.0, 0.5]);
        assert!(StateSpec::mixed(rho).is_ok());
        let bad_trace = CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert!(StateSpec::mixed(bad_trace).is_err());
    }

    #[test]
    fn set_spec_validation() {
        assert!(StateSpec::set(vec![]).is_err());
        let a = CVector::basis_state(4, 0);
        let b = CVector::basis_state(2, 0);
        assert!(StateSpec::set(vec![a.clone(), b]).is_err());
        let spec = StateSpec::set(vec![a, CVector::basis_state(4, 3)]).unwrap();
        assert!(spec.is_approximate());
        assert_eq!(spec.num_qubits(), 2);
    }

    #[test]
    fn pure_correct_states_has_rank_one() {
        let spec = StateSpec::pure(ghz()).unwrap();
        let cs = spec.correct_states().unwrap();
        assert_eq!(cs.t(), 1);
        assert_eq!(cs.dim(), 8);
        assert!(cs.correct()[0].approx_eq(&ghz(), TOL));
        assert!(qra_math::gram_schmidt::is_orthonormal(
            cs.basis().unwrap(),
            TOL
        ));
    }

    #[test]
    fn mixed_correct_states_rank_two() {
        // ρ = ½(|00⟩⟨00| + |11⟩⟨11|) — the GHZ trailing-pair mixed state.
        let rho = {
            let a = CVector::basis_state(4, 0);
            let b = CVector::basis_state(4, 3);
            CMatrix::outer(&a, &a)
                .scale(C64::from(0.5))
                .add(&CMatrix::outer(&b, &b).scale(C64::from(0.5)))
                .unwrap()
        };
        let cs = StateSpec::mixed(rho).unwrap().correct_states().unwrap();
        assert_eq!(cs.t(), 2);
        // Correct states must span {|00⟩, |11⟩}.
        assert!(cs.accepts(&CVector::basis_state(4, 0), TOL));
        assert!(cs.accepts(&CVector::basis_state(4, 3), TOL));
        assert!(!cs.accepts(&CVector::basis_state(4, 1), TOL));
    }

    #[test]
    fn set_spec_matches_paper_even_parity_example() {
        // §V-C: set {|00⟩, |11⟩} → U = Z⊗Z.
        let spec =
            StateSpec::set(vec![CVector::basis_state(4, 0), CVector::basis_state(4, 3)]).unwrap();
        let cs = spec.correct_states().unwrap();
        assert_eq!(cs.t(), 2);
        let u = cs.ndd_unitary();
        let z = CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let zz = z.kron(&z);
        assert!(u.approx_eq(&zz, TOL));
    }

    #[test]
    fn full_rank_is_unassertable() {
        let rho = CMatrix::identity(4).scale(C64::from(0.25));
        let err = StateSpec::mixed(rho).unwrap().correct_states().unwrap_err();
        assert!(matches!(
            err,
            AssertionError::Unassertable { num_qubits: 2 }
        ));
    }

    #[test]
    fn basis_matrix_is_unitary_and_maps_indices() {
        let cs = StateSpec::pure(ghz()).unwrap().correct_states().unwrap();
        let w = cs.basis_matrix().unwrap();
        assert!(w.is_unitary(TOL));
        let col0 = w.mul_vec(&CVector::basis_state(8, 0));
        assert!(col0.approx_eq(&ghz(), TOL));
    }

    #[test]
    fn ndd_unitary_is_unitary_and_hermitian() {
        let cs = StateSpec::pure(ghz()).unwrap().correct_states().unwrap();
        let u = cs.ndd_unitary();
        assert!(u.is_unitary(TOL));
        assert!(u.is_hermitian(TOL));
        // Eigen-action: U|ghz⟩ = +|ghz⟩; orthogonal states get −1.
        let plus = u.mul_vec(&ghz());
        assert!(plus.approx_eq(&ghz(), TOL));
        let other = u.mul_vec(&CVector::basis_state(8, 1));
        assert!(other.approx_eq(&CVector::basis_state(8, 1).scale(C64::from(-1.0)), TOL));
    }

    #[test]
    fn overlapping_set_members_reduce_rank() {
        // Two identical states → t = 1, not 2.
        let v = CVector::basis_state(2, 1);
        let spec = StateSpec::set(vec![v.clone(), v]).unwrap();
        assert_eq!(spec.correct_states().unwrap().t(), 1);
    }

    #[test]
    fn dependent_seeds_complete_the_basis_eagerly() {
        // Orthonormalisation keeps one of the two seeds, so the second
        // correct slot holds the completion's first vector.
        let v = CVector::basis_state(4, 1);
        let cs = CorrectStates::from_seeds(vec![v.clone(), v.scale(C64::from(2.0))], 4).unwrap();
        assert!(cs.basis_completed());
        assert_eq!(cs.t(), 2);
        let direct = complete_basis(&[v.clone(), v.scale(C64::from(2.0))], 4).unwrap();
        assert_eq!(cs.basis().unwrap(), &direct[..]);
        assert_eq!(cs.correct(), &direct[..2]);
        assert_eq!(cs.correct()[1], CVector::basis_state(4, 0));
    }

    #[test]
    fn density_of_set_is_valid() {
        let spec = StateSpec::set(vec![
            CVector::basis_state(4, 0),
            CVector::basis_state(4, 1),
            CVector::basis_state(4, 2),
        ])
        .unwrap();
        let rho = spec.density();
        assert!(rho.validate_density(1e-9).is_ok());
        let cs = spec.correct_states().unwrap();
        assert_eq!(cs.t(), 3);
    }
}
