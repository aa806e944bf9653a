//! Complex-number linear algebra for the `qra` quantum runtime assertion library.
//!
//! This crate implements, from scratch, every numerical primitive the
//! assertion synthesis pipeline needs:
//!
//! * [`C64`] — a `Copy` complex scalar with full arithmetic;
//! * [`CVector`] — complex state vectors with inner products and norms;
//! * [`CMatrix`] — dense complex matrices with multiplication, adjoint,
//!   Kronecker products, traces and partial traces;
//! * [`gram_schmidt`] — modified Gram–Schmidt orthonormalisation and
//!   *basis completion* (extend a set of states to a full orthonormal basis),
//!   the core of the paper's §IV-B "find an orthonormal basis that includes
//!   |ψ₀⟩";
//! * [`eigen`] — Hermitian eigendecomposition via the complex Jacobi method,
//!   used to diagonalise density matrices (§IV-C / §V-B);
//!
//! # Example
//!
//! ```rust
//! use qra_math::{C64, CMatrix, CVector};
//!
//! let h = CMatrix::from_real(2, 2, &[0.5f64.sqrt(), 0.5f64.sqrt(),
//!                                    0.5f64.sqrt(), -(0.5f64.sqrt())]);
//! let zero = CVector::basis_state(2, 0);
//! let plus = h.mul_vec(&zero);
//! assert!((plus.amplitude(0).re - 0.5f64.sqrt()).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod complex;
pub mod eigen;
pub mod error;
pub mod gram_schmidt;
pub mod matrix;
pub mod vector;

pub use complex::C64;
pub use eigen::{hermitian_eigen, HermitianEigen};
pub use error::MathError;
pub use gram_schmidt::{complete_basis, orthonormalize};
pub use matrix::CMatrix;
pub use vector::CVector;

/// Default absolute tolerance used throughout the crate when comparing
/// floating-point quantities that should be exact in infinite precision.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats agree within [`EPSILON`].
///
/// ```rust
/// assert!(qra_math::approx_eq(1.0, 1.0 + 1e-12));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() < EPSILON
}

/// Checks whether `dim` is a power of two and returns the exponent
/// (the number of qubits).
///
/// # Errors
///
/// Returns [`MathError::NotPowerOfTwo`] when `dim` is zero or not a power
/// of two.
///
/// ```rust
/// assert_eq!(qra_math::qubits_for_dim(8).unwrap(), 3);
/// assert!(qra_math::qubits_for_dim(6).is_err());
/// ```
pub fn qubits_for_dim(dim: usize) -> Result<usize, MathError> {
    if dim == 0 || !dim.is_power_of_two() {
        return Err(MathError::NotPowerOfTwo { dim });
    }
    Ok(dim.trailing_zeros() as usize)
}

/// FNV-1a 64-bit hash of `bytes` (offset basis 0xcbf29ce484222325,
/// prime 0x100000001b3): the function behind compiled-program cache
/// keys and run-directory record checksums, so both stay stable across
/// crates and releases.
///
/// ```rust
/// assert_eq!(qra_math::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_for_dim_powers() {
        assert_eq!(qubits_for_dim(1).unwrap(), 0);
        assert_eq!(qubits_for_dim(2).unwrap(), 1);
        assert_eq!(qubits_for_dim(1024).unwrap(), 10);
    }

    #[test]
    fn qubits_for_dim_rejects_non_powers() {
        assert!(qubits_for_dim(0).is_err());
        assert!(qubits_for_dim(3).is_err());
        assert!(qubits_for_dim(12).is_err());
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(0.0, 0.0));
        assert!(!approx_eq(0.0, 1e-3));
    }
}
