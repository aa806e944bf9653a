//! Gate and state synthesis.
//!
//! These routines provide the "UnitaryGate" functionality the paper gets
//! from Qiskit: turning states and unitary matrices into basis-gate
//! circuits. The assertion designs of the paper reduce to three synthesis
//! problems, all solved here:
//!
//! * `U` with `U|0…0⟩ = |ψ⟩` — [`state_prep::prepare_state`] (`O(2ⁿ)` CX in
//!   general, with fast paths for basis states, product states and
//!   two-term superpositions such as GHZ);
//! * an arbitrary `n`-qubit unitary — [`two_level::unitary_circuit`]
//!   (`O(4ⁿ)` CX via two-level Givens reduction and Gray-code
//!   multi-controlled gates), or only its gate counts and its inverse's,
//!   up to a CX bound — [`two_level::unitary_pair_counts`];
//! * controlled diagonal ±1 unitaries — [`diagonal::diagonal_pm_one`]
//!   (algebraic-normal-form reduction to multi-controlled Z gates, giving
//!   the paper's `n`-CX NDD circuits for parity state sets).

pub mod controlled;
pub mod diagonal;
pub mod mc_gate;
pub mod multiplexed;
pub mod state_prep;
pub mod two_level;
pub mod zyz;

pub use diagonal::{diagonal_pm_one, is_diagonal_pm_one};
pub use mc_gate::{mc_unitary, mcx, ControlState};
pub use multiplexed::{multiplexed_ry, multiplexed_rz};
pub use state_prep::prepare_state;
pub use two_level::{unitary_circuit, unitary_pair_counts};
pub use zyz::{zyz_decompose, ZyzAngles};
