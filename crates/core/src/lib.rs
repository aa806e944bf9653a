//! Precise and approximate quantum state runtime assertions — the core
//! contribution of the reproduced paper (Liu & Zhou, HPCA 2021).
//!
//! An *assertion* is a circuit fragment inserted at a program point that
//! checks — through ancilla-qubit measurements, without destroying the
//! program state on success — whether the qubits under test are in an
//! expected state. Three synthesis approaches are provided:
//!
//! * [`Design::Swap`] — invert the expected state to `|0…0⟩`, swap with
//!   ancillas, re-prepare (§IV of the paper);
//! * [`Design::LogicalOr`] — invert, OR all would-be-measured qubits into a
//!   single ancilla, undo (§IV-E);
//! * [`Design::Ndd`] — phase-kickback with `U = Σ_correct − Σ_incorrect`
//!   (non-destructive discrimination, §V);
//! * [`Design::Auto`] — cost all three and keep the cheapest in
//!   entangling-gate count (the paper's `design = NONE`), building only
//!   the one kept ([`Candidates`]).
//!
//! Assertions accept a [`StateSpec`]: a pure state vector, a mixed-state
//! density matrix, or a *set* of states for approximate (Bloom-filter
//! style) membership checking.
//!
//! ```rust
//! use qra_circuit::Circuit;
//! use qra_core::{insert_assertion, Design, StateSpec};
//! use qra_math::CVector;
//! use qra_sim::StatevectorSimulator;
//!
//! // Assert the Bell state mid-program, then verify no assertion errors.
//! let mut program = Circuit::new(2);
//! program.h(0).cx(0, 1);
//! let s = 0.5f64.sqrt();
//! let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
//! let handle = insert_assertion(
//!     &mut program,
//!     &[0, 1],
//!     &StateSpec::pure(bell)?,
//!     Design::Auto,
//! )?;
//! let counts = StatevectorSimulator::with_seed(1).run(&program, 1024)?;
//! assert_eq!(handle.error_rate(&counts), 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod analysis;
pub mod assertion;
pub mod baselines;
pub mod checkpoint;
pub mod coverage;
pub mod error;
pub mod logical_or;
pub mod ndd;
pub mod plan;
pub mod spec;
pub mod swap;

pub use analysis::AssertionReport;
pub use assertion::{
    insert_assertion, insert_deallocation_assertion, synthesize_assertion, validate_qubits,
    Assertion, AssertionHandle, Candidates, Design,
};
pub use error::AssertionError;
pub use spec::{CorrectStates, StateSpec};
