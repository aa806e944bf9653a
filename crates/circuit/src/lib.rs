//! Quantum circuit intermediate representation, gate synthesis and cost
//! analysis for the `qra` quantum runtime assertion library.
//!
//! This crate is the Rust substitute for the subset of Qiskit 0.18 used by
//! the paper: a gate set with exact matrices, a [`Circuit`] builder with
//! registers, synthesis routines (`U` from a state, a circuit from an
//! arbitrary unitary, multi-controlled gates, multiplexed rotations) and
//! the paper's gate-cost accounting ([`cost::GateCounts`]).
//!
//! # Qubit ordering convention
//!
//! Qubit 0 is the **most significant** bit of a computational basis index
//! (big-endian), matching the ket notation of the paper: `|011⟩` means
//! qubit 0 in `|0⟩`, qubits 1 and 2 in `|1⟩`.
//!
//! # Example
//!
//! ```rust
//! use qra_circuit::Circuit;
//!
//! // GHZ preparation from the paper's Fig. 2.
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let state = c.statevector()?;
//! assert!((state.probability(0) - 0.5).abs() < 1e-12);
//! assert!((state.probability(7) - 0.5).abs() < 1e-12);
//! # Ok::<(), qra_circuit::CircuitError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod circuit;
pub mod cost;
pub mod error;
pub mod gate;
pub mod instruction;
pub mod kernel;
pub mod qasm;
pub mod qasm_parser;
pub mod register;
pub mod synthesis;

pub use circuit::Circuit;
pub use cost::GateCounts;
pub use error::CircuitError;
pub use gate::Gate;
pub use instruction::{Instruction, Operation};
pub use kernel::{Kernel, KernelClass};
pub use register::{ClassicalRegister, QuantumRegister};
