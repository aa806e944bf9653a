//! Circuit → kernel-op lowering: the compiled execution engine front end.
//!
//! The interpreter in [`crate::statevector`] re-materialized every gate
//! matrix (`g.matrix()` allocates a fresh `CMatrix`) on every instruction of
//! every shot, and re-scanned the instruction list to re-discover structure
//! the circuit never changes between shots. [`CompiledProgram::compile`]
//! does all of that once:
//!
//! * every gate lowers to a specialized [`Kernel`]
//!   (butterfly/diagonal/permutation/generic — see [`qra_circuit::kernel`]),
//!   with its matrix precomputed and its scatter offsets baked in;
//! * measure/reset lower to precomputed bit masks (`1 << (n-1-q)`) and
//!   classical-bit masks (`1 << c`), so the per-shot loop does no index
//!   arithmetic;
//! * the **terminal** property (no gate or reset touches a qubit after it
//!   is measured) is detected in one pass with a qubit bitmask, replacing
//!   the interpreter's O(m²) `Vec::contains` scans;
//! * the **unitary prefix length** — the run of leading gate ops before the
//!   first measure/reset — is recorded so per-shot execution can evolve the
//!   prefix once and clone the cached state instead of replaying from
//!   `|0…0⟩`.
//!
//! Each gate stays its own kernel. Merging adjacent one-qubit or diagonal
//! kernels into one sweep ("fusion") was measured and removed: on the
//! twenty `assert_cli` circuits it saved nothing at 1024 shots and cost
//! compile time (DESIGN.md §5).
//!
//! Lowering never consumes randomness and kernels are numerically
//! equivalent to the dense interpreter up to the sign of zero, so a
//! compiled run is bit-for-bit seed-compatible with the interpreted run —
//! the contract `tests/compiled_identity.rs` enforces.

use crate::SimError;
use qra_circuit::kernel::{CliffordOp, Kernel, KernelClass};
use qra_circuit::{Circuit, Gate, Operation};

/// Maximum width the compiled state-vector engine supports
/// (2²⁴ amplitudes ≈ 256 MiB).
pub const MAX_QUBITS: usize = 24;

/// Maximum number of classical bits (outcome keys are `u64`).
pub const MAX_CLBITS: usize = 64;

/// One lowered instruction of a [`CompiledProgram`].
#[derive(Debug, Clone)]
pub(crate) enum ExecOp {
    /// Apply a lowered gate kernel in place.
    Apply(Kernel),
    /// Collapse the qubit selected by `mask`; set/clear `clbit_bit` in the
    /// outcome key.
    Measure { mask: usize, clbit_bit: u64 },
    /// Collapse the qubit selected by `mask`; apply `flip` (a lowered X)
    /// when the qubit collapsed to `|1⟩`.
    Reset { mask: usize, flip: Kernel },
}

/// A [`Circuit`] lowered for repeated execution.
///
/// Compilation is a pure, RNG-free analysis pass; the same program can be
/// executed any number of times (e.g. once per campaign cell) and by
/// construction produces outcomes bit-for-bit identical to interpreting
/// the original circuit with the same seed.
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::{CompiledProgram, StatevectorSimulator};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// c.measure_all();
/// let program = CompiledProgram::compile(&c)?;
/// assert!(program.is_terminal());
/// let counts = StatevectorSimulator::with_seed(7).run_compiled(&program, 1024)?;
/// assert_eq!(counts.total(), 1024);
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<ExecOp>,
    prefix_len: usize,
    terminal: bool,
    clifford: bool,
    /// `(qubit, clbit)` pairs in program order, for terminal key building.
    measures: Vec<(usize, usize)>,
}

impl CompiledProgram {
    /// Lowers `circuit` into kernel ops.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond [`MAX_QUBITS`];
    /// * [`SimError::TooManyClbits`] beyond [`MAX_CLBITS`].
    pub fn compile(circuit: &Circuit) -> Result<CompiledProgram, SimError> {
        let n = circuit.num_qubits();
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                num_qubits: n,
                max: MAX_QUBITS,
            });
        }
        if circuit.num_clbits() > MAX_CLBITS {
            return Err(SimError::TooManyClbits {
                num_clbits: circuit.num_clbits(),
                max: MAX_CLBITS,
            });
        }
        let mut ops = Vec::with_capacity(circuit.instructions().len());
        let mut measures = Vec::new();
        // Qubits measured so far; n ≤ 24 fits a u32 bitmask, replacing the
        // interpreter's O(m²) Vec::contains scans.
        let mut measured = 0u32;
        let mut terminal = true;
        let mut clifford = true;
        for inst in circuit.instructions() {
            match &inst.operation {
                Operation::Barrier => {}
                Operation::Gate(g) => {
                    if inst.qubits.iter().any(|&q| measured & (1 << q) != 0) {
                        terminal = false;
                    }
                    clifford &= CliffordOp::from_gate(g, &inst.qubits).is_some();
                    ops.push(ExecOp::Apply(Kernel::for_gate(g, &inst.qubits, n)));
                }
                Operation::Measure => {
                    let q = inst.qubits[0];
                    if measured & (1 << q) != 0 {
                        terminal = false; // double measurement needs collapse order
                    }
                    measured |= 1 << q;
                    measures.push((q, inst.clbits[0]));
                    ops.push(ExecOp::Measure {
                        mask: 1usize << (n - 1 - q),
                        clbit_bit: 1u64 << inst.clbits[0],
                    });
                }
                Operation::Reset => {
                    terminal = false;
                    let q = inst.qubits[0];
                    ops.push(ExecOp::Reset {
                        mask: 1usize << (n - 1 - q),
                        flip: Kernel::for_gate(&Gate::X, &[q], n),
                    });
                }
            }
        }
        let prefix_len = ops
            .iter()
            .position(|op| !matches!(op, ExecOp::Apply(_)))
            .unwrap_or(ops.len());
        Ok(CompiledProgram {
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            ops,
            prefix_len,
            terminal,
            clifford,
            measures,
        })
    }

    /// Register width in qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Classical register width in bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// State-vector dimension (`2ⁿ`).
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// `true` when every measurement is terminal, so the final distribution
    /// can be sampled directly instead of collapsing shot by shot.
    pub fn is_terminal(&self) -> bool {
        self.terminal
    }

    /// `true` when every gate is an exact Clifford generator
    /// ([`CliffordOp`]), so the program is eligible for the stabilizer
    /// fast path ([`crate::StabilizerSimulator`]). Measurements, resets
    /// and barriers never affect the tag.
    pub fn is_clifford(&self) -> bool {
        self.clifford
    }

    /// Bytes the program keeps in its own buffers: itself, its op list and
    /// its measurement table (the kernels' small matrix and index tables
    /// are left out).
    pub(crate) fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ops.capacity() * std::mem::size_of::<ExecOp>()
            + self.measures.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// Number of lowered ops (gates + measures + resets; barriers vanish).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Length of the leading unitary run cacheable across shots.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Histogram of kernel specialization classes, for perf introspection.
    pub fn class_histogram(&self) -> Vec<(KernelClass, usize)> {
        KernelClass::histogram(self.ops.iter().filter_map(|op| match op {
            ExecOp::Apply(k) => Some(k.class()),
            ExecOp::Measure { .. } => None,
            ExecOp::Reset { flip, .. } => Some(flip.class()),
        }))
    }

    pub(crate) fn ops(&self) -> &[ExecOp] {
        &self.ops
    }

    pub(crate) fn measures(&self) -> &[(usize, usize)] {
        &self.measures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_detection_matches_structure() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let p = CompiledProgram::compile(&c).unwrap();
        assert!(p.is_terminal());
        assert_eq!(p.prefix_len(), 2);
        assert_eq!(p.op_count(), 4);
        assert_eq!(p.measures().len(), 2);
    }

    #[test]
    fn gate_after_measure_breaks_terminality() {
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0);
        c.measure(0, 0).unwrap();
        c.h(0);
        c.measure(0, 1).unwrap();
        let p = CompiledProgram::compile(&c).unwrap();
        assert!(!p.is_terminal());
        assert_eq!(p.prefix_len(), 1);
    }

    #[test]
    fn double_measurement_breaks_terminality() {
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0);
        c.measure(0, 0).unwrap();
        c.measure(0, 1).unwrap();
        assert!(!CompiledProgram::compile(&c).unwrap().is_terminal());
    }

    #[test]
    fn reset_breaks_terminality() {
        let mut c = Circuit::with_clbits(1, 1);
        c.h(0);
        c.reset(0).unwrap();
        c.measure(0, 0).unwrap();
        let p = CompiledProgram::compile(&c).unwrap();
        assert!(!p.is_terminal());
    }

    #[test]
    fn clifford_tagging_follows_gate_set() {
        // Pure Clifford program: tagged, and stays tagged with measures,
        // resets and barriers mixed in.
        let mut c = Circuit::with_clbits(3, 3);
        c.h(0)
            .cx(0, 1)
            .s(1)
            .sdg(2)
            .x(2)
            .z(0)
            .y(1)
            .cz(0, 2)
            .swap(1, 2);
        c.barrier();
        c.reset(2).unwrap();
        c.measure(0, 0).unwrap();
        assert!(CompiledProgram::compile(&c).unwrap().is_clifford());

        // One non-Clifford gate poisons the program.
        let mut t = Circuit::new(2);
        t.h(0).t(0).cx(0, 1);
        t.measure_all();
        assert!(!CompiledProgram::compile(&t).unwrap().is_clifford());

        let mut rz = Circuit::new(1);
        rz.rz(0.5, 0);
        assert!(!CompiledProgram::compile(&rz).unwrap().is_clifford());
    }

    #[test]
    fn width_limits_enforced() {
        assert!(matches!(
            CompiledProgram::compile(&Circuit::new(25)),
            Err(SimError::TooManyQubits {
                num_qubits: 25,
                max: 24
            })
        ));
    }

    #[test]
    fn class_histogram_reports_specializations() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(2).cu3(0.1, 0.2, 0.3, 0, 2);
        let p = CompiledProgram::compile(&c).unwrap();
        let hist = p.class_histogram();
        assert!(hist.contains(&(KernelClass::Single, 1)));
        assert!(hist.contains(&(KernelClass::Diagonal, 1)));
        assert!(hist.contains(&(KernelClass::Permutation, 1)));
        assert!(hist.contains(&(KernelClass::Generic, 1)));
    }
}
