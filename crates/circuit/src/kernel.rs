//! Specialized state-vector gate kernels.
//!
//! [`apply_gate_inplace`](crate::circuit::apply_gate_inplace) treats every
//! gate as a dense `2ᵏ × 2ᵏ` matrix and pays the full `4ᵏ` complex
//! multiply-accumulate per sub-block. Most gates in real circuits are far
//! more structured, and a [`Kernel`] captures that structure once — at
//! lowering time — so the per-shot hot loop runs the cheapest possible
//! update:
//!
//! * [`KernelClass::Single`] — an in-place single-qubit butterfly
//!   (4 multiplies, 2 adds per amplitude pair);
//! * [`KernelClass::Diagonal`] — phase-only gates (`Z`, `S`, `T`, `Rz`,
//!   `P`, `Cz`, `Cp`, `Crz`, `Ccz`): one multiply per amplitude, and
//!   exact-unit diagonal entries are skipped entirely;
//! * [`KernelClass::Permutation`] — classical bit-shuffles (`X`, `CX`,
//!   `CCX`, `SWAP`, `CSWAP`): pure amplitude moves, no arithmetic;
//! * [`KernelClass::Generic`] — the dense fallback, with its gather
//!   offsets precomputed and its scratch buffer caller-provided.
//!
//! Classification is structural (from the matrix, not the gate name), so
//! arbitrary [`Gate::Unitary`] gates and even non-unitary Kraus operators
//! lower to the cheapest applicable kernel.
//!
//! # One sweep per class
//!
//! Each class is applied by one sweep over a range of independent work
//! items: amplitude pairs for one-qubit kernels, amplitudes for `k ≥ 2`
//! diagonals, sub-block bases for permutations and the dense fallback.
//! Distinct items touch disjoint amplitudes. [`Kernel::apply`] sweeps the
//! whole range; [`Kernel::apply_threaded`] splits it into contiguous
//! per-thread ranges and runs the same sweep on each, so a threaded
//! application is the sequential one by construction.
//!
//! # Numerical contract
//!
//! Every kernel performs arithmetic identical to the dense fallback up to
//! the sign of zero components (the dense path folds exact-zero products
//! into its accumulator; specialized kernels skip them). Probabilities
//! (`|amp|²`) and every comparison derived from them are therefore
//! bit-for-bit identical across kernel classes — the seed-compatibility
//! contract the compiled execution engine in `qra-sim` relies on.
//!
//! Threading is held to a *stronger* contract: bit-for-bit equality with
//! the sequential kernel, not merely modulo-sign-of-zero. It only
//! re-partitions the work items, so every amplitude sees the identical
//! operation sequence at any thread count.

use crate::Gate;
use qra_math::{CMatrix, C64};

/// Width threshold (in qubits) above which [`Kernel::apply_threaded`]
/// engages worker threads. Below `2^10` amplitudes the `thread::scope`
/// spawn/join cost dominates the sweep itself, so smaller states always
/// run the sequential path (which keeps tiny kernels bit-identical *and*
/// fast at any configured thread count).
pub const PARALLEL_THRESHOLD_QUBITS: usize = 10;

/// The specialization a matrix lowered to; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// In-place single-qubit butterfly.
    Single,
    /// Phase-only diagonal update.
    Diagonal,
    /// Pure amplitude permutation.
    Permutation,
    /// Dense matrix fallback.
    Generic,
}

impl KernelClass {
    /// Counts `classes` per class, in declaration order, leaving out
    /// classes that never occur.
    pub fn histogram(classes: impl IntoIterator<Item = KernelClass>) -> Vec<(KernelClass, usize)> {
        let all = [
            KernelClass::Single,
            KernelClass::Diagonal,
            KernelClass::Permutation,
            KernelClass::Generic,
        ];
        let mut counts = [0usize; 4];
        for class in classes {
            counts[class as usize] += 1;
        }
        all.into_iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// Short lowercase name used in reports and benches.
    pub fn name(&self) -> &'static str {
        match self {
            KernelClass::Single => "single",
            KernelClass::Diagonal => "diagonal",
            KernelClass::Permutation => "permutation",
            KernelClass::Generic => "generic",
        }
    }
}

/// A recognized Clifford-group generator with its register qubit indices.
///
/// The variant set is exactly the tableau backend's instruction set:
/// `H`, `S`, `S†`, the Paulis, `CX`, `CZ` and `SWAP` (plus the identity,
/// so `id` gates and `Rz(0)`-style no-ops never break a Clifford run).
/// Recognition is an *exact-unitary* match against the generator
/// matrices — `T`, `Rz(π)`, `√X` and friends are rejected even when they
/// are Clifford up to floating-point or global phase, which keeps the
/// stabilizer fast path's "bit-identical to the statevector engine"
/// contract trivially honest: only gates whose matrices equal the
/// generators bit-for-bit are rerouted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordOp {
    /// Identity.
    I(usize),
    /// Hadamard.
    H(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// `S†`.
    Sdg(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// Controlled-X as `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z (symmetric in its qubits).
    Cz(usize, usize),
    /// SWAP.
    Swap(usize, usize),
}

impl CliffordOp {
    /// Recognizes `gate` on `qubits` as a Clifford generator, without ever
    /// touching the register width — usable at widths where
    /// [`Kernel::for_gate`]'s `2ⁿ` dimension would overflow.
    ///
    /// Arbitrary [`Gate::Unitary`] gates are recognized too when their
    /// matrix equals a generator's exactly.
    pub fn from_gate(gate: &Gate, qubits: &[usize]) -> Option<CliffordOp> {
        match gate.unitary_matrix() {
            Some(m) => Self::from_unitary(m, qubits),
            None => Self::from_unitary(&gate.matrix(), qubits),
        }
    }

    /// Recognizes an explicit big-endian unitary on `qubits` by exact
    /// entry-wise comparison against the generator matrices (`-0.0` and
    /// `0.0` compare equal, matching the kernel numerical contract).
    pub fn from_unitary(matrix: &CMatrix, qubits: &[usize]) -> Option<CliffordOp> {
        match qubits.len() {
            1 => {
                let q = qubits[0];
                type Make1 = fn(usize) -> CliffordOp;
                let gens: [(Gate, Make1); 7] = [
                    (Gate::I, CliffordOp::I),
                    (Gate::H, CliffordOp::H),
                    (Gate::S, CliffordOp::S),
                    (Gate::Sdg, CliffordOp::Sdg),
                    (Gate::X, CliffordOp::X),
                    (Gate::Y, CliffordOp::Y),
                    (Gate::Z, CliffordOp::Z),
                ];
                gens.iter()
                    .find(|(g, _)| matrices_exactly_equal(matrix, &g.matrix()))
                    .map(|(_, make)| make(q))
            }
            2 => {
                let (a, b) = (qubits[0], qubits[1]);
                type Make2 = fn(usize, usize) -> CliffordOp;
                let gens: [(Gate, Make2); 3] = [
                    (Gate::Cx, CliffordOp::Cx),
                    (Gate::Cz, CliffordOp::Cz),
                    (Gate::Swap, CliffordOp::Swap),
                ];
                gens.iter()
                    .find(|(g, _)| matrices_exactly_equal(matrix, &g.matrix()))
                    .map(|(_, make)| make(a, b))
            }
            _ => None,
        }
    }
}

fn matrices_exactly_equal(a: &CMatrix, b: &CMatrix) -> bool {
    if a.rows() != b.rows() {
        return false;
    }
    for r in 0..a.rows() {
        for c in 0..a.rows() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            if x.re != y.re || x.im != y.im {
                return false;
            }
        }
    }
    true
}

/// One stage of a one-qubit kernel, applied to amplitude pairs.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Dense 2×2 butterfly.
    Butterfly {
        m00: C64,
        m01: C64,
        m10: C64,
        m11: C64,
    },
    /// Diagonal scale: low amplitudes by `d0`, high ones by `d1`;
    /// exact-unit factors are skipped.
    Diag { d0: C64, d1: C64 },
}

impl Stage {
    /// Applies the stage to the pair ordinals `start..end` of split
    /// `mask`, its constants hoisted out of the run loop.
    ///
    /// # Safety
    ///
    /// As for [`Body::sweep`].
    unsafe fn sweep(&self, ptr: *mut C64, mask: usize, start: usize, end: usize) {
        match *self {
            Stage::Butterfly { m00, m01, m10, m11 } => {
                pair_runs(ptr, mask, start, end, move |a0, a1| {
                    let (x, y) = (*a0, *a1);
                    *a0 = m00 * x + m01 * y;
                    *a1 = m10 * x + m11 * y;
                })
            }
            // Exact-unit factors are skipped, and the loop a factor
            // pattern needs is picked once, so no pair branches.
            Stage::Diag { d0, d1 } => match (exact_one(d0), exact_one(d1)) {
                (true, true) => {}
                (true, false) => pair_runs(ptr, mask, start, end, move |_, a1| *a1 *= d1),
                (false, true) => pair_runs(ptr, mask, start, end, move |a0, _| *a0 *= d0),
                (false, false) => pair_runs(ptr, mask, start, end, move |a0, a1| {
                    *a0 *= d0;
                    *a1 *= d1;
                }),
            },
        }
    }
}

#[derive(Debug, Clone)]
enum Body {
    /// `k = 1`: one stage over the amplitude pairs split by `mask`.
    OneQubit { stage: Stage, mask: usize },
    /// `k ≥ 2` diagonal over the gathered sub-index.
    Diagonal { diag: Vec<C64>, shifts: Vec<usize> },
    /// Sub-block permutation: new sub-amplitude `r` reads old `src[r]`.
    Permutation {
        src: Vec<usize>,
        offsets: Vec<usize>,
        gate_mask: usize,
    },
    /// Dense fallback with precomputed scatter offsets.
    Generic {
        matrix: CMatrix,
        offsets: Vec<usize>,
        gate_mask: usize,
    },
}

impl Body {
    /// Applies the body to the work items `start..end` (see the module
    /// docs for what an item is).
    ///
    /// # Safety
    ///
    /// `ptr` must address a state of the lowered dimension, `scratch` must
    /// hold [`Kernel::scratch_len`] entries, and no other thread may touch
    /// the amplitudes of these items while the sweep runs.
    unsafe fn sweep(&self, ptr: *mut C64, start: usize, end: usize, scratch: &mut [C64]) {
        match self {
            Body::OneQubit { stage, mask } => {
                stage.sweep(ptr, *mask, start, end);
            }
            Body::Diagonal { diag, shifts } => {
                for i in start..end {
                    let d = diag[sub_index(i, shifts)];
                    if !exact_one(d) {
                        *ptr.add(i) *= d;
                    }
                }
            }
            Body::Permutation {
                src,
                offsets,
                gate_mask,
            } => {
                for base in bases(*gate_mask, start, end) {
                    for (slot, &s) in scratch.iter_mut().zip(src) {
                        *slot = *ptr.add(base | offsets[s]);
                    }
                    for (&off, &amp) in offsets.iter().zip(scratch.iter()) {
                        *ptr.add(base | off) = amp;
                    }
                }
            }
            Body::Generic {
                matrix,
                offsets,
                gate_mask,
            } => {
                for base in bases(*gate_mask, start, end) {
                    for (slot, &off) in scratch.iter_mut().zip(offsets) {
                        *slot = *ptr.add(base | off);
                    }
                    for (r, &off) in offsets.iter().enumerate() {
                        let mut acc = C64::zero();
                        for (c, &amp) in scratch.iter().enumerate() {
                            acc += matrix.get(r, c) * amp;
                        }
                        *ptr.add(base | off) = acc;
                    }
                }
            }
        }
    }
}

/// Runs shorter than this many pairs are walked pair by pair: the call
/// per run would cost more than it saves.
const SHORT_RUN: usize = 4;

/// Calls `f(a0, a1)` on each amplitude pair `(i, i + mask)` whose pair
/// ordinal lies in `start..end`, in ascending order. Ordinal `p` keeps its
/// bits below `mask` and shifts the rest up past it, so the pairs come in
/// contiguous runs of at most `mask`, and the full range is the block walk
/// `0, 2·mask, 4·mask, …`.
///
/// # Safety
///
/// As for [`Body::sweep`].
unsafe fn pair_runs(
    ptr: *mut C64,
    mask: usize,
    start: usize,
    end: usize,
    mut f: impl FnMut(&mut C64, &mut C64),
) {
    if mask == 1 {
        for p in start..end {
            f(&mut *ptr.add(2 * p), &mut *ptr.add(2 * p + 1));
        }
        return;
    }
    let low = mask - 1;
    if mask < SHORT_RUN {
        for p in start..end {
            let i = ((p & !low) << 1) | (p & low);
            f(&mut *ptr.add(i), &mut *ptr.add(i + mask));
        }
        return;
    }
    let mut p = start;
    while p < end {
        let len = end.min((p | low) + 1) - p;
        let i = ((p & !low) << 1) | (p & low);
        // `len ≤ mask`, so the two halves are disjoint.
        let lo = std::slice::from_raw_parts_mut(ptr.add(i), len);
        let hi = std::slice::from_raw_parts_mut(ptr.add(i + mask), len);
        run(lo, hi, &mut f);
        p += len;
    }
}

/// Applies `f` to the pairs `(lo[j], hi[j])` of one run. Kept out of line
/// on purpose: as parameters, the two `&mut` halves tell the optimizer
/// that they do not alias, so the loop vectorizes with the stage
/// constants held in registers. For a butterfly on 2¹⁴ and 2²⁰
/// amplitudes (x86-64, SSE2, one thread) that ran about 1.5× as fast as
/// the same loop over raw pointers.
#[inline(never)]
fn run(lo: &mut [C64], hi: &mut [C64], f: &mut impl FnMut(&mut C64, &mut C64)) {
    for (a0, a1) in lo.iter_mut().zip(hi) {
        f(a0, a1);
    }
}

/// The sub-index of amplitude `i` over the gate qubits at bit positions
/// `shifts`, the first gate qubit most significant.
fn sub_index(i: usize, shifts: &[usize]) -> usize {
    shifts.iter().fold(0, |s, &sh| (s << 1) | ((i >> sh) & 1))
}

/// The `ordinal`-th sub-block base index: `ordinal`'s bits deposited in
/// ascending order into the zero bit positions of `gate_mask`.
fn nth_base(mut ordinal: usize, gate_mask: usize) -> usize {
    let mut base = 0usize;
    let mut bit = 1usize;
    while ordinal != 0 {
        if gate_mask & bit == 0 {
            base |= (ordinal & 1) * bit;
            ordinal >>= 1;
        }
        bit <<= 1;
    }
    base
}

/// The sub-block bases with ordinals `start..end`, in ascending order:
/// the walk `base → ((base | gate_mask) + 1) & !gate_mask`.
fn bases(gate_mask: usize, start: usize, end: usize) -> impl Iterator<Item = usize> {
    let next = move |&base: &usize| Some((base | gate_mask).wrapping_add(1) & !gate_mask);
    std::iter::successors(Some(nth_base(start, gate_mask)), next).take(end - start)
}

/// `scratch`'s first `len` entries, grown on demand and never shrunk.
fn grow(scratch: &mut Vec<C64>, len: usize) -> &mut [C64] {
    if scratch.len() < len {
        scratch.resize(len, C64::zero());
    }
    &mut scratch[..len]
}

/// The amplitude pointer the scoped workers of [`Kernel::apply_threaded`]
/// share; each sweeps a disjoint item range.
struct SharedPtr(*mut C64);
// SAFETY: workers only write the amplitudes of their own item ranges,
// which are disjoint.
unsafe impl Sync for SharedPtr {}

/// A gate lowered onto a fixed qubit tuple of a fixed-width register,
/// ready for repeated O(2ⁿ) in-place application.
///
/// ```rust
/// use qra_circuit::kernel::{Kernel, KernelClass};
/// use qra_circuit::Gate;
/// use qra_math::CVector;
///
/// let k = Kernel::for_gate(&Gate::Cx, &[0, 1], 2);
/// assert_eq!(k.class(), KernelClass::Permutation);
/// let mut state = CVector::basis_state(4, 0b10).into_inner();
/// let mut scratch = Vec::new();
/// k.apply(&mut state, &mut scratch);
/// assert_eq!(state[0b11], qra_math::C64::one());
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    body: Body,
    dim: usize,
}

fn exact_zero(z: C64) -> bool {
    z.re == 0.0 && z.im == 0.0
}

fn exact_one(z: C64) -> bool {
    z.re == 1.0 && z.im == 0.0
}

impl Kernel {
    /// Lowers `gate` applied on `qubits` (gate order) of an `n`-qubit
    /// register. Arbitrary-unitary gates lower without cloning their
    /// backing matrix unless the dense fallback is needed.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or invalid qubit indices, exactly like
    /// [`crate::circuit::apply_gate_inplace`].
    pub fn for_gate(gate: &Gate, qubits: &[usize], n: usize) -> Kernel {
        match gate.unitary_matrix() {
            Some(m) => Self::from_matrix(m, qubits, n),
            None => Self::from_matrix(&gate.matrix(), qubits, n),
        }
    }

    /// Lowers an explicit `2ᵏ × 2ᵏ` matrix (not necessarily unitary — Kraus
    /// operators lower too) applied on `qubits` of an `n`-qubit register.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or invalid qubit indices.
    pub fn from_matrix(matrix: &CMatrix, qubits: &[usize], n: usize) -> Kernel {
        let k = qubits.len();
        let sub_dim = 1usize << k;
        assert_eq!(matrix.rows(), sub_dim, "gate dimension mismatch");
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < n, "qubit {q} out of range for {n} qubits");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }
        let dim = 1usize << n;
        // Bit positions (from the most significant end) of each gate qubit.
        let shifts: Vec<usize> = qubits.iter().map(|&q| n - 1 - q).collect();
        let gate_mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
        // offsets[s]: the full-index bits contributed by sub-index `s`.
        let offsets: Vec<usize> = (0..sub_dim)
            .map(|s| {
                let mut off = 0usize;
                for (pos, &sh) in shifts.iter().enumerate() {
                    if (s >> (k - 1 - pos)) & 1 == 1 {
                        off |= 1 << sh;
                    }
                }
                off
            })
            .collect();

        let body = if is_diagonal(matrix) {
            if k == 1 {
                Body::OneQubit {
                    stage: Stage::Diag {
                        d0: matrix.get(0, 0),
                        d1: matrix.get(1, 1),
                    },
                    mask: gate_mask,
                }
            } else {
                let diag = (0..sub_dim).map(|r| matrix.get(r, r)).collect();
                Body::Diagonal { diag, shifts }
            }
        } else if let Some(src) = as_permutation(matrix) {
            Body::Permutation {
                src,
                offsets,
                gate_mask,
            }
        } else if k == 1 {
            Body::OneQubit {
                stage: Stage::Butterfly {
                    m00: matrix.get(0, 0),
                    m01: matrix.get(0, 1),
                    m10: matrix.get(1, 0),
                    m11: matrix.get(1, 1),
                },
                mask: gate_mask,
            }
        } else {
            Body::Generic {
                matrix: matrix.clone(),
                offsets,
                gate_mask,
            }
        };
        Kernel { body, dim }
    }

    /// The specialization class this kernel lowered to.
    pub fn class(&self) -> KernelClass {
        match &self.body {
            Body::OneQubit {
                stage: Stage::Butterfly { .. },
                ..
            } => KernelClass::Single,
            Body::OneQubit {
                stage: Stage::Diag { .. },
                ..
            }
            | Body::Diagonal { .. } => KernelClass::Diagonal,
            Body::Permutation { .. } => KernelClass::Permutation,
            Body::Generic { .. } => KernelClass::Generic,
        }
    }

    /// The full register dimension (`2ⁿ`) this kernel was lowered for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Recognizes this kernel as a Clifford generator, reusing the
    /// structural classification: a one-qubit butterfly can only be `H`
    /// or `Y`, a one-qubit diagonal one of `I`/`S`/`S†`/`Z`, a two-qubit
    /// diagonal `CZ`, and a permutation `X`/`CX`/`SWAP`. Entries are
    /// compared exactly against the generator matrices (see
    /// [`CliffordOp::from_unitary`]); generic kernels are never
    /// Clifford-tagged.
    pub fn as_clifford(&self) -> Option<CliffordOp> {
        let n = self.dim.trailing_zeros() as usize;
        let qubit_of = |bit: usize| n - 1 - bit.trailing_zeros() as usize;
        let eq = |a: C64, b: C64| a.re == b.re && a.im == b.im;
        match &self.body {
            Body::OneQubit {
                stage: Stage::Butterfly { m00, m01, m10, m11 },
                mask,
            } => {
                let q = qubit_of(*mask);
                for (gate, make) in [
                    (Gate::H, CliffordOp::H as fn(usize) -> CliffordOp),
                    (Gate::Y, CliffordOp::Y),
                ] {
                    let m = gate.matrix();
                    if eq(*m00, m.get(0, 0))
                        && eq(*m01, m.get(0, 1))
                        && eq(*m10, m.get(1, 0))
                        && eq(*m11, m.get(1, 1))
                    {
                        return Some(make(q));
                    }
                }
                None
            }
            Body::OneQubit {
                stage: Stage::Diag { d0, d1 },
                mask,
            } => {
                if !exact_one(*d0) {
                    return None;
                }
                let q = qubit_of(*mask);
                if exact_one(*d1) {
                    Some(CliffordOp::I(q))
                } else if d1.re == 0.0 && d1.im == 1.0 {
                    Some(CliffordOp::S(q))
                } else if d1.re == 0.0 && d1.im == -1.0 {
                    Some(CliffordOp::Sdg(q))
                } else if d1.re == -1.0 && d1.im == 0.0 {
                    Some(CliffordOp::Z(q))
                } else {
                    None
                }
            }
            Body::Diagonal { diag, shifts } if shifts.len() == 2 => {
                let cz = exact_one(diag[0])
                    && exact_one(diag[1])
                    && exact_one(diag[2])
                    && diag[3].re == -1.0
                    && diag[3].im == 0.0;
                cz.then(|| CliffordOp::Cz(n - 1 - shifts[0], n - 1 - shifts[1]))
            }
            Body::Permutation { src, offsets, .. } => match src.as_slice() {
                [1, 0] => Some(CliffordOp::X(qubit_of(offsets[1]))),
                // offsets[2] is gate qubit 0's bit, offsets[1] gate qubit 1's.
                [0, 1, 3, 2] => Some(CliffordOp::Cx(qubit_of(offsets[2]), qubit_of(offsets[1]))),
                [0, 2, 1, 3] => Some(CliffordOp::Swap(qubit_of(offsets[2]), qubit_of(offsets[1]))),
                _ => None,
            },
            _ => None,
        }
    }

    /// The number of work items [`Body::sweep`] walks for this kernel.
    fn items(&self) -> usize {
        match &self.body {
            Body::OneQubit { .. } => self.dim / 2,
            Body::Diagonal { .. } => self.dim,
            Body::Permutation { offsets, .. } | Body::Generic { offsets, .. } => {
                self.dim / offsets.len()
            }
        }
    }

    /// The scratch entries one sweep needs: a gathered sub-block for the
    /// permutation and dense classes, none otherwise.
    fn scratch_len(&self) -> usize {
        match &self.body {
            Body::Permutation { offsets, .. } | Body::Generic { offsets, .. } => offsets.len(),
            _ => 0,
        }
    }

    /// Applies the kernel to `state` in place. `scratch` is a reusable
    /// buffer (grown on demand, never shrunk) so repeated application
    /// allocates nothing after the first call.
    ///
    /// # Panics
    ///
    /// Panics when `state.len()` disagrees with the lowered dimension.
    pub fn apply(&self, state: &mut [C64], scratch: &mut Vec<C64>) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        let scratch = grow(scratch, self.scratch_len());
        // SAFETY: the exclusive borrow covers every item's amplitudes.
        unsafe {
            self.body
                .sweep(state.as_mut_ptr(), 0, self.items(), scratch)
        }
    }

    /// Applies the kernel like [`Kernel::apply`], splitting its work items
    /// into `threads` contiguous ranges swept concurrently when the state
    /// is at least `2^`[`PARALLEL_THRESHOLD_QUBITS`] amplitudes.
    ///
    /// Bit-for-bit identical to [`Kernel::apply`] at every thread count:
    /// each range runs the same sweep, and items are independent. The
    /// calling thread sweeps the first range with `scratch`; every other
    /// range runs on a scoped worker with a private scratch, so no buffer
    /// is shared across threads.
    ///
    /// # Panics
    ///
    /// Panics when `state.len()` disagrees with the lowered dimension.
    pub fn apply_threaded(&self, state: &mut [C64], scratch: &mut Vec<C64>, threads: usize) {
        if threads <= 1 || self.dim < (1 << PARALLEL_THRESHOLD_QUBITS) {
            return self.apply(state, scratch);
        }
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        let items = self.items();
        let chunk = items.div_ceil(threads.min(items));
        let len = self.scratch_len();
        let ptr = &SharedPtr(state.as_mut_ptr());
        std::thread::scope(|s| {
            for start in (chunk..items).step_by(chunk) {
                s.spawn(move || {
                    let mut local = vec![C64::zero(); len];
                    let end = items.min(start + chunk);
                    // SAFETY: item ranges are disjoint, and so are their
                    // amplitudes; `state` stays borrowed for the scope.
                    unsafe { self.body.sweep(ptr.0, start, end, &mut local) }
                });
            }
            // SAFETY: as above, for the first range.
            unsafe { self.body.sweep(ptr.0, 0, chunk, grow(scratch, len)) }
        });
    }
}

/// Scratch for a [`ConjugationPair`] application: one private buffer per
/// factor, so a buffer is never threaded through two kernel applications
/// (the aliasing hazard the threaded engine must exclude).
#[derive(Debug, Default, Clone)]
pub struct PairScratch {
    left: Vec<C64>,
    right: Vec<C64>,
}

/// A lowered conjugation map `ρ ← AρA†` over a vectorized density matrix.
///
/// A `d × d` density matrix on `n` qubits, flattened row-major
/// (`vec(ρ)[r·d + c] = ρ[r][c]`), is index-isomorphic to a `2n`-qubit state
/// vector whose high `n` bits are the row index and low `n` bits the
/// column index. Under that isomorphism:
///
/// * left multiplication `Aρ` is `A` applied to the **row** qubits —
///   gate qubit `q` lands on register qubit `q` of the `2n` register;
/// * right multiplication `MA†` is `Ā` (elementwise conjugate, **not**
///   the adjoint) applied to the **column** qubits — gate qubit `q` lands
///   on register qubit `n + q`.
///
/// Both factors lower through [`Kernel::from_matrix`] and inherit its
/// structural classification: an `X`/`CX` conjugation is two pure index
/// permutations of ρ and a `Z`/`S`/`T`/`Rz` conjugation is two `O(d²)`
/// phase sweeps, instead of two `O(d³)` dense multiplies. Non-unitary
/// Kraus operators lower identically (the completeness sum is the
/// caller's concern).
///
/// ```rust
/// use qra_circuit::kernel::{ConjugationPair, PairScratch};
/// use qra_circuit::Gate;
/// use qra_math::C64;
///
/// // X|0⟩⟨0|X = |1⟩⟨1| on a 1-qubit register: vec(ρ) has 4 entries.
/// let pair = ConjugationPair::for_gate(&Gate::X, &[0], 1);
/// let mut rho = vec![C64::one(), C64::zero(), C64::zero(), C64::zero()];
/// pair.apply(&mut rho, &mut PairScratch::default());
/// assert_eq!(rho[0b11], C64::one());
/// ```
#[derive(Debug, Clone)]
pub struct ConjugationPair {
    left: Kernel,
    right: Kernel,
}

impl ConjugationPair {
    /// Lowers `matrix` acting on `qubits` of an `n`-qubit density matrix
    /// into the left/right kernel pair over the `2n`-qubit vectorization.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or invalid qubit indices, exactly like
    /// [`Kernel::from_matrix`].
    pub fn lower(matrix: &CMatrix, qubits: &[usize], n: usize) -> ConjugationPair {
        let col_qubits: Vec<usize> = qubits.iter().map(|&q| q + n).collect();
        ConjugationPair {
            left: Kernel::from_matrix(matrix, qubits, 2 * n),
            right: Kernel::from_matrix(&matrix.conj(), &col_qubits, 2 * n),
        }
    }

    /// Lowers a gate's matrix; see [`ConjugationPair::lower`].
    pub fn for_gate(gate: &Gate, qubits: &[usize], n: usize) -> ConjugationPair {
        match gate.unitary_matrix() {
            Some(m) => Self::lower(m, qubits, n),
            None => Self::lower(&gate.matrix(), qubits, n),
        }
    }

    /// Applies `ρ ← AρA†` in place on the row-major flattened density
    /// matrix (`4ⁿ` entries). Each factor uses its own buffer inside
    /// `scratch`, reused across calls like [`Kernel::apply`]'s.
    ///
    /// # Panics
    ///
    /// Panics when `vec_rho.len()` disagrees with the lowered dimension.
    pub fn apply(&self, vec_rho: &mut [C64], scratch: &mut PairScratch) {
        self.left.apply(vec_rho, &mut scratch.left);
        self.right.apply(vec_rho, &mut scratch.right);
    }

    /// Like [`ConjugationPair::apply`], but each factor sweeps `vec_rho`
    /// with [`Kernel::apply_threaded`].
    pub fn apply_threaded(&self, vec_rho: &mut [C64], scratch: &mut PairScratch, threads: usize) {
        self.left
            .apply_threaded(vec_rho, &mut scratch.left, threads);
        self.right
            .apply_threaded(vec_rho, &mut scratch.right, threads);
    }

    /// The classification of the left (row-side) factor; the right factor
    /// always lowers to the same class (conjugation preserves structure).
    pub fn class(&self) -> KernelClass {
        self.left.class()
    }
}

/// `true` when every off-diagonal entry is exactly zero.
fn is_diagonal(m: &CMatrix) -> bool {
    let d = m.rows();
    for r in 0..d {
        for c in 0..d {
            if r != c && !exact_zero(m.get(r, c)) {
                return false;
            }
        }
    }
    true
}

/// When `m` is an exact 0/1 permutation matrix, returns `src` with
/// `src[r] = c` for the unique `c` with `m[r][c] = 1`; `None` otherwise.
fn as_permutation(m: &CMatrix) -> Option<Vec<usize>> {
    let d = m.rows();
    let mut src = Vec::with_capacity(d);
    let mut used = vec![false; d];
    for r in 0..d {
        let mut found: Option<usize> = None;
        for c in 0..d {
            let z = m.get(r, c);
            if exact_zero(z) {
                continue;
            }
            if !exact_one(z) || found.is_some() {
                return None;
            }
            found = Some(c);
        }
        let c = found?;
        if used[c] {
            return None;
        }
        used[c] = true;
        src.push(c);
    }
    Some(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::embed;
    use qra_math::CVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_state(rng: &mut StdRng, dim: usize) -> CVector {
        let raw: Vec<C64> = (0..dim)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        CVector::new(raw).normalized().unwrap()
    }

    fn distinct_qubits(rng: &mut StdRng, k: usize, n: usize) -> Vec<usize> {
        let mut qs: Vec<usize> = Vec::new();
        while qs.len() < k {
            let q = rng.gen_range(0..n);
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        qs
    }

    #[test]
    fn classification_per_gate() {
        let n = 3;
        let cases = [
            (Gate::H, vec![0], KernelClass::Single),
            (Gate::Y, vec![1], KernelClass::Single),
            (Gate::Rx(0.3), vec![2], KernelClass::Single),
            (Gate::Z, vec![0], KernelClass::Diagonal),
            (Gate::S, vec![1], KernelClass::Diagonal),
            (Gate::T, vec![1], KernelClass::Diagonal),
            (Gate::Rz(0.7), vec![2], KernelClass::Diagonal),
            (Gate::Phase(0.4), vec![0], KernelClass::Diagonal),
            (Gate::Cz, vec![0, 1], KernelClass::Diagonal),
            (Gate::Cp(0.2), vec![1, 2], KernelClass::Diagonal),
            (Gate::Crz(0.9), vec![0, 2], KernelClass::Diagonal),
            (Gate::Ccz, vec![0, 1, 2], KernelClass::Diagonal),
            (Gate::X, vec![0], KernelClass::Permutation),
            (Gate::Cx, vec![0, 1], KernelClass::Permutation),
            (Gate::Swap, vec![1, 2], KernelClass::Permutation),
            (Gate::Ccx, vec![0, 1, 2], KernelClass::Permutation),
            (Gate::Cswap, vec![0, 1, 2], KernelClass::Permutation),
            (Gate::Ch, vec![0, 1], KernelClass::Generic),
            (Gate::Cu3(0.1, 0.2, 0.3), vec![1, 0], KernelClass::Generic),
        ];
        for (gate, qubits, class) in cases {
            let kernel = Kernel::for_gate(&gate, &qubits, n);
            assert_eq!(kernel.class(), class, "{gate} misclassified");
        }
    }

    #[test]
    fn clifford_generators_recognized_with_qubits() {
        let n = 5;
        let cases: [(Gate, Vec<usize>, CliffordOp); 10] = [
            (Gate::I, vec![3], CliffordOp::I(3)),
            (Gate::H, vec![0], CliffordOp::H(0)),
            (Gate::S, vec![1], CliffordOp::S(1)),
            (Gate::Sdg, vec![4], CliffordOp::Sdg(4)),
            (Gate::X, vec![2], CliffordOp::X(2)),
            (Gate::Y, vec![1], CliffordOp::Y(1)),
            (Gate::Z, vec![0], CliffordOp::Z(0)),
            (Gate::Cx, vec![3, 1], CliffordOp::Cx(3, 1)),
            (Gate::Cz, vec![0, 4], CliffordOp::Cz(0, 4)),
            (Gate::Swap, vec![2, 0], CliffordOp::Swap(2, 0)),
        ];
        for (gate, qubits, expect) in cases {
            assert_eq!(
                Kernel::for_gate(&gate, &qubits, n).as_clifford(),
                Some(expect),
                "{gate} kernel not Clifford-classified"
            );
            assert_eq!(
                CliffordOp::from_gate(&gate, &qubits),
                Some(expect),
                "{gate} gate not Clifford-classified"
            );
        }
    }

    #[test]
    fn non_clifford_gates_rejected() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let n = 3;
        let cases: [(Gate, Vec<usize>); 10] = [
            (Gate::T, vec![0]),
            (Gate::Tdg, vec![1]),
            (Gate::Sx, vec![0]),
            (Gate::Rz(0.7), vec![2]),
            // Clifford up to floating point / global phase, but not an
            // exact generator match — must stay on the dense path.
            (Gate::Rz(PI), vec![0]),
            (Gate::Phase(FRAC_PI_2), vec![1]),
            (Gate::Ry(FRAC_PI_2), vec![2]),
            (Gate::Ch, vec![0, 1]),
            (Gate::Cu3(0.1, 0.2, 0.3), vec![1, 2]),
            (Gate::Ccx, vec![0, 1, 2]),
        ];
        for (gate, qubits) in cases {
            assert_eq!(
                Kernel::for_gate(&gate, &qubits, n).as_clifford(),
                None,
                "{gate} kernel wrongly Clifford-classified"
            );
            assert_eq!(
                CliffordOp::from_gate(&gate, &qubits),
                None,
                "{gate} gate wrongly Clifford-classified"
            );
        }
    }

    #[test]
    fn exact_unitary_matrices_recognized_without_gate_names() {
        let h = Gate::unitary(Gate::H.matrix(), "custom-h").unwrap();
        assert_eq!(CliffordOp::from_gate(&h, &[2]), Some(CliffordOp::H(2)));
        assert_eq!(
            Kernel::for_gate(&h, &[2], 4).as_clifford(),
            Some(CliffordOp::H(2))
        );
        let almost = Gate::unitary(Gate::Rz(1e-12).matrix(), "almost-id").unwrap();
        assert_eq!(CliffordOp::from_gate(&almost, &[0]), None);
    }

    #[test]
    fn identity_is_skipped_diagonal() {
        let k = Kernel::for_gate(&Gate::I, &[0], 2);
        assert_eq!(k.class(), KernelClass::Diagonal);
        let mut state = CVector::basis_state(4, 3).into_inner();
        let before = state.clone();
        k.apply(&mut state, &mut Vec::new());
        assert_eq!(state, before);
    }

    /// Every kernel class must agree with the dense embedding on random
    /// states and random qubit placements — the compiled-engine analogue of
    /// `apply_gate_inplace_matches_embed`.
    #[test]
    fn kernels_match_embed_across_classes() {
        let mut rng = StdRng::seed_from_u64(20);
        let n = 5;
        let dim = 1 << n;
        let gates: Vec<Gate> = vec![
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Tdg,
            Gate::Sx,
            Gate::Rz(1.3),
            Gate::Ry(-0.8),
            Gate::Phase(2.2),
            Gate::U3(0.4, 1.0, -0.5),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Ch,
            Gate::Cp(0.6),
            Gate::Crz(-1.1),
            Gate::Cu3(0.3, 0.2, 0.1),
            Gate::Ccx,
            Gate::Ccz,
            Gate::Cswap,
        ];
        let mut scratch = Vec::new();
        for gate in &gates {
            for _ in 0..4 {
                let qubits = distinct_qubits(&mut rng, gate.num_qubits(), n);
                let state = random_state(&mut rng, dim);
                let mut fast = state.clone().into_inner();
                Kernel::for_gate(gate, &qubits, n).apply(&mut fast, &mut scratch);
                let slow = embed(&gate.matrix(), &qubits, n).mul_vec(&state);
                assert!(
                    CVector::new(fast).approx_eq(&slow, 1e-9),
                    "{gate} on {qubits:?} diverged from embedding"
                );
            }
        }
    }

    #[test]
    fn kraus_like_non_unitary_matrices_lower() {
        // Phase-damping K0 = diag(1, √(1-p)) is non-unitary but diagonal.
        let k0 = CMatrix::diagonal(&[C64::one(), C64::from(0.8f64.sqrt())]);
        let kernel = Kernel::from_matrix(&k0, &[1], 2);
        assert_eq!(kernel.class(), KernelClass::Diagonal);
        // Amplitude-damping K1 = |0⟩⟨1|·√γ is non-unitary and dense.
        let k1 = CMatrix::new(
            2,
            2,
            vec![
                C64::zero(),
                C64::from(0.3f64.sqrt()),
                C64::zero(),
                C64::zero(),
            ],
        );
        let kernel = Kernel::from_matrix(&k1, &[0], 2);
        assert_eq!(kernel.class(), KernelClass::Single);
        let mut state = CVector::basis_state(4, 0b10).into_inner();
        kernel.apply(&mut state, &mut Vec::new());
        assert!((state[0b00].re - 0.3f64.sqrt()).abs() < 1e-12);
        assert!(exact_zero(state[0b10]));
    }

    #[test]
    fn generic_matches_apply_gate_inplace_bitwise() {
        // The dense fallback must reproduce the legacy work-horse exactly
        // (not just approximately): same gather order, same accumulation.
        let mut rng = StdRng::seed_from_u64(33);
        let n = 4;
        let dim = 1 << n;
        let mut scratch = Vec::new();
        for _ in 0..8 {
            let qubits = distinct_qubits(&mut rng, 2, n);
            let g = Gate::Cu3(
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..3.0),
            );
            let state = random_state(&mut rng, dim);
            let mut fast = state.clone().into_inner();
            Kernel::from_matrix(&g.matrix(), &qubits, n).apply(&mut fast, &mut scratch);
            let mut slow = state.clone();
            crate::circuit::apply_gate_inplace(&mut slow, &g.matrix(), &qubits, n);
            assert_eq!(fast, slow.into_inner(), "generic kernel drifted");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_state_dimension() {
        let k = Kernel::for_gate(&Gate::H, &[0], 2);
        let mut state = vec![C64::zero(); 2];
        k.apply(&mut state, &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn rejects_duplicate_qubits() {
        let _ = Kernel::for_gate(&Gate::Cx, &[1, 1], 2);
    }

    #[test]
    fn class_names() {
        assert_eq!(KernelClass::Single.name(), "single");
        assert_eq!(KernelClass::Diagonal.name(), "diagonal");
        assert_eq!(KernelClass::Permutation.name(), "permutation");
        assert_eq!(KernelClass::Generic.name(), "generic");
    }

    /// The threaded sweep must be bit-for-bit equal to the sequential
    /// sweep for every kernel class, at several thread counts, above the
    /// engagement threshold.
    #[test]
    fn apply_threaded_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(57);
        let n = PARALLEL_THRESHOLD_QUBITS + 1;
        let dim = 1 << n;
        let h = Kernel::for_gate(&Gate::H, &[2], n);
        let t = Kernel::for_gate(&Gate::T, &[7], n);
        let cp = Kernel::for_gate(&Gate::Cp(0.4), &[3, 9], n);
        let ccx = Kernel::for_gate(&Gate::Ccx, &[1, 5, 8], n);
        let cu = Kernel::for_gate(&Gate::Cu3(0.2, 0.5, -0.9), &[4, 10], n);
        for kernel in [&h, &t, &cp, &ccx, &cu] {
            let state = random_state(&mut rng, dim);
            let mut seq = state.clone().into_inner();
            let mut scratch = Vec::new();
            kernel.apply(&mut seq, &mut scratch);
            for threads in [2usize, 3, 4, 16] {
                let mut par = state.clone().into_inner();
                kernel.apply_threaded(&mut par, &mut Vec::new(), threads);
                assert_eq!(
                    seq,
                    par,
                    "threaded sweep drifted at {threads} threads ({:?})",
                    kernel.class()
                );
            }
        }
    }

    /// Below the threshold the threaded entry point must take the exact
    /// sequential path regardless of the configured thread count.
    #[test]
    fn apply_threaded_below_threshold_is_sequential() {
        let n = PARALLEL_THRESHOLD_QUBITS - 1;
        let k = Kernel::for_gate(&Gate::H, &[0], n);
        let mut rng = StdRng::seed_from_u64(58);
        let state = random_state(&mut rng, 1 << n);
        let mut seq = state.clone().into_inner();
        k.apply(&mut seq, &mut Vec::new());
        let mut par = state.into_inner();
        k.apply_threaded(&mut par, &mut Vec::new(), 8);
        assert_eq!(seq, par);
    }

    /// Every class, through `apply` and through `apply_threaded` at 2, 3,
    /// 4 and 16 threads (three threads split ranges inside a run), equals
    /// the dense reference `apply_gate_inplace` bit for bit up to the sign
    /// of zero, with qubit 0, n − 1 or n − 2 first (split masks dim/2, 1
    /// and 2: long runs, single pairs, short runs).
    #[test]
    fn apply_threaded_and_apply_match_the_dense_reference_bitwise() {
        let canon = |v: &[C64]| -> Vec<[u64; 2]> {
            // Adding +0 maps −0 to +0 and leaves every other value as is.
            v.iter()
                .map(|z| [(z.re + 0.0).to_bits(), (z.im + 0.0).to_bits()])
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(59);
        let n = PARALLEL_THRESHOLD_QUBITS + 1;
        // diag(e^{0.3i}, 1): the one-qubit diagonal that scales only the
        // low amplitude of each pair.
        let phase = C64::new(0.3f64.cos(), 0.3f64.sin());
        let phase_low = Gate::unitary(CMatrix::diagonal(&[phase, C64::one()]), "p_low").unwrap();
        let cases: Vec<(Gate, KernelClass)> = vec![
            (Gate::H, KernelClass::Single),
            (Gate::Ry(-0.8), KernelClass::Single),
            (Gate::T, KernelClass::Diagonal),
            (Gate::Rz(1.3), KernelClass::Diagonal),
            (phase_low, KernelClass::Diagonal),
            (Gate::Cp(0.4), KernelClass::Diagonal),
            (Gate::Ccz, KernelClass::Diagonal),
            (Gate::X, KernelClass::Permutation),
            (Gate::Cx, KernelClass::Permutation),
            (Gate::Swap, KernelClass::Permutation),
            (Gate::Ccx, KernelClass::Permutation),
            (Gate::Ch, KernelClass::Generic),
            (Gate::Cu3(0.3, 0.2, 0.1), KernelClass::Generic),
        ];
        for (gate, class) in cases {
            let k = gate.num_qubits();
            let first: Vec<usize> = (0..k).collect();
            let last: Vec<usize> = (0..k).map(|j| n - 1 - j).collect();
            let next_to_last: Vec<usize> = (0..k).map(|j| n - 2 - j).collect();
            for qubits in [first, last, next_to_last] {
                let kernel = Kernel::for_gate(&gate, &qubits, n);
                assert_eq!(kernel.class(), class, "{gate} on {qubits:?}");
                let state = random_state(&mut rng, 1 << n);
                let mut reference = state.clone();
                crate::circuit::apply_gate_inplace(&mut reference, &gate.matrix(), &qubits, n);
                let want = canon(reference.as_slice());
                let mut seq = state.clone().into_inner();
                kernel.apply(&mut seq, &mut Vec::new());
                assert!(canon(&seq) == want, "apply: {gate} on {qubits:?}");
                for threads in [2usize, 3, 4, 16] {
                    let mut par = state.clone().into_inner();
                    kernel.apply_threaded(&mut par, &mut Vec::new(), threads);
                    assert!(
                        canon(&par) == want,
                        "{threads} threads: {gate} on {qubits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nth_base_matches_sequential_walk() {
        let dim = 1 << 6;
        for gate_mask in [0b000110usize, 0b100001, 0b010000] {
            let mut base = 0usize;
            let mut ordinal = 0usize;
            loop {
                assert_eq!(nth_base(ordinal, gate_mask), base);
                ordinal += 1;
                base = (base | gate_mask).wrapping_add(1) & !gate_mask;
                if base == 0 || base >= dim {
                    break;
                }
            }
        }
    }

    /// A random (not necessarily pure) Hermitian-ish test matrix; the
    /// conjugation identity holds for arbitrary matrices, so plain random
    /// complex entries suffice.
    fn random_dense(rng: &mut StdRng, d: usize) -> CMatrix {
        CMatrix::from_fn(d, d, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    /// The conjugation pair over vec(ρ) must match the dense
    /// `embed(A)·ρ·embed(A)†` for every kernel class and random placement.
    #[test]
    fn conjugation_pair_matches_dense_sandwich() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 3;
        let d = 1usize << n;
        let gates: Vec<Gate> = vec![
            Gate::H,
            Gate::X,
            Gate::Z,
            Gate::S,
            Gate::Rz(0.9),
            Gate::Ry(-0.4),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Ch,
            Gate::Cu3(0.3, 0.2, 0.1),
        ];
        let mut scratch = PairScratch::default();
        for gate in &gates {
            for _ in 0..3 {
                let qubits = distinct_qubits(&mut rng, gate.num_qubits(), n);
                let rho = random_dense(&mut rng, d);
                let mut fast: Vec<C64> = rho.as_slice().to_vec();
                ConjugationPair::for_gate(gate, &qubits, n).apply(&mut fast, &mut scratch);
                let full = embed(&gate.matrix(), &qubits, n);
                let slow = full.mul(&rho).unwrap().mul(&full.adjoint()).unwrap();
                let fast = CMatrix::new(d, d, fast);
                assert!(
                    fast.max_abs_diff(&slow) < 1e-12,
                    "{gate} on {qubits:?}: conjugation pair diverged from dense sandwich"
                );
            }
        }
    }

    /// Threaded conjugation must be bit-identical to the sequential pair
    /// at any thread count (the register is 2n qubits, so n = 6 clears
    /// the 10-qubit engagement threshold).
    #[test]
    fn conjugation_pair_threaded_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(45);
        let n = 6;
        let d = 1usize << n;
        for gate in [Gate::H, Gate::Cx, Gate::Crz(0.8), Gate::Ch] {
            let qubits = distinct_qubits(&mut rng, gate.num_qubits(), n);
            let pair = ConjugationPair::for_gate(&gate, &qubits, n);
            let rho = random_dense(&mut rng, d);
            let mut seq: Vec<C64> = rho.as_slice().to_vec();
            pair.apply(&mut seq, &mut PairScratch::default());
            for threads in [2usize, 4] {
                let mut par: Vec<C64> = rho.as_slice().to_vec();
                pair.apply_threaded(&mut par, &mut PairScratch::default(), threads);
                assert_eq!(seq, par, "{gate}: threaded conjugation drifted");
            }
        }
    }

    /// Structured gates must keep their cheap classification through the
    /// conjugation lowering — the whole point of the pairing.
    #[test]
    fn conjugation_preserves_kernel_class() {
        assert_eq!(
            ConjugationPair::for_gate(&Gate::X, &[0], 2).class(),
            KernelClass::Permutation
        );
        assert_eq!(
            ConjugationPair::for_gate(&Gate::Cx, &[0, 1], 2).class(),
            KernelClass::Permutation
        );
        assert_eq!(
            ConjugationPair::for_gate(&Gate::Rz(0.3), &[1], 2).class(),
            KernelClass::Diagonal
        );
        assert_eq!(
            ConjugationPair::for_gate(&Gate::H, &[0], 2).class(),
            KernelClass::Single
        );
    }
}
