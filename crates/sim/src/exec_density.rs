//! Circuit + noise → density kernel-op lowering: the compiled front end of
//! the density-matrix engine.
//!
//! The interpreter in [`crate::density`] re-embedded every gate — and every
//! Kraus operator of every noise channel, *inside the per-branch loop* — to
//! a full `2ⁿ × 2ⁿ` matrix and paid two `O(8ⁿ)` dense multiplies per
//! application. [`CompiledDensityProgram::compile`] does the analysis once:
//!
//! * every gate lowers to a [`ConjugationPair`] — a left/right kernel pair
//!   over the row-major vectorization `vec(ρ)` (a `2n`-qubit state vector),
//!   so `X`/`CX` conjugations are pure index permutations and
//!   `Z`/`S`/`T`/`Rz` conjugations are `O(4ⁿ)` phase sweeps;
//! * every Kraus operator lowers once per noise model to a
//!   `MonomialTerm`: the operators the
//!   [`KrausChannel`](crate::noise::KrausChannel) constructors build
//!   (scaled Paulis, amplitude and phase damping) have at most one
//!   nonzero entry per row, so each term is, per sub-row `r`, a source
//!   sub-index `π(r)` and a weight `w_r`. A channel `ρ ← Σᵢ KᵢρKᵢ†` then
//!   costs one read-only gather pass per term,
//!   `acc[r·d+c] += (w_r·ρ[π(r)·d+π(c)])·conj(w_c)`, skipping zero-weight
//!   rows and columns, with no copy of `vec(ρ)` and no kernel sweeps;
//! * measure/reset lower to precomputed row/column bit masks over `vec(ρ)`;
//! * the leading measurement-free run (gates *and* their noise channels —
//!   density evolution is deterministic, so the whole run is cacheable) is
//!   evolved eagerly at compile time and stored, the density analogue of
//!   [`crate::exec::CompiledProgram`]'s unitary prefix cache. It evolves
//!   over the *live register*, the qubits some gate has touched so far: a
//!   qubit enters as a zero row/column bit pair when a gate first touches
//!   it, and the never-touched qubits enter last, so the stored prefix is
//!   the full `vec(ρ)`. An untouched qubit is still a `|0⟩⟨0|` factor, so
//!   every entry with its row or column bit set is zero, and skipping them
//!   is exact (see below).
//!
//! Lowering consumes no randomness and kernel arithmetic matches the dense
//! walker up to the sign of zero, so compiled runs are bit-for-bit
//! seed-compatible with the legacy interpreter — the contract
//! `tests/density_identity.rs` enforces (see DESIGN.md).
//!
//! # Why the monomial pass is exact
//!
//! The dense walker (and the kernels) compute each term entry as complex
//! products `conj(K[c][·])·(K[r][·]·ρ[·][·])` summed over a row of `K`.
//! For a monomial operator:
//!
//! * the zero entries of a row contribute products that are exact `±0`,
//!   which change a sum only in the sign of zero, so one product per row
//!   and column side remains, and a zero-weight row or column contributes
//!   nothing but signed zeros — skipping it is exact;
//! * a real weight `x` turns `(x, ±0)·(a, b)` into `(x·a, x·b)` up to the
//!   sign of zero; an imaginary weight `i·y` gives `(−y·b, y·a)`, and in
//!   the conjugation the two phases cancel exactly (negation and swapping
//!   are exact), so a term whose weights are all imaginary is stored with
//!   their imaginary parts and applied as `(y_c·(y_r·a), y_c·(y_r·b))` —
//!   the same two rounded multiplies per component, in the same order, as
//!   the complex products;
//! * each element's accumulation order `0 + t₀ + t₁ + …` (terms in
//!   operator order) is unchanged, whatever the thread split.
//!
//! Closed-form channels (say `(1−p)ρ + p·Tr_q(ρ)⊗I/2`) and Hermitian
//! mirroring (computing the upper triangle and conjugating) are
//! deliberately not used: both change the arithmetic, and with it every
//! fixed-seed noisy report.
//!
//! # Why the live register is exact
//!
//! Channels follow gates only (`GateNoise::after_gate` places them on the
//! gate's own qubits), and a measure or reset ends the prefix, so before
//! a gate first touches a qubit nothing has acted on it. Every full-width
//! entry with that qubit's row or column bit set is then a zero, and so
//! is its image under every later gate and channel that leaves the qubit
//! alone. A live entry is the full-width entry with the untouched qubits'
//! bits clear, and each kernel or monomial pass lowered on the live
//! register combines the same operands in the same order as at full
//! width. The prefix therefore matches the full-width evolution up to the
//! sign of zero.

use crate::noise::{GateNoise, NoiseModel};
use crate::SimError;
use qra_circuit::kernel::{ConjugationPair, KernelClass, PairScratch, PARALLEL_THRESHOLD_QUBITS};
use qra_circuit::{Circuit, Gate, Operation};
use qra_math::{CMatrix, C64};
use std::sync::Arc;

/// Maximum width of the compiled density engine. `vec(ρ)` holds `4ⁿ`
/// amplitudes (256 MiB at `n = 12`); the former dense-superoperator walker
/// capped at 10, sized for its `O(8ⁿ)` multiplies.
///
/// Deliberately separate from (and lower than) the state-vector ceiling
/// [`crate::exec::MAX_QUBITS`]: a density matrix squares the register, so
/// `n` density qubits cost as much memory as `2n` state-vector qubits.
pub const MAX_QUBITS: usize = 12;

/// Maximum number of classical bits (outcome keys are `u64`).
pub const MAX_CLBITS: usize = 64;

/// The `vec(ρ)` index bits (row **and** column side) addressed by an op on
/// `qubits`: qubit `q` owns row bit `2n−1−q` and column bit `n−1−q`, the
/// same convention as the lowered `Measure`/`Reset` masks.
fn touched_bits(qubits: &[usize], n: usize) -> usize {
    qubits.iter().fold(0usize, |m, &q| {
        m | (1 << (2 * n - 1 - q)) | (1 << (n - 1 - q))
    })
}

/// One lowered instruction of a [`CompiledDensityProgram`].
#[derive(Debug, Clone)]
pub(crate) enum DensityOp {
    /// Apply one conjugation `ρ ← AρA†` in place. `touched` holds the
    /// row/column vectorization index bits the op addresses, so the branch
    /// walker can invalidate support-pattern bits it may repopulate.
    Conjugate {
        pair: ConjugationPair,
        touched: usize,
    },
    /// Apply a Kraus channel `ρ ← Σᵢ KᵢρKᵢ†` (terms in operator order).
    Channel { site: ChannelSite, touched: usize },
    /// Branch on the qubit whose row/column vectorization bits are
    /// `row_mask`/`col_mask`; record into `clbit_bit` of the outcome key
    /// (readout confusion applied from the program's baked-in rates).
    Measure {
        row_mask: usize,
        col_mask: usize,
        clbit_bit: u64,
    },
    /// Project the qubit and fold the `|1⟩` branch back through `flip`
    /// (a lowered X conjugation).
    Reset {
        row_mask: usize,
        col_mask: usize,
        flip: ConjugationPair,
    },
}

/// A [`Circuit`] + [`NoiseModel`] lowered for repeated exact density
/// evolution.
///
/// Compilation is RNG-free; the same program can be executed any number of
/// times (e.g. once per campaign cell) and by construction produces
/// outcomes bit-for-bit identical to interpreting the original circuit
/// with the same seed.
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::{CompiledDensityProgram, DensityMatrixSimulator, DevicePreset};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// bell.measure_all();
/// let noise = DevicePreset::melbourne_like();
/// let program = CompiledDensityProgram::compile(&bell, &noise, 1)?;
/// let sim = DensityMatrixSimulator::with_noise(noise);
/// let counts = sim.run_compiled(&program, 1024, 7)?;
/// assert_eq!(counts.total(), 1024);
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledDensityProgram {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<DensityOp>,
    /// `vec(ρ)` after the leading measurement-free run, evolved eagerly at
    /// compile time.
    prefix: Vec<C64>,
    prefix_len: usize,
    readout_p01: f64,
    readout_p10: f64,
}

impl CompiledDensityProgram {
    /// Lowers `circuit` with `noise` into density kernel ops and evolves
    /// the measurement-free prefix, on `threads` workers once
    /// [`DENSITY_PARALLEL_QUBITS`] qubits are live. The prefix is
    /// bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond [`MAX_QUBITS`];
    /// * [`SimError::TooManyClbits`] beyond [`MAX_CLBITS`];
    /// * [`SimError::InvalidNoiseParameter`] for a bad noise model.
    pub fn compile(
        circuit: &Circuit,
        noise: &NoiseModel,
        threads: usize,
    ) -> Result<CompiledDensityProgram, SimError> {
        noise.validate()?;
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

        // Lower each noise channel's Kraus set once; shared by every site.
        let gate_noise = GateNoise::lower(noise, |channel| -> Arc<[MonomialTerm]> {
            channel
                .operators()
                .iter()
                .map(|k| MonomialTerm::lower(k).expect("noise-model Kraus operators are monomial"))
                .collect()
        })?;

        let mut ops = Vec::new();
        for inst in circuit.instructions() {
            match &inst.operation {
                Operation::Barrier => {}
                Operation::Gate(g) => {
                    ops.push(DensityOp::Conjugate {
                        pair: ConjugationPair::for_gate(g, &inst.qubits, n),
                        touched: touched_bits(&inst.qubits, n),
                    });
                    gate_noise.after_gate(&inst.qubits, |terms, qubits| {
                        ops.push(DensityOp::Channel {
                            site: ChannelSite::new(Arc::clone(terms), qubits, n),
                            touched: touched_bits(qubits, n),
                        })
                    });
                }
                Operation::Measure => {
                    let q = inst.qubits[0];
                    ops.push(DensityOp::Measure {
                        row_mask: 1usize << (2 * n - 1 - q),
                        col_mask: 1usize << (n - 1 - q),
                        clbit_bit: 1u64 << inst.clbits[0],
                    });
                }
                Operation::Reset => {
                    let q = inst.qubits[0];
                    ops.push(DensityOp::Reset {
                        row_mask: 1usize << (2 * n - 1 - q),
                        col_mask: 1usize << (n - 1 - q),
                        flip: ConjugationPair::for_gate(&Gate::X, &[q], n),
                    });
                }
            }
        }
        let prefix_len = ops
            .iter()
            .position(|op| matches!(op, DensityOp::Measure { .. } | DensityOp::Reset { .. }))
            .unwrap_or(ops.len());

        Ok(CompiledDensityProgram {
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            ops,
            prefix: evolve_prefix(circuit, &gate_noise, threads),
            prefix_len,
            readout_p01: noise.readout_p01,
            readout_p10: noise.readout_p10,
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

    /// Density-matrix dimension (`2ⁿ`; `vec(ρ)` holds `dim²` entries).
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Bytes the program keeps in its own buffers: itself, its op list and
    /// the `16·4ⁿ`-byte prefix `vec(ρ)`, nearly all of it past a few qubits
    /// (the kernels' and Kraus terms' small tables are left out).
    pub(crate) fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ops.capacity() * std::mem::size_of::<DensityOp>()
            + self.prefix.capacity() * std::mem::size_of::<C64>()
    }

    /// Number of lowered ops (gates + channels + measures + resets).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Length of the leading measurement-free run cached at compile time.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Histogram of the gate conjugations' kernel classes (reset flips
    /// included), for perf introspection. Kraus operators are monomial
    /// terms, not kernels; [`CompiledDensityProgram::kraus_terms`] counts
    /// them.
    pub fn class_histogram(&self) -> Vec<(KernelClass, usize)> {
        KernelClass::histogram(self.ops.iter().filter_map(|op| match op {
            DensityOp::Conjugate { pair, .. } => Some(pair.class()),
            DensityOp::Channel { .. } | DensityOp::Measure { .. } => None,
            DensityOp::Reset { flip, .. } => Some(flip.class()),
        }))
    }

    /// Number of lowered Kraus terms across every channel site (one per
    /// operator per site), each one gather pass over `vec(ρ)`.
    pub fn kraus_terms(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DensityOp::Channel { site, .. } => site.terms.len(),
                _ => 0,
            })
            .sum()
    }

    pub(crate) fn ops(&self) -> &[DensityOp] {
        &self.ops
    }

    pub(crate) fn prefix(&self) -> &[C64] {
        &self.prefix
    }

    pub(crate) fn readout_p01(&self) -> f64 {
        self.readout_p01
    }

    pub(crate) fn readout_p10(&self) -> f64 {
        self.readout_p10
    }
}

/// Register width (in qubits) from which the density engine hands work to
/// the caller's threads: the prefix evolution's kernel sweeps and channel
/// passes once this many qubits are live, and the branch walk's
/// measurements on a register this wide. Below it the split costs more
/// than it saves. On a 2-vCPU x86-64 host, compiling and running a
/// measured GHZ-n under melbourne noise with the split from 8 qubits took
/// 2–9% longer on two threads than on one at n = 8 and 9; from 10, two
/// threads took compile 58 → 50 ms and run 144 → 118 ms at n = 10, and
/// 306 → 222 ms and 716 → 457 ms at n = 11.
pub(crate) const DENSITY_PARALLEL_QUBITS: usize = 10;

/// Evolves `vec(|0…0⟩⟨0…0|)` through `circuit`'s leading measurement-free
/// run, the ops of [`CompiledDensityProgram::compile`] up to its first
/// measure or reset, over the live register (see the module docs). Density
/// evolution is deterministic, so every later execution starts here.
///
/// The evolving state and the channel accumulator are reserved at the full
/// `4ⁿ` entries up front, so widening never reallocates, and at most two
/// full-size buffers are ever touched.
fn evolve_prefix(
    circuit: &Circuit,
    gate_noise: &GateNoise<Arc<[MonomialTerm]>>,
    threads: usize,
) -> Vec<C64> {
    let n = circuit.num_qubits();
    let mut rho = Vec::with_capacity(1 << (2 * n));
    rho.push(C64::one());
    let mut acc = Vec::with_capacity(1 << (2 * n));
    let mut scratch = PairScratch::default();
    // Bit `q` is set once a gate has touched qubit `q`; the live register
    // holds those qubits in index order, so the stored prefix's layout is
    // the full register's.
    let mut live = 0usize;
    for inst in circuit.instructions() {
        let gate = match &inst.operation {
            Operation::Gate(g) => g,
            Operation::Barrier => continue,
            Operation::Measure | Operation::Reset => break,
        };
        let touched = inst.qubits.iter().fold(live, |m, &q| m | 1 << q);
        widen(&mut rho, live, touched);
        live = touched;
        let m = live.count_ones() as usize;
        let at =
            |qubits: &[usize]| -> Vec<usize> { qubits.iter().map(|&q| rank(live, q)).collect() };
        let threads = if m >= DENSITY_PARALLEL_QUBITS {
            threads
        } else {
            1
        };
        ConjugationPair::for_gate(gate, &at(&inst.qubits), m).apply_threaded(
            &mut rho,
            &mut scratch,
            threads,
        );
        gate_noise.after_gate(&inst.qubits, |terms, qubits| {
            let site = ChannelSite::new(Arc::clone(terms), &at(qubits), m);
            apply_channel(&mut rho, &site, &mut acc, threads);
        });
    }
    widen(&mut rho, live, (1 << n) - 1);
    rho
}

/// The position of qubit `q` among the qubits of `mask` (bit `q` stands
/// for qubit `q`), in index order.
fn rank(mask: usize, q: usize) -> usize {
    (mask & ((1 << q) - 1)).count_ones() as usize
}

/// Inserts the qubits of `to` missing from `from` (bit `q` stands for
/// qubit `q`) into `rho`, a `vec(ρ)` over the live register `from`, as
/// `|0⟩⟨0|` factors: each entry moves to the index with the new qubits'
/// row and column bits clear, and every other entry is zero.
fn widen(rho: &mut Vec<C64>, from: usize, to: usize) {
    if from == to {
        return;
    }
    let (m, m2) = (from.count_ones() as usize, to.count_ones() as usize);
    // The live qubit at position `j` (ascending index) owns column bit
    // `m − 1 − j`; `spread[x]` deposits an `m`-bit row or column index into
    // the wider register's bits.
    let moves: Vec<(usize, usize)> = (0..usize::BITS as usize)
        .filter(|&q| from >> q & 1 == 1)
        .map(|q| (m - 1 - rank(from, q), m2 - 1 - rank(to, q)))
        .collect();
    let spread: Vec<usize> = (0..1usize << m)
        .map(|x| {
            moves
                .iter()
                .filter(|&&(bit, _)| x >> bit & 1 == 1)
                .fold(0, |y, &(_, wide)| y | 1 << wide)
        })
        .collect();
    let (d, d2) = (1usize << m, 1usize << m2);
    rho.resize(d2 * d2, C64::zero());
    // Every entry moves to an index at least as high, so a descending walk
    // never overwrites an entry it has yet to move.
    for r in (0..d).rev() {
        for c in (0..d).rev() {
            let v = std::mem::replace(&mut rho[r * d + c], C64::zero());
            rho[spread[r] * d2 + spread[c]] = v;
        }
    }
}

/// One Kraus operator lowered to a monomial conjugation: for each sub-row
/// `r` (big-endian over the channel's qubits), the sub-index its only
/// nonzero entry sits in and that entry's weight, `0.0` for an all-zero
/// row. Weights are the entries' real parts, or their imaginary parts
/// when every nonzero entry is imaginary (the common phase cancels in
/// `KρK†`; see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MonomialTerm {
    rows: Vec<(usize, f64)>,
}

impl MonomialTerm {
    /// Lowers `k`, or `None` when a row holds two nonzero entries, an
    /// entry is neither real nor imaginary, or real and imaginary entries
    /// mix (no [`KrausChannel`](crate::noise::KrausChannel) constructor
    /// builds such an operator).
    pub(crate) fn lower(k: &CMatrix) -> Option<MonomialTerm> {
        let mut imaginary = None;
        let mut rows = Vec::with_capacity(k.rows());
        for r in 0..k.rows() {
            let mut row = None;
            for c in 0..k.cols() {
                let z = k.get(r, c);
                if z.re == 0.0 && z.im == 0.0 {
                    continue;
                }
                let imag = match (z.re == 0.0, z.im == 0.0) {
                    (_, true) => false,
                    (true, false) => true,
                    (false, false) => return None,
                };
                if row.is_some() || *imaginary.get_or_insert(imag) != imag {
                    return None;
                }
                row = Some((c, if imag { z.im } else { z.re }));
            }
            rows.push(row.unwrap_or((0, 0.0)));
        }
        Some(MonomialTerm { rows })
    }
}

/// A channel's terms placed on one qubit tuple of an `n`-qubit register.
#[derive(Debug, Clone)]
pub(crate) struct ChannelSite {
    terms: Arc<[MonomialTerm]>,
    /// Column-index bit of each tuple qubit, most significant sub-index
    /// bit first (`n − 1 − q`); the row-index bit is `n` higher.
    shifts: Vec<usize>,
    /// Column-index bits each sub-index sets.
    offsets: Vec<usize>,
    /// All the tuple's column-index bits.
    mask: usize,
}

impl ChannelSite {
    fn new(terms: Arc<[MonomialTerm]>, qubits: &[usize], n: usize) -> ChannelSite {
        let shifts: Vec<usize> = qubits.iter().map(|&q| n - 1 - q).collect();
        let offsets = (0..1usize << qubits.len())
            .map(|s| {
                shifts
                    .iter()
                    .rev()
                    .enumerate()
                    .filter(|&(j, _)| (s >> j) & 1 == 1)
                    .fold(0, |off, (_, &sh)| off | 1 << sh)
            })
            .collect();
        let mask = shifts.iter().fold(0, |m, &sh| m | 1 << sh);
        ChannelSite {
            terms,
            shifts,
            offsets,
            mask,
        }
    }

    /// The sub-index of an `n`-bit row or column index.
    fn sub(&self, x: usize) -> usize {
        self.shifts
            .iter()
            .fold(0, |s, &sh| (s << 1) | ((x >> sh) & 1))
    }

    /// Writes the sum of every term's contribution, `0 + t₀ + t₁ + …` in
    /// operator order, to the output rows starting at row `row0` (`out`
    /// holds whole rows of `d` entries). Rows go in blocks small enough to
    /// stay cache-resident while every term passes over them. Each term's
    /// nonzero-weight columns are listed once, as (output column, source
    /// column, weight), so a row is one gather-scale-add over that list.
    fn accumulate_rows(&self, rho: &[C64], n: usize, row0: usize, out: &mut [C64]) {
        let d = 1usize << n;
        let columns: Vec<Vec<(u32, u32, f64)>> = self
            .terms
            .iter()
            .map(|term| {
                (0..d)
                    .filter_map(|c| {
                        let (src, w) = term.rows[self.sub(c)];
                        let from = (c & !self.mask) | self.offsets[src];
                        (w != 0.0).then_some((c as u32, from as u32, w))
                    })
                    .collect()
            })
            .collect();
        let block_rows = (BLOCK_ENTRIES / d).max(1);
        for (b, out_block) in out.chunks_mut(block_rows * d).enumerate() {
            // Zeroed here, while the block is about to be hot anyway.
            out_block.fill(C64::zero());
            for (term, columns) in self.terms.iter().zip(&columns) {
                for (i, out_row) in out_block.chunks_exact_mut(d).enumerate() {
                    let r = row0 + b * block_rows + i;
                    let (src_r, wr) = term.rows[self.sub(r)];
                    if wr == 0.0 {
                        continue;
                    }
                    let src_row = ((r & !self.mask) | self.offsets[src_r]) << n;
                    let src_row = &rho[src_row..src_row + d];
                    for &(c, from, wc) in columns {
                        let (o, a) = (&mut out_row[c as usize], src_row[from as usize]);
                        o.re += wc * (wr * a.re);
                        o.im += wc * (wr * a.im);
                    }
                }
            }
        }
    }
}

/// Output entries per row block of the monomial pass (16 KiB of `vec(ρ)`).
const BLOCK_ENTRIES: usize = 1 << 10;

/// Applies a lowered Kraus channel to `vec_rho` in place:
/// `ρ ← Σᵢ KᵢρKᵢ†`, each term one gather pass from `vec_rho` into `acc`
/// (zeroed block by block, then swapped in), terms in operator order —
/// matching the interpreter's `acc = 0 + K₀ρK₀† + K₁ρK₁† + …` fold
/// bit-for-bit up to the sign of zero. At `2^`[`PARALLEL_THRESHOLD_QUBITS`]
/// entries and above, `threads` workers (the calling thread and
/// `threads − 1` spawned ones) each own a contiguous block of output rows;
/// every entry's arithmetic is the same at any thread count.
pub(crate) fn apply_channel(
    vec_rho: &mut Vec<C64>,
    site: &ChannelSite,
    acc: &mut Vec<C64>,
    threads: usize,
) {
    let dd = vec_rho.len();
    let n = dd.trailing_zeros() as usize / 2;
    let d = 1usize << n;
    acc.resize(dd, C64::zero());
    let rho = vec_rho.as_slice();
    if threads <= 1 || dd < (1 << PARALLEL_THRESHOLD_QUBITS) {
        site.accumulate_rows(rho, n, 0, acc);
    } else {
        let rows = d.div_ceil(threads.min(d));
        let mut blocks = acc.chunks_mut(rows * d);
        let first = blocks.next().expect("vec(ρ) is never empty");
        std::thread::scope(|s| {
            for (t, block) in blocks.enumerate() {
                s.spawn(move || site.accumulate_rows(rho, n, (t + 1) * rows, block));
            }
            site.accumulate_rows(rho, n, 0, first);
        });
    }
    std::mem::swap(vec_rho, acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{DevicePreset, KrausChannel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ideal_circuit_lowers_to_conjugations_only() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let p = CompiledDensityProgram::compile(&c, &NoiseModel::ideal(), 1).unwrap();
        assert_eq!(p.op_count(), 4); // 2 gates + 2 measures, no channels
        assert_eq!(p.prefix_len(), 2);
        assert_eq!(p.dim(), 4);
        // Prefix holds the Bell state's vec(ρ): corners at 0.5.
        let v = p.prefix();
        assert!((v[0].re - 0.5).abs() < 1e-12);
        assert!((v[15].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noisy_gates_emit_channel_ops_in_site_order() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noise = DevicePreset::melbourne_like();
        let p = CompiledDensityProgram::compile(&c, &noise, 1).unwrap();
        // h: gate + depol1 + damp1 + deph; cx: gate + depol2 + 2×(damp2, deph).
        assert_eq!(p.op_count(), 4 + 6);
        let kinds: Vec<bool> = p
            .ops()
            .iter()
            .map(|op| matches!(op, DensityOp::Channel { .. }))
            .collect();
        assert_eq!(
            kinds,
            vec![false, true, true, true, false, true, true, true, true, true]
        );
        // Everything is measurement-free: the whole program is prefix.
        assert_eq!(p.prefix_len(), p.op_count());
        // Trace preserved through the eager prefix evolution.
        let d = p.dim();
        let tr: f64 = (0..d).map(|i| p.prefix()[i * (d + 1)].re).sum();
        assert!((tr - 1.0).abs() < 1e-12);
    }

    /// Counts of one fixed noisy asserted-shape circuit, by hand: a Bell
    /// pair copied onto two ancillas, which are measured and one reset.
    /// Every count keeps its full-width meaning.
    #[test]
    fn asserted_shape_counts_are_pinned() {
        let mut c = Circuit::with_clbits(4, 2);
        c.h(0).cx(0, 1).cx(0, 2).cx(1, 3);
        c.measure(2, 0).unwrap();
        c.measure(3, 1).unwrap();
        c.reset(2).unwrap();
        let p = CompiledDensityProgram::compile(&c, &DevicePreset::melbourne_like(), 1).unwrap();
        // h: the gate and 3 channels (4 + 2 + 2 terms); each cx: the gate
        // and 5 channels (16 + 2 × (2 + 2) terms); 2 measures, 1 reset.
        assert_eq!(p.op_count(), 4 + 3 * 6 + 3);
        assert_eq!(p.prefix_len(), 4 + 3 * 6);
        assert_eq!(p.kraus_terms(), 8 + 3 * 24);
        assert_eq!(
            p.class_histogram(),
            vec![(KernelClass::Single, 1), (KernelClass::Permutation, 3 + 1)]
        );
        assert_eq!(p.prefix().len(), 1 << 8);
    }

    #[test]
    fn width_and_clbit_limits_enforced() {
        assert!(matches!(
            CompiledDensityProgram::compile(&Circuit::new(13), &NoiseModel::ideal(), 1),
            Err(SimError::TooManyQubits {
                num_qubits: 13,
                max: 12
            })
        ));
        let mut bad = NoiseModel::ideal();
        bad.depol_1q = 2.0;
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(CompiledDensityProgram::compile(&c, &bad, 1).is_err());
    }

    #[test]
    fn class_histogram_counts_gates_and_kraus_operators() {
        let mut c = Circuit::new(2);
        c.x(0).rz(0.3, 1);
        let mut noise = NoiseModel::ideal();
        noise.dephasing = 0.01; // 2 Kraus operators per 1q gate
        let p = CompiledDensityProgram::compile(&c, &noise, 1).unwrap();
        let hist = p.class_histogram();
        // Gate conjugations only: Kraus operators are not kernels.
        assert_eq!(
            hist,
            vec![(KernelClass::Diagonal, 1), (KernelClass::Permutation, 1)]
        ); // Rz, X
        assert_eq!(p.kraus_terms(), 2 * 2);
    }

    /// Every operator the four constructors build lowers, and the lowered
    /// term reproduces the matrix: each row's only nonzero entry sits at
    /// the recorded source, and its real part (or, for an all-imaginary
    /// operator, its imaginary part) is the weight.
    #[test]
    fn every_constructor_lowers_to_monomial_terms() {
        type Ctor = fn(f64) -> Result<KrausChannel, SimError>;
        let ctors: [(&str, Ctor); 4] = [
            ("depolarizing_1q", KrausChannel::depolarizing_1q),
            ("depolarizing_2q", KrausChannel::depolarizing_2q),
            ("amplitude_damping", KrausChannel::amplitude_damping),
            ("phase_damping", KrausChannel::phase_damping),
        ];
        for (name, ctor) in ctors {
            for p in [1e-3, 0.5, 1.0] {
                for k in ctor(p).unwrap().operators() {
                    let term = MonomialTerm::lower(k)
                        .unwrap_or_else(|| panic!("{name}({p}): operator not monomial"));
                    let imaginary = k.as_slice().iter().any(|z| z.im != 0.0);
                    for (r, &(src, w)) in term.rows.iter().enumerate() {
                        for c in 0..k.cols() {
                            let z = k.get(r, c);
                            let expect = if w != 0.0 && c == src { w } else { 0.0 };
                            let (part, other) = if imaginary {
                                (z.im, z.re)
                            } else {
                                (z.re, z.im)
                            };
                            assert_eq!((part, other), (expect, 0.0), "{name}({p}) [{r}][{c}]");
                        }
                    }
                }
            }
        }
        // Two entries in a row, a complex entry, or mixed phases: no term.
        let h = CMatrix::from_real(2, 2, &[1.0, 1.0, 1.0, -1.0]);
        let s = CMatrix::new(2, 2, vec![C64::one(), C64::zero(), C64::zero(), C64::i()]);
        let c = CMatrix::new(
            2,
            2,
            vec![C64::new(1.0, 1.0), C64::zero(), C64::zero(), C64::one()],
        );
        for k in [h, s, c] {
            assert_eq!(MonomialTerm::lower(&k), None);
        }
    }

    /// The application the monomial pass replaces, kept here as the
    /// reference: per operator, copy `vec(ρ)`, run the left and right
    /// kernel sweeps of its conjugation pair, accumulate.
    fn reference_channel(
        rho: &[C64],
        operators: &[CMatrix],
        qubits: &[usize],
        n: usize,
    ) -> Vec<C64> {
        let mut acc = vec![C64::zero(); rho.len()];
        let mut term = vec![C64::zero(); rho.len()];
        let mut scratch = PairScratch::default();
        for k in operators {
            term.copy_from_slice(rho);
            ConjugationPair::lower(k, qubits, n).apply(&mut term, &mut scratch);
            for (a, t) in acc.iter_mut().zip(&term) {
                *a += *t;
            }
        }
        acc
    }

    /// `f64` bits with `−0` mapped to `+0`: equality up to the sign of zero.
    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        let canon = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
        v.iter().map(|z| (canon(z.re), canon(z.im))).collect()
    }

    /// Random `vec(ρ)` inputs for an `n`-qubit register: a Hermitian one,
    /// and an arbitrary complex one with exact zeros of either sign mixed
    /// in, which lets the pass skip rows and columns around them.
    fn inputs(n: usize, rng: &mut StdRng) -> [Vec<C64>; 2] {
        let d = 1usize << n;
        let mut random = || C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let mut hermitian = vec![C64::zero(); d * d];
        for r in 0..d {
            hermitian[r * d + r] = C64::from(random().re);
            for c in r + 1..d {
                let z = random();
                hermitian[r * d + c] = z;
                hermitian[c * d + r] = z.conj();
            }
        }
        let complex = (0..d * d)
            .map(|i| match i % 7 {
                1 => C64::new(-0.0, 0.0),
                4 => C64::new(0.0, -0.0),
                _ => random(),
            })
            .collect();
        [hermitian, complex]
    }

    /// The monomial pass equals the reference up to the sign of zero for
    /// all four constructors at `p ∈ {1e-3, 0.5, 1}` (`γ = λ = 1` leave a
    /// zero row) and every one- and two-qubit placement, reversed pairs
    /// included, at each register width in `sizes` and each thread count.
    /// The reference runs sequentially: its threaded kernels are
    /// bit-identical to it.
    fn check_channels_against_reference(sizes: std::ops::RangeInclusive<usize>, threads: &[usize]) {
        type Ctor = fn(f64) -> Result<KrausChannel, SimError>;
        let ctors: [(Ctor, usize); 4] = [
            (KrausChannel::depolarizing_1q, 1),
            (KrausChannel::depolarizing_2q, 2),
            (KrausChannel::amplitude_damping, 1),
            (KrausChannel::phase_damping, 1),
        ];
        let mut rng = StdRng::seed_from_u64(0x006b_7261_7573);
        for n in sizes {
            let mut placements: Vec<Vec<usize>> = (0..n).map(|q| vec![q]).collect();
            for a in 0..n {
                placements.extend((0..n).filter(|&b| b != a).map(|b| vec![a, b]));
            }
            let rhos = inputs(n, &mut rng);
            for (ctor, width) in ctors {
                for p in [1e-3, 0.5, 1.0] {
                    let channel = ctor(p).unwrap();
                    let terms: Arc<[MonomialTerm]> = channel
                        .operators()
                        .iter()
                        .map(|k| MonomialTerm::lower(k).unwrap())
                        .collect();
                    for qubits in placements.iter().filter(|q| q.len() == width) {
                        let site = ChannelSite::new(Arc::clone(&terms), qubits, n);
                        for rho in &rhos {
                            let expect =
                                bits(&reference_channel(rho, channel.operators(), qubits, n));
                            for &t in threads {
                                let mut got = rho.clone();
                                apply_channel(&mut got, &site, &mut Vec::new(), t);
                                assert_eq!(
                                    bits(&got),
                                    expect,
                                    "n={n} p={p} qubits={qubits:?} threads={t}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The prefix as a full-width evolution computes it: every prefix op,
    /// as lowered in the op list, applied to a full `4ⁿ` `vec(ρ)`.
    fn full_width_prefix(p: &CompiledDensityProgram) -> Vec<C64> {
        let mut rho = vec![C64::zero(); p.dim() * p.dim()];
        rho[0] = C64::one();
        let (mut scratch, mut acc) = (PairScratch::default(), Vec::new());
        for op in &p.ops()[..p.prefix_len()] {
            match op {
                DensityOp::Conjugate { pair, .. } => pair.apply(&mut rho, &mut scratch),
                DensityOp::Channel { site, .. } => apply_channel(&mut rho, site, &mut acc, 1),
                DensityOp::Measure { .. } | DensityOp::Reset { .. } => unreachable!(),
            }
        }
        rho
    }

    /// Pushes a random gate from every kernel class on qubits drawn from
    /// `active` (which needs two qubits for a two-qubit draw).
    fn push_gate(c: &mut Circuit, rng: &mut StdRng, active: &[usize]) {
        let q0 = active[rng.gen_range(0..active.len())];
        let others: Vec<usize> = active.iter().copied().filter(|&q| q != q0).collect();
        let Some(&q1) = others.get(rng.gen_range(0..others.len().max(1))) else {
            c.ry(rng.gen_range(0.0..3.0), q0);
            return;
        };
        match rng.gen_range(0..8u32) {
            0 => c.h(q0),
            1 => c.ry(rng.gen_range(0.0..3.0), q0),
            2 => c.rz(rng.gen_range(0.0..3.0), q0),
            3 => c.cz(q0, q1),
            4 => c.x(q0),
            5 => c.cx(q0, q1),
            6 => c.swap(q0, q1),
            _ => c.cu3(rng.gen_range(0.0..3.0), 0.4, 1.3, q0, q1),
        };
    }

    /// Qubits a gate first touches late, out of index order, or never:
    /// the live-register prefix equals the full-width evolution up to the
    /// sign of zero under both noisy presets and without noise.
    #[test]
    fn live_register_prefix_matches_full_width_evolution() {
        // GHZ-3 with an ancilla block touched last, as a SWAP assertion
        // leaves it, measured and then reused.
        let mut late = Circuit::with_clbits(6, 3);
        late.h(0).cx(0, 1).cx(1, 2);
        for q in 0..3 {
            late.cx(q, q + 3);
        }
        late.h(0);
        for q in 0..3 {
            late.measure(q + 3, q).unwrap();
        }
        late.cx(0, 3);
        // First touches in the order q3, q1, q4, q0, q2, one of them by a
        // dense two-qubit gate on a reversed pair.
        let mut shuffled = Circuit::new(5);
        shuffled
            .x(3)
            .h(1)
            .cx(3, 1)
            .cz(4, 1)
            .cu3(0.3, 0.2, 0.1, 4, 0);
        shuffled.ry(0.7, 2).swap(2, 3).ch(0, 2);
        // Qubits 1 and 3 never touched, and the first gate on the highest.
        let mut idle = Circuit::with_clbits(5, 5);
        idle.h(4).cx(4, 0).rz(0.4, 2).cx(2, 0).ry(1.1, 4);
        idle.measure_all();
        let mut circuits = vec![late, shuffled, idle];
        let mut rng = StdRng::seed_from_u64(0x6c69_7665);
        for _ in 0..6 {
            let n = rng.gen_range(3..=6);
            let active: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
            let mut c = Circuit::new(n);
            if !active.is_empty() {
                for _ in 0..rng.gen_range(1..10) {
                    push_gate(&mut c, &mut rng, &active);
                }
            }
            circuits.push(c);
        }
        for (i, c) in circuits.iter().enumerate() {
            for preset in DevicePreset::ALL {
                let p = CompiledDensityProgram::compile(c, &preset.noise_model(), 1).unwrap();
                assert_eq!(
                    bits(p.prefix()),
                    bits(&full_width_prefix(&p)),
                    "circuit {i} under {preset}"
                );
            }
        }
    }

    /// The threaded prefix is the one-thread prefix bit for bit, signed
    /// zeros included: the last gates run on a live register wide enough
    /// to split.
    #[test]
    fn prefix_is_bit_identical_at_every_thread_count() {
        let n = DENSITY_PARALLEL_QUBITS;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.cx(0, n - 1).ry(0.3, 3).cx(5, 2);
        let raw = |threads| -> Vec<(u64, u64)> {
            let p = CompiledDensityProgram::compile(&c, &DevicePreset::melbourne_like(), threads)
                .unwrap();
            p.prefix()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let one = raw(1);
        for threads in [2, 4] {
            assert!(raw(threads) == one, "threads = {threads}");
        }
    }

    #[test]
    fn kraus_differential_monomial_pass_matches_conjugation_pairs() {
        check_channels_against_reference(1..=4, &[1]);
    }

    /// From `n = 5` (`4⁵` entries) the threaded row split engages.
    #[test]
    fn kraus_differential_thread_matrix() {
        check_channels_against_reference(5..=6, &[1, 2, 4]);
    }
}
