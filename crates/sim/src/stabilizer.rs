//! Gottesman–Knill stabilizer-tableau simulation: the Clifford fast path.
//!
//! Assertion circuits in the source paper — GHZ preparation, SWAP-based
//! assertions on classical and entangled states, parity checks — are
//! (near-)Clifford, yet the state-vector and density back-ends pay the
//! full exponential cost and cap out at [`crate::exec::MAX_QUBITS`] /
//! 12 qubits. [`StabilizerSimulator`] simulates any circuit built from
//! the Clifford generators (`H`, `S`, `S†`, the Paulis, `CX`, `CZ`,
//! `SWAP`) plus measurement and reset in `O(n²)` per gate and `O(n³)`
//! per measurement, with a documented ceiling of
//! [`StabilizerSimulator::MAX_QUBITS`] = 4096 qubits.
//!
//! # Representation
//!
//! The Aaronson–Gottesman CHP tableau: `2n` Pauli rows (destabilizers
//! `0..n`, stabilizers `n..2n`) plus one scratch row, each row an X
//! bit-vector, a Z bit-vector (packed `u64` words, bit `q` of word
//! `q / 64` = qubit `q`) and a sign bit. Gates update columns in `O(n)`;
//! measurement uses the symplectic row-sum with the standard
//! `mod 4` phase accumulator, evaluated word-parallel via popcounts.
//!
//! # Determinism contract
//!
//! For all-Clifford circuits at widths both engines support, counts are
//! bit-identical to [`crate::StatevectorSimulator`] under the same seed,
//! *up to sampling-boundary ties*: both engines draw the same
//! `u64` stream and map each draw to an outcome through the same
//! ordered support enumeration, but the statevector's cumulative table
//! carries `~2⁻⁵²` relative rounding (e.g. `FRAC_1_SQRT_2² =
//! 0.5000000000000001`), so a draw landing within one ulp of a support
//! boundary can differ. The probability is `≈ k·2⁻⁵²` per shot — no
//! fixed-seed test in this workspace has ever crossed it — and
//! `tests/stabilizer_identity.rs` pins the equality over every circuit
//! family the campaign runner emits.
//!
//! That contract fixes the seeding discipline, which is the statevector
//! engine's: a terminal program samples from one generator seeded by the
//! seed, and a per-shot program gives shot `s` its own generator, seeded
//! by [`derive_shot_seed`](crate::threads::derive_shot_seed)`(seed, s)`,
//! with one draw per measure or reset. The shots run in order on one
//! thread through the same shot loop ([`run_shot_ranges`]); the tableau
//! has no thread knob.

use crate::threads::run_shot_ranges;
use crate::{Counts, SimError};
use qra_circuit::kernel::CliffordOp;
use qra_circuit::{Circuit, Operation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One lowered instruction of a stabilizer program.
#[derive(Debug, Clone, Copy)]
enum StabOp {
    /// A recognized Clifford generator.
    Gate(CliffordOp),
    /// Measure `qubit` into classical bit `clbit`.
    Measure { qubit: usize, clbit: usize },
    /// Reset `qubit` to `|0⟩` (measure, then flip on `|1⟩`).
    Reset { qubit: usize },
}

/// A circuit lowered to tableau ops, mirroring the structure analysis of
/// [`crate::CompiledProgram`] (terminal detection, unitary prefix) without
/// ever materializing a `2ⁿ` dimension.
#[derive(Debug)]
struct StabProgram {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<StabOp>,
    prefix_len: usize,
    terminal: bool,
    /// `(qubit, clbit)` pairs in program order, for terminal key building.
    measures: Vec<(usize, usize)>,
}

impl StabProgram {
    /// Lowers `circuit`, rejecting any gate that is not an exact Clifford
    /// generator. The terminal/prefix analysis replicates
    /// [`crate::CompiledProgram::compile`] exactly so both engines pick
    /// the same sampling strategy (and therefore the same RNG draw
    /// schedule) for the same circuit.
    fn lower(circuit: &Circuit) -> Result<StabProgram, SimError> {
        let n = circuit.num_qubits();
        if n > StabilizerSimulator::MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                num_qubits: n,
                max: StabilizerSimulator::MAX_QUBITS,
            });
        }
        if circuit.num_clbits() > crate::exec::MAX_CLBITS {
            return Err(SimError::TooManyClbits {
                num_clbits: circuit.num_clbits(),
                max: crate::exec::MAX_CLBITS,
            });
        }
        let mut ops = Vec::new();
        let mut measures = Vec::new();
        let mut measured = BitVec::zeros(n);
        let mut terminal = true;
        for inst in circuit.instructions() {
            match &inst.operation {
                Operation::Barrier => {}
                Operation::Gate(g) => {
                    if inst.qubits.iter().any(|&q| measured.get(q)) {
                        terminal = false;
                    }
                    let op = CliffordOp::from_gate(g, &inst.qubits).ok_or_else(|| {
                        SimError::NonCliffordGate {
                            gate: g.name().to_string(),
                        }
                    })?;
                    ops.push(StabOp::Gate(op));
                }
                Operation::Measure => {
                    let q = inst.qubits[0];
                    if measured.get(q) {
                        terminal = false; // double measurement needs collapse order
                    }
                    measured.set(q);
                    measures.push((q, inst.clbits[0]));
                    ops.push(StabOp::Measure {
                        qubit: q,
                        clbit: inst.clbits[0],
                    });
                }
                Operation::Reset => {
                    terminal = false;
                    ops.push(StabOp::Reset {
                        qubit: inst.qubits[0],
                    });
                }
            }
        }
        let prefix_len = ops
            .iter()
            .position(|op| !matches!(op, StabOp::Gate(_)))
            .unwrap_or(ops.len());
        Ok(StabProgram {
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            ops,
            prefix_len,
            terminal,
            measures,
        })
    }
}

/// A plain bit-vector over qubit indices (bit `q` of word `q / 64`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    fn zeros(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn get(&self, bit: usize) -> bool {
        self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    fn set(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    fn xor_assign(&mut self, other: &BitVec) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w ^= *o;
        }
    }

    fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Index of the lowest set bit (`None` when all-zero). Qubit 0 is the
    /// most significant position of a basis-state index, so "lowest qubit
    /// index" = "most significant index bit".
    fn lowest_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The CHP tableau: rows `0..n` destabilizers, `n..2n` stabilizers, row
/// `2n` scratch for deterministic-measurement phase accumulation.
#[derive(Debug, Clone)]
struct Tableau {
    n: usize,
    words: usize,
    /// X bit-matrix, row-major: row `i` occupies `x[i*words..(i+1)*words]`.
    x: Vec<u64>,
    /// Z bit-matrix, same layout.
    z: Vec<u64>,
    /// Sign bits (`true` = phase −1), one per row.
    r: Vec<bool>,
}

impl Tableau {
    /// The `|0…0⟩` tableau: destabilizer `i` = `Xᵢ`, stabilizer `i` = `Zᵢ`.
    fn identity(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let rows = 2 * n + 1;
        let mut t = Tableau {
            n,
            words,
            x: vec![0; rows * words],
            z: vec![0; rows * words],
            r: vec![false; rows],
        };
        for i in 0..n {
            t.x[i * words + i / 64] |= 1u64 << (i % 64);
            t.z[(n + i) * words + i / 64] |= 1u64 << (i % 64);
        }
        t
    }

    #[inline]
    fn xbit(&self, row: usize, w: usize, b: u64) -> bool {
        self.x[row * self.words + w] & b != 0
    }

    #[inline]
    fn zbit(&self, row: usize, w: usize, b: u64) -> bool {
        self.z[row * self.words + w] & b != 0
    }

    fn h(&mut self, a: usize) {
        let (w, b) = (a / 64, 1u64 << (a % 64));
        for i in 0..2 * self.n {
            let xi = self.xbit(i, w, b);
            let zi = self.zbit(i, w, b);
            if xi && zi {
                self.r[i] = !self.r[i];
            }
            if xi != zi {
                self.x[i * self.words + w] ^= b;
                self.z[i * self.words + w] ^= b;
            }
        }
    }

    fn s(&mut self, a: usize) {
        let (w, b) = (a / 64, 1u64 << (a % 64));
        for i in 0..2 * self.n {
            let xi = self.xbit(i, w, b);
            if xi {
                if self.zbit(i, w, b) {
                    self.r[i] = !self.r[i];
                }
                self.z[i * self.words + w] ^= b;
            }
        }
    }

    /// `S† = Z·S`: flips the sign when `x ∧ ¬z` (verified on `X → −Y`,
    /// `Y → X`), then toggles `z` where `x` is set, same as `S`.
    fn sdg(&mut self, a: usize) {
        let (w, b) = (a / 64, 1u64 << (a % 64));
        for i in 0..2 * self.n {
            let xi = self.xbit(i, w, b);
            if xi {
                if !self.zbit(i, w, b) {
                    self.r[i] = !self.r[i];
                }
                self.z[i * self.words + w] ^= b;
            }
        }
    }

    fn x_gate(&mut self, a: usize) {
        let (w, b) = (a / 64, 1u64 << (a % 64));
        for i in 0..2 * self.n {
            if self.zbit(i, w, b) {
                self.r[i] = !self.r[i];
            }
        }
    }

    fn z_gate(&mut self, a: usize) {
        let (w, b) = (a / 64, 1u64 << (a % 64));
        for i in 0..2 * self.n {
            if self.xbit(i, w, b) {
                self.r[i] = !self.r[i];
            }
        }
    }

    fn y_gate(&mut self, a: usize) {
        let (w, b) = (a / 64, 1u64 << (a % 64));
        for i in 0..2 * self.n {
            if self.xbit(i, w, b) != self.zbit(i, w, b) {
                self.r[i] = !self.r[i];
            }
        }
    }

    fn cx(&mut self, a: usize, b: usize) {
        let (wa, ba) = (a / 64, 1u64 << (a % 64));
        let (wb, bb) = (b / 64, 1u64 << (b % 64));
        for i in 0..2 * self.n {
            let xa = self.xbit(i, wa, ba);
            let za = self.zbit(i, wa, ba);
            let xb = self.xbit(i, wb, bb);
            let zb = self.zbit(i, wb, bb);
            if xa && zb && (xb == za) {
                self.r[i] = !self.r[i];
            }
            if xa {
                self.x[i * self.words + wb] ^= bb;
            }
            if zb {
                self.z[i * self.words + wa] ^= ba;
            }
        }
    }

    fn apply(&mut self, op: CliffordOp) {
        match op {
            CliffordOp::I(_) => {}
            CliffordOp::H(a) => self.h(a),
            CliffordOp::S(a) => self.s(a),
            CliffordOp::Sdg(a) => self.sdg(a),
            CliffordOp::X(a) => self.x_gate(a),
            CliffordOp::Y(a) => self.y_gate(a),
            CliffordOp::Z(a) => self.z_gate(a),
            CliffordOp::Cx(a, b) => self.cx(a, b),
            // Composition keeps the phase bookkeeping trivially correct:
            // CZ = H(b)·CX(a,b)·H(b), SWAP = CX·CX·CX.
            CliffordOp::Cz(a, b) => {
                self.h(b);
                self.cx(a, b);
                self.h(b);
            }
            CliffordOp::Swap(a, b) => {
                self.cx(a, b);
                self.cx(b, a);
                self.cx(a, b);
            }
        }
    }

    /// Left-multiplies row `h` by row `i` (`Pₕ ← Pᵢ·Pₕ`), tracking the
    /// sign through the standard CHP `mod 4` accumulator, word-parallel.
    fn rowsum(&mut self, h: usize, i: usize) {
        let (hb, ib) = (h * self.words, i * self.words);
        let mut acc: i64 = 2 * (self.r[h] as i64) + 2 * (self.r[i] as i64);
        for w in 0..self.words {
            let (x1, z1) = (self.x[ib + w], self.z[ib + w]);
            let (x2, z2) = (self.x[hb + w], self.z[hb + w]);
            // g(x1,z1,x2,z2) summed over the word: +1 where the product
            // picks up i, −1 where it picks up −i.
            let pos = (x1 & z1 & z2 & !x2) | (x1 & !z1 & x2 & z2) | (!x1 & z1 & x2 & !z2);
            let neg = (x1 & z1 & x2 & !z2) | (x1 & !z1 & z2 & !x2) | (!x1 & z1 & x2 & z2);
            acc += pos.count_ones() as i64 - neg.count_ones() as i64;
            self.x[hb + w] = x2 ^ x1;
            self.z[hb + w] = z2 ^ z1;
        }
        debug_assert!(acc.rem_euclid(2) == 0, "odd phase in rowsum");
        self.r[h] = acc.rem_euclid(4) == 2;
    }

    fn row_copy(&mut self, dst: usize, src: usize) {
        let (db, sb) = (dst * self.words, src * self.words);
        for w in 0..self.words {
            self.x[db + w] = self.x[sb + w];
            self.z[db + w] = self.z[sb + w];
        }
        self.r[dst] = self.r[src];
    }

    fn row_clear(&mut self, row: usize) {
        let rb = row * self.words;
        for w in 0..self.words {
            self.x[rb + w] = 0;
            self.z[rb + w] = 0;
        }
        self.r[row] = false;
    }

    /// Measures qubit `a`. When the outcome is random, `random_bit` is
    /// used as the result; when deterministic it is ignored (the caller
    /// still burns one RNG draw either way, mirroring the statevector
    /// collapse which always draws). Returns the outcome.
    fn measure(&mut self, a: usize, random_bit: bool) -> bool {
        let n = self.n;
        let (w, b) = (a / 64, 1u64 << (a % 64));
        let random_row = (n..2 * n).find(|&p| self.xbit(p, w, b));
        match random_row {
            Some(p) => {
                // Row p−n (the destabilizer paired with p) anticommutes
                // with p and is wholly overwritten below, so it is
                // excluded from the rowsum pass.
                for i in 0..2 * n {
                    if i != p && i != p - n && self.xbit(i, w, b) {
                        self.rowsum(i, p);
                    }
                }
                self.row_copy(p - n, p);
                self.row_clear(p);
                self.z[p * self.words + w] |= b;
                self.r[p] = random_bit;
                random_bit
            }
            None => {
                // Deterministic: accumulate the matching stabilizers'
                // product in the scratch row; its sign is the outcome.
                self.row_clear(2 * n);
                for i in 0..n {
                    if self.xbit(i, w, b) {
                        self.rowsum(2 * n, i + n);
                    }
                }
                self.r[2 * n]
            }
        }
    }

    /// X-part of stabilizer row `n + i` as a bit-vector.
    fn stabilizer_x(&self, i: usize) -> BitVec {
        let base = (self.n + i) * self.words;
        BitVec {
            words: self.x[base..base + self.words].to_vec(),
        }
    }
}

/// The support of a stabilizer state as an ordered affine subspace:
/// `{ offset ⊕ span(basis) }`, with `basis` in fully reduced echelon form
/// sorted by pivot (lowest qubit index — i.e. most significant
/// basis-state index bit — first) and `offset` zeroed at every pivot.
///
/// With that normalization, enumerating combinations `m` with bit
/// `k−1−i` of `m` selecting `basis[i]` visits support elements in
/// strictly increasing basis-state-index order — the exact order the
/// statevector's cumulative-table sampler indexes, which is what makes
/// `m = floor(u·2ᵏ)` land on the same outcome as
/// `partition_point(cum ≤ u·total)`.
#[derive(Debug)]
struct Support {
    offset: BitVec,
    basis: Vec<BitVec>,
}

impl Support {
    fn from_tableau(t: &Tableau) -> Support {
        let n = t.n;
        // Reduced echelon basis of the stabilizer X-parts.
        let mut basis: Vec<BitVec> = Vec::new();
        for i in 0..n {
            let mut v = t.stabilizer_x(i);
            for bv in &basis {
                let p = bv.lowest_set().expect("basis vectors are nonzero");
                if v.get(p) {
                    v.xor_assign(bv);
                }
            }
            if v.is_zero() {
                continue;
            }
            let p = v.lowest_set().expect("nonzero");
            for bv in &mut basis {
                if bv.get(p) {
                    bv.xor_assign(&v);
                }
            }
            basis.push(v);
        }
        basis.sort_by_key(|v| v.lowest_set().expect("nonzero"));
        // One support element: measure every qubit on a scratch copy,
        // forcing 0 on random outcomes. Every forced branch has
        // probability ½ > 0, so the resulting basis state is in the
        // support.
        let mut scratch = t.clone();
        let mut offset = BitVec::zeros(n);
        for q in 0..n {
            if scratch.measure(q, false) {
                offset.set(q);
            }
        }
        // Canonicalize: zero the offset at every pivot.
        for bv in &basis {
            let p = bv.lowest_set().expect("nonzero");
            if offset.get(p) {
                offset.xor_assign(bv);
            }
        }
        Support { offset, basis }
    }

    fn rank(&self) -> usize {
        self.basis.len()
    }
}

/// Key-building data for terminal sampling: the classical key of support
/// combination `m` is `base_key ⊕ XOR of vec_keys[i] over set bits
/// (k−1−i) of m` — valid because every measured clbit is written by
/// exactly one terminal measure (the distinct-clbit fast path) or
/// assembled per shot otherwise.
#[derive(Debug)]
struct TerminalKeys {
    base_key: u64,
    vec_keys: Vec<u64>,
}

impl TerminalKeys {
    fn build(support: &Support, measures: &[(usize, usize)]) -> Option<TerminalKeys> {
        let mut seen = 0u64;
        for &(_, c) in measures {
            let bit = 1u64 << c;
            if seen & bit != 0 {
                return None; // duplicate clbit: fall back to per-shot keys
            }
            seen |= bit;
        }
        let key_of = |v: &BitVec| {
            let mut key = 0u64;
            for &(q, c) in measures {
                if v.get(q) {
                    key |= 1u64 << c;
                }
            }
            key
        };
        Some(TerminalKeys {
            base_key: key_of(&support.offset),
            vec_keys: support.basis.iter().map(key_of).collect(),
        })
    }
}

/// A stabilizer-tableau simulator for exact Clifford circuits.
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::StabilizerSimulator;
///
/// let mut ghz = Circuit::with_clbits(100, 2);
/// ghz.h(0);
/// for q in 1..100 {
///     ghz.cx(q - 1, q);
/// }
/// ghz.measure(0, 0).unwrap();
/// ghz.measure(99, 1).unwrap();
/// let counts = StabilizerSimulator::with_seed(7).run(&ghz, 4096)?;
/// assert!(counts.frequency("00")? > 0.4);
/// assert!(counts.frequency("11")? > 0.4);
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct StabilizerSimulator {
    seed: u64,
}

impl StabilizerSimulator {
    /// Maximum register width. `O(n²)` tableau memory at 4096 qubits is
    /// ~16 MiB — far below the statevector's 2²⁴-amplitude wall — and the
    /// cap keeps worst-case `O(n³)` measurement below a second.
    pub const MAX_QUBITS: usize = 4096;

    /// Creates a simulator seeded from the OS entropy source.
    pub fn new() -> Self {
        Self::with_seed(StdRng::from_entropy().next_u64())
    }

    /// Creates a simulator with a fixed seed. Seed-compatible with
    /// [`crate::StatevectorSimulator::with_seed`]: the same seed produces
    /// bit-identical [`Counts`] on all-Clifford circuits (see the module
    /// docs for the boundary-tie caveat).
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Whether every gate of `circuit` is an exact Clifford generator
    /// (barriers, measurements and resets are always supported). This is
    /// the auto-engage predicate: it never materializes a `2ⁿ` dimension,
    /// so it is safe to ask at any width.
    pub fn supports(circuit: &Circuit) -> bool {
        circuit
            .instructions()
            .iter()
            .all(|inst| match &inst.operation {
                Operation::Gate(g) => CliffordOp::from_gate(g, &inst.qubits).is_some(),
                _ => true,
            })
    }

    /// Runs `circuit` for `shots` shots, seeded as the statevector engine
    /// seeds the same program.
    ///
    /// # Errors
    ///
    /// * [`SimError::NonCliffordGate`] when a gate is not an exact
    ///   Clifford generator;
    /// * [`SimError::TooManyQubits`] beyond
    ///   [`StabilizerSimulator::MAX_QUBITS`];
    /// * [`SimError::TooManyClbits`] beyond [`crate::exec::MAX_CLBITS`].
    pub fn run(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        let program = StabProgram::lower(circuit)?;
        if program.terminal {
            // Evolve the full gate list once, then sample the support.
            let sampler = TerminalSampler::prepare(&program);
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut counts = Counts::new(program.num_clbits);
            for _ in 0..shots {
                counts.record(sampler.sample(&mut rng), 1);
            }
            return Ok(counts);
        }
        // Replay each shot's tableau from the unitary prefix, evolved once
        // (it draws nothing, so evolving it once changes no shot's draws).
        let prefix = evolve_prefix(&program);
        let shot = |tableau: &mut Tableau, rng: &mut StdRng| {
            tableau.clone_from(&prefix);
            Ok(replay_suffix(tableau, &program, rng))
        };
        run_shot_ranges(
            self.seed,
            shots,
            1,
            program.num_clbits,
            |_| prefix.clone(),
            shot,
        )
    }
}

impl Default for StabilizerSimulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Evolves the leading unitary run of `program` on a fresh tableau.
fn evolve_prefix(program: &StabProgram) -> Tableau {
    let mut t = Tableau::identity(program.num_qubits);
    for op in &program.ops[..program.prefix_len] {
        if let StabOp::Gate(g) = op {
            t.apply(*g);
        }
    }
    t
}

/// Replays the post-prefix ops on one shot's tableau, returning the
/// classical key. One uniform draw per measure/reset, exactly like the
/// statevector collapse — and since a random stabilizer outcome has
/// probability exactly ½, `u < 0.5` reproduces the statevector's
/// `u < p₁` decision (its `p₁` differs from `½` by at most `~2⁻⁵²`;
/// deterministic outcomes agree exactly because Clifford interference
/// cancels amplitudes to exact zeros).
fn replay_suffix(tableau: &mut Tableau, program: &StabProgram, rng: &mut StdRng) -> u64 {
    let mut key = 0u64;
    for op in &program.ops[program.prefix_len..] {
        match op {
            StabOp::Gate(g) => tableau.apply(*g),
            StabOp::Measure { qubit, clbit } => {
                let u = rng.gen_range(0.0..1.0);
                if tableau.measure(*qubit, u < 0.5) {
                    key |= 1u64 << clbit;
                } else {
                    key &= !(1u64 << clbit);
                }
            }
            StabOp::Reset { qubit } => {
                let u = rng.gen_range(0.0..1.0);
                if tableau.measure(*qubit, u < 0.5) {
                    tableau.x_gate(*qubit);
                }
            }
        }
    }
    key
}

/// Precomputed terminal sampling state: the ordered support plus per-shot
/// key assembly data.
#[derive(Debug)]
struct TerminalSampler {
    rank: usize,
    keys: Option<TerminalKeys>,
    /// Fallback data when clbits repeat: the raw support and measures.
    support: Support,
    measures: Vec<(usize, usize)>,
}

impl TerminalSampler {
    fn prepare(program: &StabProgram) -> TerminalSampler {
        let mut t = Tableau::identity(program.num_qubits);
        for op in &program.ops {
            if let StabOp::Gate(g) = op {
                t.apply(*g);
            }
        }
        let support = Support::from_tableau(&t);
        let keys = TerminalKeys::build(&support, &program.measures);
        TerminalSampler {
            rank: support.rank(),
            keys,
            support,
            measures: program.measures.clone(),
        }
    }

    /// Draws one outcome key, consuming RNG words exactly as the
    /// statevector terminal sampler does for ranks the statevector can
    /// reach.
    ///
    /// The statevector draws `r = gen_range(0.0..total)` with
    /// `u = (bits >> 11)·2⁻⁵³` and picks the support element of ordinal
    /// `⌊u·2ᵏ⌋` (its cumulative table steps uniformly across the 2ᵏ
    /// equal-magnitude support amplitudes). For `k ≤ 53`,
    /// `⌊u·2ᵏ⌋ = bits >> (64−k)` exactly — scaling a 53-bit integer by a
    /// power of two is exact in `f64` — so one `next_u64` reproduces the
    /// statevector's pick bit-for-bit (modulo the boundary ties in the
    /// module docs). Ranks above 64 (wide registers only, outside any
    /// identity contract) consume one extra word per 64 bits.
    fn sample(&self, rng: &mut StdRng) -> u64 {
        let k = self.rank;
        let bits = rng.next_u64();
        if k == 0 {
            return self.key_of_combination(&[], 0);
        }
        if k <= 64 {
            let m = if k == 64 { bits } else { bits >> (64 - k) };
            return self.key_of_combination(&[m], k);
        }
        // Wide support: most significant 64 selector bits from the first
        // word, then one word per further 64 basis vectors.
        let mut words = vec![bits];
        let mut remaining = k - 64;
        while remaining > 0 {
            let w = rng.next_u64();
            words.push(if remaining >= 64 {
                w
            } else {
                w >> (64 - remaining)
            });
            remaining = remaining.saturating_sub(64);
        }
        self.key_of_combination(&words, k)
    }

    /// Maps selector words (most significant first; bit `k−1−i` over the
    /// concatenation selects basis vector `i`) to the outcome key.
    fn key_of_combination(&self, words: &[u64], k: usize) -> u64 {
        if let Some(keys) = &self.keys {
            let mut key = keys.base_key;
            for (i, vk) in keys.vec_keys.iter().enumerate() {
                if selector_bit(words, k, i) {
                    key ^= vk;
                }
            }
            return key;
        }
        // Duplicate clbits: materialize the support element and replay
        // the measures in program order with set/clear semantics,
        // mirroring the statevector's per-shot key assembly.
        let mut element = self.support.offset.clone();
        for (i, v) in self.support.basis.iter().enumerate() {
            if selector_bit(words, k, i) {
                element.xor_assign(v);
            }
        }
        let mut key = 0u64;
        for &(q, c) in &self.measures {
            if element.get(q) {
                key |= 1u64 << c;
            } else {
                key &= !(1u64 << c);
            }
        }
        key
    }
}

/// Bit `k−1−i` of the big-endian concatenation of selector `words`.
fn selector_bit(words: &[u64], k: usize, i: usize) -> bool {
    // Word sizes: first word holds min(k, 64) bits, subsequent words 64
    // (with the last possibly short) — matching `TerminalSampler::sample`.
    let first = k.min(64);
    if i < first {
        return words[0] & (1u64 << (first - 1 - i)) != 0;
    }
    let rest = i - first;
    let wi = 1 + rest / 64;
    let bits_in_word = if k - first - (rest / 64) * 64 >= 64 {
        64
    } else {
        k - first - (rest / 64) * 64
    };
    words[wi] & (1u64 << (bits_in_word - 1 - rest % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatevectorSimulator;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.measure_all();
        c
    }

    #[test]
    fn ghz_counts_match_statevector_bitwise() {
        for n in [1, 2, 3, 8, 12] {
            let c = ghz(n);
            let sv = StatevectorSimulator::with_seed(42).run(&c, 2048).unwrap();
            let st = StabilizerSimulator::with_seed(42).run(&c, 2048).unwrap();
            assert_eq!(sv, st, "GHZ-{n} counts diverged");
        }
    }

    #[test]
    fn all_generators_match_statevector() {
        let mut c = Circuit::new(4);
        c.h(0)
            .s(0)
            .cx(0, 1)
            .z(1)
            .y(2)
            .x(3)
            .sdg(0)
            .cz(1, 2)
            .swap(2, 3)
            .h(2);
        c.measure_all();
        let sv = StatevectorSimulator::with_seed(7).run(&c, 4096).unwrap();
        let st = StabilizerSimulator::with_seed(7).run(&c, 4096).unwrap();
        assert_eq!(sv, st);
    }

    #[test]
    fn midcircuit_measure_and_reset_match_statevector() {
        let mut c = Circuit::with_clbits(3, 3);
        c.h(0).cx(0, 1);
        c.measure(0, 0).unwrap();
        c.h(2);
        c.reset(1).unwrap();
        c.cx(2, 1);
        c.measure(1, 1).unwrap();
        c.measure(2, 2).unwrap();
        let sv = StatevectorSimulator::with_seed(11).run(&c, 1024).unwrap();
        let st = StabilizerSimulator::with_seed(11).run(&c, 1024).unwrap();
        assert_eq!(sv, st);
    }

    #[test]
    fn non_clifford_gate_rejected() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        c.measure_all();
        let err = StabilizerSimulator::with_seed(1).run(&c, 16).unwrap_err();
        assert!(matches!(err, SimError::NonCliffordGate { ref gate } if gate == "t"));
        assert!(!StabilizerSimulator::supports(&c));
        assert!(StabilizerSimulator::supports(&ghz(3)));
    }

    #[test]
    fn wide_register_beyond_statevector_ceiling() {
        // 128 qubits: far past exec::MAX_QUBITS. Outcome keys stay u64,
        // so wide circuits measure a ≤64-qubit subset.
        let n = 128;
        let mut c = Circuit::with_clbits(n, 2);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.measure(0, 0).unwrap();
        c.measure(n - 1, 1).unwrap();
        let counts = StabilizerSimulator::with_seed(3).run(&c, 512).unwrap();
        assert_eq!(counts.total(), 512);
        assert_eq!(counts.iter().count(), 2);
        assert!(counts.count_str("00").unwrap() > 0);
        assert!(counts.count_str("11").unwrap() > 0);
        assert_eq!(
            counts.count_str("00").unwrap() + counts.count_str("11").unwrap(),
            512
        );
    }

    #[test]
    fn width_cap_enforced() {
        let c = Circuit::new(StabilizerSimulator::MAX_QUBITS + 1);
        assert!(matches!(
            StabilizerSimulator::with_seed(0).run(&c, 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn deterministic_outcomes_have_no_spread() {
        // |0…0⟩ with X on alternate qubits: fully deterministic.
        let mut c = Circuit::new(5);
        c.x(0).x(2).x(4);
        c.measure_all();
        let counts = StabilizerSimulator::with_seed(1).run(&c, 256).unwrap();
        assert_eq!(counts.iter().count(), 1);
        assert_eq!(counts.count_str("10101").unwrap(), 256);
    }
}
