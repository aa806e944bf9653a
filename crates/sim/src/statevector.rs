//! Noise-free state-vector simulation with shot sampling.
//!
//! [`StatevectorSimulator::run`] lowers the circuit through
//! [`CompiledProgram::compile`] and executes kernel ops; the original
//! instruction-walking interpreter survives as
//! [`StatevectorSimulator::run_interpreted`] — the reference implementation
//! the compiled engine is tested bit-for-bit against
//! (`tests/compiled_identity.rs`) and benchmarked over
//! (`qra-bench/src/bin/sim_throughput.rs`).
//!
//! A simulator keeps a seed, never a random stream. A terminal program
//! samples its final distribution from one generator seeded by that seed
//! on each call. A program with a mid-circuit measurement or reset
//! re-simulates every shot, and shot `s` draws only from its own generator,
//! seeded by [`derive_shot_seed`](crate::threads::derive_shot_seed)`(seed,
//! s)`: one draw per collapse, in program order. Shot ranges then split
//! across threads ([`run_shot_ranges`]) without changing a count.

use crate::exec::{CompiledProgram, ExecOp, MAX_CLBITS, MAX_QUBITS};
use crate::threads::{resolve_threads, run_shot_ranges};
use crate::{Counts, SimError};
use qra_circuit::circuit::apply_gate_inplace;
use qra_circuit::{Circuit, Operation};
use qra_math::{CVector, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest dimension for which the terminal path precomputes the full
/// outcome → classical-key table (2¹⁶ entries ≈ 512 KiB); wider registers
/// fall back to per-shot key assembly from precomputed bit shifts.
const KEY_TABLE_MAX_DIM: usize = 1 << 16;

/// An exact state-vector simulator supporting mid-circuit measurement and
/// reset via per-shot collapse, the Rust counterpart of the paper's Qiskit
/// Aer "qasm simulator".
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::StatevectorSimulator;
///
/// let mut c = Circuit::new(1);
/// c.h(0);
/// c.measure_all();
/// let counts = StatevectorSimulator::with_seed(1).run(&c, 4096)?;
/// assert!((counts.frequency("0").unwrap() - 0.5).abs() < 0.05);
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct StatevectorSimulator {
    seed: u64,
    threads: usize,
}

impl Default for StatevectorSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl StatevectorSimulator {
    /// Creates a simulator seeded from the OS entropy source.
    pub fn new() -> Self {
        Self::with_seed(StdRng::from_entropy().next_u64())
    }

    /// Creates a simulator with a fixed seed (reproducible sampling).
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, threads: 1 }
    }

    /// Sets the worker thread count (`0` = one per available core).
    /// Terminal runs and unitary prefixes split each kernel's amplitude
    /// sweep; per-shot programs split their shots into contiguous ranges.
    /// Neither touches a random draw or changes any arithmetic, so runs
    /// are bit-for-bit identical at any thread count (the contract
    /// `tests/compiled_identity.rs` enforces).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads).0;
        self
    }

    /// The resolved thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evolves `|0…0⟩` through the circuit's unitary part and returns the
    /// final state.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond 24 qubits;
    /// * [`SimError::Circuit`] when the circuit contains measurements or
    ///   resets (use [`StatevectorSimulator::run`] for those).
    pub fn evolve(&self, circuit: &Circuit) -> Result<CVector, SimError> {
        check_width(circuit)?;
        Ok(circuit.statevector()?)
    }

    /// Evolves `|0…0⟩` through a compiled program's cached unitary prefix
    /// (the leading gate run; for a measurement-free circuit that is the
    /// whole program) using this simulator's thread count. Consumes no
    /// randomness and is bit-for-bit identical at any thread count.
    pub fn evolve_compiled(&self, program: &CompiledProgram) -> CVector {
        let mut state = CVector::basis_state(program.dim(), 0);
        let mut scratch = Vec::new();
        for op in &program.ops()[..program.prefix_len()] {
            if let ExecOp::Apply(k) = op {
                k.apply_threaded(state.as_mut_slice(), &mut scratch, self.threads);
            }
        }
        state
    }

    /// Runs the circuit for `shots` shots and histograms the classical
    /// outcomes.
    ///
    /// The circuit is lowered once ([`CompiledProgram::compile`]) and the
    /// compiled program executed; callers amortizing one circuit over many
    /// runs should compile themselves and use
    /// [`StatevectorSimulator::run_compiled`].
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond 24 qubits;
    /// * [`SimError::Circuit`] for invalid circuits.
    pub fn run(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        let program = CompiledProgram::compile(circuit)?;
        self.run_compiled(&program, shots)
    }

    /// Executes a pre-lowered program for `shots` shots.
    ///
    /// Seed-compatible with [`StatevectorSimulator::run_interpreted`]: the
    /// same seed yields bit-for-bit identical [`Counts`].
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidProbability`] if the state degenerates (e.g. a
    ///   non-unitary custom gate).
    pub fn run_compiled(&self, program: &CompiledProgram, shots: u64) -> Result<Counts, SimError> {
        if program.is_terminal() {
            self.run_compiled_terminal(program, shots)
        } else {
            self.run_compiled_per_shot(program, shots)
        }
    }

    /// All measurements terminal: evolve once, sample the distribution.
    fn run_compiled_terminal(
        &self,
        program: &CompiledProgram,
        shots: u64,
    ) -> Result<Counts, SimError> {
        let n = program.num_qubits();
        let dim = program.dim();
        let mut state = CVector::basis_state(dim, 0);
        let mut scratch = Vec::new();
        for op in program.ops() {
            if let ExecOp::Apply(k) = op {
                k.apply_threaded(state.as_mut_slice(), &mut scratch, self.threads);
            }
        }
        // In-place cumulative table: cum[i] = p₀ + … + pᵢ with the same
        // left-to-right association as `iter().sum()`, so `cum[dim-1]` is
        // bit-identical to the interpreter's total.
        let mut cum = state.probabilities();
        for i in 1..dim {
            cum[i] += cum[i - 1];
        }
        let total = cum[dim - 1].max(f64::MIN_POSITIVE);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut counts = Counts::new(program.num_clbits());
        if dim <= KEY_TABLE_MAX_DIM {
            // Precompute outcome → key once, histogram outcome indices,
            // then bulk-record (BTreeMap contents are insertion-order
            // independent, so Counts stay byte-identical).
            let key_table = build_key_table(program.measures(), n, dim);
            let mut hist = vec![0u64; dim];
            for _ in 0..shots {
                hist[sample_cumulative(&cum, total, &mut rng)] += 1;
            }
            for (i, &h) in hist.iter().enumerate() {
                if h > 0 {
                    counts.record(key_table[i], h);
                }
            }
        } else {
            // Wide registers: avoid the 2ⁿ table, assemble keys per shot
            // from precomputed (shift, clbit-bit) pairs.
            let shifts: Vec<(usize, u64)> = program
                .measures()
                .iter()
                .map(|&(q, c)| (n - 1 - q, 1u64 << c))
                .collect();
            for _ in 0..shots {
                let outcome = sample_cumulative(&cum, total, &mut rng);
                let mut key = 0u64;
                for &(shift, bit) in &shifts {
                    if (outcome >> shift) & 1 == 1 {
                        key |= bit;
                    }
                }
                counts.record(key, 1);
            }
        }
        Ok(counts)
    }

    /// Mid-circuit measurement/reset: per-shot replay with collapse, with
    /// the unitary prefix evolved once (on every thread) and copied into
    /// each shot. Shot ranges then run on the workers of
    /// [`run_shot_ranges`].
    fn run_compiled_per_shot(
        &self,
        program: &CompiledProgram,
        shots: u64,
    ) -> Result<Counts, SimError> {
        // The prefix draws nothing, so evolving it once changes no shot's
        // draws.
        let prefix = self.evolve_compiled(program);
        let suffix = &program.ops()[program.prefix_len()..];
        let worker = |threads| (prefix.clone(), Vec::new(), threads);
        let shot = |(state, scratch, threads): &mut (CVector, Vec<C64>, usize),
                    rng: &mut StdRng| {
            state.as_mut_slice().copy_from_slice(prefix.as_slice());
            let mut key = 0u64;
            for op in suffix {
                match op {
                    ExecOp::Apply(k) => k.apply_threaded(state.as_mut_slice(), scratch, *threads),
                    ExecOp::Measure { mask, clbit_bit } => {
                        if collapse_mask(state, *mask, rng)? == 1 {
                            key |= clbit_bit;
                        } else {
                            key &= !clbit_bit;
                        }
                    }
                    ExecOp::Reset { mask, flip } => {
                        if collapse_mask(state, *mask, rng)? == 1 {
                            flip.apply_threaded(state.as_mut_slice(), scratch, *threads);
                        }
                    }
                }
            }
            Ok(key)
        };
        run_shot_ranges(
            self.seed,
            shots,
            self.threads,
            program.num_clbits(),
            worker,
            shot,
        )
    }

    /// Runs the circuit through the original instruction-walking
    /// interpreter, on one thread. Kept as the reference implementation
    /// for the compiled-vs-interpreter identity tests and throughput
    /// baselines; it seeds each shot the same way, so the same seed gives
    /// the same [`Counts`] as [`StatevectorSimulator::run`].
    ///
    /// # Errors
    ///
    /// As for [`StatevectorSimulator::run`].
    pub fn run_interpreted(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        check_width(circuit)?;
        if measurements_are_terminal(circuit) {
            self.run_terminal(circuit, shots)
        } else {
            self.run_per_shot(circuit, shots)
        }
    }

    fn run_terminal(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        let n = circuit.num_qubits();
        let dim = 1usize << n;
        let mut state = CVector::basis_state(dim, 0);
        let mut measures: Vec<(usize, usize)> = Vec::new();
        for inst in circuit.instructions() {
            match &inst.operation {
                Operation::Gate(g) => {
                    apply_gate_inplace(&mut state, &g.matrix(), &inst.qubits, n);
                }
                Operation::Barrier => {}
                Operation::Measure => measures.push((inst.qubits[0], inst.clbits[0])),
                Operation::Reset => {
                    // Terminal-measurement fast path never sees resets
                    // (they are "gates touching qubits"), handled per-shot.
                    unreachable!("reset routed to per-shot path");
                }
            }
        }
        let probs = state.probabilities();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut counts = Counts::new(circuit.num_clbits());
        for _ in 0..shots {
            let outcome = sample_index(&probs, &mut rng);
            let mut key = 0u64;
            for &(q, c) in &measures {
                if (outcome >> (n - 1 - q)) & 1 == 1 {
                    key |= 1 << c;
                }
            }
            counts.record(key, 1);
        }
        Ok(counts)
    }

    fn run_per_shot(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        let n = circuit.num_qubits();
        let shot = |_: &mut (), rng: &mut StdRng| {
            let mut state = CVector::basis_state(1usize << n, 0);
            let mut key = 0u64;
            for inst in circuit.instructions() {
                match &inst.operation {
                    Operation::Gate(g) => {
                        apply_gate_inplace(&mut state, &g.matrix(), &inst.qubits, n);
                    }
                    Operation::Barrier => {}
                    Operation::Measure => {
                        let q = inst.qubits[0];
                        let c = inst.clbits[0];
                        let bit = collapse(&mut state, q, n, rng)?;
                        if bit == 1 {
                            key |= 1 << c;
                        } else {
                            key &= !(1 << c);
                        }
                    }
                    Operation::Reset => {
                        let q = inst.qubits[0];
                        let bit = collapse(&mut state, q, n, rng)?;
                        if bit == 1 {
                            apply_gate_inplace(&mut state, &qra_circuit::Gate::X.matrix(), &[q], n);
                        }
                    }
                }
            }
            Ok(key)
        };
        run_shot_ranges(self.seed, shots, 1, circuit.num_clbits(), |_| (), shot)
    }
}

fn check_width(circuit: &Circuit) -> Result<(), SimError> {
    if circuit.num_qubits() > MAX_QUBITS {
        return Err(SimError::TooManyQubits {
            num_qubits: circuit.num_qubits(),
            max: MAX_QUBITS,
        });
    }
    if circuit.num_clbits() > MAX_CLBITS {
        return Err(SimError::TooManyClbits {
            num_clbits: circuit.num_clbits(),
            max: MAX_CLBITS,
        });
    }
    Ok(())
}

/// Returns `true` when no gate or reset acts on any qubit after it has been
/// measured (so sampling the final distribution once is exact).
fn measurements_are_terminal(circuit: &Circuit) -> bool {
    // Measured-qubit set as a bitmask (width ≤ 24 fits u32) instead of the
    // former O(m²) Vec::contains scans.
    let mut measured = 0u32;
    for inst in circuit.instructions() {
        match &inst.operation {
            Operation::Measure => {
                let bit = 1u32 << inst.qubits[0];
                if measured & bit != 0 {
                    return false; // double measurement needs collapse order
                }
                measured |= bit;
            }
            Operation::Reset => return false,
            Operation::Gate(_) => {
                if inst.qubits.iter().any(|&q| measured & (1 << q) != 0) {
                    return false;
                }
            }
            Operation::Barrier => {}
        }
    }
    true
}

/// Precomputes the classical key for every basis outcome.
fn build_key_table(measures: &[(usize, usize)], n: usize, dim: usize) -> Vec<u64> {
    let shifts: Vec<(usize, u64)> = measures
        .iter()
        .map(|&(q, c)| (n - 1 - q, 1u64 << c))
        .collect();
    (0..dim)
        .map(|outcome| {
            let mut key = 0u64;
            for &(shift, bit) in &shifts {
                if (outcome >> shift) & 1 == 1 {
                    key |= bit;
                }
            }
            key
        })
        .collect()
}

/// Samples an index from a cumulative probability table in O(log dim):
/// the first `i` with `r < cum[i]`, matching the linear scan's semantics.
/// Shared with the density back-end's shot sampler.
pub(crate) fn sample_cumulative(cum: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let r = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= r).min(cum.len() - 1)
}

/// Samples an index from an (unnormalised-tolerant) probability table.
fn sample_index(probs: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = probs.iter().sum();
    let mut r = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (i, &p) in probs.iter().enumerate() {
        if r < p {
            return i;
        }
        r -= p;
    }
    probs.len() - 1
}

/// Projectively measures the qubit selected by `mask`, collapsing the
/// state; returns the bit. Shared with the trajectory back-end.
pub(crate) fn collapse_mask(
    state: &mut CVector,
    mask: usize,
    rng: &mut StdRng,
) -> Result<u8, SimError> {
    let mut p1 = 0.0;
    for (i, amp) in state.iter().enumerate() {
        if i & mask != 0 {
            p1 += amp.norm_sqr();
        }
    }
    if !(0.0..=1.0 + 1e-9).contains(&p1) {
        return Err(SimError::InvalidProbability { value: p1 });
    }
    let outcome = if rng.gen_range(0.0..1.0) < p1 { 1u8 } else { 0 };
    let keep_one = outcome == 1;
    let norm = if keep_one {
        p1.sqrt()
    } else {
        (1.0 - p1).sqrt()
    };
    let scale = C64::from(1.0 / norm.max(f64::MIN_POSITIVE));
    for i in 0..state.len() {
        let is_one = i & mask != 0;
        if is_one == keep_one {
            state[i] *= scale;
        } else {
            state[i] = C64::zero();
        }
    }
    Ok(outcome)
}

/// Projectively measures `qubit`, collapsing the state; returns the bit.
fn collapse(state: &mut CVector, qubit: usize, n: usize, rng: &mut StdRng) -> Result<u8, SimError> {
    collapse_mask(state, 1usize << (n - 1 - qubit), rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_counts_split_evenly() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let counts = StatevectorSimulator::with_seed(42).run(&c, 8192).unwrap();
        assert!((counts.frequency("00").unwrap() - 0.5).abs() < 0.03);
        assert!((counts.frequency("11").unwrap() - 0.5).abs() < 0.03);
        assert_eq!(counts.count_str("01").unwrap(), 0);
        assert_eq!(counts.count_str("10").unwrap(), 0);
    }

    #[test]
    fn deterministic_outcome() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.measure_all();
        let counts = StatevectorSimulator::with_seed(1).run(&c, 100).unwrap();
        assert_eq!(counts.count_str("10").unwrap(), 100);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure_all();
        let a = StatevectorSimulator::with_seed(5).run(&c, 1000).unwrap();
        let b = StatevectorSimulator::with_seed(5).run(&c, 1000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mid_circuit_measurement_collapses() {
        // Measure |+⟩, then apply H again: outcomes of second measurement
        // must be 50/50 regardless of the first (collapse happened).
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0);
        c.measure(0, 0).unwrap();
        c.h(0);
        c.measure(0, 1).unwrap();
        let counts = StatevectorSimulator::with_seed(9).run(&c, 4000).unwrap();
        // All four outcomes appear.
        for bits in ["00", "01", "10", "11"] {
            assert!(
                counts.frequency(bits).unwrap() > 0.15,
                "missing outcome {bits}"
            );
        }
    }

    #[test]
    fn repeated_measurement_is_consistent() {
        // Measuring the same qubit twice must agree shot-by-shot.
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0);
        c.measure(0, 0).unwrap();
        c.measure(0, 1).unwrap();
        let counts = StatevectorSimulator::with_seed(2).run(&c, 2000).unwrap();
        assert_eq!(counts.count_str("01").unwrap(), 0);
        assert_eq!(counts.count_str("10").unwrap(), 0);
        assert!(counts.count_str("00").unwrap() > 0);
        assert!(counts.count_str("11").unwrap() > 0);
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut c = Circuit::with_clbits(1, 1);
        c.h(0);
        c.reset(0).unwrap();
        c.measure(0, 0).unwrap();
        let counts = StatevectorSimulator::with_seed(3).run(&c, 500).unwrap();
        assert_eq!(counts.count_str("0").unwrap(), 500);
    }

    #[test]
    fn ghz_distribution() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        c.measure_all();
        let counts = StatevectorSimulator::with_seed(10).run(&c, 8192).unwrap();
        assert!((counts.frequency("000").unwrap() - 0.5).abs() < 0.03);
        assert!((counts.frequency("111").unwrap() - 0.5).abs() < 0.03);
    }

    #[test]
    fn evolve_rejects_measurement() {
        let mut c = Circuit::with_clbits(1, 1);
        c.measure(0, 0).unwrap();
        assert!(StatevectorSimulator::new().evolve(&c).is_err());
    }

    #[test]
    fn too_wide_circuit_rejected() {
        let c = Circuit::new(25);
        assert!(matches!(
            StatevectorSimulator::new().evolve(&c),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(matches!(
            StatevectorSimulator::new().run(&c, 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn partial_measurement_marginalizes() {
        // Bell pair, measure only qubit 0.
        let mut c = Circuit::with_clbits(2, 1);
        c.h(0).cx(0, 1);
        c.measure(0, 0).unwrap();
        let counts = StatevectorSimulator::with_seed(8).run(&c, 4000).unwrap();
        assert!((counts.frequency("0").unwrap() - 0.5).abs() < 0.05);
    }

    #[test]
    fn compiled_matches_interpreter_terminal() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2).s(1);
        c.measure_all();
        let fast = StatevectorSimulator::with_seed(77).run(&c, 4096).unwrap();
        let slow = StatevectorSimulator::with_seed(77)
            .run_interpreted(&c, 4096)
            .unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn compiled_matches_interpreter_per_shot() {
        let mut c = Circuit::with_clbits(2, 3);
        c.h(0).cx(0, 1);
        c.measure(0, 0).unwrap();
        c.h(1);
        c.measure(1, 1).unwrap();
        c.reset(0).unwrap();
        c.h(0);
        c.measure(0, 2).unwrap();
        let fast = StatevectorSimulator::with_seed(13).run(&c, 2048).unwrap();
        let slow = StatevectorSimulator::with_seed(13)
            .run_interpreted(&c, 2048)
            .unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn run_compiled_reusable_across_runs() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let program = CompiledProgram::compile(&c).unwrap();
        let a = StatevectorSimulator::with_seed(4)
            .run_compiled(&program, 512)
            .unwrap();
        let b = StatevectorSimulator::with_seed(4).run(&c, 512).unwrap();
        assert_eq!(a, b);
    }
}
