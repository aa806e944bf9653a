//! Compiled-program cache keyed by a canonical circuit encoding.
//!
//! Lowering a circuit ([`CompiledProgram::compile`] /
//! [`CompiledDensityProgram::compile`]) is a pure, RNG-free pass, so a
//! compiled program may be shared freely between runs: executing a cached
//! program is bit-for-bit identical to compiling fresh. [`ProgramCache`]
//! exploits that to let repeat circuits — streamed assertion requests,
//! calibration repeats, retried campaign cells — skip lowering entirely.
//!
//! # Keying
//!
//! Entries are keyed by a canonical byte encoding of the circuit
//! (qubit/clbit counts, then per instruction the operation kind, gate
//! name, full gate matrix as `f64` bit patterns, and operand indices), so
//! a hit requires byte equality and can never return a wrong program.
//! Density programs bake their [`NoiseModel`] in at lowering, so their keys
//! append the noise parameters' bit patterns.
//!
//! # Capacity
//!
//! The cache holds at most [`CACHE_CAPACITY_BYTES`] of programs (each
//! charged its key, which holds every gate's matrix, plus the program's
//! own buffers: for a density program chiefly its `16·4ⁿ`-byte prefix
//! `vec(ρ)`) and evicts the least
//! recently used entry to make room. A program larger than the whole cap
//! is returned without being cached. Eviction only costs a later
//! recompile, which is bit-identical, so it never changes a result.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use qra_circuit::{Circuit, Operation};

use crate::exec::CompiledProgram;
use crate::exec_density::CompiledDensityProgram;
use crate::noise::NoiseModel;
use crate::SimError;

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

/// Canonical byte encoding of a circuit: the cache key.
///
/// Two circuits with equal encodings lower to identical programs: the
/// encoding captures everything `compile` reads — register widths and,
/// per instruction, the operation kind, the gate's name *and* full
/// matrix (as `f64` bit patterns, so `u2(0,π)` and `h` stay distinct
/// even where their matrices agree to rounding), and the operand
/// indices. Barriers are included; they are no-ops to the compilers, so
/// the distinction only costs an extra compile, never correctness.
fn encode_circuit(circuit: &Circuit) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 64 * circuit.instructions().len());
    push_usize(&mut out, circuit.num_qubits());
    push_usize(&mut out, circuit.num_clbits());
    for inst in circuit.instructions() {
        match &inst.operation {
            Operation::Gate(gate) => {
                out.push(0);
                let name = gate.name();
                push_usize(&mut out, name.len());
                out.extend_from_slice(name.as_bytes());
                let matrix = gate.matrix();
                push_usize(&mut out, matrix.rows());
                push_usize(&mut out, matrix.cols());
                for entry in matrix.as_slice() {
                    out.extend_from_slice(&entry.re.to_bits().to_le_bytes());
                    out.extend_from_slice(&entry.im.to_bits().to_le_bytes());
                }
            }
            Operation::Measure => out.push(1),
            Operation::Reset => out.push(2),
            Operation::Barrier => out.push(3),
        }
        push_usize(&mut out, inst.qubits.len());
        for &q in &inst.qubits {
            push_usize(&mut out, q);
        }
        push_usize(&mut out, inst.clbits.len());
        for &c in &inst.clbits {
            push_usize(&mut out, c);
        }
    }
    out
}

/// Byte encoding of a noise model: the bit patterns of its parameters.
fn encode_noise(noise: &NoiseModel) -> [u8; 56] {
    let mut out = [0u8; 56];
    let fields = [
        noise.depol_1q,
        noise.depol_2q,
        noise.damping_1q,
        noise.damping_2q,
        noise.dephasing,
        noise.readout_p01,
        noise.readout_p10,
    ];
    for (i, f) in fields.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&f.to_bits().to_le_bytes());
    }
    out
}

/// Bytes of programs a [`ProgramCache`] made by [`ProgramCache::new`]
/// retains before it evicts: four 10-qubit density programs (16 MiB of
/// `vec(ρ)` prefix each), or tens of thousands of small state-vector ones.
pub const CACHE_CAPACITY_BYTES: usize = 64 << 20;

/// A cached program of either engine.
#[derive(Debug, Clone)]
enum Program {
    Statevector(Arc<CompiledProgram>),
    Density(Arc<CompiledDensityProgram>),
}

#[derive(Debug)]
struct Entry {
    program: Program,
    /// Key plus program bytes, as charged against the capacity.
    bytes: usize,
    last_use: u64,
}

/// The entries plus their recency order, under one lock.
#[derive(Debug, Default)]
struct Lru {
    entries: HashMap<Arc<[u8]>, Entry>,
    /// Keys by last use, least recent first.
    order: BTreeMap<u64, Arc<[u8]>>,
    bytes: usize,
    clock: u64,
}

impl Lru {
    /// Marks `key` used now and returns its program.
    fn touch(&mut self, key: &[u8]) -> Option<Program> {
        let entry = self.entries.get_mut(key)?;
        let key = self
            .order
            .remove(&entry.last_use)
            .expect("every entry is in the recency order");
        self.clock += 1;
        entry.last_use = self.clock;
        self.order.insert(self.clock, key);
        Some(entry.program.clone())
    }
}

/// Thread-safe, byte-capped LRU cache of lowered programs, shared via
/// `Arc` between the campaign runner, the sweep driver and the
/// `qra serve` daemon.
///
/// Statevector programs key on the circuit alone (the compiled program
/// carries its Clifford tag, so the stabilizer router benefits from the
/// same entry); density programs key on `(circuit, noise)` because the
/// noise model is baked in at lowering.
#[derive(Debug)]
pub struct ProgramCache {
    lru: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramCache {
    /// Creates an empty cache capped at [`CACHE_CAPACITY_BYTES`].
    pub fn new() -> ProgramCache {
        ProgramCache::with_capacity(CACHE_CAPACITY_BYTES)
    }

    /// Creates an empty cache that retains at most `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ProgramCache {
        ProgramCache {
            lru: Mutex::default(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("cache poisoned")
    }

    /// The cached program under `key`, or `compile`'s result, cached when
    /// it fits the capacity. Compilation runs outside the lock; a racing
    /// thread that compiled the same key first wins, so every consumer
    /// shares one program.
    fn get_or_compile(
        &self,
        key: Vec<u8>,
        compile: impl FnOnce() -> Result<(Program, usize), SimError>,
    ) -> Result<Program, SimError> {
        if let Some(program) = self.lock().touch(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(program);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (program, program_bytes) = compile()?;
        let bytes = key.len() + program_bytes;
        if bytes > self.capacity {
            return Ok(program);
        }
        let mut lru = self.lock();
        if let Some(existing) = lru.touch(&key) {
            return Ok(existing);
        }
        while lru.bytes + bytes > self.capacity {
            let (_, oldest) = lru.order.pop_first().expect("entries fill the capacity");
            let evicted = lru
                .entries
                .remove(&oldest)
                .expect("ordered keys are entries");
            lru.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let key: Arc<[u8]> = key.into();
        lru.clock += 1;
        let last_use = lru.clock;
        lru.order.insert(last_use, Arc::clone(&key));
        lru.bytes += bytes;
        lru.entries.insert(
            key,
            Entry {
                program: program.clone(),
                bytes,
                last_use,
            },
        );
        Ok(program)
    }

    /// Returns the cached statevector program for `circuit`, compiling
    /// and inserting on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledProgram::compile`] errors; failures are not
    /// cached, so a later call retries the compile.
    pub fn compile_statevector(&self, circuit: &Circuit) -> Result<Arc<CompiledProgram>, SimError> {
        let mut key = vec![0u8];
        key.extend(encode_circuit(circuit));
        let program = self.get_or_compile(key, || {
            let program = CompiledProgram::compile(circuit)?;
            let bytes = program.retained_bytes();
            Ok((Program::Statevector(Arc::new(program)), bytes))
        })?;
        match program {
            Program::Statevector(p) => Ok(p),
            Program::Density(_) => unreachable!("statevector keys start with 0"),
        }
    }

    /// Returns the cached density program for `(circuit, noise)`,
    /// compiling and inserting on a miss, its prefix evolved over
    /// `threads` workers. The key leaves `threads` out: the compiled
    /// program is bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledDensityProgram::compile`] errors; failures
    /// are not cached.
    pub fn compile_density(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        threads: usize,
    ) -> Result<Arc<CompiledDensityProgram>, SimError> {
        let mut key = vec![1u8];
        key.extend(encode_circuit(circuit));
        key.extend_from_slice(&encode_noise(noise));
        let program = self.get_or_compile(key, || {
            let program = CompiledDensityProgram::compile(circuit, noise, threads)?;
            let bytes = program.retained_bytes();
            Ok((Program::Density(Arc::new(program)), bytes))
        })?;
        match program {
            Program::Density(p) => Ok(p),
            Program::Statevector(_) => unreachable!("density keys start with 1"),
        }
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that compiled fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of programs evicted to stay within the capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of programs currently cached (statevector + density).
    pub fn entries(&self) -> usize {
        self.lock().entries.len()
    }

    /// Bytes the cached programs are charged (keys included); never above
    /// the capacity.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DensityMatrixSimulator, StatevectorSimulator};

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
    fn fingerprint_distinguishes_structure() {
        let a = ghz(3);
        let b = ghz(4);
        let mut c = ghz(3);
        c.x(0);
        assert_ne!(encode_circuit(&a), encode_circuit(&b));
        assert_ne!(encode_circuit(&a), encode_circuit(&c));
        assert_eq!(encode_circuit(&a), encode_circuit(&ghz(3)));
    }

    #[test]
    fn fingerprint_distinguishes_operands() {
        let mut a = Circuit::new(2);
        a.x(0);
        a.measure_all();
        let mut b = Circuit::new(2);
        b.x(1);
        b.measure_all();
        assert_ne!(encode_circuit(&a), encode_circuit(&b));
    }

    #[test]
    fn statevector_hits_and_is_bit_identical() {
        let cache = ProgramCache::new();
        let circuit = ghz(3);
        let fresh = StatevectorSimulator::with_seed(7)
            .run(&circuit, 2048)
            .unwrap();
        for _ in 0..3 {
            let program = cache.compile_statevector(&circuit).unwrap();
            let cached = StatevectorSimulator::with_seed(7)
                .run_compiled(&program, 2048)
                .unwrap();
            assert_eq!(fresh, cached);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn density_keys_on_noise() {
        let cache = ProgramCache::new();
        let circuit = ghz(2);
        let ideal = NoiseModel::ideal();
        let noisy = NoiseModel {
            depol_1q: 0.01,
            ..NoiseModel::ideal()
        };
        cache.compile_density(&circuit, &ideal, 1).unwrap();
        cache.compile_density(&circuit, &noisy, 1).unwrap();
        cache.compile_density(&circuit, &ideal, 1).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn density_cached_is_bit_identical() {
        let cache = ProgramCache::new();
        let circuit = ghz(2);
        let noise = NoiseModel {
            depol_1q: 0.004,
            readout_p01: 0.02,
            ..NoiseModel::ideal()
        };
        let sim = DensityMatrixSimulator::with_noise(noise.clone());
        let fresh = sim.run(&circuit, 4096, 11).unwrap();
        let program = cache.compile_density(&circuit, &noise, 1).unwrap();
        let cached = sim.run_compiled(&program, 4096, 11).unwrap();
        assert_eq!(fresh, cached);
        assert_eq!(cache.misses(), 1);
    }

    /// GHZ-5 with a distinct trailing rotation: every such circuit has the
    /// same shape, so its density program is charged the same size.
    fn ghz5_variant(i: usize) -> Circuit {
        let mut c = ghz(5);
        c.rz(0.1 * (i + 1) as f64, 0);
        c
    }

    #[test]
    fn eviction_keeps_bytes_under_the_cap_and_recompiles_identically() {
        let noise = NoiseModel {
            depol_2q: 0.02,
            ..NoiseModel::ideal()
        };
        let probe = ProgramCache::new();
        probe.compile_density(&ghz5_variant(0), &noise, 1).unwrap();
        let charge = probe.bytes();
        // The 16·4⁵-byte prefix vec(ρ) dominates the charge.
        assert!(
            (16 << 10..2 * (16 << 10)).contains(&charge),
            "charge {charge}"
        );

        let cache = ProgramCache::with_capacity(3 * charge);
        let compile = |i| cache.compile_density(&ghz5_variant(i), &noise, 1).unwrap();
        let first: Vec<_> = (0..3).map(compile).collect();
        assert_eq!(
            (cache.entries(), cache.bytes(), cache.evictions()),
            (3, 3 * charge, 0)
        );
        // Using variant 0 leaves variant 1 the least recently used: the
        // fourth program evicts it, and variant 0 still hits.
        compile(0);
        compile(3);
        assert_eq!((cache.entries(), cache.evictions()), (3, 1));
        let misses = cache.misses();
        compile(0);
        assert_eq!(cache.misses(), misses);
        // Variant 1 recompiles (evicting variant 2), and the fresh program
        // evolves bit for bit like the evicted one.
        let again = compile(1);
        assert_eq!((cache.misses(), cache.evictions()), (misses + 1, 2));
        assert!(cache.bytes() <= 3 * charge);
        assert!(!Arc::ptr_eq(&first[1], &again));
        let sim = DensityMatrixSimulator::new();
        let bits = |p: &CompiledDensityProgram| -> Vec<(u64, u64)> {
            let rho = sim.evolve_compiled(p).unwrap();
            rho.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_eq!(bits(&first[1]), bits(&again));
        assert_eq!(
            sim.run_compiled(&first[1], 1024, 5).unwrap(),
            sim.run_compiled(&again, 1024, 5).unwrap()
        );
    }

    #[test]
    fn program_larger_than_the_cap_is_returned_uncached() {
        let cache = ProgramCache::with_capacity(1024);
        let program = cache
            .compile_density(&ghz(3), &NoiseModel::ideal(), 1)
            .unwrap();
        assert_eq!(program.num_qubits(), 3);
        assert_eq!((cache.entries(), cache.bytes(), cache.misses()), (0, 0, 1));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ProgramCache::new();
        let mut wide = Circuit::new(25);
        wide.x(0);
        wide.measure_all();
        assert!(cache.compile_statevector(&wide).is_err());
        assert!(cache.compile_statevector(&wide).is_err());
        assert_eq!(cache.entries(), 0);
    }
}
