//! Compiled-program cache keyed by a circuit FNV-1a fingerprint.
//!
//! Lowering a circuit ([`CompiledProgram::compile`] /
//! [`CompiledDensityProgram::compile`]) is a pure, RNG-free pass, so a
//! compiled program may be shared freely between runs: executing a cached
//! program is bit-for-bit identical to compiling fresh. [`ProgramCache`]
//! exploits that to let repeat circuits — streamed assertion requests,
//! calibration repeats, retried campaign cells — skip lowering entirely.
//!
//! # Keying and collision safety
//!
//! Circuits are fingerprinted by hashing a canonical byte encoding
//! (qubit/clbit counts, then per instruction the operation kind, gate
//! name, full gate matrix as `f64` bit patterns, and operand indices)
//! with FNV-1a. The 64-bit hash is only the bucket key: each cache entry
//! also stores the encoding bytes and a hit requires byte equality, so a
//! hash collision degrades to a miss, never to a wrong program. Density
//! programs bake their [`NoiseModel`] in at lowering, so their entries
//! additionally key on the noise parameters' bit patterns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qra_circuit::{Circuit, Operation};
use qra_math::fnv1a;

use crate::exec::CompiledProgram;
use crate::exec_density::CompiledDensityProgram;
use crate::noise::NoiseModel;
use crate::SimError;

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

/// Canonical byte encoding of a circuit for fingerprinting.
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

/// FNV-1a fingerprint of a circuit's canonical encoding.
///
/// Equal fingerprints *suggest* equal circuits; [`ProgramCache`] always
/// confirms with a byte comparison before reusing a program.
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    fnv1a(&encode_circuit(circuit))
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

/// FNV-1a fingerprint of a noise model's parameter bit patterns.
pub fn noise_fingerprint(noise: &NoiseModel) -> u64 {
    fnv1a(&encode_noise(noise))
}

/// One collision-guarded bucket: entries carry the canonical encoding
/// they were keyed under, compared byte-for-byte on lookup.
type Bucket<T> = Vec<(Vec<u8>, Arc<T>)>;

/// Thread-safe cache of lowered programs, shared via `Arc` between the
/// campaign runner, the sweep driver and the `qra serve` daemon.
///
/// Statevector programs key on the circuit fingerprint alone (the
/// compiled program carries its Clifford tag, so the stabilizer router
/// benefits from the same entry); density programs key on
/// `(circuit, noise)` because the noise model is baked in at lowering.
#[derive(Debug, Default)]
pub struct ProgramCache {
    statevector: Mutex<HashMap<u64, Bucket<CompiledProgram>>>,
    density: Mutex<HashMap<(u64, u64), Bucket<CompiledDensityProgram>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Returns the cached statevector program for `circuit`, compiling
    /// and inserting on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledProgram::compile`] errors; failures are not
    /// cached, so a later call retries the compile.
    pub fn compile_statevector(&self, circuit: &Circuit) -> Result<Arc<CompiledProgram>, SimError> {
        let encoding = encode_circuit(circuit);
        let key = fnv1a(&encoding);
        {
            let map = self.statevector.lock().expect("cache poisoned");
            if let Some(bucket) = map.get(&key) {
                if let Some((_, program)) = bucket.iter().find(|(enc, _)| *enc == encoding) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(program));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(CompiledProgram::compile(circuit)?);
        let mut map = self.statevector.lock().expect("cache poisoned");
        let bucket = map.entry(key).or_default();
        // A racing thread may have compiled the same circuit; keep the
        // first entry so every consumer shares one program.
        if let Some((_, existing)) = bucket.iter().find(|(enc, _)| *enc == encoding) {
            return Ok(Arc::clone(existing));
        }
        bucket.push((encoding, Arc::clone(&program)));
        Ok(program)
    }

    /// Returns the cached density program for `(circuit, noise)`,
    /// compiling and inserting on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledDensityProgram::compile`] errors; failures
    /// are not cached.
    pub fn compile_density(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
    ) -> Result<Arc<CompiledDensityProgram>, SimError> {
        let mut encoding = encode_circuit(circuit);
        encoding.extend_from_slice(&encode_noise(noise));
        let key = (fnv1a(&encoding), noise_fingerprint(noise));
        {
            let map = self.density.lock().expect("cache poisoned");
            if let Some(bucket) = map.get(&key) {
                if let Some((_, program)) = bucket.iter().find(|(enc, _)| *enc == encoding) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(program));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(CompiledDensityProgram::compile(circuit, noise)?);
        let mut map = self.density.lock().expect("cache poisoned");
        let bucket = map.entry(key).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(enc, _)| *enc == encoding) {
            return Ok(Arc::clone(existing));
        }
        bucket.push((encoding, Arc::clone(&program)));
        Ok(program)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that compiled fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of programs currently cached (statevector + density).
    pub fn entries(&self) -> usize {
        let sv: usize = self
            .statevector
            .lock()
            .expect("cache poisoned")
            .values()
            .map(Vec::len)
            .sum();
        let dm: usize = self
            .density
            .lock()
            .expect("cache poisoned")
            .values()
            .map(Vec::len)
            .sum();
        sv + dm
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
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&b));
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&c));
        assert_eq!(circuit_fingerprint(&a), circuit_fingerprint(&ghz(3)));
    }

    #[test]
    fn fingerprint_distinguishes_operands() {
        let mut a = Circuit::new(2);
        a.x(0);
        a.measure_all();
        let mut b = Circuit::new(2);
        b.x(1);
        b.measure_all();
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&b));
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
        cache.compile_density(&circuit, &ideal).unwrap();
        cache.compile_density(&circuit, &noisy).unwrap();
        cache.compile_density(&circuit, &ideal).unwrap();
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
        let program = cache.compile_density(&circuit, &noise).unwrap();
        let cached = sim.run_compiled(&program, 4096, 11).unwrap();
        assert_eq!(fresh, cached);
        assert_eq!(cache.misses(), 1);
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
