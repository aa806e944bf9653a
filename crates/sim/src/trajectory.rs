//! Monte-Carlo (quantum trajectory) noisy simulation.
//!
//! The density-matrix back-end is exact but scales as `4ⁿ`; the trajectory
//! simulator instead samples one Kraus operator per channel application on
//! a state vector (`2ⁿ`), trading exactness for width. Averaged over
//! shots, trajectories converge to the density-matrix distribution —
//! `tests/integration_noise.rs` and the module tests verify the agreement.
//!
//! Like the state-vector back-end, the trajectory loop runs compiled: the
//! circuit is lowered once per run call — every gate and every Kraus
//! operator of every noise site becomes a specialized [`Kernel`] bound to
//! its qubit tuple — and shots replay the lowered plan. Which channels
//! follow a gate comes from the gate-noise schedule the compiled density
//! engine uses too (`noise::GateNoise`). When no gate-level
//! noise channel is active (each gate op carries zero noise sites), the
//! leading unitary run is evolved once and cloned into each shot.
//!
//! Shot `s` draws only from its own generator, seeded by
//! [`derive_shot_seed`](crate::threads::derive_shot_seed)`(seed, s)`: one
//! draw per Kraus choice, collapse and readout flip, in program order.
//! [`TrajectorySimulator::run`] splits the shots into contiguous ranges
//! over its threads ([`run_shot_ranges`]), so the histogram is identical
//! at every thread count.

use crate::exec::MAX_CLBITS;
use crate::noise::{GateNoise, KrausChannel, NoiseModel};
use crate::statevector::collapse_mask;
use crate::threads::{resolve_threads, run_shot_ranges};
use crate::{Counts, SimError};
use qra_circuit::kernel::Kernel;
use qra_circuit::{Circuit, Gate, Operation};
use qra_math::{CVector, C64};
use rand::rngs::StdRng;
use rand::Rng;

/// Maximum supported width — unified with the compiled state-vector
/// engine's ceiling ([`crate::exec::MAX_QUBITS`]): both back-ends walk a
/// `2ⁿ` state vector, so they share one limit. (The density back-end
/// keeps its own, lower ceiling because it squares the register; see
/// [`crate::exec_density::MAX_QUBITS`].)
pub use crate::exec::MAX_QUBITS;

/// A shot-by-shot noisy simulator using quantum trajectories.
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::{DevicePreset, TrajectorySimulator};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// bell.measure_all();
/// let sim = TrajectorySimulator::new(DevicePreset::melbourne_like(), 5);
/// let counts = sim.run(&bell, 2048)?;
/// // Noise leaks some probability into the odd-parity outcomes.
/// assert!(counts.frequency("01").unwrap() + counts.frequency("10").unwrap() > 0.0);
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct TrajectorySimulator {
    noise: NoiseModel,
    /// Base seed of every shot's generator.
    seed: u64,
    /// Thread budget: amplitude threads for the prefix, shot-range workers
    /// for the shots. `1` = sequential.
    threads: usize,
}

/// The state and scratch buffers of one shot worker. Each concurrent shot
/// range gets its own instance, so no buffer is ever shared across
/// concurrently running applications.
#[derive(Debug)]
struct ShotBuffers {
    /// The shot's state, reset to the prefix before each shot.
    state: CVector,
    /// Full-dimension buffer for trial Kraus applications.
    scratch: Vec<C64>,
    /// Sub-block buffer for kernel applications.
    kscratch: Vec<C64>,
    /// Amplitude threads for this worker's kernel sweeps.
    threads: usize,
}

/// One lowered instruction of the trajectory plan.
#[derive(Debug)]
enum TrajOp {
    /// A gate kernel followed by its noise sites in interpreter order.
    Gate {
        kernel: Kernel,
        noise: Vec<NoiseSite>,
    },
    /// Collapse + readout confusion, updating `clbit_bit` in the key.
    Measure { mask: usize, clbit_bit: u64 },
    /// Collapse; apply `flip` (a lowered X) on `|1⟩`.
    Reset { mask: usize, flip: Kernel },
}

/// One channel application point: every Kraus operator pre-lowered to the
/// site's qubit tuple, plus the state-independent weights when the channel
/// is scaled-unitary.
#[derive(Debug)]
struct NoiseSite {
    kernels: Vec<Kernel>,
    /// `Some` for scaled-unitary channels (depolarizing): sample a branch
    /// from fixed weights, one application, no trial states.
    weights: Option<Vec<f64>>,
}

/// A circuit lowered once for trajectory replay: the noise-free leading
/// run already evolved into `prefix`, the remaining ops in `suffix`.
#[derive(Debug)]
struct TrajPlan {
    prefix: CVector,
    suffix: Vec<TrajOp>,
    num_clbits: usize,
}

impl TrajectorySimulator {
    /// Creates a trajectory simulator with the given noise model and seed.
    pub fn new(noise: NoiseModel, seed: u64) -> Self {
        Self {
            noise,
            seed,
            threads: 1,
        }
    }

    /// Sets the worker-thread budget: amplitude threads for the noise-free
    /// prefix, then shot-range workers for the shots. `0` resolves to one
    /// worker per available core. Results are bit-for-bit identical at
    /// every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads).0;
        self
    }

    /// The resolved worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Runs `shots` independent noisy trajectories and histograms the
    /// classical outcomes.
    ///
    /// Shot `s` draws from its own generator, seeded from `(seed, s)`, and
    /// the shots split into contiguous ranges over the thread budget, so
    /// the histogram for a given seed is the same at every thread count.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond [`MAX_QUBITS`];
    /// * [`SimError::TooManyClbits`] beyond [`MAX_CLBITS`];
    /// * [`SimError::InvalidNoiseParameter`] for a bad model;
    /// * [`SimError::Circuit`] for invalid circuits.
    pub fn run(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        let plan = self.lower(circuit)?;
        let worker = |threads| ShotBuffers {
            state: plan.prefix.clone(),
            scratch: Vec::new(),
            kscratch: Vec::new(),
            threads,
        };
        let shot = |buf: &mut ShotBuffers, rng: &mut StdRng| {
            buf.state
                .as_mut_slice()
                .copy_from_slice(plan.prefix.as_slice());
            run_shot(&plan.suffix, &self.noise, rng, buf)
        };
        run_shot_ranges(
            self.seed,
            shots,
            self.threads,
            plan.num_clbits,
            worker,
            shot,
        )
    }

    /// Validates the model and width, then lowers the circuit into a
    /// replayable plan with its noise-free prefix already evolved.
    fn lower(&self, circuit: &Circuit) -> Result<TrajPlan, SimError> {
        self.noise.validate()?;
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
        let gate_noise = GateNoise::lower(&self.noise, |channel| PreparedChannel {
            unitary_weights: channel.scaled_unitary_weights(),
            channel,
        })?;

        // Lower the circuit once: gates and Kraus operators become kernels
        // bound to their qubit tuples, in the exact application order of
        // the former per-shot interpreter.
        let mut plan: Vec<TrajOp> = Vec::new();
        for inst in circuit.instructions() {
            match &inst.operation {
                Operation::Barrier => {}
                Operation::Gate(g) => {
                    let kernel = Kernel::for_gate(g, &inst.qubits, n);
                    let mut noise = Vec::new();
                    gate_noise.after_gate(&inst.qubits, |prep, qubits| {
                        noise.push(NoiseSite {
                            kernels: prep
                                .channel
                                .operators()
                                .iter()
                                .map(|k| Kernel::from_matrix(k, qubits, n))
                                .collect(),
                            weights: prep.unitary_weights.clone(),
                        })
                    });
                    plan.push(TrajOp::Gate { kernel, noise });
                }
                Operation::Measure => plan.push(TrajOp::Measure {
                    mask: 1usize << (n - 1 - inst.qubits[0]),
                    clbit_bit: 1u64 << inst.clbits[0],
                }),
                Operation::Reset => {
                    let q = inst.qubits[0];
                    plan.push(TrajOp::Reset {
                        mask: 1usize << (n - 1 - q),
                        flip: Kernel::for_gate(&Gate::X, &[q], n),
                    });
                }
            }
        }
        // A gate op with no noise sites is deterministic and draws no RNG,
        // so the leading run of such ops can be evolved once and cloned
        // into every shot without disturbing the draw sequence.
        let prefix_len = plan
            .iter()
            .position(|op| !matches!(op, TrajOp::Gate { kernel: _, noise } if noise.is_empty()))
            .unwrap_or(plan.len());

        let mut prefix = CVector::basis_state(1usize << n, 0);
        let mut scratch = Vec::new();
        for op in &plan[..prefix_len] {
            if let TrajOp::Gate { kernel, .. } = op {
                kernel.apply_threaded(prefix.as_mut_slice(), &mut scratch, self.threads);
            }
        }
        let suffix = plan.split_off(prefix_len);
        Ok(TrajPlan {
            prefix,
            suffix,
            num_clbits: circuit.num_clbits(),
        })
    }
}

/// Replays the plan suffix for one shot on `buf.state` (already reset to
/// the prefix), drawing from `rng` and using only `buf`'s scratch space.
/// Returns the classical outcome key.
fn run_shot(
    suffix: &[TrajOp],
    noise: &NoiseModel,
    rng: &mut StdRng,
    buf: &mut ShotBuffers,
) -> Result<u64, SimError> {
    let mut key = 0u64;
    for op in suffix {
        match op {
            TrajOp::Gate {
                kernel,
                noise: sites,
            } => {
                kernel.apply_threaded(buf.state.as_mut_slice(), &mut buf.kscratch, buf.threads);
                for site in sites {
                    apply_site(site, rng, buf)?;
                }
            }
            TrajOp::Measure { mask, clbit_bit } => {
                let mut bit = collapse_mask(&mut buf.state, *mask, rng)?;
                // Readout confusion.
                let flip = if bit == 1 {
                    noise.readout_p10
                } else {
                    noise.readout_p01
                };
                if flip > 0.0 && rng.gen_range(0.0..1.0) < flip {
                    bit ^= 1;
                }
                if bit == 1 {
                    key |= clbit_bit;
                } else {
                    key &= !clbit_bit;
                }
            }
            TrajOp::Reset { mask, flip } => {
                if collapse_mask(&mut buf.state, *mask, rng)? == 1 {
                    flip.apply_threaded(buf.state.as_mut_slice(), &mut buf.kscratch, buf.threads);
                }
            }
        }
    }
    Ok(key)
}

/// Samples one Kraus branch of a noise site and applies it to
/// `buf.state` (renormalised).
///
/// Scaled-unitary channels (depolarizing) use state-independent
/// weights: one draw, one in-place application, no clones. Damping
/// channels fall back to trial applications on a reusable buffer.
fn apply_site(site: &NoiseSite, rng: &mut StdRng, buf: &mut ShotBuffers) -> Result<(), SimError> {
    let state = &mut buf.state;
    if let Some(weights) = &site.weights {
        let mut r = rng.gen_range(0.0..1.0);
        let mut chosen = site.kernels.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                chosen = i;
                break;
            }
            r -= w;
        }
        site.kernels[chosen].apply_threaded(state.as_mut_slice(), &mut buf.kscratch, buf.threads);
        // Undo the √w scaling to keep unit norm.
        let w = weights[chosen];
        if (w - 1.0).abs() > 1e-15 {
            let inv = C64::from(1.0 / w.sqrt());
            for amp in state.as_mut_slice() {
                *amp *= inv;
            }
        }
        return Ok(());
    }
    // State-dependent branch probabilities p_i = ‖K_i ψ‖²; a reusable
    // scratch buffer holds the trial application (no per-trial allocs).
    let mut r = rng.gen_range(0.0..1.0);
    let dim = state.len();
    if buf.scratch.len() != dim {
        buf.scratch = vec![C64::zero(); dim];
    }
    for (i, k) in site.kernels.iter().enumerate() {
        buf.scratch.copy_from_slice(state.as_slice());
        let mut candidate = CVector::new(std::mem::take(&mut buf.scratch));
        k.apply_threaded(candidate.as_mut_slice(), &mut buf.kscratch, buf.threads);
        let norm = candidate.norm();
        let p = norm * norm;
        if r < p || i == site.kernels.len() - 1 {
            if norm < 1e-12 {
                // Numerically dead branch; keep the state unchanged.
                buf.scratch = candidate.into_inner();
                return Ok(());
            }
            let inv = C64::from(1.0 / norm);
            for amp in candidate.as_mut_slice() {
                *amp *= inv;
            }
            buf.scratch = std::mem::replace(state, candidate).into_inner();
            return Ok(());
        }
        r -= p;
        buf.scratch = candidate.into_inner();
    }
    Ok(())
}

/// A channel with its precomputed sampling strategy.
#[derive(Debug)]
struct PreparedChannel {
    channel: KrausChannel,
    /// `Some` for scaled-unitary channels (state-independent weights).
    unitary_weights: Option<Vec<f64>>,
}

// Kernels only perform the linear application, so Kraus operators
// (non-unitary) lower and apply unchanged.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::DevicePreset;
    use crate::DensityMatrixSimulator;

    fn ghz_measured() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        c.measure_all();
        c
    }

    #[test]
    fn noiseless_trajectories_match_ideal() {
        let sim = TrajectorySimulator::new(NoiseModel::ideal(), 3);
        let counts = sim.run(&ghz_measured(), 4096).unwrap();
        let p = counts.frequency("000").unwrap() + counts.frequency("111").unwrap();
        assert!((p - 1.0).abs() < 1e-9, "ideal trajectories must be exact");
    }

    #[test]
    fn trajectory_matches_density_distribution() {
        // Compare total variation between trajectory histogram and the
        // exact noisy distribution — must vanish within sampling error.
        let circuit = ghz_measured();
        let noise = DevicePreset::melbourne_like();
        let exact = DensityMatrixSimulator::with_noise(noise.clone())
            .outcome_distribution(&circuit)
            .unwrap();
        let shots = 20_000u64;
        let sim = TrajectorySimulator::new(noise, 7);
        let counts = sim.run(&circuit, shots).unwrap();
        let mut tv = 0.0;
        for (key, p_exact) in &exact {
            let p_meas = counts.count(*key) as f64 / shots as f64;
            tv += (p_exact - p_meas).abs();
        }
        tv /= 2.0;
        assert!(tv < 0.02, "trajectory/density TV distance too large: {tv}");
    }

    #[test]
    fn readout_error_applies() {
        let mut noise = NoiseModel::ideal();
        noise.readout_p10 = 0.3;
        let mut c = Circuit::new(1);
        c.x(0);
        c.measure_all();
        let sim = TrajectorySimulator::new(noise, 11);
        let counts = sim.run(&c, 8192).unwrap();
        let p0 = counts.frequency("0").unwrap();
        assert!((p0 - 0.3).abs() < 0.03, "p0 = {p0}");
    }

    #[test]
    fn damping_relaxes_population() {
        let mut noise = NoiseModel::ideal();
        noise.damping_1q = 0.1;
        let mut c = Circuit::new(1);
        c.x(0);
        for _ in 0..20 {
            c.rz(0.0, 0);
        }
        c.measure_all();
        let sim = TrajectorySimulator::new(noise, 13);
        let counts = sim.run(&c, 4096).unwrap();
        assert!(
            counts.frequency("1").unwrap() < 0.3,
            "20 damping slots must relax |1⟩: p1 = {}",
            counts.frequency("1").unwrap()
        );
    }

    #[test]
    fn seeded_runs_reproduce() {
        let noise = DevicePreset::melbourne_like();
        let a = TrajectorySimulator::new(noise.clone(), 5)
            .run(&ghz_measured(), 512)
            .unwrap();
        let b = TrajectorySimulator::new(noise, 5)
            .run(&ghz_measured(), 512)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_runs_draw_the_same_shots() {
        // The simulator keeps a seed, not a stream: a second run on the
        // same simulator repeats the first.
        let sim = TrajectorySimulator::new(DevicePreset::melbourne_like(), 5);
        let first = sim.run(&ghz_measured(), 128).unwrap();
        assert_eq!(first, sim.run(&ghz_measured(), 128).unwrap());
    }

    #[test]
    fn rejects_invalid_noise_and_width() {
        let mut bad = NoiseModel::ideal();
        bad.depol_1q = 2.0;
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(TrajectorySimulator::new(bad, 1).run(&c, 1).is_err());
        // The width ceiling is shared with the state-vector engine (24).
        let wide = Circuit::new(MAX_QUBITS + 1);
        match TrajectorySimulator::new(NoiseModel::ideal(), 1).run(&wide, 1) {
            Err(SimError::TooManyQubits { num_qubits, max }) => {
                assert_eq!(num_qubits, MAX_QUBITS + 1);
                assert_eq!(max, MAX_QUBITS);
            }
            other => panic!("expected TooManyQubits, got {other:?}"),
        }
        // The clbit ceiling is the state-vector engine's too.
        let keys = Circuit::with_clbits(1, MAX_CLBITS + 1);
        match TrajectorySimulator::new(NoiseModel::ideal(), 1).run(&keys, 1) {
            Err(SimError::TooManyClbits { num_clbits, max }) => {
                assert_eq!(num_clbits, MAX_CLBITS + 1);
                assert_eq!(max, MAX_CLBITS);
            }
            other => panic!("expected TooManyClbits, got {other:?}"),
        }
    }

    #[test]
    fn accepts_widths_up_to_the_unified_ceiling() {
        // 21 qubits was rejected before the ceilings were unified; it must
        // lower cleanly now (validated at lowering time, before any state
        // allocation happens per-shot).
        let sim = TrajectorySimulator::new(NoiseModel::ideal(), 1);
        let c = Circuit::new(21);
        assert!(sim.lower(&c).is_ok());
    }

    #[test]
    fn scales_past_density_limit() {
        // 12 qubits saturates the density simulator's width cap.
        let mut c = Circuit::new(12);
        c.h(0);
        for q in 0..11 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        let sim = TrajectorySimulator::new(DevicePreset::LowNoise.noise_model(), 9);
        let counts = sim.run(&c, 64).unwrap();
        assert_eq!(counts.total(), 64);
    }

    #[test]
    fn readout_only_noise_uses_prefix_cache_and_reproduces() {
        // Gate channels all inactive: the unitary prefix is cached across
        // shots; readout draws must still happen per shot, in order.
        let mut noise = NoiseModel::ideal();
        noise.readout_p01 = 0.05;
        noise.readout_p10 = 0.1;
        let a = TrajectorySimulator::new(noise.clone(), 21)
            .run(&ghz_measured(), 2048)
            .unwrap();
        let b = TrajectorySimulator::new(noise, 21)
            .run(&ghz_measured(), 2048)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.total(), 2048);
    }
}
