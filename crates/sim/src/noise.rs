//! Noise channels and device presets.
//!
//! The paper's §IX-B experiments run on the 15-qubit *ibmq-melbourne*
//! machine. We substitute a parameterised Kraus-channel noise model applied
//! by the density-matrix simulator: depolarizing error after every gate,
//! amplitude/phase damping per gate duration, and a symmetric readout
//! bit-flip at measurement. [`DevicePreset::melbourne_like`] fixes the
//! constants in the regime of that device's published calibrations
//! (single-qubit error ≈ 0.1%, CX error ≈ 2–3%, readout error ≈ 4%).
//!
//! Which channels follow a gate is decided once, by `GateNoise`, for both
//! compiled noisy engines (density and trajectory). The density walker in
//! [`crate::density`] keeps its own copy: it is the independent reference
//! those engines are tested against.

use crate::SimError;
use qra_math::{CMatrix, C64};
use std::fmt;
use std::str::FromStr;

/// A Kraus channel: a set of matrices `{K_i}` with `Σ K_i† K_i = I`.
#[derive(Debug, Clone)]
pub struct KrausChannel {
    operators: Vec<CMatrix>,
}

impl KrausChannel {
    /// Builds a channel after validating the completeness relation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Math`] on shape problems and
    /// [`SimError::InvalidProbability`] when `Σ K†K` deviates from `I`.
    pub fn new(operators: Vec<CMatrix>) -> Result<Self, SimError> {
        let dim = operators
            .first()
            .map(CMatrix::rows)
            .ok_or(SimError::InvalidProbability { value: 0.0 })?;
        let mut sum = CMatrix::zeros(dim, dim);
        for k in &operators {
            sum = sum.add(&k.adjoint().mul(k)?)?;
        }
        let dev = sum.max_abs_diff(&CMatrix::identity(dim));
        if dev > 1e-8 {
            return Err(SimError::InvalidProbability { value: dev });
        }
        Ok(Self { operators })
    }

    /// The Kraus operators.
    pub fn operators(&self) -> &[CMatrix] {
        &self.operators
    }

    /// When every operator is a scaled unitary `√wᵢ·Uᵢ` (as in
    /// depolarizing/Pauli channels), returns the state-independent branch
    /// weights `wᵢ` — letting trajectory simulators sample a branch without
    /// trial applications. Returns `None` for state-dependent channels
    /// (amplitude/phase damping).
    pub fn scaled_unitary_weights(&self) -> Option<Vec<f64>> {
        let mut weights = Vec::with_capacity(self.operators.len());
        for k in &self.operators {
            let product = k.adjoint().mul(k).ok()?;
            let w = product.get(0, 0).re;
            let scaled_id = CMatrix::identity(k.rows()).scale(C64::from(w));
            if product.max_abs_diff(&scaled_id) > 1e-10 {
                return None;
            }
            weights.push(w);
        }
        Some(weights)
    }

    /// Single-qubit depolarizing channel with error probability `p`:
    /// with probability `p` the qubit is replaced by the maximally mixed
    /// state (implemented via uniform X/Y/Z errors at `p/4` each... the
    /// standard Kraus form `√(1−3p/4)·I, √(p/4)·{X,Y,Z}`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNoiseParameter`] for `p ∉ [0, 1]`.
    pub fn depolarizing_1q(p: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(SimError::InvalidNoiseParameter {
                name: "depolarizing p",
                value: p,
            });
        }
        let x = CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let y = CMatrix::new(
            2,
            2,
            vec![
                C64::zero(),
                C64::new(0.0, -1.0),
                C64::new(0.0, 1.0),
                C64::zero(),
            ],
        );
        let z = CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let k0 = CMatrix::identity(2).scale(C64::from((1.0 - 3.0 * p / 4.0).sqrt()));
        let s = C64::from((p / 4.0).sqrt());
        Self::new(vec![k0, x.scale(s), y.scale(s), z.scale(s)])
    }

    /// Two-qubit depolarizing channel with error probability `p`
    /// (15 non-identity two-qubit Paulis at `p/16` each).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNoiseParameter`] for `p ∉ [0, 1]`.
    pub fn depolarizing_2q(p: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(SimError::InvalidNoiseParameter {
                name: "depolarizing p",
                value: p,
            });
        }
        let paulis = [
            CMatrix::identity(2),
            CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]),
            CMatrix::new(
                2,
                2,
                vec![
                    C64::zero(),
                    C64::new(0.0, -1.0),
                    C64::new(0.0, 1.0),
                    C64::zero(),
                ],
            ),
            CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]),
        ];
        let mut ops = Vec::with_capacity(16);
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate() {
                let weight = if i == 0 && j == 0 {
                    (1.0 - 15.0 * p / 16.0).sqrt()
                } else {
                    (p / 16.0).sqrt()
                };
                ops.push(a.kron(b).scale(C64::from(weight)));
            }
        }
        Self::new(ops)
    }

    /// Amplitude-damping channel with decay probability `gamma`
    /// (`|1⟩ → |0⟩` relaxation, the T1 process).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNoiseParameter`] for `gamma ∉ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&gamma) {
            return Err(SimError::InvalidNoiseParameter {
                name: "gamma",
                value: gamma,
            });
        }
        let k0 = CMatrix::new(
            2,
            2,
            vec![
                C64::one(),
                C64::zero(),
                C64::zero(),
                C64::from((1.0 - gamma).sqrt()),
            ],
        );
        let k1 = CMatrix::new(
            2,
            2,
            vec![
                C64::zero(),
                C64::from(gamma.sqrt()),
                C64::zero(),
                C64::zero(),
            ],
        );
        Self::new(vec![k0, k1])
    }

    /// Phase-damping channel with dephasing probability `lambda`
    /// (the pure-T2 process).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNoiseParameter`] for `lambda ∉ [0, 1]`.
    pub fn phase_damping(lambda: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&lambda) {
            return Err(SimError::InvalidNoiseParameter {
                name: "lambda",
                value: lambda,
            });
        }
        let k0 = CMatrix::new(
            2,
            2,
            vec![
                C64::one(),
                C64::zero(),
                C64::zero(),
                C64::from((1.0 - lambda).sqrt()),
            ],
        );
        let k1 = CMatrix::new(
            2,
            2,
            vec![
                C64::zero(),
                C64::zero(),
                C64::zero(),
                C64::from(lambda.sqrt()),
            ],
        );
        Self::new(vec![k0, k1])
    }
}

/// Gate-level noise model applied by the density-matrix simulator.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Depolarizing probability after each single-qubit gate.
    pub depol_1q: f64,
    /// Depolarizing probability after each two-qubit gate (applied jointly).
    pub depol_2q: f64,
    /// Amplitude-damping probability per single-qubit gate slot.
    pub damping_1q: f64,
    /// Amplitude-damping probability per two-qubit gate slot (per qubit).
    pub damping_2q: f64,
    /// Phase-damping probability per gate slot (per qubit).
    pub dephasing: f64,
    /// Probability of reading `1` when the qubit is `0`.
    pub readout_p01: f64,
    /// Probability of reading `0` when the qubit is `1` (usually larger —
    /// the paper's rationale for using `|0⟩` as the no-error outcome).
    pub readout_p10: f64,
}

impl NoiseModel {
    /// A noiseless model (all parameters zero).
    pub fn ideal() -> Self {
        Self {
            depol_1q: 0.0,
            depol_2q: 0.0,
            damping_1q: 0.0,
            damping_2q: 0.0,
            dephasing: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
        }
    }

    /// Validates all parameters lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNoiseParameter`] naming the bad field.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("depol_1q", self.depol_1q),
            ("depol_2q", self.depol_2q),
            ("damping_1q", self.damping_1q),
            ("damping_2q", self.damping_2q),
            ("dephasing", self.dephasing),
            ("readout_p01", self.readout_p01),
            ("readout_p10", self.readout_p10),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SimError::InvalidNoiseParameter { name, value: v });
            }
        }
        Ok(())
    }

    /// Returns this model with every rate multiplied by `factor`, clamped
    /// so the result always passes [`NoiseModel::validate`]: gate-error
    /// rates (depolarizing, damping, dephasing) saturate at `1.0`, readout
    /// flip rates at `0.5`.
    ///
    /// Readout saturates lower because a symmetric bit-flip probability past
    /// `0.5` stops modelling a *degraded* readout and starts inverting it —
    /// the wrong outcome becomes the likely one, so measured error rates
    /// would improve again as the scale grows, breaking the monotonicity a
    /// noise sweep relies on. Gate channels have no such inversion point:
    /// at `1.0` they are simply maximally noisy.
    ///
    /// Non-finite products (a NaN or infinite factor) clamp to the
    /// zero/ideal end rather than producing a model `validate` rejects.
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |rate: f64, cap: f64| {
            let v = rate * factor;
            if v.is_nan() {
                0.0
            } else {
                v.clamp(0.0, cap)
            }
        };
        Self {
            depol_1q: scale(self.depol_1q, 1.0),
            depol_2q: scale(self.depol_2q, 1.0),
            damping_1q: scale(self.damping_1q, 1.0),
            damping_2q: scale(self.damping_2q, 1.0),
            dephasing: scale(self.dephasing, 1.0),
            readout_p01: scale(self.readout_p01, 0.5),
            readout_p10: scale(self.readout_p10, 0.5),
        }
    }

    /// Returns `true` when every parameter is zero.
    pub fn is_ideal(&self) -> bool {
        self.depol_1q == 0.0
            && self.depol_2q == 0.0
            && self.damping_1q == 0.0
            && self.damping_2q == 0.0
            && self.dephasing == 0.0
            && self.readout_p01 == 0.0
            && self.readout_p10 == 0.0
    }
}

/// The five gate-noise channels of a [`NoiseModel`], each lowered once by
/// the engine that applies them (`None` where the rate is zero), and the
/// schedule of which follow a gate.
pub(crate) struct GateNoise<T> {
    depol_1q: Option<T>,
    depol_2q: Option<T>,
    damping_1q: Option<T>,
    damping_2q: Option<T>,
    dephasing: Option<T>,
}

impl<T> GateNoise<T> {
    /// Builds every channel whose rate is positive and lowers it.
    pub(crate) fn lower(
        noise: &NoiseModel,
        mut lower: impl FnMut(KrausChannel) -> T,
    ) -> Result<Self, SimError> {
        let mut build = |p: f64, ctor: fn(f64) -> Result<KrausChannel, SimError>| {
            Ok::<_, SimError>(if p > 0.0 { Some(lower(ctor(p)?)) } else { None })
        };
        Ok(GateNoise {
            depol_1q: build(noise.depol_1q, KrausChannel::depolarizing_1q)?,
            depol_2q: build(noise.depol_2q, KrausChannel::depolarizing_2q)?,
            damping_1q: build(noise.damping_1q, KrausChannel::amplitude_damping)?,
            damping_2q: build(noise.damping_2q, KrausChannel::amplitude_damping)?,
            dephasing: build(noise.dephasing, KrausChannel::phase_damping)?,
        })
    }

    /// Calls `site(channel, qubits)` for each channel that follows a gate
    /// on `qubits`, in application order. After a one-qubit gate:
    /// depolarizing, damping, dephasing. After a wider gate: two-qubit
    /// depolarizing on each consecutive qubit pair, then damping and
    /// dephasing on each qubit.
    pub(crate) fn after_gate(&self, qubits: &[usize], mut site: impl FnMut(&T, &[usize])) {
        let mut push = |channel: &Option<T>, qubits: &[usize]| {
            if let Some(channel) = channel {
                site(channel, qubits);
            }
        };
        if qubits.len() == 1 {
            push(&self.depol_1q, qubits);
            push(&self.damping_1q, qubits);
            push(&self.dephasing, qubits);
        } else {
            for pair in qubits.windows(2) {
                push(&self.depol_2q, pair);
            }
            for q in qubits.chunks(1) {
                push(&self.damping_2q, q);
                push(&self.dephasing, q);
            }
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Pre-calibrated device noise profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePreset {
    /// No noise — Qiskit Aer's ideal qasm simulator.
    Ideal,
    /// Calibrated to the error regime of the 15-qubit ibmq-melbourne device
    /// the paper used in §IX-B (see DESIGN.md for the substitution note).
    MelbourneLike,
    /// A lighter-noise device for ablation sweeps.
    LowNoise,
}

impl DevicePreset {
    /// Every preset, in canonical order.
    pub const ALL: [DevicePreset; 3] = [
        DevicePreset::Ideal,
        DevicePreset::LowNoise,
        DevicePreset::MelbourneLike,
    ];

    /// Canonical short name, as accepted by [`DevicePreset::from_str`] and
    /// used by the CLI and the bench binaries.
    pub fn name(self) -> &'static str {
        match self {
            DevicePreset::Ideal => "ideal",
            DevicePreset::LowNoise => "low",
            DevicePreset::MelbourneLike => "melbourne",
        }
    }

    /// The canonical preset names, for error messages and usage text.
    pub fn variants() -> Vec<&'static str> {
        DevicePreset::ALL.iter().map(|p| p.name()).collect()
    }

    /// The noise model for this preset.
    pub fn noise_model(self) -> NoiseModel {
        match self {
            DevicePreset::Ideal => NoiseModel::ideal(),
            DevicePreset::MelbourneLike => NoiseModel {
                depol_1q: 0.0035,
                depol_2q: 0.035,
                damping_1q: 0.001,
                damping_2q: 0.004,
                dephasing: 0.002,
                readout_p01: 0.035,
                readout_p10: 0.055,
            },
            DevicePreset::LowNoise => NoiseModel {
                depol_1q: 0.0005,
                depol_2q: 0.005,
                damping_1q: 0.0002,
                damping_2q: 0.0008,
                dephasing: 0.0004,
                readout_p01: 0.008,
                readout_p10: 0.012,
            },
        }
    }

    /// Convenience constructor for the paper's §IX-B device substitute.
    pub fn melbourne_like() -> NoiseModel {
        DevicePreset::MelbourneLike.noise_model()
    }
}

impl fmt::Display for DevicePreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl FromStr for DevicePreset {
    type Err = SimError;

    /// Parses a preset name, case-insensitively; the long enum-style names
    /// (`low-noise`, `melbourne-like`) are accepted as aliases so CLI flags
    /// and config files can use either spelling.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ideal" | "none" => Ok(DevicePreset::Ideal),
            "low" | "low-noise" | "lownoise" => Ok(DevicePreset::LowNoise),
            "melbourne" | "melbourne-like" | "melbournelike" => Ok(DevicePreset::MelbourneLike),
            other => Err(SimError::UnknownPreset {
                name: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depolarizing_channels_are_trace_preserving() {
        for p in [0.0, 0.01, 0.5, 1.0] {
            assert!(KrausChannel::depolarizing_1q(p).is_ok());
            assert!(KrausChannel::depolarizing_2q(p).is_ok());
        }
        assert!(KrausChannel::depolarizing_1q(1.5).is_err());
        assert!(KrausChannel::depolarizing_2q(-0.1).is_err());
    }

    #[test]
    fn damping_channels_are_trace_preserving() {
        for g in [0.0, 0.3, 1.0] {
            assert!(KrausChannel::amplitude_damping(g).is_ok());
            assert!(KrausChannel::phase_damping(g).is_ok());
        }
        assert!(KrausChannel::amplitude_damping(2.0).is_err());
        assert!(KrausChannel::phase_damping(-1.0).is_err());
    }

    #[test]
    fn kraus_validation_rejects_incomplete_sets() {
        let half = CMatrix::identity(2).scale(C64::from(0.5));
        assert!(KrausChannel::new(vec![half]).is_err());
        assert!(KrausChannel::new(vec![]).is_err());
    }

    #[test]
    fn noise_model_validation() {
        assert!(NoiseModel::ideal().validate().is_ok());
        assert!(NoiseModel::ideal().is_ideal());
        let mut m = DevicePreset::melbourne_like();
        assert!(m.validate().is_ok());
        assert!(!m.is_ideal());
        m.readout_p10 = 1.2;
        assert!(m.validate().is_err());
    }

    #[test]
    fn noise_model_validation_rejects_nan_and_out_of_range() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.001, 1.001] {
            let mut m = NoiseModel::ideal();
            m.depol_2q = bad;
            assert!(m.validate().is_err(), "depol_2q={bad} must be rejected");
            let mut m = NoiseModel::ideal();
            m.readout_p01 = bad;
            assert!(m.validate().is_err(), "readout_p01={bad} must be rejected");
        }
        // The error names the offending field.
        let mut m = NoiseModel::ideal();
        m.dephasing = f64::NAN;
        match m.validate() {
            Err(SimError::InvalidNoiseParameter { name, .. }) => assert_eq!(name, "dephasing"),
            other => panic!("expected InvalidNoiseParameter, got {other:?}"),
        }
    }

    #[test]
    fn scaled_clamps_gate_rates_at_one_and_readout_at_half() {
        let base = DevicePreset::melbourne_like();
        // Large factors saturate every channel but stay valid.
        for factor in [1000.0, 1e6, f64::INFINITY] {
            let m = base.scaled(factor);
            assert!(m.validate().is_ok(), "factor {factor} must stay valid");
            assert_eq!(m.depol_1q, 1.0);
            assert_eq!(m.depol_2q, 1.0);
            assert_eq!(m.damping_2q, 1.0);
            assert_eq!(m.readout_p01, 0.5, "readout must saturate at 0.5");
            assert_eq!(m.readout_p10, 0.5, "readout must saturate at 0.5");
        }
        // Identity and zero factors behave as expected.
        let m = base.scaled(1.0);
        assert_eq!(m.depol_2q, base.depol_2q);
        assert_eq!(m.readout_p10, base.readout_p10);
        assert!(base.scaled(0.0).is_ideal());
        // Pathological factors clamp to the ideal end, never to an invalid model.
        assert!(base.scaled(-3.0).is_ideal());
        assert!(base.scaled(f64::NAN).is_ideal());
        assert!(base.scaled(f64::NAN).validate().is_ok());
        // Below saturation the scaling is exact.
        let m = base.scaled(2.0);
        assert!((m.depol_2q - 2.0 * base.depol_2q).abs() < 1e-15);
        assert!((m.readout_p10 - 2.0 * base.readout_p10).abs() < 1e-15);
    }

    #[test]
    fn preset_names_round_trip_through_from_str() {
        for preset in DevicePreset::ALL {
            assert_eq!(preset.name().parse::<DevicePreset>().unwrap(), preset);
            assert_eq!(preset.to_string(), preset.name());
        }
        assert_eq!(
            "Melbourne-Like".parse::<DevicePreset>().unwrap(),
            DevicePreset::MelbourneLike
        );
        assert_eq!(
            " low-noise ".parse::<DevicePreset>().unwrap(),
            DevicePreset::LowNoise
        );
        let e = "hot".parse::<DevicePreset>().unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("hot") && msg.contains("melbourne"), "{msg}");
        assert_eq!(DevicePreset::variants(), vec!["ideal", "low", "melbourne"]);
    }

    #[test]
    fn presets_are_ordered_by_noise() {
        let mel = DevicePreset::MelbourneLike.noise_model();
        let low = DevicePreset::LowNoise.noise_model();
        assert!(mel.depol_2q > low.depol_2q);
        assert!(mel.readout_p10 > low.readout_p10);
        assert!(DevicePreset::Ideal.noise_model().is_ideal());
    }

    #[test]
    fn readout_asymmetry_matches_paper_rationale() {
        // §III: "|1⟩ has higher measurement error and may decay into |0⟩" —
        // the preset must keep p(1→0) > p(0→1).
        let m = DevicePreset::melbourne_like();
        assert!(m.readout_p10 > m.readout_p01);
    }
}
