//! Reference computations the benchmark checks the program against.
//!
//! Everything here is the benchmark's own code: a small dense state-vector
//! simulator with its own gate matrices, the exact rejection probability
//! `1 − ‖Pφ‖²` of an assertion whose asserted span has projector `P`, and
//! binomial acceptance bounds for sampled rates. Amplitude index bit
//! `n − 1 − q` holds qubit `q` (qubit 0 is the most significant bit), the
//! convention of the program's state specs.

use qra::circuit::instruction::Operation;
use qra::circuit::{Gate, Instruction};

/// A complex number, kept apart from the program's `C64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cx {
    pub re: f64,
    pub im: f64,
}

impl Cx {
    pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
    pub const ONE: Cx = Cx { re: 1.0, im: 0.0 };

    pub fn new(re: f64, im: f64) -> Cx {
        Cx { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Cx {
        Cx::new(theta.cos(), theta.sin())
    }

    fn mul(self, o: Cx) -> Cx {
        Cx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn add(self, o: Cx) -> Cx {
        Cx::new(self.re + o.re, self.im + o.im)
    }

    fn scale(self, s: f64) -> Cx {
        Cx::new(self.re * s, self.im * s)
    }

    fn conj(self) -> Cx {
        Cx::new(self.re, -self.im)
    }

    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// A one-qubit matrix `[[a, b], [c, d]]`.
pub type Mat2 = [[Cx; 2]; 2];

/// One step of a program: a one-qubit matrix on `target` under closed
/// `controls`, or a swap of two qubits under closed `controls`.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Apply {
        controls: Vec<usize>,
        target: usize,
        m: Mat2,
    },
    Swap {
        controls: Vec<usize>,
        a: usize,
        b: usize,
    },
}

fn real(a: f64, b: f64, c: f64, d: f64) -> Mat2 {
    [
        [Cx::new(a, 0.0), Cx::new(b, 0.0)],
        [Cx::new(c, 0.0), Cx::new(d, 0.0)],
    ]
}

fn diag(a: Cx, d: Cx) -> Mat2 {
    [[a, Cx::ZERO], [Cx::ZERO, d]]
}

/// Qiskit's `u3(θ, φ, λ)`.
fn u3(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        [Cx::new(c, 0.0), Cx::cis(lambda).scale(-s)],
        [Cx::cis(phi).scale(s), Cx::cis(phi + lambda).scale(c)],
    ]
}

pub fn h() -> Mat2 {
    let s = 0.5f64.sqrt();
    real(s, s, s, -s)
}

pub fn x() -> Mat2 {
    real(0.0, 1.0, 1.0, 0.0)
}

pub fn rz(theta: f64) -> Mat2 {
    diag(Cx::cis(-theta / 2.0), Cx::cis(theta / 2.0))
}

/// The one-qubit core of a gate and how many leading qubits control it.
fn gate_core(gate: &Gate) -> Result<(usize, Mat2), String> {
    let i = Cx::new(0.0, 1.0);
    let s = 0.5f64.sqrt();
    let rx = |t: f64| {
        let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
        [
            [Cx::new(c, 0.0), Cx::new(0.0, -sn)],
            [Cx::new(0.0, -sn), Cx::new(c, 0.0)],
        ]
    };
    let ry = |t: f64| {
        let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
        real(c, -sn, sn, c)
    };
    let y = [[Cx::ZERO, i.scale(-1.0)], [i, Cx::ZERO]];
    Ok(match gate {
        Gate::I => (0, real(1.0, 0.0, 0.0, 1.0)),
        Gate::X => (0, x()),
        Gate::Y => (0, y),
        Gate::Z => (0, real(1.0, 0.0, 0.0, -1.0)),
        Gate::H => (0, h()),
        Gate::S => (0, diag(Cx::ONE, i)),
        Gate::Sdg => (0, diag(Cx::ONE, i.scale(-1.0))),
        Gate::T => (0, diag(Cx::ONE, Cx::cis(std::f64::consts::FRAC_PI_4))),
        Gate::Tdg => (0, diag(Cx::ONE, Cx::cis(-std::f64::consts::FRAC_PI_4))),
        Gate::Sx => {
            let (a, b) = (Cx::new(0.5, 0.5), Cx::new(0.5, -0.5));
            (0, [[a, b], [b, a]])
        }
        Gate::Sxdg => {
            let (a, b) = (Cx::new(0.5, -0.5), Cx::new(0.5, 0.5));
            (0, [[a, b], [b, a]])
        }
        Gate::Rx(t) => (0, rx(*t)),
        Gate::Ry(t) => (0, ry(*t)),
        Gate::Rz(t) => (0, rz(*t)),
        Gate::Phase(l) => (0, diag(Cx::ONE, Cx::cis(*l))),
        Gate::U2(p, l) => (0, u3(std::f64::consts::FRAC_PI_2, *p, *l)),
        Gate::U3(t, p, l) => (0, u3(*t, *p, *l)),
        Gate::Cx => (1, x()),
        Gate::Cy => (1, y),
        Gate::Cz => (1, real(1.0, 0.0, 0.0, -1.0)),
        Gate::Ch => (1, real(s, s, s, -s)),
        Gate::Cp(l) => (1, diag(Cx::ONE, Cx::cis(*l))),
        Gate::Crx(t) => (1, rx(*t)),
        Gate::Cry(t) => (1, ry(*t)),
        Gate::Crz(t) => (1, rz(*t)),
        Gate::Cu3(t, p, l) => (1, u3(*t, *p, *l)),
        Gate::Ccx => (2, x()),
        Gate::Ccz => (2, real(1.0, 0.0, 0.0, -1.0)),
        other => return Err(format!("oracle has no matrix for gate {other:?}")),
    })
}

/// Translates a program instruction into oracle ops. Measurements and
/// barriers are skipped: the oracle works on the pre-measurement state.
pub fn ops_of(instructions: &[Instruction]) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for inst in instructions {
        let gate = match &inst.operation {
            Operation::Gate(g) => g,
            Operation::Barrier => continue,
            other => return Err(format!("oracle cannot simulate {other:?} mid-program")),
        };
        let q = &inst.qubits;
        match gate {
            Gate::Swap => ops.push(Op::Swap {
                controls: vec![],
                a: q[0],
                b: q[1],
            }),
            Gate::Cswap => ops.push(Op::Swap {
                controls: vec![q[0]],
                a: q[1],
                b: q[2],
            }),
            g => {
                let (k, m) = gate_core(g)?;
                ops.push(Op::Apply {
                    controls: q[..k].to_vec(),
                    target: q[k],
                    m,
                });
            }
        }
    }
    Ok(ops)
}

/// Runs `ops` from `|0…0⟩` on `n` qubits.
pub fn simulate(n: usize, ops: &[Op]) -> Vec<Cx> {
    let dim = 1usize << n;
    let mut amp = vec![Cx::ZERO; dim];
    amp[0] = Cx::ONE;
    let bit = |q: usize| 1usize << (n - 1 - q);
    for op in ops {
        match op {
            Op::Apply {
                controls,
                target,
                m,
            } => {
                let cmask: usize = controls.iter().map(|&c| bit(c)).sum();
                let t = bit(*target);
                for i in 0..dim {
                    if i & t != 0 || i & cmask != cmask {
                        continue;
                    }
                    let (a0, a1) = (amp[i], amp[i | t]);
                    amp[i] = m[0][0].mul(a0).add(m[0][1].mul(a1));
                    amp[i | t] = m[1][0].mul(a0).add(m[1][1].mul(a1));
                }
            }
            Op::Swap { controls, a, b } => {
                let cmask: usize = controls.iter().map(|&c| bit(c)).sum();
                let (ba, bb) = (bit(*a), bit(*b));
                for i in 0..dim {
                    if i & cmask == cmask && i & ba != 0 && i & bb == 0 {
                        amp.swap(i, i ^ ba ^ bb);
                    }
                }
            }
        }
    }
    amp
}

/// The GHZ-n preparation the benchmark's programs use: `h q[0]` and a CX
/// chain.
pub fn ghz_ops(n: usize) -> Vec<Op> {
    let mut ops = vec![Op::Apply {
        controls: vec![],
        target: 0,
        m: h(),
    }];
    for q in 0..n - 1 {
        ops.push(Op::Apply {
            controls: vec![q],
            target: q + 1,
            m: x(),
        });
    }
    ops
}

/// An asserted set as the vectors spanning it.
pub fn span_of_indices(n: usize, indices: &[usize]) -> Vec<Vec<Cx>> {
    indices
        .iter()
        .map(|&i| {
            let mut v = vec![Cx::ZERO; 1 << n];
            v[i] = Cx::ONE;
            v
        })
        .collect()
}

/// The exact probability that an assertion of `span` rejects `phi`:
/// `1 − ‖Pφ‖²`, with `P` the projector onto `span` (orthonormalised here
/// by modified Gram–Schmidt).
pub fn rejection(phi: &[Cx], span: &[Vec<Cx>]) -> f64 {
    let mut basis: Vec<Vec<Cx>> = Vec::new();
    for v in span {
        let mut w = v.clone();
        for e in &basis {
            let ip = inner(e, &w);
            for (wi, ei) in w.iter_mut().zip(e) {
                *wi = wi.add(ei.mul(ip).scale(-1.0));
            }
        }
        let norm = w.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if norm > 1e-12 {
            basis.push(w.iter().map(|a| a.scale(1.0 / norm)).collect());
        }
    }
    let kept: f64 = basis.iter().map(|e| inner(e, phi).norm_sqr()).sum();
    let total: f64 = phi.iter().map(|a| a.norm_sqr()).sum();
    (1.0 - kept / total).clamp(0.0, 1.0)
}

/// `⟨a|b⟩`.
fn inner(a: &[Cx], b: &[Cx]) -> Cx {
    a.iter()
        .zip(b)
        .fold(Cx::ZERO, |acc, (x, y)| acc.add(x.conj().mul(*y)))
}

/// Outcome probabilities of measuring every qubit.
pub fn probabilities(phi: &[Cx]) -> Vec<f64> {
    phi.iter().map(|a| a.norm_sqr()).collect()
}

/// Standard deviations a sampled rate may stray from its exact value.
const Z: f64 = 6.0;

/// `true` when a rate `observed`, sampled from `shots` Bernoulli(`p`)
/// draws and printed with `printed_step` resolution, is consistent with
/// `p`.
pub fn within_binomial(observed: f64, p: f64, shots: u64, printed_step: f64) -> bool {
    let n = shots as f64;
    let sd = (p * (1.0 - p) / n).sqrt();
    (observed - p).abs() <= Z * sd + 1.0 / n + printed_step
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz_phi(n: usize) -> Vec<Cx> {
        simulate(n, &ghz_ops(n))
    }

    fn plus_span(n: usize) -> Vec<Vec<Cx>> {
        let a = 1.0 / ((1usize << n) as f64).sqrt();
        vec![vec![Cx::new(a, 0.0); 1 << n]]
    }

    #[test]
    fn ghz_spec_never_rejects_the_ghz_program() {
        for n in 2..=7 {
            let s = 0.5f64.sqrt();
            let mut ghz = vec![Cx::ZERO; 1 << n];
            ghz[0] = Cx::new(s, 0.0);
            ghz[(1 << n) - 1] = Cx::new(s, 0.0);
            assert!(rejection(&ghz_phi(n), &[ghz]) < 1e-12);
        }
    }

    #[test]
    fn plus_spec_rejects_ghz_with_one_minus_two_over_dim() {
        for n in 2..=7 {
            let want = 1.0 - 2.0 / (1u64 << n) as f64;
            assert!((rejection(&ghz_phi(n), &plus_span(n)) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn set_spec_keeps_only_the_zero_branch() {
        for n in 3..=7 {
            let span = span_of_indices(n, &[0, 3, 5]);
            assert!((rejection(&ghz_phi(n), &span) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn big_endian_convention_matches_the_w_spec() {
        // X on qubit 0 of three flips the most significant index bit.
        let phi = simulate(
            3,
            &[Op::Apply {
                controls: vec![],
                target: 0,
                m: x(),
            }],
        );
        assert_eq!(phi[4], Cx::ONE);
    }

    #[test]
    fn translated_gates_match_their_textbook_action() {
        use qra::circuit::Circuit;
        let mut c = Circuit::new(3);
        c.u2(0.0, std::f64::consts::PI, 0).cx(0, 1).cx(1, 2);
        let phi = simulate(3, &ops_of(c.instructions()).unwrap());
        let probs = probabilities(&phi);
        assert!((probs[0] - 0.5).abs() < 1e-12 && (probs[7] - 0.5).abs() < 1e-12);
        assert!(rejection(&phi, &span_of_indices(3, &[0, 7])) < 1e-12);
    }

    #[test]
    fn binomial_bound_accepts_exact_and_rejects_far_rates() {
        assert!(within_binomial(0.0, 0.0, 1024, 5e-5));
        assert!(!within_binomial(0.01, 0.0, 1024, 5e-5));
        assert!(within_binomial(0.52, 0.5, 1024, 5e-5));
        assert!(!within_binomial(0.70, 0.5, 1024, 5e-5));
    }
}
