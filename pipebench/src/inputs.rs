//! Seeded inputs for the three workloads. The program receives only what
//! these functions generate: QASM files and `qra` argument lists.

use crate::oracle::{self, Cx};
use std::path::Path;

/// SplitMix64: the workload seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// GHZ-n as QASM: `h q[0]` and a CX chain, then optionally `rz(θ) q[0]`
/// and a measurement of every qubit.
pub fn ghz_qasm(n: usize, rz: Option<f64>, measure: bool) -> String {
    let mut s = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    if measure {
        s.push_str(&format!("creg c[{n}];\n"));
    }
    s.push_str("h q[0];\n");
    for q in 0..n - 1 {
        s.push_str(&format!("cx q[{q}],q[{}];\n", q + 1));
    }
    if let Some(theta) = rz {
        s.push_str(&format!("rz({theta:.12}) q[0];\n"));
    }
    if measure {
        for q in 0..n {
            s.push_str(&format!("measure q[{q}] -> c[{q}];\n"));
        }
    }
    s
}

/// The GHZ-n program state, computed by the oracle.
pub fn ghz_state(n: usize) -> Vec<Cx> {
    oracle::simulate(n, &oracle::ghz_ops(n))
}

/// The vectors spanning a named or `set:`/`amps:` spec over `n` qubits,
/// derived from the spec text alone.
pub fn spec_span(spec: &str, n: usize) -> Vec<Vec<Cx>> {
    let dim = 1usize << n;
    let one_hot = |idx: &[usize], amp: f64| {
        let mut v = vec![Cx::ZERO; dim];
        for &i in idx {
            v[i] = Cx::new(amp, 0.0);
        }
        v
    };
    match spec {
        "ghz" | "bell" => vec![one_hot(&[0, dim - 1], 1.0)],
        "plus" => vec![vec![Cx::ONE; dim]],
        "zero" => vec![one_hot(&[0], 1.0)],
        "w" => {
            let idx: Vec<usize> = (0..n).map(|q| 1 << (n - 1 - q)).collect();
            vec![one_hot(&idx, 1.0)]
        }
        other => {
            if let Some(list) = other.strip_prefix("set:") {
                let idx: Vec<usize> = list
                    .split(';')
                    .map(|i| i.parse().expect("set index"))
                    .collect();
                return oracle::span_of_indices(n, &idx);
            }
            let list = other
                .strip_prefix("amps:")
                .expect("spec kinds are generated here");
            vec![list
                .split(';')
                .map(|pair| {
                    let (re, im) = pair.split_once(',').expect("amps pair");
                    Cx::new(re.parse().expect("re"), im.parse().expect("im"))
                })
                .collect()]
        }
    }
}

/// One `qra assert` job of the `assert_cli` workload.
#[derive(Debug, Clone)]
pub struct AssertJob {
    pub n: usize,
    pub kind: &'static str,
    pub spec: String,
    pub seed: u64,
}

/// The qubit count above which the extension case is left out: at n = 7
/// it alone takes ~3.8 s and ~1 GB, more than the rest of a round.
pub const MAX_EXTENSION_QUBITS: usize = 6;

/// One round of `assert_cli`: on GHZ-n for n = 5, 6, 7, the pure specs
/// `ghz`, `w`, `plus` and a seeded random `amps:` state, and a
/// basis-state set in each §IV-C rank case: the t = 2 coset `{0, 3}`, the
/// t = 3 superset pair `{0, 3, 5}` and, for n ≤ 6, the t = 2ⁿ⁻¹ + 1
/// extension `{0, …, 2ⁿ⁻¹}`. The sets are fixed because synthesis cost
/// depends on which states a set holds (a random t = 3 set at n = 7 takes
/// 1.4–3.5 s and 0.2–0.75 GB): fixed sets keep every seed's round the
/// same work, while the seed draws the `amps:` state and every job's
/// sampling seed.
pub fn assert_round(seed: u64) -> Vec<AssertJob> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for n in 5..=7 {
        let dim = 1usize << n;
        let amps: Vec<String> = (0..dim)
            .map(|_| format!("{:.6},{:.6}", rng.signed_unit(), rng.signed_unit()))
            .collect();
        let set = |idx: Vec<usize>| {
            format!(
                "set:{}",
                idx.iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(";")
            )
        };
        let mut specs: Vec<(&'static str, String)> = vec![
            ("ghz", "ghz".into()),
            ("w", "w".into()),
            ("plus", "plus".into()),
            ("amps", format!("amps:{}", amps.join(";"))),
            ("coset", set(vec![0, 3])),
            ("superset", set(vec![0, 3, 5])),
        ];
        if n <= MAX_EXTENSION_QUBITS {
            specs.push(("extension", set((0..=dim / 2).collect())));
        }
        for (kind, spec) in specs {
            jobs.push(AssertJob {
                n,
                kind,
                spec,
                seed: rng.next_u64() % 1_000_000,
            });
        }
    }
    jobs
}

/// One daemon job of the `serve_submit` workload.
#[derive(Debug, Clone)]
pub struct ServeJob {
    pub argv: Vec<String>,
    /// Qubit count of the program.
    pub n: usize,
    /// `None` for `run` jobs, else the asserted spec.
    pub spec: Option<String>,
}

/// Jobs per `serve_submit` round; [`FRESH_PER_ROUND`] of them name a
/// circuit the daemon has not compiled yet.
pub const SERVE_ROUND: usize = 20;
pub const FRESH_PER_ROUND: usize = 2;
pub const SERVE_SHOTS: u64 = 256;

/// The repeated programs of `serve_submit`: (file stem, qubits, assert specs).
pub const SERVE_PROGRAMS: [(&str, usize, [&str; 4]); 3] = [
    ("bell", 2, ["bell", "plus", "set:0;3", "zero"]),
    ("ghz3", 3, ["ghz", "plus", "w", "set:0;7"]),
    ("ghz4", 4, ["ghz", "plus", "w", "set:0;15"]),
];

/// Writes the repeated `serve_submit` programs into `dir`.
pub fn write_serve_programs(dir: &Path) -> std::io::Result<()> {
    for (stem, n, _) in SERVE_PROGRAMS {
        std::fs::write(dir.join(format!("{stem}.qasm")), ghz_qasm(n, None, false))?;
        std::fs::write(dir.join(format!("{stem}_m.qasm")), ghz_qasm(n, None, true))?;
    }
    Ok(())
}

fn shot_args(seed: u64) -> Vec<String> {
    vec![
        "--shots".into(),
        SERVE_SHOTS.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--sim-threads".into(),
        "1".into(),
    ]
}

/// The repeated jobs of one round, in order: per program, two `run` jobs
/// and four `assert` jobs. `seeds` cycle across rounds.
fn repeated_jobs(dir: &Path, seeds: &mut impl Iterator<Item = u64>) -> Vec<ServeJob> {
    let mut jobs = Vec::new();
    for (stem, n, specs) in SERVE_PROGRAMS {
        for _ in 0..2 {
            let mut argv = vec!["run".into(), path_str(&dir.join(format!("{stem}_m.qasm")))];
            argv.extend(shot_args(seeds.next().expect("cycled")));
            jobs.push(ServeJob {
                argv,
                n,
                spec: None,
            });
        }
        for spec in specs {
            let qubits = (0..n).map(|q| q.to_string()).collect::<Vec<_>>().join(",");
            let mut argv = vec![
                "assert".into(),
                path_str(&dir.join(format!("{stem}.qasm"))),
                "--qubits".into(),
                qubits,
                "--state".into(),
                spec.into(),
            ];
            argv.extend(shot_args(seeds.next().expect("cycled")));
            jobs.push(ServeJob {
                argv,
                n,
                spec: Some(spec.into()),
            });
        }
    }
    jobs
}

pub fn path_str(p: &Path) -> String {
    p.to_str().expect("work paths are UTF-8").to_string()
}

/// Generates `serve_submit` rounds on demand: each round is the repeated
/// jobs plus [`FRESH_PER_ROUND`] `run` jobs on GHZ-3 programs made unique
/// by a seeded `rz` angle, written to `dir` as they are needed.
pub struct ServeRounds {
    dir: std::path::PathBuf,
    rng: Rng,
    seeds: Vec<u64>,
    cursor: usize,
    fresh: usize,
}

impl ServeRounds {
    pub fn new(dir: &Path, seed: u64) -> ServeRounds {
        let mut rng = Rng::new(seed ^ 0xd1b5_4a32_d192_ed03);
        let seeds = (0..8).map(|_| rng.next_u64() % 1_000_000).collect();
        ServeRounds {
            dir: dir.to_path_buf(),
            rng,
            seeds,
            cursor: 0,
            fresh: 0,
        }
    }

    fn cycled(&mut self) -> impl Iterator<Item = u64> + '_ {
        std::iter::from_fn(move || {
            let s = self.seeds[self.cursor % self.seeds.len()];
            self.cursor += 1;
            Some(s)
        })
    }

    /// The repeated jobs only: the pass that fills the daemon's cache.
    pub fn fill_pass(&mut self) -> Vec<ServeJob> {
        let dir = self.dir.clone();
        repeated_jobs(&dir, &mut self.cycled())
    }

    /// The next round; writes its fresh programs first.
    pub fn next_round(&mut self) -> std::io::Result<Vec<ServeJob>> {
        let dir = self.dir.clone();
        let mut jobs = repeated_jobs(&dir, &mut self.cycled());
        for slot in 0..FRESH_PER_ROUND {
            let theta = self.rng.signed_unit() * std::f64::consts::PI;
            let file = self.dir.join(format!("fresh{}.qasm", self.fresh));
            self.fresh += 1;
            std::fs::write(&file, ghz_qasm(3, Some(theta), true))?;
            let mut argv = vec!["run".into(), path_str(&file)];
            argv.extend(shot_args(self.seeds[slot]));
            // Spread the fresh jobs through the round.
            let at = (slot * 2 + 1) * jobs.len() / (2 * FRESH_PER_ROUND) + slot;
            jobs.insert(
                at,
                ServeJob {
                    argv,
                    n: 3,
                    spec: None,
                },
            );
        }
        debug_assert_eq!(jobs.len(), SERVE_ROUND);
        Ok(jobs)
    }
}

/// A fixed, allocation-heavy host-speed reference: naive Gram–Schmidt over
/// 160 pseudo-random complex vectors of length 160, allocating a fresh
/// vector for every projection. Its time tracks how fast this host runs
/// allocation-heavy numerics at the moment; it is recorded, never used to
/// scale other figures. Returns a checksum so the work cannot be elided.
pub fn host_ref_kernel() -> f64 {
    const D: usize = 160;
    let mut rng = Rng::new(7);
    let mut basis: Vec<Vec<(f64, f64)>> = Vec::new();
    for _ in 0..D {
        let mut w: Vec<(f64, f64)> = (0..D)
            .map(|_| (rng.signed_unit(), rng.signed_unit()))
            .collect();
        for e in &basis {
            let ip = e.iter().zip(&w).fold((0.0, 0.0), |acc, (a, b)| {
                (acc.0 + a.0 * b.0 + a.1 * b.1, acc.1 + a.0 * b.1 - a.1 * b.0)
            });
            let proj: Vec<(f64, f64)> = e
                .iter()
                .map(|a| (a.0 * ip.0 - a.1 * ip.1, a.0 * ip.1 + a.1 * ip.0))
                .collect();
            w = w
                .iter()
                .zip(&proj)
                .map(|(a, p)| (a.0 - p.0, a.1 - p.1))
                .collect();
        }
        let norm = w.iter().map(|a| a.0 * a.0 + a.1 * a.1).sum::<f64>().sqrt();
        basis.push(w.iter().map(|a| (a.0 / norm, a.1 / norm)).collect());
    }
    basis.iter().map(|v| v[0].0).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_for_a_seed_and_cover_every_rank_case() {
        let a = assert_round(3);
        let b = assert_round(3);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.spec == y.spec && x.seed == y.seed));
        assert_eq!(a.len(), 20);
        let ext: Vec<_> = a.iter().filter(|j| j.kind == "extension").collect();
        assert_eq!(ext.len(), 2);
        assert_eq!(ext[1].spec.matches(';').count() + 1, 33);
    }

    #[test]
    fn host_kernel_is_deterministic() {
        assert_eq!(host_ref_kernel(), host_ref_kernel());
    }
}
