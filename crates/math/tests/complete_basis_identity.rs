//! Differential test for incremental basis completion: `complete_basis`
//! keeps one residual per computational-basis candidate across rounds and
//! projects it only against newly accepted vectors. That must give, bit
//! for bit, the basis of the direct completion kept here as the reference,
//! which projects every candidate against the whole basis in every round.
//!
//! The n = 7 cases are ignored by default: the O(d⁴) reference takes about
//! half a second per case in release and far longer in debug. Run them
//! with `cargo test --release -p qra-math --test complete_basis_identity
//! -- --include-ignored`.

use qra_math::{complete_basis, CVector, MathError, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DEPENDENCE_TOL: f64 = 1e-8;

/// The direct modified Gram–Schmidt of the seeds, allocating a fresh
/// vector per projection.
fn reference_orthonormalize(vectors: &[CVector]) -> Vec<CVector> {
    let mut basis: Vec<CVector> = Vec::new();
    for v in vectors {
        let mut residual = v.clone();
        for _ in 0..2 {
            for b in &basis {
                let overlap = b.inner(&residual).unwrap();
                residual = residual.sub(&b.scale(overlap));
            }
        }
        let norm = residual.norm();
        if norm > DEPENDENCE_TOL {
            basis.push(residual.scale(C64::from(1.0 / norm)));
        }
    }
    basis
}

/// The direct completion: every round re-projects every candidate `|k⟩`
/// against the whole basis and keeps the largest residual.
fn reference_complete_basis(seeds: &[CVector], dim: usize) -> Result<Vec<CVector>, MathError> {
    let mut basis = reference_orthonormalize(seeds);
    while basis.len() < dim {
        let mut best: Option<(f64, CVector)> = None;
        for k in 0..dim {
            let mut residual = CVector::basis_state(dim, k);
            for b in &basis {
                let overlap = b.inner(&residual)?;
                residual = residual.sub(&b.scale(overlap));
            }
            let norm = residual.norm();
            if best.as_ref().is_none_or(|(bn, _)| norm > *bn) {
                best = Some((norm, residual));
            }
        }
        let (norm, mut residual) = best.ok_or(MathError::LinearlyDependent)?;
        if norm <= DEPENDENCE_TOL {
            return Err(MathError::LinearlyDependent);
        }
        for b in &basis {
            let overlap = b.inner(&residual)?;
            residual = residual.sub(&b.scale(overlap));
        }
        let n2 = residual.norm();
        if n2 <= DEPENDENCE_TOL {
            return Err(MathError::LinearlyDependent);
        }
        basis.push(residual.scale(C64::from(1.0 / n2)));
    }
    Ok(basis)
}

fn random_vector(rng: &mut StdRng, dim: usize) -> CVector {
    CVector::new(
        (0..dim)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect(),
    )
}

/// The seed sets completed by the assertion pipeline at `n` qubits: the
/// named pure states, seeded random amplitudes, no seeds, the basis-state
/// sets of each §IV-C rank case that fits, and four random vectors.
fn cases(n: usize) -> Vec<(String, Vec<CVector>)> {
    let dim = 1usize << n;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + n as u64);
    let s = 0.5f64.sqrt();
    let mut ghz = CVector::zeros(dim);
    ghz[0] = C64::from(s);
    ghz[dim - 1] = C64::from(s);
    let mut w = CVector::zeros(dim);
    for q in 0..n {
        w[1 << q] = C64::from(1.0 / (n as f64).sqrt());
    }
    let plus = CVector::new(vec![C64::from(1.0 / (dim as f64).sqrt()); dim]);
    let amps = random_vector(&mut rng, dim).normalized().unwrap();
    let basis_set = |idx: &[usize]| -> Vec<CVector> {
        idx.iter().map(|&i| CVector::basis_state(dim, i)).collect()
    };

    let mut cases = vec![
        ("ghz".to_string(), vec![ghz]),
        ("w".to_string(), vec![w]),
        ("plus".to_string(), vec![plus]),
        ("amps".to_string(), vec![amps]),
        ("no seeds".to_string(), Vec::new()),
    ];
    if dim > 3 {
        cases.push(("set {0,3}".into(), basis_set(&[0, 3])));
    }
    if dim > 5 {
        cases.push(("set {0,3,5}".into(), basis_set(&[0, 3, 5])));
    }
    let extension: Vec<usize> = (0..=dim / 2).collect();
    cases.push(("set {0..2^(n-1)}".into(), basis_set(&extension)));
    let four = (0..4).map(|_| random_vector(&mut rng, dim)).collect();
    cases.push(("4 random vectors".into(), four));
    cases
}

fn bits(basis: &[CVector]) -> Vec<(u64, u64)> {
    basis
        .iter()
        .flat_map(|v| v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())))
        .collect()
}

fn assert_bit_identical(n: usize) {
    let dim = 1usize << n;
    for (name, seeds) in cases(n) {
        let got = complete_basis(&seeds, dim);
        let want = reference_complete_basis(&seeds, dim);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), dim, "n={n} {name}: incomplete basis");
                assert!(
                    bits(&got) == bits(&want),
                    "n={n} {name}: basis differs from the direct completion"
                );
            }
            (got, want) => assert_eq!(got, want, "n={n} {name}"),
        }
    }
}

#[test]
fn incremental_completion_is_bit_identical_up_to_six_qubits() {
    for n in 1..=6 {
        assert_bit_identical(n);
    }
}

#[test]
#[ignore = "the direct reference is O(d^4): run in release with --include-ignored"]
fn incremental_completion_is_bit_identical_at_seven_qubits() {
    assert_bit_identical(7);
}
