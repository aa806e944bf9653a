//! `assert_cli`: sequential one-shot `qra assert` processes.
//!
//! Synthesis dominates every job and simulation is negligible, so this is
//! where the synthesis wall shows. Each job is its own process, so no
//! in-process cache can flatter it.

use crate::inputs::{self, AssertJob};
use crate::{oracle, run_qra, timed_rounds, Args, Outcome, SETUP_REPEATS};
use std::path::Path;
use std::time::Instant;

pub const SHOTS: u64 = 1024;

/// Writes the GHZ-5…7 programs the jobs assert on.
pub fn write_programs(dir: &Path) -> Result<(), String> {
    for n in 5..=7 {
        std::fs::write(program(dir, n), inputs::ghz_qasm(n, None, false))
            .map_err(|e| format!("writing inputs: {e}"))?;
    }
    Ok(())
}

pub fn program(dir: &Path, n: usize) -> std::path::PathBuf {
    dir.join(format!("ghz{n}.qasm"))
}

pub fn argv(dir: &Path, job: &AssertJob) -> Vec<String> {
    let qubits = (0..job.n)
        .map(|q| q.to_string())
        .collect::<Vec<_>>()
        .join(",");
    vec![
        "assert".into(),
        inputs::path_str(&program(dir, job.n)),
        "--qubits".into(),
        qubits,
        "--state".into(),
        job.spec.clone(),
        "--design".into(),
        "auto".into(),
        "--shots".into(),
        SHOTS.to_string(),
        "--seed".into(),
        job.seed.to_string(),
        "--noise".into(),
        "ideal".into(),
        "--sim-threads".into(),
        "1".into(),
    ]
}

/// The exact rejection probability of `job` on its GHZ program.
pub fn expected(job: &AssertJob) -> f64 {
    oracle::rejection(
        &inputs::ghz_state(job.n),
        &inputs::spec_span(&job.spec, job.n),
    )
}

/// Checks a `qra assert` report against the exact rejection probability.
pub fn check_report(out: &str, p: f64, shots: u64) -> Result<(), String> {
    let field = |key: &str| {
        out.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::trim)
            .ok_or_else(|| format!("report lacks '{key}': {out:?}"))
    };
    let design = field("design:")?;
    if !["swap", "logical-or", "ndd"].contains(&design) {
        return Err(format!("unknown design '{design}'"));
    }
    let rate: f64 = field("error rate:")?
        .parse()
        .map_err(|_| format!("bad error rate in {out:?}"))?;
    if !oracle::within_binomial(rate, p, shots, 5e-5) {
        return Err(format!(
            "error rate {rate} outside the binomial bound of {p:.6} at {shots} shots"
        ));
    }
    let verdict = field("verdict:")?;
    let want = if rate > 0.01 { "FAIL" } else { "pass" };
    if verdict != want {
        return Err(format!("verdict '{verdict}' for error rate {rate}"));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    let mut expect = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        jobs = inputs::assert_round(args.seed);
        expect = jobs.iter().map(expected).collect::<Vec<f64>>();
        write_programs(&args.work)?;
        // One untimed warm-up job per program size.
        for n in 5..=7 {
            let warm = jobs
                .iter()
                .find(|j| j.n == n && j.kind == "ghz")
                .expect("every size has a ghz job");
            let r = run_qra(&args.qra, &argv(&args.work, warm))?;
            check_report(r.ok()?, 0.0, SHOTS).map_err(|e| format!("warm-up: {e}"))?;
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let host_before = crate::host_ref_ms();
    let mut latencies = Vec::new();
    let mut peak_rss: f64 = 0.0;
    let loop_secs = timed_rounds(args.seconds, || {
        for (job, &p) in jobs.iter().zip(&expect) {
            let r = run_qra(&args.qra, &argv(&args.work, job))?;
            latencies.push(r.secs * 1e3);
            peak_rss = peak_rss.max(r.rss_mb);
            out.record(
                r.ok()
                    .and_then(|text| check_report(text, p, SHOTS))
                    .map_err(|e| format!("n={} {}: {e}", job.n, job.kind)),
            );
        }
        Ok(())
    })?;
    let host_after = crate::host_ref_ms();
    eprintln!("host.ref_kernel_ms before {host_before:.3} after {host_after:.3}");
    out.end_to_end(&setups, &latencies, loop_secs, peak_rss);
    Ok(out)
}
