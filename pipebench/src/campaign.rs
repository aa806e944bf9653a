//! `campaign_sweep`: sequential `qra campaign --sweep` processes on GHZ-3.
//!
//! Density compilation, which evolves ρ through the noisy prefix,
//! dominates while synthesis is under 1%. Every mutant circuit is a
//! compiled-program cache miss: the opposite use of the cache from
//! `serve_submit`.

use crate::inputs::Rng;
use crate::{oracle, run_qra, timed_rounds, Args, Outcome, SETUP_REPEATS};
use qra::circuit::Circuit;
use qra::faults::json::{self, Json};
use qra::faults::FaultInjector;
use std::collections::BTreeMap;
use std::time::Instant;

pub const QUBITS: usize = 3;
pub const SHOTS: u64 = 2048;
pub const POINTS: [&str; 3] = ["ideal", "low", "melbourne"];
pub const DESIGNS: [&str; 4] = ["swap", "logical-or", "ndd", "stat"];

pub fn argv(seed: u64) -> Vec<String> {
    [
        "campaign",
        "--ghz",
        "3",
        "--sweep",
        "ideal,low,melbourne",
        "--designs",
        "swap,or,ndd,stat",
        "--shots",
        "2048",
        "--jobs",
        "1",
        "--sim-threads",
        "1",
        "--seed",
        &seed.to_string(),
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The program under test, as the CLI builds it for `--ghz 3`.
pub fn program() -> Circuit {
    qra::algorithms::states::ghz(QUBITS)
}

/// Per mutant id, the exact probability that a precise GHZ assertion
/// rejects the mutant's ideal output state.
pub fn expected_rejections(seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let s = 0.5f64.sqrt();
    let mut ghz = vec![oracle::Cx::ZERO; 1 << QUBITS];
    ghz[0] = oracle::Cx::new(s, 0.0);
    ghz[(1 << QUBITS) - 1] = oracle::Cx::new(s, 0.0);
    FaultInjector::new(seed)
        .enumerate_single(&program())
        .iter()
        .map(|m| {
            let ops = oracle::ops_of(m.circuit.instructions())?;
            let phi = oracle::simulate(m.circuit.num_qubits(), &ops);
            Ok((m.id.clone(), oracle::rejection(&phi, &[ghz.clone()])))
        })
        .collect()
}

fn num(v: Option<&Json>, what: &str) -> Result<f64, String> {
    v.and_then(|v| v.as_f64_or_nan().ok())
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("missing number {what}"))
}

fn text(v: Option<&Json>) -> Option<&str> {
    v.and_then(|v| v.as_str().ok())
}

fn arr(v: Option<&Json>) -> &[Json] {
    v.and_then(|v| v.as_arr().ok()).unwrap_or(&[])
}

/// Checks a sweep report: every cell completed; at the ideal point the
/// SWAP/OR/NDD baselines read exactly 0 and each of their mutant cells
/// lies within a binomial bound of the exact rejection probability; and
/// every design's false-positive floor does not decrease from ideal to
/// low to melbourne.
pub fn check_report(report: &str, expected: &BTreeMap<String, f64>) -> Result<(), String> {
    let report = json::parse(report.trim()).map_err(|e| e.to_string())?;
    let points = arr(report.get("points"));
    let labels: Vec<&str> = points.iter().filter_map(|p| text(p.get("label"))).collect();
    if labels != POINTS {
        return Err(format!("sweep points {labels:?}"));
    }
    let mut floors: Vec<Vec<f64>> = vec![Vec::new(); DESIGNS.len()];
    for (pi, point) in points.iter().enumerate() {
        let campaign = point.get("campaign").ok_or("point lacks its campaign")?;
        let mutants = num(campaign.get("mutant_count"), "mutant_count")? as usize;
        if mutants != expected.len() {
            return Err(format!(
                "{mutants} mutants, enumerate_single gives {}",
                expected.len()
            ));
        }
        let baselines = arr(campaign.get("baselines"));
        let cells = arr(campaign.get("cells"));
        if baselines.len() != DESIGNS.len() || cells.len() != mutants * DESIGNS.len() {
            return Err(format!(
                "{}: {} baselines and {} cells for {mutants} mutants",
                POINTS[pi],
                baselines.len(),
                cells.len()
            ));
        }
        for cell in baselines.iter().chain(cells) {
            let status = cell.get("status").ok_or("cell lacks status")?;
            if text(status.get("kind")) != Some("completed") {
                return Err(format!("{}: cell not completed: {cell:?}", POINTS[pi]));
            }
            if pi > 0 {
                continue;
            }
            let design = text(cell.get("design")).unwrap_or("");
            if design == "stat" {
                continue;
            }
            let rate = num(status.get("error_rate"), "error_rate")?;
            let p = match text(cell.get("mutant")) {
                None => 0.0,
                Some(id) => *expected
                    .get(id)
                    .ok_or_else(|| format!("unknown mutant {id}"))?,
            };
            if !oracle::within_binomial(rate, p, SHOTS, 0.0) {
                return Err(format!(
                    "ideal {design} cell {:?}: error rate {rate} vs exact {p:.6}",
                    cell.get("mutant")
                ));
            }
        }
        let thresholds = arr(point.get("thresholds"));
        for (di, design) in DESIGNS.iter().enumerate() {
            let t = thresholds
                .iter()
                .find(|t| text(t.get("design")) == Some(design))
                .ok_or_else(|| format!("{}: no threshold for {design}", POINTS[pi]))?;
            floors[di].push(num(t.get("floor"), "floor")?);
        }
    }
    for (design, f) in DESIGNS.iter().zip(&floors) {
        if f.windows(2).any(|w| w[1] < w[0]) {
            return Err(format!("{design} floor decreases across the sweep: {f:?}"));
        }
    }
    Ok(())
}

/// The per-operation campaign seeds of a run, one per operation.
pub struct Seeds(Rng);

impl Seeds {
    pub fn new(seed: u64) -> Seeds {
        Seeds(Rng::new(seed ^ 0x2545_f491_4f6c_dd1d))
    }

    pub fn next(&mut self) -> u64 {
        self.0.next_u64() % 1_000_000
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut seeds = Seeds::new(args.seed);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        seeds = Seeds::new(args.seed);
        let warm = seeds.next();
        let expected = expected_rejections(warm)?;
        let r = run_qra(&args.qra, &argv(warm))?;
        check_report(r.ok()?, &expected).map_err(|e| format!("warm-up: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let host_before = crate::host_ref_ms();
    let mut latencies = Vec::new();
    let mut peak_rss: f64 = 0.0;
    let loop_secs = timed_rounds(args.seconds, || {
        let seed = seeds.next();
        let expected = expected_rejections(seed)?;
        let r = run_qra(&args.qra, &argv(seed))?;
        latencies.push(r.secs * 1e3);
        peak_rss = peak_rss.max(r.rss_mb);
        out.record(
            r.ok()
                .and_then(|text| check_report(text, &expected))
                .map_err(|e| format!("seed {seed}: {e}")),
        );
        Ok(())
    })?;
    let host_after = crate::host_ref_ms();
    eprintln!("host.ref_kernel_ms before {host_before:.3} after {host_after:.3}");
    out.end_to_end(&setups, &latencies, loop_secs, peak_rss);
    Ok(out)
}
