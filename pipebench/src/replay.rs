//! The traced replay: each workload's seeded inputs run in-process through
//! the program's own entry points, `qra_cli::execute_with_code_cached` for
//! `qra assert` and `qra campaign`, and `qra_cli::daemon_executor` for
//! daemon jobs. `run.sh` builds this binary against the instrumented copy
//! of the crates (`pipebench/instrument`), in which the probed public
//! functions of `qra_math`, `qra_circuit`, `qra_core`, `qra_sim`,
//! `qra_faults` and `qra_cli` open a span on entry. The socket split of a
//! daemon job comes from the real `qra serve` daemon.
//!
//! Rounds alternate between spans on and spans off; the difference of the
//! two mean operation times is the tracing overhead.

use crate::inputs::{self, AssertJob, ServeRounds};
use crate::{assert_cli, campaign, median, quantile, run_qra, serve, Args, Outcome};
use qra::circuit::GateCounts;
use qra::core::logical_or::build_or_assertion;
use qra::core::ndd::build_ndd_assertion;
use qra::core::swap::build_swap_assertion;
use qra::sim::ProgramCache;
use qra_probe as probe;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a per-layer metric sums over its workload's traced operations.
#[derive(Clone, Copy, PartialEq)]
enum Sum {
    /// Self time of the spans of this name, in ms.
    SelfMs,
    /// Allocations made inside the spans of this name.
    Allocs,
    /// A count the probes or the replay add to.
    Count,
}

/// Per-layer metrics, in print order: (metric, span or count name, sum).
/// Every value is per traced operation.
const LAYERS: [(&str, &str, Sum); 25] = [
    ("math.complete_basis_ms", "math.complete_basis", Sum::SelfMs),
    (
        "math.hermitian_eigen_ms",
        "math.hermitian_eigen",
        Sum::SelfMs,
    ),
    (
        "math.complete_basis_allocs",
        "math.complete_basis",
        Sum::Allocs,
    ),
    ("core.correct_states_ms", "core.correct_states", Sum::SelfMs),
    ("core.plan_build_ms", "core.plan_build", Sum::SelfMs),
    ("core.build_swap_ms", "core.build_swap", Sum::SelfMs),
    ("core.build_or_ms", "core.build_or", Sum::SelfMs),
    ("core.build_ndd_ms", "core.build_ndd", Sum::SelfMs),
    (
        "core.insert_assertion_ms",
        "core.insert_assertion",
        Sum::SelfMs,
    ),
    (
        "core.statistical_assertion_ms",
        "core.statistical_assertion",
        Sum::SelfMs,
    ),
    ("circuit.gate_counts_ms", "circuit.gate_counts", Sum::SelfMs),
    ("circuit.from_qasm_ms", "circuit.from_qasm", Sum::SelfMs),
    (
        "circuit.candidate_instructions",
        "circuit.candidate_instructions",
        Sum::Count,
    ),
    ("cli.parse_state_ms", "cli.parse_state", Sum::SelfMs),
    ("sim.sv_compile_ms", "sim.sv_compile", Sum::SelfMs),
    ("sim.sv_run_ms", "sim.sv_run", Sum::SelfMs),
    ("sim.density_compile_ms", "sim.density_compile", Sum::SelfMs),
    ("sim.density_run_ms", "sim.density_run", Sum::SelfMs),
    ("sim.density_ops", "sim.density_ops", Sum::Count),
    ("sim.cache_hits", "sim.cache_hits", Sum::Count),
    ("sim.cache_misses", "sim.cache_misses", Sum::Count),
    (
        "faults.enumerate_single_ms",
        "faults.enumerate_single",
        Sum::SelfMs,
    ),
    ("faults.run_sweep_self_ms", "faults.run_sweep", Sum::SelfMs),
    ("faults.report_json_ms", "faults.report_json", Sum::SelfMs),
    ("op.self_ms", "op", Sum::SelfMs),
];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one command line through the program's one-shot entry point, as
/// `qra <argv>` does; `cache` as the daemon passes it.
fn execute(argv: &[String], cache: Option<&Arc<ProgramCache>>) -> Result<String, String> {
    let command = qra_cli::parse_args(argv).map_err(err)?;
    match qra_cli::execute_with_code_cached(&command, cache).map_err(err)? {
        (out, 0) => Ok(out),
        (_, code) => Err(format!("exit code {code}")),
    }
}

/// The CX counts of the three designs `Design::Auto` chooses among, from
/// the program's own builders.
fn candidate_cx(job: &AssertJob) -> Result<Vec<usize>, String> {
    let spec = qra_cli::parse_state(&job.spec, job.n).map_err(err)?;
    let cs = spec.correct_states().map_err(err)?;
    [
        build_ndd_assertion(&cs),
        build_or_assertion(&cs),
        build_swap_assertion(&cs),
    ]
    .into_iter()
    .map(|built| {
        Ok(GateCounts::of(&built.map_err(err)?.circuit)
            .map_err(err)?
            .cx)
    })
    .collect()
}

/// The `#CX=` figure of a `qra assert` report.
fn reported_cx(text: &str) -> Result<usize, String> {
    text.lines()
        .find_map(|l| l.strip_prefix("circuit cost:"))
        .and_then(|cost| cost.trim().strip_prefix("#CX="))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|cx| cx.parse().ok())
        .ok_or_else(|| format!("no #CX= in {text:?}"))
}

/// Operation counts and summed times of the traced and untraced rounds.
#[derive(Default)]
struct Totals {
    traced_ops: u64,
    traced_ms: f64,
    untraced_ops: u64,
    untraced_ms: f64,
}

impl Totals {
    fn add(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced_ops += 1;
            self.traced_ms += ms;
        } else {
            self.untraced_ops += 1;
            self.untraced_ms += ms;
        }
    }
}

/// Runs rounds until `seconds` have passed and at least one round ran
/// each way, alternating spans on (even rounds) and off (odd rounds).
fn alternate(
    seconds: f64,
    mut round: impl FnMut(bool) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let traced = i.is_multiple_of(2);
        probe::set_enabled(traced);
        let result = round(traced);
        probe::set_enabled(false);
        result?;
        i += 1;
        if i >= 2 && start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Runs `f` as one operation: a root `op` span while tracing.
fn op<T>(id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    probe::set_op(id);
    let start = Instant::now();
    let out = probe::span("op", f);
    (out, start.elapsed().as_secs_f64() * 1e3)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let host_before = crate::host_ref_ms();
    let mut totals = Totals::default();
    // The daemon round trip's split; 0 on the other workloads.
    let mut serve_split = [
        ("serve.transport_ms", 0.0),
        ("serve.queue_wait_ms", 0.0),
        ("cli.execute_ms", 0.0),
        ("serve.client_p90_ms", 0.0),
        ("serve.client_p99_ms", 0.0),
    ];
    let mut next_id = 0u64;
    match args.workload.as_str() {
        "assert_cli" => {
            let jobs = inputs::assert_round(args.seed);
            assert_cli::write_programs(&args.work)?;
            let argvs: Vec<Vec<String>> = jobs
                .iter()
                .map(|job| assert_cli::argv(&args.work, job))
                .collect();
            // Outside the timed rounds: what one-shot `qra` prints for each
            // job, which every in-process run must repeat byte for byte,
            // and the lowest CX count among each job's candidate designs.
            let mut cli_out = Vec::new();
            let mut fewest_cx = Vec::new();
            for (job, argv) in jobs.iter().zip(&argvs) {
                cli_out.push(run_qra(&args.qra, argv)?.ok()?.to_string());
                let cx = candidate_cx(job)?;
                fewest_cx.push(cx.into_iter().min().ok_or("no candidate design")?);
            }
            let expect: Vec<f64> = jobs.iter().map(assert_cli::expected).collect();
            alternate(args.seconds, |traced| {
                for (i, job) in jobs.iter().enumerate() {
                    next_id += 1;
                    let (result, ms) = op(next_id, || execute(&argvs[i], None));
                    totals.add(traced, ms);
                    out.record(
                        result
                            .and_then(|text| {
                                if text != cli_out[i] {
                                    return Err(format!("differs from one-shot qra: {text:?}"));
                                }
                                assert_cli::check_report(&text, expect[i], assert_cli::SHOTS)?;
                                let cx = reported_cx(&text)?;
                                if cx > fewest_cx[i] {
                                    return Err(format!(
                                        "auto kept {cx} CX where a candidate has {}",
                                        fewest_cx[i]
                                    ));
                                }
                                Ok(())
                            })
                            .map_err(|e| format!("n={} {}: {e}", job.n, job.kind)),
                    );
                }
                Ok(())
            })?;
        }
        "campaign_sweep" => {
            let mut seeds = campaign::Seeds::new(args.seed);
            let first = seeds.next();
            let first_cli = run_qra(&args.qra, &campaign::argv(first))?
                .ok()?
                .to_string();
            let mut seeds = campaign::Seeds::new(args.seed);
            alternate(args.seconds, |traced| {
                let seed = seeds.next();
                let expected = probe::untraced(|| campaign::expected_rejections(seed))?;
                // A fresh cache per operation, as a one-shot process has.
                let cache = Arc::new(ProgramCache::new());
                next_id += 1;
                let (result, ms) = op(next_id, || execute(&campaign::argv(seed), Some(&cache)));
                totals.add(traced, ms);
                if traced {
                    probe::count("sim.cache_hits", cache.hits());
                    probe::count("sim.cache_misses", cache.misses());
                }
                out.record(
                    result
                        .and_then(|json| {
                            if seed == first && json != first_cli {
                                return Err("differs from one-shot qra campaign".into());
                            }
                            campaign::check_report(&json, &expected)
                        })
                        .map_err(|e| format!("seed {seed}: {e}")),
                );
                Ok(())
            })?;
        }
        _ => {
            let mut rounds = ServeRounds::new(&args.work, args.seed);
            let daemon = serve::setup(args, &mut rounds)?;
            let cache = Arc::new(ProgramCache::new());
            let executor = qra_cli::daemon_executor(Arc::clone(&cache), Vec::new());
            for job in rounds.fill_pass() {
                executor(&job.argv)?;
            }
            let mut round_trips = Vec::new();
            let (mut transport, mut queue_wait, mut service) = (0.0, 0.0, 0.0);
            alternate(args.seconds, |traced| {
                let jobs = rounds.next_round().map_err(err)?;
                for job in jobs {
                    next_id += 1;
                    let reply = serve::submit(&daemon.socket, next_id, &job.argv);
                    let (hits, misses) = (cache.hits(), cache.misses());
                    let (local, service_ms) = op(next_id, || executor(&job.argv));
                    if traced {
                        probe::count("sim.cache_hits", cache.hits() - hits);
                        probe::count("sim.cache_misses", cache.misses() - misses);
                    }
                    let verdict = reply.and_then(|reply| {
                        totals.add(traced, service_ms);
                        if traced {
                            round_trips.push(reply.round_trip_ms);
                            transport += reply.round_trip_ms - reply.latency_ms;
                            queue_wait += reply.latency_ms - service_ms;
                            service += service_ms;
                        }
                        let (local, code) = local?;
                        if code != 0 || local != reply.output {
                            return Err("in-process output differs from the daemon's".into());
                        }
                        serve::check_output(&job, &reply.output)
                    });
                    out.record(verdict.map_err(|e| format!("{}: {e}", job.argv.join(" "))));
                }
                Ok(())
            })?;
            daemon.stop()?;
            let n = totals.traced_ops.max(1) as f64;
            serve_split[0].1 = transport / n;
            serve_split[1].1 = queue_wait / n;
            serve_split[2].1 = service / n;
            serve_split[3].1 = quantile(&round_trips, 0.9);
            serve_split[4].1 = quantile(&round_trips, 0.99);
        }
    }
    let host_after = crate::host_ref_ms();
    if probe::spans_besides("op") == 0 {
        return Err(
            "no layer spans were recorded: build through run.sh, which links the \
             instrumented crates"
                .into(),
        );
    }
    let n = totals.traced_ops.max(1) as f64;
    let times = probe::self_times();
    let allocs = probe::allocs();
    let counts = probe::counts();
    if let Some(name) = times.keys().find(|k| !LAYERS.iter().any(|l| l.1 == **k)) {
        return Err(format!("span {name} has no per-layer metric"));
    }
    for (metric, key, sum) in LAYERS {
        let (total, unit) = match sum {
            Sum::SelfMs => (times.get(key).copied().unwrap_or(0.0), "ms"),
            Sum::Allocs => (allocs.get(key).copied().unwrap_or(0) as f64, "count"),
            Sum::Count => (counts.get(key).copied().unwrap_or(0) as f64, "count"),
        };
        out.metric(metric, total / n, unit, totals.traced_ops as usize);
    }
    for (name, value) in serve_split {
        out.metric(name, value, "ms", totals.traced_ops as usize);
    }
    out.metric(
        "host.ref_kernel_ms",
        median(&[host_before, host_after]),
        "ms",
        2,
    );
    out.metric(
        "replay.op_ms",
        totals.traced_ms / n,
        "ms",
        totals.traced_ops as usize,
    );
    out.metric(
        "replay.untraced_op_ms",
        totals.untraced_ms / totals.untraced_ops.max(1) as f64,
        "ms",
        totals.untraced_ops as usize,
    );
    let trace_path =
        Path::new(".bench_work").join(format!("trace-{}-{}.json", args.workload, args.seed));
    probe::write_chrome(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("trace written to {}", trace_path.display());
    Ok(out)
}
