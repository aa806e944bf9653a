//! Simulator throughput: compiled execution engine vs the legacy
//! instruction-walking interpreter, per workload, as machine-readable JSON
//! (`BENCH_sim.json`) so the repo carries a perf trajectory over time.
//!
//! Each workload runs the same seeded circuit through
//! [`StatevectorSimulator::run_interpreted`] (baseline) and
//! [`StatevectorSimulator::run`] (compiled), **panics if the counts
//! differ** (the engines are bit-for-bit seed-compatible by contract), and
//! reports wall time, shots/s and gates/s for both plus the speedup.
//! Density rows also time `compile` (lowering plus the measurement-free
//! prefix evolution, where a terminal-measurement circuit's channel work
//! happens) and count the lowered Kraus terms.
//!
//! Usage: `sim_throughput [--short] [--out PATH] [--threads T]`
//!
//! Each timed engine runs at least three times and until about a second
//! has passed; its row reports the fastest run as `secs`, plus
//! `median_secs` and `runs`. A best-of-three alone cannot resolve a 10%
//! change on a host whose run-to-run spread is larger than that.
//!
//! `--short` shrinks shots and runs each engine once, for CI smoke runs
//! (validates the pipeline and the identity contract, not the timing);
//! `--out` overrides the default `BENCH_sim.json` output path;
//! `--threads` overrides the thread count used by the parallel sections
//! (default: one per available core). Beyond the interpreted-vs-compiled
//! pairs, two sections time one thread against `--threads`, each
//! asserting identical counts before reporting a speedup: `parallel`
//! (amplitude threading on ≥18-qubit terminal workloads, and shot-range
//! workers on a 14-qubit mid-circuit GHZ) and `trajectory` (shot-range
//! workers on noisy trajectories).

use qra::algorithms::{qft, states};
use qra::prelude::*;
use qra::sim::threads::resolve_threads;
use qra::sim::{CompiledProgram, TrajectorySimulator};
use qra_bench::json_string;
use std::time::Instant;

/// A wide SWAP-style assertion campaign cell, all-Clifford by
/// construction: GHZ-`n` prepared with exact H/CX, uncomputed through the
/// linear coset map, three probe qubits parity-checked against fresh
/// ancillas, recomputed, ancillas measured. The probes skip qubit 0 (in
/// `|+⟩` after the uncompute, so its check would flag the correct state).
/// With `fault` set, a stray X lands on a probe qubit before the check —
/// the detection case. Only the tableau backend can run this at
/// n = 128/256.
fn wide_swap_assertion(n: usize, fault: bool) -> Circuit {
    let probes = [1, n / 2, n - 1];
    let mut c = Circuit::with_clbits(n + probes.len(), probes.len());
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    if fault {
        c.x(probes[0]);
    }
    for q in (0..n - 1).rev() {
        c.cx(q, q + 1);
    }
    for (i, &q) in probes.iter().enumerate() {
        c.cx(q, n + i);
        c.cx(n + i, q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for i in 0..probes.len() {
        c.measure(n + i, i).unwrap();
    }
    c
}

struct DensityWorkload {
    name: &'static str,
    circuit: Circuit,
    noise: NoiseModel,
    shots: u64,
    seed: u64,
}

/// Noisy density-matrix workloads: the legacy dense walker
/// ([`DensityMatrixSimulator::run_interpreted`]) against the compiled
/// kernel-conjugation engine, with the same bit-for-bit identity contract
/// as the state-vector pairs. The melbourne GHZ entry is the §IX-B
/// device-regime workload the compiled engine was built for.
fn density_workloads(short: bool) -> Vec<DensityWorkload> {
    let s = |full: u64, smoke: u64| if short { smoke } else { full };
    vec![
        DensityWorkload {
            name: "density_ghz8_melbourne",
            circuit: ghz_measured(8),
            noise: DevicePreset::melbourne_like(),
            shots: s(4096, 64),
            seed: 7,
        },
        DensityWorkload {
            name: "density_ghz5_midcircuit_melbourne",
            circuit: ghz_midcircuit(5),
            noise: DevicePreset::melbourne_like(),
            shots: s(4096, 64),
            seed: 11,
        },
        DensityWorkload {
            name: "density_ghz8_ideal",
            circuit: ghz_measured(8),
            noise: NoiseModel::ideal(),
            shots: s(4096, 64),
            seed: 13,
        },
    ]
}

struct Workload {
    name: &'static str,
    circuit: Circuit,
    shots: u64,
    seed: u64,
}

/// The paper's central workload shape: an `n`-qubit GHZ preparation with a
/// runtime assertion appended (terminal ancilla measurement). The
/// assertion probes a 3-qubit slice — the reduced GHZ state is the
/// classical set `{|000⟩, |111⟩}`, whose NDD unitary is diagonal ±1 and
/// synthesizes to the paper's Fig. 14 parity network — so the workload
/// cost is dominated by `(n+1)`-qubit state evolution and sampling, the
/// hot path this bench tracks.
fn ghz_assertion(n: usize, design: Design) -> Circuit {
    let mut c = states::ghz(n);
    let probe = [0, n / 2, n - 1];
    let spec = StateSpec::set(vec![CVector::basis_state(8, 0), CVector::basis_state(8, 7)])
        .expect("ghz slice spec");
    insert_assertion(&mut c, &probe, &spec, design).expect("assertion synthesis");
    c
}

fn ghz_measured(n: usize) -> Circuit {
    let mut c = states::ghz(n);
    c.measure_all();
    c
}

/// GHZ built from the exact H/CX generators — `states::ghz` spells its
/// Hadamard as `u2(0, π)`, which the exact Clifford recognizer rejects,
/// so the stabilizer rows use this variant.
fn ghz_clifford_measured(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

/// GHZ with a mid-circuit syndrome measurement and reset: forces the
/// per-shot collapse path, where the cached unitary prefix pays off.
fn ghz_midcircuit(n: usize) -> Circuit {
    let mut c = Circuit::with_clbits(n, n + 1);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure(n - 1, n).unwrap();
    c.reset(n - 1).unwrap();
    c.cx(n - 2, n - 1);
    for q in 0..n {
        c.measure(q, q).unwrap();
    }
    c
}

fn qft_measured(n: usize) -> Circuit {
    let mut c = qft::qft(n);
    c.measure_all();
    c
}

/// Workloads for the threading section: ≥18-qubit terminal circuits,
/// whose cost is one big state evolution split across amplitude threads,
/// and a mid-circuit GHZ, whose shots split across workers.
fn parallel_workloads(short: bool) -> Vec<Workload> {
    let s = |full: u64, smoke: u64| if short { smoke } else { full };
    vec![
        Workload {
            name: "ghz22_terminal",
            circuit: ghz_measured(22),
            shots: s(4096, 64),
            seed: 7,
        },
        Workload {
            name: "qft18_terminal",
            circuit: qft_measured(18),
            shots: s(1024, 32),
            seed: 13,
        },
        Workload {
            name: "ghz14_midcircuit",
            circuit: ghz_midcircuit(14),
            shots: s(1024, 64),
            seed: 19,
        },
    ]
}

fn workloads(short: bool) -> Vec<Workload> {
    let s = |full: u64, smoke: u64| if short { smoke } else { full };
    vec![
        Workload {
            name: "ghz16_terminal",
            circuit: ghz_measured(16),
            shots: s(8192, 128),
            seed: 7,
        },
        Workload {
            name: "ghz16_assert_ndd",
            circuit: ghz_assertion(16, Design::Ndd),
            shots: s(8192, 128),
            seed: 7,
        },
        Workload {
            name: "ghz12_midcircuit",
            circuit: ghz_midcircuit(12),
            shots: s(512, 16),
            seed: 11,
        },
        Workload {
            name: "qft8_terminal",
            circuit: qft_measured(8),
            shots: s(8192, 128),
            seed: 13,
        },
    ]
}

/// The run times of one timed engine.
struct Timing {
    /// The fastest run, in seconds.
    secs: f64,
    /// The median run, in seconds.
    median: f64,
    runs: usize,
}

/// Times `f` for at least three runs and until about a second has passed
/// (one run when `short`), returning the run times and the last result.
fn time_best<T>(short: bool, mut f: impl FnMut() -> T) -> (Timing, T) {
    let (min_runs, min_secs) = if short { (1, 0.0) } else { (3, 1.0) };
    let started = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let value = f();
        secs.push(t0.elapsed().as_secs_f64());
        if secs.len() >= min_runs && started.elapsed().as_secs_f64() >= min_secs {
            secs.sort_by(f64::total_cmp);
            let mid = secs.len() / 2;
            let median = if secs.len() % 2 == 1 {
                secs[mid]
            } else {
                (secs[mid - 1] + secs[mid]) / 2.0
            };
            let timing = Timing {
                secs: secs[0],
                median,
                runs: secs.len(),
            };
            return (timing, value);
        }
    }
}

fn timing_json(t: &Timing) -> String {
    format!(
        "{{\"secs\":{:.6},\"median_secs\":{:.6},\"runs\":{}",
        t.secs, t.median, t.runs
    )
}

fn engine_json(t: &Timing, shots: u64, gate_evals: u64) -> String {
    format!(
        "{},\"shots_per_s\":{:.1},\"gates_per_s\":{:.1}}}",
        timing_json(t),
        shots as f64 / t.secs,
        gate_evals as f64 / t.secs
    )
}

fn main() {
    let mut short = false;
    let mut out = String::from("BENCH_sim.json");
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--short" => short = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads needs a count")
                    .parse()
                    .expect("--threads needs a number");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (cores, _) = resolve_threads(0);
    let threads = if threads == 0 { cores } else { threads };
    // On a single-core machine (or a forced single-thread run) the
    // parallel/trajectory speedup columns measure scheduling overhead,
    // not scaling: their rows are flagged degenerate and exempt from any
    // speedup expectation instead of reporting a meaningless 1.00×.
    let degenerate = cores < 2 || threads < 2;
    let mut entries = Vec::new();
    for w in workloads(short) {
        let program = CompiledProgram::compile(&w.circuit).expect("compile");
        let gates = w.circuit.gate_count() as u64;
        // Terminal workloads evolve the circuit once regardless of shots;
        // per-shot workloads re-apply every gate each shot.
        let gate_evals = if program.is_terminal() {
            gates
        } else {
            gates * w.shots
        };
        let (interp, interp_counts) = time_best(short, || {
            StatevectorSimulator::with_seed(w.seed)
                .run_interpreted(&w.circuit, w.shots)
                .expect("interpreted run")
        });
        let (compiled, compiled_counts) = time_best(short, || {
            StatevectorSimulator::with_seed(w.seed)
                .run_compiled(&program, w.shots)
                .expect("compiled run")
        });
        assert_eq!(
            interp_counts, compiled_counts,
            "{}: compiled counts diverged from interpreter — seed-compatibility broken",
            w.name
        );
        let speedup = interp.secs / compiled.secs;
        let classes: Vec<String> = program
            .class_histogram()
            .into_iter()
            .map(|(class, count)| format!("{}:{}", json_string(class.name()), count))
            .collect();
        eprintln!(
            "{:>18}  n={:<2} gates={:<4} shots={:<5} interp {:>9.3} ms  compiled {:>9.3} ms  {:>6.1}x",
            w.name,
            w.circuit.num_qubits(),
            gates,
            w.shots,
            interp.secs * 1e3,
            compiled.secs * 1e3,
            speedup
        );
        entries.push(format!(
            "{{\"name\":{},\"qubits\":{},\"gates\":{},\"shots\":{},\"terminal\":{},\"kernel_classes\":{{{}}},\"interpreted\":{},\"compiled\":{},\"speedup\":{:.2},\"identical\":true}}",
            json_string(w.name),
            w.circuit.num_qubits(),
            gates,
            w.shots,
            program.is_terminal(),
            classes.join(","),
            engine_json(&interp, w.shots, gate_evals),
            engine_json(&compiled, w.shots, gate_evals),
            speedup
        ));
    }
    let mut density_entries = Vec::new();
    for w in density_workloads(short) {
        let sim = DensityMatrixSimulator::with_noise(w.noise.clone());
        // Lowering plus prefix evolution. For a circuit measured at the
        // end this holds all of the channel work; the `compiled` run below
        // only walks the branches and samples.
        let (compile, program) =
            time_best(short, || sim.compile(&w.circuit).expect("density compile"));
        let gates = w.circuit.gate_count() as u64;
        // Density evolution applies every lowered op once per run; the
        // shot loop only samples the resulting distribution.
        let (interp, interp_counts) = time_best(short, || {
            sim.run_interpreted(&w.circuit, w.shots, w.seed)
                .expect("interpreted density run")
        });
        let (compiled, compiled_counts) = time_best(short, || {
            sim.run_compiled(&program, w.shots, w.seed)
                .expect("compiled density run")
        });
        assert_eq!(
            interp_counts, compiled_counts,
            "{}: compiled density counts diverged from the walker — seed-compatibility broken",
            w.name
        );
        let speedup = interp.secs / compiled.secs;
        let classes: Vec<String> = program
            .class_histogram()
            .into_iter()
            .map(|(class, count)| format!("{}:{}", json_string(class.name()), count))
            .collect();
        eprintln!(
            "{:>34}  n={:<2} gates={:<4} shots={:<5} interp {:>9.3} ms  compile {:>9.3} ms  compiled {:>9.3} ms  {:>6.1}x",
            w.name,
            w.circuit.num_qubits(),
            gates,
            w.shots,
            interp.secs * 1e3,
            compile.secs * 1e3,
            compiled.secs * 1e3,
            speedup
        );
        density_entries.push(format!(
            "{{\"name\":{},\"qubits\":{},\"gates\":{},\"ops\":{},\"kraus_terms\":{},\"shots\":{},\"kernel_classes\":{{{}}},\"compile\":{}}},\"interpreted\":{},\"compiled\":{},\"speedup\":{:.2},\"identical\":true}}",
            json_string(w.name),
            w.circuit.num_qubits(),
            gates,
            program.op_count(),
            program.kraus_terms(),
            w.shots,
            classes.join(","),
            timing_json(&compile),
            engine_json(&interp, w.shots, gates),
            engine_json(&compiled, w.shots, gates),
            speedup
        ));
    }
    // Threading section: the same compiled program executed on one thread
    // and on `threads`. Terminal programs split each kernel sweep, which
    // reproduces the sequential arithmetic per amplitude; the mid-circuit
    // program splits its shots, each drawing from its own generator.
    // Counts must be bit-identical either way.
    let mut parallel_entries = Vec::new();
    for w in parallel_workloads(short) {
        let program = CompiledProgram::compile(&w.circuit).expect("compile");
        let run = |threads| {
            StatevectorSimulator::with_seed(w.seed)
                .with_threads(threads)
                .run_compiled(&program, w.shots)
                .expect("parallel run")
        };
        let (single, single_counts) = time_best(short, || run(1));
        let (threaded, threaded_counts) = time_best(short, || run(threads));
        let gate_evals = if program.is_terminal() {
            w.circuit.gate_count() as u64
        } else {
            w.circuit.gate_count() as u64 * w.shots
        };
        assert_eq!(
            single_counts, threaded_counts,
            "{}: threaded counts diverged from sequential — thread identity broken",
            w.name
        );
        let speedup = single.secs / threaded.secs;
        eprintln!(
            "{:>18}  n={:<2} shots={:<5} 1-thread {:>9.3} ms  {}-thread {:>9.3} ms  {:>6.2}x",
            w.name,
            w.circuit.num_qubits(),
            w.shots,
            single.secs * 1e3,
            threads,
            threaded.secs * 1e3,
            speedup
        );
        parallel_entries.push(format!(
            "{{\"name\":{},\"qubits\":{},\"shots\":{},\"threads\":{},\"degenerate\":{},\"single\":{},\"threaded\":{},\"speedup\":{:.2},\"identical\":true}}",
            json_string(w.name),
            w.circuit.num_qubits(),
            w.shots,
            threads,
            degenerate,
            engine_json(&single, w.shots, gate_evals),
            engine_json(&threaded, w.shots, gate_evals),
            speedup
        ));
    }

    // Trajectory section: `run` on one thread against `threads`. Every
    // shot draws from its own (seed, shot) generator, so the thread count
    // must not change a single count; the speedup tracks shot-range
    // scaling.
    let mut trajectory_entries = Vec::new();
    {
        let circuit = ghz_midcircuit(if short { 10 } else { 14 });
        let shots = if short { 64u64 } else { 2048 };
        let noise = DevicePreset::LowNoise.noise_model();
        let seed = 23u64;
        let run = |threads| {
            TrajectorySimulator::new(noise.clone(), seed)
                .with_threads(threads)
                .run(&circuit, shots)
                .expect("trajectory run")
        };
        let (single, single_counts) = time_best(short, || run(1));
        let (threaded, threaded_counts) = time_best(short, || run(threads));
        assert_eq!(
            single_counts, threaded_counts,
            "trajectory: thread count changed the histogram — shot-seed identity broken"
        );
        let speedup = single.secs / threaded.secs;
        eprintln!(
            "{:>18}  n={:<2} shots={:<5} 1-thread {:>9.3} ms  {}-thread {:>9.3} ms  {:>6.2}x",
            "traj_ghz_mid",
            circuit.num_qubits(),
            shots,
            single.secs * 1e3,
            threads,
            threaded.secs * 1e3,
            speedup
        );
        trajectory_entries.push(format!(
            "{{\"name\":\"traj_ghz_midcircuit\",\"qubits\":{},\"shots\":{},\"threads\":{},\"degenerate\":{},\"single\":{},\"threaded\":{},\"speedup\":{:.2},\"identical\":true}}",
            circuit.num_qubits(),
            shots,
            threads,
            degenerate,
            engine_json(&single, shots, circuit.gate_count() as u64),
            engine_json(&threaded, shots, circuit.gate_count() as u64),
            speedup
        ));
    }

    // Stabilizer section: the tableau backend's identity contract at an
    // overlapping width, then the wide Clifford campaign cells no dense
    // engine can touch. The GHZ-16 row asserts bit-identical counts
    // against the compiled statevector engine; the GHZ-128/GHZ-256 rows
    // are SWAP-assertion cells at a million shots, with the stray-X
    // variant proving the ancilla parity actually detects.
    let mut stabilizer_entries = Vec::new();
    {
        let circuit = ghz_clifford_measured(16);
        let shots = if short { 128u64 } else { 8192 };
        let seed = 7u64;
        let program = CompiledProgram::compile(&circuit).expect("compile");
        assert!(program.is_clifford(), "GHZ-16 must be tagged Clifford");
        let (sv, sv_counts) = time_best(short, || {
            StatevectorSimulator::with_seed(seed)
                .run_compiled(&program, shots)
                .expect("statevector run")
        });
        let (stab, stab_counts) = time_best(short, || {
            StabilizerSimulator::with_seed(seed)
                .run(&circuit, shots)
                .expect("stabilizer run")
        });
        assert_eq!(
            sv_counts, stab_counts,
            "ghz16: stabilizer counts diverged from statevector — backend identity broken"
        );
        let speedup = sv.secs / stab.secs;
        eprintln!(
            "{:>18}  n=16 shots={:<7} statevector {:>9.3} ms  stabilizer {:>9.3} ms  {:>6.2}x",
            "ghz16_stab_ident",
            shots,
            sv.secs * 1e3,
            stab.secs * 1e3,
            speedup
        );
        stabilizer_entries.push(format!(
            "{{\"name\":\"ghz16_stabilizer_identity\",\"qubits\":16,\"shots\":{},\"statevector\":{},\"stabilizer\":{},\"speedup\":{:.2},\"identical\":true}}",
            shots,
            engine_json(&sv, shots, circuit.gate_count() as u64),
            engine_json(&stab, shots, circuit.gate_count() as u64),
            speedup
        ));
    }
    for n in [128usize, 256] {
        let shots = if short { 4096u64 } else { 1_000_000 };
        let seed = 31u64;
        let clean = wide_swap_assertion(n, false);
        let faulted = wide_swap_assertion(n, true);
        let gates = clean.gate_count() as u64;
        let (wide, counts) = time_best(short, || {
            StabilizerSimulator::with_seed(seed)
                .run(&clean, shots)
                .expect("wide clean run")
        });
        let flag_clean = counts.any_set_frequency(&[0, 1, 2]);
        let flag_faulted = StabilizerSimulator::with_seed(seed)
            .run(&faulted, shots)
            .expect("wide faulted run")
            .any_set_frequency(&[0, 1, 2]);
        assert_eq!(flag_clean, 0.0, "correct GHZ-{n} must never flag");
        assert!(flag_faulted > 0.99, "stray X on GHZ-{n} must flag");
        if !short {
            assert!(
                wide.secs < 10.0,
                "GHZ-{n} swap assertion at {shots} shots took {:.1}s — \
                 the single-digit-seconds budget is broken",
                wide.secs
            );
        }
        eprintln!(
            "{:>18}  n={:<3} shots={:<7} stabilizer {:>9.3} ms  ({:.2e} shots/s)  flag clean {:.3} faulted {:.3}",
            format!("ghz{n}_swap_assert"),
            n,
            shots,
            wide.secs * 1e3,
            shots as f64 / wide.secs,
            flag_clean,
            flag_faulted
        );
        stabilizer_entries.push(format!(
            "{{\"name\":\"ghz{n}_swap_assert\",\"qubits\":{},\"gates\":{gates},\"shots\":{shots},\"stabilizer\":{},\"flag_rate_clean\":{flag_clean:.4},\"flag_rate_faulted\":{flag_faulted:.4},\"detects\":true}}",
            clean.num_qubits(),
            engine_json(&wide, shots, gates),
        ));
    }

    let json = format!(
        "{{\"bench\":\"sim_throughput\",\"short\":{},\"min_runs_per_engine\":{},\"min_secs_per_engine\":{},\"cores\":{},\"threads\":{},\"workloads\":[{}],\"density\":[{}],\"parallel\":[{}],\"trajectory\":[{}],\"stabilizer\":[{}]}}",
        short,
        if short { 1 } else { 3 },
        if short { 0.0 } else { 1.0 },
        cores,
        threads,
        entries.join(","),
        density_entries.join(","),
        parallel_entries.join(","),
        trajectory_entries.join(","),
        stabilizer_entries.join(",")
    );
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_sim.json");
    println!("{json}");
}
