//! Library backing the `qra` command-line tool.
//!
//! All logic lives here (argument parsing, state specification parsing,
//! command execution) so it is unit-testable; `main.rs` is a thin shim.
//!
//! ```text
//! qra run <file.qasm> [--shots N] [--seed S] [--noise ideal|low|melbourne]
//! qra assert <file.qasm> --qubits 0,1,2 --state ghz [--design auto] …
//! qra cost --qubits-count 3 --state ghz
//! qra info <file.qasm>
//! qra campaign (<file.qasm> | --ghz N) [--sweep …] [--shard I/N] [--margin R|auto]
//! qra sweep run --run-dir <dir> [--workers W] (<file.qasm> | --ghz N) --sweep …
//! qra sweep resume <dir> [--workers W] [--json]
//! qra sweep status <dir> [--json]
//! qra worker --run-dir <dir> [--host LABEL]
//! qra serve [--socket PATH] [--workers W] [--queue-depth N] [--hosts a,b]
//! qra serve --status | --stop [--socket PATH]
//! qra submit [--socket PATH] <job argv…>
//! qra batch <jobs.txt> [--socket PATH]
//! ```

#![deny(missing_docs)]

use qra::circuit::qasm_parser::from_qasm;
use qra::core::Candidates;
use qra::faults::json::json_str;
use qra::faults::{
    auto_margins, cell_record_json, is_sweep_partial, margin_record_json, parse_sweep_partial,
    parse_unit_record, BackendChoice, BaselineCell, CampaignCell, ParsedReport,
};
use qra::orch::{
    monitor_workers, spawn_workers_on, worker_loop_on, EpochOutcome, OrchError,
    DEFAULT_MAX_ATTEMPTS, LOCAL_HOST,
};
use qra::prelude::*;
use qra::serve::{
    request_shutdown, request_status, submit_jobs, JobExecutor, Server, ServerConfig,
};
use qra::sim::ProgramCache;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// Default Unix socket path shared by `qra serve`, `qra submit` and
/// `qra batch`.
pub const DEFAULT_SOCKET: &str = "qra-serve.sock";

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<AssertionError> for CliError {
    fn from(e: AssertionError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qra::circuit::CircuitError> for CliError {
    fn from(e: qra::circuit::CircuitError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qra::sim::SimError> for CliError {
    fn from(e: qra::sim::SimError) -> Self {
        CliError(e.to_string())
    }
}

impl From<OrchError> for CliError {
    fn from(e: OrchError) -> Self {
        CliError(e.0)
    }
}

impl From<qra::faults::MergeError> for CliError {
    fn from(e: qra::faults::MergeError) -> Self {
        CliError(e.0)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a QASM file and print the outcome histogram.
    Run {
        /// Path to the QASM file.
        file: String,
        /// Shot count.
        shots: u64,
        /// RNG seed.
        seed: u64,
        /// Device noise preset.
        noise: DevicePreset,
        /// Amplitude-level simulator threads (`0` = one per core).
        /// Histograms are bit-identical at every thread count.
        sim_threads: usize,
        /// Backend routing: the noise-aware default, per-circuit
        /// stabilizer auto-engage, or the strict tableau backend.
        backend: BackendChoice,
    },
    /// Insert an assertion at the end of a QASM program and report.
    Assert {
        /// Path to the QASM file.
        file: String,
        /// Qubits under test.
        qubits: Vec<usize>,
        /// State specification string.
        state: String,
        /// Design name.
        design: Design,
        /// Shot count.
        shots: u64,
        /// RNG seed.
        seed: u64,
        /// Device noise preset.
        noise: DevicePreset,
        /// Amplitude-level simulator threads (`0` = one per core).
        sim_threads: usize,
        /// Backend routing: the noise-aware default, per-circuit
        /// stabilizer auto-engage, or the strict tableau backend.
        backend: BackendChoice,
    },
    /// Print the per-design circuit cost of asserting a state.
    Cost {
        /// Number of qubits the state covers.
        num_qubits: usize,
        /// State specification string.
        state: String,
    },
    /// Print structural information about a QASM file.
    Info {
        /// Path to the QASM file.
        file: String,
    },
    /// Run a fault-injection campaign over a program.
    Campaign(CampaignArgs),
    /// Reassemble partial outputs into the full report: campaign shard
    /// reports (`campaign --shard i/n --json`) or sweep partials
    /// (`campaign --sweep … --shard i/n`).
    CampaignMerge {
        /// Paths of the shard/partial JSON files, in any order.
        files: Vec<String>,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Start an orchestrated sweep: initialize a run directory and drive
    /// worker subprocesses until the unit grid is covered.
    SweepRun {
        /// The run directory to create.
        dir: String,
        /// Worker subprocess count (`None` = available parallelism).
        workers: Option<usize>,
        /// Per-unit execution deadline in milliseconds (`None` = none).
        /// A worker whose claimed unit outlives it is killed and the
        /// unit reclaimed for another attempt.
        unit_timeout_ms: Option<u64>,
        /// Failed attempts before a unit is quarantined as a named skip.
        max_attempts: u32,
        /// Worker host labels (`--hosts`); empty means local-only.
        hosts: Vec<String>,
        /// The sweep's campaign description (must have `sweep` set).
        args: Box<CampaignArgs>,
    },
    /// Resume an interrupted orchestrated sweep: clear stale claims, spawn
    /// fresh workers for the remaining units, and print the merged report.
    SweepResume {
        /// The run directory.
        dir: String,
        /// Worker count override (`None` = the manifest's count).
        workers: Option<usize>,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Print an orchestrated sweep's progress without running anything.
    SweepStatus {
        /// The run directory.
        dir: String,
        /// Emit machine-readable JSON instead of text.
        json: bool,
    },
    /// Run one worker over an orchestrated sweep's run directory
    /// (normally spawned by `sweep run`, not invoked by hand).
    Worker {
        /// The run directory.
        dir: String,
        /// Host label for the worker's results stream (`None` = local).
        host: Option<String>,
    },
    /// Run the streaming assertion daemon over a Unix socket — or, with
    /// `--status`/`--stop`, query or drain a live one.
    Serve {
        /// Unix socket path.
        socket: String,
        /// Worker threads (`0` = available parallelism).
        workers: usize,
        /// Work-queue depth; jobs beyond it are refused (backpressure).
        queue_depth: usize,
        /// Host labels appended to sweep-run jobs (`--hosts`).
        hosts: Vec<String>,
        /// Print a live daemon's status JSON instead of serving.
        status: bool,
        /// Ask a live daemon to drain and exit instead of serving.
        stop: bool,
    },
    /// Submit one job to a live daemon and print its output.
    Submit {
        /// Unix socket path.
        socket: String,
        /// The job's `qra` argv (e.g. `run prog.qasm --shots 100`).
        argv: Vec<String>,
    },
    /// Submit a file of jobs (one whitespace-split argv per line) to a
    /// live daemon and summarize the responses.
    Batch {
        /// Unix socket path.
        socket: String,
        /// Path of the jobs file.
        file: String,
    },
    /// Print usage help.
    Help,
}

/// Everything a fault-injection campaign (or sweep) needs — the parsed
/// form of the `qra campaign` flag set, reusable by the orchestrator
/// (whose manifests store the equivalent argv, see
/// [`CampaignArgs::to_argv`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArgs {
    /// Program source: a QASM file, or a built-in GHZ preparation.
    pub source: CampaignSource,
    /// State specification string (defaults to `ghz`).
    pub state: String,
    /// Schemes to evaluate.
    pub designs: Vec<CampaignDesign>,
    /// Number of double-fault mutants to sample (0 = singles only).
    pub doubles: usize,
    /// Shot count per cell.
    pub shots: u64,
    /// Base seed (campaigns are reproducible per seed).
    pub seed: u64,
    /// Wall-clock deadline in milliseconds (`None` = unbounded).
    pub deadline_ms: Option<u64>,
    /// Memory budget for the exact density-matrix backend, in MiB.
    pub memory_budget_mb: u64,
    /// Worker threads for the cell matrix (`None` = available
    /// parallelism). Reports are byte-identical for any job count.
    pub jobs: Option<usize>,
    /// Amplitude-level simulator threads per cell (`None` = auto:
    /// `max(1, cores / jobs)`). Like `jobs`, never affects report bytes.
    pub sim_threads: Option<usize>,
    /// Device noise preset (ignored when `sweep` is set).
    pub noise: DevicePreset,
    /// Detection threshold for the single-point campaign (sweeps
    /// derive per-point thresholds from the false-positive floor).
    pub threshold: f64,
    /// Backend routing: the noise-aware default, per-cell stabilizer
    /// auto-engage, or the strict tableau backend.
    pub backend: BackendChoice,
    /// Run only this shard: of the cell list for a single campaign, or of
    /// the `(point × cell)` unit grid when `sweep` is also set (emitting a
    /// mergeable sweep partial).
    pub shard: Option<Shard>,
    /// When set, run the campaign at each `(preset, scale)` noise
    /// point instead of a single point.
    pub sweep: Option<Vec<(DevicePreset, f64)>>,
    /// How each sweep point's detection margin over its false-positive
    /// floor is derived: a fixed rate, or auto-calibrated from baseline
    /// variance across repeated seeds.
    pub margin: MarginMode,
    /// Emit JSON instead of text.
    pub json: bool,
}

impl CampaignArgs {
    /// The canonical `qra` argv reproducing these args (modulo `--json`,
    /// which is an output concern). Orchestrator manifests store this so
    /// workers and `sweep resume` rebuild the identical campaign; every
    /// numeric field round-trips exactly (shortest-representation floats).
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec!["campaign".to_string()];
        match &self.source {
            CampaignSource::File(file) => argv.push(file.clone()),
            CampaignSource::Ghz(n) => argv.extend(["--ghz".into(), n.to_string()]),
        }
        argv.extend(["--state".into(), self.state.clone()]);
        argv.extend([
            "--designs".into(),
            self.designs
                .iter()
                .map(|d| d.name())
                .collect::<Vec<_>>()
                .join(","),
        ]);
        argv.extend(["--doubles".into(), self.doubles.to_string()]);
        argv.extend(["--shots".into(), self.shots.to_string()]);
        argv.extend(["--seed".into(), self.seed.to_string()]);
        if let Some(ms) = self.deadline_ms {
            argv.extend(["--deadline-ms".into(), ms.to_string()]);
        }
        argv.extend([
            "--memory-budget-mb".into(),
            self.memory_budget_mb.to_string(),
        ]);
        if let Some(jobs) = self.jobs {
            argv.extend(["--jobs".into(), jobs.to_string()]);
        }
        if let Some(sim_threads) = self.sim_threads {
            argv.extend(["--sim-threads".into(), sim_threads.to_string()]);
        }
        argv.extend(["--noise".into(), self.noise.name().to_string()]);
        argv.extend(["--threshold".into(), format!("{}", self.threshold)]);
        argv.extend(["--backend".into(), self.backend.name().to_string()]);
        if let Some(points) = &self.sweep {
            argv.extend([
                "--sweep".into(),
                points
                    .iter()
                    .map(|&(preset, factor)| {
                        if factor == 1.0 {
                            preset.name().to_string()
                        } else {
                            format!("{}:{factor}", preset.name())
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(","),
            ]);
        }
        argv.extend(["--margin".into(), self.margin.to_string()]);
        if let Some(shard) = self.shard {
            argv.extend(["--shard".into(), format!("{}/{}", shard.index, shard.count)]);
        }
        argv
    }
}

/// Where a campaign's program under test comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignSource {
    /// A QASM file on disk.
    File(String),
    /// The built-in n-qubit GHZ preparation.
    Ghz(usize),
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a usage-style message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    let rest: Vec<&String> = it.collect();
    let flag = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    let positional: Vec<&str> = {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &rest {
            if skip {
                skip = false;
                continue;
            }
            if a.as_str() == "--json" {
                continue; // boolean flag: consumes no value
            }
            if a.starts_with("--") {
                skip = true;
                continue;
            }
            out.push(a.as_str());
        }
        out
    };
    let shots = match flag("--shots") {
        Some(s) => s.parse().map_err(|_| err(format!("bad --shots '{s}'")))?,
        None => 8192,
    };
    let seed = match flag("--seed") {
        Some(s) => s.parse().map_err(|_| err(format!("bad --seed '{s}'")))?,
        None => 1,
    };
    // All preset parsing goes through `DevicePreset::from_str`, so the CLI,
    // the bench binaries and the library accept the same names (and report
    // the same "expected one of" list on a typo).
    let noise = match flag("--noise") {
        Some(name) => DevicePreset::from_str(name).map_err(|e| err(e.to_string()))?,
        None => DevicePreset::Ideal,
    };
    let design = match flag("--design") {
        None | Some("auto") => Design::Auto,
        Some("swap") => Design::Swap,
        Some("or") | Some("logical-or") => Design::LogicalOr,
        Some("ndd") => Design::Ndd,
        Some(other) => return Err(err(format!("unknown design '{other}'"))),
    };
    let sim_threads = match flag("--sim-threads") {
        Some(t) => t
            .parse()
            .map_err(|_| err(format!("bad --sim-threads '{t}'")))?,
        None => 1,
    };
    // `run`/`assert` share `--backend` spelling and routing with
    // campaigns (and therefore with jobs executed by the daemon).
    let backend = match flag("--backend") {
        Some(b) => BackendChoice::from_name(b).ok_or_else(|| {
            err(format!(
                "unknown backend '{b}' (expected default, auto or stabilizer)"
            ))
        })?,
        None => BackendChoice::default(),
    };
    let hosts: Vec<String> = flag("--hosts")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|h| !h.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let socket = flag("--socket").unwrap_or(DEFAULT_SOCKET).to_string();

    match cmd {
        "run" => {
            let file = positional
                .first()
                .ok_or_else(|| err("run: missing <file.qasm>"))?
                .to_string();
            Ok(Command::Run {
                file,
                shots,
                seed,
                noise,
                sim_threads,
                backend,
            })
        }
        "assert" => {
            let file = positional
                .first()
                .ok_or_else(|| err("assert: missing <file.qasm>"))?
                .to_string();
            let qubits =
                parse_qubit_list(flag("--qubits").ok_or_else(|| err("assert: missing --qubits"))?)?;
            let state = flag("--state")
                .ok_or_else(|| err("assert: missing --state"))?
                .to_string();
            Ok(Command::Assert {
                file,
                qubits,
                state,
                design,
                shots,
                seed,
                noise,
                sim_threads,
                backend,
            })
        }
        "cost" => {
            let num_qubits = flag("--qubits-count")
                .ok_or_else(|| err("cost: missing --qubits-count"))?
                .parse()
                .map_err(|_| err("bad --qubits-count"))?;
            let state = flag("--state")
                .ok_or_else(|| err("cost: missing --state"))?
                .to_string();
            Ok(Command::Cost { num_qubits, state })
        }
        "info" => {
            let file = positional
                .first()
                .ok_or_else(|| err("info: missing <file.qasm>"))?
                .to_string();
            Ok(Command::Info { file })
        }
        "campaign" => {
            if positional.first() == Some(&"merge") {
                let files: Vec<String> = positional[1..].iter().map(|s| s.to_string()).collect();
                if files.is_empty() {
                    return Err(err("campaign merge: missing shard files"));
                }
                let json = rest.iter().any(|a| a.as_str() == "--json");
                return Ok(Command::CampaignMerge { files, json });
            }
            let source = campaign_source(flag("--ghz"), positional.first().copied())?;
            let args = parse_campaign_args(&rest, Some(source), shots, seed, noise)?;
            Ok(Command::Campaign(args))
        }
        "sweep" => {
            let json = rest.iter().any(|a| a.as_str() == "--json");
            let workers = match flag("--workers") {
                Some(w) => {
                    let w: usize = w.parse().map_err(|_| err(format!("bad --workers '{w}'")))?;
                    if w == 0 {
                        return Err(err("sweep: --workers needs at least 1 worker"));
                    }
                    Some(w)
                }
                None => None,
            };
            match positional.first().copied() {
                Some("run") => {
                    let dir = flag("--run-dir")
                        .ok_or_else(|| err("sweep run: missing --run-dir <dir>"))?
                        .to_string();
                    // Seconds on the command line (fractions allowed — tests
                    // time out in well under a second), milliseconds in the
                    // manifest.
                    let unit_timeout_ms = match flag("--unit-timeout") {
                        Some(t) => {
                            let secs: f64 = t
                                .parse()
                                .map_err(|_| err(format!("bad --unit-timeout '{t}'")))?;
                            if !secs.is_finite() || secs <= 0.0 {
                                return Err(err(
                                    "sweep run: --unit-timeout must be a positive number \
                                     of seconds",
                                ));
                            }
                            Some(((secs * 1000.0).round() as u64).max(1))
                        }
                        None => None,
                    };
                    let max_attempts = match flag("--max-attempts") {
                        Some(m) => {
                            let m: u32 = m
                                .parse()
                                .map_err(|_| err(format!("bad --max-attempts '{m}'")))?;
                            if m == 0 {
                                return Err(err(
                                    "sweep run: --max-attempts needs at least 1 attempt",
                                ));
                            }
                            m
                        }
                        None => DEFAULT_MAX_ATTEMPTS,
                    };
                    let source = campaign_source(flag("--ghz"), positional.get(1).copied())?;
                    let args = parse_campaign_args(&rest, Some(source), shots, seed, noise)?;
                    if args.sweep.is_none() {
                        return Err(err(
                            "sweep run: --sweep is required (the orchestrator distributes \
                             sweep points)",
                        ));
                    }
                    if args.shard.is_some() {
                        return Err(err(
                            "sweep run: --shard conflicts with orchestration (the run \
                             directory already splits the unit grid)",
                        ));
                    }
                    Ok(Command::SweepRun {
                        dir,
                        workers,
                        unit_timeout_ms,
                        max_attempts,
                        hosts,
                        args: Box::new(args),
                    })
                }
                Some("resume") => {
                    let dir = positional
                        .get(1)
                        .ok_or_else(|| err("sweep resume: missing <run-dir>"))?
                        .to_string();
                    Ok(Command::SweepResume { dir, workers, json })
                }
                Some("status") => {
                    let dir = positional
                        .get(1)
                        .ok_or_else(|| err("sweep status: missing <run-dir>"))?
                        .to_string();
                    Ok(Command::SweepStatus { dir, json })
                }
                _ => Err(err("sweep: expected run, resume or status; try 'qra help'")),
            }
        }
        "worker" => {
            let dir = flag("--run-dir")
                .ok_or_else(|| err("worker: missing --run-dir <dir>"))?
                .to_string();
            let host = flag("--host").map(str::to_string);
            Ok(Command::Worker { dir, host })
        }
        "serve" => {
            let workers = match flag("--workers") {
                Some(w) => w.parse().map_err(|_| err(format!("bad --workers '{w}'")))?,
                None => 0, // available parallelism
            };
            let queue_depth = match flag("--queue-depth") {
                Some(q) => {
                    let q: usize = q
                        .parse()
                        .map_err(|_| err(format!("bad --queue-depth '{q}'")))?;
                    if q == 0 {
                        return Err(err("serve: --queue-depth needs at least 1 slot"));
                    }
                    q
                }
                None => 256,
            };
            let status = rest.iter().any(|a| a.as_str() == "--status");
            let stop = rest.iter().any(|a| a.as_str() == "--stop");
            if status && stop {
                return Err(err("serve: --status and --stop are mutually exclusive"));
            }
            Ok(Command::Serve {
                socket,
                workers,
                queue_depth,
                hosts,
                status,
                stop,
            })
        }
        "submit" => {
            // Everything from the first non-flag token on (or after a
            // literal `--`) is the job's own argv, flags included.
            let mut argv = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--" => {
                        argv.extend(rest[i + 1..].iter().map(|s| s.to_string()));
                        break;
                    }
                    "--socket" => i += 2,
                    _ => {
                        argv.extend(rest[i..].iter().map(|s| s.to_string()));
                        break;
                    }
                }
            }
            if argv.is_empty() {
                return Err(err(
                    "submit: missing the job argv (e.g. `qra submit run prog.qasm`)",
                ));
            }
            Ok(Command::Submit { socket, argv })
        }
        "batch" => {
            let file = positional
                .first()
                .ok_or_else(|| err("batch: missing <jobs.txt>"))?
                .to_string();
            Ok(Command::Batch { socket, file })
        }
        other => Err(err(format!("unknown command '{other}'; try 'qra help'"))),
    }
}

/// Resolves a campaign's program source from `--ghz N` or the positional
/// QASM path.
fn campaign_source(
    ghz: Option<&str>,
    positional: Option<&str>,
) -> Result<CampaignSource, CliError> {
    match ghz {
        Some(n) => {
            let n: usize = n.parse().map_err(|_| err(format!("bad --ghz '{n}'")))?;
            if n == 0 {
                return Err(err("campaign: --ghz needs at least 1 qubit"));
            }
            Ok(CampaignSource::Ghz(n))
        }
        None => Ok(CampaignSource::File(
            positional
                .ok_or_else(|| err("campaign: missing <file.qasm> or --ghz N"))?
                .to_string(),
        )),
    }
}

/// Parses the campaign flag set shared by `qra campaign` and
/// `qra sweep run` into [`CampaignArgs`].
fn parse_campaign_args(
    rest: &[&String],
    source: Option<CampaignSource>,
    shots: u64,
    seed: u64,
    noise: DevicePreset,
) -> Result<CampaignArgs, CliError> {
    let flag = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    let source = source.ok_or_else(|| err("campaign: missing <file.qasm> or --ghz N"))?;
    let state = flag("--state").unwrap_or("ghz").to_string();
    let designs = parse_design_list(flag("--designs").unwrap_or("swap,or,ndd"))?;
    let doubles = match flag("--doubles") {
        Some(d) => d.parse().map_err(|_| err(format!("bad --doubles '{d}'")))?,
        None => 0,
    };
    let deadline_ms = match flag("--deadline-ms") {
        Some(d) => Some(
            d.parse()
                .map_err(|_| err(format!("bad --deadline-ms '{d}'")))?,
        ),
        None => None,
    };
    let memory_budget_mb = match flag("--memory-budget-mb") {
        Some(m) => m
            .parse()
            .map_err(|_| err(format!("bad --memory-budget-mb '{m}'")))?,
        None => 256,
    };
    let jobs = match flag("--jobs") {
        Some(j) => {
            let j: usize = j.parse().map_err(|_| err(format!("bad --jobs '{j}'")))?;
            if j == 0 {
                return Err(err("campaign: --jobs needs at least 1 worker"));
            }
            Some(j)
        }
        None => None,
    };
    let sim_threads = match flag("--sim-threads") {
        Some(t) => {
            let t: usize = t
                .parse()
                .map_err(|_| err(format!("bad --sim-threads '{t}'")))?;
            if t == 0 {
                return Err(err("campaign: --sim-threads needs at least 1 thread"));
            }
            Some(t)
        }
        None => None,
    };
    let threshold = match flag("--threshold") {
        Some(t) => {
            let t: f64 = t
                .parse()
                .map_err(|_| err(format!("bad --threshold '{t}'")))?;
            if !t.is_finite() || t < 0.0 {
                return Err(err("campaign: --threshold must be a finite rate >= 0"));
            }
            t
        }
        None => 0.05,
    };
    let backend = match flag("--backend") {
        Some(b) => BackendChoice::from_name(b).ok_or_else(|| {
            err(format!(
                "campaign: unknown backend '{b}' (expected default, auto or stabilizer)"
            ))
        })?,
        None => BackendChoice::default(),
    };
    let margin = match flag("--margin") {
        Some(m) => MarginMode::from_str(m).map_err(|e| err(format!("campaign: {e}")))?,
        None => MarginMode::default(),
    };
    let shard = match flag("--shard") {
        Some(s) => {
            Some(Shard::from_str(s).map_err(|e| err(format!("campaign: bad --shard: {e}")))?)
        }
        None => None,
    };
    let sweep = flag("--sweep").map(parse_sweep_list).transpose()?;
    if sweep.is_none() && matches!(margin, MarginMode::Auto { .. }) {
        return Err(err(
            "campaign: --margin auto calibrates sweep thresholds; it needs --sweep",
        ));
    }
    let json = rest.iter().any(|a| a.as_str() == "--json");
    Ok(CampaignArgs {
        source,
        state,
        designs,
        doubles,
        shots,
        seed,
        deadline_ms,
        memory_budget_mb,
        jobs,
        sim_threads,
        noise,
        threshold,
        backend,
        shard,
        sweep,
        margin,
        json,
    })
}

/// Parses `0,1,2` into qubit indices.
///
/// # Errors
///
/// Returns [`CliError`] on malformed numbers.
pub fn parse_qubit_list(text: &str) -> Result<Vec<usize>, CliError> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| err(format!("bad qubit '{s}'"))))
        .collect()
}

/// Parses `swap,or,ndd,stat` (or `all`) into campaign schemes.
///
/// # Errors
///
/// Returns [`CliError`] on unknown scheme names or an empty list.
pub fn parse_design_list(text: &str) -> Result<Vec<CampaignDesign>, CliError> {
    if text == "all" {
        return Ok(CampaignDesign::ALL.to_vec());
    }
    let designs: Result<Vec<CampaignDesign>, CliError> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s {
            "swap" => Ok(CampaignDesign::Swap),
            "or" | "logical-or" => Ok(CampaignDesign::LogicalOr),
            "ndd" => Ok(CampaignDesign::Ndd),
            "stat" => Ok(CampaignDesign::Stat),
            other => Err(err(format!("unknown campaign design '{other}'"))),
        })
        .collect();
    let designs = designs?;
    if designs.is_empty() {
        return Err(err("campaign: --designs must not be empty"));
    }
    Ok(designs)
}

/// Parses `ideal,low,melbourne:2.0` into sweep points: comma-separated
/// device presets, each optionally scaled by `:FACTOR`
/// ([`NoiseModel::scaled`] clamping rules apply).
///
/// # Errors
///
/// Returns [`CliError`] on unknown presets, malformed or non-positive
/// factors, or an empty list.
pub fn parse_sweep_list(text: &str) -> Result<Vec<(DevicePreset, f64)>, CliError> {
    let points: Result<Vec<(DevicePreset, f64)>, CliError> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|item| {
            let (name, factor) = match item.split_once(':') {
                Some((name, factor)) => {
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| err(format!("bad sweep factor '{factor}'")))?;
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(err(format!(
                            "sweep factor must be a finite positive number, got '{factor}'"
                        )));
                    }
                    (name, factor)
                }
                None => (item, 1.0),
            };
            let preset = DevicePreset::from_str(name).map_err(|e| err(e.to_string()))?;
            Ok((preset, factor))
        })
        .collect();
    let points = points?;
    if points.is_empty() {
        return Err(err("campaign: --sweep must name at least one preset"));
    }
    Ok(points)
}

/// Parses a state specification string into a [`StateSpec`] over
/// `num_qubits` qubits. Supported forms:
///
/// * `ghz`, `bell`, `w`, `plus`, `zero` — named states;
/// * `basis:IDX` — the computational basis state `|IDX⟩`;
/// * `set:IDX1;IDX2;…` — approximate assertion over basis states;
/// * `amps:re,im;re,im;…` — explicit amplitudes (length `2ⁿ`).
///
/// # Errors
///
/// Returns [`CliError`] for unknown names or malformed values.
pub fn parse_state(text: &str, num_qubits: usize) -> Result<StateSpec, CliError> {
    let dim = 1usize << num_qubits;
    let s = 0.5f64.sqrt();
    match text {
        "ghz" => {
            let mut v = CVector::zeros(dim);
            v[0] = C64::from(s);
            v[dim - 1] = C64::from(s);
            Ok(StateSpec::pure(v)?)
        }
        "bell" => {
            if num_qubits != 2 {
                return Err(err("bell needs exactly 2 qubits"));
            }
            let mut v = CVector::zeros(4);
            v[0] = C64::from(s);
            v[3] = C64::from(s);
            Ok(StateSpec::pure(v)?)
        }
        "w" => {
            let amp = C64::from(1.0 / (num_qubits as f64).sqrt());
            let mut v = CVector::zeros(dim);
            for q in 0..num_qubits {
                v[1usize << (num_qubits - 1 - q)] = amp;
            }
            Ok(StateSpec::pure(v)?)
        }
        "plus" => {
            let amp = C64::from(1.0 / (dim as f64).sqrt());
            let v = CVector::new(vec![amp; dim]);
            Ok(StateSpec::pure(v)?)
        }
        "zero" => Ok(StateSpec::pure(CVector::basis_state(dim, 0))?),
        other => {
            if let Some(idx) = other.strip_prefix("basis:") {
                let i: usize = idx.parse().map_err(|_| err(format!("bad index '{idx}'")))?;
                if i >= dim {
                    return Err(err(format!("basis index {i} out of range for {dim}")));
                }
                return Ok(StateSpec::pure(CVector::basis_state(dim, i))?);
            }
            if let Some(list) = other.strip_prefix("set:") {
                let members: Result<Vec<CVector>, CliError> = list
                    .split(';')
                    .filter(|p| !p.is_empty())
                    .map(|p| {
                        let i: usize = p
                            .trim()
                            .parse()
                            .map_err(|_| err(format!("bad index '{p}'")))?;
                        if i >= dim {
                            return Err(err(format!("set index {i} out of range")));
                        }
                        Ok(CVector::basis_state(dim, i))
                    })
                    .collect();
                return Ok(StateSpec::set(members?)?);
            }
            if let Some(list) = other.strip_prefix("amps:") {
                let amps: Result<Vec<C64>, CliError> = list
                    .split(';')
                    .filter(|p| !p.is_empty())
                    .map(|pair| {
                        let (re, im) = pair
                            .split_once(',')
                            .ok_or_else(|| err(format!("bad amplitude '{pair}'")))?;
                        Ok(C64::new(
                            re.trim().parse().map_err(|_| err("bad real part"))?,
                            im.trim().parse().map_err(|_| err("bad imag part"))?,
                        ))
                    })
                    .collect();
                let amps = amps?;
                if amps.len() != dim {
                    return Err(err(format!(
                        "amps length {} does not match 2^{num_qubits}",
                        amps.len()
                    )));
                }
                return Ok(StateSpec::pure(CVector::new(amps))?);
            }
            Err(err(format!("unknown state '{other}'")))
        }
    }
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] on I/O, parsing or simulation failures.
pub fn execute(command: &Command) -> Result<String, CliError> {
    execute_with_cache(command, None)
}

/// [`execute`] with an optional shared [`ProgramCache`]: `run`, `assert`
/// and `campaign` route their circuit lowering through it, so a long-lived
/// caller (the `qra serve` daemon) amortizes compilation across repeat
/// circuits. Cached and fresh compiles are bit-identical, so the cache
/// never changes any output.
///
/// # Errors
///
/// Returns [`CliError`] on I/O, parsing or simulation failures.
pub fn execute_with_cache(
    command: &Command,
    cache: Option<&Arc<ProgramCache>>,
) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Info { file } => {
            let circuit = load(file)?;
            let mut out = String::new();
            let _ = writeln!(out, "qubits:   {}", circuit.num_qubits());
            let _ = writeln!(out, "clbits:   {}", circuit.num_clbits());
            let _ = writeln!(out, "gates:    {}", circuit.gate_count());
            let _ = writeln!(out, "depth:    {}", circuit.depth());
            let _ = writeln!(out, "2q-depth: {}", circuit.two_qubit_depth());
            let counts = GateCounts::of(&circuit)?;
            let _ = writeln!(out, "cost:     {counts}");
            let _ = writeln!(out, "ops:");
            for (name, n) in circuit.count_ops() {
                let _ = writeln!(out, "  {name:10} {n}");
            }
            Ok(out)
        }
        Command::Run {
            file,
            shots,
            seed,
            noise,
            sim_threads,
            backend,
        } => {
            let circuit = load(file)?;
            let counts = run_counts(
                &circuit,
                *shots,
                *seed,
                *noise,
                *sim_threads,
                *backend,
                cache,
            )?;
            let mut out = String::new();
            let _ = writeln!(out, "shots: {}", counts.total());
            for (key, n) in counts.iter() {
                let _ = writeln!(
                    out,
                    "  {}: {n} ({:.3})",
                    counts.key_to_string(key),
                    n as f64 / counts.total() as f64
                );
            }
            Ok(out)
        }
        Command::Assert {
            file,
            qubits,
            state,
            design,
            shots,
            seed,
            noise,
            sim_threads,
            backend,
        } => {
            let mut circuit = load(file)?;
            let spec = parse_state(state, qubits.len())?;
            let handle = insert_assertion(&mut circuit, qubits, &spec, *design)?;
            let counts = run_counts(
                &circuit,
                *shots,
                *seed,
                *noise,
                *sim_threads,
                *backend,
                cache,
            )?;
            let rate = handle.error_rate(&counts);
            let mut out = String::new();
            let _ = writeln!(out, "design:        {}", handle.design);
            let _ = writeln!(out, "circuit cost:  {}", handle.counts);
            let _ = writeln!(out, "error rate:    {rate:.4}");
            let verdict = if rate > 0.01 { "FAIL" } else { "pass" };
            let _ = writeln!(out, "verdict:       {verdict}");
            Ok(out)
        }
        Command::CampaignMerge { files, json } => {
            let texts: Vec<(String, String)> = files
                .iter()
                .map(|file| {
                    std::fs::read_to_string(file)
                        .map(|text| (file.clone(), text))
                        .map_err(|e| err(format!("cannot read {file}: {e}")))
                })
                .collect::<Result<_, _>>()?;
            // One partial makes this a sweep merge: mixing the two report
            // kinds is a user error named after the odd file out.
            if texts.iter().any(|(_, text)| is_sweep_partial(text)) {
                if let Some((file, _)) = texts.iter().find(|(_, text)| !is_sweep_partial(text)) {
                    return Err(err(format!(
                        "{file} is a campaign shard, not a sweep partial; the two cannot \
                         be merged together"
                    )));
                }
                let partials: Vec<(String, SweepPartial)> = texts
                    .iter()
                    .map(|(file, text)| {
                        parse_sweep_partial(text)
                            .map(|p| (file.clone(), p))
                            .map_err(|e| err(format!("{file}: {e}")))
                    })
                    .collect::<Result<_, _>>()?;
                let report = merge_sweep_partials_named(&partials)?;
                return Ok(if *json {
                    report.to_json()
                } else {
                    report.render_text()
                });
            }
            let shards: Vec<(String, ParsedReport)> = texts
                .iter()
                .map(|(file, text)| {
                    qra::faults::parse_report(text)
                        .map(|p| (file.clone(), p))
                        .map_err(|e| err(format!("{file}: {e}")))
                })
                .collect::<Result<_, _>>()?;
            let report = merge_reports_named(&shards)?;
            Ok(if *json {
                report.to_json()
            } else {
                report.render_text()
            })
        }
        Command::Campaign(args) => run_campaign_command(args, cache),
        Command::SweepRun {
            dir,
            workers,
            unit_timeout_ms,
            max_attempts,
            hosts,
            args,
        } => sweep_run(dir, *workers, *unit_timeout_ms, *max_attempts, hosts, args),
        Command::SweepResume { dir, workers, json } => sweep_resume(dir, *workers, *json),
        Command::SweepStatus { dir, json } => sweep_status(dir, *json).map(|(out, _code)| out),
        Command::Worker { dir, host } => run_worker(dir, host.as_deref()),
        Command::Serve {
            socket,
            workers,
            queue_depth,
            hosts,
            status,
            stop,
        } => serve_command(socket, *workers, *queue_depth, hosts, *status, *stop),
        Command::Submit { socket, argv } => submit_command(socket, argv).map(|(out, _code)| out),
        Command::Batch { socket, file } => batch_command(socket, file).map(|(out, _code)| out),
        Command::Cost { num_qubits, state } => {
            let spec = parse_state(state, *num_qubits)?;
            // One basis completion and one plan serve all three designs.
            let candidates = Candidates::new(&spec)?;
            let mut out = String::new();
            for design in [Design::Swap, Design::LogicalOr, Design::Ndd] {
                match candidates.counts(design) {
                    Ok(counts) => {
                        let _ = writeln!(out, "{design:12} {counts}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{design:12} unavailable: {e}");
                    }
                }
            }
            let _ = writeln!(out, "auto picks:  {}", candidates.cheapest()?);
            Ok(out)
        }
    }
}

/// Executes a parsed command, returning the text to print and the process
/// exit code. Most commands exit 0 on success; `sweep status` also reports
/// through the code so scripts can branch without parsing text: 0 when the
/// unit grid is complete, 2 while units remain, 3 when quarantined units
/// are present (complete or not). `submit` exits with the remote job's own
/// code; `batch` exits 1 when any job failed.
///
/// # Errors
///
/// Returns [`CliError`] on I/O, parsing or simulation failures.
pub fn execute_with_code(command: &Command) -> Result<(String, i32), CliError> {
    execute_with_code_cached(command, None)
}

/// [`execute_with_code`] with an optional shared [`ProgramCache`] — the
/// entry point the `qra serve` daemon's job executor uses, so daemon jobs
/// report the same exit codes as one-shot invocations.
///
/// # Errors
///
/// Returns [`CliError`] on I/O, parsing or simulation failures.
pub fn execute_with_code_cached(
    command: &Command,
    cache: Option<&Arc<ProgramCache>>,
) -> Result<(String, i32), CliError> {
    match command {
        Command::SweepStatus { dir, json } => sweep_status(dir, *json),
        Command::Submit { socket, argv } => submit_command(socket, argv),
        Command::Batch { socket, file } => batch_command(socket, file),
        other => execute_with_cache(other, cache).map(|out| (out, 0)),
    }
}

/// The program, spec, mutant list and base configuration shared by every
/// execution path of a campaign (single, sharded, sweep, sweep unit).
struct CampaignSetup {
    program: Circuit,
    qubits: Vec<usize>,
    spec: StateSpec,
    mutants: Vec<Mutant>,
    config: CampaignConfig,
}

fn campaign_setup(args: &CampaignArgs) -> Result<CampaignSetup, CliError> {
    let program = match &args.source {
        CampaignSource::File(file) => load(file)?,
        CampaignSource::Ghz(n) => qra::algorithms::states::ghz(*n),
    };
    let qubits: Vec<usize> = (0..program.num_qubits()).collect();
    // Reject oversized programs before building the 2^n-amplitude
    // spec: campaigns assert every program qubit, and the CLI's state
    // specs materialize 2^n amplitudes regardless of backend, so even
    // the 4096-qubit stabilizer engine can't rescue a wider run here.
    // Wide tableau campaigns go through the library API, which accepts
    // circuits directly (see README "Stabilizer fast path"). Wired to
    // the dense-backend constant so the two can't drift.
    const MAX_CAMPAIGN_QUBITS: usize = qra::sim::exec::MAX_QUBITS;
    if qubits.len() > MAX_CAMPAIGN_QUBITS {
        return Err(err(format!(
            "campaign: program has {} qubits; the widest CLI backend supports \
             {MAX_CAMPAIGN_QUBITS} — shrink the program under test, or drive \
             wider Clifford campaigns through the library API",
            qubits.len()
        )));
    }
    let spec = parse_state(&args.state, qubits.len())?;
    let injector = FaultInjector::new(args.seed);
    let mut mutants = injector.enumerate_single(&program);
    mutants.extend(injector.sample_double(&program, args.doubles));
    let config = CampaignConfig {
        shots: args.shots,
        seed: args.seed,
        designs: args.designs.clone(),
        deadline: args.deadline_ms.map(std::time::Duration::from_millis),
        memory_budget_bytes: args.memory_budget_mb.saturating_mul(1 << 20),
        jobs: args.jobs.unwrap_or(0), // 0 = available parallelism
        sim_threads: args.sim_threads.unwrap_or(0), // 0 = max(1, cores / jobs)
        noise: args.noise.noise_model(),
        detection_threshold: args.threshold,
        backend: args.backend,
        shard: None, // single-campaign path re-applies args.shard itself
        ..CampaignConfig::default()
    };
    Ok(CampaignSetup {
        program,
        qubits,
        spec,
        mutants,
        config,
    })
}

/// Materializes `--sweep` points as labelled noise models.
fn sweep_points(points: &[(DevicePreset, f64)]) -> Vec<SweepPoint> {
    points
        .iter()
        .map(|&(preset, factor)| {
            if factor == 1.0 {
                SweepPoint::preset(preset)
            } else {
                SweepPoint::scaled(preset, factor)
            }
        })
        .collect()
}

/// The sweep's `(cells_per_point, units_per_point)` grid: one unit per
/// campaign cell, plus one calibration unit per point in auto-margin mode.
fn sweep_grid(args: &CampaignArgs, setup: &CampaignSetup) -> (usize, usize) {
    let cells = args.designs.len() * (1 + setup.mutants.len());
    let units = cells + usize::from(matches!(args.margin, MarginMode::Auto { .. }));
    (cells, units)
}

/// Executes one sweep unit and serializes its JSONL record. Cell units run
/// the campaign's single-cell shard at the point's noise (same derived
/// seeds as the sequential sweep); the calibration unit (auto-margin mode)
/// runs the repeated no-mutant baselines.
fn run_sweep_unit(
    args: &CampaignArgs,
    setup: &CampaignSetup,
    points: &[SweepPoint],
    point: usize,
    cell: usize,
) -> Result<String, CliError> {
    let (cells_per_point, units_per_point) = sweep_grid(args, setup);
    if point >= points.len() || cell >= units_per_point {
        return Err(err(format!("unit ({point},{cell}) outside the sweep grid")));
    }
    let point_config = CampaignConfig {
        noise: points[point].noise.clone(),
        ..setup.config.clone()
    };
    if cell < cells_per_point {
        let config = CampaignConfig {
            shard: Some(Shard {
                index: cell,
                count: cells_per_point,
            }),
            ..point_config
        };
        let report = run_campaign(
            &setup.program,
            &setup.qubits,
            &setup.spec,
            &setup.mutants,
            &config,
        );
        Ok(cell_record_json(point, cell, &report))
    } else {
        let MarginMode::Auto { repeats, z } = args.margin else {
            return Err(err(format!(
                "unit ({point},{cell}): no calibration unit exists in fixed-margin mode"
            )));
        };
        let margins = auto_margins(&point_config, point, repeats, z, |cfg| {
            run_campaign(&setup.program, &setup.qubits, &setup.spec, &[], cfg)
        });
        Ok(margin_record_json(point, cell, &margins))
    }
}

/// Serializes the record for a unit quarantined after exhausting its
/// attempts: the unit's real payload shape with its cell marked skipped
/// (the skip reason names the quarantine), annotated with the attempt
/// history. Derived from the manifest and the attempt history alone, so
/// every worker — any count, any kill history — renders identical bytes.
fn quarantined_unit_record(
    args: &CampaignArgs,
    setup: &CampaignSetup,
    points: &[SweepPoint],
    point: usize,
    cell: usize,
    attempts: &[String],
) -> Result<String, CliError> {
    let (cells_per_point, units_per_point) = sweep_grid(args, setup);
    if point >= points.len() || cell >= units_per_point {
        return Err(err(format!("unit ({point},{cell}) outside the sweep grid")));
    }
    let payload = if cell < cells_per_point {
        // The single-cell shard report the unit would have produced, with
        // the cell skipped instead of run — assemble_sweep then counts it
        // like a deadline skip, but named after the quarantine.
        let status = CellStatus::Skipped {
            reason: format!("quarantined after {} failed attempt(s)", attempts.len()),
        };
        let program_cost = GateCounts::of(&setup.program).unwrap_or_default();
        let d = args.designs.len();
        let (baselines, cells) = if cell < d {
            let baseline = BaselineCell {
                design: args.designs[cell],
                status,
                assertion_cost: None,
                program_cost,
            };
            (vec![baseline], vec![])
        } else {
            let mi = (cell - d) / d;
            let di = (cell - d) % d;
            let grid_cell = CampaignCell {
                mutant_id: setup.mutants[mi].id.clone(),
                kind_label: setup.mutants[mi].kind_label(),
                design: args.designs[di],
                status,
            };
            (vec![], vec![grid_cell])
        };
        let report = CampaignReport {
            num_qubits: setup.program.num_qubits(),
            shots: args.shots,
            seed: args.seed,
            detection_threshold: args.threshold,
            mutant_count: setup.mutants.len(),
            designs: args.designs.clone(),
            baselines,
            cells,
            elapsed: std::time::Duration::ZERO,
            deadline_hit: false,
            shard: Some(Shard {
                index: cell,
                count: cells_per_point,
            }),
        };
        SweepUnitPayload::Cell(ParsedReport {
            report,
            baseline_indices: if cell < d { vec![cell] } else { vec![] },
            cell_indices: if cell < d { vec![] } else { vec![cell] },
        })
    } else {
        // A quarantined calibration unit carries no margins; assembly
        // falls back to the fixed auto-margin default for its point.
        SweepUnitPayload::Margins(vec![])
    };
    let record = SweepUnitRecord {
        point,
        cell,
        payload,
        quarantined: Some(attempts.to_vec()),
    };
    Ok(record.to_json())
}

fn run_campaign_command(
    args: &CampaignArgs,
    cache: Option<&Arc<ProgramCache>>,
) -> Result<String, CliError> {
    let mut setup = campaign_setup(args)?;
    // A daemon-shared cache spans campaigns; without one, run_campaign /
    // run_sweep install their own per-invocation cache.
    setup.config.cache = cache.cloned();
    if let Some(points) = &args.sweep {
        if let Some(shard) = args.shard {
            return sweep_shard_partial(args, &setup, shard);
        }
        let sweep_config = SweepConfig {
            points: sweep_points(points),
            base: setup.config,
            margin: args.margin,
        };
        let sweep_report = run_sweep(
            &setup.program,
            &setup.qubits,
            &setup.spec,
            &setup.mutants,
            &sweep_config,
        );
        return Ok(if args.json {
            sweep_report.to_json()
        } else {
            sweep_report.render_text()
        });
    }
    let config = CampaignConfig {
        shard: args.shard,
        ..setup.config
    };
    let report = run_campaign(
        &setup.program,
        &setup.qubits,
        &setup.spec,
        &setup.mutants,
        &config,
    );
    Ok(if args.json {
        // JSON stays exactly the report's deterministic rendering.
        report.to_json()
    } else {
        // Timing lives outside the report text, which is
        // byte-identical for a fixed seed across job counts.
        let mut out = report.render_text();
        let plan = config.thread_plan();
        let _ = writeln!(
            out,
            "\nelapsed: {:.3}s ({} jobs x {} sim threads)",
            report.elapsed.as_secs_f64(),
            plan.jobs,
            plan.sim_threads
        );
        out
    })
}

/// `campaign --sweep … --shard i/n`: runs this shard's slice of the global
/// `(point × cell)` unit grid and emits a mergeable [`SweepPartial`]
/// (always JSON — partials exist to be merged).
fn sweep_shard_partial(
    args: &CampaignArgs,
    setup: &CampaignSetup,
    shard: Shard,
) -> Result<String, CliError> {
    let points = sweep_points(args.sweep.as_deref().unwrap_or(&[]));
    let (cells_per_point, units_per_point) = sweep_grid(args, setup);
    let total_units = points.len() * units_per_point;
    let (lo, hi) = shard.bounds(total_units);
    let mut units = Vec::with_capacity(hi - lo);
    for unit in lo..hi {
        let line = run_sweep_unit(
            args,
            setup,
            &points,
            unit / units_per_point,
            unit % units_per_point,
        )?;
        units.push(parse_unit_record(&line)?);
    }
    let partial = SweepPartial {
        margin: args.margin,
        labels: points.iter().map(|p| p.label.clone()).collect(),
        cells_per_point,
        shard,
        units,
    };
    Ok(partial.to_json())
}

/// `sweep run`: initializes the run directory, spawns the workers and
/// drives retry epochs to completion.
fn sweep_run(
    dir: &str,
    workers: Option<usize>,
    unit_timeout_ms: Option<u64>,
    max_attempts: u32,
    hosts: &[String],
    args: &CampaignArgs,
) -> Result<String, CliError> {
    let mut args = args.clone();
    if let CampaignSource::File(file) = &args.source {
        // Workers and resumes may start in any directory: pin the program
        // path before it enters the manifest.
        let abs =
            std::fs::canonicalize(file).map_err(|e| err(format!("cannot resolve {file}: {e}")))?;
        args.source = CampaignSource::File(abs.to_string_lossy().into_owned());
    }
    let setup = campaign_setup(&args)?;
    let points = sweep_points(args.sweep.as_deref().unwrap_or(&[]));
    let (cells_per_point, units_per_point) = sweep_grid(&args, &setup);
    let workers = qra::sim::threads::resolve_workers(workers.unwrap_or(0), "sweep run");
    let manifest = Manifest {
        argv: args.to_argv(),
        labels: points.iter().map(|p| p.label.clone()).collect(),
        cells_per_point,
        units_per_point,
        margin: args.margin.to_string(),
        workers,
        unit_timeout_ms,
        max_attempts,
        hosts: hosts.to_vec(),
    };
    let rundir = RunDir::init(dir, &manifest)?;
    let outcome = drive_epochs(&rundir, &manifest, workers)?;
    finish_epoch(dir, &manifest, outcome, args.margin, args.json)
}

/// Drives worker epochs until the unit grid is covered or an epoch makes
/// no progress: each epoch spawns fresh workers and monitors them to
/// exit; when units remain, the stale claims dead workers left behind
/// are cleared and a new epoch starts after an exponential backoff.
///
/// Terminates: every cleared stale claim recorded a failed attempt,
/// attempts are capped at the manifest's `max_attempts` (after which the
/// unit quarantines into a completed record), and an epoch that neither
/// completes a unit nor clears a claim ends the loop — so retry epochs
/// are bounded by `total_units x max_attempts`.
fn drive_epochs(
    rundir: &RunDir,
    manifest: &Manifest,
    workers: usize,
) -> Result<EpochOutcome, CliError> {
    let mut backoff = std::time::Duration::from_millis(100);
    let mut last_done = None;
    loop {
        let children = spawn_workers_on(rundir, workers, &manifest.hosts)?;
        let outcome = monitor_workers(rundir, manifest, children)?;
        if outcome.complete(manifest) {
            return Ok(outcome);
        }
        let done = outcome.state.completed.len();
        let cleared = rundir.clear_stale_claims(&outcome.state.completed)?;
        if last_done == Some(done) && cleared == 0 {
            // Nothing completed and nothing reclaimable: retrying would
            // replay the identical epoch. Hand the incomplete outcome to
            // the caller, whose error points at `sweep resume`.
            return Ok(outcome);
        }
        last_done = Some(done);
        eprintln!(
            "sweep: epoch ended at {done}/{} unit(s), cleared {cleared} stale claim(s); \
             retrying in {:.1}s",
            manifest.total_units(),
            backoff.as_secs_f64()
        );
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(std::time::Duration::from_secs(5));
    }
}

/// `sweep resume`: clears stale claims, respawns workers for the remaining
/// units and prints the merged report.
fn sweep_resume(dir: &str, workers: Option<usize>, json: bool) -> Result<String, CliError> {
    let (rundir, manifest) = RunDir::open(dir)?;
    let margin =
        MarginMode::from_str(&manifest.margin).map_err(|e| err(format!("manifest: {e}")))?;
    let state = rundir.scan(&manifest)?;
    // Safe while no workers run: `sweep resume` is the single entry point
    // for restarting a run.
    let cleared = rundir.clear_stale_claims(&state.completed)?;
    if cleared > 0 {
        eprintln!("sweep: cleared {cleared} stale claim(s)");
    }
    if state.completed.len() == manifest.total_units() {
        let outcome = EpochOutcome {
            state,
            workers_failed: 0,
        };
        return finish_epoch(dir, &manifest, outcome, margin, json);
    }
    let workers = workers.unwrap_or(manifest.workers).max(1);
    let outcome = drive_epochs(&rundir, &manifest, workers)?;
    finish_epoch(dir, &manifest, outcome, margin, json)
}

/// Renders an epoch's end state: the assembled sweep report when the unit
/// grid is covered, an actionable error pointing at `sweep resume` when
/// it is not.
fn finish_epoch(
    dir: &str,
    manifest: &Manifest,
    outcome: EpochOutcome,
    margin: MarginMode,
    json: bool,
) -> Result<String, CliError> {
    if !outcome.complete(manifest) {
        return Err(err(format!(
            "sweep incomplete: {}/{} unit(s) recorded, {} worker(s) failed; \
             run `qra sweep resume {dir}` to finish",
            outcome.state.completed.len(),
            manifest.total_units(),
            outcome.workers_failed
        )));
    }
    let report = assemble_sweep(
        margin,
        &manifest.labels,
        manifest.cells_per_point,
        &outcome.state.records,
    )?;
    Ok(if json {
        report.to_json()
    } else {
        report.render_text()
    })
}

/// `sweep status`: reports progress from the run directory alone. The
/// second element is the process exit code: 0 complete, 2 incomplete,
/// 3 when quarantined units are present. With `json`, the same facts are
/// rendered machine-readably (the exit code rides along as `"code"`).
fn sweep_status(dir: &str, json: bool) -> Result<(String, i32), CliError> {
    let (rundir, manifest) = RunDir::open(dir)?;
    let state = rundir.scan(&manifest)?;
    let complete = state.completed.len() == manifest.total_units();
    let code = match (complete, state.quarantined.is_empty()) {
        (true, true) => 0,
        (_, false) => 3,
        (false, true) => 2,
    };
    if json {
        let mut out = format!(
            "{{\"root\":{},\"total\":{},\"done\":{},\"in_flight\":{},\"failed\":{},\
             \"torn_lines\":{},\"complete\":{complete},\"code\":{code},\"quarantined\":[",
            json_str(&rundir.root().display().to_string()),
            manifest.total_units(),
            state.completed.len(),
            state.in_flight.len(),
            state.failed.len(),
            state.torn_lines
        );
        for (i, &unit) in state.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"unit\":{unit},\"label\":{},\"cell\":{}}}",
                json_str(&manifest.labels[unit / manifest.units_per_point]),
                unit % manifest.units_per_point
            );
        }
        out.push_str("],\"corrupt\":[");
        for (i, report) in state.corrupt.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(report));
        }
        out.push_str("],\"points\":[");
        for (p, label) in manifest.labels.iter().enumerate() {
            if p > 0 {
                out.push(',');
            }
            let done = state
                .completed
                .iter()
                .filter(|&&u| u / manifest.units_per_point == p)
                .count();
            let _ = write!(
                out,
                "{{\"label\":{},\"done\":{done},\"total\":{}}}",
                json_str(label),
                manifest.units_per_point
            );
        }
        out.push_str("],\"hosts\":[");
        for (i, (host, done)) in state.host_done.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"host\":{},\"done\":{done}}}", json_str(host));
        }
        out.push_str("]}\n");
        return Ok((out, code));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run {}: {}/{} unit(s) done, {} in-flight, {} failed, {} quarantined, {} torn line(s)",
        rundir.root().display(),
        state.completed.len(),
        manifest.total_units(),
        state.in_flight.len(),
        state.failed.len(),
        state.quarantined.len(),
        state.torn_lines
    );
    for report in &state.corrupt {
        let _ = writeln!(out, "  corrupt: {report}");
    }
    for (p, label) in manifest.labels.iter().enumerate() {
        let done = state
            .completed
            .iter()
            .filter(|&&u| u / manifest.units_per_point == p)
            .count();
        let _ = writeln!(
            out,
            "  {label:<16} {done}/{} unit(s)",
            manifest.units_per_point
        );
    }
    for &unit in &state.quarantined {
        let _ = writeln!(
            out,
            "  quarantined: unit {unit} ({}, cell {})",
            manifest.labels[unit / manifest.units_per_point],
            unit % manifest.units_per_point
        );
    }
    let verdict = match (complete, state.quarantined.is_empty()) {
        (true, true) => "complete — `qra sweep resume` prints the merged report",
        (true, false) => "complete with quarantined unit(s) — the report names them as skips",
        (false, false) => "incomplete with quarantined unit(s) — `qra sweep resume` will finish it",
        (false, true) => "incomplete — `qra sweep resume` will finish it",
    };
    let _ = writeln!(out, "status: {verdict}");
    Ok((out, code))
}

/// `worker`: rebuilds the campaign from the manifest's argv and runs the
/// claim-execute-record loop until no claimable unit remains. `host`
/// labels the worker's results stream for per-host progress attribution
/// (`None` = the legacy local stream name).
fn run_worker(dir: &str, host: Option<&str>) -> Result<String, CliError> {
    let (rundir, manifest) = RunDir::open(dir)?;
    let Command::Campaign(args) = parse_args(&manifest.argv)? else {
        return Err(err("worker: manifest argv is not a campaign invocation"));
    };
    let setup = campaign_setup(&args)?;
    let points = sweep_points(args.sweep.as_deref().unwrap_or(&[]));
    let run_unit = |point: usize, cell: usize| {
        run_sweep_unit(&args, &setup, &points, point, cell).map_err(|e| OrchError(e.0))
    };
    let quarantine = |point: usize, cell: usize, attempts: &[String]| {
        quarantined_unit_record(&args, &setup, &points, point, cell, attempts)
            .map_err(|e| OrchError(e.0))
    };
    let done = worker_loop_on(
        &rundir,
        &manifest,
        std::process::id() as usize,
        host.unwrap_or(LOCAL_HOST),
        &run_unit,
        &quarantine,
    )?;
    Ok(format!("worker: completed {done} unit(s)\n"))
}

fn load(file: &str) -> Result<Circuit, CliError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| err(format!("cannot read {file}: {e}")))?;
    Ok(from_qasm(&text)?)
}

/// Runs one circuit through the campaign layer's backend routing
/// ([`qra::faults::default_executor`]): ideal → state vector, noisy →
/// density matrix (trajectory beyond the exact backend's width),
/// `--backend auto|stabilizer` → the tableau engine. One routing for
/// `run`, `assert`, campaign cells and daemon jobs — and one cache
/// contract: with `cache` set, repeat circuits skip lowering,
/// bit-identically.
fn run_counts(
    circuit: &Circuit,
    shots: u64,
    seed: u64,
    noise: DevicePreset,
    sim_threads: usize,
    backend: BackendChoice,
    cache: Option<&Arc<ProgramCache>>,
) -> Result<Counts, CliError> {
    let config = CampaignConfig {
        shots,
        seed,
        noise: noise.noise_model(),
        // One-shot runs have no cell matrix: a single job keeps
        // `sim_threads` meaning what the flag says (0 = one per core).
        jobs: 1,
        sim_threads,
        // No budget gate: `run --noise` always prefers the exact density
        // backend, degrading to trajectories only past its width ceiling.
        memory_budget_bytes: u64::MAX,
        backend,
        cache: cache.cloned(),
        ..CampaignConfig::default()
    };
    let (counts, _backend) = qra::faults::default_executor(circuit, &config, seed)?;
    Ok(counts)
}

/// Builds the `qra serve` daemon's job executor: parses one job argv with
/// [`parse_args`] and runs it through [`execute_with_code_cached`] over
/// the daemon's shared compile cache — so a daemon job's output and exit
/// code are byte-identical to the same argv run one-shot. Nested service
/// commands (`serve`, `submit`, `batch`) are refused; `sweep run` jobs
/// with no host list inherit the daemon's `--hosts`.
///
/// Exposed so benches and tests can stand up an in-process daemon with
/// the production executor.
pub fn daemon_executor(cache: Arc<ProgramCache>, hosts: Vec<String>) -> Arc<JobExecutor> {
    Arc::new(move |argv: &[String]| {
        let command = parse_args(argv).map_err(|e| e.0)?;
        let command = match command {
            Command::Serve { .. } | Command::Submit { .. } | Command::Batch { .. } => {
                return Err(
                    "the daemon does not accept nested serve/submit/batch commands".to_string(),
                )
            }
            Command::SweepRun {
                dir,
                workers,
                unit_timeout_ms,
                max_attempts,
                hosts: job_hosts,
                args,
            } => Command::SweepRun {
                dir,
                workers,
                unit_timeout_ms,
                max_attempts,
                hosts: if job_hosts.is_empty() {
                    hosts.clone()
                } else {
                    job_hosts
                },
                args,
            },
            other => other,
        };
        execute_with_code_cached(&command, Some(&cache)).map_err(|e| e.0)
    })
}

/// `serve`: runs the streaming daemon (or, with `status`/`stop`, talks to
/// a live one). Blocks until SIGTERM or a shutdown control drains it.
fn serve_command(
    socket: &str,
    workers: usize,
    queue_depth: usize,
    hosts: &[String],
    status: bool,
    stop: bool,
) -> Result<String, CliError> {
    let socket = PathBuf::from(socket);
    if status {
        let line = request_status(&socket).map_err(|e| err(e.0))?;
        return Ok(format!("{line}\n"));
    }
    if stop {
        let ack = request_shutdown(&socket).map_err(|e| err(e.0))?;
        return Ok(format!("{ack}\n"));
    }
    let cache = Arc::new(ProgramCache::new());
    let executor = daemon_executor(Arc::clone(&cache), hosts.to_vec());
    let server = Server::new(
        ServerConfig {
            socket,
            workers,
            queue_depth,
            cache: Some(cache),
            hosts: hosts.to_vec(),
            handle_sigterm: true,
        },
        executor,
    );
    let summary = server.run().map_err(|e| err(e.0))?;
    Ok(format!(
        "serve: drained after {} job(s) ({} dropped), p99 {} us, uptime {:.1}s\n",
        summary.metrics.processed,
        summary.metrics.dropped,
        summary.metrics.p99_us,
        summary.uptime.as_secs_f64()
    ))
}

/// `submit`: one job to a live daemon; prints the job's output verbatim
/// and exits with its code, so scripting against the daemon behaves like
/// scripting against one-shot `qra`.
fn submit_command(socket: &str, argv: &[String]) -> Result<(String, i32), CliError> {
    let mut responses = submit_jobs(Path::new(socket), &[argv.to_vec()]).map_err(|e| err(e.0))?;
    let response = responses
        .pop()
        .ok_or_else(|| err("submit: the daemon sent no response"))?;
    if response.ok {
        Ok((response.output, response.code))
    } else {
        Err(err(format!(
            "submit: {}",
            response.error.as_deref().unwrap_or("job failed")
        )))
    }
}

/// `batch`: submits every job in the file (one whitespace-split argv per
/// line; blank lines and `#` comments skipped) over one connection and
/// summarizes the verdicts. Exit code 0 only when every job executed
/// with code 0.
fn batch_command(socket: &str, file: &str) -> Result<(String, i32), CliError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| err(format!("cannot read {file}: {e}")))?;
    let jobs: Vec<Vec<String>> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect();
    if jobs.is_empty() {
        return Err(err(format!("batch: {file} holds no jobs")));
    }
    let responses = submit_jobs(Path::new(socket), &jobs).map_err(|e| err(e.0))?;
    let mut out = String::new();
    let mut failed = 0;
    for (i, r) in responses.iter().enumerate() {
        if r.ok && r.code == 0 {
            let _ = writeln!(out, "job {i}: ok ({} us)", r.latency_us);
        } else if r.ok {
            failed += 1;
            let _ = writeln!(out, "job {i}: exit {} ({} us)", r.code, r.latency_us);
        } else {
            failed += 1;
            let _ = writeln!(
                out,
                "job {i}: {}",
                r.error.as_deref().unwrap_or("job failed")
            );
        }
    }
    let _ = writeln!(
        out,
        "batch: {}/{} job(s) ok",
        responses.len() - failed,
        responses.len()
    );
    Ok((out, i32::from(failed > 0)))
}

/// The usage text.
pub fn usage() -> String {
    "qra — quantum runtime assertions\n\
     \n\
     USAGE:\n\
     qra run <file.qasm> [--shots N] [--seed S] [--noise ideal|low|melbourne]\n\
     \x20                  [--sim-threads T] [--backend default|auto|stabilizer]\n\
     qra assert <file.qasm> --qubits 0,1,2 --state <spec> [--design auto|swap|or|ndd]\n\
     \x20                  [--shots N] [--seed S] [--noise ideal|low|melbourne]\n\
     \x20                  [--sim-threads T] [--backend default|auto|stabilizer]\n\
     qra cost --qubits-count N --state <spec>\n\
     qra info <file.qasm>\n\
     qra campaign (<file.qasm> | --ghz N) [--state <spec>] [--designs swap,or,ndd,stat|all]\n\
     \x20                  [--doubles K] [--shots N] [--seed S] [--deadline-ms T]\n\
     \x20                  [--jobs W] [--sim-threads T] [--memory-budget-mb M] [--threshold R]\n\
     \x20                  [--noise ideal|low|melbourne] [--shard I/N]\n\
     \x20                  [--backend default|auto|stabilizer]\n\
     \x20                  [--sweep ideal,low,melbourne:2.0] [--margin R|auto[:REPEATS[:Z]]]\n\
     \x20                  [--json]\n\
     qra campaign merge <shard.json|partial.json>… [--json]\n\
     qra sweep run --run-dir <dir> [--workers W] [--unit-timeout SECS] [--max-attempts N]\n\
     \x20                  [--hosts a,b,…] (<file.qasm> | --ghz N) --sweep … [flags]\n\
     qra sweep resume <dir> [--workers W] [--json]\n\
     qra sweep status <dir> [--json]\n\
     qra worker --run-dir <dir> [--host LABEL]\n\
     qra serve [--socket PATH] [--workers W] [--queue-depth N] [--hosts a,b,…]\n\
     qra serve --status | --stop [--socket PATH]\n\
     qra submit [--socket PATH] <job argv…>\n\
     qra batch <jobs.txt> [--socket PATH]\n\
     \n\
     STATE SPECS: ghz | bell | w | plus | zero | basis:IDX | set:I1;I2;… | amps:re,im;…\n\
     \n\
     --sim-threads T gives each simulator T threads (0 = auto; campaigns\n\
     default to max(1, cores / jobs) so the two layers multiply to at most\n\
     the machine's cores). Runs simulated shot by shot (ideal programs\n\
     with a mid-circuit measure or reset, noisy trajectories) split their\n\
     shots across the threads; other runs split their amplitude sweeps.\n\
     Results are bit-identical at every thread count.\n\
     --shard I/N runs shard I of N and emits a partial: a slice of the cell\n\
     list for a single campaign, or a slice of the (point x cell) unit grid\n\
     when combined with --sweep. 'campaign merge' reassembles either kind of\n\
     partial into the full report, byte-identical to the undistributed run.\n\
     --backend picks the cell executor: 'default' routes by noise model,\n\
     'auto' additionally engages the O(n^2) stabilizer tableau per cell\n\
     when the cell is noiseless and all-Clifford (counts bit-identical to\n\
     the statevector engine; non-Clifford mutants fall back per cell),\n\
     'stabilizer' forces the tableau and errors on noise or non-Clifford\n\
     gates. Reports name the backend that executed each cell.\n\
     --sweep runs the campaign at each noise point (PRESET[:SCALE]); each\n\
     point's detection threshold is derived as its measured false-positive\n\
     floor + margin. --margin auto calibrates the margin per design and per\n\
     point from the baseline variance across repeated seeds.\n\
     'sweep run' executes the sweep's unit grid across worker subprocesses\n\
     over a crash-safe run directory: kill anything mid-run, then\n\
     'sweep resume' finishes the rest and prints the identical report.\n\
     --unit-timeout kills a worker whose claimed unit outlives SECS and\n\
     reclaims the unit; a unit that fails --max-attempts times (default 3)\n\
     is quarantined — recorded as a named skip carrying its attempt\n\
     history instead of blocking the sweep forever. 'sweep status' exits\n\
     0 when complete, 2 while units remain, 3 when units are quarantined\n\
     (--json emits the same facts machine-readably, per-host included).\n\
     --hosts distributes workers round-robin over the listed hosts: labels\n\
     prefixed 'local' spawn locally (with labelled result streams), the\n\
     rest are reached over ssh assuming a shared run directory mount.\n\
     'serve' runs the streaming assertion daemon: line-delimited JSON jobs\n\
     over a Unix socket, a bounded work queue with backpressure, and a\n\
     compiled-program cache so repeat circuits skip lowering. Responses\n\
     are byte-identical to one-shot runs at the same argv. 'submit' sends\n\
     one job (exits with the job's code); 'batch' streams a file of jobs.\n\
     'serve --status' prints processed/dropped counters, queue depth,\n\
     cache hits and p50/p95/p99 latency; SIGTERM (or 'serve --stop')\n\
     drains accepted jobs before exit.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_command() {
        let cmd = parse_args(&args(&["run", "foo.qasm", "--shots", "100", "--seed", "9"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                file: "foo.qasm".into(),
                shots: 100,
                seed: 9,
                noise: DevicePreset::Ideal,
                sim_threads: 1,
                backend: BackendChoice::Default,
            }
        );
        let cmd = parse_args(&args(&["run", "foo.qasm", "--sim-threads", "4"])).unwrap();
        assert!(matches!(cmd, Command::Run { sim_threads: 4, .. }));
        assert!(parse_args(&args(&["run", "foo.qasm", "--sim-threads", "x"])).is_err());
    }

    #[test]
    fn parses_assert_command_with_noise() {
        let cmd = parse_args(&args(&[
            "assert",
            "foo.qasm",
            "--qubits",
            "0,1,2",
            "--state",
            "ghz",
            "--design",
            "ndd",
            "--noise",
            "melbourne",
        ]))
        .unwrap();
        match cmd {
            Command::Assert {
                qubits,
                state,
                design,
                noise,
                ..
            } => {
                assert_eq!(qubits, vec![0, 1, 2]);
                assert_eq!(state, "ghz");
                assert_eq!(design, Design::Ndd);
                assert_eq!(noise, DevicePreset::MelbourneLike);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn help_and_errors() {
        assert_eq!(parse_args(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["assert", "f.qasm"])).is_err());
        assert!(parse_args(&args(&["run"])).is_err());
        assert!(parse_args(&args(&["run", "f", "--noise", "hot"])).is_err());
    }

    #[test]
    fn parses_named_states() {
        assert!(parse_state("ghz", 3).is_ok());
        assert!(parse_state("bell", 2).is_ok());
        assert!(parse_state("bell", 3).is_err());
        assert!(parse_state("w", 3).is_ok());
        assert!(parse_state("plus", 2).is_ok());
        assert!(parse_state("zero", 1).is_ok());
        assert!(parse_state("nope", 1).is_err());
    }

    #[test]
    fn parses_basis_set_and_amps() {
        let spec = parse_state("basis:2", 2).unwrap();
        assert!(!spec.is_approximate());
        assert!(parse_state("basis:4", 2).is_err());
        let spec = parse_state("set:0;3", 2).unwrap();
        assert!(spec.is_approximate());
        assert!(parse_state("set:0;9", 2).is_err());
        let spec = parse_state("amps:0.7071,0;0,0.7071", 1).unwrap();
        assert!(matches!(spec, StateSpec::Pure(_)));
        assert!(parse_state("amps:1,0", 2).is_err());
        assert!(parse_state("amps:x,0;0,0", 1).is_err());
    }

    #[test]
    fn end_to_end_assert_on_temp_file() {
        let dir = std::env::temp_dir().join("qra_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ghz.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n",
        )
        .unwrap();
        let file = path.to_str().unwrap().to_string();

        let out = execute(&Command::Info { file: file.clone() }).unwrap();
        assert!(out.contains("qubits:   3"));
        assert!(out.contains("cx"));

        let out = execute(&Command::Assert {
            file: file.clone(),
            qubits: vec![0, 1, 2],
            state: "ghz".into(),
            design: Design::Swap,
            shots: 512,
            seed: 1,
            noise: DevicePreset::Ideal,
            sim_threads: 1,
            backend: BackendChoice::Default,
        })
        .unwrap();
        assert!(out.contains("error rate:    0.0000"), "{out}");
        assert!(out.contains("pass"));

        // Wrong expectation fails.
        let out = execute(&Command::Assert {
            file: file.clone(),
            qubits: vec![0, 1, 2],
            state: "w".into(),
            design: Design::Swap,
            shots: 512,
            seed: 1,
            noise: DevicePreset::Ideal,
            sim_threads: 1,
            backend: BackendChoice::Default,
        })
        .unwrap();
        assert!(out.contains("FAIL"), "{out}");

        let out = execute(&Command::Run {
            file,
            shots: 256,
            seed: 2,
            noise: DevicePreset::Ideal,
            sim_threads: 1,
            backend: BackendChoice::Default,
        })
        .unwrap();
        assert!(out.contains("shots: 256"));
    }

    #[test]
    fn end_to_end_with_user_defined_gate() {
        // The CLI's QASM loader handles gate definitions; assert the Bell
        // state produced by a user-defined bellpair gate.
        let dir = std::env::temp_dir().join("qra_cli_gatedef_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bell.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ngate bellpair a,b { h a; cx a,b; }\nqreg q[2];\nbellpair q[0],q[1];\n",
        )
        .unwrap();
        let out = execute(&Command::Assert {
            file: path.to_str().unwrap().to_string(),
            qubits: vec![0, 1],
            state: "bell".into(),
            design: Design::Auto,
            shots: 512,
            seed: 3,
            noise: DevicePreset::Ideal,
            sim_threads: 1,
            backend: BackendChoice::Default,
        })
        .unwrap();
        assert!(out.contains("pass"), "{out}");
    }

    #[test]
    fn cost_command_lists_designs() {
        let out = execute(&Command::Cost {
            num_qubits: 2,
            state: "set:0;3".into(),
        })
        .unwrap();
        assert!(out.contains("swap"));
        assert!(out.contains("ndd"));
        assert!(out.contains("auto picks"));
    }

    #[test]
    fn usage_mentions_all_commands() {
        let u = usage();
        for word in [
            "run",
            "assert",
            "cost",
            "info",
            "campaign",
            "ghz",
            "sweep run",
            "sweep resume",
            "sweep status",
            "worker",
            "--margin R|auto",
            "--unit-timeout",
            "--max-attempts",
        ] {
            assert!(u.contains(word), "usage misses {word}");
        }
    }

    #[test]
    fn parses_sweep_and_worker_commands() {
        let cmd = parse_args(&args(&[
            "sweep",
            "run",
            "--run-dir",
            "rd",
            "--workers",
            "2",
            "--ghz",
            "2",
            "--sweep",
            "ideal,low",
            "--shots",
            "64",
        ]))
        .unwrap();
        match cmd {
            Command::SweepRun {
                dir,
                workers,
                unit_timeout_ms,
                max_attempts,
                hosts,
                args,
            } => {
                assert_eq!(dir, "rd");
                assert_eq!(workers, Some(2));
                assert_eq!(unit_timeout_ms, None, "no timeout unless asked");
                assert_eq!(max_attempts, DEFAULT_MAX_ATTEMPTS);
                assert!(hosts.is_empty());
                assert_eq!(args.source, CampaignSource::Ghz(2));
                assert_eq!(args.shots, 64);
                assert_eq!(args.sweep.as_ref().map(Vec::len), Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Fractional timeouts land in milliseconds; attempts override.
        let cmd = parse_args(&args(&[
            "sweep",
            "run",
            "--run-dir",
            "rd",
            "--ghz",
            "2",
            "--sweep",
            "low",
            "--unit-timeout",
            "1.5",
            "--max-attempts",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::SweepRun {
                unit_timeout_ms,
                max_attempts,
                ..
            } => {
                assert_eq!(unit_timeout_ms, Some(1500));
                assert_eq!(max_attempts, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in [
            ["--unit-timeout", "0"],
            ["--unit-timeout", "-1"],
            ["--unit-timeout", "inf"],
            ["--unit-timeout", "x"],
            ["--max-attempts", "0"],
            ["--max-attempts", "x"],
        ] {
            let argv = [
                "sweep",
                "run",
                "--run-dir",
                "rd",
                "--ghz",
                "2",
                "--sweep",
                "low",
                bad[0],
                bad[1],
            ];
            assert!(
                parse_args(&args(&argv)).is_err(),
                "{bad:?} should not parse"
            );
        }
        // A QASM file rides as the positional after `run`.
        let cmd = parse_args(&args(&[
            "sweep",
            "run",
            "--run-dir",
            "rd",
            "f.qasm",
            "--sweep",
            "low",
        ]))
        .unwrap();
        match cmd {
            Command::SweepRun { args, .. } => {
                assert_eq!(args.source, CampaignSource::File("f.qasm".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_args(&args(&["sweep", "resume", "rd", "--json"])).unwrap(),
            Command::SweepResume {
                dir: "rd".into(),
                workers: None,
                json: true,
            }
        );
        assert_eq!(
            parse_args(&args(&["sweep", "status", "rd"])).unwrap(),
            Command::SweepStatus {
                dir: "rd".into(),
                json: false,
            }
        );
        assert_eq!(
            parse_args(&args(&["worker", "--run-dir", "rd"])).unwrap(),
            Command::Worker {
                dir: "rd".into(),
                host: None,
            }
        );
        // A worker can carry a host label for its results stream.
        assert_eq!(
            parse_args(&args(&["worker", "--run-dir", "rd", "--host", "hostA"])).unwrap(),
            Command::Worker {
                dir: "rd".into(),
                host: Some("hostA".into()),
            }
        );
        assert_eq!(
            parse_args(&args(&["sweep", "status", "rd", "--json"])).unwrap(),
            Command::SweepStatus {
                dir: "rd".into(),
                json: true,
            }
        );
        // Orchestration needs a sweep; its run dir already shards the grid.
        assert!(parse_args(&args(&["sweep", "run", "--run-dir", "rd", "--ghz", "2"])).is_err());
        assert!(parse_args(&args(&[
            "sweep",
            "run",
            "--run-dir",
            "rd",
            "--ghz",
            "2",
            "--sweep",
            "low",
            "--shard",
            "0/2",
        ]))
        .is_err());
        assert!(parse_args(&args(&["sweep", "run", "--ghz", "2", "--sweep", "low"])).is_err());
        assert!(parse_args(&args(&["sweep", "resume"])).is_err());
        assert!(parse_args(&args(&["sweep", "frobnicate", "rd"])).is_err());
        assert!(parse_args(&args(&["worker"])).is_err());
        assert!(parse_args(&args(&[
            "sweep",
            "run",
            "--run-dir",
            "rd",
            "--ghz",
            "2",
            "--sweep",
            "low",
            "--workers",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_service_commands() {
        let cmd = parse_args(&args(&[
            "serve",
            "--socket",
            "/tmp/q.sock",
            "--workers",
            "2",
            "--queue-depth",
            "8",
            "--hosts",
            "localA,localB",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                socket: "/tmp/q.sock".into(),
                workers: 2,
                queue_depth: 8,
                hosts: vec!["localA".into(), "localB".into()],
                status: false,
                stop: false,
            }
        );
        assert!(matches!(
            parse_args(&args(&["serve"])).unwrap(),
            Command::Serve {
                workers: 0,
                queue_depth: 256,
                status: false,
                stop: false,
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&["serve", "--status"])).unwrap(),
            Command::Serve { status: true, .. }
        ));
        assert!(matches!(
            parse_args(&args(&["serve", "--stop"])).unwrap(),
            Command::Serve { stop: true, .. }
        ));
        assert!(parse_args(&args(&["serve", "--status", "--stop"])).is_err());
        assert!(parse_args(&args(&["serve", "--queue-depth", "0"])).is_err());

        // The job argv starts at the first non-flag token, flags included…
        let cmd = parse_args(&args(&[
            "submit", "--socket", "s.sock", "run", "f.qasm", "--shots", "64",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Submit {
                socket: "s.sock".into(),
                argv: args(&["run", "f.qasm", "--shots", "64"]),
            }
        );
        // …or after a literal `--`.
        let cmd = parse_args(&args(&["submit", "--", "sweep", "status", "rd", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Submit {
                socket: DEFAULT_SOCKET.into(),
                argv: args(&["sweep", "status", "rd", "--json"]),
            }
        );
        assert!(parse_args(&args(&["submit"])).is_err());
        assert!(parse_args(&args(&["submit", "--socket", "s.sock"])).is_err());

        assert_eq!(
            parse_args(&args(&["batch", "jobs.txt", "--socket", "s.sock"])).unwrap(),
            Command::Batch {
                socket: "s.sock".into(),
                file: "jobs.txt".into(),
            }
        );
        assert!(parse_args(&args(&["batch"])).is_err());
    }

    #[test]
    fn parses_backend_for_run_and_assert() {
        assert!(matches!(
            parse_args(&args(&["run", "f.qasm", "--backend", "stabilizer"])).unwrap(),
            Command::Run {
                backend: BackendChoice::Stabilizer,
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&[
                "assert",
                "f.qasm",
                "--qubits",
                "0",
                "--state",
                "zero",
                "--backend",
                "auto",
            ]))
            .unwrap(),
            Command::Assert {
                backend: BackendChoice::Auto,
                ..
            }
        ));
        assert!(parse_args(&args(&["run", "f.qasm", "--backend", "quantum"])).is_err());
    }

    #[test]
    fn run_backends_agree_on_clifford_circuits() {
        // `--backend stabilizer` and the default statevector routing are
        // documented to produce bit-identical histograms on Clifford
        // circuits — the CLI layer must preserve that.
        let dir = std::env::temp_dir().join("qra_cli_backend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bell.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
             h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
        )
        .unwrap();
        let run = |backend| {
            execute(&Command::Run {
                file: path.to_str().unwrap().to_string(),
                shots: 512,
                seed: 7,
                noise: DevicePreset::Ideal,
                sim_threads: 1,
                backend,
            })
            .unwrap()
        };
        let default = run(BackendChoice::Default);
        assert_eq!(default, run(BackendChoice::Stabilizer));
        assert_eq!(default, run(BackendChoice::Auto));
        // Forcing the tableau under noise is a hard error, same as in
        // campaigns.
        let e = execute(&Command::Run {
            file: path.to_str().unwrap().to_string(),
            shots: 512,
            seed: 7,
            noise: DevicePreset::LowNoise,
            sim_threads: 1,
            backend: BackendChoice::Stabilizer,
        })
        .unwrap_err();
        assert!(e.0.contains("stabilizer"), "{e}");
    }

    #[test]
    fn sweep_shard_partials_merge_to_the_sequential_sweep() {
        let campaign = |shard: Option<Shard>, json: bool| {
            Command::Campaign(CampaignArgs {
                source: CampaignSource::Ghz(2),
                state: "ghz".into(),
                designs: vec![CampaignDesign::Ndd],
                doubles: 0,
                shots: 64,
                seed: 13,
                deadline_ms: None,
                memory_budget_mb: 64,
                jobs: Some(1),
                sim_threads: None,
                noise: DevicePreset::Ideal,
                threshold: 0.05,
                backend: BackendChoice::default(),
                shard,
                sweep: Some(vec![
                    (DevicePreset::Ideal, 1.0),
                    (DevicePreset::LowNoise, 1.0),
                ]),
                margin: MarginMode::Auto { repeats: 2, z: 2.0 },
                json,
            })
        };
        let sequential = execute(&campaign(None, true)).unwrap();

        let dir = std::env::temp_dir().join("qra_cli_sweep_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for index in 0..3 {
            let out = execute(&campaign(Some(Shard { index, count: 3 }), true)).unwrap();
            assert!(is_sweep_partial(&out), "{out}");
            let path = dir.join(format!("partial{index}.json"));
            std::fs::write(&path, &out).unwrap();
            files.push(path.to_str().unwrap().to_string());
        }
        let merged = execute(&Command::CampaignMerge {
            files: files.clone(),
            json: true,
        })
        .unwrap();
        assert_eq!(merged, sequential, "merged partials must be byte-identical");

        // Dropping a partial names the gap; mixing kinds names the odd file.
        let incomplete = execute(&Command::CampaignMerge {
            files: files[..2].to_vec(),
            json: true,
        })
        .unwrap_err();
        assert!(incomplete.0.contains("point"), "{incomplete}");
    }

    #[test]
    fn quarantined_records_are_deterministic_and_round_trip() {
        let args = CampaignArgs {
            source: CampaignSource::Ghz(2),
            state: "ghz".into(),
            designs: vec![CampaignDesign::Ndd],
            doubles: 0,
            shots: 64,
            seed: 17,
            deadline_ms: None,
            memory_budget_mb: 64,
            jobs: Some(1),
            sim_threads: None,
            noise: DevicePreset::Ideal,
            threshold: 0.05,
            backend: BackendChoice::default(),
            shard: None,
            sweep: Some(vec![
                (DevicePreset::Ideal, 1.0),
                (DevicePreset::LowNoise, 1.0),
            ]),
            margin: MarginMode::Auto { repeats: 2, z: 2.0 },
            json: true,
        };
        let setup = campaign_setup(&args).unwrap();
        let points = sweep_points(args.sweep.as_deref().unwrap());
        let (cells_per_point, units_per_point) = sweep_grid(&args, &setup);
        let attempts: Vec<String> = (0..3).map(|_| "backend exploded".to_string()).collect();
        // A baseline cell, a mutant cell, and the calibration unit all
        // render stably and parse back to the same bytes.
        for cell in [0, cells_per_point - 1, units_per_point - 1] {
            let a = quarantined_unit_record(&args, &setup, &points, 1, cell, &attempts).unwrap();
            let b = quarantined_unit_record(&args, &setup, &points, 1, cell, &attempts).unwrap();
            assert_eq!(a, b, "record must not depend on the renderer instance");
            assert!(
                a.contains("quarantined after 3 failed attempt(s)") || cell == units_per_point - 1,
                "{a}"
            );
            let record = parse_unit_record(&a).unwrap();
            assert_eq!(record.point, 1);
            assert_eq!(record.cell, cell);
            assert_eq!(record.quarantined.as_deref(), Some(&attempts[..]));
            assert_eq!(record.to_json(), a, "record round-trips byte-identically");
        }
        // Out-of-grid coordinates are an error, not a bogus record.
        assert!(quarantined_unit_record(&args, &setup, &points, 2, 0, &attempts).is_err());
        assert!(
            quarantined_unit_record(&args, &setup, &points, 0, units_per_point, &attempts).is_err()
        );
    }

    #[test]
    fn parses_campaign_command() {
        let cmd = parse_args(&args(&[
            "campaign",
            "--ghz",
            "3",
            "--designs",
            "ndd,stat",
            "--doubles",
            "4",
            "--shots",
            "128",
            "--seed",
            "7",
            "--deadline-ms",
            "5000",
            "--jobs",
            "4",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Campaign(a) => {
                assert_eq!(a.source, CampaignSource::Ghz(3));
                assert_eq!(a.designs, vec![CampaignDesign::Ndd, CampaignDesign::Stat]);
                assert_eq!(a.doubles, 4);
                assert_eq!(a.shots, 128);
                assert_eq!(a.seed, 7);
                assert_eq!(a.deadline_ms, Some(5000));
                assert_eq!(a.jobs, Some(4));
                assert!(a.json);
                // The canonical argv round-trips to the identical command
                // (modulo --json, an output concern).
                let reparsed = parse_args(&a.to_argv()).unwrap();
                let expected = CampaignArgs { json: false, ..a };
                assert_eq!(reparsed, Command::Campaign(expected));
            }
            other => panic!("unexpected {other:?}"),
        }
        // File source with default designs and auto parallelism.
        let cmd = parse_args(&args(&["campaign", "f.qasm"])).unwrap();
        match cmd {
            Command::Campaign(a) => {
                assert_eq!(a.source, CampaignSource::File("f.qasm".into()));
                assert_eq!(a.designs.len(), 3);
                assert_eq!(a.jobs, None);
                assert_eq!(a.margin, MarginMode::Fixed(0.02));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Backend routing parses, round-trips, and rejects unknown names.
        for (name, choice) in [
            ("default", BackendChoice::Default),
            ("auto", BackendChoice::Auto),
            ("stabilizer", BackendChoice::Stabilizer),
        ] {
            let cmd = parse_args(&args(&["campaign", "f.qasm", "--backend", name])).unwrap();
            match cmd {
                Command::Campaign(a) => {
                    assert_eq!(a.backend, choice);
                    assert_eq!(parse_args(&a.to_argv()).unwrap(), Command::Campaign(a));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(parse_args(&args(&["campaign", "f", "--backend", "statevector"])).is_err());
        assert!(parse_args(&args(&["campaign"])).is_err());
        assert!(parse_args(&args(&["campaign", "--ghz", "0"])).is_err());
        assert!(parse_args(&args(&["campaign", "f", "--designs", "bogus"])).is_err());
        assert!(parse_args(&args(&["campaign", "f", "--jobs", "0"])).is_err());
        assert!(parse_args(&args(&["campaign", "f", "--jobs", "x"])).is_err());
    }

    #[test]
    fn parses_campaign_shard_sweep_and_merge() {
        let cmd = parse_args(&args(&["campaign", "--ghz", "2", "--shard", "1/3"])).unwrap();
        match cmd {
            Command::Campaign(a) => {
                assert_eq!(a.shard, Some(Shard { index: 1, count: 3 }));
                assert_eq!(a.sweep, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Malformed shard coordinates.
        for bad in ["3/3", "x/2", "1-2", "2/0"] {
            assert!(
                parse_args(&args(&["campaign", "f", "--shard", bad])).is_err(),
                "{bad} should not parse"
            );
        }

        let cmd = parse_args(&args(&[
            "campaign",
            "--ghz",
            "2",
            "--sweep",
            "ideal,low,melbourne:2.5",
            "--margin",
            "0.03",
            "--threshold",
            "0.1",
        ]))
        .unwrap();
        match cmd {
            Command::Campaign(a) => {
                assert_eq!(
                    a.sweep,
                    Some(vec![
                        (DevicePreset::Ideal, 1.0),
                        (DevicePreset::LowNoise, 1.0),
                        (DevicePreset::MelbourneLike, 2.5),
                    ])
                );
                assert_eq!(a.margin, MarginMode::Fixed(0.03));
                assert_eq!(a.threshold, 0.1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown presets report the accepted names.
        let e = parse_args(&args(&["campaign", "f", "--sweep", "hot"])).unwrap_err();
        assert!(e.0.contains("expected one of"), "{e}");
        assert!(parse_args(&args(&["campaign", "f", "--sweep", "low:-1"])).is_err());
        assert!(parse_args(&args(&["campaign", "f", "--sweep", "low:x"])).is_err());
        assert!(parse_args(&args(&["campaign", "f", "--threshold", "-0.1"])).is_err());
        // Sharding a sweep distributes its (point x cell) unit grid.
        let cmd = parse_args(&args(&[
            "campaign",
            "f",
            "--shard",
            "0/2",
            "--sweep",
            "ideal,low",
            "--margin",
            "auto:3",
        ]))
        .unwrap();
        match cmd {
            Command::Campaign(a) => {
                assert_eq!(a.shard, Some(Shard { index: 0, count: 2 }));
                assert_eq!(a.sweep.as_ref().map(Vec::len), Some(2));
                assert_eq!(a.margin, MarginMode::Auto { repeats: 3, z: 2.0 });
            }
            other => panic!("unexpected {other:?}"),
        }
        // Auto margins calibrate sweep thresholds; without --sweep there is
        // nothing to calibrate.
        assert!(parse_args(&args(&["campaign", "f", "--margin", "auto"])).is_err());
        assert!(parse_args(&args(&["campaign", "f", "--margin", "auto:1"])).is_err());

        let cmd = parse_args(&args(&["campaign", "merge", "a.json", "b.json", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::CampaignMerge {
                files: vec!["a.json".into(), "b.json".into()],
                json: true,
            }
        );
        assert!(parse_args(&args(&["campaign", "merge"])).is_err());
    }

    #[test]
    fn campaign_shards_merge_to_the_unsharded_report() {
        let campaign = |shard: Option<Shard>| {
            Command::Campaign(CampaignArgs {
                source: CampaignSource::Ghz(2),
                state: "ghz".into(),
                designs: vec![CampaignDesign::Ndd, CampaignDesign::Stat],
                doubles: 0,
                shots: 64,
                seed: 11,
                deadline_ms: None,
                memory_budget_mb: 64,
                jobs: Some(1),
                sim_threads: None,
                noise: DevicePreset::Ideal,
                threshold: 0.05,
                backend: BackendChoice::default(),
                shard,
                sweep: None,
                margin: MarginMode::Fixed(0.02),
                json: true,
            })
        };
        let full = execute(&campaign(None)).unwrap();

        let dir = std::env::temp_dir().join("qra_cli_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = Vec::new();
        for index in 0..2 {
            let out = execute(&campaign(Some(Shard { index, count: 2 }))).unwrap();
            assert!(out.contains("\"shard\""), "{out}");
            let path = dir.join(format!("shard{index}.json"));
            std::fs::write(&path, &out).unwrap();
            files.push(path.to_str().unwrap().to_string());
        }
        let merged = execute(&Command::CampaignMerge { files, json: true }).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn campaign_sweep_end_to_end() {
        let out = execute(&Command::Campaign(CampaignArgs {
            source: CampaignSource::Ghz(2),
            state: "ghz".into(),
            designs: vec![CampaignDesign::Ndd],
            doubles: 0,
            shots: 64,
            seed: 3,
            deadline_ms: None,
            memory_budget_mb: 64,
            jobs: Some(1),
            sim_threads: None,
            noise: DevicePreset::Ideal,
            threshold: 0.05,
            backend: BackendChoice::default(),
            shard: None,
            sweep: Some(vec![
                (DevicePreset::Ideal, 1.0),
                (DevicePreset::LowNoise, 2.0),
            ]),
            margin: MarginMode::Fixed(0.02),
            json: false,
        }))
        .unwrap();
        assert!(out.contains("Noise sweep: 2 point(s)"), "{out}");
        assert!(out.contains("--- noise point: low x2 ---"), "{out}");
        assert!(out.contains("Detection degradation"), "{out}");
    }

    #[test]
    fn campaign_auto_backend_end_to_end_reports_stabilizer() {
        // A Clifford GHZ program (exact h/cx, unlike the built-in --ghz
        // source whose Hadamard is u2(0,pi)) with a classical set spec:
        // every auto cell should run on the tableau and say so.
        let dir = std::env::temp_dir().join("qra_cli_auto_backend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ghz3_clifford.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
             h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n",
        )
        .unwrap();
        let campaign = |backend: BackendChoice| {
            execute(&Command::Campaign(CampaignArgs {
                source: CampaignSource::File(path.to_str().unwrap().to_string()),
                state: "set:0;7".into(),
                designs: vec![CampaignDesign::Swap],
                doubles: 0,
                shots: 128,
                seed: 5,
                deadline_ms: None,
                memory_budget_mb: 64,
                jobs: Some(1),
                sim_threads: None,
                noise: DevicePreset::Ideal,
                threshold: 0.05,
                backend,
                shard: None,
                sweep: None,
                margin: MarginMode::Fixed(0.02),
                json: true,
            }))
            .unwrap()
        };
        let auto = campaign(BackendChoice::Auto);
        assert!(auto.contains("\"backend\":\"stabilizer\""), "{auto}");
        assert!(!auto.contains("\"backend\":\"statevector\""), "{auto}");
        // Auto never changes the physics: identical bytes modulo the
        // backend labels.
        let default = campaign(BackendChoice::Default);
        assert_eq!(
            auto.replace("\"backend\":\"stabilizer\"", "\"backend\":\"statevector\""),
            default
        );
    }

    #[test]
    fn campaign_rejects_oversized_programs_fast() {
        // Must error out before building the 2^25-amplitude spec.
        let e = execute(&Command::Campaign(CampaignArgs {
            source: CampaignSource::Ghz(25),
            state: "ghz".into(),
            designs: vec![CampaignDesign::Swap],
            doubles: 0,
            shots: 16,
            seed: 1,
            deadline_ms: None,
            memory_budget_mb: 64,
            jobs: None,
            sim_threads: None,
            noise: DevicePreset::Ideal,
            threshold: 0.05,
            backend: BackendChoice::default(),
            shard: None,
            sweep: None,
            margin: MarginMode::Fixed(0.02),
            json: false,
        }))
        .unwrap_err();
        assert!(e.0.contains("25 qubits"), "{e}");
    }

    #[test]
    fn design_list_parsing() {
        assert_eq!(
            parse_design_list("all").unwrap(),
            CampaignDesign::ALL.to_vec()
        );
        assert_eq!(
            parse_design_list("swap, logical-or").unwrap(),
            vec![CampaignDesign::Swap, CampaignDesign::LogicalOr]
        );
        assert!(parse_design_list("").is_err());
        assert!(parse_design_list("qft").is_err());
    }

    #[test]
    fn campaign_end_to_end_on_builtin_ghz() {
        let campaign = |jobs: Option<usize>, json: bool| {
            Command::Campaign(CampaignArgs {
                source: CampaignSource::Ghz(2),
                state: "ghz".into(),
                designs: vec![CampaignDesign::Ndd],
                doubles: 2,
                shots: 128,
                seed: 5,
                deadline_ms: None,
                memory_budget_mb: 64,
                jobs,
                sim_threads: None,
                noise: DevicePreset::Ideal,
                threshold: 0.05,
                backend: BackendChoice::default(),
                shard: None,
                sweep: None,
                margin: MarginMode::Fixed(0.02),
                json,
            })
        };
        let base = campaign(Some(1), false);
        let text = execute(&base).unwrap();
        assert!(text.contains("fault-injection campaign"), "{text}");
        assert!(text.contains("false-positive rate 0.0000"), "{text}");
        assert!(text.contains("angle-off-by-pi"));
        assert!(text.contains("elapsed:"), "{text}");

        // Identical seeds render identical reports (minus timing).
        let again = execute(&base).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("elapsed:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&text), strip(&again));

        // The worker pool renders the very same report text.
        let parallel = execute(&campaign(Some(4), false)).unwrap();
        assert_eq!(strip(&text), strip(&parallel));

        // JSON output carries no timing, so it is byte-identical across
        // job counts.
        let json_serial = execute(&campaign(Some(1), true)).unwrap();
        assert!(json_serial.starts_with('{') && json_serial.ends_with('}'));
        assert!(json_serial.contains("\"mutant_count\""));
        let json_parallel = execute(&campaign(Some(4), true)).unwrap();
        assert_eq!(json_serial, json_parallel);
    }
}
