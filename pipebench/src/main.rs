//! Whole-pipeline benchmark for `qra`.
//!
//! ```text
//! qra-pipebench --qra <path> --workload assert_cli|campaign_sweep|serve_submit
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload drives the release `qra` binary from
//! outside (one-shot processes, or a `qra serve` daemon and a socket
//! client) and prints the end-to-end metrics. With `--trace 1` it replays
//! the same seeded inputs in-process through the program's entry points,
//! built from the probed copy of the crates that `run.sh` writes, writes
//! the spans as Chrome trace-event JSON under `.bench_work/`, and prints
//! the per-layer metrics. Either way the last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See `README.md`
//! in this directory.

mod assert_cli;
mod campaign;
mod inputs;
mod oracle;
mod replay;
mod serve;

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: qra_probe::CountingAlloc = qra_probe::CountingAlloc;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub struct Args {
    pub qra: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for inputs, sockets and traces, inside the
    /// working directory.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?;
    if !["assert_cli", "campaign_sweep", "serve_submit"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = flag("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}'")),
    };
    let qra = PathBuf::from(flag("--qra")?);
    if !qra.is_file() {
        return Err(format!("no qra binary at {}", qra.display()));
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{workload}-{seed}-{}-{}",
        if trace { "t" } else { "e" },
        std::process::id()
    ));
    Ok(Args {
        qra,
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

/// What one run reports: the last stdout line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit, samples)` in print order.
    pub metrics: Vec<(String, f64, &'static str, usize)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Adds the end-to-end metrics of a `--trace 0` run.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        latencies_ms: &[f64],
        loop_secs: f64,
        peak_rss_mb: f64,
    ) {
        let n = latencies_ms.len();
        self.metric("setup_s", median(setups_s), "s", setups_s.len());
        self.metric("ops_per_s", n as f64 / loop_secs, "1/s", n);
        self.metric("p50_ms", median(latencies_ms), "ms", n);
        self.metric("peak_rss_mb", peak_rss_mb, "MB", n);
    }

    /// Records one operation's verdict: an operation fails on a non-zero
    /// exit, an `ok:false` or dropped response, or a failed check, and is
    /// named on stderr.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("failed operation: {why}");
        }
    }

    fn print(&self) {
        for (name, value, unit, samples) in &self.metrics {
            eprintln!("{name:32} {value:>14.6} {unit:6} (n={samples})");
        }
        eprintln!("attempted {} failed {}", self.attempted, self.failed);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The host reference kernel's median time over three calls, in ms.
pub fn host_ref_ms() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(inputs::host_ref_kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` and returns its exit code (`None` when killed by a
/// signal) and its peak resident set in MB.
pub fn wait_child(child: std::process::Child) -> Result<(Option<i32>, f64), String> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and 64-bit `struct rusage`; `pid` is our own
        // unreaped child, which std never waits for once dropped.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    drop(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok((code, usage.maxrss_kb as f64 / 1024.0))
}

/// One finished `qra` process.
pub struct ProcRun {
    pub stdout: String,
    pub stderr: String,
    pub code: Option<i32>,
    pub secs: f64,
    pub rss_mb: f64,
}

/// Runs `qra <argv>` to completion, timing it from spawn to reap.
pub fn run_qra(qra: &Path, argv: &[String]) -> Result<ProcRun, String> {
    let start = Instant::now();
    let mut child = Command::new(qra)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning qra: {e}"))?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped")
        .read_to_string(&mut stdout)
        .and_then(|_| {
            child
                .stderr
                .take()
                .expect("piped")
                .read_to_string(&mut stderr)
        });
    let (code, rss_mb) = wait_child(child)?;
    let secs = start.elapsed().as_secs_f64();
    read.map_err(|e| format!("reading qra output: {e}"))?;
    Ok(ProcRun {
        stdout,
        stderr,
        code,
        secs,
        rss_mb,
    })
}

impl ProcRun {
    /// The output of a run that exited 0, or why it did not.
    pub fn ok(&self) -> Result<&str, String> {
        match self.code {
            Some(0) => Ok(&self.stdout),
            code => Err(format!(
                "qra exited with {code:?}: {}",
                self.stderr.lines().next().unwrap_or("")
            )),
        }
    }
}

/// Runs `round` repeatedly until `seconds` have passed, always finishing
/// the round it is in, and returns the timed loop's length in seconds.
pub fn timed_rounds(
    seconds: f64,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        round()?;
        if start.elapsed() >= budget {
            return Ok(start.elapsed().as_secs_f64());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qra-pipebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("qra-pipebench: creating {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let result = match (args.workload.as_str(), args.trace) {
        ("assert_cli", false) => assert_cli::run(&args),
        ("campaign_sweep", false) => campaign::run(&args),
        ("serve_submit", false) => serve::run(&args),
        (_, true) => replay::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(outcome) => {
            outcome.print();
            // A wrong or failed operation fails the run as well.
            if outcome.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("qra-pipebench: {e}");
            std::process::exit(1);
        }
    }
}
