//! `serve_submit`: one `qra serve --workers 1` daemon and one closed-loop
//! client that opens one connection per job, the `qra submit` shape.
//!
//! The socket, protocol, queue hand-off and cache-hit path dominate;
//! neither precise synthesis at width nor the density engine runs here.

use crate::inputs::{self, ServeJob, ServeRounds, SERVE_SHOTS};
use crate::{oracle, quantile, run_qra, timed_rounds, wait_child, Args, Outcome, SETUP_REPEATS};
use qra::faults::json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `qra serve` daemon; killed if dropped without [`Daemon::stop`].
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    pub fn start(qra: &Path, work: &Path) -> Result<Daemon, String> {
        let socket = work.join("d.sock");
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(qra)
            .args([
                "serve",
                "--socket",
                &inputs::path_str(&socket),
                "--workers",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning qra serve: {e}"))?;
        let daemon = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while control(&daemon.socket, "status").is_err() {
            if Instant::now() > deadline {
                return Err("qra serve did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// The daemon's peak resident set so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading the daemon's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the daemon's status".into())
    }

    /// Drains the daemon and waits for it to exit 0.
    pub fn stop(mut self) -> Result<(), String> {
        control(&self.socket, "shutdown")?;
        let (code, _) = wait_child(self.child.take().expect("running"))?;
        if code != Some(0) {
            return Err(format!("qra serve exited with {code:?}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn control(socket: &Path, verb: &str) -> Result<String, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{{\"control\":\"{verb}\"}}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Ok(line)
}

/// A daemon's answer to one job.
pub struct Reply {
    pub round_trip_ms: f64,
    pub latency_ms: f64,
    pub output: String,
}

/// Submits one job on its own connection and waits for the reply.
pub fn submit(socket: &Path, id: u64, argv: &[String]) -> Result<Reply, String> {
    let start = Instant::now();
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let rendered: Vec<String> = argv.iter().map(|a| json::json_str(a)).collect();
    stream
        .write_all(format!("{{\"id\":{id},\"argv\":[{}]}}\n", rendered.join(",")).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    let round_trip_ms = start.elapsed().as_secs_f64() * 1e3;
    if line.is_empty() {
        return Err("daemon closed the connection without a response".into());
    }
    let v = json::parse(line.trim()).map_err(|e| format!("{e}: {}", line.trim()))?;
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| format!("no {key}: {}", line.trim()))
    };
    if field("ok")?.as_bool() != Ok(true) {
        return Err(format!("job refused: {}", line.trim()));
    }
    if field("id")?.as_u64() != Ok(id) {
        return Err(format!("response for another job: {}", line.trim()));
    }
    if field("code")?.as_u64() != Ok(0) {
        return Err(format!("job exited non-zero: {}", line.trim()));
    }
    let latency_us = field("latency_us")?
        .as_f64_or_nan()
        .map_err(|e| e.to_string())?;
    Ok(Reply {
        round_trip_ms,
        latency_ms: latency_us / 1e3,
        output: field("output")?
            .as_str()
            .map_err(|e| e.to_string())?
            .to_string(),
    })
}

/// Checks a job's output: `run` histograms stay on the program's support
/// and within binomial bounds of its outcome probabilities; `assert`
/// error rates within a binomial bound of the exact rejection.
pub fn check_output(job: &ServeJob, out: &str) -> Result<(), String> {
    let phi = inputs::ghz_state(job.n);
    if let Some(spec) = &job.spec {
        let p = oracle::rejection(&phi, &inputs::spec_span(spec, job.n));
        return crate::assert_cli::check_report(out, p, SERVE_SHOTS);
    }
    let probs = oracle::probabilities(&phi);
    let mut lines = out.lines();
    if lines.next() != Some(&format!("shots: {SERVE_SHOTS}")) {
        return Err(format!("bad run header: {out:?}"));
    }
    let mut seen = vec![0u64; probs.len()];
    for line in lines {
        let (key, rest) = line
            .trim()
            .split_once(": ")
            .ok_or_else(|| format!("bad histogram line {line:?}"))?;
        let count: u64 = rest
            .split_whitespace()
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("bad count in {line:?}"))?;
        if key.len() != job.n || !key.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(format!("bad outcome key {key:?}"));
        }
        // Character i of the key is clbit i, which measures qubit i.
        let idx = key.bytes().enumerate().fold(0usize, |acc, (q, b)| {
            acc | (usize::from(b == b'1') << (job.n - 1 - q))
        });
        seen[idx] += count;
    }
    let total: u64 = seen.iter().sum();
    if total != SERVE_SHOTS {
        return Err(format!("histogram holds {total} shots"));
    }
    for (idx, (&c, &p)) in seen.iter().zip(&probs).enumerate() {
        if p < 1e-12 && c > 0 {
            return Err(format!("outcome {idx} outside the program's support"));
        }
        if !oracle::within_binomial(c as f64 / total as f64, p, total, 0.0) {
            return Err(format!("outcome {idx}: {c}/{total} vs exact {p:.6}"));
        }
    }
    Ok(())
}

/// Starts a daemon and fills its compiled-program cache with one pass over
/// the repeated circuits, checking each reply.
pub fn setup(args: &Args, rounds: &mut ServeRounds) -> Result<Daemon, String> {
    inputs::write_serve_programs(&args.work).map_err(|e| format!("writing inputs: {e}"))?;
    let daemon = Daemon::start(&args.qra, &args.work)?;
    for (id, job) in rounds.fill_pass().iter().enumerate() {
        let reply = submit(&daemon.socket, id as u64, &job.argv)?;
        check_output(job, &reply.output).map_err(|e| format!("cache fill: {e}"))?;
    }
    Ok(daemon)
}

/// `peak_rss_mb` is the daemon's peak after this many timed rounds (2,000
/// jobs, 200 of them on new circuits), so it does not grow with the jobs a
/// faster daemon fits into the run: the compiled-program cache never
/// evicts. A run that ends sooner reads the peak at its end.
const RSS_ROUNDS: usize = 100;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut live = None;
    for repeat in 0..SETUP_REPEATS {
        let start = Instant::now();
        let mut rounds = ServeRounds::new(&args.work, args.seed);
        let daemon = setup(args, &mut rounds)?;
        setups.push(start.elapsed().as_secs_f64());
        if repeat + 1 < SETUP_REPEATS {
            daemon.stop()?;
        } else {
            live = Some((daemon, rounds));
        }
    }
    let (daemon, mut rounds) = live.expect("at least one set-up");
    let host_before = crate::host_ref_ms();
    let mut latencies = Vec::new();
    let mut samples: Vec<(Vec<String>, String)> = Vec::new();
    let mut next_id = 0u64;
    let mut done_rounds = 0;
    let mut peak_rss = None;
    let loop_secs = timed_rounds(args.seconds, || {
        for job in rounds
            .next_round()
            .map_err(|e| format!("writing inputs: {e}"))?
        {
            next_id += 1;
            let verdict = submit(&daemon.socket, next_id, &job.argv).and_then(|reply| {
                latencies.push(reply.round_trip_ms);
                check_output(&job, &reply.output)?;
                // The first round covers every job kind; its outputs are
                // compared with one-shot `qra` after the timed loop.
                if samples.len() < inputs::SERVE_ROUND {
                    samples.push((job.argv.clone(), reply.output));
                }
                Ok(())
            });
            out.record(verdict.map_err(|e| format!("{}: {e}", job.argv.join(" "))));
        }
        done_rounds += 1;
        if done_rounds == RSS_ROUNDS {
            peak_rss = Some(daemon.peak_rss_mb()?);
        }
        Ok(())
    })?;
    let host_after = crate::host_ref_ms();
    let peak_rss = match peak_rss {
        Some(mb) => mb,
        None => daemon.peak_rss_mb()?,
    };
    daemon.stop()?;
    eprintln!("host.ref_kernel_ms before {host_before:.3} after {host_after:.3}");
    // Outside the timed window: daemon responses equal one-shot output.
    for (argv, daemon_out) in &samples {
        let r = run_qra(&args.qra, argv)?;
        if r.ok()? != daemon_out {
            out.failed += 1;
            eprintln!("failed operation: daemon output differs from one-shot qra for {argv:?}");
        }
    }
    // Tail figures, recorded but not gated: they follow the host's
    // scheduling latency (p90 moved 2.4-4.5 ms across ten runs on a
    // shared 2-vCPU VM).
    eprintln!(
        "client p90 {:.4} ms, p99 {:.4} ms (n={})",
        quantile(&latencies, 0.9),
        quantile(&latencies, 0.99),
        latencies.len()
    );
    out.end_to_end(&setups, &latencies, loop_secs, peak_rss);
    Ok(out)
}
