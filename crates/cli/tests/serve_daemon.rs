//! End-to-end tests of the `qra serve` daemon, driving the real binary:
//! daemon responses are byte-identical to one-shot invocations at fixed
//! seeds (for any worker count, cache hits included), repeat circuits hit
//! the compiled-program cache, SIGTERM drains gracefully (an idle daemon
//! within a bound), and multi-host sweeps attribute progress per host in
//! `sweep status --json`. One test runs the daemon in process instead, with
//! a cache small enough to evict, and holds its replies to the same bytes.

use std::fs;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn qra() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qra"))
}

fn run_ok(args: &[&str]) -> String {
    let out = qra().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "qra {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qra-serve-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_bell(dir: &Path) -> String {
    let path = dir.join("bell.qasm");
    fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
    )
    .unwrap();
    path.to_str().unwrap().to_string()
}

fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if std::os::unix::net::UnixStream::connect(socket).is_ok() {
            return;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("daemon never bound {}", socket.display());
}

/// A spawned daemon that is killed and reaped on drop if it is still
/// running, so a failing assertion cannot leave it alive.
struct Daemon(Option<Child>);

impl Daemon {
    /// Waits for the daemon to exit and collects its stdout.
    fn wait_with_output(mut self) -> std::io::Result<Output> {
        self.0
            .take()
            .expect("held until waited on")
            .wait_with_output()
    }
}

impl Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        self.0.as_ref().expect("held until waited on")
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        self.0.as_mut().expect("held until waited on")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

fn spawn_daemon(socket: &Path, workers: &str) -> Daemon {
    let daemon = qra()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--workers",
            workers,
            "--queue-depth",
            "64",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let daemon = Daemon(Some(daemon));
    wait_for_socket(socket);
    daemon
}

/// Pulls the integer value of `"key":N` out of a status JSON line.
fn json_counter(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {text}"))
}

#[test]
fn daemon_jobs_are_byte_identical_to_one_shot_runs() {
    let dir = tmpdir("identical");
    let bell = write_bell(&dir);
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();

    let run_args = ["run", &bell, "--shots", "256", "--seed", "5"];
    let assert_args = [
        "assert", &bell, "--qubits", "0,1", "--state", "bell", "--shots", "512", "--seed", "9",
    ];
    let campaign_args = [
        "campaign",
        "--ghz",
        "2",
        "--designs",
        "ndd",
        "--shots",
        "64",
        "--seed",
        "13",
        "--jobs",
        "1",
        "--json",
    ];
    let direct_run = run_ok(&run_args);
    let direct_assert = run_ok(&assert_args);
    let direct_campaign = run_ok(&campaign_args);

    let daemon = spawn_daemon(&socket, "3");

    // Concurrent submits from separate client processes, each job
    // repeated — responses must match the one-shot outputs byte for byte
    // whether its compile was a cache miss (first) or a hit (repeats).
    let mut clients = Vec::new();
    for _ in 0..3 {
        for (args, want) in [
            (&run_args[..], direct_run.clone()),
            (&assert_args[..], direct_assert.clone()),
            (&campaign_args[..], direct_campaign.clone()),
        ] {
            let argv: Vec<String> = ["submit", "--socket", sock]
                .iter()
                .map(|s| s.to_string())
                .chain(args.iter().map(|s| s.to_string()))
                .collect();
            clients.push(thread::spawn(move || {
                let out = Command::new(env!("CARGO_BIN_EXE_qra"))
                    .args(&argv)
                    .output()
                    .unwrap();
                assert!(
                    out.status.success(),
                    "submit failed:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                assert_eq!(String::from_utf8(out.stdout).unwrap(), want);
            }));
        }
    }
    for c in clients {
        c.join().unwrap();
    }

    // The repeated circuits hit the daemon's compile cache, and the
    // latency percentiles are live.
    let status = run_ok(&["serve", "--status", "--socket", sock]);
    assert_eq!(json_counter(&status, "processed"), 9, "{status}");
    assert_eq!(json_counter(&status, "dropped"), 0, "{status}");
    assert!(json_counter(&status, "hits") > 0, "{status}");
    assert!(json_counter(&status, "count") >= 9, "{status}");
    assert!(status.contains("\"p99\":"), "{status}");

    // SIGTERM drains gracefully: zero exit, socket removed, summary line.
    let pid = daemon.id().to_string();
    assert!(Command::new("kill").arg(&pid).status().unwrap().success());
    let out = daemon.wait_with_output().unwrap();
    assert!(out.status.success(), "daemon exited nonzero on SIGTERM");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("serve: drained after 9 job(s)"), "{stdout}");
    assert!(!socket.exists(), "socket not removed after drain");
    let _ = fs::remove_dir_all(&dir);
}

/// An in-process daemon whose cache holds 64 KiB evicts while it serves
/// repeated and fresh ideal and noisy jobs, and every reply still equals
/// the one-shot command's output and exit code byte for byte.
#[test]
fn daemon_replies_are_byte_identical_under_cache_eviction() {
    use qra::serve::{request_shutdown, request_status, submit_jobs, Server, ServerConfig};
    use qra::sim::ProgramCache;
    use std::sync::Arc;

    let dir = tmpdir("eviction");
    let ghz = |n: usize| {
        let path = dir.join(format!("ghz{n}.qasm"));
        let mut text = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\nh q[0];\n");
        for q in 1..n {
            text.push_str(&format!("cx q[{}],q[{q}];\n", q - 1));
        }
        fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let mut jobs: Vec<Vec<String>> = Vec::new();
    // Noisy jobs stay at n <= 5 (a density program of n qubits holds
    // 16·4ⁿ bytes); the wide ideal runs fill the cache.
    for (n, noises) in [(3, 2), (4, 2), (5, 2), (9, 1), (10, 1), (11, 1)] {
        let file = ghz(n);
        let qubits = (0..n.min(4)).map(|q| q.to_string()).collect::<Vec<_>>();
        let qubits = qubits.join(",");
        for noise in &["ideal", "low"][..noises] {
            let seed = (jobs.len() + 1).to_string();
            jobs.push(
                [
                    "run", &file, "--shots", "256", "--seed", &seed, "--noise", noise,
                ]
                .map(String::from)
                .to_vec(),
            );
            let state = if n <= 4 { "ghz" } else { "plus" };
            jobs.push(
                [
                    "assert", &file, "--qubits", &qubits, "--state", state, "--design", "ndd",
                    "--shots", "256", "--seed", &seed, "--noise", noise,
                ]
                .map(String::from)
                .to_vec(),
            );
        }
    }
    // Each job twice in a row (the repeat hits the cache), then the whole
    // list again (by then most programs were evicted and recompile).
    let mut jobs: Vec<Vec<String>> = jobs.iter().flat_map(|j| [j.clone(), j.clone()]).collect();
    jobs.extend(jobs.clone().into_iter().step_by(2));

    let cache = Arc::new(ProgramCache::with_capacity(64 << 10));
    let socket = dir.join("d.sock");
    let server = Arc::new(Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 1,
            queue_depth: 128,
            cache: Some(Arc::clone(&cache)),
            ..ServerConfig::default()
        },
        qra_cli::daemon_executor(Arc::clone(&cache), Vec::new()),
    ));
    let run = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().unwrap())
    };
    wait_for_socket(&socket);
    let replies = submit_jobs(&socket, &jobs).unwrap();
    for (argv, reply) in jobs.iter().zip(&replies) {
        let command = qra_cli::parse_args(argv).unwrap();
        let (output, code) = qra_cli::execute_with_code(&command).unwrap();
        assert!(reply.ok, "{argv:?}: {:?}", reply.error);
        assert_eq!((&reply.output, reply.code), (&output, code), "{argv:?}");
    }
    let status = request_status(&socket).unwrap();
    assert!(json_counter(&status, "hits") > 0, "{status}");
    assert!(json_counter(&status, "evictions") > 0, "{status}");
    assert_eq!(json_counter(&status, "processed"), jobs.len() as u64);
    request_shutdown(&socket).unwrap();
    run.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn daemon_batch_reports_per_job_verdicts_and_stops_cleanly() {
    let dir = tmpdir("batch");
    let bell = write_bell(&dir);
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();

    let jobs = dir.join("jobs.txt");
    fs::write(
        &jobs,
        format!(
            "# repeated circuit: the second and third run hit the cache\n\
             run {bell} --shots 128 --seed 3\n\
             run {bell} --shots 128 --seed 3\n\
             run {bell} --shots 128 --seed 4\n\
             \n\
             info {bell}\n"
        ),
    )
    .unwrap();

    let daemon = spawn_daemon(&socket, "2");
    let out = run_ok(&["batch", jobs.to_str().unwrap(), "--socket", sock]);
    assert!(out.contains("batch: 4/4 job(s) ok"), "{out}");

    let status = run_ok(&["serve", "--status", "--socket", sock]);
    assert!(json_counter(&status, "hits") > 0, "{status}");

    // `serve --stop` drains like SIGTERM and acknowledges the client.
    let ack = run_ok(&["serve", "--stop", "--socket", sock]);
    assert!(ack.contains("draining"), "{ack}");
    let out = daemon.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(!socket.exists(), "socket not removed after drain");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_an_idle_daemon_promptly() {
    let dir = tmpdir("sigterm-idle");
    let socket = dir.join("d.sock");
    let mut daemon = spawn_daemon(&socket, "1");
    assert!(Command::new("kill")
        .arg(daemon.id().to_string())
        .status()
        .unwrap()
        .success());
    // The drain wakes a blocked accept; a lost wake-up fails here instead
    // of hanging the suite.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("idle daemon did not drain within 10 s of SIGTERM");
        }
        thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "daemon exited {status} on SIGTERM");
    assert!(!socket.exists(), "socket not removed after drain");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn multi_host_sweep_attributes_progress_per_host() {
    let dir = tmpdir("hosts");
    let rd = dir.join("run");
    let rd_str = rd.to_str().unwrap();
    let base = [
        "--ghz",
        "2",
        "--designs",
        "ndd",
        "--shots",
        "64",
        "--seed",
        "17",
        "--sweep",
        "ideal,low",
        "--jobs",
        "1",
    ];
    // `local`-prefixed labels spawn locally but write host-labelled
    // result streams — the testable multi-host shape.
    let sweep = run_ok(
        &[
            &[
                "sweep",
                "run",
                "--run-dir",
                rd_str,
                "--workers",
                "2",
                "--hosts",
                "localA,localB",
            ][..],
            &base[..],
            &["--json"][..],
        ]
        .concat(),
    );
    let sequential = run_ok(&[&["campaign"][..], &base[..], &["--json"][..]].concat());
    assert_eq!(sweep, sequential, "multi-host sweep must not change bytes");

    // Machine-readable status: complete (exit 0), with every completed
    // unit attributed to one of the two host labels.
    let out = qra()
        .args(["sweep", "status", rd_str, "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "complete sweep must exit 0");
    let status = String::from_utf8(out.stdout).unwrap();
    assert!(status.contains("\"complete\":true"), "{status}");
    assert!(status.contains("\"code\":0"), "{status}");
    assert!(status.contains("\"quarantined\":[]"), "{status}");
    let total = json_counter(&status, "total");
    assert_eq!(json_counter(&status, "done"), total, "{status}");
    let hosts_at = status.find("\"hosts\":[").unwrap();
    let hosts = &status[hosts_at..];
    let host_done: u64 = ["localA", "localB"]
        .iter()
        .map(|h| {
            let at = hosts
                .find(&format!("\"host\":\"{h}\""))
                .unwrap_or_else(|| panic!("no {h} attribution in {status}"));
            json_counter(&hosts[at..], "done")
        })
        .sum();
    assert_eq!(host_done, total, "every unit attributed to a host");
    // progress.json carries the same attribution.
    let progress = fs::read_to_string(rd.join("progress.json")).unwrap();
    assert!(progress.contains("\"host\":\"localA\""), "{progress}");
    assert!(progress.contains("\"host\":\"localB\""), "{progress}");
    let _ = fs::remove_dir_all(&dir);
}
