//! Service-lifecycle integration tests against an in-process daemon
//! with a synthetic executor: concurrent clients, queue-full
//! backpressure accounting, an exact queue depth, graceful drain
//! finishing accepted jobs, and an idle daemon draining promptly.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qra_serve::{
    request_shutdown, request_status, submit_jobs, ServeSummary, Server, ServerConfig,
};

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn socket_path(tag: &str) -> PathBuf {
    let n = SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qra-serve-test-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

fn wait_for_socket(path: &std::path::Path) {
    for _ in 0..500 {
        if std::os::unix::net::UnixStream::connect(path).is_ok() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", path.display());
}

/// Echo executor: deterministic output derived from the argv alone.
fn echo_executor() -> Arc<qra_serve::JobExecutor> {
    Arc::new(|argv: &[String]| Ok((format!("echo:{}", argv.join(" ")), 0)))
}

#[test]
fn concurrent_clients_get_correct_ordered_responses() {
    let socket = socket_path("concurrent");
    let server = Arc::new(Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 4,
            // Holds the full 4 x 25 burst: this test is about ordering
            // under concurrency, not backpressure (covered below), so
            // drops must be impossible whatever the scheduler does.
            queue_depth: 128,
            ..ServerConfig::default()
        },
        echo_executor(),
    ));
    let run = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().unwrap())
    };
    wait_for_socket(&socket);

    let mut clients = Vec::new();
    for c in 0..4 {
        let socket = socket.clone();
        clients.push(thread::spawn(move || {
            let jobs: Vec<Vec<String>> = (0..25)
                .map(|j| vec![format!("client{c}"), format!("job{j}")])
                .collect();
            let responses = submit_jobs(&socket, &jobs).unwrap();
            assert_eq!(responses.len(), 25);
            for (j, r) in responses.iter().enumerate() {
                assert!(r.ok, "client {c} job {j}: {:?}", r.error);
                assert_eq!(r.id, j as u64);
                assert_eq!(r.output, format!("echo:client{c} job{j}"));
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let status = request_status(&socket).unwrap();
    assert!(status.contains("\"processed\":100"), "status: {status}");
    assert!(status.contains("\"dropped\":0"), "status: {status}");

    request_shutdown(&socket).unwrap();
    let summary = run.join().unwrap();
    assert_eq!(summary.metrics.processed, 100);
    assert_eq!(summary.metrics.dropped, 0);
    assert!(summary.metrics.latency_count >= 100);
    assert!(!socket.exists(), "socket not removed after drain");
}

#[test]
fn queue_full_backpressure_drops_and_accounts() {
    let socket = socket_path("backpressure");
    let slow: Arc<qra_serve::JobExecutor> = Arc::new(|argv: &[String]| {
        thread::sleep(Duration::from_millis(40));
        Ok((argv.join(" "), 0))
    });
    let server = Arc::new(Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        },
        slow,
    ));
    let run = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().unwrap())
    };
    wait_for_socket(&socket);

    let jobs: Vec<Vec<String>> = (0..20).map(|j| vec![format!("burst{j}")]).collect();
    let responses = submit_jobs(&socket, &jobs).unwrap();
    assert_eq!(responses.len(), 20);
    let dropped = responses.iter().filter(|r| r.dropped).count();
    let executed = responses.iter().filter(|r| r.ok).count();
    assert!(dropped > 0, "a 20-job burst into a depth-2 queue must drop");
    assert_eq!(dropped + executed, 20, "every job gets exactly one verdict");
    for r in &responses {
        if r.dropped {
            assert_eq!(r.error.as_deref(), Some("queue full"));
        }
    }

    request_shutdown(&socket).unwrap();
    let summary = run.join().unwrap();
    assert_eq!(summary.metrics.dropped, dropped as u64);
    assert_eq!(summary.metrics.processed, executed as u64);
}

#[test]
fn drain_finishes_accepted_jobs() {
    let socket = socket_path("drain");
    let slow: Arc<qra_serve::JobExecutor> = Arc::new(|argv: &[String]| {
        thread::sleep(Duration::from_millis(100));
        Ok((format!("done:{}", argv.join(" ")), 0))
    });
    let server = Arc::new(Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        },
        slow,
    ));
    let drain = server.drain_when();
    let run = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run().unwrap())
    };
    wait_for_socket(&socket);

    let client = {
        let socket = socket.clone();
        thread::spawn(move || {
            let jobs: Vec<Vec<String>> = (0..4).map(|j| vec![format!("slow{j}")]).collect();
            submit_jobs(&socket, &jobs).unwrap()
        })
    };
    // Let the jobs reach the queue, then drain mid-execution.
    thread::sleep(Duration::from_millis(120));
    drain();

    let responses = client.join().unwrap();
    let summary = run.join().unwrap();
    // Every accepted job completed and was answered before exit; none
    // were abandoned (drain refusals would carry an error, not output).
    assert_eq!(responses.len(), 4);
    for r in &responses {
        assert!(r.ok, "drain abandoned a job: {:?}", r.error);
        assert!(r.output.starts_with("done:"));
    }
    assert_eq!(summary.metrics.processed, 4);
    assert_eq!(summary.metrics.in_flight, 0);
}

/// Runs the daemon on its own thread; the receiver yields `run`'s result.
fn spawn_run(server: Server) -> mpsc::Receiver<ServeSummary> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run().unwrap());
    });
    rx
}

/// Waits for `run` to return, failing (instead of hanging the suite)
/// when a drain never completes.
fn join_within(run: &mpsc::Receiver<ServeSummary>, limit: Duration) -> ServeSummary {
    run.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("run() did not return within {limit:?}: {e}"))
}

/// Polls the daemon's status line until `want` holds.
fn wait_for_status(socket: &Path, want: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = request_status(socket).unwrap();
        if want(&status) {
            return status;
        }
        assert!(Instant::now() < deadline, "status never matched: {status}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn queue_depth_holds_exactly_that_many_jobs() {
    let socket = socket_path("exact-depth");
    // Every job blocks until the gate opens; the log records run order.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let log = Arc::new(Mutex::new(Vec::new()));
    let executor: Arc<qra_serve::JobExecutor> = {
        let (gate, log) = (Arc::clone(&gate), Arc::clone(&log));
        Arc::new(move |argv: &[String]| {
            let (open, opened) = &*gate;
            drop(opened.wait_while(open.lock().unwrap(), |o| !*o).unwrap());
            log.lock().unwrap().push(argv.join(" "));
            Ok((argv.join(" "), 0))
        })
    };
    let server = Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 1,
            queue_depth: 3,
            ..ServerConfig::default()
        },
        executor,
    );
    let run = spawn_run(server);
    wait_for_socket(&socket);

    let mut client = UnixStream::connect(&socket).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = BufReader::new(client.try_clone().unwrap());
    let mut send = |id: u64| {
        writeln!(client, "{{\"id\":{id},\"argv\":[\"job{id}\"]}}").unwrap();
    };
    let mut reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        qra_serve::protocol::parse_job_response(line.trim()).unwrap()
    };

    // One job in flight, then exactly three queued behind it.
    send(0);
    wait_for_status(&socket, |s| s.contains("\"in_flight\":1"));
    for id in 1..=3 {
        send(id);
    }
    let status = wait_for_status(&socket, |s| s.contains("\"queued\":3"));
    assert!(status.contains("\"queue_capacity\":3"), "{status}");

    // Every further job is refused and counted.
    for id in 4..=6 {
        send(id);
    }
    for id in 4..=6 {
        let r = reply();
        assert_eq!(r.id, id);
        assert!(r.dropped, "job {id} should be refused: {r:?}");
        assert_eq!(r.error.as_deref(), Some("queue full"));
    }
    let status = request_status(&socket).unwrap();
    assert!(status.contains("\"queued\":3"), "{status}");
    assert!(status.contains("\"dropped\":3"), "{status}");

    // Released, the accepted jobs run and answer in submission order.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    for id in 0..=3 {
        let r = reply();
        assert!(r.ok, "job {id}: {:?}", r.error);
        assert_eq!((r.id, r.output.as_str()), (id, format!("job{id}").as_str()));
    }
    assert_eq!(*log.lock().unwrap(), ["job0", "job1", "job2", "job3"]);

    request_shutdown(&socket).unwrap();
    let summary = join_within(&run, Duration::from_secs(5));
    assert_eq!((summary.metrics.processed, summary.metrics.dropped), (4, 3));
}

#[test]
fn idle_daemon_drains_on_drain_when() {
    let socket = socket_path("idle-latch");
    let server = Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 2,
            ..ServerConfig::default()
        },
        echo_executor(),
    );
    let drain = server.drain_when();
    let run = spawn_run(server);
    // No client ever connects: wait for the bind by the socket file alone.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound");
        thread::sleep(Duration::from_millis(5));
    }
    drain();
    let summary = join_within(&run, Duration::from_secs(5));
    assert_eq!(summary.metrics.processed, 0);
    assert!(!socket.exists(), "socket not removed after drain");
}

#[test]
fn idle_daemon_drains_on_shutdown_control() {
    let socket = socket_path("idle-control");
    let server = Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers: 2,
            ..ServerConfig::default()
        },
        echo_executor(),
    );
    let run = spawn_run(server);
    wait_for_socket(&socket);
    let ack = request_shutdown(&socket).unwrap();
    assert!(ack.contains("\"draining\":true"), "{ack}");
    let summary = join_within(&run, Duration::from_secs(5));
    assert_eq!(summary.metrics.processed, 0);
    assert!(!socket.exists(), "socket not removed after drain");
}
