//! The `qra serve` daemon: a blocking Unix-socket accept loop whose
//! connection readers feed a bounded job queue drained by a pool of
//! worker threads.
//!
//! # Shutdown / drain state machine
//!
//! ```text
//! ACCEPTING --(SIGTERM | {"control":"shutdown"} | drain_when)--> DRAINING
//! DRAINING: the accept loop stops; readers answer new jobs with an
//!           error response until their client hangs up; queued and
//!           in-flight jobs finish and their responses are written.
//! DRAINED:  workers join, the socket file is removed, `run` returns.
//! ```
//!
//! The queue and the `draining` flag sit under one lock, so once draining
//! is set the queue can only shrink: a worker that finds it draining and
//! empty may exit, and every job accepted before that point is answered
//! before `run` returns. Jobs refused during drain or by queue
//! backpressure get an immediate error response and count in the
//! `dropped` metric (backpressure only).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use qra_sim::ProgramCache;

use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::protocol::{self, JobResponse, Request};

/// Errors from the daemon and its clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

/// The function that executes one job's argv; the CLI injects its own
/// argument parser + command dispatcher so daemon jobs run byte-for-byte
/// the same code as direct invocations.
pub type JobExecutor = dyn Fn(&[String]) -> Result<(String, i32), String> + Send + Sync;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on (created at startup, removed at
    /// drain). A stale socket file from a dead daemon is replaced; a
    /// live one is an error.
    pub socket: PathBuf,
    /// Worker threads; `0` resolves to available parallelism.
    pub workers: usize,
    /// Work-queue depth; jobs beyond it are refused (backpressure).
    pub queue_depth: usize,
    /// Compiled-program cache surfaced in status snapshots (the executor
    /// closure holds its own reference for actual lookups).
    pub cache: Option<Arc<ProgramCache>>,
    /// Worker host list advertised in status (the CLI layer appends
    /// `--hosts` to sweep-run jobs itself).
    pub hosts: Vec<String>,
    /// Install a SIGTERM handler that triggers graceful drain. Leave off
    /// for in-process servers (tests, benches) — handlers are
    /// process-global.
    pub handle_sigterm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: PathBuf::from("qra-serve.sock"),
            workers: 0,
            queue_depth: 256,
            cache: None,
            hosts: Vec::new(),
            handle_sigterm: false,
        }
    }
}

/// Final metrics returned by [`Server::run`] after drain.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Snapshot taken after the last job finished.
    pub metrics: MetricsSnapshot,
    /// Total daemon lifetime.
    pub uptime: Duration,
}

/// One queued job: the argv to execute plus the connection to answer on.
struct Job {
    id: u64,
    argv: Vec<String>,
    reply: Arc<Mutex<UnixStream>>,
    enqueued: Instant,
}

/// Write end of the SIGTERM self-pipe while a daemon handles SIGTERM,
/// else -1 (handlers are process-global, so this cannot live in the
/// server struct).
static SIGTERM_PIPE: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_sigterm(_signum: i32) {
    let fd = SIGTERM_PIPE.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: write(2) is async-signal-safe and reads one byte from
        // `byte`, which outlives the call; `run` unpublishes `fd` before
        // closing it.
        unsafe { write(fd, &byte, 1) };
    }
}

extern "C" {
    // libc's signal(2) and write(2), linked via std; avoids a libc crate
    // dependency.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

const SIGTERM_NO: i32 = 15;

/// The job queue and the drain latch, guarded together.
struct Queue {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// Shared daemon state: queue, metrics, configuration.
struct Inner {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or draining starts.
    ready: Condvar,
    queue_depth: usize,
    socket: PathBuf,
    metrics: ServeMetrics,
    executor: Arc<JobExecutor>,
    cache: Option<Arc<ProgramCache>>,
    hosts: Vec<String>,
    workers: usize,
    started: Instant,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("job queue poisoned")
    }

    /// Queues a job, or refuses it with the reason and whether the
    /// refusal counts as a backpressure drop.
    fn push(&self, job: Job) -> Result<(), (&'static str, bool)> {
        let mut queue = self.lock();
        if queue.draining {
            return Err(("daemon is draining", false));
        }
        if queue.jobs.len() >= self.queue_depth {
            self.metrics.job_dropped();
            return Err(("queue full", true));
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is queued; `None` once draining has emptied
    /// the queue.
    fn pop(&self) -> Option<Job> {
        let mut queue = self
            .ready
            .wait_while(self.lock(), |q| q.jobs.is_empty() && !q.draining)
            .expect("job queue poisoned");
        queue.jobs.pop_front()
    }

    /// Starts the drain — the one path SIGTERM, the shutdown control and
    /// [`Server::drain_when`] all take: refuse new jobs, wake idle
    /// workers, and wake the accept loop with a connection of its own.
    /// The connect fails harmlessly before the socket is bound (the loop
    /// checks the flag before its first `accept`) and after it is gone.
    fn drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
        let _ = UnixStream::connect(&self.socket);
    }

    fn status_line(&self) -> String {
        let snap = self.metrics.snapshot();
        let (queued, draining) = {
            let queue = self.lock();
            (queue.jobs.len(), queue.draining)
        };
        let cache = match &self.cache {
            Some(c) => format!(
                "{{\"hits\":{},\"misses\":{},\"entries\":{},\"bytes\":{},\"evictions\":{}}}",
                c.hits(),
                c.misses(),
                c.entries(),
                c.bytes(),
                c.evictions()
            ),
            None => "null".to_string(),
        };
        let hosts = self
            .hosts
            .iter()
            .map(|h| qra_faults::json::json_str(h))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"ok\":true,\"status\":{{\"workers\":{},\"queue_capacity\":{},\"queued\":{},\
             \"in_flight\":{},\"processed\":{},\"dropped\":{},\"draining\":{},\
             \"uptime_ms\":{},\"hosts\":[{hosts}],\"cache\":{cache},\
             \"latency_us\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}}}}}",
            self.workers,
            self.queue_depth,
            queued,
            snap.in_flight,
            snap.processed,
            snap.dropped,
            draining,
            self.started.elapsed().as_millis(),
            snap.latency_count,
            snap.p50_us,
            snap.p95_us,
            snap.p99_us,
        )
    }
}

/// Writes one response line to a shared connection; a client that hung
/// up only fails its own responses.
fn respond(reply: &Mutex<UnixStream>, line: &str) {
    let mut stream = reply.lock().expect("reply stream poisoned");
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// The streaming assertion daemon. Construct with an executor closure,
/// then [`Server::run`] blocks until drained.
pub struct Server {
    config: ServerConfig,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a daemon executing jobs through `executor`.
    pub fn new(config: ServerConfig, executor: Arc<JobExecutor>) -> Server {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            queue_depth: config.queue_depth,
            socket: config.socket.clone(),
            metrics: ServeMetrics::new(),
            executor,
            cache: config.cache.clone(),
            hosts: config.hosts.clone(),
            workers: qra_sim::threads::resolve_workers(config.workers, "serve"),
            started: Instant::now(),
        });
        Server { config, inner }
    }

    /// A latch that triggers graceful drain when set — the in-process
    /// equivalent of SIGTERM for tests and benches.
    pub fn drain_when(&self) -> impl Fn() + Send + Sync + 'static {
        let inner = Arc::clone(&self.inner);
        move || inner.drain()
    }

    /// Binds the socket, serves until drain is requested (SIGTERM,
    /// `{"control":"shutdown"}`, or [`Server::drain_when`]), finishes
    /// every accepted job, and returns the final metrics.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the socket cannot be bound (including another
    /// live daemon on the same path) or the accept loop fails.
    pub fn run(&self) -> Result<ServeSummary, ServeError> {
        // Installed before the bind, so a SIGTERM sent once the socket
        // answers always drains rather than kills.
        let sigterm = if self.config.handle_sigterm {
            Some(watch_sigterm(&self.inner)?)
        } else {
            None
        };
        let result = bind_socket(&self.config.socket).and_then(|listener| self.serve(&listener));
        if let Some(pipe) = sigterm {
            SIGTERM_PIPE.store(-1, Ordering::SeqCst);
            drop(pipe);
        }
        result
    }

    /// Accepts connections until draining, then joins the workers and
    /// removes the socket.
    fn serve(&self, listener: &UnixListener) -> Result<ServeSummary, ServeError> {
        let workers: Vec<_> = (0..self.inner.workers)
            .map(|_| {
                let inner = Arc::clone(&self.inner);
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let mut failure = None;
        while !self.inner.lock().draining {
            match listener.accept() {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&self.inner);
                    // Detached: a reader lives until its client hangs up,
                    // which the drain does not wait for. The drain's own
                    // wake-up connection closes at once.
                    thread::spawn(move || read_connection(stream, &inner));
                }
                Err(e) => {
                    failure = Some(ServeError(format!("accept failed: {e}")));
                    self.inner.drain();
                }
            }
        }
        // Draining: no job can be queued any more, and each worker exits
        // once the queue is empty.
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.config.socket);
        match failure {
            Some(e) => Err(e),
            None => Ok(ServeSummary {
                metrics: self.inner.metrics.snapshot(),
                uptime: self.inner.started.elapsed(),
            }),
        }
    }
}

/// Turns SIGTERM into a drain through a self-pipe: the handler writes
/// one byte, and a thread blocked on the other end starts the drain.
/// The signal cannot interrupt the accept loop itself: std's `accept`
/// retries on `EINTR`, and `signal` installs the handler with
/// `SA_RESTART`. Returns the write end; dropping it after clearing
/// `SIGTERM_PIPE` ends the thread.
fn watch_sigterm(inner: &Arc<Inner>) -> Result<UnixStream, ServeError> {
    let (mut rx, pipe) =
        UnixStream::pair().map_err(|e| ServeError(format!("SIGTERM pipe: {e}")))?;
    let inner = Arc::clone(inner);
    thread::spawn(move || {
        if rx.read_exact(&mut [0]).is_ok() {
            inner.drain();
        }
    });
    SIGTERM_PIPE.store(pipe.as_raw_fd(), Ordering::SeqCst);
    // SAFETY: `on_sigterm` only loads an atomic and calls write(2), both
    // async-signal-safe.
    unsafe { signal(SIGTERM_NO, on_sigterm) };
    Ok(pipe)
}

/// Binds `path`, replacing a stale socket file but refusing to displace
/// a live daemon.
fn bind_socket(path: &Path) -> Result<UnixListener, ServeError> {
    if path.exists() {
        if UnixStream::connect(path).is_ok() {
            return Err(ServeError(format!(
                "socket {} already has a live daemon",
                path.display()
            )));
        }
        std::fs::remove_file(path)
            .map_err(|e| ServeError(format!("removing stale socket {}: {e}", path.display())))?;
    }
    UnixListener::bind(path).map_err(|e| ServeError(format!("binding {}: {e}", path.display())))
}

/// One worker: pop, execute (panic-isolated), respond, repeat until the
/// drain has emptied the queue.
fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.pop() {
        inner.metrics.job_started();
        let result = catch_unwind(AssertUnwindSafe(|| (inner.executor)(&job.argv)));
        let latency_us = job.enqueued.elapsed().as_micros() as u64;
        let line = match result {
            Ok(Ok((output, code))) => protocol::job_ok(job.id, code, &output, latency_us),
            Ok(Err(message)) => protocol::job_err(job.id, &message, false),
            Err(_) => protocol::job_err(job.id, "job panicked", false),
        };
        // Counted before the reply, so a client that has its answer
        // always finds the job in `--status`.
        inner.metrics.job_finished(latency_us);
        respond(&job.reply, &line);
    }
}

/// One connection: parse request lines, enqueue jobs and answer controls
/// until the client hangs up.
fn read_connection(stream: UnixStream, inner: &Inner) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let reply = Arc::new(Mutex::new(writer));
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else {
            return;
        };
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            handle_request(trimmed, &reply, inner);
        }
    }
}

fn handle_request(line: &str, reply: &Arc<Mutex<UnixStream>>, inner: &Inner) {
    match protocol::parse_request(line) {
        Ok(Request::Status) => respond(reply, &inner.status_line()),
        Ok(Request::Shutdown) => {
            respond(reply, "{\"ok\":true,\"draining\":true}");
            inner.drain();
        }
        Ok(Request::Job { id, argv }) => {
            let job = Job {
                id,
                argv,
                reply: Arc::clone(reply),
                enqueued: Instant::now(),
            };
            if let Err((reason, dropped)) = inner.push(job) {
                respond(reply, &protocol::job_err(id, reason, dropped));
            }
        }
        Err(message) => {
            respond(
                reply,
                &format!(
                    "{{\"ok\":false,\"error\":{}}}",
                    qra_faults::json::json_str(&message)
                ),
            );
        }
    }
}

/// Connects to a daemon, submits every argv as one job, and returns the
/// responses in submission order (ids are assigned 0..n and responses
/// reordered, so multi-worker daemons still yield deterministic output).
///
/// # Errors
///
/// [`ServeError`] on connect/write failures, malformed responses, or a
/// connection closed before every job was answered.
pub fn submit_jobs(socket: &Path, jobs: &[Vec<String>]) -> Result<Vec<JobResponse>, ServeError> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| ServeError(format!("connecting to {}: {e}", socket.display())))?;
    for (id, argv) in jobs.iter().enumerate() {
        let rendered = argv
            .iter()
            .map(|a| qra_faults::json::json_str(a))
            .collect::<Vec<_>>()
            .join(",");
        let line = format!("{{\"id\":{id},\"argv\":[{rendered}]}}\n");
        stream
            .write_all(line.as_bytes())
            .map_err(|e| ServeError(format!("submitting job {id}: {e}")))?;
    }
    stream
        .flush()
        .map_err(|e| ServeError(format!("flushing jobs: {e}")))?;
    let mut responses: Vec<Option<JobResponse>> = vec![None; jobs.len()];
    let mut pending = jobs.len();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while pending > 0 {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| ServeError(format!("reading response: {e}")))?;
        if n == 0 {
            return Err(ServeError(format!(
                "daemon closed the connection with {pending} job(s) unanswered"
            )));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = protocol::parse_job_response(trimmed).map_err(ServeError)?;
        let slot = responses
            .get_mut(response.id as usize)
            .ok_or_else(|| ServeError(format!("response for unknown job id {}", response.id)))?;
        if slot.replace(response).is_none() {
            pending -= 1;
        }
    }
    Ok(responses
        .into_iter()
        .map(|r| r.expect("all answered"))
        .collect())
}

/// Sends one control request and returns the daemon's response line.
fn control(socket: &Path, verb: &str) -> Result<String, ServeError> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| ServeError(format!("connecting to {}: {e}", socket.display())))?;
    stream
        .write_all(format!("{{\"control\":{}}}\n", qra_faults::json::json_str(verb)).as_bytes())
        .map_err(|e| ServeError(format!("sending {verb}: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| ServeError(format!("reading {verb} response: {e}")))?;
    if line.trim().is_empty() {
        return Err(ServeError(format!("empty {verb} response")));
    }
    Ok(line.trim().to_string())
}

/// Requests a status snapshot from a live daemon.
///
/// # Errors
///
/// [`ServeError`] when no daemon answers on `socket`.
pub fn request_status(socket: &Path) -> Result<String, ServeError> {
    control(socket, "status")
}

/// Asks a live daemon to drain and exit; returns its acknowledgement.
///
/// # Errors
///
/// [`ServeError`] when no daemon answers on `socket`.
pub fn request_shutdown(socket: &Path) -> Result<String, ServeError> {
    control(socket, "shutdown")
}
