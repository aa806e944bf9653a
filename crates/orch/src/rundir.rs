//! The crash-safe run directory: the only shared state of a distributed
//! sweep.
//!
//! Layout (all under one directory, created by [`RunDir::init`]):
//!
//! ```text
//! <dir>/manifest.json      what to run (written once, temp+rename)
//! <dir>/claims/u<ID>       unit leases (exclusive create; pid + heartbeat mtime)
//! <dir>/attempts/u<ID>.<N> one marker per failed attempt (content = reason)
//! <dir>/results/w<PID>.jsonl  one append-only record stream per worker
//! <dir>/progress.json      latest progress snapshot (temp+rename)
//! ```
//!
//! Crash safety rests on four properties. The manifest and progress
//! snapshots are written to a temporary name and atomically renamed, so a
//! reader never observes a torn file. Claims are leases created with
//! `O_EXCL` (one winner per unit) carrying the owner's pid and a heartbeat
//! mtime, and persist for the whole run epoch, so a unit is never executed
//! twice concurrently. Each worker appends complete JSONL lines to its
//! **own** results file — named after its pid so a resumed run never
//! appends to a dead worker's stream — and a kill mid-write can only tear
//! the final, unterminated line, which [`RunDir::scan`] ignores. Finally,
//! every record line carries a trailing FNV-1a checksum written at append
//! time; `scan` verifies it and treats a corrupt mid-file record as absent
//! (the unit is re-runnable) rather than silently parsing or failing the
//! whole run.

use crate::lease::{self, Lease};
use crate::OrchError;
use qra_faults::json::{self, json_str, Json};
use qra_faults::{parse_unit_record, CellStatus, SweepUnitPayload, SweepUnitRecord};
use qra_math::fnv1a;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Default number of attempts before a unit is quarantined
/// (`--max-attempts`).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// The attempt reason recorded when a unit's owner died (or was killed)
/// without recording the unit. Used identically by the mid-epoch monitor
/// reclaim and the epoch-boundary stale-claim sweep, so a poison unit's
/// quarantined attempt history is byte-identical regardless of worker
/// count, kill timing, or which mechanism observed each death.
pub const ATTEMPT_REASON_DIED: &str = "worker died before recording the unit";

/// The host label for workers running on the orchestrator's own machine.
/// Local streams keep the legacy unlabelled `w<pid>.jsonl` name.
pub const LOCAL_HOST: &str = "local";

/// Extracts the worker host label from a results-stream file name:
/// `w<pid>.jsonl` is [`LOCAL_HOST`], `w<pid>.<host>.jsonl` is `<host>`.
/// `None` for names no stream writer produces.
pub fn stream_host(file_name: &str) -> Option<&str> {
    let stem = file_name.strip_prefix('w')?.strip_suffix(".jsonl")?;
    match stem.split_once('.') {
        None => {
            stem.parse::<u64>().ok()?;
            Some(LOCAL_HOST)
        }
        Some((pid, host)) => {
            pid.parse::<u64>().ok()?;
            (!host.is_empty()).then_some(host)
        }
    }
}

/// What a run directory executes: the sweep's canonical CLI argv plus the
/// unit-grid coordinates every worker and merger must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Canonical `qra campaign …` argv describing the sweep (file paths
    /// absolute, so workers can start in any directory).
    pub argv: Vec<String>,
    /// Point labels in sweep order.
    pub labels: Vec<String>,
    /// Campaign cells per point (`CampaignReport::total_cells`).
    pub cells_per_point: usize,
    /// Units per point: `cells_per_point`, plus one calibration unit in
    /// auto-margin mode.
    pub units_per_point: usize,
    /// The sweep's margin mode, in its CLI spelling.
    pub margin: String,
    /// Worker count the run was started with (the default for resume).
    pub workers: usize,
    /// Per-unit execution deadline in milliseconds (`--unit-timeout`);
    /// `None` disables stalled-lease detection.
    pub unit_timeout_ms: Option<u64>,
    /// Attempts before a unit is quarantined (`--max-attempts`); 0
    /// disables quarantine.
    pub max_attempts: u32,
    /// Worker host labels (`--hosts`); empty means local-only. Hosts
    /// named `local` (or prefixed `local`) spawn workers directly — the
    /// rest are reached over ssh, assuming the run directory sits on a
    /// shared mount and the `qra` binary path is valid on every host.
    pub hosts: Vec<String>,
}

impl Manifest {
    /// Total units in the run.
    pub fn total_units(&self) -> usize {
        self.labels.len() * self.units_per_point
    }

    /// The global id of unit `(point, cell)`.
    pub fn unit_id(&self, point: usize, cell: usize) -> usize {
        point * self.units_per_point + cell
    }

    /// The `(point, cell)` coordinates of a global unit id.
    pub fn unit_coords(&self, unit: usize) -> (usize, usize) {
        (unit / self.units_per_point, unit % self.units_per_point)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"argv\":[");
        for (i, a) in self.argv.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(a));
        }
        out.push_str("],\"labels\":[");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(l));
        }
        let _ = write!(
            out,
            "],\"cells_per_point\":{},\"units_per_point\":{},\"margin\":{},\"workers\":{},\
             \"unit_timeout_ms\":{},\"max_attempts\":{},\"hosts\":[",
            self.cells_per_point,
            self.units_per_point,
            json_str(&self.margin),
            self.workers,
            self.unit_timeout_ms
                .map_or("null".to_string(), |ms| ms.to_string()),
            self.max_attempts
        );
        for (i, h) in self.hosts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(h));
        }
        out.push_str("]}");
        out
    }

    fn from_json(text: &str) -> Result<Self, OrchError> {
        let root = json::parse(text).map_err(|e| OrchError(format!("manifest: {e}")))?;
        let strings = |key: &str| -> Result<Vec<String>, OrchError> {
            root.require(key)?
                .as_arr()?
                .iter()
                .map(|v| Ok(v.as_str()?.to_string()))
                .collect()
        };
        Ok(Manifest {
            argv: strings("argv")?,
            labels: strings("labels")?,
            cells_per_point: root.require("cells_per_point")?.as_usize()?,
            units_per_point: root.require("units_per_point")?.as_usize()?,
            margin: root.require("margin")?.as_str()?.to_string(),
            workers: root.require("workers")?.as_usize()?,
            // Absent in pre-lease manifests: keep those resumable.
            unit_timeout_ms: match root.get("unit_timeout_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64()?),
            },
            max_attempts: match root.get("max_attempts") {
                None => DEFAULT_MAX_ATTEMPTS,
                Some(v) => u32::try_from(v.as_u64()?)
                    .map_err(|_| OrchError("manifest: max_attempts out of range".into()))?,
            },
            // Absent in pre-multi-host manifests: those runs are local.
            hosts: match root.get("hosts") {
                None => Vec::new(),
                Some(v) => v
                    .as_arr()?
                    .iter()
                    .map(|h| Ok(h.as_str()?.to_string()))
                    .collect::<Result<_, OrchError>>()?,
            },
        })
    }
}

impl From<json::JsonError> for OrchError {
    fn from(e: json::JsonError) -> Self {
        OrchError(format!("manifest: {}", e.0))
    }
}

/// Everything the results streams currently contain.
#[derive(Debug, Default)]
pub struct ScanState {
    /// Unit ids with a completed record.
    pub completed: BTreeSet<usize>,
    /// Completed units whose campaign contains failed cells.
    pub failed: BTreeSet<usize>,
    /// Unit ids currently claimed but not completed (in-flight, or stale
    /// claims of a killed worker).
    pub in_flight: BTreeSet<usize>,
    /// Completed units whose record is a quarantine annotation (the unit
    /// exhausted its attempts and was recorded as a named skip).
    pub quarantined: BTreeSet<usize>,
    /// All completed records, in scan order.
    pub records: Vec<SweepUnitRecord>,
    /// Unterminated trailing lines skipped (torn by a mid-write kill).
    pub torn_lines: usize,
    /// Corrupt terminated lines, each reported with its file, line number
    /// and checksum details. A corrupt record is treated as absent — its
    /// unit stays re-runnable — never silently parsed and never fatal.
    pub corrupt: Vec<String>,
    /// Completed-unit count per worker host (stream-name attribution);
    /// local-only runs report everything under [`LOCAL_HOST`].
    pub host_done: BTreeMap<String, usize>,
}

/// A handle on an initialized run directory.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> OrchError {
    OrchError(format!("{context} {}: {e}", path.display()))
}

/// Writes `content` to `path` atomically: temp file in the same directory,
/// flush, rename.
fn write_atomic(path: &Path, content: &str) -> Result<(), OrchError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
    f.write_all(content.as_bytes())
        .map_err(|e| io_err("writing", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("renaming into", path, e))
}

impl RunDir {
    /// Initializes a fresh run directory and writes its manifest.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] when the directory already holds a manifest
    /// (refusing to clobber a run) or on I/O failure.
    pub fn init(root: impl Into<PathBuf>, manifest: &Manifest) -> Result<Self, OrchError> {
        let root = root.into();
        let dir = Self { root };
        if dir.manifest_path().exists() {
            return Err(OrchError(format!(
                "{} already contains a run (manifest.json exists); \
                 use `sweep resume` or a fresh directory",
                dir.root.display()
            )));
        }
        fs::create_dir_all(dir.claims_dir())
            .map_err(|e| io_err("creating", &dir.claims_dir(), e))?;
        fs::create_dir_all(dir.results_dir())
            .map_err(|e| io_err("creating", &dir.results_dir(), e))?;
        fs::create_dir_all(dir.attempts_dir())
            .map_err(|e| io_err("creating", &dir.attempts_dir(), e))?;
        write_atomic(&dir.manifest_path(), &manifest.to_json())?;
        Ok(dir)
    }

    /// Opens an existing run directory and reloads its manifest.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] when no manifest is present or it is
    /// malformed.
    pub fn open(root: impl Into<PathBuf>) -> Result<(Self, Manifest), OrchError> {
        let dir = Self { root: root.into() };
        let text = fs::read_to_string(dir.manifest_path())
            .map_err(|e| io_err("reading", &dir.manifest_path(), e))?;
        let manifest = Manifest::from_json(&text)?;
        Ok((dir, manifest))
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    fn claims_dir(&self) -> PathBuf {
        self.root.join("claims")
    }

    fn results_dir(&self) -> PathBuf {
        self.root.join("results")
    }

    fn attempts_dir(&self) -> PathBuf {
        self.root.join("attempts")
    }

    /// The progress snapshot path.
    pub fn progress_path(&self) -> PathBuf {
        self.root.join("progress.json")
    }

    fn claim_path(&self, unit: usize) -> PathBuf {
        self.claims_dir().join(format!("u{unit}"))
    }

    fn attempt_path(&self, unit: usize, n: usize) -> PathBuf {
        self.attempts_dir().join(format!("u{unit}.{n}"))
    }

    /// Tries to claim `unit` for execution, acquiring its lease (pid +
    /// heartbeat mtime). Exactly one caller per run epoch wins (an
    /// exclusive create); the lease persists until the monitor reclaims
    /// the unit or the claims are cleared by the next resume.
    pub fn claim(&self, unit: usize) -> bool {
        lease::acquire(&self.claim_path(unit))
    }

    /// Reads `unit`'s lease; `None` when the unit is unclaimed.
    pub fn lease(&self, unit: usize) -> Option<Lease> {
        lease::read(&self.claim_path(unit))
    }

    /// Marks `unit`'s lease failed: the owner observed the unit fail and
    /// already recorded the attempt, so reclaim must not count another.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure (including a missing lease).
    pub fn mark_claim_failed(&self, unit: usize) -> Result<(), OrchError> {
        lease::mark_failed(&self.claim_path(unit))
    }

    /// Releases `unit`'s lease so another worker can reclaim it. Only the
    /// monitor (after killing/observing the owner's death) and the
    /// stale-claim sweep may call this.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn release_claim(&self, unit: usize) -> Result<(), OrchError> {
        let path = self.claim_path(unit);
        fs::remove_file(&path).map_err(|e| io_err("releasing", &path, e))
    }

    /// How many failed attempts `unit` has accumulated.
    pub fn attempt_count(&self, unit: usize) -> usize {
        let mut n = 0;
        while self.attempt_path(unit, n + 1).exists() {
            n += 1;
        }
        n
    }

    /// Records one failed attempt for `unit` with its reason, returning
    /// the attempt's 1-based number. Markers are `O_EXCL`-created so two
    /// racing recorders never overwrite each other's reason.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn record_attempt(&self, unit: usize, reason: &str) -> Result<usize, OrchError> {
        // Pre-lease run dirs have no attempts/; create it lazily.
        fs::create_dir_all(self.attempts_dir())
            .map_err(|e| io_err("creating", &self.attempts_dir(), e))?;
        let mut n = self.attempt_count(unit) + 1;
        loop {
            let path = self.attempt_path(unit, n);
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    f.write_all(reason.as_bytes())
                        .map_err(|e| io_err("writing", &path, e))?;
                    f.sync_all().map_err(|e| io_err("syncing", &path, e))?;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => return Err(io_err("creating", &path, e)),
            }
        }
    }

    /// The recorded attempt reasons for `unit`, in attempt order.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn attempt_reasons(&self, unit: usize) -> Result<Vec<String>, OrchError> {
        (1..=self.attempt_count(unit))
            .map(|n| {
                let path = self.attempt_path(unit, n);
                fs::read_to_string(&path).map_err(|e| io_err("reading", &path, e))
            })
            .collect()
    }

    /// Removes leases of units without a completed record (a killed
    /// worker's leftovers), recording one attempt per *abandoned* lease —
    /// one whose owner did not mark it failed (a failed lease's attempt
    /// was already recorded by its owner). Must only be called while no
    /// workers are running — `sweep resume` and the epoch retry loop do
    /// this before respawning.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure while listing or removing.
    pub fn clear_stale_claims(&self, completed: &BTreeSet<usize>) -> Result<usize, OrchError> {
        let mut cleared = 0;
        let dir = self.claims_dir();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("listing", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing", &dir, e))?;
            let Some(unit) = claim_unit_id(&entry.file_name()) else {
                continue;
            };
            if !completed.contains(&unit) {
                if self.lease(unit).is_some_and(|l| !l.failed) {
                    self.record_attempt(unit, ATTEMPT_REASON_DIED)?;
                }
                fs::remove_file(entry.path()).map_err(|e| io_err("removing", &entry.path(), e))?;
                cleared += 1;
            }
        }
        Ok(cleared)
    }

    /// Opens this process's own append-only results stream
    /// (`results/w<pid>.jsonl`). Pid-unique naming means a resumed run
    /// never appends to a dead worker's file, so the only possible tear is
    /// this process's own final line.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn open_results_stream(&self) -> Result<ResultsStream, OrchError> {
        self.open_results_stream_for(LOCAL_HOST)
    }

    /// Opens this process's results stream labelled with a worker host
    /// (`results/w<pid>.<host>.jsonl`); the label feeds per-host progress
    /// attribution. [`LOCAL_HOST`] keeps the legacy `w<pid>.jsonl` name,
    /// so local-only runs are byte-compatible with older run dirs. Pids
    /// from different hosts may collide, but the host label keeps the
    /// file names distinct.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn open_results_stream_for(&self, host: &str) -> Result<ResultsStream, OrchError> {
        let name = if host == LOCAL_HOST {
            format!("w{}.jsonl", std::process::id())
        } else {
            format!("w{}.{host}.jsonl", std::process::id())
        };
        let path = self.results_dir().join(name);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("opening", &path, e))?;
        Ok(ResultsStream { file, path })
    }

    /// Reads every results stream and the claims directory.
    ///
    /// Unterminated trailing lines (torn by a kill mid-write) are skipped
    /// and counted. A *terminated* line whose checksum does not verify, or
    /// that fails to parse, is corruption: it is reported in
    /// [`ScanState::corrupt`] (file, line, both checksums) and treated as
    /// absent, so the unit stays re-runnable. Duplicate *valid* records
    /// for one unit remain fatal — they mean two epochs raced.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure or a duplicate valid record.
    pub fn scan(&self, manifest: &Manifest) -> Result<ScanState, OrchError> {
        let mut state = ScanState::default();
        let dir = self.results_dir();
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
            .map_err(|e| io_err("listing", &dir, e))?
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| io_err("listing", &dir, e))?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        paths.sort();
        for path in paths {
            let host = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(stream_host)
                .unwrap_or(LOCAL_HOST)
                .to_string();
            let text = fs::read_to_string(&path).map_err(|e| io_err("reading", &path, e))?;
            let mut rest = text.as_str();
            let mut line_no = 0usize;
            while let Some(nl) = rest.find('\n') {
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                line_no += 1;
                if line.trim().is_empty() {
                    continue;
                }
                let body = match strip_checksum(line) {
                    Ok(body) => body,
                    Err(msg) => {
                        state
                            .corrupt
                            .push(format!("{} line {line_no}: {msg}", path.display()));
                        continue;
                    }
                };
                let record = match parse_unit_record(&body) {
                    Ok(record) => record,
                    Err(e) => {
                        state.corrupt.push(format!(
                            "{} line {line_no}: unparseable record: {e}",
                            path.display()
                        ));
                        continue;
                    }
                };
                let unit = manifest.unit_id(record.point, record.cell);
                // A unit recorded twice (two epochs racing) would also fail
                // assembly; catch it at scan time with the file named.
                if !state.completed.insert(unit) {
                    return Err(OrchError(format!(
                        "{}: duplicate record for unit ({}, {})",
                        path.display(),
                        record.point,
                        record.cell
                    )));
                }
                if record.quarantined.is_some() {
                    state.quarantined.insert(unit);
                }
                if unit_failed(&record) {
                    state.failed.insert(unit);
                }
                *state.host_done.entry(host.clone()).or_insert(0) += 1;
                state.records.push(record);
            }
            if !rest.is_empty() {
                state.torn_lines += 1;
            }
        }

        let claims = self.claims_dir();
        for entry in fs::read_dir(&claims).map_err(|e| io_err("listing", &claims, e))? {
            let entry = entry.map_err(|e| io_err("listing", &claims, e))?;
            if let Some(unit) = claim_unit_id(&entry.file_name()) {
                if !state.completed.contains(&unit) {
                    state.in_flight.insert(unit);
                }
            }
        }
        Ok(state)
    }

    /// Atomically replaces `progress.json` with `content`.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn write_progress(&self, content: &str) -> Result<(), OrchError> {
        write_atomic(&self.progress_path(), content)
    }
}

fn claim_unit_id(name: &std::ffi::OsStr) -> Option<usize> {
    name.to_str()?.strip_prefix('u')?.parse().ok()
}

fn unit_failed(record: &SweepUnitRecord) -> bool {
    match &record.payload {
        SweepUnitPayload::Cell(parsed) => {
            let r = &parsed.report;
            r.baselines
                .iter()
                .map(|b| &b.status)
                .chain(r.cells.iter().map(|c| &c.status))
                .any(|s| matches!(s, CellStatus::Failed { .. }))
        }
        SweepUnitPayload::Margins(_) => false,
    }
}

/// Wraps a record JSON object with its trailing checksum field: the
/// FNV-1a of the *original* record is spliced in as
/// `,"fnv":"<16 hex digits>"` before the closing brace. [`RunDir::scan`]
/// strips and verifies it.
pub fn checksummed_line(record_json: &str) -> String {
    let Some(body) = record_json.strip_suffix('}') else {
        return record_json.to_string();
    };
    format!(
        "{body},\"fnv\":\"{:016x}\"}}",
        fnv1a(record_json.as_bytes())
    )
}

/// Strips and verifies a line's trailing checksum, returning the original
/// record JSON. Lines without a checksum field (pre-checksum streams,
/// hand-written test records) pass through unverified. The error is the
/// human-readable corruption report (checksum mismatch with both values,
/// or a malformed checksum field).
fn strip_checksum(line: &str) -> Result<String, String> {
    const KEY: &str = ",\"fnv\":\"";
    let Some(pos) = line.rfind(KEY) else {
        return Ok(line.to_string());
    };
    let tail = &line[pos + KEY.len()..];
    let hex = tail
        .strip_suffix("\"}")
        .filter(|h| h.len() == 16)
        .ok_or_else(|| "malformed checksum field".to_string())?;
    let recorded =
        u64::from_str_radix(hex, 16).map_err(|_| "malformed checksum field".to_string())?;
    let mut body = String::with_capacity(pos + 1);
    body.push_str(&line[..pos]);
    body.push('}');
    let computed = fnv1a(body.as_bytes());
    if computed != recorded {
        return Err(format!(
            "checksum mismatch (recorded {recorded:016x}, computed {computed:016x})"
        ));
    }
    Ok(body)
}

/// A worker's own append-only record stream.
#[derive(Debug)]
pub struct ResultsStream {
    file: File,
    path: PathBuf,
}

impl ResultsStream {
    /// Appends one record — framed with its trailing FNV-1a checksum — as
    /// a single complete line (one `write_all` of `line + "\n"`, so a kill
    /// tears at most the final line) and flushes it to disk before the
    /// unit counts as done.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn append(&mut self, record_json: &str) -> Result<(), OrchError> {
        let mut line = checksummed_line(record_json);
        line.push('\n');
        self.write_bytes(line.as_bytes())
    }

    /// Appends pre-rendered bytes verbatim — no checksum framing, no
    /// trailing newline. The chaos layer uses this to inject torn and
    /// corrupt lines; production code never should.
    pub fn append_raw(&mut self, bytes: &[u8]) -> Result<(), OrchError> {
        self.write_bytes(bytes)
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), OrchError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("appending to", &self.path, e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err("syncing", &self.path, e))
    }
}

/// Renders a progress snapshot as JSON (the `progress.json` format).
pub fn progress_json(
    manifest: &Manifest,
    state: &ScanState,
    point_elapsed: &[Option<f64>],
) -> String {
    let mut out = format!(
        "{{\"total\":{},\"done\":{},\"failed\":{},\"in_flight\":{},\"quarantined\":{},\"points\":[",
        manifest.total_units(),
        state.completed.len(),
        state.failed.len(),
        state.in_flight.len(),
        state.quarantined.len()
    );
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
            "{{\"label\":{},\"done\":{done},\"total\":{},\"elapsed_s\":{}}}",
            json_str(label),
            manifest.units_per_point,
            point_elapsed
                .get(p)
                .copied()
                .flatten()
                .map_or("null".to_string(), json::json_f64)
        );
    }
    // Per-host attribution: which worker host completed how many units
    // (BTreeMap order keeps the rendering deterministic).
    out.push_str("],\"hosts\":[");
    for (i, (host, done)) in state.host_done.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"host\":{},\"done\":{done}}}", json_str(host));
    }
    out.push_str("]}");
    out
}

/// Reloads the counters of a `progress.json` snapshot:
/// `(done, total, failed, in_flight)`.
///
/// # Errors
///
/// Returns [`OrchError`] on malformed JSON.
pub fn parse_progress(text: &str) -> Result<(usize, usize, usize, usize), OrchError> {
    let root = json::parse(text).map_err(|e| OrchError(format!("progress.json: {e}")))?;
    Ok((
        root.require("done")?.as_usize()?,
        root.require("total")?.as_usize()?,
        root.require("failed")?.as_usize()?,
        root.require("in_flight")?.as_usize()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qra-orch-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> Manifest {
        Manifest {
            argv: vec!["campaign".into(), "--ghz".into(), "2".into()],
            labels: vec!["ideal".into(), "low".into()],
            cells_per_point: 4,
            units_per_point: 5,
            margin: "auto:3:2".into(),
            workers: 2,
            unit_timeout_ms: Some(1500),
            max_attempts: 3,
            hosts: vec![],
        }
    }

    #[test]
    fn manifest_round_trips_and_maps_units() {
        let m = manifest();
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
        assert_eq!(m.total_units(), 10);
        assert_eq!(m.unit_id(1, 3), 8);
        assert_eq!(m.unit_coords(8), (1, 3));
        // No timeout serializes as null and round-trips.
        let m = Manifest {
            unit_timeout_ms: None,
            ..manifest()
        };
        assert!(m.to_json().contains("\"unit_timeout_ms\":null"));
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
        // Pre-lease manifests (no timeout/attempt/host fields) still load.
        let legacy = "{\"argv\":[],\"labels\":[\"a\"],\"cells_per_point\":1,\
                      \"units_per_point\":1,\"margin\":\"0.02\",\"workers\":1}";
        let m = Manifest::from_json(legacy).unwrap();
        assert_eq!(m.unit_timeout_ms, None);
        assert_eq!(m.max_attempts, DEFAULT_MAX_ATTEMPTS);
        assert!(m.hosts.is_empty(), "pre-multi-host manifests are local");
        // A host list round-trips.
        let m = Manifest {
            hosts: vec!["localA".into(), "node7".into()],
            ..manifest()
        };
        assert!(m.to_json().contains("\"hosts\":[\"localA\",\"node7\"]"));
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn stream_host_parses_worker_stream_names() {
        assert_eq!(stream_host("w123.jsonl"), Some(LOCAL_HOST));
        assert_eq!(stream_host("w123.hostA.jsonl"), Some("hostA"));
        assert_eq!(stream_host("w9.local.jsonl"), Some("local"));
        assert_eq!(stream_host("w123.jsonl.tmp"), None);
        assert_eq!(stream_host("wabc.jsonl"), None, "pid must be numeric");
        assert_eq!(stream_host("wabc.hostA.jsonl"), None);
        assert_eq!(stream_host("w123..jsonl"), None, "empty host label");
        assert_eq!(stream_host("progress.json"), None);
        assert_eq!(stream_host("u12"), None);
    }

    #[test]
    fn init_refuses_to_clobber_and_open_reloads() {
        let root = tmpdir("init");
        let m = manifest();
        let _dir = RunDir::init(&root, &m).unwrap();
        assert!(RunDir::init(&root, &m).is_err(), "second init must refuse");
        let (_, reloaded) = RunDir::open(&root).unwrap();
        assert_eq!(reloaded, m);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn claims_are_exclusive_and_stale_ones_clear() {
        let root = tmpdir("claims");
        let dir = RunDir::init(&root, &manifest()).unwrap();
        assert!(dir.claim(3));
        assert!(!dir.claim(3), "second claim of the same unit must lose");
        assert!(dir.claim(7));
        let lease = dir.lease(7).unwrap();
        assert_eq!(lease.pid, std::process::id());
        // Unit 3 completed, 7 did not: only 7's claim is stale, and its
        // abandoned lease costs the unit one attempt.
        let completed = BTreeSet::from([3]);
        assert_eq!(dir.clear_stale_claims(&completed).unwrap(), 1);
        assert!(!dir.claim(3), "completed unit keeps its claim");
        assert!(dir.claim(7), "stale claim was cleared");
        assert_eq!(dir.attempt_count(7), 1);
        assert_eq!(dir.attempt_reasons(7).unwrap(), vec![ATTEMPT_REASON_DIED]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_leases_clear_without_an_extra_attempt() {
        let root = tmpdir("failed-lease");
        let dir = RunDir::init(&root, &manifest()).unwrap();
        assert!(dir.claim(2));
        // The worker observed the failure and recorded the attempt itself.
        dir.record_attempt(2, "backend exploded").unwrap();
        dir.mark_claim_failed(2).unwrap();
        assert_eq!(dir.clear_stale_claims(&BTreeSet::new()).unwrap(), 1);
        assert_eq!(dir.attempt_count(2), 1, "no double-counted attempt");
        assert_eq!(dir.attempt_reasons(2).unwrap(), vec!["backend exploded"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn attempts_accumulate_in_order() {
        let root = tmpdir("attempts");
        let dir = RunDir::init(&root, &manifest()).unwrap();
        assert_eq!(dir.attempt_count(4), 0);
        assert_eq!(dir.record_attempt(4, "first").unwrap(), 1);
        assert_eq!(dir.record_attempt(4, "second").unwrap(), 2);
        assert_eq!(dir.attempt_count(4), 2);
        assert_eq!(dir.attempt_reasons(4).unwrap(), vec!["first", "second"]);
        assert_eq!(dir.attempt_count(5), 0, "attempts are per-unit");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checksummed_lines_round_trip_and_catch_tampering() {
        let record = "{\"point\":1,\"cell\":4,\"margins\":[]}";
        let line = checksummed_line(record);
        assert!(line.contains(",\"fnv\":\""), "{line}");
        assert_eq!(strip_checksum(&line).unwrap(), record);
        // Flip one byte of the body: the mismatch names both checksums.
        let tampered = line.replacen("\"cell\":4", "\"cell\":5", 1);
        let e = strip_checksum(&tampered).unwrap_err();
        assert!(e.contains("checksum mismatch (recorded"), "{e}");
        assert!(e.contains("computed"), "{e}");
        // A line without a checksum passes through unverified.
        assert_eq!(strip_checksum(record).unwrap(), record);
        // A mangled checksum field is corruption, not a legacy line.
        let mangled = line.replace(",\"fnv\":\"", ",\"fnv\":\"zz");
        assert!(strip_checksum(&mangled).unwrap_err().contains("malformed"));
    }

    #[test]
    fn scan_skips_torn_trailing_lines_and_flags_claims() {
        let root = tmpdir("scan");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        let margin_record =
            "{\"point\":1,\"cell\":4,\"margins\":[{\"design\":\"ndd\",\"margin\":0.01}]}";
        let mut stream = dir.open_results_stream().unwrap();
        stream.append(margin_record).unwrap();
        // Simulate a kill mid-write: a torn, unterminated final line.
        let torn_path = dir.results_dir().join("w99999.jsonl");
        fs::write(&torn_path, "{\"point\":0,\"cel").unwrap();
        dir.claim(0);
        dir.claim(9);
        let state = dir.scan(&m).unwrap();
        assert_eq!(state.completed, BTreeSet::from([9]));
        assert_eq!(state.torn_lines, 1);
        assert_eq!(state.in_flight, BTreeSet::from([0]));
        assert!(state.failed.is_empty());
        assert!(state.corrupt.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_reports_corrupt_mid_file_records_as_absent() {
        let root = tmpdir("corrupt");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        let record = |unit: usize| {
            let (p, c) = m.unit_coords(unit);
            format!("{{\"point\":{p},\"cell\":{c},\"margins\":[]}}")
        };
        // A valid record, a checksummed-but-tampered record, an
        // unparseable terminated line, then another valid record — the
        // corruption is mid-file, not trailing.
        let corrupt_line = checksummed_line(&record(1)).replacen("\"margins\"", "\"margxns\"", 1);
        let text = format!(
            "{}\n{corrupt_line}\nnot json at all\n{}\n",
            checksummed_line(&record(0)),
            checksummed_line(&record(2))
        );
        fs::write(dir.results_dir().join("w1.jsonl"), text).unwrap();
        let state = dir.scan(&m).unwrap();
        assert_eq!(state.completed, BTreeSet::from([0, 2]));
        assert_eq!(state.corrupt.len(), 2, "{:?}", state.corrupt);
        assert!(
            state.corrupt[0].contains("w1.jsonl line 2"),
            "{:?}",
            state.corrupt
        );
        assert!(
            state.corrupt[0].contains("checksum mismatch (recorded"),
            "{:?}",
            state.corrupt
        );
        assert!(
            state.corrupt[1].contains("w1.jsonl line 3"),
            "{:?}",
            state.corrupt
        );
        assert!(
            state.corrupt[1].contains("unparseable record"),
            "{:?}",
            state.corrupt
        );
        // The corrupt unit is absent, hence re-runnable: a fresh record
        // for it is not a duplicate.
        dir.open_results_stream()
            .unwrap()
            .append(&record(1))
            .unwrap();
        let state = dir.scan(&m).unwrap();
        assert_eq!(state.completed, BTreeSet::from([0, 1, 2]));
        // A duplicate *valid* record stays fatal.
        dir.open_results_stream()
            .unwrap()
            .append(&record(0))
            .unwrap();
        let e = dir.scan(&m).unwrap_err();
        assert!(e.0.contains("duplicate record"), "{e}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_tolerates_truncated_records_mid_stream() {
        let root = tmpdir("truncated");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        // A record truncated *but terminated* (e.g. a filesystem that
        // dropped bytes yet kept the newline) is corrupt, not fatal.
        let full = checksummed_line("{\"point\":0,\"cell\":0,\"margins\":[]}");
        let truncated = &full[..full.len() / 2];
        let text = format!(
            "{truncated}\n{}\n",
            checksummed_line("{\"point\":0,\"cell\":1,\"margins\":[]}")
        );
        fs::write(dir.results_dir().join("w7.jsonl"), text).unwrap();
        let state = dir.scan(&m).unwrap();
        assert_eq!(state.completed, BTreeSet::from([1]));
        assert_eq!(state.corrupt.len(), 1, "{:?}", state.corrupt);
        assert!(state.corrupt[0].contains("line 1"), "{:?}", state.corrupt);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_attributes_completed_units_to_stream_hosts() {
        let root = tmpdir("hosts");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        let record = |unit: usize| {
            let (p, c) = m.unit_coords(unit);
            format!("{{\"point\":{p},\"cell\":{c},\"margins\":[]}}")
        };
        // Two labelled host streams plus one legacy local stream.
        let mut a = dir.open_results_stream_for("hostA").unwrap();
        a.append(&record(0)).unwrap();
        a.append(&record(1)).unwrap();
        dir.open_results_stream_for("hostB")
            .unwrap()
            .append(&record(2))
            .unwrap();
        dir.open_results_stream()
            .unwrap()
            .append(&record(3))
            .unwrap();
        let state = dir.scan(&m).unwrap();
        assert_eq!(state.completed, BTreeSet::from([0, 1, 2, 3]));
        assert_eq!(
            state.host_done,
            BTreeMap::from([
                ("hostA".to_string(), 2),
                ("hostB".to_string(), 1),
                (LOCAL_HOST.to_string(), 1),
            ])
        );
        let json = progress_json(&m, &state, &[None, None]);
        assert!(
            json.contains(
                "\"hosts\":[{\"host\":\"hostA\",\"done\":2},\
                 {\"host\":\"hostB\",\"done\":1},{\"host\":\"local\",\"done\":1}]"
            ),
            "{json}"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn progress_snapshot_round_trips() {
        let m = manifest();
        let mut state = ScanState::default();
        state.completed.extend([0, 1, 5]);
        state.failed.insert(1);
        state.in_flight.insert(2);
        state.quarantined.insert(5);
        let json = progress_json(&m, &state, &[Some(1.5), None]);
        assert!(json.contains("\"label\":\"ideal\",\"done\":2"), "{json}");
        assert!(json.contains("\"quarantined\":1"), "{json}");
        assert!(json.contains("\"elapsed_s\":1.5"), "{json}");
        assert!(json.contains("\"elapsed_s\":null"), "{json}");
        assert_eq!(parse_progress(&json).unwrap(), (3, 10, 1, 1));
    }

    #[test]
    fn parse_progress_rejects_malformed_json() {
        assert!(parse_progress("not json").is_err());
        assert!(parse_progress("").is_err());
        assert!(parse_progress("{\"done\":1}").is_err(), "missing keys");
        assert!(
            parse_progress("{\"done\":\"x\",\"total\":1,\"failed\":0,\"in_flight\":0}").is_err(),
            "ill-typed counter"
        );
        assert!(
            parse_progress("{\"done\":1,\"total\":2,\"failed\":0,").is_err(),
            "truncated"
        );
    }
}
