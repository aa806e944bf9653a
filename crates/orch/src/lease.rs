//! Unit leases: claim files that carry the owning worker's pid and use
//! their mtime as a heartbeat.
//!
//! A lease is created exclusively (exactly one owner per unit per epoch),
//! with the owner's pid as its first line from the moment it exists. The
//! file's mtime — stamped when the owner claims the unit — is the unit's
//! heartbeat: the monitor treats a non-failed lease older than the
//! manifest's unit timeout as a stalled unit, kills its owner, and
//! reclaims the unit. A worker that *observes* a unit failure (the runner
//! returned an error, rather than the process dying mid-unit) appends a
//! `failed` marker line, so the monitor and the stale-claim sweep can tell
//! a recorded failure (attempt already counted by the worker) from an
//! abandoned lease (attempt counted at reclaim).

use crate::OrchError;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A parsed lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Pid of the worker that claimed the unit (0 when the lease carries
    /// no pid — e.g. a crash between create and write).
    pub pid: u32,
    /// Whether the owner marked the unit failed after recording an
    /// attempt for it.
    pub failed: bool,
    /// Heartbeat age: time since the lease was last touched.
    pub age: Duration,
}

/// Atomically acquires the lease at `path` for the current process.
/// Returns `false` when another owner already holds it.
///
/// The lease appears with its pid already in it: the pid is written to a
/// private dot-file beside the lease, which is then hard-linked into
/// place (the link fails when the lease exists, so exactly one claimer
/// wins). A lease created empty and filled afterwards reads as pid 0 in
/// between, which the monitor takes for an abandoned claim and reclaims
/// while its owner still runs the unit, so the unit is recorded twice.
pub fn acquire(path: &Path) -> bool {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("lease");
    let private = path.with_file_name(format!(
        ".{name}.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let linked = File::create(&private)
        .and_then(write_pid)
        .and_then(|()| std::fs::hard_link(&private, path));
    let _ = std::fs::remove_file(&private);
    match linked {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::AlreadyExists => false,
        // No hard links on this filesystem: create the lease in place.
        // An empty lease still excludes other claimers; the window in
        // which it reads as pid 0 is the one the link closes.
        Err(_) => match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(f) => {
                let _ = write_pid(f);
                true
            }
            Err(_) => false,
        },
    }
}

/// Writes this process's pid as the first line of `f` and syncs it.
fn write_pid(mut f: File) -> std::io::Result<()> {
    writeln!(f, "{}", std::process::id())?;
    f.sync_all()
}

/// Reads the lease at `path`; `None` when it does not exist or cannot be
/// read (e.g. it was just released by the monitor).
pub fn read(path: &Path) -> Option<Lease> {
    let meta = std::fs::metadata(path).ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    let pid = text
        .lines()
        .next()
        .and_then(|l| l.trim().parse().ok())
        .unwrap_or(0);
    let failed = text.lines().any(|l| l.trim() == "failed");
    let age = meta
        .modified()
        .ok()
        .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
        .unwrap_or_default();
    Some(Lease { pid, failed, age })
}

/// Appends the `failed` marker to the lease at `path`, recording that the
/// owner observed the unit fail (as opposed to dying while running it).
///
/// # Errors
///
/// Returns [`OrchError`] on I/O failure (including a missing lease).
pub fn mark_failed(path: &Path) -> Result<(), OrchError> {
    let mut f = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| OrchError(format!("opening lease {}: {e}", path.display())))?;
    writeln!(f, "failed")
        .map_err(|e| OrchError(format!("marking lease {}: {e}", path.display())))?;
    f.sync_all()
        .map_err(|e| OrchError(format!("syncing lease {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("qra-orch-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn lease_acquires_exclusively_and_carries_pid() {
        let path = tmpfile("acquire");
        assert!(acquire(&path));
        assert!(!acquire(&path), "second acquire must lose");
        let lease = read(&path).unwrap();
        assert_eq!(lease.pid, std::process::id());
        assert!(!lease.failed);
        assert!(lease.age < Duration::from_secs(60));
        let _ = std::fs::remove_file(&path);
        assert!(read(&path).is_none(), "released lease reads as None");
    }

    #[test]
    fn failed_marker_round_trips_and_needs_a_lease() {
        let path = tmpfile("failed");
        assert!(acquire(&path));
        mark_failed(&path).unwrap();
        let lease = read(&path).unwrap();
        assert_eq!(lease.pid, std::process::id());
        assert!(lease.failed);
        let _ = std::fs::remove_file(&path);
        assert!(mark_failed(&path).is_err(), "no lease to mark");
    }

    /// A monitor reading a lease while its owner acquires it must see no
    /// lease or the owner's pid, never a pid-less lease: that reads as an
    /// abandoned claim, and reclaiming it runs the unit twice.
    #[test]
    fn concurrent_reader_never_sees_a_pidless_lease() {
        let path = tmpfile("race");
        let done = std::sync::atomic::AtomicBool::new(false);
        let pidless = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut pidless = 0;
                while !done.load(Ordering::Relaxed) {
                    pidless += usize::from(read(&path).is_some_and(|l| l.pid == 0));
                }
                pidless
            });
            for _ in 0..2000 {
                assert!(acquire(&path));
                let _ = std::fs::remove_file(&path);
            }
            done.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        assert_eq!(pidless, 0, "reads of a pid-less lease");
    }

    #[test]
    fn empty_lease_reads_as_abandoned_pid_zero() {
        let path = tmpfile("empty");
        std::fs::write(&path, "").unwrap();
        let lease = read(&path).unwrap();
        assert_eq!(lease.pid, 0);
        assert!(!lease.failed);
        let _ = std::fs::remove_file(&path);
    }
}
