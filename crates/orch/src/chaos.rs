//! Deterministic fault injection for the orchestrator, driven by the
//! `QRA_CHAOS` environment variable.
//!
//! The chaos layer exists so the hardening paths — lease timeouts, poison
//! quarantine, checksum verification, stale-claim reclaim — are exercised
//! against *real* worker subprocesses, not just unit-test doubles. It is
//! compiled into debug builds only: [`Chaos::from_env`] always returns
//! `None` under `--release`, so production binaries ignore the variable
//! entirely.
//!
//! `QRA_CHAOS` is a comma-separated fault list:
//!
//! | spec          | effect                                                    |
//! |---------------|-----------------------------------------------------------|
//! | `kill=N`      | abort the worker process after it appends N records       |
//! | `hang=P:C`    | hang forever before running unit `(P, C)` — **one-shot**  |
//! | `panic=P:C`   | panic before running unit `(P, C)` — **every attempt**    |
//! | `torn=P:C`    | write a truncated record line for `(P, C)`, then abort    |
//! | `corrupt=P:C` | flip one byte of `(P, C)`'s checksummed line, keep going  |
//! | `race`        | zero every worker's scatter so claims contend in lockstep |
//!
//! One-shot faults coordinate across worker processes through `O_EXCL`
//! marker files under `<run dir>/chaos/`, so exactly one attempt of the
//! targeted unit takes the fault regardless of worker count or respawns
//! — which is what makes the recovered run byte-identical to the
//! sequential one. `panic` deliberately fires on *every* attempt: it is
//! the poison unit that drives quarantine. Seeded choices (torn cut
//! point, corrupted byte index) derive from `QRA_CHAOS_SEED` (default 0)
//! and the unit coordinates via FNV-1a, never from wall-clock or OS
//! randomness.

use crate::rundir::{checksummed_line, ResultsStream, RunDir};
use crate::OrchError;
use qra_math::fnv1a;
use std::cell::Cell;
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::time::Duration;

/// A parsed fault plan. Construct with [`Chaos::from_env`]; worker loops
/// consult it at each injection point.
#[derive(Debug)]
pub struct Chaos {
    marker_dir: PathBuf,
    seed: u64,
    kill_after: Option<usize>,
    appended: Cell<usize>,
    hang: Option<(usize, usize)>,
    panic: Option<(usize, usize)>,
    torn: Option<(usize, usize)>,
    corrupt: Option<(usize, usize)>,
    race: bool,
}

impl Chaos {
    /// Parses the fault plan from `QRA_CHAOS` / `QRA_CHAOS_SEED`. Returns
    /// `Ok(None)` when the variable is unset — and always in release
    /// builds, keeping chaos off every production path.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on an unparseable fault spec (chaos is a test
    /// harness; a typo must fail loudly, not silently run faultless).
    pub fn from_env(dir: &RunDir) -> Result<Option<Chaos>, OrchError> {
        if !cfg!(debug_assertions) {
            return Ok(None);
        }
        let Ok(spec) = std::env::var("QRA_CHAOS") else {
            return Ok(None);
        };
        let seed = match std::env::var("QRA_CHAOS_SEED") {
            Ok(s) => s
                .parse()
                .map_err(|_| OrchError(format!("QRA_CHAOS_SEED: not a u64: '{s}'")))?,
            Err(_) => 0,
        };
        let mut chaos = Chaos {
            marker_dir: dir.root().join("chaos"),
            seed,
            kill_after: None,
            appended: Cell::new(0),
            hang: None,
            panic: None,
            torn: None,
            corrupt: None,
            race: false,
        };
        for entry in spec.split(',').filter(|e| !e.is_empty()) {
            match entry.split_once('=') {
                None if entry == "race" => chaos.race = true,
                Some(("kill", n)) => {
                    chaos.kill_after = Some(n.parse().map_err(|_| {
                        OrchError(format!("QRA_CHAOS: bad kill count in '{entry}'"))
                    })?);
                }
                Some(("hang", coords)) => chaos.hang = Some(parse_coords(entry, coords)?),
                Some(("panic", coords)) => chaos.panic = Some(parse_coords(entry, coords)?),
                Some(("torn", coords)) => chaos.torn = Some(parse_coords(entry, coords)?),
                Some(("corrupt", coords)) => chaos.corrupt = Some(parse_coords(entry, coords)?),
                _ => {
                    return Err(OrchError(format!(
                        "QRA_CHAOS: unknown fault '{entry}' \
                         (expected kill=N, hang=P:C, panic=P:C, torn=P:C, corrupt=P:C, race)"
                    )))
                }
            }
        }
        std::fs::create_dir_all(&chaos.marker_dir)
            .map_err(|e| OrchError(format!("creating {}: {e}", chaos.marker_dir.display())))?;
        Ok(Some(chaos))
    }

    /// The scatter override: `race` forces every worker to walk the unit
    /// grid from 0 so their claims contend in lockstep.
    pub fn scatter_override(&self) -> Option<usize> {
        self.race.then_some(0)
    }

    /// Fires pre-execution faults for unit `(point, cell)`: a one-shot
    /// hang (parks forever; recovered by the monitor's unit timeout) or an
    /// every-attempt panic (the poison unit that drives quarantine).
    pub fn before_unit(&self, point: usize, cell: usize) {
        if self.hang == Some((point, cell)) && self.one_shot(&format!("hang-{point}-{cell}")) {
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        if self.panic == Some((point, cell)) {
            panic!("chaos: injected panic at unit ({point}, {cell})");
        }
    }

    /// Appends `record` through the chaos write faults. Returns whether
    /// the unit actually committed: `torn` writes a truncated line and
    /// aborts the process (one-shot), `corrupt` writes the full line with
    /// one seeded byte flipped and lets the worker continue (one-shot,
    /// returns `false` — the record will scan as corrupt, so the unit is
    /// not done), and `kill=N` aborts after the N-th clean append.
    ///
    /// # Errors
    ///
    /// Returns [`OrchError`] on I/O failure.
    pub fn append(
        &self,
        stream: &mut ResultsStream,
        point: usize,
        cell: usize,
        record: &str,
    ) -> Result<bool, OrchError> {
        if self.torn == Some((point, cell)) && self.one_shot(&format!("torn-{point}-{cell}")) {
            let line = checksummed_line(record);
            let cut = 1 + (self.mix(point, cell) as usize) % (line.len() - 1);
            stream.append_raw(&line.as_bytes()[..cut])?;
            std::process::abort();
        }
        if self.corrupt == Some((point, cell)) && self.one_shot(&format!("corrupt-{point}-{cell}"))
        {
            let mut bytes = checksummed_line(record).into_bytes();
            // Flip a byte of the record body (never the leading brace or
            // the checksum splice), guaranteeing a verification mismatch.
            let idx = 1 + (self.mix(point, cell) as usize) % (record.len() - 2);
            bytes[idx] ^= 0x01;
            bytes.push(b'\n');
            stream.append_raw(&bytes)?;
            return Ok(false);
        }
        stream.append(record)?;
        if let Some(n) = self.kill_after {
            let appended = self.appended.get() + 1;
            self.appended.set(appended);
            if appended >= n {
                std::process::abort();
            }
        }
        Ok(true)
    }

    /// Wins a one-shot fault exactly once across all workers and respawns
    /// (an `O_EXCL` marker under the run dir's `chaos/`).
    fn one_shot(&self, name: &str) -> bool {
        OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.marker_dir.join(name))
            .is_ok()
    }

    /// Deterministic per-unit randomness: FNV-1a over seed ∥ point ∥ cell.
    fn mix(&self, point: usize, cell: usize) -> u64 {
        let mut buf = [0u8; 24];
        buf[..8].copy_from_slice(&self.seed.to_le_bytes());
        buf[8..16].copy_from_slice(&(point as u64).to_le_bytes());
        buf[16..].copy_from_slice(&(cell as u64).to_le_bytes());
        fnv1a(&buf)
    }
}

fn parse_coords(entry: &str, coords: &str) -> Result<(usize, usize), OrchError> {
    let bad = || {
        OrchError(format!(
            "QRA_CHAOS: bad unit coordinates in '{entry}' (want P:C)"
        ))
    };
    let (p, c) = coords.split_once(':').ok_or_else(bad)?;
    Ok((p.parse().map_err(|_| bad())?, c.parse().map_err(|_| bad())?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rundir::Manifest;

    fn tmp_rundir(tag: &str) -> (std::path::PathBuf, RunDir) {
        let root =
            std::env::temp_dir().join(format!("qra-orch-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let m = Manifest {
            argv: vec![],
            labels: vec!["a".into()],
            cells_per_point: 2,
            units_per_point: 2,
            margin: "0.02".into(),
            workers: 1,
            unit_timeout_ms: None,
            max_attempts: 3,
            hosts: vec![],
        };
        let dir = RunDir::init(&root, &m).unwrap();
        (root, dir)
    }

    // Env-var parsing is process-global, so these tests build plans
    // directly instead of racing over set_var across threads.
    fn plan(dir: &RunDir) -> Chaos {
        Chaos {
            marker_dir: dir.root().join("chaos"),
            seed: 7,
            kill_after: None,
            appended: Cell::new(0),
            hang: None,
            panic: None,
            torn: None,
            corrupt: None,
            race: false,
        }
    }

    #[test]
    fn one_shot_markers_fire_exactly_once() {
        let (root, dir) = tmp_rundir("oneshot");
        std::fs::create_dir_all(dir.root().join("chaos")).unwrap();
        let chaos = plan(&dir);
        assert!(chaos.one_shot("hang-0-1"));
        assert!(!chaos.one_shot("hang-0-1"), "second firing must lose");
        assert!(chaos.one_shot("hang-0-0"), "markers are per-name");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_append_flips_one_body_byte_deterministically() {
        let (root, dir) = tmp_rundir("corrupt");
        std::fs::create_dir_all(dir.root().join("chaos")).unwrap();
        let chaos = Chaos {
            corrupt: Some((0, 0)),
            ..plan(&dir)
        };
        let record = "{\"point\":0,\"cell\":0,\"margins\":[]}";
        let mut stream = dir.open_results_stream().unwrap();
        assert!(!chaos.append(&mut stream, 0, 0, record).unwrap());
        // One-shot: the retry of the same unit appends cleanly, so the
        // corrupt line reads as absent and the valid one completes it.
        assert!(chaos.append(&mut stream, 0, 0, record).unwrap());
        let (_, m) = RunDir::open(dir.root()).unwrap();
        let state = dir.scan(&m).unwrap();
        assert_eq!(state.corrupt.len(), 1, "{:?}", state.corrupt);
        assert!(
            state.corrupt[0].contains("checksum mismatch"),
            "{:?}",
            state.corrupt
        );
        assert!(state.completed.contains(&0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seeded_mix_is_stable_per_unit() {
        let (root, dir) = tmp_rundir("mix");
        let chaos = plan(&dir);
        assert_eq!(chaos.mix(1, 2), chaos.mix(1, 2));
        assert_ne!(chaos.mix(1, 2), chaos.mix(2, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn parse_coords_accepts_pairs_and_rejects_garbage() {
        assert_eq!(parse_coords("hang=1:2", "1:2").unwrap(), (1, 2));
        assert!(parse_coords("hang=1", "1").is_err());
        assert!(parse_coords("hang=x:y", "x:y").is_err());
    }
}
