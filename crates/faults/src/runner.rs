//! Resilient campaign execution: mutant × design matrix with panic
//! isolation, deadlines, bounded retries and backend degradation.
//!
//! A campaign runs every mutant against every requested checking scheme and
//! never lets one bad cell abort the rest: panics are caught and reported
//! as failed (carrying the panic message), simulator failures stay
//! structured in the report, a wall-clock deadline turns unfinished cells
//! into explicit skips, and sampler pathologies get a bounded number of
//! seeded retries.
//!
//! The matrix is embarrassingly parallel, so the runner flattens the
//! baseline row plus the mutant × design grid into one indexed cell list
//! and executes it on a pool of scoped worker threads pulling from a
//! shared atomic cursor ([`CampaignConfig::jobs`]). Every cell's seed is
//! derived from `(config.seed, cell index)` alone and results are
//! reassembled in index order, so serial and parallel runs of the same
//! campaign render byte-identical reports.

use crate::inject::Mutant;
use crate::report::{BaselineCell, CampaignCell, CampaignReport, CellStatus};
use qra_circuit::{Circuit, GateCounts};
use qra_core::baselines::statistical_assertion;
use qra_core::{
    synthesize_assertion, validate_qubits, Assertion, AssertionError, Design, StateSpec,
};
use qra_sim::threads::resolve_threads;
use qra_sim::{
    CompiledProgram, Counts, DensityMatrixSimulator, NoiseModel, ProgramCache, SimError,
    StabilizerSimulator, StatevectorSimulator, TrajectorySimulator,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// A checking scheme evaluated by the campaign: one of the paper's three
/// assertion designs, or the statistical baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignDesign {
    /// SWAP-based assertion (§IV).
    Swap,
    /// Logical-OR assertion (§IV-E).
    LogicalOr,
    /// NDD phase-kickback assertion (§V).
    Ndd,
    /// Statistical baseline: measure and compare distributions (§II).
    Stat,
}

impl CampaignDesign {
    /// Every scheme, in matrix-column order.
    pub const ALL: [CampaignDesign; 4] = [
        CampaignDesign::Swap,
        CampaignDesign::LogicalOr,
        CampaignDesign::Ndd,
        CampaignDesign::Stat,
    ];

    /// Short name used in reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignDesign::Swap => "swap",
            CampaignDesign::LogicalOr => "logical-or",
            CampaignDesign::Ndd => "ndd",
            CampaignDesign::Stat => "stat",
        }
    }

    /// The core [`Design`] this scheme maps to (`None` for the baseline).
    pub fn as_design(&self) -> Option<Design> {
        match self {
            CampaignDesign::Swap => Some(Design::Swap),
            CampaignDesign::LogicalOr => Some(Design::LogicalOr),
            CampaignDesign::Ndd => Some(Design::Ndd),
            CampaignDesign::Stat => None,
        }
    }
}

impl CampaignDesign {
    /// Looks a scheme up by its report name (the inverse of
    /// [`CampaignDesign::name`]), used when reloading serialized reports.
    pub fn from_name(name: &str) -> Option<Self> {
        CampaignDesign::ALL.into_iter().find(|d| d.name() == name)
    }
}

impl fmt::Display for CampaignDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Which simulator backend actually produced a cell's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact state-vector simulation (noiseless).
    Statevector,
    /// Exact density-matrix simulation (noisy, 4ⁿ memory).
    DensityMatrix,
    /// Monte-Carlo trajectory simulation (noisy fallback).
    Trajectory,
    /// Gottesman–Knill stabilizer-tableau simulation (noiseless, exact
    /// Clifford circuits only).
    Stabilizer,
}

impl BackendKind {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Statevector => "statevector",
            BackendKind::DensityMatrix => "density-matrix",
            BackendKind::Trajectory => "trajectory",
            BackendKind::Stabilizer => "stabilizer",
        }
    }

    /// Looks a backend up by its report name (the inverse of
    /// [`BackendKind::name`]), used when reloading serialized reports.
    pub fn from_name(name: &str) -> Option<Self> {
        [
            BackendKind::Statevector,
            BackendKind::DensityMatrix,
            BackendKind::Trajectory,
            BackendKind::Stabilizer,
        ]
        .into_iter()
        .find(|b| b.name() == name)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The user-facing backend selection policy for a campaign
/// (`--backend default|auto|stabilizer`). [`BackendKind`] records what a
/// cell actually ran on; `BackendChoice` is what the user asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The historical routing: statevector when noiseless, else
    /// density-matrix within budget, else trajectory.
    #[default]
    Default,
    /// Per-cell auto-engage: noiseless all-Clifford cells run on the
    /// stabilizer tableau, everything else (including cells whose mutant
    /// injected a non-Clifford fault) falls back to the default routing.
    Auto,
    /// Force the stabilizer backend; non-Clifford circuits or noisy
    /// configurations are hard errors instead of silent fallbacks.
    Stabilizer,
}

impl BackendChoice {
    /// Short name used by the CLI flag.
    pub fn name(&self) -> &'static str {
        match self {
            BackendChoice::Default => "default",
            BackendChoice::Auto => "auto",
            BackendChoice::Stabilizer => "stabilizer",
        }
    }

    /// Parses a CLI spelling (the inverse of [`BackendChoice::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        [
            BackendChoice::Default,
            BackendChoice::Auto,
            BackendChoice::Stabilizer,
        ]
        .into_iter()
        .find(|b| b.name() == name)
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A contiguous slice of the flattened indexed cell list: shard `index` of
/// `count`, for splitting one campaign across processes or hosts.
///
/// Because every cell's seed derives from `(config.seed, cell index)` alone,
/// a shard computes exactly the cells the unsharded run would at the same
/// indices; shard reports therefore merge back (by index) into a report
/// byte-identical to the unsharded run
/// ([`crate::merge::merge_reports`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, in `0..count`.
    pub index: usize,
    /// Total number of shards the cell list is split into.
    pub count: usize,
}

impl Shard {
    /// Builds a shard after validating `index < count` and `count >= 1`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on an empty split or out-of-range index.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for /{count}"));
        }
        Ok(Self { index, count })
    }

    /// The half-open range `[start, end)` of flattened cell indices this
    /// shard covers out of `total`. The `count` shard ranges partition
    /// `0..total` exactly, each within one cell of `total / count`.
    pub fn bounds(&self, total: usize) -> (usize, usize) {
        (
            self.index * total / self.count,
            (self.index + 1) * total / self.count,
        )
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for Shard {
    type Err = String;

    /// Parses the CLI spelling `i/n` (e.g. `0/3`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard '{s}': expected i/n, e.g. 0/3"))?;
        let index = index
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in '{s}'"))?;
        let count = count
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in '{s}'"))?;
        Shard::new(index, count)
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Shots per cell.
    pub shots: u64,
    /// Base seed; every cell derives its own sub-seed from it, so a
    /// campaign is reproducible run-to-run for a fixed seed.
    pub seed: u64,
    /// Schemes to evaluate (matrix columns).
    pub designs: Vec<CampaignDesign>,
    /// Wall-clock budget; cells not started in time are reported as
    /// skipped, never silently dropped. `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Memory budget for the exact density-matrix backend: it is used only
    /// when `16 · 4ⁿ` bytes fit, otherwise the runner degrades to the
    /// trajectory simulator.
    pub memory_budget_bytes: u64,
    /// Bounded retries (with derived seeds) on sampler pathologies
    /// ([`SimError::InvalidProbability`]).
    pub max_retries: u32,
    /// Noise model; the ideal model routes to the state-vector backend.
    pub noise: NoiseModel,
    /// A cell counts as "detected" when its assertion error rate exceeds
    /// this threshold.
    pub detection_threshold: f64,
    /// Worker threads executing the cell matrix; `0` means available
    /// parallelism. The job count never affects report contents — only
    /// wall-clock time — because cell seeds depend solely on
    /// `(seed, cell index)` and results are reassembled in index order.
    pub jobs: usize,
    /// Amplitude-level threads each simulator backend may use inside one
    /// cell; `0` picks `max(1, cores / jobs)` so the two parallelism
    /// layers multiply to at most the machine's cores. Like `jobs`, this
    /// never affects report contents: threaded kernel sweeps are
    /// bit-for-bit identical to sequential ones at every thread count.
    pub sim_threads: usize,
    /// Run only this contiguous slice of the flattened cell list and emit a
    /// partial report carrying the shard coordinates; `None` runs
    /// everything. Shard reports merge back into the unsharded report
    /// byte-for-byte ([`crate::merge::merge_reports`]).
    pub shard: Option<Shard>,
    /// Backend selection policy; see [`BackendChoice`]. The statistical
    /// design bypasses the executor entirely and always samples on the
    /// statevector backend regardless of this choice.
    pub backend: BackendChoice,
    /// Shared compiled-program cache consulted by [`default_executor`];
    /// `None` compiles per cell as before. Cached and fresh compiles are
    /// bit-identical (lowering is a pure pass), so installing a cache
    /// never changes report contents — [`run_campaign`] installs a
    /// per-campaign cache automatically when this is `None`.
    pub cache: Option<Arc<ProgramCache>>,
}

/// The resolved two-layer worker budget for one campaign run: `jobs`
/// cell-level workers, each allowed `sim_threads` amplitude-level threads
/// inside its simulator. When both knobs are `0` (auto) the product is
/// capped at the machine's core count; explicit values are honored as
/// given. Neither layer ever affects report contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Cell-matrix worker threads.
    pub jobs: usize,
    /// Per-cell amplitude-level simulator threads.
    pub sim_threads: usize,
    /// `true` when the available-parallelism query failed and an auto
    /// (`0`) knob degraded to a single worker. Callers must surface this
    /// to the user instead of silently running serial.
    pub fallback: bool,
}

impl CampaignConfig {
    /// The configured job count with `0` resolved to the machine's
    /// available parallelism (and a floor of one worker).
    pub fn effective_jobs(&self) -> usize {
        self.thread_plan().jobs
    }

    /// Resolves both parallelism knobs into a [`ThreadPlan`]. Explicit
    /// values pass through untouched; `0` knobs resolve against the
    /// machine's core count, with the auto amplitude budget set to
    /// `max(1, cores / jobs)` so the layers multiply to at most the
    /// core count. A failed core-count query degrades auto knobs to one
    /// worker and sets [`ThreadPlan::fallback`].
    pub fn thread_plan(&self) -> ThreadPlan {
        // Only an auto knob needs the core count.
        let (cores, fallback) = if self.jobs == 0 || self.sim_threads == 0 {
            resolve_threads(0)
        } else {
            (1, false)
        };
        let jobs = if self.jobs == 0 { cores } else { self.jobs };
        let sim_threads = if self.sim_threads == 0 {
            (cores / jobs).max(1)
        } else {
            self.sim_threads
        };
        ThreadPlan {
            jobs,
            sim_threads,
            fallback,
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            shots: 2048,
            seed: 1,
            designs: vec![
                CampaignDesign::Swap,
                CampaignDesign::LogicalOr,
                CampaignDesign::Ndd,
            ],
            deadline: None,
            memory_budget_bytes: 256 << 20,
            max_retries: 2,
            noise: NoiseModel::ideal(),
            detection_threshold: 0.05,
            jobs: 0,
            sim_threads: 0,
            shard: None,
            backend: BackendChoice::Default,
            cache: None,
        }
    }
}

/// Signature of the function that actually simulates one asserted circuit.
/// Campaigns normally use [`default_executor`]; tests inject failing or
/// panicking executors to exercise the resilience paths. Executors must be
/// `Sync`: one instance is shared by every worker thread.
pub type Executor<'a> =
    dyn Fn(&Circuit, &CampaignConfig, u64) -> Result<(Counts, BackendKind), SimError> + Sync + 'a;

/// The default backend-degrading executor: state-vector when noiseless;
/// density-matrix when `16 · 4ⁿ` bytes fit the budget (and the backend's
/// own qubit cap); trajectory otherwise. Width failures surface as
/// structured [`SimError::TooManyQubits`] values, not panics.
pub fn default_executor(
    circuit: &Circuit,
    config: &CampaignConfig,
    seed: u64,
) -> Result<(Counts, BackendKind), SimError> {
    let n = circuit.num_qubits() as u32;
    let sim_threads = config.thread_plan().sim_threads;
    match config.backend {
        BackendChoice::Stabilizer => {
            // Forced: noise and non-Clifford gates are hard errors. The
            // tableau ignores `exec::MAX_QUBITS` — its own ceiling is
            // `StabilizerSimulator::MAX_QUBITS`.
            if !config.noise.is_ideal() {
                return Err(SimError::NonCliffordGate {
                    gate: "noise model (stabilizer backend is noiseless)".to_string(),
                });
            }
            let counts = StabilizerSimulator::with_seed(seed).run(circuit, config.shots)?;
            return Ok((counts, BackendKind::Stabilizer));
        }
        BackendChoice::Auto => {
            // Per-cell engage-or-fallback: a mutant that injects a
            // non-Clifford fault (e.g. an angle fault on a rotation) fails
            // `supports` and takes the default routing below.
            if config.noise.is_ideal() && StabilizerSimulator::supports(circuit) {
                let counts = StabilizerSimulator::with_seed(seed).run(circuit, config.shots)?;
                return Ok((counts, BackendKind::Stabilizer));
            }
        }
        BackendChoice::Default => {}
    }
    if config.noise.is_ideal() {
        // Lower once, then execute: every campaign cell re-runs the same
        // mutant circuit for thousands of shots, so the kernel lowering is
        // amortized across the whole cell. With a cache installed, repeat
        // circuits (calibration repeats, retries, streamed requests) skip
        // lowering entirely — bit-identically, since compilation is pure.
        let counts = match &config.cache {
            Some(cache) => {
                let program = cache.compile_statevector(circuit)?;
                StatevectorSimulator::with_seed(seed)
                    .with_threads(sim_threads)
                    .run_compiled(&program, config.shots)?
            }
            None => {
                let program = CompiledProgram::compile(circuit)?;
                StatevectorSimulator::with_seed(seed)
                    .with_threads(sim_threads)
                    .run_compiled(&program, config.shots)?
            }
        };
        return Ok((counts, BackendKind::Statevector));
    }
    let density_bytes = 16u128.checked_shl(2 * n).unwrap_or(u128::MAX);
    if density_bytes <= u128::from(config.memory_budget_bytes) {
        // Lower circuit + noise once per cell, then execute the compiled
        // density program (kernel conjugation pairs over vec(ρ)). Density
        // cache entries key on (circuit, noise) because the noise model is
        // baked in at lowering.
        let sim =
            DensityMatrixSimulator::with_noise(config.noise.clone()).with_threads(sim_threads);
        let compiled = match &config.cache {
            Some(cache) => cache
                .compile_density(circuit, &config.noise, sim_threads)
                .map(Some)
                .or_else(|e| match e {
                    SimError::TooManyQubits { .. } => Ok(None),
                    other => Err(other),
                })?,
            None => match sim.compile(circuit) {
                Ok(program) => Some(Arc::new(program)),
                // Budget fits but the exact backend caps out: degrade.
                Err(SimError::TooManyQubits { .. }) => None,
                Err(e) => return Err(e),
            },
        };
        if let Some(program) = compiled {
            let counts = sim.run_compiled(&program, config.shots, seed)?;
            return Ok((counts, BackendKind::DensityMatrix));
        }
    }
    let counts = TrajectorySimulator::new(config.noise.clone(), seed)
        .with_threads(sim_threads)
        .run(circuit, config.shots)?;
    Ok((counts, BackendKind::Trajectory))
}

/// Runs a fault-injection campaign with the default executor.
///
/// `qubits` are the program qubits the state specification covers (the
/// assertion is inserted there on every mutant and on the unmutated
/// program, whose per-design false-positive rate and gate-cost overhead
/// land in the report's baseline section).
pub fn run_campaign(
    program: &Circuit,
    qubits: &[usize],
    spec: &StateSpec,
    mutants: &[Mutant],
    config: &CampaignConfig,
) -> CampaignReport {
    // Install a per-campaign compiled-program cache when the caller did
    // not supply a shared one, so cells sharing a circuit (retries,
    // no-op mutants, repeated designs) lower it once. Cached execution
    // is bit-identical to fresh compilation, so this never changes
    // report contents.
    let config = match config.cache {
        Some(_) => config.clone(),
        None => CampaignConfig {
            cache: Some(Arc::new(ProgramCache::new())),
            ..config.clone()
        },
    };
    run_campaign_with_executor(program, qubits, spec, mutants, &config, &default_executor)
}

/// The shared wall-clock budget: one `Instant` for every worker plus a
/// latch that stays tripped once any of them observes expiry, so every
/// cell in any execution mode sees the same monotone deadline signal.
struct Deadline<'a> {
    start: Instant,
    budget: Option<Duration>,
    tripped: &'a AtomicBool,
}

impl Deadline<'_> {
    /// `true` once the budget is spent; latches on first observation.
    fn expired(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        match self.budget {
            Some(budget) if self.start.elapsed() >= budget => {
                self.tripped.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// What one cell produced: its status plus the checker's gate cost when
/// the checker was synthesised.
type CellOutcome = (CellStatus, Option<GateCounts>);

/// One entry of the flattened cell list: the baseline row first, then the
/// mutant × design grid row-major. The seed-derivation coordinates are
/// part of the task so they depend only on the cell's matrix position,
/// never on which worker claims it or when.
struct CellTask<'a> {
    circuit: &'a Circuit,
    design: CampaignDesign,
    /// First seed-derivation coordinate: `0` for the baseline row,
    /// `1 + mi` for mutant `mi`'s row.
    row: u64,
    /// Second seed-derivation coordinate: the design index.
    col: u64,
}

/// [`run_campaign`] with an injected executor (tests use this to simulate
/// panicking or failing backends).
pub fn run_campaign_with_executor(
    program: &Circuit,
    qubits: &[usize],
    spec: &StateSpec,
    mutants: &[Mutant],
    config: &CampaignConfig,
    executor: &Executor<'_>,
) -> CampaignReport {
    let start = Instant::now();
    let tripped = AtomicBool::new(false);
    let program_cost = GateCounts::of(program).unwrap_or_default();

    // Flatten baseline row + mutant × design grid into one indexed list.
    let mut tasks: Vec<CellTask<'_>> = Vec::new();
    for (di, &design) in config.designs.iter().enumerate() {
        tasks.push(CellTask {
            circuit: program,
            design,
            row: 0,
            col: di as u64,
        });
    }
    for (mi, mutant) in mutants.iter().enumerate() {
        for (di, &design) in config.designs.iter().enumerate() {
            tasks.push(CellTask {
                circuit: &mutant.circuit,
                design,
                row: 1 + mi as u64,
                col: di as u64,
            });
        }
    }

    // A shard runs only its contiguous slice [lo, hi) of the flattened
    // list; the unsharded run covers everything. Cell seeds depend only on
    // the cell's matrix position, so the shard computes exactly what the
    // unsharded run would at those indices.
    let total = tasks.len();
    let (lo, hi) = match config.shard {
        Some(shard) => shard.bounds(total),
        None => (0, total),
    };

    // One synthesis per design: it depends only on the spec and the
    // design, so every cell of a column shares it. A cell fills its
    // column's slot inside its own `catch_unwind`; a panicking synthesis
    // leaves the slot empty, so each cell of that column panics as before.
    let assertions: Vec<OnceLock<Result<Assertion, AssertionError>>> =
        config.designs.iter().map(|_| OnceLock::new()).collect();

    // Execute on a shared-cursor worker pool. Each slot is written exactly
    // once by whichever worker claims its index, then reassembled in index
    // order below — execution order never leaks into the report.
    let slots: Vec<Mutex<Option<CellOutcome>>> = (lo..hi).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(lo);
    let worker = || {
        let deadline = Deadline {
            start,
            budget: config.deadline,
            tripped: &tripped,
        };
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= hi {
                break;
            }
            let task = &tasks[i];
            let outcome = if deadline.expired() {
                (
                    CellStatus::Skipped {
                        reason: "deadline exceeded".into(),
                    },
                    None,
                )
            } else {
                run_cell(
                    task.circuit,
                    qubits,
                    spec,
                    task.design,
                    &assertions[task.col as usize],
                    config,
                    derive_seed(config.seed, task.row, task.col),
                    executor,
                    &deadline,
                )
            };
            *slots[i - lo].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        }
    };
    let plan = config.thread_plan();
    if plan.fallback {
        // Never degrade to serial silently: the report's bytes must not
        // depend on worker counts, so the warning goes to stderr.
        eprintln!(
            "warning: available-parallelism query failed; campaign degrading to \
             {} worker(s) × {} simulator thread(s) — pass explicit --jobs/--sim-threads \
             to override",
            plan.jobs, plan.sim_threads
        );
    }
    let jobs = plan.jobs.min((hi - lo).max(1));
    if jobs == 1 {
        worker();
    } else {
        thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }

    // Reassemble in index order: baselines first, then the grid. A shard
    // keeps only the rows its slice covers; because the slice is
    // contiguous, so are the retained baseline and cell sub-lists.
    let mut results = slots.into_iter().map(|slot| {
        slot.into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("every claimed cell index produced an outcome")
    });
    let num_designs = config.designs.len();
    let baselines = config
        .designs
        .iter()
        .enumerate()
        .filter(|(di, _)| (lo..hi).contains(di))
        .map(|(_, &design)| {
            let (status, cost) = results.next().expect("one baseline cell per design");
            BaselineCell {
                design,
                status,
                assertion_cost: cost,
                program_cost,
            }
        })
        .collect();
    let mut cells = Vec::new();
    for (mi, mutant) in mutants.iter().enumerate() {
        for (di, &design) in config.designs.iter().enumerate() {
            let flat = num_designs + mi * num_designs + di;
            if !(lo..hi).contains(&flat) {
                continue;
            }
            let (status, _) = results.next().expect("one cell per mutant × design");
            cells.push(CampaignCell {
                mutant_id: mutant.id.clone(),
                kind_label: mutant.kind_label(),
                design,
                status,
            });
        }
    }

    CampaignReport {
        num_qubits: program.num_qubits(),
        shots: config.shots,
        seed: config.seed,
        detection_threshold: config.detection_threshold,
        mutant_count: mutants.len(),
        designs: config.designs.clone(),
        baselines,
        cells,
        elapsed: start.elapsed(),
        deadline_hit: tripped.load(Ordering::Relaxed),
        shard: config.shard,
    }
}

/// One matrix cell, panic-isolated: a mutant (or the unmutated program)
/// checked by one scheme. Returns the status plus the checker's gate cost
/// when it completed. A panic is confined to this cell and reported as a
/// failure carrying the panic message — in the worker pool it poisons
/// neither its worker's remaining cells nor any other worker's.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    circuit: &Circuit,
    qubits: &[usize],
    spec: &StateSpec,
    design: CampaignDesign,
    assertion: &OnceLock<Result<Assertion, AssertionError>>,
    config: &CampaignConfig,
    cell_seed: u64,
    executor: &Executor<'_>,
    deadline: &Deadline<'_>,
) -> (CellStatus, Option<GateCounts>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_cell_inner(
            circuit, qubits, spec, design, assertion, config, cell_seed, executor, deadline,
        )
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            (
                CellStatus::Failed {
                    error: crate::report::CellError::Panic(msg),
                },
                None,
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell_inner(
    circuit: &Circuit,
    qubits: &[usize],
    spec: &StateSpec,
    design: CampaignDesign,
    assertion: &OnceLock<Result<Assertion, AssertionError>>,
    config: &CampaignConfig,
    cell_seed: u64,
    executor: &Executor<'_>,
    deadline: &Deadline<'_>,
) -> (CellStatus, Option<GateCounts>) {
    match design.as_design() {
        Some(core_design) => {
            // `insert_assertion`'s steps, with the synthesis shared by the
            // column: the same error (validation first) or panic per cell.
            let inserted = validate_qubits(circuit, qubits, spec).and_then(|()| {
                let assertion = assertion
                    .get_or_init(|| synthesize_assertion(spec, core_design))
                    .as_ref()
                    .map_err(Clone::clone)?;
                let mut asserted = circuit.clone();
                let handle = assertion.compose_into(&mut asserted, qubits)?;
                Ok((asserted, handle))
            });
            let (asserted, handle) = match inserted {
                Ok(inserted) => inserted,
                Err(e) => return (CellStatus::Failed { error: e.into() }, None),
            };
            let mut retries = 0u32;
            loop {
                let run_seed = derive_seed(cell_seed, 2, u64::from(retries));
                match executor(&asserted, config, run_seed) {
                    Ok((counts, backend)) => {
                        let error_rate = handle.error_rate(&counts);
                        return (
                            CellStatus::Completed {
                                error_rate,
                                detected: error_rate > config.detection_threshold,
                                retries,
                                backend,
                            },
                            Some(handle.counts),
                        );
                    }
                    Err(SimError::InvalidProbability { .. }) if retries < config.max_retries => {
                        // The wall-clock budget binds retries too: a cell
                        // that keeps drawing pathological samples must not
                        // spin past the campaign deadline.
                        if deadline.expired() {
                            return (
                                CellStatus::Skipped {
                                    reason: "deadline exceeded during retries".into(),
                                },
                                None,
                            );
                        }
                        retries += 1;
                    }
                    Err(e) => return (CellStatus::Failed { error: e.into() }, None),
                }
            }
        }
        None => {
            // Statistical baseline: destructive measurement + distribution
            // comparison; its "error rate" is the total-variation distance.
            match statistical_assertion(circuit, qubits, spec, config.shots, cell_seed) {
                Ok(outcome) => {
                    let cost = GateCounts {
                        measure: qubits.len(),
                        ..GateCounts::default()
                    };
                    (
                        CellStatus::Completed {
                            error_rate: outcome.total_variation,
                            detected: outcome.total_variation > config.detection_threshold,
                            retries: 0,
                            backend: BackendKind::Statevector,
                        },
                        Some(cost),
                    )
                }
                Err(e) => (CellStatus::Failed { error: e.into() }, None),
            }
        }
    }
}

/// SplitMix64-style seed derivation, so every cell and retry gets an
/// independent but reproducible stream. Crate-visible: sweeps derive
/// margin-calibration seeds from the same stream family.
pub(crate) fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    let mut z = base
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qra_core::insert_assertion;

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(1, 0, 0);
        let b = derive_seed(1, 0, 1);
        let c = derive_seed(1, 1, 0);
        let d = derive_seed(2, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, derive_seed(1, 0, 0));
    }

    #[test]
    fn design_names_and_mapping() {
        assert_eq!(CampaignDesign::Swap.to_string(), "swap");
        assert_eq!(CampaignDesign::Stat.to_string(), "stat");
        assert_eq!(CampaignDesign::Ndd.as_design(), Some(Design::Ndd));
        assert_eq!(CampaignDesign::Stat.as_design(), None);
        assert_eq!(BackendKind::Trajectory.to_string(), "trajectory");
        for d in CampaignDesign::ALL {
            assert_eq!(CampaignDesign::from_name(d.name()), Some(d));
        }
        assert_eq!(CampaignDesign::from_name("qft"), None);
        assert_eq!(BackendKind::Stabilizer.to_string(), "stabilizer");
        for b in [
            BackendKind::Statevector,
            BackendKind::DensityMatrix,
            BackendKind::Trajectory,
            BackendKind::Stabilizer,
        ] {
            assert_eq!(BackendKind::from_name(b.name()), Some(b));
        }
        assert_eq!(BackendKind::from_name("abacus"), None);
        for b in [
            BackendChoice::Default,
            BackendChoice::Auto,
            BackendChoice::Stabilizer,
        ] {
            assert_eq!(BackendChoice::from_name(b.name()), Some(b));
        }
        assert_eq!(BackendChoice::from_name("statevector"), None);
        assert_eq!(BackendChoice::default(), BackendChoice::Default);
    }

    #[test]
    fn shard_bounds_partition_the_cell_list() {
        for total in [0usize, 1, 7, 16, 100] {
            for count in [1usize, 2, 3, 7, 13] {
                let mut next = 0;
                for index in 0..count {
                    let (lo, hi) = Shard { index, count }.bounds(total);
                    assert_eq!(lo, next, "gap at shard {index}/{count} of {total}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, total, "shards must cover all {total} cells");
            }
        }
    }

    /// A design is synthesised once per campaign, yet each cell still gets
    /// the error `insert_assertion` gives its circuit, validation first.
    #[test]
    fn shared_synthesis_keeps_each_cells_error() {
        let mut program = Circuit::new(2);
        program.h(0).cx(0, 1);
        let mutants = crate::FaultInjector::new(3).enumerate_single(&program);
        let config = CampaignConfig {
            shots: 64,
            designs: vec![CampaignDesign::Swap, CampaignDesign::Ndd],
            ..CampaignConfig::default()
        };
        // Full rank: synthesis fails; qubit 5 is out of range as well.
        let mixed = qra_math::CMatrix::identity(4).scale(qra_math::C64::from(0.25));
        let spec = StateSpec::mixed(mixed).unwrap();
        for qubits in [[0, 1], [0, 5]] {
            let report = run_campaign(&program, &qubits, &spec, &mutants, &config);
            assert_eq!(report.cells.len(), mutants.len() * 2);
            for (cell, (mutant, design)) in report.cells.iter().zip(
                mutants
                    .iter()
                    .flat_map(|m| config.designs.iter().map(move |&d| (m, d))),
            ) {
                let design = design.as_design().unwrap();
                let mut circuit = mutant.circuit.clone();
                let expect = insert_assertion(&mut circuit, &qubits, &spec, design).unwrap_err();
                match &cell.status {
                    CellStatus::Failed { error } => {
                        assert_eq!(error.to_string(), expect.to_string(), "{qubits:?}")
                    }
                    other => panic!("{qubits:?}: expected a failure, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn shard_parsing_and_validation() {
        assert_eq!(
            "0/3".parse::<Shard>().unwrap(),
            Shard { index: 0, count: 3 }
        );
        assert_eq!("2/3".parse::<Shard>().unwrap().to_string(), "2/3");
        assert!("3/3".parse::<Shard>().is_err());
        assert!("0/0".parse::<Shard>().is_err());
        assert!("x/2".parse::<Shard>().is_err());
        assert!("1".parse::<Shard>().is_err());
        assert!(Shard::new(1, 2).is_ok());
        assert!(Shard::new(2, 2).is_err());
    }

    #[test]
    fn default_executor_routes_by_noise_and_budget() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.expand_clbits(2);
        c.measure(0, 0).unwrap();
        c.measure(1, 1).unwrap();

        let ideal = CampaignConfig::default();
        let (_, backend) = default_executor(&c, &ideal, 3).unwrap();
        assert_eq!(backend, BackendKind::Statevector);

        let noisy = CampaignConfig {
            noise: qra_sim::DevicePreset::LowNoise.noise_model(),
            ..CampaignConfig::default()
        };
        let (_, backend) = default_executor(&c, &noisy, 3).unwrap();
        assert_eq!(backend, BackendKind::DensityMatrix);

        // Starve the budget: 2 qubits need 16·16 = 256 bytes.
        let starved = CampaignConfig {
            memory_budget_bytes: 128,
            ..noisy
        };
        let (_, backend) = default_executor(&c, &starved, 3).unwrap();
        assert_eq!(backend, BackendKind::Trajectory);
    }

    #[test]
    fn auto_backend_engages_stabilizer_per_cell() {
        let mut clifford = Circuit::new(2);
        clifford.h(0).cx(0, 1);
        clifford.expand_clbits(2);
        clifford.measure(0, 0).unwrap();
        clifford.measure(1, 1).unwrap();

        let auto = CampaignConfig {
            backend: BackendChoice::Auto,
            ..CampaignConfig::default()
        };
        let (counts, backend) = default_executor(&clifford, &auto, 3).unwrap();
        assert_eq!(backend, BackendKind::Stabilizer);
        // Same cell on the default routing: bit-identical counts.
        let (sv_counts, sv_backend) =
            default_executor(&clifford, &CampaignConfig::default(), 3).unwrap();
        assert_eq!(sv_backend, BackendKind::Statevector);
        assert_eq!(counts, sv_counts);

        // A non-Clifford "mutant" of the same cell falls back per cell.
        let mut faulted = Circuit::new(2);
        faulted.h(0).t(0).cx(0, 1);
        faulted.expand_clbits(2);
        faulted.measure(0, 0).unwrap();
        faulted.measure(1, 1).unwrap();
        let (_, backend) = default_executor(&faulted, &auto, 3).unwrap();
        assert_eq!(backend, BackendKind::Statevector);

        // Noise disables auto-engage entirely.
        let noisy_auto = CampaignConfig {
            backend: BackendChoice::Auto,
            noise: qra_sim::DevicePreset::LowNoise.noise_model(),
            ..CampaignConfig::default()
        };
        let (_, backend) = default_executor(&clifford, &noisy_auto, 3).unwrap();
        assert_eq!(backend, BackendKind::DensityMatrix);
    }

    #[test]
    fn forced_stabilizer_backend_is_strict() {
        let mut t = Circuit::new(1);
        t.h(0).t(0);
        t.measure_all();
        let forced = CampaignConfig {
            backend: BackendChoice::Stabilizer,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            default_executor(&t, &forced, 1),
            Err(SimError::NonCliffordGate { .. })
        ));

        let mut c = Circuit::new(1);
        c.h(0);
        c.measure_all();
        let noisy = CampaignConfig {
            backend: BackendChoice::Stabilizer,
            noise: qra_sim::DevicePreset::LowNoise.noise_model(),
            ..forced
        };
        assert!(matches!(
            default_executor(&c, &noisy, 1),
            Err(SimError::NonCliffordGate { .. })
        ));
    }

    #[test]
    fn stabilizer_cells_bypass_statevector_width_ceiling() {
        // A Clifford cell wider than exec::MAX_QUBITS runs fine on both
        // the forced and the auto backend.
        let n = qra_sim::exec::MAX_QUBITS + 8;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.expand_clbits(2);
        c.measure(0, 0).unwrap();
        c.measure(n - 1, 1).unwrap();
        for choice in [BackendChoice::Stabilizer, BackendChoice::Auto] {
            let config = CampaignConfig {
                backend: choice,
                ..CampaignConfig::default()
            };
            let (counts, backend) = default_executor(&c, &config, 5).unwrap();
            assert_eq!(backend, BackendKind::Stabilizer);
            assert_eq!(counts.total(), config.shots);
        }
        // The default routing still refuses it.
        assert!(matches!(
            default_executor(&c, &CampaignConfig::default(), 5),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn default_executor_structured_error_past_trajectory_cap() {
        // Past the unified state-vector/trajectory ceiling.
        let c = Circuit::new(qra_sim::exec::MAX_QUBITS + 1);
        let config = CampaignConfig {
            noise: qra_sim::DevicePreset::LowNoise.noise_model(),
            memory_budget_bytes: 1, // force the trajectory backend
            ..CampaignConfig::default()
        };
        match default_executor(&c, &config, 1) {
            Err(SimError::TooManyQubits { num_qubits, max }) => {
                assert_eq!(num_qubits, qra_sim::exec::MAX_QUBITS + 1);
                assert_eq!(max, qra_sim::exec::MAX_QUBITS);
            }
            other => panic!("expected TooManyQubits, got {other:?}"),
        }
    }

    #[test]
    fn thread_plan_resolves_and_caps_the_product() {
        // Explicit knobs pass through untouched.
        let explicit = CampaignConfig {
            jobs: 3,
            sim_threads: 2,
            ..CampaignConfig::default()
        };
        let plan = explicit.thread_plan();
        assert_eq!((plan.jobs, plan.sim_threads), (3, 2));
        assert!(!plan.fallback);

        // Auto amplitude budget divides the cores among explicit jobs,
        // flooring at one thread: jobs × sim_threads ≤ max(cores, jobs).
        let auto = CampaignConfig {
            jobs: 2,
            sim_threads: 0,
            ..CampaignConfig::default()
        };
        let plan = auto.thread_plan();
        let (cores, _) = resolve_threads(0);
        assert_eq!(plan.jobs, 2);
        assert_eq!(plan.sim_threads, (cores / 2).max(1));

        // Full auto saturates jobs and keeps simulators sequential.
        let full_auto = CampaignConfig::default();
        let plan = full_auto.thread_plan();
        assert_eq!(plan.jobs, cores);
        assert_eq!(plan.sim_threads, 1);
        assert_eq!(full_auto.effective_jobs(), plan.jobs);
    }
}
