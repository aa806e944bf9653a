//! `qra` — precise and approximate quantum state runtime assertions.
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`math`] — complex linear algebra (vectors, matrices, Gram–Schmidt,
//!   Hermitian eigendecomposition);
//! * [`circuit`] — circuit IR, gate synthesis, cost accounting, OpenQASM
//!   export;
//! * [`sim`] — state-vector and density-matrix simulators with noise
//!   models;
//! * [`core`] — the paper's contribution: SWAP-based, logical-OR and NDD
//!   assertion synthesis for pure states, mixed states and state sets,
//!   plus the Stat/Primitive/Proq baselines;
//! * [`algorithms`] — the case-study workloads (GHZ, QFT, QPE,
//!   Deutsch–Jozsa, QFT adders, teleportation) with bug injections;
//! * [`faults`] — systematic fault-injection campaigns: a seeded mutation
//!   engine plus a resilient campaign runner and report, noise-aware
//!   sweeps with floor-derived detection thresholds, and mergeable
//!   campaign shards;
//! * [`orch`] — the distributed sweep orchestrator: crash-safe run
//!   directories, claim-based worker scheduling, and kill+resume with
//!   byte-identical reassembly;
//! * [`serve`] — the streaming assertion service: a Unix-socket daemon
//!   with a bounded job queue, a compiled-program cache, online
//!   latency percentiles, and graceful SIGTERM drain.
//!
//! # Quickstart
//!
//! ```rust
//! use qra::prelude::*;
//!
//! // Build a Bell-pair program, assert its state at runtime, run it.
//! let mut program = Circuit::new(2);
//! program.h(0).cx(0, 1);
//! let s = 0.5f64.sqrt();
//! let bell = CVector::from_real(&[s, 0.0, 0.0, s]);
//! let handle = insert_assertion(&mut program, &[0, 1],
//!                               &StateSpec::pure(bell)?, Design::Auto)?;
//! let counts = StatevectorSimulator::with_seed(1).run(&program, 8192)?;
//! assert_eq!(handle.error_rate(&counts), 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub use qra_algorithms as algorithms;
pub use qra_circuit as circuit;
pub use qra_core as core;
pub use qra_faults as faults;
pub use qra_math as math;
pub use qra_orch as orch;
pub use qra_serve as serve;
pub use qra_sim as sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use qra_circuit::{Circuit, Gate, GateCounts};
    pub use qra_core::{
        insert_assertion, insert_deallocation_assertion, synthesize_assertion, Assertion,
        AssertionError, AssertionHandle, AssertionReport, Design, StateSpec,
    };
    pub use qra_faults::{
        assemble_sweep, merge_reports, merge_reports_named, merge_sweep_partials_named,
        parse_report, parse_sweep_partial, run_campaign, run_sweep, BackendChoice, BackendKind,
        CampaignConfig, CampaignDesign, CampaignReport, CellError, CellStatus, FaultInjector,
        FaultKind, MarginMode, Mutant, Shard, SweepConfig, SweepPartial, SweepPoint, SweepReport,
        SweepUnitPayload, SweepUnitRecord,
    };
    pub use qra_math::{CMatrix, CVector, C64};
    pub use qra_orch::{Manifest, RunDir};
    pub use qra_sim::{
        CompiledProgram, Counts, DensityMatrixSimulator, DevicePreset, NoiseModel,
        StabilizerSimulator, StatevectorSimulator,
    };
}
