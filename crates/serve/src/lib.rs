//! Streaming assertion service for the `qra` workspace.
//!
//! One-shot `qra` invocations pay process startup and full circuit
//! lowering per request; the paper's workload — repeated assertion
//! evaluation over a fixed circuit set — amortizes both behind a
//! long-lived daemon:
//!
//! * [`Server`] listens on a Unix socket for line-delimited JSON job
//!   requests ([`protocol`]), feeds them through a bounded job queue (one
//!   mutex and condition variable) to a pool of worker threads, and
//!   answers each with the job's exact one-shot output (byte-identical
//!   to running the same argv directly, by construction: the CLI injects
//!   its own dispatcher as the [`JobExecutor`]). Nothing polls: the
//!   accept loop blocks in `accept` and idle workers wait on the queue.
//! * A shared [`qra_sim::ProgramCache`] lets repeat circuits skip
//!   lowering; cached and fresh compiles are bit-identical, so cache
//!   hits never change results.
//! * [`ServeMetrics`] tracks processed/dropped counters and online
//!   p50/p95/p99 latency, surfaced through `{"control":"status"}`.
//! * SIGTERM (or `{"control":"shutdown"}`) triggers a graceful drain
//!   that finishes every accepted job before exit.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod metrics;
pub mod protocol;
pub mod server;

pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use protocol::{JobResponse, Request};
pub use server::{
    request_shutdown, request_status, submit_jobs, JobExecutor, ServeError, ServeSummary, Server,
    ServerConfig,
};
