//! # sccf-bench
//!
//! The reproduction harness: shared experiment plumbing for the `repro`
//! binary (every table and figure of the paper, plus the `BENCH_*.json`
//! serving artifacts) and the crash-chaos driver. The experiment index
//! is [`experiments::EXPERIMENTS`]; README "Quickstart" shows how to
//! run it, README "Benchmark artifacts" what each artifact records, and
//! `docs/ARCHITECTURE.md` the system under measurement.

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod workload;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport, ChaosWorld, Lcg};
pub use harness::{HarnessConfig, ModelSuite, PreparedData};
pub use workload::{FlashSale, TickTrace, WorkloadConfig, WorkloadGen};
