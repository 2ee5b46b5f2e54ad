//! The repo benchmark behind `BENCHMARK.json`: seven named workloads,
//! host-time and simulated end-to-end metrics, per-layer probes and a
//! traced run. See `README.md` for the tables and the estimator.
//!
//! [`run`] drives a workload through the simulator's facade only; the
//! `flexvc-probes` binary times the layers' own public functions, so a
//! refactor of simulator internals can break the probes without
//! invalidating the end-to-end numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defs;
pub mod host;
pub mod layers;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
