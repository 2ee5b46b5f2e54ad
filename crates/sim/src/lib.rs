//! # flexvc-sim — cycle-accurate phit-level network simulator
//!
//! The evaluation substrate of this FlexVC reproduction: a from-scratch
//! equivalent of the FOGSim simulator used by the paper (Fuentes et al.,
//! IPDPS 2017, §IV). It models:
//!
//! * combined input-output-buffered routers with per-VC input banks
//!   (statically partitioned or DAMQ with private reservations), 32-phit
//!   output buffers, an iterative input-first separable allocator with
//!   round-robin arbiters, a 5-cycle pipeline and 2× crossbar speedup;
//! * credit-based virtual cut-through flow control with phit-accurate link
//!   serialization (10-cycle local, 100-cycle global latencies) and
//!   credit-return delays;
//! * every VC-management policy of the paper — the baseline distance-based
//!   scheme, FlexVC (safe + opportunistic hops with reversion), and
//!   FlexVC-minCred (split min/non-min credit accounting);
//! * routing: MIN, Valiant-node, PAR (in-transit divert) and Piggyback
//!   source-adaptive routing with per-port / per-VC congestion sensing;
//! * traffic: UN / ADV+1 / BURSTY-UN patterns, optionally request–reply
//!   reactive;
//! * separate request/reply consumption channels, injection queues with
//!   source-drop accounting, a forward-progress watchdog that *detects*
//!   deadlock (used to reproduce Fig. 10's DAMQ deadlock).
//!
//! Entry points: a [`SimConfig`] runs through the engine driver,
//! [`ShardedNetwork`] (`cfg.shards` workers stepping cache-sized blocks of
//! the single-threaded [`Network`] engine, bit-identical for every count),
//! into a [`SimResult`]; [`runner`] runs batches of such points on worker
//! threads ([`run_one`], [`run_points`], [`run_averaged`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bank;
pub mod cdg;
pub mod config;
pub mod engine;
pub mod equivalence;
pub mod error;
mod fabric;
pub mod link;
pub mod metrics;
pub mod packet;
pub mod plan;
pub mod runner;
pub mod sensing;
pub mod serde_impls;
pub mod shard;
mod wheel;

pub use bank::MAX_VCS;
pub use config::{
    paper_routing_for, BufferConfig, BufferOrg, BufferSizing, ClassVcMap, QosConfig, SensingConfig,
    SensingMode, SimConfig, TopologySpec,
};
pub use engine::Network;
pub use error::{ConfigError, RunError};
pub use metrics::{Metrics, SimResult};
pub use runner::{run_averaged, run_one, run_points, Point, PointProgress};
pub use shard::{BoundaryCounts, ShardStats, ShardedNetwork};

/// Common imports for examples and experiment binaries.
pub mod prelude {
    pub use crate::config::{
        paper_routing_for, BufferConfig, BufferOrg, BufferSizing, ClassVcMap, QosConfig,
        SensingConfig, SensingMode, SimConfig, TopologySpec,
    };
    pub use crate::engine::Network;
    pub use crate::error::{ConfigError, RunError};
    pub use crate::metrics::SimResult;
    pub use crate::runner::{run_averaged, run_one, run_points, Point, PointProgress};
    pub use crate::shard::{ShardStats, ShardedNetwork};
}
