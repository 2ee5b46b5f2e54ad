//! # flexvc — facade crate
//!
//! Reproduction of *FlexVC: Flexible Virtual Channel Management in
//! Low-Diameter Networks* (Fuentes et al., IPDPS 2017) as a Rust workspace.
//!
//! This crate re-exports the workspace's public APIs:
//!
//! * [`mod@core`] — the FlexVC VC-management model (arrangements, safe and
//!   opportunistic hop rules, path classification, selection functions).
//! * [`mod@topology`] — Dragonfly, `n`-dimensional HyperX (whose 2-D
//!   instance is the flattened butterfly) and Dragonfly+ (Megafly)
//!   topologies with minimal/Valiant route computation.
//! * [`mod@traffic`] — uniform, adversarial and bursty traffic generators
//!   plus the request–reply reactive wrapper.
//! * [`mod@sim`] — the cycle-accurate phit-level network simulator, its
//!   [`SimConfig`](sim::SimConfig) (a Table V baseline constructor, plain
//!   field assignment, then [`validate`](sim::SimConfig::validate) for
//!   typed errors), and the non-panicking experiment runner.
//! * [`mod@bench`] — the scenario-first experiment harness: every paper
//!   figure/table as serializable data
//!   ([`bench::scenario::Scenario`]), the static
//!   [`bench::scenario::CATALOGUE`] of built-in scenarios, and the
//!   `flexvc` CLI binary that fronts them (`flexvc list|show|run`).
//! * [`mod@serde`] — the self-contained serialization layer (JSON/TOML
//!   value model) that moves whole experiments through data files.
//!
//! See `src/README.md` for the user guide (quickstart, topology matrix,
//! scenario authoring), the `examples/` directory for runnable entry
//! points, and `DESIGN.md` for the architecture and the experiment index.

pub use flexvc_bench as bench;
pub use flexvc_core as core;
pub use flexvc_serde as serde;
pub use flexvc_sim as sim;
pub use flexvc_topology as topology;
pub use flexvc_traffic as traffic;

/// The user guide's `rust` example compiles and runs as a doctest.
#[cfg(doctest)]
#[doc = include_str!("README.md")]
struct ReadmeDoctest;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use flexvc_bench::scenario::{
        run_scenario, PointSpec, Scenario, ScenarioReport, CATALOGUE,
    };
    pub use flexvc_bench::Scale;
    pub use flexvc_core::{
        Arrangement, HopKind, LinkClass, MessageClass, RoutingMode, Support, VcPolicy, VcSelection,
    };
    pub use flexvc_serde::{from_json, from_toml, to_json, to_json_pretty, to_toml};
    pub use flexvc_sim::prelude::*;
    pub use flexvc_topology::{Dragonfly, DragonflyPlus, HyperX, Topology};
}
