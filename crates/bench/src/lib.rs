//! # flexvc-bench — scenario-first experiment harness
//!
//! Every figure and table of the paper is expressed as *data*: a
//! [`scenario::Scenario`] bundles named `(SimConfig, load, seed)` points
//! plus analytic classification tables, serializes to TOML/JSON through
//! `flexvc_serde`, and runs on the parallel scenario executor with
//! streaming progress. The [`scenario::CATALOGUE`] holds its 25 built-in
//! scenarios:
//!
//! * the paper reproductions: `tables` (Tables I–IV), `fig5` … `fig11`
//!   and `ablations`;
//! * the HyperX family `hyperx-{un,adv}-{2d,3d}` and `hyperx-k2`, and the
//!   Dragonfly+ family `dfplus-{un,adv}` (after arXiv 2306.13042);
//! * the paper-scale `dragonfly-paper`, `hyperx-paper` and `dfplus-paper`,
//!   sized for `--shards`;
//! * the flow workloads `flows-{un,permutation,incast}` (FCT and
//!   slowdown) and the multi-class `qos-{dragonfly,hyperx}`;
//! * `smoke`, a tiny sanity run.
//!
//! The single `flexvc` CLI binary fronts them:
//!
//! ```text
//! flexvc list                         # what can run
//! flexvc show fig9 > fig9.toml        # scenario as editable data
//! flexvc run fig9 --out results.json  # run + structured results
//! flexvc run --file custom.toml       # no Rust needed for new scenarios
//! ```
//!
//! ## Scale control
//!
//! The paper simulates an `h = 8` Dragonfly (2,064 routers) for 5×60k
//! cycles per point — far beyond a laptop budget. The harness defaults to
//! a scaled `h = 2` network with shorter windows that preserves every
//! mechanism and the comparative shape of all results (see `DESIGN.md` §6):
//! [`Scale::default`] is `h = 2`, seeds 1–2, 8,000 warm-up and 15,000
//! measured cycles, [`Scale::paper`] the full Table V scale, and the
//! `flexvc` CLI's scale flags (`--paper`, `--h`, `--seeds`, `--warmup`,
//! `--measure`) are the one way to move between them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;

use flexvc_core::RoutingMode;
use flexvc_sim::SimConfig;
use flexvc_traffic::Workload;

/// Experiment scale: network size, seeds and simulation windows.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Dragonfly `h` (balanced: `p = h`, `a = 2h`, `g = 2h² + 1`).
    pub h: usize,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement window.
    pub measure: u64,
}

/// The laptop scale: `h = 2`, seeds 1–2, 8,000 / 15,000 cycles.
impl Default for Scale {
    fn default() -> Self {
        Scale {
            h: 2,
            seeds: vec![1, 2],
            warmup: 8_000,
            measure: 15_000,
        }
    }
}

impl Scale {
    /// The paper's full Table V scale (h = 8, 5 seeds, 60k-cycle windows).
    pub fn paper() -> Self {
        Scale {
            h: 8,
            seeds: (1..=5).collect(),
            warmup: 20_000,
            measure: 60_000,
        }
    }

    /// Baseline config for a routing mode/workload at this scale.
    pub fn config(&self, routing: RoutingMode, workload: Workload) -> SimConfig {
        self.windowed(SimConfig::dragonfly_baseline(self.h, routing, workload))
    }

    /// `cfg` on this scale's windows, with the watchdog at half their sum.
    pub(crate) fn windowed(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.warmup = self.warmup;
        cfg.measure = self.measure;
        cfg.watchdog = (self.warmup + self.measure) / 2;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_traffic::Pattern;

    #[test]
    fn scale_default() {
        let scale = Scale {
            h: 2,
            seeds: vec![1],
            warmup: 100,
            measure: 200,
        };
        let cfg = scale.config(RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
        assert_eq!(cfg.warmup, 100);
        cfg.validate().unwrap();
    }

    #[test]
    fn paper_scale_matches_table_v() {
        let paper = Scale::paper();
        assert_eq!(paper.h, 8);
        assert_eq!(paper.seeds.len(), 5);
        assert_eq!(paper.measure, 60_000);
    }
}
