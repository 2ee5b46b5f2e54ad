//! # flexvc-bench — scenario-first experiment harness
//!
//! Every figure and table of the paper is expressed as *data*: a
//! [`scenario::Scenario`] bundles named `(SimConfig, load, seed)` points
//! plus analytic classification tables, serializes to TOML/JSON through
//! `flexvc_serde`, and runs on the parallel scenario executor with
//! streaming progress. The [`scenario::ScenarioRegistry`] holds the nine
//! paper reproductions (`fig5` … `fig11`, `tables`, `ablations`), the
//! `hyperx-{un,adv}-{2d,3d}` + `hyperx-k2` HyperX family, the
//! `dfplus-{un,adv}` Dragonfly+ family, and a tiny `smoke` scenario;
//! the single `flexvc` CLI binary fronts them:
//!
//! ```text
//! flexvc list                         # what can run
//! flexvc show fig9 > fig9.toml        # scenario as editable data
//! flexvc run fig9 --out results.json  # run + structured results
//! flexvc run --file custom.toml       # no Rust needed for new scenarios
//! ```
//!
//! This crate also keeps the series builders shared by the scenario
//! definitions ([`oblivious_series`], [`reactive_series`],
//! [`adaptive_series`]) and the [`Scale`] control.
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

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_sim::prelude::*;
use flexvc_traffic::{Pattern, Workload};

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

/// A named experiment series (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (as in the paper).
    pub label: String,
    /// Configuration.
    pub cfg: SimConfig,
}

impl Series {
    /// Build a series.
    pub fn new(label: impl Into<String>, cfg: SimConfig) -> Self {
        Series {
            label: label.into(),
            cfg,
        }
    }
}

/// The oblivious-routing series of Figs. 5/6/11 for one traffic pattern:
/// Baseline, DAMQ 75%, FlexVC at the minimum VC set, FlexVC 4/2 and 8/4.
/// ADV uses VAL (2/1 cannot host it), UN/BURSTY use MIN.
pub fn oblivious_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let routing = paper_routing_for(pattern);
    let wl = Workload::oblivious(pattern);
    let base = scale.config(routing, wl);
    let mut out = vec![
        Series::new("Baseline", base.clone()),
        Series::new("DAMQ 75%", base.clone().with_damq75()),
    ];
    if routing == RoutingMode::Min {
        out.push(Series::new(
            "FlexVC 2/1VCs",
            base.clone().with_flexvc(Arrangement::dragonfly_min()),
        ));
    }
    out.push(Series::new(
        "FlexVC 4/2VCs",
        base.clone().with_flexvc(Arrangement::dragonfly(4, 2)),
    ));
    out.push(Series::new(
        "FlexVC 8/4VCs",
        base.with_flexvc(Arrangement::dragonfly(8, 4)),
    ));
    out
}

/// Request–reply series of Fig. 7 for one traffic pattern.
pub fn reactive_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let routing = paper_routing_for(pattern);
    let wl = Workload::reactive(pattern);
    let base = scale.config(routing, wl);
    let flex = |req: (usize, usize), rep: (usize, usize)| -> SimConfig {
        base.clone()
            .with_flexvc(Arrangement::dragonfly_rr(req, rep))
    };
    if routing == RoutingMode::Min {
        vec![
            Series::new("Baseline", base.clone()),
            Series::new("DAMQ", base.clone().with_damq75()),
            Series::new("FlexVC 4/2VCs(2/1+2/1)", flex((2, 1), (2, 1))),
            Series::new("FlexVC 5/3VCs(2/1+3/2)", flex((2, 1), (3, 2))),
            Series::new("FlexVC 5/3VCs(3/2+2/1)", flex((3, 2), (2, 1))),
            Series::new("FlexVC 6/4VCs(2/1+4/3)", flex((2, 1), (4, 3))),
            Series::new("FlexVC 6/4VCs(3/2+3/2)", flex((3, 2), (3, 2))),
            Series::new("FlexVC 6/4VCs(4/3+2/1)", flex((4, 3), (2, 1))),
        ]
    } else {
        vec![
            Series::new("Baseline", base.clone()),
            Series::new("DAMQ", base.clone().with_damq75()),
            Series::new("FlexVC 8/4VCs(4/2+4/2)", flex((4, 2), (4, 2))),
            Series::new("FlexVC 10/6VCs(5/3+5/3)", flex((5, 3), (5, 3))),
            Series::new("FlexVC 10/6VCs(6/4+4/2)", flex((6, 4), (4, 2))),
        ]
    }
}

/// Shape of the registry's HyperX scenarios for a dimension count:
/// `(s, p)` — routers per dimension and terminals per router. Chosen so
/// both networks stay laptop-quick (2-D: 16 routers / 32 nodes,
/// 3-D: 27 routers / 54 nodes) while exercising genuinely different
/// diameters and reference sequences.
pub fn hyperx_shape(n_dims: usize) -> (usize, usize) {
    match n_dims {
        2 => (4, 2),
        _ => (3, 2),
    }
}

/// HyperX series for one `(dimension count, pattern)` cell: baseline
/// distance-based policy, FlexVC at the *same* VC budget (pure policy
/// benefit), FlexVC with two extra VCs, and — for non-minimal routings —
/// the cheap opportunistic configuration (`d + 1` VCs, below the safe
/// minimum of `2d`) plus the adaptive cross-section at the safe budget:
/// MIN (the misroute-free floor), UGAL-L/G (source-adaptive MIN-vs-VAL)
/// and DAL (per-dimension in-transit misrouting), all under FlexVC so the
/// routing mechanism is the only variable.
pub fn hyperx_series(scale: &Scale, n_dims: usize, pattern: Pattern) -> Vec<Series> {
    let routing = paper_routing_for(pattern);
    let (s, p) = hyperx_shape(n_dims);
    let wl = Workload::oblivious(pattern);
    let base = scale.windowed(SimConfig::hyperx_baseline(n_dims, s, p, routing, wl));
    let min_vcs = routing.min_hyperx_vcs(n_dims);
    let flex = |vcs: usize| base.clone().with_flexvc(Arrangement::generic(vcs));
    let mut out = vec![Series::new("Baseline", base.clone())];
    if routing.is_nonminimal() {
        out.push(Series::new(
            format!("FlexVC {}VCs (opport.)", n_dims + 1),
            flex(n_dims + 1),
        ));
    }
    out.push(Series::new(format!("FlexVC {min_vcs}VCs"), flex(min_vcs)));
    out.push(Series::new(
        format!("FlexVC {}VCs", min_vcs + 2),
        flex(min_vcs + 2),
    ));
    if routing.is_nonminimal() {
        // The adaptive cross-section at the safe VC budget: every series
        // shares the arrangement, only the routing mechanism differs.
        let with_routing = |mode: RoutingMode| {
            let mut cfg = flex(min_vcs);
            cfg.routing = mode;
            cfg
        };
        out.push(Series::new(
            format!("MIN {min_vcs}VCs"),
            with_routing(RoutingMode::Min),
        ));
        out.push(Series::new(
            format!("UGAL-L {min_vcs}VCs"),
            with_routing(RoutingMode::UgalL),
        ));
        out.push(Series::new(
            format!("UGAL-G {min_vcs}VCs"),
            with_routing(RoutingMode::UgalG),
        ));
        out.push(Series::new(
            format!("DAL {min_vcs}VCs"),
            with_routing(RoutingMode::Dal),
        ));
    }
    out
}

/// Shape of the registry's Dragonfly+ scenarios:
/// `(leaves, spines, hosts_per_leaf, groups)` — 9 groups of 4+4 routers
/// with 2 hosts per leaf (72 routers, 72 nodes, 2 global ports per spine),
/// the same node count as the default `h = 2` Dragonfly so the two
/// families' curves are directly comparable.
pub fn dfplus_shape() -> (usize, usize, usize, usize) {
    (4, 4, 2, 9)
}

/// Dragonfly+ series for one traffic pattern: baseline distance-based
/// policy, FlexVC at the *same* VC budget (pure policy benefit — the MIN
/// minimum 2/1 also hosts FlexVC MIN on this family), FlexVC at enlarged
/// budgets, and — for non-minimal routing — the adaptive cross-section at
/// the safe 4/2 budget: MIN (misroute-free floor), UGAL-L/G
/// (source-adaptive MIN-vs-VAL) and PB (board-vetoed credit choice over
/// the spines' global ports), all under FlexVC so the routing mechanism is
/// the only variable. Note there is no opportunistic-below-minimum VAL
/// series: on Dragonfly+ the spine escape `L L G L` makes 4/2 both the
/// safe *and* the support minimum (see the classifier rows).
pub fn dfplus_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let routing = paper_routing_for(pattern);
    let (leaves, spines, hosts, groups) = dfplus_shape();
    let base = scale.windowed(SimConfig::dfplus_baseline(
        leaves,
        spines,
        hosts,
        groups,
        routing,
        Workload::oblivious(pattern),
    ));
    let flex = |l: usize, g: usize| base.clone().with_flexvc(Arrangement::dragonfly(l, g));
    let (ml, mg) = routing.min_dragonfly_vcs();
    let mut out = vec![
        Series::new("Baseline", base.clone()),
        Series::new(format!("FlexVC {ml}/{mg}VCs"), flex(ml, mg)),
    ];
    if routing == RoutingMode::Min {
        out.push(Series::new("FlexVC 4/2VCs", flex(4, 2)));
    }
    out.push(Series::new("FlexVC 8/4VCs", flex(8, 4)));
    if routing.is_nonminimal() {
        // The adaptive cross-section at the safe VC budget: every series
        // shares the 4/2 arrangement, only the routing mechanism differs.
        let with_routing = |mode: RoutingMode| {
            let mut cfg = flex(4, 2);
            cfg.routing = mode;
            cfg
        };
        out.push(Series::new("MIN 4/2VCs", with_routing(RoutingMode::Min)));
        out.push(Series::new(
            "UGAL-L 4/2VCs",
            with_routing(RoutingMode::UgalL),
        ));
        out.push(Series::new(
            "UGAL-G 4/2VCs",
            with_routing(RoutingMode::UgalG),
        ));
        out.push(Series::new(
            "PB 4/2VCs",
            with_routing(RoutingMode::Piggyback),
        ));
    }
    out
}

/// Flow-workload series: FlexVC vs the baseline distance-based policy at
/// the *equal* (reference-minimum) VC budget under MIN routing, on both
/// the ambient-scale Dragonfly and the registry's 2-D HyperX — so any FCT
/// difference is pure VC-management benefit, not extra buffering. Series
/// labels carry the topology prefix (`DF`/`HX`).
pub fn flow_series(scale: &Scale, spec: flexvc_traffic::FlowSpec) -> Vec<Series> {
    let wl = Workload::flows(spec);
    let df_base = scale.config(RoutingMode::Min, wl);
    let (s, p) = hyperx_shape(2);
    let hx_base = scale.windowed(SimConfig::hyperx_baseline(2, s, p, RoutingMode::Min, wl));
    let hx_vcs = RoutingMode::Min.min_hyperx_vcs(2);
    vec![
        Series::new("DF Baseline", df_base.clone()),
        Series::new(
            "DF FlexVC 2/1VCs",
            df_base.with_flexvc(Arrangement::dragonfly_min()),
        ),
        Series::new("HX Baseline", hx_base.clone()),
        Series::new(
            format!("HX FlexVC {hx_vcs}VCs"),
            hx_base.with_flexvc(Arrangement::generic(hx_vcs)),
        ),
    ]
}

/// The `hyperx-k2` series: a 2-D HyperX with `k = 2` parallel links per
/// peer pair under MIN routing, hash-spread copies vs adaptive (sensed)
/// copy selection. The endpoint hash pins every router pair's traffic to
/// one fixed copy, so adversarial traffic wastes half the bisection; the
/// adaptive JSQ uses both copies.
pub fn hyperx_k2_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let (s, p) = hyperx_shape(2);
    let wl = Workload::oblivious(pattern);
    let mut base = scale.windowed(SimConfig::hyperx_baseline(2, s, p, RoutingMode::Min, wl));
    base.topology = flexvc_sim::TopologySpec::HyperX {
        dims: vec![(s, 2); 2],
        p,
    };
    let mut adaptive = base.clone();
    adaptive.adaptive_copies = true;
    vec![
        Series::new("hash copies", base),
        Series::new("adaptive copies", adaptive),
    ]
}

/// Piggyback adaptive series of Fig. 8: reference MIN/VAL, PB per-VC and
/// per-port on the baseline policy (4/2+4/2), and the four FlexVC variants
/// on 6/3 VCs (4/2+2/1): plain per-VC/per-port and minCred per-VC/per-port.
pub fn adaptive_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let wl = Workload::reactive(pattern);
    let reference = paper_routing_for(pattern);
    let mut out = vec![Series::new(
        if reference == RoutingMode::Min {
            "MIN"
        } else {
            "VAL"
        },
        scale.config(reference, wl),
    )];
    let pb = scale.config(RoutingMode::Piggyback, wl);
    let with = |mode: SensingMode, min_cred: bool, flex: bool| -> SimConfig {
        let mut cfg = if flex {
            pb.clone()
                .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)))
        } else {
            pb.clone()
        };
        cfg.sensing = SensingConfig {
            mode,
            min_cred,
            threshold: cfg.sensing.threshold,
        };
        cfg
    };
    out.push(Series::new(
        "PB - per VC",
        with(SensingMode::PerVc, false, false),
    ));
    out.push(Series::new(
        "PB - per port",
        with(SensingMode::PerPort, false, false),
    ));
    out.push(Series::new(
        "PB FlexVC - per VC",
        with(SensingMode::PerVc, false, true),
    ));
    out.push(Series::new(
        "PB FlexVC - per port",
        with(SensingMode::PerPort, false, true),
    ));
    out.push(Series::new(
        "PB FlexVC - per VC min",
        with(SensingMode::PerVc, true, true),
    ));
    out.push(Series::new(
        "PB FlexVC - per port min",
        with(SensingMode::PerPort, true, true),
    ));
    out
}

/// Default offered-load sweep for latency/throughput figures.
pub fn default_loads() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn test_scale() -> Scale {
        Scale {
            h: 2,
            seeds: vec![1],
            warmup: 100,
            measure: 200,
        }
    }

    #[test]
    fn scale_default() {
        let scale = test_scale();
        let cfg = scale.config(RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
        assert_eq!(cfg.warmup, 100);
        cfg.validate().unwrap();
    }

    #[test]
    fn all_series_validate() {
        let scale = test_scale();
        for pattern in [Pattern::Uniform, Pattern::bursty(), Pattern::adv1()] {
            for s in oblivious_series(&scale, pattern) {
                s.cfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            }
            for s in reactive_series(&scale, pattern) {
                s.cfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            }
            for s in adaptive_series(&scale, pattern) {
                s.cfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            }
        }
    }

    #[test]
    fn series_counts_match_paper_legends() {
        let scale = test_scale();
        assert_eq!(oblivious_series(&scale, Pattern::Uniform).len(), 5);
        assert_eq!(oblivious_series(&scale, Pattern::adv1()).len(), 4);
        assert_eq!(reactive_series(&scale, Pattern::Uniform).len(), 8);
        assert_eq!(reactive_series(&scale, Pattern::adv1()).len(), 5);
        assert_eq!(adaptive_series(&scale, Pattern::Uniform).len(), 7);
    }

    /// The Dragonfly+ ADV cell carries the adaptive cross-section
    /// (MIN / UGAL-L / UGAL-G / PB at the safe 4/2 budget) alongside
    /// Baseline and FlexVC VAL; the UN cell is minimal-only with an
    /// equal-budget FlexVC series. Every config validates.
    #[test]
    fn dfplus_series_cover_the_adaptive_cross_section() {
        let scale = test_scale();
        let adv = dfplus_series(&scale, Pattern::adv1());
        for needle in ["Baseline", "FlexVC 4/2", "MIN", "UGAL-L", "UGAL-G", "PB"] {
            assert!(
                adv.iter().any(|s| s.label.contains(needle)),
                "missing {needle} in Dragonfly+ ADV series"
            );
        }
        for s in &adv {
            s.cfg
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.label));
        }
        let un = dfplus_series(&scale, Pattern::Uniform);
        assert!(un.iter().any(|s| s.label.contains("FlexVC 2/1")));
        assert!(un.iter().all(|s| !s.label.contains("UGAL")));
        for s in &un {
            s.cfg
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.label));
        }
    }

    /// The ADV HyperX cells carry the adaptive cross-section at the safe
    /// VC budget (MIN / UGAL-L / UGAL-G / DAL alongside Baseline and
    /// FlexVC VAL); the UN cells stay minimal-only. Every config validates.
    #[test]
    fn hyperx_series_cover_the_adaptive_cross_section() {
        let scale = test_scale();
        for n_dims in [2, 3] {
            let adv = hyperx_series(&scale, n_dims, Pattern::adv1());
            for needle in ["Baseline", "MIN", "UGAL-L", "UGAL-G", "DAL"] {
                assert!(
                    adv.iter().any(|s| s.label.contains(needle)),
                    "missing {needle} in {n_dims}-D ADV series"
                );
            }
            for s in &adv {
                s.cfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            }
            let un = hyperx_series(&scale, n_dims, Pattern::Uniform);
            assert!(un.iter().all(|s| !s.label.contains("UGAL")));
        }
        for pattern in [Pattern::Uniform, Pattern::adv1()] {
            for s in hyperx_k2_series(&scale, pattern) {
                s.cfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            }
        }
    }

    #[test]
    fn paper_scale_matches_table_v() {
        let paper = Scale::paper();
        assert_eq!(paper.h, 8);
        assert_eq!(paper.seeds.len(), 5);
        assert_eq!(paper.measure, 60_000);
    }
}
