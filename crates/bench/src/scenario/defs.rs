//! The built-in scenario catalogue: one static table, [`CATALOGUE`], of
//! the paper reproductions (`tables`, `fig5` … `fig11`, `ablations`), the
//! HyperX and Dragonfly+ families, the paper-scale `*-paper` trio, the
//! `flows-*` and `qos-*` scenarios and `smoke`, over shared builders.
//!
//! Each builder expands a [`Scale`] into pure data — every knob is a
//! field on a [`PointSpec`], so `flexvc show <name>` serializes the exact
//! experiment and a user can edit and re-run it without touching Rust.

use super::{ClassificationSpec, ClassifyKind, PointSpec, Scenario};
use crate::Scale;
use flexvc_core::classify::NetworkFamily;
use flexvc_core::{Arrangement, RoutingMode, VcSelection};
use flexvc_sim::{
    paper_routing_for, BufferOrg, BufferSizing, QosConfig, SensingConfig, SensingMode, SimConfig,
    TopologySpec,
};
use flexvc_traffic::{FlowSpec, Pattern, SizeDist, Workload};

/// A catalogue entry: name, one-line summary, and the builder that
/// expands it into data at a given [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct ScenarioEntry {
    /// Catalogue name (`flexvc run <name>`).
    pub name: &'static str,
    /// One-line summary for `flexvc list`.
    pub summary: &'static str,
    build: fn(&Scale) -> Scenario,
}

impl ScenarioEntry {
    /// Expand the scenario at the given scale; it carries the entry's name.
    pub fn build(&self, scale: &Scale) -> Scenario {
        Scenario {
            name: self.name.to_string(),
            ..(self.build)(scale)
        }
    }
}

/// The catalogue entry named `name`.
pub fn lookup(name: &str) -> Option<&'static ScenarioEntry> {
    CATALOGUE.iter().find(|e| e.name == name)
}

/// Every built-in scenario, in the order `flexvc list` prints them.
pub static CATALOGUE: [ScenarioEntry; 25] = [
    ScenarioEntry {
        name: "tables",
        summary: "Tables I-IV: analytic path classification (no simulation)",
        build: tables,
    },
    ScenarioEntry {
        name: "fig5",
        summary: "Oblivious routing: latency/throughput vs load (UN, BURSTY, ADV)",
        build: fig5,
    },
    ScenarioEntry {
        name: "fig6",
        summary: "Max throughput vs per-port buffer capacity (speedup 2)",
        build: fig6,
    },
    ScenarioEntry {
        name: "fig7",
        summary: "Request-reply traffic: FlexVC request/reply VC splits",
        build: fig7,
    },
    ScenarioEntry {
        name: "fig8",
        summary: "Piggyback adaptive routing: sensing granularity and minCred",
        build: fig8,
    },
    ScenarioEntry {
        name: "fig9",
        summary: "VC selection functions at 100% load (UN-RR)",
        build: fig9,
    },
    ScenarioEntry {
        name: "fig10",
        summary: "DAMQ private-reservation sweep (deadlock at 0% private)",
        build: fig10,
    },
    ScenarioEntry {
        name: "fig11",
        summary: "Buffer-capacity study without router speedup",
        build: fig11,
    },
    ScenarioEntry {
        name: "ablations",
        summary: "Occupancy fingerprints, patience, PB threshold, reply queue",
        build: ablations,
    },
    ScenarioEntry {
        name: "hyperx-un-2d",
        summary: "HyperX 2-D: UN load sweep, baseline vs FlexVC (MIN)",
        build: |scale| hyperx(scale, 2, Pattern::Uniform),
    },
    ScenarioEntry {
        name: "hyperx-un-3d",
        summary: "HyperX 3-D: UN load sweep, baseline vs FlexVC (MIN)",
        build: |scale| hyperx(scale, 3, Pattern::Uniform),
    },
    ScenarioEntry {
        name: "hyperx-adv-2d",
        summary: "HyperX 2-D: ADV+1 load sweep, baseline vs FlexVC (VAL)",
        build: |scale| hyperx(scale, 2, Pattern::adv1()),
    },
    ScenarioEntry {
        name: "hyperx-adv-3d",
        summary: "HyperX 3-D: ADV+1 load sweep, baseline vs FlexVC (VAL)",
        build: |scale| hyperx(scale, 3, Pattern::adv1()),
    },
    ScenarioEntry {
        name: "hyperx-k2",
        summary: "HyperX 2-D k=2: adaptive vs hash parallel-copy selection (MIN)",
        build: hyperx_k2,
    },
    ScenarioEntry {
        name: "dfplus-un",
        summary: "Dragonfly+: UN load sweep, baseline vs FlexVC (MIN)",
        build: |scale| dfplus(scale, Pattern::Uniform),
    },
    ScenarioEntry {
        name: "dfplus-adv",
        summary: "Dragonfly+: ADV+1 load sweep, VAL + UGAL/PB cross-section",
        build: |scale| dfplus(scale, Pattern::adv1()),
    },
    ScenarioEntry {
        name: "dragonfly-paper",
        summary: "Table V scale: h=8 Dragonfly (2,064 routers), UN, MIN — use --shards",
        build: dragonfly_paper,
    },
    ScenarioEntry {
        name: "hyperx-paper",
        summary: "Paper scale: 16^3 HyperX (4,096 routers), UN, MIN — use --shards",
        build: hyperx_paper,
    },
    ScenarioEntry {
        name: "dfplus-paper",
        summary: "Megafly scale: 33x(16+16) Dragonfly+ (1,056 routers), UN, MIN — use --shards",
        build: dfplus_paper,
    },
    ScenarioEntry {
        name: "flows-un",
        summary: "Flow workloads: uniform mice/elephants, FCT + slowdown (MIN)",
        build: |scale| {
            flows(
                scale,
                FlowSpec::uniform(SizeDist::mice_elephants()),
                "uniform mice/elephants",
                "Uniform destinations with the bimodal mice/elephants size mix \
                 (90% 1-packet mice, 10% 16-packet elephants).",
            )
        },
    },
    ScenarioEntry {
        name: "flows-permutation",
        summary: "Flow workloads: random permutation, heavy-tail sizes, FCT (MIN)",
        build: |scale| {
            flows(
                scale,
                FlowSpec::permutation(SizeDist::heavy_tail()),
                "random permutation, heavy-tail sizes",
                "A seed-fixed random permutation (each node sends every flow to one \
                 partner) with bounded-Pareto flow sizes (1..=64 packets, alpha 1.5).",
            )
        },
    },
    ScenarioEntry {
        name: "flows-incast",
        summary: "Flow workloads: rotating 4-to-1 incast phases, FCT (MIN)",
        build: |scale| {
            flows(
                scale,
                FlowSpec::incast(4, SizeDist::Fixed { packets: 4 }),
                "4-to-1 incast phases",
                "Rotating collective phases: blocks of 5 nodes, 4 senders target the \
                 block's receiver for 2,000 cycles before the role rotates; 4-packet \
                 fixed-size flows.",
            )
        },
    },
    ScenarioEntry {
        name: "qos-dragonfly",
        summary: "QoS classes: control trickle vs single-class at equal 4/2 budget (MIN)",
        build: qos_dragonfly,
    },
    ScenarioEntry {
        name: "qos-hyperx",
        summary: "QoS on HyperX 2-D: partitioned vs dynamic per-class allocation (MIN)",
        build: qos_hyperx,
    },
    ScenarioEntry {
        name: "smoke",
        summary: "30-second sanity run (tiny windows, ignores scale)",
        build: smoke,
    },
];

const PATTERNS: [Pattern; 3] = [
    Pattern::Uniform,
    Pattern::BurstyUniform { mean_burst: 5.0 },
    Pattern::Adversarial { offset: 1 },
];

/// Offered loads of the latency/throughput sweeps.
const LOADS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// The reduced load ramp (to saturation in four steps) of the `*-paper`
/// and `qos-*` scenarios: their point is the network size or the class
/// mix, not legend coverage.
const PAPER_LOADS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// A simulation scenario; [`ScenarioEntry::build`] gives it its name.
fn scenario(
    title: impl Into<String>,
    description: impl Into<String>,
    seeds: &[u64],
    points: Vec<PointSpec>,
) -> Scenario {
    Scenario {
        name: String::new(),
        title: title.into(),
        description: description.into(),
        seeds: seeds.to_vec(),
        points,
        classifications: Vec::new(),
    }
}

/// One curve of a figure: a legend label (as in the paper) and its
/// configuration.
struct Series {
    label: String,
    cfg: SimConfig,
}

impl Series {
    fn new(label: impl Into<String>, cfg: SimConfig) -> Self {
        Series {
            label: label.into(),
            cfg,
        }
    }

    /// `base` under FlexVC on `arrangement`, labelled by its VC counts
    /// (`FlexVC 4/2VCs`, `FlexVC 5VCs`).
    fn flexvc(base: &SimConfig, arrangement: Arrangement) -> Self {
        let label = format!("FlexVC {}VCs", arrangement.count_label());
        Series::new(label, base.clone().with_flexvc(arrangement))
    }
}

/// Every series over `loads`, series by series; labels read
/// `prefix/label`, or the bare label when `prefix` is empty.
fn sweep(prefix: &str, series: &[Series], loads: &[f64]) -> Vec<PointSpec> {
    series
        .iter()
        .flat_map(|s| {
            let label = match prefix {
                "" => s.label.clone(),
                _ => format!("{prefix}/{}", s.label),
            };
            loads.iter().map(move |&load| PointSpec {
                series: label.clone(),
                x: format!("{load:.2}"),
                load,
                cfg: s.cfg.clone(),
            })
        })
        .collect()
}

/// [`sweep`] over [`LOADS`] for each pattern, labels prefixed with it.
fn pattern_sweeps(patterns: &[Pattern], series: impl Fn(Pattern) -> Vec<Series>) -> Vec<PointSpec> {
    patterns
        .iter()
        .flat_map(|&p| sweep(p.label(), &series(p), &LOADS))
        .collect()
}

/// The oblivious-routing series of Figs. 5/6/11 for one traffic pattern:
/// Baseline, DAMQ 75%, FlexVC at the minimum VC set, FlexVC 4/2 and 8/4.
/// ADV uses VAL (2/1 cannot host it), UN/BURSTY use MIN.
fn oblivious_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let routing = paper_routing_for(pattern);
    let base = scale.config(routing, Workload::oblivious(pattern));
    let mut out = vec![
        Series::new("Baseline", base.clone()),
        Series::new("DAMQ 75%", base.clone().with_damq75()),
    ];
    if routing == RoutingMode::Min {
        out.push(Series::flexvc(&base, Arrangement::dragonfly_min()));
    }
    out.push(Series::flexvc(&base, Arrangement::dragonfly(4, 2)));
    out.push(Series::flexvc(&base, Arrangement::dragonfly(8, 4)));
    out
}

/// Request–reply series of Fig. 7 for one traffic pattern.
fn reactive_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
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

/// Piggyback adaptive series of Fig. 8: reference MIN/VAL, PB per-VC and
/// per-port on the baseline policy (4/2+4/2), and the four FlexVC variants
/// on 6/3 VCs (4/2+2/1): plain per-VC/per-port and minCred per-VC/per-port.
fn adaptive_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    let wl = Workload::reactive(pattern);
    let reference = paper_routing_for(pattern);
    let mut out = vec![Series::new(reference.label(), scale.config(reference, wl))];
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

/// Shape of the catalogue's HyperX scenarios for a dimension count:
/// `(s, p)` — routers per dimension and terminals per router. Chosen so
/// both networks stay laptop-quick (2-D: 16 routers / 32 nodes,
/// 3-D: 27 routers / 54 nodes) while exercising genuinely different
/// diameters and reference sequences.
fn hyperx_shape(n_dims: usize) -> (usize, usize) {
    match n_dims {
        2 => (4, 2),
        _ => (3, 2),
    }
}

/// The baseline on the catalogue's `n_dims`-D HyperX, on the scale's
/// windows.
fn hyperx_base(scale: &Scale, n_dims: usize, routing: RoutingMode, wl: Workload) -> SimConfig {
    let (s, p) = hyperx_shape(n_dims);
    scale.windowed(SimConfig::hyperx_baseline(n_dims, s, p, routing, wl))
}

/// The adaptive cross-section at a safe VC budget: `base` under FlexVC on
/// `arrangement` with each of `modes`, so the routing mechanism is the
/// only variable. Labels read `UGAL-L 4/2VCs`.
fn cross_section(
    base: &SimConfig,
    arrangement: Arrangement,
    modes: [RoutingMode; 4],
) -> [Series; 4] {
    let budget = arrangement.count_label();
    let flex = base.clone().with_flexvc(arrangement);
    modes.map(|routing| {
        let cfg = SimConfig {
            routing,
            ..flex.clone()
        };
        Series::new(format!("{routing} {budget}VCs"), cfg)
    })
}

/// HyperX series for one `(dimension count, pattern)` cell: baseline
/// distance-based policy, FlexVC at the *same* VC budget (pure policy
/// benefit), FlexVC with two extra VCs, and — for non-minimal routings —
/// the cheap opportunistic configuration (`d + 1` VCs, below the safe
/// minimum of `2d`) plus the adaptive cross-section at the safe budget:
/// MIN (the misroute-free floor), UGAL-L/G (source-adaptive MIN-vs-VAL)
/// and DAL (per-dimension in-transit misrouting).
fn hyperx_series(scale: &Scale, n_dims: usize, pattern: Pattern) -> Vec<Series> {
    use RoutingMode::*;
    let routing = paper_routing_for(pattern);
    let base = hyperx_base(scale, n_dims, routing, Workload::oblivious(pattern));
    let min_vcs = routing.min_hyperx_vcs(n_dims);
    let mut out = vec![Series::new("Baseline", base.clone())];
    if routing.is_nonminimal() {
        out.push(Series::new(
            format!("FlexVC {}VCs (opport.)", n_dims + 1),
            base.clone().with_flexvc(Arrangement::generic(n_dims + 1)),
        ));
    }
    out.push(Series::flexvc(&base, Arrangement::generic(min_vcs)));
    out.push(Series::flexvc(&base, Arrangement::generic(min_vcs + 2)));
    if routing.is_nonminimal() {
        let modes = [Min, UgalL, UgalG, Dal];
        out.extend(cross_section(&base, Arrangement::generic(min_vcs), modes));
    }
    out
}

/// Shape of the catalogue's Dragonfly+ scenarios:
/// `(leaves, spines, hosts_per_leaf, groups)` — 9 groups of 4+4 routers
/// with 2 hosts per leaf (72 routers, 72 nodes, 2 global ports per spine),
/// the same node count as the default `h = 2` Dragonfly so the two
/// families' curves are directly comparable.
const DFPLUS_SHAPE: (usize, usize, usize, usize) = (4, 4, 2, 9);

/// Dragonfly+ series for one traffic pattern: baseline distance-based
/// policy, FlexVC at the *same* VC budget (pure policy benefit — the MIN
/// minimum 2/1 also hosts FlexVC MIN on this family), FlexVC at enlarged
/// budgets, and — for non-minimal routing — the adaptive cross-section at
/// the safe 4/2 budget: MIN (misroute-free floor), UGAL-L/G
/// (source-adaptive MIN-vs-VAL) and PB (board-vetoed credit choice over
/// the spines' global ports). Note there is no opportunistic-below-minimum
/// VAL series: on Dragonfly+ the spine escape `L L G L` makes 4/2 both the
/// safe *and* the support minimum (see the classifier rows).
fn dfplus_series(scale: &Scale, pattern: Pattern) -> Vec<Series> {
    use RoutingMode::*;
    let routing = paper_routing_for(pattern);
    let (leaves, spines, hosts, groups) = DFPLUS_SHAPE;
    let base = scale.windowed(SimConfig::dfplus_baseline(
        leaves,
        spines,
        hosts,
        groups,
        routing,
        Workload::oblivious(pattern),
    ));
    let (ml, mg) = routing.min_dragonfly_vcs();
    let mut out = vec![
        Series::new("Baseline", base.clone()),
        Series::flexvc(&base, Arrangement::dragonfly(ml, mg)),
    ];
    if routing == Min {
        out.push(Series::flexvc(&base, Arrangement::dragonfly(4, 2)));
    }
    out.push(Series::flexvc(&base, Arrangement::dragonfly(8, 4)));
    if routing.is_nonminimal() {
        let modes = [Min, UgalL, UgalG, Piggyback];
        out.extend(cross_section(&base, Arrangement::dragonfly(4, 2), modes));
    }
    out
}

/// Saturation throughput across per-port buffer capacities (Figs. 6/11).
fn capacity_points(scale: &Scale, speedup: u32) -> Vec<PointSpec> {
    let caps: [(u32, u32); 4] = [(64, 256), (128, 512), (192, 768), (256, 1024)];
    let mut points = Vec::new();
    for pattern in PATTERNS {
        // The paper omits the smallest capacity for ADV (256-phit packets
        // cannot fit VAL's two global VCs at 64/256 per port).
        let caps: &[(u32, u32)] = if matches!(pattern, Pattern::Adversarial { .. }) {
            &caps[1..]
        } else {
            &caps
        };
        for s in oblivious_series(scale, pattern) {
            for &(local, global) in caps {
                let mut cfg = s.cfg.clone();
                cfg.buffers.sizing = BufferSizing::PerPort { local, global };
                cfg.speedup = speedup;
                points.push(PointSpec {
                    series: format!("{}/{}", pattern.label(), s.label),
                    x: format!("{local}/{global}"),
                    load: 1.0,
                    cfg,
                });
            }
        }
    }
    points
}

fn fig5(scale: &Scale) -> Scenario {
    scenario(
        format!("Figure 5: oblivious routing (h = {})", scale.h),
        "Latency and throughput vs offered load under oblivious routing — \
         UN and BURSTY-UN with MIN, ADV with VAL — for Baseline, DAMQ 75%, \
         and FlexVC with 2/1, 4/2 and 8/4 VCs.",
        &scale.seeds,
        pattern_sweeps(&PATTERNS, |p| oblivious_series(scale, p)),
    )
}

fn fig6(scale: &Scale) -> Scenario {
    scenario(
        format!(
            "Figure 6: max throughput vs per-port buffer capacity (h = {}, speedup 2)",
            scale.h
        ),
        "Maximum throughput for constant buffer capacity per port (64/256 … \
         256/1024 phits local/global), oblivious routing. FlexVC splits the \
         same memory over more VCs; all series use identical per-port storage.",
        &scale.seeds,
        capacity_points(scale, 2),
    )
}

fn fig7(scale: &Scale) -> Scenario {
    scenario(
        format!("Figure 7: request-reply traffic (h = {})", scale.h),
        "Latency and throughput under request–reply traffic with oblivious \
         routing; FlexVC request/reply VC splits (4/2, 5/3, 6/4 for \
         UN/BURSTY-UN; 8/4 and 10/6 for ADV).",
        &scale.seeds,
        pattern_sweeps(&PATTERNS, |p| reactive_series(scale, p)),
    )
}

fn fig8(scale: &Scale) -> Scenario {
    scenario(
        format!(
            "Figure 8: adaptive routing (PB) with request-reply traffic (h = {})",
            scale.h
        ),
        "Piggyback source-adaptive routing with request–reply traffic: \
         per-port vs per-VC sensing, baseline (4/2+4/2 VCs) vs FlexVC \
         (4/2+2/1) vs FlexVC-minCred.",
        &scale.seeds,
        pattern_sweeps(&PATTERNS, |p| adaptive_series(scale, p)),
    )
}

fn fig9(scale: &Scale) -> Scenario {
    let base = scale.config(RoutingMode::Min, Workload::reactive(Pattern::Uniform));
    let splits: [((usize, usize), (usize, usize)); 6] = [
        ((2, 1), (2, 1)),
        ((2, 1), (3, 2)),
        ((3, 2), (2, 1)),
        ((2, 1), (4, 3)),
        ((3, 2), (3, 2)),
        ((4, 3), (2, 1)),
    ];
    // Reference rows: baseline and DAMQ use the fixed 2/1+2/1 split —
    // exactly the first column — so each is one simulation, not one per
    // column (the other columns render as `—`).
    let mut series = vec![
        Series::new("Baseline", base.clone()),
        Series::new("DAMQ 75%", base.clone().with_damq75()),
    ];
    for sel in VcSelection::all() {
        for (req, rep) in splits {
            let mut cfg = base
                .clone()
                .with_flexvc(Arrangement::dragonfly_rr(req, rep));
            cfg.selection = sel;
            series.push(Series::new(format!("FlexVC {sel}"), cfg));
        }
    }
    // Columns are the request+reply splits, e.g. `5/3(3/2+2/1)`.
    let points = series
        .into_iter()
        .map(|s| PointSpec {
            x: s.cfg.arrangement.count_label(),
            series: s.label,
            load: 1.0,
            cfg: s.cfg,
        })
        .collect();
    scenario(
        format!(
            "Figure 9: VC selection functions at 100% load, UN-RR, MIN (h = {})",
            scale.h
        ),
        "Throughput at 100% offered load under UN request–reply traffic, \
         for each VC selection function × request/reply VC split.",
        &scale.seeds,
        points,
    )
}

fn fig10(scale: &Scale) -> Scenario {
    let series: Vec<Series> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|frac: f64| {
            let mut cfg = scale.config(RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
            cfg.buffers.sizing = BufferSizing::PerPort {
                local: 128,
                global: 512,
            };
            cfg.buffers.organization = BufferOrg::Damq {
                private_fraction: frac,
            };
            // Deadlocked points should be detected quickly.
            cfg.watchdog = 6_000;
            let label = format!(
                "{} phits private ({:.0}%)",
                (64.0 * frac) as u32,
                frac * 100.0
            );
            Series::new(label, cfg)
        })
        .collect();
    scenario(
        format!(
            "Figure 10: DAMQ private reservation sweep (h = {})",
            scale.h
        ),
        "DAMQ private-reservation sweep under UN traffic with MIN routing \
         (2/1 VCs, 128/512 phits per port): 0% private deadlocks (DL cells), \
         75% is optimal, 100% equals statically partitioned buffers.",
        &scale.seeds,
        sweep("", &series, &LOADS),
    )
}

fn fig11(scale: &Scale) -> Scenario {
    scenario(
        format!(
            "Figure 11: max throughput without router speedup (h = {})",
            scale.h
        ),
        "The Figure 6 buffer-capacity study repeated without router speedup \
         (crossbar at link frequency), where HoLB is strongest and FlexVC \
         gains the most (up to +37.8% in the paper).",
        &scale.seeds,
        capacity_points(scale, 1),
    )
}

fn tables(scale: &Scale) -> Scenario {
    const MODES: [RoutingMode; 3] = [RoutingMode::Min, RoutingMode::Valiant, RoutingMode::Par];
    let generic_cols = |ns: &[usize]| -> Vec<(String, Arrangement)> {
        ns.iter()
            .map(|&n| (n.to_string(), Arrangement::generic(n)))
            .collect()
    };
    let classifications = vec![
        ClassificationSpec {
            title: "Table I: generic diameter-2 network".into(),
            family: NetworkFamily::Diameter2,
            kind: ClassifyKind::Request,
            modes: MODES.to_vec(),
            columns: generic_cols(&[2, 3, 4, 5]),
        },
        ClassificationSpec {
            title: "Table II: diameter-2 with protocol deadlock (request+reply)".into(),
            family: NetworkFamily::Diameter2,
            kind: ClassifyKind::Combined,
            modes: MODES.to_vec(),
            columns: [(2, 2), (3, 2), (3, 3), (4, 4), (5, 5)]
                .iter()
                .map(|&(q, p)| (format!("{q}+{p}={}", q + p), Arrangement::generic_rr(q, p)))
                .collect(),
        },
        ClassificationSpec {
            title: "Table III: Dragonfly (local/global order)".into(),
            family: NetworkFamily::Dragonfly,
            kind: ClassifyKind::Request,
            modes: MODES.to_vec(),
            columns: [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2)]
                .iter()
                .map(|&(l, g)| (format!("{l}/{g}"), Arrangement::dragonfly(l, g)))
                .collect(),
        },
        ClassificationSpec {
            title: "Table IV: Dragonfly with protocol deadlock (request / reply)".into(),
            family: NetworkFamily::Dragonfly,
            kind: ClassifyKind::Both,
            modes: MODES.to_vec(),
            columns: [
                ((2, 1), (2, 1), "4/2"),
                ((3, 2), (2, 1), "5/3"),
                ((4, 2), (4, 2), "8/4"),
                ((5, 2), (5, 2), "10/4"),
            ]
            .iter()
            .map(|&(req, rep, name)| (name.to_string(), Arrangement::dragonfly_rr(req, rep)))
            .collect(),
        },
    ];
    let description = format!(
        "Analytic reproduction of the paper's classification tables; no simulation. \
         Current scale for the simulation scenarios: h = {}, seeds {:?}, warmup {}, \
         measure {} cycles.",
        scale.h, scale.seeds, scale.warmup, scale.measure
    );
    Scenario {
        classifications,
        ..scenario(
            "Tables I-IV: path classification (Safe / opport. / X)",
            description,
            &scale.seeds,
            Vec::new(),
        )
    }
}

fn ablations(scale: &Scale) -> Scenario {
    let mut points = Vec::new();

    // 1. Per-VC occupancy fingerprints (§III-D): the baseline concentrates
    //    ADV minimal traffic in VC0; FlexVC flattens the signature (read the
    //    occupancy vectors from the JSON/CSV output).
    let adv = scale.config(RoutingMode::Valiant, Workload::oblivious(Pattern::adv1()));
    for (label, cfg) in [
        ("occupancy/Baseline 4/2", adv.clone()),
        (
            "occupancy/FlexVC 4/2",
            adv.clone().with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
    ] {
        points.push(PointSpec {
            series: label.into(),
            x: "0.45".into(),
            load: 0.45,
            cfg,
        });
    }

    // 2. Reversion patience: 0 = the paper's strictest reading (revert on
    //    first missing credit); large values approach pure waiting.
    for patience in [0u32, 4, 16, 64, 256] {
        let mut cfg = scale
            .config(RoutingMode::Valiant, Workload::reactive(Pattern::adv1()))
            .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
        cfg.revert_patience = patience;
        points.push(PointSpec {
            series: "patience (ADV-RR, VAL 6/3, load 0.5)".into(),
            x: patience.to_string(),
            load: 0.5,
            cfg,
        });
    }

    // 3. PB saturation-floor threshold T (Table V uses 3 packets).
    for t in [1u32, 2, 3, 6, 12] {
        let mut cfg = scale
            .config(RoutingMode::Piggyback, Workload::reactive(Pattern::adv1()))
            .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
        cfg.sensing = SensingConfig {
            mode: SensingMode::PerPort,
            min_cred: true,
            threshold: t,
        };
        points.push(PointSpec {
            series: "PB threshold T (ADV-RR, minCred per-port, load 0.5)".into(),
            x: t.to_string(),
            load: 0.5,
            cfg,
        });
    }

    // 4. Reply-queue depth: deeper queues decouple request consumption from
    //    reply injection and wash out the request-reply congestion.
    for depth in [1usize, 2, 4, 16, 1024] {
        let mut base = scale.config(RoutingMode::Min, Workload::reactive(Pattern::Uniform));
        base.reply_queue_packets = depth;
        let flex = {
            let mut f = base
                .clone()
                .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
            f.reply_queue_packets = depth;
            f
        };
        for (label, cfg) in [
            ("reply-queue/Baseline (UN-RR)", base),
            ("reply-queue/FlexVC 4/2+2/1 (UN-RR)", flex),
        ] {
            points.push(PointSpec {
                series: label.into(),
                x: depth.to_string(),
                load: 1.0,
                cfg,
            });
        }
    }

    scenario(
        "Ablations: occupancy fingerprints, patience, PB threshold, reply queue",
        "Ablation studies for the design choices called out in DESIGN.md: \
         (1) per-VC occupancy fingerprints under ADV (occupancy vectors in \
         the JSON/CSV output), (2) opportunistic reversion patience, \
         (3) PB threshold T sensitivity, (4) reply-queue depth.",
        &scale.seeds,
        points,
    )
}

/// The `hyperx` scenario family: UN and ADV load sweeps on 2-D and 3-D
/// HyperX networks, baseline policy vs FlexVC at equal and enlarged VC
/// budgets — the paper's framework on a topology the seed never modeled
/// (cf. "Analysing Mechanisms for Virtual Channel Management in
/// Low-Diameter networks", arXiv 2306.13042).
fn hyperx(scale: &Scale, n_dims: usize, pattern: Pattern) -> Scenario {
    let (s, p) = hyperx_shape(n_dims);
    let routing = paper_routing_for(pattern);
    scenario(
        format!(
            "HyperX {n_dims}-D ({s}^{n_dims} routers x {p} terminals): {} under {routing}",
            pattern.label()
        ),
        format!(
            "Latency and throughput vs offered load on a {n_dims}-dimensional HyperX \
             (diameter {n_dims}, single link class, dimension-ordered minimal routes) \
             under {} traffic with {routing} routing: baseline distance-based policy \
             vs FlexVC at the same and at enlarged VC budgets (references T^{n_dims} \
             for MIN, T^{} for VAL).",
            pattern.label(),
            2 * n_dims,
        ),
        &scale.seeds,
        sweep(
            pattern.label(),
            &hyperx_series(scale, n_dims, pattern),
            &LOADS,
        ),
    )
}

/// `hyperx-k2`: the `k > 1` link-multiplicity regression — hash-spread vs
/// adaptive (sensed per-copy occupancy) parallel-copy selection on a 2-D
/// HyperX with doubled links, under UN and ADV+1. The acceptance shape:
/// adaptive is no worse than hash under UN and strictly better under ADV
/// (the endpoint hash pins each router pair to one copy, so the
/// adversarial funnel wastes half the doubled bisection).
fn hyperx_k2(scale: &Scale) -> Scenario {
    let (s, p) = hyperx_shape(2);
    let series = |pattern| {
        let wl = Workload::oblivious(pattern);
        let mut base = hyperx_base(scale, 2, RoutingMode::Min, wl);
        base.topology = TopologySpec::HyperX {
            dims: vec![(s, 2); 2],
            p,
        };
        let adaptive = SimConfig {
            adaptive_copies: true,
            ..base.clone()
        };
        vec![
            Series::new("hash copies", base),
            Series::new("adaptive copies", adaptive),
        ]
    };
    scenario(
        format!("HyperX 2-D k=2 ({s}x{s} routers, doubled links): copy selection"),
        "Adaptive parallel-copy selection vs the static endpoint hash on a \
         2-D HyperX with k = 2 link multiplicity, MIN routing, UN and ADV+1 \
         traffic. The hash routes every (src router, dst router) pair over \
         one fixed copy; the adaptive policy picks the least-occupied copy \
         per hop from local credit state.",
        &scale.seeds,
        pattern_sweeps(&[Pattern::Uniform, Pattern::adv1()], series),
    )
}

/// The `dfplus` scenario family: UN and ADV load sweeps on a Dragonfly+
/// (Megafly) network — the third low-diameter family of the evaluation
/// line (cf. arXiv 2306.13042, which evaluates Dragonfly+ alongside
/// HyperX and Dragonfly). Groups are two-level fat trees; ADV+1 funnels
/// each group's minimal traffic onto a single inter-group link, which the
/// adaptive cross-section (UGAL-L/G, PB) spreads.
fn dfplus(scale: &Scale, pattern: Pattern) -> Scenario {
    let (leaves, spines, hosts, groups) = DFPLUS_SHAPE;
    let routing = paper_routing_for(pattern);
    scenario(
        format!(
            "Dragonfly+ ({groups} groups x {leaves}+{spines} routers, {hosts} hosts/leaf): \
             {} under {routing}",
            pattern.label()
        ),
        format!(
            "Latency and throughput vs offered load on a Dragonfly+ / Megafly network \
             (two-level fat-tree groups: leaf routers hold the hosts, spine routers the \
             global links; minimal routes are leaf-spine-global-spine-leaf) under {} \
             traffic with {routing} routing: baseline distance-based policy vs FlexVC \
             at the same and at enlarged VC budgets{}. References follow the Dragonfly \
             L G L texture; the classifier charges detours the spine escape L L G L, \
             so 4/2 is both the safe and the support minimum for VAL.",
            pattern.label(),
            if routing.is_nonminimal() {
                ", plus the adaptive cross-section (MIN, UGAL-L, UGAL-G, PB) at the \
                 safe 4/2 budget"
            } else {
                ""
            },
        ),
        &scale.seeds,
        sweep(pattern.label(), &dfplus_series(scale, pattern), &LOADS),
    )
}

/// A paper-scale scenario: the `base` topology at UN under MIN on the
/// scale's windows and seeds, baseline policy vs FlexVC on `flex`, over
/// [`PAPER_LOADS`]. Run with `--shards 0` to spread each point's event
/// loop over the host's cores.
fn paper(scale: &Scale, base: SimConfig, flex: Arrangement, title: &str, text: &str) -> Scenario {
    let base = scale.windowed(base);
    let series = [
        Series::new("Baseline", base.clone()),
        Series::flexvc(&base, flex),
    ];
    scenario(
        title,
        text,
        &scale.seeds,
        sweep("UN", &series, &PAPER_LOADS),
    )
}

/// `dragonfly-paper`: the full Table V `h = 8` balanced Dragonfly (2,064
/// routers, 16,512 nodes) — the scale the paper actually simulates (use
/// `--paper` for the 5×60k-cycle paper methodology).
fn dragonfly_paper(scale: &Scale) -> Scenario {
    paper(
        scale,
        SimConfig::dragonfly_baseline(8, RoutingMode::Min, Workload::oblivious(Pattern::Uniform)),
        Arrangement::dragonfly(4, 2),
        "Dragonfly h=8 (2,064 routers, Table V scale): UN under MIN",
        "The paper's full-size balanced Dragonfly (p=8, a=16, g=129): UN \
         load ramp, baseline policy vs FlexVC 4/2. Sized for the sharded \
         engine — pass --shards 0 (auto) or --shards N to parallelize each \
         point; results are bit-identical for every shard count.",
    )
}

/// `hyperx-paper`: a 16³ HyperX (4,096 routers, diameter 3) — the largest
/// topology of the follow-up VC-management analysis (arXiv 2306.13042),
/// far beyond the single-core sweep budget.
fn hyperx_paper(scale: &Scale) -> Scenario {
    let wl = Workload::oblivious(Pattern::Uniform);
    paper(
        scale,
        SimConfig::hyperx_baseline(3, 16, 4, RoutingMode::Min, wl),
        Arrangement::generic(5),
        "HyperX 16^3 (4,096 routers x 4 terminals): UN under MIN",
        "Paper-scale 3-D HyperX (16 routers per dimension, diameter 3, \
         single link class): UN load ramp, baseline policy vs FlexVC at \
         an enlarged budget. Sized for the sharded engine — pass \
         --shards 0/N to parallelize each point.",
    )
}

/// `dfplus-paper`: a megafly-sized Dragonfly+ — 33 groups of 16+16
/// routers (1,056 routers, 4,224 nodes), every spine holding two global
/// links, matching the megafly configurations of the Dragonfly+ litera-
/// ture rather than the catalogue's laptop-sized 9-group instance.
fn dfplus_paper(scale: &Scale) -> Scenario {
    let wl = Workload::oblivious(Pattern::Uniform);
    paper(
        scale,
        SimConfig::dfplus_baseline(16, 16, 8, 33, RoutingMode::Min, wl),
        Arrangement::dragonfly(4, 2),
        "Dragonfly+ megafly (33 groups x 16+16 routers, 4,224 nodes): UN under MIN",
        "Megafly-sized Dragonfly+ (two-level fat-tree groups, 16 leaves + \
         16 spines each, 8 hosts per leaf, 33 groups): UN load ramp, \
         baseline policy vs FlexVC 4/2. Sized for the sharded engine — \
         pass --shards 0/N to parallelize each point.",
    )
}

/// The `flows-*` scenarios: a flow workload swept over [`LOADS`] on the
/// Dragonfly and the 2-D HyperX, FlexVC vs the baseline distance-based
/// policy at the *equal* (reference-minimum) VC budget under MIN — so any
/// FCT difference is pure VC-management benefit, not extra buffering.
/// Series labels carry the workload and topology (`FLOWS-UN/DF Baseline`,
/// `PERM/BIMODAL/HX FlexVC 2VCs`, …) so FCT curves group by pattern
/// exactly like the packet-level sweeps group by [`Pattern`].
fn flows(scale: &Scale, spec: FlowSpec, headline: &str, detail: &str) -> Scenario {
    let wl = Workload::flows(spec);
    let df = scale.config(RoutingMode::Min, wl);
    let hx = hyperx_base(scale, 2, RoutingMode::Min, wl);
    let hx_vcs = RoutingMode::Min.min_hyperx_vcs(2);
    let series = [
        Series::new("DF Baseline", df.clone()),
        Series::new(
            "DF FlexVC 2/1VCs",
            df.with_flexvc(Arrangement::dragonfly_min()),
        ),
        Series::new("HX Baseline", hx.clone()),
        Series::new(
            format!("HX FlexVC {hx_vcs}VCs"),
            hx.with_flexvc(Arrangement::generic(hx_vcs)),
        ),
    ];
    scenario(
        format!("Flows: {headline} (h = {}, HyperX 4x4)", scale.h),
        format!(
            "{detail} Open-loop flow arrivals emit per-flow packet trains at line \
             rate; reports add flow completion time (p50/p99) and slowdown \
             (FCT / ideal serialization time) per point. FlexVC vs baseline at \
             the equal reference-minimum VC budget under MIN, on the Dragonfly \
             and a 2-D HyperX."
        ),
        &scale.seeds,
        sweep(&wl.label(), &series, &LOADS),
    )
}

/// Control fraction of the `qos-*` mixed-class workloads: a trickle on
/// top of the bulk plane, as in the starvation stress pass.
const QOS_CONTROL_FRACTION: f64 = 0.05;

/// `qos-dragonfly`: multi-class QoS on the Dragonfly. A single-class
/// FlexVC 4/2 reference is compared against the *same total VC budget*
/// carrying a 5% control trickle, first FIFO (no QoS — control queues
/// behind bulk wherever the flood sits) and then under strict-priority
/// arbitration over class-partitioned 2/1+2/1 budgets. The acceptance
/// shape, asserted in `cli_smoke`: at saturation the QoS control-plane
/// p99 latency stays under half the single-class p99.
fn qos_dragonfly(scale: &Scale) -> Scenario {
    let single = scale
        .config(RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
        .with_flexvc(Arrangement::dragonfly(4, 2));
    let mixed = scale
        .config(
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform).with_mix(QOS_CONTROL_FRACTION),
        )
        .with_flexvc(Arrangement::dragonfly(4, 2));
    let series = [
        Series::new("Single 4/2VCs", single),
        Series::new("FIFO mix 4/2VCs", mixed.clone()),
        Series::new(
            "QoS 2/1+2/1VCs",
            mixed.with_qos(QosConfig::partitioned(2, 1)),
        ),
    ];
    scenario(
        format!(
            "QoS Dragonfly: control/bulk classes at an equal 4/2 budget (h = {})",
            scale.h
        ),
        "Multi-class traffic on the Dragonfly under MIN: a single-class \
         FlexVC 4/2 reference vs the same total VC budget carrying a 5% \
         control trickle, FIFO (no QoS) and strict-priority over \
         class-partitioned 2/1+2/1 budgets. Per-class accepted load and \
         tail latency land in the control_*/bulk_* CSV columns and the \
         per-class markdown grids; the single-class series tags every \
         packet Bulk.",
        &scale.seeds,
        sweep("UN", &series, &PAPER_LOADS),
    )
}

/// `qos-hyperx`: the dynamic-allocation variant on the 2-D HyperX —
/// class-partitioned budgets (2+2 of 4 VCs, all local on this family)
/// against shared budgets with the occupancy-driven buffer repartitioner,
/// both over the same single-class reference.
fn qos_hyperx(scale: &Scale) -> Scenario {
    let (s, _) = hyperx_shape(2);
    let mk = |mix: bool| -> SimConfig {
        let wl = Workload::oblivious(Pattern::Uniform);
        let wl = if mix {
            wl.with_mix(QOS_CONTROL_FRACTION)
        } else {
            wl
        };
        hyperx_base(scale, 2, RoutingMode::Min, wl).with_flexvc(Arrangement::generic(4))
    };
    let series = [
        Series::new("Single 4VCs", mk(false)),
        Series::new(
            "QoS 2+2VCs",
            mk(true).with_qos(QosConfig::partitioned(2, 0)),
        ),
        Series::new(
            "QoS dyn 4VCs",
            mk(true).with_qos(QosConfig::shared().with_repartition()),
        ),
    ];
    scenario(
        format!("QoS HyperX 2-D ({s}x{s} routers): static vs dynamic VC allocation"),
        "Multi-class traffic on the 2-D HyperX under MIN at a 4-VC budget: \
         a single-class FlexVC reference vs a 5% control trickle under \
         strict priority with hard-partitioned 2+2 budgets and with shared \
         budgets plus the dynamic per-class buffer repartitioner (bulk \
         occupancy pressure reclaims idle control credit, floored at one \
         packet per class).",
        &scale.seeds,
        sweep("UN", &series, &PAPER_LOADS),
    )
}

/// `smoke`: always tiny, for CI and a first `flexvc run smoke` after
/// checkout; it ignores the ambient scale.
fn smoke(_scale: &Scale) -> Scenario {
    let mut base =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    base.warmup = 300;
    base.measure = 600;
    base.watchdog = 3_000;
    let series = [
        Series::new("Baseline", base.clone()),
        Series::new("FlexVC 4/2", base.with_flexvc(Arrangement::dragonfly(4, 2))),
    ];
    scenario(
        "Smoke: 30-second sanity run (h = 2, tiny windows)",
        "Four tiny points (Baseline vs FlexVC 4/2 at loads 0.3/0.9) to check \
         the toolchain end-to-end; ignores the scale flags.",
        &[1],
        sweep("", &series, &[0.3, 0.9]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_scale() -> Scale {
        Scale {
            h: 2,
            seeds: vec![1],
            warmup: 100,
            measure: 200,
        }
    }

    #[test]
    fn catalogue_holds_every_scenario_in_order() {
        let names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "tables",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "ablations",
                "hyperx-un-2d",
                "hyperx-un-3d",
                "hyperx-adv-2d",
                "hyperx-adv-3d",
                "hyperx-k2",
                "dfplus-un",
                "dfplus-adv",
                "dragonfly-paper",
                "hyperx-paper",
                "dfplus-paper",
                "flows-un",
                "flows-permutation",
                "flows-incast",
                "qos-dragonfly",
                "qos-hyperx",
                "smoke",
            ]
        );
    }

    /// Names are unique, so [`lookup`] finds each entry itself.
    #[test]
    fn catalogue_names_are_unique() {
        for entry in &CATALOGUE {
            let found = lookup(entry.name).expect("every name is found");
            assert!(std::ptr::eq(found, entry), "`{}` is shadowed", entry.name);
        }
        assert!(lookup("no-such-scenario").is_none());
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
        for s in hyperx_k2(&scale).points {
            s.cfg
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.series));
        }
    }
}
