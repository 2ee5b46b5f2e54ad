//! Built-in scenario definitions: the nine paper reproductions that used
//! to be one binary each (`fig5` … `fig11`, `tables`, `ablations`), the
//! `hyperx-{un,adv}-{2d,3d}` HyperX family, and a tiny `smoke` scenario
//! for CI and quick installs.
//!
//! Each builder expands a [`Scale`] into pure data — every knob the old
//! `main` hard-coded is now a field on a [`PointSpec`], so `flexvc show
//! <name>` serializes the exact experiment and a user can edit and re-run
//! it without touching Rust.

use super::{ClassificationSpec, ClassifyKind, PointSpec, Scenario};
use crate::{
    adaptive_series, default_loads, dfplus_series, flow_series, hyperx_k2_series, hyperx_series,
    oblivious_series, reactive_series, Scale, Series,
};
use flexvc_core::classify::NetworkFamily;
use flexvc_core::{Arrangement, RoutingMode, VcSelection};
use flexvc_sim::{BufferOrg, BufferSizing, QosConfig, SensingConfig, SensingMode, SimConfig};
use flexvc_traffic::{FlowSpec, Pattern, SizeDist, Workload};

const PATTERNS: [Pattern; 3] = [
    Pattern::Uniform,
    Pattern::BurstyUniform { mean_burst: 5.0 },
    Pattern::Adversarial { offset: 1 },
];

/// Sweep every series over the default loads, prefixing series labels with
/// the pattern.
fn sweep_points(pattern: Pattern, series: &[Series], loads: &[f64]) -> Vec<PointSpec> {
    series
        .iter()
        .flat_map(|s| {
            loads.iter().map(move |&load| PointSpec {
                series: format!("{}/{}", pattern.label(), s.label),
                x: format!("{load:.2}"),
                load,
                cfg: s.cfg.clone(),
            })
        })
        .collect()
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

pub(super) fn fig5(scale: &Scale) -> Scenario {
    let loads = default_loads();
    let points = PATTERNS
        .iter()
        .flat_map(|&p| sweep_points(p, &oblivious_series(scale, p), &loads))
        .collect();
    Scenario {
        name: "fig5".into(),
        title: format!("Figure 5: oblivious routing (h = {})", scale.h),
        description: "Latency and throughput vs offered load under oblivious routing — \
                      UN and BURSTY-UN with MIN, ADV with VAL — for Baseline, DAMQ 75%, \
                      and FlexVC with 2/1, 4/2 and 8/4 VCs."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn fig6(scale: &Scale) -> Scenario {
    Scenario {
        name: "fig6".into(),
        title: format!(
            "Figure 6: max throughput vs per-port buffer capacity (h = {}, speedup 2)",
            scale.h
        ),
        description: "Maximum throughput for constant buffer capacity per port (64/256 … \
                      256/1024 phits local/global), oblivious routing. FlexVC splits the \
                      same memory over more VCs; all series use identical per-port storage."
            .into(),
        seeds: scale.seeds.clone(),
        points: capacity_points(scale, 2),
        classifications: Vec::new(),
    }
}

pub(super) fn fig7(scale: &Scale) -> Scenario {
    let loads = default_loads();
    let points = PATTERNS
        .iter()
        .flat_map(|&p| sweep_points(p, &reactive_series(scale, p), &loads))
        .collect();
    Scenario {
        name: "fig7".into(),
        title: format!("Figure 7: request-reply traffic (h = {})", scale.h),
        description: "Latency and throughput under request–reply traffic with oblivious \
                      routing; FlexVC request/reply VC splits (4/2, 5/3, 6/4 for \
                      UN/BURSTY-UN; 8/4 and 10/6 for ADV)."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn fig8(scale: &Scale) -> Scenario {
    let loads = default_loads();
    let points = PATTERNS
        .iter()
        .flat_map(|&p| sweep_points(p, &adaptive_series(scale, p), &loads))
        .collect();
    Scenario {
        name: "fig8".into(),
        title: format!(
            "Figure 8: adaptive routing (PB) with request-reply traffic (h = {})",
            scale.h
        ),
        description: "Piggyback source-adaptive routing with request–reply traffic: \
                      per-port vs per-VC sensing, baseline (4/2+4/2 VCs) vs FlexVC \
                      (4/2+2/1) vs FlexVC-minCred."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn fig9(scale: &Scale) -> Scenario {
    let wl = Workload::reactive(Pattern::Uniform);
    let base = scale.config(RoutingMode::Min, wl);
    let splits: [((usize, usize), (usize, usize)); 6] = [
        ((2, 1), (2, 1)),
        ((2, 1), (3, 2)),
        ((3, 2), (2, 1)),
        ((2, 1), (4, 3)),
        ((3, 2), (3, 2)),
        ((4, 3), (2, 1)),
    ];
    let split_label = |req: (usize, usize), rep: (usize, usize)| {
        format!(
            "{}/{}({}/{}+{}/{})",
            req.0 + rep.0,
            req.1 + rep.1,
            req.0,
            req.1,
            rep.0,
            rep.1
        )
    };
    let mut points = Vec::new();
    // Reference rows: baseline and DAMQ use the fixed 2/1+2/1 split —
    // exactly the first column — so each is one simulation, not one per
    // column (the other columns render as `—`).
    for (label, cfg) in [
        ("Baseline", base.clone()),
        ("DAMQ 75%", base.clone().with_damq75()),
    ] {
        points.push(PointSpec {
            series: label.to_string(),
            x: split_label(splits[0].0, splits[0].1),
            load: 1.0,
            cfg,
        });
    }
    for sel in VcSelection::all() {
        for (req, rep) in splits {
            let mut cfg = base
                .clone()
                .with_flexvc(Arrangement::dragonfly_rr(req, rep));
            cfg.selection = sel;
            points.push(PointSpec {
                series: format!("FlexVC {sel}"),
                x: split_label(req, rep),
                load: 1.0,
                cfg,
            });
        }
    }
    Scenario {
        name: "fig9".into(),
        title: format!(
            "Figure 9: VC selection functions at 100% load, UN-RR, MIN (h = {})",
            scale.h
        ),
        description: "Throughput at 100% offered load under UN request–reply traffic, \
                      for each VC selection function × request/reply VC split."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn fig10(scale: &Scale) -> Scenario {
    let loads = default_loads();
    let mut points = Vec::new();
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
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
        for &load in &loads {
            points.push(PointSpec {
                series: format!(
                    "{} phits private ({:.0}%)",
                    (64.0 * frac) as u32,
                    frac * 100.0
                ),
                x: format!("{load:.2}"),
                load,
                cfg: cfg.clone(),
            });
        }
    }
    Scenario {
        name: "fig10".into(),
        title: format!(
            "Figure 10: DAMQ private reservation sweep (h = {})",
            scale.h
        ),
        description: "DAMQ private-reservation sweep under UN traffic with MIN routing \
                      (2/1 VCs, 128/512 phits per port): 0% private deadlocks (DL cells), \
                      75% is optimal, 100% equals statically partitioned buffers."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn fig11(scale: &Scale) -> Scenario {
    Scenario {
        name: "fig11".into(),
        title: format!(
            "Figure 11: max throughput without router speedup (h = {})",
            scale.h
        ),
        description: "The Figure 6 buffer-capacity study repeated without router speedup \
                      (crossbar at link frequency), where HoLB is strongest and FlexVC \
                      gains the most (up to +37.8% in the paper)."
            .into(),
        seeds: scale.seeds.clone(),
        points: capacity_points(scale, 1),
        classifications: Vec::new(),
    }
}

pub(super) fn tables(scale: &Scale) -> Scenario {
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
    Scenario {
        name: "tables".into(),
        title: "Tables I-IV: path classification (Safe / opport. / X)".into(),
        description: format!(
            "Analytic reproduction of the paper's classification tables; no simulation. \
             Current scale for the simulation scenarios: h = {}, seeds {:?}, warmup {}, \
             measure {} cycles.",
            scale.h, scale.seeds, scale.warmup, scale.measure
        ),
        seeds: scale.seeds.clone(),
        points: Vec::new(),
        classifications,
    }
}

pub(super) fn ablations(scale: &Scale) -> Scenario {
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

    Scenario {
        name: "ablations".into(),
        title: "Ablations: occupancy fingerprints, patience, PB threshold, reply queue".into(),
        description: "Ablation studies for the design choices called out in DESIGN.md: \
                      (1) per-VC occupancy fingerprints under ADV (occupancy vectors in \
                      the JSON/CSV output), (2) opportunistic reversion patience, \
                      (3) PB threshold T sensitivity, (4) reply-queue depth."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

/// The `hyperx` scenario family: UN and ADV load sweeps on 2-D and 3-D
/// HyperX networks, baseline policy vs FlexVC at equal and enlarged VC
/// budgets — the paper's framework on a topology the seed never modeled
/// (cf. "Analysing Mechanisms for Virtual Channel Management in
/// Low-Diameter networks", arXiv 2306.13042).
fn hyperx(scale: &Scale, n_dims: usize, pattern: Pattern) -> Scenario {
    let loads = default_loads();
    let series = hyperx_series(scale, n_dims, pattern);
    let points = sweep_points(pattern, &series, &loads);
    let (s, p) = crate::hyperx_shape(n_dims);
    let name = format!("hyperx-{}-{n_dims}d", pattern.label().to_ascii_lowercase());
    let routing = flexvc_sim::paper_routing_for(pattern);
    Scenario {
        name: name.clone(),
        title: format!(
            "HyperX {n_dims}-D ({s}^{n_dims} routers x {p} terminals): {} under {routing}",
            pattern.label()
        ),
        description: format!(
            "Latency and throughput vs offered load on a {n_dims}-dimensional HyperX \
             (diameter {n_dims}, single link class, dimension-ordered minimal routes) \
             under {} traffic with {routing} routing: baseline distance-based policy \
             vs FlexVC at the same and at enlarged VC budgets (references T^{n_dims} \
             for MIN, T^{} for VAL).",
            pattern.label(),
            2 * n_dims,
        ),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn hyperx_un_2d(scale: &Scale) -> Scenario {
    hyperx(scale, 2, Pattern::Uniform)
}

pub(super) fn hyperx_un_3d(scale: &Scale) -> Scenario {
    hyperx(scale, 3, Pattern::Uniform)
}

pub(super) fn hyperx_adv_2d(scale: &Scale) -> Scenario {
    hyperx(scale, 2, Pattern::adv1())
}

pub(super) fn hyperx_adv_3d(scale: &Scale) -> Scenario {
    hyperx(scale, 3, Pattern::adv1())
}

/// `hyperx-k2`: the `k > 1` link-multiplicity regression — hash-spread vs
/// adaptive (sensed per-copy occupancy) parallel-copy selection on a 2-D
/// HyperX with doubled links, under UN and ADV+1. The acceptance shape:
/// adaptive is no worse than hash under UN and strictly better under ADV
/// (the endpoint hash pins each router pair to one copy, so the
/// adversarial funnel wastes half the doubled bisection).
pub(super) fn hyperx_k2(scale: &Scale) -> Scenario {
    let loads = default_loads();
    let points = [Pattern::Uniform, Pattern::adv1()]
        .iter()
        .flat_map(|&p| sweep_points(p, &hyperx_k2_series(scale, p), &loads))
        .collect();
    let (s, _) = crate::hyperx_shape(2);
    Scenario {
        name: "hyperx-k2".into(),
        title: format!("HyperX 2-D k=2 ({s}x{s} routers, doubled links): copy selection"),
        description: "Adaptive parallel-copy selection vs the static endpoint hash on a \
                      2-D HyperX with k = 2 link multiplicity, MIN routing, UN and ADV+1 \
                      traffic. The hash routes every (src router, dst router) pair over \
                      one fixed copy; the adaptive policy picks the least-occupied copy \
                      per hop from local credit state."
            .into(),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

/// The `dfplus` scenario family: UN and ADV load sweeps on a Dragonfly+
/// (Megafly) network — the third low-diameter family of the evaluation
/// line (cf. arXiv 2306.13042, which evaluates Dragonfly+ alongside
/// HyperX and Dragonfly). Groups are two-level fat trees; ADV+1 funnels
/// each group's minimal traffic onto a single inter-group link, which the
/// adaptive cross-section (UGAL-L/G, PB) spreads.
fn dfplus(scale: &Scale, pattern: Pattern) -> Scenario {
    let loads = default_loads();
    let series = dfplus_series(scale, pattern);
    let points = sweep_points(pattern, &series, &loads);
    let (leaves, spines, hosts, groups) = crate::dfplus_shape();
    let name = format!("dfplus-{}", pattern.label().to_ascii_lowercase());
    let routing = flexvc_sim::paper_routing_for(pattern);
    Scenario {
        name: name.clone(),
        title: format!(
            "Dragonfly+ ({groups} groups x {leaves}+{spines} routers, {hosts} hosts/leaf): \
             {} under {routing}",
            pattern.label()
        ),
        description: format!(
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
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn dfplus_un(scale: &Scale) -> Scenario {
    dfplus(scale, Pattern::Uniform)
}

pub(super) fn dfplus_adv(scale: &Scale) -> Scenario {
    dfplus(scale, Pattern::adv1())
}

/// Shared shape of the `*-paper` scenarios: a reduced load set (ramp to
/// saturation in four steps) over Baseline vs FlexVC series — the point of
/// these scenarios is the *network size*, not legend coverage.
const PAPER_LOADS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

fn paper_points(pattern: Pattern, series: &[Series]) -> Vec<PointSpec> {
    sweep_points(pattern, series, &PAPER_LOADS)
}

/// `dragonfly-paper`: the full Table V `h = 8` balanced Dragonfly (2,064
/// routers, 16,512 nodes) — the scale the paper actually simulates, parked
/// on the roadmap until the sharded engine landed. Windows and seeds follow
/// the ambient [`Scale`] (use `--paper` for the 5×60k-cycle paper
/// methodology); run with `--shards 0` to spread each point's event loop
/// over the host's cores.
pub(super) fn dragonfly_paper(scale: &Scale) -> Scenario {
    let wl = Workload::oblivious(Pattern::Uniform);
    let base = scale.windowed(SimConfig::dragonfly_baseline(8, RoutingMode::Min, wl));
    let series = [
        Series::new("Baseline", base.clone()),
        Series::new(
            "FlexVC 4/2VCs",
            base.with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
    ];
    Scenario {
        name: "dragonfly-paper".into(),
        title: "Dragonfly h=8 (2,064 routers, Table V scale): UN under MIN".into(),
        description: "The paper's full-size balanced Dragonfly (p=8, a=16, g=129): UN \
                      load ramp, baseline policy vs FlexVC 4/2. Sized for the sharded \
                      engine — pass --shards 0 (auto) or --shards N to parallelize each \
                      point; results are bit-identical for every shard count."
            .into(),
        seeds: scale.seeds.clone(),
        points: paper_points(Pattern::Uniform, &series),
        classifications: Vec::new(),
    }
}

/// `hyperx-paper`: a 16³ HyperX (4,096 routers, diameter 3) — the largest
/// topology of the follow-up VC-management analysis (arXiv 2306.13042),
/// far beyond the single-core sweep budget.
pub(super) fn hyperx_paper(scale: &Scale) -> Scenario {
    let base = scale.windowed(SimConfig::hyperx_baseline(
        3,
        16,
        4,
        RoutingMode::Min,
        Workload::oblivious(Pattern::Uniform),
    ));
    let series = [
        Series::new("Baseline", base.clone()),
        Series::new("FlexVC 5VCs", base.with_flexvc(Arrangement::generic(5))),
    ];
    Scenario {
        name: "hyperx-paper".into(),
        title: "HyperX 16^3 (4,096 routers x 4 terminals): UN under MIN".into(),
        description: "Paper-scale 3-D HyperX (16 routers per dimension, diameter 3, \
                      single link class): UN load ramp, baseline policy vs FlexVC at \
                      an enlarged budget. Sized for the sharded engine — pass \
                      --shards 0/N to parallelize each point."
            .into(),
        seeds: scale.seeds.clone(),
        points: paper_points(Pattern::Uniform, &series),
        classifications: Vec::new(),
    }
}

/// `dfplus-paper`: a megafly-sized Dragonfly+ — 33 groups of 16+16
/// routers (1,056 routers, 4,224 nodes), every spine holding two global
/// links, matching the megafly configurations of the Dragonfly+ litera-
/// ture rather than the registry's laptop-sized 9-group instance.
pub(super) fn dfplus_paper(scale: &Scale) -> Scenario {
    let base = scale.windowed(SimConfig::dfplus_baseline(
        16,
        16,
        8,
        33,
        RoutingMode::Min,
        Workload::oblivious(Pattern::Uniform),
    ));
    let series = [
        Series::new("Baseline", base.clone()),
        Series::new(
            "FlexVC 4/2VCs",
            base.with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
    ];
    Scenario {
        name: "dfplus-paper".into(),
        title: "Dragonfly+ megafly (33 groups x 16+16 routers, 4,224 nodes): UN under MIN".into(),
        description: "Megafly-sized Dragonfly+ (two-level fat-tree groups, 16 leaves + \
                      16 spines each, 8 hosts per leaf, 33 groups): UN load ramp, \
                      baseline policy vs FlexVC 4/2. Sized for the sharded engine — \
                      pass --shards 0/N to parallelize each point."
            .into(),
        seeds: scale.seeds.clone(),
        points: paper_points(Pattern::Uniform, &series),
        classifications: Vec::new(),
    }
}

/// Shared shape of the `flows-*` scenarios: a flow workload swept over the
/// default loads on Dragonfly + 2-D HyperX, FlexVC vs baseline at the
/// equal (reference-minimum) VC budget. Series labels are prefixed with
/// the workload label (`FLOWS-UN/DF Baseline`, `PERM/BIMODAL/HX FlexVC
/// 2VCs`, …) so FCT curves group by pattern exactly like the packet-level
/// sweeps group by [`Pattern`].
fn flows(scale: &Scale, spec: FlowSpec, name: &str, headline: &str, detail: &str) -> Scenario {
    let loads = default_loads();
    let label = Workload::flows(spec).label();
    let points = flow_series(scale, spec)
        .iter()
        .flat_map(|s| {
            let series = format!("{label}/{}", s.label);
            loads.iter().map(move |&load| PointSpec {
                series: series.clone(),
                x: format!("{load:.2}"),
                load,
                cfg: s.cfg.clone(),
            })
        })
        .collect();
    Scenario {
        name: name.into(),
        title: format!("Flows: {headline} (h = {}, HyperX 4x4)", scale.h),
        description: format!(
            "{detail} Open-loop flow arrivals emit per-flow packet trains at line \
             rate; reports add flow completion time (p50/p99) and slowdown \
             (FCT / ideal serialization time) per point. FlexVC vs baseline at \
             the equal reference-minimum VC budget under MIN, on the Dragonfly \
             and a 2-D HyperX."
        ),
        seeds: scale.seeds.clone(),
        points,
        classifications: Vec::new(),
    }
}

pub(super) fn flows_un(scale: &Scale) -> Scenario {
    flows(
        scale,
        FlowSpec::uniform(SizeDist::mice_elephants()),
        "flows-un",
        "uniform mice/elephants",
        "Uniform destinations with the bimodal mice/elephants size mix \
         (90% 1-packet mice, 10% 16-packet elephants).",
    )
}

pub(super) fn flows_permutation(scale: &Scale) -> Scenario {
    flows(
        scale,
        FlowSpec::permutation(SizeDist::heavy_tail()),
        "flows-permutation",
        "random permutation, heavy-tail sizes",
        "A seed-fixed random permutation (each node sends every flow to one \
         partner) with bounded-Pareto flow sizes (1..=64 packets, alpha 1.5).",
    )
}

pub(super) fn flows_incast(scale: &Scale) -> Scenario {
    flows(
        scale,
        FlowSpec::incast(4, SizeDist::Fixed { packets: 4 }),
        "flows-incast",
        "4-to-1 incast phases",
        "Rotating collective phases: blocks of 5 nodes, 4 senders target the \
         block's receiver for 2,000 cycles before the role rotates; 4-packet \
         fixed-size flows.",
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
pub(super) fn qos_dragonfly(scale: &Scale) -> Scenario {
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
    Scenario {
        name: "qos-dragonfly".into(),
        title: format!(
            "QoS Dragonfly: control/bulk classes at an equal 4/2 budget (h = {})",
            scale.h
        ),
        description: "Multi-class traffic on the Dragonfly under MIN: a single-class \
                      FlexVC 4/2 reference vs the same total VC budget carrying a 5% \
                      control trickle, FIFO (no QoS) and strict-priority over \
                      class-partitioned 2/1+2/1 budgets. Per-class accepted load and \
                      tail latency land in the control_*/bulk_* CSV columns and the \
                      per-class markdown grids; the single-class series tags every \
                      packet Bulk."
            .into(),
        seeds: scale.seeds.clone(),
        points: sweep_points(Pattern::Uniform, &series, &PAPER_LOADS),
        classifications: Vec::new(),
    }
}

/// `qos-hyperx`: the dynamic-allocation variant on the 2-D HyperX —
/// class-partitioned budgets (2+2 of 4 VCs, all local on this family)
/// against shared budgets with the occupancy-driven buffer repartitioner,
/// both over the same single-class reference.
pub(super) fn qos_hyperx(scale: &Scale) -> Scenario {
    let (s, p) = crate::hyperx_shape(2);
    let mk = |mix: bool| -> SimConfig {
        let wl = Workload::oblivious(Pattern::Uniform);
        let wl = if mix {
            wl.with_mix(QOS_CONTROL_FRACTION)
        } else {
            wl
        };
        let cfg = scale.windowed(SimConfig::hyperx_baseline(2, s, p, RoutingMode::Min, wl));
        cfg.with_flexvc(Arrangement::generic(4))
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
    Scenario {
        name: "qos-hyperx".into(),
        title: format!("QoS HyperX 2-D ({s}x{s} routers): static vs dynamic VC allocation"),
        description: "Multi-class traffic on the 2-D HyperX under MIN at a 4-VC budget: \
                      a single-class FlexVC reference vs a 5% control trickle under \
                      strict priority with hard-partitioned 2+2 budgets and with shared \
                      budgets plus the dynamic per-class buffer repartitioner (bulk \
                      occupancy pressure reclaims idle control credit, floored at one \
                      packet per class)."
            .into(),
        seeds: scale.seeds.clone(),
        points: sweep_points(Pattern::Uniform, &series, &PAPER_LOADS),
        classifications: Vec::new(),
    }
}

pub(super) fn smoke(_scale: &Scale) -> Scenario {
    // Deliberately ignores the ambient scale: always tiny, for CI and a
    // first `flexvc run smoke` after checkout.
    let mut base =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    base.warmup = 300;
    base.measure = 600;
    base.watchdog = 3_000;
    let flex = base.clone().with_flexvc(Arrangement::dragonfly(4, 2));
    let points = [("Baseline", base), ("FlexVC 4/2", flex)]
        .into_iter()
        .flat_map(|(label, cfg)| {
            [0.3, 0.9].into_iter().map(move |load| PointSpec {
                series: label.to_string(),
                x: format!("{load:.2}"),
                load,
                cfg: cfg.clone(),
            })
        })
        .collect();
    Scenario {
        name: "smoke".into(),
        title: "Smoke: 30-second sanity run (h = 2, tiny windows)".into(),
        description: "Four tiny points (Baseline vs FlexVC 4/2 at loads 0.3/0.9) to check \
                      the toolchain end-to-end; ignores the scale flags."
            .into(),
        seeds: vec![1],
        points,
        classifications: Vec::new(),
    }
}
