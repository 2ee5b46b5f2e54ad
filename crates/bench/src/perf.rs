//! `flexvc bench` — the fixed engine-performance kernel suite.
//!
//! Runs a deterministic set of simulation kernels and emits a
//! machine-readable report (`BENCH_pr10.json`), establishing the repo's
//! performance trajectory. Each kernel gets untimed warmup iterations and
//! then repeats its timed run until a measured-cycles floor, so short
//! kernels don't turn timer jitter into phantom regressions; the gate
//! compares per-group *geomeans*, weighing every kernel equally. Nine
//! kernel groups:
//!
//! * **fig5_h2** — the Fig. 5 oblivious-routing suite at h = 2 (baseline,
//!   DAMQ 75%, FlexVC 2/1, 4/2 and 8/4 under MIN/UN) over the
//!   pre-saturation load sweep. This is the reference kernel for the
//!   engine-speedup criterion.
//! * **sweep_h4** — baseline + FlexVC 4/2 at h = 4 (264 routers), the
//!   intermediate scale.
//! * **hyperx** — the generic-diameter engine path on 2-D/3-D HyperX
//!   networks (DOR plans, per-dimension escapes, opportunistic VAL).
//! * **adaptive** — the RoutePolicy decision layer under adversarial
//!   load: UGAL-L/G source adaptivity, DAL per-dimension misrouting and
//!   adaptive `k = 2` copy selection.
//! * **dfplus** — the Dragonfly+ fat-tree engine path (two-level groups,
//!   spine global links with boards, leaf-restricted Valiant) under UN
//!   and adversarial load.
//! * **flows** — the flow/message workload layer (open-loop flow
//!   arrivals, per-flow packet trains, FCT accounting): uniform
//!   mice/elephants on the h = 2 Dragonfly (baseline and FlexVC 2/1),
//!   heavy-tail permutation flows on a 2-D HyperX, and a 4-to-1 incast.
//!   Exercises the per-node flow state and the FCT histogram path on
//!   top of the usual stepping cost.
//! * **qos** — the multi-class QoS engine path: strict-priority
//!   arbitration with the bounded bypass, class-partitioned VC masks,
//!   shared budgets under priority, and the dynamic per-class buffer
//!   repartitioner, with a control trickle mixed onto the bulk plane on
//!   the Dragonfly (MIN and VAL/ADV) and the 2-D HyperX. Exercises the
//!   class tagging, per-class metrics and the priority grant loop on top
//!   of the usual stepping cost.
//! * **smoke_h8** — a short measurement window at the paper's full h = 8
//!   scale (2,064 routers, 16,512 nodes), proving paper-scale runs are
//!   tractable on one core.
//! * **paper** — the paper-scale topologies of the `*-paper` scenarios
//!   (h = 8 Dragonfly, 16³ HyperX, megafly Dragonfly+), pairing a
//!   `shards = 1` kernel with a `shards = 2` twin on the same
//!   configuration so the report records the two-thread speedup directly
//!   (`_s1` vs `_s2` kernel names; both are cache-blocked). The ratio
//!   only reads above 1 on multi-core hosts; on a single core it reads
//!   the residual barrier overhead (≤ 1 by construction). Per-worker
//!   partition, block and imbalance stats and the boundary events per
//!   epoch are recorded alongside.
//!
//! Speedups are computed against cycles/sec recorded from the
//! pre-refactor (full-sweep) engine on the *same kernels and hardware*
//! immediately before the active-set rewrite landed; on different
//! hardware the absolute numbers shift but the ratio stays indicative
//! because both engines are memory-bound on the same structures.

use flexvc_core::{Arrangement, RoutingMode};
use flexvc_serde::{Deserialize, Error as DeError, Map, Serialize, Value};
use flexvc_sim::prelude::*;
use flexvc_traffic::{FlowSpec, Pattern, SizeDist, Workload};
use std::time::Instant;

/// Cycles/sec of the pre-refactor engine on this suite (recorded on the
/// development machine, single-core, best of three runs, at the commit
/// immediately preceding the active-set rewrite). See the module docs for
/// how to interpret these on other hardware.
pub mod recorded_baseline {
    /// Aggregate cycles/sec over the `fig5_h2` kernel group.
    pub const FIG5_H2: f64 = 39_043.0;
    /// Aggregate cycles/sec over the `sweep_h4` kernel group.
    pub const SWEEP_H4: f64 = 1_387.0;
    /// Aggregate cycles/sec over the `smoke_h8` kernel group.
    pub const SMOKE_H8: f64 = 63.0;
    /// Aggregate cycles/sec over the `hyperx` kernel group, recorded at
    /// the commit that *introduced* the HyperX topology (same machine and
    /// methodology as the other groups, full profile, best of three). A
    /// ~1.0x speedup is the expected reading until a later optimization
    /// moves it; the entry anchors the trajectory for the generic-diameter
    /// engine path.
    pub const HYPERX: f64 = 150_485.0;
    /// Aggregate cycles/sec over the `adaptive` kernel group (UGAL-L/G,
    /// DAL and adaptive `k = 2` copy selection), recorded at the commit
    /// that introduced the RoutePolicy decision layer — the anchor for the
    /// adaptive-routing engine path, expected to read ~1.0x until a later
    /// optimization moves it.
    pub const ADAPTIVE: f64 = 68_879.0;
    /// Aggregate cycles/sec over the `dfplus` kernel group (Dragonfly+
    /// fat-tree groups: MIN/UN, FlexVC, VAL and UGAL-G under ADV),
    /// recorded at the commit that introduced the Dragonfly+ topology —
    /// the anchor for the fat-tree engine path, expected to read ~1.0x
    /// until a later optimization moves it.
    pub const DFPLUS: f64 = 58_996.0;
    /// Aggregate cycles/sec over the `flows` kernel group (flow-workload
    /// generation + FCT accounting on h = 2 Dragonfly and 2-D HyperX),
    /// recorded at the commit that introduced the flow layer — the anchor
    /// for the flow-workload engine path, expected to read ~1.0x until a
    /// later optimization moves it.
    pub const FLOWS: f64 = 162_842.0;
    /// Aggregate cycles/sec over the `qos` kernel group (strict-priority
    /// arbitration, class masks and the buffer repartitioner under a
    /// mixed-class workload), recorded at the commit that introduced
    /// multi-class QoS — the anchor for the priority engine path,
    /// expected to read ~1.0x until a later optimization moves it.
    pub const QOS: f64 = 53_739.0;
    /// Aggregate cycles/sec over the `paper` kernel group (paper-scale
    /// topologies through the sharded engine, `shards = 1` and
    /// `shards = 2` twins), recorded at the commit that introduced engine
    /// sharding — on the single-core recording machine the two twins run
    /// at essentially the same rate, so this anchors the *overhead* of the
    /// boundary exchange, not a parallel speedup.
    pub const PAPER: f64 = 153.0;
}

/// One kernel: a named `(config, load, seed)` point with fixed windows.
pub struct Kernel {
    /// Kernel name (`group/series@load`).
    pub name: String,
    /// Group the kernel aggregates into.
    pub group: &'static str,
    /// Full configuration (windows already set).
    pub cfg: SimConfig,
    /// Offered load.
    pub load: f64,
    /// Seed.
    pub seed: u64,
}

/// Result of one kernel run.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Group name.
    pub group: String,
    /// Cycles stepped (warmup + measure), summed over the timed repeats.
    pub cycles: u64,
    /// Wall-clock seconds, summed over the timed repeats.
    pub wall_seconds: f64,
    /// Cycles per second.
    pub cycles_per_sec: f64,
    /// Timed repeats that contributed to `cycles`/`wall_seconds`.
    pub repeats: usize,
    /// Accepted load (sanity signal that the kernel simulated traffic).
    pub accepted: f64,
    /// Whether the run deadlocked (must be false for every kernel).
    pub deadlocked: bool,
    /// Worker threads the kernel ran with (1 = the calling thread only).
    pub shards: usize,
    /// Per-worker partition and work-time stats from the last timed repeat
    /// (empty when the kernel ran as one block: nothing was exchanged).
    pub shard_stats: Vec<KernelShardStat>,
    /// Worker load imbalance: max over mean of the per-worker work seconds
    /// (1.0 = perfectly balanced; 0.0 on one worker).
    pub shard_imbalance: f64,
    /// Boundary events (packets, credits, board publishes) exchanged per
    /// epoch in the last timed repeat — deterministic for a given block
    /// partition; 0.0 when the kernel ran as one block.
    pub events_per_epoch: f64,
}

/// One worker's partition slice and measured work time within a kernel.
#[derive(Debug, Clone)]
pub struct KernelShardStat {
    /// Routers owned by the worker.
    pub routers: u64,
    /// Cache-sized blocks the worker steps its routers in.
    pub blocks: u64,
    /// Partition weight of the worker's range (ports + terminals).
    pub weight: u64,
    /// Wall-clock seconds the shard's worker spent stepping/exchanging
    /// (barrier waits excluded) in the last timed repeat.
    pub work_seconds: f64,
}

/// Aggregate over one kernel group.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Group name.
    pub group: String,
    /// Kernels in the group.
    pub kernels: usize,
    /// Total cycles stepped.
    pub cycles: u64,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Aggregate cycles/sec (total cycles / total wall).
    pub cycles_per_sec: f64,
    /// Geometric mean of the member kernels' cycles/sec. Unlike the
    /// aggregate, every kernel weighs equally regardless of how many
    /// cycles it stepped, so one long kernel can't mask a regression in
    /// a short one — the regression gate compares this.
    pub geomean_cycles_per_sec: f64,
    /// Recorded pre-refactor cycles/sec for the same group.
    pub baseline_cycles_per_sec: f64,
    /// `cycles_per_sec / baseline_cycles_per_sec`.
    pub speedup_vs_baseline: f64,
}

/// The full bench report (serialized to e.g. `BENCH_pr10.json`; older
/// recordings deserialize through the same schema for `--baseline`
/// comparisons — fields added since, like the per-group geomean and the
/// per-shard stats, degrade gracefully).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report schema tag.
    pub schema: String,
    /// Engine identifier.
    pub engine: String,
    /// Whether the quick (CI) windows were used.
    pub quick: bool,
    /// Per-kernel results.
    pub kernels: Vec<KernelResult>,
    /// Per-group aggregates.
    pub groups: Vec<GroupSummary>,
}

/// The fixed kernel-group names, in suite order (`flexvc bench --group`
/// accepts exactly these).
pub fn group_names() -> &'static [&'static str] {
    &[
        "fig5_h2", "sweep_h4", "hyperx", "adaptive", "dfplus", "flows", "qos", "smoke_h8", "paper",
    ]
}

/// Build the fixed kernel suite. `quick` shrinks windows for CI.
pub fn kernel_suite(quick: bool) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    let windows = |cfg: &mut SimConfig, warmup: u64, measure: u64| {
        cfg.warmup = warmup;
        cfg.measure = measure;
        cfg.watchdog = warmup + measure;
    };

    // fig5_h2: the Fig. 5 series under MIN/UN over the pre-saturation
    // sweep (h = 2 saturates UN around ~0.65 accepted; beyond that the
    // latency curves the figure reports are undefined anyway).
    let (warm2, meas2) = if quick {
        (1_000, 2_000)
    } else {
        (2_000, 6_000)
    };
    let base2 = || {
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
    };
    let series2: Vec<(&str, SimConfig)> = vec![
        ("baseline", base2()),
        ("damq75", base2().with_damq75()),
        (
            "flexvc21",
            base2().with_flexvc(Arrangement::dragonfly_min()),
        ),
        (
            "flexvc42",
            base2().with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
        (
            "flexvc84",
            base2().with_flexvc(Arrangement::dragonfly(8, 4)),
        ),
    ];
    for (label, cfg) in series2 {
        for &load in &[0.15, 0.3, 0.45, 0.6] {
            let mut cfg = cfg.clone();
            windows(&mut cfg, warm2, meas2);
            kernels.push(Kernel {
                name: format!("fig5_h2/{label}@{load}"),
                group: "fig5_h2",
                cfg,
                load,
                seed: 1,
            });
        }
    }

    // sweep_h4: intermediate scale. One load point per series — the 0.3
    // points measured the same stepping machinery at lower occupancy and
    // doubled the group's wall-clock (h = 4 steps at ~2k cycles/sec, so
    // every kernel rides the wall floor) without adding regression
    // coverage the 0.6 points don't have.
    let (warm4, meas4) = if quick { (500, 1_000) } else { (1_000, 2_500) };
    let base4 = || {
        SimConfig::dragonfly_baseline(4, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
    };
    let series4: Vec<(&str, SimConfig)> = vec![
        ("baseline", base4()),
        (
            "flexvc42",
            base4().with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
    ];
    for (label, mut cfg) in series4 {
        let load = 0.6;
        windows(&mut cfg, warm4, meas4);
        kernels.push(Kernel {
            name: format!("sweep_h4/{label}@{load}"),
            group: "sweep_h4",
            cfg,
            load,
            seed: 1,
        });
    }

    // hyperx: the generic-diameter engine path (DOR plans, per-dimension
    // escapes, all-port sensing) on the registry's 2-D/3-D shapes.
    let (warm_hx, meas_hx) = if quick { (800, 1_600) } else { (1_500, 4_000) };
    let hx3 = || {
        SimConfig::hyperx_baseline(
            3,
            3,
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )
    };
    let series_hx: Vec<(&str, SimConfig, f64)> = vec![
        ("un3d_baseline", hx3(), 0.3),
        ("un3d_baseline", hx3(), 0.6),
        (
            "un3d_flexvc5",
            hx3().with_flexvc(Arrangement::generic(5)),
            0.6,
        ),
        (
            "adv2d_val_flexvc3",
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Valiant,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(3)),
            0.5,
        ),
    ];
    for (label, cfg, load) in series_hx {
        let mut cfg = cfg;
        windows(&mut cfg, warm_hx, meas_hx);
        kernels.push(Kernel {
            name: format!("hyperx/{label}@{load}"),
            group: "hyperx",
            cfg,
            load,
            seed: 1,
        });
    }

    // adaptive: the RoutePolicy decision layer — UGAL-L/G source
    // adaptivity, DAL per-dimension misrouting, and adaptive k = 2 copy
    // selection — under adversarial load, where the decisions actually
    // fire.
    let (warm_ad, meas_ad) = if quick { (800, 1_600) } else { (1_500, 4_000) };
    let series_ad: Vec<(&str, SimConfig, f64)> = vec![
        (
            "ugal_l_adv3d",
            SimConfig::hyperx_baseline(
                3,
                3,
                2,
                RoutingMode::UgalL,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(6)),
            0.6,
        ),
        (
            "ugal_g_adv3d",
            SimConfig::hyperx_baseline(
                3,
                3,
                2,
                RoutingMode::UgalG,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(6)),
            0.6,
        ),
        (
            "dal_adv2d",
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Dal,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(4)),
            0.7,
        ),
        (
            "k2_adaptive_adv",
            {
                let mut cfg = SimConfig::hyperx_baseline(
                    2,
                    4,
                    2,
                    RoutingMode::Min,
                    Workload::oblivious(Pattern::adv1()),
                );
                cfg.topology = flexvc_sim::TopologySpec::HyperX {
                    dims: vec![(4, 2); 2],
                    p: 2,
                };
                cfg.adaptive_copies = true;
                cfg
            },
            0.8,
        ),
    ];
    for (label, cfg, load) in series_ad {
        let mut cfg = cfg;
        windows(&mut cfg, warm_ad, meas_ad);
        kernels.push(Kernel {
            name: format!("adaptive/{label}@{load}"),
            group: "adaptive",
            cfg,
            load,
            seed: 1,
        });
    }

    // dfplus: the Dragonfly+ fat-tree engine path — hierarchical two-hop
    // intra-group routes, spine-owned global links with boards, and the
    // leaf-restricted Valiant draw — under UN and adversarial load.
    let (warm_dp, meas_dp) = if quick { (800, 1_600) } else { (1_500, 4_000) };
    let dp = |routing: RoutingMode, pattern: Pattern| {
        SimConfig::dfplus_baseline(4, 4, 2, 9, routing, Workload::oblivious(pattern))
    };
    let series_dp: Vec<(&str, SimConfig, f64)> = vec![
        ("un_baseline", dp(RoutingMode::Min, Pattern::Uniform), 0.5),
        (
            "un_flexvc21",
            dp(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly_min()),
            0.5,
        ),
        (
            "adv_val_flexvc42",
            dp(RoutingMode::Valiant, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
            0.5,
        ),
        (
            "adv_ugal_g_flexvc42",
            dp(RoutingMode::UgalG, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
            0.5,
        ),
    ];
    for (label, cfg, load) in series_dp {
        let mut cfg = cfg;
        windows(&mut cfg, warm_dp, meas_dp);
        kernels.push(Kernel {
            name: format!("dfplus/{label}@{load}"),
            group: "dfplus",
            cfg,
            load,
            seed: 1,
        });
    }

    // flows: the flow-workload layer — open-loop flow arrivals, per-flow
    // packet trains and FCT accounting — on small shapes where the flow
    // bookkeeping is a visible fraction of the stepping cost.
    let (warm_fl, meas_fl) = if quick { (800, 1_600) } else { (1_500, 4_000) };
    let df_flows =
        |spec: FlowSpec| SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::flows(spec));
    let series_fl: Vec<(&str, SimConfig, f64)> = vec![
        (
            "un_bimodal_baseline",
            df_flows(FlowSpec::uniform(SizeDist::mice_elephants())),
            0.4,
        ),
        (
            "un_bimodal_flexvc21",
            df_flows(FlowSpec::uniform(SizeDist::mice_elephants()))
                .with_flexvc(Arrangement::dragonfly_min()),
            0.4,
        ),
        (
            "perm_pareto_hyperx2d",
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Min,
                Workload::flows(FlowSpec::permutation(SizeDist::heavy_tail())),
            ),
            0.4,
        ),
        (
            "incast4_baseline",
            df_flows(FlowSpec::incast(4, SizeDist::Fixed { packets: 4 })),
            0.3,
        ),
    ];
    for (label, cfg, load) in series_fl {
        let mut cfg = cfg;
        windows(&mut cfg, warm_fl, meas_fl);
        kernels.push(Kernel {
            name: format!("flows/{label}@{load}"),
            group: "flows",
            cfg,
            load,
            seed: 1,
        });
    }

    // qos: the multi-class QoS engine path — class tagging, strict
    // priority with the bounded bypass, partitioned VC masks, shared
    // budgets under priority and the dynamic buffer repartitioner — with
    // a 5% control trickle mixed onto the bulk plane, at loads where the
    // priority grant loop actually arbitrates between the classes.
    let (warm_q, meas_q) = if quick { (800, 1_600) } else { (1_500, 4_000) };
    let df_qos = |routing: RoutingMode, pattern: Pattern| {
        SimConfig::dragonfly_baseline(2, routing, Workload::oblivious(pattern).with_mix(0.05))
            .with_flexvc(Arrangement::dragonfly(4, 2))
    };
    let series_q: Vec<(&str, SimConfig, f64)> = vec![
        (
            "min_part21_df42",
            df_qos(RoutingMode::Min, Pattern::Uniform).with_qos(QosConfig::partitioned(2, 1)),
            0.6,
        ),
        (
            "min_shared_prio_df42",
            df_qos(RoutingMode::Min, Pattern::Uniform).with_qos(QosConfig::shared()),
            0.6,
        ),
        (
            "val_adv_shared_df42",
            df_qos(RoutingMode::Valiant, Pattern::adv1()).with_qos(QosConfig::shared()),
            0.5,
        ),
        (
            "min_repart_hyperx2d",
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform).with_mix(0.05),
            )
            .with_flexvc(Arrangement::generic(4))
            .with_qos(QosConfig::shared().with_repartition()),
            0.6,
        ),
    ];
    for (label, cfg, load) in series_q {
        let mut cfg = cfg;
        windows(&mut cfg, warm_q, meas_q);
        kernels.push(Kernel {
            name: format!("qos/{label}@{load}"),
            group: "qos",
            cfg,
            load,
            seed: 1,
        });
    }

    // smoke_h8: paper scale, short window.
    let (warm8, meas8) = if quick { (200, 500) } else { (300, 1_200) };
    let mut cfg8 =
        SimConfig::dragonfly_baseline(8, RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    windows(&mut cfg8, warm8, meas8);
    kernels.push(Kernel {
        name: "smoke_h8/baseline@0.25".to_string(),
        group: "smoke_h8",
        cfg: cfg8,
        load: 0.25,
        seed: 1,
    });

    // paper: the `*-paper` scenario topologies through the sharded engine.
    // Each shape is pinned to an explicit shard count so the recorded
    // report carries the `shards = 1` vs `shards = 2` ratio for the same
    // configuration (the dragonfly twins); results are bit-identical
    // across the twins, only wall-clock differs.
    let (warm_p, meas_p) = if quick { (100, 250) } else { (200, 600) };
    let paper_shapes: Vec<(&str, SimConfig, usize)> = vec![
        (
            "dragonfly_h8_s1",
            SimConfig::dragonfly_baseline(
                8,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            ),
            1,
        ),
        (
            "dragonfly_h8_s2",
            SimConfig::dragonfly_baseline(
                8,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            ),
            2,
        ),
        (
            "hyperx16_s2",
            SimConfig::hyperx_baseline(
                3,
                16,
                4,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            ),
            2,
        ),
        (
            "dfplus_megafly_s2",
            SimConfig::dfplus_baseline(
                16,
                16,
                8,
                33,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            ),
            2,
        ),
    ];
    for (label, cfg, shards) in paper_shapes {
        let mut cfg = cfg;
        cfg.shards = shards;
        windows(&mut cfg, warm_p, meas_p);
        kernels.push(Kernel {
            name: format!("paper/{label}@0.25"),
            group: "paper",
            cfg,
            load: 0.25,
            seed: 1,
        });
    }

    kernels
}

/// Per-kernel warmup iterations: untimed runs (shrunk windows) that fault
/// in the allocator arenas, page the simulation structures and train the
/// branch predictors before the timed repeats. One iteration suffices —
/// the dominant first-run effect is cold memory, not icache.
pub const WARMUP_ITERS: usize = 1;
/// Minimum cycles a kernel's *timed* region must accumulate: short
/// kernels repeat (fresh engine, same seed — bit-identical work) until
/// they cross this floor, so a sub-100 ms wall time never turns timer
/// jitter into a phantom regression.
pub const MIN_MEASURED_CYCLES: u64 = 20_000;
/// Early-out for the repeat loop: a kernel whose timed region already
/// spans this much wall-clock is variance-free regardless of its cycle
/// count (the paper-scale kernels step slowly but run for seconds).
pub const MIN_MEASURED_WALL: f64 = 1.0;
/// The wall-clock early-out under `--quick`: CI gates at a loose 15%/10%
/// tolerance, where half a second of timed region is already well clear
/// of timer jitter — the slow kernels (sweep_h4, paper twins) would
/// otherwise spend most of a quick run padding out the full floor.
pub const MIN_MEASURED_WALL_QUICK: f64 = 0.5;
/// Hard cap on timed repeats per kernel.
pub const MAX_REPEATS: usize = 8;

/// Geometric mean of the member kernels' cycles/sec (`None` when empty).
fn geomean(members: &[&KernelResult]) -> Option<f64> {
    if members.is_empty() {
        return None;
    }
    let log_sum: f64 = members
        .iter()
        .map(|k| k.cycles_per_sec.max(1e-9).ln())
        .sum();
    Some((log_sum / members.len() as f64).exp())
}

/// Run the suite sequentially (one timing thread) and aggregate.
///
/// `shards` overrides every kernel's engine shard count when `Some`
/// (`flexvc bench --shards N`; `0` = auto-detect). Kernel *results* are
/// shard-count-invariant, so the override only moves wall-clock numbers —
/// CI uses `--shards 2` to keep the sharded engine's exchange path on the
/// bench gate.
///
/// `group` restricts the run to one kernel group (`flexvc bench --group
/// fig5_h2`); unknown names fail before anything runs.
///
/// Each kernel gets [`WARMUP_ITERS`] untimed warmup iterations, then
/// repeats its timed run until [`MIN_MEASURED_CYCLES`] accumulate (or
/// [`MIN_MEASURED_WALL`]/[`MAX_REPEATS`] hit first); the reported
/// cycles/sec is total cycles over total wall across the repeats.
pub fn run_bench<F>(
    quick: bool,
    shards: Option<usize>,
    group: Option<&str>,
    mut progress: F,
) -> Result<BenchReport, RunError>
where
    F: FnMut(&KernelResult),
{
    let mut suite = kernel_suite(quick);
    if let Some(g) = group {
        suite.retain(|k| k.group == g);
        if suite.is_empty() {
            // The CLI validates against `group_names()` first; this is
            // the defensive path for library callers.
            return Err(RunError::EmptyBatch);
        }
    }
    let mut kernels: Vec<KernelResult> = Vec::with_capacity(suite.len());
    for k in &suite {
        let mut cfg = k.cfg.clone();
        if let Some(n) = shards {
            cfg.shards = n;
        }
        let invalid = |source| RunError::InvalidPoint {
            index: kernels.len(),
            source,
        };
        // One run of `cfg`, constructed outside the timed region:
        // cycles/sec measures the *stepping* rate, and construction cost
        // (seconds at the paper scales, noisy) would otherwise drown the
        // short windows. Cycles are those *actually stepped* (a
        // deadlocked run stops early; its truncated cycle count must not
        // inflate cycles/sec). The network comes back for its partition,
        // work-time and exchange stats.
        type Once = (f64, SimResult, ShardedNetwork);
        let run_once = |cfg: SimConfig, timed: bool| -> Result<Once, RunError> {
            let mut net = ShardedNetwork::new(cfg, k.load, k.seed).map_err(invalid)?;
            let t0 = timed.then(Instant::now);
            let result = net.run();
            let wall = t0.map_or(0.0, |t| t.elapsed().as_secs_f64().max(1e-9));
            Ok((wall, result, net))
        };
        // Warmup iterations: quarter windows reach the same steady-state
        // structures (buffers, wheels, boards) at a fraction of the cost.
        for _ in 0..WARMUP_ITERS {
            let mut wcfg = cfg.clone();
            wcfg.warmup = (wcfg.warmup / 4).max(50);
            wcfg.measure = (wcfg.measure / 4).max(100);
            wcfg.watchdog = wcfg.warmup + wcfg.measure;
            let _ = run_once(wcfg, false)?;
        }
        // Timed repeats up to the measured-cycles floor. Each repeat is a
        // fresh engine on the same (config, load, seed), so the work is
        // bit-identical and the accumulated rate stays meaningful.
        let min_wall = if quick {
            MIN_MEASURED_WALL_QUICK
        } else {
            MIN_MEASURED_WALL
        };
        let (mut cycles, mut wall) = (0u64, 0.0f64);
        let mut repeats = 0;
        let (result, net) = loop {
            let (w, result, net) = run_once(cfg.clone(), true)?;
            cycles += net.cycle();
            wall += w;
            repeats += 1;
            if cycles >= MIN_MEASURED_CYCLES
                || wall >= min_wall
                || repeats >= MAX_REPEATS
                || result.deadlocked
            {
                break (result, net);
            }
        };
        // A cut-free run (one block) exchanged nothing: no stats to show.
        let stats = if net.epoch_cycles() == u64::MAX {
            &[]
        } else {
            net.shard_stats()
        };
        let shard_stats: Vec<KernelShardStat> = stats
            .iter()
            .map(|s| KernelShardStat {
                routers: s.routers.len() as u64,
                blocks: s.blocks.len() as u64,
                weight: s.weight,
                work_seconds: s.work_seconds,
            })
            .collect();
        let shard_imbalance = if shard_stats.len() > 1 {
            let mean =
                shard_stats.iter().map(|s| s.work_seconds).sum::<f64>() / shard_stats.len() as f64;
            let max = shard_stats
                .iter()
                .map(|s| s.work_seconds)
                .fold(0.0f64, f64::max);
            if mean > 0.0 {
                max / mean
            } else {
                0.0
            }
        } else {
            0.0
        };
        let kr = KernelResult {
            name: k.name.clone(),
            group: k.group.to_string(),
            cycles,
            wall_seconds: wall,
            cycles_per_sec: cycles as f64 / wall.max(1e-9),
            repeats,
            accepted: result.accepted,
            deadlocked: result.deadlocked,
            shards: net.num_shards(),
            shard_stats,
            shard_imbalance,
            events_per_epoch: net.boundary_events().total() as f64 / net.epochs().max(1) as f64,
        };
        progress(&kr);
        kernels.push(kr);
    }

    let mut groups = Vec::new();
    for (group_name, baseline) in [
        ("fig5_h2", recorded_baseline::FIG5_H2),
        ("sweep_h4", recorded_baseline::SWEEP_H4),
        ("hyperx", recorded_baseline::HYPERX),
        ("adaptive", recorded_baseline::ADAPTIVE),
        ("dfplus", recorded_baseline::DFPLUS),
        ("flows", recorded_baseline::FLOWS),
        ("qos", recorded_baseline::QOS),
        ("smoke_h8", recorded_baseline::SMOKE_H8),
        ("paper", recorded_baseline::PAPER),
    ] {
        let members: Vec<&KernelResult> =
            kernels.iter().filter(|k| k.group == group_name).collect();
        let Some(gm) = geomean(&members) else {
            continue; // group filtered out by `--group`
        };
        let cycles: u64 = members.iter().map(|k| k.cycles).sum();
        let wall: f64 = members.iter().map(|k| k.wall_seconds).sum();
        let cps = cycles as f64 / wall.max(1e-9);
        groups.push(GroupSummary {
            group: group_name.to_string(),
            kernels: members.len(),
            cycles,
            wall_seconds: wall,
            cycles_per_sec: cps,
            geomean_cycles_per_sec: gm,
            baseline_cycles_per_sec: baseline,
            speedup_vs_baseline: cps / baseline,
        });
    }

    Ok(BenchReport {
        schema: "flexvc-bench-v1".to_string(),
        engine: "active-set".to_string(),
        quick,
        kernels,
        groups,
    })
}

/// One group's comparison against a recorded baseline report.
#[derive(Debug, Clone)]
pub struct GroupComparison {
    /// Group name.
    pub group: String,
    /// Gated cycles/sec of the current run (geomean when both reports
    /// carry per-kernel results, aggregate otherwise).
    pub current: f64,
    /// Gated cycles/sec recorded in the baseline report.
    pub baseline: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// The tolerance this group was gated at.
    pub tolerance: f64,
    /// Whether this group passes the regression gate.
    pub pass: bool,
}

/// The gated per-group rate: the stored geomean when present, recomputed
/// from the per-kernel results for reports recorded before the field
/// existed, and the aggregate cycles/sec as the last resort (a baseline
/// file stripped to group summaries).
fn gated_rate(report: &BenchReport, group: &str) -> Option<f64> {
    let g = report.groups.iter().find(|g| g.group == group)?;
    if g.geomean_cycles_per_sec > 0.0 {
        return Some(g.geomean_cycles_per_sec);
    }
    let members: Vec<&KernelResult> = report
        .kernels
        .iter()
        .filter(|k| k.group == group && k.cycles_per_sec > 0.0)
        .collect();
    geomean(&members).or(Some(g.cycles_per_sec))
}

/// Compare a fresh report against a recorded baseline file: every kernel
/// group present in *both* reports is gated on its **geomean** cycles/sec
/// — equal weight per kernel, so a long kernel can't mask a short one's
/// regression — failing when it drops below `1 - tolerance` of the
/// recorded value. `overrides` tightens (or loosens) individual groups:
/// the CI gate uses a default of 0.15 with 0.10 on the recovered
/// `fig5_h2`/`smoke_h8` groups. Groups new since the recording are
/// reported but not gated. Returns the per-group comparisons and the
/// overall verdict.
///
/// Cycles/sec are machine-dependent: a recorded baseline is only
/// meaningful on hardware comparable to where it was recorded (the repo's
/// `BENCH_*.json` files and CI runners; see `DESIGN.md`).
pub fn compare_reports_with(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
    overrides: &[(&str, f64)],
) -> (Vec<GroupComparison>, bool) {
    let mut rows = Vec::new();
    let mut pass = true;
    // Iterate the *baseline* groups so a recorded group that disappears
    // from the suite (renamed, deleted) fails loudly instead of silently
    // dropping its gate coverage.
    for b in &baseline.groups {
        let Some(base_rate) = gated_rate(baseline, &b.group).filter(|r| *r > 0.0) else {
            continue;
        };
        let tol = overrides
            .iter()
            .find(|(g, _)| *g == b.group)
            .map_or(tolerance, |(_, t)| *t);
        let (current_rate, ratio, ok) = match gated_rate(current, &b.group) {
            Some(rate) => {
                let ratio = rate / base_rate;
                (rate, ratio, ratio >= 1.0 - tol)
            }
            None => (0.0, 0.0, false),
        };
        pass &= ok;
        rows.push(GroupComparison {
            group: b.group.clone(),
            current: current_rate,
            baseline: base_rate,
            ratio,
            tolerance: tol,
            pass: ok,
        });
    }
    (rows, pass)
}

/// [`compare_reports_with`] at a single uniform tolerance.
pub fn compare_reports(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> (Vec<GroupComparison>, bool) {
    compare_reports_with(current, baseline, tolerance, &[])
}

impl Serialize for KernelResult {
    fn to_value(&self) -> Value {
        let mut m = Map::new()
            .with("name", self.name.to_value())
            .with("group", self.group.to_value())
            .with("cycles", self.cycles.to_value())
            .with("wall_seconds", self.wall_seconds.to_value())
            .with("cycles_per_sec", self.cycles_per_sec.to_value())
            .with("repeats", (self.repeats as u64).to_value())
            .with("accepted", self.accepted.to_value())
            .with("deadlocked", self.deadlocked.to_value())
            .with("shards", (self.shards as u64).to_value());
        if !self.shard_stats.is_empty() {
            m = m
                .with("shard_stats", self.shard_stats.to_value())
                .with("shard_imbalance", self.shard_imbalance.to_value())
                .with("events_per_epoch", self.events_per_epoch.to_value());
        }
        Value::Map(m)
    }
}

impl Serialize for KernelShardStat {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("routers", self.routers.to_value())
                .with("blocks", self.blocks.to_value())
                .with("weight", self.weight.to_value())
                .with("work_seconds", self.work_seconds.to_value()),
        )
    }
}

impl Deserialize for KernelShardStat {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        Ok(KernelShardStat {
            routers: m.field_or("routers", 0u64)?,
            blocks: m.field_or("blocks", 1u64)?,
            weight: m.field_or("weight", 0u64)?,
            work_seconds: m.field_or("work_seconds", 0.0)?,
        })
    }
}

impl Serialize for GroupSummary {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("group", self.group.to_value())
                .with("kernels", (self.kernels as u64).to_value())
                .with("cycles", self.cycles.to_value())
                .with("wall_seconds", self.wall_seconds.to_value())
                .with("cycles_per_sec", self.cycles_per_sec.to_value())
                .with(
                    "geomean_cycles_per_sec",
                    self.geomean_cycles_per_sec.to_value(),
                )
                .with(
                    "baseline_cycles_per_sec",
                    self.baseline_cycles_per_sec.to_value(),
                )
                .with("speedup_vs_baseline", self.speedup_vs_baseline.to_value()),
        )
    }
}

impl Serialize for BenchReport {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("schema", self.schema.to_value())
                .with("engine", self.engine.to_value())
                .with("quick", self.quick.to_value())
                .with("groups", self.groups.to_value())
                .with("kernels", self.kernels.to_value()),
        )
    }
}

impl Deserialize for KernelResult {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        Ok(KernelResult {
            name: m.field("name")?,
            group: m.field_or("group", String::new())?,
            cycles: m.field_or("cycles", 0u64)?,
            wall_seconds: m.field_or("wall_seconds", 0.0)?,
            cycles_per_sec: m.field_or("cycles_per_sec", 0.0)?,
            repeats: m.field_or::<u64>("repeats", 1)? as usize,
            accepted: m.field_or("accepted", 0.0)?,
            deadlocked: m.field_or("deadlocked", false)?,
            shards: m.field_or::<u64>("shards", 1)? as usize,
            shard_stats: m.field_or("shard_stats", Vec::new())?,
            shard_imbalance: m.field_or("shard_imbalance", 0.0)?,
            events_per_epoch: m.field_or("events_per_epoch", 0.0)?,
        })
    }
}

impl Deserialize for GroupSummary {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        Ok(GroupSummary {
            group: m.field("group")?,
            kernels: m.field_or::<u64>("kernels", 0)? as usize,
            cycles: m.field_or("cycles", 0u64)?,
            wall_seconds: m.field_or("wall_seconds", 0.0)?,
            cycles_per_sec: m.field("cycles_per_sec")?,
            geomean_cycles_per_sec: m.field_or("geomean_cycles_per_sec", 0.0)?,
            baseline_cycles_per_sec: m.field_or("baseline_cycles_per_sec", 0.0)?,
            speedup_vs_baseline: m.field_or("speedup_vs_baseline", 0.0)?,
        })
    }
}

impl Deserialize for BenchReport {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        Ok(BenchReport {
            schema: m.field_or("schema", "flexvc-bench-v1".to_string())?,
            engine: m.field_or("engine", String::new())?,
            quick: m.field_or("quick", false)?,
            kernels: m.field_or("kernels", Vec::new())?,
            groups: m.field_or("groups", Vec::new())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_fixed_and_valid() {
        for quick in [false, true] {
            let suite = kernel_suite(quick);
            assert_eq!(suite.len(), 5 * 4 + 2 + 4 + 4 + 4 + 4 + 4 + 1 + 4);
            for k in &suite {
                k.cfg
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            }
        }
        // Quick windows are strictly shorter.
        let full = kernel_suite(false);
        let quick = kernel_suite(true);
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(f.name, q.name);
            assert!(q.cfg.measure < f.cfg.measure, "{}", f.name);
        }
    }

    #[test]
    fn tiny_bench_runs_and_serializes() {
        // Shrink to a trivial subset by running quick kernels at h=2 only:
        // run the real API but through a stub suite would complicate the
        // interface, so just run the smallest kernel directly.
        let suite = kernel_suite(true);
        let k = &suite[0];
        let mut cfg = k.cfg.clone();
        cfg.warmup = 100;
        cfg.measure = 200;
        let r = run_one(&cfg, k.load, k.seed).unwrap();
        assert!(!r.deadlocked);
        // Serialization shape of a report built by hand.
        let report = BenchReport {
            schema: "flexvc-bench-v1".into(),
            engine: "active-set".into(),
            quick: true,
            kernels: vec![KernelResult {
                name: "fig5_h2/test".into(),
                group: "fig5_h2".into(),
                cycles: 300,
                wall_seconds: 0.1,
                cycles_per_sec: 3000.0,
                repeats: 1,
                accepted: r.accepted,
                deadlocked: false,
                shards: 2,
                shard_stats: vec![
                    KernelShardStat {
                        routers: 36,
                        blocks: 1,
                        weight: 500,
                        work_seconds: 0.04,
                    },
                    KernelShardStat {
                        routers: 36,
                        blocks: 2,
                        weight: 480,
                        work_seconds: 0.05,
                    },
                ],
                shard_imbalance: 0.05 / 0.045,
                events_per_epoch: 1234.5,
            }],
            groups: vec![],
        };
        let json = flexvc_serde::to_json_pretty(&report);
        assert!(json.contains("\"schema\": \"flexvc-bench-v1\""));
        assert!(json.contains("cycles_per_sec"));
        assert!(json.contains("shard_imbalance"));
        // Reports round-trip, so `--baseline` can read recorded files.
        let back: BenchReport = flexvc_serde::from_json(&json).unwrap();
        assert_eq!(back.kernels.len(), 1);
        assert_eq!(back.kernels[0].cycles, 300);
        assert_eq!(back.kernels[0].shards, 2);
        assert_eq!(back.kernels[0].shard_stats.len(), 2);
        assert_eq!(back.kernels[0].shard_stats[1].weight, 480);
        assert_eq!(back.kernels[0].shard_stats[1].blocks, 2);
        assert_eq!(back.kernels[0].events_per_epoch, 1234.5);
        // Pre-PR9 reports (no shard fields) still deserialize.
        let old: BenchReport = flexvc_serde::from_json(
            r#"{"schema":"flexvc-bench-v1","kernels":[{"name":"a","cycles_per_sec":1.0}],"groups":[]}"#,
        )
        .unwrap();
        assert_eq!(old.kernels[0].shards, 1);
        assert!(old.kernels[0].shard_stats.is_empty());
    }

    fn group(name: &str, cps: f64) -> GroupSummary {
        GroupSummary {
            group: name.to_string(),
            kernels: 1,
            cycles: 1000,
            wall_seconds: 1.0,
            cycles_per_sec: cps,
            geomean_cycles_per_sec: cps,
            baseline_cycles_per_sec: 0.0,
            speedup_vs_baseline: 0.0,
        }
    }

    fn report(groups: Vec<GroupSummary>) -> BenchReport {
        BenchReport {
            schema: "flexvc-bench-v1".into(),
            engine: "active-set".into(),
            quick: true,
            kernels: Vec::new(),
            groups,
        }
    }

    #[test]
    fn baseline_compare_gates_recorded_groups_only() {
        let baseline = report(vec![group("fig5_h2", 100_000.0), group("hyperx", 50_000.0)]);
        // Within tolerance: 15% down on one group passes at exactly 0.85.
        let current = report(vec![
            group("fig5_h2", 85_000.0),
            group("hyperx", 60_000.0),
            group("adaptive", 1.0), // not in the baseline: reported, ungated
        ]);
        let (rows, pass) = compare_reports(&current, &baseline, 0.15);
        assert!(pass, "{rows:?}");
        assert_eq!(rows.len(), 2, "new groups are not gated");
        // A >15% regression fails the gate.
        let bad = report(vec![group("fig5_h2", 80_000.0), group("hyperx", 60_000.0)]);
        let (rows, pass) = compare_reports(&bad, &baseline, 0.15);
        assert!(!pass);
        let fig5 = rows.iter().find(|r| r.group == "fig5_h2").unwrap();
        assert!(!fig5.pass);
        assert!(rows.iter().find(|r| r.group == "hyperx").unwrap().pass);
    }

    /// A recorded group that disappears from the suite (renamed or
    /// deleted) must fail the gate loudly, not silently lose coverage.
    #[test]
    fn baseline_compare_fails_on_missing_recorded_group() {
        let baseline = report(vec![group("fig5_h2", 100_000.0), group("hyperx", 50_000.0)]);
        let renamed = report(vec![group("fig5", 200_000.0), group("hyperx", 60_000.0)]);
        let (rows, pass) = compare_reports(&renamed, &baseline, 0.15);
        assert!(!pass);
        let missing = rows.iter().find(|r| r.group == "fig5_h2").unwrap();
        assert!(!missing.pass);
        assert_eq!(missing.current, 0.0);
        assert!(rows.iter().find(|r| r.group == "hyperx").unwrap().pass);
    }

    /// Per-group tolerance overrides: the ratcheted groups gate tighter
    /// than the default without moving everyone else.
    #[test]
    fn baseline_compare_applies_per_group_tolerance() {
        let baseline = report(vec![
            group("fig5_h2", 100_000.0),
            group("hyperx", 100_000.0),
        ]);
        // 12% down on both: passes the 15% default, fails a 10% ratchet.
        let current = report(vec![group("fig5_h2", 88_000.0), group("hyperx", 88_000.0)]);
        let (rows, pass) = compare_reports_with(&current, &baseline, 0.15, &[("fig5_h2", 0.10)]);
        assert!(!pass);
        let fig5 = rows.iter().find(|r| r.group == "fig5_h2").unwrap();
        assert!(!fig5.pass);
        assert_eq!(fig5.tolerance, 0.10);
        let hx = rows.iter().find(|r| r.group == "hyperx").unwrap();
        assert!(hx.pass);
        assert_eq!(hx.tolerance, 0.15);
    }

    fn kernel(group: &str, name: &str, cps: f64) -> KernelResult {
        KernelResult {
            name: name.to_string(),
            group: group.to_string(),
            cycles: 1000,
            wall_seconds: 1.0,
            cycles_per_sec: cps,
            repeats: 1,
            accepted: 0.5,
            deadlocked: false,
            shards: 1,
            shard_stats: Vec::new(),
            shard_imbalance: 0.0,
            events_per_epoch: 0.0,
        }
    }

    /// The gate compares geomeans: a long kernel's aggregate cannot mask
    /// a short kernel's collapse. Baselines recorded before the geomean
    /// field existed fall back to recomputing it from their per-kernel
    /// results.
    #[test]
    fn baseline_compare_gates_on_geomean_not_aggregate() {
        // Pre-geomean baseline: field absent (0.0), kernels present.
        let mut baseline = report(vec![GroupSummary {
            geomean_cycles_per_sec: 0.0,
            ..group("fig5_h2", 100_000.0)
        }]);
        baseline.kernels = vec![
            kernel("fig5_h2", "fig5_h2/a", 100_000.0),
            kernel("fig5_h2", "fig5_h2/b", 100_000.0),
        ];
        // Current run: kernel `a` collapsed 4x, kernel `b` doubled. The
        // cycles-over-wall aggregate stays ~flat (masking), but the
        // geomean drops to sqrt(0.25 * 2) ≈ 0.707 — a gated regression.
        let mut current = report(vec![GroupSummary {
            geomean_cycles_per_sec: 0.0,
            ..group("fig5_h2", 100_000.0)
        }]);
        current.kernels = vec![
            kernel("fig5_h2", "fig5_h2/a", 25_000.0),
            kernel("fig5_h2", "fig5_h2/b", 200_000.0),
        ];
        let (rows, pass) = compare_reports(&current, &baseline, 0.15);
        assert!(!pass, "{rows:?}");
        let fig5 = &rows[0];
        assert!((fig5.baseline - 100_000.0).abs() < 1.0);
        assert!((fig5.ratio - 0.5f64.sqrt()).abs() < 1e-9);
    }

    /// `--group` filtering: only the selected group's kernels run, the
    /// report carries just that group, and unknown names fail up front.
    #[test]
    fn run_bench_group_filter() {
        assert!(group_names().contains(&"smoke_h8"));
        let mut seen = Vec::new();
        let report = run_bench(true, Some(1), Some("smoke_h8"), |k| {
            seen.push(k.name.clone());
        })
        .unwrap();
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].group, "smoke_h8");
        assert!(report.groups[0].geomean_cycles_per_sec > 0.0);
        assert!(seen.iter().all(|n| n.starts_with("smoke_h8/")));
        assert!(matches!(
            run_bench(true, Some(1), Some("nope"), |_| {}),
            Err(RunError::EmptyBatch)
        ));
    }
}
