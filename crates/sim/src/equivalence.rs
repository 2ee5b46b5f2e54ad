//! Fixed engine-equivalence smoke points.
//!
//! A small, mechanism-covering set of `(config, load, seed)` points used to
//! prove that engine refactors are behavior-preserving: the integration
//! test `tests/engine_equivalence.rs` runs them and asserts bit-identical
//! [`SimResult`](crate::SimResult)s against metric snapshots recorded from
//! the pre-refactor (full-sweep) engine. The points deliberately cross
//! every engine path: baseline and FlexVC policies (safe and opportunistic
//! hops with reversion), oblivious and reactive workloads, DAMQ buffers
//! including the Fig. 10 deadlock, Piggyback sensing with minCred, and PAR
//! in-transit diverts.
//!
//! Keep this list stable: changing a point invalidates its recorded
//! snapshot.

use crate::config::{BufferOrg, QosConfig, SensingMode, SimConfig};
use flexvc_core::{Arrangement, RoutingMode};
use flexvc_traffic::{FlowSpec, Pattern, SizeDist, Workload};

/// One equivalence point: `(name, config, load, seed)`.
pub type EquivalencePoint = (String, SimConfig, f64, u64);

fn smoke(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup = 1_500;
    cfg.measure = 3_000;
    cfg.watchdog = 8_000;
    cfg
}

/// The fixed point set (h = 2 scale, short windows; deterministic seeds).
pub fn points() -> Vec<EquivalencePoint> {
    let oblivious = |routing, pattern| {
        smoke(SimConfig::dragonfly_baseline(
            2,
            routing,
            Workload::oblivious(pattern),
        ))
    };
    let reactive = |routing, pattern| {
        smoke(SimConfig::dragonfly_baseline(
            2,
            routing,
            Workload::reactive(pattern),
        ))
    };

    let mut points: Vec<EquivalencePoint> = Vec::new();
    let mut add = |name: &str, cfg: SimConfig, load: f64, seed: u64| {
        points.push((name.to_string(), cfg, load, seed));
    };

    // Fig. 5 family: oblivious routing, baseline vs FlexVC.
    add(
        "fig5_un_min_baseline",
        oblivious(RoutingMode::Min, Pattern::Uniform),
        0.45,
        11,
    );
    add(
        "fig5_un_min_flexvc42",
        oblivious(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly(4, 2)),
        0.65,
        12,
    );
    add(
        "fig5_adv_val_baseline",
        oblivious(RoutingMode::Valiant, Pattern::adv1()),
        0.5,
        13,
    );
    // Opportunistic VAL at saturation: exercises patience + reversion.
    add(
        "fig5_un_val_flexvc32_sat",
        oblivious(RoutingMode::Valiant, Pattern::Uniform).with_flexvc(Arrangement::dragonfly(3, 2)),
        0.9,
        3,
    );
    add(
        "fig5_bursty_min_flexvc42",
        oblivious(RoutingMode::Min, Pattern::bursty()).with_flexvc(Arrangement::dragonfly(4, 2)),
        0.5,
        6,
    );

    // Fig. 7 family: request-reply coupling, split arrangements.
    add(
        "fig7_rr_min_baseline",
        reactive(RoutingMode::Min, Pattern::Uniform),
        0.35,
        7,
    );
    add(
        "fig7_rr_min_flexvc_5_3",
        reactive(RoutingMode::Min, Pattern::Uniform)
            .with_flexvc(Arrangement::dragonfly_rr((3, 2), (2, 1))),
        0.5,
        5,
    );

    // Fig. 10 family: DAMQ organizations, including the genuine deadlock.
    let mut damq0 = oblivious(RoutingMode::Min, Pattern::Uniform);
    damq0.buffers.organization = BufferOrg::Damq {
        private_fraction: 0.0,
    };
    damq0.warmup = 2_000;
    damq0.measure = 20_000;
    damq0.watchdog = 4_000;
    add("fig10_damq0_deadlock", damq0, 1.0, 1);
    add(
        "fig10_damq75",
        oblivious(RoutingMode::Min, Pattern::Uniform).with_damq75(),
        0.85,
        2,
    );

    // Fig. 8 family: Piggyback sensing (per-VC, minCred) on FlexVC.
    let mut pb = reactive(RoutingMode::Piggyback, Pattern::Uniform)
        .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
    pb.sensing.mode = SensingMode::PerVc;
    pb.sensing.min_cred = true;
    add("fig8_pb_flexvc_mincred", pb, 0.5, 9);

    // PAR: in-transit divert evaluation.
    add(
        "par_adv_baseline",
        oblivious(RoutingMode::Par, Pattern::adv1()),
        0.4,
        4,
    );

    // HyperX: 3-D generic-diameter network under FlexVC opportunistic VAL
    // (diameter-3 references, DOR plans, per-dimension escapes). Recorded
    // when the topology landed; guards the generic-d path against drift.
    add(
        "hyperx3d_adv_val_flexvc4",
        smoke(
            SimConfig::hyperx_baseline(
                3,
                3,
                2,
                RoutingMode::Valiant,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(4)),
        ),
        0.6,
        14,
    );

    // UGAL-L on the 3-D HyperX ADV point: the RoutePolicy injection
    // pipeline's hop-weighted credit comparison (recorded when the
    // decision layer landed; guards the UGAL path against drift).
    add(
        "hyperx3d_adv_ugal_l_flexvc6",
        smoke(
            SimConfig::hyperx_baseline(
                3,
                3,
                2,
                RoutingMode::UgalL,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(6)),
        ),
        0.7,
        15,
    );

    // DAL on the 2-D HyperX ADV point: per-dimension in-transit misroutes
    // with correction-pair slots (recorded when the decision layer landed).
    add(
        "hyperx2d_adv_dal_flexvc4",
        smoke(
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Dal,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(4)),
        ),
        0.7,
        16,
    );

    // Flow workloads: FCT accounting plus per-node flow state must shard
    // bit-identically (recorded when the flow layer landed). One point per
    // pattern family, crossing size distributions and both topologies.
    add(
        "flows_un_bimodal_min_flexvc42",
        smoke(SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::flows(FlowSpec::uniform(SizeDist::mice_elephants())),
        ))
        .with_flexvc(Arrangement::dragonfly(4, 2)),
        0.5,
        17,
    );
    // Permutation exercises the seed-only derangement table every shard
    // must derive identically.
    add(
        "flows_perm_pareto_hyperx2d_min_flexvc4",
        smoke(
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Min,
                Workload::flows(FlowSpec::permutation(SizeDist::heavy_tail())),
            )
            .with_flexvc(Arrangement::generic(4)),
        ),
        0.4,
        18,
    );
    // Incast phases rotate the receiver mid-window; baseline policy.
    add(
        "flows_incast4_min_baseline",
        smoke(SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::flows(FlowSpec::incast(4, SizeDist::Fixed { packets: 4 })),
        )),
        0.3,
        19,
    );

    // Hot-path pins: static-MIN routing with the baseline VC policy, the
    // most common configuration, at loads where credit stalls dominate.
    // One synthetic point on the HyperX and one flow point on the
    // Dragonfly.
    add(
        "hotpath_un_min_baseline_hyperx2d",
        smoke(SimConfig::hyperx_baseline(
            2,
            4,
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform),
        )),
        0.75,
        26,
    );
    add(
        "hotpath_flows_perm_min_baseline",
        smoke(SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::flows(FlowSpec::permutation(SizeDist::mice_elephants())),
        )),
        0.45,
        27,
    );

    // QoS family (recorded when multi-class traffic landed): control +
    // bulk mixes through strict-priority arbitration with bounded bypass.
    // One Dragonfly point with class-partitioned FlexVC budgets, one
    // HyperX point with the dynamic per-class buffer repartitioner, and
    // one Dragonfly+ VAL point with shared budgets (priority only) — all
    // must shard bit-identically like every other point.
    add(
        "qos_ctrlbulk_df_min_flexvc42_part",
        smoke(SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::oblivious(Pattern::Uniform).with_mix(0.1),
        ))
        .with_flexvc(Arrangement::dragonfly(4, 2))
        .with_qos(QosConfig::partitioned(2, 1)),
        0.6,
        28,
    );
    add(
        "qos_repart_hyperx2d_min_flexvc4",
        smoke(
            SimConfig::hyperx_baseline(
                2,
                4,
                2,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform).with_mix(0.15),
            )
            .with_flexvc(Arrangement::generic(4)),
        )
        .with_qos(QosConfig::shared().with_repartition()),
        0.7,
        29,
    );
    add(
        "qos_prio_dfplus_val_flexvc42",
        smoke(
            SimConfig::dfplus_baseline(
                2,
                2,
                2,
                5,
                RoutingMode::Valiant,
                Workload::oblivious(Pattern::adv1()).with_mix(0.1),
            )
            .with_flexvc(Arrangement::dragonfly(4, 2)),
        )
        .with_qos(QosConfig::shared()),
        0.5,
        30,
    );

    // Scheduling corners: the timing cases the points above never reach.
    // A zero-cycle router pipeline serializes a packet in the cycle it is
    // granted; speedups of 1 and 3 change the crossbar transfer time and
    // the number of allocation rounds per cycle; at load 0.02 a node's
    // emission gaps are longer than the wheel horizon, and at load 0 a
    // node never emits at all.
    let mut pipe0 =
        oblivious(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly(4, 2));
    pipe0.pipeline_latency = 0;
    add("corner_pipeline0_un_min_flexvc42", pipe0, 0.7, 31);
    let mut speedup1 = oblivious(RoutingMode::Min, Pattern::Uniform);
    speedup1.speedup = 1;
    add("corner_speedup1_un_min_baseline", speedup1, 0.6, 32);
    let mut speedup3 = oblivious(RoutingMode::Valiant, Pattern::bursty())
        .with_flexvc(Arrangement::dragonfly(3, 2));
    speedup3.speedup = 3;
    add("corner_speedup3_bursty_val_flexvc32", speedup3, 0.8, 33);
    add(
        "corner_load002_rr_min_baseline",
        reactive(RoutingMode::Min, Pattern::Uniform),
        0.02,
        34,
    );
    add(
        "corner_load0_un_min_baseline",
        oblivious(RoutingMode::Min, Pattern::Uniform),
        0.0,
        35,
    );

    // Sleeping-head pins: the heads the allocator once re-evaluated every
    // round. PAR under FlexVC latches its divert in transit and waits out
    // opportunistic patience before reverting; adaptive copies re-pick the
    // parallel link of a k = 2 HyperX in transit; QoS repartitioning with
    // Random VC selection draws the router RNG under priority arbitration
    // while per-class quotas shift.
    add(
        "sleep_par_adv_flexvc42_patience",
        oblivious(RoutingMode::Par, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
        0.5,
        36,
    );
    let mut copies = smoke(SimConfig::hyperx_baseline(
        2,
        4,
        2,
        RoutingMode::Min,
        Workload::oblivious(Pattern::Uniform),
    ));
    copies.topology = crate::config::TopologySpec::HyperX {
        dims: vec![(4, 2); 2],
        p: 2,
    };
    copies.adaptive_copies = true;
    add("sleep_copies_hyperx2d_k2_min_baseline", copies, 0.8, 37);
    let mut repart = oblivious(RoutingMode::Min, Pattern::Uniform)
        .with_flexvc(Arrangement::dragonfly(4, 2))
        .with_qos(QosConfig {
            control_quota_fraction: 0.25,
            ..QosConfig::shared().with_repartition()
        });
    repart.workload = Workload::oblivious(Pattern::Uniform).with_mix(0.3);
    repart.selection = flexvc_core::VcSelection::Random;
    add("sleep_qos_repart_random_df_min_flexvc42", repart, 0.8, 38);

    // FlexVC over a DAMQ bank: JSQ picks among the candidate VCs by shared-
    // pool headroom through the `can_accept` loop. VAL at 3/2 is below its
    // safe 4/2, so opportunistic hops and reversions run too; ADV+1 at this
    // load keeps the shared pool contended without deadlocking.
    add(
        "damq75_adv_val_flexvc32",
        oblivious(RoutingMode::Valiant, Pattern::adv1())
            .with_flexvc(Arrangement::dragonfly(3, 2))
            .with_damq75(),
        0.3,
        39,
    );

    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_validate() {
        let pts = points();
        assert!(pts.len() >= 10);
        for (name, cfg, load, _) in &pts {
            cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!((0.0..=1.0).contains(load), "{name}");
        }
    }

    #[test]
    fn point_names_are_unique() {
        let pts = points();
        for (i, (a, ..)) in pts.iter().enumerate() {
            for (b, ..) in &pts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
