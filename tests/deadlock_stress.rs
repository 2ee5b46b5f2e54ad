//! Deadlock-freedom stress: every supported configuration must survive
//! saturation without tripping the forward-progress watchdog.
//!
//! This is the operational counterpart of Theorems 1 and 2: the escape-path
//! invariant maintained by the FlexVC policy must keep the network live at
//! 100% offered load, across routings, arrangements, message classes,
//! selection functions and buffer organizations.

use flexvc::core::{Arrangement, RoutingMode, VcSelection};
use flexvc::sim::prelude::*;
use flexvc::traffic::{FlowSpec, Pattern, SizeDist, Workload};

fn stress(cfg: &SimConfig, label: &str) {
    let r = run_one(cfg, 1.0, 99).unwrap();
    assert!(!r.deadlocked, "{label} deadlocked");
    assert!(
        r.accepted > 0.05,
        "{label} made no progress: {}",
        r.accepted
    );
}

fn tiny(routing: RoutingMode, workload: Workload) -> SimConfig {
    let mut cfg = SimConfig::dragonfly_baseline(2, routing, workload);
    cfg.warmup = 1_000;
    cfg.measure = 3_000;
    cfg.watchdog = 6_000;
    cfg
}

#[test]
fn oblivious_matrix_survives_saturation() {
    for pattern in [Pattern::Uniform, Pattern::bursty(), Pattern::adv1()] {
        let routing = paper_routing_for(pattern);
        let base = tiny(routing, Workload::oblivious(pattern));
        stress(&base, &format!("baseline {pattern}"));
        stress(&base.clone().with_damq75(), &format!("damq {pattern}"));
        let (l, g) = routing.min_dragonfly_vcs();
        for (dl, dg) in [(0, 0), (2, 1), (4, 2)] {
            let arr = Arrangement::dragonfly(l + dl, g + dg);
            stress(
                &base.clone().with_flexvc(arr.clone()),
                &format!("flexvc {} {pattern}", arr.count_label()),
            );
        }
    }
}

#[test]
fn opportunistic_arrangements_survive_saturation() {
    // VAL on 3/2 (opportunistic only) and PAR on 4/2 / 3/2.
    for (routing, l, g) in [
        (RoutingMode::Valiant, 3, 2),
        (RoutingMode::Par, 3, 2),
        (RoutingMode::Par, 4, 2),
    ] {
        let cfg = tiny(routing, Workload::oblivious(Pattern::adv1()))
            .with_flexvc(Arrangement::dragonfly(l, g));
        stress(&cfg, &format!("{routing} {l}/{g}"));
    }
}

#[test]
fn reactive_matrix_survives_saturation() {
    for pattern in [Pattern::Uniform, Pattern::adv1()] {
        let routing = paper_routing_for(pattern);
        let base = tiny(routing, Workload::reactive(pattern));
        stress(&base, &format!("baseline rr {pattern}"));
        let (l, g) = routing.min_dragonfly_vcs();
        for (req, rep) in [((l, g), (l, g)), ((l + 1, g + 1), (l, g))] {
            let arr = Arrangement::dragonfly_rr(req, rep);
            stress(
                &base.clone().with_flexvc(arr.clone()),
                &format!("flexvc rr {} {pattern}", arr.count_label()),
            );
        }
        // The 50%-reduction split with opportunistic reply detours.
        if routing == RoutingMode::Valiant {
            let arr = Arrangement::dragonfly_rr((4, 2), (2, 1));
            stress(
                &base.clone().with_flexvc(arr),
                &format!("flexvc rr 6/3 {pattern}"),
            );
        }
    }
}

/// UGAL-L/G at 100% load: source-adaptive MIN-vs-VAL selection across
/// Dragonfly and HyperX, baseline and FlexVC policies, including the
/// opportunistic reuse region. UGAL-G additionally exercises the board
/// machinery outside Piggyback mode.
#[test]
fn ugal_variants_survive_saturation() {
    for routing in [RoutingMode::UgalL, RoutingMode::UgalG] {
        for pattern in [Pattern::Uniform, Pattern::adv1()] {
            let base = tiny(routing, Workload::oblivious(pattern));
            stress(&base, &format!("{routing} baseline {pattern}"));
            stress(
                &base.clone().with_flexvc(Arrangement::dragonfly(4, 2)),
                &format!("{routing} flexvc 4/2 {pattern}"),
            );
            // Opportunistic reuse below the safe minimum.
            stress(
                &base.clone().with_flexvc(Arrangement::dragonfly(3, 2)),
                &format!("{routing} flexvc 3/2 {pattern}"),
            );
        }
        // Reactive split arrangements.
        let rr = tiny(routing, Workload::reactive(Pattern::adv1()))
            .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
        stress(&rr, &format!("{routing} rr 6/3"));
    }
}

/// 3-D HyperX at 100% load under UGAL and DAL with the
/// injected-equals-consumed drain check: per-dimension misroutes and
/// source-adaptive Valiant adoption must leave nothing stranded in any
/// buffer, queue or link once the generators mute.
#[test]
fn hyperx_3d_ugal_dal_survive_saturation_and_drain() {
    for (routing, vcs, pattern) in [
        (RoutingMode::UgalL, 6, Pattern::adv1()),
        (RoutingMode::UgalG, 6, Pattern::adv1()),
        (RoutingMode::UgalG, 4, Pattern::adv1()), // opportunistic UGAL
        (RoutingMode::Dal, 6, Pattern::adv1()),
        (RoutingMode::Dal, 4, Pattern::adv1()), // opportunistic DAL
        (RoutingMode::Dal, 6, Pattern::Uniform),
    ] {
        let mut cfg = SimConfig::hyperx_baseline(3, 3, 2, routing, Workload::oblivious(pattern))
            .with_flexvc(Arrangement::generic(vcs));
        cfg.warmup = 1_000;
        cfg.measure = 3_000;
        cfg.watchdog = 6_000;
        let label = format!("hyperx3d {routing} {vcs}VCs {pattern}");
        let mut net = Network::new(cfg, 1.0, 99).unwrap();
        let r = net.run();
        assert!(!r.deadlocked, "{label} deadlocked");
        assert!(
            r.accepted > 0.05,
            "{label} made no progress: {}",
            r.accepted
        );
        let stranded = net.drain(100_000);
        assert!(!net.deadlocked(), "{label} deadlocked while draining");
        assert_eq!(stranded, 0, "{label}: packets stranded at drain");
    }
    // DAL under the *baseline* policy: correction-pair slots alone must be
    // deadlock-free at the T^2d reference (drain check included).
    let mut cfg = SimConfig::hyperx_baseline(
        3,
        3,
        2,
        RoutingMode::Dal,
        Workload::oblivious(Pattern::adv1()),
    );
    cfg.warmup = 1_000;
    cfg.measure = 3_000;
    cfg.watchdog = 6_000;
    let mut net = Network::new(cfg, 1.0, 99).unwrap();
    let r = net.run();
    assert!(!r.deadlocked, "dal baseline deadlocked");
    assert_eq!(net.drain(100_000), 0, "dal baseline: stranded at drain");
}

/// Adaptive `k = 2` copy selection at 100% load with the drain check: the
/// per-hop copy re-pick must not break conservation or liveness.
#[test]
fn hyperx_k2_adaptive_copies_survive_saturation_and_drain() {
    for pattern in [Pattern::Uniform, Pattern::adv1()] {
        let mut cfg =
            SimConfig::hyperx_baseline(2, 4, 2, RoutingMode::Min, Workload::oblivious(pattern));
        cfg.topology = TopologySpec::HyperX {
            dims: vec![(4, 2); 2],
            p: 2,
        };
        cfg.adaptive_copies = true;
        cfg.warmup = 1_000;
        cfg.measure = 3_000;
        cfg.watchdog = 6_000;
        let label = format!("hyperx k2 adaptive {pattern}");
        let mut net = Network::new(cfg, 1.0, 99).unwrap();
        let r = net.run();
        assert!(!r.deadlocked, "{label} deadlocked");
        assert!(r.accepted > 0.05, "{label}: {}", r.accepted);
        assert_eq!(net.drain(100_000), 0, "{label}: stranded at drain");
    }
}

#[test]
fn piggyback_variants_survive_saturation() {
    for (mode, min_cred) in [
        (SensingMode::PerPort, false),
        (SensingMode::PerVc, false),
        (SensingMode::PerPort, true),
        (SensingMode::PerVc, true),
    ] {
        let mut cfg = tiny(RoutingMode::Piggyback, Workload::reactive(Pattern::adv1()))
            .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
        cfg.sensing = SensingConfig {
            mode,
            min_cred,
            threshold: 3,
        };
        stress(&cfg, &format!("pb {mode:?} mincred={min_cred}"));
    }
}

#[test]
fn selection_functions_survive_saturation() {
    for sel in VcSelection::all() {
        let mut cfg = tiny(RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
            .with_flexvc(Arrangement::dragonfly(4, 2));
        cfg.selection = sel;
        stress(&cfg, &format!("selection {sel}"));
    }
}

/// 3-D HyperX at 100% offered load under FlexVC *opportunistic* reuse:
/// VAL needs 6 VCs for safety, so running it on 4 and 5 forces
/// opportunistic hops (with reversion) on nearly every detour. The
/// watchdog must never fire, and at drain (generators muted) every packet
/// the network accepted must reach its consumption port — injected =
/// consumed, nothing stranded in any buffer, queue or link.
#[test]
fn hyperx_3d_survives_saturation_and_drains() {
    for (routing, vcs, pattern) in [
        (RoutingMode::Min, 3, Pattern::Uniform),
        (RoutingMode::Valiant, 4, Pattern::adv1()), // opportunistic-only VAL
        (RoutingMode::Valiant, 5, Pattern::adv1()),
        (RoutingMode::Valiant, 6, Pattern::Uniform), // safe VAL at saturation
        (RoutingMode::Par, 5, Pattern::adv1()),      // opportunistic PAR
    ] {
        let mut cfg = SimConfig::hyperx_baseline(3, 3, 2, routing, Workload::oblivious(pattern))
            .with_flexvc(Arrangement::generic(vcs));
        cfg.warmup = 1_000;
        cfg.measure = 3_000;
        cfg.watchdog = 6_000;
        let label = format!("hyperx3d {routing} {vcs}VCs {pattern}");
        let mut net = Network::new(cfg, 1.0, 99).unwrap();
        let r = net.run();
        assert!(!r.deadlocked, "{label} deadlocked");
        assert!(
            r.accepted > 0.05,
            "{label} made no progress: {}",
            r.accepted
        );
        let stranded = net.drain(100_000);
        assert!(!net.deadlocked(), "{label} deadlocked while draining");
        assert_eq!(stranded, 0, "{label}: packets stranded at drain");
    }
    // Request–reply coupling: conservation must close over staged replies
    // too (a consumed request stages a reply outside `in_flight` until the
    // NIC injects it).
    let mut cfg = SimConfig::hyperx_baseline(
        3,
        3,
        2,
        RoutingMode::Min,
        Workload::reactive(Pattern::Uniform),
    )
    .with_flexvc(Arrangement::generic_rr(4, 3));
    cfg.warmup = 1_000;
    cfg.measure = 3_000;
    cfg.watchdog = 6_000;
    let mut net = Network::new(cfg, 1.0, 99).unwrap();
    let r = net.run();
    assert!(!r.deadlocked, "hyperx3d rr deadlocked");
    assert!(r.accepted > 0.05, "hyperx3d rr: {}", r.accepted);
    assert_eq!(net.drain(100_000), 0, "hyperx3d rr: stranded at drain");
}

/// The same conservation property holds for Piggyback routing on a HyperX,
/// where sensing falls back to all-port boards (no global link class).
#[test]
fn hyperx_piggyback_senses_and_drains() {
    for (mode, min_cred) in [(SensingMode::PerPort, false), (SensingMode::PerVc, true)] {
        let mut cfg = SimConfig::hyperx_baseline(
            2,
            4,
            2,
            RoutingMode::Piggyback,
            Workload::oblivious(Pattern::adv1()),
        )
        .with_flexvc(Arrangement::generic(3));
        cfg.sensing = SensingConfig {
            mode,
            min_cred,
            threshold: 3,
        };
        cfg.warmup = 1_000;
        cfg.measure = 3_000;
        cfg.watchdog = 6_000;
        let label = format!("hyperx pb {mode:?} mincred={min_cred}");
        let mut net = Network::new(cfg, 1.0, 99).unwrap();
        let r = net.run();
        assert!(!r.deadlocked, "{label} deadlocked");
        assert!(r.accepted > 0.05, "{label}: {}", r.accepted);
        assert_eq!(net.drain(100_000), 0, "{label}: stranded at drain");
    }
}

/// Dragonfly+ at 100% offered load with the injected-equals-consumed drain
/// check, across the supported mode matrix: baseline MIN (2/1 slots),
/// FlexVC MIN at the same 2/1 budget, baseline and FlexVC VAL at 4/2,
/// UGAL-L/G and PB (spine boards) — plus request–reply conservation. The
/// spine-escape invariant (`L L G L` embeds above every detour landing)
/// must keep the fat-tree hierarchy live with nothing stranded on a spine.
#[test]
fn dragonfly_plus_survives_saturation_and_drains() {
    let base = |routing: RoutingMode, pattern: Pattern| {
        let mut cfg = SimConfig::dfplus_baseline(2, 2, 2, 5, routing, Workload::oblivious(pattern));
        cfg.warmup = 1_000;
        cfg.measure = 3_000;
        cfg.watchdog = 6_000;
        cfg
    };
    let cases: Vec<(String, SimConfig)> = vec![
        (
            "dfplus baseline MIN UN".into(),
            base(RoutingMode::Min, Pattern::Uniform),
        ),
        (
            "dfplus flexvc MIN 2/1 UN".into(),
            base(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly_min()),
        ),
        (
            "dfplus baseline VAL ADV".into(),
            base(RoutingMode::Valiant, Pattern::adv1()),
        ),
        (
            "dfplus flexvc VAL 4/2 ADV".into(),
            base(RoutingMode::Valiant, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
        (
            "dfplus flexvc UGAL-L 4/2 ADV".into(),
            base(RoutingMode::UgalL, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
        (
            "dfplus flexvc UGAL-G 4/2 ADV".into(),
            base(RoutingMode::UgalG, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
        (
            "dfplus flexvc PB 4/2 ADV".into(),
            base(RoutingMode::Piggyback, Pattern::adv1()).with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
    ];
    for (label, cfg) in cases {
        let mut net = Network::new(cfg, 1.0, 99).unwrap();
        let r = net.run();
        assert!(!r.deadlocked, "{label} deadlocked");
        assert!(
            r.accepted > 0.05,
            "{label} made no progress: {}",
            r.accepted
        );
        let stranded = net.drain(100_000);
        assert!(!net.deadlocked(), "{label} deadlocked while draining");
        assert_eq!(stranded, 0, "{label}: packets stranded at drain");
    }
    // Request–reply conservation closes over staged replies too.
    let mut cfg = SimConfig::dfplus_baseline(
        2,
        2,
        2,
        5,
        RoutingMode::Min,
        Workload::reactive(Pattern::Uniform),
    );
    cfg.warmup = 1_000;
    cfg.measure = 3_000;
    cfg.watchdog = 6_000;
    let mut net = Network::new(cfg, 1.0, 99).unwrap();
    let r = net.run();
    assert!(!r.deadlocked, "dfplus rr deadlocked");
    assert!(r.accepted > 0.05, "dfplus rr: {}", r.accepted);
    assert_eq!(net.drain(100_000), 0, "dfplus rr: stranded at drain");
}

/// The sharded engine at 100% offered load: liveness and conservation must
/// survive the partitioned event loop. Each case runs `ShardedNetwork`
/// across shard counts, asserts no watchdog fire, and drains to zero —
/// every packet the partitioned network accepted reaches consumption even
/// when its route crosses shard cuts on every hop. Board-driven routing
/// (UGAL-G) and reactive staging are included so all three boundary event
/// classes (packets, credits, board publishes) are load-tested.
#[test]
fn sharded_engine_survives_saturation_and_drains() {
    let cases: Vec<(String, SimConfig)> = vec![
        (
            "sharded flexvc VAL 4/2 ADV".into(),
            tiny(RoutingMode::Valiant, Workload::oblivious(Pattern::adv1()))
                .with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
        ("sharded rr MIN UN".into(), {
            tiny(RoutingMode::Min, Workload::reactive(Pattern::Uniform))
        }),
        ("sharded UGAL-G boards ADV".into(), {
            let mut cfg = SimConfig::hyperx_baseline(
                3,
                3,
                2,
                RoutingMode::UgalG,
                Workload::oblivious(Pattern::adv1()),
            )
            .with_flexvc(Arrangement::generic(6));
            cfg.warmup = 1_000;
            cfg.measure = 3_000;
            cfg.watchdog = 6_000;
            cfg
        }),
    ];
    for (label, cfg) in cases {
        for shards in [2, 4] {
            let mut sharded_cfg = cfg.clone();
            sharded_cfg.shards = shards;
            let mut net = ShardedNetwork::new(sharded_cfg, 1.0, 99).unwrap();
            let r = net.run();
            assert!(!r.deadlocked, "{label} (shards={shards}) deadlocked");
            assert!(
                r.accepted > 0.05,
                "{label} (shards={shards}) made no progress: {}",
                r.accepted
            );
            let stranded = net.drain(100_000);
            assert!(
                !net.deadlocked(),
                "{label} (shards={shards}) deadlocked while draining"
            );
            assert_eq!(
                stranded, 0,
                "{label} (shards={shards}): packets stranded at drain"
            );
        }
    }
}

/// Flow workloads at 100% offered load: the flow layer's pending-queue
/// and packet-train bookkeeping must not break liveness. The incast case
/// additionally runs the injected-equals-consumed drain check — a
/// rotating 4-to-1 incast concentrates whole packet trains on one sink,
/// the worst case for ejection-side backpressure, and once the
/// generators mute every accepted packet must still reach consumption.
#[test]
fn flow_workloads_survive_saturation_and_incast_drains() {
    for (label, spec) in [
        (
            "flows un bimodal",
            FlowSpec::uniform(SizeDist::mice_elephants()),
        ),
        (
            "flows perm pareto",
            FlowSpec::permutation(SizeDist::heavy_tail()),
        ),
    ] {
        let cfg = tiny(RoutingMode::Min, Workload::flows(spec));
        stress(&cfg, label);
        stress(
            &cfg.clone().with_flexvc(Arrangement::dragonfly(4, 2)),
            &format!("{label} flexvc 4/2"),
        );
    }
    let incast = tiny(
        RoutingMode::Min,
        Workload::flows(FlowSpec::incast(4, SizeDist::Fixed { packets: 4 })),
    );
    for (label, cfg) in [
        ("flows incast4 baseline", incast.clone()),
        (
            "flows incast4 flexvc 4/2",
            incast.with_flexvc(Arrangement::dragonfly(4, 2)),
        ),
    ] {
        let mut net = Network::new(cfg, 1.0, 99).unwrap();
        let r = net.run();
        assert!(!r.deadlocked, "{label} deadlocked");
        assert!(
            r.accepted > 0.05,
            "{label} made no progress: {}",
            r.accepted
        );
        let stranded = net.drain(100_000);
        assert!(!net.deadlocked(), "{label} deadlocked while draining");
        assert_eq!(stranded, 0, "{label}: packets stranded at drain");
    }
}

#[test]
fn flat_butterfly_survives_saturation() {
    for (policy_arr, routing) in [
        (None, RoutingMode::Min),
        (Some(Arrangement::generic(2)), RoutingMode::Min),
        (Some(Arrangement::generic(3)), RoutingMode::Valiant),
        (Some(Arrangement::generic(4)), RoutingMode::Valiant),
    ] {
        let mut cfg = tiny(routing, Workload::oblivious(Pattern::Uniform));
        // The 4 × 4 flattened butterfly: the 2-D unit-multiplicity HyperX.
        cfg.topology = TopologySpec::HyperX {
            dims: vec![(4, 1); 2],
            p: 2,
        };
        match policy_arr {
            None => cfg.arrangement = Arrangement::generic(2),
            Some(arr) => {
                cfg = cfg.with_flexvc(arr);
            }
        }
        stress(&cfg, &format!("fb {routing}"));
    }
}
