//! Property tests of the experiment serialization surface: randomized
//! `SimConfig`s and `Scenario`s must survive serialize → deserialize in
//! both JSON and TOML with their semantics intact (equal document form,
//! equal `validate()` verdict).

use flexvc::bench::scenario::{PointSpec, Scenario};
use flexvc::core::{Arrangement, RoutingMode, VcPolicy, VcSelection};
use flexvc::sim::{BufferOrg, BufferSizing, SensingMode, SimConfig, TopologySpec};
use flexvc::topology::GlobalArrangement;
use flexvc::traffic::{FlowPattern, FlowSpec, Pattern, SizeDist, Workload};
use flexvc_serde::{from_json, from_toml, to_json, to_json_pretty, to_toml, Serialize};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Uniform),
        (1usize..4).prop_map(|offset| Pattern::Adversarial { offset }),
        (2u32..12).prop_map(|m| Pattern::BurstyUniform {
            mean_burst: m as f64 / 2.0
        }),
    ]
}

fn arb_size_dist() -> impl Strategy<Value = SizeDist> {
    prop_oneof![
        (1u32..32).prop_map(|packets| SizeDist::Fixed { packets }),
        Just(SizeDist::mice_elephants()),
        Just(SizeDist::heavy_tail()),
        ((1u32..4), (8u32..64)).prop_map(|(min, spread)| SizeDist::Pareto {
            min,
            max: min + spread,
            alpha: 1.5,
        }),
    ]
}

fn arb_flow_pattern() -> impl Strategy<Value = FlowPattern> {
    prop_oneof![
        Just(FlowPattern::Uniform),
        Just(FlowPattern::Permutation),
        ((1usize..8), (0u32..=4)).prop_map(|(hotspots, q)| FlowPattern::Hotspot {
            hotspots,
            fraction: q as f64 / 4.0,
        }),
        ((1usize..8), (100u64..5000)).prop_map(|(fanin, phase_cycles)| FlowPattern::Incast {
            fanin,
            phase_cycles,
        }),
    ]
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        (arb_pattern(), any::<bool>()).prop_map(|(pattern, reactive)| if reactive {
            Workload::reactive(pattern)
        } else {
            Workload::oblivious(pattern)
        }),
        (arb_flow_pattern(), arb_size_dist())
            .prop_map(|(pattern, sizes)| Workload::flows(FlowSpec { pattern, sizes })),
    ]
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    let ga = prop_oneof![
        Just(GlobalArrangement::Consecutive),
        Just(GlobalArrangement::Palmtree)
    ];
    prop_oneof![
        ((2usize..4).prop_map(|h| (h, GlobalArrangement::Palmtree)))
            .prop_map(|(h, arrangement)| TopologySpec::DragonflyBalanced { h, arrangement }),
        ((2usize..4), ga).prop_map(|(h, arrangement)| TopologySpec::Dragonfly {
            p: h,
            a: 2 * h,
            h,
            g: 2 * h * h + 1,
            arrangement,
        }),
        (
            proptest::collection::vec((2usize..5, 1usize..3), 1..=3),
            1usize..4,
        )
            .prop_map(|(dims, p)| TopologySpec::HyperX { dims, p }),
    ]
}

/// Arbitrary *structurally well-formed* configurations. They need not pass
/// `validate()` (e.g. the policy may not match the arrangement); the
/// property is that serialization never changes what `validate()` says.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    let arrangement = prop_oneof![
        (2usize..6, 1usize..4).prop_map(|(l, g)| Arrangement::dragonfly(l, g)),
        (1usize..4).prop_map(Arrangement::zigzag),
        ((2usize..5, 1usize..3), (2usize..5, 1usize..3))
            .prop_map(|(req, rep)| Arrangement::dragonfly_rr(req, rep)),
        (1usize..6).prop_map(Arrangement::generic),
        (1usize..4, 1usize..4).prop_map(|(q, p)| Arrangement::generic_rr(q, p)),
    ];
    let routing = prop_oneof![
        Just(RoutingMode::Min),
        Just(RoutingMode::Valiant),
        Just(RoutingMode::Par),
        Just(RoutingMode::Piggyback),
    ];
    let policy = prop_oneof![Just(VcPolicy::Baseline), Just(VcPolicy::FlexVc)];
    let selection = prop_oneof![
        Just(VcSelection::Jsq),
        Just(VcSelection::HighestVc),
        Just(VcSelection::LowestVc),
        Just(VcSelection::Random),
    ];
    let sizing = prop_oneof![
        (8u32..64, 8u32..512).prop_map(|(local, global)| BufferSizing::PerVc { local, global }),
        (32u32..256, 64u32..1024)
            .prop_map(|(local, global)| BufferSizing::PerPort { local, global }),
    ];
    let organization = prop_oneof![
        Just(BufferOrg::Static),
        (0u32..=4).prop_map(|q| BufferOrg::Damq {
            private_fraction: q as f64 / 4.0
        }),
    ];
    let sensing_mode = prop_oneof![Just(SensingMode::PerPort), Just(SensingMode::PerVc)];
    (
        (arb_topology(), routing, policy, arrangement, selection),
        arb_workload(),
        (sizing, organization, 8u32..512, 8u32..64),
        (sensing_mode, any::<bool>(), 1u32..8),
        (1u32..16, 1usize..4, 0u32..64, 1usize..16),
    )
        .prop_map(
            |(
                (topology, routing, policy, arrangement, selection),
                workload,
                (sizing, organization, injection, output),
                (mode, min_cred, threshold),
                (packet_size, injection_vcs, revert_patience, reply_queue_packets),
            )| {
                let mut cfg = SimConfig::dragonfly_baseline(
                    2,
                    RoutingMode::Min,
                    Workload::oblivious(Pattern::Uniform),
                );
                cfg.topology = topology;
                cfg.routing = routing;
                cfg.policy = policy;
                cfg.arrangement = arrangement;
                cfg.selection = selection;
                cfg.workload = workload;
                cfg.buffers.sizing = sizing;
                cfg.buffers.organization = organization;
                cfg.buffers.injection = injection;
                cfg.buffers.output = output;
                cfg.sensing.mode = mode;
                cfg.sensing.min_cred = min_cred;
                cfg.sensing.threshold = threshold;
                cfg.packet_size = packet_size;
                cfg.injection_vcs = injection_vcs;
                cfg.revert_patience = revert_patience;
                cfg.reply_queue_packets = reply_queue_packets;
                cfg
            },
        )
}

/// Document-level equality: both directions of both formats reproduce the
/// same value model, and `validate()` agrees before/after.
fn assert_round_trip(cfg: &SimConfig) {
    let doc = to_json(cfg);
    let via_json: SimConfig = from_json(&to_json_pretty(cfg)).expect("JSON parses");
    assert_eq!(
        to_json(&via_json),
        doc,
        "JSON round trip changed the config"
    );

    let toml = to_toml(cfg).expect("TOML emits");
    let via_toml: SimConfig = from_toml(&toml).unwrap_or_else(|e| panic!("{e}\n{toml}"));
    assert_eq!(
        to_json(&via_toml),
        doc,
        "TOML round trip changed the config"
    );

    let verdict = cfg.validate().is_ok();
    assert_eq!(
        via_json.validate().is_ok(),
        verdict,
        "validate() changed across JSON round trip"
    );
    assert_eq!(
        via_toml.validate().is_ok(),
        verdict,
        "validate() changed across TOML round trip"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// serialize → deserialize ≡ identity on the document model, and the
    /// validate() verdict is preserved, for arbitrary configurations.
    #[test]
    fn sim_config_round_trips(cfg in arb_config()) {
        assert_round_trip(&cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Whole scenarios round-trip through both formats.
    #[test]
    fn scenario_round_trips(
        cfgs in proptest::collection::vec(arb_config(), 1..4),
        seeds in proptest::collection::vec(1u64..100, 1..4),
    ) {
        let points = cfgs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| PointSpec {
                series: format!("series-{}", i % 2),
                x: format!("{i}"),
                load: (i + 1) as f64 / 10.0,
                cfg,
            })
            .collect();
        let sc = Scenario {
            name: "prop".into(),
            title: "property scenario".into(),
            description: "round trip".into(),
            seeds,
            points,
            classifications: Vec::new(),
        };
        let doc = to_json(&sc);
        let via_json: Scenario = from_json(&doc).expect("JSON parses");
        prop_assert_eq!(to_json(&via_json), doc.clone());
        let toml = to_toml(&sc).expect("TOML emits");
        let via_toml: Scenario = from_toml(&toml).unwrap_or_else(|e| panic!("{e}\n{toml}"));
        prop_assert_eq!(to_json(&via_toml), doc);
    }
}

/// The hand-picked corners: every enum variant appears in at least one
/// round-tripped configuration.
#[test]
fn corner_configs_round_trip() {
    let mut cfgs = Vec::new();
    for routing in [
        RoutingMode::Min,
        RoutingMode::Valiant,
        RoutingMode::Par,
        RoutingMode::Piggyback,
    ] {
        for reactive in [false, true] {
            let wl = if reactive {
                Workload::reactive(Pattern::adv1())
            } else {
                Workload::oblivious(Pattern::adv1())
            };
            cfgs.push(SimConfig::dragonfly_baseline(2, routing, wl));
        }
    }
    let mut damq =
        SimConfig::dragonfly_baseline(3, RoutingMode::Min, Workload::oblivious(Pattern::bursty()))
            .with_flexvc(Arrangement::dragonfly(8, 4))
            .with_damq75();
    damq.buffers.sizing = BufferSizing::PerPort {
        local: 192,
        global: 768,
    };
    damq.selection = VcSelection::Random;
    damq.sensing.mode = SensingMode::PerVc;
    cfgs.push(damq);
    let mut fb = SimConfig::dragonfly_baseline(
        2,
        RoutingMode::Valiant,
        Workload::oblivious(Pattern::Uniform),
    );
    fb.topology = TopologySpec::HyperX {
        dims: vec![(4, 1); 2],
        p: 2,
    };
    fb.policy = VcPolicy::FlexVc;
    fb.arrangement = Arrangement::generic(4);
    cfgs.push(fb);
    let mut hx = SimConfig::hyperx_baseline(
        3,
        3,
        2,
        RoutingMode::Valiant,
        Workload::oblivious(Pattern::Uniform),
    );
    hx.policy = VcPolicy::FlexVc;
    hx.arrangement = Arrangement::generic(4);
    cfgs.push(hx);
    let mut hx_k = SimConfig::hyperx_baseline(
        2,
        4,
        1,
        RoutingMode::Min,
        Workload::oblivious(Pattern::Uniform),
    );
    hx_k.topology = TopologySpec::HyperX {
        dims: vec![(4, 2), (3, 1)],
        p: 1,
    };
    cfgs.push(hx_k);
    // Flow workloads: one corner per pattern, exercising every size
    // distribution at least once.
    for spec in [
        FlowSpec::uniform(SizeDist::Fixed { packets: 1 }),
        FlowSpec::permutation(SizeDist::mice_elephants()),
        FlowSpec::incast(4, SizeDist::heavy_tail()),
        FlowSpec {
            pattern: FlowPattern::Hotspot {
                hotspots: 2,
                fraction: 0.25,
            },
            sizes: SizeDist::Fixed { packets: 8 },
        },
    ] {
        cfgs.push(SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Min,
            Workload::flows(spec),
        ));
    }
    for cfg in &cfgs {
        assert_round_trip(cfg);
    }
}

/// Workload labels are a stable public identifier (scenario series names
/// and CSV rows key on them): the label survives a serde round trip of the
/// workload that produced it.
#[test]
fn workload_labels_survive_round_trips() {
    let workloads = [
        Workload::oblivious(Pattern::Uniform),
        Workload::reactive(Pattern::Uniform),
        Workload::flows(FlowSpec::uniform(SizeDist::Fixed { packets: 1 })),
        Workload::flows(FlowSpec::permutation(SizeDist::mice_elephants())),
        Workload::flows(FlowSpec::incast(8, SizeDist::heavy_tail())),
    ];
    let labels = ["UN", "UN-RR", "FLOWS-UN", "PERM/BIMODAL", "INCAST/PARETO"];
    for (wl, expect) in workloads.iter().zip(labels) {
        assert_eq!(wl.label(), expect);
        let back: Workload = from_json(&to_json(wl)).expect("workload JSON parses");
        assert_eq!(back.label(), expect, "label changed across round trip");
        assert_eq!(back, *wl);
    }
}

/// `Value` document equality is the strong form; also sanity-check one
/// deep field across a TOML round trip.
#[test]
fn toml_preserves_deep_fields() {
    let mut cfg = SimConfig::dragonfly_baseline(
        2,
        RoutingMode::Piggyback,
        Workload::reactive(Pattern::adv1()),
    )
    .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
    cfg.sensing.min_cred = true;
    cfg.sensing.threshold = 7;
    let toml = to_toml(&cfg).unwrap();
    let back: SimConfig = from_toml(&toml).unwrap();
    assert!(back.sensing.min_cred);
    assert_eq!(back.sensing.threshold, 7);
    assert_eq!(back.arrangement, cfg.arrangement);
    assert_eq!(back.to_value(), cfg.to_value());
}
