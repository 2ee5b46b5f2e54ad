//! Behavioural tests of the simulation engine at tiny scale.
//!
//! These exercise the full stack (topology → traffic → routing → router
//! microarchitecture → metrics) on an h=2 Dragonfly with short windows so
//! they stay fast in debug builds. The quantitative paper-shape checks live
//! in the workspace-level integration tests (run in release).

use flexvc_core::{Arrangement, LinkClass, RoutingMode, VcPolicy, VcSelection};
use flexvc_sim::prelude::*;
use flexvc_sim::MAX_VCS;
use flexvc_traffic::{Pattern, Workload};

fn base(routing: RoutingMode, pattern: Pattern) -> SimConfig {
    let mut cfg = SimConfig::dragonfly_baseline(2, routing, Workload::oblivious(pattern));
    cfg.warmup = 1_500;
    cfg.measure = 3_000;
    cfg.watchdog = 8_000;
    cfg
}

#[test]
fn min_uniform_low_load_delivers_offered() {
    let cfg = base(RoutingMode::Min, Pattern::Uniform);
    let r = run_one(&cfg, 0.2, 1).unwrap();
    assert!(!r.deadlocked);
    assert!(
        (r.accepted - 0.2).abs() < 0.03,
        "accepted {} vs offered 0.2",
        r.accepted
    );
    assert_eq!(r.drop_fraction, 0.0, "no drops far below saturation");
    // Zero-load latency sanity: a MIN path crosses at most 1 global
    // (100 cycles) + 2 local links (10 each) + 4 router pipelines + packet
    // serialization; queueing at 0.2 load adds little.
    assert!(r.latency > 30.0, "latency {} too small", r.latency);
    assert!(r.latency < 350.0, "latency {} too large", r.latency);
    // Hierarchical MIN paths are at most 3 hops + ejection.
    assert!(r.avg_hops <= 3.0 + 1e-9, "avg hops {}", r.avg_hops);
    assert_eq!(r.misroute_fraction, 0.0);
}

#[test]
fn results_are_deterministic_per_seed() {
    let cfg = base(RoutingMode::Min, Pattern::Uniform);
    let a = run_one(&cfg, 0.35, 7).unwrap();
    let b = run_one(&cfg, 0.35, 7).unwrap();
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.latency, b.latency);
    let c = run_one(&cfg, 0.35, 8).unwrap();
    assert!(
        (a.accepted, a.latency) != (c.accepted, c.latency),
        "different seeds should differ"
    );
}

#[test]
fn flexvc_min_2_1_works() {
    let cfg = base(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly_min());
    let r = run_one(&cfg, 0.2, 1).unwrap();
    assert!(!r.deadlocked);
    assert!((r.accepted - 0.2).abs() < 0.03, "accepted {}", r.accepted);
}

#[test]
fn flexvc_min_exploits_4_2() {
    let cfg = base(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly(4, 2));
    let r = run_one(&cfg, 0.3, 1).unwrap();
    assert!(!r.deadlocked);
    assert!((r.accepted - 0.3).abs() < 0.03, "accepted {}", r.accepted);
}

#[test]
fn valiant_handles_adversarial() {
    // Under ADV+1, minimal routing is capped by the single inter-group
    // global link: a*p nodes share 1 phit/cycle => 1/8 with h=2.
    let min = base(RoutingMode::Min, Pattern::adv1());
    let r_min = run_one(&min, 0.5, 1).unwrap();
    assert!(
        r_min.accepted < 0.20,
        "MIN under ADV should saturate near 0.125, got {}",
        r_min.accepted
    );
    let val = base(RoutingMode::Valiant, Pattern::adv1());
    let r_val = run_one(&val, 0.5, 1).unwrap();
    assert!(!r_val.deadlocked);
    assert!(
        r_val.accepted > r_min.accepted + 0.1,
        "VAL {} must clearly beat MIN {} under ADV",
        r_val.accepted,
        r_min.accepted
    );
    assert!(r_val.misroute_fraction > 0.9, "VAL misroutes everything");
}

#[test]
fn valiant_paths_are_longer() {
    let val = base(RoutingMode::Valiant, Pattern::Uniform);
    let r = run_one(&val, 0.2, 3).unwrap();
    assert!(
        r.avg_hops > 3.0,
        "VAL avg hops {} should exceed MIN",
        r.avg_hops
    );
    assert!(r.avg_hops <= 6.0 + 1e-9);
}

#[test]
fn reactive_traffic_round_trips() {
    let mut cfg =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::reactive(Pattern::Uniform));
    cfg.warmup = 2_000;
    cfg.measure = 3_000;
    cfg.watchdog = 8_000;
    let r = run_one(&cfg, 0.3, 1).unwrap();
    assert!(!r.deadlocked);
    assert!((r.accepted - 0.3).abs() < 0.05, "accepted {}", r.accepted);
    assert!(r.latency_rep > 0.0, "replies must flow");
    assert!(r.latency_req > 0.0);
}

#[test]
fn flexvc_reactive_5_3_runs() {
    // The 50%-reduction configuration: 3/2 + 2/1 VCs (paper §III-C).
    let mut cfg =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::reactive(Pattern::Uniform))
            .with_flexvc(Arrangement::dragonfly_rr((3, 2), (2, 1)));
    cfg.warmup = 2_000;
    cfg.measure = 3_000;
    cfg.watchdog = 8_000;
    let r = run_one(&cfg, 0.3, 2).unwrap();
    assert!(!r.deadlocked);
    assert!((r.accepted - 0.3).abs() < 0.05, "accepted {}", r.accepted);
}

#[test]
fn damq_without_reservation_deadlocks_at_saturation() {
    // Fig. 10: a fully shared DAMQ lets VC0 absorb whole ports and the
    // VC escape chain wedges. The watchdog must flag it.
    let mut cfg = base(RoutingMode::Min, Pattern::Uniform);
    cfg.buffers.organization = BufferOrg::Damq {
        private_fraction: 0.0,
    };
    cfg.warmup = 2_000;
    cfg.measure = 20_000;
    cfg.watchdog = 4_000;
    let r = run_one(&cfg, 1.0, 1).unwrap();
    assert!(
        r.deadlocked,
        "fully-shared DAMQ should deadlock at saturation (accepted {})",
        r.accepted
    );
}

#[test]
fn damq_75_private_does_not_deadlock() {
    let mut cfg = base(RoutingMode::Min, Pattern::Uniform).with_damq75();
    cfg.measure = 4_000;
    let r = run_one(&cfg, 0.9, 1).unwrap();
    assert!(!r.deadlocked, "75% private DAMQ must be stable");
    assert!(r.accepted > 0.3);
}

#[test]
fn static_buffers_never_deadlock_at_saturation() {
    for policy_flex in [false, true] {
        let mut cfg = base(RoutingMode::Min, Pattern::Uniform);
        if policy_flex {
            cfg = cfg.with_flexvc(Arrangement::dragonfly(4, 2));
        }
        cfg.measure = 4_000;
        let r = run_one(&cfg, 1.0, 5).unwrap();
        assert!(!r.deadlocked, "flex={policy_flex} deadlocked");
        assert!(
            r.accepted > 0.3,
            "flex={policy_flex} accepted {}",
            r.accepted
        );
    }
}

#[test]
fn watchdog_tolerates_saturated_but_draining_network() {
    // Regression guard for the watchdog false-positive fix: a saturated
    // ADV+1 network under MIN is extremely congested (every group funnels
    // into one global link) but alive — grants can be spaced by long
    // credit round trips (~2 x (100 + 10) cycles). Since credit returns
    // and link serialization now count as forward progress, a watchdog of
    // a few credit RTTs must not flag this as a deadlock.
    let mut cfg = base(RoutingMode::Min, Pattern::adv1());
    cfg.warmup = 2_000;
    cfg.measure = 6_000;
    cfg.watchdog = 500;
    let r = run_one(&cfg, 1.0, 1).unwrap();
    assert!(
        !r.deadlocked,
        "saturated-but-draining network misflagged as deadlocked"
    );
    assert!(
        r.accepted > 0.05,
        "network must keep draining, accepted {}",
        r.accepted
    );
    // The genuine-deadlock counterpart lives in
    // `damq_without_reservation_deadlocks_at_saturation`: when nothing
    // moves at all (no grants, no credits), the watchdog must still fire.
}

#[test]
fn credit_returns_count_as_progress() {
    // Direct probe of the fix: while packets are in flight, returning
    // credits alone must refresh `last_progress` even on cycles without
    // any grant or consumption.
    let mut cfg = base(RoutingMode::Min, Pattern::Uniform);
    cfg.warmup = 0;
    cfg.measure = u64::MAX / 2;
    cfg.watchdog = u64::MAX / 2;
    let mut net = Network::new(cfg, 0.4, 3).unwrap();
    for _ in 0..2_000 {
        net.step();
    }
    // In a warmed 0.4-load network some progress source fires essentially
    // every cycle; the gap must stay far below one credit round trip.
    let mut max_gap = 0;
    for _ in 0..2_000 {
        net.step();
        max_gap = max_gap.max(net.cycle().saturating_sub(net.last_progress()));
    }
    assert!(
        max_gap < 110,
        "progress gaps of {max_gap} cycles in a busy network suggest a progress source went missing"
    );
}

#[test]
fn bursty_traffic_flows() {
    let cfg = base(RoutingMode::Min, Pattern::bursty());
    let r = run_one(&cfg, 0.3, 1).unwrap();
    assert!(!r.deadlocked);
    assert!((r.accepted - 0.3).abs() < 0.05, "accepted {}", r.accepted);
}

#[test]
fn piggyback_uniform_routes_mostly_minimal() {
    let cfg = base(RoutingMode::Piggyback, Pattern::Uniform);
    let r = run_one(&cfg, 0.2, 1).unwrap();
    assert!(!r.deadlocked);
    assert!(
        r.misroute_fraction < 0.25,
        "PB at low UN load should stay minimal, misroute {}",
        r.misroute_fraction
    );
}

#[test]
fn piggyback_adversarial_misroutes() {
    let cfg = base(RoutingMode::Piggyback, Pattern::adv1());
    let r = run_one(&cfg, 0.4, 1).unwrap();
    assert!(!r.deadlocked);
    assert!(
        r.misroute_fraction > 0.5,
        "PB under ADV must divert most traffic, misroute {}",
        r.misroute_fraction
    );
    assert!(r.accepted > 0.2, "PB under ADV accepted {}", r.accepted);
}

#[test]
fn par_runs_on_5_2() {
    let cfg = base(RoutingMode::Par, Pattern::adv1());
    let r = run_one(&cfg, 0.3, 1).unwrap();
    assert!(!r.deadlocked);
    assert!(r.accepted > 0.15, "PAR under ADV accepted {}", r.accepted);
}

#[test]
fn selection_functions_all_run() {
    for sel in VcSelection::all() {
        let mut cfg =
            base(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::dragonfly(4, 2));
        cfg.selection = sel;
        cfg.warmup = 1_000;
        cfg.measure = 2_000;
        let r = run_one(&cfg, 0.4, 1).unwrap();
        assert!(!r.deadlocked, "{sel}");
        assert!(
            (r.accepted - 0.4).abs() < 0.06,
            "{sel}: accepted {}",
            r.accepted
        );
    }
}

#[test]
fn flatbutterfly_generic_network_runs() {
    let mut cfg =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    // The 4 × 4 flattened butterfly: the 2-D unit-multiplicity HyperX.
    cfg.topology = TopologySpec::HyperX {
        dims: vec![(4, 1); 2],
        p: 2,
    };
    cfg.arrangement = Arrangement::generic(2);
    cfg.warmup = 1_000;
    cfg.measure = 2_000;
    let r = run_one(&cfg, 0.3, 1).unwrap();
    assert!(!r.deadlocked);
    assert!((r.accepted - 0.3).abs() < 0.05, "accepted {}", r.accepted);

    // FlexVC with extra VCs on the generic network (Fig. 3a setting).
    let cfg2 = {
        let mut c = cfg.clone();
        c.policy = VcPolicy::FlexVc;
        c.arrangement = Arrangement::generic(4);
        c
    };
    let r2 = run_one(&cfg2, 0.3, 1).unwrap();
    assert!(!r2.deadlocked);

    // Opportunistic Valiant with 3 VCs (Fig. 3b setting).
    let cfg3 = {
        let mut c = cfg.clone();
        c.policy = VcPolicy::FlexVc;
        c.routing = RoutingMode::Valiant;
        c.arrangement = Arrangement::generic(3);
        c
    };
    let r3 = run_one(&cfg3, 0.2, 1).unwrap();
    assert!(!r3.deadlocked);
    assert!(r3.accepted > 0.1);
}

#[test]
fn flexvc_opportunistic_3_2_reverts_under_pressure() {
    // VAL on 3/2 VCs is opportunistic: at saturation some packets must
    // revert to their minimal escape (truncated detours).
    let mut cfg =
        base(RoutingMode::Valiant, Pattern::Uniform).with_flexvc(Arrangement::dragonfly(3, 2));
    cfg.measure = 3_000;
    let r = run_one(&cfg, 0.9, 1).unwrap();
    assert!(!r.deadlocked);
    assert!(r.accepted > 0.2);
    assert!(
        r.reverts_per_packet > 0.0,
        "opportunistic VAL at saturation should revert sometimes"
    );
}

#[test]
fn more_vcs_than_the_engine_tracks_is_a_typed_error() {
    // Regression: this arrangement (19 local VCs) used to pass `validate`
    // and then index past the allocator's candidate scratch, then 16
    // entries wide, at load 0.9 — VCs >= 16 were also invisible to the
    // `u16` VC mask. The engine's per-VC state is now as wide as the
    // widest port (4, 8 or 16 entries), never wider than MAX_VCS.
    let seq: Vec<LinkClass> = "L G L L L L L L L L L L L L L L L L L G L"
        .split(' ')
        .map(|t| match t {
            "L" => LinkClass::Local,
            _ => LinkClass::Global,
        })
        .collect();
    let cfg = base(RoutingMode::Min, Pattern::Uniform).with_flexvc(Arrangement::new(seq));
    let too_many = |what, vcs| ConfigError::TooManyVcs {
        what,
        vcs,
        max: MAX_VCS,
    };
    let err = run_one(&cfg, 0.9, 1).unwrap_err().to_string();
    assert!(
        err.ends_with("19 local VCs exceed the supported maximum of 16"),
        "{err}"
    );
    assert_eq!(Network::new(cfg, 0.9, 1).err(), Some(too_many("local", 19)));

    // The bound covers the injection queues, and is inclusive: 16
    // injection VCs build the 16-wide engine.
    let mut cfg = base(RoutingMode::Min, Pattern::Uniform);
    cfg.injection_vcs = MAX_VCS + 1;
    assert_eq!(cfg.validate(), Err(too_many("injection", MAX_VCS + 1)));
    cfg.injection_vcs = MAX_VCS;
    assert_eq!(cfg.validate(), Ok(()));
    assert!(!run_one(&cfg, 0.3, 1).unwrap().deadlocked);
}
