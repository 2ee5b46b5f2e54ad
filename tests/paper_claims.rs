//! End-to-end integration tests asserting the *shape* of the paper's
//! headline results at test scale (h = 2 Dragonfly, short windows).
//!
//! Absolute numbers differ from the paper (its testbed is a 16k-node h=8
//! network measured over 5×60k cycles); orderings and crossovers are what
//! these tests pin down. The full curves are regenerated through the
//! `flexvc` CLI (`flexvc run fig5 …`).

use flexvc::core::{Arrangement, RoutingMode};
use flexvc::sim::prelude::*;
use flexvc::traffic::{Pattern, Workload};

fn base(routing: RoutingMode, workload: Workload) -> SimConfig {
    let mut cfg = SimConfig::dragonfly_baseline(2, routing, workload);
    cfg.warmup = 3_000;
    cfg.measure = 6_000;
    cfg.watchdog = 10_000;
    cfg
}

// Unwrapping shim over the non-panicking runner API: every configuration
// in this file is valid by construction, so a runner error is a test bug.
// (The local definition shadows the glob-imported fallible version.) At a
// load of 1.0 it measures the paper's maximum throughput (Figs. 6, 11).
fn run_averaged(cfg: &SimConfig, load: f64, seeds: &[u64]) -> SimResult {
    flexvc::sim::run_averaged(cfg, load, seeds).expect("valid test config")
}

const SEEDS: [u64; 2] = [11, 12];

/// Fig. 5a ordering: baseline <= DAMQ <= FlexVC 2/1 < FlexVC 4/2 < 8/4
/// saturation throughput under UN/MIN.
#[test]
fn fig5_ordering_uniform() {
    let b = base(RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    let baseline = run_averaged(&b, 1.0, &SEEDS).accepted;
    let damq = run_averaged(&b.clone().with_damq75(), 1.0, &SEEDS).accepted;
    let f21 = run_averaged(
        &b.clone().with_flexvc(Arrangement::dragonfly_min()),
        1.0,
        &SEEDS,
    )
    .accepted;
    let f42 = run_averaged(
        &b.clone().with_flexvc(Arrangement::dragonfly(4, 2)),
        1.0,
        &SEEDS,
    )
    .accepted;
    let f84 = run_averaged(
        &b.clone().with_flexvc(Arrangement::dragonfly(8, 4)),
        1.0,
        &SEEDS,
    )
    .accepted;
    // Allow small noise margins on the near-ties, none on the big gaps.
    assert!(damq > baseline - 0.02, "DAMQ {damq} vs baseline {baseline}");
    assert!(f21 > baseline, "FlexVC 2/1 {f21} vs baseline {baseline}");
    assert!(f42 > f21 + 0.05, "FlexVC 4/2 {f42} vs 2/1 {f21}");
    assert!(f84 > f42 + 0.02, "FlexVC 8/4 {f84} vs 4/2 {f42}");
    assert!(f84 > baseline * 1.15, "headline: >15% over baseline");
}

/// Fig. 5c: under ADV everything is bounded by ~0.5 (VAL halves capacity),
/// and FlexVC 8/4 approaches the bound.
#[test]
fn fig5_adversarial_valiant_bound() {
    let b = base(RoutingMode::Valiant, Workload::oblivious(Pattern::adv1()));
    let baseline = run_averaged(&b, 1.0, &SEEDS).accepted;
    let f84 = run_averaged(
        &b.clone().with_flexvc(Arrangement::dragonfly(8, 4)),
        1.0,
        &SEEDS,
    )
    .accepted;
    assert!(baseline > 0.35 && baseline < 0.55, "VAL bound: {baseline}");
    assert!(
        f84 >= baseline - 0.01,
        "FlexVC {f84} vs baseline {baseline}"
    );
    assert!(f84 < 0.55, "cannot exceed the VAL limit");
}

/// Fig. 5b: under bursty traffic FlexVC reduces latency well below
/// saturation (HoLB mitigation), not just at the throughput cliff.
#[test]
fn fig5_bursty_latency_gap_below_saturation() {
    let b = base(RoutingMode::Min, Workload::oblivious(Pattern::bursty()));
    let baseline = run_averaged(&b, 0.4, &SEEDS);
    let f84 = run_averaged(
        &b.clone().with_flexvc(Arrangement::dragonfly(8, 4)),
        0.4,
        &SEEDS,
    );
    assert!(!baseline.deadlocked && !f84.deadlocked);
    assert!(
        f84.latency < baseline.latency,
        "FlexVC 8/4 latency {} must beat baseline {} at 0.4 load",
        f84.latency,
        baseline.latency
    );
}

/// Fig. 7a: request-reply congestion — at h = 2 test scale, UN-RR
/// saturation is consumption-bound, so FlexVC with the *same* VC budget
/// ties the baseline within noise; giving the request sub-path more VCs
/// (4/3+2/1) opens a small but reproducible gap over both the baseline and
/// the minimum split. (The large gaps of Fig. 7 need the paper's full
/// group size a = 16.) Six seeds keep the margins above seed noise.
#[test]
fn fig7_request_subpath_vcs_dominate() {
    let seeds: Vec<u64> = (11..=16).collect();
    let b = base(RoutingMode::Min, Workload::reactive(Pattern::Uniform));
    let baseline = run_averaged(&b, 1.0, &seeds).accepted;
    let f2121 = run_averaged(
        &b.clone()
            .with_flexvc(Arrangement::dragonfly_rr((2, 1), (2, 1))),
        1.0,
        &seeds,
    )
    .accepted;
    let f4321 = run_averaged(
        &b.clone()
            .with_flexvc(Arrangement::dragonfly_rr((4, 3), (2, 1))),
        1.0,
        &seeds,
    )
    .accepted;
    assert!(
        f2121 > baseline - 0.02,
        "FlexVC same VCs {f2121} must stay competitive with baseline {baseline}"
    );
    assert!(
        f4321 > f2121 + 0.005,
        "more request VCs must help: {f4321} vs minimum split {f2121}"
    );
    assert!(
        f4321 > baseline,
        "best split beats the baseline: {f4321} vs {baseline}"
    );
}

/// §III-B headline: the 5-VC unified arrangement (3+2) supports the same
/// traffic the baseline needs 10 VCs for, at equal-or-better throughput
/// per buffer — here we check it runs within noise of the baseline's
/// saturation throughput while using 25% fewer VCs (6/3 vs 8/4 buffers at
/// the paper's scale; the gap in FlexVC's favour opens at a = 16).
#[test]
fn fifty_percent_vc_reduction_runs_competitively() {
    let seeds: Vec<u64> = (11..=16).collect();
    let b = base(RoutingMode::Min, Workload::reactive(Pattern::Uniform));
    let baseline = run_averaged(&b, 1.0, &seeds).accepted; // 4/2 = 2/1+2/1
    let r5 = run_averaged(
        &b.clone()
            .with_flexvc(Arrangement::dragonfly_rr((3, 2), (2, 1))),
        1.0,
        &seeds,
    );
    assert!(!r5.deadlocked, "5/3 split must stay deadlock-free");
    assert!(
        r5.accepted > baseline - 0.015,
        "FlexVC 5/3 {} must be competitive with the baseline {baseline}",
        r5.accepted
    );
}

/// Fig. 8c orderings: per-VC sensing beats per-port for baseline PB under
/// ADV; FlexVC-minCred per-port is competitive with the best baseline while
/// using 25% fewer VCs; plain FlexVC sensing is worse than minCred.
#[test]
fn fig8_mincred_restores_adaptive_sensing() {
    let wl = Workload::reactive(Pattern::adv1());
    let pb = base(RoutingMode::Piggyback, wl);
    let flex = pb
        .clone()
        .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));
    let sense = |cfg: &SimConfig, mode: SensingMode, min_cred: bool| {
        let mut c = cfg.clone();
        c.sensing = SensingConfig {
            mode,
            min_cred,
            threshold: 3,
        };
        run_averaged(&c, 0.5, &SEEDS).accepted
    };
    let pb_vc = sense(&pb, SensingMode::PerVc, false);
    let pb_port = sense(&pb, SensingMode::PerPort, false);
    let flex_port = sense(&flex, SensingMode::PerPort, false);
    let flex_min_port = sense(&flex, SensingMode::PerPort, true);
    assert!(
        pb_vc > pb_port,
        "per-VC sensing {pb_vc} must beat per-port {pb_port} under ADV"
    );
    assert!(
        flex_min_port > flex_port,
        "minCred {flex_min_port} must beat plain FlexVC sensing {flex_port}"
    );
    assert!(
        flex_min_port > pb_vc - 0.03,
        "minCred per-port {flex_min_port} must be competitive with baseline {pb_vc}"
    );
}

/// Fig. 11 headline: without router speedup the HoLB penalty grows and so
/// does FlexVC's gain.
#[test]
fn fig11_gains_grow_without_speedup() {
    let mut b = base(RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    b.speedup = 1;
    let baseline = run_averaged(&b, 1.0, &SEEDS).accepted;
    let f84 = run_averaged(
        &b.clone().with_flexvc(Arrangement::dragonfly(8, 4)),
        1.0,
        &SEEDS,
    )
    .accepted;
    let gain_no_speedup = f84 / baseline;
    assert!(
        gain_no_speedup > 1.2,
        "no-speedup gain {gain_no_speedup} should exceed 20%"
    );
}

/// Fig. 10: DAMQ reservation sweep endpoints — 0% private deadlocks at
/// saturation, 75% does not and performs at least as well as fully static.
#[test]
fn fig10_damq_reservation_endpoints() {
    let mut b = base(RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    b.buffers.sizing = BufferSizing::PerPort {
        local: 128,
        global: 512,
    };
    b.watchdog = 4_000;
    let mut zero = b.clone();
    zero.buffers.organization = BufferOrg::Damq {
        private_fraction: 0.0,
    };
    // The wedge is stochastic ("may occur for any traffic load" — §VI-C);
    // give it a long saturated window and accept any seed deadlocking.
    zero.measure = 30_000;
    zero.watchdog = 5_000;
    let wedged = [11u64, 12, 13]
        .iter()
        .any(|&s| run_one(&zero, 1.0, s).unwrap().deadlocked);
    assert!(wedged, "fully-shared DAMQ must deadlock at saturation");
    let mut seventy_five = b.clone();
    seventy_five.buffers.organization = BufferOrg::Damq {
        private_fraction: 0.75,
    };
    let r75 = run_averaged(&seventy_five, 1.0, &SEEDS);
    assert!(!r75.deadlocked);
    let stat = run_averaged(&b, 1.0, &SEEDS);
    assert!(
        r75.accepted > stat.accepted - 0.03,
        "75% DAMQ {} should be close to static {}",
        r75.accepted,
        stat.accepted
    );
}
