//! Adaptive-routing showdown under adversarial traffic (paper Fig. 8c):
//! Piggyback source-adaptive routing must *sense* that the minimal global
//! channel is jammed. FlexVC merges minimal and Valiant flows in the same
//! buffers and blinds the sensor; FlexVC-minCred restores the signal by
//! accounting minimally-routed credits separately — with 25% fewer VCs than
//! the baseline.
//!
//! Run with: `cargo run --release --example adaptive_showdown`

use flexvc::core::{Arrangement, RoutingMode};
use flexvc::sim::prelude::*;
use flexvc::traffic::{Pattern, Workload};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let wl = Workload::reactive(Pattern::adv1());
    // The baseline constructor doubles the 4/2 PB minimum into 8/4
    // request/reply VCs for the reactive workload.
    let mut pb = SimConfig::dragonfly_baseline(2, RoutingMode::Piggyback, wl);
    pb.warmup = 5_000;
    pb.measure = 10_000;
    pb.watchdog = 7_500;
    pb.validate()?;

    let flex = pb
        .clone()
        .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)));

    let variant = |cfg: &SimConfig, mode: SensingMode, min_cred: bool| -> SimConfig {
        let mut c = cfg.clone();
        c.sensing = SensingConfig {
            mode,
            min_cred,
            threshold: c.sensing.threshold,
        };
        c
    };

    let series = [
        (
            "PB baseline per-VC (8/4 VCs)",
            variant(&pb, SensingMode::PerVc, false),
        ),
        (
            "PB baseline per-port",
            variant(&pb, SensingMode::PerPort, false),
        ),
        (
            "PB FlexVC per-VC (6/3 VCs)",
            variant(&flex, SensingMode::PerVc, false),
        ),
        (
            "PB FlexVC per-port",
            variant(&flex, SensingMode::PerPort, false),
        ),
        (
            "PB FlexVC-minCred per-VC",
            variant(&flex, SensingMode::PerVc, true),
        ),
        (
            "PB FlexVC-minCred per-port",
            variant(&flex, SensingMode::PerPort, true),
        ),
    ];

    println!("ADV+1 request-reply traffic at offered load 0.5\n");
    println!(
        "{:<30} {:>9} {:>9} {:>10}",
        "variant", "accepted", "latency", "misroute%"
    );
    for (name, cfg) in &series {
        let r = run_averaged(cfg, 0.5, &[1, 2])?;
        println!(
            "{:<30} {:>9.3} {:>9.0} {:>9.0}%",
            name,
            r.accepted,
            r.latency,
            r.misroute_fraction * 100.0
        );
    }
    println!("\nminCred identifies the adversarial pattern (high misroute%)");
    println!("and restores throughput with a 25% smaller VC set.");
    Ok(())
}
