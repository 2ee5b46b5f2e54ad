//! Quickstart: simulate a Dragonfly under uniform traffic and compare the
//! baseline distance-based VC policy against FlexVC: a baseline
//! constructor, plain field assignment, `validate()`, and the
//! non-panicking runner.
//!
//! Run with: `cargo run --release --example quickstart`

use flexvc::core::{Arrangement, RoutingMode};
use flexvc::sim::prelude::*;
use flexvc::traffic::{Pattern, Workload};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // A balanced h=2 Dragonfly: 9 groups, 36 routers, 72 nodes. Everything
    // else follows Table V of the paper (10/100-cycle links, 8-phit packets,
    // 2x crossbar speedup, JSQ selection, the minimum 2/1 VC arrangement for
    // MIN). Fields that differ are plain assignments; `validate()` returns a
    // typed ConfigError on inconsistent input instead of panicking later.
    let mut baseline =
        SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform));
    baseline.warmup = 5_000;
    baseline.measure = 10_000;
    baseline.watchdog = 7_500;
    baseline.validate()?;

    // FlexVC on the same minimal 2/1 arrangement, and on the 4/2 arrangement
    // that a VAL-capable router would already provision.
    let flexvc_21 = baseline.clone().with_flexvc(Arrangement::dragonfly_min());
    let flexvc_42 = baseline.clone().with_flexvc(Arrangement::dragonfly(4, 2));

    println!("UN traffic, MIN routing, offered load 0.9 phits/node/cycle\n");
    println!(
        "{:<22} {:>9} {:>10} {:>8}",
        "policy", "accepted", "latency", "hops"
    );
    for (name, cfg) in [
        ("baseline 2/1", &baseline),
        ("FlexVC 2/1", &flexvc_21),
        ("FlexVC 4/2", &flexvc_42),
    ] {
        let r = run_averaged(cfg, 0.9, &[1, 2, 3])?;
        println!(
            "{:<22} {:>9.3} {:>10.1} {:>8.2}",
            name, r.accepted, r.latency, r.avg_hops
        );
    }
    println!("\nFlexVC lets every packet choose among all deadlock-safe VCs");
    println!("per hop, so the same buffers carry more load before saturating.");
    Ok(())
}
