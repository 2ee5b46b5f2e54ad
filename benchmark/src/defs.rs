//! The benchmark's fixed tables — workloads and metric names — and the
//! loader for the frozen workload files. `BENCHMARK.json` mirrors these
//! tables; `tests/contract.rs` holds the two together.

use flexvc::bench::scenario::Scenario;
use flexvc::serde::{from_toml, to_json};
use flexvc::sim::SimResult;
use std::path::PathBuf;

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-engine kernels stepped in timed slices, interleaved
    /// round-robin across the workload's kernels.
    Slices,
    /// Whole `ShardedNetwork::run` calls on fresh builds.
    ShardedRuns,
    /// The scenario file through validate → `run_scenario` → renderers.
    Pipeline,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name (`--workload`, and the file stem under `workloads/`).
    pub name: &'static str,
    /// How the runner drives it.
    pub kind: Kind,
    /// Offered load is below saturation, so every kernel must accept
    /// what was offered (±0.03).
    pub sub_saturation: bool,
    /// Drain the first kernel after its last slice and require nothing
    /// left in the network.
    pub drain_check: bool,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The seven workloads, in suite order.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "h2_lowload",
        kind: Kind::Slices,
        sub_saturation: true,
        drain_check: false,
        why: "h=2 MIN UN @0.3, five Fig. 5 series: cost is per event (wheels, worklists, generators); heads rarely block, so memo layers and VC scans idle",
    },
    WorkloadDef {
        name: "h2_saturated",
        kind: Kind::Slices,
        sub_saturation: false,
        drain_check: true,
        why: "same series @1.0 plus BURSTY-UN: the Fig. 5 headline, where allocate/evaluate_head re-examine blocked heads and the memos and VC scans do the work",
    },
    WorkloadDef {
        name: "h2_adaptive",
        kind: Kind::Slices,
        sub_saturation: false,
        drain_check: false,
        why: "VAL, PAR, the Fig. 8 PB trio, UGAL-G on Dragonfly+, DAL and UGAL-L on HyperX under ADV: everything the static-MIN fast path bypasses",
    },
    WorkloadDef {
        name: "flows_qos",
        kind: Kind::Slices,
        sub_saturation: false,
        drain_check: false,
        why: "four flow and four QoS kernels: FlowGenerator, FCT and per-class histograms, priority arbitration and the repartitioner run only here",
    },
    WorkloadDef {
        name: "paper_h8",
        kind: Kind::Slices,
        sub_saturation: true,
        drain_check: false,
        why: "h=8 Dragonfly (16,512 nodes) FlexVC 4/2 UN @0.3, single engine: the scale users need, where memory layout and set-up cost show",
    },
    WorkloadDef {
        name: "paper_h8_s2",
        kind: Kind::ShardedRuns,
        sub_saturation: true,
        drain_check: false,
        why: "paper_h8 through ShardedNetwork with 2 shards: the only workload that runs sim::shard; its result must equal paper_h8's bit for bit",
    },
    WorkloadDef {
        name: "sweep_points",
        kind: Kind::Pipeline,
        sub_saturation: false,
        drain_check: false,
        why: "92 short sims (Fig. 6-style capacity x policy sweep, h=2 and h=3) through parse, validate, run_scenario, render: cold build and warm-up dominate",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute difference `--agree` tolerates whatever the bound says
    /// (the issue's "15 % or 5 ms, whichever is larger" for `setup_s`:
    /// at h = 2 a whole set-up is about a millisecond). `BENCHMARK.json`
    /// has no field for it, so the driver does not apply it.
    pub floor: f64,
    /// Host wall-clock/memory (`true`) or a deterministic simulated
    /// statistic (`false`): two runs of one commit on one seed must agree
    /// exactly on the latter.
    pub host: bool,
}

/// The six end-to-end metrics. Bounds on the simulated statistics cover
/// the seed-to-seed spread (the driver compares medians over ten seeds);
/// on one seed they repeat exactly and `--agree` demands that.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: "higher",
        bound: 0.25,
        floor: 0.0,
        host: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.005,
        host: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        floor: 0.0,
        host: true,
    },
    EndToEnd {
        name: "accepted_load",
        unit: "phits/node/cyc",
        better: "higher",
        bound: 0.03,
        floor: 0.0,
        host: false,
    },
    EndToEnd {
        name: "latency_cycles",
        unit: "cycles",
        better: "lower",
        bound: 0.10,
        floor: 0.0,
        host: false,
    },
    EndToEnd {
        name: "latency_p99_cycles",
        unit: "cycles",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
        host: false,
    },
];

/// Per-layer metrics: `(name, unit, better)`. Layer = module; see
/// README.md for which call each one times.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("serde.toml_parse_us", "us", "lower"),
    ("serde.config_decode_us", "us", "lower"),
    ("serde.result_json_us", "us", "lower"),
    ("core.classify_us", "us", "lower"),
    ("core.flexvc_options_ns", "ns", "lower"),
    ("core.flexvc_lookahead_ns", "ns", "lower"),
    ("core.baseline_vc_ns", "ns", "lower"),
    ("topology.build_ms", "ms", "lower"),
    ("topology.min_route_ns", "ns", "lower"),
    ("topology.via_draw_ns", "ns", "lower"),
    ("traffic.next_ns", "ns", "lower"),
    ("traffic.est_share", "frac", "lower"),
    ("sim.config.validate_us", "us", "lower"),
    ("sim.plan.plan_injection_ns", "ns", "lower"),
    ("sim.plan.est_share", "frac", "lower"),
    ("sim.bank.push_pop_ns", "ns", "lower"),
    ("sim.bank.can_accept_ns", "ns", "lower"),
    ("sim.bank.est_share", "frac", "lower"),
    ("sim.arbiter.grant_ns", "ns", "lower"),
    ("sim.link.packet_roundtrip_ns", "ns", "lower"),
    ("sim.link.credit_roundtrip_ns", "ns", "lower"),
    ("sim.link.est_share", "frac", "lower"),
    ("sim.sensing.publish_tick_ns", "ns", "lower"),
    ("sim.engine.build_ms", "ms", "lower"),
    ("sim.engine.build_cold_ms", "ms", "lower"),
    ("sim.engine.rss_mb", "MiB", "lower"),
    ("sim.engine.warmup_cycles_per_s", "cycles/s", "higher"),
    ("sim.engine.step_us", "us", "lower"),
    ("sim.engine.ns_per_packet_hop", "ns", "lower"),
    ("sim.engine.slice_iqr_frac", "frac", "lower"),
    ("sim.engine.packets_delivered", "count", "higher"),
    ("sim.engine.packet_hops", "count", "lower"),
    ("sim.engine.residual_share", "frac", "lower"),
    ("sim.shard.build_ms", "ms", "lower"),
    ("sim.shard.work_s_max", "s", "lower"),
    ("sim.shard.barrier_wait_frac", "frac", "lower"),
    ("sim.shard.imbalance", "x", "lower"),
    ("sim.shard.epoch_cycles", "cycles", "higher"),
    ("sim.shard.speedup_vs_s1", "x", "higher"),
    ("sim.shard.rss_ratio_vs_s1", "x", "lower"),
    ("sim.metrics.aggregate_us", "us", "lower"),
    ("sim.metrics.average_us", "us", "lower"),
    ("sim.runner.points_per_s", "1/s", "higher"),
    ("sim.runner.thread_scaling", "x", "higher"),
    ("bench.scenario.validate_us", "us", "lower"),
    ("bench.scenario.render_us", "us", "lower"),
    ("span.setup_frac", "frac", "lower"),
    ("span.warmup_frac", "frac", "lower"),
    ("span.steady_frac", "frac", "higher"),
    ("span.report_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("host.steal_frac", "frac", "lower"),
    ("host.loadavg", "load", "lower"),
];

/// Unit of a metric of either table.
pub fn unit_of(metric: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(name, _)| *name == metric)
        .map(|(_, unit)| unit)
}

/// This package's directory, fixed when it was built (the driver builds in
/// the checkout it runs in).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Path of a workload's frozen scenario file.
pub fn workload_path(name: &str) -> PathBuf {
    package_dir().join("workloads").join(format!("{name}.toml"))
}

/// Decode a workload's scenario, pinning every simulation to `seed`
/// (`seed` and `seed + 1` where the file asks for two).
pub fn decode_scenario(text: &str, seed: u64) -> Result<Scenario, String> {
    let mut scenario: Scenario = from_toml(text).map_err(|e| e.to_string())?;
    scenario.seeds = (0..scenario.seeds.len() as u64).map(|i| seed + i).collect();
    Ok(scenario)
}

/// Read and decode a workload's scenario file.
pub fn load_scenario(name: &str, seed: u64) -> Result<Scenario, String> {
    let path = workload_path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    decode_scenario(&text, seed).map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a hash of a string, as 16 hex digits.
pub fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a result: hash of its JSON serialization, so two commits (or
/// two shard counts) can be compared exactly.
pub fn digest(result: &SimResult) -> String {
    fnv1a(&to_json(result))
}

/// 99th-percentile latency from the power-of-two `latency_hist`,
/// interpolated linearly by rank inside the bucket that holds the sample —
/// the bucket bound (or mean) alone would jump by up to 2x whenever a
/// different seed moves the rank across a bucket edge.
pub fn p99(result: &SimResult) -> f64 {
    let hist = &result.latency_hist;
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    let target = (0.99 * count as f64).ceil().clamp(1.0, count as f64);
    let mut seen = 0.0;
    for (i, &c) in hist.buckets().iter().enumerate() {
        let c = c as f64;
        if seen + c >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = ((1u64 << (i + 1)) as f64)
                .min(hist.max() as f64 + 1.0)
                .max(lo);
            return lo + (hi - lo) * (target - seen) / c;
        }
        seen += c;
    }
    hist.max() as f64
}
