//! Per-layer metrics of a traced run: the ones read off the workload's own
//! spans and logs, merged with the probe binary's call timings into the
//! `*.est_share` decomposition.

use crate::defs::{Kind, PER_LAYER};
use crate::host;
use crate::run::{KernelLog, Outcome, SetupLog, ROUNDS};
use crate::stats::{geomean, iqr_frac, median};
use std::collections::BTreeMap;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

const SETUP_SPANS: [&str; 6] = [
    "topology.build",
    "sim.config.validate",
    "sim.engine.build",
    "sim.shard.build",
    "serde.parse",
    "bench.scenario.validate",
];
const WARMUP_SPANS: [&str; 1] = ["sim.engine.warmup"];
const STEADY_SPANS: [&str; 3] = ["sim.engine.slice", "sim.shard.run", "sim.runner.run_points"];

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Packets delivered in a kernel's window and the hops they took — exact
/// counts recovered from `latency_hist` and `avg_hops`.
fn packets_and_hops(log: &KernelLog) -> (f64, f64) {
    log.result.as_ref().map_or((0.0, 0.0), |r| {
        let packets = r.latency_hist.count() as f64;
        (packets, (packets * r.avg_hops).round())
    })
}

/// Derive every per-layer metric. `probes` holds what `flexvc-probes`
/// printed for this workload (call costs in ns/us, keyed by metric name).
pub fn per_layer(out: &Outcome, probes: &Metrics) -> Result<Metrics, String> {
    let mut m: Metrics = probes.clone();
    // Single-engine logs: the workload's own kernels, or the twin of the
    // first kernel when the workload does not step a single engine.
    let twin_single;
    let (single, single_kernels): (&[KernelLog], Vec<&crate::run::Kernel>) =
        match (&out.single_twin, out.def.kind) {
            (_, Kind::Slices) => (&out.logs, out.kernels.iter().collect()),
            (Some(twin), _) => {
                twin_single = std::slice::from_ref(twin);
                (twin_single, vec![&out.kernels[0]])
            }
            (None, _) => return Err("traced run has no single-engine reference".into()),
        };
    let sharded: &KernelLog = match (&out.sharded_twin, out.def.kind) {
        (_, Kind::ShardedRuns) => &out.logs[0],
        (Some(twin), _) => twin,
        (None, _) => return Err("traced run has no sharded reference".into()),
    };
    // The twins' window is the first kernel's with the measure rounded
    // down to whole slices.
    let window = |k: &crate::run::Kernel| {
        let measure = k.cfg.measure - k.cfg.measure % ROUNDS;
        (k.cfg.warmup, measure)
    };

    let sum_med = |f: &dyn Fn(&SetupLog) -> &Vec<f64>| {
        single
            .iter()
            .map(|l| med(f(l.setup_samples())))
            .sum::<f64>()
    };
    m.insert("topology.build_ms".into(), sum_med(&|s| &s.topo_s) * 1e3);
    m.insert(
        "sim.config.validate_us".into(),
        sum_med(&|s| &s.validate_s) * 1e6,
    );
    m.insert("sim.engine.build_ms".into(), sum_med(&|s| &s.build_s) * 1e3);
    m.insert(
        "sim.engine.build_cold_ms".into(),
        single[0]
            .pass_setups
            .build_s
            .first()
            .copied()
            .unwrap_or(0.0)
            * 1e3,
    );
    m.insert("sim.engine.rss_mb".into(), out.engine_rss_mib);

    let mut warm = Vec::new();
    let mut step = Vec::new();
    let mut per_hop = Vec::new();
    let (mut packets, mut hops) = (0.0, 0.0);
    for (k, log) in single_kernels.iter().zip(single) {
        let (warmup, measure) = window(k);
        let timed = log.timed_s.concat();
        if timed.is_empty() || log.warmup_s.is_empty() {
            continue;
        }
        let slice_s = median(&timed);
        warm.push(warmup as f64 / median(&log.warmup_s));
        step.push(slice_s / (measure / ROUNDS) as f64);
        let (p, h) = packets_and_hops(log);
        packets += p;
        hops += h;
        if h > 0.0 {
            per_hop.push(ROUNDS as f64 * slice_s / h);
        }
    }
    if step.is_empty() || per_hop.is_empty() {
        return Err("no single-engine kernel produced slices and packets".into());
    }
    m.insert("sim.engine.warmup_cycles_per_s".into(), geomean(&warm));
    m.insert("sim.engine.step_us".into(), geomean(&step) * 1e6);
    m.insert(
        "sim.engine.ns_per_packet_hop".into(),
        geomean(&per_hop) * 1e9,
    );
    m.insert(
        "sim.engine.slice_iqr_frac".into(),
        single
            .iter()
            .map(|l| iqr_frac(&l.timed_s.concat()))
            .fold(0.0, f64::max),
    );
    m.insert("sim.engine.packets_delivered".into(), packets);
    m.insert("sim.engine.packet_hops".into(), hops);
    m.insert(
        "sim.metrics.aggregate_us".into(),
        med(&single
            .iter()
            .flat_map(|l| l.aggregate_s.iter().copied())
            .collect::<Vec<_>>())
            * 1e6,
    );

    // The first kernel's steady state, decomposed: probe cost x the call
    // count visible from outside, over the steady-state wall.
    let k0 = single_kernels[0];
    let (warmup0, measure0) = window(k0);
    let slice0 = med(&single[0].timed_s.concat());
    let steady_wall_ns = ROUNDS as f64 * slice0 * 1e9;
    let (packets0, hops0) = packets_and_hops(&single[0]);
    let node_cycles0 = k0.cfg.topology.num_nodes() as f64 * measure0 as f64;
    let probe = |name: &str| {
        probes
            .get(name)
            .copied()
            .ok_or_else(|| format!("probes did not report {name}"))
    };
    let shares = [
        (
            "traffic.est_share",
            probe("traffic.next_ns")? * node_cycles0,
        ),
        (
            "sim.plan.est_share",
            probe("sim.plan.plan_injection_ns")? * packets0,
        ),
        ("sim.bank.est_share", probe("sim.bank.push_pop_ns")? * hops0),
        (
            "sim.link.est_share",
            (probe("sim.link.packet_roundtrip_ns")? + probe("sim.link.credit_roundtrip_ns")?)
                * hops0,
        ),
    ];
    let mut residual = 1.0;
    for (name, cost_ns) in shares {
        let share = cost_ns / steady_wall_ns;
        residual -= share;
        m.insert(name.into(), share);
    }
    m.insert("sim.engine.residual_share".into(), residual);

    // Sharded engine against the single engine on the first kernel, whole
    // runs (warm-up included, as `ShardedNetwork::run` cannot be split).
    let shard = sharded
        .shard
        .as_ref()
        .ok_or("sharded reference did not run")?;
    let mean_work = shard.work_s.iter().sum::<f64>() / shard.work_s.len().max(1) as f64;
    let max_work = shard.work_s.iter().copied().fold(0.0, f64::max);
    let single_whole_s = med(&single[0].warmup_s) + ROUNDS as f64 * slice0;
    let sharded_whole_s = med(&sharded.timed_s.concat());
    m.insert(
        "sim.shard.build_ms".into(),
        med(&sharded.setup_samples().build_s) * 1e3,
    );
    m.insert("sim.shard.work_s_max".into(), max_work);
    m.insert(
        "sim.shard.barrier_wait_frac".into(),
        1.0 - mean_work / shard.wall_s,
    );
    m.insert(
        "sim.shard.imbalance".into(),
        if mean_work > 0.0 {
            max_work / mean_work
        } else {
            0.0
        },
    );
    m.insert(
        "sim.shard.epoch_cycles".into(),
        shard.epoch_cycles.min(warmup0 + measure0) as f64,
    );
    m.insert(
        "sim.shard.speedup_vs_s1".into(),
        single_whole_s / sharded_whole_s,
    );
    m.insert("sim.shard.rss_ratio_vs_s1".into(), out.shard_rss_ratio);

    // Where the workload's own (traced) passes spent their time.
    let spans = &out.tracer.spans()[..out.main_spans];
    let own = out.tracer.self_seconds();
    let total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.seconds())
        .sum();
    if total <= 0.0 {
        return Err("traced run recorded no pass".into());
    }
    let frac = |names: &[&str]| {
        // `+ 0.0`: an empty sum is -0.0.
        (spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, t)| t)
            .sum::<f64>()
            + 0.0)
            / total
    };
    let (setup, warmup, steady) = (frac(&SETUP_SPANS), frac(&WARMUP_SPANS), frac(&STEADY_SPANS));
    m.insert("span.setup_frac".into(), setup);
    m.insert("span.warmup_frac".into(), warmup);
    m.insert("span.steady_frac".into(), steady);
    m.insert("span.report_frac".into(), 1.0 - setup - warmup - steady);
    m.insert("trace.spans".into(), out.tracer.spans().len() as f64);
    m.insert("trace.overhead_frac".into(), out.trace_overhead_frac());
    m.insert(
        "host.steal_frac".into(),
        host::CpuTimes::now().steal_frac_since(&out.cpu_start),
    );
    m.insert("host.loadavg".into(), host::loadavg());

    for (name, _, _) in PER_LAYER {
        if !m.contains_key(name) {
            return Err(format!("per-layer metric {name} was not measured"));
        }
    }
    m.retain(|name, _| PER_LAYER.iter().any(|(n, _, _)| n == name));
    Ok(m)
}
