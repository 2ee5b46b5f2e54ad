//! `flexvc_serde` conversions for simulator configuration and results.
//!
//! These impls let a whole experiment — [`SimConfig`] in, [`SimResult`]
//! out — round-trip through TOML and JSON. Field names mirror the struct
//! fields; tagged maps use a `kind` discriminator. Deserialization fills
//! Table V defaults for omitted scalar fields, so hand-written scenario
//! files only need to spell out what differs from the baseline.

use crate::config::{
    default_arrangement, BufferConfig, BufferOrg, BufferSizing, ClassVcMap, QosConfig,
    SensingConfig, SensingMode, SimConfig, TopologySpec,
};
use crate::metrics::{ClassResult, LatencyHistogram, SimResult};
use flexvc_serde::{Deserialize, Error, Map, Serialize, Value};
use flexvc_topology::GlobalArrangement;

impl Serialize for TopologySpec {
    fn to_value(&self) -> Value {
        match *self {
            TopologySpec::DragonflyBalanced { h, arrangement } => Value::Map(
                Map::new()
                    .with("kind", Value::from("dragonfly_balanced"))
                    .with("h", h.to_value())
                    .with("global_arrangement", arrangement.to_value()),
            ),
            TopologySpec::Dragonfly {
                p,
                a,
                h,
                g,
                arrangement,
            } => Value::Map(
                Map::new()
                    .with("kind", Value::from("dragonfly"))
                    .with("p", p.to_value())
                    .with("a", a.to_value())
                    .with("h", h.to_value())
                    .with("g", g.to_value())
                    .with("global_arrangement", arrangement.to_value()),
            ),
            TopologySpec::HyperX { ref dims, p } => {
                let s: Vec<usize> = dims.iter().map(|&(s, _)| s).collect();
                let k: Vec<usize> = dims.iter().map(|&(_, k)| k).collect();
                let mut m = Map::new()
                    .with("kind", Value::from("hyperx"))
                    .with("s", s.to_value());
                // `k` is noise when every dimension has unit multiplicity.
                if k.iter().any(|&k| k != 1) {
                    m.insert("k", k.to_value());
                }
                Value::Map(m.with("p", p.to_value()))
            }
            TopologySpec::DragonflyPlus {
                leaves,
                spines,
                hosts_per_leaf,
                global_mult,
                groups,
            } => {
                let mut m = Map::new()
                    .with("kind", Value::from("dragonfly_plus"))
                    .with("leaves", leaves.to_value())
                    .with("spines", spines.to_value())
                    .with("hosts_per_leaf", hosts_per_leaf.to_value());
                // `global_mult` is noise at the default single link per
                // group pair.
                if global_mult != 1 {
                    m.insert("global_mult", global_mult.to_value());
                }
                Value::Map(m.with("groups", groups.to_value()))
            }
        }
    }
}

impl Deserialize for TopologySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        match m.field::<String>("kind")?.to_ascii_lowercase().as_str() {
            "dragonfly_balanced" => Ok(TopologySpec::DragonflyBalanced {
                h: m.field("h")?,
                arrangement: m.field_or("global_arrangement", GlobalArrangement::default())?,
            }),
            "dragonfly" => Ok(TopologySpec::Dragonfly {
                p: m.field("p")?,
                a: m.field("a")?,
                h: m.field("h")?,
                g: m.field("g")?,
                arrangement: m.field_or("global_arrangement", GlobalArrangement::default())?,
            }),
            // Legacy spelling: the `k × k` flattened butterfly is the 2-D
            // unit-multiplicity HyperX.
            "flat_butterfly" => Ok(TopologySpec::HyperX {
                dims: vec![(m.field("k")?, 1); 2],
                p: m.field("p")?,
            }),
            "hyperx" => {
                let s: Vec<usize> = m.field("s")?;
                let k: Vec<usize> = m.field_or("k", vec![1; s.len()])?;
                if k.len() != s.len() {
                    return Err(Error::new(format!(
                        "hyperx `k` has {} entries but `s` has {}",
                        k.len(),
                        s.len()
                    )));
                }
                Ok(TopologySpec::HyperX {
                    dims: s.into_iter().zip(k).collect(),
                    p: m.field("p")?,
                })
            }
            "dragonfly_plus" | "dragonflyplus" | "megafly" => Ok(TopologySpec::DragonflyPlus {
                leaves: m.field("leaves")?,
                spines: m.field("spines")?,
                hosts_per_leaf: m.field("hosts_per_leaf")?,
                global_mult: m.field_or("global_mult", 1)?,
                groups: m.field("groups")?,
            }),
            other => Err(Error::new(format!(
                "unknown topology kind `{other}` \
                 (expected dragonfly_balanced, dragonfly, hyperx or dragonfly_plus)"
            ))),
        }
    }
}

impl Serialize for BufferSizing {
    fn to_value(&self) -> Value {
        let (kind, local, global) = match *self {
            BufferSizing::PerVc { local, global } => ("per_vc", local, global),
            BufferSizing::PerPort { local, global } => ("per_port", local, global),
        };
        Value::Map(
            Map::new()
                .with("kind", Value::from(kind))
                .with("local", local.to_value())
                .with("global", global.to_value()),
        )
    }
}

impl Deserialize for BufferSizing {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        let local = m.field("local")?;
        let global = m.field("global")?;
        match m.field::<String>("kind")?.to_ascii_lowercase().as_str() {
            "per_vc" => Ok(BufferSizing::PerVc { local, global }),
            "per_port" => Ok(BufferSizing::PerPort { local, global }),
            other => Err(Error::new(format!(
                "unknown buffer sizing `{other}` (expected per_vc or per_port)"
            ))),
        }
    }
}

impl Serialize for BufferOrg {
    fn to_value(&self) -> Value {
        match *self {
            BufferOrg::Static => Value::Str("static".to_string()),
            BufferOrg::Damq { private_fraction } => Value::Map(
                Map::new()
                    .with("kind", Value::from("damq"))
                    .with("private_fraction", private_fraction.to_value()),
            ),
        }
    }
}

impl Deserialize for BufferOrg {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => match s.to_ascii_lowercase().as_str() {
                "static" => Ok(BufferOrg::Static),
                "damq" => Ok(BufferOrg::Damq {
                    private_fraction: 0.75,
                }),
                other => Err(Error::new(format!(
                    "unknown buffer organization `{other}` (expected static or damq)"
                ))),
            },
            Value::Map(m) => match m.field::<String>("kind")?.to_ascii_lowercase().as_str() {
                "static" => Ok(BufferOrg::Static),
                "damq" => Ok(BufferOrg::Damq {
                    private_fraction: m.field_or("private_fraction", 0.75)?,
                }),
                other => Err(Error::new(format!(
                    "unknown buffer organization `{other}` (expected static or damq)"
                ))),
            },
            other => Err(Error::new(format!(
                "expected string or map for buffer organization, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for BufferConfig {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("sizing", self.sizing.to_value())
                .with("organization", self.organization.to_value())
                .with("injection", self.injection.to_value())
                .with("output", self.output.to_value()),
        )
    }
}

impl Deserialize for BufferConfig {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        let defaults = BufferConfig::default();
        Ok(BufferConfig {
            sizing: m.field_or("sizing", defaults.sizing)?,
            organization: m.field_or("organization", defaults.organization)?,
            injection: m.field_or("injection", defaults.injection)?,
            output: m.field_or("output", defaults.output)?,
        })
    }
}

impl Serialize for SensingMode {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                SensingMode::PerPort => "per_port",
                SensingMode::PerVc => "per_vc",
            }
            .to_string(),
        )
    }
}

impl Deserialize for SensingMode {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str()?.to_ascii_lowercase().as_str() {
            "per_port" => Ok(SensingMode::PerPort),
            "per_vc" => Ok(SensingMode::PerVc),
            other => Err(Error::new(format!(
                "unknown sensing mode `{other}` (expected per_port or per_vc)"
            ))),
        }
    }
}

impl Serialize for SensingConfig {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("mode", self.mode.to_value())
                .with("min_cred", self.min_cred.to_value())
                .with("threshold", self.threshold.to_value()),
        )
    }
}

impl Deserialize for SensingConfig {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        let defaults = SensingConfig::default();
        Ok(SensingConfig {
            mode: m.field_or("mode", defaults.mode)?,
            min_cred: m.field_or("min_cred", defaults.min_cred)?,
            threshold: m.field_or("threshold", defaults.threshold)?,
        })
    }
}

impl Serialize for ClassVcMap {
    fn to_value(&self) -> Value {
        match *self {
            ClassVcMap::Shared => Value::Str("shared".to_string()),
            ClassVcMap::Partitioned {
                control_local,
                control_global,
            } => Value::Map(
                Map::new()
                    .with("kind", Value::from("partitioned"))
                    .with("control_local", control_local.to_value())
                    .with("control_global", control_global.to_value()),
            ),
        }
    }
}

impl Deserialize for ClassVcMap {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => match s.to_ascii_lowercase().as_str() {
                "shared" => Ok(ClassVcMap::Shared),
                other => Err(Error::new(format!(
                    "unknown class VC map `{other}` (expected shared or a partitioned map)"
                ))),
            },
            Value::Map(m) => match m.field::<String>("kind")?.to_ascii_lowercase().as_str() {
                "shared" => Ok(ClassVcMap::Shared),
                "partitioned" => Ok(ClassVcMap::Partitioned {
                    control_local: m.field("control_local")?,
                    control_global: m.field("control_global")?,
                }),
                other => Err(Error::new(format!(
                    "unknown class VC map kind `{other}` (expected shared or partitioned)"
                ))),
            },
            other => Err(Error::new(format!(
                "expected string or map for class VC map, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for QosConfig {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("vc_map", self.vc_map.to_value())
                .with("bypass_bound", self.bypass_bound.to_value())
                .with("repartition", self.repartition.to_value())
                .with(
                    "control_quota_fraction",
                    self.control_quota_fraction.to_value(),
                ),
        )
    }
}

impl Deserialize for QosConfig {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        let defaults = QosConfig::default();
        Ok(QosConfig {
            vc_map: m.field_or("vc_map", defaults.vc_map)?,
            bypass_bound: m.field_or("bypass_bound", defaults.bypass_bound)?,
            repartition: m.field_or("repartition", defaults.repartition)?,
            control_quota_fraction: m
                .field_or("control_quota_fraction", defaults.control_quota_fraction)?,
        })
    }
}

impl Serialize for SimConfig {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("topology", self.topology.to_value())
                .with("routing", self.routing.to_value())
                .with("policy", self.policy.to_value())
                .with("arrangement", self.arrangement.to_value())
                .with("selection", self.selection.to_value())
                .with("workload", self.workload.to_value())
                .with("packet_size", self.packet_size.to_value())
                .with("local_latency", self.local_latency.to_value())
                .with("global_latency", self.global_latency.to_value())
                .with("pipeline_latency", self.pipeline_latency.to_value())
                .with("speedup", self.speedup.to_value())
                .with("buffers", self.buffers.to_value())
                .with("injection_vcs", self.injection_vcs.to_value())
                .with("sensing", self.sensing.to_value())
                .with("warmup", self.warmup.to_value())
                .with("measure", self.measure.to_value())
                .with("watchdog", self.watchdog.to_value())
                .with("revert_patience", self.revert_patience.to_value())
                .with("reply_queue_packets", self.reply_queue_packets.to_value())
                .with("adaptive_copies", self.adaptive_copies.to_value())
                .with("shards", self.shards.to_value())
                // `with` drops Nulls, so single-class configs keep the
                // legacy wire form with no `qos` key at all.
                .with(
                    "qos",
                    match &self.qos {
                        Some(q) => q.to_value(),
                        None => Value::Null,
                    },
                ),
        )
    }
}

impl Deserialize for SimConfig {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        let topology: Option<TopologySpec> = m.opt("topology")?;
        let routing = m.field_or("routing", flexvc_core::RoutingMode::Min)?;
        let workload = m.field_or(
            "workload",
            flexvc_traffic::Workload::oblivious(flexvc_traffic::Pattern::Uniform),
        )?;
        // Omitted fields take the baseline's Table V values at the reduced
        // default scale, so scenario files only spell out what differs.
        let d = SimConfig::dragonfly_baseline(2, routing, workload);
        let topology = topology.unwrap_or(d.topology);
        // Derived only when omitted: an explicit arrangement must decode
        // even on a shape `validate` will reject.
        let arrangement = match m.opt("arrangement")? {
            Some(arr) => arr,
            None => default_arrangement(topology.family(), routing, workload.is_reactive()),
        };
        Ok(SimConfig {
            topology,
            routing,
            policy: m.field_or("policy", d.policy)?,
            arrangement,
            selection: m.field_or("selection", d.selection)?,
            workload,
            packet_size: m.field_or("packet_size", d.packet_size)?,
            local_latency: m.field_or("local_latency", d.local_latency)?,
            global_latency: m.field_or("global_latency", d.global_latency)?,
            pipeline_latency: m.field_or("pipeline_latency", d.pipeline_latency)?,
            speedup: m.field_or("speedup", d.speedup)?,
            buffers: m.field_or("buffers", d.buffers)?,
            injection_vcs: m.field_or("injection_vcs", d.injection_vcs)?,
            sensing: m.field_or("sensing", d.sensing)?,
            warmup: m.field_or("warmup", d.warmup)?,
            measure: m.field_or("measure", d.measure)?,
            watchdog: m.field_or("watchdog", d.watchdog)?,
            revert_patience: m.field_or("revert_patience", d.revert_patience)?,
            reply_queue_packets: m.field_or("reply_queue_packets", d.reply_queue_packets)?,
            adaptive_copies: m.field_or("adaptive_copies", d.adaptive_copies)?,
            shards: m.field_or("shards", d.shards)?,
            qos: m.opt("qos")?,
        })
    }
}

impl Serialize for ClassResult {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("accepted", self.accepted.to_value())
                .with("latency", self.latency.to_value())
                .with("latency_p99", self.latency_p99.to_value())
                .with("fct_p99", self.fct_p99.to_value())
                .with(
                    "latency_buckets",
                    self.latency_hist.buckets().to_vec().to_value(),
                )
                .with("latency_max", self.latency_hist.max().to_value())
                .with("fct_buckets", self.fct_hist.buckets().to_vec().to_value())
                .with(
                    "fct_bucket_sums",
                    self.fct_hist.bucket_sums().to_vec().to_value(),
                )
                .with("fct_max", self.fct_hist.max().to_value()),
        )
    }
}

impl Deserialize for ClassResult {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        let hist = |buckets_key: &str,
                    max_key: &str,
                    sums_key: Option<&str>|
         -> Result<LatencyHistogram, Error> {
            let buckets: Vec<u64> = m.field_or(buckets_key, Vec::new())?;
            let mut fixed = [0u64; 21];
            for (slot, b) in fixed.iter_mut().zip(&buckets) {
                *slot = *b;
            }
            let mut hist = LatencyHistogram::from_buckets(fixed);
            hist.observe_max(m.field_or(max_key, 0u64)?);
            if let Some(sk) = sums_key {
                let sums: Vec<u64> = m.field_or(sk, Vec::new())?;
                let mut fixed_sums = [0u64; 21];
                for (slot, s) in fixed_sums.iter_mut().zip(&sums) {
                    *slot = *s;
                }
                hist.restore_bucket_sums(fixed_sums);
            }
            Ok(hist)
        };
        Ok(ClassResult {
            accepted: m.field_or("accepted", 0.0)?,
            latency: m.field_or("latency", 0.0)?,
            latency_p99: m.field_or("latency_p99", 0.0)?,
            fct_p99: m.field_or("fct_p99", 0.0)?,
            latency_hist: hist("latency_buckets", "latency_max", None)?,
            fct_hist: hist("fct_buckets", "fct_max", Some("fct_bucket_sums"))?,
        })
    }
}

impl Serialize for SimResult {
    fn to_value(&self) -> Value {
        Value::Map(
            Map::new()
                .with("offered", self.offered.to_value())
                .with("accepted", self.accepted.to_value())
                .with("latency", self.latency.to_value())
                .with("latency_req", self.latency_req.to_value())
                .with("latency_rep", self.latency_rep.to_value())
                .with("misroute_fraction", self.misroute_fraction.to_value())
                .with("avg_hops", self.avg_hops.to_value())
                .with("reverts_per_packet", self.reverts_per_packet.to_value())
                .with("drop_fraction", self.drop_fraction.to_value())
                .with("deadlocked", self.deadlocked.to_value())
                .with("latency_p99", self.latency_p99.to_value())
                .with("local_vc_occupancy", self.local_vc_occupancy.to_value())
                .with("global_vc_occupancy", self.global_vc_occupancy.to_value())
                .with(
                    "latency_buckets",
                    self.latency_hist.buckets().to_vec().to_value(),
                )
                .with("latency_max", self.latency_hist.max().to_value())
                .with("flows_completed", self.flows_completed.to_value())
                .with("fct_mean", self.fct_mean.to_value())
                .with("fct_p50", self.fct_p50.to_value())
                .with("fct_p99", self.fct_p99.to_value())
                .with("slowdown_mean", self.slowdown_mean.to_value())
                .with("fct_buckets", self.fct_hist.buckets().to_vec().to_value())
                .with(
                    "fct_bucket_sums",
                    self.fct_hist.bucket_sums().to_vec().to_value(),
                )
                .with("fct_max", self.fct_hist.max().to_value())
                // Per-class slices appear only once a run actually tagged
                // control traffic: single-class runs (which put every
                // packet in the default bulk class) keep the legacy wire
                // form byte-for-byte.
                .with(
                    "classes",
                    if self.classes[0].latency_hist.count() > 0 || self.classes[0].accepted > 0.0 {
                        self.classes.to_vec().to_value()
                    } else {
                        Value::Null
                    },
                ),
        )
    }
}

impl Deserialize for SimResult {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        Ok(SimResult {
            offered: m.field_or("offered", 0.0)?,
            accepted: m.field_or("accepted", 0.0)?,
            latency: m.field_or("latency", 0.0)?,
            latency_req: m.field_or("latency_req", 0.0)?,
            latency_rep: m.field_or("latency_rep", 0.0)?,
            misroute_fraction: m.field_or("misroute_fraction", 0.0)?,
            avg_hops: m.field_or("avg_hops", 0.0)?,
            reverts_per_packet: m.field_or("reverts_per_packet", 0.0)?,
            drop_fraction: m.field_or("drop_fraction", 0.0)?,
            deadlocked: m.field_or("deadlocked", false)?,
            latency_p99: m.field_or("latency_p99", 0.0)?,
            local_vc_occupancy: m.field_or("local_vc_occupancy", Vec::new())?,
            global_vc_occupancy: m.field_or("global_vc_occupancy", Vec::new())?,
            latency_hist: {
                let buckets: Vec<u64> = m.field_or("latency_buckets", Vec::new())?;
                let mut fixed = [0u64; 21];
                for (slot, b) in fixed.iter_mut().zip(&buckets) {
                    *slot = *b;
                }
                let mut hist = LatencyHistogram::from_buckets(fixed);
                // Files written before the overflow-bucket fix carry no
                // recorded max; the bucket estimate stands in.
                hist.observe_max(m.field_or("latency_max", 0u64)?);
                hist
            },
            // Flow metrics are absent in files written before the flow
            // layer; they default to "no flows observed".
            flows_completed: m.field_or("flows_completed", 0.0)?,
            fct_mean: m.field_or("fct_mean", 0.0)?,
            fct_p50: m.field_or("fct_p50", 0.0)?,
            fct_p99: m.field_or("fct_p99", 0.0)?,
            slowdown_mean: m.field_or("slowdown_mean", 0.0)?,
            fct_hist: {
                let buckets: Vec<u64> = m.field_or("fct_buckets", Vec::new())?;
                let mut fixed = [0u64; 21];
                for (slot, b) in fixed.iter_mut().zip(&buckets) {
                    *slot = *b;
                }
                let mut hist = LatencyHistogram::from_buckets(fixed);
                hist.observe_max(m.field_or("fct_max", 0u64)?);
                // Files written before the FCT-interpolation fix carry no
                // per-bucket sums; quantiles fall back to bucket bounds.
                let sums: Vec<u64> = m.field_or("fct_bucket_sums", Vec::new())?;
                let mut fixed_sums = [0u64; 21];
                for (slot, s) in fixed_sums.iter_mut().zip(&sums) {
                    *slot = *s;
                }
                hist.restore_bucket_sums(fixed_sums);
                hist
            },
            classes: {
                let cls: Vec<ClassResult> = m.field_or("classes", Vec::new())?;
                let mut arr: [ClassResult; 2] = Default::default();
                for (slot, c) in arr.iter_mut().zip(cls) {
                    *slot = c;
                }
                arr
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use flexvc_core::{Arrangement, RoutingMode};
    use flexvc_serde::{from_json, from_toml, to_json, to_json_pretty, to_toml};
    use flexvc_traffic::{Pattern, Workload};

    fn sample_cfg() -> SimConfig {
        let mut cfg = SimConfig::dragonfly_baseline(
            2,
            RoutingMode::Valiant,
            Workload::reactive(Pattern::adv1()),
        )
        .with_flexvc(Arrangement::dragonfly_rr((4, 2), (2, 1)))
        .with_damq75();
        cfg.buffers.sizing = BufferSizing::PerPort {
            local: 128,
            global: 512,
        };
        cfg.sensing.min_cred = true;
        cfg
    }

    #[test]
    fn config_round_trips_json_and_toml() {
        let cfg = sample_cfg();
        let json = to_json_pretty(&cfg);
        let back: SimConfig = from_json(&json).unwrap();
        assert_eq!(to_json(&back), to_json(&cfg), "JSON:\n{json}");

        let toml = to_toml(&cfg).unwrap();
        let back: SimConfig = from_toml(&toml).unwrap();
        assert_eq!(to_json(&back), to_json(&cfg), "TOML:\n{toml}");
        back.validate().unwrap();
    }

    #[test]
    fn hyperx_topology_round_trips() {
        // Unit multiplicity omits `k`; mixed multiplicity carries it.
        for dims in [vec![(3, 1), (3, 1), (3, 1)], vec![(4, 2), (2, 1)]] {
            let mut cfg = SimConfig::hyperx_baseline(
                dims.len(),
                2,
                1,
                RoutingMode::Min,
                Workload::oblivious(Pattern::Uniform),
            );
            cfg.topology = TopologySpec::HyperX {
                dims: dims.clone(),
                p: 2,
            };
            let json = to_json(&cfg);
            let back: SimConfig = from_json(&json).unwrap();
            assert_eq!(to_json(&back), json);
            match back.topology {
                TopologySpec::HyperX { dims: d, p } => {
                    assert_eq!(d, dims);
                    assert_eq!(p, 2);
                }
                other => panic!("expected hyperx, got {other:?}"),
            }
            let toml = to_toml(&cfg).unwrap();
            let back: SimConfig = from_toml(&toml).unwrap();
            assert_eq!(to_json(&back), json, "TOML:\n{toml}");
        }
        // Mismatched s/k lengths are contextual errors.
        assert!(from_toml::<SimConfig>(
            "[topology]\nkind = \"hyperx\"\ns = [3, 3]\nk = [1]\np = 1\n"
        )
        .is_err());
    }

    #[test]
    fn dfplus_topology_round_trips() {
        let mut cfg = SimConfig::dfplus_baseline(
            4,
            4,
            2,
            9,
            RoutingMode::Valiant,
            Workload::oblivious(Pattern::adv1()),
        );
        let json = to_json(&cfg);
        // Unit multiplicity omits `global_mult`.
        assert!(!json.contains("global_mult"), "{json}");
        let back: SimConfig = from_json(&json).unwrap();
        assert_eq!(to_json(&back), json);
        let toml = to_toml(&cfg).unwrap();
        let back: SimConfig = from_toml(&toml).unwrap();
        assert_eq!(to_json(&back), json, "TOML:\n{toml}");
        back.validate().unwrap();

        // Non-unit multiplicity carries the field and round-trips too.
        cfg.topology = TopologySpec::DragonflyPlus {
            leaves: 3,
            spines: 2,
            hosts_per_leaf: 1,
            global_mult: 2,
            groups: 5,
        };
        let json = to_json(&cfg);
        assert!(json.contains("global_mult"), "{json}");
        let back: SimConfig = from_json(&json).unwrap();
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn sparse_dfplus_toml_derives_dragonfly_shaped_arrangement() {
        let cfg: SimConfig = from_toml(
            r#"
routing = "valiant"

[topology]
kind = "dragonfly_plus"
leaves = 2
spines = 2
hosts_per_leaf = 2
groups = 5
"#,
        )
        .unwrap();
        // Omitted arrangement derives the Dragonfly-shaped VAL minimum.
        assert_eq!(cfg.arrangement, Arrangement::dragonfly(4, 2));
        cfg.validate().unwrap();
        // The Megafly alias parses to the same spec.
        let alias: SimConfig = from_toml(
            "[topology]\nkind = \"megafly\"\nleaves = 2\nspines = 2\n\
             hosts_per_leaf = 2\ngroups = 5\n",
        )
        .unwrap();
        assert!(matches!(
            alias.topology,
            TopologySpec::DragonflyPlus { leaves: 2, .. }
        ));
    }

    #[test]
    fn sparse_hyperx_toml_derives_diameter3_arrangement() {
        let cfg: SimConfig = from_toml(
            r#"
routing = "valiant"

[topology]
kind = "hyperx"
s = [3, 3, 3]
p = 2
"#,
        )
        .unwrap();
        // Omitted arrangement derives from the generic diameter-3 VAL
        // reference: 6 single-class VCs.
        assert_eq!(cfg.arrangement, Arrangement::generic(6));
        cfg.validate().unwrap();
    }

    /// Documents written when the flattened butterfly was its own topology
    /// still load, as the 2-D unit-multiplicity HyperX they always ran.
    #[test]
    fn legacy_flat_butterfly_decodes_to_2d_hyperx() {
        let toml = "routing = \"valiant\"\n\n[topology]\nkind = \"flat_butterfly\"\nk = 4\np = 2\n";
        let json =
            r#"{"routing": "valiant", "topology": {"kind": "flat_butterfly", "k": 4, "p": 2}}"#;
        let hx = TopologySpec::HyperX {
            dims: vec![(4, 1); 2],
            p: 2,
        };
        for cfg in [
            from_toml::<SimConfig>(toml).unwrap(),
            from_json::<SimConfig>(json).unwrap(),
        ] {
            assert_eq!(cfg.topology, hx);
            // Derived on the diameter-2 family: the generic VAL reference.
            assert_eq!(cfg.arrangement, Arrangement::generic(4));
            cfg.validate().unwrap();
            assert!(to_json(&cfg).contains("\"hyperx\""));
        }
        // A degenerate row is a typed shape error, not a panic.
        let cfg: SimConfig =
            from_toml("[topology]\nkind = \"flat_butterfly\"\nk = 1\np = 2\n").unwrap();
        assert!(
            matches!(
                cfg.validate(),
                Err(crate::ConfigError::InvalidTopology { .. })
            ),
            "{:?}",
            cfg.validate()
        );
    }

    #[test]
    fn sparse_toml_fills_defaults() {
        let cfg: SimConfig = from_toml(
            r#"
routing = "valiant"
policy = "flexvc"
arrangement = "L G L G L"

[workload]
pattern = "adv+1"
"#,
        )
        .unwrap();
        assert_eq!(cfg.routing, RoutingMode::Valiant);
        assert_eq!(cfg.packet_size, 8);
        assert_eq!(cfg.speedup, 2);
        assert_eq!(cfg.arrangement, Arrangement::zigzag(2));
        cfg.validate().unwrap();
    }

    #[test]
    fn omitted_arrangement_derives_from_routing_and_workload() {
        let cfg: SimConfig = from_toml("routing = \"par\"\n").unwrap();
        assert_eq!(cfg.arrangement, Arrangement::dragonfly_par());
        cfg.validate().unwrap();

        let rr: SimConfig =
            from_toml("[workload]\npattern = \"uniform\"\nreactive = true\n").unwrap();
        assert!(rr.arrangement.has_reply_part());
        rr.validate().unwrap();
    }

    #[test]
    fn result_round_trips() {
        let mut hist = LatencyHistogram::default();
        hist.record(100);
        hist.record(3000);
        let r = SimResult {
            offered: 0.5,
            accepted: 0.42,
            latency: 321.5,
            latency_p99: 2048.0,
            local_vc_occupancy: vec![1.5, 0.25],
            deadlocked: true,
            latency_hist: hist,
            ..Default::default()
        };
        let back: SimResult = from_json(&to_json(&r)).unwrap();
        assert_eq!(to_json(&back), to_json(&r));
        assert_eq!(back.latency_hist.count(), 2);
        assert_eq!(back.latency_hist.buckets(), r.latency_hist.buckets());
    }

    #[test]
    fn bad_documents_are_path_contextual_errors() {
        let err = from_toml::<SimConfig>("routing = \"warp\"\n").unwrap_err();
        assert!(err.to_string().contains("routing"), "{err}");
        let err = from_toml::<SimConfig>("[topology]\nkind = \"torus\"\n").unwrap_err();
        assert!(err.to_string().contains("torus"), "{err}");
    }
}
