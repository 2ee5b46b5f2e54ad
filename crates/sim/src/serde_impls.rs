//! `flexvc_serde` conversions for simulator configuration and results.
//!
//! A [`SimConfig`] round-trips through TOML and JSON; a [`SimResult`] is
//! only written. Keys mirror the struct fields; tagged maps use a `kind`
//! discriminator. Deserialization fills Table V defaults for omitted
//! fields, so hand-written scenario files only need to spell out what
//! differs from the baseline. [`TopologySpec`] and the results are
//! written by hand; every other type is a field table.

use crate::config::{
    default_arrangement, BufferConfig, BufferOrg, BufferSizing, ClassVcMap, QosConfig,
    SensingConfig, SensingMode, SimConfig, TopologySpec,
};
use crate::metrics::{ClassResult, SimResult};
use flexvc_core::RoutingMode;
use flexvc_serde::{keywords, record, tagged, Deserialize, Error, Map, Serialize, Value};
use flexvc_topology::GlobalArrangement;
use flexvc_traffic::{Pattern, Workload};
use std::sync::LazyLock;

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

tagged!(BufferSizing, "buffer sizing" {
    PerVc { local: "local", global: "global" } => "per_vc",
    PerPort { local: "local", global: "global" } => "per_port",
});

tagged!(BufferOrg, "buffer organization" {
    Static => "static",
    Damq { private_fraction: "private_fraction" = 0.75 } => "damq",
});

record!(BufferConfig {
    sizing: "sizing" = BufferConfig::default().sizing,
    organization: "organization" = BufferConfig::default().organization,
    injection: "injection" = BufferConfig::default().injection,
    output: "output" = BufferConfig::default().output,
});

keywords!(SensingMode, "sensing mode" {
    PerPort => "per_port",
    PerVc => "per_vc",
});

record!(SensingConfig {
    mode: "mode" = SensingConfig::default().mode,
    min_cred: "min_cred" = SensingConfig::default().min_cred,
    threshold: "threshold" = SensingConfig::default().threshold,
});

tagged!(ClassVcMap, "class VC map" {
    Shared => "shared",
    Partitioned {
        control_local: "control_local",
        control_global: "control_global",
    } => "partitioned",
});

record!(QosConfig {
    vc_map: "vc_map" = QosConfig::default().vc_map,
    bypass_bound: "bypass_bound" = QosConfig::default().bypass_bound,
    repartition: "repartition" = QosConfig::default().repartition,
    control_quota_fraction: "control_quota_fraction" = QosConfig::default().control_quota_fraction,
});

/// What an omitted [`SimConfig`] key decodes to: Table V on the `h = 2`
/// balanced Dragonfly, MIN routing, uniform traffic, single class. An
/// omitted arrangement is the exception: it is derived from the
/// document's topology, routing and workload.
static OMITTED: LazyLock<SimConfig> = LazyLock::new(|| {
    SimConfig::dragonfly_baseline(2, RoutingMode::Min, Workload::oblivious(Pattern::Uniform))
});

record!(SimConfig {
    topology: "topology" = OMITTED.topology.clone(),
    routing: "routing" = OMITTED.routing,
    policy: "policy" = OMITTED.policy,
    // Derived only when omitted: an explicit arrangement must decode even
    // on a shape `validate` will reject.
    arrangement: "arrangement" => {
        default_arrangement(topology.family(), routing, workload.is_reactive())
    },
    selection: "selection" = OMITTED.selection,
    workload: "workload" = OMITTED.workload,
    packet_size: "packet_size" = OMITTED.packet_size,
    local_latency: "local_latency" = OMITTED.local_latency,
    global_latency: "global_latency" = OMITTED.global_latency,
    pipeline_latency: "pipeline_latency" = OMITTED.pipeline_latency,
    speedup: "speedup" = OMITTED.speedup,
    buffers: "buffers" = OMITTED.buffers,
    injection_vcs: "injection_vcs" = OMITTED.injection_vcs,
    sensing: "sensing" = OMITTED.sensing,
    warmup: "warmup" = OMITTED.warmup,
    measure: "measure" = OMITTED.measure,
    watchdog: "watchdog" = OMITTED.watchdog,
    revert_patience: "revert_patience" = OMITTED.revert_patience,
    reply_queue_packets: "reply_queue_packets" = OMITTED.reply_queue_packets,
    adaptive_copies: "adaptive_copies" = OMITTED.adaptive_copies,
    shards: "shards" = OMITTED.shards,
    // Left out when `None`, so single-class configs keep the legacy wire
    // form with no `qos` key at all.
    qos: "qos" = None,
});

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

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_core::Arrangement;
    use flexvc_serde::{from_json, from_toml, to_json, to_json_pretty, to_toml};

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
    fn bad_documents_are_path_contextual_errors() {
        let err = from_toml::<SimConfig>("routing = \"warp\"\n").unwrap_err();
        assert!(err.to_string().contains("routing"), "{err}");
        let err = from_toml::<SimConfig>("[topology]\nkind = \"torus\"\n").unwrap_err();
        assert!(err.to_string().contains("torus"), "{err}");
    }
}
