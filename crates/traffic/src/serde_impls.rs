//! `flexvc_serde` conversions for traffic types.
//!
//! The tagged enums ([`Pattern`], [`SizeDist`], [`FlowPattern`]) write a
//! parameterless variant as its bare tag (`"uniform"`) and the others as
//! `{ kind = ..., ... }` maps; parsing additionally accepts the paper's
//! labels (`"adv+1"`, `"bursty"`, `"perm"`) as tags, and a bare tag as
//! the variant with its default parameters. [`Workload`] is written by
//! hand: its synthetic form predates `kind` and still omits it.

use crate::flow::{FlowPattern, FlowSpec, SizeDist};
use crate::pattern::ClassMix;
use crate::{Pattern, Workload};
use flexvc_serde::{record, tagged, Deserialize, Error, Map, Serialize, Value};

tagged!(Pattern, "traffic pattern" {
    Uniform => "uniform" | "un",
    Adversarial { offset: "offset" = 1 } => "adversarial" | "adv" | "adv+1",
    BurstyUniform { mean_burst: "mean_burst" = 5.0 } => "bursty_uniform" | "bursty" | "bursty-un",
});

tagged!(SizeDist, "size distribution" {
    Fixed { packets: "packets" = 1 } => "fixed",
    Bimodal {
        mice: "mice" = 1,
        elephants: "elephants" = 16,
        elephant_frac: "elephant_frac" = 0.1,
    } => "bimodal" | "mice_elephants",
    Pareto {
        min: "min" = 1,
        max: "max" = 64,
        alpha: "alpha" = 1.5,
    } => "pareto" | "heavy_tail",
});

tagged!(FlowPattern, "flow pattern" {
    Uniform => "uniform" | "un" | "flows-un",
    Permutation => "permutation" | "perm",
    Hotspot {
        hotspots: "hotspots" = 4,
        fraction: "fraction" = 0.2,
    } => "hotspot",
    Incast {
        fanin: "fanin" = 4,
        phase_cycles: "phase_cycles" = 2_000,
    } => "incast",
});

record!(FlowSpec {
    pattern: "pattern",
    sizes: "sizes" = SizeDist::Fixed { packets: 1 },
});

impl Serialize for Workload {
    fn to_value(&self) -> Value {
        match self {
            // The synthetic wire form predates flow workloads and stays
            // unchanged (`kind` omitted) so old documents keep parsing;
            // `control_fraction` is emitted only when a QoS mix is set
            // (`with` drops Null), keeping the single-class wire form
            // byte-stable.
            Workload::Synthetic {
                pattern,
                reactive,
                mix,
            } => Value::Map(
                Map::new()
                    .with("pattern", pattern.to_value())
                    .with("reactive", reactive.to_value())
                    .with(
                        "control_fraction",
                        mix.map_or(Value::Null, |m| m.control_fraction.to_value()),
                    ),
            ),
            Workload::Flows(spec) => Value::Map(
                Map::new()
                    .with("kind", Value::from("flows"))
                    .with("pattern", spec.pattern.to_value())
                    .with("sizes", spec.sizes.to_value()),
            ),
        }
    }
}

impl Deserialize for Workload {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map()?;
        match m
            .field_or("kind", "synthetic".to_string())?
            .to_ascii_lowercase()
            .as_str()
        {
            "synthetic" => Ok(Workload::Synthetic {
                pattern: m.field("pattern")?,
                reactive: m.field_or("reactive", false)?,
                mix: m
                    .opt("control_fraction")?
                    .map(|control_fraction| ClassMix { control_fraction }),
            }),
            "flows" => Ok(Workload::Flows(FlowSpec::from_value(v)?)),
            other => Err(Error::new(format!("unknown workload kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_serde::{from_json, from_toml, to_json};

    #[test]
    fn patterns_round_trip() {
        for p in [Pattern::Uniform, Pattern::adv1(), Pattern::bursty()] {
            assert_eq!(from_json::<Pattern>(&to_json(&p)).unwrap(), p);
        }
        let custom = Pattern::Adversarial { offset: 3 };
        assert_eq!(from_json::<Pattern>(&to_json(&custom)).unwrap(), custom);
    }

    #[test]
    fn shorthand_strings_accepted() {
        assert_eq!(from_json::<Pattern>("\"ADV+1\"").unwrap(), Pattern::adv1());
        assert_eq!(
            from_json::<Pattern>("\"bursty\"").unwrap(),
            Pattern::bursty()
        );
    }

    #[test]
    fn workload_round_trips_and_defaults() {
        let wl = Workload::reactive(Pattern::adv1());
        assert_eq!(from_json::<Workload>(&to_json(&wl)).unwrap(), wl);
        // `reactive` defaults to false when omitted.
        let parsed: Workload = from_toml("pattern = \"uniform\"\n").unwrap();
        assert_eq!(parsed, Workload::oblivious(Pattern::Uniform));
    }

    #[test]
    fn class_mix_round_trips_and_legacy_form_is_stable() {
        let wl = Workload::oblivious(Pattern::Uniform).with_mix(0.05);
        assert_eq!(from_json::<Workload>(&to_json(&wl)).unwrap(), wl);
        // A mix-less workload serializes to the legacy wire form: no
        // `control_fraction` key at all.
        let plain = Workload::oblivious(Pattern::Uniform);
        assert!(!to_json(&plain).contains("control_fraction"));
        // And the legacy wire form (no key) parses to `mix: None`.
        let parsed: Workload = from_toml("pattern = \"uniform\"\nreactive = false\n").unwrap();
        assert_eq!(parsed.class_mix(), None);
        assert_eq!(parsed, plain);
    }

    #[test]
    fn flow_workloads_round_trip() {
        let specs = [
            FlowSpec::uniform(SizeDist::Fixed { packets: 4 }),
            FlowSpec::permutation(SizeDist::mice_elephants()),
            FlowSpec::incast(6, SizeDist::heavy_tail()),
            FlowSpec {
                pattern: FlowPattern::Hotspot {
                    hotspots: 3,
                    fraction: 0.4,
                },
                sizes: SizeDist::Pareto {
                    min: 2,
                    max: 32,
                    alpha: 1.2,
                },
            },
        ];
        for spec in specs {
            let wl = Workload::flows(spec);
            assert_eq!(from_json::<Workload>(&to_json(&wl)).unwrap(), wl);
            assert_eq!(from_json::<FlowSpec>(&to_json(&spec)).unwrap(), spec);
        }
    }

    #[test]
    fn flow_shorthand_strings_accepted() {
        let wl: Workload =
            from_toml("kind = \"flows\"\npattern = \"incast\"\nsizes = \"bimodal\"\n").unwrap();
        assert_eq!(
            wl,
            Workload::flows(FlowSpec::incast(4, SizeDist::mice_elephants()))
        );
        // `sizes` defaults to single-packet flows when omitted.
        let wl: Workload = from_toml("kind = \"flows\"\npattern = \"permutation\"\n").unwrap();
        assert_eq!(
            wl,
            Workload::flows(FlowSpec::permutation(SizeDist::Fixed { packets: 1 }))
        );
    }
}
