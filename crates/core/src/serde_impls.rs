//! `flexvc_serde` conversions for the core model types.
//!
//! Conventions used across the workspace's serialized documents:
//!
//! * Each type declares its wire format once, in a `flexvc_serde` field
//!   table ([`keywords!`], `record!`, `tagged!`); only a type with a rule
//!   of its own is written by hand.
//! * Unit enum variants are lowercase snake_case strings (`"min"`,
//!   `"per_port"`, `"flexvc"`); parsing is case-insensitive and accepts
//!   the paper's labels (`"val"`, `"pb"`).
//! * [`Arrangement`]s serialize as their paper notation string, e.g.
//!   `"L G L | L G L"`, with the `|` marking the request/reply boundary.

use crate::classify::{NetworkFamily, Support};
use crate::{Arrangement, LinkClass, RoutingMode, VcPolicy, VcSelection};
use flexvc_serde::{keywords, Deserialize, Error, Serialize, Value};

keywords!(RoutingMode, "routing mode" {
    Min => "min",
    Valiant => "valiant" | "val",
    Par => "par",
    Piggyback => "piggyback" | "pb",
    UgalL => "ugal_l" | "ugal-l" | "ugal",
    UgalG => "ugal_g" | "ugal-g",
    Dal => "dal",
});

keywords!(VcPolicy, "VC policy" {
    Baseline => "baseline",
    FlexVc => "flexvc",
});

keywords!(VcSelection, "VC selection" {
    Jsq => "jsq",
    HighestVc => "highest_vc",
    LowestVc => "lowest_vc",
    Random => "random",
});

impl Serialize for NetworkFamily {
    fn to_value(&self) -> Value {
        Value::Str(match self {
            NetworkFamily::Diameter2 => "diameter2".to_string(),
            NetworkFamily::Dragonfly => "dragonfly".to_string(),
            NetworkFamily::DragonflyPlus => "dragonfly_plus".to_string(),
            NetworkFamily::Generic { diameter } => format!("diameter{diameter}"),
        })
    }
}

impl Deserialize for NetworkFamily {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str()?.to_ascii_lowercase();
        if s == "dragonfly" {
            return Ok(NetworkFamily::Dragonfly);
        }
        if s == "dragonfly_plus" || s == "dragonflyplus" || s == "megafly" {
            return Ok(NetworkFamily::DragonflyPlus);
        }
        if let Some(d) = s.strip_prefix("diameter").and_then(|d| d.parse().ok()) {
            if d >= 1 {
                return Ok(NetworkFamily::generic(d));
            }
        }
        Err(Error::new(format!(
            "unknown network family `{s}` (expected dragonfly, dragonfly_plus or diameter<N>)"
        )))
    }
}

impl Serialize for Support {
    fn to_value(&self) -> Value {
        // The classification glyphs of the paper's tables: S / O / X.
        Value::Str(self.to_string())
    }
}

impl Serialize for Arrangement {
    fn to_value(&self) -> Value {
        Value::Str(self.notation())
    }
}

impl Deserialize for Arrangement {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let text = v.as_str()?;
        let mut seq = Vec::new();
        let mut req_len: Option<usize> = None;
        for c in text.chars() {
            match c {
                'L' | 'l' => seq.push(LinkClass::Local),
                'G' | 'g' => seq.push(LinkClass::Global),
                '|' => {
                    if req_len.replace(seq.len()).is_some() {
                        return Err(Error::new(format!(
                            "arrangement `{text}` has more than one `|` boundary"
                        )));
                    }
                }
                ' ' | '\t' => {}
                other => {
                    return Err(Error::new(format!(
                        "invalid character `{other}` in arrangement `{text}` \
                         (expected L, G, `|` and spaces)"
                    )))
                }
            }
        }
        if seq.is_empty() {
            return Err(Error::new("arrangement must contain at least one VC"));
        }
        let req_len = req_len.unwrap_or(seq.len());
        if req_len == 0 {
            return Err(Error::new(format!(
                "arrangement `{text}` has an empty request prefix"
            )));
        }
        Ok(Arrangement::with_request_len(seq, req_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_serde::{from_json, to_json};

    #[test]
    fn keyword_enums_round_trip() {
        for mode in [
            RoutingMode::Min,
            RoutingMode::Valiant,
            RoutingMode::Par,
            RoutingMode::Piggyback,
            RoutingMode::UgalL,
            RoutingMode::UgalG,
            RoutingMode::Dal,
        ] {
            assert_eq!(from_json::<RoutingMode>(&to_json(&mode)).unwrap(), mode);
        }
        assert_eq!(
            from_json::<RoutingMode>("\"UGAL-G\"").unwrap(),
            RoutingMode::UgalG
        );
        assert_eq!(
            from_json::<RoutingMode>("\"ugal\"").unwrap(),
            RoutingMode::UgalL
        );
        for sel in VcSelection::all() {
            assert_eq!(from_json::<VcSelection>(&to_json(&sel)).unwrap(), sel);
        }
        assert_eq!(
            from_json::<RoutingMode>("\"VAL\"").unwrap(),
            RoutingMode::Valiant
        );
        assert!(from_json::<RoutingMode>("\"warp\"").is_err());
    }

    #[test]
    fn network_family_round_trips() {
        use crate::classify::NetworkFamily;
        for fam in [
            NetworkFamily::Dragonfly,
            NetworkFamily::DragonflyPlus,
            NetworkFamily::Diameter2,
            NetworkFamily::generic(3),
        ] {
            assert_eq!(from_json::<NetworkFamily>(&to_json(&fam)).unwrap(), fam);
        }
        // The Megafly alias parses to the same family.
        assert_eq!(
            from_json::<NetworkFamily>("\"megafly\"").unwrap(),
            NetworkFamily::DragonflyPlus
        );
        // `diameter2` canonicalizes to the dedicated variant.
        assert_eq!(
            from_json::<NetworkFamily>("\"diameter2\"").unwrap(),
            NetworkFamily::Diameter2
        );
        assert_eq!(
            from_json::<NetworkFamily>("\"diameter3\"").unwrap(),
            NetworkFamily::Generic { diameter: 3 }
        );
        assert!(from_json::<NetworkFamily>("\"diameter0\"").is_err());
        assert!(from_json::<NetworkFamily>("\"torus\"").is_err());
    }

    #[test]
    fn arrangement_notation_round_trips() {
        for arr in [
            Arrangement::dragonfly_min(),
            Arrangement::dragonfly_par(),
            Arrangement::dragonfly(8, 4),
            Arrangement::dragonfly_rr((4, 2), (2, 1)),
            Arrangement::generic(4),
            Arrangement::generic_rr(3, 2),
        ] {
            let back = from_json::<Arrangement>(&to_json(&arr)).unwrap();
            assert_eq!(back, arr, "notation {}", arr.notation());
        }
    }

    #[test]
    fn arrangement_parse_accepts_compact_forms() {
        let a = from_json::<Arrangement>("\"lgl|lgl\"").unwrap();
        assert_eq!(a, Arrangement::dragonfly_rr((2, 1), (2, 1)));
        assert!(from_json::<Arrangement>("\"LQL\"").is_err());
        assert!(from_json::<Arrangement>("\"\"").is_err());
        assert!(from_json::<Arrangement>("\"|LGL\"").is_err());
        assert!(from_json::<Arrangement>("\"L|G|L\"").is_err());
    }
}
