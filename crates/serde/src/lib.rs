//! # flexvc-serde — self-contained serialization for experiment data
//!
//! The workspace builds without registry access, so this crate supplies
//! what `serde` + `serde_json` + `toml` would otherwise provide, scoped to
//! the needs of the experiment API:
//!
//! * [`Value`] — an ordered document model (null/bool/int/float/string/
//!   sequence/map) shared by both formats.
//! * [`json`] — a complete JSON emitter and parser.
//! * [`toml`] — a TOML emitter and parser covering the practical subset
//!   used by scenario files: tables, arrays of tables, dotted keys, inline
//!   tables, (multi-line) arrays, basic/literal strings, integers, floats,
//!   booleans and comments.
//! * [`Serialize`]/[`Deserialize`] — value-model conversion traits, plus
//!   the [`to_json`]/[`from_json`]/[`to_toml`]/[`from_toml`] entry points.
//!
//! There is no derive macro: a type declares its wire format once, in a
//! field table ([`keywords!`], [`record!`], [`tagged!`]) that generates both
//! impls, or implements them by hand with the [`Map`] helpers `field`,
//! `field_or` and `opt`. Errors carry a `path.to.key: message` context.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod table;
pub mod toml;
mod value;

pub use value::{Error, Map, Value};

/// Convert a domain type into the document [`Value`] model.
pub trait Serialize {
    /// Build the value-model representation.
    fn to_value(&self) -> Value;
}

/// Rebuild a domain type from the document [`Value`] model.
pub trait Deserialize: Sized {
    /// Parse from the value model, with a path-context error on mismatch.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Serialize to compact JSON.
pub fn to_json<T: Serialize>(t: &T) -> String {
    json::emit(&t.to_value())
}

/// Serialize to human-readable indented JSON.
pub fn to_json_pretty<T: Serialize>(t: &T) -> String {
    json::emit_pretty(&t.to_value())
}

/// Deserialize from JSON text.
pub fn from_json<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&json::parse(s)?)
}

/// Serialize to TOML text. The value must serialize to a map.
pub fn to_toml<T: Serialize>(t: &T) -> Result<String, Error> {
    match t.to_value() {
        Value::Map(m) => Ok(toml::emit(&m)),
        other => Err(Error::new(format!(
            "TOML documents must be maps, got {}",
            other.type_name()
        ))),
    }
}

/// Deserialize from TOML text.
pub fn from_toml<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&Value::Map(toml::parse(s)?))
}

/// Helpers for the code the field tables generate.
#[doc(hidden)]
pub mod __private {
    use crate::{Deserialize, Error, Map, Value};

    /// A `tagged!` value: the bare tag when no field follows `kind`.
    pub fn tagged(m: Map) -> Value {
        match m.len() {
            1 => m.req("kind").cloned().unwrap_or(Value::Null),
            _ => Value::Map(m),
        }
    }

    /// A tag or keyword that spells none of `expected`.
    pub fn unknown(what: &str, got: &str, expected: &[&str]) -> Error {
        let (got, expected) = (got.to_ascii_lowercase(), expected.join(", "));
        Error::new(format!(
            "unknown {what} `{got}` (expected one of {expected})"
        ))
    }

    /// A bare tag with no fields, or the `kind` of a map and the map.
    pub fn tag_of<'a>(v: &'a Value, what: &str) -> Result<(&'a str, &'a Map), Error> {
        static NO_FIELDS: Map = Map::new();
        match v {
            Value::Str(tag) => Ok((tag, &NO_FIELDS)),
            Value::Map(m) => Ok((m.req("kind")?.as_str().map_err(|e| e.context("kind"))?, m)),
            other => Err(Error::new(format!(
                "expected string or map for {what}, got {}",
                other.type_name()
            ))),
        }
    }

    /// A struct variant's field: required, or `default` when absent.
    pub fn variant_field<T: Deserialize>(
        m: &Map,
        key: &str,
        default: Option<T>,
    ) -> Result<T, Error> {
        default.map_or_else(|| m.field(key), |default| m.field_or(key, default))
    }
}

// ---------------------------------------------------------------------------
// Blanket impls for primitives and containers
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_str()?.to_string())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(i) => Value::Int(i),
                    // Out-of-range integers (e.g. huge u64 seeds) round-trip
                    // through decimal strings.
                    Err(_) => Value::Str(self.to_string()),
                }
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::new(format!("{i} out of range for {}", stringify!($t)))),
                    Value::Str(s) => s.parse::<$t>()
                        .map_err(|_| Error::new(format!("cannot parse {s:?} as {}", stringify!($t)))),
                    other => Err(Error::new(format!(
                        "expected integer, got {}",
                        other.type_name()
                    ))),
                }
            }
        }
    )*};
}

impl_int!(i64, u64, u32, u16, u8, usize);

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|t| t.to_value()).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()?
            .iter()
            .enumerate()
            .map(|(i, e)| T::from_value(e).map_err(|err| err.context(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert!(from_json::<bool>(&to_json(&true)).unwrap());
        assert_eq!(from_json::<u64>(&to_json(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_json::<f64>(&to_json(&0.25)).unwrap(), 0.25);
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(from_json::<Vec<u32>>(&to_json(&v)).unwrap(), v);
        assert_eq!(from_json::<Option<String>>("null").unwrap(), None::<String>);
    }

    #[test]
    fn toml_requires_map_root() {
        assert!(to_toml(&42u32).is_err());
        let m = Map::new().with("answer", 42u32.to_value());
        let text = to_toml(&Value::Map(m)).unwrap();
        assert!(text.contains("answer = 42"));
    }

    #[test]
    fn int_range_errors() {
        assert!(from_json::<u8>("300").is_err());
        assert!(from_json::<u32>("-1").is_err());
    }
}
