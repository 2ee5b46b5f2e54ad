//! The document value model shared by the JSON and TOML formats.

use std::fmt;

/// A serialization error (emit or parse) with a `path.to.key` context chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    path: Vec<String>,
    msg: String,
}

impl Error {
    /// New error with an empty path.
    pub fn new(msg: impl Into<String>) -> Self {
        Error {
            path: Vec::new(),
            msg: msg.into(),
        }
    }

    /// Prepend a path segment (called while unwinding through containers).
    pub fn context(mut self, segment: &str) -> Self {
        self.path.insert(0, segment.to_string());
        self
    }

    /// The bare message without path context.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            return f.write_str(&self.msg);
        }
        let mut path = String::new();
        for seg in &self.path {
            if !path.is_empty() && !seg.starts_with('[') {
                path.push('.');
            }
            path.push_str(seg);
        }
        write!(f, "{path}: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// An ordered string-keyed map (insertion order is preserved, so emitted
/// documents are deterministic and diff-friendly).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Empty map.
    pub const fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Insert or replace a key.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// Builder-style [`Map::insert`]; `Null` values are skipped so optional
    /// fields disappear from the document.
    pub fn with(mut self, key: impl Into<String>, value: Value) -> Self {
        if !matches!(value, Value::Null) {
            self.insert(key, value);
        }
        self
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Required field as a raw value.
    pub fn req(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error::new(format!("missing required key `{key}`")))
    }

    /// Required field, deserialized, with the key added to error context.
    pub fn field<T: crate::Deserialize>(&self, key: &str) -> Result<T, Error> {
        T::from_value(self.req(key)?).map_err(|e| e.context(key))
    }

    /// Optional field with a default when the key is absent or null.
    pub fn field_or<T: crate::Deserialize>(&self, key: &str, default: T) -> Result<T, Error> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(default),
            Some(v) => T::from_value(v).map_err(|e| e.context(key)),
        }
    }

    /// Optional field (`None` when absent or null).
    pub fn opt<T: crate::Deserialize>(&self, key: &str) -> Result<Option<T>, Error> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => T::from_value(v).map(Some).map_err(|e| e.context(key)),
        }
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A document value: the common model of JSON and TOML.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`; absent in TOML (null map entries are skipped on emit).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered sequence.
    Seq(Vec<Value>),
    /// Ordered string-keyed map.
    Map(Map),
}

impl Value {
    /// Human-readable type label for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    fn mismatch(&self, wanted: &str) -> Error {
        Error::new(format!("expected {wanted}, got {}", self.type_name()))
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.mismatch("bool")),
        }
    }

    /// Integer accessor.
    pub fn as_i64(&self) -> Result<i64, Error> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(other.mismatch("integer")),
        }
    }

    /// Float accessor; integers coerce (TOML `1` where `1.0` is meant).
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(other.mismatch("float")),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.mismatch("string")),
        }
    }

    /// Sequence accessor.
    pub fn as_seq(&self) -> Result<&[Value], Error> {
        match self {
            Value::Seq(s) => Ok(s),
            other => Err(other.mismatch("sequence")),
        }
    }

    /// Map accessor.
    pub fn as_map(&self) -> Result<&Map, Error> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(other.mismatch("map")),
        }
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Map(m)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b", Value::Int(1));
        m.insert("a", Value::Int(2));
        m.insert("b", Value::Int(3));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Int(3)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn with_skips_null() {
        let m = Map::new()
            .with("x", Value::Int(1))
            .with("gone", Value::Null);
        assert!(m.contains_key("x"));
        assert!(!m.contains_key("gone"));
    }

    #[test]
    fn error_path_rendering() {
        let e = Error::new("boom").context("[2]").context("points");
        assert_eq!(e.to_string(), "points[2]: boom");
        let e2 = Error::new("boom").context("cfg").context("points");
        assert_eq!(e2.to_string(), "points.cfg: boom");
    }

    #[test]
    fn accessor_coercion() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert!(Value::Float(1.5).as_i64().is_err());
    }
}
