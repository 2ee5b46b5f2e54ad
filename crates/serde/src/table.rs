//! Field tables: one declaration per type generates both its `Serialize`
//! and its `Deserialize` impl.

/// A unit-only enum as a lowercase keyword: `keywords!(Type, "what" {
/// Variant => "spelling" | "alias", ... })`.
///
/// The first spelling is written; any spelling is read, case-insensitively.
/// `"what"` names the type in error messages.
#[macro_export]
macro_rules! keywords {
    ($ty:ty, $what:literal {
        $($variant:ident => $first:literal $(| $alias:literal)*),+ $(,)?
    }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Str(match self { $(Self::$variant => $first),+ }.to_string())
            }
        }

        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let s = v.as_str()?;
                $(if s.eq_ignore_ascii_case($first) $(|| s.eq_ignore_ascii_case($alias))* {
                    return Ok(Self::$variant);
                })+
                Err($crate::__private::unknown($what, s, &[$($first $(, $alias)*),+]))
            }
        }
    };
}

/// A struct as a map: `record!(Type { field: "key", ... })`.
///
/// Keys are written in declaration order; a field whose value is null (an
/// empty `Option`) is left out. A field is read in one of three ways:
///
/// * `field: "key"` is required;
/// * `field: "key" = expr` takes `expr` when the key is absent or null;
/// * `field: "key" => expr` is derived when the key is absent or null:
///   `expr` runs after every other field is resolved and may name them.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Span { start: u64, len: u64, end: u64 }
/// flexvc_serde::record!(Span { start: "start", len: "length" = 10, end: "end" => start + len });
/// let span: Span = flexvc_serde::from_json(r#"{"start": 5}"#).unwrap();
/// assert_eq!(span, Span { start: 5, len: 10, end: 15 });
/// assert_eq!(flexvc_serde::to_json(&span), r#"{"start":5,"length":10,"end":15}"#);
/// ```
#[macro_export]
macro_rules! record {
    ($ty:ty {
        $($field:ident : $key:literal $(= $default:expr)? $(=> $derived:expr)?),+ $(,)?
    }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Map(
                    $crate::Map::new()
                        $(.with($key, $crate::Serialize::to_value(&self.$field)))+
                )
            }
        }

        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let m = v.as_map()?;
                $($crate::__record_field!(decode m, $field, $key $(= $default)? $(=> $derived)?);)+
                $($crate::__record_field!(default $field $(= $default)? $(=> $derived)?);)+
                $($crate::__record_field!(derive $field $(= $default)? $(=> $derived)?);)+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// The phases of a [`record!`] decode: every present key, then the plain
/// defaults, then the derived ones.
#[doc(hidden)]
#[macro_export]
macro_rules! __record_field {
    (decode $m:ident, $field:ident, $key:literal) => {
        let $field = $m.field($key)?;
    };
    (decode $m:ident, $field:ident, $key:literal $($rest:tt)+) => {
        let $field = $m.opt($key)?;
    };
    (default $field:ident = $value:expr) => {
        let $field = $field.unwrap_or_else(|| $value);
    };
    (derive $field:ident => $value:expr) => {
        let $field = $field.unwrap_or_else(|| $value);
    };
    ($phase:ident $field:ident $($rest:tt)*) => {};
}

/// An enum tagged by `kind`: `tagged!(Type, "what" { Unit => "tag" | "alias",
/// Struct { field: "key" = expr, ... } => "tag", ... })`.
///
/// A unit variant is written as its bare tag, a struct variant as a map
/// with `kind` first and then its fields in declaration order. A map is
/// read by its `kind`; a bare tag reads as a unit variant, or as a struct
/// variant whose fields all take their defaults. Any tag spelling is read,
/// case-insensitively, in both forms. Struct fields are required or
/// defaulted, as in [`record!`].
#[macro_export]
macro_rules! tagged {
    ($ty:ty, $what:literal {
        $($variant:ident $({ $($field:ident : $key:literal $(= $default:expr)?),+ $(,)? })?
            => $tag:literal $(| $alias:literal)*),+ $(,)?
    }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::__private::tagged(match self {
                    $(Self::$variant $({ $($field),+ })? => $crate::Map::new()
                        .with("kind", $crate::Value::from($tag))
                        $($(.with($key, $crate::Serialize::to_value($field)))+)?),+
                })
            }
        }

        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let (tag, _m) = $crate::__private::tag_of(v, $what)?;
                $(if tag.eq_ignore_ascii_case($tag) $(|| tag.eq_ignore_ascii_case($alias))* {
                    return Ok(Self::$variant $({ $($field: $crate::__private::variant_field(
                        _m, $key, None $(.or(Some($default)))?,
                    )?),+ })?);
                })+
                Err($crate::__private::unknown($what, tag, &[$($tag $(, $alias)*),+]))
            }
        }
    };
}
