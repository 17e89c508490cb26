//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this workspace vendors
//! a minimal serde: [`Serialize`]/[`Deserialize`] traits over a
//! self-describing [`Value`] tree, a JSON reader/writer in [`json`], and
//! `#[derive(Serialize, Deserialize)]` macros (from the sibling
//! `serde_derive` proc-macro crate) that understand plain structs, tuple
//! structs, unit structs and enums with unit/tuple/struct variants, plus
//! the `#[serde(skip)]`, `#[serde(default)]` and
//! `#[serde(skip, default = "path")]` field attributes used in this
//! repository.
//!
//! The data model is intentionally small — everything the
//! characterization framework checkpoints flows through [`Value`]:
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Point {
//!     x: u32,
//!     label: String,
//! }
//!
//! let p = Point { x: 7, label: "vmin".to_string() };
//! let text = serde::json::to_string(&p);
//! let back: Point = serde::json::from_str(&text).unwrap();
//! assert_eq!(p, back);
//! ```

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

pub mod json;

/// The self-describing serialized form.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unit / absent.
    Null,
    /// Boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (always < 0 when produced by this crate).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered string-keyed map (struct fields, enum payloads).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, or an error for any other shape.
    pub fn as_map(&self) -> Result<&Vec<(String, Value)>, Error> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(Error::custom(format!(
                "expected map, found {}",
                other.kind()
            ))),
        }
    }

    /// The sequence elements, or an error for any other shape.
    pub fn as_seq(&self) -> Result<&Vec<Value>, Error> {
        match self {
            Value::Seq(s) => Ok(s),
            other => Err(Error::custom(format!(
                "expected seq, found {}",
                other.kind()
            ))),
        }
    }

    /// The string payload, or an error for any other shape.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::custom(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "string",
            Value::Seq(_) => "seq",
            Value::Map(_) => "map",
        }
    }
}

/// Fetches a struct field from a map value (helper for derived code).
pub fn map_get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// A missing struct field.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("missing field `{field}` of `{ty}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => {
                        return Err(Error::custom(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

// 128-bit integers don't fit the U64/I64 value model; encode as decimal
// strings (JSON numbers that wide would lose precision in most readers).
macro_rules! impl_int128 {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Str(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Str(s) => s.parse::<$t>().map_err(|_| {
                        Error::custom(format!("invalid {} literal `{s}`", stringify!($t)))
                    }),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => <$t>::try_from(*n).map_err(|_| {
                        Error::custom(format!("{n} out of range for {}", stringify!($t)))
                    }),
                    other => Err(Error::custom(format!(
                        "expected 128-bit integer, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_int128!(u128, i128);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n < 0 { Value::I64(n) } else { Value::U64(n as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::custom(format!("{n} out of i64 range")))?,
                    other => {
                        return Err(Error::custom(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    other => Err(Error::custom(format!(
                        "expected number, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_owned)
    }
}

// A `Cow<str>` encodes exactly like the `String` it may stand for, and
// always decodes to an owned string.
impl Serialize for Cow<'_, str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Cow<'static, str> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        String::from_value(v).map(Cow::Owned)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected a single-character string")),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error::custom(format!(
                "expected null, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = v
            .as_seq()?
            .iter()
            .map(T::from_value)
            .collect::<Result<_, _>>()?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected array of {N}, found {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq()?;
                let expected = [$($idx),+].len();
                if s.len() != expected {
                    return Err(Error::custom(format!(
                        "expected tuple of {expected}, found {}", s.len()
                    )));
                }
                Ok(($($name::from_value(&s[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        map_entries(v)?.into_iter().collect::<Result<_, _>>()
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        map_entries(v)?.into_iter().collect::<Result<_, _>>()
    }
}

#[allow(clippy::type_complexity)]
fn map_entries<K: Deserialize, V: Deserialize>(
    v: &Value,
) -> Result<Vec<Result<(K, V), Error>>, Error> {
    Ok(v.as_seq()?
        .iter()
        .map(|pair| {
            let s = pair.as_seq()?;
            if s.len() != 2 {
                return Err(Error::custom("map entry must be a [key, value] pair"));
            }
            Ok((K::from_value(&s[0])?, V::from_value(&s[1])?))
        })
        .collect())
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::from_value(&v.to_value()).unwrap(), v);
        }
        for v in [-3i32, 0, 7] {
            assert_eq!(i32::from_value(&v.to_value()).unwrap(), v);
        }
        assert!(bool::from_value(&true.to_value()).unwrap());
        let s = "hello".to_string();
        assert_eq!(String::from_value(&s.to_value()).unwrap(), s);
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let opt: Option<u8> = Some(9);
        assert_eq!(Option::<u8>::from_value(&opt.to_value()).unwrap(), opt);
        let arr = [1.5f64, 2.5];
        assert_eq!(<[f64; 2]>::from_value(&arr.to_value()).unwrap(), arr);
        let mut map = BTreeMap::new();
        map.insert(("a".to_string(), 3u32), 9u64);
        assert_eq!(
            BTreeMap::<(String, u32), u64>::from_value(&map.to_value()).unwrap(),
            map
        );
    }

    #[test]
    fn cow_str_encodes_like_string_and_decodes_owned() {
        let text = "vmin \"walk\"";
        let borrowed: Cow<'static, str> = Cow::Borrowed(text);
        assert_eq!(borrowed.to_value(), text.to_owned().to_value());
        assert_eq!(
            crate::json::to_string(&borrowed),
            crate::json::to_string(&text.to_owned())
        );
        let back = Cow::<'static, str>::from_value(&borrowed.to_value()).unwrap();
        assert!(matches!(back, Cow::Owned(ref s) if s == text));
        assert!(Cow::<'static, str>::from_value(&Value::U64(1)).is_err());
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u32::from_value(&Value::I64(-1)).is_err());
    }
}
