//! Minimal offline stand-in for `serde`.
//!
//! Real serde is a zero-copy framework generic over data formats; this shim
//! collapses all of that into one self-describing [`Value`] tree (the only
//! format this workspace uses is JSON via the sibling `serde_json` shim).
//! The [`Serialize`]/[`Deserialize`] traits and the derive macros
//! re-exported from `serde_derive` keep call sites source-compatible for
//! the shapes this workspace derives: named-field structs, newtype/tuple
//! structs, and enums with unit, newtype, tuple and struct variants
//! (externally tagged, like real serde's default representation).

pub use serde_derive::{Deserialize, Serialize};

#[expect(
    clippy::disallowed_types,
    reason = "`HashMap` serializes through the key-sorted impl below"
)]
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// A self-describing tree value; the interchange point between
/// [`Serialize`], [`Deserialize`] and the JSON front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// Negative integer (always `< 0`; non-negative integers use `UInt`).
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion-ordered so serialized field order is stable.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Object field lookup; `None` when `self` is not an object or the key
    /// is absent.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Numeric view as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view, matching `serde_json::Value::as_array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Object view as ordered key/value pairs (the shim's object
    /// representation preserves insertion order).
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Panic-free indexing: missing keys and non-objects yield `Null`,
    /// matching `serde_json::Value` semantics.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! impl_value_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match *self {
                    Value::UInt(u) => i128::from(u) == i128::from(*other),
                    Value::Int(i) => i128::from(i) == i128::from(*other),
                    _ => false,
                }
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
impl_value_eq_int!(i32, i64, u32, u64);

impl PartialEq<usize> for Value {
    fn eq(&self, other: &usize) -> bool {
        *self == (*other as u64)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(*self, Value::Float(f) if f == *other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Creates an error from any message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types convertible into a [`Value`].
pub trait Serialize {
    /// Converts `self` to the interchange tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`].
pub trait Deserialize: Sized {
    /// Reconstructs from the interchange tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// The value to use when a struct field is absent; `None` means the
    /// field is required. Overridden by `Option<T>` (absent ⇒ `None`),
    /// mirroring serde's implicit-optional behavior.
    fn missing() -> Option<Self> {
        None
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64().ok_or_else(|| {
                    Error::msg(format!("expected unsigned integer, got {}", v.kind()))
                })?;
                <$t>::try_from(u).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i: i64 = match *v {
                    Value::Int(i) => i,
                    Value::UInt(u) => {
                        i64::try_from(u).map_err(|_| Error::msg("integer out of range"))?
                    }
                    _ => return Err(Error::msg(format!("expected integer, got {}", v.kind()))),
                };
                <$t>::try_from(i).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {}", v.kind())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
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
            _ => Err(Error::msg(format!("expected bool, got {}", v.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg(format!("expected string, got {}", v.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::msg(format!("expected array, got {}", v.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
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

    fn missing() -> Option<Self> {
        Some(None)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == [$($n),+].len() => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    _ => Err(Error::msg("expected tuple array")),
                }
            }
        }
    )*};
}
impl_serde_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for Duration {
    /// Serde's canonical `Duration` shape: `{ "secs": u64, "nanos": u32 }`.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            ("nanos".to_string(), Value::UInt(self.subsec_nanos() as u64)),
        ])
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = as_object(v)?;
        let secs: u64 = field(obj, "secs")?;
        let nanos: u32 = field(obj, "nanos")?;
        Ok(Duration::new(secs, nanos))
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the pairs are sorted by key below, so the serialized object is independent of hash order"
)]
impl<K: Serialize + ToString, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<K: Serialize + ToString + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    /// Ordered maps serialize as objects in key order — already canonical,
    /// which is why deterministic call sites prefer them over `HashMap`.
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        for (k, v) in as_object(v)? {
            map.insert(
                k.clone(),
                V::from_value(v).map_err(|e| Error::msg(format!("key `{k}`: {e}")))?,
            );
        }
        Ok(map)
    }
}

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

// ---------------------------------------------------------------------------
// Helpers used by the generated derive code
// ---------------------------------------------------------------------------

/// Views `v` as an object's field list.
pub fn as_object(v: &Value) -> Result<&[(String, Value)], Error> {
    match v {
        Value::Object(pairs) => Ok(pairs),
        _ => Err(Error::msg(format!("expected object, got {}", v.kind()))),
    }
}

/// Views `v` as an array's item list.
pub fn as_array(v: &Value) -> Result<&[Value], Error> {
    match v {
        Value::Array(items) => Ok(items),
        _ => Err(Error::msg(format!("expected array, got {}", v.kind()))),
    }
}

/// Extracts and deserializes a struct field, honoring
/// [`Deserialize::missing`] for absent keys.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::msg(format!("field `{name}`: {e}"))),
        None => T::missing().ok_or_else(|| Error::msg(format!("missing field `{name}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Vec<u32> = Deserialize::from_value(&vec![1u32, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let t: (usize, f64) = Deserialize::from_value(&(3usize, 0.5f64).to_value()).unwrap();
        assert_eq!(t, (3, 0.5));
    }

    #[test]
    fn option_handles_null_and_missing() {
        let none: Option<f64> = Deserialize::from_value(&Value::Null).unwrap();
        assert_eq!(none, None);
        let some: Option<f64> = Deserialize::from_value(&Value::Float(2.0)).unwrap();
        assert_eq!(some, Some(2.0));
        let missing: Result<Option<f64>, _> = field(&[], "radii");
        assert_eq!(missing.unwrap(), None);
        let required: Result<f64, _> = field(&[], "x");
        assert!(required.is_err());
    }

    #[test]
    fn duration_roundtrips() {
        let d = Duration::new(3, 456_789);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn value_indexing_and_eq() {
        let v = Value::Object(vec![("n".into(), Value::UInt(20))]);
        assert_eq!(v["n"], 20);
        assert_eq!(v["absent"], Value::Null);
        assert!(Value::Str("hi".into()) == "hi");
    }

    #[test]
    fn out_of_range_integers_rejected() {
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
    }
}
