//! The dynamic value model.
//!
//! Whiteboard fields and task input/output structures hold [`Value`]s.  The
//! model is deliberately JSON-shaped so that instance state serializes
//! directly into the persistent spaces, keeping the paper's promise that
//! "the fact that the process state is persistently stored in a database
//! also offers significant advantages for monitoring and querying purposes".

use serde::{Content, DeError, Deserialize, JsonReader, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A dynamic value flowing through a process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "t", content = "v")]
pub enum Value {
    /// Absent / undefined.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    List(Vec<Value>),
    /// String-keyed map with stable iteration order.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// The type name used in error messages and by `typeof()` in guards.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// True unless the value is `Null`.
    pub fn is_defined(&self) -> bool {
        !matches!(self, Value::Null)
    }

    /// Truthiness used by activation conditions: `Null` and `false` are
    /// falsy; everything else (including `0`) requires an explicit
    /// comparison, and asking for the truth of a non-boolean is an error at
    /// the expression layer.  This helper is only for the boolean cases.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view (no coercion).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
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

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Map view.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Length of a list, map, or string; `None` for scalars.
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::List(v) => Some(v.len()),
            Value::Map(m) => Some(m.len()),
            Value::Str(s) => Some(s.chars().count()),
            _ => None,
        }
    }

    /// Whether a container value is empty (scalars return `None`).
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Follow a dotted field path through nested maps.
    pub fn get_path(&self, path: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for seg in path {
            cur = cur.as_map()?.get(*seg)?;
        }
        Some(cur)
    }

    /// Build a map value from pairs.
    pub fn map_from<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build a list of ints, convenient for queue files.
    pub fn int_list(items: impl IntoIterator<Item = i64>) -> Value {
        Value::List(items.into_iter().map(Value::Int).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

/// An exact-size, key-sorted map of named [`Value`]s — the *resident* form
/// of a field structure (a task record's inputs and outputs).
///
/// A `BTreeMap` allocates a whole leaf (11 entries, 632 B here) for its
/// first entry; a server holding a record per task for weeks pays that for
/// structures of one or two fields.  This holds exactly its entries and
/// nothing when empty.  Insertion is O(n), which field structures (a
/// handful of declared fields) never notice; a map that is built up and
/// passed along — program inputs and outputs, the whiteboard,
/// [`Value::Map`] — stays a `BTreeMap`.
///
/// On the wire it *is* a `BTreeMap<String, Value>`: the same `Content::Map`
/// in key order out, keys in any order (or `null`) in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FieldMap(Box<[(String, Value)]>);

impl FieldMap {
    /// An empty map (no allocation).
    pub fn new() -> Self {
        FieldMap::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True with no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// The value of field `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.0[i].1)
    }

    /// Set field `key`, returning the value it replaces.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                let mut entries = std::mem::take(&mut self.0).into_vec();
                entries.reserve_exact(1);
                entries.insert(i, (key, value));
                self.0 = entries.into_boxed_slice();
                None
            }
        }
    }

    /// The fields in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// A copy in the passed form, for a program or a child instance.
    pub fn to_map(&self) -> BTreeMap<String, Value> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

impl Index<&str> for FieldMap {
    type Output = Value;

    /// Panics when the field is absent, as `BTreeMap`'s `Index` does.
    fn index(&self, key: &str) -> &Value {
        self.get(key).expect("no such field")
    }
}

impl From<BTreeMap<String, Value>> for FieldMap {
    fn from(map: BTreeMap<String, Value>) -> Self {
        FieldMap(map.into_iter().collect())
    }
}

/// Later entries replace earlier ones of the same key, as in a `BTreeMap`.
impl FromIterator<(String, Value)> for FieldMap {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let entries: Vec<(String, Value)> = iter.into_iter().collect();
        if entries.windows(2).all(|w| w[0].0 < w[1].0) {
            FieldMap(entries.into_boxed_slice())
        } else {
            entries.into_iter().collect::<BTreeMap<_, _>>().into()
        }
    }
}

impl Serialize for FieldMap {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut String) {
        serde::write_map(self.iter(), out);
    }
}

impl Deserialize for FieldMap {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), Value::from_content(v)?)))
                .collect(),
            Content::Null => Ok(FieldMap::new()),
            other => Err(DeError::custom(format!("expected map, found {other:?}"))),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut entries = Vec::new();
        let mut more = r.map_start_or_null()?;
        while more {
            let entry = (r.read_key()?.into_owned(), Value::read_json(r)?);
            more = r.map_next()?;
            // A structure of one field — most are — is allocated at its
            // final size rather than grown to four entries and cut back.
            if !more && entries.is_empty() {
                entries.reserve_exact(1);
            }
            entries.push(entry);
        }
        Ok(entries.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_and_views() {
        assert_eq!(Value::Null.type_name(), "null");
        assert!(!Value::Null.is_defined());
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(vec![1i64, 2]).len(), Some(2));
        assert_eq!(Value::Int(1).len(), None);
    }

    #[test]
    fn path_access() {
        let v = Value::map_from([("task", Value::map_from([("state", Value::from("running"))]))]);
        assert_eq!(
            v.get_path(&["task", "state"]),
            Some(&Value::from("running"))
        );
        assert_eq!(v.get_path(&["task", "missing"]), None);
        assert_eq!(v.get_path(&[]), Some(&v));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(3i64).to_string(), "3");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
        assert_eq!(Value::int_list([1, 2]).to_string(), "[1, 2]");
        assert_eq!(
            Value::map_from([("a", Value::Bool(true))]).to_string(),
            "{a: true}"
        );
    }

    #[test]
    fn field_map_keeps_key_order_and_replaces_in_place() {
        let mut m = FieldMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("x".into(), Value::Int(1)), None);
        assert_eq!(m.insert("a".into(), Value::Int(2)), None);
        assert_eq!(m.insert("m".into(), Value::Int(3)), None);
        assert_eq!(m.insert("x".into(), Value::Int(4)), Some(Value::Int(1)));
        assert_eq!(m.len(), 3);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "m", "x"]);
        assert_eq!(m.get("x"), Some(&Value::Int(4)));
        assert_eq!(m.get("b"), None);
        assert_eq!(m["m"], Value::Int(3));
        let model = BTreeMap::from([
            ("a".to_string(), Value::Int(2)),
            ("m".to_string(), Value::Int(3)),
            ("x".to_string(), Value::Int(4)),
        ]);
        assert_eq!(m.to_map(), model);
        assert_eq!(FieldMap::from(model), m);
    }

    /// On the wire a `FieldMap` is the `BTreeMap` it replaced.
    #[test]
    fn field_map_encodes_as_a_btree_map_and_decodes_any_key_order() {
        let model = BTreeMap::from([
            ("queue".to_string(), Value::int_list([3, 1])),
            ("db".to_string(), Value::from("sp38")),
            ("nested".to_string(), Value::map_from([("k", Value::Null)])),
        ]);
        let m = FieldMap::from(model.clone());
        assert_eq!(m.to_content(), model.to_content());
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, serde_json::to_string(&model).unwrap());
        assert_eq!(serde_json::from_str::<FieldMap>(&json).unwrap(), m);
        // Keys out of order, a repeated key (the last one wins, as in a
        // `BTreeMap`), an empty map and `null`.
        let int = |i| serde_json::to_string(&Value::Int(i)).unwrap();
        let shuffled = format!(r#"{{"z":{},"a":{},"z":{}}}"#, int(1), int(2), int(3));
        let back: FieldMap = serde_json::from_str(&shuffled).unwrap();
        let expect: BTreeMap<String, Value> = serde_json::from_str(&shuffled).unwrap();
        assert_eq!(back.to_map(), expect);
        assert_eq!(back["z"], Value::Int(3));
        for empty in ["{}", "null"] {
            let back: FieldMap = serde_json::from_str(empty).unwrap();
            assert!(back.is_empty(), "{empty}");
        }
        assert!(serde_json::from_str::<FieldMap>("[1]").is_err());
        assert_eq!(serde_json::to_string(&FieldMap::new()).unwrap(), "{}");
    }

    #[test]
    #[should_panic(expected = "no such field")]
    fn field_map_index_panics_on_a_missing_field() {
        let _ = FieldMap::new()["nope"];
    }

    #[test]
    fn serde_roundtrip() {
        let v = Value::map_from([
            ("xs", Value::int_list([1, 2, 3])),
            ("name", Value::from("sp38")),
            ("ratio", Value::Float(0.25)),
            ("none", Value::Null),
        ]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
