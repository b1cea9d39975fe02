//! The dynamic value model.
//!
//! Whiteboard fields and task input/output structures hold [`Value`]s.  The
//! model is deliberately JSON-shaped so that instance state serializes
//! directly into the persistent spaces, keeping the paper's promise that
//! "the fact that the process state is persistently stored in a database
//! also offers significant advantages for monitoring and querying purposes".

use serde::json::f64_prints_as;
use serde::{Content, DeError, Deserialize, JsonReader, Serialize};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A dynamic value flowing through a process.  Written as every enum is:
/// a payload variant a one-member object around its fields (`{"Int":[3]}`),
/// `Null` its name as a string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Recognizes, byte by byte, the text `write_json` prints for a non-empty
/// field map — compact, keys ascending, each [`Value`] in its written
/// form — and builds nothing.  Anything else is not recognized, though the
/// reader may well accept it; for what it does recognize, reading the text
/// would succeed and writing what it reads would print the text back,
/// except that a float's digits are compared with what the writer prints
/// only when the text is written ([`floats_as_printed`]).
struct Printed<'t> {
    text: &'t [u8],
    at: usize,
}

impl<'t> Printed<'t> {
    /// The length of the field map at the start of `text`, if this
    /// recognizes it within `depth` more levels of nesting.
    fn field_map(text: &[u8], depth: usize) -> Option<usize> {
        let mut p = Printed { text, at: 0 };
        p.eat(b"{")?;
        p.members(b'}', depth.checked_sub(1)?)?;
        Some(p.at)
    }

    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        self.text[self.at..]
            .starts_with(lit)
            .then(|| self.at += lit.len())
    }

    fn next(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    /// `"key":value` members, keys strictly ascending, at least one, then
    /// `close`.
    fn members(&mut self, close: u8, depth: usize) -> Option<()> {
        let mut last: Option<&[u8]> = None;
        loop {
            let key = self.key()?;
            if last.is_some_and(|last| last >= key) {
                return None;
            }
            last = Some(key);
            self.value(depth)?;
            match self.next()? {
                b',' => self.at += 1,
                b if b == close => {
                    self.at += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// A member's key and the `:` after it.  Spelled without an escape, so
    /// that the text orders keys as the map does.
    fn key(&mut self) -> Option<&'t [u8]> {
        let start = self.at + 1;
        if self.string()? {
            return None;
        }
        let key = &self.text[start..self.at - 1];
        self.eat(b":")?;
        Some(key)
    }

    /// One [`Value`] as `write_json` prints it.
    fn value(&mut self, depth: usize) -> Option<()> {
        if self.eat(b"\"Null\"").is_some() {
            return Some(());
        }
        // Every other variant is a map of one member around a sequence of
        // one item.
        let depth = depth.checked_sub(2)?;
        // The tag by its whole prefix: one comparison each, no string scan.
        let rest = &self.text[self.at..];
        if rest.starts_with(b"{\"Int\":[") {
            self.at += 8;
            self.int()?;
        } else if rest.starts_with(b"{\"Float\":[") {
            self.at += 10;
            if self.eat(b"null").is_none() {
                self.number()?;
            }
        } else if rest.starts_with(b"{\"Str\":[") {
            self.at += 8;
            self.string()?;
        } else if rest.starts_with(b"{\"Bool\":[") {
            self.at += 9;
            self.eat(b"true").or_else(|| self.eat(b"false"))?;
        } else if rest.starts_with(b"{\"List\":[[") {
            self.at += 10;
            let depth = depth.checked_sub(1)?;
            if self.eat(b"]").is_none() {
                loop {
                    self.value(depth)?;
                    match self.next()? {
                        b',' => self.at += 1,
                        b']' => break self.at += 1,
                        _ => return None,
                    }
                }
            }
        } else if rest.starts_with(b"{\"Map\":[{") {
            self.at += 9;
            let depth = depth.checked_sub(1)?;
            if self.eat(b"}").is_none() {
                self.members(b'}', depth)?;
            }
        } else {
            return None;
        }
        self.eat(b"]}")
    }

    /// An integer as the writer prints an `i64`: no `-0`, and at most 18
    /// digits, which every `i64` reader takes as they are.
    fn int(&mut self) -> Option<()> {
        let negative = self.eat(b"-").is_some();
        let first = self.next()?;
        let len = self.natural()?;
        (len <= 18 && !(negative && first == b'0')).then_some(())
    }

    /// A number in plain decimal form — what the writer prints for a
    /// finite float, which never uses an exponent — and one every float
    /// reader takes.
    fn number(&mut self) -> Option<()> {
        self.eat(b"-");
        self.natural()?;
        if self.eat(b".").is_some() {
            let start = self.at;
            self.digits();
            (self.at > start).then_some(())?;
        }
        Some(())
    }

    /// `0`, or digits with no leading zero: how many.
    fn natural(&mut self) -> Option<usize> {
        let start = self.at;
        self.digits();
        match &self.text[start..self.at] {
            [] => None,
            [b'0', _, ..] => None,
            digits => Some(digits.len()),
        }
    }

    fn digits(&mut self) {
        while self.next().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
    }

    /// A string spelled as the writer spells it: escaped where it must be
    /// — a quote, a backslash, a control character — and nowhere else,
    /// each escape in the writer's form.  Returns whether it holds an
    /// escape.
    fn string(&mut self) -> Option<bool> {
        self.eat(b"\"")?;
        let mut escaped = false;
        loop {
            match self.next()? {
                b'"' => {
                    self.at += 1;
                    return Some(escaped);
                }
                b'\\' => {
                    let len = match &self.text[self.at + 1..] {
                        [b'"' | b'\\' | b'n' | b'r' | b't', ..] => 2,
                        // `\u00xx`, lowercase: a control character
                        // other than tab (09), newline (0a) and return (0d).
                        [b'u', b'0', b'0', hi @ (b'0' | b'1'), lo @ (b'0'..=b'9' | b'a'..=b'f'), ..]
                            if !matches!((hi, lo), (b'0', b'9' | b'a' | b'd')) =>
                        {
                            6
                        }
                        _ => return None,
                    };
                    self.at += len;
                    escaped = true;
                }
                b if b < 0x20 => return None,
                _ => self.at += 1,
            }
        }
    }
}

/// Whether every float of a recognized text is spelled as the writer
/// prints it — the one thing [`Printed`] leaves to the write, because a
/// float printed costs as much as a whole record checked.  In such a text
/// `{"Float":[` can only open a float: a quote inside a string is escaped.
fn floats_as_printed(text: &str) -> bool {
    const FLOAT: &str = "{\"Float\":[";
    text.match_indices(FLOAT).all(|(at, _)| {
        let digits = &text[at + FLOAT.len()..];
        let digits = &digits[..digits.find(']').unwrap_or(digits.len())];
        let mut r = JsonReader::new(digits);
        let value = r.read_scalar().and_then(|c| f64::from_content(&c));
        value.is_ok_and(|v| f64_prints_as(v, digits))
    })
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
/// A map read from JSON is held in its **stored form** — the text it was
/// read from, checked but not built — until something reads it: the first
/// [`get`](Self::get), [`iter`](Self::iter), [`len`](Self::len),
/// [`insert`](Self::insert), [`to_map`](Self::to_map), `Index`, `==`,
/// `Debug` or `to_content` builds the entries, once.  A recovery reads
/// every task record of the journal and needs the fields of few of them;
/// the rest are checked, at a fraction of what building them costs, and
/// never built.  Only text the writer prints is kept: one spelled any
/// other way (spaced, keys out of order or repeated, `3.0` for an
/// integer, a needless escape) is built as it is read, by the one
/// decode.  So writing needs no build either: the kept text is written
/// verbatim — unless one of its floats is spelled otherwise than the
/// writer prints it, which is checked then — until an `insert` drops it.
///
/// On the wire it *is* a `BTreeMap<String, Value>`: the same `Content::Map`
/// in key order out, keys in any order (or `null`) in.
#[derive(Clone, Default)]
pub struct FieldMap {
    /// The text the map was read from, exactly as `write_json` prints the
    /// entries; `None` for a map built in memory, and once one is changed.
    text: Option<Box<str>>,
    /// The entries, key-sorted: set when built, from `text` on the first
    /// read (empty when neither is set).
    entries: OnceCell<Box<[(String, Value)]>>,
}

impl FieldMap {
    /// An empty map (no allocation).
    pub fn new() -> Self {
        FieldMap::default()
    }

    fn built(entries: Box<[(String, Value)]>) -> Self {
        FieldMap {
            text: None,
            entries: OnceCell::from(entries),
        }
    }

    /// The entries, built from the stored text on the first call.
    fn entries(&self) -> &[(String, Value)] {
        self.entries.get_or_init(|| match &self.text {
            Some(text) => decode(&mut JsonReader::new(text))
                .expect("a stored field map was checked when it was read"),
            None => Box::default(),
        })
    }

    /// True while the map holds only the text it was read from: nothing
    /// has read it since.
    pub fn is_stored(&self) -> bool {
        self.text.is_some() && self.entries.get().is_none()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True with no fields.  Never builds: an empty map keeps no text.
    pub fn is_empty(&self) -> bool {
        self.text.is_none() && self.entries.get().is_none_or(|e| e.is_empty())
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries()
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// The value of field `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.entries()[i].1)
    }

    /// Set field `key`, returning the value it replaces.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        let at = self.position(&key);
        self.text = None;
        let entries = self.entries.get_mut().expect("built by `position`");
        match at {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
            Err(i) => {
                let mut grown = std::mem::take(entries).into_vec();
                grown.reserve_exact(1);
                grown.insert(i, (key, value));
                *entries = grown.into_boxed_slice();
                None
            }
        }
    }

    /// The fields in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries().iter().map(|(k, v)| (k, v))
    }

    /// A copy in the passed form, for a program or a child instance.
    pub fn to_map(&self) -> BTreeMap<String, Value> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

/// Build the entries of the map at the cursor: the one decode of a field
/// map.
fn decode(r: &mut JsonReader<'_>) -> Result<Box<[(String, Value)]>, DeError> {
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
    Ok(sorted(entries))
}

/// `entries` key-sorted, later entries replacing earlier ones of the same
/// key, as in a `BTreeMap`.
fn sorted(entries: Vec<(String, Value)>) -> Box<[(String, Value)]> {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        entries.into_boxed_slice()
    } else {
        entries
            .into_iter()
            .collect::<BTreeMap<_, _>>()
            .into_iter()
            .collect()
    }
}

/// The derived form's: `FieldMap([("key", value), …])`.
impl fmt::Debug for FieldMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("FieldMap").field(&self.entries()).finish()
    }
}

impl PartialEq for FieldMap {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
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
        FieldMap::built(map.into_iter().collect())
    }
}

/// Later entries replace earlier ones of the same key, as in a `BTreeMap`.
impl FromIterator<(String, Value)> for FieldMap {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        FieldMap::built(sorted(iter.into_iter().collect()))
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
        match &self.text {
            Some(text) if floats_as_printed(text) => out.push_str(text),
            _ => serde::write_map(self.iter(), out),
        }
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

    /// Keeps the map's text if it is what the writer prints (the stored
    /// form); builds the entries now if it is not.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Ok(match r.take_value(Printed::field_map) {
            Some(text) => FieldMap {
                text: Some(text.into()),
                entries: OnceCell::new(),
            },
            None => FieldMap::built(decode(r)?),
        })
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
