//! Property test: a [`FieldMap`] behaves as the `BTreeMap<String, Value>`
//! it replaced in the resident task records — same contents after any
//! insert sequence, same iteration order, same bytes on the wire, and it
//! decodes what a `BTreeMap` decodes whatever the order of the keys.  And
//! a map read from JSON, held as its text until something reads it, is
//! the map built in memory on every method, on `Clone`, `==` and `Debug`,
//! and on the bytes it writes, read or not.

use bioopera_ocr::value::{FieldMap, Value};
use proptest::prelude::*;
use serde::json::f64_prints_as;
use serde::{Content, Deserialize, JsonReader, Serialize};
use std::collections::BTreeMap;

/// A float of each class the records carry: ±0, subnormals, whole
/// numbers below and above 2^53, and `f32`-wide scores, whose shortest
/// text has up to 17 digits.
fn float() -> impl Strategy<Value = f64> {
    let magnitude = prop_oneof![
        Just(0.0),
        (1..1u64 << 52).prop_map(f64::from_bits),
        (0..1u64 << 53).prop_map(|i| i as f64),
        (1u64 << 53..u64::MAX).prop_map(|i| i as f64),
        any::<f32>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(f64::from),
    ];
    (magnitude, any::<bool>()).prop_map(|(m, negative)| if negative { -m } else { m })
}

fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        "[a-z]{0,6}".prop_map(Value::Str),
        // Whole, fractional, each class of [`float`], and the edges the
        // writer spells its own way.
        (-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 8.0)),
        float().prop_map(Value::Float),
        prop::sample::select(vec![-0.0, 1e300, 5e-324, i64::MAX as f64]).prop_map(Value::Float),
        prop::sample::select(vec!["tab\t", "\"q\"", "\u{1}", "é✓"]).prop_map(Value::from),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::List),
            prop::collection::btree_map("[a-c]{1,2}", inner, 0..3).prop_map(Value::Map),
        ]
    })
}

/// Few distinct keys, so sequences replace as often as they add.
fn inserts() -> impl Strategy<Value = Vec<(String, Value)>> {
    prop::collection::vec(("[a-e]{1,2}", value()), 0..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inserts_agree_with_a_btree_map(ops in inserts()) {
        let mut fields = FieldMap::new();
        let mut model = BTreeMap::new();
        for (k, v) in &ops {
            prop_assert_eq!(
                fields.insert(k.clone(), v.clone()),
                model.insert(k.clone(), v.clone())
            );
            prop_assert_eq!(fields.len(), model.len());
        }
        prop_assert_eq!(fields.is_empty(), model.is_empty());
        prop_assert!(fields.iter().eq(model.iter()));
        for (k, _) in &ops {
            prop_assert_eq!(fields.get(k), model.get(k));
            prop_assert_eq!(&fields[k.as_str()], &model[k]);
        }
        prop_assert_eq!(fields.get("zz"), None);
        prop_assert_eq!(fields.to_map(), model.clone());
        // Collected, and converted, it is the same map.
        prop_assert_eq!(&ops.iter().cloned().collect::<FieldMap>(), &fields);
        prop_assert_eq!(&FieldMap::from(model), &fields);
    }

    #[test]
    fn wire_form_is_the_btree_maps(ops in inserts()) {
        let model: BTreeMap<String, Value> = ops.iter().cloned().collect();
        let fields: FieldMap = ops.iter().cloned().collect();
        prop_assert_eq!(fields.to_content(), model.to_content());
        let bytes = serde_json::to_vec(&fields).unwrap();
        prop_assert_eq!(&bytes, &serde_json::to_vec(&model).unwrap());
        prop_assert_eq!(&serde_json::from_slice::<FieldMap>(&bytes).unwrap(), &fields);
        // Keys in arrival order, repeats included: both decoders let the
        // last entry of a key win.
        let raw = Content::Map(ops.iter().map(|(k, v)| (k.clone(), v.to_content())).collect());
        let decoded = FieldMap::from_content(&raw).unwrap();
        prop_assert_eq!(decoded.to_map(), BTreeMap::from_content(&raw).unwrap());
        prop_assert_eq!(&decoded, &fields);
    }
}

/// A map read from its own text: held as that text.
fn read(text: &str) -> FieldMap {
    serde_json::from_str(text).unwrap()
}

/// What the text reads as built at once, through the tree.
fn eager(text: &str) -> FieldMap {
    FieldMap::from_content(&JsonReader::new(text).read_content().unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_map_read_from_json_is_the_map_built(ops in inserts(), probe in "[a-e]{1,2}") {
        let text = serde_json::to_string(&ops.iter().cloned().collect::<FieldMap>()).unwrap();
        // What the writer printed reads back as it reads eagerly.
        let built = eager(&text);
        let bytes = serde_json::to_string(&built).unwrap();
        prop_assert_eq!(read(&text).is_stored(), !built.is_empty());
        // Written before anything reads it, and after: the same bytes.
        let stored = read(&text);
        prop_assert_eq!(&serde_json::to_string(&stored).unwrap(), &bytes);
        prop_assert_eq!(stored.is_empty(), built.is_empty());
        let copy = stored.clone();
        prop_assert_eq!(copy.is_stored(), stored.is_stored());
        prop_assert_eq!(format!("{copy:?}"), format!("{built:?}"));
        prop_assert!(!copy.is_stored());
        prop_assert_eq!(&serde_json::to_string(&copy).unwrap(), &bytes);
        // Each method as the first read of a fresh copy.
        prop_assert_eq!(read(&text).len(), built.len());
        prop_assert_eq!(read(&text).get(&probe).cloned(), built.get(&probe).cloned());
        prop_assert!(read(&text).iter().eq(built.iter()));
        prop_assert_eq!(read(&text).to_map(), built.to_map());
        prop_assert_eq!(read(&text).to_content(), built.to_content());
        for (key, value) in built.iter() {
            prop_assert_eq!(&read(&text)[key.as_str()], value);
        }
        // `==` either way round (a NaN is unequal to itself in both).
        let same = built.iter().all(|(_, v)| v == v);
        prop_assert_eq!(read(&text) == built, same);
        prop_assert_eq!(built == read(&text), same);
        // A change drops the text: both write the changed map.
        let (mut a, mut b) = (read(&text), built.clone());
        prop_assert_eq!(
            a.insert(probe.clone(), Value::Int(7)),
            b.insert(probe.clone(), Value::Int(7))
        );
        prop_assert!(!a.is_stored());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every float class reads back bit for bit — alone, as a `Value`,
    /// and in a field map read back as its text or built — and the writer
    /// says it prints exactly what it printed.  A NaN, spelled `null`, is
    /// the one float that does not.
    #[test]
    fn floats_read_back_bit_for_bit(x in float()) {
        let text = serde_json::to_string(&x).unwrap();
        prop_assert_eq!(serde_json::from_str::<f64>(&text).unwrap().to_bits(), x.to_bits());
        prop_assert!(f64_prints_as(x, &text), "{} printed {}", x, text);
        let map: FieldMap = [("a".to_string(), Value::Float(x))].into_iter().collect();
        let text = serde_json::to_string(&map).unwrap();
        for back in [read(&text), eager(&text)] {
            match back.get("a") {
                Some(Value::Float(y)) => prop_assert_eq!(y.to_bits(), x.to_bits(), "{}", text),
                other => prop_assert!(false, "{} read back as {:?}", text, other),
            }
        }
        prop_assert!(read(&text).is_stored());
        prop_assert_eq!(serde_json::to_string(&read(&text)).unwrap(), text);
    }
}

/// Text the writer would spell otherwise is built as it is read, and
/// written as the writer spells it; a float spelled otherwise is caught
/// when the map is written.
#[test]
fn only_the_writers_spelling_is_kept() {
    for (text, kept, written) in [
        (r#"{"a":{"Int":[1]}}"#, true, r#"{"a":{"Int":[1]}}"#),
        (
            r#"{"a":{"Int":[1]},"b":"Null"}"#,
            true,
            r#"{"a":{"Int":[1]},"b":"Null"}"#,
        ),
        (
            r#"{"b":"Null","a":{"Int":[1]}}"#,
            false,
            r#"{"a":{"Int":[1]},"b":"Null"}"#,
        ),
        (
            r#"{"a":"Null","a":{"Int":[2]}}"#,
            false,
            r#"{"a":{"Int":[2]}}"#,
        ),
        (r#"{ "a":{"Int":[1]}}"#, false, r#"{"a":{"Int":[1]}}"#),
        (r#"{"a":{"Int":[1.0]}}"#, false, r#"{"a":{"Int":[1]}}"#),
        (r#"{"a":{"Int":[01]}}"#, false, r#"{"a":{"Int":[1]}}"#),
        (r#"{"a":{"Int":[-0]}}"#, false, r#"{"a":{"Int":[0]}}"#),
        (r#"{"a":{"Int":[1,2]}}"#, false, r#"{"a":{"Int":[1]}}"#),
        (r#"{"a":{"Str":["\/"]}}"#, false, r#"{"a":{"Str":["/"]}}"#),
        (
            r#"{"a":{"Str":["\u000A"]}}"#,
            false,
            r#"{"a":{"Str":["\n"]}}"#,
        ),
        (
            r#"{"a":{"Str":["\u0001\n"]}}"#,
            true,
            r#"{"a":{"Str":["\u0001\n"]}}"#,
        ),
        (
            r#"{"a":{"Str":["\u0001\n"]},"\n":"Null"}"#,
            false,
            r#"{"\n":"Null","a":{"Str":["\u0001\n"]}}"#,
        ),
        (r#"{"a":{"List":[null]}}"#, false, r#"{"a":{"List":[[]]}}"#),
        (r#"{"a":{"Map":[null]}}"#, false, r#"{"a":{"Map":[{}]}}"#),
        (
            r#"{"a":{"Float":[1e3]}}"#,
            false,
            r#"{"a":{"Float":[1000]}}"#,
        ),
        (r#"{"a":{"Float":[2.5]}}"#, true, r#"{"a":{"Float":[2.5]}}"#),
        (
            r#"{"a":{"Float":[null]}}"#,
            true,
            r#"{"a":{"Float":[null]}}"#,
        ),
        // Kept, but not the writer's digits: written as the writer spells it.
        (
            r#"{"a":{"Float":[2.50]}}"#,
            true,
            r#"{"a":{"Float":[2.5]}}"#,
        ),
        (r#"{"a":{"Float":[3.0]}}"#, true, r#"{"a":{"Float":[3]}}"#),
        // `-0` is the integer 0; negative zero is spelled as a float.
        (r#"{"a":{"Float":[-0]}}"#, true, r#"{"a":{"Float":[0]}}"#),
        (
            r#"{"a":{"Float":[-0.0]}}"#,
            true,
            r#"{"a":{"Float":[-0.0]}}"#,
        ),
        (
            r#"{"a":{"Float":[0.30000000000000001]}}"#,
            true,
            r#"{"a":{"Float":[0.3]}}"#,
        ),
    ] {
        let map = read(text);
        assert_eq!(map.is_stored(), kept, "{text}");
        assert_eq!(serde_json::to_string(&map).unwrap(), written, "{text}");
        // Written verbatim, unbuilt, unless it had to be spelled anew.
        assert_eq!(
            map.is_stored(),
            kept && written == text,
            "{text}: after the write"
        );
        assert_eq!(format!("{map:?}"), format!("{:?}", eager(text)), "{text}");
    }
    // Empty maps keep nothing and allocate nothing.
    for empty in ["{}", "null", " {} "] {
        assert!(
            !read(empty).is_stored() && read(empty).is_empty(),
            "{empty}"
        );
    }
}

#[test]
fn null_decodes_as_empty_like_a_btree_map() {
    assert_eq!(
        FieldMap::from_content(&Content::Null).unwrap(),
        FieldMap::new()
    );
    assert!(BTreeMap::<String, Value>::from_content(&Content::Null)
        .unwrap()
        .is_empty());
    assert!(FieldMap::from_content(&Content::Seq(Vec::new())).is_err());
}
