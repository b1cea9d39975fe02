//! Property test: a [`FieldMap`] behaves as the `BTreeMap<String, Value>`
//! it replaced in the resident task records — same contents after any
//! insert sequence, same iteration order, same bytes on the wire, and it
//! decodes what a `BTreeMap` decodes whatever the order of the keys.

use bioopera_ocr::value::{FieldMap, Value};
use proptest::prelude::*;
use serde::{Content, Deserialize, Serialize};
use std::collections::BTreeMap;

fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        "[a-z]{0,6}".prop_map(Value::Str),
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
