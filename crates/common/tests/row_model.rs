//! Model test for [`Row`]: on every operation it must be indistinguishable
//! from the `Vec<Value>` it replaced. Lengths run 0–9, so every case is
//! either inline (up to four values) or spilled to the heap, and building by
//! `push` crosses the 4 → 5 spill whenever the model is longer than four.

use std::hash::{BuildHasher, Hash, RandomState};

use pgssi_common::{row, Row, Value};
use proptest::prelude::*;

/// Small domains, so equal prefixes and equal rows are common.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-2i64..3).prop_map(Value::Int),
        (0u8..3).prop_map(|c| Value::text(format!("t{c}"))),
    ]
}

fn values() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value(), 0..10)
}

fn hash_of<T: Hash + ?Sized>(state: &RandomState, v: &T) -> u64 {
    state.hash_one(v)
}

/// Every observation the model can make of `row`.
fn assert_models(row: &Row, model: &[Value], state: &RandomState) {
    assert_eq!(&**row, model);
    assert_eq!(row.len(), model.len());
    assert_eq!(format!("{row:?}"), format!("{model:?}"));
    assert_eq!(hash_of(state, row), hash_of(state, &model.to_vec()));
    assert!(row.iter().eq(model.iter()));
    assert!(row.into_iter().eq(model.iter()));
    assert_eq!(row.clone().into_iter().collect::<Vec<_>>(), model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn row_builds_like_a_vec(model in values()) {
        let state = RandomState::new();
        let mut pushed = Row::new();
        for (i, v) in model.iter().enumerate() {
            assert_models(&pushed, &model[..i], &state);
            pushed.push(v.clone());
        }
        assert_models(&pushed, &model, &state);

        let collected: Row = model.iter().cloned().collect();
        let converted = Row::from(model.clone());
        let mut sized = Row::with_capacity(model.len());
        for v in &model {
            sized.push(v.clone());
        }
        for r in [&collected, &converted, &sized] {
            assert_models(r, &model, &state);
            assert_eq!(r, &pushed);
        }
    }

    #[test]
    fn row_compares_like_a_vec(a in values(), b in values()) {
        let state = RandomState::new();
        let (ra, rb): (Row, Row) = (a.clone().into(), b.clone().into());
        assert_eq!(ra == rb, a == b);
        assert_eq!(ra.cmp(&rb), a.cmp(&b));
        assert_eq!(ra.partial_cmp(&rb), a.partial_cmp(&b));
        if ra == rb {
            assert_eq!(hash_of(&state, &ra), hash_of(&state, &rb));
        }
    }

    #[test]
    fn row_mutates_like_a_vec(
        model in values(),
        at in 0usize..10,
        v in value(),
        tail in values(),
    ) {
        let state = RandomState::new();
        let original = model.clone();
        let mut model = model;
        let mut row: Row = model.clone().into();
        let before = row.clone();
        if !model.is_empty() {
            let i = at % model.len();
            row[i] = v.clone();
            model[i] = v;
        }
        for x in row.iter_mut() {
            if let Value::Int(i) = x {
                *i += 1;
            }
        }
        for x in model.iter_mut() {
            if let Value::Int(i) = x {
                *i += 1;
            }
        }
        row.sort();
        model.sort();
        assert_models(&row, &model, &state);
        for v in tail {
            row.push(v.clone());
            model.push(v);
            assert_models(&row, &model, &state);
        }
        // The clone taken first is untouched by all of it.
        assert_models(&before, &original, &state);
    }
}

#[test]
fn row_macro_matches_vec_literal() {
    let state = RandomState::new();
    let model = vec![
        Value::Int(1),
        Value::text("a"),
        Value::Null,
        Value::Bool(true),
        Value::Int(-5),
    ];
    assert_models(&row![1, "a", Value::Null, true, -5], &model, &state);
    assert_models(&row![1, "a", Value::Null, true], &model[..4], &state);
    assert_models(&row![], &[], &state);
}
