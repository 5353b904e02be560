//! Property tests on the JSON writer: whatever it writes — strings with
//! quotes, backslashes, control and non-BMP characters, finite floats,
//! integers up to 2^53, optional values, nested containers — the parser
//! reads back as the same value, and the human-facing `pretty` layout
//! changes only whitespace.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sgcr_obs::json::{self, Array, Object, Value};

/// A document as the test generates it, before it is written.
#[derive(Debug, Clone)]
enum Doc {
    Bool(bool),
    Uint(u64),
    Int(i64),
    Float(f64),
    Str(String),
    OptUint(Option<u64>),
    OptStr(Option<String>),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

/// One character, biased towards the ones JSON must escape.
fn arbitrary_char(rng: &mut TestRng) -> char {
    let code = match rng.below(6) {
        0 => rng.below(0x20) as u32,
        1 => [u32::from('"'), u32::from('\\'), u32::from('/')][rng.below(3) as usize],
        2 => 0x20 + rng.below(0x5f) as u32,
        3 => 0x80 + rng.below(0xd800 - 0x80) as u32,
        4 => 0xe000 + rng.below(0x2000) as u32,
        _ => 0x1_0000 + rng.below(0x10_0000) as u32,
    };
    char::from_u32(code).unwrap_or('\u{fffd}')
}

fn text() -> BoxedStrategy<String> {
    BoxedStrategy::new(|rng| {
        let len = rng.below(12);
        (0..len).map(|_| arbitrary_char(rng)).collect()
    })
}

fn doc() -> BoxedStrategy<Doc> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Doc::Bool),
        any::<u64>().prop_map(|n| Doc::Uint(n % ((1 << 53) + 1))),
        any::<i64>().prop_map(|n| Doc::Int(n % (1 << 53))),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Doc::Float),
        text().prop_map(Doc::Str),
        option::of(any::<u64>().prop_map(|n| n >> 11)).prop_map(Doc::OptUint),
        option::of(text()).prop_map(Doc::OptStr),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..6).prop_map(Doc::Arr),
            vec((text(), inner), 0..6).prop_map(Doc::Obj),
        ]
    })
}

fn write_item(a: &mut Array<'_>, doc: &Doc) {
    match doc {
        Doc::Bool(b) => a.item(b),
        Doc::Uint(n) => a.item(n),
        Doc::Int(n) => a.item(n),
        Doc::Float(f) => a.item(f),
        Doc::Str(s) => a.item(s),
        Doc::OptUint(n) => a.item(n),
        Doc::OptStr(s) => a.item(s),
        Doc::Arr(items) => a.array(|a| items.iter().for_each(|d| write_item(a, d))),
        Doc::Obj(members) => a.object(|o| write_members(o, members)),
    };
}

fn write_members(o: &mut Object<'_>, members: &[(String, Doc)]) {
    for (key, doc) in members {
        match doc {
            Doc::Bool(b) => o.field(key, b),
            Doc::Uint(n) => o.field(key, n),
            Doc::Int(n) => o.field(key, n),
            Doc::Float(f) => o.field(key, f),
            Doc::Str(s) => o.field(key, s),
            Doc::OptUint(n) => o.field(key, n),
            Doc::OptStr(s) => o.field(key, s),
            Doc::Arr(items) => o.array(key, |a| items.iter().for_each(|d| write_item(a, d))),
            Doc::Obj(members) => o.object(key, |o| write_members(o, members)),
        };
    }
}

/// The value the parser must produce for `doc`.
fn expected(doc: &Doc) -> Value {
    match doc {
        Doc::Bool(b) => Value::Bool(*b),
        Doc::Uint(n) | Doc::OptUint(Some(n)) => Value::Number(*n as f64),
        Doc::Int(n) => Value::Number(*n as f64),
        Doc::Float(f) => Value::Number(*f),
        Doc::Str(s) | Doc::OptStr(Some(s)) => Value::String(s.clone()),
        Doc::OptUint(None) | Doc::OptStr(None) => Value::Null,
        Doc::Arr(items) => Value::Array(items.iter().map(expected).collect()),
        Doc::Obj(members) => Value::Object(
            members
                .iter()
                .map(|(k, d)| (k.clone(), expected(d)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_output_parses_back_to_the_same_value(docs in vec(doc(), 0..4), key in text()) {
        // Written both as array elements and as object members.
        let mut out = String::new();
        json::array(&mut out, |a| {
            docs.iter().for_each(|d| write_item(a, d));
            a.object(|o| write_members(o, &[(key.clone(), Doc::Arr(docs.clone()))]));
        });
        let mut want: Vec<Value> = docs.iter().map(expected).collect();
        want.push(Value::Object(vec![(key.clone(), Value::Array(want.clone()))]));
        let parsed = json::parse(&out);
        prop_assert_eq!(parsed.as_ref(), Ok(&Value::Array(want)), "{}", out);

        let pretty = json::pretty(&out);
        prop_assert_eq!(json::parse(&pretty), parsed, "{}", pretty);
        prop_assert!(pretty.ends_with('\n'));
        prop_assert_eq!(json::pretty(&pretty), pretty.clone());
    }

    #[test]
    fn single_strings_and_numbers_round_trip(s in text(), f in any::<f64>()) {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field(&s, &s).field("f", f);
        });
        let v = json::parse(&out).unwrap();
        prop_assert_eq!(v.get(&s).and_then(Value::as_str), Some(s.as_str()));
        let back = v.get("f").unwrap();
        if f.is_finite() {
            prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(f.to_bits()));
        } else {
            // Non-finite floats are written as strings: JSON has no NaN.
            prop_assert!(back.as_str().is_some());
        }
    }
}
