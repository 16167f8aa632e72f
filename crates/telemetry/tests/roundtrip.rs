//! Property test: every event the collectors can emit round-trips
//! through the schema parser — names, field order, and values (with the
//! documented non-finite-float encoding) all survive.

use lb_telemetry::schema::{encode_event_line, header_line, parse_log};
use lb_telemetry::{FieldValue, Json};
use proptest::prelude::*;

/// Leak a generated key so it satisfies the `&'static str` field-key
/// contract. Bounded by the proptest case count, so acceptable in a
/// test process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Whether a parsed field value is the faithful decoding of an emitted
/// [`FieldValue`] under the schema.
fn field_round_trips(original: &FieldValue, parsed: &Json) -> bool {
    match (original, parsed) {
        (FieldValue::U64(a), p) => p.as_u64() == Some(*a),
        (FieldValue::I64(a), Json::Int(b)) => a == b,
        (FieldValue::I64(a), Json::UInt(b)) => i64::try_from(*b) == Ok(*a),
        (FieldValue::Bool(a), Json::Bool(b)) => a == b,
        (FieldValue::Str(a), Json::Str(b)) => a.as_ref() == b,
        (FieldValue::F64(a), Json::Float(b)) => a.to_bits() == b.to_bits(),
        (FieldValue::F64(a), Json::Str(b)) => {
            (a.is_nan() && b == "NaN")
                || (*a == f64::INFINITY && b == "inf")
                || (*a == f64::NEG_INFINITY && b == "-inf")
        }
        _ => false,
    }
}

/// Arbitrary `f64` by bit pattern: hits NaNs, infinities, subnormals,
/// and negative zero as well as ordinary values.
fn any_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

/// Strings over a punctuation-heavy alphabet that exercises every
/// escape class the encoder knows (quotes, backslashes, controls,
/// multi-byte UTF-8).
fn any_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '猫', '😀',
        '\u{2028}',
    ];
    prop::collection::vec(0usize..ALPHABET.len(), 0..16)
        .prop_map(|idx| idx.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Identifier-style names (event names, field keys).
fn any_name() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &['a', 'b', 'z', 'A', 'Z', '0', '9', '_', '.'];
    (
        prop::collection::vec(0usize..ALPHABET.len(), 0..12),
        0usize..5,
    )
        .prop_map(|(idx, first)| {
            let mut s = String::new();
            s.push(['a', 'e', 'r', 's', 'x'][first]);
            s.extend(idx.into_iter().map(|i| ALPHABET[i]));
            s
        })
}

fn any_field_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(FieldValue::U64),
        (0u64..u64::MAX).prop_map(|b| FieldValue::I64(b as i64)),
        any_f64().prop_map(FieldValue::F64),
        (0u32..2).prop_map(|b| FieldValue::Bool(b == 1)),
        any_string().prop_map(FieldValue::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn emitted_events_round_trip_through_the_parser(
        events in prop::collection::vec(
            (
                any_name(),
                prop::collection::vec((any_name(), any_field_value()), 0..6),
            ),
            1..5,
        ),
    ) {
        // Encode the generated events into a complete log.
        let mut text = header_line();
        text.push('\n');
        let mut expected: Vec<(&'static str, Vec<(&'static str, FieldValue)>)> = Vec::new();
        for (i, (name, fields)) in events.into_iter().enumerate() {
            let fields: Vec<(&'static str, FieldValue)> = fields
                .into_iter()
                .map(|(k, v)| (leak(k), v))
                .collect();
            let name = leak(name);
            text.push_str(&encode_event_line(i as u64, (i as u64) * 3, name, &fields));
            text.push('\n');
            expected.push((name, fields));
        }

        let log = parse_log(&text).unwrap();
        prop_assert_eq!(log.events.len(), expected.len());
        for (event, (name, fields)) in log.events.iter().zip(&expected) {
            prop_assert_eq!(&event.name, name);
            prop_assert_eq!(event.fields.len(), fields.len());
            for ((parsed_key, parsed), (key, original)) in event.fields.iter().zip(fields) {
                prop_assert_eq!(parsed_key, key);
                prop_assert!(
                    field_round_trips(original, parsed),
                    "{:?} decoded as {:?}",
                    original,
                    parsed
                );
            }
        }
    }

    #[test]
    fn parser_accepts_any_float_value(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        let mut text = header_line();
        text.push('\n');
        text.push_str(&encode_event_line(0, 0, "e", &[("v", FieldValue::F64(v))]));
        let log = parse_log(&text).unwrap();
        let parsed = log.events[0].field("v").unwrap();
        prop_assert!(field_round_trips(&FieldValue::F64(v), parsed));
    }
}

#[test]
fn duplicate_keys_are_preserved_in_order() {
    // The schema keeps fields as an ordered list, so duplicate keys are
    // representable; `field()` returns the first.
    let mut text = header_line();
    text.push('\n');
    text.push_str(&encode_event_line(
        0,
        0,
        "e",
        &[("k", FieldValue::U64(1)), ("k", FieldValue::U64(2))],
    ));
    let log = parse_log(&text).unwrap();
    assert_eq!(log.events[0].fields.len(), 2);
    assert_eq!(log.events[0].field("k"), Some(&Json::UInt(1)));
}

#[test]
fn field_round_trips_covers_non_finite_floats() {
    assert!(field_round_trips(
        &FieldValue::F64(f64::NAN),
        &Json::Str("NaN".into())
    ));
    assert!(field_round_trips(
        &FieldValue::F64(f64::INFINITY),
        &Json::Str("inf".into())
    ));
    assert!(!field_round_trips(
        &FieldValue::F64(1.0),
        &Json::Str("inf".into())
    ));
}
