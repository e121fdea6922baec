//! The few JSON helpers the vendored `serde_json` leaves to its callers: its
//! `Value` tree has no `Serialize` impl and no numeric accessor.

use serde_json::Value;

struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `value` as compact JSON.
pub fn compact(value: &Value) -> String {
    serde_json::to_string(&Tree(value)).expect("a value tree always serialises")
}

/// `value` as indented JSON with a trailing newline.
pub fn pretty(value: &Value) -> String {
    let mut text =
        serde_json::to_string_pretty(&Tree(value)).expect("a value tree always serialises");
    text.push('\n');
    text
}

/// A number out of a JSON value.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Follow `path` through nested objects.
pub fn field<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| v.get_field(key))
}

/// The number at `path`, if there is one.
pub fn number_at(value: &Value, path: &[&str]) -> Option<f64> {
    field(value, path).and_then(number)
}
