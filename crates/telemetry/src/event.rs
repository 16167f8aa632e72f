//! The [`Collector`] trait and the typed event payloads it receives.

use std::borrow::Cow;
use std::sync::Arc;

/// A single typed key/value pair attached to an event. Keys are static
/// so emit sites never allocate for them.
pub type Field = (&'static str, FieldValue);

/// The value side of a [`Field`]. Numeric variants are kept distinct so
/// the JSONL encoding round-trips types exactly (a `U64` never comes
/// back as a float).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter-like values (iterations, rounds, indices).
    U64(u64),
    /// Signed values (deltas that may be negative).
    I64(i64),
    /// Measurements (norms, rates, timings in fractional units).
    F64(f64),
    /// Flags (converged, degraded).
    Bool(bool),
    /// Labels (scheme names, event kinds). `Cow` keeps static label
    /// emission allocation-free.
    Str(Cow<'static, str>),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// An event/span sink. Instrumented code holds an
/// `Option<Arc<dyn Collector>>` (default `None`) and guards every emit
/// site with [`enabled`], so a disabled collector costs one pointer
/// check and an enabled-but-null one costs a virtual call.
///
/// Implementations stamp their own timestamps and sequence numbers;
/// emit sites stay clock-free so instrumentation cannot perturb
/// deterministic replay.
pub trait Collector: Send + Sync {
    /// Whether events should be assembled at all. Call sites that build
    /// non-trivial payloads (e.g. water-fill prefix statistics) check
    /// this first and skip the work when it returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one named event with its typed fields.
    fn emit(&self, name: &'static str, fields: &[Field]);

    /// Flushes any buffered output (a no-op for most collectors).
    fn flush(&self) {}
}

/// Resolves an optional collector handle to an active `&dyn Collector`,
/// or `None` when collection is off. This is the single disabled-path
/// check every instrumented hot loop performs.
#[inline]
pub fn enabled(collector: Option<&Arc<dyn Collector>>) -> Option<&dyn Collector> {
    match collector {
        Some(c) if c.enabled() => Some(&**c),
        _ => None,
    }
}

/// A collector that accepts events and discards them. Used to measure
/// the cost of the emit path itself (event assembly + virtual call)
/// separately from serialization.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn emit(&self, _name: &'static str, _fields: &[Field]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_resolves_none_and_disabled_to_none() {
        assert!(enabled(None).is_none());
        let on: Arc<dyn Collector> = Arc::new(NullCollector);
        assert!(enabled(Some(&on)).is_some());

        struct Off;
        impl Collector for Off {
            fn enabled(&self) -> bool {
                false
            }
            fn emit(&self, _: &'static str, _: &[Field]) {
                panic!("disabled collector must never receive events");
            }
        }
        let off: Arc<dyn Collector> = Arc::new(Off);
        assert!(enabled(Some(&off)).is_none());
    }
}
