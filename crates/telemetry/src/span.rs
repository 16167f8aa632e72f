//! Causal spans on top of the flat [`Collector`] event stream.
//!
//! A span is a named interval of work with an identity and an optional
//! parent, in the style of Dapper-family tracers. Opening a span emits
//! a [`SPAN_OPEN`] event and closing it emits a [`SPAN_CLOSE`] event;
//! both ride the existing collector pipeline, so span emission is
//! clock-free at the call site (the collector stamps `seq`/`t_us`) and
//! inherits every collector property — JSONL durability, tee fan-out,
//! `--verbose` mirroring, and the disabled-path cost model.
//!
//! Wire format (schema v2, validated by
//! [`parse_log`](crate::schema::parse_log)):
//!
//! ```text
//! {"seq":4,"t_us":120,"event":"span_open","fields":{"span":1,"name":"solver.solve","users":40}}
//! {"seq":5,"t_us":121,"event":"span_open","fields":{"span":2,"parent":1,"name":"solver.sweep","iter":1}}
//! {"seq":9,"t_us":250,"event":"span_close","fields":{"span":2,"name":"solver.sweep"}}
//! ```
//!
//! Durations are *reconstructed* from the collector-stamped `t_us` of
//! the open/close pair rather than measured at the emit site, which
//! keeps instrumented code free of clocks and therefore incapable of
//! perturbing deterministic replay. When collection is off,
//! [`Span::root`] returns `None` and no span machinery runs at all —
//! the disabled path stays one pointer check, exactly like flat events.
//!
//! Span ids are allocated from a process-wide counter, so they are
//! unique within any log a process writes but are not stable across
//! runs; analysis must treat them as opaque.

use crate::event::{Collector, Field, FieldValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Event name used for span openings.
pub const SPAN_OPEN: &str = "span_open";

/// Event name used for span closings.
pub const SPAN_CLOSE: &str = "span_close";

/// Process-unique identity of one span. Ids start at 1; 0 never
/// denotes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SpanId(pub(crate) u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> SpanId {
    SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
}

/// A live span: emitted `span_open` on creation, emits `span_close`
/// when closed (explicitly via [`Span::close`]/[`Span::close_with`] or
/// implicitly on drop). Not `Clone` — each span closes exactly once.
pub struct Span {
    collector: Arc<dyn Collector>,
    id: SpanId,
    name: &'static str,
    closed: bool,
}

/// A cheap, cloneable reference to an open span, for creating children
/// from code that cannot borrow the owning [`Span`] (e.g. a DES engine
/// parented under the simulation that drives it). Creating a child
/// through a handle after the parent closed is permitted — the schema
/// only requires that the parent was opened earlier in the log.
#[derive(Clone)]
pub struct SpanHandle {
    collector: Arc<dyn Collector>,
    id: SpanId,
}

impl Span {
    /// Opens a top-level span if collection is on, resolving the
    /// optional collector exactly like
    /// [`enabled`](crate::event::enabled). Returns `None` (and does no
    /// work) when the collector is absent or disabled, so instrumented
    /// code pays one pointer check on the collection-off path.
    pub fn root(
        collector: Option<&Arc<dyn Collector>>,
        name: &'static str,
        fields: &[Field],
    ) -> Option<Span> {
        match collector {
            Some(c) if c.enabled() => Some(Self::open(Arc::clone(c), name, None, fields)),
            _ => None,
        }
    }

    /// Opens a child span of `self`.
    pub fn child(&self, name: &'static str, fields: &[Field]) -> Span {
        Self::open(Arc::clone(&self.collector), name, Some(self.id), fields)
    }

    fn open(
        collector: Arc<dyn Collector>,
        name: &'static str,
        parent: Option<SpanId>,
        fields: &[Field],
    ) -> Span {
        let id = next_span_id();
        let mut payload: Vec<Field> = Vec::with_capacity(fields.len() + 3);
        payload.push(("span", FieldValue::U64(id.0)));
        if let Some(p) = parent {
            payload.push(("parent", FieldValue::U64(p.0)));
        }
        payload.push(("name", FieldValue::from(name)));
        payload.extend_from_slice(fields);
        collector.emit(SPAN_OPEN, &payload);
        Span {
            collector,
            id,
            name,
            closed: false,
        }
    }

    /// A cloneable handle for creating children elsewhere.
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            collector: Arc::clone(&self.collector),
            id: self.id,
        }
    }

    /// Closes the span now.
    pub fn close(self) {
        drop(self);
    }

    /// Closes the span now, attaching extra fields to the
    /// `span_close` event (e.g. outcome counters).
    pub fn close_with(mut self, fields: &[Field]) {
        self.emit_close(fields);
    }

    fn emit_close(&mut self, fields: &[Field]) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut payload: Vec<Field> = Vec::with_capacity(fields.len() + 2);
        payload.push(("span", FieldValue::U64(self.id.0)));
        payload.push(("name", FieldValue::from(self.name)));
        payload.extend_from_slice(fields);
        self.collector.emit(SPAN_CLOSE, &payload);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit_close(&[]);
    }
}

impl SpanHandle {
    /// Opens a child span of the referenced span.
    pub fn child(&self, name: &'static str, fields: &[Field]) -> Span {
        Span::open(Arc::clone(&self.collector), name, Some(self.id), fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectors::MemoryCollector;

    fn field_u64(fields: &[Field], key: &str) -> Option<u64> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                FieldValue::U64(n) => *n,
                other => panic!("field {key} is not u64: {other:?}"),
            })
    }

    #[test]
    fn root_is_none_when_collection_is_off() {
        assert!(Span::root(None, "x", &[]).is_none());
        struct Off;
        impl Collector for Off {
            fn enabled(&self) -> bool {
                false
            }
            fn emit(&self, _: &'static str, _: &[Field]) {
                panic!("disabled collector must never receive span events");
            }
        }
        let off: Arc<dyn Collector> = Arc::new(Off);
        assert!(Span::root(Some(&off), "x", &[]).is_none());
    }

    #[test]
    fn open_close_carry_identity_parent_and_extras() {
        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let root = Span::root(Some(&collector), "outer", &[("k", 7u64.into())]).unwrap();
        let child = root.child("inner", &[]);
        let grandchild = child.handle().child("leaf", &[]);
        grandchild.close_with(&[("items", 3u64.into())]);
        child.close();
        root.close();

        let events = mem.events();
        assert_eq!(events.len(), 6);
        let (open_names, close_names): (Vec<_>, Vec<_>) = (
            events.iter().filter(|(n, _)| *n == SPAN_OPEN).collect(),
            events.iter().filter(|(n, _)| *n == SPAN_CLOSE).collect(),
        );
        assert_eq!(open_names.len(), 3);
        assert_eq!(close_names.len(), 3);

        let root_id = field_u64(&events[0].1, "span").unwrap();
        assert!(
            field_u64(&events[0].1, "parent").is_none(),
            "root has no parent"
        );
        assert_eq!(field_u64(&events[0].1, "k"), Some(7));

        let child_id = field_u64(&events[1].1, "span").unwrap();
        assert_eq!(field_u64(&events[1].1, "parent"), Some(root_id));
        let leaf_id = field_u64(&events[2].1, "span").unwrap();
        assert_eq!(field_u64(&events[2].1, "parent"), Some(child_id));

        // Closes arrive leaf-first and reference the right spans.
        assert_eq!(field_u64(&events[3].1, "span"), Some(leaf_id));
        assert_eq!(field_u64(&events[3].1, "items"), Some(3));
        assert_eq!(field_u64(&events[4].1, "span"), Some(child_id));
        assert_eq!(field_u64(&events[5].1, "span"), Some(root_id));
    }

    #[test]
    fn drop_closes_exactly_once() {
        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        {
            let _span = Span::root(Some(&collector), "scoped", &[]).unwrap();
        }
        assert_eq!(mem.count(SPAN_OPEN), 1);
        assert_eq!(mem.count(SPAN_CLOSE), 1);
    }

    #[test]
    fn ids_are_unique_across_spans() {
        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let a = Span::root(Some(&collector), "a", &[]).unwrap();
        let b = Span::root(Some(&collector), "b", &[]).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(a.handle().id, a.id);
    }
}
