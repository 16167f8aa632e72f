//! Per-subsystem resource accounting.
//!
//! An [`Account`] is a small set of named relaxed-atomic counters
//! owned by one run of one subsystem (a solve, a shard, a network
//! episode) and snapshotted into a single `account.*` event — every
//! field an integer — at span close. Accounts are per-run objects,
//! never process globals, so the snapshot an account emits depends
//! only on the run that owned it: traces stay bit-identical no matter
//! what else the process is doing.
//!
//! Relaxed ordering is deliberate: counters are statistics, not
//! synchronization. Parallel workers (e.g. the Jacobi reply pass)
//! bump the same account concurrently for the price of an uncontended
//! atomic add; the final totals are exact because every increment
//! lands before the owning scope joins its workers and snapshots.
//!
//! Hot single-threaded paths (the RNG draw funnel, the DES event
//! loop) keep plain `u64` counters instead and report totals through
//! [`Account::add`] (or directly as event fields) at snapshot points;
//! the atomic form is for counters that genuinely cross threads.

use crate::event::{Field, FieldValue};
use crate::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named set of relaxed-atomic counters snapshotting into one
/// `account.*` event. The key set is fixed at construction so the
/// snapshot field order is deterministic.
#[derive(Debug)]
pub struct Account {
    event: &'static str,
    slots: Vec<(&'static str, AtomicU64)>,
}

impl Account {
    /// An account emitting `event` (an `account.*` name) with the
    /// given counter keys, all starting at zero. Keys keep their
    /// construction order in every snapshot.
    pub fn new(event: &'static str, keys: &[&'static str]) -> Self {
        Self {
            event,
            slots: keys.iter().map(|&k| (k, AtomicU64::new(0))).collect(),
        }
    }

    /// The `account.*` event name this account snapshots into.
    pub fn event(&self) -> &'static str {
        self.event
    }

    /// Adds `n` to the counter `key`.
    ///
    /// # Panics
    ///
    /// If `key` was not declared at construction — counter sets are
    /// closed so snapshots are structurally stable.
    pub fn add(&self, key: &str, n: u64) {
        self.slot(key).fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of the counter `key`.
    ///
    /// # Panics
    ///
    /// If `key` was not declared at construction.
    pub fn get(&self, key: &str) -> u64 {
        self.slot(key).load(Ordering::Relaxed)
    }

    fn slot(&self, key: &str) -> &AtomicU64 {
        self.slots
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("account {}: undeclared counter {key:?}", self.event))
    }

    /// Counter values in declaration order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.slots
            .iter()
            .map(|(k, v)| (*k, v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshot rendered as event fields.
    pub fn fields(&self) -> Vec<Field> {
        self.slots
            .iter()
            .map(|(k, v)| (*k, FieldValue::U64(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Folds the snapshot into a metrics registry as counters named
    /// `<event>.<key>` (e.g. `account.net.bytes`), for Prometheus
    /// export.
    pub fn fold_into(&self, registry: &MetricsRegistry) {
        for (key, value) in self.snapshot() {
            registry.inc(&format!("{}.{key}", self.event), value);
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for (_, v) in &self.slots {
            v.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectors::MemoryCollector;
    use crate::event::Collector;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot_in_declaration_order() {
        let acct = Account::new("account.solver", &["best_replies", "water_fills"]);
        acct.add("best_replies", 1);
        acct.add("water_fills", 3);
        acct.add("best_replies", 1);
        assert_eq!(acct.get("best_replies"), 2);
        assert_eq!(
            acct.snapshot(),
            vec![("best_replies", 2), ("water_fills", 3)]
        );
        acct.reset();
        assert_eq!(
            acct.snapshot(),
            vec![("best_replies", 0), ("water_fills", 0)]
        );
    }

    #[test]
    fn concurrent_increments_are_exact_after_join() {
        let acct = Arc::new(Account::new("account.test", &["hits"]));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let acct = acct.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        acct.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(acct.get("hits"), 80_000);
    }

    #[test]
    fn emit_produces_a_schema_valid_account_event() {
        let mem = Arc::new(MemoryCollector::default());
        let acct = Account::new("account.des", &["scheduled", "executed"]);
        acct.add("scheduled", 7);
        acct.add("executed", 7);
        mem.emit(acct.event(), &acct.fields());
        let events = mem.events();
        assert_eq!(events.len(), 1);
        let (name, fields) = &events[0];
        assert_eq!(*name, "account.des");
        assert_eq!(fields[0], ("scheduled", FieldValue::U64(7)));
        assert_eq!(fields[1], ("executed", FieldValue::U64(7)));
    }

    #[test]
    fn fold_into_exports_prometheus_counters() {
        let registry = MetricsRegistry::new();
        let acct = Account::new("account.net", &["sent", "bytes"]);
        acct.add("sent", 4);
        acct.add("bytes", 256);
        acct.fold_into(&registry);
        let text = registry.to_prometheus();
        assert!(text.contains("lb_account_net_sent 4"), "{text}");
        assert!(text.contains("lb_account_net_bytes 256"), "{text}");
    }

    #[test]
    #[should_panic(expected = "undeclared counter")]
    fn undeclared_counters_panic() {
        Account::new("account.x", &["a"]).add("b", 1);
    }
}
