//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small API subset it actually uses. Semantics
//! match `parking_lot` where they matter here: `read`/`write`/`lock`
//! return guards directly (no poisoning — a lock held by a panicked
//! thread is recovered).

use std::sync::{self, LockResult};

/// A reader-writer lock with `parking_lot`'s non-poisoning API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared read guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive write guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

fn ignore_poison<G>(result: LockResult<G>) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        ignore_poison(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        ignore_poison(self.inner.read())
    }

    /// Acquires an exclusive write lock, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        ignore_poison(self.inner.write())
    }
}

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        ignore_poison(self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_reads_and_writes() {
        let lock = RwLock::new(1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
    }

    #[test]
    fn rwlock_recovers_from_a_panicked_writer() {
        let lock = Arc::new(RwLock::new(0_u32));
        let l2 = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("die holding the lock");
        })
        .join();
        // parking_lot semantics: no poisoning; the lock stays usable.
        assert_eq!(*lock.read(), 0);
    }

    #[test]
    fn mutex_locks() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.lock().len(), 3);
    }
}
