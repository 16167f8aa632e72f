//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the API subset it actually uses: `thread::scope`
//! (the `crossbeam-utils` subset used by the deterministic parallel
//! runners), layered over `std::thread::scope`, which has been stable
//! since Rust 1.63.

pub mod thread {
    //! Scoped threads (the `crossbeam-utils::thread` subset).
    //!
    //! Mirrors crossbeam's API shape: `scope(|s| ...)` hands the closure a
    //! [`Scope`] whose `spawn` accepts a closure that itself receives the
    //! scope (so spawned threads can spawn siblings), and the outer call
    //! returns `Err` with the panic payload if any spawned thread panicked.

    use std::any::Any;

    /// A scope for spawning threads that borrow from the enclosing stack
    /// frame. All spawned threads are joined before [`scope`] returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a thread spawned inside a [`Scope`].
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish and returns its result.
        ///
        /// # Errors
        ///
        /// Returns the panic payload if the thread panicked.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope so it can
        /// spawn further siblings, matching crossbeam's signature.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner_scope = self.inner;
            ScopedJoinHandle {
                inner: inner_scope.spawn(move || f(&Scope { inner: inner_scope })),
            }
        }
    }

    /// Creates a scope in which threads borrowing local data can be
    /// spawned; joins every thread spawned through an explicit handle or
    /// left running when the closure returns.
    ///
    /// # Errors
    ///
    /// Returns the panic payload of the first panicking thread (or of the
    /// closure itself), matching crossbeam's contract that `scope` only
    /// errs when something inside it panicked.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[test]
        fn scoped_threads_borrow_stack_data() {
            let data = [1_u64, 2, 3, 4];
            let total = AtomicUsize::new(0);
            scope(|s| {
                for chunk in data.chunks(2) {
                    s.spawn(|_| {
                        let part: u64 = chunk.iter().sum();
                        total.fetch_add(part as usize, Ordering::Relaxed);
                    });
                }
            })
            .unwrap();
            assert_eq!(total.load(Ordering::Relaxed), 10);
        }

        #[test]
        fn join_returns_the_thread_result_in_spawn_order() {
            let out = scope(|s| {
                let handles: Vec<_> = (0..4).map(|i| s.spawn(move |_| i * i)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<i32>>()
            })
            .unwrap();
            assert_eq!(out, vec![0, 1, 4, 9]);
        }

        #[test]
        fn spawned_threads_can_spawn_siblings() {
            let count = AtomicUsize::new(0);
            scope(|s| {
                s.spawn(|s2| {
                    count.fetch_add(1, Ordering::Relaxed);
                    s2.spawn(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                });
            })
            .unwrap();
            assert_eq!(count.load(Ordering::Relaxed), 2);
        }

        #[test]
        fn a_panicking_thread_surfaces_as_scope_err() {
            let result = scope(|s| {
                s.spawn(|_| panic!("boom"));
            });
            assert!(result.is_err());
        }
    }
}
