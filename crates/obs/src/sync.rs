//! The one way `obs` takes a lock.
//!
//! Each locked structure of this crate ([`crate::Registry`],
//! [`crate::LabelCap`], [`crate::Tsdb`], [`crate::Scraper`],
//! [`crate::AlertEngine`], [`crate::Tracer`]) keeps its state behind one
//! `Mutex`, and no method holds that guard while it calls code that can
//! take another `obs` lock: what a call needs is copied or `Arc`-cloned
//! out under the lock, and the lock is released before the call. So a
//! thread never holds two `obs` locks, and there is no acquisition order
//! to keep.
//!
//! [`lock`] is the only acquisition path. It recovers from poisoning (a
//! panicking holder must not take the monitoring stack down with it). In
//! debug builds its guard also marks the thread as holding an `obs` lock,
//! and a second acquisition on that thread panics with both state types'
//! names, so every debug test run checks the one-lock rule on every path
//! it drives. Release builds return the plain `MutexGuard`.

use std::sync::{Mutex, MutexGuard};

#[cfg(debug_assertions)]
pub(crate) use held::lock;

/// Lock `m`, recovering the state from a poisoned mutex.
#[cfg(not(debug_assertions))]
#[inline]
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(debug_assertions)]
mod held {
    use super::{Mutex, MutexGuard};
    use std::cell::Cell;
    use std::ops::{Deref, DerefMut};

    thread_local! {
        /// Type name of the state behind the `obs` lock this thread holds.
        static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// A `MutexGuard` that clears the thread's held mark on drop.
    pub(crate) struct Guard<'a, T> {
        inner: MutexGuard<'a, T>,
    }

    /// Lock `m`, recovering the state from a poisoned mutex.
    ///
    /// # Panics
    /// Panics when this thread already holds an `obs` lock.
    #[expect(
        clippy::panic,
        reason = "debug-only check of the one-lock rule; release builds compile it out"
    )]
    pub(crate) fn lock<T>(m: &Mutex<T>) -> Guard<'_, T> {
        let name = std::any::type_name::<T>();
        if let Some(outer) = HELD.with(Cell::get) {
            panic!("obs lock on {name} taken while this thread holds the obs lock on {outer}");
        }
        let inner = m.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        HELD.with(|held| held.set(Some(name)));
        Guard { inner }
    }

    impl<T> Deref for Guard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for Guard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for Guard<'_, T> {
        fn drop(&mut self) {
            HELD.with(|held| held.set(None));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_lock_after_another_passes() {
        let registry = Mutex::new(1u8);
        let tsdb = Mutex::new(2u16);
        let first = *lock(&registry);
        let second = *lock(&tsdb);
        let again = *lock(&registry);
        assert_eq!((first, second, again), (1, 2, 1));
    }

    #[test]
    fn a_poisoned_lock_yields_its_state() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "obs lock on u16 taken while this thread holds the obs lock on u8")]
    fn a_second_lock_on_the_same_thread_panics() {
        let registry = Mutex::new(1u8);
        let tsdb = Mutex::new(2u16);
        let _outer = lock(&registry);
        let _inner = lock(&tsdb);
    }
}
