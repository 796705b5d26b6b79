//! Offline shim for `parking_lot`.
//!
//! See `shims/README.md`. Wraps `std::sync` primitives with the
//! `parking_lot` calling convention: `lock()` returns the guard directly
//! and a [`Condvar`] waits on a `&mut` guard. Poisoning is absorbed
//! (`parking_lot` has no poisoning) by recovering the inner guard, which
//! matches `parking_lot`'s behaviour of letting a panicked critical
//! section's partial state remain visible.
//!
//! This is the one crate of the workspace that names the `std::sync`
//! locks; everything else locks and waits through it.
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Instant;

/// A mutex with the `parking_lot` API shape.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// An RAII mutex guard. It owns the `std` guard so that a [`Condvar`] can
/// hand it to the `std` condition variable and take it back through a
/// `&mut` borrow; the slot is empty only inside a wait.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("a guard is held outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("a guard is held outside a wait")
    }
}

/// Whether a timed wait returned because its deadline passed.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True once the deadline has passed; never before it.
    #[must_use]
    pub fn timed_out(self) -> bool {
        self.0
    }
}

/// A condition variable with the `parking_lot` API shape: it waits on a
/// `&mut` [`MutexGuard`], which holds the lock again when the wait returns.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[must_use]
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases the guard's lock, blocks until notified, and locks again.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("a guard is held outside a wait");
        let held = self.inner.wait(held).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
    }

    /// [`Condvar::wait`] that also returns once `deadline` has passed;
    /// the result says whether it has.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let held = guard.inner.take().expect("a guard is held outside a wait");
        let wait = deadline.saturating_duration_since(Instant::now());
        let (held, _) = self
            .inner
            .wait_timeout(held, wait)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
        WaitTimeoutResult(Instant::now() >= deadline)
    }

    /// Wakes one waiter, if any. (`parking_lot` also says whether it
    /// woke one, which `std` cannot tell; nothing here reads it.)
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn a_waiter_wakes_on_notify_one() {
        // (waiting, ready): the waiter sets `waiting` and waits in one
        // critical section, so once `waiting` shows, it is in `wait`.
        let (state, cv) = (Mutex::new((false, false)), Condvar::new());
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut state = state.lock();
                state.0 = true;
                while !state.1 {
                    cv.wait(&mut state);
                }
            });
            while !state.lock().0 {
                thread::yield_now();
            }
            state.lock().1 = true;
            cv.notify_one();
            waiter.join().unwrap();
        });
    }

    #[test]
    fn wait_until_times_out_at_its_deadline_and_not_before() {
        let (m, cv) = (Mutex::new(0u32), Condvar::new());
        let mut guard = m.lock();
        let deadline = Instant::now() + Duration::from_millis(30);
        // Nobody notifies: every wakeup before the deadline is spurious
        // and must say so.
        loop {
            let result = cv.wait_until(&mut guard, deadline);
            let now = Instant::now();
            if result.timed_out() {
                assert!(now >= deadline, "timed out {:?} early", deadline - now);
                break;
            }
            assert!(now < deadline + Duration::from_secs(5), "never timed out");
        }
        *guard += 1;
        assert!(cv.wait_until(&mut guard, Instant::now()).timed_out(), "a past deadline");
        assert_eq!(*guard, 1, "the guard holds the lock again");
    }

    #[test]
    fn a_waiter_and_a_later_lock_work_after_a_holder_panicked() {
        let (m, cv) = (Mutex::new(0u32), Condvar::new());
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = m.lock();
            *guard = 1;
            panic!("a holder panics");
        }));
        assert!(unwound.is_err());
        assert_eq!(*m.lock(), 1, "the panicked section's write stays visible");
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut value = m.lock();
                *value = 2;
                while *value == 2 {
                    cv.wait(&mut value);
                }
                *value += 1;
            });
            while *m.lock() != 2 {
                thread::yield_now();
            }
            *m.lock() = 3;
            cv.notify_all();
            waiter.join().unwrap();
        });
        assert_eq!(*m.lock(), 4);
    }
}
