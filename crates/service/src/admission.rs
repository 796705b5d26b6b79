//! Admission control: what a session must hold before it runs — a slot
//! (the service's bound on sessions running at once) and a memory grant.
//!
//! Each session's [`dqep_executor::ResourceGovernor`] enforces its *own*
//! grant; the [`MemoryPool`] bounds the **sum** of grants across
//! concurrent sessions, so the service never promises more memory than it
//! has, and the [`SlotPool`] bounds their number. A session that cannot be
//! admitted immediately queues on a condition variable until capacity
//! frees up or its deadline passes; one deadline covers both waits.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::error::ServiceError;

#[derive(Debug, Default)]
struct PoolState {
    used: u64,
}

// A poisoned mutex only means another session panicked while holding the
// lock; both pools' states are always consistent (updated in single
// statements), so recover the guard instead of propagating.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix64 — deterministic, dependency-free mixing for the retry
/// jitter (this build carries no rand crate).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fixed-capacity memory grant pool. Cheap to share via `Arc`; grants
/// release automatically on drop.
#[derive(Debug)]
pub struct MemoryPool {
    state: Mutex<PoolState>,
    freed: Condvar,
    capacity: u64,
}

impl MemoryPool {
    /// A pool of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Arc<MemoryPool> {
        Arc::new(MemoryPool {
            state: Mutex::new(PoolState::default()),
            freed: Condvar::new(),
            capacity,
        })
    }

    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently granted.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.lock().used
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        lock(&self.state)
    }

    /// Blocks until `bytes` can be granted or `deadline` passes.
    ///
    /// # Errors
    /// [`ServiceError::GrantTooLarge`] if `bytes` exceeds capacity (would
    /// never be admitted); [`ServiceError::AdmissionTimeout`] if the
    /// deadline passes first.
    pub fn acquire(
        self: &Arc<Self>,
        bytes: u64,
        deadline: Instant,
    ) -> Result<MemoryGrant, ServiceError> {
        if bytes > self.capacity {
            return Err(ServiceError::GrantTooLarge {
                requested: bytes,
                capacity: self.capacity,
            });
        }
        let started = Instant::now();
        let mut state = self.lock();
        loop {
            if state.used + bytes <= self.capacity {
                state.used += bytes;
                return Ok(MemoryGrant {
                    pool: Arc::clone(self),
                    bytes,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServiceError::AdmissionTimeout {
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            }
            let wait = deadline.saturating_duration_since(now).min(Duration::from_millis(50));
            state = match self.freed.wait_timeout(state, wait) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// [`MemoryPool::acquire`] with one bounded retry for *transient*
    /// refusal: an admission timeout means capacity was merely busy, so
    /// the pool backs off for a short deterministically-jittered slice of
    /// `extension` (de-synchronizing sessions that timed out together)
    /// and waits once more, up to `extension` past now. Returns the grant
    /// together with whether the retry rung was used. A zero `extension`
    /// disables the retry.
    ///
    /// # Errors
    /// [`ServiceError::GrantTooLarge`] fails fast — no amount of waiting
    /// admits an oversized grant; [`ServiceError::AdmissionTimeout`] if
    /// the retry times out as well.
    pub fn acquire_retry(
        self: &Arc<Self>,
        bytes: u64,
        deadline: Instant,
        extension: Duration,
    ) -> Result<(MemoryGrant, bool), ServiceError> {
        match self.acquire(bytes, deadline) {
            Ok(grant) => Ok((grant, false)),
            Err(ServiceError::AdmissionTimeout { waited_ms }) if !extension.is_zero() => {
                // Jitter in [0, extension/4): seeded by the request shape,
                // so identical workloads reproduce bit-identical schedules.
                let span = (extension.as_micros() / 4).max(1) as u64;
                let jitter = Duration::from_micros(splitmix64(bytes ^ waited_ms) % span);
                std::thread::sleep(jitter);
                self.acquire(bytes, Instant::now() + extension)
                    .map(|grant| (grant, true))
            }
            Err(e) => Err(e),
        }
    }
}

/// A live memory grant; returns its bytes to the pool on drop.
#[derive(Debug)]
pub struct MemoryGrant {
    pool: Arc<MemoryPool>,
    bytes: u64,
}

impl MemoryGrant {
    /// Granted bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemoryGrant {
    fn drop(&mut self) {
        let mut state = self.pool.lock();
        state.used = state.used.saturating_sub(self.bytes);
        drop(state);
        self.pool.freed.notify_all();
    }
}

/// Which slots of a [`SlotPool`] are free, and who is waiting for one.
#[derive(Debug)]
struct Slots {
    /// Free slot indices, the next to draw last. A returned slot goes on
    /// top, so slots whose item exists always sit above those never
    /// drawn: a pool that never sees two holders at once fills one slot,
    /// and the slot drawn is the one last used.
    free: Vec<usize>,
    /// Slots checked out.
    busy: usize,
    /// Sessions blocked in [`SlotPool::checkout`].
    waiting: usize,
}

/// A fixed number of slots, each holding an item that the first session
/// to draw the slot creates — on its own thread, so the pool starts
/// empty and concurrent first sessions create their items in parallel.
/// A session holds a slot, and with it the item, exclusively for its
/// duration; the wait for a free slot is the service's queue.
#[derive(Debug)]
pub(crate) struct SlotPool<T> {
    items: Vec<OnceLock<T>>,
    slots: Mutex<Slots>,
    returned: Condvar,
}

impl<T> SlotPool<T> {
    /// A pool of `capacity` empty slots.
    pub(crate) fn new(capacity: usize) -> SlotPool<T> {
        SlotPool {
            items: (0..capacity).map(|_| OnceLock::new()).collect(),
            slots: Mutex::new(Slots {
                free: (0..capacity).rev().collect(),
                busy: 0,
                waiting: 0,
            }),
            returned: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        lock(&self.slots)
    }

    /// The number of slots the pool was made with.
    pub(crate) fn capacity(&self) -> usize {
        self.items.len()
    }

    /// Items created so far (those of retired slots included: they live
    /// until the pool goes).
    pub(crate) fn resident(&self) -> usize {
        self.items.iter().filter(|item| item.get().is_some()).count()
    }

    /// Blocks until a slot is free or `deadline` passes.
    ///
    /// # Errors
    /// [`ServiceError::AdmissionTimeout`] if the deadline passes first;
    /// [`ServiceError::Shutdown`], at once, if every slot was retired.
    pub(crate) fn checkout(&self, deadline: Instant) -> Result<Slot<'_, T>, ServiceError> {
        let mut slots = self.lock();
        let mut waiting_since = None;
        loop {
            if let Some(index) = slots.free.pop() {
                slots.busy += 1;
                return Ok(Slot { pool: self, index });
            }
            if slots.busy == 0 {
                return Err(ServiceError::Shutdown);
            }
            let now = Instant::now();
            let since = *waiting_since.get_or_insert(now);
            if now >= deadline {
                return Err(ServiceError::AdmissionTimeout {
                    waited_ms: now.duration_since(since).as_millis() as u64,
                });
            }
            slots.waiting += 1;
            slots = match self.returned.wait_timeout(slots, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
            slots.waiting -= 1;
        }
    }
}

/// One slot of a [`SlotPool`], held for a session's duration and given
/// back on drop. Dropped while unwinding, the slot is retired instead —
/// a session that panicked may have left its item in any state — and a
/// pool that has lost every slot answers `Shutdown`.
#[derive(Debug)]
pub(crate) struct Slot<'a, T> {
    pool: &'a SlotPool<T>,
    index: usize,
}

impl<T> Slot<'_, T> {
    /// Which of the pool's slots this is (below its capacity).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The slot's item, created by `create` if this is the slot's first
    /// draw.
    pub(crate) fn get_or_init(&self, create: impl FnOnce() -> T) -> &T {
        self.pool.items[self.index].get_or_init(create)
    }
}

impl<T> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        let mut slots = self.pool.lock();
        slots.busy -= 1;
        if !std::thread::panicking() {
            slots.free.push(self.index);
        }
        let wake = slots.waiting > 0;
        drop(slots);
        if wake {
            self.pool.returned.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(50)
    }

    #[test]
    fn grants_within_capacity_and_releases_on_drop() {
        let pool = MemoryPool::new(100);
        let a = pool.acquire(60, soon()).unwrap();
        let b = pool.acquire(40, soon()).unwrap();
        assert_eq!(pool.used(), 100);
        drop(a);
        assert_eq!(pool.used(), 40);
        drop(b);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn oversized_grant_fails_fast() {
        let pool = MemoryPool::new(100);
        let err = pool.acquire(101, soon()).unwrap_err();
        assert!(matches!(err, ServiceError::GrantTooLarge { requested: 101, capacity: 100 }));
    }

    #[test]
    fn full_pool_times_out() {
        let pool = MemoryPool::new(100);
        let _held = pool.acquire(100, soon()).unwrap();
        let err = pool.acquire(1, Instant::now() + Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, ServiceError::AdmissionTimeout { .. }));
    }

    #[test]
    fn retry_admits_when_capacity_frees_during_the_extension() {
        let pool = MemoryPool::new(100);
        let held = pool.acquire(100, soon()).unwrap();
        let releaser = thread::spawn(move || {
            thread::sleep(Duration::from_millis(60));
            drop(held);
        });
        // The first wait (20 ms) times out while the pool is full; the
        // retry's extended deadline covers the release at ~60 ms.
        let (grant, retried) = pool
            .acquire_retry(40, Instant::now() + Duration::from_millis(20), Duration::from_secs(5))
            .unwrap();
        assert!(retried, "admission needed the retry rung");
        assert_eq!(grant.bytes(), 40);
        releaser.join().unwrap();
    }

    #[test]
    fn retry_is_not_used_when_first_wait_succeeds() {
        let pool = MemoryPool::new(100);
        let (grant, retried) = pool
            .acquire_retry(100, soon(), Duration::from_secs(5))
            .unwrap();
        assert!(!retried);
        assert_eq!(grant.bytes(), 100);
    }

    #[test]
    fn retry_gives_up_when_the_pool_stays_full() {
        let pool = MemoryPool::new(100);
        let _held = pool.acquire(100, soon()).unwrap();
        let err = pool
            .acquire_retry(1, Instant::now() + Duration::from_millis(5), Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, ServiceError::AdmissionTimeout { .. }));
    }

    #[test]
    fn oversized_grants_are_never_retried() {
        let pool = MemoryPool::new(100);
        let err = pool
            .acquire_retry(101, soon(), Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, ServiceError::GrantTooLarge { .. }));
    }

    #[test]
    fn waiter_is_admitted_when_capacity_frees() {
        let pool = MemoryPool::new(100);
        let held = pool.acquire(100, soon()).unwrap();
        let pool2 = Arc::clone(&pool);
        let waiter =
            thread::spawn(move || pool2.acquire(50, Instant::now() + Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        drop(held);
        let grant = waiter.join().unwrap().unwrap();
        assert_eq!(grant.bytes(), 50);
        assert_eq!(pool.used(), 50);
        drop(grant);
        assert_eq!(pool.used(), 0);
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Checks a slot out and panics while holding it.
    fn panic_on_a_slot(pool: &SlotPool<usize>) {
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _slot = pool.checkout(far()).unwrap();
            panic!("a session panics");
        }));
        assert!(unwound.is_err());
    }

    #[test]
    fn sequential_holders_share_one_slot_and_concurrent_ones_do_not() {
        let pool = SlotPool::new(3);
        assert_eq!(pool.resident(), 0, "nothing is created before a session asks");
        for _ in 0..3 {
            let slot = pool.checkout(far()).unwrap();
            assert_eq!(slot.index(), 0);
            slot.get_or_init(|| 10);
        }
        assert_eq!(pool.resident(), 1);
        let (first, second) = (pool.checkout(far()).unwrap(), pool.checkout(far()).unwrap());
        assert_eq!((first.index(), second.index()), (0, 1));
        assert_eq!((*first.get_or_init(|| 11), *second.get_or_init(|| 11)), (10, 11));
        assert_eq!(pool.resident(), 2);
        drop(first);
        assert_eq!(pool.checkout(far()).unwrap().index(), 0, "the slot last returned");
    }

    #[test]
    fn a_full_slot_pool_times_out_at_the_deadline() {
        let pool = SlotPool::<usize>::new(1);
        let _held = pool.checkout(far()).unwrap();
        let err = pool.checkout(Instant::now() + Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, ServiceError::AdmissionTimeout { waited_ms } if waited_ms >= 20));
    }

    #[test]
    fn a_panicking_session_retires_its_slot_and_an_empty_pool_shuts_down() {
        let pool = SlotPool::new(2);
        panic_on_a_slot(&pool);
        // Capacity 2 -> 1: one session runs, a second finds no slot.
        let held = pool.checkout(far()).unwrap();
        let err = pool.checkout(Instant::now() + Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, ServiceError::AdmissionTimeout { .. }));
        drop(held);
        // 1 -> 0: nothing will ever be returned, so checkout fails at once
        // rather than at its (far) deadline.
        panic_on_a_slot(&pool);
        let started = Instant::now();
        assert!(matches!(pool.checkout(far()).unwrap_err(), ServiceError::Shutdown));
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn retiring_the_last_slot_wakes_the_sessions_waiting_for_it() {
        let pool = SlotPool::<usize>::new(1);
        thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    let _slot = pool.checkout(far()).unwrap();
                    // Panic only once the other session is blocked.
                    while pool.lock().waiting == 0 {
                        thread::yield_now();
                    }
                    panic!("a session panics");
                }));
                assert!(unwound.is_err());
            });
            while pool.lock().busy == 0 {
                thread::yield_now();
            }
            let woken = pool.checkout(far());
            assert!(matches!(woken.unwrap_err(), ServiceError::Shutdown));
            holder.join().unwrap();
        });
    }
}
