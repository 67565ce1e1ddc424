//! Poison-recovering lock wrappers for state that outlives any single
//! query.
//!
//! A std `Mutex`/`RwLock` poisons itself when a holder panics, and every
//! later `.lock().expect(..)` then takes the whole process down — one
//! misbehaving query would permanently wedge the shared engine's page
//! store, answer memo, and view table. These wrappers recover instead:
//! a poisoned acquisition strips the `PoisonError`, bumps the global
//! [`poison_recoveries`] counter (surfaced as `lock_poison_recovered`
//! in engine stats), and hands back the guard.
//!
//! Recovery is sound here because every structure guarded by these
//! wrappers maintains its invariants *between* mutations: the page
//! store, memo tables, view table, and admission ledger each update a
//! map entry or counter atomically under the guard, so a panic can at
//! worst lose the in-flight update — never leave a half-written entry.
//! Structures without that property must not use these wrappers.
//!
//! The guards returned are the std guards, so `Condvar::wait_timeout`
//! and friends keep working; [`SafeMutex::raw`] exposes the underlying
//! lock for them (recover the `LockResult` they return with
//! [`recover`]).
//!
//! [`fan_out`] runs a loop body on every core; the drift path's view
//! rebuild uses it. [`Singleflight`] is the one claim protocol behind
//! the engine's view table, the answer memos and the page store: of the
//! sessions that miss one key at once, one computes it and the rest
//! wait for it.

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of poisoned-lock acquisitions that were recovered.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Strip a `PoisonError`, counting the recovery. Works on any
/// `LockResult` — including the pair `Condvar::wait_timeout` returns.
pub fn recover<T>(result: LockResult<T>) -> T {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// A `Mutex` whose `lock` never fails: poison is recovered and counted.
#[derive(Debug, Default)]
pub struct SafeMutex<T> {
    inner: Mutex<T>,
}

impl<T> SafeMutex<T> {
    pub fn new(value: T) -> SafeMutex<T> {
        SafeMutex { inner: Mutex::new(value) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.inner.lock())
    }

    /// The underlying lock, for `Condvar` waits (and poison tests).
    pub fn raw(&self) -> &Mutex<T> {
        &self.inner
    }
}

/// An `RwLock` whose `read`/`write` never fail: poison is recovered and
/// counted.
#[derive(Debug, Default)]
pub struct SafeRwLock<T> {
    inner: RwLock<T>,
}

impl<T> SafeRwLock<T> {
    pub fn new(value: T) -> SafeRwLock<T> {
        SafeRwLock { inner: RwLock::new(value) }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.inner.read())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.inner.write())
    }

    /// The underlying lock, for poison tests.
    pub fn raw(&self) -> &RwLock<T> {
        &self.inner
    }
}

/// Run `work` over every item on `available_parallelism()` workers and
/// return the results in item order.
///
/// The calling thread is one of the workers, so `n` cores spawn `n - 1`
/// scoped threads; one core, or at most one item, spawns nothing and
/// runs inline. Workers claim items through an atomic cursor, so a slow
/// item never holds up the rest. A panicking item reaches the caller
/// with its own payload once the other workers have finished.
pub fn fan_out<T, R, F>(items: &[T], work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(items.len());
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, work(item)));
        }
    };
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        results.extend(claim());
        for helper in helpers {
            results.extend(helper.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[derive(Debug)]
struct Flights<K> {
    inflight: SafeMutex<HashSet<K>>,
    settled: Condvar,
    /// Leaderships released while their holder panicked.
    aborted: AtomicU64,
}

/// The keys some session is computing right now. Clone-cheap (`Arc`
/// inside): every handle names the same in-flight set.
#[derive(Debug)]
pub struct Singleflight<K> {
    flights: Arc<Flights<K>>,
}

impl<K> Clone for Singleflight<K> {
    fn clone(&self) -> Singleflight<K> {
        Singleflight { flights: self.flights.clone() }
    }
}

impl<K: Eq + Hash + Clone> Default for Singleflight<K> {
    fn default() -> Singleflight<K> {
        Singleflight::new()
    }
}

/// What [`Singleflight::claim`] resolved to.
#[derive(Debug)]
pub enum Flight<T, K: Eq + Hash> {
    /// The lookup found the key's value, perhaps after a leader this
    /// caller waited for published it.
    Found(T),
    /// The caller computes the key; other claims on it wait until the
    /// guard drops.
    Lead(FlightGuard<K>),
}

/// Leadership of one in-flight key. Dropping it — after the leader
/// published, or because it failed, was cancelled or panicked — clears
/// the key and wakes the waiters; with nothing published, the next
/// waiter leads. A drop during a panic is counted
/// ([`Singleflight::aborted`]): the failed spend stays charged to the
/// panicking caller, and chaos tests assert the hand-off.
#[derive(Debug)]
pub struct FlightGuard<K: Eq + Hash> {
    flights: Arc<Flights<K>>,
    key: K,
}

impl<K: Eq + Hash> FlightGuard<K> {
    pub fn key(&self) -> &K {
        &self.key
    }
}

impl<K: Eq + Hash> Drop for FlightGuard<K> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.flights.aborted.fetch_add(1, Ordering::Relaxed);
        }
        self.flights.inflight.lock().remove(&self.key);
        self.flights.settled.notify_all();
    }
}

impl<K: Eq + Hash + Clone> Singleflight<K> {
    pub fn new() -> Singleflight<K> {
        Singleflight {
            flights: Arc::new(Flights {
                inflight: SafeMutex::new(HashSet::new()),
                settled: Condvar::new(),
                aborted: AtomicU64::new(0),
            }),
        }
    }

    /// `lookup`'s value for `key`, or leadership of computing it. When
    /// another caller leads `key`, this one waits until that leader's
    /// guard drops and looks again, so a herd missing one key pays for
    /// one computation. `on_wait` runs once, before the first wait.
    ///
    /// `lookup` runs under the in-flight lock. A leader publishes
    /// before its guard clears the key under that lock, so a lookup
    /// cannot miss one that just settled. A waiter also re-checks every
    /// 50ms, so a missed wake-up costs at most that.
    pub fn claim<T>(
        &self,
        key: &K,
        mut lookup: impl FnMut() -> Option<T>,
        on_wait: impl FnOnce(),
    ) -> Flight<T, K> {
        let mut on_wait = Some(on_wait);
        let mut inflight = self.flights.inflight.lock();
        loop {
            if let Some(found) = lookup() {
                return Flight::Found(found);
            }
            if inflight.insert(key.clone()) {
                let guard = FlightGuard { flights: self.flights.clone(), key: key.clone() };
                return Flight::Lead(guard);
            }
            if let Some(on_wait) = on_wait.take() {
                on_wait();
            }
            let waited = self.flights.settled.wait_timeout(inflight, Duration::from_millis(50));
            inflight = recover(waited).0;
        }
    }

    /// Leaderships whose guard dropped while its holder panicked.
    pub fn aborted(&self) -> u64 {
        self.flights.aborted.load(Ordering::Relaxed)
    }

    /// The in-flight set's lock, for poison tests.
    pub fn raw(&self) -> &Mutex<HashSet<K>> {
        self.flights.inflight.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_recovers_from_a_panicked_holder() {
        let lock = SafeMutex::new(vec![1]);
        let before = poison_recoveries();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock.raw().lock().expect("clean lock");
            panic!("holder dies");
        }));
        assert!(lock.raw().is_poisoned(), "panicked holder poisons the raw lock");
        lock.lock().push(2);
        assert_eq!(*lock.lock(), vec![1, 2], "lock stays usable after recovery");
        assert!(poison_recoveries() > before, "recovery was counted");
    }

    #[test]
    fn rwlock_recovers_for_readers_and_writers() {
        let lock = SafeRwLock::new(7u64);
        let before = poison_recoveries();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock.raw().write().expect("clean write lock");
            panic!("writer dies");
        }));
        assert!(lock.raw().is_poisoned());
        assert_eq!(*lock.read(), 7);
        *lock.write() = 8;
        assert_eq!(*lock.read(), 8);
        assert!(poison_recoveries() >= before + 2, "both recoveries counted");
    }

    #[test]
    fn fan_out_keeps_item_order_across_one_worker_per_core_the_caller_included() {
        let caller = std::thread::current().id();
        assert!(fan_out(&[] as &[()], |_| caller).is_empty());
        assert_eq!(fan_out(&[()], |_| std::thread::current().id()), vec![caller], "inline");
        // Every item waits until each core holds one, so each worker —
        // the caller among them — claims exactly one item per round, and
        // no worker's items are contiguous: the output order comes from
        // `fan_out` itself, not from the schedule.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let barrier = std::sync::Barrier::new(cores);
        let items: Vec<usize> = (0..2 * cores).collect();
        let out = fan_out(&items, |&i| {
            barrier.wait();
            (i, std::thread::current().id())
        });
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), items, "item order");
        let threads: std::collections::HashSet<_> = out.iter().map(|&(_, t)| t).collect();
        assert!(threads.contains(&caller), "the caller claims items itself");
        assert_eq!(threads.len(), cores, "one worker per core");
    }

    #[test]
    fn fan_out_hands_a_worker_panic_to_the_caller() {
        let items: Vec<usize> = (0..32).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(&items, |&i| {
                if i == 17 {
                    panic!("item {i} failed");
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string));
        assert_eq!(message.as_deref(), Some("item 17 failed"), "with its own payload");
    }
}
