//! `jiffy-sync` — the single synchronization import for the Jiffy
//! workspace.
//!
//! Every first-party crate takes its `Mutex` / `RwLock` / `Condvar` /
//! atomics / `Arc` from here instead of `std::sync` or `parking_lot`
//! (enforced by `cargo xtask lint`). One import point buys three
//! interchangeable backends:
//!
//! 1. **Fast path** (default, release): thin non-poisoning wrappers over
//!    `std::sync` — the same shape the old `parking_lot` stand-in had,
//!    zero added cost.
//! 2. **Lock-order instrumentation** (default, `debug_assertions`):
//!    every acquisition is recorded in a global lock-order graph keyed
//!    by construction site (or an explicit `new_named` class); an
//!    acquisition that closes a cycle — i.e. could deadlock under *some*
//!    interleaving — panics deterministically with the offending chain.
//!    Disable at runtime with `JIFFY_LOCK_ORDER=0`. See [`mod@order`]
//!    docs for the rules (instance re-entrancy, same-class exemption).
//! 3. **Model checking** (`--features loom`): primitives are arbitrated
//!    by the vendored loom stand-in's bounded-exhaustive scheduler.
//!    Structures write `loom`-gated tests as
//!    `jiffy_sync::model(|| ...)` with `jiffy_sync::thread::spawn`;
//!    see DESIGN.md §8 for the recipe.
//!
//! On top of the primitives sits [`StopSignal`], the stop-aware interval
//! wait every periodic worker uses instead of `thread::sleep` (enforced
//! by `cargo xtask lint`, rule `stoppable-sleep`).
//!
//! Types deliberately NOT re-routed: `Arc`/`Weak` (plain std re-exports;
//! the loom stand-in does not track reference counts), `Barrier`, and
//! `mpsc` (std re-exports, unmodeled — don't use them inside loom
//! models).

#[cfg(all(debug_assertions, not(feature = "loom")))]
mod order;
#[cfg(not(feature = "loom"))]
mod plain;
mod stop;

pub use stop::StopSignal;

#[cfg(not(feature = "loom"))]
pub use plain::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "loom")]
pub use loom::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Model-aware atomics (std atomics on the non-loom backends).
pub mod atomic {
    #[cfg(not(feature = "loom"))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI32, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };

    #[cfg(feature = "loom")]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicI32, AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
}

/// Model-aware threads (std threads on the non-loom backends). Only the
/// subset loom can schedule is exposed: `spawn`, `yield_now`,
/// `JoinHandle`. For sleeps, names, or scoped threads use `std::thread`
/// directly — those never appear inside loom models.
pub mod thread {
    #[cfg(not(feature = "loom"))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(feature = "loom")]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Unmodeled std re-exports (see crate docs).
pub use std::sync::{mpsc, Arc, Barrier, Weak};

/// Runs `f` under the loom model checker (`--features loom`), or exactly
/// once with real threads otherwise — so `model`-based tests double as
/// plain smoke tests in ordinary `cargo test` runs.
#[cfg(feature = "loom")]
pub use loom::model;

/// Runs `f` under the loom model checker (`--features loom`), or exactly
/// once with real threads otherwise — so `model`-based tests double as
/// plain smoke tests in ordinary `cargo test` runs.
#[cfg(not(feature = "loom"))]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    f();
}

/// True when the loom backend is active (for tests that need to scale
/// bounds down inside models).
pub const LOOM: bool = cfg!(feature = "loom");

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicUsize, Ordering};
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = thread::spawn(move || {
            let (m, c) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                c.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, c) = &*pair;
        *m.lock() = true;
        c.notify_all();
        t.join().unwrap();
    }

    #[cfg(not(feature = "loom"))]
    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        assert!(c.wait_for(&mut g, Duration::from_millis(5)));
    }

    #[test]
    fn stop_signal_waits_out_the_interval_unless_stopped() {
        let signal = Arc::new(StopSignal::new());
        let begun = std::time::Instant::now();
        assert!(!signal.wait(Duration::from_millis(20)));
        assert!(begun.elapsed() >= Duration::from_millis(20));
        assert!(!signal.is_stopped());

        let s2 = signal.clone();
        let begun = std::time::Instant::now();
        let waiter = thread::spawn(move || s2.wait(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        signal.stop();
        assert!(waiter.join().unwrap(), "the waiter saw the stop");
        assert!(begun.elapsed() < Duration::from_secs(5));
        assert!(signal.is_stopped());
        assert!(signal.wait(Duration::MAX), "stopped: returns at once");
    }

    #[test]
    fn atomics_work() {
        let a = AtomicUsize::new(1);
        assert_eq!(a.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(a.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn model_runs_closure() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = ran.clone();
        model(move || {
            r2.store(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    // Lock-order instrumentation is only active on the debug non-loom
    // backend; these tests pin its observable behavior.
    #[cfg(all(debug_assertions, not(feature = "loom")))]
    mod order_tracking {
        use super::*;

        #[test]
        fn recursive_lock_panics() {
            let m = Arc::new(Mutex::new(0));
            let r = catch_unwind(AssertUnwindSafe(|| {
                let _a = m.lock();
                let _b = m.lock(); // would deadlock at runtime
            }));
            assert!(r.is_err(), "recursive relock must be detected");
        }

        #[test]
        fn ab_ba_inversion_panics_without_needing_the_deadlock() {
            // Two named classes, single thread: taking a->b then b->a
            // must panic on the inversion even though no deadlock occurs.
            let a = Arc::new(Mutex::new_named(0, "order-test-a"));
            let b = Arc::new(Mutex::new_named(0, "order-test-b"));
            {
                let _ga = a.lock();
                let _gb = b.lock(); // records a -> b
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.lock(); // b -> a closes the cycle
            }));
            let payload = r.expect_err("inversion must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("order-test-a") && msg.contains("order-test-b"),
                "panic names the cycle classes: {msg}"
            );
        }

        #[test]
        fn same_class_different_instances_are_exempt() {
            // Sharded pattern: Vec of locks from one construction site,
            // acquired pairwise — must NOT trip the self-edge.
            let shards: Vec<Mutex<u32>> = (0..4).map(Mutex::new).collect();
            let _a = shards[0].lock();
            let _b = shards[1].lock();
        }
    }
}
