//! Loom models for [`StopSignal`], the stop-aware interval wait behind
//! every periodic worker (lease renewer, expiry, elasticity, heartbeat).
//!
//! Exhaustive model checking (bounded preemption, see `vendor/loom`):
//!
//! ```text
//! cargo test -p jiffy-sync --features loom --test loom_stop
//! ```
//!
//! Without the feature, `jiffy_sync::model` runs each body once with real
//! threads, so these double as plain smoke tests in ordinary `cargo test`
//! runs.
//!
//! In the model a *timed* condvar wait may time out at any schedule
//! point, so a lost wake-up on a timed wait is indistinguishable from
//! the interval elapsing. The lost-wake-up models therefore wait with
//! `Duration::MAX`, which `StopSignal::wait` turns into an untimed wait:
//! there a missed notify leaves the worker blocked forever, and the
//! checker reports the deadlock.

use std::time::Duration;

use jiffy_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use jiffy_sync::{model, thread, Arc, StopSignal};

const HOUR: Duration = Duration::from_secs(3600);

#[test]
fn stop_never_falls_between_a_workers_check_and_its_wait() {
    model(|| {
        let signal = Arc::new(StopSignal::new());
        let s2 = Arc::clone(&signal);
        // Every interleaving of the worker's check-then-wait with the
        // stop's set-then-notify must wake the worker.
        let worker = thread::spawn(move || assert!(s2.wait(Duration::MAX)));
        signal.stop();
        worker.join().unwrap();
        assert!(signal.is_stopped());
    });
}

/// The shape `StopSignal` replaces — flag outside the mutex — loses the
/// wake-up when the stop lands between the check and the wait. The
/// model must find that schedule: it is what makes the model above mean
/// something.
#[cfg(feature = "loom")]
#[test]
fn model_catches_a_flag_checked_outside_the_mutex() {
    use jiffy_sync::{Condvar, Mutex};
    let caught = std::panic::catch_unwind(|| {
        model(|| {
            let shared = Arc::new((AtomicBool::new(false), Mutex::new(()), Condvar::new()));
            let s2 = Arc::clone(&shared);
            let worker = thread::spawn(move || {
                let (stopped, lock, wake) = &*s2;
                // BUG under test: the stop can land right here.
                if !stopped.load(Ordering::SeqCst) {
                    wake.wait(&mut lock.lock());
                }
            });
            let (stopped, _lock, wake) = &*shared;
            stopped.store(true, Ordering::SeqCst);
            wake.notify_all();
            worker.join().unwrap();
        });
    });
    assert!(caught.is_err(), "the model must find the lost wake-up");
}

#[test]
fn concurrent_stops_are_idempotent() {
    model(|| {
        let signal = Arc::new(StopSignal::new());
        let s2 = Arc::clone(&signal);
        let worker = thread::spawn(move || assert!(s2.wait(Duration::MAX)));
        let s3 = Arc::clone(&signal);
        let other = thread::spawn(move || s3.stop());
        signal.stop();
        other.join().unwrap();
        worker.join().unwrap();
        assert!(signal.is_stopped());
        assert!(signal.wait(HOUR), "a stopped signal never waits again");
    });
}

#[test]
fn no_tick_begins_once_stop_has_returned_except_the_one_in_flight() {
    model(|| {
        let signal = Arc::new(StopSignal::new());
        let stop_returned = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(AtomicUsize::new(0));
        let (s2, r2, t2) = (
            Arc::clone(&signal),
            Arc::clone(&stop_returned),
            Arc::clone(&ticks),
        );
        let worker = thread::spawn(move || {
            // A periodic worker, bounded so the model is finite. A tick
            // may begin after `stop()` returned only if its wait had
            // already ended; the next wait must see the stop.
            let mut late = 0;
            for _ in 0..3 {
                if s2.wait(HOUR) {
                    break;
                }
                late += usize::from(r2.load(Ordering::SeqCst));
                t2.fetch_add(1, Ordering::SeqCst);
            }
            assert!(late <= 1, "{late} ticks began after stop() returned");
        });
        signal.stop();
        stop_returned.store(true, Ordering::SeqCst);
        worker.join().unwrap();
        // Stopped and joined: the body cannot run again.
        let after_join = ticks.load(Ordering::SeqCst);
        assert!(signal.wait(HOUR));
        assert_eq!(ticks.load(Ordering::SeqCst), after_join);
    });
}
