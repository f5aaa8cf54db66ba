//! [`StopSignal`] — the one way a periodic worker in this workspace
//! waits out its interval.
//!
//! A worker loops `while !signal.wait(interval) { tick() }`; its owner
//! calls [`StopSignal::stop`] and joins. The wait ends at the interval
//! *or* at the stop, whichever is first, so stopping costs one wake-up
//! plus whatever the tick in flight costs — never the rest of a sleep.
//!
//! Built on the facade's own [`Mutex`] + [`Condvar`], so the loom
//! backend models it (`tests/loom_stop.rs`). The flag is written and the
//! notify issued *under the mutex*, and the waiter checks the flag under
//! the same mutex before every wait: a stop can therefore never fall
//! between a worker's check and its wait (the lost wake-up an
//! `AtomicBool` + `sleep` loop, or a notify outside the lock, allows).

use std::time::{Duration, Instant};

use crate::{Condvar, Mutex};

/// A stop flag a thread can sleep on. Share it in an [`crate::Arc`]
/// between the worker (which waits) and its owner (which stops).
#[derive(Debug)]
pub struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    /// A signal that has not been stopped.
    pub fn new() -> Self {
        Self {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Blocks for `interval` or until [`StopSignal::stop`], whichever
    /// comes first; returns whether the signal is stopped. Spurious
    /// wake-ups are absorbed (the wait resumes to its original
    /// deadline). An interval too long to express as a deadline waits
    /// for the stop alone.
    pub fn wait(&self, interval: Duration) -> bool {
        let deadline = Instant::now().checked_add(interval);
        let mut stopped = self.stopped.lock();
        while !*stopped {
            match deadline {
                None => self.wake.wait(&mut stopped),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    // A timed-out wait is the interval elapsing; only a
                    // notified (or spurious) wake-up re-arms the wait.
                    if left.is_zero() || self.wake.wait_for(&mut stopped, left) {
                        break;
                    }
                }
            }
        }
        *stopped
    }

    /// Stops the signal: every current and future [`StopSignal::wait`]
    /// returns `true` at once. Idempotent.
    pub fn stop(&self) {
        let mut stopped = self.stopped.lock();
        *stopped = true;
        self.wake.notify_all();
    }

    /// Whether [`StopSignal::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        *self.stopped.lock()
    }
}

impl Default for StopSignal {
    fn default() -> Self {
        Self::new()
    }
}
