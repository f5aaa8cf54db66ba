//! Background lease renewal.
//!
//! In the paper's programming models a master process renews leases for
//! the prefixes of currently running tasks (§5). [`LeaseRenewer`] is
//! that loop: it renews each registered prefix every `interval` until
//! stopped or dropped. Thanks to DAG propagation (§3.2) one renewal per
//! running task suffices to keep its inputs and consumers alive.

use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Arc, Mutex, StopSignal};
use std::time::Duration;

use crate::job::JobClient;

/// Periodically renews leases for a set of prefixes.
pub struct LeaseRenewer {
    prefixes: Arc<Mutex<Vec<String>>>,
    stop: Arc<StopSignal>,
    renewals: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LeaseRenewer {
    /// Starts the renewal loop.
    pub fn start(job: JobClient, prefixes: Vec<String>, interval: Duration) -> Self {
        let prefixes = Arc::new(Mutex::new(prefixes));
        let stop = Arc::new(StopSignal::new());
        let renewals = Arc::new(AtomicU64::new(0));
        let (p2, s2, r2) = (prefixes.clone(), stop.clone(), renewals.clone());
        let thread = std::thread::Builder::new()
            .name("jiffy-lease-renewer".into())
            .spawn(move || {
                while !s2.is_stopped() {
                    let current: Vec<String> = p2.lock().clone();
                    for p in &current {
                        if job.renew_lease(p).is_ok() {
                            r2.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    s2.wait(interval);
                }
            })
            .expect("spawn lease renewer");
        Self {
            prefixes,
            stop,
            renewals,
            thread: Some(thread),
        }
    }

    /// Adds a prefix to the renewal set (a task started).
    pub fn track(&self, prefix: impl Into<String>) {
        let p = prefix.into();
        let mut list = self.prefixes.lock();
        if !list.contains(&p) {
            list.push(p);
        }
    }

    /// Removes a prefix from the renewal set (a task finished; its data
    /// stays alive only while dependents renew — §3.2).
    pub fn untrack(&self, prefix: &str) {
        self.prefixes.lock().retain(|p| p != prefix);
    }

    /// Total successful renewal calls issued so far.
    pub fn renewals(&self) -> u64 {
        self.renewals.load(Ordering::Relaxed)
    }

    /// Stops the loop and waits for the thread (and its RPC in flight).
    pub fn stop(&mut self) {
        self.stop.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LeaseRenewer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for LeaseRenewer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LeaseRenewer({} prefixes)", self.prefixes.lock().len())
    }
}
