//! Lease-guarded client-side metadata cache (DESIGN.md §15).
//!
//! Steady-state data-path operations must not touch the controller: a
//! resolved `(job, path) → PrefixView` is cached here and considered
//! fresh while (a) the prefix's lease could not have expired yet — the
//! entry's TTL is the lease duration reported at resolve time — and
//! (b) the control plane's *view epoch* has not advanced past the epoch
//! observed when the entry was filled. Every control response envelope
//! piggybacks the current epoch, so any control traffic (lease renewals
//! above all — a live job renews leases anyway) doubles as an
//! invalidation channel with zero extra RPCs.
//!
//! Entries are dropped eagerly when a memory server's answer proves
//! them wrong (`StaleMetadata` / `BlockMoved` / `UnknownBlock` ride the
//! data-structure handles' refresh path into
//! [`resolve_fresh`](crate::JobClient::resolve_fresh)) and lazily when
//! a response carries a newer epoch. Concurrent misses for one path
//! coalesce onto a single in-flight resolve (single-flight), so a
//! thundering herd of serverless tasks attaching to the same prefix
//! costs one controller round-trip, not N.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use jiffy_common::Result;
use jiffy_proto::PrefixView;
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::{Arc, Mutex, RwLock};

/// Monotonic cache counters (benchmarks and tests read these; the hit
/// ratio is the paper-facing number for how rarely steady-state data
/// ops touch the controller).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    resolves: AtomicU64,
}

impl CacheStats {
    /// Lookups served from a fresh cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no fresh entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Resolve RPCs actually issued (followers of a coalesced miss do
    /// not count — only the single-flight leader pays the round-trip).
    pub fn resolves(&self) -> u64 {
        self.resolves.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 with no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

struct Entry {
    view: PrefixView,
    /// View epoch observed on the resolve response that filled this
    /// entry; the entry dies once a newer epoch is observed anywhere.
    epoch: u64,
    /// Lease-guard expiry: the controller cannot have reclaimed or
    /// repartitioned the prefix behind our back before this instant
    /// without bumping the epoch.
    expires: Instant,
}

/// Cache key: `(job id, resolved path)`.
type Key = (u64, String);

/// The cache itself; one per [`crate::JiffyClient`], shared by every
/// job handle and data-structure handle cloned from it.
pub struct MetadataCache {
    entries: RwLock<HashMap<Key, Entry>>,
    /// Highest view epoch observed on any control response.
    epoch: AtomicU64,
    /// Per-key single-flight leader locks for coalesced misses.
    inflight: Mutex<HashMap<Key, Arc<Mutex<()>>>>,
    stats: CacheStats,
}

impl Default for MetadataCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MetadataCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            stats: CacheStats::default(),
        }
    }

    /// Folds an epoch piggybacked on a control response into the cache.
    /// Monotonic: late or duplicated responses carrying an older epoch
    /// never roll freshness back.
    pub fn observe_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// The newest view epoch observed so far.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Counter access.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// A fresh cached view of `(job, path)`, if any. Counts a hit or a
    /// miss.
    pub fn lookup(&self, job: u64, path: &str) -> Option<PrefixView> {
        let view = self.peek(job, path);
        if view.is_some() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        view
    }

    /// [`Self::lookup`] without touching the counters (single-flight
    /// followers re-check through this so a coalesced miss is counted
    /// once, not once per waiter).
    fn peek(&self, job: u64, path: &str) -> Option<PrefixView> {
        let cur = self.current_epoch();
        let now = Instant::now();
        let entries = self.entries.read();
        match entries.get(&(job, path.to_string())) {
            Some(e) if e.epoch >= cur && now < e.expires => Some(e.view.clone()),
            _ => None,
        }
    }

    /// Drops the entry for `(job, path)`, if any.
    pub fn invalidate(&self, job: u64, path: &str) {
        self.entries.write().remove(&(job, path.to_string()));
    }

    /// Drops every entry of `job` (deregistration).
    pub fn invalidate_job(&self, job: u64) {
        self.entries.write().retain(|(j, _), _| *j != job);
    }

    /// Fills `(job, path)` through `resolve`, coalescing concurrent
    /// misses: one leader issues the RPC while every other caller waits
    /// on the per-key lock and then reads the entry the leader wrote.
    ///
    /// # Errors
    ///
    /// Whatever `resolve` returns; a failed fill is not cached, so the
    /// next caller retries.
    pub fn resolve_coalesced(
        &self,
        job: u64,
        path: &str,
        resolve: impl FnOnce() -> Result<(PrefixView, u64)>,
    ) -> Result<PrefixView> {
        let key = (job, path.to_string());
        let leader = self
            .inflight
            .lock()
            .entry(key.clone())
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone();
        // xtask-allow(no-guard-across-rpc): the single-flight leader deliberately
        // holds the per-key lock across its resolve RPC — that hold IS the
        // coalescing: concurrent misses for the same path park here and read the
        // leader's entry instead of issuing their own RPC. The lock is per-path
        // and taken only on a miss, so no data-path operation serializes on it.
        let _flight = leader.lock();
        // A follower that waited out the leader's fill: serve its entry.
        if let Some(view) = self.peek(job, path) {
            return Ok(view);
        }
        self.stats.resolves.fetch_add(1, Ordering::Relaxed);
        let out = resolve().map(|(view, epoch)| {
            let ttl = Duration::from_micros(view.lease_duration_micros.max(1));
            self.entries.write().insert(
                key.clone(),
                Entry {
                    view: view.clone(),
                    epoch,
                    expires: Instant::now() + ttl,
                },
            );
            view
        });
        // The flight is over either way; forget the leader lock (waiters
        // holding a clone still drain through it, then it drops). On the
        // error path nothing was cached, so the next caller leads a new
        // flight and retries.
        self.inflight.lock().remove(&key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(name: &str, lease_micros: u64, version: u64) -> PrefixView {
        PrefixView {
            name: name.to_string(),
            ds: None,
            partition: None,
            lease_duration_micros: lease_micros,
            parents: vec![],
            children: vec![],
            version,
        }
    }

    fn fill(cache: &MetadataCache, job: u64, path: &str, v: PrefixView, epoch: u64) {
        cache
            .resolve_coalesced(job, path, || Ok((v, epoch)))
            .unwrap();
    }

    #[test]
    fn hit_within_lease_and_epoch() {
        let c = MetadataCache::new();
        fill(&c, 1, "t0", view("t0", 60_000_000, 1), 0);
        assert_eq!(c.lookup(1, "t0").unwrap().name, "t0");
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().resolves(), 1);
    }

    #[test]
    fn lease_expiry_misses() {
        let c = MetadataCache::new();
        fill(&c, 1, "t0", view("t0", 1, 1), 0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.lookup(1, "t0").is_none());
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn epoch_bump_invalidates_lazily() {
        let c = MetadataCache::new();
        fill(&c, 1, "t0", view("t0", 60_000_000, 1), 0);
        assert!(c.lookup(1, "t0").is_some());
        c.observe_epoch(1);
        assert!(c.lookup(1, "t0").is_none(), "older-epoch entry must die");
        // Older epochs never roll the clock back.
        c.observe_epoch(0);
        assert!(c.lookup(1, "t0").is_none());
    }

    #[test]
    fn explicit_invalidation_and_job_teardown() {
        let c = MetadataCache::new();
        fill(&c, 1, "t0", view("t0", 60_000_000, 1), 0);
        fill(&c, 1, "t1", view("t1", 60_000_000, 1), 0);
        fill(&c, 2, "t0", view("t0", 60_000_000, 1), 0);
        c.invalidate(1, "t0");
        assert!(c.lookup(1, "t0").is_none());
        assert!(c.lookup(1, "t1").is_some());
        c.invalidate_job(1);
        assert!(c.lookup(1, "t1").is_none());
        assert!(c.lookup(2, "t0").is_some());
    }

    #[test]
    fn failed_fill_is_not_cached() {
        let c = MetadataCache::new();
        let err: Result<(PrefixView, u64)> =
            Err(jiffy_common::JiffyError::PathNotFound("t0".into()));
        assert!(c.resolve_coalesced(1, "t0", || err).is_err());
        assert!(c.lookup(1, "t0").is_none());
        assert!(c.inflight.lock().is_empty(), "flight cleaned up on error");
        // A later fill leads a fresh flight and succeeds.
        fill(&c, 1, "t0", view("t0", 60_000_000, 1), 0);
        assert!(c.lookup(1, "t0").is_some());
    }
}
