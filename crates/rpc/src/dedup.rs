//! Server-side request deduplication (replay caches).
//!
//! Under lossy transports a client cannot tell a lost *request* from a
//! lost *reply*: both surface as a timeout. Retrying is only safe if the
//! server suppresses re-execution of requests it already handled. Each
//! plane has exactly one mechanism for that, both built on
//! [`ReplayWindow`], a bounded `(request id → cached value)` map with
//! LRU eviction and a seq watermark:
//!
//! - **Data plane: the per-block window.** `jiffy-block` embeds one
//!   `ReplayWindow<DsResult>` per block; the memory server looks every
//!   client-stamped mutation up in it, and records the result, under the
//!   block lock. The state lives inside the partition it protects, so it
//!   replicates down the chain and travels with export/import/split/
//!   merge: a retry is answered whichever connection it arrives on and
//!   wherever the block now lives (a promoted replica, a migration
//!   target). Reads are never tracked. Memory servers are served bare.
//! - **Control plane: [`Deduplicated`].** Wraps the controller endpoint,
//!   remembering the response to each `(session, request id)` pair and
//!   replaying it when the same id arrives again on the same connection.
//!   Control handlers are not idempotent towards the client (a replayed
//!   `RegisterJob` would mint a second job, a replayed `RemovePrefix`
//!   answer `NotFound`) and the controller has no per-object window, so
//!   a response cache in front of it is what that plane needs. It is
//!   bounded ([`DEDUP_CACHE_PER_SESSION`] most-recent entries), dropped
//!   when the session disconnects, and bypassed by request id `0`
//!   (unstamped requests and push traffic).

use jiffy_sync::Arc;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use jiffy_common::{JiffyError, Result};
use jiffy_proto::Envelope;
use jiffy_sync::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::service::{Service, SessionHandle};

/// Responses remembered per session before eviction.
pub const DEDUP_CACHE_PER_SESSION: usize = 128;

/// A bounded `(request id → value)` replay window with LRU eviction.
///
/// The window remembers the result of each recently executed request so
/// a retry carrying the same id can be answered without re-executing.
/// Entries carry an explicit byte weight; eviction (least-recently-used
/// first) keeps the window within both an entry count and a byte budget.
/// Lookups *touch* their entry, so an id that is actively being retried
/// stays resident while idle entries age out.
///
/// The window is not itself synchronized — callers wrap it in whatever
/// lock already guards the state it shadows (the per-block mutex on the
/// data plane, the session-map mutex in [`Deduplicated`]), which is
/// what makes "execute + record" atomic with respect to a concurrent
/// retry.
/// Identity hasher for request-id keys. Rids are client-assigned
/// sequential counters (and the transport's auto-ids likewise), so
/// their low bits are already uniformly distributed for bucketing —
/// SipHash would only add per-op latency on the replicated write path.
#[derive(Default)]
pub struct RidHasher(u64);

impl Hasher for RidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

pub struct ReplayWindow<V> {
    /// id → (recency seq, byte weight, value).
    entries: HashMap<u64, (u64, u64, V), BuildHasherDefault<RidHasher>>,
    /// Recency index: seq → id, oldest first.
    by_seq: BTreeMap<u64, u64>,
    /// Next recency seq to assign (monotone; touched entries move here).
    next_seq: u64,
    /// Sum of entry byte weights.
    bytes: u64,
    max_entries: usize,
    max_bytes: u64,
    /// Highest recency seq ever evicted. A miss only proves
    /// non-execution while the op's era is above the watermark; windows
    /// are sized far above the in-flight op count so live retries always
    /// land inside it.
    watermark: u64,
}

/// Serialized form of a window, as a plain tuple (the vendored
/// serde_derive does not support generic structs): `(next_seq,
/// watermark, entries)` with entries `(id, seq, bytes, value)` in
/// ascending seq order — the counters make an import into an empty
/// window an exact restore.
type WindowImage<V> = (u64, u64, Vec<(u64, u64, u64, V)>);

impl<V> ReplayWindow<V> {
    /// Creates an empty window bounded to `max_entries` entries and
    /// `max_bytes` total byte weight (each clamped to at least 1).
    pub fn new(max_entries: usize, max_bytes: u64) -> Self {
        Self {
            entries: HashMap::default(),
            by_seq: BTreeMap::new(),
            next_seq: 1,
            bytes: 0,
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            watermark: 0,
        }
    }

    /// Looks up a cached value, refreshing its recency.
    pub fn lookup(&mut self, id: u64) -> Option<&V> {
        let entry = self.entries.get_mut(&id)?;
        self.by_seq.remove(&entry.0);
        entry.0 = self.next_seq;
        self.by_seq.insert(self.next_seq, id);
        self.next_seq += 1;
        self.entries.get(&id).map(|(_, _, v)| v)
    }

    /// Records a value under `id` with the given byte weight, evicting
    /// least-recently-used entries until the window fits its bounds
    /// again (the entry just inserted is never evicted, so a single
    /// oversized value may transiently exceed the byte budget alone).
    /// A repeated id keeps the first value: the first execution's result
    /// is the canonical one.
    pub fn insert(&mut self, id: u64, value: V, bytes: u64) {
        if self.entries.contains_key(&id) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(id, (seq, bytes, value));
        self.by_seq.insert(seq, id);
        self.bytes += bytes;
        while self.entries.len() > self.max_entries
            || (self.bytes > self.max_bytes && self.entries.len() > 1)
        {
            let Some((&old_seq, &old_id)) = self.by_seq.iter().next() else {
                break;
            };
            if old_id == id {
                break;
            }
            self.by_seq.remove(&old_seq);
            if let Some((_, b, _)) = self.entries.remove(&old_id) {
                self.bytes -= b;
            }
            self.watermark = self.watermark.max(old_seq);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of resident entries' byte weights.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Highest recency seq ever evicted (0 when nothing was evicted).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Drops every entry, releases the table and resets the counters (a
    /// freed block must not pin its last owner's window capacity).
    pub fn clear(&mut self) {
        self.entries = HashMap::default();
        self.by_seq.clear();
        self.next_seq = 1;
        self.bytes = 0;
        self.watermark = 0;
    }
}

impl<V: Serialize + Clone> ReplayWindow<V> {
    /// Serializes the window (entries in recency order plus counters).
    /// Importing the bytes into an *empty* window restores it exactly,
    /// so export → import → export round-trips byte-for-byte.
    ///
    /// # Errors
    ///
    /// Serialization failures.
    pub fn export_bytes(&self) -> Result<Vec<u8>> {
        let entries = self
            .by_seq
            .iter()
            .map(|(&seq, &id)| {
                let (_, bytes, v) = &self.entries[&id];
                (id, seq, *bytes, v.clone())
            })
            .collect();
        let image: WindowImage<V> = (self.next_seq, self.watermark, entries);
        jiffy_proto::to_bytes(&image)
            .map_err(|e| JiffyError::Internal(format!("replay window export: {e}")))
    }
}

impl<V: DeserializeOwned> ReplayWindow<V> {
    /// Absorbs an exported window. Into an empty window this is an exact
    /// restore (seqs and watermark preserved); into a non-empty one the
    /// imported entries are re-sequenced behind the resident ones in
    /// their original recency order (merge semantics — a repartition
    /// target keeps its own entries and gains the source's). Repeated
    /// ids keep the resident value. Empty input is a no-op.
    ///
    /// # Errors
    ///
    /// Malformed bytes.
    pub fn import_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let (next_seq, watermark, entries): WindowImage<V> = jiffy_proto::from_bytes(bytes)
            .map_err(|e| JiffyError::Internal(format!("replay window import: {e}")))?;
        if self.entries.is_empty() && self.watermark == 0 {
            self.next_seq = next_seq;
            self.watermark = watermark;
            for (id, seq, bytes, value) in entries {
                if self.entries.insert(id, (seq, bytes, value)).is_none() {
                    self.by_seq.insert(seq, id);
                    self.bytes += bytes;
                }
            }
        } else {
            self.watermark = self.watermark.max(watermark);
            for (id, _, bytes, value) in entries {
                self.insert(id, value, bytes);
            }
        }
        Ok(())
    }
}

impl<V> std::fmt::Debug for ReplayWindow<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReplayWindow({} entries, {} bytes, watermark {})",
            self.entries.len(),
            self.bytes,
            self.watermark
        )
    }
}

/// Wraps a [`Service`], replaying cached responses for repeated request
/// ids so retried mutations execute exactly once per session.
pub struct Deduplicated<S: Service> {
    inner: S,
    sessions: Mutex<HashMap<u64, ReplayWindow<Envelope>>>,
    capacity: usize,
    replays: jiffy_sync::atomic::AtomicU64,
}

impl<S: Service> Deduplicated<S> {
    /// Wraps `inner` with a replay cache of [`DEDUP_CACHE_PER_SESSION`]
    /// entries per session.
    pub fn new(inner: S) -> Self {
        Self::with_capacity(inner, DEDUP_CACHE_PER_SESSION)
    }

    /// Wraps `inner` with a replay cache of `capacity` entries per
    /// session (minimum 1). Small capacities shrink the retry window —
    /// the loom model in `tests/loom_dedup.rs` uses this to make the
    /// retry-vs-eviction race explorable.
    pub fn with_capacity(inner: S, capacity: usize) -> Self {
        Self {
            inner,
            sessions: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            replays: jiffy_sync::atomic::AtomicU64::new(0),
        }
    }

    /// Convenience: wraps and Arcs in one step.
    pub fn shared(inner: S) -> Arc<Self> {
        Arc::new(Self::new(inner))
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Number of requests answered from the replay cache.
    pub fn replays(&self) -> u64 {
        self.replays.load(jiffy_sync::atomic::Ordering::Relaxed)
    }

    fn request_id(req: &Envelope) -> Option<u64> {
        match req {
            Envelope::ControlReq { id, .. } | Envelope::DataReq { id, .. } if *id != 0 => Some(*id),
            _ => None,
        }
    }

    /// Error answers mean "the request did not take effect" — a
    /// `Throttled` deferral precedes execution, and every other error
    /// leaves the target unmutated — so there is nothing whose
    /// re-execution must be suppressed. They are also not worth pinning:
    /// retries reuse their request id, so a cached `Throttled` or
    /// dark-shard `Unavailable` would be replayed forever after the
    /// condition healed.
    fn is_error(resp: &Envelope) -> bool {
        matches!(
            resp,
            Envelope::DataResp { resp: Err(_), .. } | Envelope::ControlResp { resp: Err(_), .. }
        )
    }
}

impl<S: Service> Service for Deduplicated<S> {
    fn handle(&self, req: Envelope, session: &SessionHandle) -> Envelope {
        let Some(id) = Self::request_id(&req) else {
            return self.inner.handle(req, session);
        };
        if let Some(cache) = self.sessions.lock().get_mut(&session.id()) {
            if let Some(resp) = cache.lookup(id) {
                self.replays
                    .fetch_add(1, jiffy_sync::atomic::Ordering::Relaxed);
                return resp.clone();
            }
        }
        // Not holding the lock during the inner call: concurrent in-flight
        // duplicates may both execute (same race exists on a real network);
        // the cache closes the much wider retry-after-timeout window.
        let resp = self.inner.handle(req, session);
        if !Self::is_error(&resp) {
            self.sessions
                .lock()
                .entry(session.id())
                .or_insert_with(|| ReplayWindow::new(self.capacity, u64::MAX))
                .insert(id, resp.clone(), 0);
        }
        resp
    }

    fn on_disconnect(&self, session: &SessionHandle) {
        self.sessions.lock().remove(&session.id());
        self.inner.on_disconnect(session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_proto::{DataRequest, DataResponse, DsResult};
    use jiffy_sync::atomic::{AtomicUsize, Ordering};

    /// Returns a fresh counter value per executed request, so replayed
    /// responses are distinguishable from re-executions.
    struct Stamping {
        executed: AtomicUsize,
    }

    impl Service for Stamping {
        fn handle(&self, req: Envelope, _s: &SessionHandle) -> Envelope {
            let n = self.executed.fetch_add(1, Ordering::SeqCst) as u64;
            match req {
                Envelope::DataReq { id, .. } => Envelope::DataResp {
                    id,
                    resp: Ok(DataResponse::OpResult(DsResult::Size(n))),
                },
                Envelope::ControlReq { id, .. } => Envelope::DataResp {
                    id,
                    resp: Ok(DataResponse::OpResult(DsResult::Size(n))),
                },
                _ => unreachable!(),
            }
        }
    }

    fn svc() -> Deduplicated<Stamping> {
        Deduplicated::new(Stamping {
            executed: AtomicUsize::new(0),
        })
    }

    fn session() -> SessionHandle {
        SessionHandle::new(Arc::new(|_| {}))
    }

    fn req(id: u64) -> Envelope {
        Envelope::DataReq {
            id,
            req: DataRequest::Ping,
            tenant: jiffy_common::TenantId::ANONYMOUS,
        }
    }

    #[test]
    fn repeated_id_replays_cached_response() {
        let d = svc();
        let s = session();
        let first = d.handle(req(7), &s);
        let second = d.handle(req(7), &s);
        assert_eq!(first, second);
        assert_eq!(d.inner().executed.load(Ordering::SeqCst), 1);
        assert_eq!(d.replays(), 1);
    }

    #[test]
    fn id_zero_bypasses_cache() {
        let d = svc();
        let s = session();
        let a = d.handle(req(0), &s);
        let b = d.handle(req(0), &s);
        assert_ne!(a, b);
        assert_eq!(d.inner().executed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn sessions_are_isolated() {
        let d = svc();
        let (s1, s2) = (session(), session());
        let a = d.handle(req(7), &s1);
        let b = d.handle(req(7), &s2);
        assert_ne!(a, b);
        assert_eq!(d.inner().executed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn disconnect_drops_the_session_cache() {
        let d = svc();
        let s = session();
        let a = d.handle(req(7), &s);
        d.on_disconnect(&s);
        let b = d.handle(req(7), &s);
        assert_ne!(a, b);
    }

    #[test]
    fn cache_is_bounded_lru() {
        let d = svc();
        let s = session();
        let first = d.handle(req(1), &s);
        // Push enough distinct ids to evict id 1.
        for id in 2..(DEDUP_CACHE_PER_SESSION as u64 + 2) {
            d.handle(req(id), &s);
        }
        let again = d.handle(req(1), &s);
        assert_ne!(first, again); // re-executed after eviction
                                  // But recent ids are still cached.
        let recent = DEDUP_CACHE_PER_SESSION as u64 + 1;
        assert_eq!(d.handle(req(recent), &s), d.handle(req(recent), &s));
    }

    #[test]
    fn actively_retried_ids_stay_resident() {
        // A lookup refreshes recency: an id that keeps being retried is
        // not evicted by newer traffic, unlike under FIFO.
        let d = svc();
        let s = session();
        let first = d.handle(req(1), &s);
        for id in 2..(DEDUP_CACHE_PER_SESSION as u64) {
            d.handle(req(id), &s);
            assert_eq!(d.handle(req(1), &s), first); // touch
        }
        // Two more distinct ids would evict the FIFO-oldest (1) but must
        // evict an idle id instead.
        d.handle(req(10_001), &s);
        d.handle(req(10_002), &s);
        assert_eq!(d.handle(req(1), &s), first);
    }

    #[test]
    fn error_responses_are_not_cached() {
        // An error answer means "did not execute" (throttles precede
        // execution; other errors leave the target unmutated), so a
        // retry with the same id must reach the service again rather
        // than replay a possibly-healed rejection forever.
        struct FailOnce {
            executed: AtomicUsize,
        }
        impl Service for FailOnce {
            fn handle(&self, req: Envelope, _s: &SessionHandle) -> Envelope {
                let n = self.executed.fetch_add(1, Ordering::SeqCst);
                let id = match req {
                    Envelope::DataReq { id, .. } => id,
                    _ => unreachable!(),
                };
                if n == 0 {
                    Envelope::DataResp {
                        id,
                        resp: Err(jiffy_common::JiffyError::Throttled { retry_after_ms: 1 }),
                    }
                } else if n == 1 {
                    Envelope::DataResp {
                        id,
                        resp: Err(jiffy_common::JiffyError::StaleMetadata),
                    }
                } else {
                    Envelope::DataResp {
                        id,
                        resp: Ok(DataResponse::Pong),
                    }
                }
            }
        }
        let d = Deduplicated::new(FailOnce {
            executed: AtomicUsize::new(0),
        });
        let s = session();
        let first = d.handle(req(21), &s);
        assert!(Deduplicated::<FailOnce>::is_error(&first));
        let second = d.handle(req(21), &s);
        assert!(Deduplicated::<FailOnce>::is_error(&second));
        let third = d.handle(req(21), &s);
        assert_eq!(
            third,
            Envelope::DataResp {
                id: 21,
                resp: Ok(DataResponse::Pong)
            }
        );
        assert_eq!(d.inner().executed.load(Ordering::SeqCst), 3);
        assert_eq!(d.replays(), 0);
        // The successful answer IS cached.
        let fourth = d.handle(req(21), &s);
        assert_eq!(third, fourth);
        assert_eq!(d.replays(), 1);
    }

    #[test]
    fn control_requests_are_deduplicated_too() {
        let d = svc();
        let s = session();
        let req = |id| Envelope::ControlReq {
            id,
            req: jiffy_proto::ControlRequest::RegisterJob { name: "t".into() },
            tenant: jiffy_common::TenantId::ANONYMOUS,
        };
        let a = d.handle(req(9), &s);
        let b = d.handle(req(9), &s);
        assert_eq!(a, b);
        assert_eq!(d.inner().executed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn window_evicts_lru_within_entry_and_byte_bounds() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(3, 100);
        w.insert(1, 10, 40);
        w.insert(2, 20, 40);
        assert_eq!(w.lookup(1), Some(&10)); // touch 1: 2 is now LRU
        w.insert(3, 30, 40); // 120 bytes > 100: evict 2
        assert_eq!(w.len(), 2);
        assert_eq!(w.bytes(), 80);
        assert_eq!(w.lookup(2), None);
        assert_eq!(w.lookup(1), Some(&10));
        assert!(w.watermark() > 0);
        // Entry-count bound.
        w.insert(4, 40, 1);
        w.insert(5, 50, 1);
        assert_eq!(w.len(), 3);
        // First insert wins on a repeated id.
        w.insert(5, 99, 1);
        assert_eq!(w.lookup(5), Some(&50));
    }

    /// A block is reset when it is freed and recorded into when it is
    /// reused: the table grown for its last owner must not stay behind.
    #[test]
    fn clear_releases_the_table() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(512, 1 << 20);
        for id in 0..512u64 {
            w.insert(id, id, 8);
        }
        assert!(w.entries.capacity() >= 512);
        w.clear();
        assert_eq!(w.entries.capacity(), 0);
        assert_eq!((w.len(), w.bytes(), w.watermark()), (0, 0, 0));
        w.insert(7, 70, 8);
        assert_eq!(w.lookup(7), Some(&70));
    }

    #[test]
    fn window_export_import_round_trips() {
        let mut w: ReplayWindow<u64> = ReplayWindow::new(4, 1000);
        for id in 1..=6u64 {
            w.insert(id, id * 100, 8);
        }
        w.lookup(3);
        let bytes = w.export_bytes().unwrap();
        let mut restored: ReplayWindow<u64> = ReplayWindow::new(4, 1000);
        restored.import_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), w.len());
        assert_eq!(restored.bytes(), w.bytes());
        assert_eq!(restored.watermark(), w.watermark());
        assert_eq!(restored.export_bytes().unwrap(), bytes);
        // Merge into a non-empty window keeps resident entries.
        let mut target: ReplayWindow<u64> = ReplayWindow::new(8, 1000);
        target.insert(3, 7, 8);
        target.import_bytes(&bytes).unwrap();
        assert_eq!(target.lookup(3), Some(&7)); // resident wins
        assert_eq!(target.lookup(6), Some(&600));
    }
}
