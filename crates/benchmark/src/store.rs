//! The persistent tier as seen from outside: a counting, timing
//! decorator around any [`ObjectStore`].
//!
//! The cluster is always booted with this wrapper as its store, so the
//! `persistent` layer — journal records under `jiffy-meta/` as well as
//! flushed and loaded data — is observed without touching the program.
//! Counters always run (a handful of relaxed atomic adds per store call);
//! individual call spans are kept only while a traced window is open.

use jiffy_common::Result;
use jiffy_persistent::ObjectStore;
use jiffy_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use jiffy_sync::{Arc, Mutex};

use crate::host::Epoch;

/// Key prefix of the controller's journal and snapshot objects.
pub const META_PREFIX: &str = "jiffy-meta/";

/// Totals since the store was created (or since an earlier snapshot,
/// via [`StoreCounts::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `put` calls.
    pub puts: u64,
    /// Bytes handed to `put`.
    pub put_bytes: u64,
    /// `get` calls that found their object.
    pub gets: u64,
    /// Bytes returned by `get`.
    pub get_bytes: u64,
    /// `put` calls under [`META_PREFIX`] (the controller's journal).
    pub meta_puts: u64,
    /// Bytes of those journal puts.
    pub meta_put_bytes: u64,
    /// Nanoseconds spent inside the wrapped store, all calls together.
    pub busy_ns: u64,
}

impl StoreCounts {
    /// The difference `self - earlier`, field by field.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            gets: self.gets - earlier.gets,
            get_bytes: self.get_bytes - earlier.get_bytes,
            meta_puts: self.meta_puts - earlier.meta_puts,
            meta_put_bytes: self.meta_put_bytes - earlier.meta_put_bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// One timed store call, kept while span recording is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCall {
    /// `true` for `put`, `false` for `get`.
    pub is_put: bool,
    /// Start, on the benchmark's [`Epoch`].
    pub start_ns: u64,
    /// End, on the benchmark's [`Epoch`].
    pub end_ns: u64,
}

/// Counting, timing [`ObjectStore`] decorator.
pub struct CountingStore {
    inner: Arc<dyn ObjectStore>,
    epoch: Epoch,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    gets: AtomicU64,
    get_bytes: AtomicU64,
    meta_puts: AtomicU64,
    meta_put_bytes: AtomicU64,
    busy_ns: AtomicU64,
    recording: AtomicBool,
    calls: Mutex<Vec<StoreCall>>,
}

impl CountingStore {
    /// Wraps `inner`; call times are stamped on `epoch`.
    pub fn new(inner: Arc<dyn ObjectStore>, epoch: Epoch) -> Arc<Self> {
        Arc::new(Self {
            inner,
            epoch,
            puts: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
            meta_puts: AtomicU64::new(0),
            meta_put_bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Current totals.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
            meta_puts: self.meta_puts.load(Ordering::Relaxed),
            meta_put_bytes: self.meta_put_bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Turns per-call span recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Takes the call spans recorded so far.
    pub fn take_calls(&self) -> Vec<StoreCall> {
        std::mem::take(&mut *self.calls.lock())
    }

    fn note(&self, is_put: bool, start_ns: u64) {
        let end_ns = self.epoch.now_ns();
        self.busy_ns
            .fetch_add(end_ns.saturating_sub(start_ns), Ordering::Relaxed);
        if self.recording.load(Ordering::Relaxed) {
            self.calls.lock().push(StoreCall {
                is_put,
                start_ns,
                end_ns,
            });
        }
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        let start = self.epoch.now_ns();
        let r = self.inner.put(path, data);
        let bytes = data.len() as u64;
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes.fetch_add(bytes, Ordering::Relaxed);
        if path.starts_with(META_PREFIX) {
            self.meta_puts.fetch_add(1, Ordering::Relaxed);
            self.meta_put_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        self.note(true, start);
        r
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        let start = self.epoch.now_ns();
        let r = self.inner.get(path);
        if let Ok(data) = &r {
            let bytes = data.len() as u64;
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.get_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.note(false, start);
        }
        r
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_persistent::MemObjectStore;

    #[test]
    fn counts_calls_bytes_and_journal_keys() {
        let store = CountingStore::new(Arc::new(MemObjectStore::new()), Epoch::start());
        store.put("jiffy-meta/journal/1", &[0; 10]).unwrap();
        store.put("jiffy-meta/shard-1/journal/2", &[0; 5]).unwrap();
        store.put("spill/a", &[0; 100]).unwrap();
        assert_eq!(store.get("spill/a").unwrap().len(), 100);
        assert!(store.get("spill/missing").is_err());
        assert!(store.exists("spill/a"));
        assert_eq!(store.list("spill/"), vec!["spill/a".to_string()]);
        store.delete("spill/a").unwrap();
        let c = store.counts();
        assert_eq!((c.puts, c.put_bytes), (3, 115));
        assert_eq!((c.meta_puts, c.meta_put_bytes), (2, 15));
        // A miss is not a read of the tier.
        assert_eq!((c.gets, c.get_bytes), (1, 100));
        let later = {
            store.put("spill/b", &[0; 7]).unwrap();
            store.counts()
        };
        let d = later.since(&c);
        assert_eq!((d.puts, d.put_bytes, d.meta_puts, d.gets), (1, 7, 0, 0));
    }

    #[test]
    fn call_spans_only_while_recording() {
        let store = CountingStore::new(Arc::new(MemObjectStore::new()), Epoch::start());
        store.put("a", b"x").unwrap();
        assert!(store.take_calls().is_empty());
        store.set_recording(true);
        store.put("b", b"yy").unwrap();
        store.get("b").unwrap();
        store.set_recording(false);
        store.put("c", b"z").unwrap();
        let calls = store.take_calls();
        assert_eq!(calls.len(), 2);
        assert!(calls[0].is_put && calls[0].end_ns >= calls[0].start_ns);
        assert!(!calls[1].is_put);
    }
}
