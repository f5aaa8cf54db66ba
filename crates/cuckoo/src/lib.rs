//! Cuckoo hashing for Jiffy's KV-store blocks.
//!
//! The paper stores each block's key-value pairs in a cuckoo hash table
//! (libcuckoo) for highly concurrent KV operations (§5.3). This crate is
//! that substrate built from scratch:
//!
//! - [`CuckooMap`] — the core table: two candidate buckets per key
//!   (both from one stored 64-bit hash), 4-way set associative buckets,
//!   breadth-first-search eviction paths, and a load cap: an insert
//!   doubles the table before it would fill more than 90 % of the slots
//!   (or, rarely, when no eviction path exists), and
//!   [`CuckooMap::reserve`] sizes it once for a known number of new
//!   keys. Growing only on a failed search ran tables at ~95 % load,
//!   where almost every new key paid a long BFS: 120 KV pairs of 1 KB
//!   took ~380 µs to insert into `CuckooMap::new()`, 25× a
//!   `std::HashMap`. With the cap, and with no key hashed twice, they
//!   take ~19 µs, 1.25× (the `cuckoo_absorb_120x1k` bench).
//!
//! Lookups probe at most two buckets (eight slots) — constant worst-case
//! read cost, which is what makes cuckoo tables attractive for a memory
//! server's hot path.

pub mod map;

pub use map::CuckooMap;
