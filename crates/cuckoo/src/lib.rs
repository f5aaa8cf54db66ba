//! Cuckoo hashing for Jiffy's KV-store blocks.
//!
//! The paper stores each block's key-value pairs in a cuckoo hash table
//! (libcuckoo) for highly concurrent KV operations (§5.3). This crate is
//! that substrate built from scratch:
//!
//! - [`CuckooMap`] — the core table: two hash functions, 4-way set
//!   associative buckets, breadth-first-search eviction paths, automatic
//!   doubling when an insert cannot find a path.
//!
//! Lookups probe at most two buckets (eight slots) — constant worst-case
//! read cost, which is what makes cuckoo tables attractive for a memory
//! server's hot path.

pub mod map;

pub use map::CuckooMap;
