//! Jiffy's unified control plane (paper §4.2.1, Fig. 7).
//!
//! The controller maintains two pieces of system-wide state: the **free
//! block list** (blocks not yet allocated to any job) and one **address
//! hierarchy per job** (a DAG mirroring the job's execution plan, whose
//! nodes carry permissions, lease timestamps, block maps and
//! data-structure partitioning metadata). On top of that state sit:
//!
//! - [`freelist`] — server registration and block allocation.
//! - [`hierarchy`] — the per-job address DAG and its lease-propagation
//!   closure (renewing a prefix renews its direct parents and all
//!   descendants, §3.2 / Fig. 5).
//! - [`meta`] — per-data-structure partitioning metadata (the "metadata
//!   manager"): file chunk lists, queue segment lists, KV slot maps, and
//!   the split/merge planning used for elastic scaling (§3.3).
//! - [`controller`] — the [`Controller`] service tying it together:
//!   request dispatch, lease expiry (flush to the persistent tier, then
//!   reclaim), and repartition orchestration (Fig. 8).
//! - [`journal`] — the write-ahead metadata journal, snapshots, and
//!   deterministic replay that make the controller crash-recoverable
//!   (DESIGN.md §11).
//! - [`sharding`] — partitioning jobs (`job % N`) across multiple controller
//!   shards (multi-core / multi-server scaling, Fig. 12b).
//!
//! [`Controller`]: controller::Controller

pub mod controller;
pub mod freelist;
pub mod hierarchy;
pub mod journal;
pub mod meta;
pub mod sharding;

pub use controller::{
    Controller, ControllerHandle, Counters, DataPlane, NoopDataPlane, RpcDataPlane, ShardIdentity,
};
pub use freelist::{FreeList, FreeListMirror, ServerMirror};
pub use hierarchy::{AddressHierarchy, Node};
pub use journal::{JobMirror, NodeMirror, StateMirror};
pub use meta::DsMeta;
pub use sharding::ShardedController;
