//! Controller crash recovery: metadata journal, snapshots, and replay
//! (DESIGN.md §11).
//!
//! Every mutating control-plane operation appends a typed
//! [`JournalOp`] record to a write-ahead journal in the persistent tier
//! *before* the controller acknowledges it. Records are
//! outcome-carrying — they log the results of non-deterministic choices
//! (allocated chains, chosen merge targets, issued ids) — so replay is a
//! pure fold over metadata: it touches neither the allocator's policy
//! nor the data plane.
//!
//! Layout in the object store:
//!
//! - `jiffy-meta/journal/{first_seq:020}` — one [`JournalBatch`] per
//!   dispatch that mutated state. Object puts are atomic (temp file +
//!   fsync + rename), so the observable crash points are exactly the
//!   batch boundaries.
//! - `jiffy-meta/snapshot/{last_seq:020}` — a [`JournalSnapshot`]
//!   wrapping a wire-encoded [`StateMirror`]. Written every
//!   `meta_snapshot_every` records; once durable, fully-covered journal
//!   batches and older snapshots are deleted (truncation is best-effort:
//!   replay dedupes by sequence number, so stale objects are harmless).
//!
//! Recovery loads the newest snapshot, replays every journal record with
//! a sequence number greater than the snapshot's `last_seq` in order
//! (skipping duplicates), and hands the rebuilt tables to
//! [`Controller::recover`](crate::Controller::recover), which re-arms
//! leases and seeds the failure detector from the recovery clock —
//! the journal is authoritative for metadata, heartbeats for liveness.

use jiffy_sync::Arc;
use std::collections::HashMap;
use std::time::Duration;

use jiffy_common::{BlockId, JiffyError, JobId, Result, TenantId};
use jiffy_persistent::ObjectStore;
use jiffy_proto::{
    from_bytes, to_bytes, JournalBatch, JournalOp, JournalRecord, JournalSnapshot, TenantLimit,
};
use serde::{Deserialize, Serialize};

use crate::controller::{Counters, CtrlState, JobEntry};
use crate::freelist::{FreeList, FreeListMirror};
use crate::hierarchy::{AddressHierarchy, Node, Permissions};
use crate::meta::{DsMeta, DsSkeleton};

/// Object-store prefix under which a one-shard control plane's metadata
/// lives. Shard `i` of a larger one uses `jiffy-meta/shard-{i}/`
/// instead, giving every shard its own journal and snapshot stream (see
/// [`Journal::fresh`] / [`recover_from`], which take the prefix
/// explicitly).
pub(crate) const META_PREFIX: &str = "jiffy-meta/";
/// Journal batch objects live at `{meta_prefix}journal/{first_seq:020}`.
const JOURNAL_DIR: &str = "journal/";
/// Snapshot objects live at `{meta_prefix}snapshot/{last_seq:020}`.
const SNAPSHOT_DIR: &str = "snapshot/";

/// A deterministic, order-independent serialization of the controller's
/// entire metadata state: jobs and their address hierarchies, the block
/// freelist/membership table, the block→owner reverse map, counters, and
/// the job-id high-water mark.
///
/// Mirrors built from two controllers with identical logical state are
/// `==` (collections are emitted in sorted order), which is what the
/// crash-point sweep tests lean on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateMirror {
    /// Jobs sorted by id.
    pub jobs: Vec<JobMirror>,
    /// The freelist / server-membership table.
    pub freelist: FreeListMirror,
    /// `(block, job, node)` triples sorted by block id.
    pub block_owner: Vec<(u64, u64, String)>,
    /// Monotonic stats counters.
    pub counters: Counters,
    /// Next job id the generator would issue.
    pub next_job_id: u64,
    /// Explicitly configured tenant QoS limits, sorted by tenant id.
    pub tenants: Vec<TenantLimit>,
}

/// One job's slice of a [`StateMirror`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMirror {
    /// Raw job id.
    pub job: u64,
    /// Client-supplied job name.
    pub name: String,
    /// Hierarchy nodes sorted by name.
    pub nodes: Vec<NodeMirror>,
    /// Raw tenant id the job is accounted against.
    pub tenant: u64,
}

/// One hierarchy node's slice of a [`StateMirror`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMirror {
    /// Node path.
    pub name: String,
    /// Parent edges in insertion order.
    pub parents: Vec<String>,
    /// Child edges in insertion order.
    pub children: Vec<String>,
    /// Lease clock at last renewal (microseconds).
    pub last_renewal_micros: u64,
    /// Read permission bit.
    pub read: bool,
    /// Write permission bit.
    pub write: bool,
    /// Partitioning metadata, if the node carries a data structure.
    pub ds: Option<DsMeta>,
    /// Persistent-tier path of the last flush, if any.
    pub flushed_to: Option<String>,
    /// Metadata version (bumped on every repartition).
    pub version: u64,
}

impl StateMirror {
    /// A copy with the fields that legitimately differ across a
    /// crash/recover cycle zeroed: `ops_served` (replay does not count
    /// as serving) and every lease clock (recovery re-arms all leases to
    /// the restart instant). Everything else must match exactly.
    #[must_use]
    pub fn normalized(&self) -> StateMirror {
        let mut m = self.clone();
        m.counters.ops_served = 0;
        for job in &mut m.jobs {
            for node in &mut job.nodes {
                node.last_renewal_micros = 0;
            }
        }
        m
    }
}

/// Builds a [`StateMirror`] from live controller tables.
pub(crate) fn mirror_of(st: &CtrlState, next_job_id: u64) -> StateMirror {
    let mut jobs: Vec<JobMirror> = st
        .jobs
        .iter()
        .map(|(id, entry)| {
            let nodes = entry
                .hierarchy
                .names()
                .iter()
                .filter_map(|n| entry.hierarchy.get(n))
                .map(|node| NodeMirror {
                    name: node.name.clone(),
                    parents: node.parents.clone(),
                    children: node.children.clone(),
                    last_renewal_micros: u64::try_from(node.last_renewal.as_micros())
                        .unwrap_or(u64::MAX),
                    read: node.permissions.read,
                    write: node.permissions.write,
                    ds: node.ds.clone(),
                    flushed_to: node.flushed_to.clone(),
                    version: node.version,
                })
                .collect();
            JobMirror {
                job: id.raw(),
                name: entry.name.clone(),
                nodes,
                tenant: entry.tenant.raw(),
            }
        })
        .collect();
    jobs.sort_by_key(|j| j.job);
    let mut block_owner: Vec<(u64, u64, String)> = st
        .block_owner
        .iter()
        .map(|(b, (j, n))| (b.raw(), j.raw(), n.clone()))
        .collect();
    block_owner.sort();
    StateMirror {
        jobs,
        freelist: st.freelist.mirror(),
        block_owner,
        counters: st.counters.clone(),
        next_job_id,
        tenants: st.tenants.snapshot(),
    }
}

/// The metadata tables rebuilt by [`recover_from`], ready to be wrapped
/// into a fresh `CtrlState` by `Controller::recover`.
pub(crate) struct RecoveredState {
    pub(crate) jobs: HashMap<JobId, JobEntry>,
    pub(crate) freelist: FreeList,
    pub(crate) block_owner: HashMap<BlockId, (JobId, String)>,
    pub(crate) counters: Counters,
    pub(crate) next_job_id: u64,
    /// Sequence number the resumed journal should issue next.
    pub(crate) next_seq: u64,
    /// Explicitly configured tenant QoS limits.
    pub(crate) tenants: Vec<TenantLimit>,
}

impl RecoveredState {
    fn empty() -> Self {
        Self {
            jobs: HashMap::new(),
            freelist: FreeList::new(),
            block_owner: HashMap::new(),
            counters: Counters::default(),
            next_job_id: 0,
            next_seq: 0,
            tenants: Vec::new(),
        }
    }

    /// Replaces every table with the contents of `mirror` (snapshot
    /// install and `StateRewritten` replay).
    fn install_mirror(&mut self, mirror: &StateMirror) -> Result<()> {
        let mut jobs = HashMap::new();
        for jm in &mirror.jobs {
            let mut hierarchy = AddressHierarchy::new();
            for nm in &jm.nodes {
                hierarchy.insert_node(Node {
                    name: nm.name.clone(),
                    parents: nm.parents.clone(),
                    children: nm.children.clone(),
                    last_renewal: Duration::from_micros(nm.last_renewal_micros),
                    permissions: Permissions {
                        read: nm.read,
                        write: nm.write,
                    },
                    ds: nm.ds.clone(),
                    flushed_to: nm.flushed_to.clone(),
                    version: nm.version,
                });
            }
            jobs.insert(
                JobId(jm.job),
                JobEntry {
                    name: jm.name.clone(),
                    hierarchy,
                    tenant: TenantId(jm.tenant),
                },
            );
        }
        self.jobs = jobs;
        self.freelist = FreeList::from_mirror(&mirror.freelist)?;
        self.block_owner = mirror
            .block_owner
            .iter()
            .map(|(b, j, n)| (BlockId(*b), (JobId(*j), n.clone())))
            .collect();
        self.counters = mirror.counters.clone();
        self.next_job_id = mirror.next_job_id;
        self.tenants = mirror.tenants.clone();
        Ok(())
    }
}

fn job_mut(jobs: &mut HashMap<JobId, JobEntry>, job: JobId) -> Result<&mut JobEntry> {
    jobs.get_mut(&job).ok_or(JiffyError::UnknownJob(job.raw()))
}

/// Applies one journal record to the recovering tables. Pure metadata:
/// no allocator policy, no data-plane calls, no clock reads.
#[allow(clippy::too_many_lines)] // one arm per record type, linear
pub(crate) fn apply_op(state: &mut RecoveredState, op: &JournalOp) -> Result<()> {
    match op {
        JournalOp::JobRegistered { job, name, tenant } => {
            state.jobs.insert(
                *job,
                JobEntry {
                    name: name.clone(),
                    hierarchy: AddressHierarchy::new(),
                    tenant: *tenant,
                },
            );
            state.next_job_id = state.next_job_id.max(job.raw() + 1);
        }
        JournalOp::JobDeregistered { job } => {
            let entry = state
                .jobs
                .remove(job)
                .ok_or(JiffyError::UnknownJob(job.raw()))?;
            for name in entry.hierarchy.names() {
                let Some(node) = entry.hierarchy.get(&name) else {
                    continue;
                };
                let Some(meta) = &node.ds else { continue };
                for loc in meta.locations() {
                    for replica in &loc.chain {
                        state.block_owner.remove(&replica.block);
                        let _ = state.freelist.release(replica.block);
                    }
                }
            }
        }
        JournalOp::PrefixCreated {
            job,
            name,
            parents,
            locs,
            skeleton,
            now_micros,
        } => {
            let entry = job_mut(&mut state.jobs, *job)?;
            entry
                .hierarchy
                .add_node(name, parents, Duration::from_micros(*now_micros))?;
            if let Some(sk) = skeleton {
                let skel: DsSkeleton = from_bytes(sk)?;
                for loc in locs {
                    for replica in &loc.chain {
                        state.freelist.claim(replica.block)?;
                    }
                    state.block_owner.insert(loc.id(), (*job, name.clone()));
                }
                let meta = DsMeta::from_skeleton(&skel, locs.clone())?;
                let entry = job_mut(&mut state.jobs, *job)?;
                if let Ok(node) = entry.hierarchy.resolve_mut(name) {
                    node.ds = Some(meta);
                }
            }
        }
        JournalOp::ParentAdded { job, name, parent } => {
            job_mut(&mut state.jobs, *job)?
                .hierarchy
                .add_parent(name, parent)?;
        }
        JournalOp::PrefixRemoved { job, name } => {
            let entry = job_mut(&mut state.jobs, *job)?;
            if let Ok(node) = entry.hierarchy.resolve_mut(name) {
                let locs = node.ds.as_ref().map(DsMeta::locations).unwrap_or_default();
                node.ds = None;
                node.version += 1;
                for loc in &locs {
                    for replica in &loc.chain {
                        state.block_owner.remove(&replica.block);
                        let _ = state.freelist.release(replica.block);
                    }
                }
            }
            job_mut(&mut state.jobs, *job)?
                .hierarchy
                .remove_node(name)?;
        }
        JournalOp::LeaseRenewed {
            job,
            name,
            now_micros,
        } => {
            job_mut(&mut state.jobs, *job)?
                .hierarchy
                .renew(name, Duration::from_micros(*now_micros))?;
        }
        JournalOp::PrefixFlushed {
            job,
            name,
            path,
            reclaimed,
            expired,
        } => {
            let entry = job_mut(&mut state.jobs, *job)?;
            let node = entry.hierarchy.resolve_mut(name)?;
            node.flushed_to = Some(path.clone());
            if *reclaimed {
                let locs = node.ds.as_ref().map(DsMeta::locations).unwrap_or_default();
                node.ds = None;
                node.version += 1;
                for loc in &locs {
                    for replica in &loc.chain {
                        state.block_owner.remove(&replica.block);
                        let _ = state.freelist.release(replica.block);
                    }
                }
                if *expired {
                    state.counters.leases_expired += 1;
                }
            }
        }
        JournalOp::PrefixLoaded {
            job,
            name,
            path,
            locs,
            skeleton,
        } => {
            let skel: DsSkeleton = from_bytes(skeleton)?;
            for loc in locs {
                for replica in &loc.chain {
                    state.freelist.claim(replica.block)?;
                }
                state.block_owner.insert(loc.id(), (*job, name.clone()));
            }
            let meta = DsMeta::from_skeleton(&skel, locs.clone())?;
            let entry = job_mut(&mut state.jobs, *job)?;
            let node = entry.hierarchy.resolve_mut(name)?;
            node.ds = Some(meta);
            node.version += 1;
            node.flushed_to = Some(path.clone());
        }
        JournalOp::ServerJoined {
            server,
            addr,
            blocks,
            now_micros: _,
        } => {
            state.freelist.restore_server(*server, addr.clone(), blocks);
        }
        JournalOp::SplitCommitted {
            job,
            name,
            source,
            spec,
            new_loc,
        } => {
            for replica in &new_loc.chain {
                state.freelist.claim(replica.block)?;
            }
            state.block_owner.insert(new_loc.id(), (*job, name.clone()));
            let entry = job_mut(&mut state.jobs, *job)?;
            let node = entry.hierarchy.resolve_mut(name)?;
            let meta = node.ds.as_mut().ok_or_else(|| {
                JiffyError::Internal(format!("split record for ds-less prefix {name}"))
            })?;
            meta.commit_split(*source, spec, new_loc.clone())?;
            node.version += 1;
            state.counters.splits += 1;
        }
        JournalOp::MergeCommitted {
            job,
            name,
            source,
            spec,
            target,
            released,
        } => {
            let entry = job_mut(&mut state.jobs, *job)?;
            let node = entry.hierarchy.resolve_mut(name)?;
            let meta = node.ds.as_mut().ok_or_else(|| {
                JiffyError::Internal(format!("merge record for ds-less prefix {name}"))
            })?;
            meta.commit_merge(*source, spec, target.as_ref())?;
            node.version += 1;
            for block in released {
                state.block_owner.remove(block);
                let _ = state.freelist.release(*block);
            }
            state.counters.merges += 1;
        }
        JournalOp::ScaleEvent { up } => {
            if *up {
                state.counters.scale_ups += 1;
            } else {
                state.counters.scale_downs += 1;
            }
        }
        JournalOp::StateRewritten { mirror } => {
            let mirror: StateMirror = from_bytes(mirror)?;
            state.install_mirror(&mirror)?;
        }
        JournalOp::TenantConfigured {
            tenant,
            share,
            quota_bytes,
            ops_per_sec,
            bytes_per_sec,
        } => {
            let limit = TenantLimit {
                tenant: *tenant,
                share: (*share).max(1),
                quota_bytes: *quota_bytes,
                ops_per_sec: *ops_per_sec,
                bytes_per_sec: *bytes_per_sec,
            };
            // Upsert, keeping the vector sorted by tenant id so the
            // recovered snapshot matches the live directory's order.
            match state.tenants.binary_search_by_key(tenant, |l| l.tenant) {
                Ok(i) => state.tenants[i] = limit,
                Err(i) => state.tenants.insert(i, limit),
            }
        }
    }
    Ok(())
}

/// Extracts the zero-padded sequence suffix from an object path.
fn parse_seq(path: &str, prefix: &str) -> Option<u64> {
    path.strip_prefix(prefix)?.parse().ok()
}

/// Rebuilds controller metadata from the persistent tier: newest
/// snapshot first, then every journal record past it, in order, skipping
/// already-applied sequence numbers (replay is idempotent — applying the
/// same journal twice yields identical state).
pub(crate) fn recover_from(store: &dyn ObjectStore, meta_prefix: &str) -> Result<RecoveredState> {
    let mut state = RecoveredState::empty();
    let mut last_applied: Option<u64> = None;
    let snapshot_prefix = format!("{meta_prefix}{SNAPSHOT_DIR}");
    let journal_prefix = format!("{meta_prefix}{JOURNAL_DIR}");

    // Ignore objects whose names don't parse as sequence numbers (e.g.
    // temp files orphaned by a hard kill mid-rename).
    let mut snapshots: Vec<String> = store
        .list(&snapshot_prefix)
        .into_iter()
        .filter(|p| parse_seq(p, &snapshot_prefix).is_some())
        .collect();
    snapshots.sort();
    if let Some(path) = snapshots.last() {
        let snap: JournalSnapshot = from_bytes(&store.get(path)?)?;
        let mirror: StateMirror = from_bytes(&snap.mirror)?;
        state.install_mirror(&mirror)?;
        last_applied = Some(snap.last_seq);
    }

    let mut batches: Vec<String> = store
        .list(&journal_prefix)
        .into_iter()
        .filter(|p| parse_seq(p, &journal_prefix).is_some())
        .collect();
    batches.sort();
    for path in batches {
        let batch: JournalBatch = from_bytes(&store.get(&path)?)?;
        for record in batch.records {
            if last_applied.is_some_and(|l| record.seq <= l) {
                continue;
            }
            apply_op(&mut state, &record.op)?;
            last_applied = Some(record.seq);
        }
    }

    state.next_seq = last_applied.map_or(0, |l| l + 1);
    Ok(state)
}

/// The controller's write-ahead journal handle: sequence allocation,
/// batch appends, and snapshot/truncate bookkeeping. Lives inside
/// `CtrlState` so appends happen under the same lock as the mutations
/// they log.
pub(crate) struct Journal {
    store: Arc<dyn ObjectStore>,
    next_seq: u64,
    records_since_snapshot: u64,
    snapshot_every: u64,
    /// `{meta_prefix}journal/` — one object per appended batch.
    journal_prefix: String,
    /// `{meta_prefix}snapshot/` — one object per snapshot.
    snapshot_prefix: String,
}

impl Journal {
    /// A journal for a brand-new controller (shard): wipes any stale
    /// objects under `meta_prefix` left by a previous incarnation (a
    /// fresh controller means a fresh cluster — old block ids are
    /// meaningless). A sharded control plane passes
    /// `jiffy-meta/shard-{i}/`, so a fresh shard never touches its
    /// siblings' streams.
    pub(crate) fn fresh(
        store: Arc<dyn ObjectStore>,
        snapshot_every: u64,
        meta_prefix: &str,
    ) -> Self {
        for path in store.list(meta_prefix) {
            let _ = store.delete(&path);
        }
        Self {
            store,
            next_seq: 0,
            records_since_snapshot: 0,
            snapshot_every,
            journal_prefix: format!("{meta_prefix}{JOURNAL_DIR}"),
            snapshot_prefix: format!("{meta_prefix}{SNAPSHOT_DIR}"),
        }
    }

    /// A journal resuming after recovery, issuing `next_seq` onwards.
    pub(crate) fn resuming(
        store: Arc<dyn ObjectStore>,
        snapshot_every: u64,
        next_seq: u64,
        meta_prefix: &str,
    ) -> Self {
        Self {
            store,
            next_seq,
            records_since_snapshot: 0,
            snapshot_every,
            journal_prefix: format!("{meta_prefix}{JOURNAL_DIR}"),
            snapshot_prefix: format!("{meta_prefix}{SNAPSHOT_DIR}"),
        }
    }

    /// Appends one batch (one object) covering `ops`, assigning
    /// contiguous sequence numbers. On error the in-memory state may be
    /// ahead of the journal — that is safe, because the operation is
    /// never acknowledged and a crash discards the memory side anyway.
    pub(crate) fn append(&mut self, ops: Vec<JournalOp>) -> Result<()> {
        let first = self.next_seq;
        let records: Vec<JournalRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| JournalRecord {
                seq: first + i as u64,
                op,
            })
            .collect();
        let count = records.len() as u64;
        let batch = JournalBatch { records };
        self.store.put(
            &format!("{}{first:020}", self.journal_prefix),
            &to_bytes(&batch)?,
        )?;
        self.next_seq = first + count;
        self.records_since_snapshot += count;
        Ok(())
    }

    /// Whether enough records accumulated to warrant a snapshot.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0
            && self.next_seq > 0
            && self.records_since_snapshot >= self.snapshot_every
    }

    /// Writes a snapshot covering everything journaled so far, then
    /// truncates: deletes journal batches fully covered by it and older
    /// snapshots. Truncation is best-effort — replay dedupes by sequence
    /// number, so a crash mid-truncate leaves only harmless stale
    /// objects.
    pub(crate) fn write_snapshot(&mut self, mirror: &StateMirror) -> Result<()> {
        if self.next_seq == 0 {
            return Ok(());
        }
        let last_seq = self.next_seq - 1;
        let snap = JournalSnapshot {
            last_seq,
            mirror: to_bytes(mirror)?,
        };
        self.store.put(
            &format!("{}{last_seq:020}", self.snapshot_prefix),
            &to_bytes(&snap)?,
        )?;
        for path in self.store.list(&self.journal_prefix) {
            if parse_seq(&path, &self.journal_prefix).is_some_and(|s| s <= last_seq) {
                let _ = self.store.delete(&path);
            }
        }
        for path in self.store.list(&self.snapshot_prefix) {
            if parse_seq(&path, &self.snapshot_prefix).is_some_and(|s| s < last_seq) {
                let _ = self.store.delete(&path);
            }
        }
        self.records_since_snapshot = 0;
        Ok(())
    }
}
