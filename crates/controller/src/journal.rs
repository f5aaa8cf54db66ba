//! Controller crash recovery: the journaled tables, their one
//! transition function, the metadata journal, snapshots, and replay
//! (DESIGN.md §11).
//!
//! A shard's journaled metadata is one struct, [`Tables`], and
//! [`Tables::apply_op`] is the only code that changes it for a typed
//! [`JournalOp`] record — live and in replay alike. A dispatch arm
//! decides against the unchanged tables, runs its data-plane effects,
//! and hands its records to `commit`, which applies them and then
//! appends them to a journal in the persistent tier *before* the
//! controller acknowledges. Records are outcome-carrying — they log the
//! results of non-deterministic choices (allocated chains, chosen merge
//! targets, issued ids) — so applying one is a pure fold over metadata:
//! it touches neither the allocator's policy nor the data plane. Every
//! arm checks before it mutates, so a record that cannot apply (and the
//! request that produced it) leaves no trace. Drain, migration and
//! failure handling are no exception: they journal `ServerDraining`,
//! `ChainRewired`, `ServerFailed` and `ServerRemoved` records (plus the
//! `PrefixFlushed` / `PrefixLoaded` pair of a reload). `StateRewritten`,
//! the whole-state record older builds wrote for those three, is only
//! ever decoded.
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
//! Recovery ([`recover_from`]) installs the newest snapshot into empty
//! tables, applies every journal record with a sequence number greater
//! than the snapshot's `last_seq` in order (skipping duplicates), and
//! hands the tables to [`Controller::recover`](crate::Controller::recover),
//! which re-arms leases and seeds the failure detector from the recovery
//! clock — the journal is authoritative for metadata, heartbeats for
//! liveness. [`JournalOp::Answered`] records rebuild the replay window.
//! Records are a stable format; a [`StateMirror`] is not ([`decode_mirror`]).

use jiffy_sync::Arc;
use std::collections::HashMap;
use std::time::Duration;

use jiffy_common::config::QosConfig;
use jiffy_common::id::IdGen;
use jiffy_common::{BlockId, JiffyError, JobId, Result, TenantId};
use jiffy_persistent::ObjectStore;
use jiffy_proto::{
    from_bytes, to_bytes, BlockLocation, JournalBatch, JournalOp, JournalRecord, JournalSnapshot,
    TenantLimit,
};
use jiffy_qos::TenantDirectory;
use jiffy_rpc::ReplayWindow;
use serde::{Deserialize, Serialize};

use crate::controller::{Counters, JobEntry};
use crate::freelist::{FreeList, FreeListMirror};
use crate::hierarchy::{AddressHierarchy, Node, Permissions};
use crate::meta::DsMeta;

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

/// A shard replay window, bounded like a block's (512 answers, 1 MiB):
/// far above the control requests a shard has in flight. Answers are
/// kept wire-encoded, a few dozen bytes instead of a `ControlResponse`.
pub(crate) fn answer_window() -> ReplayWindow<Vec<u8>> {
    ReplayWindow::new(512, 1 << 20)
}

/// Records the encoded `answer` to `rid`, weighted by its size plus
/// per-entry bookkeeping, live and in replay alike.
pub(crate) fn record_answer(window: &mut ReplayWindow<Vec<u8>>, rid: u64, answer: Vec<u8>) {
    let weight = answer.len() as u64 + 48;
    window.insert(rid, answer, weight);
}

/// A deterministic, order-independent serialization of the controller's
/// entire metadata state: jobs and their address hierarchies, the block
/// freelist/membership table, the block→owner reverse map, counters, the
/// job-id high-water mark, tenant limits and the replay window.
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
    /// The replay window's `(request id, encoded answer)` pairs, least
    /// recently used first.
    pub answered: Vec<(u64, Vec<u8>)>,
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
    /// as serving), every lease clock (recovery re-arms all leases to
    /// the restart instant) and the replay window's recency order (touches
    /// are not journaled). Everything else must match exactly.
    #[must_use]
    pub fn normalized(&self) -> StateMirror {
        let mut m = self.clone();
        m.counters.ops_served = 0;
        m.answered.sort_by_key(|(rid, _)| *rid);
        for job in &mut m.jobs {
            for node in &mut job.nodes {
                node.last_renewal_micros = 0;
            }
        }
        m
    }
}

/// The journaled tables of one controller shard: everything replay
/// rebuilds and a [`StateMirror`] captures. [`Tables::apply_op`] is the
/// one transition function over them — the live controller applies each
/// record it journals with it, and recovery replays the journal with it.
pub(crate) struct Tables {
    pub(crate) jobs: HashMap<JobId, JobEntry>,
    /// The freelist / server-membership table.
    pub(crate) freelist: FreeList,
    /// Reverse map: logical block → (job, node) for overload routing.
    pub(crate) block_owner: HashMap<BlockId, (JobId, String)>,
    pub(crate) counters: Counters,
    /// Per-tenant QoS configuration (shares, quotas, rate limits).
    pub(crate) tenants: TenantDirectory,
    /// Answers to client-stamped mutations by request id.
    pub(crate) answered: ReplayWindow<Vec<u8>>,
    /// The job-id frontier: `current()` is the id the next
    /// `JobRegistered` gets.
    pub(crate) job_ids: IdGen,
    /// `(index, count)`: this shard mints job, server and block ids
    /// ≡ `index` (mod `count`).
    stride: (u64, u64),
}

fn job_mut(jobs: &mut HashMap<JobId, JobEntry>, job: JobId) -> Result<&mut JobEntry> {
    jobs.get_mut(&job).ok_or(JiffyError::UnknownJob(job.raw()))
}

/// Every replica block of `locs`, chain by chain.
pub(crate) fn blocks_of(locs: &[BlockLocation]) -> Vec<BlockId> {
    locs.iter()
        .flat_map(|loc| loc.chain.iter().map(|r| r.block))
        .collect()
}

impl Tables {
    /// Empty tables for shard `index` of `count`.
    pub(crate) fn new(qos: QosConfig, index: u64, count: u64) -> Self {
        let freelist = FreeList::new();
        freelist.set_id_stride(index, count);
        Self {
            jobs: HashMap::new(),
            freelist,
            block_owner: HashMap::new(),
            counters: Counters::default(),
            tenants: TenantDirectory::new(qos),
            answered: answer_window(),
            job_ids: IdGen::strided(index, count),
            stride: (index, count),
        }
    }

    /// The registered job `job`.
    pub(crate) fn job(&self, job: JobId) -> Result<&JobEntry> {
        self.jobs.get(&job).ok_or(JiffyError::UnknownJob(job.raw()))
    }

    /// A deterministic [`StateMirror`] of the tables.
    pub(crate) fn mirror(&self) -> StateMirror {
        let mut jobs: Vec<JobMirror> = self
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
                        last_renewal_micros: micros(node.last_renewal),
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
        let mut block_owner: Vec<(u64, u64, String)> = self
            .block_owner
            .iter()
            .map(|(b, (j, n))| (b.raw(), j.raw(), n.clone()))
            .collect();
        block_owner.sort();
        StateMirror {
            jobs,
            freelist: self.freelist.mirror(),
            block_owner,
            counters: self.counters.clone(),
            next_job_id: self.job_ids.current(),
            tenants: self.tenants.snapshot(),
            answered: self.answered.entries(),
        }
    }

    /// Replaces every table with the contents of `mirror` (snapshot
    /// install and the replay of an old `StateRewritten`); on error
    /// nothing changes.
    fn install_mirror(&mut self, mirror: &StateMirror) -> Result<()> {
        let (index, count) = self.stride;
        let freelist = FreeList::from_mirror(&mirror.freelist)?;
        freelist.set_id_stride(index, count);
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
            let entry = JobEntry {
                name: jm.name.clone(),
                hierarchy,
                tenant: TenantId(jm.tenant),
            };
            jobs.insert(JobId(jm.job), entry);
        }
        self.jobs = jobs;
        self.freelist = freelist;
        self.block_owner = mirror
            .block_owner
            .iter()
            .map(|(b, j, n)| (BlockId(*b), (JobId(*j), n.clone())))
            .collect();
        self.counters = mirror.counters.clone();
        self.job_ids = IdGen::starting_at(mirror.next_job_id);
        self.job_ids.set_stride(index, count);
        self.tenants.install(mirror.tenants.clone());
        self.answered = answer_window();
        for (rid, answer) in &mirror.answered {
            record_answer(&mut self.answered, *rid, answer.clone());
        }
        Ok(())
    }

    /// Allocates `locs` to node `name` of `job`: claims every replica
    /// (all or none) and records each chain's owner.
    fn claim_chains(&mut self, job: JobId, name: &str, locs: &[BlockLocation]) -> Result<()> {
        self.freelist.claim(&blocks_of(locs))?;
        for loc in locs {
            self.block_owner.insert(loc.id(), (job, name.to_string()));
        }
        Ok(())
    }

    /// Returns `blocks` to the pool and drops their owner entries.
    pub(crate) fn release(&mut self, blocks: &[BlockId]) {
        for block in blocks {
            self.block_owner.remove(block);
            let _ = self.freelist.release(*block);
        }
    }

    /// Applies one journal record. Pure metadata: no allocator policy, no
    /// data-plane calls, no clock reads. Every arm checks before it
    /// mutates, so a record that fails to apply changes nothing.
    #[allow(clippy::too_many_lines)] // one arm per record type, linear
    pub(crate) fn apply_op(&mut self, op: &JournalOp) -> Result<()> {
        match op {
            JournalOp::JobRegistered { job, name, tenant } => {
                if self.jobs.contains_key(job) {
                    return Err(JiffyError::Internal(format!("{job} registered twice")));
                }
                let entry = JobEntry {
                    name: name.clone(),
                    hierarchy: AddressHierarchy::new(),
                    tenant: *tenant,
                };
                self.jobs.insert(*job, entry);
                self.job_ids.bump_to(job.raw() + 1);
            }
            JournalOp::JobDeregistered { job } => {
                let entry = self
                    .jobs
                    .remove(job)
                    .ok_or(JiffyError::UnknownJob(job.raw()))?;
                self.release(&blocks_of(&entry.locations()));
            }
            JournalOp::PrefixCreated {
                job,
                name,
                parents,
                locs,
                skeleton,
                now_micros,
            } => {
                let meta = match skeleton {
                    Some(sk) => Some(DsMeta::from_skeleton(&from_bytes(sk)?, locs.clone())?),
                    None => None,
                };
                self.job(*job)?
                    .hierarchy
                    .check_new_node(name, parents, &[])?;
                if meta.is_some() {
                    self.claim_chains(*job, name, locs)?;
                }
                let hierarchy = &mut job_mut(&mut self.jobs, *job)?.hierarchy;
                hierarchy.add_node(name, parents, Duration::from_micros(*now_micros))?;
                if let Some(node) = hierarchy.get_mut(name) {
                    node.ds = meta;
                }
            }
            JournalOp::ParentAdded { job, name, parent } => {
                job_mut(&mut self.jobs, *job)?
                    .hierarchy
                    .add_parent(name, parent)?;
            }
            JournalOp::PrefixRemoved { job, name } => {
                let hierarchy = &mut job_mut(&mut self.jobs, *job)?.hierarchy;
                let node = hierarchy.resolve_name(name)?;
                let locs = hierarchy
                    .get(&node)
                    .and_then(|n| n.ds.as_ref())
                    .map(DsMeta::locations)
                    .unwrap_or_default();
                hierarchy.remove_node(&node)?;
                self.release(&blocks_of(&locs));
            }
            JournalOp::LeaseRenewed {
                job,
                name,
                now_micros,
            } => {
                job_mut(&mut self.jobs, *job)?
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
                let node = job_mut(&mut self.jobs, *job)?.hierarchy.resolve_mut(name)?;
                node.flushed_to = Some(path.clone());
                if *reclaimed {
                    let locs = node.ds.take().map(|m| m.locations()).unwrap_or_default();
                    node.version += 1;
                    self.release(&blocks_of(&locs));
                    if *expired {
                        self.counters.leases_expired += 1;
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
                let meta = DsMeta::from_skeleton(&from_bytes(skeleton)?, locs.clone())?;
                let node = self.job(*job)?.hierarchy.resolve(name)?;
                if node.ds.is_some() {
                    return Err(JiffyError::Internal(format!(
                        "load record over the live data structure of {name}"
                    )));
                }
                self.claim_chains(*job, name, locs)?;
                let node = job_mut(&mut self.jobs, *job)?.hierarchy.resolve_mut(name)?;
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
                self.freelist
                    .restore_server(*server, addr.clone(), blocks)?;
            }
            JournalOp::SplitCommitted {
                job,
                name,
                source,
                spec,
                new_loc,
            } => {
                let new_blocks = blocks_of(std::slice::from_ref(new_loc));
                self.freelist.check_claim(&new_blocks)?;
                let node = job_mut(&mut self.jobs, *job)?.hierarchy.resolve_mut(name)?;
                let meta = node.ds.as_mut().ok_or_else(|| {
                    JiffyError::Internal(format!("split record for ds-less prefix {name}"))
                })?;
                meta.commit_split(*source, spec, new_loc.clone())?;
                node.version += 1;
                self.claim_chains(*job, name, std::slice::from_ref(new_loc))?;
                self.counters.splits += 1;
            }
            JournalOp::MergeCommitted {
                job,
                name,
                source,
                spec,
                target,
                released,
            } => {
                let node = job_mut(&mut self.jobs, *job)?.hierarchy.resolve_mut(name)?;
                let meta = node.ds.as_mut().ok_or_else(|| {
                    JiffyError::Internal(format!("merge record for ds-less prefix {name}"))
                })?;
                meta.commit_merge(*source, spec, target.as_ref())?;
                node.version += 1;
                self.release(released);
                self.counters.merges += 1;
            }
            JournalOp::ScaleEvent { up } => {
                if *up {
                    self.counters.scale_ups += 1;
                } else {
                    self.counters.scale_downs += 1;
                }
            }
            JournalOp::StateRewritten { mirror } => {
                self.install_mirror(&decode_mirror(mirror)?)?;
            }
            JournalOp::TenantConfigured {
                tenant,
                share,
                quota_bytes,
                ops_per_sec,
                bytes_per_sec,
            } => {
                self.tenants
                    .set(*tenant, *share, *quota_bytes, *ops_per_sec, *bytes_per_sec);
            }
            JournalOp::Answered { rid, resp } => {
                record_answer(&mut self.answered, *rid, to_bytes(resp)?);
            }
            JournalOp::ServerDraining { server } => self.freelist.mark_draining(*server)?,
            JournalOp::ServerFailed { server } => {
                self.freelist.mark_dead(*server)?;
                self.counters.servers_failed += 1;
            }
            JournalOp::ChainRewired {
                job,
                name,
                old,
                new,
                released,
            } => {
                // A promotion keeps the survivors' blocks; a migration
                // claims every block of the new chain.
                let held = blocks_of(std::slice::from_ref(old));
                let mut claimed = blocks_of(std::slice::from_ref(new));
                claimed.retain(|b| !held.contains(b));
                self.freelist.check_claim(&claimed)?;
                let node = job_mut(&mut self.jobs, *job)?.hierarchy.resolve_mut(name)?;
                let meta = node.ds.as_mut().ok_or_else(|| {
                    JiffyError::Internal(format!("rewire record for ds-less prefix {name}"))
                })?;
                meta.replace_location(old.id(), new.clone())?;
                node.version += 1;
                self.release(released);
                self.block_owner.remove(&old.id());
                self.freelist.claim(&claimed)?;
                self.block_owner.insert(new.id(), (*job, name.clone()));
                self.counters.blocks_migrated += claimed.len() as u64;
            }
            JournalOp::ServerRemoved { server } => {
                self.freelist.deregister_server(*server)?;
            }
        }
        Ok(())
    }
}

/// A clock reading in whole microseconds, as records and mirrors carry it.
pub(crate) fn micros(at: Duration) -> u64 {
    u64::try_from(at.as_micros()).unwrap_or(u64::MAX)
}

/// Decodes a wire-encoded [`StateMirror`]; one written before the replay
/// window joined it ends a field early and decodes with an empty window.
pub(crate) fn decode_mirror(bytes: &[u8]) -> Result<StateMirror> {
    from_bytes(bytes).or_else(|err| {
        let mut padded = bytes.to_vec();
        padded.extend(to_bytes(&Vec::<(u64, Vec<u8>)>::new())?);
        from_bytes(&padded).map_err(|_| err)
    })
}

/// Extracts the zero-padded sequence suffix from an object path.
fn parse_seq(path: &str, prefix: &str) -> Option<u64> {
    path.strip_prefix(prefix)?.parse().ok()
}

/// Rebuilds a shard's tables from the persistent tier onto `tables`
/// (empty, carrying the shard's id stride and QoS defaults): newest
/// snapshot first, then every journal record past it, in order, skipping
/// already-applied sequence numbers (replay is idempotent — applying the
/// same journal twice yields identical state). Also returns the sequence
/// number the resumed journal should issue next.
pub(crate) fn recover_from(
    store: &dyn ObjectStore,
    meta_prefix: &str,
    mut tables: Tables,
) -> Result<(Tables, u64)> {
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
        tables.install_mirror(&decode_mirror(&snap.mirror)?)?;
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
            tables.apply_op(&record.op)?;
            last_applied = Some(record.seq);
        }
    }
    Ok((tables, last_applied.map_or(0, |l| l + 1)))
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
