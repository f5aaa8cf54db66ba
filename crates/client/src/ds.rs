//! Typed data-structure handles with client-side `getBlock` routing.

use jiffy_sync::Arc;
use std::time::Duration;

use jiffy_common::{JiffyError, Result};
use jiffy_proto::{
    Blob, BlockLocation, ControlRequest, DataRequest, DataResponse, DsOp, DsResult, Envelope,
    OpKind, PartitionView,
};
use jiffy_sync::RwLock;

use crate::job::JobClient;
use crate::listener::Listener;
use crate::rid::next_request_id;
use crate::throttle::with_throttle_backoff;

/// Retries before a routing problem is reported to the caller. Splits
/// complete in milliseconds; 100 retries with backoff spans seconds.
const MAX_ROUTING_RETRIES: usize = 100;

/// Backoff between routing retries.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Shared plumbing for the three handles: the cached partition view and
/// the refresh/retry discipline.
struct DsCore {
    job: Arc<JobClient>,
    name: String,
    view: RwLock<PartitionView>,
}

impl DsCore {
    fn open(job: Arc<JobClient>, name: &str) -> Result<Self> {
        let view = Self::fetch_view(&job, name)?;
        Ok(Self {
            job,
            name: name.to_string(),
            view: RwLock::new(view),
        })
    }

    fn fetch_view(job: &JobClient, name: &str) -> Result<PartitionView> {
        let prefix = job.resolve(name)?;
        prefix
            .partition
            .ok_or_else(|| JiffyError::WrongDataStructure {
                expected: "a bound data structure".into(),
                found: "bare prefix".into(),
            })
    }

    /// Called when a memory server disproves our routing view
    /// (`StaleMetadata` / `BlockMoved` / `UnknownBlock`): the cached
    /// resolution is wrong by construction, so bypass the metadata
    /// cache and force one fresh resolve, refilling it for everyone.
    fn refresh(&self) -> Result<()> {
        let prefix = self.job.resolve_fresh(&self.name)?;
        let view = prefix
            .partition
            .ok_or_else(|| JiffyError::WrongDataStructure {
                expected: "a bound data structure".into(),
                found: "bare prefix".into(),
            })?;
        *self.view.write() = view;
        Ok(())
    }

    fn view(&self) -> PartitionView {
        self.view.read().clone()
    }

    /// Executes a data-plane op against a block: writes go to the chain
    /// head as [`DataRequest::Replicate`] with the rest of the chain as
    /// `downstream` (empty for an unreplicated block — a chain of length
    /// 1), reads go to the tail as [`DataRequest::Op`].
    ///
    /// `rid` is the request id minted once per *logical operation* by
    /// the caller: transport retries, throttle retries, AND
    /// routing-level retries (a promoted replica after a head failure,
    /// a migrated block's new home) all resend under the same id, so a
    /// replica that already executed the write — or inherited its result
    /// via the replicated, migrated replay window — answers from the
    /// window instead of applying it twice, whichever connection the
    /// retry arrives on. Reads are not tracked; they simply re-execute.
    fn data_op(&self, loc: &BlockLocation, op: DsOp, is_write: bool, rid: u64) -> Result<DsResult> {
        let fabric = self.job.client().fabric();
        let replica = if is_write { loc.head() } else { loc.tail() };
        let block = replica.block;
        let addr = &replica.addr;
        let req = if is_write {
            DataRequest::Replicate {
                block,
                op,
                downstream: loc.chain[1..].to_vec(),
                rid,
            }
        } else {
            DataRequest::Op { block, op }
        };
        let tenant = self.job.client().tenant();
        with_throttle_backoff(|| {
            self.job.client().retry_policy().run(
                |_| {
                    let conn = fabric.connect(addr)?;
                    match conn.call(Envelope::DataReq {
                        id: rid,
                        req: req.clone(),
                        tenant,
                    })? {
                        Envelope::DataResp { resp, .. } => match resp? {
                            DataResponse::OpResult(r) => Ok(r),
                            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
                        },
                        other => Err(JiffyError::Rpc(format!("unexpected envelope: {other:?}"))),
                    }
                },
                |e| {
                    // Re-dial only when the connection itself broke; a
                    // timeout or injected unavailability leaves it usable.
                    if matches!(e, JiffyError::Rpc(_)) {
                        fabric.evict(addr);
                    }
                },
            )
        })
    }

    /// Issues one batch against a block, routing like [`Self::data_op`]:
    /// writes as [`DataRequest::ReplicateBatch`] to the chain head,
    /// reads as [`DataRequest::Batch`] to the tail. Returns the server's
    /// per-op results: a *prefix* of `ops` — the server stops at the
    /// first failing op, so every entry before the last is `Ok` and ops
    /// past the returned length were never attempted.
    ///
    /// `rids` carries one request id per op for writes (empty for
    /// reads): ids stay attached to their ops across rounds even when a
    /// retry regroups the pending ops into different batches, so every
    /// replica's replay window dedups per op, not per batch.
    fn batch_rpc(
        &self,
        loc: &BlockLocation,
        ops: &[DsOp],
        rids: &[u64],
        is_write: bool,
    ) -> Result<Vec<Result<DsResult>>> {
        let fabric = self.job.client().fabric();
        let replica = if is_write { loc.head() } else { loc.tail() };
        let block = replica.block;
        let addr = &replica.addr;
        let req = if is_write {
            DataRequest::ReplicateBatch {
                block,
                ops: ops.to_vec(),
                downstream: loc.chain[1..].to_vec(),
                rids: rids.to_vec(),
            }
        } else {
            DataRequest::Batch {
                block,
                ops: ops.to_vec(),
                rids: rids.to_vec(),
            }
        };
        let tenant = self.job.client().tenant();
        let expected = ops.len();
        // The envelope id only correlates the reply; dedup keys on the
        // per-op `rids` in the body.
        let id = next_request_id();
        with_throttle_backoff(|| {
            self.job.client().retry_policy().run(
                |_| {
                    let conn = fabric.connect(addr)?;
                    match conn.call(Envelope::DataReq {
                        id,
                        req: req.clone(),
                        tenant,
                    })? {
                        Envelope::DataResp { resp, .. } => match resp? {
                            DataResponse::Batch(results) if results.len() <= expected => {
                                Ok(results)
                            }
                            DataResponse::Batch(results) => Err(JiffyError::Rpc(format!(
                                "batch reply has {} results for {expected} ops",
                                results.len()
                            ))),
                            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
                        },
                        other => Err(JiffyError::Rpc(format!("unexpected envelope: {other:?}"))),
                    }
                },
                |e| {
                    if matches!(e, JiffyError::Rpc(_)) {
                        fabric.evict(addr);
                    }
                },
            )
        })
    }

    /// Classifies an error hit by a batched op (or a whole batch RPC):
    /// `Ok(true)` means routing-level — refresh and retry the
    /// unfinished ops; `Ok(false)` means definitive — fail the call.
    /// Mirrors [`Self::with_routing_retries`] plus the `BlockFull`
    /// grow-then-retry discipline the single-op write paths apply.
    fn note_batch_err(&self, e: &JiffyError, loc: Option<&BlockLocation>) -> Result<bool> {
        match e {
            JiffyError::StaleMetadata
            | JiffyError::UnknownBlock(_)
            | JiffyError::BlockMoved { .. } => Ok(true),
            // An op bigger than a whole block can never fit; growing the
            // structure won't help.
            JiffyError::BlockFull {
                capacity,
                requested,
            } if requested > capacity => Ok(false),
            JiffyError::BlockFull { .. } => match loc {
                Some(loc) => {
                    self.request_split(loc.id())?;
                    Ok(true)
                }
                None => Ok(false),
            },
            JiffyError::Unavailable(_) => {
                let before = self.view();
                self.refresh()?;
                Ok(self.view() != before)
            }
            // Admission control rejected the batch before executing it;
            // honor the hint and retry the unfinished ops.
            JiffyError::Throttled { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis((*retry_after_ms).clamp(1, 250)));
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Drives `total` ops to completion through block-grouped batch
    /// RPCs. Each round resolves the owner of every unfinished op,
    /// groups them by owner block preserving input order, issues one
    /// [`DataRequest::Batch`] (or [`DataRequest::ReplicateBatch`]) per
    /// block, and applies the refresh-retry discipline per sub-batch.
    /// `on_ok(i, result)` fires exactly once per op, when op `i`
    /// succeeds.
    ///
    /// Exactly-once: every write op gets a request id minted ONCE, up
    /// front, and keeps it for its whole life — across rounds, across
    /// regrouping after a split re-routes some ops, and across a
    /// chain-head failover. A retried op that already executed
    /// somewhere is answered from that replica's replay window instead
    /// of re-applying; a per-op `Err` entry is a definitive "did not
    /// execute" (errors are never window-cached), so retrying it is
    /// safe too.
    fn run_batches(
        &self,
        total: usize,
        is_write: bool,
        mut owner: impl FnMut(usize) -> Result<BlockLocation>,
        mut make_op: impl FnMut(usize) -> DsOp,
        mut on_ok: impl FnMut(usize, DsResult) -> Result<()>,
    ) -> Result<()> {
        let rids: Vec<u64> = if is_write {
            (0..total).map(|_| next_request_id()).collect()
        } else {
            Vec::new()
        };
        let mut pending: Vec<usize> = (0..total).collect();
        let mut last = None;
        for round in 0..MAX_ROUTING_RETRIES {
            if pending.is_empty() {
                return Ok(());
            }
            if round > 0 {
                self.refresh()?;
                if round > 2 {
                    std::thread::sleep(RETRY_BACKOFF);
                }
            }
            let mut groups: Vec<(BlockLocation, Vec<usize>)> = Vec::new();
            let mut next_pending: Vec<usize> = Vec::new();
            for &i in &pending {
                match owner(i) {
                    Ok(loc) => match groups.iter_mut().find(|(l, _)| l.id() == loc.id()) {
                        Some((_, idxs)) => idxs.push(i),
                        None => groups.push((loc, vec![i])),
                    },
                    Err(e) => {
                        if self.note_batch_err(&e, None)? {
                            next_pending.push(i);
                            last = Some(e);
                        } else {
                            return Err(e);
                        }
                    }
                }
            }
            for (loc, idxs) in groups {
                let ops: Vec<DsOp> = idxs.iter().map(|&i| make_op(i)).collect();
                let group_rids: Vec<u64> = if is_write {
                    idxs.iter().map(|&i| rids[i]).collect()
                } else {
                    Vec::new()
                };
                match self.batch_rpc(&loc, &ops, &group_rids, is_write) {
                    Ok(results) => {
                        let mut done = 0;
                        let mut failed = None;
                        for r in results {
                            match r {
                                Ok(v) => {
                                    on_ok(idxs[done], v)?;
                                    done += 1;
                                }
                                Err(e) => {
                                    failed = Some(e);
                                    break;
                                }
                            }
                        }
                        if done < idxs.len() {
                            if let Some(e) = failed {
                                if self.note_batch_err(&e, Some(&loc))? {
                                    last = Some(e);
                                } else {
                                    return Err(e);
                                }
                            }
                            next_pending.extend_from_slice(&idxs[done..]);
                        }
                    }
                    Err(e) => {
                        if self.note_batch_err(&e, Some(&loc))? {
                            next_pending.extend_from_slice(&idxs);
                            last = Some(e);
                        } else {
                            return Err(e);
                        }
                    }
                }
            }
            // Groups may complete out of input order; retried ops must
            // not (FIFO structures rely on it).
            next_pending.sort_unstable();
            pending = next_pending;
        }
        Err(last.unwrap_or(JiffyError::StaleMetadata))
    }

    /// Asks the controller to grow the structure at `block` (the
    /// demand-driven face of the overload path: a client that outran the
    /// asynchronous threshold signal forces the split synchronously).
    fn request_split(&self, block: jiffy_common::BlockId) -> Result<()> {
        self.job
            .client()
            .control(ControlRequest::ReportOverload { block, used: 0 })?;
        Ok(())
    }

    /// Runs `attempt` with the standard refresh-on-stale retry loop.
    /// Besides stale-partition signals, this also self-heals around
    /// cluster elasticity: `BlockMoved` (the block migrated — a refresh
    /// resolves the new home) always retries, while `Unavailable` (the
    /// server stopped answering) retries only when the refreshed layout
    /// actually changed — a promoted replica or a migrated/reloaded
    /// copy is worth another attempt, but data whose only home is gone
    /// surfaces as a fast, clean `Unavailable`, never a hang.
    ///
    /// One request id is minted for the WHOLE loop and passed to every
    /// attempt: after an abrupt head failure the refreshed view routes
    /// the retry to the promoted replica, and only the original id lets
    /// that replica find the request in its replicated replay window —
    /// a fresh id would re-execute an already-applied write. Reuse is
    /// safe on every path that reaches a retry: routing errors and
    /// `Unavailable` are never window-cached (servers cache only `Ok`
    /// results), so a stale error cannot be replayed after healing.
    fn with_routing_retries<T>(&self, mut attempt: impl FnMut(u64) -> Result<T>) -> Result<T> {
        let rid = next_request_id();
        let mut last = None;
        for i in 0..MAX_ROUTING_RETRIES {
            match attempt(rid) {
                Ok(v) => return Ok(v),
                Err(
                    e @ (JiffyError::StaleMetadata
                    | JiffyError::UnknownBlock(_)
                    | JiffyError::BlockMoved { .. }),
                ) => {
                    self.refresh()?;
                    last = Some(e);
                    if i > 2 {
                        std::thread::sleep(RETRY_BACKOFF);
                    }
                }
                Err(e @ JiffyError::Unavailable(_)) => {
                    let before = self.view();
                    self.refresh()?;
                    if self.view() == before {
                        return Err(e);
                    }
                    last = Some(e);
                    if i > 2 {
                        std::thread::sleep(RETRY_BACKOFF);
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Err(last.unwrap_or(JiffyError::StaleMetadata))
    }

    fn listener(&self, ops: &[OpKind]) -> Result<Listener> {
        Listener::subscribe(self.job.client().fabric().clone(), &self.view(), ops)
    }
}

impl std::fmt::Debug for DsCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DsCore({})", self.name)
    }
}

// ---------------------------------------------------------------------------
// File
// ---------------------------------------------------------------------------

/// Handle to a Jiffy file (§5.1): a chunked append log.
///
/// `append` serializes on the tail chunk, so concurrent appenders from
/// many tasks interleave whole records (the shuffle-file mode).
/// Chunk-addressed reads are exact; a chunk may end short of its
/// capacity when an append did not fit, so `read_all` (which walks chunk
/// sizes) is the faithful way to scan a file written with `append`.
#[derive(Debug)]
pub struct FileClient {
    core: DsCore,
}

impl FileClient {
    pub(crate) fn open(job: Arc<JobClient>, name: &str) -> Result<Self> {
        Ok(Self {
            core: DsCore::open(job, name)?,
        })
    }

    /// The prefix this file lives under.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    fn file_view(&self) -> Result<(u64, Vec<BlockLocation>)> {
        match self.core.view() {
            PartitionView::File { chunk_size, blocks } => Ok((chunk_size, blocks)),
            other => Err(JiffyError::WrongDataStructure {
                expected: "file".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Appends a record to the file's tail chunk, growing the file with
    /// a fresh chunk when the tail is full.
    ///
    /// # Errors
    ///
    /// [`JiffyError::BlockFull`] if the record exceeds a whole chunk;
    /// routing failures after exhausting retries.
    pub fn append(&self, data: &[u8]) -> Result<()> {
        let (chunk_size, _) = self.file_view()?;
        if data.len() as u64 > chunk_size {
            return Err(JiffyError::BlockFull {
                capacity: chunk_size as usize,
                requested: data.len(),
            });
        }
        self.core.with_routing_retries(|rid| {
            let (_, blocks) = self.file_view()?;
            let tail = blocks.last().ok_or(JiffyError::StaleMetadata)?.clone();
            match self.core.data_op(
                &tail,
                DsOp::FileAppend {
                    data: Blob::new(data.to_vec()),
                },
                true,
                rid,
            ) {
                Ok(_) => Ok(()),
                Err(JiffyError::BlockFull { .. }) => {
                    // Tail chunk full: force growth and retry through the
                    // refresh path.
                    self.core.request_split(tail.id())?;
                    Err(JiffyError::StaleMetadata)
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Writes at an absolute offset (must not leave holes within the
    /// addressed chunk). Grows the file with fresh chunks as needed.
    ///
    /// # Errors
    ///
    /// [`JiffyError::OutOfRange`] for holes; routing failures.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let (chunk_size, _) = self.file_view()?;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let abs = offset + cursor as u64;
            let chunk_idx = (abs / chunk_size) as usize;
            let chunk_off = abs % chunk_size;
            let take = ((chunk_size - chunk_off) as usize).min(data.len() - cursor);
            let slice = &data[cursor..cursor + take];
            self.core.with_routing_retries(|rid| {
                let (_, blocks) = self.file_view()?;
                match blocks.get(chunk_idx) {
                    Some(loc) => self
                        .core
                        .data_op(
                            loc,
                            DsOp::FileWrite {
                                offset: chunk_off,
                                data: Blob::new(slice.to_vec()),
                            },
                            true,
                            rid,
                        )
                        .map(|_| ()),
                    None => {
                        // Need more chunks: ask for growth at the current
                        // tail and retry.
                        let tail = blocks.last().ok_or(JiffyError::StaleMetadata)?;
                        self.core.request_split(tail.id())?;
                        Err(JiffyError::StaleMetadata)
                    }
                }
            })?;
            cursor += take;
        }
        Ok(())
    }

    /// Writes a gather list of buffers at an absolute offset as if they
    /// were concatenated, splitting the data on chunk boundaries and
    /// issuing one batched RPC per chunk — many small buffers cost one
    /// round trip per chunk touched instead of one per buffer.
    ///
    /// # Errors
    ///
    /// [`JiffyError::OutOfRange`] for holes; routing failures. On error,
    /// a subset of the chunks may already hold their new bytes.
    pub fn write_vectored(&self, offset: u64, bufs: &[&[u8]]) -> Result<()> {
        let (chunk_size, _) = self.file_view()?;
        // Flatten the gather list into one contiguous piece per chunk.
        let mut pieces: Vec<(usize, u64, Vec<u8>)> = Vec::new();
        let mut abs = offset;
        for buf in bufs {
            let mut cursor = 0usize;
            while cursor < buf.len() {
                let chunk_idx = (abs / chunk_size) as usize;
                let chunk_off = abs % chunk_size;
                let take = ((chunk_size - chunk_off) as usize).min(buf.len() - cursor);
                match pieces.last_mut() {
                    Some((idx, off, bytes))
                        if *idx == chunk_idx && *off + bytes.len() as u64 == chunk_off =>
                    {
                        bytes.extend_from_slice(&buf[cursor..cursor + take]);
                    }
                    _ => pieces.push((chunk_idx, chunk_off, buf[cursor..cursor + take].to_vec())),
                }
                abs += take as u64;
                cursor += take;
            }
        }
        self.core.run_batches(
            pieces.len(),
            true,
            |i| {
                let (_, blocks) = self.file_view()?;
                match blocks.get(pieces[i].0) {
                    Some(loc) => Ok(loc.clone()),
                    None => {
                        // Need more chunks: grow at the tail and retry.
                        let tail = blocks.last().ok_or(JiffyError::StaleMetadata)?;
                        self.core.request_split(tail.id())?;
                        Err(JiffyError::StaleMetadata)
                    }
                }
            },
            |i| DsOp::FileWrite {
                offset: pieces[i].1,
                data: Blob::new(pieces[i].2.clone()),
            },
            |_, _| Ok(()),
        )
    }

    /// Reads up to `len` bytes at an absolute offset (paper `seek` +
    /// read). Returns fewer bytes at end-of-data.
    ///
    /// # Errors
    ///
    /// [`JiffyError::OutOfRange`] when `offset` is beyond the chunk's
    /// data; routing failures.
    pub fn read_at(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let (chunk_size, _) = self.file_view()?;
        let mut out = Vec::with_capacity(len as usize);
        let mut remaining = len;
        let mut abs = offset;
        while remaining > 0 {
            let chunk_idx = (abs / chunk_size) as usize;
            let chunk_off = abs % chunk_size;
            let take = (chunk_size - chunk_off).min(remaining);
            let piece = self.core.with_routing_retries(|rid| {
                let (_, blocks) = self.file_view()?;
                let Some(loc) = blocks.get(chunk_idx) else {
                    return Ok(Vec::new()); // Past the last chunk: EOF.
                };
                match self.core.data_op(
                    loc,
                    DsOp::FileRead {
                        offset: chunk_off,
                        len: take,
                    },
                    false,
                    rid,
                )? {
                    DsResult::Data(b) => Ok(b.into_inner()),
                    other => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
                }
            })?;
            let got = piece.len() as u64;
            out.extend_from_slice(&piece);
            if got < take {
                break; // Chunk ended short: end of data.
            }
            abs += got;
            remaining -= got;
        }
        Ok(out)
    }

    /// Reads the whole file by walking its chunks.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn read_all(&self) -> Result<Vec<u8>> {
        'restart: for _ in 0..MAX_ROUTING_RETRIES {
            self.core.refresh()?;
            let (_, blocks) = self.file_view()?;
            let mut out = Vec::new();
            for loc in &blocks {
                let size = match self.chunk_op(loc, DsOp::FileSize)? {
                    Some(DsResult::Size(s)) => s,
                    Some(other) => {
                        return Err(JiffyError::Rpc(format!("unexpected result {other:?}")))
                    }
                    // Chunk migrated mid-scan: rescan the new layout.
                    None => continue 'restart,
                };
                if size == 0 {
                    continue;
                }
                match self.chunk_op(
                    loc,
                    DsOp::FileRead {
                        offset: 0,
                        len: size,
                    },
                )? {
                    Some(DsResult::Data(b)) => out.extend_from_slice(&b),
                    Some(other) => {
                        return Err(JiffyError::Rpc(format!("unexpected result {other:?}")))
                    }
                    None => continue 'restart,
                }
            }
            return Ok(out);
        }
        Err(JiffyError::StaleMetadata)
    }

    /// One read-side chunk op; `Ok(None)` means the chunk moved (or its
    /// server went away but the layout changed), i.e. the caller should
    /// refresh and rescan.
    fn chunk_op(&self, loc: &BlockLocation, op: DsOp) -> Result<Option<DsResult>> {
        match self.core.data_op(loc, op, false, next_request_id()) {
            Ok(r) => Ok(Some(r)),
            Err(JiffyError::BlockMoved { .. }) => Ok(None),
            Err(e @ JiffyError::Unavailable(_)) => {
                let before = self.core.view();
                self.core.refresh()?;
                if self.core.view() == before {
                    Err(e)
                } else {
                    Ok(None)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Total bytes stored across chunks.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn size(&self) -> Result<u64> {
        'restart: for _ in 0..MAX_ROUTING_RETRIES {
            self.core.refresh()?;
            let (_, blocks) = self.file_view()?;
            let mut total = 0;
            for loc in &blocks {
                match self.chunk_op(loc, DsOp::FileSize)? {
                    Some(DsResult::Size(s)) => total += s,
                    Some(other) => {
                        return Err(JiffyError::Rpc(format!("unexpected result {other:?}")))
                    }
                    None => continue 'restart,
                }
            }
            return Ok(total);
        }
        Err(JiffyError::StaleMetadata)
    }

    /// Subscribes to write notifications on the file's current blocks.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn subscribe(&self, ops: &[OpKind]) -> Result<Listener> {
        self.core.listener(ops)
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

/// Handle to a Jiffy FIFO queue (§5.2).
#[derive(Debug)]
pub struct QueueClient {
    core: DsCore,
    /// Local dequeue cursor into the cached segment list; advances when
    /// a sealed segment drains (`StaleMetadata` from the server).
    head_cursor: jiffy_sync::Mutex<usize>,
    /// Client-side bound on queue length in items (paper
    /// `maxQueueLength`); `None` = unbounded.
    max_len: Option<u64>,
}

impl QueueClient {
    pub(crate) fn open(job: Arc<JobClient>, name: &str) -> Result<Self> {
        Ok(Self {
            core: DsCore::open(job, name)?,
            head_cursor: jiffy_sync::Mutex::new(0),
            max_len: None,
        })
    }

    /// Sets the client-enforced maximum queue length (approximate under
    /// concurrent producers, as in the paper's client-cached design).
    pub fn with_max_len(mut self, max_len: u64) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// The prefix this queue lives under.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    fn segments(&self) -> Result<Vec<BlockLocation>> {
        match self.core.view() {
            PartitionView::Queue { segments, .. } => Ok(segments),
            other => Err(JiffyError::WrongDataStructure {
                expected: "queue".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Enqueues an item at the tail segment, linking a new segment when
    /// the tail fills.
    ///
    /// # Errors
    ///
    /// [`JiffyError::QueueFull`] when `max_len` is reached;
    /// [`JiffyError::BlockFull`] if the item exceeds a whole segment.
    pub fn enqueue(&self, item: &[u8]) -> Result<()> {
        if let Some(max) = self.max_len {
            if self.len()? >= max {
                return Err(JiffyError::QueueFull);
            }
        }
        self.core.with_routing_retries(|rid| {
            let segments = self.segments()?;
            let tail = segments.last().ok_or(JiffyError::StaleMetadata)?.clone();
            match self.core.data_op(
                &tail,
                DsOp::Enqueue {
                    item: Blob::new(item.to_vec()),
                },
                true,
                rid,
            ) {
                Ok(_) => Ok(()),
                Err(JiffyError::BlockFull {
                    capacity,
                    requested,
                }) if requested > capacity => Err(JiffyError::BlockFull {
                    capacity,
                    requested,
                }),
                Err(JiffyError::BlockFull { .. }) => {
                    self.core.request_split(tail.id())?;
                    Err(JiffyError::StaleMetadata)
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Enqueues a run of items in FIFO order with one batched RPC per
    /// tail segment instead of one round trip per item. The server
    /// applies a batch in order and stops at the first failure, so a
    /// segment filling mid-batch retries only the unenqueued suffix —
    /// FIFO order is preserved end to end.
    ///
    /// # Errors
    ///
    /// [`JiffyError::QueueFull`] when `max_len` would be exceeded;
    /// [`JiffyError::BlockFull`] if an item exceeds a whole segment;
    /// routing failures. On error, a prefix of the items may already be
    /// enqueued.
    pub fn enqueue_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> Result<()> {
        if let Some(max) = self.max_len {
            if self.len()? + items.len() as u64 > max {
                return Err(JiffyError::QueueFull);
            }
        }
        self.core.run_batches(
            items.len(),
            true,
            |_| {
                let segments = self.segments()?;
                segments.last().cloned().ok_or(JiffyError::StaleMetadata)
            },
            |i| DsOp::Enqueue {
                item: Blob::new(items[i].as_ref().to_vec()),
            },
            |_, _| Ok(()),
        )
    }

    /// Dequeues the oldest item; `None` when the queue is currently
    /// empty.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn dequeue(&self) -> Result<Option<Vec<u8>>> {
        self.fetch_front(true)
    }

    /// Reads the oldest item without removing it.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn peek(&self) -> Result<Option<Vec<u8>>> {
        self.fetch_front(false)
    }

    fn fetch_front(&self, remove: bool) -> Result<Option<Vec<u8>>> {
        let op = if remove { DsOp::Dequeue } else { DsOp::Peek };
        let mut refreshes = 0;
        // One request id per *target segment*: refreshes that re-route
        // the same logical dequeue (a dead or migrated segment server)
        // keep the id, so a dequeue that executed before the ack was
        // lost replays from the new home's window instead of removing a
        // second item. Advancing the cursor re-mints — the next segment
        // is a genuinely new request, and reusing the id there could
        // collide with a stale entry if the drained segment's window
        // was merged into its successor.
        let mut rid = next_request_id();
        loop {
            let segments = self.segments()?;
            let cursor = *self.head_cursor.lock();
            let Some(loc) = segments.get(cursor) else {
                // Cursor ran off the cached list: refresh and restart
                // from the new head.
                if refreshes >= MAX_ROUTING_RETRIES {
                    return Err(JiffyError::StaleMetadata);
                }
                refreshes += 1;
                self.core.refresh()?;
                *self.head_cursor.lock() = 0;
                rid = next_request_id();
                continue;
            };
            match self.core.data_op(loc, op.clone(), remove, rid) {
                Ok(DsResult::MaybeData(d)) => return Ok(d.map(Blob::into_inner)),
                Ok(other) => return Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
                // Sealed + drained: advance to the next segment.
                Err(JiffyError::StaleMetadata) => {
                    let mut c = self.head_cursor.lock();
                    if *c == cursor {
                        *c += 1;
                    }
                    rid = next_request_id();
                }
                // Segment was unlinked and reset, or migrated to another
                // server: refresh the list and restart from the head.
                Err(JiffyError::UnknownBlock(_) | JiffyError::BlockMoved { .. }) => {
                    if refreshes >= MAX_ROUTING_RETRIES {
                        return Err(JiffyError::StaleMetadata);
                    }
                    refreshes += 1;
                    self.core.refresh()?;
                    *self.head_cursor.lock() = 0;
                }
                // The segment's server stopped answering. Retry only if
                // the layout moved on (drain/failover re-homed it);
                // data whose only home is gone fails fast, not forever.
                Err(e @ JiffyError::Unavailable(_)) => {
                    if refreshes >= MAX_ROUTING_RETRIES {
                        return Err(e);
                    }
                    let before = self.core.view();
                    self.core.refresh()?;
                    if self.core.view() == before {
                        return Err(e);
                    }
                    refreshes += 1;
                    *self.head_cursor.lock() = 0;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Items currently resident across segments.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn len(&self) -> Result<u64> {
        'restart: for _ in 0..MAX_ROUTING_RETRIES {
            self.core.refresh()?;
            let mut total = 0;
            for loc in self.segments()? {
                match self
                    .core
                    .data_op(&loc, DsOp::QueueLen, false, next_request_id())
                {
                    Ok(DsResult::Size(s)) => total += s,
                    Ok(other) => {
                        return Err(JiffyError::Rpc(format!("unexpected result {other:?}")))
                    }
                    // Unlinked while counting: skip it.
                    Err(JiffyError::UnknownBlock(_)) => continue,
                    // Migrated mid-count: recount against the new layout.
                    Err(JiffyError::BlockMoved { .. }) => continue 'restart,
                    Err(e @ JiffyError::Unavailable(_)) => {
                        let before = self.core.view();
                        self.core.refresh()?;
                        if self.core.view() == before {
                            return Err(e);
                        }
                        continue 'restart;
                    }
                    Err(e) => return Err(e),
                }
            }
            return Ok(total);
        }
        Err(JiffyError::StaleMetadata)
    }

    /// Whether the queue currently holds no items.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Subscribes to notifications (e.g. [`OpKind::Enqueue`] to learn
    /// when data is available) on the queue's current segments.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn subscribe(&self, ops: &[OpKind]) -> Result<Listener> {
        self.core.listener(ops)
    }
}

// ---------------------------------------------------------------------------
// KV store
// ---------------------------------------------------------------------------

/// Handle to a Jiffy KV-store (§5.3).
#[derive(Debug)]
pub struct KvClient {
    core: DsCore,
}

impl KvClient {
    pub(crate) fn open(job: Arc<JobClient>, name: &str) -> Result<Self> {
        Ok(Self {
            core: DsCore::open(job, name)?,
        })
    }

    /// The prefix this store lives under.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    fn owner_of(&self, key: &[u8]) -> Result<BlockLocation> {
        match self.core.view() {
            PartitionView::Kv { num_slots, slots } => {
                let slot = jiffy_ds::kv_slot(key, num_slots);
                slots
                    .iter()
                    .find(|s| s.contains(slot))
                    .map(|s| s.location.clone())
                    .ok_or(JiffyError::StaleMetadata)
            }
            other => Err(JiffyError::WrongDataStructure {
                expected: "kv_store".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Stores a pair, returning the previous value for the key.
    ///
    /// # Errors
    ///
    /// Capacity exhaustion after retries; routing failures.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.with_routing_retries(|rid| {
            let loc = self.owner_of(key)?;
            match self.core.data_op(
                &loc,
                DsOp::Put {
                    key: Blob::new(key.to_vec()),
                    value: Blob::new(value.to_vec()),
                },
                true,
                rid,
            ) {
                Ok(DsResult::Replaced(prev)) => Ok(prev.map(Blob::into_inner)),
                Ok(other) => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
                Err(JiffyError::BlockFull { .. }) => {
                    // The owner filled before the async threshold signal
                    // landed: force the split, then retry.
                    self.core.request_split(loc.id())?;
                    Err(JiffyError::StaleMetadata)
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Stores many pairs with one batched RPC per owner block, returning
    /// the previous value for each key in input order. Pairs are grouped
    /// by resolved owner; a split landing mid-batch retries only the
    /// unapplied ops against the refreshed layout.
    ///
    /// # Errors
    ///
    /// Capacity exhaustion after retries; routing failures. On error, a
    /// subset of the puts may already be applied.
    pub fn multi_put<K, V>(&self, pairs: &[(K, V)]) -> Result<Vec<Option<Vec<u8>>>>
    where
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; pairs.len()];
        self.core.run_batches(
            pairs.len(),
            true,
            |i| self.owner_of(pairs[i].0.as_ref()),
            |i| DsOp::Put {
                key: Blob::new(pairs[i].0.as_ref().to_vec()),
                value: Blob::new(pairs[i].1.as_ref().to_vec()),
            },
            |i, r| match r {
                DsResult::Replaced(prev) => {
                    out[i] = prev.map(Blob::into_inner);
                    Ok(())
                }
                other => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
            },
        )?;
        Ok(out)
    }

    /// Looks up many keys with one batched RPC per owner block; results
    /// come back in input order.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn multi_get<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        self.core.run_batches(
            keys.len(),
            false,
            |i| self.owner_of(keys[i].as_ref()),
            |i| DsOp::Get {
                key: Blob::new(keys[i].as_ref().to_vec()),
            },
            |i, r| match r {
                DsResult::MaybeData(v) => {
                    out[i] = v.map(Blob::into_inner);
                    Ok(())
                }
                other => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
            },
        )?;
        Ok(out)
    }

    /// Looks up a key.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.with_routing_retries(|rid| {
            let loc = self.owner_of(key)?;
            match self.core.data_op(
                &loc,
                DsOp::Get {
                    key: Blob::new(key.to_vec()),
                },
                false,
                rid,
            )? {
                DsResult::MaybeData(v) => Ok(v.map(Blob::into_inner)),
                other => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
            }
        })
    }

    /// Deletes a key, returning its previous value.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.with_routing_retries(|rid| {
            let loc = self.owner_of(key)?;
            match self.core.data_op(
                &loc,
                DsOp::Delete {
                    key: Blob::new(key.to_vec()),
                },
                true,
                rid,
            )? {
                DsResult::MaybeData(v) => Ok(v.map(Blob::into_inner)),
                other => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
            }
        })
    }

    /// Whether the key exists.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn exists(&self, key: &[u8]) -> Result<bool> {
        self.core.with_routing_retries(|rid| {
            let loc = self.owner_of(key)?;
            match self.core.data_op(
                &loc,
                DsOp::Exists {
                    key: Blob::new(key.to_vec()),
                },
                false,
                rid,
            )? {
                DsResult::Bool(b) => Ok(b),
                other => Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
            }
        })
    }

    /// Number of pairs across all partition blocks.
    ///
    /// # Errors
    ///
    /// Routing failures.
    pub fn count(&self) -> Result<u64> {
        self.core.refresh()?;
        let view = self.core.view();
        let mut total = 0;
        for loc in view.blocks() {
            match self
                .core
                .data_op(loc, DsOp::KvCount, false, next_request_id())
            {
                Ok(DsResult::Size(s)) => total += s,
                Ok(other) => return Err(JiffyError::Rpc(format!("unexpected result {other:?}"))),
                Err(JiffyError::UnknownBlock(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Subscribes to notifications on the store's current blocks.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn subscribe(&self, ops: &[OpKind]) -> Result<Listener> {
        self.core.listener(ops)
    }
}
