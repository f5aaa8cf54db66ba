//! Connection and job-scope handles.

use jiffy_sync::Arc;
use std::time::Duration;

use jiffy_common::{JiffyError, JobId, Result, TenantId};
use jiffy_proto::{
    ControlRequest, ControlResponse, DagNodeSpec, DsType, Envelope, PrefixView, TenantStatsEntry,
};
use jiffy_rpc::{Fabric, RetryPolicy};

use crate::cache::MetadataCache;
use crate::ds::{FileClient, KvClient, QueueClient};
use crate::lease::LeaseRenewer;
use crate::rid::next_request_id;
use crate::throttle::with_throttle_backoff;

/// A connection to a Jiffy cluster's controller.
#[derive(Clone)]
pub struct JiffyClient {
    fabric: Fabric,
    controller_addr: String,
    retry: RetryPolicy,
    tenant: TenantId,
    /// Lease-guarded metadata cache, shared by every handle cloned from
    /// this connection (DESIGN.md §15).
    cache: Arc<MetadataCache>,
}

impl JiffyClient {
    /// Connects to the controller at `jiffy_address` (paper `connect`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect(fabric: Fabric, jiffy_address: &str) -> Result<Self> {
        // Dial eagerly so an unreachable controller fails here, not on
        // the first request; the connection stays pooled in the fabric.
        fabric.connect(jiffy_address)?;
        Ok(Self {
            fabric,
            controller_addr: jiffy_address.to_string(),
            retry: RetryPolicy::default(),
            tenant: TenantId::ANONYMOUS,
            cache: Arc::new(MetadataCache::new()),
        })
    }

    /// Replaces the transport retry policy (e.g. `RetryPolicy::no_retries()`
    /// to surface every transport fault to the caller).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Scopes this connection to a tenant: jobs it registers are
    /// accounted against the tenant's memory quota, and its data-plane
    /// ops flow through the tenant's rate lane (DESIGN.md §14). The
    /// default [`TenantId::ANONYMOUS`] is exempt from QoS.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The tenant every request from this connection is stamped with.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The fabric used for data-plane connections.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The controller address.
    pub fn controller_addr(&self) -> &str {
        &self.controller_addr
    }

    /// The transport retry policy applied to control and data requests.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The lease-guarded metadata cache behind [`JobClient::resolve`].
    pub fn metadata_cache(&self) -> &Arc<MetadataCache> {
        &self.cache
    }

    /// Issues one control request.
    ///
    /// The request is stamped with a process-unique id and transport
    /// faults (timeout / unavailable / broken connection) are retried
    /// with exponential backoff, reusing the id so the controller shard's
    /// replay window suppresses re-execution, on any connection and
    /// across a restart. Controller-side errors are returned as-is.
    ///
    /// # Errors
    ///
    /// Transport failures (after retries) or controller-side errors.
    pub fn control(&self, req: ControlRequest) -> Result<ControlResponse> {
        self.control_with_epoch(req).map(|(resp, _)| resp)
    }

    /// [`Self::control`], additionally returning the view epoch the
    /// controller stamped on the response envelope. Every response's
    /// epoch is folded into the metadata cache here, so any control
    /// traffic (above all the lease renewals a live job sends anyway)
    /// doubles as the cache-invalidation channel.
    ///
    /// # Errors
    ///
    /// Transport failures (after retries) or controller-side errors.
    pub fn control_with_epoch(&self, req: ControlRequest) -> Result<(ControlResponse, u64)> {
        // A `Throttled` answer means the controller deferred the request
        // before executing it (fair-share arbitration under memory
        // pressure); error answers are never recorded in the replay
        // window, so backoff retries reuse the same id safely.
        let id = next_request_id();
        with_throttle_backoff(|| {
            self.retry.run(
                |_| {
                    let conn = self.fabric.connect(&self.controller_addr)?;
                    match conn.call(Envelope::ControlReq {
                        id,
                        req: req.clone(),
                        tenant: self.tenant,
                    })? {
                        Envelope::ControlResp { resp, epoch, .. } => {
                            // observe_epoch is monotonic, so a late or
                            // duplicated reply cannot move it backwards.
                            self.cache.observe_epoch(epoch);
                            resp.map(|r| (r, epoch))
                        }
                        other => Err(JiffyError::Rpc(format!(
                            "unexpected controller reply: {other:?}"
                        ))),
                    }
                },
                |_e| {
                    // Re-dial on every transport-level fault (broken
                    // connection, timeout, unavailable): a controller restart
                    // leaves the pooled connection pointing at a dead
                    // endpoint, and only a fresh dial reaches the recovered
                    // controller. The request id is reused across attempts, so
                    // the replay window, keyed by id alone, still suppresses
                    // duplicate execution when the call already ran.
                    self.fabric.evict(&self.controller_addr);
                },
            )
        })
    }

    /// Registers a job, returning its scoped handle.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn register_job(&self, name: &str) -> Result<JobClient> {
        match self.control(ControlRequest::RegisterJob {
            name: name.to_string(),
        })? {
            ControlResponse::JobRegistered { job } => Ok(JobClient {
                client: self.clone(),
                job,
            }),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Cluster statistics (free blocks, jobs, splits, ...).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&self) -> Result<jiffy_proto::ControllerStats> {
        match self.control(ControlRequest::GetStats)? {
            ControlResponse::Stats(s) => Ok(s),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Per-tenant QoS statistics: configured limits, allocated memory,
    /// and data-plane admission counters aggregated across servers.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn tenant_stats(&self) -> Result<Vec<TenantStatsEntry>> {
        match self.control(ControlRequest::TenantStats)? {
            ControlResponse::TenantStatsReport(entries) => Ok(entries),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Configures a tenant's weighted-fair share, memory quota, and
    /// data-plane rate limits (zeros mean unlimited). Servers pick up
    /// the new limits within one heartbeat interval.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn set_tenant_share(
        &self,
        tenant: TenantId,
        share: u32,
        quota_bytes: u64,
        ops_per_sec: u64,
        bytes_per_sec: u64,
    ) -> Result<()> {
        self.control(ControlRequest::SetTenantShare {
            tenant,
            share,
            quota_bytes,
            ops_per_sec,
            bytes_per_sec,
        })?;
        Ok(())
    }
}

impl std::fmt::Debug for JiffyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JiffyClient({})", self.controller_addr)
    }
}

/// Job-scoped API: everything in paper Table 1 below `connect`.
#[derive(Debug, Clone)]
pub struct JobClient {
    client: JiffyClient,
    job: JobId,
}

impl JobClient {
    /// Wraps an existing job ID (e.g. one shared with serverless tasks
    /// out-of-band, which is how tasks of one job attach to its
    /// hierarchy).
    pub fn attach(client: JiffyClient, job: JobId) -> Self {
        Self { client, job }
    }

    /// The job ID (shared with the job's serverless tasks).
    pub fn id(&self) -> JobId {
        self.job
    }

    /// The underlying cluster connection.
    pub fn client(&self) -> &JiffyClient {
        &self.client
    }

    /// Creates an address prefix (paper `createAddrPrefix`). `parents`
    /// name existing prefixes; empty hangs the node off the job root.
    ///
    /// # Errors
    ///
    /// Controller-side validation (duplicate name, missing parent).
    pub fn create_addr_prefix(&self, name: &str, parents: &[&str]) -> Result<()> {
        self.client.control(ControlRequest::CreatePrefix {
            job: self.job,
            name: name.to_string(),
            parents: parents.iter().map(|s| s.to_string()).collect(),
            ds: None,
            initial_blocks: 0,
        })?;
        Ok(())
    }

    /// Creates the whole address hierarchy from an execution DAG (paper
    /// `createHierarchy`) in one atomic request: the job's shard holds
    /// its whole hierarchy, whatever the DAG's shape.
    ///
    /// # Errors
    ///
    /// Controller-side validation; nodes must be topologically ordered.
    pub fn create_hierarchy(&self, nodes: Vec<DagNodeSpec>) -> Result<()> {
        self.client.control(ControlRequest::CreateHierarchy {
            job: self.job,
            nodes,
        })?;
        Ok(())
    }

    /// Adds an extra parent edge, giving a prefix an additional address.
    ///
    /// # Errors
    ///
    /// Controller-side validation (cycles, duplicates).
    pub fn add_parent(&self, name: &str, parent: &str) -> Result<()> {
        self.client.control(ControlRequest::AddParent {
            job: self.job,
            name: name.to_string(),
            parent: parent.to_string(),
        })?;
        Ok(())
    }

    /// Removes a prefix, reclaiming its memory immediately.
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] for unknown prefixes.
    pub fn remove_addr_prefix(&self, name: &str) -> Result<()> {
        self.client.control(ControlRequest::RemovePrefix {
            job: self.job,
            name: name.to_string(),
        })?;
        self.client
            .metadata_cache()
            .invalidate(self.job.raw(), name);
        Ok(())
    }

    /// Resolves a prefix (by name or dotted path) to its current view.
    ///
    /// Served from the lease-guarded metadata cache when a fresh entry
    /// exists — the steady-state path never touches the controller.
    /// Misses coalesce (single-flight) and fill the cache with a TTL of
    /// the prefix's lease duration; the entry also dies if the control
    /// plane's view epoch advances (splits, merges, migrations,
    /// reclaims anywhere bump it).
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] for unknown paths.
    pub fn resolve(&self, path: &str) -> Result<PrefixView> {
        let cache = self.client.metadata_cache();
        if let Some(view) = cache.lookup(self.job.raw(), path) {
            return Ok(view);
        }
        cache.resolve_coalesced(self.job.raw(), path, || self.resolve_rpc(path))
    }

    /// Drops any cached view of `path` and re-resolves from the
    /// controller. The data-structure handles call this when a memory
    /// server disproves the cached layout (`StaleMetadata`,
    /// `BlockMoved`, `UnknownBlock`): exactly one refresh RPC per
    /// stale entry, then the operation retries against the new chain.
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] for unknown paths.
    pub fn resolve_fresh(&self, path: &str) -> Result<PrefixView> {
        let cache = self.client.metadata_cache();
        cache.invalidate(self.job.raw(), path);
        cache.resolve_coalesced(self.job.raw(), path, || self.resolve_rpc(path))
    }

    fn resolve_rpc(&self, path: &str) -> Result<(PrefixView, u64)> {
        match self
            .client
            .control_with_epoch(ControlRequest::ResolvePrefix {
                job: self.job,
                name: path.to_string(),
            })? {
            (ControlResponse::Resolved(v), epoch) => Ok((v, epoch)),
            (other, _) => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Renews the lease on a prefix (and, per §3.2, its direct parents
    /// and all descendants). Returns the renewed prefix names.
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] for unknown paths.
    pub fn renew_lease(&self, path: &str) -> Result<Vec<String>> {
        match self.client.control(ControlRequest::RenewLease {
            job: self.job,
            name: path.to_string(),
        })? {
            ControlResponse::LeaseRenewed { renewed, .. } => Ok(renewed),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// The lease duration configured for a prefix (paper
    /// `getLeaseDuration`).
    ///
    /// # Errors
    ///
    /// [`JiffyError::PathNotFound`] for unknown paths.
    pub fn lease_duration(&self, path: &str) -> Result<Duration> {
        match self.client.control(ControlRequest::GetLeaseDuration {
            job: self.job,
            name: path.to_string(),
        })? {
            ControlResponse::LeaseDuration { micros } => Ok(Duration::from_micros(micros)),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Starts a background lease renewer for the given prefixes (the
    /// "master process" role in the paper's programming models).
    pub fn start_lease_renewer(&self, prefixes: Vec<String>, interval: Duration) -> LeaseRenewer {
        LeaseRenewer::start(self.clone(), prefixes, interval)
    }

    /// Flushes a prefix's data to the persistent tier (paper
    /// `flushAddrPrefix`). Returns bytes written.
    ///
    /// # Errors
    ///
    /// Path or persistent-tier failures.
    pub fn flush(&self, path: &str, external_path: &str) -> Result<u64> {
        match self.client.control(ControlRequest::FlushPrefix {
            job: self.job,
            name: path.to_string(),
            external_path: external_path.to_string(),
        })? {
            ControlResponse::Persisted { bytes } => Ok(bytes),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Loads a prefix's data back from the persistent tier (paper
    /// `loadAddrPrefix`). Returns bytes read.
    ///
    /// # Errors
    ///
    /// Path or persistent-tier failures; the prefix must not currently
    /// hold a live structure.
    pub fn load(&self, path: &str, external_path: &str) -> Result<u64> {
        match self.client.control(ControlRequest::LoadPrefix {
            job: self.job,
            name: path.to_string(),
            external_path: external_path.to_string(),
        })? {
            ControlResponse::Persisted { bytes } => Ok(bytes),
            other => Err(JiffyError::Rpc(format!("unexpected reply: {other:?}"))),
        }
    }

    fn init_ds(&self, name: &str, parents: &[&str], ds: DsType, initial_blocks: u32) -> Result<()> {
        match self.client.control(ControlRequest::CreatePrefix {
            job: self.job,
            name: name.to_string(),
            parents: parents.iter().map(|s| s.to_string()).collect(),
            ds: Some(ds),
            initial_blocks,
        }) {
            Ok(_) => Ok(()),
            // initDataStructure on an existing prefix opens it instead.
            Err(JiffyError::PathExists(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Creates (or opens) a file under `name` (paper
    /// `initDataStructure(addr, File)`).
    ///
    /// # Errors
    ///
    /// Allocation or controller failures.
    pub fn open_file(&self, name: &str, parents: &[&str]) -> Result<FileClient> {
        self.init_ds(name, parents, DsType::File, 1)?;
        FileClient::open(Arc::new(self.clone()), name)
    }

    /// Creates (or opens) a FIFO queue under `name`.
    ///
    /// # Errors
    ///
    /// Allocation or controller failures.
    pub fn open_queue(&self, name: &str, parents: &[&str]) -> Result<QueueClient> {
        self.init_ds(name, parents, DsType::Queue, 1)?;
        QueueClient::open(Arc::new(self.clone()), name)
    }

    /// Creates (or opens) a KV-store under `name`, pre-partitioned over
    /// `initial_blocks` blocks.
    ///
    /// # Errors
    ///
    /// Allocation or controller failures.
    pub fn open_kv(&self, name: &str, parents: &[&str], initial_blocks: u32) -> Result<KvClient> {
        self.init_ds(name, parents, DsType::KvStore, initial_blocks.max(1))?;
        KvClient::open(Arc::new(self.clone()), name)
    }

    /// Deregisters the job, releasing all its memory.
    ///
    /// # Errors
    ///
    /// [`JiffyError::UnknownJob`] if already deregistered.
    pub fn deregister(&self) -> Result<()> {
        self.client
            .control(ControlRequest::DeregisterJob { job: self.job })?;
        self.client.metadata_cache().invalidate_job(self.job.raw());
        Ok(())
    }
}
