//! Exactly-once control plane, request by request (DESIGN.md §16).
//!
//! Every mutating `ControlRequest` is sent to the served control plane
//! as a raw envelope, then sent again with the same request id — the
//! client retry after a lost reply — across four dimensions:
//!
//! - the retry rides **the same connection** or **a freshly dialed
//!   one** (what `JiffyClient` does after every transport fault);
//! - between the try and the retry: **nothing**, a **whole-plane
//!   crash and restart**, or a **crash and restart of the shard that
//!   owns the request**;
//! - **one or two** controller shards;
//! - the **in-process and TCP** transports.
//!
//! The retry must get exactly the first answer back, and the metadata —
//! re-checked after one more whole-plane restart at the end, so from
//! what the journals recover — must show the effect exactly once: one
//! job, one server, one prefix, one block allocation. Two more rows run
//! on two shards:
//!
//! - **partial fan-out**: a `SetTenantShare` (the one mutating request
//!   every shard applies) whose first attempt was applied by shard 0
//!   while shard 1 was dark: the retry must complete on shard 1 instead
//!   of failing on shard 0;
//! - **child-node removal**: a `RemovePrefix` of a child whose own name
//!   would hash to another shard than its root's, retried across a
//!   whole-plane crash: the retry must find the answer on the job's
//!   shard, though the node is gone.
//!
//! A whole-plane restart over TCP closes every connection to the old
//! listener, as a process restart would; a same-connection retry that
//! finds its connection closed redials once, like any client must.

use std::time::Duration;

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;
use jiffy_common::clock::SystemClock;
use jiffy_common::{JiffyError, JobId, ServerId, TenantId};
use jiffy_controller::StateMirror;
use jiffy_persistent::MemObjectStore;
use jiffy_proto::{
    ControlRequest, ControlResponse, DagNodeSpec, DsType, Envelope, CLIENT_RID_BASE,
};
use jiffy_rpc::ClientConn;
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::Arc;

/// What happens between the first attempt and the retry.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Restart {
    None,
    Plane,
    OwningShard,
}

/// Where the retry is sent.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Session {
    Same,
    Fresh,
}

/// Which mutating request a case exercises.
#[derive(Clone, Copy, Debug)]
enum Kind {
    RegisterJob,
    DeregisterJob,
    CreatePrefix,
    CreateHierarchy,
    AddParent,
    RemovePrefix,
    RenewLease,
    FlushPrefix,
    LoadPrefix,
    JoinServer,
    LeaveServer,
    SetTenantShare,
}

const KINDS: [Kind; 12] = [
    Kind::RegisterJob,
    Kind::DeregisterJob,
    Kind::CreatePrefix,
    Kind::CreateHierarchy,
    Kind::AddParent,
    Kind::RemovePrefix,
    Kind::RenewLease,
    Kind::FlushPrefix,
    Kind::LoadPrefix,
    Kind::JoinServer,
    Kind::LeaveServer,
    Kind::SetTenantShare,
];

fn next_rid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(CLIENT_RID_BASE + (1 << 40));
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One prepared case: the request, the shard that owns it, and the
/// names its effect check looks for.
struct Case {
    tag: String,
    job: JobId,
    req: ControlRequest,
    owner: usize,
    server: Option<ServerId>,
}

struct Matrix {
    cluster: JiffyCluster,
    tcp: bool,
    shards: usize,
}

impl Matrix {
    fn boot(tcp: bool, shards: usize) -> Self {
        let cluster = JiffyCluster::build_with_shards(
            JiffyConfig::for_testing(),
            2,
            64,
            SystemClock::shared(),
            Arc::new(MemObjectStore::new()),
            false,
            tcp,
            shards,
        )
        .unwrap();
        Self {
            cluster,
            tcp,
            shards,
        }
    }

    /// Untracked setup traffic, straight into the router.
    fn setup(&self, req: ControlRequest) -> ControlResponse {
        self.cluster.sharded_controller().dispatch(req).unwrap()
    }

    fn dial(&self) -> ClientConn {
        self.cluster
            .fabric()
            .dial(self.cluster.controller_addr())
            .unwrap()
    }

    fn send(
        conn: &ClientConn,
        rid: u64,
        req: &ControlRequest,
    ) -> Result<ControlResponse, JiffyError> {
        match conn.call(Envelope::ControlReq {
            id: rid,
            req: req.clone(),
            tenant: TenantId::ANONYMOUS,
        })? {
            Envelope::ControlResp { resp, .. } => resp,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn mirrors(&self) -> Vec<StateMirror> {
        let sc = self.cluster.sharded_controller();
        (0..self.shards)
            .map(|i| sc.shard(i).state_mirror())
            .collect()
    }

    fn crash_restart(&self, restart: Restart, owner: usize) {
        match restart {
            Restart::None => {}
            Restart::Plane => {
                self.cluster.crash_controller();
                self.cluster.restart_controller().unwrap();
            }
            Restart::OwningShard => {
                self.cluster.crash_controller_shard(owner);
                self.cluster.restart_controller_shard(owner).unwrap();
            }
        }
    }

    fn register(&self, name: &str) -> JobId {
        match self.setup(ControlRequest::RegisterJob { name: name.into() }) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        }
    }

    fn create(&self, job: JobId, name: &str, parents: &[&str], ds: Option<DsType>) {
        self.setup(ControlRequest::CreatePrefix {
            job,
            name: name.into(),
            parents: parents.iter().map(ToString::to_string).collect(),
            ds,
            initial_blocks: u32::from(ds.is_some()),
        });
    }

    fn owner_of_job(&self, job: JobId) -> usize {
        self.cluster
            .sharded_controller()
            .shard_map()
            .shard_of_job(job) as usize
    }

    /// Prepares `kind` under a fresh job, with its prerequisites in
    /// place. `rid` is the id the case will be sent with.
    fn prepare(&self, kind: Kind, tag: &str, rid: u64) -> Case {
        let job = self.register(&format!("job-{tag}"));
        let mut server = None;
        let (req, owner) = match kind {
            Kind::RegisterJob => (
                ControlRequest::RegisterJob {
                    name: format!("reg-{tag}"),
                },
                (rid % self.shards as u64) as usize,
            ),
            Kind::DeregisterJob => (
                ControlRequest::DeregisterJob { job },
                self.owner_of_job(job),
            ),
            Kind::CreatePrefix => (
                ControlRequest::CreatePrefix {
                    job,
                    name: "p".into(),
                    parents: vec![],
                    ds: Some(DsType::KvStore),
                    initial_blocks: 1,
                },
                self.owner_of_job(job),
            ),
            Kind::CreateHierarchy => (
                ControlRequest::CreateHierarchy {
                    job,
                    nodes: vec![
                        DagNodeSpec {
                            name: "h".into(),
                            parents: vec![],
                            ds: Some(DsType::File),
                            initial_blocks: 1,
                        },
                        DagNodeSpec {
                            name: "hc".into(),
                            parents: vec!["h".into()],
                            ds: None,
                            initial_blocks: 0,
                        },
                    ],
                },
                self.owner_of_job(job),
            ),
            Kind::AddParent => {
                self.create(job, "a", &[], None);
                self.create(job, "b", &["a"], None);
                self.create(job, "c", &["a"], None);
                (
                    ControlRequest::AddParent {
                        job,
                        name: "c".into(),
                        parent: "b".into(),
                    },
                    self.owner_of_job(job),
                )
            }
            Kind::RemovePrefix => {
                self.create(job, "p", &[], Some(DsType::KvStore));
                (
                    ControlRequest::RemovePrefix {
                        job,
                        name: "p".into(),
                    },
                    self.owner_of_job(job),
                )
            }
            Kind::RenewLease => {
                self.create(job, "p", &[], None);
                (
                    ControlRequest::RenewLease {
                        job,
                        name: "p".into(),
                    },
                    self.owner_of_job(job),
                )
            }
            Kind::FlushPrefix => {
                self.create(job, "p", &[], Some(DsType::KvStore));
                (
                    ControlRequest::FlushPrefix {
                        job,
                        name: "p".into(),
                        external_path: format!("ext/{tag}"),
                    },
                    self.owner_of_job(job),
                )
            }
            Kind::LoadPrefix => {
                self.create(job, "p", &[], Some(DsType::KvStore));
                self.setup(ControlRequest::FlushPrefix {
                    job,
                    name: "p".into(),
                    external_path: format!("ext/{tag}"),
                });
                self.create(job, "q", &[], None);
                (
                    ControlRequest::LoadPrefix {
                        job,
                        name: "q".into(),
                        external_path: format!("ext/{tag}"),
                    },
                    self.owner_of_job(job),
                )
            }
            Kind::JoinServer => (
                // No blocks: the phantom server must never be handed a
                // chain, only counted.
                ControlRequest::JoinServer {
                    addr: format!("inproc:phantom-{tag}"),
                    capacity_blocks: 0,
                },
                (rid % self.shards as u64) as usize,
            ),
            Kind::LeaveServer => {
                let id = match self.setup(ControlRequest::JoinServer {
                    addr: format!("inproc:phantom-{tag}"),
                    capacity_blocks: 0,
                }) {
                    ControlResponse::ServerJoined { server, .. } => server,
                    other => panic!("{other:?}"),
                };
                server = Some(id);
                let owner = self
                    .cluster
                    .sharded_controller()
                    .shard_map()
                    .shard_of_server(id);
                (ControlRequest::LeaveServer { server: id }, owner as usize)
            }
            Kind::SetTenantShare => (
                ControlRequest::SetTenantShare {
                    tenant: TenantId(1_000 + rid % 1_000_000),
                    share: 3,
                    quota_bytes: 1 << 30,
                    ops_per_sec: 0,
                    bytes_per_sec: 0,
                },
                self.shards - 1,
            ),
        };
        Case {
            tag: tag.to_string(),
            job,
            req,
            owner,
            server,
        }
    }

    /// Checks that `case`'s effect shows up exactly once.
    fn check_effect(&self, kind: Kind, case: &Case) -> Result<(), String> {
        let mirrors = self.mirrors();
        let job_nodes = |name: &str| -> usize {
            mirrors
                .iter()
                .flat_map(|m| m.jobs.iter().filter(|j| j.job == case.job.raw()))
                .flat_map(|j| j.nodes.iter().filter(|n| n.name == name))
                .count()
        };
        let blocks_of = |name: &str| -> usize {
            mirrors
                .iter()
                .flat_map(|m| m.block_owner.iter())
                .filter(|(_, j, n)| *j == case.job.raw() && n == name)
                .count()
        };
        let node = |name: &str| {
            mirrors
                .iter()
                .flat_map(|m| m.jobs.iter().filter(|j| j.job == case.job.raw()))
                .flat_map(|j| j.nodes.iter())
                .find(|n| n.name == name)
                .cloned()
        };
        let expect = |what: &str, got: usize, want: usize| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: {got}, expected {want}"))
            }
        };
        match kind {
            Kind::RegisterJob => {
                let name = format!("reg-{}", case.tag);
                let n = mirrors
                    .iter()
                    .flat_map(|m| m.jobs.iter())
                    .filter(|j| j.name == name)
                    .count();
                expect(&format!("jobs named {name}"), n, 1)
            }
            Kind::DeregisterJob => {
                let n = mirrors
                    .iter()
                    .filter(|m| m.jobs.iter().any(|j| j.job == case.job.raw()))
                    .count();
                expect("shards still holding the job", n, 0)
            }
            Kind::CreatePrefix => {
                expect("nodes p", job_nodes("p"), 1)?;
                expect("blocks of p", blocks_of("p"), 1)
            }
            Kind::CreateHierarchy => {
                expect("nodes h", job_nodes("h"), 1)?;
                expect("nodes hc", job_nodes("hc"), 1)?;
                expect("blocks of h", blocks_of("h"), 1)
            }
            Kind::AddParent => {
                let parents = node("c").map(|n| n.parents).unwrap_or_default();
                if parents == ["a", "b"] {
                    Ok(())
                } else {
                    Err(format!("parents of c: {parents:?}"))
                }
            }
            Kind::RemovePrefix => {
                expect("nodes p", job_nodes("p"), 0)?;
                expect("blocks of p", blocks_of("p"), 0)
            }
            Kind::RenewLease => expect("nodes p", job_nodes("p"), 1),
            Kind::FlushPrefix => {
                let flushed = node("p").and_then(|n| n.flushed_to);
                if flushed == Some(format!("ext/{}", case.tag)) {
                    Ok(())
                } else {
                    Err(format!("p flushed to {flushed:?}"))
                }
            }
            Kind::LoadPrefix => expect("blocks of q", blocks_of("q"), 1),
            Kind::JoinServer | Kind::LeaveServer => {
                let addr = format!("inproc:phantom-{}", case.tag);
                let n = mirrors
                    .iter()
                    .flat_map(|m| m.freelist.servers.iter())
                    .filter(|s| s.addr == addr)
                    .count();
                let want = usize::from(matches!(kind, Kind::JoinServer));
                if let (Kind::LeaveServer, Some(id)) = (kind, case.server) {
                    let departed = mirrors
                        .iter()
                        .flat_map(|m| m.freelist.departed.iter())
                        .filter(|s| **s == id)
                        .count();
                    expect("departures recorded", departed, 1)?;
                }
                expect(&format!("members at {addr}"), n, want)
            }
            Kind::SetTenantShare => {
                let ControlRequest::SetTenantShare { tenant, .. } = case.req else {
                    unreachable!()
                };
                for (i, m) in mirrors.iter().enumerate() {
                    let n = m.tenants.iter().filter(|t| t.tenant == tenant).count();
                    expect(&format!("limits for {tenant:?} on shard {i}"), n, 1)?;
                }
                Ok(())
            }
        }
    }

    /// Sends the retry on `session`, redialing once if a whole-plane
    /// restart closed the first connection (TCP).
    fn retry(
        &self,
        first: &ClientConn,
        session: Session,
        rid: u64,
        req: &ControlRequest,
    ) -> Result<ControlResponse, JiffyError> {
        match session {
            Session::Same => match Self::send(first, rid, req) {
                Err(e) if e.is_transport() && self.tcp => Self::send(&self.dial(), rid, req),
                other => other,
            },
            Session::Fresh => Self::send(&self.dial(), rid, req),
        }
    }

    /// Runs every (request, session, restart) row; returns one line per
    /// failing row.
    fn run(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let mut checks = Vec::new();
        for kind in KINDS {
            for session in [Session::Same, Session::Fresh] {
                for restart in [Restart::None, Restart::Plane, Restart::OwningShard] {
                    let tag = format!("{kind:?}-{session:?}-{restart:?}");
                    let row = format!(
                        "[{} x{}] {tag}",
                        if self.tcp { "tcp" } else { "inproc" },
                        self.shards
                    );
                    let rid = next_rid();
                    let case = self.prepare(kind, &tag, rid);
                    let conn = self.dial();
                    let first = match Self::send(&conn, rid, &case.req) {
                        Ok(resp) => resp,
                        Err(e) => {
                            failures.push(format!("{row}: first attempt failed: {e:?}"));
                            continue;
                        }
                    };
                    self.crash_restart(restart, case.owner);
                    match self.retry(&conn, session, rid, &case.req) {
                        Ok(resp) if resp == first => {}
                        other => failures.push(format!(
                            "{row}: retry answered {other:?}, first answer was {first:?}"
                        )),
                    }
                    if let Err(e) = self.check_effect(kind, &case) {
                        failures.push(format!("{row}: {e}"));
                    }
                    checks.push((row, kind, case));
                }
            }
        }
        if self.shards > 1 {
            for session in [Session::Same, Session::Fresh] {
                failures.extend(self.partial_fan_out(session));
                failures.extend(self.child_node_removal(session));
            }
        }
        // What the journals recover must show every effect once, too.
        self.cluster.crash_controller();
        self.cluster.restart_controller().unwrap();
        for (row, kind, case) in &checks {
            if let Err(e) = self.check_effect(*kind, case) {
                failures.push(format!("{row}, recovered: {e}"));
            }
        }
        failures
    }

    /// `SetTenantShare` whose first attempt reaches shard 0 while shard
    /// 1 is dark; the retry must finish the fan-out.
    fn partial_fan_out(&self, session: Session) -> Option<String> {
        let row = format!(
            "[{} x{}] partial fan-out SetTenantShare, {session:?}",
            if self.tcp { "tcp" } else { "inproc" },
            self.shards
        );
        let rid = next_rid();
        let case = self.prepare(Kind::SetTenantShare, &format!("fanout-{session:?}"), rid);
        let conn = self.dial();
        self.cluster.crash_controller_shard(1);
        let first = Self::send(&conn, rid, &case.req);
        if !matches!(&first, Err(e) if e.is_retryable()) {
            return Some(format!("{row}: first attempt answered {first:?}"));
        }
        self.cluster.restart_controller_shard(1).unwrap();
        match self.retry(&conn, session, rid, &case.req) {
            Ok(ControlResponse::Ack) => {}
            other => return Some(format!("{row}: retry answered {other:?}")),
        }
        self.check_effect(Kind::SetTenantShare, &case)
            .err()
            .map(|e| format!("{row}: {e}"))
    }

    /// `RemovePrefix` of a child node whose own name hashes to another
    /// shard than its root's under per-root hashing (FNV-1a over the job
    /// id and the root name, the rule that routed hierarchies before
    /// they were partitioned by job), retried across a whole-plane
    /// crash. The node is gone by the retry, so only routing by job
    /// brings the retry back to the answer.
    fn child_node_removal(&self, session: Session) -> Option<String> {
        let row = format!(
            "[{} x{}] child-node RemovePrefix across a whole-plane crash, {session:?}",
            if self.tcp { "tcp" } else { "inproc" },
            self.shards
        );
        let job = self.register(&format!("job-child-{session:?}"));
        let n = self.shards as u32;
        let child = (0..64)
            .map(|i| format!("c{i}"))
            .find(|c| per_root_shard(job, c, n) != per_root_shard(job, "r", n))
            .expect("64 names span two shards");
        self.create(job, "r", &[], None);
        self.create(job, &child, &["r"], Some(DsType::KvStore));
        let rid = next_rid();
        let req = ControlRequest::RemovePrefix {
            job,
            name: child.clone(),
        };
        let conn = self.dial();
        let first = match Self::send(&conn, rid, &req) {
            Ok(resp) => resp,
            Err(e) => return Some(format!("{row}: first attempt failed: {e:?}")),
        };
        self.crash_restart(Restart::Plane, self.owner_of_job(job));
        match self.retry(&conn, session, rid, &req) {
            Ok(resp) if resp == first => {}
            other => {
                return Some(format!(
                    "{row}: retry answered {other:?}, first answer was {first:?}"
                ))
            }
        }
        let mirrors = self.mirrors();
        let nodes = |name: &str| {
            mirrors
                .iter()
                .flat_map(|m| m.jobs.iter().filter(|j| j.job == job.raw()))
                .flat_map(|j| j.nodes.iter().filter(|n| n.name == name))
                .count()
        };
        let blocks = mirrors
            .iter()
            .flat_map(|m| m.block_owner.iter())
            .filter(|(_, j, n)| *j == job.raw() && *n == child)
            .count();
        match (nodes(&child), blocks, nodes("r")) {
            (0, 0, 1) => None,
            got => Some(format!(
                "{row}: (child nodes, child blocks, root nodes) = {got:?}, expected (0, 0, 1)"
            )),
        }
    }
}

/// The shard per-root hashing would give hierarchy root `root` of
/// `job`: FNV-1a over the job id (little-endian) and the root name.
fn per_root_shard(job: JobId, root: &str, n: u32) -> u32 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in job.raw().to_le_bytes().iter().chain(root.as_bytes()) {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    (h % u64::from(n)) as u32
}

fn matrix(tcp: bool, shards: usize) {
    jiffy_common::set_call_timeout(Duration::from_secs(5));
    let m = Matrix::boot(tcp, shards);
    let failures = m.run();
    assert!(
        failures.is_empty(),
        "{} failing rows:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn inproc_one_shard() {
    matrix(false, 1);
}

#[test]
fn inproc_two_shards() {
    matrix(false, 2);
}

#[test]
fn tcp_one_shard() {
    matrix(true, 1);
}

#[test]
fn tcp_two_shards() {
    matrix(true, 2);
}
