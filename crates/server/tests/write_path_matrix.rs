//! The data-plane exactly-once matrix (DESIGN.md §16): every kind of op
//! × every request variant that can carry it × a retry on the same or on
//! a fresh session, driven against the service exactly as
//! `JiffyCluster` serves it — the bare [`MemoryServer`].
//!
//! For every mutation the retry must return the first attempt's result,
//! `stats().ops` must not advance and `window_replays` must, on every
//! replica the request reaches; reads re-execute and never enter the
//! window. Batches carry two ops plus one that fails: the retry replays
//! the executed prefix per op and re-attempts the failure.

#![allow(clippy::unwrap_used)]

use jiffy_block::Partition;
use jiffy_common::clock::SystemClock;
use jiffy_common::{BlockId, JiffyConfig, JiffyError, QosConfig, Result, ServerId, TenantId};
use jiffy_controller::{RpcDataPlane, ShardedController};
use jiffy_persistent::MemObjectStore;
use jiffy_proto::{
    Blob, DataRequest, DataResponse, DsOp, DsResult, DsType, Envelope, Replica, SplitSpec,
    CLIENT_RID_BASE, INTERNAL_RID,
};
use jiffy_rpc::{Fabric, ReplayWindow, Service, SessionHandle};
use jiffy_server::MemoryServer;
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::Arc;

/// Blocks per server; a row uses one head/tail block pair per cell.
const BLOCKS: u32 = 16;

/// A custom structure whose only operator mutates: `bump` increments a
/// counter and returns the new value, so a re-execution is visible in
/// the result. The server cannot tell that from the op.
struct Bump(u64);

impl Partition for Bump {
    fn ds_type(&self) -> DsType {
        DsType::KvStore
    }

    fn execute(&mut self, op: &DsOp) -> Result<DsResult> {
        match op {
            DsOp::Custom { op, .. } if op == "bump" => {
                self.0 += 1;
                Ok(DsResult::Size(self.0))
            }
            other => Err(JiffyError::WrongDataStructure {
                expected: "bump".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    fn used_bytes(&self) -> usize {
        8
    }

    fn export(&self) -> Result<Vec<u8>> {
        jiffy_proto::to_bytes(&self.0)
    }

    fn absorb(&mut self, payload: &[u8]) -> Result<()> {
        self.0 += jiffy_proto::from_bytes::<u64>(payload)?;
        Ok(())
    }

    fn split_out(&mut self, _spec: &SplitSpec) -> Result<Vec<u8>> {
        Err(JiffyError::Internal("bump does not split".into()))
    }
}

/// A controller and two memory servers on the in-proc transport; the
/// head owns blocks `0..BLOCKS`, the tail `BLOCKS..2*BLOCKS`.
struct Rig {
    head: Arc<MemoryServer>,
    tail: Arc<MemoryServer>,
    tail_addr: String,
}

fn rig(cfg: JiffyConfig) -> Rig {
    let fabric = Fabric::new();
    let controller = ShardedController::build(
        cfg.clone(),
        SystemClock::shared(),
        Arc::new(RpcDataPlane::new(fabric.clone())),
        Arc::new(MemObjectStore::new()),
        1,
    )
    .unwrap();
    let controller_addr = fabric.hub().register(Arc::new(controller));
    let boot = || {
        let server = MemoryServer::new(cfg.clone(), fabric.clone(), controller_addr.clone());
        server.register_custom_ds(
            "bump",
            Box::new(|_, _| Ok(Box::new(Bump(0)) as Box<dyn Partition>)),
        );
        let addr = fabric.hub().register(server.clone());
        server.register(&addr, BLOCKS).unwrap();
        (server, addr)
    };
    let (head, _) = boot();
    let (tail, tail_addr) = boot();
    Rig {
        head,
        tail,
        tail_addr,
    }
}

fn session() -> SessionHandle {
    SessionHandle::new(Arc::new(|_| {}))
}

fn rid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(CLIENT_RID_BASE);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One request as a client connection would deliver it.
fn send(
    server: &MemoryServer,
    session: &SessionHandle,
    id: u64,
    tenant: TenantId,
    req: DataRequest,
) -> Result<DataResponse> {
    match server.handle(Envelope::DataReq { id, req, tenant }, session) {
        Envelope::DataResp { resp, .. } => resp,
        other => panic!("{other:?}"),
    }
}

/// A server-internal request (set-up and inspection), never tracked.
fn internal(server: &MemoryServer, req: DataRequest) -> DataResponse {
    send(server, &session(), INTERNAL_RID, TenantId::ANONYMOUS, req).unwrap()
}

/// Resident replay-window entries of `block`.
fn window_len(server: &MemoryServer, block: BlockId) -> usize {
    match internal(server, DataRequest::ExportBlock { block }) {
        DataResponse::Exported { replay, .. } => {
            let mut w: ReplayWindow<DsResult> = ReplayWindow::new(usize::MAX, u64::MAX);
            w.import_bytes(&replay).unwrap();
            w.len()
        }
        other => panic!("{other:?}"),
    }
}

/// Installs an empty `ds` partition covering the whole key space.
fn init_block(server: &MemoryServer, block: BlockId, ds: &str) {
    let params = if ds == "kv_store" {
        jiffy_proto::to_bytes(&jiffy_ds::KvParams {
            ranges: vec![(0, 1023)],
            num_slots: 1024,
        })
        .unwrap()
    } else {
        vec![]
    };
    internal(
        server,
        DataRequest::InitBlock {
            block,
            ds: ds.into(),
            params: params.into(),
        },
    );
}

fn key(i: usize) -> Blob {
    format!("k{i}").into_bytes().into()
}

/// One kind of op: the structure it runs on, the state it needs, and
/// its `i`-th distinct instance (a batch carries instances 0 and 1).
struct Row {
    name: &'static str,
    ds: &'static str,
    seed: Vec<DsOp>,
    op: fn(usize) -> DsOp,
    mutates: bool,
}

fn rows() -> Vec<Row> {
    let put = |i| DsOp::Put {
        key: key(i),
        value: "v".into(),
    };
    let enqueue = |i| DsOp::Enqueue { item: key(i) };
    vec![
        Row {
            name: "Put",
            ds: "kv_store",
            seed: vec![],
            op: put,
            mutates: true,
        },
        Row {
            name: "Delete",
            ds: "kv_store",
            seed: vec![put(0), put(1)],
            op: |i| DsOp::Delete { key: key(i) },
            mutates: true,
        },
        Row {
            name: "Enqueue",
            ds: "queue",
            seed: vec![],
            op: enqueue,
            mutates: true,
        },
        Row {
            name: "Dequeue",
            ds: "queue",
            seed: (0..4).map(enqueue).collect(),
            op: |_| DsOp::Dequeue,
            mutates: true,
        },
        Row {
            name: "FileWrite",
            ds: "file",
            seed: vec![],
            op: |i| DsOp::FileWrite {
                offset: 4 * i as u64,
                data: "abcd".into(),
            },
            mutates: true,
        },
        Row {
            name: "FileAppend",
            ds: "file",
            seed: vec![],
            op: |_| DsOp::FileAppend {
                data: "abcd".into(),
            },
            mutates: true,
        },
        Row {
            name: "Custom",
            ds: "bump",
            seed: vec![],
            op: |_| DsOp::Custom {
                ds: "bump".into(),
                op: "bump".into(),
                payload: Blob::new(vec![]),
            },
            mutates: true,
        },
        Row {
            name: "Get",
            ds: "kv_store",
            seed: vec![put(0), put(1)],
            op: |i| DsOp::Get { key: key(i) },
            mutates: false,
        },
    ]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Op,
    ReplicateAlone,
    ReplicateToTail,
    Batch,
    ReplicateBatch,
}

const PATHS: [Path; 5] = [
    Path::Op,
    Path::ReplicateAlone,
    Path::ReplicateToTail,
    Path::Batch,
    Path::ReplicateBatch,
];

impl Path {
    fn reaches_tail(self) -> bool {
        matches!(self, Self::ReplicateToTail | Self::ReplicateBatch)
    }

    /// Ops the request executes successfully.
    fn ops(self) -> u64 {
        match self {
            Self::Op | Self::ReplicateAlone | Self::ReplicateToTail => 1,
            Self::Batch | Self::ReplicateBatch => 2,
        }
    }
}

/// Runs one cell and returns what it got wrong.
fn run_cell(rig: &Rig, row: &Row, path: Path, fresh_session: bool, cell: u32) -> Vec<String> {
    let head_block = BlockId(u64::from(cell));
    let tail_block = BlockId(u64::from(BLOCKS + cell));
    for (server, block) in [(&rig.head, head_block), (&rig.tail, tail_block)] {
        init_block(server, block, row.ds);
        for op in &row.seed {
            internal(
                server,
                DataRequest::Op {
                    block,
                    op: op.clone(),
                },
            );
        }
    }
    let downstream = if path.reaches_tail() {
        vec![Replica {
            block: tail_block,
            server: ServerId(1),
            addr: rig.tail_addr.clone(),
        }]
    } else {
        vec![]
    };
    // A tracked op of the wrong structure: fails wherever it runs.
    let failing = if row.ds == "queue" {
        DsOp::Delete { key: key(0) }
    } else {
        DsOp::Dequeue
    };
    let batch_ops = vec![(row.op)(0), (row.op)(1), failing];
    let batch_rids = vec![rid(), rid(), rid()];
    // `Op` keys the window on the envelope id; the variants that carry
    // rids in the body get an unrelated envelope id, as over TCP.
    let (id, req) = match path {
        Path::Op => (
            rid(),
            DataRequest::Op {
                block: head_block,
                op: (row.op)(0),
            },
        ),
        Path::ReplicateAlone | Path::ReplicateToTail => (
            7,
            DataRequest::Replicate {
                block: head_block,
                op: (row.op)(0),
                downstream,
                rid: rid(),
            },
        ),
        Path::Batch => (
            7,
            DataRequest::Batch {
                block: head_block,
                ops: batch_ops,
                rids: batch_rids,
            },
        ),
        Path::ReplicateBatch => (
            7,
            DataRequest::ReplicateBatch {
                block: head_block,
                ops: batch_ops,
                downstream,
                rids: batch_rids,
            },
        ),
    };
    let first_session = session();
    let retry_session = if fresh_session {
        session()
    } else {
        first_session.clone()
    };
    let stats = || [rig.head.stats(), rig.tail.stats()];
    let before = stats();
    let first = send(
        &rig.head,
        &first_session,
        id,
        TenantId::ANONYMOUS,
        req.clone(),
    );
    let mid = stats();
    let retry = send(&rig.head, &retry_session, id, TenantId::ANONYMOUS, req);
    let after = stats();

    let n = path.ops();
    let mut wrong = Vec::new();
    let mut check = |what: &str, ok: bool| {
        if !ok {
            wrong.push(what.to_string());
        }
    };
    match &first {
        Ok(DataResponse::OpResult(_)) => {}
        Ok(DataResponse::Batch(r)) => check(
            "first batch is not [Ok, Ok, Err]",
            r.len() == 3 && r[0].is_ok() && r[1].is_ok() && r[2].is_err(),
        ),
        other => check(&format!("first attempt answered {other:?}"), false),
    }
    check("retry answered differently", retry == first);
    let replicas = [
        ("head", &rig.head, head_block),
        ("tail", &rig.tail, tail_block),
    ];
    for (i, (who, server, block)) in replicas.into_iter().enumerate() {
        let (before, mid, after) = (before[i], mid[i], after[i]);
        let reached = i == 0 || path.reaches_tail();
        let executed = if reached { n } else { 0 };
        let (re_executed, replayed, resident) = if row.mutates {
            (0, executed, executed)
        } else {
            (executed, 0, 0)
        };
        check(
            &format!("{who}: first attempt executed {} ops", mid.ops - before.ops),
            mid.ops - before.ops == executed,
        );
        check(
            &format!("{who}: retry executed {} ops", after.ops - mid.ops),
            after.ops - mid.ops == re_executed,
        );
        check(
            &format!(
                "{who}: retry replayed {} ops",
                after.window_replays - mid.window_replays
            ),
            mid.window_replays == before.window_replays
                && after.window_replays - mid.window_replays == replayed,
        );
        let len = window_len(server, block);
        check(
            &format!("{who}: window holds {len} entries"),
            len as u64 == resident,
        );
    }
    wrong
}

#[test]
fn every_mutation_replays_on_every_path_and_reads_never_do() {
    let mut failures = Vec::new();
    let mut table = String::new();
    for row in rows() {
        let rig = rig(JiffyConfig::for_testing());
        let mut cell = 0;
        table += &format!("{:<11}", row.name);
        for path in PATHS {
            for fresh_session in [false, true] {
                let wrong = run_cell(&rig, &row, path, fresh_session, cell);
                cell += 1;
                table += if wrong.is_empty() { " ok  " } else { " FAIL" };
                for w in wrong {
                    failures.push(format!(
                        "{} x {path:?} x {} session: {w}",
                        row.name,
                        if fresh_session { "fresh" } else { "same" }
                    ));
                }
            }
        }
        table += "\n";
    }
    assert!(
        failures.is_empty(),
        "columns: Op, Replicate[], Replicate[tail], Batch, ReplicateBatch, \
         each as same|fresh session\n{table}\n{}",
        failures.join("\n")
    );
}

/// An op that fails is answered, not remembered: once the cause heals,
/// the same request id executes.
#[test]
fn a_failed_op_is_never_cached() {
    let rig = rig(JiffyConfig::for_testing());
    for (cell, replicate) in [false, true].into_iter().enumerate() {
        let block = BlockId(cell as u64);
        init_block(&rig.head, block, "kv_store");
        let set_sealed = |sealed| {
            internal(&rig.head, DataRequest::SealBlock { block, sealed });
        };
        let op = DsOp::Put {
            key: key(0),
            value: "v".into(),
        };
        let rid = rid();
        let req = if replicate {
            DataRequest::Replicate {
                block,
                op,
                downstream: vec![],
                rid,
            }
        } else {
            DataRequest::Op { block, op }
        };
        let attempt = || send(&rig.head, &session(), rid, TenantId::ANONYMOUS, req.clone());
        set_sealed(true);
        assert_eq!(attempt(), Err(JiffyError::StaleMetadata));
        assert_eq!(window_len(&rig.head, block), 0);
        set_sealed(false);
        assert_eq!(
            attempt(),
            Ok(DataResponse::OpResult(DsResult::Replaced(None)))
        );
        // ...and from here on it is a replay.
        assert_eq!(
            attempt(),
            Ok(DataResponse::OpResult(DsResult::Replaced(None)))
        );
    }
    assert_eq!(rig.head.stats().ops, 2);
    assert_eq!(rig.head.stats().window_replays, 2);
}

/// QoS meets the window (DESIGN.md §14): admission runs before the
/// window is consulted, so the retry of an executed put whose ack was
/// lost can itself be throttled. The client backs off and re-sends; the
/// admitted retry is replayed, not re-executed, and the tenant is
/// charged for it once more.
#[test]
fn throttled_retry_of_an_executed_put_is_replayed_once_admitted() {
    // One token, refilled once a second: the put drains the bucket.
    let mut cfg = JiffyConfig::for_testing();
    cfg.qos = QosConfig {
        burst_factor: 1.0,
        ..QosConfig::enabled_with_rates(1, 0)
    };
    let rig = rig(cfg);
    let block = BlockId(0);
    init_block(&rig.head, block, "kv_store");
    let tenant = TenantId(7);
    let rid = rid();
    let put = DataRequest::Replicate {
        block,
        op: DsOp::Put {
            key: key(0),
            value: "v".into(),
        },
        downstream: vec![],
        rid,
    };
    let attempt = || send(&rig.head, &session(), rid, tenant, put.clone());

    // Executed; the client never sees this ack.
    assert_eq!(
        attempt(),
        Ok(DataResponse::OpResult(DsResult::Replaced(None)))
    );
    let retry_after_ms = match attempt() {
        Err(JiffyError::Throttled { retry_after_ms }) => retry_after_ms,
        other => panic!("retry should have been throttled, got {other:?}"),
    };
    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms + 20));
    // The one success the client sees is the first execution's result:
    // a second execution would answer `Replaced(Some("v"))`.
    assert_eq!(
        attempt(),
        Ok(DataResponse::OpResult(DsResult::Replaced(None)))
    );
    let stats = rig.head.stats();
    assert_eq!((stats.ops, stats.window_replays), (1, 1));
    let load = rig.head.tenant_loads();
    let load = load.iter().find(|l| l.tenant == tenant).unwrap();
    assert_eq!((load.ops_admitted, load.ops_throttled), (2, 1));
}
