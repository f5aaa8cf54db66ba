//! Custom data structures via the internal block API (paper Fig. 6 and
//! the "custom data structures" row of Table 2): a from-scratch
//! `counter` partition is registered on a memory server, initialized
//! through the standard `InitBlock` path and driven with `DsOp::Custom`.

use jiffy_sync::Arc;

use jiffy_block::Partition;
use jiffy_common::{JiffyConfig, JiffyError, Result};
use jiffy_controller::{RpcDataPlane, ShardedController};
use jiffy_persistent::MemObjectStore;
use jiffy_proto::{
    Blob, ControlRequest, ControlResponse, DataRequest, DataResponse, DsOp, DsResult, DsType,
    Envelope, SplitSpec,
};
use jiffy_rpc::Fabric;
use jiffy_server::MemoryServer;

/// A set of named u64 counters with a cumulative-add operator — the kind
/// of accumulator structure Piccolo-style applications want.
struct CounterPartition {
    capacity: usize,
    counters: std::collections::HashMap<String, u64>,
}

impl Partition for CounterPartition {
    fn ds_type(&self) -> DsType {
        // Custom structures piggyback on the closest built-in type tag
        // for introspection; the registry name is what matters.
        DsType::KvStore
    }

    fn execute(&mut self, op: &DsOp) -> Result<DsResult> {
        match op {
            DsOp::Custom { ds, op, payload } if ds == "counter" => match op.as_str() {
                "add" => {
                    let (name, delta): (String, u64) = jiffy_proto::from_bytes(payload)?;
                    if self.used_bytes() + name.len() + 8 > self.capacity {
                        return Err(JiffyError::BlockFull {
                            capacity: self.capacity,
                            requested: name.len() + 8,
                        });
                    }
                    let v = self.counters.entry(name).or_insert(0);
                    *v += delta;
                    Ok(DsResult::Size(*v))
                }
                "read" => {
                    let name: String = jiffy_proto::from_bytes(payload)?;
                    Ok(DsResult::Size(
                        self.counters.get(&name).copied().unwrap_or(0),
                    ))
                }
                other => Err(JiffyError::Internal(format!("unknown counter op {other}"))),
            },
            other => Err(JiffyError::WrongDataStructure {
                expected: "counter".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    fn used_bytes(&self) -> usize {
        self.counters.keys().map(|k| k.len() + 8).sum()
    }

    fn export(&self) -> Result<Vec<u8>> {
        let entries: Vec<(&String, &u64)> = self.counters.iter().collect();
        jiffy_proto::to_bytes(&entries)
    }

    fn absorb(&mut self, payload: &[u8]) -> Result<()> {
        let entries: Vec<(String, u64)> = jiffy_proto::from_bytes(payload)?;
        for (k, v) in entries {
            *self.counters.entry(k).or_insert(0) += v;
        }
        Ok(())
    }

    fn split_out(&mut self, _spec: &SplitSpec) -> Result<Vec<u8>> {
        Err(JiffyError::Internal("counter does not split".into()))
    }
}

fn data(fabric: &Fabric, addr: &str, req: DataRequest) -> Result<DataResponse> {
    let conn = fabric.connect(addr)?;
    let env = Envelope::DataReq {
        id: 0,
        req,
        tenant: jiffy_common::TenantId::ANONYMOUS,
    };
    match conn.call(env)? {
        Envelope::DataResp { resp, .. } => resp,
        other => panic!("{other:?}"),
    }
}

#[test]
fn custom_counter_structure_runs_on_a_memory_server() {
    let fabric = Fabric::new();
    let cfg = JiffyConfig::for_testing();
    let controller = ShardedController::build(
        cfg.clone(),
        jiffy_common::clock::SystemClock::shared(),
        Arc::new(RpcDataPlane::new(fabric.clone())),
        Arc::new(MemObjectStore::new()),
        1,
    )
    .unwrap();
    let controller_addr = fabric.hub().register(Arc::new(controller));

    // Register the custom factory before the server starts serving.
    let server = MemoryServer::new(cfg.clone(), fabric.clone(), controller_addr.clone());
    server.register_custom_ds(
        "counter",
        Box::new(|capacity, _params| {
            Ok(Box::new(CounterPartition {
                capacity,
                counters: std::collections::HashMap::new(),
            }) as Box<dyn Partition>)
        }),
    );
    let addr = fabric.hub().register(server.clone());
    server.register(&addr, 4).unwrap();

    // Reserve a block through the controller, then initialize it as a
    // counter via the standard init path (name-based registry lookup).
    let conn = fabric.connect(&controller_addr).unwrap();
    let job = match conn
        .call(Envelope::ControlReq {
            id: 0,
            req: ControlRequest::RegisterJob {
                name: "custom".into(),
            },
            tenant: jiffy_common::TenantId::ANONYMOUS,
        })
        .unwrap()
    {
        Envelope::ControlResp {
            resp: Ok(ControlResponse::JobRegistered { job }),
            ..
        } => job,
        other => panic!("{other:?}"),
    };
    let _ = job;
    data(
        &fabric,
        &addr,
        DataRequest::InitBlock {
            block: jiffy_common::BlockId(0),
            ds: "counter".into(),
            params: Blob::default(),
        },
    )
    .unwrap();

    // Drive it with Custom ops.
    for (name, delta) in [("reqs", 5u64), ("reqs", 7), ("errors", 1)] {
        let payload = jiffy_proto::to_bytes(&(name.to_string(), delta)).unwrap();
        data(
            &fabric,
            &addr,
            DataRequest::Op {
                block: jiffy_common::BlockId(0),
                op: DsOp::Custom {
                    ds: "counter".into(),
                    op: "add".into(),
                    payload: payload.into(),
                },
            },
        )
        .unwrap();
    }
    let read = |name: &str| -> u64 {
        let payload = jiffy_proto::to_bytes(&name.to_string()).unwrap();
        match data(
            &fabric,
            &addr,
            DataRequest::Op {
                block: jiffy_common::BlockId(0),
                op: DsOp::Custom {
                    ds: "counter".into(),
                    op: "read".into(),
                    payload: payload.into(),
                },
            },
        )
        .unwrap()
        {
            DataResponse::OpResult(DsResult::Size(v)) => v,
            other => panic!("{other:?}"),
        }
    };
    assert_eq!(read("reqs"), 12);
    assert_eq!(read("errors"), 1);
    assert_eq!(read("missing"), 0);

    // Export / absorb works through the generic block machinery too.
    let exported = match data(
        &fabric,
        &addr,
        DataRequest::ExportBlock {
            block: jiffy_common::BlockId(0),
        },
    )
    .unwrap()
    {
        DataResponse::Exported { payload, .. } => payload,
        other => panic!("{other:?}"),
    };
    data(
        &fabric,
        &addr,
        DataRequest::InitBlock {
            block: jiffy_common::BlockId(1),
            ds: "counter".into(),
            params: Blob::default(),
        },
    )
    .unwrap();
    data(
        &fabric,
        &addr,
        DataRequest::ImportPayload {
            block: jiffy_common::BlockId(1),
            payload: exported,
            replay: Blob::default(),
        },
    )
    .unwrap();
    // Same totals on the restored block.
    let payload = jiffy_proto::to_bytes(&"reqs".to_string()).unwrap();
    match data(
        &fabric,
        &addr,
        DataRequest::Op {
            block: jiffy_common::BlockId(1),
            op: DsOp::Custom {
                ds: "counter".into(),
                op: "read".into(),
                payload: payload.into(),
            },
        },
    )
    .unwrap()
    {
        DataResponse::OpResult(DsResult::Size(v)) => assert_eq!(v, 12),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unknown_custom_structure_is_rejected() {
    let fabric = Fabric::new();
    let cfg = JiffyConfig::for_testing();
    let controller = ShardedController::build(
        cfg.clone(),
        jiffy_common::clock::SystemClock::shared(),
        Arc::new(RpcDataPlane::new(fabric.clone())),
        Arc::new(MemObjectStore::new()),
        1,
    )
    .unwrap();
    let controller_addr = fabric.hub().register(Arc::new(controller));
    let server = MemoryServer::new(cfg, fabric.clone(), controller_addr);
    let addr = fabric.hub().register(server.clone());
    server.register(&addr, 1).unwrap();
    let err = data(
        &fabric,
        &addr,
        DataRequest::InitBlock {
            block: jiffy_common::BlockId(0),
            ds: "btree".into(),
            params: Blob::default(),
        },
    )
    .unwrap_err();
    assert!(matches!(err, JiffyError::Internal(_)), "{err:?}");
}
