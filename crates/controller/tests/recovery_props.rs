//! Property tests for controller crash recovery (DESIGN.md §11): for an
//! arbitrary control-plane history, replaying the metadata journal must
//! reproduce the live controller's state exactly — including when a
//! snapshot interleaves the history, and when a crash left the snapshot
//! *and* the journal records it already covers (failed truncation), so
//! records are seen twice. Part of every history arrives over the wire
//! with client-stamped request ids, some of them retried, so "state"
//! includes the replay window: the recovered shard must hold exactly the
//! answers the live one recorded. Histories also drain servers, kill
//! them, and let every lease lapse, so the drain, failure and expiry
//! transitions face the same three properties.

// Test-only target: setup helpers outside `#[test]` fns may panic on
// rig construction failure (the workspace `expect_used` lint is aimed
// at production code; `allow-expect-in-tests` doesn't reach free fns).
#![allow(clippy::expect_used)]

use jiffy_common::clock::{ManualClock, SharedClock};
use jiffy_common::{BlockId, JiffyConfig, ServerId};
use jiffy_controller::{Controller, NoopDataPlane, ShardedController, StateMirror};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{
    ControlRequest, ControlResponse, DagNodeSpec, DsType, Envelope, CLIENT_RID_BASE,
};
use jiffy_rpc::{Service, SessionHandle};
use jiffy_sync::Arc;
use proptest::prelude::*;

/// A node name: six names, so histories revisit them.
fn name_of(arg: u8) -> String {
    format!("n{}", arg % 6)
}

/// A plain name, or for some `arg`s a dotted path ending at it, which
/// resolves only while the edge it spells exists.
fn path_of(arg: u8) -> String {
    if arg & 0x40 == 0 {
        name_of(arg)
    } else {
        format!("{}.{}", name_of(arg / 8), name_of(arg))
    }
}

/// One random action: a control request, or a transition no request
/// starts.
#[derive(Debug)]
enum Action {
    Request(ControlRequest),
    /// A server death, as the failure detector declares it.
    Kill(ServerId),
    /// Every lease lapses, then the expiry worker runs once.
    Expire,
}

/// Decodes an `(opcode, arg)` pair; server ids `arg % 4` cover the two
/// seed servers and the first two joiners.
fn action_for(job: jiffy_common::JobId, opcode: u8, arg: u8) -> Action {
    let server = ServerId(u64::from(arg % 4));
    match opcode % 14 {
        11 => Action::Request(ControlRequest::LeaveServer { server }),
        12 => Action::Kill(server),
        13 => Action::Expire,
        _ => Action::Request(request_for(job, opcode, arg)),
    }
}

/// One random control request, decoded from an `(opcode, arg)` pair.
fn request_for(job: jiffy_common::JobId, opcode: u8, arg: u8) -> ControlRequest {
    let name = name_of(arg);
    match opcode % 11 {
        0 => ControlRequest::CreatePrefix {
            job,
            name,
            parents: if arg & 0x80 == 0 {
                vec![]
            } else {
                vec![name_of(arg / 8)]
            },
            ds: Some(match arg % 3 {
                0 => DsType::KvStore,
                1 => DsType::File,
                _ => DsType::Queue,
            }),
            // Up to four chains: a flushed image can outgrow what is
            // free when it loads back.
            initial_blocks: 1 + u32::from(arg % 4),
        },
        1 => ControlRequest::RemovePrefix {
            job,
            name: path_of(arg),
        },
        2 => ControlRequest::RenewLease {
            job,
            name: path_of(arg),
        },
        3 => ControlRequest::FlushPrefix {
            job,
            name: path_of(arg),
            external_path: format!("ext/{}", arg % 6),
        },
        4 => ControlRequest::LoadPrefix {
            job,
            name,
            external_path: format!("ext/{}", (arg / 8) % 6),
        },
        5 => ControlRequest::JoinServer {
            addr: format!("inproc:extra-{arg}"),
            capacity_blocks: 2 + u32::from(arg % 3),
        },
        6 => ControlRequest::ReportOverload {
            block: BlockId(u64::from(arg % 16)),
            used: u64::MAX / 2,
        },
        7 => ControlRequest::ReportUnderload {
            block: BlockId(u64::from(arg % 16)),
            used: 0,
        },
        // Three nodes, the second under the first; the third's parent
        // is missing for odd `arg`s, which must fail the whole request.
        8 => {
            let node = |name: String, parents: Vec<String>| DagNodeSpec {
                name,
                parents,
                ds: Some(DsType::File),
                initial_blocks: 1,
            };
            let third_parent = if arg % 2 == 1 {
                "ghost".to_string()
            } else {
                name_of(arg / 8)
            };
            ControlRequest::CreateHierarchy {
                job,
                nodes: vec![
                    node(name_of(arg), vec![]),
                    node(name_of(arg / 8), vec![name_of(arg)]),
                    node(name_of(arg / 64), vec![third_parent]),
                ],
            }
        }
        9 => ControlRequest::AddParent {
            job,
            name,
            parent: name_of(arg / 8),
        },
        _ => ControlRequest::SetTenantShare {
            tenant: jiffy_common::TenantId(1 + u64::from(arg % 3)),
            share: u32::from(arg % 4),
            quota_bytes: u64::from(arg) << 20,
            ops_per_sec: 0,
            bytes_per_sec: 0,
        },
    }
}

struct Rig {
    /// A one-shard control plane, so wire envelopes (and their ids) reach
    /// `ctrl` exactly as they do in a served cluster.
    plane: ShardedController,
    ctrl: Arc<Controller>,
    clock: Arc<ManualClock>,
    store: Arc<MemObjectStore>,
    cfg: JiffyConfig,
    job: jiffy_common::JobId,
}

fn rig(cfg: JiffyConfig) -> Rig {
    let (clock, shared) = ManualClock::shared();
    let store = Arc::new(MemObjectStore::new());
    let plane = ShardedController::build(
        cfg.clone(),
        shared,
        Arc::new(NoopDataPlane),
        store.clone(),
        1,
    )
    .expect("fresh controller");
    let ctrl = plane.shard(0);
    // Two seed servers, so a drain has somewhere to go and a kill leaves
    // a survivor.
    for addr in ["inproc:seed", "inproc:spare"] {
        ctrl.dispatch(ControlRequest::JoinServer {
            addr: addr.into(),
            capacity_blocks: 8,
        })
        .expect("seed server");
    }
    let job = match ctrl
        .dispatch(ControlRequest::RegisterJob {
            name: "prop".into(),
        })
        .expect("register")
    {
        ControlResponse::JobRegistered { job } => job,
        other => panic!("{other:?}"),
    };
    Rig {
        plane,
        ctrl,
        clock,
        store,
        cfg,
        job,
    }
}

fn recovered(r: &Rig) -> Arc<Controller> {
    let shared: SharedClock = r.clock.clone();
    Controller::recover(
        r.cfg.clone(),
        shared,
        Arc::new(NoopDataPlane),
        r.store.clone(),
    )
    .expect("recovery")
}

/// Plays a history. For a request, `mode % 4`: 0 dispatches untracked,
/// 1 and 2 send an envelope with a fresh client rid, 3 re-sends the last
/// such envelope (a client retry: same id, same request). Calls `after`
/// with each action's outcome and the normalized mirrors before and
/// after it.
fn play_observed(
    r: &Rig,
    ops: &[(u8, u8, u8)],
    mut after: impl FnMut(&dyn std::fmt::Debug, bool, &StateMirror, &StateMirror),
) {
    let session = SessionHandle::new(Arc::new(|_| {}));
    let mut last: Option<Envelope> = None;
    for (i, (opcode, arg, mode)) in ops.iter().enumerate() {
        let before = r.ctrl.state_mirror().normalized();
        let req = match action_for(r.job, *opcode, *arg) {
            Action::Request(req) => req,
            action => {
                let failed = match action {
                    Action::Kill(server) => r.ctrl.handle_server_failure(server).is_err(),
                    _ => {
                        r.clock
                            .advance(r.cfg.lease_duration + std::time::Duration::from_millis(1));
                        r.ctrl.run_expiry_once();
                        false
                    }
                };
                after(
                    &action,
                    failed,
                    &before,
                    &r.ctrl.state_mirror().normalized(),
                );
                continue;
            }
        };
        // Individual requests may legitimately fail (duplicate create,
        // flush of a bare prefix, unknown block); the invariant under
        // test is journal fidelity, not op success.
        let env = match mode % 4 {
            0 => Envelope::ControlReq {
                id: jiffy_proto::INTERNAL_RID,
                req,
                tenant: jiffy_common::TenantId::ANONYMOUS,
            },
            3 if last.is_some() => last.clone().expect("checked"),
            _ => Envelope::ControlReq {
                id: CLIENT_RID_BASE + i as u64,
                req,
                tenant: jiffy_common::TenantId::ANONYMOUS,
            },
        };
        let failed = match r.plane.handle(env.clone(), &session) {
            Envelope::ControlResp { resp, .. } => resp.is_err(),
            other => panic!("{other:?}"),
        };
        if let Envelope::ControlReq { id, req, .. } = &env {
            after(req, failed, &before, &r.ctrl.state_mirror().normalized());
            if *id != jiffy_proto::INTERNAL_RID {
                last = Some(env);
            }
        }
    }
}

fn play(r: &Rig, ops: &[(u8, u8, u8)]) {
    play_observed(r, ops, |_, _, _, _| {});
}

fn history() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..14, any::<u8>(), any::<u8>()), 1..40)
}

fn assert_equivalent(live: &Controller, rec: &Controller) -> Result<(), TestCaseError> {
    let violations = rec.check_invariants();
    prop_assert!(violations.is_empty(), "{:?}", violations);
    prop_assert_eq!(
        live.state_mirror().normalized(),
        rec.state_mirror().normalized()
    );
    Ok(())
}

proptest! {
    // Drains, kills and expiries thin out the data a history holds, so
    // it takes a few hundred histories for drains to migrate chains.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Snapshot-every-3 means random histories routinely straddle
    /// several snapshot+truncate cycles; recovery must land on the live
    /// state regardless of where the last snapshot fell.
    #[test]
    fn random_histories_recover_exactly(ops in history()) {
        let r = rig(JiffyConfig::for_testing().with_meta_snapshot_every(3));
        play(&r, &ops);
        assert_equivalent(&r.ctrl, &recovered(&r))?;
    }

    /// Replaying a journal twice yields identical state: resurrect the
    /// truncated records next to the snapshot that covers them, then
    /// recover twice more for good measure.
    #[test]
    fn double_replay_is_idempotent(ops in history()) {
        let r = rig(JiffyConfig::for_testing().with_meta_snapshot_every(0));
        play(&r, &ops);
        let saved: Vec<(String, Vec<u8>)> = r
            .store
            .list("jiffy-meta/journal/")
            .into_iter()
            .map(|p| {
                let data = r.store.get(&p).expect("listed object exists");
                (p, data)
            })
            .collect();
        r.ctrl.snapshot_now().expect("snapshot");
        for (path, data) in &saved {
            r.store.put(path, data).expect("resurrect record");
        }
        let first = recovered(&r);
        assert_equivalent(&r.ctrl, &first)?;
        // Recovery itself is deterministic and side-effect-free on the
        // journal: doing it again produces the same controller.
        let second = recovered(&r);
        prop_assert_eq!(first.state_mirror(), second.state_mirror());
    }

    /// A request that returns an error changed nothing: no block taken
    /// or freed, no node half-made, no answer recorded — so nothing the
    /// journal never saw.
    #[test]
    fn failed_requests_leave_no_trace(ops in history()) {
        let r = rig(JiffyConfig::for_testing().with_meta_snapshot_every(3));
        let mut traces = Vec::new();
        play_observed(&r, &ops, |action, failed, before, after| {
            if failed && before != after {
                traces.push(format!("{action:?}"));
            }
        });
        prop_assert!(traces.is_empty(), "failed requests changed state: {:?}", traces);
        assert_equivalent(&r.ctrl, &recovered(&r))?;
    }
}
