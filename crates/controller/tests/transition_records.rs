//! Drain, server failure and lease expiry journal small outcome records
//! (DESIGN.md §11), decided in a fixed order:
//!
//! - one scripted history, played on fresh controllers in one process
//!   (each with its own hash keys), writes byte-identical objects;
//! - a server failure journals a sliver of the state mirror, and a drain
//!   journals well under 1 KB per migrated chain.

#![allow(clippy::expect_used)]

use std::time::Duration;

use jiffy_common::clock::ManualClock;
use jiffy_common::{JiffyConfig, JobId, ServerId};
use jiffy_controller::{Controller, NoopDataPlane};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{ControlRequest, ControlResponse, DsType};
use jiffy_sync::Arc;

struct Rig {
    ctrl: Arc<Controller>,
    clock: Arc<ManualClock>,
    store: Arc<MemObjectStore>,
}

fn rig() -> Rig {
    let (clock, shared) = ManualClock::shared();
    let store = Arc::new(MemObjectStore::new());
    let cfg = JiffyConfig::for_testing().with_meta_snapshot_every(0);
    let ctrl =
        Controller::new(cfg, shared, Arc::new(NoopDataPlane), store.clone()).expect("controller");
    Rig { ctrl, clock, store }
}

impl Rig {
    fn call(&self, req: ControlRequest) -> ControlResponse {
        self.ctrl.dispatch(req).expect("request succeeds")
    }

    fn join(&self, blocks: u32) {
        self.call(ControlRequest::JoinServer {
            addr: "inproc:mem".into(),
            capacity_blocks: blocks,
        });
    }

    fn register(&self) -> JobId {
        match self.call(ControlRequest::RegisterJob { name: "j".into() }) {
            ControlResponse::JobRegistered { job } => job,
            other => panic!("{other:?}"),
        }
    }

    fn create(&self, job: JobId, name: &str) {
        self.call(ControlRequest::CreatePrefix {
            job,
            name: name.into(),
            parents: vec![],
            ds: Some(DsType::File),
            initial_blocks: 1,
        });
    }

    /// Every object in the store, path and bytes, in path order.
    fn objects(&self, prefix: &str) -> Vec<(String, Vec<u8>)> {
        let mut paths = self.store.list(prefix);
        paths.sort();
        let get = |p: String| (p.clone(), self.store.get(&p).expect("listed"));
        paths.into_iter().map(get).collect()
    }

    fn journal_bytes(&self) -> usize {
        let objects = self.objects("jiffy-meta/journal/");
        objects.iter().map(|(_, bytes)| bytes.len()).sum()
    }
}

/// Servers 0, 1, 2 with four blocks each. Two lapsed nodes expire; two
/// flushed prefixes on server 0 reload onto server 1 when it dies; the
/// drain of server 1 migrates them to server 2.
fn scripted_history() -> Vec<(String, Vec<u8>)> {
    let r = rig();
    for _ in 0..3 {
        r.join(4);
    }
    let job = r.register();
    r.create(job, "lapse-b");
    r.create(job, "lapse-a");
    r.clock.advance(Duration::from_secs(2));
    let expired = r.ctrl.run_expiry_once();
    let names: Vec<&str> = expired.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(names, ["lapse-a", "lapse-b"]);
    for name in ["q", "p"] {
        r.create(job, name);
        r.call(ControlRequest::FlushPrefix {
            job,
            name: name.into(),
            external_path: format!("ext/{name}"),
        });
    }
    r.ctrl
        .handle_server_failure(ServerId(0))
        .expect("failure handled");
    let drained = r.call(ControlRequest::LeaveServer {
        server: ServerId(1),
    });
    assert!(matches!(
        drained,
        ControlResponse::Drained {
            blocks_migrated: 2,
            ..
        }
    ));
    assert_eq!(r.ctrl.check_invariants(), Vec::<String>::new());
    // Both reloaded prefixes now live on server 2.
    let mirror = r.ctrl.state_mirror();
    for node in mirror.jobs[0].nodes.iter().filter(|n| n.ds.is_some()) {
        let locs = node.ds.as_ref().map(|m| m.locations()).unwrap_or_default();
        assert_eq!(locs[0].head().server, ServerId(2), "{}", node.name);
    }
    r.objects("")
}

#[test]
fn one_history_writes_one_journal() {
    let first = scripted_history();
    assert!(first
        .iter()
        .any(|(p, _)| p.starts_with("jiffy-meta/journal/")));
    for run in 1..8 {
        assert!(scripted_history() == first, "run {run} wrote other objects");
    }
}

#[test]
fn failure_and_drain_journal_small_records() {
    const JOBS: usize = 200;
    let r = rig();
    // Server 0 holds every chain, server 1 none, server 2 the room.
    r.join(JOBS as u32);
    r.join(4);
    r.join(JOBS as u32);
    for _ in 0..JOBS {
        let job = r.register();
        r.create(job, "part");
    }
    let mirror = jiffy_proto::to_bytes(&r.ctrl.state_mirror()).expect("encode");
    let before = r.journal_bytes();
    r.ctrl
        .handle_server_failure(ServerId(1))
        .expect("failure handled");
    let failure = r.journal_bytes() - before;
    assert!(
        failure * 100 < mirror.len(),
        "failure journaled {failure} B against a {} B mirror",
        mirror.len()
    );
    let before = r.journal_bytes();
    let drained = r.call(ControlRequest::LeaveServer {
        server: ServerId(0),
    });
    assert!(matches!(
        drained,
        ControlResponse::Drained { blocks_migrated, .. } if blocks_migrated as usize == JOBS
    ));
    let drain = r.journal_bytes() - before;
    assert!(
        drain < JOBS * 1024,
        "drain of {JOBS} chains journaled {drain} B"
    );
    let shared: jiffy_common::clock::SharedClock = r.clock.clone();
    let cfg = JiffyConfig::for_testing();
    let rec = Controller::recover(cfg, shared, Arc::new(NoopDataPlane), r.store.clone())
        .expect("recovery");
    assert_eq!(rec.check_invariants(), Vec::<String>::new());
    assert_eq!(
        rec.state_mirror().normalized(),
        r.ctrl.state_mirror().normalized()
    );
}
