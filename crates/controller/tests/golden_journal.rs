//! Journal records are the stable on-disk format (DESIGN.md §11): a
//! journal written by an older build must still recover. The fixture
//! holds the journal batches of a controller history that touches every
//! `JournalOp` variant, written before `JournalOp::Answered` existed and
//! before `StateMirror` carried the replay window, with snapshots off —
//! so every record is replayed from the log, including a
//! `StateRewritten` whose embedded mirror has the old layout. Its last
//! two lines are the stats and the normalized state mirror that build
//! recovered from the same bytes.

#![allow(clippy::expect_used)]

use jiffy_common::clock::{ManualClock, SharedClock};
use jiffy_common::JiffyConfig;
use jiffy_controller::{Controller, NoopDataPlane};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{ControlRequest, ControlResponse};
use jiffy_sync::Arc;

const FIXTURE: &str = include_str!("fixtures/golden_journal.txt");

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex byte"))
        .collect()
}

#[test]
fn a_journal_written_before_answered_records_still_recovers() {
    let store = Arc::new(MemObjectStore::new());
    let (mut stats, mut mirror) = (None, None);
    for line in FIXTURE.lines() {
        if let Some(s) = line.strip_prefix("# stats ") {
            stats = Some(s);
        } else if let Some(m) = line.strip_prefix("# mirror ") {
            mirror = Some(m);
        } else if !line.starts_with('#') {
            let (path, bytes) = line.split_once(' ').expect("`<path> <hex>` line");
            store.put(path, &hex(bytes)).expect("seed object");
        }
    }
    let (_clock, shared): (_, SharedClock) = ManualClock::shared();
    let rec = Controller::recover(
        JiffyConfig::for_testing(),
        shared,
        Arc::new(NoopDataPlane),
        store,
    )
    .expect("an old journal must recover");
    assert_eq!(rec.check_invariants(), Vec::<String>::new());
    assert_eq!(Some(format!("{:?}", rec.stats()).as_str()), stats);
    // The same state the old build recovered, plus an empty window.
    let now = format!("{:?}", rec.state_mirror().normalized());
    let old_layout = now
        .strip_suffix(", answered: [] }")
        .map(|head| format!("{head} }}"));
    assert_eq!(old_layout.as_deref(), mirror);
    // And the recovered controller keeps journaling on top of it.
    match rec
        .dispatch(ControlRequest::RegisterJob {
            name: "after".into(),
        })
        .expect("register on the recovered controller")
    {
        ControlResponse::JobRegistered { job } => assert_eq!(job.raw(), 2),
        other => panic!("{other:?}"),
    }
}
