//! Property-based tests for [`ReplayWindow`] — the bounded replay
//! window behind both the per-block and the per-controller-shard
//! exactly-once record (DESIGN.md par.16).
//!
//! Two properties matter operationally: the window's memory is bounded
//! no matter the insert/lookup sequence (a block cannot be ballooned by
//! a retry storm), and export → import is an exact restore (a promoted
//! or repartitioned replica answers retries identically to the source).

use jiffy_rpc::ReplayWindow;
use proptest::prelude::*;

/// One step of window traffic. Ids are drawn from a small range so
/// repeats (retries) and evict/re-insert cycles both occur often.
#[derive(Clone, Debug)]
enum Step {
    Insert { id: u64, value: u32, bytes: u64 },
    Lookup { id: u64 },
}

fn step_strategy(max_entry_bytes: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..48, any::<u32>(), 0..=max_entry_bytes).prop_map(|(id, value, bytes)| Step::Insert {
            id,
            value,
            bytes
        }),
        (0u64..48).prop_map(|id| Step::Lookup { id }),
    ]
}

proptest! {
    /// Whatever the traffic, the window never holds more than
    /// `max_entries` entries or `max_bytes` total weight (given no
    /// single entry exceeds the byte budget, as on the block path where
    /// per-op results are far below `REPLAY_WINDOW_BYTES`), so resident
    /// memory is bounded by capacity × per-entry cap.
    #[test]
    fn eviction_keeps_the_window_within_both_bounds(
        max_entries in 1usize..24,
        max_bytes in 1u64..4096,
        steps in proptest::collection::vec(step_strategy(256), 0..200),
    ) {
        let entry_cap = 256u64.min(max_bytes);
        let mut w = ReplayWindow::<u32>::new(max_entries, max_bytes);
        let mut watermark = 0;
        for step in steps {
            match step {
                Step::Insert { id, value, bytes } => {
                    w.insert(id, value, bytes.min(entry_cap));
                }
                Step::Lookup { id } => {
                    let _ = w.lookup(id);
                }
            }
            prop_assert!(w.len() <= max_entries, "{} entries", w.len());
            prop_assert!(w.bytes() <= max_bytes, "{} bytes", w.bytes());
            prop_assert!(
                w.watermark() >= watermark,
                "watermark moved backwards"
            );
            watermark = w.watermark();
        }
    }

    /// First insert wins: a retry racing its own record never overwrites
    /// the canonical first-execution result, and a lookup always returns
    /// that result while the entry is resident.
    #[test]
    fn repeated_ids_keep_the_first_value(
        id in any::<u64>(),
        first in any::<u32>(),
        later in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        let mut w = ReplayWindow::new(16, 1 << 16);
        w.insert(id, first, 8);
        for v in later {
            w.insert(id, v, 8);
            prop_assert_eq!(w.lookup(id), Some(&first));
        }
        prop_assert_eq!(w.len(), 1);
    }

    /// Export → import into an empty window is an exact restore: the
    /// re-export is byte-identical, so a chain of promotions/migrations
    /// (export, ship, import, export again) never drifts.
    #[test]
    fn export_import_round_trips_byte_exactly(
        steps in proptest::collection::vec(step_strategy(128), 0..120),
    ) {
        let mut src = ReplayWindow::<u32>::new(12, 1024);
        for step in steps {
            match step {
                Step::Insert { id, value, bytes } => src.insert(id, value, bytes),
                Step::Lookup { id } => {
                    let _ = src.lookup(id);
                }
            }
        }
        let image = src.export_bytes().expect("export");
        let mut dst = ReplayWindow::<u32>::new(12, 1024);
        dst.import_bytes(&image).expect("import");
        prop_assert_eq!(dst.len(), src.len());
        prop_assert_eq!(dst.bytes(), src.bytes());
        prop_assert_eq!(dst.watermark(), src.watermark());
        let reexport = dst.export_bytes().expect("re-export");
        prop_assert!(reexport == image, "restore is not byte-exact");
    }
}
