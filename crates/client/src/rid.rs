//! Client-side request-id allocation.
//!
//! Every control and data request carries a non-zero id, and a retry of
//! one request deliberately reuses it: the server side treats a repeated
//! id as "same request — replay the recorded result". On the data plane
//! that record is the target block's replay window, which replicates and
//! migrates with the block, so ids must stay unique across *all* of a
//! process's requests, not just per connection; on the control plane it
//! is the controller's per-session [`jiffy_rpc::Deduplicated`] cache. A
//! process-wide counter serves both.
//!
//! The counter starts at [`jiffy_proto::CLIENT_RID_BASE`] so
//! client-stamped ids can never collide with the per-connection
//! auto-ids that [`jiffy_rpc::tcp`] assigns to unstamped
//! ([`jiffy_proto::INTERNAL_RID`]) requests, which count up from 1.
//! Servers use the same threshold to decide whether an id identifies a
//! client request whose result belongs in the per-block replay window.

use jiffy_proto::CLIENT_RID_BASE;
use jiffy_sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(CLIENT_RID_BASE);

/// Returns a fresh process-unique request id.
pub fn next_request_id() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_above_the_connection_range() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a >= 1 << 32);
        assert!(b >= 1 << 32);
    }
}
