//! The unified error type for all Jiffy crates.

use std::fmt;
use std::io;

use serde::{Deserialize, Serialize};

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, JiffyError>;

/// Errors produced anywhere in the Jiffy control plane, data plane or
/// client library.
///
/// The type is (de)serializable so that errors raised on a remote memory
/// server or controller can be shipped back over the RPC layer verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JiffyError {
    /// An address prefix (or full block address) does not exist in the
    /// hierarchy of the addressed job.
    PathNotFound(String),
    /// Attempt to create an address prefix that already exists.
    PathExists(String),
    /// The job ID is not registered at the controller.
    UnknownJob(u64),
    /// The block ID is not hosted on the addressed memory server.
    UnknownBlock(u64),
    /// The memory server ID is not registered at the controller.
    UnknownServer(u64),
    /// The controller's free list is exhausted (all blocks allocated).
    OutOfBlocks,
    /// A data-structure operation was routed to a partition of the wrong
    /// type (e.g. a queue op sent to a file block).
    WrongDataStructure {
        /// Type the caller expected.
        expected: String,
        /// Type actually found.
        found: String,
    },
    /// A block-level storage operation would exceed the block capacity and
    /// the data structure could not split (e.g. single item larger than a
    /// block).
    BlockFull {
        /// Capacity of the block in bytes.
        capacity: usize,
        /// Bytes the operation attempted to add.
        requested: usize,
    },
    /// The lease on an address prefix has expired; its memory was
    /// reclaimed (data may be recoverable from the persistent tier).
    LeaseExpired(String),
    /// The caller lacks permission for the requested operation on a prefix.
    PermissionDenied(String),
    /// A queue bounded by `max_queue_length` is full.
    QueueFull,
    /// Read past the end of a file or from an empty queue.
    OutOfRange {
        /// Requested offset or position.
        offset: u64,
        /// Current length of the object.
        len: u64,
    },
    /// The client's cached partition metadata is stale; it must refresh
    /// from the controller and retry. Raised by a memory server when an
    /// op addresses a block the server no longer owns for that structure.
    StaleMetadata,
    /// The addressed block was migrated to another server; the redirect
    /// carries the new home so the client can retry there (and refresh
    /// its cached view lazily). Left behind as a tombstone on the source
    /// block until the block is reused.
    BlockMoved {
        /// The block's ID at its new home.
        block: u64,
        /// ID of the server now hosting the block.
        server: u64,
        /// Transport address of the new home.
        addr: String,
    },
    /// The persistent tier has no object under the given external path.
    PersistentObjectMissing(String),
    /// Failure in the RPC/transport layer (connection reset, codec error,
    /// unexpected response variant, ...).
    Rpc(String),
    /// An RPC did not complete within its deadline. The request may or
    /// may not have executed — callers must retry with the same request
    /// id so the server's replay window can deduplicate.
    Timeout {
        /// The deadline that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// The peer is unreachable (connection refused, network partition,
    /// injected fault). Transient by definition: retry after backoff.
    Unavailable(String),
    /// Wire-format decode failure.
    Codec(String),
    /// The cluster or a component was asked to do something while shutting
    /// down.
    ShuttingDown,
    /// Catch-all for internal invariant violations; carries a description.
    Internal(String),
    /// Per-tenant admission control rejected the request *before
    /// executing it* (token bucket empty, or a fairness denial under
    /// memory pressure). Definitive and retryable: the server did NOT
    /// apply the operation, so the caller should back off for roughly
    /// `retry_after_ms` and resend.
    Throttled {
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's hard memory quota would be exceeded by this
    /// allocation. Fatal: retrying cannot succeed until the tenant
    /// frees memory or its quota is raised.
    QuotaExceeded {
        /// Raw id of the over-quota tenant.
        tenant: u64,
        /// The configured quota in bytes.
        quota_bytes: u64,
        /// Bytes the tenant would hold after the rejected allocation.
        requested_bytes: u64,
    },
}

impl JiffyError {
    /// A retryable outage of controller shard `idx` — its slot is dark
    /// between a crash and recovery. Minted here (not at the call site)
    /// because `Unavailable` drives `is_transport()` retry semantics and
    /// may only be constructed by the transport layer: a dark shard must
    /// look exactly like an unreachable peer to clients, so their
    /// existing retry/backoff path rides through the restart.
    pub fn shard_unavailable(idx: u32) -> Self {
        Self::Unavailable(format!("controller shard {idx}"))
    }
}

impl fmt::Display for JiffyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PathNotFound(p) => write!(f, "path not found: {p}"),
            Self::PathExists(p) => write!(f, "path already exists: {p}"),
            Self::UnknownJob(id) => write!(f, "unknown job: job-{id}"),
            Self::UnknownBlock(id) => write!(f, "unknown block: blk-{id}"),
            Self::UnknownServer(id) => write!(f, "unknown server: srv-{id}"),
            Self::OutOfBlocks => write!(f, "no free blocks available"),
            Self::WrongDataStructure { expected, found } => {
                write!(
                    f,
                    "wrong data structure: expected {expected}, found {found}"
                )
            }
            Self::BlockFull {
                capacity,
                requested,
            } => write!(
                f,
                "block full: capacity {capacity} bytes, requested {requested} more"
            ),
            Self::LeaseExpired(p) => write!(f, "lease expired for prefix: {p}"),
            Self::PermissionDenied(p) => write!(f, "permission denied on: {p}"),
            Self::QueueFull => write!(f, "queue is at max_queue_length"),
            Self::OutOfRange { offset, len } => {
                write!(f, "offset {offset} out of range (len {len})")
            }
            Self::StaleMetadata => write!(f, "stale partition metadata; refresh and retry"),
            Self::BlockMoved {
                block,
                server,
                addr,
            } => write!(f, "block moved: now blk-{block} on srv-{server} at {addr}"),
            Self::PersistentObjectMissing(p) => {
                write!(f, "persistent object missing: {p}")
            }
            Self::Rpc(msg) => write!(f, "rpc error: {msg}"),
            Self::Timeout { after_ms } => write!(f, "rpc timed out after {after_ms} ms"),
            Self::Unavailable(peer) => write!(f, "peer unavailable: {peer}"),
            Self::Codec(msg) => write!(f, "codec error: {msg}"),
            Self::ShuttingDown => write!(f, "component is shutting down"),
            Self::Internal(msg) => write!(f, "internal error: {msg}"),
            Self::Throttled { retry_after_ms } => {
                write!(
                    f,
                    "throttled by admission control; retry after {retry_after_ms} ms"
                )
            }
            Self::QuotaExceeded {
                tenant,
                quota_bytes,
                requested_bytes,
            } => write!(
                f,
                "tenant-{tenant} over memory quota: {requested_bytes} bytes requested, \
                 quota {quota_bytes}"
            ),
        }
    }
}

impl std::error::Error for JiffyError {}

impl From<io::Error> for JiffyError {
    fn from(e: io::Error) -> Self {
        Self::Rpc(e.to_string())
    }
}

/// Coarse classification of a [`JiffyError`]: whether retrying the same
/// operation can ever succeed without outside intervention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Transient: the operation may succeed if retried, possibly after a
    /// backoff and/or a metadata refresh.
    Retryable,
    /// Permanent: retrying the identical operation will keep failing.
    Fatal,
}

impl JiffyError {
    /// Returns `true` if the error is transient and the operation may
    /// succeed if retried (possibly after refreshing cached metadata).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::StaleMetadata
                | Self::BlockMoved { .. }
                | Self::QueueFull
                | Self::Rpc(_)
                | Self::Timeout { .. }
                | Self::Unavailable(_)
                | Self::Throttled { .. }
        )
    }

    /// Returns `true` for transport-level faults (the request may have
    /// executed even though no response arrived), as opposed to errors
    /// the *server* returned. Transport faults are safe to retry with
    /// the same request id: the server's replay window deduplicates.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            Self::Rpc(_) | Self::Timeout { .. } | Self::Unavailable(_)
        )
    }

    /// Classifies the error as [`ErrorClass::Retryable`] or
    /// [`ErrorClass::Fatal`].
    pub fn class(&self) -> ErrorClass {
        if self.is_retryable() {
            ErrorClass::Retryable
        } else {
            ErrorClass::Fatal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = JiffyError::PathNotFound("t1.t2".into());
        assert!(e.to_string().contains("t1.t2"));
        let e = JiffyError::BlockFull {
            capacity: 100,
            requested: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("50"));
    }

    #[test]
    fn io_errors_convert_to_rpc() {
        let io = io::Error::new(io::ErrorKind::ConnectionReset, "peer gone");
        let e: JiffyError = io.into();
        assert!(matches!(e, JiffyError::Rpc(_)));
        assert!(e.to_string().contains("peer gone"));
    }

    #[test]
    fn retryability_classification() {
        assert!(JiffyError::StaleMetadata.is_retryable());
        // A moved-block redirect is retryable (at the new home) but NOT a
        // transport fault: the server definitively rejected the op.
        let moved = JiffyError::BlockMoved {
            block: 7,
            server: 2,
            addr: "inproc:9".into(),
        };
        assert!(moved.is_retryable());
        assert!(!moved.is_transport());
        assert!(JiffyError::QueueFull.is_retryable());
        assert!(JiffyError::Rpc("reset".into()).is_retryable());
        assert!(JiffyError::Timeout { after_ms: 500 }.is_retryable());
        assert!(JiffyError::Unavailable("srv-3".into()).is_retryable());
        assert!(!JiffyError::OutOfBlocks.is_retryable());
        assert!(!JiffyError::PathNotFound("x".into()).is_retryable());
        // Throttled is retryable (the bucket refills) but a hard quota
        // rejection is not: only freeing memory or raising the quota can
        // make the identical allocation succeed.
        assert!(JiffyError::Throttled { retry_after_ms: 5 }.is_retryable());
        assert!(!JiffyError::QuotaExceeded {
            tenant: 1,
            quota_bytes: 10,
            requested_bytes: 20,
        }
        .is_retryable());
    }

    #[test]
    fn transport_vs_server_errors() {
        // Transport faults: the op may have executed; same-id retry is safe.
        assert!(JiffyError::Timeout { after_ms: 1 }.is_transport());
        assert!(JiffyError::Unavailable("x".into()).is_transport());
        assert!(JiffyError::Rpc("reset".into()).is_transport());
        // Server-returned errors are definitive: the op did NOT apply.
        assert!(!JiffyError::StaleMetadata.is_transport());
        assert!(!JiffyError::QueueFull.is_transport());
        assert!(!JiffyError::OutOfBlocks.is_transport());
        // Throttling happens BEFORE execution, so it is server-definitive
        // (never "maybe executed") — retrying cannot double-apply.
        assert!(!JiffyError::Throttled { retry_after_ms: 1 }.is_transport());
    }

    #[test]
    fn class_matches_retryability() {
        assert_eq!(
            JiffyError::Unavailable("x".into()).class(),
            ErrorClass::Retryable
        );
        assert_eq!(
            JiffyError::Timeout { after_ms: 9 }.class(),
            ErrorClass::Retryable
        );
        assert_eq!(
            JiffyError::PermissionDenied("p".into()).class(),
            ErrorClass::Fatal
        );
    }
}
