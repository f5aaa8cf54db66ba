//! RPC layer for Jiffy.
//!
//! The paper builds its data plane on Apache Thrift with asynchronous
//! framed IO so that many client sessions multiplex over non-blocking
//! connections (§4.2.2). This crate provides the equivalent:
//!
//! - [`service`] — the [`Service`] trait implemented by the controller
//!   and the memory servers, plus per-session push handles used by the
//!   notification subsystem.
//! - [`inproc`] — a zero-copy in-process transport (used by tests, the
//!   simulator and single-process deployments).
//! - [`reactor`] — the vendored epoll reactor core: readiness-driven
//!   event loop, fixed worker pool, per-socket egress queues and the
//!   sharded waiter table (DESIGN.md §12).
//! - [`tcp`] — a framed TCP transport on the reactor: one event loop
//!   multiplexes every session, so thousands of concurrent connections
//!   cost zero threads, with concurrent in-flight requests per
//!   connection.
//! - [`fabric`] — unified addressing (`inproc:N` / `tcp:host:port`),
//!   connection pooling and an optional latency injector for experiments.
//! - [`fault`] — seeded, deterministic fault injection ([`FaultInjector`]
//!   / [`ChaosConn`]): per-address drop, delay, duplicate, transient
//!   error and partition rules, togglable at runtime.
//! - [`retry`] — exponential-backoff [`RetryPolicy`] for transport-level
//!   faults.
//! - [`replay`] — same-id retries execute exactly once: the bounded
//!   [`ReplayWindow`], embedded per block on the data plane and per
//!   controller shard on the control plane.
//!
//! [`Service`]: service::Service

pub mod fabric;
pub mod fault;
pub mod inproc;
pub mod reactor;
pub mod replay;
pub mod retry;
pub mod service;
pub mod tcp;

pub use fabric::{Fabric, LatencyInjector};
pub use fault::{ChaosConn, FaultInjector, FaultRule, FaultStats};
pub use inproc::InprocHub;
pub use reactor::{
    EgressQueue, EgressSink, EventHandler, Interest, Reactor, SendStatus, WaiterSlot, WaiterTable,
    WorkerPool,
};
pub use replay::ReplayWindow;
pub use retry::RetryPolicy;
pub use service::{ClientConn, PushCallback, Service, SessionHandle};
pub use tcp::{TcpServerHandle, TransportStats};
