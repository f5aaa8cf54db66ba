//! Multi-tenant quality-of-service for Jiffy (DESIGN.md §14).
//!
//! The paper motivates Jiffy against static per-tenant partitioning
//! (Fig. 1) — but elastic sharing is only safe when one hot tenant
//! cannot starve the rest. This crate supplies the three mechanisms
//! that make sharing safe, each usable independently:
//!
//! - [`bucket`] — a token bucket over the injected [`Clock`], the
//!   primitive behind per-tenant op/byte rate limiting. Supports
//!   *post-paid* charges (egress bytes are only known after execution)
//!   by letting the level go negative: the deficit delays the tenant's
//!   *next* admission instead of throttling a finished response.
//! - [`fair`] — weighted max-min fair division ("water-filling"), used
//!   by the controller to arbitrate contested block allocations under
//!   memory pressure instead of first-come-first-served freelist grabs.
//! - [`admission`] — the server-side admission controller: one pair of
//!   token buckets per tenant, cumulative load counters, and an op-rate
//!   EWMA, all snapshotted into [`jiffy_proto::TenantLoad`] rows for
//!   heartbeat reporting.
//! - [`directory`] — the controller-side tenant configuration table
//!   (shares, quotas, rate limits) with defaults from
//!   [`jiffy_common::config::QosConfig`].
//!
//! Throttling happens strictly *before* execution (and before the
//! block's replay window is consulted), so a [`Throttled`] rejection is
//! server-definitive: retrying with the same request id can never
//! double-apply an operation.
//!
//! [`Clock`]: jiffy_common::Clock
//! [`Throttled`]: jiffy_common::JiffyError::Throttled

pub mod admission;
pub mod bucket;
pub mod directory;
pub mod fair;

pub use admission::AdmissionControl;
pub use bucket::TokenBucket;
pub use directory::TenantDirectory;
pub use fair::weighted_max_min;
