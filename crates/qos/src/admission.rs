//! Server-side per-tenant admission control (DESIGN.md §14).
//!
//! One [`AdmissionControl`] lives on each memory server. Every
//! tenant-attributable data-plane request passes through
//! [`admit`](AdmissionControl::admit) *before* it executes (and before
//! the block's replay window is consulted — a retry of an op that
//! already executed is admitted, and charged, once more before the
//! window answers it), so a [`Throttled`] rejection is
//! server-definitive — retrying with the same request id can never
//! double-apply an operation. Response bytes are charged *after*
//! execution via [`charge_egress`](AdmissionControl::charge_egress):
//! the byte bucket goes into deficit rather than failing a response
//! that already happened, and the deficit delays the tenant's next
//! admission.
//!
//! The anonymous tenant bypasses admission entirely: internal traffic —
//! chain replication fan-down, repartition payload transfers, controller
//! commands — must never stall mid-flight behind a tenant's bucket.
//!
//! [`Throttled`]: jiffy_common::JiffyError::Throttled

use std::collections::HashMap;
use std::time::Duration;

use jiffy_common::clock::SharedClock;
use jiffy_common::config::QosConfig;
use jiffy_common::{JiffyError, Result, TenantId};
use jiffy_proto::{TenantLimit, TenantLoad};
use jiffy_sync::Mutex;

use crate::bucket::TokenBucket;

/// Time constant of the per-tenant op-rate EWMA.
const EWMA_TAU: Duration = Duration::from_secs(1);

/// Per-tenant admission lane: rate-limit buckets plus cumulative
/// counters for heartbeat reporting.
#[derive(Debug)]
struct Lane {
    ops: TokenBucket,
    bytes: TokenBucket,
    /// The limits the lane was built from, to detect reconfiguration.
    ops_per_sec: u64,
    bytes_per_sec: u64,
    /// Cumulative counters since server start.
    ops_admitted: u64,
    ops_throttled: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// Exponentially decayed op counter; rate = `decayed / τ`.
    decayed_ops: f64,
    decayed_at: Duration,
}

impl Lane {
    fn new(ops_per_sec: u64, bytes_per_sec: u64, burst_factor: f64, now: Duration) -> Self {
        Self {
            ops: TokenBucket::new(ops_per_sec, burst_factor, now),
            bytes: TokenBucket::new(bytes_per_sec, burst_factor, now),
            ops_per_sec,
            bytes_per_sec,
            ops_admitted: 0,
            ops_throttled: 0,
            bytes_in: 0,
            bytes_out: 0,
            decayed_ops: 0.0,
            decayed_at: now,
        }
    }

    fn note_ops(&mut self, ops: u64, now: Duration) {
        if now > self.decayed_at {
            let dt = (now - self.decayed_at).as_secs_f64();
            self.decayed_ops *= (-dt / EWMA_TAU.as_secs_f64()).exp();
        }
        self.decayed_at = self.decayed_at.max(now);
        self.decayed_ops += ops as f64;
    }

    fn op_rate_ewma(&self, now: Duration) -> f64 {
        let mut decayed = self.decayed_ops;
        if now > self.decayed_at {
            let dt = (now - self.decayed_at).as_secs_f64();
            decayed *= (-dt / EWMA_TAU.as_secs_f64()).exp();
        }
        decayed / EWMA_TAU.as_secs_f64()
    }
}

/// The per-server admission controller. Cheap to share behind an `Arc`;
/// all state sits under one mutex (lanes are touched once per request,
/// far off the per-op block lock path).
#[derive(Debug)]
pub struct AdmissionControl {
    cfg: QosConfig,
    clock: SharedClock,
    lanes: Mutex<HashMap<TenantId, Lane>>,
    /// Limit overrides pushed from the controller (heartbeat acks),
    /// keyed by tenant. Tenants absent here use the config defaults.
    overrides: Mutex<HashMap<TenantId, TenantLimit>>,
}

impl AdmissionControl {
    /// Creates an admission controller from the cluster QoS config.
    pub fn new(cfg: QosConfig, clock: SharedClock) -> Self {
        Self {
            cfg,
            clock,
            lanes: Mutex::new(HashMap::new()),
            overrides: Mutex::new(HashMap::new()),
        }
    }

    /// Whether admission control is active at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    fn rates_for(&self, tenant: TenantId) -> (u64, u64) {
        let overrides = self.overrides.lock();
        match overrides.get(&tenant) {
            Some(l) => (l.ops_per_sec, l.bytes_per_sec),
            None => (self.cfg.default_ops_per_sec, self.cfg.default_bytes_per_sec),
        }
    }

    /// Admits (or throttles) a request of `ops` operations carrying
    /// `bytes` payload bytes on behalf of `tenant`.
    ///
    /// Disabled QoS and the anonymous tenant always admit without
    /// accounting. On throttle, returns [`JiffyError::Throttled`] with a
    /// backoff hint covering both buckets' deficits; counters record the
    /// rejection so it surfaces in `TenantStats`.
    pub fn admit(&self, tenant: TenantId, ops: u64, bytes: u64) -> Result<()> {
        if !self.cfg.enabled || tenant.is_anonymous() {
            return Ok(());
        }
        let now = self.clock.now();
        let (ops_rate, bytes_rate) = self.rates_for(tenant);
        let mut lanes = self.lanes.lock();
        let lane = lanes
            .entry(tenant)
            .or_insert_with(|| Lane::new(ops_rate, bytes_rate, self.cfg.burst_factor, now));

        // Probe both buckets before charging either, so a rejection
        // leaves no partial debit and the retry is charged exactly once.
        let op_wait = match lane.ops.clone().admit(ops, now) {
            Ok(()) => Duration::ZERO,
            Err(w) => w,
        };
        let byte_wait = match lane.bytes.clone().admit(bytes, now) {
            Ok(()) => Duration::ZERO,
            Err(w) => w,
        };
        let wait = op_wait.max(byte_wait);
        if wait > Duration::ZERO {
            lane.ops_throttled += ops;
            return Err(JiffyError::Throttled {
                retry_after_ms: (wait.as_millis() as u64).max(1),
            });
        }
        let _ = lane.ops.admit(ops, now);
        let _ = lane.bytes.admit(bytes, now);
        lane.ops_admitted += ops;
        lane.bytes_in += bytes;
        lane.note_ops(ops, now);
        Ok(())
    }

    /// Charges `bytes` of response payload to `tenant` *after* the
    /// request executed. Never fails; the byte bucket absorbs the charge
    /// as deficit and the tenant's next admission pays it back.
    pub fn charge_egress(&self, tenant: TenantId, bytes: u64) {
        if !self.cfg.enabled || tenant.is_anonymous() || bytes == 0 {
            return;
        }
        let now = self.clock.now();
        let (ops_rate, bytes_rate) = self.rates_for(tenant);
        let mut lanes = self.lanes.lock();
        let lane = lanes
            .entry(tenant)
            .or_insert_with(|| Lane::new(ops_rate, bytes_rate, self.cfg.burst_factor, now));
        lane.bytes.charge(bytes, now);
        lane.bytes_out += bytes;
    }

    /// Installs the controller's current limit table (heartbeat ack).
    /// Lanes whose rates changed are rebuilt with fresh buckets;
    /// counters survive reconfiguration.
    pub fn install_limits(&self, limits: &[TenantLimit]) {
        if !self.cfg.enabled {
            return;
        }
        let now = self.clock.now();
        {
            let mut overrides = self.overrides.lock();
            overrides.clear();
            for l in limits {
                overrides.insert(l.tenant, l.clone());
            }
        }
        let mut lanes = self.lanes.lock();
        for (tenant, lane) in lanes.iter_mut() {
            let (ops_rate, bytes_rate) = self.rates_for(*tenant);
            if lane.ops_per_sec != ops_rate || lane.bytes_per_sec != bytes_rate {
                lane.ops = TokenBucket::new(ops_rate, self.cfg.burst_factor, now);
                lane.bytes = TokenBucket::new(bytes_rate, self.cfg.burst_factor, now);
                lane.ops_per_sec = ops_rate;
                lane.bytes_per_sec = bytes_rate;
            }
        }
    }

    /// Snapshot of per-tenant load for heartbeat reporting, sorted by
    /// tenant id. Counters are cumulative since server start.
    pub fn loads(&self) -> Vec<TenantLoad> {
        let now = self.clock.now();
        let lanes = self.lanes.lock();
        let mut out: Vec<TenantLoad> = lanes
            .iter()
            .map(|(tenant, lane)| TenantLoad {
                tenant: *tenant,
                ops_admitted: lane.ops_admitted,
                ops_throttled: lane.ops_throttled,
                bytes_in: lane.bytes_in,
                bytes_out: lane.bytes_out,
                op_rate_ewma: lane.op_rate_ewma(now),
            })
            .collect();
        out.sort_by_key(|l| l.tenant);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_common::ManualClock;
    use std::time::Duration;

    fn ctl(ops: u64, bytes: u64) -> (jiffy_sync::Arc<ManualClock>, AdmissionControl) {
        let (concrete, shared) = ManualClock::shared();
        let cfg = QosConfig::enabled_with_rates(ops, bytes);
        (concrete, AdmissionControl::new(cfg, shared))
    }

    #[test]
    fn disabled_qos_admits_everything() {
        let (_, shared) = ManualClock::shared();
        let ac = AdmissionControl::new(QosConfig::default(), shared);
        assert!(!ac.enabled());
        for _ in 0..10_000 {
            assert!(ac.admit(TenantId(1), 1, 1 << 30).is_ok());
        }
        assert!(ac.loads().is_empty());
    }

    #[test]
    fn anonymous_tenant_bypasses_admission() {
        let (_c, ac) = ctl(1, 1);
        for _ in 0..1000 {
            assert!(ac.admit(TenantId::ANONYMOUS, 1, 1 << 20).is_ok());
        }
        assert!(ac.loads().is_empty());
    }

    #[test]
    fn op_bucket_throttles_and_recovers() {
        let (clock, ac) = ctl(100, 0);
        let t = TenantId(1);
        // Burst = 100 * 2.0 (default burst factor) = 200 ops.
        for _ in 0..200 {
            assert!(ac.admit(t, 1, 0).is_ok());
        }
        let err = ac.admit(t, 1, 0).unwrap_err();
        let retry = match err {
            JiffyError::Throttled { retry_after_ms } => retry_after_ms,
            other => panic!("expected Throttled, got {other:?}"),
        };
        assert!(retry >= 1);
        clock.advance(Duration::from_millis(retry + 10));
        assert!(ac.admit(t, 1, 0).is_ok());
    }

    #[test]
    fn throttle_leaves_no_partial_debit() {
        // Byte bucket rejects (deficit from a prior egress charge); the
        // op bucket must not be debited by the rejected attempt.
        let (clock, ac) = ctl(100, 1000);
        let t = TenantId(1);
        ac.charge_egress(t, 10_000); // burst 2000 − 10000 → deficit
        assert!(matches!(
            ac.admit(t, 1, 1),
            Err(JiffyError::Throttled { .. })
        ));
        // Let the byte deficit repay; the full 200-op burst must still
        // be available, proving the throttled attempt cost no op tokens.
        clock.advance(Duration::from_secs(10));
        for _ in 0..200 {
            assert!(ac.admit(t, 1, 0).is_ok());
        }
        assert!(ac.admit(t, 1, 0).is_err());
    }

    #[test]
    fn egress_deficit_delays_next_admission() {
        let (clock, ac) = ctl(0, 1000);
        let t = TenantId(1);
        assert!(ac.admit(t, 1, 0).is_ok());
        // Charge 4000 bytes of response: 2000 burst − 4000 → −2000.
        ac.charge_egress(t, 4000);
        assert!(matches!(
            ac.admit(t, 1, 1),
            Err(JiffyError::Throttled { .. })
        ));
        clock.advance(Duration::from_secs(3));
        assert!(ac.admit(t, 1, 1).is_ok());
        let loads = ac.loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].bytes_out, 4000);
    }

    #[test]
    fn tenants_are_isolated() {
        let (_c, ac) = ctl(10, 0);
        let hog = TenantId(1);
        let victim = TenantId(2);
        while ac.admit(hog, 1, 0).is_ok() {}
        // The hog's empty bucket must not affect the victim.
        assert!(ac.admit(victim, 1, 0).is_ok());
    }

    #[test]
    fn install_limits_overrides_defaults() {
        let (_c, ac) = ctl(5, 0);
        let t = TenantId(1);
        ac.install_limits(&[TenantLimit {
            tenant: t,
            share: 1,
            quota_bytes: 0,
            ops_per_sec: 1000,
            bytes_per_sec: 0,
        }]);
        // 1000 ops/s × burst 2.0 → 2000-op burst, far beyond the
        // 10-op default burst.
        for _ in 0..2000 {
            assert!(ac.admit(t, 1, 0).is_ok());
        }
        assert!(ac.admit(t, 1, 0).is_err());
    }

    #[test]
    fn counters_and_ewma_accumulate() {
        let (clock, ac) = ctl(1_000_000, 0);
        let t = TenantId(3);
        for _ in 0..100 {
            ac.admit(t, 1, 10).unwrap();
        }
        let loads = ac.loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].tenant, t);
        assert_eq!(loads[0].ops_admitted, 100);
        assert_eq!(loads[0].bytes_in, 1000);
        assert!(loads[0].op_rate_ewma > 0.0);
        // The EWMA decays toward zero once traffic stops.
        clock.advance(Duration::from_secs(30));
        let later = ac.loads();
        assert!(later[0].op_rate_ewma < 1e-6);
    }
}
