//! Exponential-backoff retry for transport-level faults.
//!
//! Servers distinguish retryable from fatal errors via
//! [`JiffyError::class`]; this module handles the *transport* subset
//! ([`JiffyError::is_transport`]): timeouts, unavailability and broken
//! connections, where the request may or may not have executed. Callers
//! retry those with the **same request id** so the server side (see
//! [`crate::dedup`]) answers from its record instead of re-executing.
//!
//! [`JiffyError::class`]: jiffy_common::JiffyError::class
//! [`JiffyError::is_transport`]: jiffy_common::JiffyError::is_transport

use std::time::Duration;

use jiffy_common::{JiffyError, Result};

/// Retry schedule: `max_attempts` total tries, sleeping
/// `base_delay * multiplier^n` (capped at `max_delay`) between them.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total number of attempts (>= 1), including the first.
    pub max_attempts: usize,
    /// Sleep before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single sleep.
    pub max_delay: Duration,
    /// Geometric growth factor between consecutive sleeps.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeping).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The sleep inserted after failed attempt number `attempt`
    /// (0-based): `base_delay * multiplier^attempt`, capped at
    /// `max_delay`.
    pub fn backoff(&self, attempt: usize) -> Duration {
        let factor = self.multiplier.powi(attempt.min(64) as i32);
        let nanos =
            (self.base_delay.as_nanos() as f64 * factor).min(self.max_delay.as_nanos() as f64);
        Duration::from_nanos(nanos as u64)
    }

    /// Runs `op` until it succeeds, fails with a non-transport error, or
    /// exhausts `max_attempts`. `op` receives the 0-based attempt index;
    /// between transport failures the policy sleeps [`backoff`] and calls
    /// `on_retry` (e.g. to evict a pooled connection).
    ///
    /// [`backoff`]: Self::backoff
    ///
    /// # Errors
    ///
    /// The last transport error once attempts are exhausted, or the first
    /// non-transport error.
    pub fn run<T>(
        &self,
        mut op: impl FnMut(usize) -> Result<T>,
        mut on_retry: impl FnMut(&JiffyError),
    ) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transport() && attempt + 1 < attempts => {
                    on_retry(&e);
                    std::thread::sleep(self.backoff(attempt));
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| JiffyError::Internal("retry loop without attempts".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
            multiplier: 2.0,
        };
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(16));
        assert_eq!(p.backoff(4), Duration::from_millis(20)); // capped
        assert_eq!(p.backoff(60), Duration::from_millis(20));
    }

    #[test]
    fn retries_transport_errors_until_success() {
        let p = RetryPolicy {
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        };
        let mut evictions = 0;
        let out = p.run(
            |attempt| {
                if attempt < 3 {
                    Err(JiffyError::Timeout { after_ms: 1 })
                } else {
                    Ok(attempt)
                }
            },
            |_| evictions += 1,
        );
        assert_eq!(out.unwrap(), 3);
        assert_eq!(evictions, 3);
    }

    #[test]
    fn fatal_errors_abort_immediately() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = p.run(
            |_| {
                calls += 1;
                Err(JiffyError::PathNotFound("x".into()))
            },
            |_| {},
        );
        assert!(matches!(out, Err(JiffyError::PathNotFound(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn server_errors_are_not_transport_retried() {
        // StaleMetadata is retryable at the *routing* layer (with a
        // metadata refresh), not the transport layer.
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = p.run(
            |_| {
                calls += 1;
                Err(JiffyError::StaleMetadata)
            },
            |_| {},
        );
        assert!(matches!(out, Err(JiffyError::StaleMetadata)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(10),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<()> = p.run(
            |_| {
                calls += 1;
                Err(JiffyError::Unavailable("srv".into()))
            },
            |_| {},
        );
        assert!(matches!(out, Err(JiffyError::Unavailable(_))));
        assert_eq!(calls, 3);
    }
}
