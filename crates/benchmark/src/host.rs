//! CPU pinning, the host canary and the process's own resource counters.
//!
//! On this 2-vCPU Firecracker guest, waking a thread on the *other* vCPU
//! costs about 25 µs (the idle vCPU is halted and the hypervisor has to
//! schedule it), waking one on the same vCPU about 3 µs. Where the guest
//! scheduler happens to put the client, reactor and worker threads of one
//! RPC therefore decides whether a 256 B `put` takes 17, 50 or 75 µs, a
//! whole run can sit in any of the three, and work right after an idle
//! period runs several times faster until the load balancer spreads the
//! threads (the "burst window" of ISSUE 11). None of that is the
//! program's. [`pin_to_one_cpu`] takes the choice away: every thread of
//! the benchmark, the cluster's included, runs on one CPU, and what is
//! left to measure is the program's own path length and context switches.
//!
//! There are still episodes where everything slows several-fold with no
//! guest-visible steal. Nothing is timed — not even set-up — until the
//! canary (which runs no Jiffy code) reads the same rate slice after
//! slice, and the same canary after the workload says whether the
//! machine moved while the program was being measured.

use std::time::{Duration, Instant};

use jiffy_sync::atomic::{AtomicBool, Ordering};
use jiffy_sync::{Arc, Condvar, Mutex};

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and every thread spawned after the
/// call, which inherit the mask — to the highest-numbered CPU it is
/// allowed on (CPU 0 takes the guest's housekeeping). Returns that CPU,
/// or `None` where the kernel refuses; the run then goes on unpinned and
/// says so.
///
/// Call it first thing in `main`, before any thread exists.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// Monotonic nanoseconds since one fixed instant of this process; the
/// shared time base of samples, spans and the store decorator.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    /// Starts the time base now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since [`Epoch::start`].
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where `/proc`
/// is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, every thread, exited ones included) this
/// process has consumed, in µs. `/proc/self/stat` counts in clock ticks;
/// Linux reports them to user space at a fixed 100 Hz.
pub fn cpu_time_us() -> f64 {
    const TICK_US: f64 = 10_000.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) * TICK_US)
        })
        .unwrap_or(0.0)
}

/// What the canary saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanaryReading {
    /// One token hand-over and back between two threads, in µs.
    pub pingpong_us: f64,
    /// How long the gate ran before the rate was steady.
    pub burn_in_s: f64,
    /// Whether the gate saw a steady rate before its time limit.
    pub steady: bool,
}

struct Token {
    /// Whose turn it is: `false` the caller's, `true` the partner's.
    with_partner: Mutex<bool>,
    moved: Condvar,
    stop: AtomicBool,
}

/// Two threads handing a token back and forth over a `jiffy_sync` mutex
/// and condvar: the wake-up path every blocking RPC in the system rides
/// on, with no Jiffy code in it.
pub struct Canary {
    token: Arc<Token>,
    partner: Option<std::thread::JoinHandle<()>>,
}

impl Canary {
    /// Starts the partner thread (parked until the first slice).
    pub fn start() -> Self {
        let token = Arc::new(Token {
            with_partner: Mutex::new(false),
            moved: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let t = token.clone();
        let partner = std::thread::Builder::new()
            .name("bench-canary".into())
            .spawn(move || loop {
                let mut turn = t.with_partner.lock();
                while !*turn {
                    if t.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    t.moved.wait(&mut turn);
                }
                *turn = false;
                t.moved.notify_all();
            })
            .expect("spawn canary thread");
        Self {
            token,
            partner: Some(partner),
        }
    }

    /// Hands the token over and back for `slice`; returns µs per round
    /// trip.
    pub fn slice(&self, slice: Duration) -> f64 {
        let t0 = Instant::now();
        let mut trips = 0u64;
        while t0.elapsed() < slice {
            for _ in 0..64 {
                let mut turn = self.token.with_partner.lock();
                *turn = true;
                self.token.moved.notify_all();
                while *turn {
                    self.token.moved.wait(&mut turn);
                }
                trips += 1;
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / trips as f64
    }

    /// The steady-state gate: runs slices until `need` consecutive ones
    /// are within `tolerance` of each other, for at least `min` and at
    /// most `max`. The reading is the median of the last `need` slices.
    pub fn burn_in(
        &self,
        slice: Duration,
        need: usize,
        tolerance: f64,
        min: Duration,
        max: Duration,
    ) -> CanaryReading {
        let t0 = Instant::now();
        let mut recent: Vec<f64> = Vec::new();
        loop {
            recent.push(self.slice(slice));
            if recent.len() > need {
                recent.remove(0);
            }
            let lo = recent.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = recent.iter().copied().fold(0.0, f64::max);
            let steady = recent.len() == need && hi / lo <= 1.0 + tolerance;
            let elapsed = t0.elapsed();
            if (steady && elapsed >= min) || elapsed >= max {
                return CanaryReading {
                    pingpong_us: crate::stats::median(&recent).unwrap_or(0.0),
                    burn_in_s: elapsed.as_secs_f64(),
                    steady,
                };
            }
        }
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        self.token.stop.store(true, Ordering::SeqCst);
        // Take the lock so the store cannot slip between the partner's
        // check and its wait.
        drop(self.token.with_partner.lock());
        self.token.moved.notify_all();
        if let Some(p) = self.partner.take() {
            let _ = p.join();
        }
    }
}

/// Copy bandwidth of one core in GB/s over buffers too large for the
/// caches to hold (the payload-copy cost `file_bulk` pays).
pub fn memcpy_gb_per_s(bytes: usize, copies: usize) -> f64 {
    let src = vec![0xA5u8; bytes];
    let mut dst = vec![0u8; bytes];
    // First copy faults the destination pages in; it is not timed.
    dst.copy_from_slice(&src);
    let t0 = Instant::now();
    for _ in 0..copies {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    }
    (bytes * copies) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_hands_the_token_and_stops() {
        let c = Canary::start();
        let us = c.slice(Duration::from_millis(20));
        assert!(us > 0.0 && us < 50_000.0, "{us}");
        let r = c.burn_in(
            Duration::from_millis(5),
            2,
            10.0,
            Duration::ZERO,
            Duration::from_millis(200),
        );
        assert!(r.steady && r.pingpong_us > 0.0);
        drop(c); // joins the partner
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = cpu_time_us();
        let mut x = 0u64;
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_us() >= t0);
        assert!(memcpy_gb_per_s(1 << 20, 2) > 0.0);
    }
}
