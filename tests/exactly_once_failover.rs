//! Tier-1 exactly-once battery: an elastic action lands between an
//! executed-but-unacked write and the client's retry, and the per-block
//! replay window must answer that retry at the block's new home without
//! re-executing. Two ways a block changes home are covered: an abrupt
//! chain-head kill on a 2-replica cluster (the promoted replica holds
//! the replicated window), and a drain on an unreplicated cluster (a
//! chain of length 1 — migration is the only way such a block moves,
//! and the window travels with the exported image).
//!
//! Every schedule runs the full invariant checker (no duplicate
//! executions — queue FIFO and dequeue exactly-once, file length exact,
//! KV read-your-acked-writes — and zero acked-write loss). On top of
//! that, each battery asserts that the replay window actually fired at
//! least once across its seeds: the exactly-once verdicts must come
//! from replayed answers, not from lucky schedules that never retried.
//! (The deterministic replay-path matrix lives in `jiffy-server`;
//! these schedules prove the same machinery end to end under chaos.)

use std::time::Duration;

use jiffy_harness::{run, ElasticAction, HarnessConfig, WorkloadMix};
use jiffy_rpc::FaultRule;

/// Chaos tuned to manufacture the retry race: reply-side drops leave
/// executed-but-unacked writes behind, transient errors fail attempts
/// undelivered, and duplicates replay whole envelopes.
fn failover_chaos() -> FaultRule {
    FaultRule::none()
        .with_drop(0.04)
        .with_delay(0.20, Duration::ZERO, Duration::from_millis(3))
        .with_duplicate(0.03)
        .with_error(0.04)
}

fn lower_call_timeout() {
    jiffy_common::set_call_timeout(Duration::from_secs(2));
}

/// One seeded schedule: 3 workers hammer a 3-server cluster with chains
/// of `chain_length`, a spare server joins early, and `action` then hits
/// the oldest server — hosting every chain head — mid-workload. `at`
/// staggers the action across seeds so it lands amid different
/// in-flight ops each time. Returns the run's replay-window hit count.
fn schedule(seed: u64, batch: usize, chain_length: usize, action: ElasticAction, at: usize) -> u64 {
    lower_call_timeout();
    let cfg = HarnessConfig {
        seed,
        workers: 3,
        ops_per_worker: 120,
        rule: failover_chaos(),
        mix: WorkloadMix::all(),
        num_servers: 3,
        chain_length,
        batch,
        elastic: vec![(40, ElasticAction::JoinServer), (at, action)],
        ..HarnessConfig::default()
    };
    let report = run(&cfg).unwrap();
    report.assert_ok();
    report.window_replays
}

/// Runs ten staggered schedules, then — if no retry happened to land on
/// a replay window yet — keeps drawing further seeds (bounded) until one
/// does. Every schedule, base or extra, runs the full invariant
/// checker; the fallback only exists because whether the action lands
/// between an executed write and its ack is probabilistic per seed, and
/// the battery must prove the window fired, not get lucky.
fn battery(
    base_seed: u64,
    batch: usize,
    stride: usize,
    chain_length: usize,
    action: ElasticAction,
) {
    let mut replays = 0;
    let mut i = 0u64;
    while i < 10 || (replays == 0 && i < 40) {
        let at = 90 + (i as usize * stride) % 120;
        replays += schedule(base_seed + i, batch, chain_length, action, at);
        i += 1;
    }
    assert!(
        replays > 0,
        "no schedule ever answered a retry from a replay window — the \
         exactly-once verdicts above are vacuous"
    );
}

#[test]
fn single_op_writes_survive_abrupt_head_kill_exactly_once() {
    // 10+ schedules of unbatched ops, kill staggered across the run.
    battery(0xE10F_0000, 1, 17, 2, ElasticAction::KillServer);
}

#[test]
fn batched_writes_survive_abrupt_head_kill_exactly_once() {
    // 10+ schedules where runs of same-kind ops ride multi-op batches
    // (ReplicateBatch down the chain, per-op request ids): retries may
    // regroup after the kill re-routes part of a batch.
    battery(0xE10F_1000, 6, 23, 2, ElasticAction::KillServer);
}

#[test]
fn unreplicated_single_op_writes_survive_a_drain_exactly_once() {
    // Chains of length 1: a lost ack is retried against the same block,
    // or against its new home once the drain has migrated it.
    battery(0xE10F_2000, 1, 17, 1, ElasticAction::DrainServer);
}

#[test]
fn unreplicated_batched_writes_survive_a_drain_exactly_once() {
    battery(0xE10F_3000, 6, 23, 1, ElasticAction::DrainServer);
}
