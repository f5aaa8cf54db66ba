//! Property tests for control-plane sharding (DESIGN.md §15): every
//! job-scoped request for job `j` lands on shard `j % n` (routing is a
//! pure function of the static map, so a restarted process routes
//! identically); a shard mints job ids only in its own residue class,
//! across restarts too; and a job's hierarchy, whatever its DAG shape,
//! lives on that one shard.

// Test-only target: setup helpers outside `#[test]` fns may panic on
// rig construction failure (the workspace `expect_used` lint is aimed
// at production code; `allow-expect-in-tests` doesn't reach free fns).
#![allow(clippy::expect_used)]

use jiffy_common::clock::SystemClock;
use jiffy_common::{JiffyConfig, JiffyError, JobId};
use jiffy_controller::{NoopDataPlane, ShardedController};
use jiffy_persistent::MemObjectStore;
use jiffy_proto::{ControlRequest, ControlResponse, DagNodeSpec, ShardMap};
use jiffy_sync::Arc;
use proptest::prelude::*;

fn router(n: u32) -> ShardedController {
    ShardedController::build(
        JiffyConfig::for_testing(),
        SystemClock::shared(),
        Arc::new(NoopDataPlane),
        Arc::new(MemObjectStore::new()),
        n,
    )
    .expect("router construction")
}

fn register(sc: &ShardedController, name: &str) -> JobId {
    match sc
        .dispatch(ControlRequest::RegisterJob { name: name.into() })
        .expect("register job")
    {
        ControlResponse::JobRegistered { job } => job,
        other => panic!("{other:?}"),
    }
}

/// Every job-scoped request kind, aimed at `path` (an existing dotted
/// path whose last component is `leaf`) of `job`.
fn job_scoped(job: JobId, path: &str, leaf: &str) -> Vec<ControlRequest> {
    vec![
        ControlRequest::ResolvePrefix {
            job,
            name: path.into(),
        },
        ControlRequest::RenewLease {
            job,
            name: path.into(),
        },
        ControlRequest::GetLeaseDuration {
            job,
            name: path.into(),
        },
        ControlRequest::ListPrefixes { job },
        ControlRequest::CreatePrefix {
            job,
            name: "extra".into(),
            parents: vec![leaf.into()],
            ds: None,
            initial_blocks: 0,
        },
        ControlRequest::AddParent {
            job,
            name: "extra".into(),
            parent: "other".into(),
        },
        ControlRequest::CreateHierarchy {
            job,
            nodes: vec![DagNodeSpec {
                name: "dag".into(),
                parents: vec!["extra".into(), leaf.into()],
                ds: None,
                initial_blocks: 0,
            }],
        },
        ControlRequest::FlushPrefix {
            job,
            name: leaf.into(),
            external_path: "ext/props".into(),
        },
        ControlRequest::LoadPrefix {
            job,
            name: leaf.into(),
            external_path: "ext/props".into(),
        },
        ControlRequest::RemovePrefix {
            job,
            name: "dag".into(),
        },
        ControlRequest::DeregisterJob { job },
    ]
}

fn is_dark_shard(resp: &Result<ControlResponse, JiffyError>) -> bool {
    matches!(resp, Err(JiffyError::Unavailable(msg)) if msg.starts_with("controller shard"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every job-scoped request for job `j` — whatever path it names —
    /// lands on shard `j % n`: with that shard dark each one fails
    /// retryably, with every *other* shard dark none of them does. A
    /// map rebuilt from the same static count (what a restarted process
    /// does) routes identically.
    #[test]
    fn every_path_maps_to_exactly_one_stable_shard(
        earlier_jobs in 0usize..8,
        root in "[a-z]{1,8}",
        rest in proptest::collection::vec("[a-z]{1,8}", 0..4),
        n in 1u32..=8,
    ) {
        let sc = router(n);
        for i in 0..earlier_jobs {
            register(&sc, &format!("earlier{i}"));
        }
        let job = register(&sc, "props");
        let owner = sc.shard_map().shard_of_job(job);
        prop_assert!(owner < n);
        prop_assert_eq!(u64::from(owner), job.raw() % u64::from(n));
        prop_assert_eq!(owner, ShardMap { num_shards: n }.shard_of_job(job));
        // The path is a chain root.c1.c2...; "other" is a second root.
        let mut path = root.clone();
        let mut leaf = root.clone();
        let mut parent: Option<String> = None;
        for name in std::iter::once(&root).chain(rest.iter()) {
            let made = sc.dispatch(ControlRequest::CreatePrefix {
                job,
                name: name.clone(),
                parents: parent.clone().into_iter().collect(),
                ds: None,
                initial_blocks: 0,
            });
            if made.is_err() {
                // A repeated component name: the chain stops here.
                break;
            }
            if parent.is_some() {
                path.push('.');
                path.push_str(name);
            }
            leaf = name.clone();
            parent = Some(name.clone());
        }
        let _ = sc.dispatch(ControlRequest::CreatePrefix {
            job,
            name: "other".into(),
            parents: vec![],
            ds: None,
            initial_blocks: 0,
        });
        let reqs = job_scoped(job, &path, &leaf);

        sc.crash_shard(owner as usize);
        for req in &reqs {
            let resp = sc.dispatch(req.clone());
            prop_assert!(is_dark_shard(&resp), "{:?} with the owner dark: {:?}", req, resp);
        }
        sc.restart_shard(owner as usize).expect("owner recovery");

        for i in (0..n).filter(|&i| i != owner) {
            sc.crash_shard(i as usize);
        }
        for req in &reqs {
            let resp = sc.dispatch(req.clone());
            prop_assert!(!is_dark_shard(&resp), "{:?} left the owner: {:?}", req, resp);
        }
    }

    /// Against a live router: any DAG shape — parents drawn from any
    /// earlier node, several roots, fan-in — is created on the job's
    /// shard and nowhere else; every shard keeps minting job ids only
    /// in its own residue class across crash-restarts of every shard;
    /// and the recovered shards still serve every node.
    #[test]
    fn children_colocate_and_routing_survives_restart(
        names in proptest::collection::vec("[a-z]{2,6}", 1..12),
        picks in proptest::collection::vec(proptest::collection::vec(any::<usize>(), 0..3), 12..13),
        atomic in any::<bool>(),
        n in 2u32..=6,
    ) {
        let sc = router(n);
        let mut jobs: Vec<JobId> = (0..n).map(|i| register(&sc, &format!("j{i}"))).collect();
        let job = jobs[jobs.len() / 2];
        let owner = sc.shard_map().shard_of_job(job) as usize;
        let mut specs: Vec<DagNodeSpec> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            if specs.iter().any(|s| &s.name == name) {
                continue;
            }
            let mut parents: Vec<String> = Vec::new();
            for pick in &picks[i] {
                if let Some(p) = specs.get(pick % (2 * specs.len().max(1))) {
                    if !parents.contains(&p.name) {
                        parents.push(p.name.clone());
                    }
                }
            }
            specs.push(DagNodeSpec {
                name: name.clone(),
                parents,
                ds: None,
                initial_blocks: 0,
            });
        }
        if atomic {
            let resp = sc.dispatch(ControlRequest::CreateHierarchy {
                job,
                nodes: specs.clone(),
            });
            prop_assert!(matches!(resp, Ok(ControlResponse::Ack)), "{:?}", resp);
        } else {
            for spec in &specs {
                let resp = sc.dispatch(ControlRequest::CreatePrefix {
                    job,
                    name: spec.name.clone(),
                    parents: spec.parents.clone(),
                    ds: None,
                    initial_blocks: 0,
                });
                prop_assert!(resp.is_ok(), "{}: {:?}", spec.name, resp);
            }
        }
        let holds = |i: usize| -> usize {
            sc.shard(i)
                .state_mirror()
                .jobs
                .iter()
                .filter(|j| j.job == job.raw())
                .map(|j| j.nodes.len())
                .sum()
        };
        for i in 0..n as usize {
            let want = if i == owner { specs.len() } else { 0 };
            prop_assert!(holds(i) == want, "shard {} holds {} nodes, expected {}", i, holds(i), want);
        }
        for i in 0..n as usize {
            sc.crash_shard(i);
            sc.restart_shard(i).expect("shard recovery");
            jobs.push(register(&sc, &format!("after{i}")));
        }
        for i in 0..n as usize {
            prop_assert!(sc.shard(i).check_invariants().is_empty());
            for j in &sc.shard(i).state_mirror().jobs {
                prop_assert!(j.job % u64::from(n) == i as u64, "shard {} holds job {}", i, j.job);
            }
        }
        let mut unique = jobs.clone();
        unique.sort();
        unique.dedup();
        prop_assert!(unique.len() == jobs.len(), "a job id was minted twice: {:?}", jobs);
        prop_assert_eq!(holds(owner), specs.len());
        for spec in &specs {
            let resp = sc.dispatch(ControlRequest::ResolvePrefix {
                job,
                name: spec.name.clone(),
            });
            prop_assert!(
                matches!(resp, Ok(ControlResponse::Resolved(_))),
                "{} unresolvable after restart: {:?}",
                spec.name,
                resp
            );
        }
    }
}
