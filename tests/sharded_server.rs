//! Equivalence and liveness tests for the sharded, lock-free-read
//! front-end (DESIGN §5g).
//!
//! * the writer must never be blocked by an in-flight decision's crypto
//!   phase (regression test for the lock-across-crypto bug);
//! * a [`ConcurrentServer`] driving random interleaved
//!   admit/revoke/decide schedules must produce byte-identical decisions,
//!   audit log, and state versions to a serial single-server twin;
//! * a two-shard [`ShardedCoalition`] over disjoint namespaces must match
//!   per-shard serial twins, including cross-shard admission fan-out;
//! * each shard recovers independently from its own journal;
//! * concurrent readers never observe a torn epoch: every (version, clock)
//!   pair seen is one that was actually published.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::request::{assemble, JointAccessRequest};
use jaap_coalition::scenario::{Coalition, CoalitionBuilder, OBJECT_O};
use jaap_coalition::server::{CoalitionServer, ServerDecision};
use jaap_coalition::shard::ShardedCoalition;
use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::{GroupId, Time};
use jaap_pki::{CrlEntry, TrustStore};
use jaap_wal::MemStore;
use proptest::prelude::*;

const USERS: [&str; 3] = ["User_D1", "User_D2", "User_D3"];
const SHARDS: usize = 2;

/// Builds a joint request against an explicit object at an explicit time
/// (the scenario helper stamps the current scenario-server time, which
/// these tests must control).
fn request_for(
    c: &Coalition,
    object: &str,
    signers: &[&str],
    action: &str,
    at: Time,
) -> JointAccessRequest {
    let users: Vec<_> = signers.iter().map(|n| c.user(n).expect("user")).collect();
    let ids = signers
        .iter()
        .map(|n| c.identity_cert(n).expect("cert").clone())
        .collect();
    let ac = if action == "read" {
        c.read_ac().clone()
    } else {
        c.write_ac().clone()
    };
    assemble(
        &users,
        ids,
        vec![ac],
        vec![],
        Operation::new(action, object),
        at,
    )
    .expect("assemble")
}

/// A bare single-object server anchored to `c`'s trust roots (the
/// crash-recovery "fresh twin" configuration).
fn single_server(c: &Coalition) -> CoalitionServer {
    let mut server = CoalitionServer::new("P", c.trust_store());
    let mut acl = Acl::new();
    acl.permit(GroupId::new("G_write"), "write");
    acl.permit(GroupId::new("G_read"), "read");
    server.add_object(OBJECT_O, acl).expect("add object");
    server.advance_clock(Time(10)).expect("clock");
    server.set_replay_protection(true).expect("config");
    server
}

/// An independent coalition for shard `i`: its own domains, CAs, AA, and
/// users, so shard namespaces are disjoint all the way down to the trust
/// roots.
fn shard_coalition(i: usize, seed: u64) -> Coalition {
    let names = [format!("S{i}D1"), format!("S{i}D2"), format!("S{i}D3")];
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    CoalitionBuilder::new()
        .domains(&refs)
        .key_bits(192)
        .seed(seed.wrapping_mul(64).wrapping_add(i as u64))
        .build()
        .expect("build shard coalition")
}

fn shard_object(i: usize) -> String {
    format!("Object S{i}")
}

fn shard_users(i: usize) -> [String; 3] {
    [
        format!("User_S{i}D1"),
        format!("User_S{i}D2"),
        format!("User_S{i}D3"),
    ]
}

/// A shard server owning only `Object S{i}`, anchored to shard `i`'s
/// coalition.
fn shard_server(c: &Coalition, i: usize) -> CoalitionServer {
    let mut server = CoalitionServer::new(format!("P{i}"), c.trust_store());
    let mut acl = Acl::new();
    acl.permit(GroupId::new("G_write"), "write");
    acl.permit(GroupId::new("G_read"), "read");
    server.add_object(shard_object(i), acl).expect("add object");
    server.advance_clock(Time(10)).expect("clock");
    server.set_replay_protection(true).expect("config");
    server
}

fn assert_same_decision(ours: &ServerDecision, twins: &ServerDecision, ctx: &str) {
    assert_eq!(ours.granted, twins.granted, "granted diverged: {ctx}");
    assert_eq!(ours.detail, twins.detail, "detail diverged: {ctx}");
    assert_eq!(
        ours.axiom_applications, twins.axiom_applications,
        "axiom count diverged: {ctx}"
    );
    assert_eq!(
        ours.signature_checks, twins.signature_checks,
        "signature checks diverged: {ctx}"
    );
    assert_eq!(
        ours.cached_signature_checks, twins.cached_signature_checks,
        "cached checks diverged: {ctx}"
    );
    assert_eq!(
        ours.unavailable, twins.unavailable,
        "unavailability diverged: {ctx}"
    );
}

/// Regression test for the writer-lock-across-crypto bug: while a decision
/// sits in its crypto phase, admissions through the single writer must
/// proceed. The `decide_with` hook parks the decision after crypto and
/// *before* the commit lock; the main thread then runs two writer
/// mutations, which must complete while the decision is still in flight.
/// If the decision held the writer lock across crypto, the admission would
/// block, the hook's timeout would fire, and the test would fail.
#[test]
fn in_flight_decision_does_not_block_the_writer() {
    let c = CoalitionBuilder::new()
        .seed(7)
        .key_bits(192)
        .build()
        .expect("build");
    let now = c.server().now();
    let read_ac = c.read_ac().clone();
    let revocation = c
        .ra()
        .revoke_attribute(&read_ac.subject, read_ac.group.clone(), now, now)
        .expect("revoke");
    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", OBJECT_O))
        .expect("request");
    let server = Arc::new(ConcurrentServer::new(c.into_server()));

    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let worker = Arc::clone(&server);
    let decider = std::thread::spawn(move || {
        worker.decide_with(&req, || {
            entered_tx.send(()).expect("test channel");
            // Hold the post-crypto window open until the admission lands.
            release_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("writer mutation was blocked behind an in-flight decision");
        })
    });

    entered_rx
        .recv()
        .expect("decision reached its crypto phase");
    // Two admissions while the decision is mid-flight: a revocation of the
    // (unrelated) read attribute and a clock advance. Both publish new
    // epochs.
    server
        .with_writer(|s| s.admit_attribute_revocation(&revocation))
        .expect("revocation admission during an in-flight decision");
    server
        .advance_clock(Time(now.0 + 5))
        .expect("clock advance during an in-flight decision");
    release_tx.send(()).expect("test channel");

    let decision = decider.join().expect("decider thread");
    // The decision's first attempt was invalidated by the admissions; it
    // retried against the new epoch, where the quorum write still holds
    // (only the read attribute was revoked).
    assert!(
        decision.granted,
        "write must still be granted after retry: {:?}",
        decision.detail
    );
}

/// One abstract step of a randomized admit/revoke/decide schedule.
#[derive(Debug, Clone)]
enum Step {
    Advance(i64),
    Write(Vec<usize>),
    Read(usize),
    RevokeWrite,
    Crl,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1i64..4).prop_map(Step::Advance),
        proptest::collection::vec(0usize..3, 1..=3).prop_map(|mut idx| {
            idx.sort_unstable();
            idx.dedup();
            Step::Write(idx)
        }),
        (0usize..3).prop_map(Step::Read),
        Just(Step::RevokeWrite),
        Just(Step::Crl),
    ]
}

fn run_concurrent_equivalence(seed: u64, plan: &[Step]) {
    let c = CoalitionBuilder::new()
        .seed(seed)
        .key_bits(192)
        .build()
        .expect("build");
    let concurrent = ConcurrentServer::new(single_server(&c));
    let mut twin = single_server(&c);
    let mut t = Time(10);
    let mut crl_seq = 1u64;

    for (k, step) in plan.iter().enumerate() {
        match step {
            Step::Advance(dt) => {
                t = Time(t.0 + dt);
                concurrent.advance_clock(t).expect("concurrent clock");
                twin.advance_clock(t).expect("twin clock");
            }
            Step::Write(idx) => {
                let signers: Vec<&str> = idx.iter().map(|&i| USERS[i]).collect();
                let req = request_for(&c, OBJECT_O, &signers, "write", t);
                let a = concurrent.decide(&req);
                let b = twin.handle_request(&req);
                assert_same_decision(&a, &b, &format!("write at op {k}"));
            }
            Step::Read(i) => {
                let req = request_for(&c, OBJECT_O, &[USERS[*i]], "read", t);
                let a = concurrent.decide(&req);
                let b = twin.handle_request(&req);
                assert_same_decision(&a, &b, &format!("read at op {k}"));
            }
            Step::RevokeWrite => {
                let ac = c.write_ac();
                let rev = c
                    .ra()
                    .revoke_attribute(&ac.subject, ac.group.clone(), t, t)
                    .expect("revoke");
                let a = concurrent.with_writer(|s| s.admit_attribute_revocation(&rev));
                let b = twin.admit_attribute_revocation(&rev);
                assert_eq!(a.is_ok(), b.is_ok(), "revocation diverged at op {k}");
            }
            Step::Crl => {
                let ac = c.write_ac();
                let entries = vec![CrlEntry {
                    subject: ac.subject.clone(),
                    group: ac.group.clone(),
                    revoked_from: t,
                }];
                let crl = c.ra().issue_crl(crl_seq, t, entries).expect("crl");
                crl_seq += 1;
                let a = concurrent.with_writer(|s| s.admit_crl(&crl));
                let b = twin.admit_crl(&crl);
                assert_eq!(a.is_ok(), b.is_ok(), "crl admission diverged at op {k}");
            }
        }
        // Per-epoch probes: the published snapshot is always the writer's
        // live version, and both executions moved through identical
        // version sequences.
        let live = concurrent.read(|s| s.state_version());
        assert_eq!(
            concurrent.snapshot().version(),
            live,
            "published snapshot lags the writer at op {k}"
        );
        assert_eq!(
            live,
            twin.state_version(),
            "state version diverged at op {k}"
        );
    }

    let ours = concurrent.read(|s| s.object(OBJECT_O).expect("object").clone());
    let theirs = twin.object(OBJECT_O).expect("object").clone();
    assert_eq!(ours.version, theirs.version, "object version diverged");
    assert_eq!(ours.content, theirs.content, "object content diverged");
    assert_eq!(
        concurrent.read(|s| s.audit_log().clone()),
        twin.audit_log().clone(),
        "audit log diverged"
    );
}

fn run_sharded_equivalence(seed: u64, plan: &[(usize, Step)]) {
    let coalitions: Vec<Coalition> = (0..SHARDS).map(|i| shard_coalition(i, seed)).collect();
    let router = ShardedCoalition::new(
        coalitions
            .iter()
            .enumerate()
            .map(|(i, c)| shard_server(c, i))
            .collect(),
    )
    .expect("router");
    let mut twins: Vec<CoalitionServer> = coalitions
        .iter()
        .enumerate()
        .map(|(i, c)| shard_server(c, i))
        .collect();
    let mut t = Time(10);
    let mut crl_seqs = [1u64; SHARDS];

    for (k, (s, step)) in plan.iter().enumerate() {
        let s = *s;
        let c = &coalitions[s];
        let object = shard_object(s);
        let users = shard_users(s);
        match step {
            Step::Advance(dt) => {
                // Clock advances are coalition-wide: fan out everywhere.
                t = Time(t.0 + dt);
                router.advance_clock(t).expect("router clock");
                for twin in &mut twins {
                    twin.advance_clock(t).expect("twin clock");
                }
            }
            Step::Write(idx) => {
                let signers: Vec<&str> = idx.iter().map(|&i| users[i].as_str()).collect();
                let req = request_for(c, &object, &signers, "write", t);
                assert_eq!(router.shard_for(&req.operation.object), s, "routing");
                let a = router.decide(&req);
                let b = twins[s].handle_request(&req);
                assert_same_decision(&a, &b, &format!("shard {s} write at op {k}"));
            }
            Step::Read(i) => {
                let req = request_for(c, &object, &[users[*i].as_str()], "read", t);
                let a = router.decide(&req);
                let b = twins[s].handle_request(&req);
                assert_same_decision(&a, &b, &format!("shard {s} read at op {k}"));
            }
            Step::RevokeWrite => {
                // Revocations fan out to every shard; foreign shards must
                // reject the artifact exactly as their serial twins do.
                let ac = c.write_ac();
                let rev = c
                    .ra()
                    .revoke_attribute(&ac.subject, ac.group.clone(), t, t)
                    .expect("revoke");
                let results = router.admit_attribute_revocation(&rev);
                assert!(results[s].is_ok(), "home shard must admit its revocation");
                for (j, twin) in twins.iter_mut().enumerate() {
                    let twin_result = twin.admit_attribute_revocation(&rev);
                    assert_eq!(
                        results[j].is_ok(),
                        twin_result.is_ok(),
                        "fan-out outcome diverged on shard {j} at op {k}"
                    );
                }
            }
            Step::Crl => {
                let ac = c.write_ac();
                let entries = vec![CrlEntry {
                    subject: ac.subject.clone(),
                    group: ac.group.clone(),
                    revoked_from: t,
                }];
                let crl = c.ra().issue_crl(crl_seqs[s], t, entries).expect("crl");
                crl_seqs[s] += 1;
                let results = router.admit_crl(&crl);
                for (j, twin) in twins.iter_mut().enumerate() {
                    let twin_result = twin.admit_crl(&crl);
                    assert_eq!(
                        results[j].is_ok(),
                        twin_result.is_ok(),
                        "CRL fan-out outcome diverged on shard {j} at op {k}"
                    );
                }
            }
        }
    }

    // Final probes against a fresh epoch, then full per-shard state
    // equivalence.
    t = Time(t.0 + 1);
    router.advance_clock(t).expect("router clock");
    for twin in &mut twins {
        twin.advance_clock(t).expect("twin clock");
    }
    for (s, twin) in twins.iter_mut().enumerate() {
        let c = &coalitions[s];
        let object = shard_object(s);
        let users = shard_users(s);
        let probes = [
            request_for(
                c,
                &object,
                &[users[0].as_str(), users[1].as_str()],
                "write",
                t,
            ),
            request_for(c, &object, &[users[2].as_str()], "write", t),
            request_for(c, &object, &[users[1].as_str()], "read", t),
        ];
        for (i, probe) in probes.iter().enumerate() {
            let a = router.decide(probe);
            let b = twin.handle_request(probe);
            assert_same_decision(&a, &b, &format!("shard {s} probe {i}"));
        }
        let ours = router
            .shard(s)
            .read(|sv| sv.object(&object).expect("object").clone());
        let theirs = twin.object(&object).expect("object").clone();
        assert_eq!(ours.version, theirs.version, "shard {s} object version");
        assert_eq!(ours.content, theirs.content, "shard {s} object content");
        assert_eq!(
            router.shard(s).read(|sv| sv.audit_log().clone()),
            twin.audit_log().clone(),
            "shard {s} audit log"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The concurrent front-end is observationally identical to a serial
    /// single server over random interleaved admit/revoke/decide
    /// schedules: every decision byte-identical, every published epoch
    /// current, the audit logs equal.
    #[test]
    fn concurrent_server_matches_serial_twin(
        seed in 0u64..64,
        plan in proptest::collection::vec(step_strategy(), 3..10),
    ) {
        run_concurrent_equivalence(seed, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The two-shard router over disjoint namespaces matches per-shard
    /// serial twins under random schedules, including cross-shard
    /// admission fan-out (foreign shards reject foreign artifacts exactly
    /// as their twins do).
    #[test]
    fn sharded_router_matches_per_shard_serial_twins(
        seed in 0u64..64,
        plan in proptest::collection::vec((0usize..SHARDS, step_strategy()), 3..8),
    ) {
        run_sharded_equivalence(seed, &plan);
    }
}

/// Each shard journals and recovers on its own: losing one shard's log
/// tail (rollback to its bootstrap image) leaves the other shard's full
/// recovery untouched.
#[test]
fn shards_recover_independently_from_their_own_journals() {
    let coalitions: Vec<Coalition> = (0..SHARDS).map(|i| shard_coalition(i, 91)).collect();
    let mut servers = Vec::new();
    let mut handles: Vec<MemStore> = Vec::new();
    let mut base_lens = Vec::new();
    for (i, c) in coalitions.iter().enumerate() {
        let mut server = shard_server(c, i);
        let store = MemStore::new();
        let handle = store.clone();
        server.attach_journal(Box::new(store)).expect("attach");
        base_lens.push(handle.snapshot().len());
        handles.push(handle);
        servers.push(server);
    }
    let mut twins: Vec<CoalitionServer> = coalitions
        .iter()
        .enumerate()
        .map(|(i, c)| shard_server(c, i))
        .collect();
    let router = ShardedCoalition::new(servers).expect("router");

    let mut t = Time(10);
    for round in 0..3 {
        t = Time(t.0 + 1);
        router.advance_clock(t).expect("router clock");
        for twin in &mut twins {
            twin.advance_clock(t).expect("twin clock");
        }
        for (s, c) in coalitions.iter().enumerate() {
            let users = shard_users(s);
            let signers: Vec<&str> = if round == 1 {
                vec![users[2].as_str()]
            } else {
                vec![users[0].as_str(), users[1].as_str()]
            };
            let req = request_for(c, &shard_object(s), &signers, "write", t);
            let a = router.decide(&req);
            let b = twins[s].handle_request(&req);
            assert_same_decision(&a, &b, &format!("round {round} shard {s}"));
        }
        if round == 1 {
            let ac = coalitions[0].write_ac();
            let rev = coalitions[0]
                .ra()
                .revoke_attribute(&ac.subject, ac.group.clone(), t, t)
                .expect("revoke");
            let results = router.admit_attribute_revocation(&rev);
            for (j, twin) in twins.iter_mut().enumerate() {
                let twin_result = twin.admit_attribute_revocation(&rev);
                assert_eq!(results[j].is_ok(), twin_result.is_ok(), "fan-out shard {j}");
            }
        }
    }

    // Crash the router. The journals survive through the shared handles;
    // shard 1's "disk" rolls back to its bootstrap image while shard 0
    // keeps its full log.
    drop(router);
    let full0 = handles[0].snapshot();
    let cut1 = handles[1].snapshot()[..base_lens[1]].to_vec();

    let (mut recovered0, report0) = CoalitionServer::recover(
        "P0",
        coalitions[0].trust_store(),
        Box::new(MemStore::from_bytes(full0)),
    )
    .expect("recover shard 0");
    assert!(report0.truncation.is_none(), "shard 0 log was clean");
    let (mut recovered1, report1) = CoalitionServer::recover(
        "P1",
        coalitions[1].trust_store(),
        Box::new(MemStore::from_bytes(cut1)),
    )
    .expect("recover shard 1");
    assert!(
        report1.truncation.is_none(),
        "a record-boundary cut is clean"
    );

    // Shard 0 replays everything: full equivalence with its twin,
    // including post-crash probe decisions.
    assert_eq!(recovered0.now(), twins[0].now(), "shard 0 clock");
    assert_eq!(
        recovered0.audit_log(),
        twins[0].audit_log(),
        "shard 0 audit"
    );
    let probe_at = Time(twins[0].now().0 + 1);
    recovered0.advance_clock(probe_at).expect("clock");
    twins[0].advance_clock(probe_at).expect("clock");
    let users0 = shard_users(0);
    let probe = request_for(
        &coalitions[0],
        &shard_object(0),
        &[users0[0].as_str(), users0[1].as_str()],
        "write",
        probe_at,
    );
    assert_same_decision(
        &recovered0.handle_request(&probe),
        &twins[0].handle_request(&probe),
        "shard 0 post-crash probe",
    );

    // Shard 1 restarts from its bootstrap image: identical to a fresh
    // shard server that never saw an operation — shard 0's survival did
    // not depend on shard 1's log, and vice versa.
    let mut fresh1 = shard_server(&coalitions[1], 1);
    assert_eq!(recovered1.now(), fresh1.now(), "shard 1 clock");
    assert_eq!(recovered1.audit_log(), fresh1.audit_log(), "shard 1 audit");
    let probe_at = Time(fresh1.now().0 + 1);
    recovered1.advance_clock(probe_at).expect("clock");
    fresh1.advance_clock(probe_at).expect("clock");
    let users1 = shard_users(1);
    let probe = request_for(
        &coalitions[1],
        &shard_object(1),
        &[users1[0].as_str(), users1[1].as_str()],
        "write",
        probe_at,
    );
    assert_same_decision(
        &recovered1.handle_request(&probe),
        &fresh1.handle_request(&probe),
        "shard 1 post-crash probe",
    );
}

/// `decide_batch` routes across shards on the worker pool and reaches the
/// same verdicts and object versions as serial twins fed the same
/// per-shard subsequences.
#[test]
fn decide_batch_routes_across_shards_on_the_pool() {
    let coalitions: Vec<Coalition> = (0..SHARDS).map(|i| shard_coalition(i, 17)).collect();
    let router = ShardedCoalition::new(
        coalitions
            .iter()
            .enumerate()
            .map(|(i, c)| shard_server(c, i))
            .collect(),
    )
    .expect("router");
    let mut twins: Vec<CoalitionServer> = coalitions
        .iter()
        .enumerate()
        .map(|(i, c)| shard_server(c, i))
        .collect();

    let t = Time(10);
    let mut per_shard: Vec<Vec<JointAccessRequest>> = Vec::new();
    for (s, c) in coalitions.iter().enumerate() {
        let object = shard_object(s);
        let users = shard_users(s);
        per_shard.push(vec![
            request_for(
                c,
                &object,
                &[users[0].as_str(), users[1].as_str()],
                "write",
                t,
            ),
            request_for(c, &object, &[users[2].as_str()], "write", t),
            request_for(c, &object, &[users[0].as_str()], "read", t),
        ]);
    }
    // Interleave the shards so the batch exercises cross-shard routing.
    let order: [(usize, usize); 6] = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
    let batch: Vec<JointAccessRequest> = order
        .iter()
        .map(|&(s, i)| per_shard[s][i].clone())
        .collect();

    let decisions = router.decide_batch(&batch, 4);
    assert_eq!(decisions.len(), batch.len());
    // Same-shard requests may commit in either order inside the batch, so
    // compare order-independent outcomes: the verdict of each request and
    // the final object versions.
    for (k, &(s, i)) in order.iter().enumerate() {
        let expected = twins[s].handle_request(&per_shard[s][i]);
        assert_eq!(
            decisions[k].granted, expected.granted,
            "verdict diverged for batch item {k} (shard {s})"
        );
    }
    for (s, twin) in twins.iter().enumerate() {
        let object = shard_object(s);
        assert_eq!(
            router
                .shard(s)
                .read(|sv| sv.object(&object).expect("object").version),
            twin.object(&object).expect("object").version,
            "shard {s} object version"
        );
    }
}

/// Concurrent readers racing the writer never observe a torn epoch: every
/// (version, clock) pair loaded from a snapshot is a pair that was
/// actually published — never a version from one publish with state from
/// another.
#[test]
fn readers_never_observe_a_torn_epoch() {
    let server = ConcurrentServer::new(CoalitionServer::new("P", TrustStore::new(Time(0))));
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let snap = server.snapshot();
                        seen.push((snap.version(), snap.at()));
                    }
                    seen
                })
            })
            .collect();

        // The single writer: every clock advance publishes one snapshot.
        // Only this thread mutates, so `snapshot()` right after the
        // advance is exactly the snapshot that advance published.
        let mut published: HashMap<u64, Time> = HashMap::new();
        let first = server.snapshot();
        published.insert(first.version(), first.at());
        for t in 1..=200 {
            server.advance_clock(Time(t)).expect("clock");
            let snap = server.snapshot();
            published.insert(snap.version(), snap.at());
        }
        stop.store(true, Ordering::Relaxed);

        for handle in readers {
            for (version, at) in handle.join().expect("reader thread") {
                assert_eq!(
                    published.get(&version),
                    Some(&at),
                    "torn epoch: version {version} observed with clock {at:?}"
                );
            }
        }
    });
}
