//! Chaos harness for the replicated coalition server.
//!
//! Strategy: run a randomized belief-changing workload against a journaled
//! primary whose store is teed into a replication outbox, shipping records
//! to replicas over a faulty `jaap-net` mesh (drops, duplicates, a
//! partition that later heals). After the workload, converge, "crash" the
//! primary, promote the designated replica through the recovery replay
//! path, and require its clock, object state, audit log, and probe
//! decisions to be byte-identical to the never-crashed primary's.

use jaap_coalition::replication::ReplicationNet;
use jaap_coalition::request::{assemble, JointAccessRequest};
use jaap_coalition::scenario::{Coalition, CoalitionBuilder, OBJECT_O};
use jaap_coalition::server::{CoalitionServer, ServerDecision};
use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::{GroupId, Time};
use jaap_net::FaultPlan;
use jaap_obs::MetricsRegistry;
use jaap_pki::CrlEntry;
use jaap_wal::{parse_log, Journal, LogOutbox, MemStore, TeeStore};
use proptest::prelude::*;

const USERS: [&str; 3] = ["User_D1", "User_D2", "User_D3"];

/// Term the initial primary runs under; promotions go above it.
const PRIMARY_TERM: u64 = 1;

/// An abstract workload step (materialized with signed artifacts at run
/// time, so the same inputs replay byte-identically everywhere).
#[derive(Debug, Clone)]
enum Plan {
    Advance(i64),
    Write(Vec<usize>),
    Read(usize),
    RevokeWrite,
    Crl,
    SetContent(u8),
}

#[derive(Debug, Clone)]
enum Op {
    Advance(Time),
    Request(JointAccessRequest),
    Revocation(jaap_pki::attribute::AttributeRevocation),
    Crl(jaap_pki::Crl),
    SetContent(Vec<u8>),
}

fn apply(server: &mut CoalitionServer, op: &Op) {
    match op {
        Op::Advance(to) => {
            let _ = server.advance_clock(*to);
        }
        Op::Request(req) => {
            let _ = server.handle_request(req);
        }
        Op::Revocation(rev) => {
            let _ = server.admit_attribute_revocation(rev);
        }
        Op::Crl(crl) => {
            let _ = server.admit_crl(crl);
        }
        Op::SetContent(bytes) => {
            let _ = server.set_content(OBJECT_O, bytes.clone());
        }
    }
}

fn build_request(c: &Coalition, signers: &[&str], action: &str, at: Time) -> JointAccessRequest {
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
        Operation::new(action, OBJECT_O),
        at,
    )
    .expect("assemble")
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

/// The failover equivalence check: state now, then decisions on a probe
/// workload (fresh quorum write, under-threshold write, read, and a
/// duplicate delivery of the last pre-failover request).
fn assert_equivalent(
    promoted: &mut CoalitionServer,
    twin: &mut CoalitionServer,
    c: &Coalition,
    completed_ops: &[Op],
    ctx: &str,
) {
    assert_eq!(promoted.now(), twin.now(), "clock diverged: {ctx}");
    let ours = promoted.object(OBJECT_O).expect("object").clone();
    let twins = twin.object(OBJECT_O).expect("object").clone();
    assert_eq!(ours.version, twins.version, "version diverged: {ctx}");
    assert_eq!(ours.content, twins.content, "content diverged: {ctx}");
    assert_eq!(
        promoted.audit_log(),
        twin.audit_log(),
        "audit log diverged: {ctx}"
    );

    let probe_at = Time(promoted.now().0 + 1);
    promoted.advance_clock(probe_at).expect("clock");
    twin.advance_clock(probe_at).expect("clock");
    let mut probes = vec![
        build_request(c, &["User_D1", "User_D2"], "write", probe_at),
        build_request(c, &["User_D3"], "write", probe_at),
        build_request(c, &["User_D2"], "read", probe_at),
    ];
    if let Some(Op::Request(req)) = completed_ops
        .iter()
        .rev()
        .find(|op| matches!(op, Op::Request(_)))
    {
        probes.push(req.clone());
    }
    for (i, probe) in probes.iter().enumerate() {
        let a = promoted.handle_request(probe);
        let b = twin.handle_request(probe);
        assert_same_decision(&a, &b, &format!("probe {i}, {ctx}"));
    }
    assert_eq!(
        promoted.audit_log(),
        twin.audit_log(),
        "post-probe audit log diverged: {ctx}"
    );
}

/// A fresh never-crashed server configured exactly as the journaled
/// primary was at the moment its journal was attached; applying the same
/// completed ops makes it the reference twin for the promoted replica.
fn fresh_twin(c: &Coalition) -> CoalitionServer {
    let mut server = CoalitionServer::new("P", c.trust_store());
    let mut acl = Acl::new();
    acl.permit(GroupId::new("G_write"), "write");
    acl.permit(GroupId::new("G_read"), "read");
    server.add_object(OBJECT_O, acl).expect("add object");
    server.advance_clock(Time(10)).expect("clock");
    server.set_replay_protection(true).expect("config");
    server
}

/// A journaled primary whose log is replicated over a faulty mesh.
struct ReplHarness {
    c: Coalition,
    /// Shares the primary's on-"disk" journal bytes.
    disk: MemStore,
    net: ReplicationNet,
    ops: Vec<Op>,
    crl_seq: u64,
    last_req: Option<JointAccessRequest>,
}

impl ReplHarness {
    fn new(seed: u64, n_replicas: usize, plan: FaultPlan) -> Self {
        let mut c = CoalitionBuilder::new()
            .seed(seed)
            .key_bits(192)
            .build()
            .expect("build");
        let disk = MemStore::new();
        let outbox = LogOutbox::new();
        c.server_mut().set_replay_protection(true).expect("config");
        c.server_mut()
            .attach_journal(Box::new(TeeStore::new(disk.clone(), outbox.clone())))
            .expect("attach");
        c.server_mut().set_journal_term(PRIMARY_TERM);
        let net = ReplicationNet::new(PRIMARY_TERM, n_replicas, outbox, plan).expect("net");
        ReplHarness {
            c,
            disk,
            net,
            ops: Vec::new(),
            crl_seq: 1,
            last_req: None,
        }
    }

    /// Materializes and applies one step on the primary, then runs a few
    /// best-effort sync rounds (losses retried by later syncs).
    fn step(&mut self, step: &Plan, sync_rounds: usize) {
        let now = self.c.server().now();
        let op = match step {
            Plan::Advance(dt) => Op::Advance(Time(now.0 + dt)),
            Plan::Write(idx) => {
                let signers: Vec<&str> = idx.iter().map(|&i| USERS[i]).collect();
                let req = build_request(&self.c, &signers, "write", now);
                self.last_req = Some(req.clone());
                Op::Request(req)
            }
            Plan::Read(i) => {
                let req = build_request(&self.c, &[USERS[*i]], "read", now);
                self.last_req = Some(req.clone());
                Op::Request(req)
            }
            Plan::RevokeWrite => {
                let ac = self.c.write_ac();
                let rev = self
                    .c
                    .ra()
                    .revoke_attribute(&ac.subject, ac.group.clone(), now, now)
                    .expect("revoke");
                Op::Revocation(rev)
            }
            Plan::Crl => {
                let ac = self.c.write_ac();
                let entries = vec![CrlEntry {
                    subject: ac.subject.clone(),
                    group: ac.group.clone(),
                    revoked_from: now,
                }];
                let crl = self
                    .c
                    .ra()
                    .issue_crl(self.crl_seq, now, entries)
                    .expect("crl");
                self.crl_seq += 1;
                Op::Crl(crl)
            }
            Plan::SetContent(b) => Op::SetContent(vec![*b; 4]),
        };
        apply(self.c.server_mut(), &op);
        self.ops.push(op);
        self.net.sync(sync_rounds);
    }

    /// Heals the network and drives replication to full convergence.
    fn converge(&mut self) {
        self.net
            .set_fault_plan(FaultPlan::reliable())
            .expect("heal");
        self.net.sync(400);
        assert!(
            self.net.primary.all_caught_up(),
            "replication did not converge after healing"
        );
    }

    /// Crashes the primary and promotes replica `k` under `new_term`.
    fn promote(&mut self, k: usize, new_term: u64) -> CoalitionServer {
        let trust = self.c.trust_store();
        let (server, report) = self.net.replicas[k]
            .promote("P", trust, new_term)
            .expect("promote");
        assert!(
            report.truncation.is_none(),
            "shipped log must be clean: {:?}",
            report.truncation
        );
        server
    }
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    prop_oneof![
        (1i64..4).prop_map(Plan::Advance),
        proptest::collection::vec(0usize..3, 1..=3).prop_map(|mut idx: Vec<usize>| {
            idx.sort_unstable();
            idx.dedup();
            Plan::Write(idx)
        }),
        (0usize..3).prop_map(Plan::Read),
        Just(Plan::RevokeWrite),
        Just(Plan::Crl),
        (0u8..255).prop_map(Plan::SetContent),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole property: ship a randomized workload through a faulty
    /// network (drops + duplicates, plus a partition of one replica that
    /// heals at the end), promote the designated replica after a primary
    /// crash, and require byte-identical state and probe decisions
    /// against the never-crashed primary.
    #[test]
    fn promoted_replica_matches_never_crashed_twin_under_chaos(
        seed in 0u64..64,
        fault_seed in 1u64..1024,
        plan in proptest::collection::vec(plan_strategy(), 3..8),
    ) {
        let lossy = FaultPlan::seeded(fault_seed)
            .with_drop(0.2)
            .with_duplicate(0.2);
        let mut h = ReplHarness::new(seed, 2, lossy);
        let split = plan.len() / 2;
        for step in &plan[..split] {
            h.step(step, 4);
        }
        // Partition replica 1 (party 2) away from the primary mid-run;
        // replica 0 keeps following through the lossy phase's faults.
        let partitioned = FaultPlan::seeded(fault_seed)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_partition(&[0], &[2]);
        h.net.set_fault_plan(partitioned).expect("partition");
        for step in &plan[split..] {
            h.step(step, 4);
        }
        // Heal and converge: the partitioned replica catches back up.
        h.converge();

        // Fully synced replicas hold byte-identical logs to the disk.
        let disk_bytes = h.disk.snapshot();
        for r in &h.net.replicas {
            prop_assert_eq!(&r.store().snapshot(), &disk_bytes);
        }

        // Crash the primary; promote the designated replica to term 2 and
        // compare against a never-crashed twin that ran the same ops.
        let mut promoted = h.promote(0, PRIMARY_TERM + 1);
        let mut twin = fresh_twin(&h.c);
        for op in &h.ops {
            apply(&mut twin, op);
        }
        assert_equivalent(&mut promoted, &mut twin, &h.c, &h.ops, "chaos failover");
    }
}

/// Directed satellite test: after promotion, the deposed primary's appends
/// are rejected by the fencing rule and the rejection is observable via
/// `server.repl.{i}.rejected_stale_term`.
#[test]
fn fenced_deposed_primary_appends_are_rejected_and_counted() {
    let registry = MetricsRegistry::new();
    let mut h = ReplHarness::new(21, 1, FaultPlan::reliable());
    h.net.set_metrics(&registry);
    h.step(&Plan::Write(vec![0, 1]), 8);
    h.step(&Plan::Advance(2), 8);
    h.converge();
    assert_eq!(
        registry.gauge_value("server.repl.0.lag_records"),
        Some(0),
        "lag gauge must read zero after convergence"
    );
    assert!(registry.counter_value("server.repl.0.shipped").unwrap_or(0) > 0);
    assert!(registry.counter_value("server.repl.0.acked").unwrap_or(0) > 0);

    // Failover: replica 0 is promoted to a higher term.
    let promoted = h.promote(0, PRIMARY_TERM + 1);
    assert_eq!(promoted.journal_term(), Some(PRIMARY_TERM + 1));
    let replica_log_before = h.net.replicas[0].store().snapshot();

    // The deposed primary keeps serving and tries to replicate a write.
    h.c.server_mut()
        .set_content(OBJECT_O, b"zombie write".to_vec())
        .expect("set content");
    h.net.sync(8);

    assert!(
        registry
            .counter_value("server.repl.0.rejected_stale_term")
            .unwrap_or(0)
            >= 1,
        "fencing rejection must be counted"
    );
    assert_eq!(h.net.primary.deposed_by(), Some(PRIMARY_TERM + 1));
    assert!(h.net.primary.stats().stale_term_rejections >= 1);
    assert_eq!(
        h.net.replicas[0].store().snapshot(),
        replica_log_before,
        "a fenced primary must not mutate the replica's log"
    );
}

/// Directed satellite test: a replica that joins after the primary has
/// compacted its journal bootstraps via snapshot + tail catch-up.
#[test]
fn late_joiner_bootstraps_via_snapshot_and_tail() {
    let registry = MetricsRegistry::new();
    let mut h = ReplHarness::new(22, 1, FaultPlan::reliable());
    h.net.set_metrics(&registry);
    // Traffic, then a compaction, then more traffic — all before the
    // replica has seen a single message.
    h.step(&Plan::Write(vec![0, 1]), 0);
    h.step(&Plan::Advance(1), 0);
    h.c.server_mut().snapshot_journal().expect("snapshot");
    h.step(&Plan::Read(1), 0);
    h.step(&Plan::SetContent(9), 0);

    h.converge();
    let r = &h.net.replicas[0];
    assert!(
        r.stats().snapshots_installed >= 1,
        "late joiner must be seeded with a snapshot"
    );
    assert!(
        registry
            .counter_value("server.repl.0.catchups")
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(r.store().snapshot(), h.disk.snapshot());
    let log = parse_log(&r.store().snapshot());
    assert!(matches!(log.tail, jaap_wal::Tail::Clean));

    let mut promoted = h.promote(0, PRIMARY_TERM + 1);
    let mut twin = fresh_twin(&h.c);
    for op in &h.ops {
        apply(&mut twin, op);
    }
    assert_equivalent(
        &mut promoted,
        &mut twin,
        &h.c,
        &h.ops,
        "late joiner failover",
    );
}

/// Directed satellite test: shipped records carry the primary's term in
/// their frames, and the replicated log survives duplicate-heavy chaos.
#[test]
fn shipped_frames_carry_primary_term() {
    let mut h = ReplHarness::new(23, 1, FaultPlan::seeded(5).with_duplicate(0.5));
    h.step(&Plan::Write(vec![0, 1]), 8);
    h.step(&Plan::SetContent(3), 8);
    h.converge();
    let log = parse_log(&h.net.replicas[0].store().snapshot());
    assert!(!log.records.is_empty());
    // Bootstrap frames predate set_journal_term; everything after is
    // stamped with the primary's term.
    assert_eq!(*log.terms.last().expect("terms"), PRIMARY_TERM);
    assert!(h.net.replicas[0].stats().duplicates > 0 || h.net.primary.stats().shipped > 0);
}

/// A journal teed into a one-replica [`ReplicationNet`] over `plan`, with
/// `records` raw records already appended; the returned store shares
/// the journal's bytes.
fn shipped_journal(plan: FaultPlan, records: usize) -> (MemStore, ReplicationNet) {
    let disk = MemStore::new();
    let outbox = LogOutbox::new();
    let mut journal = Journal::new(Box::new(TeeStore::new(disk.clone(), outbox.clone())));
    journal.set_term(PRIMARY_TERM);
    for i in 0..records {
        journal
            .append(format!("record {i}").as_bytes())
            .expect("append");
    }
    let mut net = ReplicationNet::new(PRIMARY_TERM, 1, outbox, plan).expect("net");
    net.set_window(records);
    (disk, net)
}

/// Directed test: on a reliable mesh a whole window ships, applies and is
/// acknowledged in one round, and no receive ever waits out its timeout
/// (counted, not timed: the stress job runs these oversubscribed).
#[test]
fn loss_free_sync_ends_in_one_round_without_a_receive_timeout() {
    let (disk, mut net) = shipped_journal(FaultPlan::reliable(), 64);
    assert_eq!(net.sync(8), 1);
    assert!(net.primary.all_caught_up());
    assert_eq!(net.replicas[0].stats().applied, 64);
    assert_eq!(net.replicas[0].store().snapshot(), disk.snapshot());
    assert_eq!(net.net_handle().stats().receive_timeouts, 0);
}

/// Directed test: duplicates delivered in a round are handled in that
/// round (re-acked, not re-applied) and cost no timeout either.
#[test]
fn duplicated_sync_ends_in_one_round_without_a_receive_timeout() {
    let (disk, mut net) = shipped_journal(FaultPlan::seeded(3).with_duplicate(1.0), 64);
    assert_eq!(net.sync(8), 1);
    let stats = net.replicas[0].stats();
    assert_eq!((stats.applied, stats.duplicates), (64, 64));
    assert_eq!(net.replicas[0].store().snapshot(), disk.snapshot());
    // Every message, the window and each ack alike, went out twice.
    let net_stats = net.net_handle().stats();
    assert!(net_stats.messages_sent >= 2);
    assert_eq!(net_stats.messages_duplicated, net_stats.messages_sent);
    assert_eq!(net_stats.receive_timeouts, 0);
}

/// Directed counter test: a loss-free sync ships a replica's backlog as
/// windows of at most `set_window` frames, all in one round, and each
/// record is acknowledged once.
#[test]
fn loss_free_sync_ships_one_append_per_window() {
    let registry = MetricsRegistry::new();
    let disk = MemStore::new();
    let outbox = LogOutbox::new();
    let mut journal = Journal::new(Box::new(TeeStore::new(disk.clone(), outbox.clone())));
    journal.set_term(PRIMARY_TERM);
    for i in 0..64 {
        journal
            .append(format!("record {i}").as_bytes())
            .expect("append");
    }
    let mut net = ReplicationNet::new(PRIMARY_TERM, 2, outbox, FaultPlan::reliable()).expect("net");
    net.set_metrics(&registry);
    net.set_window(32);
    assert_eq!(net.sync(8), 1);
    assert!(net.primary.all_caught_up());
    assert_eq!(net.primary.stats().shipped, 2 * 2, "2 windows per replica");
    assert_eq!(net.primary.stats().acked_records, 2 * 64);
    for i in 0..2 {
        assert_eq!(
            registry.counter_value(&format!("server.repl.{i}.shipped")),
            Some(2)
        );
        assert_eq!(
            registry.counter_value(&format!("server.repl.{i}.acked")),
            Some(64)
        );
        assert_eq!(net.replicas[i].stats().applied, 64);
        assert_eq!(net.replicas[i].store().snapshot(), disk.snapshot());
    }
}

/// Directed test: a dropped message is waited for until the loss timeout
/// (counted), then resent by a later round until the replica converges.
#[test]
fn lossy_sync_times_out_on_drops_and_still_converges() {
    let (disk, mut net) = shipped_journal(FaultPlan::seeded(7).with_drop(0.3), 64);
    let rounds = net.sync(400);
    assert!(
        net.primary.all_caught_up(),
        "no convergence in {rounds} rounds"
    );
    assert!(rounds > 1);
    let stats = net.net_handle().stats();
    assert!(stats.messages_dropped > 0);
    assert!(stats.receive_timeouts > 0);
    assert_eq!(net.replicas[0].store().snapshot(), disk.snapshot());
}

/// Directed test: delays of 1–4 ms (so both within and past the 1 ms loss
/// timeout of a round) mixed with duplicates still converge to a log that
/// byte-matches the primary's.
#[test]
fn delayed_and_duplicated_sync_converges_to_the_primary_log() {
    let plan = FaultPlan::seeded(11)
        .with_duplicate(0.2)
        .with_delay(0.4, std::time::Duration::from_millis(4));
    let (disk, mut net) = shipped_journal(plan, 64);
    // Eight windows in flight at once, so delays also reorder them.
    net.set_window(8);
    let rounds = net.sync(400);
    assert!(
        net.primary.all_caught_up(),
        "no convergence in {rounds} rounds"
    );
    let stats = net.net_handle().stats();
    assert!(stats.messages_delayed > 0 && stats.messages_duplicated > 0);
    assert_eq!(net.replicas[0].stats().applied, 64);
    assert_eq!(net.replicas[0].store().snapshot(), disk.snapshot());
}
