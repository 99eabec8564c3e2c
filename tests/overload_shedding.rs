//! Robustness semantics: typed load shedding and fail-stop poisoning.
//!
//! Three claims, each load-bearing for the overload/fault story:
//!
//! 1. **Sheds are Indeterminate, not Deny, and never pollute derived
//!    state.** A shed decision (overload, deadline, poisoned journal) is
//!    typed, audited, and leaves the verification cache, derivation
//!    memo, and replay window exactly as it found them — re-presenting
//!    the same request once the pressure clears gets a full, fresh
//!    evaluation.
//! 2. **Shed audit lines are volatile.** They are distinguishable from
//!    policy denials in the live audit log and do not survive snapshot
//!    compaction into the journal.
//! 3. **A poisoned server recovers to a twin of its durable prefix.**
//!    After an injected fsync failure wedges the journal, recovery over
//!    the medium's surviving bytes yields a server decision-for-decision
//!    identical to one that only ever ran the completed operations —
//!    checked property-style over random scripts and fault points.

use std::time::Instant;

use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::request::{assemble, JointAccessRequest};
use jaap_coalition::scenario::{Coalition, CoalitionBuilder, OBJECT_O};
use jaap_coalition::server::{CoalitionServer, ServerDecision, ShedReason};
use jaap_coalition::CoalitionError;
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_wal::{FaultyStore, MemStore, StoreFaultPlan};
use proptest::prelude::*;

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("coalition")
}

/// Builds a joint request at an explicit time, so probes against twin
/// servers stamp identical bytes regardless of either server's clock.
fn request_at(c: &Coalition, signers: &[&str], action: &str, at: Time) -> JointAccessRequest {
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

#[test]
fn expired_deadline_sheds_typed_and_never_touches_derived_state() {
    let mut c = coalition(0x0DE0);
    c.server_mut().set_verification_cache(true).expect("config");
    c.server_mut().set_derivation_memo(true).expect("config");
    c.server_mut().set_replay_protection(true).expect("config");
    let now = c.server().now();
    let req = request_at(&c, &["User_D1"], "read", now);

    // A deadline of "now" is exhausted by the time the pre-crypto gate
    // looks at it: the request must shed typed, before any crypto.
    let expired = req.clone().with_deadline(Instant::now());
    let d = c.server_mut().handle_request(&expired);
    assert_eq!(d.shed, Some(ShedReason::DeadlineExceeded));
    assert!(d.unavailable && !d.granted, "Indeterminate, not Deny");
    assert_eq!(d.signature_checks, 0, "shed before the crypto phase");

    // No derived state recorded the shed: cache cold, memo cold, replay
    // window empty.
    let cache = c.server().verification_cache().expect("cache").stats();
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 0, 0));
    let memo = c.server().derivation_memo_stats().expect("memo");
    assert_eq!((memo.hits, memo.misses), (0, 0));
    assert_eq!(c.server().replay_entries(), 0);

    // The same request (deadline is delivery metadata, not identity —
    // same digest) now gets a full, fresh evaluation.
    let d2 = c.server_mut().handle_request(&req);
    assert!(d2.granted && d2.shed.is_none());
    assert!(
        d2.signature_checks > 0,
        "evaluated fresh, not served from a shed"
    );
    assert_eq!(c.server().replay_entries(), 1);

    // Audit distinguishes the three outcomes: shed (Indeterminate),
    // grant, and policy Deny.
    let under_threshold = request_at(&c, &["User_D3"], "write", now);
    let denied = c.server_mut().handle_request(&under_threshold);
    assert!(!denied.granted && denied.shed.is_none() && !denied.unavailable);
    let audit = c.server().audit_log();
    assert_eq!(audit.len(), 3);
    assert_eq!(audit[0].shed, Some(ShedReason::DeadlineExceeded));
    assert!(!audit[0].granted);
    assert!(audit[1].granted && audit[1].shed.is_none());
    assert!(!audit[2].granted && audit[2].shed.is_none());
}

#[test]
fn shed_audit_lines_do_not_survive_snapshot_compaction() {
    let mut c = coalition(0x0DE1);
    c.server_mut().set_replay_protection(true).expect("config");
    let store = MemStore::new();
    let handle = store.clone();
    c.server_mut()
        .attach_journal(Box::new(store))
        .expect("attach");

    let now = c.server().now();
    let read_req = request_at(&c, &["User_D1"], "read", now);
    let write_req = request_at(&c, &["User_D3"], "write", now);
    let late_req = request_at(&c, &["User_D2"], "read", now);
    let granted = c.server_mut().handle_request(&read_req);
    assert!(granted.granted);
    let denied = c.server_mut().handle_request(&write_req);
    assert!(!denied.granted && denied.shed.is_none());
    let shed = c
        .server_mut()
        .handle_request(&late_req.with_deadline(Instant::now()));
    assert_eq!(shed.shed, Some(ShedReason::DeadlineExceeded));
    assert_eq!(c.server().audit_log().len(), 3);

    // Compact, then recover from the journal: the grant and the policy
    // Deny survive as audit rows; the volatile shed line does not.
    c.server_mut().snapshot_journal().expect("snapshot");
    let (recovered, _) = CoalitionServer::recover(
        "P",
        c.trust_store(),
        Box::new(MemStore::from_bytes(handle.snapshot())),
    )
    .expect("recover");
    let audit = recovered.audit_log();
    assert_eq!(audit.len(), 2, "the shed line is volatile");
    assert!(audit.iter().all(|e| e.shed.is_none()));
    assert_eq!(
        recovered.replay_entries(),
        c.server().replay_entries(),
        "the replay window survives compaction (sheds never entered it)"
    );
}

#[test]
fn overload_shed_is_typed_audited_and_never_cached() {
    let mut c = coalition(0x0DE2);
    c.server_mut().set_verification_cache(true).expect("config");
    c.server_mut().set_replay_protection(true).expect("config");
    let now = c.server().now();
    let req = request_at(&c, &["User_D1"], "read", now);
    let server = ConcurrentServer::new(c.into_server());
    server.set_inflight_limit(1);

    // Park a permit in the only slot: the gate is full, so the decision
    // sheds typed on the lock-free path.
    let hold = server.acquire_slot().expect("empty gate");
    assert!(server.acquire_slot().is_none(), "gate is full");
    let d = server.decide(&req);
    assert_eq!(d.shed, Some(ShedReason::Overloaded));
    assert!(d.unavailable && !d.granted);
    let cache = server.with_writer(|s| s.verification_cache().expect("cache").stats());
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 0, 0));
    assert_eq!(server.with_writer(|s| s.replay_entries()), 0);

    // The shed landed in the bounded ring, typed — not in the serial
    // audit log, whose entries are evaluated decisions.
    let ring = server.shed_audit();
    assert_eq!(ring.len(), 1);
    assert_eq!(ring[0].shed, Some(ShedReason::Overloaded));
    assert!(!ring[0].granted);

    // Once the slot frees, the identical request evaluates fully: the
    // shed neither cached a refusal nor burned the request's identity.
    drop(hold);
    let d2 = server.decide(&req);
    assert!(d2.granted && d2.shed.is_none());
    assert!(d2.signature_checks > 0, "fresh evaluation after the shed");
    assert_eq!(server.with_writer(|s| s.replay_entries()), 1);
}

/// The batch path runs the serial paths' admission step: an expired
/// request sheds with the same detail as under `handle_request`, and a
/// request already in the replay window is answered from it — in both
/// cases without a crypto phase, so a replay cannot re-fill the cache.
#[test]
fn verify_batch_admits_before_crypto_like_handle_request() {
    let mut serial = coalition(0x0DE3);
    let mut batch = coalition(0x0DE3);
    let registry = batch.enable_metrics();
    for c in [&mut serial, &mut batch] {
        c.server_mut().set_verification_cache(true).expect("config");
        c.server_mut().set_replay_protection(true).expect("config");
    }
    let now = batch.server().now();
    let req = request_at(&batch, &["User_D1"], "read", now);
    let crypto_samples = || {
        registry
            .histogram_snapshot("server.phase.crypto_ns")
            .map_or(0, |h| h.count)
    };

    let expired = req.clone().with_deadline(Instant::now());
    let want = serial.server_mut().handle_request(&expired);
    let got = batch
        .server_mut()
        .verify_batch(std::slice::from_ref(&expired), 1);
    assert_eq!(got[0].shed, Some(ShedReason::DeadlineExceeded));
    assert_eq!(got[0].detail, want.detail, "shed before the crypto phase");
    assert_eq!(got[0].signature_checks, 0);
    assert_eq!(crypto_samples(), 0, "no crypto work for an expired request");

    let first = batch.server_mut().handle_request(&req);
    assert!(first.granted);
    let samples = crypto_samples();
    let cache = batch.server().verification_cache().expect("cache");
    cache.clear();
    let again = batch
        .server_mut()
        .verify_batch(std::slice::from_ref(&req), 1);
    assert!(again[0].granted && again[0].shed.is_none());
    assert_eq!(again[0].signature_checks, first.signature_checks);
    assert_eq!(crypto_samples(), samples, "replayed, not re-verified");
    let cache = batch.server().verification_cache().expect("cache");
    assert_eq!(
        cache.stats().entries,
        0,
        "a replay never re-fills the cache"
    );
}

/// A scripted pre-poison mutation: exactly one journal append each, so
/// the injected fsync-failure index maps 1:1 onto a script position.
#[derive(Debug, Clone)]
enum Step {
    Advance(i64),
    Content(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1i64..4).prop_map(Step::Advance),
        any::<u8>().prop_map(Step::Content),
    ]
}

fn apply_step(
    server: &mut CoalitionServer,
    step: &Step,
    clock: &mut i64,
) -> Result<(), CoalitionError> {
    match step {
        Step::Advance(dt) => {
            let to = Time(*clock + dt);
            server.advance_clock(to)?;
            *clock = to.0;
            Ok(())
        }
        Step::Content(b) => server.set_content(OBJECT_O, vec![*b; 6]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random script, random fault point: the server poisons exactly at
    /// the faulted append (or never, if the script is shorter), refuses
    /// typed afterwards, and recovery over the medium's durable bytes is
    /// decision-for-decision a twin of the completed prefix.
    #[test]
    fn poisoned_server_recovers_to_twin_of_durable_prefix(
        steps in proptest::collection::vec(step_strategy(), 1..12),
        fail_after in 0u64..10,
        seed in 0u64..64,
    ) {
        let mut c = coalition(0xF0F0 + seed);
        c.server_mut().set_replay_protection(true).expect("config");
        let base_acl = c.server().objects()[0].acl.clone();
        let medium = MemStore::new();
        let handle = medium.clone();
        let faulty = FaultyStore::new(
            medium,
            StoreFaultPlan::seeded(seed).with_sync_fail_after(fail_after),
        ).expect("plan");
        c.server_mut().attach_journal(Box::new(faulty)).expect("attach");

        let mut clock = c.server().now().0;
        let mut twin_clock = clock;
        let mut completed: Vec<Step> = Vec::new();
        let mut poisoned = false;
        for step in &steps {
            match apply_step(c.server_mut(), step, &mut clock) {
                Ok(()) => completed.push(step.clone()),
                Err(CoalitionError::JournalPoisoned(_)) => { poisoned = true; break; }
                Err(e) => panic!("unexpected pre-poison error: {e}"),
            }
        }
        // One append per step: poison fires iff the script reaches the
        // scheduled fault, and everything before it completed.
        prop_assert_eq!(poisoned, steps.len() as u64 > fail_after);
        prop_assert_eq!(completed.len() as u64, (steps.len() as u64).min(fail_after));

        if poisoned {
            prop_assert!(c.server().poisoned().is_some(), "poison is sticky");
            // Mutations refuse typed; decisions shed typed; no effects.
            let clock_now = c.server().now();
            let refused = c.server_mut().advance_clock(Time(clock + 100));
            prop_assert!(matches!(refused, Err(CoalitionError::JournalPoisoned(_))));
            prop_assert_eq!(c.server().now(), clock_now);
            let probe = request_at(&c, &["User_D1"], "read", clock_now);
            let d = c.server_mut().handle_request(&probe);
            prop_assert_eq!(d.shed, Some(ShedReason::JournalPoisoned));
            prop_assert!(d.unavailable && !d.granted);
        }

        // Recover over the medium's bytes (poisoned or not) and rebuild
        // the never-faulted twin from the completed script.
        let durable = handle.snapshot();
        let recovery_medium = MemStore::from_bytes(durable.clone());
        let recovered_handle = recovery_medium.clone();
        let (mut recovered, _) = CoalitionServer::recover(
            "P",
            c.trust_store(),
            Box::new(recovery_medium),
        ).expect("recover");
        let kept = recovered_handle.snapshot();
        prop_assert!(
            kept.len() <= durable.len() && kept[..] == durable[..kept.len()],
            "recovered log must be a byte prefix of the faulted medium"
        );

        let mut twin = CoalitionServer::new("P", c.trust_store());
        twin.add_object(OBJECT_O, base_acl).expect("twin object");
        twin.advance_clock(Time(twin_clock)).expect("twin clock");
        twin.set_replay_protection(true).expect("config");
        for step in &completed {
            apply_step(&mut twin, step, &mut twin_clock).expect("twin replay");
        }

        prop_assert_eq!(recovered.now(), twin.now());
        prop_assert_eq!(recovered.objects(), twin.objects());

        // Probe workload: grant, threshold deny, and a replayed
        // duplicate must decide identically on both servers.
        let probe_t = Time(twin_clock + 5);
        recovered.advance_clock(probe_t).expect("recovered journal writable");
        twin.advance_clock(probe_t).expect("twin clock");
        let probes = [
            request_at(&c, &["User_D1"], "read", probe_t),
            request_at(&c, &["User_D1", "User_D2"], "write", probe_t),
            request_at(&c, &["User_D3"], "write", probe_t),
            request_at(&c, &["User_D1"], "read", probe_t),
        ];
        for (i, req) in probes.iter().enumerate() {
            let ours = recovered.handle_request(req);
            let twins = twin.handle_request(req);
            assert_same(&ours, &twins, i)?;
        }
    }
}

fn assert_same(
    ours: &ServerDecision,
    twins: &ServerDecision,
    probe: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        ours.granted,
        twins.granted,
        "granted diverged on probe {}",
        probe
    );
    prop_assert_eq!(
        &ours.detail,
        &twins.detail,
        "detail diverged on probe {}",
        probe
    );
    prop_assert_eq!(
        ours.axiom_applications,
        twins.axiom_applications,
        "axioms diverged on probe {}",
        probe
    );
    prop_assert_eq!(
        ours.signature_checks,
        twins.signature_checks,
        "signature checks diverged on probe {}",
        probe
    );
    prop_assert_eq!(
        ours.cached_signature_checks,
        twins.cached_signature_checks,
        "cached checks diverged on probe {}",
        probe
    );
    prop_assert_eq!(
        ours.unavailable,
        twins.unavailable,
        "unavailable diverged on probe {}",
        probe
    );
    prop_assert_eq!(&ours.shed, &twins.shed, "shed diverged on probe {}", probe);
    Ok(())
}
