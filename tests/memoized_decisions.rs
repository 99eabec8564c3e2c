//! The derivation memo never changes decisions — only their cost.
//!
//! The engine's memo ([`jaap_core::memo`]) replays a finished decision for
//! a repeated request at the same belief epoch. The invariants under test
//! mirror `bounded_caches.rs`:
//!
//! * **Equivalence**: a memoized server and a reference (memo-off) server
//!   produce byte-identical grants, denial details, audit logs, and
//!   rendered proof trees over random request schedules.
//! * **Revocation safety**: a memoized grant never outlives a revocation —
//!   admitting a revocation bumps the belief epoch, and every memo key
//!   carries the epoch it was stored under, so no older entry can match.
//! * **Bounding**: the memo respects its capacity with insertion-order
//!   eviction, and evictions only cost re-derivation, never correctness.

use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::server::CapacityConfig;
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use proptest::prelude::*;

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .domains(&["D1", "D2", "D3"])
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("build")
}

/// Re-submitting the same request bytes at the same time and belief epoch
/// replays the memoized decision — same grant, same proof, no extra axiom
/// search — and the audit log still records every submission.
#[test]
fn repeated_request_replays_identical_decision() {
    let mut c = coalition(0xE0);
    c.set_derivation_memo(true).expect("config");

    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    let first = c.server_mut().handle_request(&req);
    assert!(first.granted);
    let axioms_before = c.server().engine().axiom_applications();

    let second = c.server_mut().handle_request(&req);
    assert!(second.granted);
    assert_eq!(first.detail, second.detail);
    assert_eq!(first.axiom_applications, second.axiom_applications);
    assert_eq!(
        first.derivation.as_ref().map(|d| d.render()),
        second.derivation.as_ref().map(|d| d.render()),
        "replayed proof must render identically"
    );
    assert_eq!(
        c.server().engine().axiom_applications(),
        axioms_before,
        "a memo hit performs no new axiom applications"
    );

    let stats = c.server().derivation_memo_stats().expect("memo on");
    assert!(stats.hits >= 1, "second submission must hit: {stats:?}");
    assert!(stats.entries >= 1);
    // Every submission is audited, hit or miss.
    assert_eq!(c.server().audit_log().len(), 2);
}

/// Admitting a revocation bumps the belief epoch, so the previously
/// memoized grant no longer matches: the request is re-derived — and
/// denied.
#[test]
fn memoized_grant_never_outlives_revocation() {
    let mut c = coalition(0xE1);
    c.set_derivation_memo(true).expect("config");

    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    assert!(c.server_mut().handle_request(&req).granted);
    assert!(c.server_mut().handle_request(&req).granted, "warm hit");
    let stats = c.server().derivation_memo_stats().expect("memo on");
    assert!(stats.hits >= 1);

    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(21)).expect("clock");

    let before = c.server().derivation_memo_stats().expect("memo on");
    let after = c.server_mut().handle_request(&req);
    assert!(
        !after.granted,
        "revocation must deny the previously memoized request"
    );
    let stats = c.server().derivation_memo_stats().expect("memo on");
    assert_eq!(
        stats.hits, before.hits,
        "no pre-revocation entry may be served: {stats:?}"
    );
    assert_eq!(
        stats.misses,
        before.misses + 1,
        "the request must be re-derived: {stats:?}"
    );
}

/// The capacity bound holds under pressure, evictions are counted, and a
/// re-derived (evicted) request still gets the same decision.
#[test]
fn memo_respects_capacity_and_eviction_only_costs_rederivation() {
    let mut c = coalition(0xE2);
    c.set_derivation_memo(true).expect("config");
    c.server_mut()
        .apply_capacity_config(&CapacityConfig {
            derivation_memo: Some(1),
            ..CapacityConfig::default()
        })
        .expect("config");

    let write = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("write");
    let read = c
        .build_request(&["User_D3"], Operation::new("read", "Object O"))
        .expect("read");

    // Alternate two distinct requests through a capacity-1 memo: each
    // displaces the other, so every submission is a miss + eviction.
    for _ in 0..3 {
        assert!(c.server_mut().handle_request(&write).granted);
        assert!(c.server_mut().handle_request(&read).granted);
    }
    let stats = c.server().derivation_memo_stats().expect("memo on");
    assert!(stats.entries <= 1, "bound holds: {stats:?}");
    assert!(stats.evictions >= 2, "pressure must evict: {stats:?}");

    // Zero capacity memoizes nothing and still decides correctly.
    c.server_mut()
        .apply_capacity_config(&CapacityConfig {
            derivation_memo: Some(0),
            ..CapacityConfig::default()
        })
        .expect("config");
    assert!(c.server_mut().handle_request(&write).granted);
    assert_eq!(
        c.server().derivation_memo_stats().expect("memo on").entries,
        0
    );
}

/// The memo instruments surface through an attached registry.
#[test]
fn memo_and_interner_metrics_are_mirrored() {
    let mut c = coalition(0xE3);
    c.set_derivation_memo(true).expect("config");
    let registry = c.enable_metrics();

    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    assert!(c.server_mut().handle_request(&req).granted);
    assert!(c.server_mut().handle_request(&req).granted);

    assert_eq!(registry.counter_value("server.memo.hits"), Some(1));
    assert_eq!(registry.counter_value("server.memo.misses"), Some(1));
    assert!(registry.gauge_value("server.memo.entries").unwrap_or(0) >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The memoized engine and the fully re-derived reference engine agree
    /// on everything observable: grants, denial details, rendered proofs,
    /// and the audit log. Each scheduled request is submitted twice at the
    /// same timestamp so the memoized side exercises real hits.
    #[test]
    fn memoized_and_reference_engines_agree(
        schedule in proptest::collection::vec(
            (0usize..3, 0usize..3, any::<bool>(), any::<bool>()),
            1..8,
        ),
    ) {
        let users = ["User_D1", "User_D2", "User_D3"];
        let mut memoized = coalition(0xE4);
        let mut reference = coalition(0xE4);
        memoized.set_derivation_memo(true).expect("config");

        let mut revoked = false;
        for (i, &(a, b, read, revoke)) in schedule.iter().enumerate() {
            let t = Time(20 + i as i64);
            memoized.advance_time(t).expect("clock");
            reference.advance_time(t).expect("clock");
            if revoke && !revoked {
                memoized.revoke_write_ac(t).expect("revoke");
                reference.revoke_write_ac(t).expect("revoke");
                revoked = true;
            }
            let signers: Vec<&str> = if a == b {
                vec![users[a]]
            } else {
                vec![users[a], users[b]]
            };
            let op = if read {
                Operation::new("read", "Object O")
            } else {
                Operation::new("write", "Object O")
            };
            let req = memoized.build_request(&signers, op).expect("request");
            // Twice per step: the second submission is a memo hit on the
            // memoized side and a full re-derivation on the reference side.
            for round in 0..2 {
                let dm = memoized.server_mut().handle_request(&req);
                let dr = reference.server_mut().handle_request(&req);
                prop_assert_eq!(dm.granted, dr.granted, "step {}/{}: grant", i, round);
                prop_assert_eq!(&dm.detail, &dr.detail, "step {}/{}: detail", i, round);
                prop_assert_eq!(
                    dm.axiom_applications, dr.axiom_applications,
                    "step {}/{}: axiom count", i, round
                );
                prop_assert_eq!(
                    dm.derivation.as_ref().map(|d| d.render()),
                    dr.derivation.as_ref().map(|d| d.render()),
                    "step {}/{}: rendered proof", i, round
                );
            }
        }

        // Audit logs agree line for line.
        let am = memoized.server().audit_log();
        let ar = reference.server().audit_log();
        prop_assert_eq!(am.len(), ar.len());
        for (m, r) in am.iter().zip(ar) {
            prop_assert_eq!(m.at, r.at);
            prop_assert_eq!(&m.principals, &r.principals);
            prop_assert_eq!(m.granted, r.granted);
            prop_assert_eq!(&m.detail, &r.detail);
        }
        // Object versions agree (writes bumped identically).
        prop_assert_eq!(
            memoized.server().object("Object O").expect("obj").version,
            reference.server().object("Object O").expect("obj").version
        );
    }
}
