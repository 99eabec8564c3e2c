//! Eviction semantics of the bounded server-side structures: the
//! replay-protection `seen` map, the audit log and the certificate
//! [`VerifyCache`], all sized through one journaled [`CapacityConfig`].
//!
//! The invariant under test: **bounding a cache never changes a
//! decision**. Evicting a replay digest makes the request re-processable
//! (it is re-evaluated against *current* beliefs — which, after a
//! revocation, is exactly what the paper's §4.3 recency discussion wants);
//! evicting a verification entry only forces a re-verification of the same
//! bytes. The proptest at the bottom drives that equivalence across random
//! request schedules.

use jaap_coalition::cache::VerifyCache;
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::server::CapacityConfig;
use jaap_core::protocol::Operation;
use jaap_core::syntax::{Message, Time};
use proptest::prelude::*;

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .domains(&["D1", "D2", "D3"])
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("build")
}

/// Sizes `c`'s server through the one sizing path.
fn size(c: &mut Coalition, config: CapacityConfig) {
    c.server_mut()
        .apply_capacity_config(&config)
        .expect("config");
}

/// A duplicate delivery replays the remembered decision verbatim — but
/// once the digest is evicted under capacity pressure, the same bytes are
/// *re-evaluated*, and a revocation admitted in the meantime now denies
/// them. Replay protection is a dedup window, not a grant oracle.
#[test]
fn revoked_request_is_replayed_until_evicted_then_reevaluated() {
    let mut c = coalition(0xB0);
    c.server_mut().set_replay_protection(true).expect("config");
    let registry = c.enable_metrics();

    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    let first = c.server_mut().handle_request(&req);
    assert!(first.granted);
    assert_eq!(c.server().object("Object O").expect("obj").version, 1);

    // Revoke the write AC, then replay the exact same request bytes: the
    // dedup window returns the original decision with no second audit
    // entry and no second version bump.
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(21)).expect("clock");
    let replayed = c.server_mut().handle_request(&req);
    assert!(replayed.granted, "dedup returns the original decision");
    assert_eq!(c.server().audit_log().len(), 1);
    assert_eq!(c.server().object("Object O").expect("obj").version, 1);
    assert_eq!(registry.counter_value("server.replay.hits"), Some(1));

    // Push the digest out of the (now tiny) window...
    size(
        &mut c,
        CapacityConfig {
            replay: 1,
            ..CapacityConfig::default()
        },
    );
    for t in 30..32 {
        c.advance_time(Time(t)).expect("clock");
        let filler = c
            .build_request(&["User_D1"], Operation::new("read", "Object O"))
            .expect("filler");
        c.server_mut().handle_request(&filler);
    }
    assert!(
        registry
            .counter_value("server.replay.evictions")
            .unwrap_or(0)
            >= 1
    );

    // ...and the replayed request is re-processed against current beliefs:
    // the revocation now denies it, and the denial is audited.
    let reevaluated = c.server_mut().handle_request(&req);
    assert!(
        !reevaluated.granted,
        "an evicted digest must be re-evaluated, and the revocation denies it"
    );
    assert_eq!(
        c.server().object("Object O").expect("obj").version,
        1,
        "no further version bump"
    );
}

/// The audit log is the third bounded server-side structure: oldest-first
/// rotation past the configured capacity, with evictions counted — and the
/// retained suffix is exactly the newest entries.
#[test]
fn audit_log_rotates_oldest_first_past_capacity() {
    let mut c = coalition(0xB4);
    size(
        &mut c,
        CapacityConfig {
            audit: 3,
            ..CapacityConfig::default()
        },
    );
    let registry = c.enable_metrics();
    for t in 0..7 {
        c.advance_time(Time(20 + t)).expect("clock");
        let req = c
            .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
            .expect("request");
        assert!(c.server_mut().handle_request(&req).granted);
    }
    let audit = c.server().audit_log();
    assert_eq!(audit.len(), 3, "audit log must respect its capacity");
    let times: Vec<i64> = audit.iter().map(|e| e.at.0).collect();
    assert_eq!(times, vec![24, 25, 26], "newest entries are retained");
    assert_eq!(c.server().audit_evictions(), 4);
    assert_eq!(registry.counter_value("server.audit.evictions"), Some(4));
    // Shrinking the bound trims immediately.
    size(
        &mut c,
        CapacityConfig {
            audit: 1,
            ..CapacityConfig::default()
        },
    );
    assert_eq!(c.server().audit_log().len(), 1);
    assert_eq!(c.server().audit_log()[0].at.0, 26);
    assert_eq!(c.server().audit_evictions(), 6);
}

#[test]
fn seen_map_respects_capacity_under_pressure() {
    let mut c = coalition(0xB1);
    c.server_mut().set_replay_protection(true).expect("config");
    size(
        &mut c,
        CapacityConfig {
            replay: 3,
            ..CapacityConfig::default()
        },
    );
    let registry = c.enable_metrics();
    for t in 0..8 {
        c.advance_time(Time(20 + t)).expect("clock");
        let req = c
            .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
            .expect("request");
        assert!(c.server_mut().handle_request(&req).granted);
    }
    assert_eq!(c.server().replay_entries(), 3);
    assert_eq!(registry.counter_value("server.replay.evictions"), Some(5));
    assert_eq!(registry.counter_value("server.decisions"), Some(8));
}

#[test]
fn verify_cache_eviction_under_pressure_still_grants() {
    let mut c = coalition(0xB2);
    c.server_mut().set_verification_cache(true).expect("config");
    // Each write request presents 3 cacheable certificates (2 identity +
    // 1 threshold AC); capacity 2 forces evictions on every pass.
    size(
        &mut c,
        CapacityConfig {
            verify_cache: Some(2),
            ..CapacityConfig::default()
        },
    );
    for t in 0..4 {
        c.advance_time(Time(20 + t)).expect("clock");
        let d = c.request_write(&["User_D1", "User_D2"]).expect("write");
        assert!(d.granted, "decisions are capacity-independent");
    }
    let stats = c.server().verification_cache().expect("cache on").stats();
    assert!(stats.evictions > 0, "capacity pressure must evict");
    assert!(stats.entries <= 2, "bound holds");
}

/// The standalone cache bound: filling far past capacity keeps the live
/// set at the bound and counts every displaced entry.
#[test]
fn verify_cache_never_exceeds_capacity() {
    let cache = VerifyCache::with_capacity(Some(8));
    for i in 0..100 {
        cache.insert(
            (format!("digest-{i}"), "K".to_string()),
            Message::data("m"),
            Time(1_000),
            vec![],
            None,
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 8);
    assert_eq!(stats.evictions, 92);
}

/// A key invalidated and then inserted again is the *newest* entry, so
/// FIFO eviction must take the older `b` first.
#[test]
fn reinserted_key_after_invalidation_is_evicted_in_fifo_order() {
    let cache = VerifyCache::with_capacity(Some(2));
    let key = |d: &str| (d.to_string(), "K".to_string());
    let insert = |d: &str, subjects: Vec<String>| {
        cache.insert(key(d), Message::data(d), Time(1_000), subjects, None);
    };
    insert("a", vec!["U".into()]);
    assert_eq!(cache.invalidate_subject("U"), 1);
    insert("b", vec![]);
    insert("a", vec![]);
    insert("c", vec![]);
    assert_eq!(
        cache.lookup(&key("b"), Time(0)),
        None,
        "b is the oldest live entry"
    );
    assert_eq!(cache.lookup(&key("a"), Time(0)), Some(Message::data("a")));
    assert_eq!(cache.lookup(&key("c"), Time(0)), Some(Message::data("c")));
    assert_eq!(cache.stats().evictions, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bounded caches never change decisions: the same request schedule
    /// through (a) a server with a tiny verification cache and a tiny
    /// replay window and (b) a server with an unbounded cache and a large
    /// window produces identical grant/deny outcomes — only the hit/miss
    /// split may differ.
    #[test]
    fn bounded_and_unbounded_caches_agree_on_decisions(
        schedule in proptest::collection::vec(
            (0usize..3, 0usize..3, any::<bool>()),
            1..10,
        ),
    ) {
        let users = ["User_D1", "User_D2", "User_D3"];
        let mut bounded = coalition(0xB3);
        let mut unbounded = coalition(0xB3);
        for c in [&mut bounded, &mut unbounded] {
            c.server_mut().set_replay_protection(true).expect("config");
            c.server_mut().set_verification_cache(true).expect("config");
        }
        size(&mut bounded, CapacityConfig {
            replay: 1,
            verify_cache: Some(1),
            ..CapacityConfig::default()
        });
        // The unbounded twin: a verify-cache bound no schedule can reach.
        size(&mut unbounded, CapacityConfig {
            verify_cache: Some(usize::MAX),
            ..CapacityConfig::default()
        });

        for (i, &(a, b, read)) in schedule.iter().enumerate() {
            let t = Time(20 + i as i64);
            bounded.advance_time(t).expect("clock");
            unbounded.advance_time(t).expect("clock");
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
            let req = bounded
                .build_request(&signers, op)
                .expect("request");
            let db = bounded.server_mut().handle_request(&req);
            let du = unbounded.server_mut().handle_request(&req);
            prop_assert_eq!(db.granted, du.granted, "step {}: grant mismatch", i);
            prop_assert_eq!(db.detail, du.detail, "step {}: detail mismatch", i);
            prop_assert_eq!(
                db.signature_checks + db.cached_signature_checks,
                du.signature_checks + du.cached_signature_checks,
                "step {}: total checks mismatch", i
            );
        }
        prop_assert!(bounded.server().replay_entries() <= 1);
    }
}
