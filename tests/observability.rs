//! End-to-end checks of the observability layer: per-phase decision
//! latencies, decision/replay/cache counters, and the JSON export — plus
//! the contract that a server with metrics detached behaves identically.

use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::shard::ShardedCoalition;
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_obs::MetricsRegistry;
use jaap_wal::MemStore;

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .domains(&["D1", "D2", "D3"])
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("build")
}

#[test]
fn handle_request_populates_phase_histograms_and_counters() {
    let mut c = coalition(0xC0);
    let registry = c.enable_metrics();
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    assert!(!c.request_write(&["User_D3"]).expect("w1").granted);

    assert_eq!(registry.counter_value("server.decisions"), Some(2));
    assert_eq!(registry.counter_value("server.granted"), Some(1));
    assert_eq!(registry.counter_value("server.denied"), Some(1));

    // A quorum-failure denial is a decision with an audit line too: it
    // counts in `server.decisions` but, Indeterminate like a shed, not in
    // `server.denied`.
    let unavailable = c.server_mut().record_unavailable(
        vec!["User_D1".into()],
        Operation::new("write", "Object O"),
        "joint signing quorum unavailable",
        None,
    );
    assert!(unavailable.unavailable);
    assert_eq!(registry.counter_value("server.decisions"), Some(3));
    assert_eq!(registry.counter_value("server.denied"), Some(1));
    assert_eq!(c.server().audit_log().len(), 3);

    for name in [
        "server.phase.recency_ns",
        "server.phase.crypto_ns",
        "server.phase.acl_ns",
        "server.phase.logic_ns",
        "server.decision_ns",
    ] {
        let snap = registry
            .histogram_snapshot(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(snap.count, 2, "{name} must time both decisions");
    }
    // Sanity on the ordering: the crypto phase dominates the ACL lookup.
    let crypto = registry
        .histogram_snapshot("server.phase.crypto_ns")
        .expect("crypto");
    let acl = registry
        .histogram_snapshot("server.phase.acl_ns")
        .expect("acl");
    assert!(
        crypto.sum > acl.sum,
        "RSA verification outweighs an ACL scan"
    );
}

/// Journal instruments: every belief-changing event appends (counted, with
/// bytes and latency), and snapshots are counted separately.
#[test]
fn journal_appends_and_snapshots_are_instrumented() {
    let mut c = coalition(0xC7);
    let registry = c.enable_metrics();
    c.server_mut()
        .attach_journal(Box::new(MemStore::new()))
        .expect("attach");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    c.advance_time(Time(11)).expect("clock");
    assert!(!c.request_write(&["User_D3"]).expect("w1").granted);

    let appends = registry
        .counter_value("server.journal.appends")
        .expect("appends");
    // Two requests (certs + decision for the first, at least a decision
    // for the second) and a clock advance.
    assert!(appends >= 4, "expected >= 4 appends, got {appends}");
    let bytes = registry
        .counter_value("server.journal.bytes")
        .expect("bytes");
    assert!(bytes > 0);
    let lat = registry
        .histogram_snapshot("server.journal.append_ns")
        .expect("append_ns");
    assert_eq!(lat.count, appends, "every append is timed");
    // The bootstrap snapshot written at attach time is the first one.
    assert_eq!(registry.counter_value("server.journal.snapshots"), Some(1));

    c.server_mut().snapshot_journal().expect("snapshot");
    assert_eq!(registry.counter_value("server.journal.snapshots"), Some(2));
}

#[test]
fn verify_batch_times_crypto_phase_across_workers() {
    let mut c = coalition(0xC1);
    let registry = c.enable_metrics();
    let mut requests = Vec::new();
    for t in 0..4 {
        c.advance_time(Time(20 + t)).expect("clock");
        requests.push(
            c.build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
                .expect("request"),
        );
    }
    let decisions = c.server_mut().verify_batch(&requests, 3);
    assert!(decisions.iter().all(|d| d.granted));
    let crypto = registry
        .histogram_snapshot("server.phase.crypto_ns")
        .expect("crypto");
    assert_eq!(crypto.count, 4, "every request's crypto phase is timed");
    assert_eq!(registry.counter_value("server.decisions"), Some(4));
}

#[test]
fn cache_counters_are_mirrored_into_the_registry() {
    let mut c = coalition(0xC2);
    let registry = c.enable_metrics();
    c.set_verification_cache(true).expect("config");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("a").granted);
    c.advance_time(Time(12)).expect("clock");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("b").granted);
    // Second pass serves 2 identity certs + 1 threshold AC from memory.
    assert_eq!(registry.counter_value("server.cache.hits"), Some(3));
    let stats = c.server().verification_cache().expect("cache on").stats();
    assert_eq!(stats.hits, 3, "registry and CacheStats agree");
}

#[test]
fn json_export_contains_pipeline_metrics() {
    let mut c = coalition(0xC3);
    let registry = c.enable_metrics();
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    let json = registry.to_json();
    for needle in [
        "\"server.decisions\":1",
        "\"server.phase.crypto_ns\"",
        "\"server.decision_ns\"",
        "\"p99\"",
        "\"buckets\"",
    ] {
        assert!(json.contains(needle), "export missing {needle}: {json}");
    }
}

#[test]
fn disabling_metrics_restores_an_unobserved_server() {
    let mut c = coalition(0xC4);
    let registry = c.enable_metrics();
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    assert_eq!(registry.counter_value("server.decisions"), Some(1));
    c.disable_metrics();
    c.advance_time(Time(12)).expect("clock");
    assert!(
        c.request_write(&["User_D1", "User_D2"])
            .expect("w2")
            .granted
    );
    // The detached registry saw nothing further.
    assert_eq!(registry.counter_value("server.decisions"), Some(1));
    assert!(c.metrics().is_none());
}

#[test]
fn decisions_identical_with_and_without_metrics() {
    let mut observed = coalition(0xC5);
    let mut plain = coalition(0xC5);
    observed.enable_metrics();
    for (signers, read) in [
        (vec!["User_D1", "User_D2"], false),
        (vec!["User_D3"], false),
        (vec!["User_D2"], true),
    ] {
        let op = if read {
            Operation::new("read", "Object O")
        } else {
            Operation::new("write", "Object O")
        };
        let req = observed.build_request(&signers, op).expect("request");
        let a = observed.server_mut().handle_request(&req);
        let b = plain.server_mut().handle_request(&req);
        assert_eq!(a.granted, b.granted);
        assert_eq!(a.detail, b.detail);
        assert_eq!(a.signature_checks, b.signature_checks);
    }
}

#[test]
fn reset_server_keeps_the_registry_wired() {
    let mut c = coalition(0xC6);
    let registry = c.enable_metrics();
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    c.reset_server();
    assert!(
        c.request_write(&["User_D1", "User_D2"])
            .expect("w2")
            .granted
    );
    assert_eq!(registry.counter_value("server.decisions"), Some(2));
}

/// Metrics attached to the concurrent front-end reach the crypto phase
/// that runs off the writer lock against the published snapshot, not only
/// the serial tail: attaching them republishes the snapshot.
#[test]
fn sharded_front_end_times_the_crypto_phase_after_metrics_attach() {
    let c = coalition(0xC5);
    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    let mut front = ShardedCoalition::new(vec![c.into_server()]).expect("router");
    let registry = MetricsRegistry::new();
    front.set_metrics(&registry);
    assert!(front.decide(&req).granted);
    for name in [
        "shard.0.server.phase.crypto_ns",
        "shard.0.server.phase.logic_ns",
    ] {
        let snap = registry
            .histogram_snapshot(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(snap.count, 1, "{name} must time the decision");
    }
}

/// The Figure 2(d) response encryption is its own phase: one sample per
/// granted read, none for a write (which returns no contents).
#[test]
fn granted_read_times_its_response_encryption_and_a_write_does_not() {
    let mut c = coalition(0xC8);
    let registry = c.enable_metrics();
    let encrypt_samples = || {
        registry
            .histogram_snapshot("server.phase.encrypt_ns")
            .expect("encrypt_ns is resolved with the other phases")
            .count
    };
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    assert_eq!(encrypt_samples(), 0, "a write encrypts no response");
    let read = c.request_read(&["User_D3"]).expect("r");
    assert!(read.granted && read.response.is_some());
    assert_eq!(encrypt_samples(), 1, "a granted read encrypts one response");
}
