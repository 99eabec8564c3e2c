//! The revocation-aware verification cache and the parallel batch
//! pipeline: cache hits must never change a decision, revocations must
//! invalidate eagerly, audit entries must record cache-served checks (D3
//! ablation honesty), and `verify_batch` must reproduce serial decisions.

use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_core::protocol::Operation;
use jaap_core::syntax::{GroupId, Time};
use jaap_pki::{CrlEntry, PresentedCert};

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("coalition")
}

#[test]
fn repeat_presentations_are_served_from_cache() {
    let mut c = coalition(7001);
    c.set_verification_cache(true).expect("config");

    let first = c.request_write(&["User_D1", "User_D2"]).expect("w1");
    assert!(first.granted);
    assert_eq!(first.cached_signature_checks, 0);
    // 2 identity certs + 1 threshold AC + 2 statement signatures.
    assert_eq!(first.signature_checks, 5);

    c.advance_time(Time(15)).expect("clock");
    let second = c.request_write(&["User_D1", "User_D2"]).expect("w2");
    assert!(second.granted);
    // The three certificates hit the cache; only the fresh statement
    // signatures are verified cryptographically.
    assert_eq!(second.cached_signature_checks, 3);
    assert_eq!(second.signature_checks, 2);

    let stats = c.server().verification_cache().expect("cache").stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.entries, 3);
}

#[test]
fn decisions_identical_with_and_without_cache() {
    let mut plain = coalition(7002);
    let mut cached = coalition(7002);
    cached.set_verification_cache(true).expect("config");

    let schedule: &[(i64, &[&str], &str)] = &[
        (20, &["User_D1", "User_D2"], "write"),
        (21, &["User_D1", "User_D2"], "write"),
        (22, &["User_D3"], "write"),
        (23, &["User_D3"], "read"),
        (24, &["User_D2"], "read"),
    ];
    for (t, signers, action) in schedule {
        plain.advance_time(Time(*t)).expect("clock");
        cached.advance_time(Time(*t)).expect("clock");
        let op = Operation::new(*action, "Object O");
        let a = plain.request_operation(signers, op.clone()).expect("plain");
        let b = cached.request_operation(signers, op).expect("cached");
        assert_eq!(a.granted, b.granted);
        assert_eq!(a.detail, b.detail);
        // Total evidence is the same; only its provenance differs.
        assert_eq!(
            a.signature_checks + a.cached_signature_checks,
            b.signature_checks + b.cached_signature_checks
        );
    }
    let hits = cached
        .server()
        .verification_cache()
        .expect("cache")
        .stats()
        .hits;
    assert!(hits > 0, "repeat presentations should have hit the cache");
}

#[test]
fn audit_log_records_cache_served_checks() {
    let mut c = coalition(7003);
    c.set_verification_cache(true).expect("config");
    c.request_write(&["User_D1", "User_D2"]).expect("w1");
    c.advance_time(Time(15)).expect("clock");
    c.request_write(&["User_D1", "User_D2"]).expect("w2");

    let audit = c.server().audit_log();
    assert_eq!(audit.len(), 2);
    assert_eq!(audit[0].cached_checks, 0);
    assert_eq!(audit[1].cached_checks, 3);
}

#[test]
fn attribute_revocation_invalidates_cached_ac() {
    let mut c = coalition(7004);
    c.set_verification_cache(true).expect("config");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    assert_eq!(
        c.server()
            .verification_cache()
            .expect("cache")
            .stats()
            .entries,
        3
    );

    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    let stats = c.server().verification_cache().expect("cache").stats();
    assert_eq!(stats.entries, 2, "the G_write AC entry must be dropped");
    assert_eq!(stats.invalidations, 1);

    c.advance_time(Time(21)).expect("clock");
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn identity_revocation_invalidates_cached_identity() {
    let mut c = coalition(7005);
    c.set_verification_cache(true).expect("config");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);

    c.advance_time(Time(20)).expect("clock");
    let user_key = c.user("User_D1").expect("user").public().clone();
    let rev = c.domains()[0]
        .ca()
        .revoke_identity("User_D1", &user_key, Time(20), Time(20))
        .expect("revoke");
    c.server_mut()
        .admit_identity_revocation(&rev)
        .expect("admit");

    // Conservative invalidation: both User_D1's identity entry and the
    // threshold AC naming User_D1 as a member are dropped.
    let stats = c.server().verification_cache().expect("cache").stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.invalidations, 2);

    c.advance_time(Time(21)).expect("clock");
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    assert!(c.request_write(&["User_D2", "User_D3"]).expect("w").granted);
}

#[test]
fn crl_entries_invalidate_cached_groups() {
    let mut c = coalition(7006);
    c.set_verification_cache(true).expect("config");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);

    c.advance_time(Time(20)).expect("clock");
    let entry = CrlEntry {
        subject: c.write_ac().subject.clone(),
        group: c.write_ac().group.clone(),
        revoked_from: Time(20),
    };
    let crl = c.ra().issue_crl(1, Time(20), vec![entry]).expect("crl");
    c.server_mut().admit_crl(&crl).expect("admit");

    let stats = c.server().verification_cache().expect("cache").stats();
    assert_eq!(stats.entries, 2, "the CRL'd group entry must be dropped");

    c.advance_time(Time(21)).expect("clock");
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn disabling_the_cache_drops_it() {
    let mut c = coalition(7007);
    c.set_verification_cache(true).expect("config");
    c.request_write(&["User_D1", "User_D2"]).expect("w");
    assert!(c.server().verification_cache().is_some());
    c.set_verification_cache(false).expect("config");
    assert!(c.server().verification_cache().is_none());
    // And re-enabling starts cold.
    c.set_verification_cache(true).expect("config");
    assert_eq!(
        c.server()
            .verification_cache()
            .expect("cache")
            .stats()
            .entries,
        0
    );
}

#[test]
fn verify_batch_reproduces_serial_decisions_across_worker_counts() {
    let schedule: &[(i64, &[&str], &str)] = &[
        (20, &["User_D1", "User_D2"], "write"),
        (21, &["User_D3"], "write"),
        (22, &["User_D2", "User_D3"], "write"),
        (23, &["User_D1"], "read"),
        (24, &["User_D2"], "read"),
        (25, &["User_D1", "User_D3"], "write"),
    ];
    let build_requests = |c: &mut Coalition| {
        schedule
            .iter()
            .map(|(t, signers, action)| {
                c.advance_time(Time(*t)).expect("clock");
                c.build_request(signers, Operation::new(*action, "Object O"))
                    .expect("request")
            })
            .collect::<Vec<_>>()
    };

    let mut serial = coalition(7008);
    let serial_requests = build_requests(&mut serial);
    let expected: Vec<_> = serial_requests
        .iter()
        .map(|r| serial.server_mut().handle_request(r))
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let mut batch = coalition(7008);
        let requests = build_requests(&mut batch);
        let got = batch.server_mut().verify_batch(&requests, workers);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.granted, e.granted, "workers={workers}");
            assert_eq!(g.detail, e.detail, "workers={workers}");
            assert_eq!(g.signature_checks, e.signature_checks, "workers={workers}");
        }
        assert_eq!(
            batch.server().object("Object O").expect("obj").version,
            serial.server().object("Object O").expect("obj").version,
        );
        assert_eq!(batch.server().audit_log().len(), schedule.len());
    }
}

#[test]
fn verify_batch_with_cache_still_grants_correctly() {
    let mut c = coalition(7009);
    c.set_verification_cache(true).expect("config");
    let mut requests = Vec::new();
    for t in 20..28 {
        c.advance_time(Time(t)).expect("clock");
        requests.push(
            c.build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
                .expect("request"),
        );
    }
    let decisions = c.server_mut().verify_batch(&requests, 4);
    assert!(decisions.iter().all(|d| d.granted));
    let total_cached: usize = decisions.iter().map(|d| d.cached_signature_checks).sum();
    assert!(
        total_cached > 0,
        "warm presentations should be served from the cache"
    );
    assert_eq!(
        c.server().object("Object O").expect("obj").version,
        requests.len() as u64
    );
}

/// A hit needs the presented certificate to equal the cached one field for
/// field. A copy of each cached certificate that keeps the genuine
/// signature but changes one body field (identity validity end, threshold
/// subject, attribute group) is denied with the bad-signature detail, and
/// the genuine entries are neither evicted nor overwritten. The same
/// genuine certificate looked up under another issuer key id — what a
/// trust-store key swap presents to the cache — misses.
#[test]
fn altered_copies_of_cached_certificates_are_refused() {
    let mut c = coalition(7010);
    c.set_verification_cache(true).expect("config");
    let u1 = c.user("User_D1").expect("user");
    let ac = c
        .aa()
        .issue_attribute_certificate(
            "User_D1",
            u1.public(),
            GroupId::new("G_write"),
            c.write_ac().validity,
            c.server().now(),
        )
        .expect("attribute certificate");
    let request = |c: &mut Coalition, t: i64| {
        c.advance_time(Time(t)).expect("clock");
        let mut req = c
            .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
            .expect("request");
        req.attribute_certs.push(ac.clone());
        req
    };

    let warm = request(&mut c, 20);
    let d = c.server_mut().handle_request(&warm);
    assert!(d.granted);
    assert_eq!(d.cached_signature_checks, 0);
    let warmed = c.server().verification_cache().expect("cache").stats();
    assert_eq!(warmed.entries, 4, "2 identity, 1 threshold, 1 attribute");

    let mut t = 21;
    let mut forged = Vec::new();
    let mut req = request(&mut c, t);
    let validity = &mut req.identity_certs[0].validity;
    validity.end = Time(validity.end.0 + 1_000);
    forged.push(req);
    t += 1;
    let mut req = request(&mut c, t);
    req.threshold_certs[0].subject.m = 1;
    forged.push(req);
    t += 1;
    let mut req = request(&mut c, t);
    req.attribute_certs[0].group = GroupId::new("G_admin");
    forged.push(req);
    for req in &forged {
        let d = c.server_mut().handle_request(req);
        assert!(!d.granted);
        let detail = d.detail.expect("denial detail");
        assert!(detail.contains("bad signature"), "{detail}");
    }
    let stats = c.server().verification_cache().expect("cache").stats();
    assert_eq!(stats.entries, warmed.entries, "nothing inserted or evicted");
    assert_eq!(stats.invalidations, 0);
    assert_eq!(stats.evictions, 0);
    // Certificates are checked in §4.3 order and the first failure stops
    // the request: only the unaltered ones ahead of an altered one hit.
    assert_eq!(stats.hits - warmed.hits, 2 + 3);

    t += 1;
    let genuine = request(&mut c, t);
    let d = c.server_mut().handle_request(&genuine);
    assert!(d.granted);
    assert_eq!(d.cached_signature_checks, 4, "every genuine entry survived");

    // The cache key names the issuer key: under D2's CA key id instead of
    // D1's, the genuine D1 identity certificate misses.
    let cache = c.server().verification_cache().expect("cache").clone();
    let cert = PresentedCert::Identity(&genuine.identity_certs[0]);
    let ca_key = |name: &str| {
        c.domains()
            .iter()
            .find(|d| d.name() == name)
            .expect("domain")
            .ca()
            .public()
            .key_id()
    };
    let now = c.server().now();
    assert!(cache.lookup(cert, &ca_key("D2"), now).is_none());
    assert!(cache.lookup(cert, &ca_key("D1"), now).is_some());
}
