//! End-to-end behavior of the wire-speed crypto path: fixed-base
//! precomputation and batch signature verification must be invisible in
//! decisions, audit lines, and check counters (metrics off, cache off) —
//! across revocations and trust-store swaps — while a forged or swapped
//! signature anywhere in a batch is pinned to exactly its own request.

use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::request::JointAccessRequest;
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::server::ServerDecision;
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_pki::ThresholdAttributeCertificate;
use jaap_wal::MemStore;

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .domains(&["D1", "D2", "D3"])
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("coalition")
}

/// A mixed batch: two granted joint writes, one under-threshold denial,
/// and one more granted write — enough to exercise every signature kind.
fn batch(c: &Coalition) -> Vec<JointAccessRequest> {
    [
        &["User_D1", "User_D2"][..],
        &["User_D3"][..],
        &["User_D1", "User_D3"][..],
        &["User_D2", "User_D3"][..],
    ]
    .iter()
    .map(|signers| {
        c.build_request(signers, Operation::new("write", "Object O"))
            .expect("request")
    })
    .collect()
}

fn assert_decisions_eq(slow: &[ServerDecision], fast: &[ServerDecision]) {
    assert_eq!(slow.len(), fast.len());
    for (i, (s, f)) in slow.iter().zip(fast).enumerate() {
        assert_eq!(s.granted, f.granted, "request {i}: granted");
        assert_eq!(s.detail, f.detail, "request {i}: detail");
        assert_eq!(
            s.signature_checks, f.signature_checks,
            "request {i}: signature_checks"
        );
        assert_eq!(
            s.cached_signature_checks, f.cached_signature_checks,
            "request {i}: cached_signature_checks"
        );
        assert_eq!(
            s.axiom_applications, f.axiom_applications,
            "request {i}: axiom_applications"
        );
    }
}

/// Satellite: with metrics and the verify cache off, decisions, audit
/// lines, and every check counter are byte-identical with precomp +
/// batching on vs off — including across a mid-schedule revocation and a
/// full trust-store swap (server reset).
#[test]
fn precomp_and_batching_are_invisible_in_decisions_and_audit() {
    let mut slow = coalition(71);
    let mut fast = coalition(71);
    fast.set_crypto_precomp(true).expect("config");
    fast.set_batch_verify(true).expect("config");

    let reqs = batch(&slow);
    let d_slow = slow.server_mut().verify_batch(&reqs, 3);
    let d_fast = fast.server_mut().verify_batch(&reqs, 3);
    assert_decisions_eq(&d_slow, &d_fast);
    assert!(d_fast[0].granted && !d_fast[1].granted);

    // Mid-schedule revocation: the write AC dies, later decisions flip.
    slow.advance_time(Time(30)).expect("clock");
    fast.advance_time(Time(30)).expect("clock");
    slow.revoke_write_ac(Time(30)).expect("revoke");
    fast.revoke_write_ac(Time(30)).expect("revoke");
    let d_slow = slow.server_mut().verify_batch(&reqs, 3);
    let d_fast = fast.server_mut().verify_batch(&reqs, 3);
    assert_decisions_eq(&d_slow, &d_fast);
    assert_eq!(slow.server().audit_log(), fast.server().audit_log());

    // Trust-store swap: reset rebuilds the server (fresh store, fresh
    // precomp tables behind a fresh Arc); the flags reset too and are
    // re-applied on the fast side only.
    slow.reset_server();
    fast.reset_server();
    assert!(!fast.server().crypto_precomp());
    assert!(!fast.server().batch_verify_enabled());
    fast.set_crypto_precomp(true).expect("config");
    fast.set_batch_verify(true).expect("config");
    let d_slow = slow.server_mut().verify_batch(&reqs, 2);
    let d_fast = fast.server_mut().verify_batch(&reqs, 2);
    assert_decisions_eq(&d_slow, &d_fast);
    assert_eq!(slow.server().audit_log(), fast.server().audit_log());
}

/// The lock-free snapshot path with precomp on decides identically to the
/// plain serial server with it off.
#[test]
fn concurrent_snapshot_precomp_matches_serial() {
    let serial_c = coalition(72);
    let mut conc_c = coalition(72);
    conc_c.set_crypto_precomp(true).expect("config");
    let reqs = batch(&serial_c);
    let mut serial = serial_c.into_server();
    let conc = ConcurrentServer::new(conc_c.into_server());
    for req in &reqs {
        let s = serial.handle_request(req);
        let c = conc.decide(req);
        assert_eq!(s.granted, c.granted);
        assert_eq!(s.detail, c.detail);
        assert_eq!(s.signature_checks, c.signature_checks);
        assert_eq!(s.axiom_applications, c.axiom_applications);
    }
}

/// Satellite (batch soundness): swapped statement signatures and forged
/// certificate signatures are rejected with exactly the serial denial, the
/// bisection fallback pins the offending certificate inside its combined
/// check, and untouched requests in the same batch are unaffected.
#[test]
fn forged_signatures_in_a_batch_are_pinned_to_their_requests() {
    let mut slow = coalition(73);
    let mut fast = coalition(73);
    let registry = fast.enable_metrics();
    fast.set_crypto_precomp(true).expect("config");
    fast.set_batch_verify(true).expect("config");

    let mut reqs = batch(&slow);
    // A read rides in the same batch, so the AA's group holds both the
    // write AC and the read AC — a genuinely multi-item combined check.
    reqs.push(
        slow.build_request(&["User_D1"], Operation::new("read", "Object O"))
            .expect("read request"),
    );
    // Cross-swap the first statement signatures of requests 0 and 1
    // (different principals, so both become invalid; statements take the
    // serial precomp path, never the batch)...
    let s0 = reqs[0].statements[0].signature.clone();
    reqs[0].statements[0].signature = reqs[1].statements[0].signature.clone();
    reqs[1].statements[0].signature = s0;
    // ...graft a foreign signature onto an identity certificate of
    // request 3 (a single-item group: the leaf check pins it)...
    reqs[3].identity_certs[0].signature = reqs[3].identity_certs[1].signature.clone();
    // ...and forge request 3's threshold AC signature: the AA's combined
    // check now fails and bisection must isolate exactly this item.
    reqs[3].threshold_certs[0].signature = reqs[3].identity_certs[1].signature.clone();

    let d_slow = slow.server_mut().verify_batch(&reqs, 2);
    let d_fast = fast.server_mut().verify_batch(&reqs, 2);
    assert_decisions_eq(&d_slow, &d_fast);
    assert!(!d_fast[0].granted);
    assert!(d_fast[0]
        .detail
        .as_deref()
        .is_some_and(|d| d.contains("request signature by")));
    assert!(!d_fast[3].granted);
    // The untouched write and the read still pass through the same batch.
    assert!(d_fast[2].granted);
    assert!(d_fast[4].granted);
    // The combined checks ran and the forged AC forced a bisection.
    assert!(
        registry
            .counter_value("server.crypto.batch_verifies")
            .unwrap_or(0)
            >= 1
    );
    assert!(
        registry
            .counter_value("server.crypto.batch_fallbacks")
            .unwrap_or(0)
            >= 1
    );

    // Every rejection kind on every decision path: the serial server, the
    // batch path (pre-pass on and off, 1 and 3 workers) and the
    // concurrent front-end each start from a fresh twin and must agree on
    // the verdict, its detail and both check counters.
    let (prefixes, rejected): (Vec<&str>, Vec<JointAccessRequest>) =
        rejection_cases(&slow).into_iter().unzip();
    let mut serial = coalition(73);
    let d_serial: Vec<ServerDecision> = rejected
        .iter()
        .map(|req| serial.server_mut().handle_request(req))
        .collect();
    for (d, prefix) in d_serial.iter().zip(&prefixes) {
        assert!(!d.granted, "{prefix}: must be denied");
        assert!(
            d.detail.as_deref().is_some_and(|x| x.starts_with(prefix)),
            "{prefix}: got {:?}",
            d.detail
        );
    }
    for batching in [false, true] {
        for workers in [1, 3] {
            let mut c = coalition(73);
            c.set_crypto_precomp(batching).expect("config");
            c.set_batch_verify(batching).expect("config");
            assert_decisions_eq(&d_serial, &c.server_mut().verify_batch(&rejected, workers));
        }
    }
    let conc = ConcurrentServer::new(coalition(73).into_server());
    let d_conc: Vec<ServerDecision> = rejected.iter().map(|req| conc.decide(req)).collect();
    assert_decisions_eq(&d_serial, &d_conc);
}

/// One request per rejection kind, each paired with the detail prefix it
/// must be denied with. Every request is a granted-shaped joint write with
/// exactly one defect, so the defect alone decides the denial.
fn rejection_cases(c: &Coalition) -> Vec<(&'static str, JointAccessRequest)> {
    let base = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    let ac = c.write_ac().clone();
    let defect = |f: &dyn Fn(&mut JointAccessRequest)| {
        let mut req = base.clone();
        f(&mut req);
        req
    };

    let forged_id =
        defect(&|r| r.identity_certs[0].signature = base.identity_certs[1].signature.clone());
    let forged_thr =
        defect(&|r| r.threshold_certs[0].signature = base.identity_certs[0].signature.clone());
    // A genuinely AA-issued single-subject AC, then forged.
    let mut attr = c
        .aa()
        .issue_attribute_certificate(
            "User_D1",
            c.user("User_D1").expect("user").public(),
            ac.group.clone(),
            ac.validity,
            ac.timestamp,
        )
        .expect("attribute certificate");
    attr.signature = base.identity_certs[0].signature.clone();
    let forged_attr = defect(&|r| r.attribute_certs.push(attr.clone()));
    let unknown_ca = defect(&|r| r.identity_certs[0].issuer = "CA_Rogue".into());
    // Validly signed by the trusted AA's key, but over a body naming some
    // other issuer: only issuer resolution can reject it.
    let foreign_body = ThresholdAttributeCertificate::body_bytes(
        "AA_Rogue",
        &ac.subject,
        &ac.group,
        ac.validity,
        ac.timestamp,
    );
    let foreign_thr = ThresholdAttributeCertificate {
        issuer: "AA_Rogue".into(),
        signature: c.aa().joint_sign(&foreign_body).expect("joint sign"),
        ..ac.clone()
    };
    let foreign_issuer = defect(&|r| r.threshold_certs[0] = foreign_thr.clone());
    let no_identity = defect(&|r| {
        r.identity_certs.remove(1);
    });
    let bad_statement =
        defect(&|r| r.statements[0].signature = base.statements[1].signature.clone());
    vec![
        ("identity certificate: bad signature", forged_id),
        ("threshold attribute certificate: bad signature", forged_thr),
        ("attribute certificate: bad signature", forged_attr),
        ("identity certificate: unknown issuer", unknown_ca),
        (
            "threshold attribute certificate: unknown issuer",
            foreign_issuer,
        ),
        ("no identity certificate presented for User_D2", no_identity),
        (
            "request signature by User_D1 does not verify",
            bad_statement,
        ),
    ]
}

/// Review regression (±1 subgroup of `Z_N*`): replacing a signature `s`
/// with `N - s` flips `s^e` to `-h`, and an *even* number of flips inside
/// one issuer group cancels out of any parity-fixed weighted product. Both
/// AA-issued certificates in the batch (write AC + read AC — the one
/// multi-item combined check) are mauled this way; the exact settlement of
/// screened items must deny every request with the serial denial.
#[test]
fn even_count_minus_s_mauls_are_denied_exactly() {
    let mut slow = coalition(76);
    let mut fast = coalition(76);
    let registry = fast.enable_metrics();
    fast.set_crypto_precomp(true).expect("config");
    fast.set_batch_verify(true).expect("config");

    let store = slow.trust_store();
    let n = store.aa_key().expect("aa key").rsa().modulus().clone();
    let mut reqs = batch(&slow);
    // The read request pulls the read AC into the AA's group alongside
    // the write AC, so the group holds exactly two (deduped) items.
    reqs.push(
        slow.build_request(&["User_D2"], Operation::new("read", "Object O"))
            .expect("read request"),
    );
    for req in &mut reqs {
        for tc in &mut req.threshold_certs {
            let mauled = &n - tc.signature.value();
            tc.signature = jaap_crypto::rsa::RsaSignature::from_value(mauled);
        }
    }

    let d_slow = slow.server_mut().verify_batch(&reqs, 2);
    let d_fast = fast.server_mut().verify_batch(&reqs, 2);
    assert_decisions_eq(&d_slow, &d_fast);
    for (i, d) in d_fast.iter().enumerate() {
        assert!(!d.granted, "request {i}: mauled AC must be denied");
    }
    // The multi-item combined check actually ran on the batching side.
    assert!(
        registry
            .counter_value("server.crypto.batch_verifies")
            .unwrap_or(0)
            >= 1
    );
}

/// Satellite (cache discipline): a batch-vouched certificate never enters
/// the verification cache — only individually verified ones do.
#[test]
fn batch_vouched_certs_never_populate_the_verify_cache() {
    let mut c = coalition(74);
    c.set_verification_cache(true).expect("config");
    c.set_batch_verify(true).expect("config");
    let reqs = batch(&c);
    let d = c.server_mut().verify_batch(&reqs, 2);
    assert!(d[0].granted);
    let stats = c.server().verification_cache().expect("cache on").stats();
    assert_eq!(
        stats.entries, 0,
        "batch-vouched certificates must not populate the cache"
    );
    // With batching off the same requests verify individually and do
    // populate the cache.
    c.set_batch_verify(false).expect("config");
    let _ = c.server_mut().verify_batch(&reqs, 2);
    let stats = c.server().verification_cache().expect("cache on").stats();
    assert!(
        stats.entries > 0,
        "individual verifications populate the cache"
    );
}

/// The precomp instrument exports shared-cache hits, and both config
/// flags survive a WAL snapshot + crash recovery.
#[test]
fn precomp_hits_export_and_flags_survive_recovery() {
    let mut c = coalition(75);
    let registry = c.enable_metrics();
    c.set_crypto_precomp(true).expect("config");
    let reqs = batch(&c);
    let _ = c.server_mut().verify_batch(&reqs, 1);
    let _ = c.server_mut().verify_batch(&reqs, 1);
    assert!(
        registry
            .counter_value("server.crypto.precomp_hits")
            .unwrap_or(0)
            > 0,
        "warm passes must hit the shared precomp cache"
    );

    // Flags round-trip through the journal: bootstrap snapshot captures
    // them, recovery replays them.
    let store = c.trust_store();
    let mem = MemStore::new();
    let disk = mem.clone();
    let mut server = c.into_server();
    server
        .attach_journal(Box::new(mem))
        .expect("attach journal");
    server.set_batch_verify(true).expect("config");
    drop(server); // crash
    let (recovered, report) =
        jaap_coalition::server::CoalitionServer::recover("P", store, Box::new(disk))
            .expect("recover");
    assert!(report.truncation.is_none());
    assert!(recovered.crypto_precomp(), "precomp flag survives recovery");
    assert!(
        recovered.batch_verify_enabled(),
        "batch-verify flag survives recovery"
    );
}
