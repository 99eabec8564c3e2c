//! Experiments E7/E11: trust liability of Case I vs Case II, with real key
//! material, plus the collusion bounds.

use jaap_coalition::aa::{CoalitionAa, LockboxAa};
use jaap_coalition::liability::{exposure_probability, min_compromises, simulate_exposure, Scheme};
use jaap_core::certs::Validity;
use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::collusion::{collude_additive, CollusionOutcome};
use jaap_crypto::rsa::RsaKeyPair;
use jaap_pki::attribute::{ThresholdAttributeCertificate, ThresholdSubject};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn subject(rng: &mut StdRng) -> ThresholdSubject {
    let members = (1..=3)
        .map(|i| {
            let kp = RsaKeyPair::generate(rng, 128).expect("key");
            (format!("User_D{i}"), kp.public().clone())
        })
        .collect();
    ThresholdSubject::new(members, 2).expect("subject")
}

/// One operator credential per member domain.
fn operators() -> Vec<(String, String)> {
    (1..=3)
        .map(|i| (format!("admin_D{i}"), format!("pw{i}")))
        .collect()
}

/// The body of a write-group threshold attribute certificate the AA issues.
fn write_grant_body(rng: &mut StdRng) -> Vec<u8> {
    ThresholdAttributeCertificate::body_bytes(
        "AA",
        &subject(rng),
        &GroupId::new("G_write"),
        Validity::new(Time(0), Time(100)),
        Time(5),
    )
}

#[test]
fn case1_single_penetration_forges_valid_certificates() {
    // Case I: stealing the lockbox key with ONE compromise yields
    // certificates indistinguishable from legitimate ones.
    let mut rng = StdRng::seed_from_u64(5001);
    let aa = LockboxAa::establish(operators(), &mut rng, 192).expect("aa");
    let stolen = aa.external_penetration();

    let body = write_grant_body(&mut rng);
    let forged_sig = stolen.sign(&body).expect("sign with stolen key");
    // The forgery verifies against the AA's public key: unilateral policy
    // modification achieved with one compromise.
    assert!(aa.public().verify(&body, &forged_sig));
}

#[test]
fn case1_lockbox_signs_only_with_every_operator_credential() {
    // Case I's "joint cryptographic request": the lockbox itself signs a
    // certificate only when every domain's operator presents a credential.
    let mut rng = StdRng::seed_from_u64(5004);
    let ops = operators();
    let aa = LockboxAa::establish(ops.clone(), &mut rng, 192).expect("aa");
    let body = write_grant_body(&mut rng);
    let sig = aa.sign_with_credentials(&body, &ops).expect("sign");
    assert!(aa.public().verify(&body, &sig));
    // One credential missing, or one wrong: refused.
    assert!(aa.sign_with_credentials(&body, &ops[..2]).is_err());
    let mut wrong = ops;
    wrong[0].1 = "wrong".into();
    assert!(aa.sign_with_credentials(&body, &wrong).is_err());
}

#[test]
fn case1_single_insider_forges_valid_certificates() {
    // Case I's other single point of failure: one privileged insider with
    // ONE operator credential extracts the whole key, bypassing the
    // all-operators rule, and forges a certificate that verifies.
    let mut rng = StdRng::seed_from_u64(5005);
    let aa = LockboxAa::establish(operators(), &mut rng, 192).expect("aa");
    let extracted = aa.insider_extraction("admin_D2", "pw2").expect("insider");
    let body = write_grant_body(&mut rng);
    let forged_sig = extracted.sign(&body).expect("sign with extracted key");
    assert!(aa.public().verify(&body, &forged_sig));
    // Someone who is not an operator has no insider path.
    assert!(aa.insider_extraction("mallory", "guess").is_err());
}

#[test]
fn case2_single_domain_cannot_forge() {
    let mut rng = StdRng::seed_from_u64(5002);
    let aa = CoalitionAa::establish_dealt(
        "AA",
        vec!["D1".into(), "D2".into(), "D3".into()],
        &mut rng,
        192,
    )
    .expect("aa");
    let s = subject(&mut rng);
    let forged = aa
        .unilateral_issue_attempt(
            "D1",
            s,
            GroupId::new("G_write"),
            Validity::new(Time(0), Time(100)),
            Time(5),
        )
        .expect("attempt");
    assert!(forged.verify(aa.public()).is_err());
}

#[test]
fn case2_proper_subsets_recover_nothing() {
    let mut rng = StdRng::seed_from_u64(5003);
    let aa = CoalitionAa::establish_dealt(
        "AA",
        vec!["D1".into(), "D2".into(), "D3".into()],
        &mut rng,
        192,
    )
    .expect("aa");
    for leave_out in ["D1", "D2", "D3"] {
        let pooled: Vec<_> = aa
            .domains()
            .iter()
            .filter(|d| d.as_str() != leave_out)
            .map(|d| aa.share_of(d).expect("share"))
            .collect();
        assert_eq!(
            collude_additive(aa.public(), &pooled),
            CollusionOutcome::Nothing,
            "n-1 domains must learn nothing"
        );
    }
    // All three together do recover the signing exponent.
    let all: Vec<_> = aa
        .domains()
        .iter()
        .map(|d| aa.share_of(d).expect("share"))
        .collect();
    assert!(collude_additive(aa.public(), &all).is_compromised());
}

#[test]
fn minimum_compromise_counts() {
    assert_eq!(min_compromises(Scheme::CaseILockbox { n: 3 }), 1);
    assert_eq!(min_compromises(Scheme::CaseIIShared { n: 3 }), 3);
    assert_eq!(min_compromises(Scheme::CaseIIThreshold { m: 2, n: 3 }), 2);
    // The gap widens with coalition size.
    for n in [5usize, 7, 9] {
        assert_eq!(min_compromises(Scheme::CaseIIShared { n }), n);
        assert_eq!(min_compromises(Scheme::CaseILockbox { n }), 1);
    }
}

#[test]
fn exposure_probability_shapes() {
    // The E7 headline series: at q = 0.05, Case I ≈ 0.185, Case II 3-of-3
    // ≈ 1.25e-4 — three orders of magnitude.
    let q = 0.05;
    let case1 = exposure_probability(Scheme::CaseILockbox { n: 3 }, q);
    let case2 = exposure_probability(Scheme::CaseIIShared { n: 3 }, q);
    assert!(case1 > 0.18 && case1 < 0.19);
    assert!(case2 < 2e-4);
    assert!(case1 / case2 > 1_000.0);

    // Monte Carlo agrees with the closed form.
    let sim = simulate_exposure(Scheme::CaseILockbox { n: 3 }, q, 50_000, 77);
    assert!((sim - case1).abs() < 0.01);
}

#[test]
fn refresh_invalidates_exfiltrated_shares() {
    // Wu et al. refresh (§6): a share stolen *before* refresh is useless
    // when combined with shares stolen *after*.
    use jaap_crypto::refresh::refresh_in_place;

    let mut rng = StdRng::seed_from_u64(5004);
    let mut aa = CoalitionAa::establish_dealt(
        "AA",
        vec!["D1".into(), "D2".into(), "D3".into()],
        &mut rng,
        192,
    )
    .expect("aa");
    let public = aa.public().clone();
    let stolen_before = aa.share_of("D1").expect("share").clone();
    refresh_in_place(&mut rng, aa.shares_mut()).expect("refresh");
    let after_1 = aa.share_of("D2").expect("share").clone();
    let after_2 = aa.share_of("D3").expect("share").clone();
    let mixed = vec![&stolen_before, &after_1, &after_2];
    assert_eq!(
        collude_additive(&public, &mixed),
        CollusionOutcome::Nothing,
        "pre-refresh share + post-refresh shares must not combine"
    );
    // A full post-refresh set still works.
    let fresh: Vec<_> = ["D1", "D2", "D3"]
        .iter()
        .map(|d| aa.share_of(d).expect("share"))
        .collect();
    assert!(collude_additive(&public, &fresh).is_compromised());
}
