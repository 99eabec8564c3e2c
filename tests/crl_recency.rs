//! CRLs and revocation recency (§4.3 / Stubblebine–Wright [25]): "It is
//! essential to verify the most recent available revocation information
//! before granting access to an object."

use jaap_coalition::scenario::CoalitionBuilder;
use jaap_core::syntax::Time;
use jaap_pki::CrlEntry;

fn coalition(seed: u64) -> jaap_coalition::scenario::Coalition {
    CoalitionBuilder::new()
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("coalition")
}

#[test]
fn empty_crl_heartbeat_satisfies_recency() {
    let mut c = coalition(9001);
    c.server_mut().set_revocation_recency(10).expect("config");

    // No CRL yet: everything is refused.
    let d = c.request_write(&["User_D1", "User_D2"]).expect("w");
    assert!(!d.granted);
    assert!(d
        .detail
        .expect("detail")
        .contains("revocation information stale"));

    // An empty heartbeat CRL restores service.
    let crl = c.ra().issue_crl(1, c.server().now(), vec![]).expect("crl");
    c.server_mut().admit_crl(&crl).expect("admit");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn recency_window_expires() {
    let mut c = coalition(9002);
    c.server_mut().set_revocation_recency(5).expect("config");
    let crl = c.ra().issue_crl(1, Time(10), vec![]).expect("crl");
    c.server_mut().admit_crl(&crl).expect("admit");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);

    // 6 ticks later the CRL is stale again.
    c.advance_time(Time(16)).expect("clock");
    let d = c.request_write(&["User_D1", "User_D2"]).expect("w");
    assert!(!d.granted);

    // A fresh heartbeat (higher sequence) restores service.
    let crl2 = c.ra().issue_crl(2, Time(16), vec![]).expect("crl");
    c.server_mut().admit_crl(&crl2).expect("admit");
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn crl_carries_revocations() {
    let mut c = coalition(9003);
    c.server_mut().set_revocation_recency(100).expect("config");
    let entry = CrlEntry {
        subject: c.write_ac().subject.clone(),
        group: c.write_ac().group.clone(),
        revoked_from: Time(12),
    };
    c.advance_time(Time(12)).expect("clock");
    let crl = c.ra().issue_crl(1, Time(12), vec![entry]).expect("crl");
    c.server_mut().admit_crl(&crl).expect("admit");
    c.advance_time(Time(13)).expect("clock");

    // The write AC named in the CRL is dead; reads survive.
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    assert!(c.request_read(&["User_D3"]).expect("r").granted);
}

#[test]
fn sequence_rollback_rejected() {
    let mut c = coalition(9004);
    let crl2 = c.ra().issue_crl(2, Time(10), vec![]).expect("crl");
    c.server_mut().admit_crl(&crl2).expect("admit");
    let crl1 = c.ra().issue_crl(1, Time(10), vec![]).expect("old crl");
    let err = c.server_mut().admit_crl(&crl1);
    assert!(err.is_err(), "replaying an old CRL must fail");
    let same = c.ra().issue_crl(2, Time(10), vec![]).expect("same crl");
    assert!(c.server_mut().admit_crl(&same).is_err());
}

#[test]
fn forged_crl_rejected() {
    use jaap_pki::RevocationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut c = coalition(9005);
    let mut rng = StdRng::seed_from_u64(1);
    let rogue = RevocationAuthority::new("RogueRA", &mut rng, 192).expect("rogue");
    let crl = rogue.issue_crl(1, Time(10), vec![]).expect("crl");
    assert!(c.server_mut().admit_crl(&crl).is_err());
}

#[test]
fn recency_off_by_default() {
    let mut c = coalition(9006);
    // Without a recency policy, no CRL is required.
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}
