//! Experiment E9: revocation reasoning (§4.3 "Reasoning about revocation").
//!
//! Believe-until-revoked: once server P admits
//! `RA says ¬(CP′ ⇒ G_write)`, the membership belief is unavailable for
//! all later times, and previously grantable requests are refused.

use jaap_coalition::scenario::CoalitionBuilder;
use jaap_core::syntax::Time;

fn coalition(seed: u64) -> jaap_coalition::scenario::Coalition {
    CoalitionBuilder::new()
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("coalition")
}

#[test]
fn grant_before_deny_after() {
    let mut c = coalition(3001);
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(21)).expect("clock");
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn revocation_of_write_leaves_read_intact() {
    let mut c = coalition(3002);
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(21)).expect("clock");
    assert!(c.request_read(&["User_D1"]).expect("r").granted);
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn revocation_has_upper_bound_infinity() {
    // Paper footnote 2: "all revocation certificates have an upper bound of
    // infinity" — re-presenting the same certificate much later still
    // fails.
    let mut c = coalition(3003);
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(500)).expect("clock");
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn revocation_from_untrusted_ra_is_rejected() {
    use jaap_pki::RevocationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut c = coalition(3004);
    let mut rng = StdRng::seed_from_u64(99);
    let rogue = RevocationAuthority::new("RogueRA", &mut rng, 192).expect("rogue");
    let rev = rogue
        .revoke_attribute(
            &c.write_ac().subject.clone(),
            c.write_ac().group.clone(),
            Time(20),
            Time(20),
        )
        .expect("sign");
    c.advance_time(Time(20)).expect("clock");
    let res = c.server_mut().admit_attribute_revocation(&rev);
    assert!(res.is_err(), "rogue RA revocations must be rejected");
    // Access unaffected.
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
}

#[test]
fn identity_revocation_disables_a_single_signer() {
    let mut c = coalition(3005);
    assert!(c.request_write(&["User_D1", "User_D2"]).expect("w").granted);

    // CA_D1 revokes User_D1's identity certificate.
    c.advance_time(Time(20)).expect("clock");
    let user_key = c.user("User_D1").expect("user").public().clone();
    let rev = c.domains()[0]
        .ca()
        .revoke_identity("User_D1", &user_key, Time(20), Time(20))
        .expect("revoke");
    c.server_mut()
        .admit_identity_revocation(&rev)
        .expect("admit");
    c.advance_time(Time(21)).expect("clock");

    // User_D1 can no longer be counted toward the threshold...
    assert!(!c.request_write(&["User_D1", "User_D2"]).expect("w").granted);
    // ...but the other two still satisfy 2-of-3.
    assert!(c.request_write(&["User_D2", "User_D3"]).expect("w").granted);
}

#[test]
fn requests_predating_revocation_still_evaluate_against_request_time() {
    // The believe-until-revoked condition blocks beliefs from the
    // revocation time onward; a request whose statements and submission
    // predate the revocation but is *processed* after it must also be
    // refused (the paper's condition: unavailable for t4 >= t8).
    let mut c = coalition(3006);
    let req = c
        .build_request(
            &["User_D1", "User_D2"],
            jaap_core::protocol::Operation::new("write", jaap_coalition::scenario::OBJECT_O),
        )
        .expect("request");
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(25)).expect("clock");
    let d = c.server_mut().handle_request(&req);
    assert!(
        !d.granted,
        "decision time is after revocation; membership no longer believed"
    );
}

#[test]
fn audit_log_reflects_revocation_transition() {
    let mut c = coalition(3007);
    let _ = c.request_write(&["User_D1", "User_D2"]).expect("w1");
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20)).expect("revoke");
    c.advance_time(Time(21)).expect("clock");
    let _ = c.request_write(&["User_D1", "User_D2"]).expect("w2");
    let log = c.server().audit_log();
    assert_eq!(log.len(), 2);
    assert!(log[0].granted);
    assert!(!log[1].granted);
}
