//! Figure 2(d)'s final message: on a granted read, the server returns
//! `Response: {Object O}_{K_u3}` — the object encrypted under the
//! requestor's certified public key, so only the authorized reader learns
//! the contents.

use jaap_coalition::scenario::{CoalitionBuilder, OBJECT_O};

const RESEARCH_DATA: &[u8] = b"gene sequence: ACGTACGTAAGC...";

fn coalition(seed: u64) -> jaap_coalition::scenario::Coalition {
    let mut c = CoalitionBuilder::new()
        .key_bits(256)
        .seed(seed)
        .build()
        .expect("coalition");
    c.server_mut()
        .set_content(OBJECT_O, RESEARCH_DATA.to_vec())
        .expect("content");
    c
}

#[test]
fn granted_read_returns_ciphertext_only_the_reader_can_open() {
    let mut c = coalition(11_001);
    let d = c.request_read(&["User_D3"]).expect("read");
    assert!(d.granted);
    let ct = d.response.expect("Figure 2(d) response");

    // Only User_D3's private key opens the response. We cannot reach the
    // private key through the public API (by design); instead check that
    // another user's key cannot decrypt it, and that the plaintext never
    // appears in the ciphertext blocks.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    use rand::SeedableRng;
    let outsider = jaap_crypto::rsa::RsaKeyPair::generate(&mut rng, 256).expect("keygen");
    match outsider.decrypt(&ct) {
        Err(_) => {}
        Ok(garbled) => assert_ne!(garbled, RESEARCH_DATA),
    }
    assert!(ct.block_count() >= 1);
}

#[test]
fn denied_read_returns_no_response() {
    let mut c = coalition(11_002);
    // A write denial has no response, and neither does a denied operation.
    let d = c
        .request_operation(
            &["User_D1"],
            jaap_core::protocol::Operation::new("delete", OBJECT_O),
        )
        .expect("request");
    assert!(!d.granted);
    assert!(d.response.is_none());
}

#[test]
fn writes_do_not_leak_contents() {
    let mut c = coalition(11_003);
    let d = c.request_write(&["User_D1", "User_D2"]).expect("write");
    assert!(d.granted);
    assert!(d.response.is_none(), "writes return no object contents");
}

#[test]
fn each_read_is_freshly_encrypted() {
    let mut c = coalition(11_004);
    let a = c
        .request_read(&["User_D1"])
        .expect("r1")
        .response
        .expect("ct");
    let b = c
        .request_read(&["User_D1"])
        .expect("r2")
        .response
        .expect("ct");
    assert_ne!(a, b, "randomized encryption: no two responses identical");
}

#[test]
fn servers_from_one_seed_pad_responses_independently() {
    // Same coalition seed: same keys, same object, same request. The
    // padding must still differ, or a ciphertext would confirm a guess of
    // the object's content re-encrypted under the reader's public key.
    let first = |mut c: jaap_coalition::scenario::Coalition| {
        c.request_read(&["User_D3"])
            .expect("read")
            .response
            .expect("ct")
    };
    assert_ne!(
        first(coalition(11_005)),
        first(coalition(11_005)),
        "the response RNG must not be seeded with a constant"
    );
}

/// A duplicate delivery of a granted read replays the original decision,
/// ciphertext included, on every decision path.
#[test]
fn replayed_read_returns_the_original_ciphertext_on_every_path() {
    use jaap_coalition::concurrent::ConcurrentServer;
    use jaap_coalition::shard::ShardedCoalition;
    use jaap_core::protocol::Operation;

    let replaying = |seed| {
        let mut c = coalition(seed);
        c.server_mut().set_replay_protection(true).expect("replay");
        let req = c
            .build_request(&["User_D3"], Operation::new("read", OBJECT_O))
            .expect("request");
        (c, req)
    };

    let (mut c, req) = replaying(11_006);
    let first = c.server_mut().handle_request(&req);
    assert!(first.granted);
    let ct = first.response.expect("granted read carries a response");
    let again = c.server_mut().handle_request(&req);
    assert_eq!(again.response.as_ref(), Some(&ct), "handle_request");

    let (mut c, req) = replaying(11_007);
    let batch = c.server_mut().verify_batch(&[req.clone(), req.clone()], 2);
    let ct = batch[0].response.clone().expect("granted read");
    assert_eq!(
        batch[1].response.as_ref(),
        Some(&ct),
        "verify_batch, same batch"
    );
    let later = c.server_mut().verify_batch(std::slice::from_ref(&req), 2);
    assert_eq!(
        later[0].response.as_ref(),
        Some(&ct),
        "verify_batch, later batch"
    );

    let (c, req) = replaying(11_008);
    let server = ConcurrentServer::new(c.into_server());
    let ct = server.decide(&req).response.expect("granted read");
    assert_eq!(
        server.decide(&req).response.as_ref(),
        Some(&ct),
        "ConcurrentServer::decide"
    );

    let (c, req) = replaying(11_009);
    let router = ShardedCoalition::new(vec![c.into_server()]).expect("router");
    let batch = router.decide_batch(&[req.clone(), req.clone()], 2);
    let ct = batch[0].response.clone().expect("granted read");
    assert_eq!(
        batch[1].response.as_ref(),
        Some(&ct),
        "decide_batch, same batch"
    );
    let later = router.decide_batch(std::slice::from_ref(&req), 2);
    assert_eq!(
        later[0].response.as_ref(),
        Some(&ct),
        "decide_batch, later batch"
    );
}
