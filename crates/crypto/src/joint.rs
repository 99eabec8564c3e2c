//! The joint signature protocol of §3.2.
//!
//! > "The joint signature algorithm involves the requestor (one of the
//! > domains) sending a message to all the co-signers (the remaining member
//! > domains) with the message M to be signed and a key ID comprising the
//! > hash of N and the public exponent e. Each of the co-signers then apply
//! > their corresponding private key shares dᵢ to compute Sᵢ = M^dᵢ mod N
//! > and send the computations back to the requestor. The requestor then
//! > computes the message signature S = Π Sᵢ mod N."
//!
//! [`sign_over_network`] runs exactly that exchange on a simulated network;
//! [`sign_locally`] performs the same combination in-process for callers
//! that already hold all the shares (benches, the dealer fast path).

use jaap_bigint::Nat;
use jaap_net::{Endpoint, FaultPlan, Network, NetworkStats, PartyId};

use crate::fdh;
use crate::precomp::ModulusPrecomp;
use crate::rsa::RsaSignature;
use crate::shared::{KeyShare, SharedPublicKey};
use crate::CryptoError;

/// One co-signer's contribution `Sᵢ = M^{dᵢ} mod N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureShare {
    /// The contributing party.
    pub(crate) index: usize,
    /// The share value.
    pub(crate) value: Nat,
}

/// Computes this party's signature share over `msg`.
///
/// # Errors
///
/// Propagates [`KeyShare::sign_share`] errors.
pub fn produce_share(share: &KeyShare, msg: &[u8]) -> Result<SignatureShare, CryptoError> {
    Ok(SignatureShare {
        index: share.index(),
        value: share.sign_share(msg)?,
    })
}

/// Combines `n` signature shares into a verified joint signature.
///
/// # Errors
///
/// * [`CryptoError::BadShares`] unless exactly `n` distinct-index shares are
///   supplied.
/// * [`CryptoError::SelfCheckFailed`] if the combined value does not verify
///   (some share was wrong).
pub fn combine(
    public: &SharedPublicKey,
    msg: &[u8],
    shares: &[SignatureShare],
) -> Result<RsaSignature, CryptoError> {
    let n = public.n_parties();
    if shares.len() != n {
        return Err(CryptoError::BadShares(format!(
            "joint signatures need all {n} shares, got {}",
            shares.len()
        )));
    }
    let mut seen = vec![false; n];
    for s in shares {
        if s.index >= n || seen[s.index] {
            return Err(CryptoError::BadShares(format!(
                "invalid or duplicate share index {}",
                s.index
            )));
        }
        seen[s.index] = true;
    }
    let modulus = public.modulus();
    let h = fdh::encode(msg, modulus);
    let correction = Nat::from(public.correction());
    let Some(mp) = ModulusPrecomp::standalone(modulus, public.exponent()) else {
        // Outside the Montgomery domain (never for an RSA modulus):
        // reference mulm chain plus a plain verify.
        let mut acc = Nat::one();
        for s in shares {
            acc = acc.mulm(&s.value, modulus);
        }
        acc = acc.mulm(&h.modpow(&correction, modulus), modulus);
        let sig = RsaSignature::from_value(acc);
        return if public.verify(msg, &sig) {
            Ok(sig)
        } else {
            Err(CryptoError::SelfCheckFailed)
        };
    };
    // S = Π Sᵢ · h^correction in one Straus multi-exponentiation (one
    // shared squaring chain instead of a mulm division per share).
    let one = Nat::one();
    let mut pairs: Vec<(&Nat, &Nat)> = shares.iter().map(|s| (&s.value, &one)).collect();
    if !correction.is_zero() {
        pairs.push((&h, &correction));
    }
    let sig = RsaSignature::from_value(mp.context().multi_modpow(&pairs));
    // Self-check: the exact verify against the already-built context and
    // FDH encoding, behind the verifier's range check. A failure — any
    // corrupt share — must surface as SelfCheckFailed, never a panic.
    let s = sig.value();
    if !s.is_zero() && s < mp.context().modulus() && mp.verify(&h, s, false) {
        Ok(sig)
    } else {
        Err(CryptoError::SelfCheckFailed)
    }
}

/// Signs with all shares in-process (no network).
///
/// # Errors
///
/// Propagates [`produce_share`] and [`combine`] errors.
pub fn sign_locally(
    public: &SharedPublicKey,
    shares: &[KeyShare],
    msg: &[u8],
) -> Result<RsaSignature, CryptoError> {
    let sig_shares = shares
        .iter()
        .map(|s| produce_share(s, msg))
        .collect::<Result<Vec<_>, _>>()?;
    combine(public, msg, &sig_shares)
}

/// Wire messages of the joint signature protocol.
#[derive(Debug, Clone)]
pub(crate) enum JointMsg {
    /// Requestor → co-signers: message to sign plus the key id.
    Request {
        /// Message bytes.
        msg: Vec<u8>,
        /// Hash of `N` and `e` identifying the shared key (§3.2).
        key_id: String,
    },
    /// Co-signer → requestor: `Sᵢ`.
    Share(Nat),
    /// Co-signer → requestor: refusal (unknown key id).
    Refuse(String),
}

/// Runs the §3.2 joint signature protocol over a simulated network.
///
/// Party `requestor` initiates; every other party co-signs. Returns the
/// signature together with the network statistics of the exchange.
///
/// This is a thin wrapper over the resilient session layer
/// ([`crate::session::SigningSession::sign_compound`]) with the default
/// [`SessionConfig`](crate::session::SessionConfig): every receive is
/// bounded by a round timeout and unanswered requests are retried, so the
/// call returns [`CryptoError::QuorumUnreachable`] instead of hanging when
/// the fault plan starves the quorum.
///
/// # Errors
///
/// * [`CryptoError::InvalidParameters`] if `shares` is empty, inconsistent,
///   or `requestor` is out of range.
/// * [`CryptoError::Protocol`] if a co-signer refuses (key-id mismatch).
/// * [`CryptoError::QuorumUnreachable`] when a co-signer never responds
///   within the retry budget.
/// * Propagates combination failures.
pub fn sign_over_network(
    public: &SharedPublicKey,
    shares: &[KeyShare],
    requestor: usize,
    msg: &[u8],
    faults: FaultPlan,
) -> Result<(RsaSignature, NetworkStats), CryptoError> {
    let (sig, _report, stats) = crate::session::SigningSession::sign_compound(
        public,
        shares,
        requestor,
        msg,
        faults,
        &crate::session::SessionConfig::default(),
    )?;
    Ok((sig, stats))
}

/// Like [`sign_over_network`], but with a receive timeout and a per-party
/// availability mask: co-signers with `online[i] == false` never respond.
///
/// This makes §3.3's availability argument executable: an n-of-n joint
/// signature *fails* whenever any single co-signer is offline (see
/// [`crate::threshold`] for the m-of-n remedy).
///
/// # Errors
///
/// [`CryptoError::Protocol`] when a co-signer's share does not arrive
/// within `timeout`; plus all [`sign_over_network`] errors.
pub fn sign_over_network_with_timeout(
    public: &SharedPublicKey,
    shares: &[KeyShare],
    requestor: usize,
    msg: &[u8],
    online: &[bool],
    timeout: std::time::Duration,
) -> Result<(RsaSignature, NetworkStats), CryptoError> {
    let n = public.n_parties();
    if shares.len() != n || online.len() != n {
        return Err(CryptoError::InvalidParameters(format!(
            "need {n} shares and {n} online flags"
        )));
    }
    if requestor >= n || !online[requestor] {
        return Err(CryptoError::InvalidParameters(
            "requestor out of range or offline".into(),
        ));
    }
    let (endpoints, handle) = Network::<JointMsg>::mesh(n);
    let results = jaap_net::run_parties(endpoints, |mut ep| {
        let me = ep.id().0;
        if !online[me] {
            return Ok(None); // offline: never answers
        }
        if me == requestor {
            requestor_side_timeout(&mut ep, public, &shares[me], msg, timeout)
        } else {
            cosigner_side_timeout(&mut ep, public, &shares[me], PartyId(requestor), timeout)
                .map(|()| None)
        }
    });
    let mut signature = None;
    for r in results {
        if let Some(sig) = r? {
            signature = Some(sig);
        }
    }
    let sig =
        signature.ok_or_else(|| CryptoError::Protocol("requestor produced no signature".into()))?;
    Ok((sig, handle.stats()))
}

fn requestor_side_timeout(
    ep: &mut Endpoint<JointMsg>,
    public: &SharedPublicKey,
    my_share: &KeyShare,
    msg: &[u8],
    timeout: std::time::Duration,
) -> Result<Option<RsaSignature>, CryptoError> {
    // Best effort: an offline co-signer may already have left the mesh.
    // Quorum (here: everyone) is judged on the shares that come back.
    ep.broadcast(JointMsg::Request {
        msg: msg.to_vec(),
        key_id: public.key_id(),
    });
    let mut shares = vec![produce_share(my_share, msg)?];
    let deadline = std::time::Instant::now() + timeout;
    while shares.len() < ep.n() {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(CryptoError::Protocol(format!(
                "joint signature timed out: {} of {} shares collected — an \
                 n-of-n signature needs every co-signer online",
                shares.len(),
                ep.n()
            )));
        }
        match ep.recv_timeout(remaining) {
            Ok(env) => match env.payload {
                JointMsg::Share(value) => shares.push(SignatureShare {
                    index: env.from.0,
                    value,
                }),
                JointMsg::Refuse(reason) => {
                    return Err(CryptoError::Protocol(format!(
                        "co-signer {} refused: {reason}",
                        env.from
                    )))
                }
                JointMsg::Request { .. } => {}
            },
            Err(jaap_net::NetError::Timeout) => continue,
            Err(e) => return Err(CryptoError::Protocol(format!("network: {e}"))),
        }
    }
    combine(public, msg, &shares).map(Some)
}

fn cosigner_side_timeout(
    ep: &mut Endpoint<JointMsg>,
    public: &SharedPublicKey,
    my_share: &KeyShare,
    requestor: PartyId,
    timeout: std::time::Duration,
) -> Result<(), CryptoError> {
    let incoming = match ep.recv_timeout(timeout) {
        Ok(env) if env.from == requestor => env.payload,
        Ok(_) | Err(jaap_net::NetError::Timeout) => return Ok(()), // nothing to do
        Err(e) => return Err(CryptoError::Protocol(format!("network: {e}"))),
    };
    let JointMsg::Request { msg, key_id } = incoming else {
        return Ok(());
    };
    if key_id != public.key_id() {
        let _ = ep.send(requestor, JointMsg::Refuse("unknown key id".into()));
        return Ok(());
    }
    let share = produce_share(my_share, &msg)?;
    // A requestor that already gave up (timeout, refusal) has left the
    // mesh; a reply it will never read is not the co-signer's failure.
    match ep.send(requestor, JointMsg::Share(share.value)) {
        Ok(()) | Err(jaap_net::NetError::Disconnected) => Ok(()),
        Err(e) => Err(CryptoError::Protocol(format!("network: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedRsaKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dealt(n: usize, seed: u64) -> (SharedPublicKey, Vec<KeyShare>) {
        let mut rng = StdRng::seed_from_u64(seed);
        SharedRsaKey::deal(&mut rng, 192, n).expect("deal")
    }

    #[test]
    fn local_joint_signature_verifies() {
        let (public, shares) = dealt(3, 1);
        let sig = sign_locally(&public, &shares, b"write Object O").expect("sign");
        assert!(public.verify(b"write Object O", &sig));
        assert!(!public.verify(b"read Object O", &sig));
    }

    #[test]
    fn combine_rejects_missing_share() {
        let (public, shares) = dealt(3, 2);
        let partial: Vec<SignatureShare> = shares[..2]
            .iter()
            .map(|s| produce_share(s, b"m").expect("share"))
            .collect();
        assert!(matches!(
            combine(&public, b"m", &partial),
            Err(CryptoError::BadShares(_))
        ));
    }

    #[test]
    fn combine_rejects_duplicate_share() {
        let (public, shares) = dealt(3, 3);
        let s0 = produce_share(&shares[0], b"m").expect("share");
        let s1 = produce_share(&shares[1], b"m").expect("share");
        let dup = vec![s0.clone(), s1, s0];
        assert!(matches!(
            combine(&public, b"m", &dup),
            Err(CryptoError::BadShares(_))
        ));
    }

    #[test]
    fn combine_detects_corrupted_share() {
        let (public, shares) = dealt(3, 4);
        let mut sig_shares: Vec<SignatureShare> = shares
            .iter()
            .map(|s| produce_share(s, b"m").expect("share"))
            .collect();
        sig_shares[1].value = &sig_shares[1].value + &Nat::one();
        assert_eq!(
            combine(&public, b"m", &sig_shares),
            Err(CryptoError::SelfCheckFailed)
        );
    }

    mod bad_share_robustness {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Arbitrarily corrupted share values (zero, huge, unreduced)
            /// must surface as `SelfCheckFailed`, never as a panic; an
            /// accepted result must verify.
            #[test]
            fn combine_never_panics_on_random_bad_shares(
                victim in 0usize..3,
                limbs in proptest::collection::vec(any::<u64>(), 0..6),
            ) {
                let (public, shares) = dealt(3, 40);
                let mut ss: Vec<SignatureShare> = shares
                    .iter()
                    .map(|s| produce_share(s, b"m").expect("share"))
                    .collect();
                ss[victim].value = Nat::from_limbs(limbs);
                match combine(&public, b"m", &ss) {
                    Ok(sig) => prop_assert!(public.verify(b"m", &sig)),
                    Err(e) => prop_assert_eq!(e, CryptoError::SelfCheckFailed),
                }
            }
        }
    }

    #[test]
    fn network_protocol_produces_verifying_signature() {
        let (public, shares) = dealt(3, 5);
        let (sig, stats) = sign_over_network(
            &public,
            &shares,
            0,
            b"joint access request",
            FaultPlan::reliable(),
        )
        .expect("sign");
        assert!(public.verify(b"joint access request", &sig));
        // 2 requests + 2 share replies + 2 session-done notices.
        assert_eq!(stats.messages_sent, 6);
    }

    #[test]
    fn any_party_can_be_requestor() {
        let (public, shares) = dealt(4, 6);
        for requestor in 0..4 {
            let (sig, _) =
                sign_over_network(&public, &shares, requestor, b"m", FaultPlan::reliable())
                    .expect("sign");
            assert!(public.verify(b"m", &sig));
        }
    }

    #[test]
    fn requestor_out_of_range_rejected() {
        let (public, shares) = dealt(3, 7);
        assert!(matches!(
            sign_over_network(&public, &shares, 9, b"m", FaultPlan::reliable()),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn timeout_signing_succeeds_when_everyone_is_online() {
        let (public, shares) = dealt(3, 20);
        let online = [true, true, true];
        let (sig, _) = sign_over_network_with_timeout(
            &public,
            &shares,
            0,
            b"all online",
            &online,
            std::time::Duration::from_secs(5),
        )
        .expect("sign");
        assert!(public.verify(b"all online", &sig));
    }

    #[test]
    fn timeout_signing_fails_with_one_cosigner_offline() {
        // §3.3's motivation: n-of-n signatures need *everyone*.
        let (public, shares) = dealt(3, 21);
        let online = [true, true, false];
        let err = sign_over_network_with_timeout(
            &public,
            &shares,
            0,
            b"one offline",
            &online,
            std::time::Duration::from_millis(100),
        )
        .unwrap_err();
        assert!(matches!(err, CryptoError::Protocol(_)));
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn timeout_signing_rejects_offline_requestor() {
        let (public, shares) = dealt(3, 22);
        let online = [false, true, true];
        assert!(matches!(
            sign_over_network_with_timeout(
                &public,
                &shares,
                0,
                b"m",
                &online,
                std::time::Duration::from_millis(50),
            ),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn signatures_interchangeable_with_local_combination() {
        let (public, shares) = dealt(3, 8);
        let local = sign_locally(&public, &shares, b"m").expect("local");
        let (networked, _) =
            sign_over_network(&public, &shares, 1, b"m", FaultPlan::reliable()).expect("net");
        // RSA-FDH is deterministic: both paths agree exactly.
        assert_eq!(local, networked);
    }
}
