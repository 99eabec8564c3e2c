//! m-of-n threshold RSA signatures (§3.3).
//!
//! > "Threshold m-of-n sharing offers the advantage of increased domain
//! > server availability for joint signatures. Since only m out of the total
//! > n domains need to be on-line for application of joint signatures,
//! > threshold sharing increases domain availability as up to (n-m) domains
//! > can be down for maintenance or error recovery."
//!
//! The construction is Shoup-style: the private exponent `d` is shared with
//! an **integer** Shamir polynomial scaled by `Δ = n!`
//! ([`crate::shamir::integer`]). A subset `S` of `m` signers produces
//! `w = Π Sⱼ^{Δλⱼ} = H^{Δ²d}`, and since `gcd(Δ², e) = 1` an extended-GCD
//! step recovers `s` with `s^e = H`.
//!
//! Two ways to obtain threshold shares:
//!
//! * [`ThresholdKey::deal`] — a dealer splits a conventional RSA key.
//! * [`ThresholdKey::from_additive`] — **dealer-free** conversion from the
//!   additive shares produced by Boneh–Franklin generation: each party
//!   Shamir-shares its `dᵢ` and the per-point sums form a sharing of
//!   `Σ dᵢ = d − r`.

use jaap_bigint::{Int, Nat};
use rand::RngCore;

use crate::fdh;
use crate::precomp::ModulusPrecomp;
use crate::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use crate::shamir::integer::{self, IntShare};
use crate::shared::{KeyShare, SharedPublicKey};
use crate::CryptoError;

/// Public parameters of a threshold key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdPublic {
    public: RsaPublicKey,
    m: usize,
    n: usize,
    /// Public additive correction carried over from BF keygen (`0` when
    /// dealt): the integer polynomial shares `d − correction`.
    correction: u64,
}

impl ThresholdPublic {
    /// The signing threshold `m`.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.m
    }

    /// The total number of shareholders `n`.
    #[must_use]
    pub fn parties(&self) -> usize {
        self.n
    }

    /// The underlying RSA public key.
    #[must_use]
    pub(crate) fn rsa(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Verifies a threshold signature.
    #[must_use]
    pub fn verify(&self, msg: &[u8], sig: &RsaSignature) -> bool {
        self.public.verify(msg, sig)
    }
}

/// One party's threshold share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdShare {
    /// Party index in `0..n` (evaluation point `index + 1`).
    pub(crate) index: usize,
    value: Int,
    public: ThresholdPublic,
}

impl ThresholdShare {
    /// The raw polynomial evaluation (exposed for collusion analysis).
    #[must_use]
    pub(crate) fn value(&self) -> &Int {
        &self.value
    }

    /// Produces this party's signature share `Sᵢ = H^{sᵢ} mod N`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::NotInvertible`] if the hashed message shares a factor
    /// with `N`.
    pub fn sign_share(&self, msg: &[u8]) -> Result<ThresholdSigShare, CryptoError> {
        let modulus = self.public.public.modulus();
        let h = fdh::encode(msg, modulus);
        let value = apply_int_exponent(&self.value, &h, modulus)?;
        Ok(ThresholdSigShare {
            index: self.index,
            value,
        })
    }
}

/// One party's contribution to a threshold signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdSigShare {
    /// Contributing party index.
    pub(crate) index: usize,
    /// `H^{sᵢ} mod N`.
    pub(crate) value: Nat,
}

/// Namespace for threshold key construction.
#[derive(Debug)]
pub struct ThresholdKey;

impl ThresholdKey {
    /// Dealer-based m-of-n split of a conventional RSA key pair.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] unless `2 <= m <= n <= 20`.
    pub fn deal(
        rng: &mut dyn RngCore,
        keypair: &RsaKeyPair,
        m: usize,
        n: usize,
    ) -> Result<(ThresholdPublic, Vec<ThresholdShare>), CryptoError> {
        check_m_n(m, n)?;
        let public = ThresholdPublic {
            public: keypair.public().clone(),
            m,
            n,
            correction: 0,
        };
        let d = Int::from_nat(keypair.private_exponent().clone());
        let coeff_bits = keypair.public().modulus().bit_len() + 128;
        let shares = integer::share(rng, &d, m, n, coeff_bits);
        Ok(wrap_shares(public, shares))
    }

    /// Dealer-free conversion from BF additive shares: each party
    /// Shamir-shares its `dᵢ`; summing share vectors pointwise yields an
    /// integer Shamir sharing of `Σ dᵢ = d − r`. (Run here in-process; each
    /// party's polynomial is still independently random, so the privacy
    /// argument is unchanged.)
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] on threshold bounds or if the
    /// additive share set is inconsistent.
    pub fn from_additive(
        rng: &mut dyn RngCore,
        public: &SharedPublicKey,
        additive: &[KeyShare],
        m: usize,
    ) -> Result<(ThresholdPublic, Vec<ThresholdShare>), CryptoError> {
        let n = public.n_parties();
        check_m_n(m, n)?;
        if additive.len() != n {
            return Err(CryptoError::InvalidParameters(format!(
                "need all {n} additive shares, got {}",
                additive.len()
            )));
        }
        let coeff_bits = public.modulus().bit_len() + 128;
        let mut sums: Vec<IntShare> = (0..n)
            .map(|index| IntShare {
                index,
                value: Int::zero(),
            })
            .collect();
        for key_share in additive {
            let sub = integer::share(rng, key_share.exponent_share(), m, n, coeff_bits);
            for (acc, s) in sums.iter_mut().zip(&sub) {
                acc.value = &acc.value + &s.value;
            }
        }
        let tp = ThresholdPublic {
            public: public.rsa().clone(),
            m,
            n,
            correction: public.correction(),
        };
        Ok(wrap_shares(tp, sums))
    }
}

fn check_m_n(m: usize, n: usize) -> Result<(), CryptoError> {
    if m < 2 || m > n || n > 20 {
        return Err(CryptoError::InvalidParameters(format!(
            "threshold parameters out of range: m={m}, n={n} (need 2 <= m <= n <= 20)"
        )));
    }
    Ok(())
}

fn wrap_shares(
    public: ThresholdPublic,
    shares: Vec<IntShare>,
) -> (ThresholdPublic, Vec<ThresholdShare>) {
    let wrapped = shares
        .into_iter()
        .map(|s| ThresholdShare {
            index: s.index,
            value: s.value,
            public: public.clone(),
        })
        .collect();
    (public, wrapped)
}

/// Combines `m` (or more) signature shares into a verified signature.
///
/// # Errors
///
/// * [`CryptoError::BadShares`] with fewer than `m` shares or duplicates.
/// * [`CryptoError::SelfCheckFailed`] if the result does not verify.
pub fn combine(
    public: &ThresholdPublic,
    msg: &[u8],
    shares: &[ThresholdSigShare],
) -> Result<RsaSignature, CryptoError> {
    if shares.len() < public.m {
        return Err(CryptoError::BadShares(format!(
            "need at least {} shares, got {}",
            public.m,
            shares.len()
        )));
    }
    let subset: Vec<usize> = shares.iter().take(public.m).map(|s| s.index).collect();
    {
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != subset.len() || sorted.iter().any(|&i| i >= public.n) {
            return Err(CryptoError::BadShares(
                "duplicate or out-of-range index".into(),
            ));
        }
    }
    let modulus = public.public.modulus();
    let h = fdh::encode(msg, modulus);
    let e = public.public.exponent();
    let delta = integer::delta(public.n);
    let delta2 = &delta * &delta;
    let Some(mp) = ModulusPrecomp::standalone(modulus, e) else {
        return combine_reference(public, msg, shares, &subset, &h, &delta2);
    };
    let ctx = mp.context();

    // w = Π Sⱼ^{Δλⱼ} · H^{Δ²·correction} = H^{Δ²·d}, as one Straus
    // multi-exponentiation: the Δ-scaled Lagrange exponents are wide, so
    // sharing a single squaring chain across the m shares (plus the
    // correction term) is where the recombination speedup comes from.
    // Negative exponents invert the base first, as in the serial path.
    let mut terms: Vec<(Nat, Nat)> = Vec::with_capacity(public.m + 1);
    for s in shares.iter().take(public.m) {
        let coeff = integer::lagrange_delta(&subset, s.index, public.n);
        let base = if coeff.is_negative() {
            s.value.modinv(modulus).ok_or(CryptoError::NotInvertible)?
        } else {
            s.value.clone()
        };
        terms.push((base, coeff.magnitude().clone()));
    }
    if public.correction != 0 {
        terms.push((h.clone(), &delta2 * &Nat::from(public.correction)));
    }
    let pairs: Vec<(&Nat, &Nat)> = terms.iter().map(|(b, x)| (b, x)).collect();
    let w = ctx.multi_modpow(&pairs);

    // s = w^a · H^b where a·Δ² + b·e = 1 — a two-term multi-exp.
    let (g, a, b) = delta2.ext_gcd(e);
    if !g.is_one() {
        return Err(CryptoError::BadShares(
            "gcd(Δ², e) != 1 — unsupported parameters".into(),
        ));
    }
    let mut fin: Vec<(Nat, Nat)> = Vec::with_capacity(2);
    for (exp, base) in [(&a, &w), (&b, &h)] {
        let base = if exp.is_negative() {
            base.modinv(modulus).ok_or(CryptoError::NotInvertible)?
        } else {
            base.clone()
        };
        fin.push((base, exp.magnitude().clone()));
    }
    let fin_pairs: Vec<(&Nat, &Nat)> = fin.iter().map(|(x, y)| (x, y)).collect();
    let sig = RsaSignature::from_value(ctx.multi_modpow(&fin_pairs));
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

/// The pre-multi-exp reference combination (kept for moduli outside the
/// Montgomery domain, which honest RSA parameters never produce).
fn combine_reference(
    public: &ThresholdPublic,
    msg: &[u8],
    shares: &[ThresholdSigShare],
    subset: &[usize],
    h: &Nat,
    delta2: &Nat,
) -> Result<RsaSignature, CryptoError> {
    let modulus = public.public.modulus();
    let mut w = Nat::one();
    for s in shares.iter().take(public.m) {
        let coeff = integer::lagrange_delta(subset, s.index, public.n);
        let factor = apply_int_exponent(&coeff, &s.value, modulus)?;
        w = w.mulm(&factor, modulus);
    }
    if public.correction != 0 {
        let corr_exp = delta2 * &Nat::from(public.correction);
        w = w.mulm(&h.modpow(&corr_exp, modulus), modulus);
    }
    let e = public.public.exponent();
    let (g, a, b) = delta2.ext_gcd(e);
    if !g.is_one() {
        return Err(CryptoError::BadShares(
            "gcd(Δ², e) != 1 — unsupported parameters".into(),
        ));
    }
    let wa = apply_int_exponent(&a, &w, modulus)?;
    let hb = apply_int_exponent(&b, h, modulus)?;
    let sig = RsaSignature::from_value(wa.mulm(&hb, modulus));
    if public.verify(msg, &sig) {
        Ok(sig)
    } else {
        Err(CryptoError::SelfCheckFailed)
    }
}

/// Wire messages for networked threshold signing.
#[derive(Debug, Clone)]
enum ThresholdMsg {
    /// Requestor → co-signers: the message to sign.
    Request(Vec<u8>),
    /// Co-signer → requestor: a signature share.
    Share(Nat),
}

/// Runs threshold signing over a simulated network: the requestor asks all
/// parties, combines as soon as `m` shares (including its own) arrive, and
/// succeeds even when up to `n - m` parties are offline — the §3.3
/// availability win, executable.
///
/// # Errors
///
/// [`CryptoError::InvalidParameters`] on inconsistent inputs;
/// [`CryptoError::Protocol`] when fewer than `m` shares arrive within
/// `timeout`; combination errors.
pub fn sign_over_network(
    public: &ThresholdPublic,
    shares: &[ThresholdShare],
    requestor: usize,
    msg: &[u8],
    online: &[bool],
    timeout: std::time::Duration,
) -> Result<(RsaSignature, jaap_net::NetworkStats), CryptoError> {
    use jaap_net::{Network, PartyId};
    let n = public.n;
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
    let m = public.m;
    let (endpoints, handle) = Network::<ThresholdMsg>::mesh(n);
    let results = jaap_net::run_parties(endpoints, |mut ep| {
        let me = ep.id().0;
        if !online[me] {
            return Ok(None);
        }
        if me == requestor {
            // Best effort: an offline party may already have left the
            // mesh. Quorum is judged on the shares that come back.
            ep.broadcast(ThresholdMsg::Request(msg.to_vec()));
            let mut collected = vec![shares[me].sign_share(msg)?];
            let deadline = std::time::Instant::now() + timeout;
            while collected.len() < m {
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    return Err(CryptoError::Protocol(format!(
                        "threshold signing timed out: {} of {m} shares",
                        collected.len()
                    )));
                }
                match ep.recv_timeout(remaining) {
                    Ok(env) => {
                        if let ThresholdMsg::Share(value) = env.payload {
                            collected.push(ThresholdSigShare {
                                index: env.from.0,
                                value,
                            });
                        }
                    }
                    Err(jaap_net::NetError::Timeout) => continue,
                    Err(e) => return Err(CryptoError::Protocol(format!("network: {e}"))),
                }
            }
            combine(public, msg, &collected).map(Some)
        } else {
            match ep.recv_timeout(timeout) {
                Ok(env) if env.from == PartyId(requestor) => {
                    if let ThresholdMsg::Request(body) = env.payload {
                        let share = shares[me].sign_share(&body)?;
                        // The requestor exits as soon as it holds m shares;
                        // a reply racing that exit sees Disconnected, which
                        // is not a failure from the co-signer's side.
                        match ep.send(PartyId(requestor), ThresholdMsg::Share(share.value)) {
                            Ok(()) | Err(jaap_net::NetError::Disconnected) => {}
                            Err(e) => return Err(CryptoError::Protocol(format!("network: {e}"))),
                        }
                    }
                    Ok(None)
                }
                _ => Ok(None),
            }
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

/// `base^exp mod modulus` for a signed exponent.
fn apply_int_exponent(exp: &Int, base: &Nat, modulus: &Nat) -> Result<Nat, CryptoError> {
    if exp.is_negative() {
        let inv = base.modinv(modulus).ok_or(CryptoError::NotInvertible)?;
        Ok(inv.modpow(exp.magnitude(), modulus))
    } else {
        Ok(base.modpow(exp.magnitude(), modulus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedRsaKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dealt(m: usize, n: usize, seed: u64) -> (ThresholdPublic, Vec<ThresholdShare>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(&mut rng, 192).expect("keygen");
        ThresholdKey::deal(&mut rng, &kp, m, n).expect("deal")
    }

    fn sig_shares(shares: &[ThresholdShare], idx: &[usize], msg: &[u8]) -> Vec<ThresholdSigShare> {
        idx.iter()
            .map(|&i| shares[i].sign_share(msg).expect("share"))
            .collect()
    }

    #[test]
    fn two_of_three_signs_with_any_pair() {
        let (public, shares) = dealt(2, 3, 1);
        for pair in [[0usize, 1], [0, 2], [1, 2]] {
            let ss = sig_shares(&shares, &pair, b"write Object O");
            let sig = combine(&public, b"write Object O", &ss).expect("combine");
            assert!(public.verify(b"write Object O", &sig));
        }
    }

    #[test]
    fn below_threshold_fails() {
        let (public, shares) = dealt(2, 3, 2);
        let ss = sig_shares(&shares, &[1], b"m");
        assert!(matches!(
            combine(&public, b"m", &ss),
            Err(CryptoError::BadShares(_))
        ));
    }

    #[test]
    fn extra_shares_beyond_threshold_are_fine() {
        let (public, shares) = dealt(3, 5, 3);
        let ss = sig_shares(&shares, &[0, 1, 2, 3, 4], b"m");
        let sig = combine(&public, b"m", &ss).expect("combine");
        assert!(public.verify(b"m", &sig));
    }

    #[test]
    fn duplicate_share_rejected() {
        let (public, shares) = dealt(2, 3, 4);
        let a = shares[0].sign_share(b"m").expect("share");
        let ss = vec![a.clone(), a];
        assert!(matches!(
            combine(&public, b"m", &ss),
            Err(CryptoError::BadShares(_))
        ));
    }

    #[test]
    fn corrupted_share_detected() {
        let (public, shares) = dealt(2, 3, 5);
        let mut ss = sig_shares(&shares, &[0, 2], b"m");
        ss[0].value = &ss[0].value + &Nat::one();
        assert_eq!(
            combine(&public, b"m", &ss),
            Err(CryptoError::SelfCheckFailed)
        );
    }

    mod bad_share_robustness {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Arbitrarily corrupted share values must surface as
            /// `SelfCheckFailed` (or `NotInvertible` for non-residues) —
            /// never as a panic — and an accepted result must verify.
            #[test]
            fn combine_never_panics_on_random_bad_shares(
                victim in 0usize..2,
                limbs in proptest::collection::vec(any::<u64>(), 0..6),
            ) {
                let (public, shares) = dealt(2, 3, 50);
                let mut ss = sig_shares(&shares, &[0, 1], b"m");
                ss[victim].value = Nat::from_limbs(limbs);
                match combine(&public, b"m", &ss) {
                    Ok(sig) => prop_assert!(public.verify(b"m", &sig)),
                    Err(e) => prop_assert!(matches!(
                        e,
                        CryptoError::SelfCheckFailed | CryptoError::NotInvertible
                    )),
                }
            }
        }
    }

    #[test]
    fn wrong_message_does_not_verify() {
        let (public, shares) = dealt(2, 3, 6);
        let ss = sig_shares(&shares, &[0, 1], b"m1");
        let sig = combine(&public, b"m1", &ss).expect("combine");
        assert!(!public.verify(b"m2", &sig));
    }

    #[test]
    fn from_additive_preserves_signing_power() {
        let mut rng = StdRng::seed_from_u64(7);
        let (public, additive) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let (tp, tshares) =
            ThresholdKey::from_additive(&mut rng, &public, &additive, 2).expect("convert");
        assert_eq!(tp.threshold(), 2);
        for pair in [[0usize, 1], [1, 2]] {
            let ss = sig_shares(&tshares, &pair, b"converted");
            let sig = combine(&tp, b"converted", &ss).expect("combine");
            assert!(tp.verify(b"converted", &sig));
            // Threshold signatures verify against the same public key as
            // n-of-n joint signatures.
            assert!(public.verify(b"converted", &sig));
        }
    }

    #[test]
    fn from_additive_respects_bf_correction() {
        // Exercise a nonzero correction by round-tripping through the real
        // distributed keygen (small modulus to stay fast).
        let (public, additive, _) = SharedRsaKey::generate(64, 3, 5).expect("keygen");
        let mut rng = StdRng::seed_from_u64(8);
        let (tp, tshares) =
            ThresholdKey::from_additive(&mut rng, &public, &additive, 2).expect("convert");
        let ss = sig_shares(&tshares, &[0, 2], b"bf");
        let sig = combine(&tp, b"bf", &ss).expect("combine");
        assert!(public.verify(b"bf", &sig));
    }

    #[test]
    fn parameter_validation() {
        let mut rng = StdRng::seed_from_u64(9);
        let kp = RsaKeyPair::generate(&mut rng, 128).expect("keygen");
        assert!(ThresholdKey::deal(&mut rng, &kp, 1, 3).is_err());
        assert!(ThresholdKey::deal(&mut rng, &kp, 4, 3).is_err());
        assert!(ThresholdKey::deal(&mut rng, &kp, 2, 21).is_err());
    }

    #[test]
    fn networked_threshold_signing_with_offline_minority() {
        // 2-of-3 with one party offline: still signs (the §3.3 win).
        let (public, shares) = dealt(2, 3, 30);
        let online = [true, true, false];
        let (sig, _) = sign_over_network(
            &public,
            &shares,
            0,
            b"quorum",
            &online,
            std::time::Duration::from_secs(5),
        )
        .expect("sign");
        assert!(public.verify(b"quorum", &sig));
    }

    #[test]
    fn networked_threshold_signing_fails_below_quorum() {
        let (public, shares) = dealt(3, 4, 31);
        let online = [true, true, false, false];
        let err = sign_over_network(
            &public,
            &shares,
            0,
            b"no quorum",
            &online,
            std::time::Duration::from_millis(100),
        )
        .unwrap_err();
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn networked_threshold_all_online_matches_local() {
        let (public, shares) = dealt(2, 3, 32);
        let online = [true, true, true];
        let (net_sig, _) = sign_over_network(
            &public,
            &shares,
            1,
            b"same",
            &online,
            std::time::Duration::from_secs(5),
        )
        .expect("sign");
        assert!(public.verify(b"same", &net_sig));
    }

    #[test]
    fn seven_of_nine() {
        let (public, shares) = dealt(7, 9, 10);
        let ss = sig_shares(&shares, &[0, 2, 3, 5, 6, 7, 8], b"big coalition");
        let sig = combine(&public, b"big coalition", &ss).expect("combine");
        assert!(public.verify(b"big coalition", &sig));
    }
}
