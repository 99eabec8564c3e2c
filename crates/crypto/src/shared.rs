//! Shared RSA keys: distributed Boneh–Franklin generation and a dealer-based
//! fast path.
//!
//! This module implements the paper's §3.1: `n` domains jointly generate a
//! modulus `N = pq` and a public exponent `e` such that **none of them learns
//! the factorization of `N`**, and the private exponent `d` ends up
//! additively shared (`d ≈ Σ dᵢ`) so that signatures require all parties
//! (n-of-n; see [`crate::threshold`] for m-of-n).
//!
//! The distributed protocol ([`SharedRsaKey::generate`]) follows
//! Boneh–Franklin \[8\] / Malkin–Wu–Boneh \[21\]:
//!
//! 1. **Sieved candidate sampling** — each party draws an additive share
//!    `pᵢ`; blinded distributed trial division rejects any candidate
//!    `p = Σ pᵢ` divisible by a small prime. Individual residues are blinded
//!    with fresh shares of zero, so a party only learns `p mod r`, never
//!    `pⱼ mod r`.
//! 2. **BGW multiplication** — parties Shamir-share `pᵢ, qᵢ` over a prime
//!    field, locally multiply, and publicly interpolate `N = p·q` (the
//!    product is public; the factors stay shared).
//! 3. **Biprimality test** — for random `g` with Jacobi symbol `(g/N) = 1`
//!    the parties check `g^(φ(N)/4) ≡ ±1 (mod N)` using only their shares
//!    of `p + q`.
//! 4. **Shared inversion of `e`** — parties reveal `φ(N) mod e`, compute
//!    `ζ = (φ mod e)⁻¹ mod e`, and take `dᵢ = ⌊(1·[i=0] − ζφᵢ)/e⌋`, giving
//!    `Σ dᵢ = d − r` for a small public correction `r < n` found by a
//!    calibration signature.
//!
//! The dealer fast path ([`SharedRsaKey::deal`]) produces shares with the
//! same algebraic shape from a centrally generated key; coalition-layer
//! tests use it so they don't pay keygen cost on every run.

use std::time::{Duration, Instant};

use jaap_bigint::{
    is_probable_prime, jacobi, next_prime, random_below, random_nat, Int, Jacobi, Nat, SMALL_PRIMES,
};
use jaap_net::{Endpoint, Network, NetworkStats, PartyId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::fdh;
use crate::precomp::ModulusPrecomp;
use crate::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature, PUBLIC_EXPONENT};
use crate::CryptoError;

/// Message fixed by the protocol for the post-keygen calibration signature.
pub const CALIBRATION_MESSAGE: &[u8] = b"jaap-shared-key-calibration";

/// Rounds of the biprimality test (each rejects a non-biprime with
/// probability at least 1/2).
const BIPRIMALITY_ROUNDS: usize = 24;

/// The public half of a shared RSA key.
///
/// Compared to a plain [`RsaPublicKey`] it also records how many parties
/// share the private exponent and the public additive correction `r` with
/// `Σ dᵢ + r = d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPublicKey {
    public: RsaPublicKey,
    n_parties: usize,
    correction: u64,
}

impl SharedPublicKey {
    /// The underlying RSA public key.
    #[must_use]
    pub fn rsa(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The modulus `N`.
    #[must_use]
    pub fn modulus(&self) -> &Nat {
        self.public.modulus()
    }

    /// The public exponent `e`.
    #[must_use]
    pub(crate) fn exponent(&self) -> &Nat {
        self.public.exponent()
    }

    /// Number of private-key shareholders.
    #[must_use]
    pub fn n_parties(&self) -> usize {
        self.n_parties
    }

    /// The public combination correction `r` (see module docs).
    #[must_use]
    pub(crate) fn correction(&self) -> u64 {
        self.correction
    }

    /// Key id (`SHA-256(N || e)`, per §3.2).
    #[must_use]
    pub fn key_id(&self) -> String {
        self.public.key_id()
    }

    /// Verifies a (joint) signature.
    #[must_use]
    pub fn verify(&self, msg: &[u8], sig: &RsaSignature) -> bool {
        self.public.verify(msg, sig)
    }
}

/// One party's share of the private exponent of a shared RSA key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyShare {
    index: usize,
    d_share: Int,
    public: SharedPublicKey,
}

impl KeyShare {
    /// The holder's party index in `0..n`.
    #[must_use]
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The shared public key this share belongs to.
    #[must_use]
    pub(crate) fn public(&self) -> &SharedPublicKey {
        &self.public
    }

    /// The raw exponent share (exposed for refresh / collusion analysis).
    #[must_use]
    pub(crate) fn exponent_share(&self) -> &Int {
        &self.d_share
    }

    /// Replaces the exponent share (used by proactive refresh).
    pub(crate) fn set_exponent_share(&mut self, d: Int) {
        self.d_share = d;
    }

    pub(crate) fn new(index: usize, d_share: Int, public: SharedPublicKey) -> Self {
        KeyShare {
            index,
            d_share,
            public,
        }
    }

    /// Applies this share to a full-domain-hashed residue:
    /// `h^{dᵢ} mod N` (with a modular inverse for negative `dᵢ`).
    ///
    /// # Errors
    ///
    /// [`CryptoError::NotInvertible`] if `gcd(h, N) != 1` (vanishing
    /// probability; such an `h` would reveal a factor of `N`).
    pub(crate) fn apply(&self, h: &Nat) -> Result<Nat, CryptoError> {
        let n = self.public.modulus();
        let mag = self.d_share.magnitude();
        if self.d_share.is_negative() {
            let inv = h.modinv(n).ok_or(CryptoError::NotInvertible)?;
            Ok(inv.modpow(mag, n))
        } else {
            Ok(h.modpow(mag, n))
        }
    }

    /// Signs `msg` with this share only (a *signature share*; see
    /// [`crate::joint`] for combination).
    ///
    /// # Errors
    ///
    /// Propagates `KeyShare::apply` errors.
    pub fn sign_share(&self, msg: &[u8]) -> Result<Nat, CryptoError> {
        self.apply(&fdh::encode(msg, self.public.modulus()))
    }
}

/// Statistics from one distributed key generation run (experiment E4).
#[derive(Debug, Clone, Default)]
pub struct KeygenStats {
    /// Modulus candidates tried (pairs `(p, q)` that reached biprimality).
    pub candidates_tried: u64,
    /// Candidate prime shares drawn (before sieving).
    pub sieve_draws: u64,
    /// Candidates rejected by the biprimality test.
    pub(crate) biprimality_rejects: u64,
    /// Candidates rejected because `gcd(e, φ) != 1`.
    pub(crate) phi_rejects: u64,
    /// Wall-clock duration of the whole protocol.
    pub wall: Duration,
    /// Network statistics.
    pub network: NetworkStats,
}

/// Namespace for shared-key construction.
#[derive(Debug)]
pub struct SharedRsaKey;

impl SharedRsaKey {
    /// Dealer-based fast path: generates an RSA key centrally and splits the
    /// private exponent into `n` additive shares. Produces shares with the
    /// same algebraic shape as the distributed protocol (correction `r = 0`).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] if `n < 2` or `bits < 32`.
    pub fn deal(
        rng: &mut dyn RngCore,
        bits: usize,
        n: usize,
    ) -> Result<(SharedPublicKey, Vec<KeyShare>), CryptoError> {
        if n < 2 {
            return Err(CryptoError::InvalidParameters(
                "a shared key needs at least 2 parties".into(),
            ));
        }
        let keypair = RsaKeyPair::generate(rng, bits)?;
        let phi = keypair.phi();
        let public = SharedPublicKey {
            public: keypair.public().clone(),
            n_parties: n,
            correction: 0,
        };
        // d = d_0 + Σ_{i>0} d_i exactly (d_0 compensates, possibly negative).
        let mut rest = Int::zero();
        let mut shares = Vec::with_capacity(n);
        for i in 1..n {
            let share = Int::from_nat(random_below(rng, &phi));
            rest = &rest + &share;
            shares.push(KeyShare::new(i, share, public.clone()));
        }
        let d0 = &Int::from_nat(keypair.private_exponent().clone()) - &rest;
        shares.insert(0, KeyShare::new(0, d0, public.clone()));
        Ok((public, shares))
    }

    /// Runs the full Boneh–Franklin distributed generation protocol among
    /// `n` simulated parties. Deterministic for a fixed `seed`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] for `n < 3` (BGW needs
    /// `n ≥ 2t+1` with `t ≥ 1`) or `bits < 64`;
    /// [`CryptoError::Protocol`] if a party thread fails.
    pub fn generate(
        bits: usize,
        n: usize,
        seed: u64,
    ) -> Result<(SharedPublicKey, Vec<KeyShare>, KeygenStats), CryptoError> {
        if n < 3 {
            return Err(CryptoError::InvalidParameters(
                "distributed generation needs at least 3 parties".into(),
            ));
        }
        if bits < 64 {
            return Err(CryptoError::InvalidParameters(
                "modulus must be at least 64 bits".into(),
            ));
        }
        let start = Instant::now();
        let (endpoints, handle) = Network::<KeygenMsg>::mesh(n);
        let results = jaap_net::run_parties(endpoints, |mut ep| {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ep.id().0 as u64 + 1)),
            );
            keygen_party(&mut ep, bits, &mut rng)
        });
        let mut shares = Vec::with_capacity(n);
        let mut stats = KeygenStats::default();
        for res in results {
            let (share, party_stats) = res?;
            stats.candidates_tried = party_stats.candidates_tried;
            stats.sieve_draws = stats.sieve_draws.max(party_stats.sieve_draws);
            stats.biprimality_rejects = party_stats.biprimality_rejects;
            stats.phi_rejects = party_stats.phi_rejects;
            shares.push(share);
        }
        shares.sort_by_key(KeyShare::index);
        let public = shares[0].public.clone();
        for s in &shares {
            if s.public != public {
                return Err(CryptoError::Protocol(
                    "parties disagree on the public key".into(),
                ));
            }
        }
        stats.wall = start.elapsed();
        stats.network = handle.stats();
        Ok((public, shares, stats))
    }
}

/// Wire messages of the keygen protocol.
#[derive(Debug, Clone)]
enum KeygenMsg {
    /// Zero-blinding shares, one residue per sieve prime.
    SieveBlind(Vec<u64>),
    /// Blinded residues of this party's candidate share, per sieve prime.
    SieveResidues(Vec<u64>),
    /// Shamir shares of (pᵢ, qᵢ) for the recipient's evaluation point.
    BgwShare(Nat, Nat),
    /// This party's degree-2t product share.
    BgwProduct(Nat),
    /// Biprimality base `g` chosen by the leader.
    BiprimalityBase(Nat),
    /// This party's biprimality value `vᵢ`.
    BiprimalityV(Nat),
    /// `φᵢ mod e`.
    PhiModE(u64),
    /// Calibration signature share.
    CalibShare(Nat),
}

#[derive(Debug, Default, Clone)]
struct PartyStats {
    candidates_tried: u64,
    sieve_draws: u64,
    biprimality_rejects: u64,
    phi_rejects: u64,
}

/// Odd sieve primes (2 is handled by the mod-4 constraints on shares).
fn sieve_primes() -> &'static [u64] {
    &SMALL_PRIMES[1..]
}

/// Deterministic BGW field prime, agreed upon by all parties: the smallest
/// prime above `2^(bits+2)`.
fn bgw_field_prime(bits: usize) -> Nat {
    let mut rng = StdRng::seed_from_u64(0xF1E1D); // fixed: all parties agree
    next_prime(&Nat::one().shl_bits(bits + 2), &mut rng)
}

fn keygen_party(
    ep: &mut Endpoint<KeygenMsg>,
    bits: usize,
    rng: &mut StdRng,
) -> Result<(KeyShare, PartyStats), CryptoError> {
    let n = ep.n();
    let me = ep.id().0;
    let leader = me == 0;
    let prime_bits = bits / 2;
    let field_p = bgw_field_prime(bits);
    let e = Nat::from(PUBLIC_EXPONENT);
    let mut stats = PartyStats::default();

    loop {
        stats.candidates_tried += 1;
        // Step 1: sieved additive shares of candidate primes p and q.
        let p_share = sample_sieved_share(ep, rng, prime_bits, leader, &mut stats)?;
        let q_share = sample_sieved_share(ep, rng, prime_bits, leader, &mut stats)?;

        // Step 2: N = p*q via BGW multiplication.
        let modulus = bgw_multiply(ep, rng, &p_share, &q_share, &field_p)?;

        // Public sanity checks (identical at all parties).
        if !public_candidate_ok(&modulus, bits) {
            continue;
        }

        // Step 3: distributed biprimality test.
        if !biprimality_test(ep, rng, &modulus, &p_share, &q_share, leader)? {
            stats.biprimality_rejects += 1;
            continue;
        }

        // Step 4: shared computation of d = e^{-1} mod φ(N).
        let phi_share = if leader {
            // φ₀ = N + 1 - p₀ - q₀ (positive: N dominates).
            let nat = &(&modulus + &Nat::one()) - &(&p_share + &q_share);
            Int::from_nat(nat)
        } else {
            -Int::from_nat(&p_share + &q_share)
        };
        let my_phi_mod_e = phi_share.rem_euclid(&e).to_u64().expect("residue < e");
        broadcast_all(ep, KeygenMsg::PhiModE(my_phi_mod_e))?;
        let mut phi_mod_e = my_phi_mod_e;
        for payload in gather(ep)? {
            let KeygenMsg::PhiModE(v) = payload else {
                return Err(protocol_err("expected PhiModE"));
            };
            phi_mod_e = (phi_mod_e + v) % PUBLIC_EXPONENT;
        }
        let Some(zeta) = Nat::from(phi_mod_e).modinv(&e) else {
            stats.phi_rejects += 1;
            continue; // e divides φ(N); retry with a new candidate
        };

        // dᵢ = ⌊(1·[i=0] - ζ·φᵢ) / e⌋ (floor division; e > 0 so Euclidean
        // division is floor division).
        let zeta_int = Int::from_nat(zeta);
        let mut numerator = -&(&zeta_int * &phi_share);
        if leader {
            numerator = &numerator + &Int::one();
        }
        let (d_share, _) = numerator.div_rem_euclid(&e);

        // Step 5: calibration — find the public correction r via a joint
        // test signature, and self-check the key.
        let h = fdh::encode(CALIBRATION_MESSAGE, &modulus);
        let my_sig_share = apply_share(&d_share, &h, &modulus)?;
        broadcast_all(ep, KeygenMsg::CalibShare(my_sig_share.clone()))?;
        let mut product = my_sig_share;
        for payload in gather(ep)? {
            let KeygenMsg::CalibShare(v) = payload else {
                return Err(protocol_err("expected CalibShare"));
            };
            product = product.mulm(&v, &modulus);
        }
        let mut correction = None;
        let mut candidate_sig = product;
        // One shared Montgomery context for the whole search: the old
        // per-candidate `modpow` rebuilt the context (a division) on
        // every r. The check itself is the batch-verification leaf
        // (`ModulusPrecomp::verify`).
        let calib = ModulusPrecomp::standalone(&modulus, &e);
        for r in 0..n as u64 {
            let found = match &calib {
                Some(mp) => mp.verify(&h, &candidate_sig, false),
                None => candidate_sig.modpow(&e, &modulus) == h,
            };
            if found {
                correction = Some(r);
                break;
            }
            candidate_sig = candidate_sig.mulm(&h, &modulus);
        }
        let Some(correction) = correction else {
            // Candidate was not a true biprime after all; restart.
            stats.biprimality_rejects += 1;
            continue;
        };

        let public = SharedPublicKey {
            public: RsaPublicKey::new(modulus, e),
            n_parties: n,
            correction,
        };
        return Ok((KeyShare::new(me, d_share, public), stats));
    }
}

/// Draws additive shares of a candidate prime until blinded distributed
/// trial division accepts the sum. Returns this party's share.
fn sample_sieved_share(
    ep: &mut Endpoint<KeygenMsg>,
    rng: &mut StdRng,
    prime_bits: usize,
    leader: bool,
    stats: &mut PartyStats,
) -> Result<Nat, CryptoError> {
    let n = ep.n();
    let primes = sieve_primes();
    loop {
        stats.sieve_draws += 1;
        // Leader's share carries the size; others are small enough that the
        // sum cannot overflow prime_bits.
        let mut share = if leader {
            &Nat::one().shl_bits(prime_bits - 1) + &random_nat(rng, prime_bits - 2)
        } else {
            let log_n = usize::BITS as usize - n.leading_zeros() as usize;
            random_nat(rng, prime_bits.saturating_sub(2 + log_n))
        };
        // Mod-4 constraints: p ≡ 3 (mod 4) overall.
        share.set_bit(0, leader);
        share.set_bit(1, leader);

        // Blinding: fresh shares of zero mod each sieve prime.
        let mut own_blind: Vec<u64> = Vec::with_capacity(primes.len());
        let mut outgoing: Vec<Vec<u64>> = vec![Vec::with_capacity(primes.len()); n];
        for &r in primes {
            let mut acc = 0u64;
            for (j, out) in outgoing.iter_mut().enumerate() {
                if j == ep.id().0 {
                    out.push(0); // placeholder, fixed below
                    continue;
                }
                let z = rng.next_u64() % r;
                out.push(z);
                acc = (acc + z) % r;
            }
            own_blind.push((r - acc) % r);
        }
        for (j, out) in outgoing.into_iter().enumerate() {
            if j != ep.id().0 {
                ep.send(PartyId(j), KeygenMsg::SieveBlind(out))
                    .map_err(net_err)?;
            }
        }
        let mut blind = own_blind;
        for payload in gather(ep)? {
            let KeygenMsg::SieveBlind(zs) = payload else {
                return Err(protocol_err("expected SieveBlind"));
            };
            for (k, &r) in primes.iter().enumerate() {
                blind[k] = (blind[k] + zs[k]) % r;
            }
        }

        // Broadcast blinded residues; everyone reconstructs Σ pᵢ mod r.
        let mut residues = Vec::with_capacity(primes.len());
        for (k, &r) in primes.iter().enumerate() {
            let mine = share.div_rem_u64(r).1;
            residues.push((mine + blind[k]) % r);
        }
        broadcast_all(ep, KeygenMsg::SieveResidues(residues.clone()))?;
        let mut totals = residues;
        for payload in gather(ep)? {
            let KeygenMsg::SieveResidues(vs) = payload else {
                return Err(protocol_err("expected SieveResidues"));
            };
            for (k, &r) in primes.iter().enumerate() {
                totals[k] = (totals[k] + vs[k]) % r;
            }
        }
        if totals.iter().all(|&t| t != 0) {
            return Ok(share);
        }
    }
}

/// BGW multiplication: reveals `N = (Σ pᵢ)(Σ qᵢ)` while the factors stay
/// shared. Degree `t = ⌊(n-1)/2⌋` Shamir sharing; product shares have degree
/// `2t ≤ n-1` and are interpolated publicly.
fn bgw_multiply(
    ep: &mut Endpoint<KeygenMsg>,
    rng: &mut StdRng,
    p_share: &Nat,
    q_share: &Nat,
    field_p: &Nat,
) -> Result<Nat, CryptoError> {
    use crate::shamir::field::{interpolate_at_zero, share, FieldShare};
    let n = ep.n();
    let me = ep.id().0;
    let t = (n - 1) / 2;

    let my_p_shares = share(rng, &p_share.rem_nat(field_p), t, n, field_p);
    let my_q_shares = share(rng, &q_share.rem_nat(field_p), t, n, field_p);
    for j in 0..n {
        if j != me {
            ep.send(
                PartyId(j),
                KeygenMsg::BgwShare(my_p_shares[j].value.clone(), my_q_shares[j].value.clone()),
            )
            .map_err(net_err)?;
        }
    }
    let mut p_point = my_p_shares[me].value.clone();
    let mut q_point = my_q_shares[me].value.clone();
    for payload in gather(ep)? {
        let KeygenMsg::BgwShare(ps, qs) = payload else {
            return Err(protocol_err("expected BgwShare"));
        };
        p_point = p_point.addm(&ps, field_p);
        q_point = q_point.addm(&qs, field_p);
    }
    let my_product = p_point.mulm(&q_point, field_p);
    broadcast_all(ep, KeygenMsg::BgwProduct(my_product.clone()))?;
    let mut points = vec![FieldShare {
        index: me,
        value: my_product,
    }];
    for (from, payload) in gather_with_sender(ep)? {
        let KeygenMsg::BgwProduct(v) = payload else {
            return Err(protocol_err("expected BgwProduct"));
        };
        points.push(FieldShare {
            index: from.0,
            value: v,
        });
    }
    points.sort_by_key(|s| s.index);
    Ok(interpolate_at_zero(&points, field_p))
}

/// Cheap public checks every party evaluates identically.
fn public_candidate_ok(modulus: &Nat, bits: usize) -> bool {
    if modulus.bit_len() < bits - 2 || modulus.is_even() {
        return false;
    }
    for &r in sieve_primes() {
        if modulus.div_rem_u64(r).1 == 0 {
            return false;
        }
    }
    // Reject perfect squares (prime-square moduli can fool the test).
    let s = modulus.isqrt();
    if &s.square() == modulus {
        return false;
    }
    // N must be composite: run a few deterministic-seed MR rounds. (A prime
    // N means p or q was 1 — impossible by share sizing, but cheap to rule
    // out.)
    let mut mr_rng = StdRng::seed_from_u64(0xBEEF);
    !is_probable_prime(modulus, &mut mr_rng)
}

/// Distributed biprimality test (Boneh–Franklin §3): accepts iff
/// `g^(φ(N)/4) ≡ ±1 (mod N)` for [`BIPRIMALITY_ROUNDS`] random bases with
/// Jacobi symbol 1.
fn biprimality_test(
    ep: &mut Endpoint<KeygenMsg>,
    rng: &mut StdRng,
    modulus: &Nat,
    p_share: &Nat,
    q_share: &Nat,
    leader: bool,
) -> Result<bool, CryptoError> {
    let minus_one = modulus - &Nat::one();
    for _ in 0..BIPRIMALITY_ROUNDS {
        // Leader picks g with (g/N) = 1 and broadcasts it.
        let g = if leader {
            let g = loop {
                let candidate = random_below(rng, modulus);
                if candidate < Nat::two() {
                    continue;
                }
                if jacobi(&candidate, modulus) == Jacobi::One {
                    break candidate;
                }
            };
            broadcast_all(ep, KeygenMsg::BiprimalityBase(g.clone()))?;
            g
        } else {
            let KeygenMsg::BiprimalityBase(g) = ep.recv_from(PartyId(0)).map_err(net_err)? else {
                return Err(protocol_err("expected BiprimalityBase"));
            };
            g
        };

        // Exponents are divisible by 4 by the mod-4 share constraints.
        let exponent = if leader {
            (&(modulus + &Nat::one()) - &(p_share + q_share)).shr_bits(2)
        } else {
            (p_share + q_share).shr_bits(2)
        };
        let v = g.modpow(&exponent, modulus);
        broadcast_all(ep, KeygenMsg::BiprimalityV(v.clone()))?;

        // Everyone reconstructs v₀ and Π_{i≥1} vᵢ identically.
        let mut v0 = if leader { v.clone() } else { Nat::zero() };
        let mut rest = if leader { Nat::one() } else { v.clone() };
        for (from, payload) in gather_with_sender(ep)? {
            let KeygenMsg::BiprimalityV(vi) = payload else {
                return Err(protocol_err("expected BiprimalityV"));
            };
            if from.0 == 0 {
                v0 = vi;
            } else {
                rest = rest.mulm(&vi, modulus);
            }
        }
        if v0 != rest && v0 != rest.mulm(&minus_one, modulus) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Applies an exponent share to a residue (shared with [`KeyShare::apply`]).
fn apply_share(d: &Int, h: &Nat, modulus: &Nat) -> Result<Nat, CryptoError> {
    if d.is_negative() {
        let inv = h.modinv(modulus).ok_or(CryptoError::NotInvertible)?;
        Ok(inv.modpow(d.magnitude(), modulus))
    } else {
        Ok(h.modpow(d.magnitude(), modulus))
    }
}

fn gather(ep: &mut Endpoint<KeygenMsg>) -> Result<Vec<KeygenMsg>, CryptoError> {
    Ok(gather_with_sender(ep)?
        .into_iter()
        .map(|(_, m)| m)
        .collect())
}

fn gather_with_sender(
    ep: &mut Endpoint<KeygenMsg>,
) -> Result<Vec<(PartyId, KeygenMsg)>, CryptoError> {
    let me = ep.id().0;
    let n = ep.n();
    let mut out = Vec::with_capacity(n - 1);
    for j in 0..n {
        if j == me {
            continue;
        }
        let payload = ep.recv_from(PartyId(j)).map_err(net_err)?;
        out.push((PartyId(j), payload));
    }
    Ok(out)
}

/// Broadcasts to every peer. Keygen is n-of-n with blocking receives, so
/// a peer that already left makes the round unfinishable: fail now
/// rather than wait on it forever.
fn broadcast_all(ep: &Endpoint<KeygenMsg>, msg: KeygenMsg) -> Result<(), CryptoError> {
    if ep.broadcast(msg) + 1 < ep.n() {
        return Err(net_err(jaap_net::NetError::Disconnected));
    }
    Ok(())
}

fn net_err(e: jaap_net::NetError) -> CryptoError {
    CryptoError::Protocol(format!("network: {e}"))
}

fn protocol_err(msg: &str) -> CryptoError {
    CryptoError::Protocol(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dealt_shares_sum_to_private_exponent() {
        let mut rng = StdRng::seed_from_u64(10);
        let (public, shares) = SharedRsaKey::deal(&mut rng, 128, 3).expect("deal");
        assert_eq!(shares.len(), 3);
        assert_eq!(public.n_parties(), 3);
        assert_eq!(public.correction(), 0);
        // Applying all shares to h multiplies to h^d, which verifies.
        let h = fdh::encode(b"m", public.modulus());
        let mut acc = Nat::one();
        for s in &shares {
            acc = acc.mulm(&s.apply(&h).expect("apply"), public.modulus());
        }
        assert_eq!(acc.modpow(public.exponent(), public.modulus()), h);
    }

    #[test]
    fn deal_rejects_single_party() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!(matches!(
            SharedRsaKey::deal(&mut rng, 128, 1),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn share_indices_are_dense() {
        let mut rng = StdRng::seed_from_u64(12);
        let (_, shares) = SharedRsaKey::deal(&mut rng, 128, 5).expect("deal");
        let idx: Vec<_> = shares.iter().map(KeyShare::index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn missing_share_breaks_signature() {
        let mut rng = StdRng::seed_from_u64(13);
        let (public, shares) = SharedRsaKey::deal(&mut rng, 128, 3).expect("deal");
        let h = fdh::encode(b"m", public.modulus());
        let mut acc = Nat::one();
        for s in &shares[..2] {
            acc = acc.mulm(&s.apply(&h).expect("apply"), public.modulus());
        }
        assert_ne!(acc.modpow(public.exponent(), public.modulus()), h);
    }

    #[test]
    fn distributed_generation_produces_working_key() {
        let (public, shares, stats) = SharedRsaKey::generate(96, 3, 42).expect("keygen");
        assert_eq!(shares.len(), 3);
        assert!(stats.candidates_tried >= 1);
        assert!(stats.network.messages_sent > 0);
        // End-to-end: combine shares into a signature on a fresh message.
        let h = fdh::encode(b"jointly administered", public.modulus());
        let mut acc = Nat::one();
        for s in &shares {
            acc = acc.mulm(&s.apply(&h).expect("apply"), public.modulus());
        }
        let corrected = acc.mulm(
            &h.modpow(&Nat::from(public.correction()), public.modulus()),
            public.modulus(),
        );
        assert_eq!(corrected.modpow(public.exponent(), public.modulus()), h);
    }

    #[test]
    fn distributed_generation_deterministic_for_seed() {
        let (pub1, _, _) = SharedRsaKey::generate(64, 3, 7).expect("keygen");
        let (pub2, _, _) = SharedRsaKey::generate(64, 3, 7).expect("keygen");
        assert_eq!(pub1.modulus(), pub2.modulus());
        let (pub3, _, _) = SharedRsaKey::generate(64, 3, 8).expect("keygen");
        assert_ne!(pub1.modulus(), pub3.modulus());
    }

    #[test]
    fn distributed_generation_with_five_parties() {
        let (public, shares, _) = SharedRsaKey::generate(64, 5, 3).expect("keygen");
        assert_eq!(public.n_parties(), 5);
        assert_eq!(shares.len(), 5);
    }

    #[test]
    fn generate_rejects_bad_parameters() {
        assert!(matches!(
            SharedRsaKey::generate(128, 2, 0),
            Err(CryptoError::InvalidParameters(_))
        ));
        assert!(matches!(
            SharedRsaKey::generate(32, 3, 0),
            Err(CryptoError::InvalidParameters(_))
        ));
    }

    #[test]
    fn no_party_learns_the_factorization() {
        // The modulus must not share a factor with any single party's view
        // of p_share/q_share sums... what we *can* check cheaply: no single
        // exponent share is the true d (its self-signature fails).
        let (public, shares, _) = SharedRsaKey::generate(64, 3, 99).expect("keygen");
        let h = fdh::encode(b"m", public.modulus());
        for s in &shares {
            let solo = s.apply(&h).expect("apply");
            assert_ne!(
                solo.modpow(public.exponent(), public.modulus()),
                h,
                "a single share must not be a full signing key"
            );
        }
    }

    #[test]
    fn key_id_matches_rsa_key_id() {
        let mut rng = StdRng::seed_from_u64(21);
        let (public, _) = SharedRsaKey::deal(&mut rng, 128, 3).expect("deal");
        assert_eq!(public.key_id(), public.rsa().key_id());
    }

    #[test]
    fn bgw_field_prime_exceeds_modulus_range() {
        let p = bgw_field_prime(96);
        assert!(p.bit_len() >= 98);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(is_probable_prime(&p, &mut rng));
    }
}
