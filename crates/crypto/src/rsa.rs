//! Conventional RSA key pairs and signatures.
//!
//! These are the keys held by individual principals: per-user signing keys,
//! per-domain CA keys, and the Case I conventional coalition-AA key of §2.2.
//! Signatures use the shared full-domain-hash encoding from [`crate::fdh`]
//! so they verify identically to joint/threshold signatures.

use jaap_bigint::{random_prime, Nat};
use rand::RngCore;

use crate::fdh;
use crate::sha256::{hex, Sha256};
use crate::CryptoError;

/// The standard public exponent.
pub const PUBLIC_EXPONENT: u64 = 65_537;

/// An RSA public key: modulus `N` and exponent `e`.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    n: Nat,
    e: Nat,
    /// Memoized [`RsaPublicKey::key_id`]. Every certificate idealization
    /// names both the issuer and subject keys, so without the memo the
    /// hot path re-hashes and re-hexes the modulus on every decision.
    /// Identity (`PartialEq`/`Hash`) ignores it.
    id: std::sync::OnceLock<String>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::hash::Hash for RsaPublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.n.hash(state);
        self.e.hash(state);
    }
}

impl RsaPublicKey {
    /// Creates a public key from raw components.
    #[must_use]
    pub fn new(n: Nat, e: Nat) -> Self {
        RsaPublicKey {
            n,
            e,
            id: std::sync::OnceLock::new(),
        }
    }

    /// The modulus `N`.
    #[must_use]
    pub fn modulus(&self) -> &Nat {
        &self.n
    }

    /// The public exponent `e`.
    #[must_use]
    pub fn exponent(&self) -> &Nat {
        &self.e
    }

    /// The key id: `SHA-256(N || e)` in hex, exactly the "hash of N and the
    /// public exponent e" the paper uses to identify a shared key (§3.2).
    /// Computed once per key and memoized — idealization names keys by id
    /// on every certificate, so this sits on the decision hot path.
    #[must_use]
    pub fn key_id(&self) -> String {
        self.id
            .get_or_init(|| {
                let mut h = Sha256::new();
                h.update(&self.n.to_bytes_be());
                h.update(b"|");
                h.update(&self.e.to_bytes_be());
                hex(&h.finalize())
            })
            .clone()
    }

    /// Verifies `sig` over `msg`: checks `sig^e mod N == FDH(msg)`.
    #[must_use]
    pub fn verify(&self, msg: &[u8], sig: &RsaSignature) -> bool {
        if sig.s.is_zero() || sig.s >= self.n {
            return false;
        }
        sig.s.modpow(&self.e, &self.n) == fdh::encode(msg, &self.n)
    }

    /// Like [`RsaPublicKey::verify`], but through a shared
    /// [`crate::precomp::VerifierPrecomp`] when one is supplied: the
    /// Montgomery context for `N` is built once and reused, and with
    /// `recurring = true` the signature residue additionally gets (or
    /// reuses) a fixed-base ladder — the right setting for standing
    /// certificates that are re-presented on every request. Accepts and
    /// rejects exactly the same `(msg, sig)` pairs as the plain path.
    #[must_use]
    pub fn verify_with(
        &self,
        precomp: Option<&crate::precomp::VerifierPrecomp>,
        recurring: bool,
        msg: &[u8],
        sig: &RsaSignature,
    ) -> bool {
        match precomp.and_then(|p| p.for_key(&self.n, &self.e)) {
            Some(mp) => {
                if sig.s.is_zero() || sig.s >= self.n {
                    return false;
                }
                mp.verify(&fdh::encode(msg, &self.n), &sig.s, recurring)
            }
            None => self.verify(msg, sig),
        }
    }

    /// The `(FDH digest, signature residue)` pair a batch verifier checks
    /// for this key: [`crate::batch::verify_batch`] accepts item `i` iff
    /// `sig^e ≡ h (mod N)` with `sig` in range — the same predicate
    /// [`RsaPublicKey::verify`] decides.
    #[must_use]
    pub fn batch_item(&self, msg: &[u8], sig: &RsaSignature) -> crate::batch::BatchItem {
        crate::batch::BatchItem {
            h: fdh::encode(msg, &self.n),
            sig: sig.s.clone(),
        }
    }
}

/// An RSA signature (a residue mod `N`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaSignature {
    pub(crate) s: Nat,
}

impl RsaSignature {
    /// Raw signature value.
    #[must_use]
    pub fn value(&self) -> &Nat {
        &self.s
    }

    /// Builds a signature from a raw residue (used by joint combination).
    #[must_use]
    pub fn from_value(s: Nat) -> Self {
        RsaSignature { s }
    }
}

/// An RSA ciphertext: a sequence of residues, one per plaintext block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaCiphertext {
    blocks: Vec<Nat>,
}

impl RsaCiphertext {
    /// Number of encrypted blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

impl RsaPublicKey {
    /// Encrypts `msg` block-wise: each block is padded with a random prefix
    /// (so equal plaintexts yield different ciphertexts) and raised to `e`.
    ///
    /// This backs the paper's Figure 2(d) response `{Object O}_{K_u3}`. It
    /// is a simulation-grade scheme (random-prefix padding, not OAEP).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] if the modulus is too small to
    /// carry any payload per block.
    pub fn encrypt(&self, rng: &mut dyn RngCore, msg: &[u8]) -> Result<RsaCiphertext, CryptoError> {
        self.encrypt_with(None, rng, msg)
    }

    /// Like [`RsaPublicKey::encrypt`], but through a shared
    /// [`crate::precomp::VerifierPrecomp`] when one is supplied: the
    /// Montgomery context for `N` — the one the same key's signature checks
    /// already cached — is reused instead of rebuilt. Draws the same
    /// randomness and yields the same ciphertext as the plain path.
    ///
    /// # Errors
    ///
    /// As [`RsaPublicKey::encrypt`].
    pub fn encrypt_with(
        &self,
        precomp: Option<&crate::precomp::VerifierPrecomp>,
        rng: &mut dyn RngCore,
        msg: &[u8],
    ) -> Result<RsaCiphertext, CryptoError> {
        let modulus_bytes = (self.n.bit_len() - 1) / 8;
        // Layout per block: 8 random bytes || 1 length byte || payload.
        if modulus_bytes < 10 {
            return Err(CryptoError::InvalidParameters(
                "modulus too small for encryption".into(),
            ));
        }
        // The length field is one byte, so a block can carry at most 255
        // payload bytes no matter how wide the modulus is (moduli ≥ ~2121
        // bits would otherwise overflow the `u8` length and panic).
        let payload_per_block = (modulus_bytes - 9).min(255);
        let mp = precomp.and_then(|p| p.for_key(&self.n, &self.e));
        let mut blocks = Vec::new();
        let chunks: Vec<&[u8]> = if msg.is_empty() {
            vec![&[][..]]
        } else {
            msg.chunks(payload_per_block).collect()
        };
        for chunk in chunks {
            // Fixed-width layout so decryption can re-align after integer
            // encoding strips leading zeros:
            // prefix(8) || len(1) || payload || zero fill.
            let mut block = Vec::with_capacity(modulus_bytes);
            let mut prefix = [0u8; 8];
            rng.fill_bytes(&mut prefix);
            block.extend_from_slice(&prefix);
            block.push(u8::try_from(chunk.len()).expect("block fits in u8"));
            block.extend_from_slice(chunk);
            block.resize(modulus_bytes, 0);
            let m = Nat::from_bytes_be(&block);
            blocks.push(match &mp {
                Some(mp) => mp.context().modpow(&m, &self.e),
                None => m.modpow(&self.e, &self.n),
            });
        }
        Ok(RsaCiphertext { blocks })
    }
}

impl RsaKeyPair {
    /// Decrypts a ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] if a block's padding is
    /// malformed (wrong key or corrupted ciphertext).
    pub fn decrypt(&self, ct: &RsaCiphertext) -> Result<Vec<u8>, CryptoError> {
        let modulus_bytes = (self.public.n.bit_len() - 1) / 8;
        let mut out = Vec::new();
        for block in &ct.blocks {
            let mut m = self.private_op(block);
            // CRT self-check: re-encrypting with the (small) public
            // exponent must reproduce the block; on a fault, recompute via
            // the full-width exponent.
            if self.crt.is_some()
                && m.modpow(&self.public.e, &self.public.n) != block.rem_nat(&self.public.n)
            {
                m = self.private_op_classic(block);
            }
            let bytes = m.to_bytes_be();
            // Leading zero bytes of the random prefix are stripped by the
            // integer encoding; re-pad to the block layout.
            if bytes.len() > modulus_bytes {
                return Err(CryptoError::InvalidParameters(
                    "ciphertext block out of range".into(),
                ));
            }
            let mut padded = vec![0u8; modulus_bytes - bytes.len()];
            padded.extend_from_slice(&bytes);
            let len = usize::from(padded[8]);
            if 9 + len > padded.len() {
                return Err(CryptoError::InvalidParameters(
                    "malformed padding (wrong key?)".into(),
                ));
            }
            out.extend_from_slice(&padded[9..9 + len]);
        }
        Ok(out)
    }
}

/// Precomputed Chinese-remainder parameters for the private operation:
/// two half-width exponentiations mod `p` and `q` replace one full-width
/// exponentiation mod `N` (roughly a 3–4× speedup at RSA sizes).
#[derive(Debug, Clone)]
struct CrtParams {
    /// `d mod (p-1)`.
    dp: Nat,
    /// `d mod (q-1)`.
    dq: Nat,
    /// `q⁻¹ mod p` (Garner's recombination coefficient).
    qinv: Nat,
}

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: Nat,
    p: Nat,
    q: Nat,
    /// CRT parameters, derived at keygen; `None` only if derivation failed
    /// (never for honestly generated p ≠ q), in which case every private
    /// operation uses the full-width exponent.
    crt: Option<CrtParams>,
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of (about) `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameters`] if `bits < 32`.
    pub fn generate(rng: &mut dyn RngCore, bits: usize) -> Result<Self, CryptoError> {
        if bits < 32 {
            return Err(CryptoError::InvalidParameters(
                "modulus must be at least 32 bits".into(),
            ));
        }
        let e = Nat::from(PUBLIC_EXPONENT);
        loop {
            let p = random_prime(rng, bits / 2);
            let q = random_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = &p * &q;
            let phi = &(&p - &Nat::one()) * &(&q - &Nat::one());
            let Some(d) = e.modinv(&phi) else {
                continue; // gcd(e, phi) != 1; rare, retry
            };
            let crt = CrtParams::derive(&d, &p, &q);
            return Ok(RsaKeyPair {
                public: RsaPublicKey::new(n, e),
                d,
                p,
                q,
                crt,
            });
        }
    }

    /// Assembles a key pair from two known primes (skipping the prime
    /// search). This is how tests exercise RSA sizes whose prime search
    /// would be prohibitively slow (e.g. 4096-bit moduli).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] if `p == q` or
    /// `gcd(e, (p-1)(q-1)) != 1`.
    pub fn from_primes(p: Nat, q: Nat) -> Result<Self, CryptoError> {
        if p == q || p.is_zero() || q.is_zero() || p.is_one() || q.is_one() {
            return Err(CryptoError::InvalidParameters(
                "need two distinct primes > 1".into(),
            ));
        }
        let e = Nat::from(PUBLIC_EXPONENT);
        let n = &p * &q;
        let phi = &(&p - &Nat::one()) * &(&q - &Nat::one());
        let d = e.modinv(&phi).ok_or_else(|| {
            CryptoError::InvalidParameters("public exponent not invertible mod phi".into())
        })?;
        let crt = CrtParams::derive(&d, &p, &q);
        Ok(RsaKeyPair {
            public: RsaPublicKey::new(n, e),
            d,
            p,
            q,
            crt,
        })
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent (exposed for dealer-based share splitting).
    #[must_use]
    pub fn private_exponent(&self) -> &Nat {
        &self.d
    }

    /// Euler's totient `φ(N) = (p-1)(q-1)`.
    #[must_use]
    pub(crate) fn phi(&self) -> Nat {
        &(&self.p - &Nat::one()) * &(&self.q - &Nat::one())
    }

    /// The prime factors `(p, q)` (needed by the lockbox attack simulation).
    #[must_use]
    pub fn factors(&self) -> (&Nat, &Nat) {
        (&self.p, &self.q)
    }

    /// Whether the fast CRT private path is available.
    #[must_use]
    pub fn has_crt(&self) -> bool {
        self.crt.is_some()
    }

    /// The private operation `c^d mod N` through the CRT fast path when
    /// available: `m₁ = c^{dp} mod p`, `m₂ = c^{dq} mod q`, recombined by
    /// Garner's formula `m₂ + q·(qinv·(m₁ - m₂) mod p)`.
    fn private_op(&self, c: &Nat) -> Nat {
        let Some(crt) = &self.crt else {
            return self.private_op_classic(c);
        };
        let m1 = c.modpow(&crt.dp, &self.p);
        let m2 = c.modpow(&crt.dq, &self.q);
        let h = m1.subm(&m2, &self.p).mulm(&crt.qinv, &self.p);
        &m2 + &(&h * &self.q)
    }

    /// The private operation via one full-width exponentiation with `d`
    /// (the non-CRT reference path; also the fallback when the CRT result
    /// fails its self-check).
    #[must_use]
    pub(crate) fn private_op_classic(&self, c: &Nat) -> Nat {
        c.modpow(&self.d, &self.public.n)
    }

    /// Signs `msg`: `FDH(msg)^d mod N`.
    ///
    /// Uses the CRT fast path, then verifies the result against the public
    /// key; on a self-check failure (faulted or corrupted CRT parameters)
    /// it recomputes once with the full-width exponent before giving up —
    /// a CRT fault must never leak a bogus signature (Boneh–DeMillo–Lipton).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::SelfCheckFailed`] if no path produces a
    /// verifying signature (indicates key corruption).
    pub fn sign(&self, msg: &[u8]) -> Result<RsaSignature, CryptoError> {
        let h = fdh::encode(msg, &self.public.n);
        let sig = RsaSignature {
            s: self.private_op(&h),
        };
        if self.public.verify(msg, &sig) {
            return Ok(sig);
        }
        if self.crt.is_some() {
            let sig = RsaSignature {
                s: self.private_op_classic(&h),
            };
            if self.public.verify(msg, &sig) {
                return Ok(sig);
            }
        }
        Err(CryptoError::SelfCheckFailed)
    }

    /// Signs `msg` through the non-CRT path only (reference/ablation; the
    /// E14 bench and the equivalence proptests compare against this).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::SelfCheckFailed`] if the produced signature
    /// does not verify.
    pub fn sign_classic(&self, msg: &[u8]) -> Result<RsaSignature, CryptoError> {
        let h = fdh::encode(msg, &self.public.n);
        let sig = RsaSignature {
            s: self.private_op_classic(&h),
        };
        if self.public.verify(msg, &sig) {
            Ok(sig)
        } else {
            Err(CryptoError::SelfCheckFailed)
        }
    }
}

impl CrtParams {
    /// Derives `(dp, dq, qinv)` from the private exponent and factors.
    fn derive(d: &Nat, p: &Nat, q: &Nat) -> Option<Self> {
        let dp = d.rem_nat(&(p - &Nat::one()));
        let dq = d.rem_nat(&(q - &Nat::one()));
        let qinv = q.modinv(p)?;
        Some(CrtParams { dp, dq, qinv })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits).expect("keygen")
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(256, 1);
        let sig = kp.sign(b"hello coalition").expect("sign");
        assert!(kp.public().verify(b"hello coalition", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = keypair(256, 2);
        let sig = kp.sign(b"msg-a").expect("sign");
        assert!(!kp.public().verify(b"msg-b", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = keypair(256, 3);
        let kp2 = keypair(256, 4);
        let sig = kp1.sign(b"msg").expect("sign");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = keypair(256, 5);
        let sig = kp.sign(b"msg").expect("sign");
        let tampered = RsaSignature::from_value(sig.value() + &Nat::one());
        assert!(!kp.public().verify(b"msg", &tampered));
    }

    #[test]
    fn verify_rejects_out_of_range_values() {
        let kp = keypair(256, 6);
        assert!(!kp
            .public()
            .verify(b"m", &RsaSignature::from_value(Nat::zero())));
        let too_big = RsaSignature::from_value(kp.public().modulus().clone());
        assert!(!kp.public().verify(b"m", &too_big));
    }

    #[test]
    fn modulus_size_approximately_requested() {
        let kp = keypair(256, 7);
        let bits = kp.public().modulus().bit_len();
        assert!((255..=256).contains(&bits), "got {bits}");
    }

    #[test]
    fn phi_and_factors_consistent() {
        let kp = keypair(128, 8);
        let (p, q) = kp.factors();
        assert_eq!(&(p * q), kp.public().modulus());
        let phi = kp.phi();
        // e*d = 1 mod phi
        let ed = kp.public().exponent() * kp.private_exponent();
        assert!(ed.rem_nat(&phi).is_one());
    }

    #[test]
    fn key_id_stable_and_distinct() {
        let kp1 = keypair(128, 9);
        let kp2 = keypair(128, 10);
        assert_eq!(kp1.public().key_id(), kp1.public().key_id());
        assert_ne!(kp1.public().key_id(), kp2.public().key_id());
        assert_eq!(kp1.public().key_id().len(), 64);
    }

    #[test]
    fn tiny_modulus_rejected() {
        let err = RsaKeyPair::generate(&mut StdRng::seed_from_u64(0), 16).unwrap_err();
        assert!(matches!(err, CryptoError::InvalidParameters(_)));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair(256, 20);
        let mut rng = StdRng::seed_from_u64(21);
        for msg in [
            &b""[..],
            b"x",
            b"the gene sequence for the disease",
            &[0u8; 200],
        ] {
            let ct = kp.public().encrypt(&mut rng, msg).expect("encrypt");
            assert_eq!(kp.decrypt(&ct).expect("decrypt"), msg);
        }
    }

    #[test]
    fn encrypt_with_precomp_matches_plain_encrypt() {
        let kp = keypair(256, 29);
        let precomp = crate::precomp::VerifierPrecomp::new();
        let msg = vec![0x5au8; 100];
        let plain = kp
            .public()
            .encrypt(&mut StdRng::seed_from_u64(30), &msg)
            .expect("plain");
        let cached = kp
            .public()
            .encrypt_with(Some(&precomp), &mut StdRng::seed_from_u64(30), &msg)
            .expect("cached");
        assert_eq!(plain, cached, "same randomness, same ciphertext");
        assert_eq!(kp.decrypt(&plain).expect("plain"), msg);
        assert_eq!(kp.decrypt(&cached).expect("cached"), msg);
        assert_eq!(precomp.stats().ctx_misses, 1);
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = keypair(256, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let a = kp.public().encrypt(&mut rng, b"same").expect("a");
        let b = kp.public().encrypt(&mut rng, b"same").expect("b");
        assert_ne!(a, b, "random prefixes must differ");
        assert_eq!(kp.decrypt(&a).expect("a"), kp.decrypt(&b).expect("b"));
    }

    #[test]
    fn decrypt_with_wrong_key_fails_or_garbles() {
        let kp1 = keypair(256, 24);
        let kp2 = keypair(256, 25);
        let mut rng = StdRng::seed_from_u64(26);
        let ct = kp1
            .public()
            .encrypt(&mut rng, b"secret data")
            .expect("encrypt");
        match kp2.decrypt(&ct) {
            Err(_) => {}
            Ok(garbled) => assert_ne!(garbled, b"secret data"),
        }
    }

    #[test]
    fn long_messages_span_blocks() {
        let kp = keypair(192, 27);
        let mut rng = StdRng::seed_from_u64(28);
        let msg = vec![0xabu8; 300];
        let ct = kp.public().encrypt(&mut rng, &msg).expect("encrypt");
        assert!(ct.block_count() > 1);
        assert_eq!(kp.decrypt(&ct).expect("decrypt"), msg);
    }

    #[test]
    fn wide_modulus_encrypt_caps_block_payload() {
        // Regression: with a 4096-bit modulus, `modulus_bytes - 9` = 502
        // used to overflow the one-byte length field and panic in
        // `u8::try_from`. Blocks are now capped at 255 payload bytes.
        // Fixed 2048-bit primes — a 4096-bit prime search is far too slow.
        let p: Nat = P_2048.parse().expect("p");
        let q: Nat = Q_2048.parse().expect("q");
        let kp = RsaKeyPair::from_primes(p, q).expect("from_primes");
        assert!(kp.public().modulus().bit_len() >= 4095);
        let mut rng = StdRng::seed_from_u64(40);
        for msg in [&b"short"[..], &[0x5au8; 700]] {
            let ct = kp.public().encrypt(&mut rng, msg).expect("encrypt");
            assert_eq!(kp.decrypt(&ct).expect("decrypt"), msg);
        }
        // 700 bytes at ≤255 per block needs at least 3 blocks.
        let ct = kp.public().encrypt(&mut rng, &[1u8; 700]).expect("encrypt");
        assert!(ct.block_count() >= 3);
    }

    #[test]
    fn from_primes_rejects_degenerate_inputs() {
        let p = Nat::from(65_539u64); // prime
        assert!(RsaKeyPair::from_primes(p.clone(), p.clone()).is_err());
        assert!(RsaKeyPair::from_primes(p, Nat::one()).is_err());
    }

    const P_2048: &str = "27103645358824024953839486658618473063979572936846093152521807758073520106861345748273914845707917892562930489258573312718015930073323481103957782149481134752661315998340710658490409342266046380321244654677891218645127674020759094187220008345964970833710882310258608087433739380993185206305190802517055071302282435096650748604647965412106278325978650086922553971234347167279063557652461492444797108190271673076215376840230687304387501224522116717808228813724412354506706732839502562431193404124237699647976334127139081174612487907462811309564321341044575708084789343261022567088760544373096687776333536360633614267339";

    const Q_2048: &str = "19392149477145514375889813178220910675003966902213025233556788081673026864784025530577589765174335811871629927469820240941746765461892289819458120348684768345797726261208553586239002194396952521401303571573017062321138725027054112134817070243312256062283676997332906737378885195628861793279543224013614051313095656871600599980412045123841161314848806763384493429604486251306157779349842402256654854051199975641040681239488072902673921439097980882486823509807931784155986087420843909781823455126131212575594639196074188625477884970862596961885038830371770048284847154874553359959891249558811042777354021570266076322679";

    #[test]
    fn deterministic_for_seed() {
        let a = keypair(128, 11);
        let b = keypair(128, 11);
        assert_eq!(a.public(), b.public());
    }

    #[test]
    fn crt_params_derived_at_keygen() {
        let kp = keypair(256, 30);
        assert!(kp.has_crt());
    }

    #[test]
    fn crt_private_op_matches_classic_on_residues() {
        let kp = keypair(256, 31);
        for v in [0u64, 1, 2, 65_537, u64::MAX] {
            let c = Nat::from(v);
            assert_eq!(kp.private_op(&c), kp.private_op_classic(&c));
        }
        // A residue near the modulus.
        let c = kp.public().modulus() - &Nat::two();
        assert_eq!(kp.private_op(&c), kp.private_op_classic(&c));
    }

    mod crt_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// CRT and non-CRT signatures agree byte for byte across keys
            /// and messages.
            #[test]
            fn crt_signature_matches_classic(
                seed in 0u64..6,
                msg in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let kp = keypair(192, 3100 + seed);
                prop_assert!(kp.has_crt());
                let crt = kp.sign(&msg).expect("crt sign");
                let classic = kp.sign_classic(&msg).expect("classic sign");
                prop_assert_eq!(crt.value(), classic.value());
                prop_assert_eq!(
                    crt.value().to_bytes_be(),
                    classic.value().to_bytes_be()
                );
            }

            /// The raw private operation agrees on arbitrary ciphertext
            /// residues, so decryption is CRT-invariant too.
            #[test]
            fn crt_private_op_matches_classic(
                seed in 0u64..6,
                limbs in proptest::collection::vec(any::<u64>(), 1..6),
            ) {
                let kp = keypair(192, 3200 + seed);
                let c = Nat::from_limbs(limbs).rem_nat(kp.public().modulus());
                prop_assert_eq!(kp.private_op(&c), kp.private_op_classic(&c));
            }
        }
    }
}
