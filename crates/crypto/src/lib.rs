//! Threshold-RSA cryptography for coalition Attribute Authorities.
//!
//! This crate implements, from scratch, every cryptographic mechanism the
//! paper's Section 3 relies on:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (message digests and key ids).
//! * [`rsa`] — conventional RSA key pairs and signatures (the Case I
//!   baseline of §2.2, and per-user / per-CA keys).
//! * [`shared`] — **Boneh–Franklin distributed generation of a shared RSA
//!   key** (§3.1): `n` domains jointly compute a modulus `N = pq` without any
//!   of them learning the factorization, ending with additive shares of the
//!   private exponent `d`. A fast dealer-based split
//!   ([`shared::SharedRsaKey::deal`]) exists for tests that don't exercise
//!   keygen itself.
//! * [`joint`] — the **joint signature** protocol (§3.2): each co-signer
//!   applies its share `dᵢ` to compute `Sᵢ = M^dᵢ mod N`; the requestor
//!   combines `S = Π Sᵢ mod N`.
//! * [`threshold`] — **m-of-n threshold signatures** (§3.3) via integer
//!   Shamir sharing with Shoup's `Δ = n!` Lagrange trick, including a
//!   dealer-free conversion from additive shares.
//! * [`session`] — **resilient signing sessions**: per-round timeouts,
//!   bounded retries with exponential backoff, and m-of-n co-signer
//!   failover so signing completes whenever a quorum of domains is live —
//!   and fails fast with [`CryptoError::QuorumUnreachable`] otherwise.
//! * [`refresh`] — proactive re-randomization of additive shares
//!   (Wu et al. [27], discussed in §6).
//! * [`collusion`] — share-combination analysis backing the paper's
//!   collusion claims (§3.1, §6).
//! * [`precomp`] — shared verifier precomputation: cached per-modulus
//!   Montgomery contexts and per-base fixed-base ladders (DESIGN §5h).
//! * [`batch`] — small-exponents randomized batch verification with
//!   bisection fallback (Bellare–Garay–Rabin).
//! * [`shamir`] — field and integer Shamir secret sharing (used by the BGW
//!   multiplication inside keygen and by the threshold scheme).
//!
//! # Example: deal a shared key and sign jointly
//!
//! ```
//! use jaap_crypto::shared::SharedRsaKey;
//! use jaap_crypto::joint;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), jaap_crypto::CryptoError> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let (public, shares) = SharedRsaKey::deal(&mut rng, 256, 3)?;
//! let sig = joint::sign_locally(&public, &shares, b"attribute certificate")?;
//! assert!(public.verify(b"attribute certificate", &sig));
//! # Ok(())
//! # }
//! ```
//!
//! # Security caveats
//!
//! The arithmetic is not constant-time and the multi-party protocols assume
//! honest-but-curious participants, matching the paper's assumption that
//! member domains "do not compromise the coalition operations by refusing to
//! co-operate" (§2.1, Requirement III). See DESIGN.md §7.

#![forbid(unsafe_code)]

pub mod batch;
pub mod collusion;
mod error;
pub mod fdh;
pub mod joint;
pub mod precomp;
pub mod refresh;
pub mod rsa;
pub mod session;
pub mod sha256;
pub mod shamir;
pub mod shared;
pub mod threshold;

pub use error::CryptoError;
pub use sha256::Sha256;
