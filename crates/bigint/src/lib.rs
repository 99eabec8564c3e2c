//! Arbitrary-precision integer arithmetic for the `jaap` workspace.
//!
//! This crate is the numeric substrate for the threshold-RSA machinery used by
//! the coalition Attribute Authority (paper Section 3). It deliberately avoids
//! external bignum dependencies: everything — limb arithmetic, Karatsuba
//! multiplication and squaring, Knuth Algorithm D division, Montgomery
//! (CIOS) reduction with sliding-window modular exponentiation, extended
//! GCD, Miller–Rabin primality and Jacobi symbols — is implemented here.
//!
//! Two public types:
//!
//! * [`Nat`] — an arbitrary-precision **natural number** (unsigned), stored as
//!   little-endian `u64` limbs with no trailing zero limbs.
//! * [`Int`] — a signed wrapper (sign + magnitude) needed by the extended
//!   Euclidean algorithm and by additive secret shares of RSA exponents,
//!   which may be negative.
//!
//! # Example
//!
//! ```
//! use jaap_bigint::Nat;
//!
//! # fn main() -> Result<(), jaap_bigint::ParseNatError> {
//! let p: Nat = "340282366920938463463374607431768211507".parse()?;
//! let e = Nat::from(65_537u64);
//! let m = Nat::from(42u64);
//! let c = m.modpow(&e, &p);
//! assert!(c < p);
//! # Ok(())
//! # }
//! ```
//!
//! # Security note
//!
//! Operations are **not constant-time**; this crate backs a protocol
//! simulator, not a production TLS stack. See DESIGN.md §7.

#![forbid(unsafe_code)]

mod div;
mod error;
mod fmt;
mod int;
mod modular;
mod montgomery;
mod mul;
mod nat;
mod prime;
mod random;

pub use error::ParseNatError;
pub use int::Int;
pub(crate) use int::Sign;
pub use montgomery::{FixedBaseWindow, MontgomeryContext};
pub use nat::Nat;
pub use prime::{is_probable_prime, jacobi, next_prime, random_prime, Jacobi, SMALL_PRIMES};
pub(crate) use random::random_nat_exact;
pub use random::{random_below, random_nat};

#[cfg(test)]
mod proptests;
