//! The [`Int`] type: signed arbitrary-precision integers (sign + magnitude).
//!
//! Needed wherever negative quantities appear in the threshold-RSA protocols:
//! the extended Euclidean algorithm, additive shares of the private exponent
//! `d` (which may be negative for all but one party, Boneh–Franklin §3), and
//! integer Lagrange coefficients in Shoup-style threshold combination.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};
use core::str::FromStr;

use crate::error::ParseNatError;
use crate::Nat;

/// The sign of an [`Int`]. Zero is always [`Sign::Plus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Sign {
    /// Non-negative.
    Plus,
    /// Strictly negative.
    Minus,
}

/// A signed arbitrary-precision integer.
///
/// # Example
///
/// ```
/// use jaap_bigint::{Int, Nat};
///
/// let a = Int::from(-7i64);
/// let b = Int::from(3i64);
/// assert_eq!(&a + &b, Int::from(-4i64));
/// assert_eq!(a.rem_euclid(&Nat::from(5u64)), Nat::from(3u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    sign: Sign,
    mag: Nat,
}

impl Int {
    /// The value `0`.
    #[must_use]
    pub fn zero() -> Self {
        Int {
            sign: Sign::Plus,
            mag: Nat::zero(),
        }
    }

    /// The value `1`.
    #[must_use]
    pub fn one() -> Self {
        Int::from_nat(Nat::one())
    }

    /// Builds a non-negative `Int` from a [`Nat`].
    #[must_use]
    pub fn from_nat(mag: Nat) -> Self {
        Int {
            sign: Sign::Plus,
            mag,
        }
    }

    /// Builds an `Int` with an explicit sign; zero is normalized to `Plus`.
    #[must_use]
    pub(crate) fn with_sign(sign: Sign, mag: Nat) -> Self {
        if mag.is_zero() {
            Int::zero()
        } else {
            Int { sign, mag }
        }
    }

    /// The sign.
    #[must_use]
    pub(crate) fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    #[must_use]
    pub fn magnitude(&self) -> &Nat {
        &self.mag
    }

    /// Returns `true` if zero.
    #[must_use]
    pub(crate) fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Returns `true` if strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Converts to a [`Nat`] if non-negative.
    #[must_use]
    pub(crate) fn to_nat(&self) -> Option<Nat> {
        match self.sign {
            Sign::Plus => Some(self.mag.clone()),
            Sign::Minus => None,
        }
    }

    /// The non-negative residue `self mod m`, in `0..m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn rem_euclid(&self, m: &Nat) -> Nat {
        let r = self.mag.rem_nat(m);
        match self.sign {
            Sign::Plus => r,
            Sign::Minus => {
                if r.is_zero() {
                    r
                } else {
                    m - &r
                }
            }
        }
    }

    /// Euclidean division by a positive [`Nat`]: returns `(q, r)` with
    /// `self = q*d + r` and `0 <= r < d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[must_use]
    pub fn div_rem_euclid(&self, d: &Nat) -> (Int, Nat) {
        let (q, r) = self.mag.div_rem(d);
        match self.sign {
            Sign::Plus => (Int::from_nat(q), r),
            Sign::Minus => {
                if r.is_zero() {
                    (Int::with_sign(Sign::Minus, q), r)
                } else {
                    (Int::with_sign(Sign::Minus, &q + &Nat::one()), d - &r)
                }
            }
        }
    }

    fn add_int(&self, rhs: &Int) -> Int {
        if self.sign == rhs.sign {
            return Int::with_sign(self.sign, &self.mag + &rhs.mag);
        }
        match self.mag.cmp(&rhs.mag) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::with_sign(self.sign, &self.mag - &rhs.mag),
            Ordering::Less => Int::with_sign(rhs.sign, &rhs.mag - &self.mag),
        }
    }

    fn mul_int(&self, rhs: &Int) -> Int {
        let sign = if self.sign == rhs.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Int::with_sign(sign, &self.mag * &rhs.mag)
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        if v < 0 {
            Int::with_sign(Sign::Minus, Nat::from(v.unsigned_abs()))
        } else {
            Int::from_nat(Nat::from(v as u64))
        }
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Self {
        Int::from_nat(Nat::from(v))
    }
}

impl From<Nat> for Int {
    fn from(v: Nat) -> Self {
        Int::from_nat(v)
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self.sign {
            Sign::Plus if self.is_zero() => Int::zero(),
            Sign::Plus => Int::with_sign(Sign::Minus, self.mag.clone()),
            Sign::Minus => Int::from_nat(self.mag.clone()),
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        -&self
    }
}

macro_rules! forward_int_binop {
    ($trait:ident, $method:ident, $imp:ident) => {
        impl $trait<&Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                self.$imp(rhs)
            }
        }
        impl $trait<Int> for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                (&self).$imp(&rhs)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                (&self).$imp(rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$imp(&rhs)
            }
        }
    };
}

impl Int {
    fn sub_int(&self, rhs: &Int) -> Int {
        self.add_int(&-rhs)
    }
}

forward_int_binop!(Add, add, add_int);
forward_int_binop!(Sub, sub, sub_int);
forward_int_binop!(Mul, mul, mul_int);

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Plus, Sign::Minus) => Ordering::Greater,
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.mag.cmp(&other.mag),
            (Sign::Minus, Sign::Minus) => other.mag.cmp(&self.mag),
        }
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-{}", self.mag)
        } else {
            write!(f, "{}", self.mag)
        }
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

impl FromStr for Int {
    type Err = ParseNatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('-') {
            Ok(Int::with_sign(Sign::Minus, rest.parse()?))
        } else {
            Ok(Int::from_nat(s.strip_prefix('+').unwrap_or(s).parse()?))
        }
    }
}

impl Default for Int {
    fn default() -> Self {
        Int::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Int {
        Int::from(v)
    }

    #[test]
    fn sign_normalization_of_zero() {
        let z = Int::with_sign(Sign::Minus, Nat::zero());
        assert_eq!(z, Int::zero());
        assert_eq!(z.sign(), Sign::Plus);
    }

    #[test]
    fn signed_addition_table() {
        assert_eq!(int(5) + int(3), int(8));
        assert_eq!(int(5) + int(-3), int(2));
        assert_eq!(int(-5) + int(3), int(-2));
        assert_eq!(int(-5) + int(-3), int(-8));
        assert_eq!(int(5) + int(-5), Int::zero());
    }

    #[test]
    fn signed_subtraction() {
        assert_eq!(int(3) - int(5), int(-2));
        assert_eq!(int(-3) - int(-5), int(2));
    }

    #[test]
    fn signed_multiplication() {
        assert_eq!(int(-4) * int(3), int(-12));
        assert_eq!(int(-4) * int(-3), int(12));
        assert_eq!(int(-4) * Int::zero(), Int::zero());
    }

    #[test]
    fn negation() {
        assert_eq!(-int(7), int(-7));
        assert_eq!(-Int::zero(), Int::zero());
        assert_eq!(-(-int(7)), int(7));
    }

    #[test]
    fn rem_euclid_always_nonnegative() {
        let m = Nat::from(5u64);
        assert_eq!(int(13).rem_euclid(&m), Nat::from(3u64));
        assert_eq!(int(-13).rem_euclid(&m), Nat::from(2u64));
        assert_eq!(int(-10).rem_euclid(&m), Nat::zero());
        assert_eq!(Int::zero().rem_euclid(&m), Nat::zero());
    }

    #[test]
    fn div_rem_euclid_identity() {
        let d = Nat::from(7u64);
        for v in [-23i64, -21, -1, 0, 1, 22] {
            let (q, r) = int(v).div_rem_euclid(&d);
            assert!(r < d);
            let rebuilt = &(&q * &Int::from_nat(d.clone())) + &Int::from_nat(r);
            assert_eq!(rebuilt, int(v), "failed for {v}");
        }
    }

    #[test]
    fn ordering_across_signs() {
        assert!(int(-10) < int(-2));
        assert!(int(-1) < Int::zero());
        assert!(Int::zero() < int(1));
        assert!(int(2) < int(10));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["-12345678901234567890123", "0", "42", "987654321"] {
            let v: Int = s.parse().expect("parse");
            assert_eq!(v.to_string(), s);
        }
        assert_eq!("+7".parse::<Int>().expect("parse"), int(7));
    }

    #[test]
    fn to_nat_on_negative_is_none() {
        assert_eq!(int(-1).to_nat(), None);
        assert_eq!(int(5).to_nat(), Some(Nat::from(5u64)));
    }
}
