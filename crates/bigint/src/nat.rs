//! The [`Nat`] type: arbitrary-precision natural numbers.
//!
//! Representation: little-endian `u64` limbs, normalized so the most
//! significant limb is nonzero (zero is the empty limb vector).

use core::cmp::Ordering;
use core::ops::{Add, AddAssign, BitAnd, Mul, Rem, Shl, Shr, Sub, SubAssign};

/// An arbitrary-precision natural number (unsigned integer).
///
/// `Nat` supports the usual arithmetic operators on both owned values and
/// references. Subtraction panics on underflow; division by zero panics.
///
/// # Example
///
/// ```
/// use jaap_bigint::Nat;
///
/// let a = Nat::from(10u64);
/// let b = Nat::from(4u64);
/// assert_eq!(&a + &b, Nat::from(14u64));
/// assert_eq!(&a * &b, Nat::from(40u64));
/// assert_eq!(&a % &b, Nat::from(2u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    pub(crate) limbs: Vec<u64>,
}

impl Nat {
    /// The value `0`.
    #[must_use]
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// The value `1`.
    #[must_use]
    pub fn one() -> Self {
        Nat { limbs: vec![1] }
    }

    /// The value `2`.
    #[must_use]
    pub fn two() -> Self {
        Nat { limbs: vec![2] }
    }

    /// Builds a `Nat` from little-endian limbs, normalizing trailing zeros.
    #[must_use]
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Nat { limbs }
    }

    /// A read-only view of the little-endian limbs.
    #[must_use]
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` if the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` if the lowest bit is clear (zero counts as even).
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the lowest bit is set.
    #[must_use]
    pub(crate) fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// use jaap_bigint::Nat;
    /// assert_eq!(Nat::from(0u64).bit_len(), 0);
    /// assert_eq!(Nat::from(255u64).bit_len(), 8);
    /// ```
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => self.limbs.len() * 64 - hi.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian position), `false` beyond the top bit.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let (limb, off) = (i / 64, i % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << off);
            self.normalize();
        }
    }

    /// Converts to `u64` if the value fits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Big-endian byte encoding with no leading zero bytes (empty for zero).
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        Nat::from_limbs(limbs)
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    #[must_use]
    pub(crate) fn add_nat(&self, other: &Nat) -> Nat {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        Nat::from_limbs(out)
    }

    /// `self - other`, or `None` if the result would be negative.
    #[must_use]
    pub(crate) fn checked_sub(&self, other: &Nat) -> Option<Nat> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        Some(Nat::from_limbs(out))
    }

    /// Shifts left by `bits`.
    #[must_use]
    pub fn shl_bits(&self, bits: usize) -> Nat {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Nat::from_limbs(out)
    }

    /// Shifts right by `bits`.
    #[must_use]
    pub fn shr_bits(&self, bits: usize) -> Nat {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Nat::zero();
        }
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Nat::from_limbs(out)
    }

    /// Count of trailing zero bits; `None` for the zero value.
    #[must_use]
    pub(crate) fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    pub(crate) fn cmp_nat(&self, other: &Nat) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                Ordering::Equal
            }
            other => other,
        }
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat::from_limbs(vec![v])
    }
}

impl From<u32> for Nat {
    fn from(v: u32) -> Self {
        Nat::from(u64::from(v))
    }
}

impl From<u128> for Nat {
    fn from(v: u128) -> Self {
        Nat::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<usize> for Nat {
    fn from(v: usize) -> Self {
        Nat::from(v as u64)
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_nat(other)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $imp:ident) => {
        impl $trait<&Nat> for &Nat {
            type Output = Nat;
            fn $method(self, rhs: &Nat) -> Nat {
                self.$imp(rhs)
            }
        }
        impl $trait<Nat> for Nat {
            type Output = Nat;
            fn $method(self, rhs: Nat) -> Nat {
                (&self).$imp(&rhs)
            }
        }
        impl $trait<&Nat> for Nat {
            type Output = Nat;
            fn $method(self, rhs: &Nat) -> Nat {
                (&self).$imp(rhs)
            }
        }
        impl $trait<Nat> for &Nat {
            type Output = Nat;
            fn $method(self, rhs: Nat) -> Nat {
                self.$imp(&rhs)
            }
        }
    };
}

fn sub_panicking(a: &Nat, b: &Nat) -> Nat {
    a.checked_sub(b).expect("Nat subtraction underflow")
}

fn rem_nat(a: &Nat, b: &Nat) -> Nat {
    a.div_rem(b).1
}

impl Nat {
    fn add_ref(&self, rhs: &Nat) -> Nat {
        self.add_nat(rhs)
    }
    fn sub_ref(&self, rhs: &Nat) -> Nat {
        sub_panicking(self, rhs)
    }
    fn mul_ref(&self, rhs: &Nat) -> Nat {
        self.mul_nat(rhs)
    }
    fn rem_ref(&self, rhs: &Nat) -> Nat {
        rem_nat(self, rhs)
    }
}

forward_binop!(Add, add, add_ref);
forward_binop!(Sub, sub, sub_ref);
forward_binop!(Mul, mul, mul_ref);
forward_binop!(Rem, rem, rem_ref);

impl AddAssign<&Nat> for Nat {
    fn add_assign(&mut self, rhs: &Nat) {
        *self = self.add_nat(rhs);
    }
}

impl SubAssign<&Nat> for Nat {
    fn sub_assign(&mut self, rhs: &Nat) {
        *self = sub_panicking(self, rhs);
    }
}

impl Shl<usize> for &Nat {
    type Output = Nat;
    fn shl(self, bits: usize) -> Nat {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &Nat {
    type Output = Nat;
    fn shr(self, bits: usize) -> Nat {
        self.shr_bits(bits)
    }
}

impl BitAnd<&Nat> for &Nat {
    type Output = Nat;
    fn bitand(self, rhs: &Nat) -> Nat {
        let n = self.limbs.len().min(rhs.limbs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.limbs[i] & rhs.limbs[i]);
        }
        Nat::from_limbs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Nat::zero().is_zero());
        assert!(Nat::one().is_one());
        assert!(!Nat::one().is_zero());
        assert_eq!(Nat::default(), Nat::zero());
    }

    #[test]
    fn normalization_strips_trailing_zero_limbs() {
        let n = Nat::from_limbs(vec![5, 0, 0]);
        assert_eq!(n.limbs(), &[5]);
    }

    #[test]
    fn addition_with_carry_chain() {
        let a = Nat::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = Nat::one();
        assert_eq!(&a + &b, Nat::from_limbs(vec![0, 0, 1]));
    }

    #[test]
    fn subtraction_with_borrow_chain() {
        let a = Nat::from_limbs(vec![0, 0, 1]);
        let b = Nat::one();
        assert_eq!(&a - &b, Nat::from_limbs(vec![u64::MAX, u64::MAX]));
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert_eq!(Nat::one().checked_sub(&Nat::two()), None);
        assert_eq!(Nat::two().checked_sub(&Nat::one()), Some(Nat::one()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Nat::one() - Nat::two();
    }

    #[test]
    fn bit_len_boundaries() {
        assert_eq!(Nat::from(1u64).bit_len(), 1);
        assert_eq!(Nat::from(u64::MAX).bit_len(), 64);
        assert_eq!((&Nat::from(u64::MAX) + &Nat::one()).bit_len(), 65);
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut n = Nat::zero();
        n.set_bit(130, true);
        assert!(n.bit(130));
        assert!(!n.bit(129));
        assert_eq!(n.bit_len(), 131);
        n.set_bit(130, false);
        assert!(n.is_zero());
    }

    #[test]
    fn shifts_inverse_each_other() {
        let n = Nat::from(0xDEAD_BEEFu64);
        assert_eq!(n.shl_bits(77).shr_bits(77), n);
        assert_eq!(n.shl_bits(0), n);
        assert_eq!(Nat::from(1u64).shl_bits(64), Nat::from_limbs(vec![0, 1]));
    }

    #[test]
    fn shr_past_end_is_zero() {
        assert!(Nat::from(5u64).shr_bits(64).is_zero());
    }

    #[test]
    fn byte_encoding_roundtrip() {
        let n = Nat::from(0x0102_0304_0506_0708u64);
        assert_eq!(n.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(Nat::from_bytes_be(&n.to_bytes_be()), n);
        assert_eq!(Nat::from_bytes_be(&[0, 0, 1]), Nat::one());
        assert!(Nat::zero().to_bytes_be().is_empty());
    }

    #[test]
    fn ordering_by_length_then_lexicographic() {
        let small = Nat::from(u64::MAX);
        let big = Nat::from_limbs(vec![0, 1]);
        assert!(small < big);
        assert!(Nat::from(3u64) > Nat::from(2u64));
        assert_eq!(Nat::from(7u64).cmp(&Nat::from(7u64)), Ordering::Equal);
    }

    #[test]
    fn parity() {
        assert!(Nat::zero().is_even());
        assert!(Nat::one().is_odd());
        assert!(Nat::from(0x10u64).is_even());
    }

    #[test]
    fn trailing_zeros_counts() {
        assert_eq!(Nat::zero().trailing_zeros(), None);
        assert_eq!(Nat::one().trailing_zeros(), Some(0));
        assert_eq!(Nat::from(8u64).trailing_zeros(), Some(3));
        assert_eq!(Nat::from_limbs(vec![0, 2]).trailing_zeros(), Some(65));
    }

    #[test]
    fn u128_conversion() {
        let v = u128::from(u64::MAX) + 5;
        let n = Nat::from(v);
        assert_eq!(n.to_string(), v.to_string());
        assert_eq!(n.to_u64(), None);
    }

    #[test]
    fn bitand_masks() {
        let a = Nat::from(0b1100u64);
        let b = Nat::from(0b1010u64);
        assert_eq!((&a & &b), Nat::from(0b1000u64));
    }
}
