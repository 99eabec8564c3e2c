//! Decimal/hex formatting and parsing for [`Nat`].

use core::fmt;
use core::str::FromStr;

use crate::error::ParseNatError;
use crate::Nat;

/// Largest power of ten fitting in a limb: 10^19.
const DEC_CHUNK: u64 = 10_000_000_000_000_000_000;
const DEC_CHUNK_DIGITS: usize = 19;

impl Nat {
    /// Parses a string in the given radix (2..=36).
    ///
    /// # Errors
    ///
    /// Returns [`ParseNatError`] on an empty string or a digit outside the
    /// radix. Underscores are accepted as separators.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is outside `2..=36`.
    pub(crate) fn from_str_radix(s: &str, radix: u32) -> Result<Self, ParseNatError> {
        assert!((2..=36).contains(&radix), "radix must be in 2..=36");
        let digits: Vec<char> = s.chars().filter(|&c| c != '_').collect();
        if digits.is_empty() {
            return Err(ParseNatError::empty());
        }
        let mut out = Nat::zero();
        let radix_nat = u64::from(radix);
        for ch in digits {
            let d = ch
                .to_digit(radix)
                .ok_or_else(|| ParseNatError::invalid_digit(ch, radix))?;
            out = out.mul_u64(radix_nat).add_nat(&Nat::from(u64::from(d)));
        }
        Ok(out)
    }

    /// Lower-case hexadecimal string with no prefix (`"0"` for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        format!("{self:x}")
    }
}

impl FromStr for Nat {
    type Err = ParseNatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Nat::from_str_radix(hex, 16)
        } else {
            Nat::from_str_radix(s, 10)
        }
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Repeatedly divide by 10^19 and print the chunks.
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(DEC_CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks.last().expect("nonzero value has chunks").to_string();
        for chunk in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{chunk:0width$}", width = DEC_CHUNK_DIGITS));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nat({self})")
    }
}

impl fmt::LowerHex for Nat {
    /// Sixteen digits per limb from a nibble table into one pre-sized
    /// string, the top limb without its leading zeros.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let Some(&top) = self.limbs.last() else {
            return f.pad_integral(true, "0x", "0");
        };
        let top_digits = (64 - top.leading_zeros() as usize).div_ceil(4);
        let mut s = String::with_capacity(top_digits + 16 * (self.limbs.len() - 1));
        let mut push = |limb: u64, digits: usize| {
            for i in (0..digits).rev() {
                s.push(char::from(DIGITS[(limb >> (4 * i)) as usize & 0xf]));
            }
        };
        push(top, top_digits);
        for &limb in self.limbs.iter().rev().skip(1) {
            push(limb, 16);
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::UpperHex for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lower = format!("{self:x}");
        f.pad_integral(true, "0x", &lower.to_uppercase())
    }
}

impl fmt::Binary for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0b", "0");
        }
        let mut s = format!("{:b}", self.limbs.last().expect("nonzero"));
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:064b}"));
        }
        f.pad_integral(true, "0b", &s)
    }
}

impl fmt::Octal for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Convert via repeated division by 8^21 (fits in u64).
        const OCT_CHUNK: u64 = 1 << 63; // 8^21
        if self.is_zero() {
            return f.pad_integral(true, "0o", "0");
        }
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(OCT_CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = format!("{:o}", chunks.last().expect("nonzero"));
        for chunk in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{chunk:021o}"));
        }
        f.pad_integral(true, "0o", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
            "99999999999999999999999999999999999999999999",
        ] {
            let n: Nat = s.parse().expect("parse");
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn hex_roundtrip_and_prefix() {
        let n: Nat = "0xdeadbeefdeadbeefdeadbeef".parse().expect("parse");
        assert_eq!(format!("{n:x}"), "deadbeefdeadbeefdeadbeef");
        assert_eq!(format!("{n:#x}"), "0xdeadbeefdeadbeefdeadbeef");
        assert_eq!(
            Nat::from_str_radix("deadbeefdeadbeefdeadbeef", 16).expect("parse"),
            n
        );
    }

    #[test]
    fn interior_zero_limbs_pad_correctly() {
        let n = Nat::from_limbs(vec![0x1, 0x0, 0x1]); // 2^128 + 1
        assert_eq!(format!("{n:x}"), "100000000000000000000000000000001");
        assert_eq!(n.to_string(), "340282366920938463463374607431768211457");
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<Nat>().is_err());
        assert!("12a".parse::<Nat>().is_err());
        assert!("0x".parse::<Nat>().is_err());
        assert!(Nat::from_str_radix("102", 2).is_err());
    }

    #[test]
    fn underscores_ignored() {
        assert_eq!(
            "1_000_000".parse::<Nat>().expect("parse"),
            Nat::from(1_000_000u64)
        );
    }

    #[test]
    fn binary_and_octal_formats() {
        assert_eq!(format!("{:b}", Nat::from(10u64)), "1010");
        assert_eq!(format!("{:o}", Nat::from(64u64)), "100");
        assert_eq!(format!("{:b}", Nat::zero()), "0");
        let big = Nat::from_limbs(vec![0, 1]);
        assert_eq!(format!("{big:b}").len(), 65);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", Nat::zero()), "Nat(0)");
    }

    #[test]
    fn upper_hex() {
        assert_eq!(format!("{:X}", Nat::from(0xabcu64)), "ABC");
    }
}
