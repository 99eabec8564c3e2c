//! Property-based tests over the core algebraic laws.

use proptest::prelude::*;

use crate::{Int, MontgomeryContext, Nat};

fn arb_nat() -> impl Strategy<Value = Nat> {
    proptest::collection::vec(any::<u64>(), 0..8).prop_map(Nat::from_limbs)
}

fn arb_nonzero_nat() -> impl Strategy<Value = Nat> {
    arb_nat().prop_filter("nonzero", |n| !n.is_zero())
}

/// Random odd moduli > 1 (the Montgomery domain): 1–7 limbs, or the RSA
/// widths of 16, 32 and 33 limbs (1024, 2048 and just past 2048 bits).
/// One in three has its top limb forced to `u64::MAX` and one in three is
/// `2^(64k) − 1`, the shapes that push every carry of the kernel.
fn arb_odd_modulus() -> impl Strategy<Value = Nat> {
    const WIDTHS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 16, 32, 33];
    (
        0..WIDTHS.len(),
        proptest::collection::vec(any::<u64>(), 33),
        0u8..3,
    )
        .prop_map(|(width, mut limbs, shape)| {
            let k = WIDTHS[width];
            limbs.truncate(k);
            match shape {
                1 => limbs[k - 1] = u64::MAX,
                2 => limbs.fill(u64::MAX),
                _ => {}
            }
            limbs[0] |= 1;
            let n = Nat::from_limbs(limbs);
            if n.is_one() {
                Nat::from(3u64)
            } else {
                n
            }
        })
}

/// A base for modulus `m`, by `shape`: 0, 1, `m − 1`, `m + r` (at least
/// `m`), or otherwise the random `r` itself.
fn base_for(shape: u8, r: &Nat, m: &Nat) -> Nat {
    match shape {
        0 => Nat::zero(),
        1 => Nat::one(),
        2 => m - &Nat::one(),
        3 => m + r,
        _ => r.clone(),
    }
}

/// A random natural of up to 34 limbs — as wide as the widest modulus.
fn arb_wide_nat() -> impl Strategy<Value = Nat> {
    proptest::collection::vec(any::<u64>(), 0..35).prop_map(Nat::from_limbs)
}

/// Random exponents of up to `limbs - 1` limbs, mixed with the sparse
/// shapes the sliding window special-cases: 3, 65537, `2^j` and `2^j + 1`.
fn arb_exp(limbs: usize) -> impl Strategy<Value = Nat> {
    (
        0u8..8,
        proptest::collection::vec(any::<u64>(), 0..limbs),
        0usize..200,
    )
        .prop_map(|(shape, limbs, j)| match shape {
            0 => Nat::from(3u64),
            1 => Nat::from(65_537u64),
            2 => Nat::one().shl_bits(j),
            3 => Nat::one().shl_bits(j) + Nat::one(),
            _ => Nat::from_limbs(limbs),
        })
}

fn arb_int() -> impl Strategy<Value = Int> {
    (arb_nat(), any::<bool>()).prop_map(|(mag, neg)| {
        if neg {
            -Int::from_nat(mag)
        } else {
            Int::from_nat(mag)
        }
    })
}

/// Values covering every shape of the hex rendering: zero, one limb, a top
/// limb with 0–15 leading zero nibbles, and 2048-bit widths.
fn arb_hex_nat() -> impl Strategy<Value = Nat> {
    const WIDTHS: [usize; 5] = [0, 1, 2, 3, 32];
    (
        0..WIDTHS.len(),
        proptest::collection::vec(any::<u64>(), 32),
        0u32..64,
    )
        .prop_map(|(width, mut limbs, shift)| {
            limbs.truncate(WIDTHS[width]);
            if let Some(top) = limbs.last_mut() {
                *top >>= shift;
            }
            Nat::from_limbs(limbs)
        })
}

/// The per-limb `format!` rendering `{:x}` of a `Nat` had before the
/// nibble table: the reference the table must reproduce byte for byte.
struct PerLimbHex<'a>(&'a Nat);

impl core::fmt::LowerHex for PerLimbHex<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let limbs = self.0.limbs();
        let Some(top) = limbs.last() else {
            return f.pad_integral(true, "0x", "0");
        };
        let mut s = format!("{top:x}");
        for limb in limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in arb_nat(), b in arb_nat()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in arb_nat(), b in arb_nat(), c in arb_nat()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in arb_nat(), b in arb_nat()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in arb_nat(), b in arb_nat(), c in arb_nat()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in arb_nat(), b in arb_nat()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn division_identity(a in arb_nat(), b in arb_nonzero_nat()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_roundtrip(a in arb_nat(), s in 0usize..200) {
        prop_assert_eq!(a.shl_bits(s).shr_bits(s), a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_nat(), s in 0usize..100) {
        prop_assert_eq!(a.shl_bits(s), &a * &Nat::one().shl_bits(s));
    }

    #[test]
    fn bytes_roundtrip(a in arb_nat()) {
        prop_assert_eq!(Nat::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_nat()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Nat>().expect("reparse"), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_nat()) {
        let s = a.to_hex();
        prop_assert_eq!(Nat::from_str_radix(&s, 16).expect("reparse"), a);
    }

    #[test]
    fn gcd_divides_both(a in arb_nat(), b in arb_nonzero_nat()) {
        let g = a.gcd(&b);
        prop_assert!(b.rem_nat(&g).is_zero());
        if !a.is_zero() {
            prop_assert!(a.rem_nat(&g).is_zero());
        }
    }

    #[test]
    fn ext_gcd_bezout(a in arb_nat(), b in arb_nat()) {
        let (g, x, y) = a.ext_gcd(&b);
        let lhs = &(&x * &Int::from_nat(a.clone())) + &(&y * &Int::from_nat(b));
        prop_assert_eq!(lhs, Int::from_nat(g));
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..40, m in 2u64..5000) {
        let m_nat = Nat::from(m);
        let got = Nat::from(base).modpow(&Nat::from(exp), &m_nat);
        let mut expect = 1u128;
        for _ in 0..exp {
            expect = expect * u128::from(base) % u128::from(m);
        }
        prop_assert_eq!(got, Nat::from(expect));
    }

    #[test]
    fn montgomery_modpow_matches_plain(
        r in arb_wide_nat(),
        shape in 0u8..8,
        exp in arb_exp(4),
        m in arb_odd_modulus(),
    ) {
        let base = base_for(shape, &r, &m);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(ctx.modpow(&base, &exp), base.modpow_plain(&exp, &m));
    }

    #[test]
    fn fixed_base_window_matches_montgomery_modpow(
        r in arb_wide_nat(),
        shape in 0u8..8,
        exp in arb_exp(4),
        m in arb_odd_modulus(),
        table_bits in 1usize..96,
    ) {
        // The ladder path (including on-the-fly extension past the table)
        // must be byte-identical to the sliding-window Montgomery path.
        let base = base_for(shape, &r, &m);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus > 1");
        let win = ctx.fixed_base(&base, table_bits);
        prop_assert_eq!(win.modpow(&ctx, &exp), ctx.modpow(&base, &exp));
    }

    #[test]
    fn multi_modpow_matches_factored_product(
        r1 in arb_wide_nat(), r2 in arb_wide_nat(), r3 in arb_wide_nat(),
        shapes in (0u8..8, 0u8..8, 0u8..8),
        e1 in arb_exp(3), e2 in arb_exp(3), e3 in arb_exp(3),
        m in arb_odd_modulus(),
    ) {
        let b1 = base_for(shapes.0, &r1, &m);
        let b2 = base_for(shapes.1, &r2, &m);
        let b3 = base_for(shapes.2, &r3, &m);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus > 1");
        let got = ctx.multi_modpow(&[(&b1, &e1), (&b2, &e2), (&b3, &e3)]);
        let expect = ctx.modpow(&b1, &e1)
            .mulm(&ctx.modpow(&b2, &e2), &m)
            .mulm(&ctx.modpow(&b3, &e3), &m);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn montgomery_mul_matches_mulm(
        ra in arb_wide_nat(), rb in arb_wide_nat(),
        shapes in (0u8..8, 0u8..8),
        m in arb_odd_modulus(),
    ) {
        let a = base_for(shapes.0, &ra, &m);
        let b = base_for(shapes.1, &rb, &m);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus > 1");
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        prop_assert_eq!(ctx.unmont(&ctx.mont_mul(&am, &bm)), a.mulm(&b, &m));
        prop_assert_eq!(ctx.unmont(&ctx.mont_sqr(&am)), a.mulm(&a, &m));
    }

    #[test]
    fn dispatched_modpow_matches_plain(
        base in arb_nat(),
        exp in proptest::collection::vec(any::<u64>(), 0..3).prop_map(Nat::from_limbs),
        m in arb_nonzero_nat(),
    ) {
        // Whatever path modpow picks (Montgomery for odd m, plain for
        // even), the answer is the reference one.
        prop_assert_eq!(base.modpow(&exp, &m), base.modpow_plain(&exp, &m));
    }

    #[test]
    fn square_matches_general_multiplication(a in arb_nat()) {
        prop_assert_eq!(a.square(), a.mul_nat(&a));
    }

    #[test]
    fn large_square_binomial_identity(
        limbs in proptest::collection::vec(any::<u64>(), 33..80),
    ) {
        // Above the Karatsuba threshold (exercises the recursive split):
        // (a+1)² = a² + 2a + 1 ties large squarings to an unbalanced
        // product-free identity.
        let a = Nat::from_limbs(limbs);
        let lhs = (&a + &Nat::one()).square();
        let rhs = a.square() + a.shl_bits(1) + Nat::one();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in arb_nonzero_nat(), m in arb_nonzero_nat()) {
        if m.is_one() { return Ok(()); }
        if let Some(inv) = a.modinv(&m) {
            prop_assert_eq!(a.mulm(&inv, &m), Nat::one());
        }
    }

    #[test]
    fn isqrt_bounds(a in arb_nat()) {
        let s = a.isqrt();
        prop_assert!(s.square() <= a);
        let s1 = &s + &Nat::one();
        prop_assert!(s1.square() > a);
    }

    #[test]
    fn int_ring_laws(a in arb_int(), b in arb_int(), c in arb_int()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&(&a - &b) + &b, a.clone());
        prop_assert_eq!(&a + &(-&a), Int::zero());
    }

    #[test]
    fn int_rem_euclid_in_range(a in arb_int(), m in arb_nonzero_nat()) {
        let r = a.rem_euclid(&m);
        prop_assert!(r < m);
    }

    #[test]
    fn int_div_rem_euclid_identity(a in arb_int(), m in arb_nonzero_nat()) {
        let (q, r) = a.div_rem_euclid(&m);
        prop_assert!(r < m);
        let rebuilt = &(&q * &Int::from_nat(m)) + &Int::from_nat(r);
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn ordering_total(a in arb_nat(), b in arb_nat()) {
        use core::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Less => prop_assert!(b > a),
            Ordering::Greater => prop_assert!(a > b),
            Ordering::Equal => prop_assert_eq!(a, b),
        }
    }

    #[test]
    fn lower_hex_matches_per_limb_rendering(n in arb_hex_nat(), width in 0usize..600) {
        let old = PerLimbHex(&n);
        prop_assert_eq!(format!("{n:x}"), format!("{old:x}"));
        prop_assert_eq!(format!("{n:#x}"), format!("{old:#x}"));
        prop_assert_eq!(format!("{n:width$x}"), format!("{old:width$x}"));
        prop_assert_eq!(format!("{n:#0width$x}"), format!("{old:#0width$x}"));
        prop_assert_eq!(format!("{n:<width$x}"), format!("{old:<width$x}"));
        prop_assert_eq!(n.to_hex(), format!("{old:x}"));
    }
}
