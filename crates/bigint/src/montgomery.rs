//! Montgomery-form modular arithmetic for odd moduli.
//!
//! A [`MontgomeryContext`] precomputes, for an odd modulus `n` of `k`
//! 64-bit limbs, the word inverse `n' = -n⁻¹ mod 2⁶⁴` and `R² mod n`
//! (with `R = 2^{64k}`). Every exponentiation then runs on one fixed-width
//! kernel over `k`-limb slices:
//!
//! * **multiply** — fused CIOS (coarsely integrated operand scanning): the
//!   product row and the reduction row share one inner loop, so each limb
//!   of `a` costs one sweep instead of a full-width `div_rem`;
//! * **square** — the triangular square (each cross product `aᵢaⱼ` once,
//!   doubled) into a `(2k+1)`-limb buffer, then a word-by-word REDC in
//!   place;
//! * **final step** — one conditional subtraction of `n` written straight
//!   into the destination.
//!
//! Operands are reduced and padded to `k` limbs once on entry, and each
//! call to [`MontgomeryContext::modpow`], [`MontgomeryContext::fixed_base`],
//! [`FixedBaseWindow::modpow`] or [`MontgomeryContext::multi_modpow`]
//! allocates its `(2k+1)`-limb scratch once; the steps in between allocate
//! nothing. The arithmetic is exact, so results equal the reference
//! [`Nat::modpow_plain`] bit for bit.

use crate::Nat;

/// Precomputed reduction context for one odd modulus.
#[derive(Debug, Clone)]
pub struct MontgomeryContext {
    /// The modulus `n` (odd, > 1); its limbs are exactly `k` wide.
    n: Nat,
    /// `-n⁻¹ mod 2⁶⁴` (Dussé–Kaliski word inverse).
    n0_inv: u64,
    /// `R² mod n` padded to `k` limbs, used to convert into Montgomery form.
    r2: Vec<u64>,
}

impl MontgomeryContext {
    /// Builds a context for `n`. Returns `None` unless `n` is odd and > 1
    /// (Montgomery reduction requires `gcd(n, 2⁶⁴) = 1`).
    #[must_use]
    pub fn new(n: &Nat) -> Option<Self> {
        if n.is_even() || n.is_one() || n.is_zero() {
            return None;
        }
        let k = n.limbs().len();
        let n0_inv = word_inverse(n.limbs()[0]).wrapping_neg();
        // R² mod n with R = 2^(64k): one shift + one division at setup.
        let mut r2 = Nat::one().shl_bits(128 * k).rem_nat(n).limbs;
        r2.resize(k, 0);
        Some(MontgomeryContext {
            n: n.clone(),
            n0_inv,
            r2,
        })
    }

    /// The modulus this context reduces by.
    #[must_use]
    pub fn modulus(&self) -> &Nat {
        &self.n
    }

    /// Sliding-window modular exponentiation `base^exp mod n` through the
    /// Montgomery kernel. `base` need not be reduced.
    ///
    /// The window table holds the odd powers `b, b³, …, b^(2^w − 1)`. An
    /// exponent with at most two set bits (`e = 2¹⁶ + 1`, `2^j`) takes
    /// width 1 — a table of `b` alone, so `e = 65537` costs 16 squarings,
    /// one multiply and the two conversions.
    #[must_use]
    pub fn modpow(&self, base: &Nat, exp: &Nat) -> Nat {
        if exp.is_zero() {
            return Nat::one();
        }
        let k = self.k();
        let sparse = exp.limbs().iter().map(|l| l.count_ones()).sum::<u32>() <= 2;
        let win = if sparse {
            1
        } else {
            crate::modular::window_bits(exp.bit_len())
        };
        // The call's one scratch allocation: kernel buffer, accumulator,
        // and the odd powers table[i] = b^(2i + 1) in flat k-limb rows.
        let mut buf = vec![0u64; 3 * k + 1 + (k << (win - 1))];
        let (w, rest) = buf.split_at_mut(2 * k + 1);
        let (acc, table) = rest.split_at_mut(k);
        self.enter(base, &mut table[..k], w);
        if is_zero(&table[..k]) {
            return Nat::zero();
        }
        if win > 1 {
            // acc holds b² until the scan's first window overwrites it.
            acc.copy_from_slice(&table[..k]);
            self.sqr(acc, w);
            for i in 1..(1usize << (win - 1)) {
                let (done, rest) = table.split_at_mut(i * k);
                rest[..k].copy_from_slice(&done[(i - 1) * k..]);
                self.mul(&mut rest[..k], acc, w);
            }
        }
        let mut started = false;
        let mut i = exp.bit_len() as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                if started {
                    self.sqr(acc, w);
                }
                i -= 1;
                continue;
            }
            // Take the widest window [l..=i] (≤ win bits) ending on a set bit.
            let mut l = (i - win as isize + 1).max(0);
            while !exp.bit(l as usize) {
                l += 1;
            }
            let mut val = 0usize;
            for j in (l..=i).rev() {
                val = (val << 1) | usize::from(exp.bit(j as usize));
            }
            debug_assert!(val & 1 == 1);
            let entry = &table[(val >> 1) * k..][..k];
            if started {
                for _ in l..=i {
                    self.sqr(acc, w);
                }
                self.mul(acc, entry, w);
            } else {
                acc.copy_from_slice(entry);
                started = true;
            }
            i = l - 1;
        }
        self.leave(acc, w)
    }

    /// Builds a fixed-base ladder `base^(2^i) mod n` (in Montgomery form)
    /// sized for exponents up to `max_exp_bits` bits. Building costs
    /// `max_exp_bits - 1` Montgomery squarings **once**; every later
    /// [`FixedBaseWindow::modpow`] with this base is then one Montgomery
    /// multiply per *set* exponent bit and zero squarings — the right
    /// trade when the same base (a verification key residue, a standing
    /// certificate signature) is exponentiated again and again.
    #[must_use]
    pub fn fixed_base(&self, base: &Nat, max_exp_bits: usize) -> FixedBaseWindow {
        let k = self.k();
        let mut w = self.scratch();
        let len = max_exp_bits.max(1);
        let mut pow2 = vec![0u64; len * k];
        self.enter(base, &mut pow2[..k], &mut w);
        if is_zero(&pow2[..k]) {
            // base ≡ 0 mod n: the empty ladder is the sentinel.
            return FixedBaseWindow {
                k,
                pow2: Vec::new(),
            };
        }
        for i in 1..len {
            let (done, rest) = pow2.split_at_mut(i * k);
            rest[..k].copy_from_slice(&done[(i - 1) * k..]);
            self.sqr(&mut rest[..k], &mut w);
        }
        FixedBaseWindow { k, pow2 }
    }

    /// Straus/Shamir interleaved multi-exponentiation:
    /// `Π baseᵢ^expᵢ mod n` with one **shared** squaring chain across all
    /// bases instead of one chain per base. Each base gets a full
    /// `2^w - 1`-entry digit table; the exponents are scanned in aligned
    /// `w`-bit windows from the top, squaring `w` times per window and
    /// multiplying in each base's digit. For m bases of b-bit exponents
    /// this is `b` squarings + ~`m·b/w` multiplies versus `m·b` squarings
    /// serially — the recombination shape of joint/threshold signing
    /// (`S = Π Mᵢ^{dᵢ}`) and of batched verification.
    #[must_use]
    pub fn multi_modpow(&self, pairs: &[(&Nat, &Nat)]) -> Nat {
        let active: Vec<(&Nat, &Nat)> = pairs
            .iter()
            .filter(|(_, exp)| !exp.is_zero()) // factors of 1
            .copied()
            .collect();
        let Some(max_bits) = active.iter().map(|(_, exp)| exp.bit_len()).max() else {
            return Nat::one();
        };
        // Pick the window by total multiply count for *this* shape: per
        // base a `2^w - 2`-multiply table plus one multiply per nonzero
        // `w`-bit digit (`⌈b/w⌉ · (1 - 2^{-w})` on average). For short
        // exponents (batch-verification weights are 32 bits) wide windows
        // lose — the tables dominate — so w=2 wins there, while long
        // recombination exponents still get w=4.
        let m = active.len() as f64;
        let b = max_bits as f64;
        let win = (1usize..=4)
            .min_by_key(|&w| {
                let table = m * (f64::from(1u32 << w) - 2.0);
                let digits = m * (b / w as f64).ceil() * (1.0 - f64::from(1u32 << w).recip());
                (table + digits) as u64
            })
            .unwrap_or(2);
        // Full digit tables, flat in k-limb rows: row d-1 of base i's
        // table is baseᵢ^d for d in 1..2^w.
        let k = self.k();
        let rows = (1usize << win) - 1;
        let mut w = self.scratch();
        let mut tables = Vec::with_capacity(active.len());
        for (base, _) in &active {
            let mut t = vec![0u64; rows * k];
            self.enter(base, &mut t[..k], &mut w);
            if is_zero(&t[..k]) {
                return Nat::zero(); // 0^e (e > 0) annihilates the product
            }
            for d in 1..rows {
                let (done, rest) = t.split_at_mut(d * k);
                rest[..k].copy_from_slice(&done[(d - 1) * k..]);
                self.mul(&mut rest[..k], &done[..k], &mut w);
            }
            tables.push(t);
        }
        let mut acc = vec![0u64; k];
        let mut started = false;
        for lo in (0..max_bits.div_ceil(win)).rev().map(|i| i * win) {
            if started {
                for _ in 0..win {
                    self.sqr(&mut acc, &mut w);
                }
            }
            let hi = (lo + win).min(max_bits);
            for (table, (_, exp)) in tables.iter().zip(&active) {
                let mut d = 0usize;
                for j in (lo..hi).rev() {
                    d = (d << 1) | usize::from(exp.bit(j));
                }
                if d == 0 {
                    continue;
                }
                let entry = &table[(d - 1) * k..][..k];
                if started {
                    self.mul(&mut acc, entry, &mut w);
                } else {
                    acc.copy_from_slice(entry);
                    started = true;
                }
            }
        }
        // The top window holds a set bit of the widest exponent.
        debug_assert!(started);
        self.leave(&mut acc, &mut w)
    }

    /// Limb width `k` of the modulus.
    fn k(&self) -> usize {
        self.n.limbs.len()
    }

    /// One call's scratch: the `(2k+1)`-limb product buffer every kernel
    /// step shares (a multiply uses its low `k + 1` limbs).
    fn scratch(&self) -> Vec<u64> {
        vec![0u64; 2 * self.k() + 1]
    }

    /// Writes `a` (any natural) into the `k`-limb `out` in Montgomery form
    /// `aR mod n`: the only place an operand is reduced or widened.
    fn enter(&self, a: &Nat, out: &mut [u64], w: &mut [u64]) {
        let reduced;
        let a = if a >= &self.n {
            reduced = a.rem_nat(&self.n);
            &reduced
        } else {
            a
        };
        let (low, high) = out.split_at_mut(a.limbs.len());
        low.copy_from_slice(&a.limbs);
        high.fill(0);
        self.mul(out, &self.r2, w);
    }

    /// Converts `aR mod n` back to the ordinary residue `a mod n`: one
    /// REDC of `a` widened with zero high limbs.
    fn leave(&self, a: &mut [u64], w: &mut [u64]) -> Nat {
        let k = self.k();
        w[..k].copy_from_slice(a);
        w[k..].fill(0);
        self.reduce(w, a);
        Nat::from_limbs(a.to_vec())
    }

    /// `a ← a·b·R⁻¹ mod n` by fused CIOS, for any `k`-limb `a` and a
    /// `k`-limb `b` below `n`; `w` is the call's scratch.
    fn mul(&self, a: &mut [u64], b: &[u64], w: &mut [u64]) {
        let n = self.n.limbs();
        let k = n.len();
        assert!(a.len() == k && b.len() == k, "operand width");
        // t holds the running row (k limbs) plus one carry limb; it stays
        // below 2n after every row.
        let t = &mut w[..=k];
        t.fill(0);
        for &ai in a.iter() {
            // Row j = 0 fixes m so that t + ai·b + m·n clears the low word,
            // then the shared inner loop adds both rows and shifts down one.
            let s = u128::from(t[0]) + u128::from(ai) * u128::from(b[0]);
            let m = (s as u64).wrapping_mul(self.n0_inv);
            let r = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            let mut c1 = (s >> 64) as u64;
            let mut c2 = (r >> 64) as u64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + u128::from(c1);
                let r = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + u128::from(c2);
                t[j - 1] = r as u64;
                c1 = (s >> 64) as u64;
                c2 = (r >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(c1) + u128::from(c2);
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
        self.final_sub(&w[..=k], a);
    }

    /// `a ← a²·R⁻¹ mod n`: the triangular square of `a` into `w`, then REDC.
    fn sqr(&self, a: &mut [u64], w: &mut [u64]) {
        let k = self.k();
        assert!(a.len() == k && w.len() == 2 * k + 1, "operand width");
        w.fill(0);
        // Strictly-upper-triangle products aᵢaⱼ (i < j): row i lands on
        // limbs 2i+1 ..= i+k …
        for (i, &ai) in a.iter().enumerate() {
            let (row, rest) = w[2 * i + 1..].split_at_mut(k - i - 1);
            let mut c = 0u64;
            for (x, &aj) in row.iter_mut().zip(&a[i + 1..]) {
                let s = u128::from(*x) + u128::from(ai) * u128::from(aj) + u128::from(c);
                *x = s as u64;
                c = (s >> 64) as u64;
            }
            rest[0] = c;
        }
        // … doubled by a one-bit shift, plus the diagonal aᵢ².
        let mut top = 0u64;
        for x in &mut w[..2 * k] {
            let v = *x;
            *x = (v << 1) | top;
            top = v >> 63;
        }
        let mut c = 0u64;
        for (pair, &ai) in w.chunks_exact_mut(2).zip(a.iter()) {
            let d = u128::from(ai) * u128::from(ai);
            let s = u128::from(pair[0]) + u128::from(d as u64) + u128::from(c);
            pair[0] = s as u64;
            let s = u128::from(pair[1]) + (d >> 64) + (s >> 64);
            pair[1] = s as u64;
            c = (s >> 64) as u64;
        }
        debug_assert_eq!(c, 0, "a² fits in 2k limbs");
        self.reduce(w, a);
    }

    /// Word-by-word REDC of the `2k`-limb value in `w` (below `nR`, with
    /// `w[2k]` free for the top carry) into `out = w·R⁻¹ mod n`.
    fn reduce(&self, w: &mut [u64], out: &mut [u64]) {
        let n = self.n.limbs();
        let k = n.len();
        assert!(w.len() == 2 * k + 1, "operand width");
        // `top` is the carry out of limb i + k of the previous row, which
        // lands on limb i + k of this one.
        let mut top = 0u64;
        for i in 0..k {
            let m = w[i].wrapping_mul(self.n0_inv);
            let row = &mut w[i..=i + k];
            let mut c = 0u64;
            for (x, &nj) in row.iter_mut().zip(n) {
                let s = u128::from(*x) + u128::from(m) * u128::from(nj) + u128::from(c);
                *x = s as u64;
                c = (s >> 64) as u64;
            }
            let s = u128::from(row[k]) + u128::from(c) + u128::from(top);
            row[k] = s as u64;
            top = (s >> 64) as u64;
        }
        w[2 * k] = top;
        self.final_sub(&w[k..], out);
    }

    /// Writes the `(k+1)`-limb value `t < 2n` reduced below `n` into the
    /// `k`-limb `out`: subtract `n` once, and keep `t` itself when that
    /// borrows past its carry limb (`t < n`). No allocation.
    fn final_sub(&self, t: &[u64], out: &mut [u64]) {
        let n = self.n.limbs();
        let k = n.len();
        let mut borrow = false;
        for ((o, &x), &y) in out.iter_mut().zip(&t[..k]).zip(n) {
            let (d, b1) = x.overflowing_sub(y);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *o = d;
            borrow = b1 || b2;
        }
        debug_assert!(
            t[k] <= 1 && (borrow || t[k] == 0),
            "Montgomery output out of range"
        );
        if borrow && t[k] == 0 {
            out.copy_from_slice(&t[..k]);
        }
    }
}

/// Fixed-base precomputation: the powers-of-two ladder `base^(2^i) mod n`
/// in Montgomery form. See [`MontgomeryContext::fixed_base`]. The ladder
/// is immutable after construction, so it can sit behind an `Arc` and be
/// shared across verification threads without locks.
#[derive(Debug, Clone)]
pub struct FixedBaseWindow {
    /// Limb width of the context the ladder was built from.
    k: usize,
    /// `base^(2^i)` in Montgomery form as flat `k`-limb rows; empty iff
    /// `base ≡ 0 mod n`.
    pow2: Vec<u64>,
}

impl FixedBaseWindow {
    /// Number of exponent bits the precomputed ladder covers directly.
    /// Larger exponents still work — the ladder extends itself on the fly
    /// at one squaring per extra bit.
    #[must_use]
    pub(crate) fn max_bits(&self) -> usize {
        self.pow2.len() / self.k
    }

    /// Approximate heap footprint in bytes (for cache budgeting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        core::mem::size_of_val(self.pow2.as_slice())
    }

    /// `base^exp mod n`. `ctx` **must** be the context the ladder was
    /// built from (same modulus); results are nonsense otherwise.
    #[must_use]
    pub fn modpow(&self, ctx: &MontgomeryContext, exp: &Nat) -> Nat {
        let k = self.k;
        assert_eq!(k, ctx.k(), "ladder built from a different context");
        if exp.is_zero() {
            // base^0 = 1, matching `modpow`'s convention even for base ≡ 0.
            return Nat::one();
        }
        if self.pow2.is_empty() {
            return Nat::zero(); // base ≡ 0 mod n
        }
        let mut buf = vec![0u64; 3 * k + 1];
        let (w, acc) = buf.split_at_mut(2 * k + 1);
        let mut started = false;
        let mut fold = |acc: &mut [u64], p: &[u64], w: &mut [u64]| {
            if started {
                ctx.mul(acc, p, w);
            } else {
                acc.copy_from_slice(p);
                started = true;
            }
        };
        let bits = exp.bit_len();
        let rows = self.max_bits();
        for (i, p) in self.pow2.chunks_exact(k).enumerate().take(bits) {
            if exp.bit(i) {
                fold(acc, p, w);
            }
        }
        if bits > rows {
            // Exponent outgrew the table: continue the ladder on the fly.
            let mut cur = self.pow2[(rows - 1) * k..].to_vec();
            for i in rows..bits {
                ctx.sqr(&mut cur, w);
                if exp.bit(i) {
                    fold(acc, &cur, w);
                }
            }
        }
        ctx.leave(acc, w)
    }
}

/// Whether a fixed-width value is zero.
fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Inverse of an odd word mod 2⁶⁴ by Newton–Hensel lifting: each step
/// doubles the number of correct low bits, so five steps from a 5-bit-exact
/// seed cover 64 bits.
fn word_inverse(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 5 bits for odd x (x*x ≡ 1 mod 32)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// `Nat`-level views of the kernel steps, for checking them against the
/// reference arithmetic.
#[cfg(test)]
impl MontgomeryContext {
    pub(crate) fn to_mont(&self, a: &Nat) -> Nat {
        let mut x = vec![0u64; self.k()];
        self.enter(a, &mut x, &mut self.scratch());
        Nat::from_limbs(x)
    }

    pub(crate) fn unmont(&self, a: &Nat) -> Nat {
        self.leave(&mut self.padded(a), &mut self.scratch())
    }

    pub(crate) fn mont_mul(&self, a: &Nat, b: &Nat) -> Nat {
        let mut x = self.padded(a);
        self.mul(&mut x, &self.padded(b), &mut self.scratch());
        Nat::from_limbs(x)
    }

    pub(crate) fn mont_sqr(&self, a: &Nat) -> Nat {
        let mut x = self.padded(a);
        self.sqr(&mut x, &mut self.scratch());
        Nat::from_limbs(x)
    }

    /// REDC of a double-width value `t < nR`.
    fn redc(&self, t: Nat) -> Nat {
        let mut w = self.scratch();
        w[..t.limbs.len()].copy_from_slice(&t.limbs);
        let mut out = vec![0u64; self.k()];
        self.reduce(&mut w, &mut out);
        Nat::from_limbs(out)
    }

    fn padded(&self, a: &Nat) -> Vec<u64> {
        let mut x = a.limbs.clone();
        x.resize(self.k(), 0);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u128) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryContext::new(&nat(10)).is_none());
        assert!(MontgomeryContext::new(&Nat::one()).is_none());
        assert!(MontgomeryContext::new(&Nat::zero()).is_none());
        assert!(MontgomeryContext::new(&nat(9)).is_some());
    }

    #[test]
    fn word_inverse_random_odds() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..50 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let odd = x | 1;
            assert_eq!(odd.wrapping_mul(word_inverse(odd)), 1);
        }
    }

    #[test]
    fn round_trip_through_montgomery_form() {
        let m: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("m");
        let ctx = MontgomeryContext::new(&m).expect("ctx");
        for v in [0u128, 1, 2, 0xDEADBEEF, u128::MAX - 17] {
            let a = nat(v).rem_nat(&m);
            assert_eq!(ctx.unmont(&ctx.to_mont(&a)), a);
        }
    }

    #[test]
    fn mont_mul_matches_mulm() {
        let m: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("m");
        let ctx = MontgomeryContext::new(&m).expect("ctx");
        let a = nat(0x1234_5678_9ABC_DEF0_1111);
        let b = nat(0xFEDC_BA98_7654_3210_2222);
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        assert_eq!(ctx.unmont(&ctx.mont_mul(&am, &bm)), a.mulm(&b, &m));
        assert_eq!(ctx.unmont(&ctx.mont_sqr(&am)), a.mulm(&a, &m));
    }

    #[test]
    fn modpow_matches_plain_on_fermat() {
        // 2^128 - 159 is prime: a^(p-1) ≡ 1 (mod p).
        let p: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("p");
        let e = &p - &Nat::one();
        let ctx = MontgomeryContext::new(&p).expect("ctx");
        for a in [2u128, 3, 65_537, 0xDEADBEEF] {
            assert_eq!(ctx.modpow(&nat(a), &e), Nat::one());
            assert_eq!(ctx.modpow(&nat(a), &e), nat(a).modpow_plain(&e, &p));
        }
    }

    #[test]
    fn modpow_edge_exponents() {
        let m = nat(1_000_003); // odd prime
        let ctx = MontgomeryContext::new(&m).expect("ctx");
        assert_eq!(ctx.modpow(&nat(5), &Nat::zero()), Nat::one());
        assert_eq!(ctx.modpow(&nat(5), &Nat::one()), nat(5));
        assert_eq!(ctx.modpow(&Nat::zero(), &nat(12)), Nat::zero());
        // Base larger than the modulus reduces first.
        assert_eq!(
            ctx.modpow(&nat(1_000_003 + 7), &nat(3)),
            nat(7).modpow_plain(&nat(3), &m)
        );
    }

    #[test]
    fn fixed_base_matches_modpow() {
        let p: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("p");
        let ctx = MontgomeryContext::new(&p).expect("ctx");
        let base = nat(0xDEAD_BEEF_CAFE);
        let win = ctx.fixed_base(&base, 64);
        for e in [0u128, 1, 2, 3, 65_537, 0xFFFF_FFFF_FFFF_FFFF] {
            assert_eq!(win.modpow(&ctx, &nat(e)), ctx.modpow(&base, &nat(e)));
        }
        // Exponent wider than the precomputed ladder: on-the-fly extension.
        let wide = &p - &Nat::one();
        assert_eq!(win.modpow(&ctx, &wide), ctx.modpow(&base, &wide));
    }

    #[test]
    fn fixed_base_zero_base_and_unreduced_base() {
        let m = nat(1_000_003);
        let ctx = MontgomeryContext::new(&m).expect("ctx");
        let zero_win = ctx.fixed_base(&Nat::zero(), 32);
        assert_eq!(zero_win.modpow(&ctx, &nat(5)), Nat::zero());
        assert_eq!(zero_win.modpow(&ctx, &Nat::zero()), Nat::one());
        let big = ctx.fixed_base(&nat(1_000_003 + 7), 32);
        assert_eq!(big.modpow(&ctx, &nat(3)), ctx.modpow(&nat(7), &nat(3)));
    }

    #[test]
    fn multi_modpow_matches_product_of_modpows() {
        let p: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("p");
        let ctx = MontgomeryContext::new(&p).expect("ctx");
        let pairs_raw = [
            (nat(3), nat(1_000_000_007)),
            (nat(0xDEADBEEF), nat(65_537)),
            (nat(12345), nat(0)),
            (nat(7), nat(0xFFFF_FFFF)),
        ];
        let pairs: Vec<(&Nat, &Nat)> = pairs_raw.iter().map(|(b, e)| (b, e)).collect();
        let mut expect = Nat::one();
        for (b, e) in &pairs_raw {
            expect = expect.mulm(&ctx.modpow(b, e), &p);
        }
        assert_eq!(ctx.multi_modpow(&pairs), expect);
    }

    #[test]
    fn multi_modpow_edge_cases() {
        let m = nat(1_000_003);
        let ctx = MontgomeryContext::new(&m).expect("ctx");
        // Empty product and all-zero exponents are 1.
        assert_eq!(ctx.multi_modpow(&[]), Nat::one());
        let (z, b) = (Nat::zero(), nat(9));
        assert_eq!(ctx.multi_modpow(&[(&b, &z)]), Nat::one());
        // A zero base with a positive exponent annihilates everything.
        let (e, big) = (nat(3), nat(1_000_003 * 2));
        assert_eq!(ctx.multi_modpow(&[(&b, &e), (&big, &e)]), Nat::zero());
    }

    #[test]
    fn redc_of_wide_product_reduces() {
        let m: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("m");
        let ctx = MontgomeryContext::new(&m).expect("ctx");
        let a = ctx.to_mont(&nat(0xABCDEF));
        let b = ctx.to_mont(&nat(0x123456));
        assert_eq!(ctx.redc(a.mul_nat(&b)), ctx.mont_mul(&a, &b));
    }
}
