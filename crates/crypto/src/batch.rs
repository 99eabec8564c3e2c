//! Small-exponents randomized batch *screening* (Bellare–Garay–Rabin)
//! with bisection fallback and exact per-item settlement.
//!
//! To verify k FDH signatures `(hᵢ, sᵢ)` against one public key `(N, e)`,
//! draw random nonzero weights `rᵢ` and test the single equation
//!
//! ```text
//! (Π sᵢ^{rᵢ})^e  ≡  Π hᵢ^{rᵢ}   (mod N)
//! ```
//!
//! Both products run through [`MontgomeryContext::multi_modpow`] (one
//! shared squaring chain). The weights are essential to the screen's
//! discriminating power — a weightless product check cannot even tell
//! swapped signatures apart (`s₁ ↔ s₂` leaves `Π sᵢ` unchanged) — and
//! with independent full-range `λ`-bit weights (`λ = 32` here) the
//! combined equality binds every item to `sᵢ^e ≡ ±hᵢ` except with
//! probability `~2^{-λ}`.
//!
//! **Why the screen can never be the accept authority in `Z_N*`.** The
//! group `Z_N*` contains `-1`, an element of order 2 that anyone can
//! compute without factoring `N`. Replacing a valid signature `s` with
//! `N - s` multiplies the combined left-hand side by `(-1)^{rᵢ·e}`, so
//! the cheat survives the combined equality whenever the weight parities
//! over the flipped items cancel: with probability 1 if the parities are
//! fixed (e.g. weights forced odd — a bug this module once had), and
//! still with probability 1/2 per check even with secret full-range
//! weights, because one group equation leaks only one parity bit about
//! the sign vector. No product-based test in `Z_N*` can do better — the
//! standard `2^{-λ}` small-exponents bound assumes a group of prime
//! order, which `Z_N*` is not.
//!
//! **Exact settlement.** Verdicts therefore never come from the combined
//! check alone. A passing screen is *settled*: every screened item is
//! confirmed with the exact serial equation `sᵢ^e ≡ hᵢ` before being
//! reported valid. For recurring residues that confirmation runs over
//! the fixed-base ladder the item must build anyway to go warm — about
//! two Montgomery multiplies on top of the squaring chain — so
//! settlement is nearly free on the path that matters. A failing screen
//! bisects; single-item leaves run the same exact equation. Either way
//! the accept/reject vector equals the serial path's **unconditionally**,
//! for every weight sequence, including adversarially known ones: the
//! weights bound wasted work (how quickly a bad batch is localized),
//! never the verdicts.
//!
//! [`MontgomeryContext::multi_modpow`]: jaap_bigint::MontgomeryContext::multi_modpow

use jaap_bigint::Nat;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::precomp::ModulusPrecomp;

/// One signature to batch: the FDH-encoded digest and the raw residue.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// `FDH(msg, N)` — the expected value of `sig^e mod N`.
    pub(crate) h: Nat,
    /// The signature residue.
    pub(crate) sig: Nat,
}

/// The outcome of a batch: per-item verdicts plus work counters.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// `results[i]` ⟺ item `i` verifies (same verdicts as serial).
    pub results: Vec<bool>,
    /// Combined (multi-item) screening checks performed.
    pub combined_checks: u64,
    /// Combined checks that failed and fell back to bisection.
    pub fallbacks: u64,
    /// Single-item exact checks performed (bisection leaves).
    pub(crate) leaf_checks: u64,
    /// Exact per-item confirmations of screened (combined-pass) items.
    pub(crate) settle_checks: u64,
}

/// Verifies `items` against the key behind `mp`: one combined screening
/// check, exact per-item settlement on a pass, bisection on a failure.
///
/// `seed` drives the weight RNG. The verdicts are exact for **any** seed
/// (see the module docs — every reported accept was individually
/// confirmed), so fixed seeds in tests are safe; but the seed should
/// still be unpredictable to whoever submitted the signatures
/// (`rand::SeedableRng::from_os_rng`-derived, as the coalition server
/// does), because weight-aware adversaries can otherwise steer the
/// screen toward worst-case bisection work. Equal seeds reproduce
/// identical work counters.
///
/// `recurring` marks the signature residues as recurring bases (standing
/// certificates re-presented on every request; leave it off for one-shot
/// residues). It changes the cost model, never the verdicts:
///
/// * items whose fixed-base ladder is already warm are peeled off into
///   exact single-item leaf checks — with `e = 2¹⁶ + 1` a warm ladder
///   check is two Montgomery multiplies, far below the ~30-multiply
///   marginal share of a combined product, so re-combining warm bases
///   would only slow the batch down;
/// * the remaining cold items run the combined screen, and their exact
///   settlement (or bisection leaf) checks build their ladders (one
///   squaring chain each, amortized against every future presentation)
///   so the next batch takes the warm path.
#[must_use]
pub fn verify_batch(
    mp: &ModulusPrecomp,
    items: &[BatchItem],
    seed: u64,
    recurring: bool,
) -> BatchOutcome {
    let n = mp.context().modulus();
    let mut out = BatchOutcome {
        results: vec![false; items.len()],
        ..BatchOutcome::default()
    };
    // Range prefilter: out-of-range residues are rejected without any
    // arithmetic (exactly as `RsaPublicKey::verify` rejects them) and
    // must not poison the combined product.
    let candidates: Vec<usize> = (0..items.len())
        .filter(|&i| !items[i].sig.is_zero() && items[i].sig < *n)
        .collect();
    if candidates.is_empty() {
        return out;
    }
    // Warm-ladder bypass: leaf-check known bases exactly, combine the rest.
    let mut cold: Vec<usize> = Vec::with_capacity(candidates.len());
    for &i in &candidates {
        if recurring && mp.has_window(&items[i].sig) {
            out.leaf_checks += 1;
            out.results[i] = mp.verify(&items[i].h, &items[i].sig, true);
        } else {
            cold.push(i);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Full-range nonzero 32-bit weights. Parities must stay free: any
    // fixed parity (the old `| 1`) lets `-1 ∈ Z_N*` cancel out of the
    // combined product deterministically (module docs). Zero is
    // resampled so no item rides the screen unweighted.
    let weights: Vec<Nat> = cold
        .iter()
        .map(|_| loop {
            let w = rng.next_u32();
            if w != 0 {
                break Nat::from(u64::from(w));
            }
        })
        .collect();
    check(mp, items, &cold, &weights, recurring, &mut out);
    out
}

/// Recursive combined check over `idx` (indices into `items`, parallel to
/// `weights` via position in `idx`'s original ordering — both slices
/// shrink together).
fn check(
    mp: &ModulusPrecomp,
    items: &[BatchItem],
    idx: &[usize],
    weights: &[Nat],
    recurring: bool,
    out: &mut BatchOutcome,
) {
    debug_assert_eq!(idx.len(), weights.len());
    if idx.is_empty() {
        return;
    }
    if idx.len() == 1 {
        let it = &items[idx[0]];
        out.leaf_checks += 1;
        out.results[idx[0]] = mp.verify(&it.h, &it.sig, recurring);
        return;
    }
    let ctx = mp.context();
    let sig_pairs: Vec<(&Nat, &Nat)> = idx
        .iter()
        .zip(weights)
        .map(|(&i, r)| (&items[i].sig, r))
        .collect();
    let h_pairs: Vec<(&Nat, &Nat)> = idx
        .iter()
        .zip(weights)
        .map(|(&i, r)| (&items[i].h, r))
        .collect();
    let lhs = ctx.modpow(&ctx.multi_modpow(&sig_pairs), mp.exponent());
    let rhs = ctx.multi_modpow(&h_pairs);
    out.combined_checks += 1;
    if lhs == rhs {
        // The combined equality only binds each item to `sᵢ^e ≡ ±hᵢ`
        // (the -1 subgroup of Z_N* can cancel across the weighted
        // product — module docs), so it screens rather than accepts:
        // settle every item with the exact serial equation. Recurring
        // residues settle over the fixed-base ladder they must build
        // anyway to go warm, so the confirmation is ~2 multiplies.
        for &i in idx {
            out.settle_checks += 1;
            out.results[i] = mp.verify(&items[i].h, &items[i].sig, recurring);
        }
        return;
    }
    out.fallbacks += 1;
    let mid = idx.len() / 2;
    check(mp, items, &idx[..mid], &weights[..mid], recurring, out);
    check(mp, items, &idx[mid..], &weights[mid..], recurring, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdh;
    use crate::precomp::VerifierPrecomp;
    use crate::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup(count: usize) -> (Arc<ModulusPrecomp>, Vec<BatchItem>) {
        let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(77), 192).expect("keygen");
        let precomp = VerifierPrecomp::new();
        let n = kp.public().modulus().clone();
        let mp = precomp
            .for_key(&n, kp.public().exponent())
            .expect("odd modulus");
        let items = (0..count)
            .map(|i| {
                let msg = format!("batch message {i}");
                let sig = kp.sign(msg.as_bytes()).expect("sign");
                BatchItem {
                    h: fdh::encode(msg.as_bytes(), &n),
                    sig: sig.value().clone(),
                }
            })
            .collect();
        (mp, items)
    }

    #[test]
    fn all_valid_passes_in_one_combined_check() {
        let (mp, items) = setup(8);
        let out = verify_batch(&mp, &items, 1, true);
        assert!(out.results.iter().all(|&r| r));
        assert_eq!(out.combined_checks, 1);
        assert_eq!(out.fallbacks, 0);
        assert_eq!(out.leaf_checks, 0);
        // Every screened accept is individually confirmed.
        assert_eq!(out.settle_checks, 8);
    }

    #[test]
    fn warm_bases_skip_the_combined_check() {
        let (mp, items) = setup(8);
        // Cold pass: one combined screen, settled exactly — the
        // settlement checks build the ladders.
        let cold = verify_batch(&mp, &items, 1, true);
        assert_eq!(cold.combined_checks, 1);
        assert_eq!(cold.leaf_checks, 0);
        assert_eq!(cold.settle_checks, 8);
        // Warm pass: every base is known, so each item is an exact leaf
        // check over its ladder — no combined product at all.
        let warm = verify_batch(&mp, &items, 1, true);
        assert!(warm.results.iter().all(|&r| r));
        assert_eq!(warm.combined_checks, 0);
        assert_eq!(warm.leaf_checks, 8);
        assert_eq!(warm.settle_checks, 0);
        // One-shot residues never earn ladders and always combine.
        let oneshot = verify_batch(&mp, &items, 1, false);
        assert_eq!(oneshot.combined_checks, 1);
        assert_eq!(oneshot.leaf_checks, 0);
        assert_eq!(oneshot.settle_checks, 8);
    }

    #[test]
    fn bisection_pins_the_exact_offender() {
        let (mp, mut items) = setup(8);
        items[5].sig = items[5].sig.addm(&Nat::one(), mp.context().modulus());
        let out = verify_batch(&mp, &items, 2, false);
        for (i, &r) in out.results.iter().enumerate() {
            assert_eq!(r, i != 5, "item {i}");
        }
        assert!(out.fallbacks >= 1, "combined check must fail");
        // Bisection needs only O(log k) leaf checks, not k.
        assert!(out.leaf_checks <= 4, "got {}", out.leaf_checks);
        // Every verdict came from exactly one exact check.
        assert_eq!(out.leaf_checks + out.settle_checks, 8);
    }

    #[test]
    fn minus_s_maul_is_rejected_for_every_seed() {
        // REVIEW regression: -1 has order 2 in Z_N*, so replacing an
        // *even* number of valid signatures s with N - s cancels out of
        // the weighted product whenever the flipped weights' parities
        // sum to zero — with the old forced-odd weights, always. The
        // screen may pass or fail depending on the seed; the verdicts
        // must reject the mauled items either way (settlement on a
        // pass, bisection on a failure), in both residue modes.
        let (mp, mut items) = setup(8);
        let n = mp.context().modulus().clone();
        for i in [2usize, 6] {
            items[i].sig = &n - &items[i].sig;
        }
        let (mut screened, mut bisected) = (0u32, 0u32);
        for seed in 0..16u64 {
            for recurring in [false, true] {
                let out = verify_batch(&mp, &items, seed, recurring);
                for (i, &r) in out.results.iter().enumerate() {
                    assert_eq!(r, i != 2 && i != 6, "item {i}, seed {seed}");
                }
                if !recurring {
                    if out.fallbacks == 0 {
                        screened += 1;
                    } else {
                        bisected += 1;
                    }
                }
            }
        }
        // With free weight parities both screen outcomes occur across
        // the seeds (each has probability 1/2 per draw); the screened
        // case is the one the old code falsely accepted.
        assert!(screened > 0, "no seed exercised settle-side rejection");
        assert!(bisected > 0, "no seed exercised bisection rejection");
    }

    #[test]
    fn swapped_signatures_are_rejected() {
        // The classic attack a weightless product check misses: swapping
        // two valid signatures leaves Π sᵢ unchanged.
        let (mp, mut items) = setup(6);
        items.swap(1, 4);
        let tmp = items[1].h.clone();
        items[1].h = items[4].h.clone();
        items[4].h = tmp;
        // (h, sig) pairs are now crosswise: h₁ with sig₄ and vice versa.
        let out = verify_batch(&mp, &items, 3, false);
        assert!(!out.results[1]);
        assert!(!out.results[4]);
        for i in [0, 2, 3, 5] {
            assert!(out.results[i], "item {i} is untouched");
        }
    }

    #[test]
    fn out_of_range_residues_rejected_without_poisoning() {
        let (mp, mut items) = setup(4);
        items[0].sig = Nat::zero();
        items[2].sig = mp.context().modulus().clone();
        let out = verify_batch(&mp, &items, 4, false);
        assert_eq!(out.results, vec![false, true, false, true]);
        assert_eq!(out.fallbacks, 0, "in-range items pass in one check");
        assert_eq!(out.settle_checks, 2, "only in-range items settle");
    }

    mod serial_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Batch verdicts equal the serial per-item verdicts under
            /// arbitrary corruption patterns and weight seeds.
            #[test]
            fn matches_serial_verdicts_under_random_corruption(
                corrupt in proptest::collection::vec(any::<bool>(), 7),
                delta in any::<u64>(),
                seed in any::<u64>(),
                recurring in any::<bool>(),
            ) {
                let (mp, mut mutated) = setup(7);
                let n = mp.context().modulus().clone();
                for (i, c) in corrupt.iter().enumerate() {
                    if *c {
                        mutated[i].sig = mutated[i].sig.addm(&Nat::from(delta | 1), &n);
                    }
                }
                let serial: Vec<bool> = mutated
                    .iter()
                    .map(|it| mp.verify(&it.h, &it.sig, false))
                    .collect();
                let out = verify_batch(&mp, &mutated, seed, recurring);
                prop_assert_eq!(out.results, serial);
            }
        }
    }
}
