//! Full-domain hashing: deterministic encoding of a message as a residue
//! modulo `N`.
//!
//! Joint and threshold signatures need every co-signer to exponentiate the
//! *same* representative of the message, so we use an MGF1-style
//! counter-expanded SHA-256 full-domain hash truncated to `bit_len(N) - 1`
//! bits. The message is hashed once into a 32-byte seed and the counter
//! expansion runs over the seed, so the cost of a long certificate body is
//! one pass, not one pass per 32 output bytes. Conventional [`crate::rsa`] signatures reuse the same encoding so a
//! verifier does not care which scheme produced a signature.

use jaap_bigint::Nat;

use crate::sha256::Sha256;

/// Domain-separation prefix so FDH outputs can never collide with key ids.
const DOMAIN: &[u8] = b"jaap-fdh-v2";

/// Encodes `msg` as a natural number in `[2, 2^(bits-1))` where
/// `bits = modulus.bit_len()`: `seed = SHA-256(DOMAIN ‖ msg)`, then the
/// stream `SHA-256(DOMAIN ‖ counter ‖ seed)` for `counter = 0, 1, …`
/// (big-endian `u32`), truncated to `bits - 1` bits.
///
/// The low end is clamped away from `0`/`1` because those fixed points make
/// degenerate "signatures" (`0^d = 0`, `1^d = 1`).
///
/// # Panics
///
/// Panics if `modulus` has fewer than 16 bits.
#[must_use]
pub fn encode(msg: &[u8], modulus: &Nat) -> Nat {
    let bits = modulus.bit_len();
    assert!(bits >= 16, "modulus too small for full-domain hashing");
    let out_bits = bits - 1;
    let out_bytes = out_bits.div_ceil(8);

    let mut seed = Sha256::new();
    seed.update(DOMAIN);
    seed.update(msg);
    let seed = seed.finalize();

    let mut stream = Vec::with_capacity(out_bytes + 32);
    let mut counter = 0u32;
    while stream.len() < out_bytes {
        let mut h = Sha256::new();
        h.update(DOMAIN);
        h.update(&counter.to_be_bytes());
        h.update(&seed);
        stream.extend_from_slice(&h.finalize());
        counter += 1;
    }
    stream.truncate(out_bytes);

    let mut value = Nat::from_bytes_be(&stream);
    // Mask down to exactly out_bits.
    for i in out_bits..value.bit_len() {
        value.set_bit(i, false);
    }
    if value < Nat::two() {
        value = Nat::two();
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulus_bits(bits: usize) -> Nat {
        Nat::one().shl_bits(bits - 1) // any value with that bit length
    }

    #[test]
    fn output_strictly_below_half_modulus_bits() {
        let m = modulus_bits(256);
        for msg in [&b""[..], b"x", b"a longer message body"] {
            let e = encode(msg, &m);
            assert!(e.bit_len() <= 255);
            assert!(e >= Nat::two());
        }
    }

    #[test]
    fn deterministic() {
        let m = modulus_bits(512);
        assert_eq!(encode(b"msg", &m), encode(b"msg", &m));
    }

    #[test]
    fn distinct_messages_distinct_encodings() {
        let m = modulus_bits(512);
        assert_ne!(encode(b"msg-a", &m), encode(b"msg-b", &m));
    }

    #[test]
    fn counter_expansion_covers_large_moduli() {
        // 2048-bit modulus needs 8 SHA-256 blocks of stream.
        let m = modulus_bits(2048);
        let e = encode(b"big", &m);
        assert!(e.bit_len() > 1900, "should fill most of the domain");
    }

    #[test]
    fn encoding_depends_on_modulus_size_not_value() {
        let m1 = modulus_bits(256);
        let m2 = &modulus_bits(256) + &Nat::from(12345u64);
        assert_eq!(encode(b"m", &m1), encode(b"m", &m2));
        // One more modulus bit widens the mask over the same stream: the
        // 256-bit encoding is the 257-bit one with bit 255 cleared, so the
        // two differ exactly for messages whose stream sets that bit.
        let m3 = modulus_bits(257);
        let mut differ = 0;
        for msg in [&b"m"[..], b"n", b"o", b"p", b"q", b"r", b"s", b"t"] {
            let mut wide = encode(msg, &m3);
            differ += usize::from(wide.bit(255));
            wide.set_bit(255, false);
            assert_eq!(encode(msg, &m1), wide);
        }
        assert!(differ > 0, "some message must use the wider domain");
    }

    /// Expected value computed independently from the definition:
    ///
    /// ```text
    /// python3 -c 'import hashlib as h;D=b"jaap-fdh-v2";s=h.sha256(D+b"jaap known-answer vector").digest();b=b"".join(h.sha256(D+i.to_bytes(4,"big")+s).digest() for i in range(8));print(format(int.from_bytes(b,"big")&(1<<2047)-1,"x"))'
    /// ```
    #[test]
    fn known_answer_at_2048_bits() {
        let expected = concat!(
            "19ed9be9e981322c2984996ab56476ff047eda1005e4c2657186474e04d8bb98",
            "23a25de1ab4baba16a286e8a429988e1469647ece72fbcda85428e9f5d684be2",
            "04f14f0a68a208617cb0bf01a725d551c6e5b07c7b91ec6478fe809647d3ca28",
            "a0bb0873af2d33548dc1b0a0f178642a5597b935c4d0aef05ad2829e51c685ab",
            "0032d361c0ac90c9a8e4383bceb36b68378b190f99f3c699185fe8756876d3db",
            "1727505b135a1c5c75cb68b61a3652918542f39ae5612e1297713fe1f2bcc6a3",
            "199cbd47031e2fc34101beec883ddb9e3681b90e6c6f2fabd4438181d970c1e5",
            "6ec33a9c4bd3d3f23cf39498002b293332787a5673ab43f03f23d4269b9b912a",
        );
        let e = encode(b"jaap known-answer vector", &modulus_bits(2048));
        assert_eq!(e.to_hex(), expected);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_modulus_panics() {
        let _ = encode(b"m", &Nat::from(255u64));
    }
}
