//! Deterministic TLV encoding for certificate bodies and signed artifacts.
//!
//! Signatures must be over canonical bytes; this tiny tag-length-value
//! scheme is the canonical form. Every field is written as
//! `tag(1) || len(4, big-endian) || value`, so distinct field sequences can
//! never collide.
//!
//! The same scheme is the one persistence codec for every signed artifact:
//! keys, signatures, validity windows, threshold subjects, ACLs, identity,
//! threshold and attribute certificates, revocations and CRLs each have
//! one `Encoder::put_*` / `Decoder::take_*` pair here. Certificate
//! *verification* never decodes (bodies are re-encoded from parsed fields
//! and compared under the signature), but durable storage does: the
//! coalition journal and the cert store write whole artifacts — signatures
//! included — inside their own record containers (each with its own
//! domain string and record tags) and decode them on recovery and lookup.

use jaap_bigint::Nat;
use jaap_core::certs::Validity;
use jaap_core::protocol::Acl;
use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::rsa::{RsaPublicKey, RsaSignature};

use crate::{
    AttributeCertificate, AttributeRevocation, Crl, CrlEntry, IdentityCertificate,
    IdentityRevocation, PkiError, ThresholdAttributeCertificate, ThresholdSubject,
};

/// Preallocation cap for a decoded list (see [`Decoder::take_list_of`]).
const MAX_PREALLOC: usize = 1024;

/// Field tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    /// UTF-8 string.
    Str = 1,
    /// Unsigned 64-bit integer.
    U64 = 2,
    /// Signed 64-bit integer (times).
    I64 = 3,
    /// Raw bytes.
    Bytes = 4,
    /// List header (value is the element count; elements follow).
    List = 5,
}

/// Canonical encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an encoder seeded with a domain-separation label.
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut e = Encoder { buf: Vec::new() };
        e.put_str(domain);
        e
    }

    /// Appends a string field.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put(Tag::Str, s.as_bytes())
    }

    /// Appends a `u64` field.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.put(Tag::U64, &v.to_be_bytes())
    }

    /// Appends an `i64` field (timestamps).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.put(Tag::I64, &v.to_be_bytes())
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.put(Tag::Bytes, b)
    }

    /// Appends a list header for `count` elements.
    pub fn put_list(&mut self, count: usize) -> &mut Self {
        self.put(Tag::List, &(count as u64).to_be_bytes())
    }

    /// The canonical bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn put(&mut self, tag: Tag, value: &[u8]) -> &mut Self {
        self.buf.push(tag as u8);
        self.buf.extend_from_slice(
            &u32::try_from(value.len())
                .expect("field too long")
                .to_be_bytes(),
        );
        self.buf.extend_from_slice(value);
        self
    }
}

/// Canonical decoder: reads fields back in the order — and with the tags —
/// they were written. Any mismatch (wrong tag, short buffer, bad UTF-8) is
/// a [`PkiError::Malformed`]; the caller treats the whole buffer as
/// corrupt. Strings and bytes are borrowed from the buffer, not copied.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding a buffer produced by [`Encoder::new`] with the same
    /// domain-separation label.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] if the leading domain field is absent or
    /// differs.
    pub fn new(buf: &'a [u8], domain: &str) -> Result<Self, PkiError> {
        let mut d = Decoder { buf, pos: 0 };
        let got = d.take_str()?;
        if got != domain {
            return Err(PkiError::Malformed(format!(
                "domain mismatch: expected {domain:?}, found {got:?}"
            )));
        }
        Ok(d)
    }

    /// Reads a string field.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on tag/length/UTF-8 mismatch.
    pub fn take_str(&mut self) -> Result<&'a str, PkiError> {
        std::str::from_utf8(self.take(Tag::Str)?)
            .map_err(|_| PkiError::Malformed("string field is not UTF-8".into()))
    }

    /// Reads a `u64` field.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on tag/length mismatch.
    pub fn take_u64(&mut self) -> Result<u64, PkiError> {
        let raw = self.take(Tag::U64)?;
        let arr: [u8; 8] = raw
            .try_into()
            .map_err(|_| PkiError::Malformed("u64 field is not 8 bytes".into()))?;
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads an `i64` field.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on tag/length mismatch.
    pub fn take_i64(&mut self) -> Result<i64, PkiError> {
        let raw = self.take(Tag::I64)?;
        let arr: [u8; 8] = raw
            .try_into()
            .map_err(|_| PkiError::Malformed("i64 field is not 8 bytes".into()))?;
        Ok(i64::from_be_bytes(arr))
    }

    /// Reads a raw-bytes field.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on tag/length mismatch.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], PkiError> {
        self.take(Tag::Bytes)
    }

    /// Reads a list header, returning the element count.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on tag/length mismatch or a count that
    /// cannot fit in `usize`.
    pub(crate) fn take_list(&mut self) -> Result<usize, PkiError> {
        let raw = self.take(Tag::List)?;
        let arr: [u8; 8] = raw
            .try_into()
            .map_err(|_| PkiError::Malformed("list header is not 8 bytes".into()))?;
        usize::try_from(u64::from_be_bytes(arr))
            .map_err(|_| PkiError::Malformed("list count overflows usize".into()))
    }

    /// Reads a list header and then `count` elements with `take`. The
    /// preallocation is capped, so a corrupt count cannot reserve memory
    /// the buffer does not back.
    ///
    /// # Errors
    ///
    /// The first error of the header or of any element.
    pub fn take_list_of<T>(
        &mut self,
        mut take: impl FnMut(&mut Self) -> Result<T, PkiError>,
    ) -> Result<Vec<T>, PkiError> {
        let count = self.take_list()?;
        let mut items = Vec::with_capacity(count.min(MAX_PREALLOC));
        for _ in 0..count {
            items.push(take(self)?);
        }
        Ok(items)
    }

    /// Ends decoding.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] if any byte is left unread.
    pub fn finish(self) -> Result<(), PkiError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PkiError::Malformed("trailing bytes after record".into()))
        }
    }

    fn take(&mut self, want: Tag) -> Result<&'a [u8], PkiError> {
        let header_end = self.pos.checked_add(5).filter(|&e| e <= self.buf.len());
        let Some(header_end) = header_end else {
            return Err(PkiError::Malformed("truncated field header".into()));
        };
        let tag = self.buf[self.pos];
        if tag != want as u8 {
            return Err(PkiError::Malformed(format!(
                "expected tag {want:?} ({}), found {tag}",
                want as u8
            )));
        }
        let len = u32::from_be_bytes(
            self.buf[self.pos + 1..header_end]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        let value_end = header_end.checked_add(len).filter(|&e| e <= self.buf.len());
        let Some(value_end) = value_end else {
            return Err(PkiError::Malformed("truncated field value".into()));
        };
        let value = &self.buf[header_end..value_end];
        self.pos = value_end;
        Ok(value)
    }
}

// The artifact codec. Each `put_*` below has one `take_*` twin in the
// `Decoder` block after it that reads the same fields in the same order.

impl Encoder {
    /// Appends an RSA public key: modulus, then exponent, as big-endian
    /// bytes.
    pub(crate) fn put_key(&mut self, key: &RsaPublicKey) -> &mut Self {
        self.put_bytes(&key.modulus().to_bytes_be())
            .put_bytes(&key.exponent().to_bytes_be())
    }

    /// Appends an RSA signature value.
    pub(crate) fn put_sig(&mut self, sig: &RsaSignature) -> &mut Self {
        self.put_bytes(&sig.value().to_bytes_be())
    }

    /// Appends a validity window: begin, then end.
    pub(crate) fn put_validity(&mut self, v: &Validity) -> &mut Self {
        self.put_i64(v.begin.0).put_i64(v.end.0)
    }

    /// Appends a threshold subject: `m`, then each `(name, key)` member.
    /// Signed bodies embed subjects in this same form.
    pub(crate) fn put_subject(&mut self, subject: &ThresholdSubject) -> &mut Self {
        self.put_u64(subject.m as u64)
            .put_list(subject.members.len());
        for (name, key) in &subject.members {
            self.put_str(name).put_key(key);
        }
        self
    }

    /// Appends an ACL: each `(group, action)` entry in order.
    pub fn put_acl(&mut self, acl: &Acl) -> &mut Self {
        self.put_list(acl.entries().len());
        for entry in acl.entries() {
            self.put_str(entry.group.as_str()).put_str(&entry.action);
        }
        self
    }

    /// Appends a whole identity certificate, signature included.
    pub fn put_identity_cert(&mut self, cert: &IdentityCertificate) -> &mut Self {
        self.put_str(&cert.issuer)
            .put_str(&cert.subject)
            .put_key(&cert.subject_key)
            .put_validity(&cert.validity)
            .put_i64(cert.timestamp.0)
            .put_sig(&cert.signature)
    }

    /// Appends a whole threshold attribute certificate.
    pub fn put_threshold_cert(&mut self, cert: &ThresholdAttributeCertificate) -> &mut Self {
        self.put_str(&cert.issuer)
            .put_subject(&cert.subject)
            .put_str(cert.group.as_str())
            .put_validity(&cert.validity)
            .put_i64(cert.timestamp.0)
            .put_sig(&cert.signature)
    }

    /// Appends a whole single-subject attribute certificate.
    pub fn put_attribute_cert(&mut self, cert: &AttributeCertificate) -> &mut Self {
        self.put_str(&cert.issuer)
            .put_str(&cert.subject)
            .put_key(&cert.subject_key)
            .put_str(cert.group.as_str())
            .put_validity(&cert.validity)
            .put_i64(cert.timestamp.0)
            .put_sig(&cert.signature)
    }

    /// Appends a whole identity revocation.
    pub fn put_identity_revocation(&mut self, rev: &IdentityRevocation) -> &mut Self {
        self.put_str(&rev.issuer)
            .put_str(&rev.subject)
            .put_key(&rev.subject_key)
            .put_i64(rev.revoked_from.0)
            .put_i64(rev.timestamp.0)
            .put_sig(&rev.signature)
    }

    /// Appends a whole attribute revocation.
    pub fn put_attribute_revocation(&mut self, rev: &AttributeRevocation) -> &mut Self {
        self.put_str(&rev.issuer)
            .put_subject(&rev.subject)
            .put_str(rev.group.as_str())
            .put_i64(rev.revoked_from.0)
            .put_i64(rev.timestamp.0)
            .put_sig(&rev.signature)
    }

    /// Appends a whole CRL.
    pub fn put_crl(&mut self, crl: &Crl) -> &mut Self {
        self.put_str(&crl.issuer)
            .put_u64(crl.sequence)
            .put_i64(crl.timestamp.0)
            .put_list(crl.entries.len());
        for entry in &crl.entries {
            self.put_subject(&entry.subject)
                .put_str(entry.group.as_str())
                .put_i64(entry.revoked_from.0);
        }
        self.put_sig(&crl.signature)
    }
}

impl Decoder<'_> {
    /// Reads an RSA public key.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch.
    pub(crate) fn take_key(&mut self) -> Result<RsaPublicKey, PkiError> {
        let n = Nat::from_bytes_be(self.take_bytes()?);
        let e = Nat::from_bytes_be(self.take_bytes()?);
        Ok(RsaPublicKey::new(n, e))
    }

    /// Reads an RSA signature value.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch.
    pub(crate) fn take_sig(&mut self) -> Result<RsaSignature, PkiError> {
        Ok(RsaSignature::from_value(Nat::from_bytes_be(
            self.take_bytes()?,
        )))
    }

    /// Reads a validity window.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch or an inverted window.
    pub(crate) fn take_validity(&mut self) -> Result<Validity, PkiError> {
        let begin = Time(self.take_i64()?);
        let end = Time(self.take_i64()?);
        if begin > end {
            return Err(PkiError::Malformed(format!(
                "inverted validity window [{begin:?}, {end:?}]"
            )));
        }
        Ok(Validity { begin, end })
    }

    /// Reads a threshold subject, validated by [`ThresholdSubject::new`].
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch or an invalid
    /// threshold.
    pub(crate) fn take_subject(&mut self) -> Result<ThresholdSubject, PkiError> {
        let m = usize::try_from(self.take_u64()?)
            .map_err(|_| PkiError::Malformed("threshold overflows usize".into()))?;
        let members = self.take_list_of(|d| Ok((d.take_str()?.to_owned(), d.take_key()?)))?;
        ThresholdSubject::new(members, m)
    }

    /// Reads an ACL.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch.
    pub fn take_acl(&mut self) -> Result<Acl, PkiError> {
        let count = self.take_list()?;
        let mut acl = Acl::new();
        for _ in 0..count {
            let group = GroupId::new(self.take_str()?);
            acl.permit(group, self.take_str()?);
        }
        Ok(acl)
    }

    /// Reads a whole identity certificate.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch or an inverted
    /// validity window.
    pub fn take_identity_cert(&mut self) -> Result<IdentityCertificate, PkiError> {
        Ok(IdentityCertificate {
            issuer: self.take_str()?.to_owned(),
            subject: self.take_str()?.to_owned(),
            subject_key: self.take_key()?,
            validity: self.take_validity()?,
            timestamp: Time(self.take_i64()?),
            signature: self.take_sig()?,
        })
    }

    /// Reads a whole threshold attribute certificate.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch, an invalid subject
    /// or an inverted validity window.
    pub fn take_threshold_cert(&mut self) -> Result<ThresholdAttributeCertificate, PkiError> {
        Ok(ThresholdAttributeCertificate {
            issuer: self.take_str()?.to_owned(),
            subject: self.take_subject()?,
            group: GroupId::new(self.take_str()?),
            validity: self.take_validity()?,
            timestamp: Time(self.take_i64()?),
            signature: self.take_sig()?,
        })
    }

    /// Reads a whole single-subject attribute certificate.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch or an inverted
    /// validity window.
    pub fn take_attribute_cert(&mut self) -> Result<AttributeCertificate, PkiError> {
        Ok(AttributeCertificate {
            issuer: self.take_str()?.to_owned(),
            subject: self.take_str()?.to_owned(),
            subject_key: self.take_key()?,
            group: GroupId::new(self.take_str()?),
            validity: self.take_validity()?,
            timestamp: Time(self.take_i64()?),
            signature: self.take_sig()?,
        })
    }

    /// Reads a whole identity revocation.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch.
    pub fn take_identity_revocation(&mut self) -> Result<IdentityRevocation, PkiError> {
        Ok(IdentityRevocation {
            issuer: self.take_str()?.to_owned(),
            subject: self.take_str()?.to_owned(),
            subject_key: self.take_key()?,
            revoked_from: Time(self.take_i64()?),
            timestamp: Time(self.take_i64()?),
            signature: self.take_sig()?,
        })
    }

    /// Reads a whole attribute revocation.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch or an invalid subject.
    pub fn take_attribute_revocation(&mut self) -> Result<AttributeRevocation, PkiError> {
        Ok(AttributeRevocation {
            issuer: self.take_str()?.to_owned(),
            subject: self.take_subject()?,
            group: GroupId::new(self.take_str()?),
            revoked_from: Time(self.take_i64()?),
            timestamp: Time(self.take_i64()?),
            signature: self.take_sig()?,
        })
    }

    /// Reads a whole CRL.
    ///
    /// # Errors
    ///
    /// [`PkiError::Malformed`] on any field mismatch or an invalid entry
    /// subject.
    pub fn take_crl(&mut self) -> Result<Crl, PkiError> {
        let issuer = self.take_str()?.to_owned();
        let sequence = self.take_u64()?;
        let timestamp = Time(self.take_i64()?);
        let entries = self.take_list_of(|d| {
            Ok(CrlEntry {
                subject: d.take_subject()?,
                group: GroupId::new(d.take_str()?),
                revoked_from: Time(d.take_i64()?),
            })
        })?;
        Ok(Crl {
            issuer,
            sequence,
            timestamp,
            entries,
            signature: self.take_sig()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompoundAttributeCertificate;
    use jaap_crypto::sha256::{hex, Sha256};
    use proptest::prelude::*;

    fn key(n: u64) -> RsaPublicKey {
        RsaPublicKey::new(Nat::from(n), Nat::from(65537u64))
    }

    fn subject() -> ThresholdSubject {
        ThresholdSubject::new(vec![("U1".into(), key(77)), ("U2".into(), key(91))], 2)
            .expect("subject")
    }

    /// The signed body of every artifact kind, pinned by SHA-256: a
    /// signature over a body is only as durable as the body's bytes.
    #[test]
    fn signed_bodies_match_known_answers() {
        let validity = Validity {
            begin: Time(0),
            end: Time(100),
        };
        let group = GroupId::new("CG");
        let entries = [CrlEntry {
            subject: subject(),
            group: group.clone(),
            revoked_from: Time(36),
        }];
        let bodies = [
            IdentityCertificate::body_bytes("CA1", "U1", &key(77), validity, Time(5)),
            IdentityRevocation::body_bytes("CA1", "U1", &key(77), Time(30), Time(31)),
            ThresholdAttributeCertificate::body_bytes("AA", &subject(), &group, validity, Time(6)),
            AttributeCertificate::body_bytes("AA", "U2", &key(91), &group, validity, Time(7)),
            CompoundAttributeCertificate::body_bytes(
                "AA",
                &["U1".into(), "U2".into()],
                &key(99),
                &group,
                validity,
                Time(8),
            ),
            AttributeRevocation::body_bytes("RA", &subject(), &group, Time(33), Time(34)),
            Crl::body_bytes("RA", 9, Time(35), &entries),
        ];
        let got: Vec<String> = bodies.iter().map(|b| hex(&Sha256::digest(b))).collect();
        assert_eq!(
            got,
            [
                "ec5b2d4968f0e95e3960b6b67685524861cffcc14230aa56360df64f08dabcec",
                "1327be458b0447b54785a234adaa8269c443ff794f7d7ae80416142b4f12920d",
                "2cca978dcb762c1e127f772d4ac9f32fb8fb787573332515e3a9418455793ce3",
                "23969451faea777b682931007408407797c01897875d3dec53373eed00826fcf",
                "1bb48eb6ce6c51d6b03a9bd8d2cf521d3d278aa5ab73c0b7be9e01b904424511",
                "73d280623236f2931fcf75cf508e9fe8bd6e4d8bf9e47ca8dd380563c85576f6",
                "19e071b0b5dedb233b62bb26e0d38c75f25ca98537674d6c8647bc8bad0c002b",
            ]
        );
    }

    #[test]
    fn deterministic() {
        let mut a = Encoder::new("test");
        a.put_str("x").put_u64(5);
        let mut b = Encoder::new("test");
        b.put_str("x").put_u64(5);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn field_order_matters() {
        let mut a = Encoder::new("test");
        a.put_str("x").put_str("y");
        let mut b = Encoder::new("test");
        b.put_str("y").put_str("x");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn no_concatenation_ambiguity() {
        // ("ab","c") must differ from ("a","bc").
        let mut a = Encoder::new("t");
        a.put_str("ab").put_str("c");
        let mut b = Encoder::new("t");
        b.put_str("a").put_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn types_are_tagged() {
        // The string "\0\0\0\0\0\0\0\x05" differs from u64 5.
        let mut a = Encoder::new("t");
        a.put_str("\0\0\0\0\0\0\0\u{5}");
        let mut b = Encoder::new("t");
        b.put_u64(5);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domains_separate() {
        let a = Encoder::new("identity-cert").finish();
        let b = Encoder::new("attribute-cert").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn i64_roundtrip_encoding_of_negative_times() {
        let mut a = Encoder::new("t");
        a.put_i64(-5);
        let mut b = Encoder::new("t");
        b.put_i64(5);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn list_header_disambiguates() {
        let mut a = Encoder::new("t");
        a.put_list(2).put_str("x").put_str("y");
        let mut b = Encoder::new("t");
        b.put_list(1).put_str("x");
        b.put_str("y");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn decoder_roundtrips_every_field_type() {
        let mut e = Encoder::new("round");
        e.put_str("alice")
            .put_u64(42)
            .put_i64(-7)
            .put_bytes(&[1, 2, 3])
            .put_list(2)
            .put_str("x")
            .put_str("y");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "round").expect("domain");
        assert_eq!(d.take_str().expect("str"), "alice");
        assert_eq!(d.take_u64().expect("u64"), 42);
        assert_eq!(d.take_i64().expect("i64"), -7);
        assert_eq!(d.take_bytes().expect("bytes"), [1, 2, 3]);
        assert_eq!(d.take_list().expect("list"), 2);
        assert_eq!(d.take_str().expect("x"), "x");
        assert_eq!(d.take_str().expect("y"), "y");
        d.finish().expect("no trailing bytes");
    }

    #[test]
    fn decoder_rejects_wrong_domain() {
        let bytes = Encoder::new("a").finish();
        assert!(Decoder::new(&bytes, "b").is_err());
    }

    #[test]
    fn decoder_rejects_wrong_tag() {
        let mut e = Encoder::new("t");
        e.put_u64(5);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "t").expect("domain");
        assert!(d.take_str().is_err());
    }

    #[test]
    fn decoder_rejects_truncation_at_every_cut() {
        let mut e = Encoder::new("t");
        e.put_str("hello").put_u64(9);
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let decoded = Decoder::new(prefix, "t")
                .and_then(|mut d| {
                    d.take_str()?;
                    d.take_u64()
                })
                .is_ok();
            assert!(!decoded, "truncation at {cut} must not decode cleanly");
        }
    }

    fn sig(v: u64) -> RsaSignature {
        RsaSignature::from_value(Nat::from(v))
    }

    const VALIDITY: Validity = Validity {
        begin: Time(0),
        end: Time(100),
    };

    /// Encodes `value` with `put` under a test domain, checks that `take`
    /// reads it back whole, then feeds every single-bit flip of those
    /// bytes through `take`: each must decode or fail, never panic.
    fn round_trip_and_flip<T: PartialEq + core::fmt::Debug>(
        value: &T,
        put: impl for<'e> Fn(&'e mut Encoder, &T) -> &'e mut Encoder,
        take: impl Fn(&mut Decoder<'_>) -> Result<T, PkiError>,
    ) {
        let mut e = Encoder::new("artifact");
        put(&mut e, value);
        let bytes = e.finish();
        let decode = |b: &[u8]| -> Result<T, PkiError> {
            let mut d = Decoder::new(b, "artifact")?;
            let v = take(&mut d)?;
            d.finish()?;
            Ok(v)
        };
        assert_eq!(decode(&bytes).as_ref(), Ok(value));
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
        }
    }

    #[test]
    fn every_artifact_round_trips_and_survives_every_bit_flip() {
        let group = GroupId::new("CG");
        let mut acl = Acl::new();
        acl.permit(group.clone(), "write")
            .permit(group.clone(), "read");
        round_trip_and_flip(&key(77), Encoder::put_key, |d| d.take_key());
        round_trip_and_flip(&sig(5), Encoder::put_sig, |d| d.take_sig());
        round_trip_and_flip(&VALIDITY, Encoder::put_validity, |d| d.take_validity());
        round_trip_and_flip(&subject(), Encoder::put_subject, |d| d.take_subject());
        round_trip_and_flip(&acl, Encoder::put_acl, |d| d.take_acl());
        round_trip_and_flip(
            &IdentityCertificate {
                issuer: "CA1".into(),
                subject: "U1".into(),
                subject_key: key(77),
                validity: VALIDITY,
                timestamp: Time(5),
                signature: sig(8),
            },
            Encoder::put_identity_cert,
            |d| d.take_identity_cert(),
        );
        round_trip_and_flip(
            &ThresholdAttributeCertificate {
                issuer: "AA".into(),
                subject: subject(),
                group: group.clone(),
                validity: VALIDITY,
                timestamp: Time(6),
                signature: sig(9),
            },
            Encoder::put_threshold_cert,
            |d| d.take_threshold_cert(),
        );
        round_trip_and_flip(
            &AttributeCertificate {
                issuer: "AA".into(),
                subject: "U2".into(),
                subject_key: key(91),
                group: group.clone(),
                validity: VALIDITY,
                timestamp: Time(7),
                signature: sig(10),
            },
            Encoder::put_attribute_cert,
            |d| d.take_attribute_cert(),
        );
        round_trip_and_flip(
            &IdentityRevocation {
                issuer: "CA1".into(),
                subject: "U1".into(),
                subject_key: key(77),
                revoked_from: Time(30),
                timestamp: Time(31),
                signature: sig(5),
            },
            Encoder::put_identity_revocation,
            |d| d.take_identity_revocation(),
        );
        round_trip_and_flip(
            &AttributeRevocation {
                issuer: "RA".into(),
                subject: subject(),
                group: group.clone(),
                revoked_from: Time(33),
                timestamp: Time(34),
                signature: sig(6),
            },
            Encoder::put_attribute_revocation,
            |d| d.take_attribute_revocation(),
        );
        round_trip_and_flip(
            &Crl {
                issuer: "RA".into(),
                sequence: 9,
                timestamp: Time(35),
                entries: vec![CrlEntry {
                    subject: subject(),
                    group,
                    revoked_from: Time(36),
                }],
                signature: sig(7),
            },
            Encoder::put_crl,
            |d| d.take_crl(),
        );
    }

    #[test]
    fn artifact_decoders_keep_their_checks() {
        let mut e = Encoder::new("t");
        e.put_validity(&Validity {
            begin: Time(9),
            end: Time(8),
        });
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "t").expect("domain");
        assert!(d.take_validity().is_err(), "inverted window");

        let mut e = Encoder::new("t");
        e.put_u64(3).put_list(2);
        for (name, k) in &subject().members {
            e.put_str(name).put_key(k);
        }
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "t").expect("domain");
        assert!(d.take_subject().is_err(), "m > n");

        // A count far past the buffer fails on the first missing element.
        let mut e = Encoder::new("t");
        e.put_list(usize::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "t").expect("domain");
        assert!(d.take_acl().is_err());
        let mut d = Decoder::new(&bytes, "t").expect("domain");
        assert!(d.take_list_of(|d| d.take_u64()).is_err());

        let mut e = Encoder::new("t");
        e.put_sig(&sig(1)).put_u64(0);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "t").expect("domain");
        assert_eq!(d.take_sig(), Ok(sig(1)));
        assert!(d.finish().is_err(), "trailing bytes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoder robustness: every artifact decoder, fed a random run of
        /// well-formed fields (so it gets past the first tag check) or
        /// plain noise, returns an error or a value and never panics.
        #[test]
        fn artifact_decoders_never_panic_on_arbitrary_fields(
            fields in proptest::collection::vec(
                (0u8..6, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..12)),
                0..24,
            ),
        ) {
            let mut e = Encoder::new("t");
            for (kind, n, raw) in &fields {
                match kind {
                    0 => e.put_str(&String::from_utf8_lossy(raw)),
                    1 => e.put_u64(*n % 4),
                    2 => e.put_i64(*n as i64),
                    3 => e.put_bytes(raw),
                    4 => e.put_list((*n % 3) as usize),
                    _ => {
                        e.buf.extend_from_slice(raw);
                        &mut e
                    }
                };
            }
            let bytes = e.finish();
            let decoders: [fn(&mut Decoder<'_>) -> bool; 11] = [
                |d| d.take_key().is_ok(),
                |d| d.take_sig().is_ok(),
                |d| d.take_validity().is_ok(),
                |d| d.take_subject().is_ok(),
                |d| d.take_acl().is_ok(),
                |d| d.take_identity_cert().is_ok(),
                |d| d.take_threshold_cert().is_ok(),
                |d| d.take_attribute_cert().is_ok(),
                |d| d.take_identity_revocation().is_ok(),
                |d| d.take_attribute_revocation().is_ok(),
                |d| d.take_crl().is_ok(),
            ];
            for decode in decoders {
                let mut d = Decoder::new(&bytes, "t").expect("domain");
                let _ = decode(&mut d);
            }
        }
    }
}
