//! Versioned binary snapshot framing for crash-safe checkpoints.
//!
//! A checkpoint file is a `pfcsim-checkpoint/1` frame: a magic string, the
//! configuration digest of the run that wrote it, a length-prefixed binary
//! encoding of a [`Value`] tree (the serialized simulator state), and a
//! trailing FNV-1a checksum over everything before it. The encoding is
//! fully deterministic — integers are fixed-width little-endian, floats
//! are written via [`f64::to_bits`] so restore is bit-exact — which is
//! what lets a resumed run reproduce the exact digest of an uninterrupted
//! one.
//!
//! Encoding never builds that tree: the encoder is a [`serde::Sink`], fed
//! by [`Serialize::emit`] straight from the state (a [`Value`] is just
//! another document source), and writes into a buffer, a byte count or a
//! running hash. Decoding does build one.
//!
//! Corruption never panics: truncation, a foreign magic, a flipped bit,
//! or a malformed payload all surface as a typed [`SnapError`].

use serde::value::{Number, Value};
use serde::{Serialize, Sink};

/// Magic prefix of every checkpoint frame (also its format version).
pub const MAGIC: &[u8; 19] = b"pfcsim-checkpoint/1";

/// Why a checkpoint frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the frame (or a value inside it) did.
    Truncated,
    /// The frame does not start with [`MAGIC`] — not a checkpoint, or a
    /// different format version.
    BadMagic,
    /// The trailing FNV-1a checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum recomputed over the frame contents.
        computed: u64,
    },
    /// The payload bytes are not a valid value encoding.
    Malformed(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "checkpoint truncated"),
            SnapError::BadMagic => write!(
                f,
                "not a {} frame",
                std::str::from_utf8(MAGIC).expect("magic is ascii")
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Malformed(why) => write!(f, "malformed checkpoint payload: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 2⁴⁴ + 0x1b3, not the published 64-bit FNV prime 2⁴⁰ + 0x1b3
/// (`0x100_0000_01b3`). Every pinned digest depends on it.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a-shaped 64-bit hash (the workspace's standard content digest).
///
/// It is *not* standard FNV-1a: the offset basis is FNV's, but the prime
/// is 2⁴⁴ + 0x1b3 where the published one is 2⁴⁰ + 0x1b3, so a standard
/// FNV library reproduces none of the workspace's digests. For `b"a"` it
/// gives `0xaf63dc4c8601ec8c`; this gives `0xaf74d84c8601ec8c`. Every
/// pinned digest — checkpoint checksums and state digests, the golden
/// report digest, the benchmark's report pins — depends on this constant,
/// so changing it is a re-record of all of them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Continue the FNV-1a state `h` over `bytes`: hashing a byte string in
/// pieces gives the hash of their concatenation.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// Value-encoding tag bytes.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_POS_INT: u8 = 3;
const TAG_NEG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// Where the encoding goes. Every fixed-width field of the format (an
/// integer, float bits, a length) arrives through `word`.
trait Dest {
    fn bytes(&mut self, b: &[u8]);
    fn word(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

impl Dest for Vec<u8> {
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

/// Length of the encoding, without producing it.
struct Count(u64);

impl Dest for Count {
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len() as u64;
    }
}

/// `FNV_PRIME^k`: what FNV-1a multiplies by over a run of `k` zero bytes
/// (each step is `h ^= 0; h *= FNV_PRIME`).
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a of the encoding, as it is produced.
struct Hash(u64);

impl Dest for Hash {
    fn bytes(&mut self, b: &[u8]) {
        self.0 = fnv1a_from(self.0, b);
    }

    /// State is mostly small integers, so most bytes of a little-endian
    /// word are its zero high bytes: hash the significant ones, then take
    /// the zero run in one multiply. Same value as `bytes` for every `n`.
    fn word(&mut self, n: u64) {
        let significant = 8 - n.leading_zeros() as usize / 8;
        let h = fnv1a_from(self.0, &n.to_le_bytes()[..significant]);
        self.0 = h.wrapping_mul(PRIME_POW[8 - significant]);
    }
}

/// The one tag writer: document events in, the value encoding out.
struct Encoder<'a, D>(&'a mut D);

impl<D: Dest> Sink for Encoder<'_, D> {
    fn null(&mut self) {
        self.0.bytes(&[TAG_NULL]);
    }
    fn bool(&mut self, b: bool) {
        self.0.bytes(&[if b { TAG_TRUE } else { TAG_FALSE }]);
    }
    fn pos_int(&mut self, n: u64) {
        self.0.bytes(&[TAG_POS_INT]);
        self.0.word(n);
    }
    fn neg_int(&mut self, n: i64) {
        self.0.bytes(&[TAG_NEG_INT]);
        self.0.word(n as u64);
    }
    fn float(&mut self, x: f64) {
        self.0.bytes(&[TAG_FLOAT]);
        self.0.word(x.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.0.bytes(&[TAG_STRING]);
        self.key(s);
    }
    fn array(&mut self, len: usize) {
        self.0.bytes(&[TAG_ARRAY]);
        self.0.word(len as u64);
    }
    fn object(&mut self, len: usize) {
        self.0.bytes(&[TAG_OBJECT]);
        self.0.word(len as u64);
    }
    /// An object key is an untagged string.
    fn key(&mut self, k: &str) {
        self.0.word(k.len() as u64);
        self.0.bytes(k.as_bytes());
    }
}

/// Append the deterministic binary encoding of `v` to `out`.
pub fn encode_value(v: &(impl Serialize + ?Sized), out: &mut Vec<u8>) {
    v.emit(&mut Encoder(out));
}

/// FNV-1a digest of `v`'s binary encoding — the workspace's canonical
/// structural digest (used to fingerprint a run's configuration).
pub fn value_digest(v: &(impl Serialize + ?Sized)) -> u64 {
    let mut h = Hash(FNV_OFFSET);
    v.emit(&mut Encoder(&mut h));
    h.0
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SnapError> {
    let end = pos.checked_add(n).ok_or(SnapError::Truncated)?;
    if end > buf.len() {
        return Err(SnapError::Truncated);
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_u64(buf: &[u8], pos: &mut usize) -> Result<u64, SnapError> {
    let bytes = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

fn take_len(buf: &[u8], pos: &mut usize) -> Result<usize, SnapError> {
    let n = take_u64(buf, pos)?;
    // A length can never exceed the bytes remaining (each element costs at
    // least one byte), so an absurd prefix is corruption, not an OOM.
    if n > (buf.len() - *pos) as u64 {
        return Err(SnapError::Truncated);
    }
    Ok(n as usize)
}

fn take_string(buf: &[u8], pos: &mut usize) -> Result<String, SnapError> {
    let n = take_len(buf, pos)?;
    let bytes = take(buf, pos, n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Malformed("non-UTF-8 string".into()))
}

/// How many `T`s fit in the bytes left after `pos`: the most a decoder
/// pre-allocates for a container, so a forged length prefix can never
/// reserve more memory than the frame itself occupies.
fn room<T>(buf: &[u8], pos: usize) -> usize {
    (buf.len() - pos) / std::mem::size_of::<T>()
}

/// Decode one value starting at `pos`, advancing it past the value.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, SnapError> {
    let tag = take(buf, pos, 1)?[0];
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_POS_INT => Ok(Value::Number(Number::PosInt(take_u64(buf, pos)?))),
        TAG_NEG_INT => Ok(Value::Number(Number::NegInt(take_u64(buf, pos)? as i64))),
        TAG_FLOAT => Ok(Value::Number(Number::Float(f64::from_bits(take_u64(
            buf, pos,
        )?)))),
        TAG_STRING => Ok(Value::String(take_string(buf, pos)?)),
        TAG_ARRAY => {
            let n = take_len(buf, pos)?;
            let mut items = Vec::with_capacity(n.min(room::<Value>(buf, *pos)));
            for _ in 0..n {
                items.push(decode_value(buf, pos)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = take_len(buf, pos)?;
            let mut pairs = Vec::with_capacity(n.min(room::<(String, Value)>(buf, *pos)));
            for _ in 0..n {
                let key = take_string(buf, pos)?;
                let val = decode_value(buf, pos)?;
                pairs.push((key, val));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(SnapError::Malformed(format!("unknown value tag {other}"))),
    }
}

/// Encode a complete checkpoint frame: magic, `config_digest`, the
/// length-prefixed payload encoding, and a trailing FNV-1a checksum over
/// everything before it.
pub fn encode_frame(config_digest: u64, payload: &(impl Serialize + ?Sized)) -> Vec<u8> {
    encode_frame_digest(config_digest, payload).0
}

/// [`encode_frame`] plus [`fnv1a`] of the frame it returns, in one pass:
/// the checksum is the hash of everything before it, so continuing that
/// hash over the 8 checksum bytes is the hash of the whole frame.
pub fn encode_frame_digest(
    config_digest: u64,
    payload: &(impl Serialize + ?Sized),
) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&config_digest.to_le_bytes());
    // The payload is encoded in place; its length is patched in after.
    let len_at = out.len();
    out.extend_from_slice(&[0; 8]);
    encode_value(payload, &mut out);
    let payload_len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    (out, fnv1a_from(checksum, &checksum.to_le_bytes()))
}

/// `encode_frame_digest(..).1` without the frame: one counting pass for
/// the payload length the header carries, one hashing pass, no buffer.
pub fn frame_digest(config_digest: u64, payload: &(impl Serialize + ?Sized)) -> u64 {
    let mut payload_len = Count(0);
    payload.emit(&mut Encoder(&mut payload_len));
    let mut h = Hash(FNV_OFFSET);
    h.bytes(MAGIC);
    h.word(config_digest);
    h.word(payload_len.0);
    payload.emit(&mut Encoder(&mut h));
    let checksum = h.0;
    h.word(checksum);
    h.0
}

/// Decode and fully validate a checkpoint frame, returning the stored
/// config digest and the payload value. Every corruption mode maps to a
/// typed [`SnapError`]; this function never panics on untrusted bytes.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Value), SnapError> {
    if bytes.len() < MAGIC.len() {
        // Too short to even say what it is — but if what's there doesn't
        // match the magic prefix, "wrong format" is the better diagnosis.
        if MAGIC.starts_with(bytes) {
            return Err(SnapError::Truncated);
        }
        return Err(SnapError::BadMagic);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let config_digest = take_u64(bytes, &mut pos)?;
    let payload_len = take_u64(bytes, &mut pos)?;
    let expected_total = (pos as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or(SnapError::Truncated)?;
    if (bytes.len() as u64) < expected_total {
        return Err(SnapError::Truncated);
    }
    if bytes.len() as u64 != expected_total {
        return Err(SnapError::Malformed(format!(
            "trailing garbage: frame says {expected_total} bytes, file has {}",
            bytes.len()
        )));
    }
    let checksum_at = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[checksum_at..].try_into().expect("8 bytes"));
    let computed = fnv1a(&bytes[..checksum_at]);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    let payload = decode_value(bytes, &mut pos)?;
    if pos != checksum_at {
        return Err(SnapError::Malformed(
            "payload length disagrees with its encoding".into(),
        ));
    }
    Ok((config_digest, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Object(vec![
            ("n".into(), Value::Number(Number::PosInt(u64::MAX))),
            ("i".into(), Value::Number(Number::NegInt(-42))),
            (
                "f".into(),
                Value::Number(Number::Float(0.1 + 0.2)), // non-representable sum
            ),
            ("s".into(), Value::String("paused ×2".into())),
            ("b".into(), Value::Bool(true)),
            ("z".into(), Value::Null),
            (
                "a".into(),
                Value::Array(vec![
                    Value::Number(Number::PosInt(1)),
                    Value::Object(vec![("k".into(), Value::Bool(false))]),
                ]),
            ),
        ])
    }

    /// The pre-single-pass encoder, kept verbatim as the byte reference:
    /// body in its own buffer, copied into the frame, hashed separately.
    fn reference_encode_value(v: &Value, out: &mut Vec<u8>) {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_FALSE),
            Value::Bool(true) => out.push(TAG_TRUE),
            Value::Number(Number::PosInt(n)) => {
                out.push(TAG_POS_INT);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Value::Number(Number::NegInt(n)) => {
                out.push(TAG_NEG_INT);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Value::Number(Number::Float(x)) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::String(s) => {
                out.push(TAG_STRING);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Array(items) => {
                out.push(TAG_ARRAY);
                out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                for item in items {
                    reference_encode_value(item, out);
                }
            }
            Value::Object(pairs) => {
                out.push(TAG_OBJECT);
                out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
                for (k, item) in pairs {
                    out.extend_from_slice(&(k.len() as u64).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    reference_encode_value(item, out);
                }
            }
        }
    }

    fn reference_fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    fn reference_encode_frame(config_digest: u64, payload: &Value) -> Vec<u8> {
        let mut body = Vec::new();
        reference_encode_value(payload, &mut body);
        let mut out = Vec::with_capacity(MAGIC.len() + 24 + body.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&config_digest.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
        let checksum = reference_fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn single_pass_frame_matches_the_two_buffer_reference() {
        // Nesting, an empty payload, and a payload long enough that the
        // patched length is not a one-byte value.
        let long = Value::Array(
            (0..1000)
                .map(|i| Value::Number(Number::PosInt(i)))
                .collect(),
        );
        for v in [sample(), Value::Null, long] {
            let reference = reference_encode_frame(0xDEAD_BEEF, &v);
            let (frame, digest) = encode_frame_digest(0xDEAD_BEEF, &v);
            assert_eq!(frame, reference, "frame bytes moved");
            assert_eq!(encode_frame(0xDEAD_BEEF, &v), reference);
            assert_eq!(digest, reference_fnv1a(&reference));
            assert_eq!(digest, fnv1a(&frame));
            let mut body = Vec::new();
            reference_encode_value(&v, &mut body);
            assert_eq!(value_digest(&v), reference_fnv1a(&body));
        }
    }

    /// The zero-run shortcut against the byte-at-a-time loop: every word
    /// length, the edges between them, random words whose high bytes are
    /// masked off to random lengths, from random starting states.
    #[test]
    fn hashed_word_equals_its_eight_bytes_one_at_a_time() {
        let mut pow = 1u64;
        for (k, &p) in PRIME_POW.iter().enumerate() {
            assert_eq!(p, pow, "FNV_PRIME^{k}");
            pow = pow.wrapping_mul(0x1000_0000_01b3);
        }
        let mut rng = crate::rng::SimRng::new(20);
        let edges = [0, 1, 0xff, 0x100, u32::MAX as u64, 1 << 56, u64::MAX];
        let draws: Vec<u64> = (0..1000)
            .map(|_| rng.next_u64() >> (8 * rng.gen_range(8)))
            .collect();
        for n in edges.into_iter().chain(draws) {
            let start = rng.next_u64();
            let mut h = Hash(start);
            h.word(n);
            assert_eq!(h.0, fnv1a_from(start, &n.to_le_bytes()), "word {n:#x}");
        }
    }

    /// The three destinations agree: what the hash digests and the count
    /// measures is what the buffer holds.
    #[test]
    fn destinations_agree_on_one_document() {
        let v = sample();
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut count = Count(0);
        v.emit(&mut Encoder(&mut count));
        assert_eq!(count.0, bytes.len() as u64);
        assert_eq!(value_digest(&v), reference_fnv1a(&bytes));
        let (frame, digest) = encode_frame_digest(9, &v);
        assert_eq!(frame_digest(9, &v), digest);
        assert_eq!(frame_digest(9, &v), reference_fnv1a(&frame));
    }

    /// The known-answer vector of the doc: the prime is 2⁴⁴ + 0x1b3, so
    /// standard FNV-1a's `0xaf63dc4c8601ec8c` for `b"a"` is not ours.
    #[test]
    fn fnv1a_uses_the_workspace_prime_not_the_published_one() {
        assert_eq!(FNV_PRIME, (1 << 44) + 0x1b3);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        let published = (FNV_OFFSET ^ u64::from(b'a')).wrapping_mul((1 << 40) + 0x1b3);
        assert_eq!(published, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn value_round_trip_is_exact() {
        let v = sample();
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut pos = 0;
        let back = decode_value(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, v);
    }

    #[test]
    fn float_bits_survive() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let mut bytes = Vec::new();
            encode_value(&Value::Number(Number::Float(x)), &mut bytes);
            let mut pos = 0;
            match decode_value(&bytes, &mut pos).unwrap() {
                Value::Number(Number::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_round_trip() {
        let v = sample();
        let frame = encode_frame(0xDEAD_BEEF, &v);
        let (digest, back) = decode_frame(&frame).unwrap();
        assert_eq!(digest, 0xDEAD_BEEF);
        assert_eq!(back, v);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let frame = encode_frame(7, &sample());
        for len in 0..frame.len() {
            let err = decode_frame(&frame[..len]).unwrap_err();
            assert!(
                matches!(err, SnapError::Truncated | SnapError::BadMagic),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let frame = encode_frame(7, &sample());
        // Flip one bit in every byte position; none may decode cleanly.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn foreign_bytes_are_bad_magic_not_panic() {
        assert_eq!(
            decode_frame(b"not a checkpoint at all"),
            Err(SnapError::BadMagic)
        );
        assert_eq!(decode_frame(b""), Err(SnapError::Truncated));
        assert_eq!(decode_frame(b"pfcsim-chec"), Err(SnapError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut frame = encode_frame(7, &sample());
        frame.extend_from_slice(b"extra");
        assert!(matches!(decode_frame(&frame), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn value_digest_is_stable_and_sensitive() {
        let a = value_digest(&sample());
        assert_eq!(a, value_digest(&sample()));
        let mut other = sample();
        if let Value::Object(pairs) = &mut other {
            pairs[0].1 = Value::Number(Number::PosInt(1));
        }
        assert_ne!(a, value_digest(&other));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        // TAG_ARRAY claiming u64::MAX elements.
        let mut bytes = vec![TAG_ARRAY];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut pos = 0;
        assert_eq!(decode_value(&bytes, &mut pos), Err(SnapError::Truncated));
    }
}
