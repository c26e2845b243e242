//! The canonical binary codec.
//!
//! Encoding rules, in full:
//!
//! * fixed-width integers are **little-endian**;
//! * a **varint** is a minimal unsigned LEB128 number ([`put_varint`],
//!   [`Reader::varint`]): seven bits per byte, low group first, the high
//!   bit set on every byte but the last.  Node ids, sequence lengths and
//!   message fields that are small in practice travel as varints (the
//!   per-tick batches of `netsim-runtime`'s distributed engine and the
//!   counting protocol's messages); the hello, the shard assignment and
//!   every `Wire` impl in this module stay fixed-width;
//! * `bool` is one byte, `0` or `1` (anything else is corrupt);
//! * `f64` is its IEEE-754 bit pattern as a little-endian `u64`;
//! * `String` and `Vec<T>` are a `u32` element count followed by the
//!   elements (strings count *bytes* and must be valid UTF-8);
//! * `Option<T>` is a presence byte (`0`/`1`) followed by the value;
//! * enums are a `u8` tag followed by the variant's fields, in order.
//!
//! Every value has exactly one encoding.  A varint decoder refuses a
//! non-minimal encoding (a trailing `0x00` group, as in `80 00` for 0) and
//! a value too wide for its field, so decode ∘ encode is the identity
//! *and* every accepted byte string re-encodes to itself.
//!
//! There is no self-description and no padding: both peers must agree on
//! the schema (the handshake's major version and `spec_version` pin that
//! agreement).  Decoding is total — every malformed input is a clean
//! [`WireError::Corrupt`], never a panic and never an unbounded
//! allocation (sequence counts are capped at [`MAX_SEQ_LEN`] and checked
//! against the bytes actually present before any buffer is reserved).

use crate::WireError;

/// Upper bound on any encoded sequence's element count.  Generous for
/// engine traffic (a shard's per-round arena is bounded by the edge
/// count), small enough that a bit-flipped length prefix cannot demand a
/// pathological allocation or a multi-second decode loop.
pub const MAX_SEQ_LEN: u32 = 1 << 24;

/// A bounds-checked cursor over an encoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Corrupt(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Assert every byte was consumed (trailing garbage is corruption:
    /// it means the peer encoded under a different schema).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Read a `u32` sequence-length prefix, validated against
    /// [`MAX_SEQ_LEN`] — callers then decode exactly that many elements,
    /// so a lying prefix dies on truncation, not allocation.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let len = u32::decode(self)?;
        if len > MAX_SEQ_LEN {
            return Err(WireError::Corrupt(format!(
                "sequence length {len} exceeds the {MAX_SEQ_LEN} cap"
            )));
        }
        Ok(len as usize)
    }

    /// Read one minimal LEB128 varint (see [`put_varint`]).  A
    /// non-minimal encoding, or one wider than 64 bits, is corrupt.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(WireError::Corrupt(
                    "truncated payload: varint cut short".into(),
                ));
            };
            self.pos += 1;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(WireError::Corrupt("varint overflows 64 bits".into()));
            }
            value |= group << shift;
            if byte < 0x80 {
                if byte == 0 && shift > 0 {
                    return Err(WireError::Corrupt(format!(
                        "non-minimal varint ({} bytes for {value})",
                        shift / 7 + 1
                    )));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    /// A varint that must fit a `u32` field.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        let value = self.varint()?;
        u32::try_from(value)
            .map_err(|_| WireError::Corrupt(format!("varint {value} overflows a u32 field")))
    }

    /// A varint sequence-length prefix, capped like [`seq_len`](Self::seq_len).
    /// Every element a varint-counted sequence holds takes at least one
    /// byte, so a count beyond the bytes left is corrupt up front.
    pub fn varint_len(&mut self) -> Result<usize, WireError> {
        let len = self.varint()?;
        if len > u64::from(MAX_SEQ_LEN) || len > self.remaining() as u64 {
            return Err(WireError::Corrupt(format!(
                "sequence length {len} exceeds the {MAX_SEQ_LEN} cap or the {} bytes left",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }
}

/// Append `value` as a minimal unsigned LEB128 varint: one byte below
/// 128, two below 16384, at most ten.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A type with a canonical binary encoding.
///
/// `encode` appends to the output buffer (so batches build up one
/// allocation); `decode` consumes from a [`Reader`] and must leave the
/// cursor exactly past this value's bytes.
pub trait Wire: Sized {
    /// Append this value's canonical encoding.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value, advancing the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode one value into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode one value from a complete payload, rejecting trailing bytes.
pub fn decode_from_slice<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("size checked")))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Corrupt(format!("bad bool byte {other}"))),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Corrupt("string is not valid UTF-8".into()))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= MAX_SEQ_LEN as usize, "sequence too long");
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        // Reserve no more than the bytes present can justify: a lying
        // prefix may still overstate the count, but it can no longer
        // demand memory the payload does not carry.
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(WireError::Corrupt(format!("bad option byte {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("round trip decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("héllo"));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((3u32, vec![false, true]));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let nan_bits = 0x7FF8_0000_0000_0001u64;
        let bytes = encode_to_vec(&f64::from_bits(nan_bits));
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.to_bits(), nan_bits, "codec must not canonicalize NaN");
    }

    #[test]
    fn truncation_and_trailing_bytes_are_corrupt() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        assert!(decode_from_slice::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_from_slice::<Vec<u64>>(&longer).is_err());
    }

    #[test]
    fn lying_length_prefix_is_rejected_without_allocating() {
        // A count beyond the cap is rejected outright …
        let bytes = encode_to_vec(&(MAX_SEQ_LEN + 1));
        assert!(matches!(
            decode_from_slice::<Vec<u8>>(&bytes),
            Err(WireError::Corrupt(_))
        ));
        // … and a large-but-legal count over a short payload dies on
        // truncation, not on reservation.
        let bytes = encode_to_vec(&(MAX_SEQ_LEN - 1));
        assert!(matches!(
            decode_from_slice::<Vec<u64>>(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    fn varint_bytes(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, value);
        out
    }

    fn read_varint(bytes: &[u8]) -> Result<u64, WireError> {
        let mut r = Reader::new(bytes);
        let value = r.varint()?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn varints_are_minimal_leb128_and_round_trip() {
        assert_eq!(varint_bytes(0), [0x00]);
        assert_eq!(varint_bytes(127), [0x7F]);
        assert_eq!(varint_bytes(128), [0x80, 0x01]);
        assert_eq!(varint_bytes(300), [0xAC, 0x02]);
        assert_eq!(varint_bytes(u64::MAX).len(), 10);
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(read_varint(&varint_bytes(value)).unwrap(), value);
        }
    }

    #[test]
    fn non_minimal_overlong_and_overflowing_varints_are_corrupt() {
        for bad in [
            &[0x80, 0x00][..],                                             // 0 in two bytes
            &[0xFF, 0x00],                                                 // 127 in two bytes
            &[0x80, 0x80, 0x00],                                           // 0 in three bytes
            &[0x80],                                                       // cut short
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02], // 2^64
            &[
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x81, 0x00,
            ], // 11 bytes
        ] {
            assert!(
                matches!(read_varint(bad), Err(WireError::Corrupt(_))),
                "{bad:02x?} must be corrupt"
            );
        }
        // A u32 field refuses a wider value; a length refuses the cap and
        // any count the bytes left cannot hold.
        let mut r = Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x10]);
        assert!(r.varint_u32().is_err());
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert_eq!(r.varint_u32().unwrap(), u32::MAX);
        let over_cap = varint_bytes(u64::from(MAX_SEQ_LEN) + 1);
        assert!(Reader::new(&over_cap).varint_len().is_err());
        assert!(Reader::new(&[0x03, 0x01, 0x02]).varint_len().is_err());
        let mut r = Reader::new(&[0x02, 0x01, 0x02]);
        assert_eq!(r.varint_len().unwrap(), 2);
    }

    #[test]
    fn bad_tag_bytes_are_corrupt() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
        assert!(decode_from_slice::<Option<u8>>(&[9, 1]).is_err());
        let bytes = [1u8, 0, 0, 0, 0xFF]; // one "string byte" that is not UTF-8
        assert!(decode_from_slice::<String>(&bytes).is_err());
    }
}
