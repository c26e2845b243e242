//! The protocol's wire messages.
//!
//! Three message kinds exist (all "small-sized" in the paper's sense —
//! a constant number of IDs plus `O(log n)` bits):
//!
//! * [`CountingMessage::Adjacency`] — the neighbourhood exchange of the
//!   discovery preamble (Algorithm 2, line 1).  Its ID count is the
//!   `G`-degree, a constant depending only on `d` and `k` (Remark 3).
//! * [`CountingMessage::Flood`] — a color travelling along an `H`-edge,
//!   carrying its provenance: the last `min(t, k−1)` relay nodes, a
//!   [`FloodPath`] held inline.  This is the information the receiver
//!   audits (Algorithm 2, line 15).
//! * [`CountingMessage::Audit`] — a node announcing to all its `G`-neighbours
//!   which color it just forwarded; receivers log these and use them to
//!   corroborate or refute provenance claims.

use crate::color::Color;
use netsim_runtime::{MessageSize, SizedMessage};
use netsim_wire::{put_varint, Reader, Wire, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// A message of the counting protocols.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountingMessage {
    /// "These are my `G`-neighbours" (sent once, during discovery).
    Adjacency {
        /// The sender's claimed `G`-neighbour ids.
        neighbors: Vec<u32>,
    },
    /// A color flooding along an `H`-edge.
    Flood {
        /// The color value.
        color: Color,
        /// The last relay nodes: `path[0]` is the node the sender received
        /// the color from, `path[1]` the node before that, … (at most `k−1`
        /// entries; empty when the sender generated the color itself).
        path: FloodPath,
    },
    /// "I forwarded/generated this color in this step" — sent to all
    /// `G`-neighbours alongside every flood so they can audit provenance.
    Audit {
        /// The color the sender announced.
        color: Color,
    },
}

impl MessageSize for CountingMessage {
    fn message_size(&self) -> SizedMessage {
        match self {
            CountingMessage::Adjacency { neighbors } => {
                SizedMessage::new(neighbors.len() as u32, 0)
            }
            CountingMessage::Flood { path, .. } => SizedMessage::new(path.len() as u32, 32),
            CountingMessage::Audit { .. } => SizedMessage::new(0, 32),
        }
    }
}

/// A flood's provenance path: the ids of its last relays, newest first.
///
/// The paper's messages are small: a flood names at most `k − 1` relays,
/// `k = ⌈d/3⌉`, a constant independent of `n` (1 id at d = 6, 2 at the
/// paper's d = 8).  So a path of up to [`FloodPath::INLINE`] ids lives
/// inline, and copying a flood to each `H`-neighbour copies bytes, never
/// allocates.  A longer path (d > 12, or a fabricated one) spills to one
/// heap slice, so every `k` stays valid; short paths are always inline.
///
/// It reads as a `&[u32]` (it derefs to one), and its serde form (a
/// sequence of ids) and its [`Wire`] bytes (a varint count, then varint
/// ids) are those of the `Vec<u32>` it stands in for.
#[derive(Clone)]
pub struct FloodPath(PathRepr);

#[derive(Clone)]
enum PathRepr {
    /// `ids[..len]`, for `len ≤ INLINE`.
    Inline {
        len: u8,
        ids: [u32; FloodPath::INLINE],
    },
    /// More than `INLINE` ids.
    Spilled(Box<[u32]>),
}

impl FloodPath {
    /// The longest path held without an allocation.
    pub const INLINE: usize = 3;

    /// The empty path of a color its sender generated.
    pub const fn new() -> Self {
        FloodPath(PathRepr::Inline {
            len: 0,
            ids: [0; Self::INLINE],
        })
    }

    /// The path a relay forwards: `from`, the neighbour it received the
    /// color from, then the relays `behind` it.
    pub fn relayed(from: u32, behind: &[u32]) -> Self {
        let len = 1 + behind.len();
        if len <= Self::INLINE {
            let mut ids = [0; Self::INLINE];
            ids[0] = from;
            ids[1..len].copy_from_slice(behind);
            FloodPath(PathRepr::Inline {
                len: len as u8,
                ids,
            })
        } else {
            let mut ids = Vec::with_capacity(len);
            ids.push(from);
            ids.extend_from_slice(behind);
            FloodPath(PathRepr::Spilled(ids.into_boxed_slice()))
        }
    }

    /// The ids, newest relay first.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match &self.0 {
            PathRepr::Inline { len, ids } => &ids[..*len as usize],
            PathRepr::Spilled(ids) => ids,
        }
    }

    /// Whether the ids live inline (always, up to [`INLINE`](Self::INLINE)).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, PathRepr::Inline { .. })
    }
}

impl Default for FloodPath {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for FloodPath {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl From<&[u32]> for FloodPath {
    fn from(ids: &[u32]) -> Self {
        match ids.split_first() {
            Some((&from, behind)) => Self::relayed(from, behind),
            None => Self::new(),
        }
    }
}

impl From<Vec<u32>> for FloodPath {
    fn from(ids: Vec<u32>) -> Self {
        if ids.len() <= Self::INLINE {
            Self::from(ids.as_slice())
        } else {
            FloodPath(PathRepr::Spilled(ids.into_boxed_slice()))
        }
    }
}

impl PartialEq for FloodPath {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FloodPath {}

impl fmt::Debug for FloodPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for FloodPath {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for FloodPath {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<u32>::from_value(v).map(Self::from)
    }
}

impl Wire for FloodPath {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_ids(out, self);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.varint_len()?;
        if len > Self::INLINE {
            return read_ids(r, len).map(Self::from);
        }
        let mut ids = [0; Self::INLINE];
        for id in &mut ids[..len] {
            *id = r.varint_u32()?;
        }
        Ok(FloodPath(PathRepr::Inline {
            len: len as u8,
            ids,
        }))
    }
}

/// Append node ids as a varint count and varint ids.
fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_varint(out, ids.len() as u64);
    for &id in ids {
        put_varint(out, u64::from(id));
    }
}

/// Read `len` varint ids.
fn read_ids(r: &mut Reader<'_>, len: usize) -> Result<Vec<u32>, WireError> {
    let mut ids = Vec::with_capacity(len);
    for _ in 0..len {
        ids.push(r.varint_u32()?);
    }
    Ok(ids)
}

/// The canonical binary encoding, required to run the counting protocols
/// on the distributed engine's shard channels: a tag byte, then the
/// fields as minimal varints (colors and ids are small, so an audit takes
/// two bytes).
impl Wire for CountingMessage {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CountingMessage::Adjacency { neighbors } => {
                out.push(0);
                put_ids(out, neighbors);
            }
            CountingMessage::Flood { color, path } => {
                out.push(1);
                put_varint(out, u64::from(*color));
                path.encode(out);
            }
            CountingMessage::Audit { color } => {
                out.push(2);
                put_varint(out, u64::from(*color));
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => {
                let len = r.varint_len()?;
                Ok(CountingMessage::Adjacency {
                    neighbors: read_ids(r, len)?,
                })
            }
            1 => Ok(CountingMessage::Flood {
                color: r.varint_u32()?,
                path: FloodPath::decode(r)?,
            }),
            2 => Ok(CountingMessage::Audit {
                color: r.varint_u32()?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown counting-message tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_the_small_message_model() {
        let adj = CountingMessage::Adjacency {
            neighbors: vec![1, 2, 3],
        };
        assert_eq!(adj.message_size(), SizedMessage::new(3, 0));
        let flood = CountingMessage::Flood {
            color: 7,
            path: vec![4, 5].into(),
        };
        assert_eq!(flood.message_size(), SizedMessage::new(2, 32));
        let audit = CountingMessage::Audit { color: 7 };
        assert_eq!(audit.message_size(), SizedMessage::new(0, 32));
    }

    #[test]
    fn wire_encoding_round_trips_every_variant() {
        for msg in [
            CountingMessage::Adjacency {
                neighbors: vec![1, 2, 3],
            },
            CountingMessage::Flood {
                color: 7,
                path: vec![4, 5].into(),
            },
            CountingMessage::Audit { color: 9 },
        ] {
            let bytes = netsim_wire::encode_to_vec(&msg);
            let back: CountingMessage = netsim_wire::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, msg);
        }
        // An unknown tag is a clean decode error, never a panic.
        assert!(netsim_wire::decode_from_slice::<CountingMessage>(&[9]).is_err());
        // An audit is two bytes, and a padded color is refused.
        let audit = netsim_wire::encode_to_vec(&CountingMessage::Audit { color: 9 });
        assert_eq!(audit, [2, 9]);
        assert!(netsim_wire::decode_from_slice::<CountingMessage>(&[2, 0x89, 0x00]).is_err());
    }

    #[test]
    fn flood_path_is_bounded_by_constant_ids() {
        // The protocol never builds paths longer than k−1; for the paper's
        // default d = 8 that is 2 IDs — a constant independent of n.
        let k = 3usize;
        let flood = CountingMessage::Flood {
            color: 3,
            path: vec![0; k - 1].into(),
        };
        assert!(flood.message_size().ids <= (k - 1) as u32);
    }

    #[test]
    fn flood_paths_are_inline_up_to_three_ids_and_spill_beyond() {
        // Ids of one to five varint bytes, in paths of 0 to 6 ids.
        let widths = [5, 127, 128, 16_384, 2_097_152, u32::MAX];
        for len in 0..=widths.len() {
            let ids = widths[..len].to_vec();
            let path = FloodPath::from(ids.clone());
            assert_eq!(path.as_slice(), ids.as_slice());
            assert_eq!(path.is_inline(), len <= FloodPath::INLINE);
            assert_eq!(FloodPath::from(ids.as_slice()), path);
            if let Some((&from, behind)) = ids.split_first() {
                assert_eq!(FloodPath::relayed(from, behind), path);
            }
            // The bytes are the `Vec<u32>`'s: a varint count, varint ids.
            let mut vec_bytes = Vec::new();
            put_ids(&mut vec_bytes, &ids);
            let bytes = netsim_wire::encode_to_vec(&path);
            assert_eq!(bytes, vec_bytes);
            let back: FloodPath = netsim_wire::decode_from_slice(&bytes).unwrap();
            assert_eq!(
                (back.as_slice(), back.is_inline()),
                (&ids[..], path.is_inline())
            );
            let flood = CountingMessage::Flood { color: 9, path };
            let bytes = netsim_wire::encode_to_vec(&flood);
            let back: CountingMessage = netsim_wire::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, flood);
            // Its serde form is the plain sequence of ids.
            let CountingMessage::Flood { path, .. } = flood else {
                unreachable!()
            };
            let json = serde_json::to_string(&path).unwrap();
            assert_eq!(json, serde_json::to_string(&ids).unwrap());
            assert_eq!(serde_json::from_str::<FloodPath>(&json).unwrap(), path);
        }
        assert_eq!(format!("{:?}", FloodPath::from(vec![4, 5])), "[4, 5]");
        // A flood copied to every H-neighbour stays as small as before.
        assert!(std::mem::size_of::<netsim_runtime::Envelope<CountingMessage>>() <= 40);
    }
}
