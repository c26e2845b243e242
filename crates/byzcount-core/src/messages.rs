//! The protocol's wire messages.
//!
//! Three message kinds exist (all "small-sized" in the paper's sense —
//! a constant number of IDs plus `O(log n)` bits):
//!
//! * [`CountingMessage::Adjacency`] — the neighbourhood exchange of the
//!   discovery preamble (Algorithm 2, line 1).  Its ID count is the
//!   `G`-degree, a constant depending only on `d` and `k` (Remark 3).
//! * [`CountingMessage::Flood`] — a color travelling along an `H`-edge,
//!   carrying its provenance: the last `min(t, k−1)` relay nodes.  This is
//!   the information the receiver audits (Algorithm 2, line 15).
//! * [`CountingMessage::Audit`] — a node announcing to all its `G`-neighbours
//!   which color it just forwarded; receivers log these and use them to
//!   corroborate or refute provenance claims.

use crate::color::Color;
use netsim_runtime::{MessageSize, SizedMessage};
use netsim_wire::{put_varint, Reader, Wire, WireError};
use serde::{Deserialize, Serialize};

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
        path: Vec<u32>,
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

/// Append node ids as a varint count and varint ids.
fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_varint(out, ids.len() as u64);
    for &id in ids {
        put_varint(out, u64::from(id));
    }
}

fn read_ids(r: &mut Reader<'_>) -> Result<Vec<u32>, WireError> {
    let len = r.varint_len()?;
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
                put_ids(out, path);
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
            0 => Ok(CountingMessage::Adjacency {
                neighbors: read_ids(r)?,
            }),
            1 => Ok(CountingMessage::Flood {
                color: r.varint_u32()?,
                path: read_ids(r)?,
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
            path: vec![4, 5],
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
                path: vec![4, 5],
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
            path: vec![0; k - 1],
        };
        assert!(flood.message_size().ids <= (k - 1) as u32);
    }
}
