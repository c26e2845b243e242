//! The compact canonical encoding of the distributed engine's per-tick
//! batches: the round arena a shard ships, and the fates the coordinator
//! routes back to it.
//!
//! Every number a batch carries is a minimal LEB128 varint
//! ([`put_varint`]); payloads keep their own [`Wire`] encoding.  A batch
//! has exactly one encoding: the decoders refuse non-minimal varints,
//! values too wide for their field and deltas that overflow, so decode ∘
//! encode is the identity and any accepted byte string re-encodes to
//! itself (given a canonical payload encoding).  Decoding never panics on
//! hostile input.
//!
//! ## Arena
//!
//! ```text
//! count, then per envelope: from − previous from, to, payload
//! ```
//!
//! An arena is in node order, so senders are delta-coded, starting from
//! the shard's first node id: most take one byte.  A sender outside the
//! shard's range is corrupt.
//!
//! ## Fates
//!
//! ```text
//! count, then per item: header, [delay], [to, payload]
//! header = value << 2 | deferred << 1 | whole
//! ```
//!
//! The items are every envelope routed to one shard in one tick, in global
//! route order, so per-recipient arrival order survives the wire.
//!
//! * A **reference** (`whole = 0`) names an envelope the receiving shard
//!   shipped itself this tick, by its index in that shard's honest arena
//!   followed by its Byzantine-default arena.  `value` is the zigzag-coded
//!   step from the previous reference's index (from −1 for the first).
//!   References only move forward, so a zero step (a repeat), a negative
//!   one (backwards) or an index past the shipped envelopes is corrupt.
//! * A **whole** envelope (`whole = 1`) is another shard's, or one the
//!   adversary wrote.  `value` is its sender id; its recipient and payload
//!   follow.
//! * `deferred = 1` puts the delay in ticks (at least 1) after the header:
//!   the envelope is due at `tick + delay`.  Without it the envelope is
//!   delivered this tick.

use crate::message::Envelope;
use netsim_graph::NodeId;
use netsim_wire::{put_varint, Reader, Wire, WireError};
use std::ops::Range;

/// Append `arena` (senders in non-decreasing order, none below `first`).
pub fn encode_arena<M: Wire>(out: &mut Vec<u8>, first: u32, arena: &[Envelope<M>]) {
    put_varint(out, arena.len() as u64);
    let mut prev = first;
    for env in arena {
        debug_assert!(env.from.0 >= prev, "arenas are in node order");
        put_varint(out, u64::from(env.from.0 - prev));
        prev = env.from.0;
        put_varint(out, u64::from(env.to.0));
        env.payload.encode(out);
    }
}

/// Decode one arena whose senders lie in `senders`, appending it to
/// `into`.
pub fn decode_arena<M: Wire>(
    r: &mut Reader<'_>,
    senders: Range<u32>,
    into: &mut Vec<Envelope<M>>,
) -> Result<(), WireError> {
    let count = r.varint_len()?;
    into.reserve(count);
    let mut from = u64::from(senders.start);
    for _ in 0..count {
        from = from
            .checked_add(r.varint()?)
            .filter(|&f| f < u64::from(senders.end))
            .ok_or_else(|| WireError::Corrupt(format!("arena sender steps outside {senders:?}")))?;
        let to = r.varint_u32()?;
        let payload = M::decode(r)?;
        into.push(Envelope::new(NodeId(from as u32), NodeId(to), payload));
    }
    Ok(())
}

/// One item of a `Fates` batch; see the module documentation.
#[derive(Debug, PartialEq)]
pub enum Fate<M> {
    /// The envelope at this index of the receiving shard's own arenas
    /// (honest, then Byzantine-default).
    Own(usize),
    /// An envelope carried whole.
    Whole(Envelope<M>),
}

const WHOLE: u64 = 1;
const DEFERRED: u64 = 2;

fn zigzag(step: i64) -> u64 {
    ((step << 1) ^ (step >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
}

/// Builds one shard's `Fates` batch for one tick, item by item.
#[derive(Debug, Default)]
pub struct FatesWriter {
    tick: u64,
    count: usize,
    /// The previous reference's index.
    last_own: Option<usize>,
    items: Vec<u8>,
}

impl FatesWriter {
    /// Start an empty batch for `tick`.
    pub fn begin(&mut self, tick: u64) {
        self.tick = tick;
        self.count = 0;
        self.last_own = None;
        self.items.clear();
    }

    fn header(&mut self, value: u64, whole: u64, due: Option<u64>) {
        self.count += 1;
        let deferred = if due.is_some() { DEFERRED } else { 0 };
        put_varint(&mut self.items, value << 2 | deferred | whole);
        if let Some(due) = due {
            debug_assert!(due > self.tick, "a deferral is due after its tick");
            put_varint(&mut self.items, due - self.tick);
        }
    }

    /// Route the receiving shard's own envelope at `index` (greater than
    /// the previous reference's) to it, due now (`None`) or at `due`.
    pub fn own(&mut self, due: Option<u64>, index: usize) {
        let step = index as i64 - self.last_own.map_or(-1, |last| last as i64);
        debug_assert!(step > 0, "references move forward");
        self.last_own = Some(index);
        self.header(zigzag(step), 0, due);
    }

    /// Route `env` to the receiving shard whole.
    pub fn whole<M: Wire>(&mut self, due: Option<u64>, env: &Envelope<M>) {
        self.header(u64::from(env.from.0), WHOLE, due);
        put_varint(&mut self.items, u64::from(env.to.0));
        env.payload.encode(&mut self.items);
    }

    /// Append the batch (its count, then its items) to `out`.
    pub fn finish(&self, out: &mut Vec<u8>) {
        put_varint(out, self.count as u64);
        out.extend_from_slice(&self.items);
    }
}

/// Decode a `Fates` batch for `tick`, sent to a shard that shipped
/// `shipped` envelopes this tick, handing each item to `accept` in order
/// with its due tick (`None` = now).  An error from `accept` ends the
/// decode.
pub fn decode_fates<M: Wire>(
    r: &mut Reader<'_>,
    tick: u64,
    shipped: usize,
    mut accept: impl FnMut(Option<u64>, Fate<M>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let count = r.varint_len()?;
    let mut last_own = -1i64;
    for _ in 0..count {
        let header = r.varint()?;
        let value = header >> 2;
        let due = match header & DEFERRED {
            0 => None,
            _ => {
                let delay = r.varint()?;
                let due = tick.checked_add(delay).filter(|_| delay > 0);
                Some(due.ok_or_else(|| {
                    WireError::Corrupt(format!("deferral by {delay} ticks from tick {tick}"))
                })?)
            }
        };
        let fate = match header & WHOLE {
            0 => {
                let step = unzigzag(value);
                let index = last_own + step;
                if step < 1 || index >= shipped as i64 {
                    let what = match step {
                        0 => "repeats",
                        s if s < 0 => "steps backwards",
                        _ => "is out of range",
                    };
                    return Err(WireError::Corrupt(format!(
                        "fate reference to envelope {index} {what} \
                         (previous {last_own}, {shipped} shipped)"
                    )));
                }
                last_own = index;
                Fate::Own(index as usize)
            }
            _ => {
                let from = u32::try_from(value).map_err(|_| {
                    WireError::Corrupt(format!("fate sender {value} overflows a node id"))
                })?;
                let to = r.varint_u32()?;
                Fate::Whole(Envelope::new(NodeId(from), NodeId(to), M::decode(r)?))
            }
        };
        accept(due, fate)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::Val;

    fn env(from: u32, to: u32, v: u64) -> Envelope<Val> {
        Envelope::new(NodeId(from), NodeId(to), Val(v))
    }

    fn arena_bytes(first: u32, arena: &[Envelope<Val>]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_arena(&mut out, first, arena);
        out
    }

    fn read_arena(bytes: &[u8], senders: Range<u32>) -> Result<Vec<Envelope<Val>>, WireError> {
        let mut r = Reader::new(bytes);
        let mut arena = Vec::new();
        decode_arena(&mut r, senders, &mut arena)?;
        r.finish()?;
        Ok(arena)
    }

    type Items = Vec<(Option<u64>, Fate<Val>)>;

    fn read_fates(bytes: &[u8], tick: u64, shipped: usize) -> Result<Items, WireError> {
        let mut r = Reader::new(bytes);
        let mut items = Vec::new();
        decode_fates(&mut r, tick, shipped, |due, fate| {
            items.push((due, fate));
            Ok(())
        })?;
        r.finish()?;
        Ok(items)
    }

    #[test]
    fn arenas_round_trip_with_delta_coded_senders() {
        let arena = vec![
            env(64, 3, 1),
            env(64, 65, 2),
            env(66, 900, 3),
            env(127, 0, 4),
        ];
        let bytes = arena_bytes(64, &arena);
        // count, then (delta, to, 8-byte value) per envelope.
        assert_eq!(&bytes[..4], [4, 0, 3, 1]);
        assert_eq!(read_arena(&bytes, 64..128).unwrap(), arena);
        // A sender past the range, or a delta that overflows, is corrupt.
        assert!(read_arena(&bytes, 64..127).is_err());
        let mut overflow = vec![1];
        put_varint(&mut overflow, u64::MAX);
        overflow.extend_from_slice(&[0; 9]);
        assert!(read_arena(&overflow, 64..128).is_err());
    }

    #[test]
    fn fates_round_trip_references_and_whole_envelopes() {
        let items = vec![
            (None, Fate::Own(0)),
            (None, Fate::Whole(env(3, 9, 7))),
            (Some(12), Fate::Own(4)),
            (Some(11), Fate::Whole(env(1_000_000, 9, 8))),
            (None, Fate::Own(5)),
        ];
        let mut writer = FatesWriter::default();
        writer.begin(10);
        for (due, fate) in &items {
            match fate {
                Fate::Own(i) => writer.own(*due, *i),
                Fate::Whole(e) => writer.whole(*due, e),
            }
        }
        let mut bytes = Vec::new();
        writer.finish(&mut bytes);
        // A reference due now is one byte: zigzag(1) << 2.
        assert_eq!(&bytes[..2], [5, 8]);
        assert_eq!(read_fates(&bytes, 10, 6).unwrap(), items);
        // Index 5 needs six shipped envelopes.
        assert!(read_fates(&bytes, 10, 5).is_err());
        // `begin` empties the writer.
        writer.begin(11);
        bytes.clear();
        writer.finish(&mut bytes);
        assert_eq!(bytes, [0]);
    }

    #[test]
    fn hostile_fates_are_corrupt() {
        let item = |header: u64, rest: &[u8]| {
            let mut bytes = vec![1];
            put_varint(&mut bytes, header);
            bytes.extend_from_slice(rest);
            read_fates(&bytes, 5, 3)
        };
        assert!(item(zigzag(1) << 2, &[]).is_ok());
        assert!(item(zigzag(0) << 2, &[]).is_err(), "repeat of index -1");
        assert!(item(zigzag(-1) << 2, &[]).is_err(), "backwards");
        assert!(item(zigzag(4) << 2, &[]).is_err(), "index 3 of 3");
        assert!(item(zigzag(1) << 2 | DEFERRED, &[0]).is_err(), "zero delay");
        let mut far = Vec::new();
        put_varint(&mut far, u64::MAX - 4);
        assert!(
            item(zigzag(1) << 2 | DEFERRED, &far).is_err(),
            "due overflows"
        );
        assert!(item(1 << 34 | WHOLE, &[0; 9]).is_err(), "sender overflows");
    }
}
