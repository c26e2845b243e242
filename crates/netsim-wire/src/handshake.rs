//! The versioned wire handshake.
//!
//! A generalization of the campaign service's JSON hello to the binary
//! layer.  Both peers send a [`WireHello`] as the first frame and check
//! the peer's against their own:
//!
//! * **magic**: four fixed bytes up front, so a peer speaking a
//!   different protocol entirely (say, a line-delimited JSON client
//!   dialed at a shard port) is rejected on the first frame instead of
//!   producing confusing downstream errors;
//! * **major** — strict: a differing major means the frame vocabulary
//!   itself changed, the connection must close;
//! * **minor** — additive: future minors may add message kinds; either
//!   side simply never sees the ones it does not know;
//! * **`spec_version`** — the *payload schema* version (the run-spec
//!   schema for campaign traffic, the envelope schema for shard
//!   traffic).  A peer speaking a **newer** schema is rejected at
//!   handshake time — this side would otherwise accept the session and
//!   then fail mid-stream with a parse error.  An *older* peer is fine:
//!   schemas migrate forward.  [`SPEC_VERSION_ANY`] opts out for
//!   payload-schema-agnostic channels.
//!
//! Because **both** peers apply the newer-is-rejected rule to each
//! other, two pinned (non-wildcard) peers end up agreeing exactly.

use crate::codec::{Reader, Wire};
use crate::frame::{read_frame, write_frame};
use crate::WireError;
use std::io::{Read, Write};

/// First bytes of every hello: protocol magic + format generation.
pub const WIRE_MAGIC: [u8; 4] = *b"NSW1";
/// Wire-format major version; peers must match exactly.
///
/// Major 2 moved the distributed engine's per-tick frames to the compact
/// canonical encoding: minimal LEB128 varints for node ids, lengths and
/// message fields, delta-coded senders inside an arena, and `Fates` items
/// that name a worker's own envelopes by reference instead of shipping
/// them back.  The hello and [`ShardAssignment`] kept their fixed-width
/// layout, so a major-1 peer's hello still decodes and is refused with
/// [`WireError::Incompatible`] rather than misread mid-stream.
pub const WIRE_MAJOR: u16 = 2;
/// Wire-format minor version; additive changes only.  Minor 1 added the
/// optional trailing [`ShardAssignment`] to the hello (a minor-0 hello
/// is byte-identical to a minor-1 hello carrying no assignment).
pub const WIRE_MINOR: u16 = 1;
/// `spec_version` wildcard: this peer carries no payload schema pin.
pub const SPEC_VERSION_ANY: u32 = 0;

/// A coordinator's shard assignment, carried in its hello (minor ≥ 1) so
/// a process-level shard worker is stateless until the handshake: the
/// node range it owns, the determinism anchors (engine seed, initial
/// crashes), and an opaque application payload (the serialized run spec)
/// from which it rebuilds its slice of the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardAssignment {
    /// First node id of the shard's contiguous range.
    pub start: u32,
    /// One past the last node id of the range.
    pub end: u32,
    /// Total node count of the run (cross-checked against the rebuilt
    /// topology before any envelope flows).
    pub n: u32,
    /// The engine seed: per-node RNG sub-streams derive from it by
    /// global node id, so every transport yields identical randomness.
    pub seed: u64,
    /// Keep pristine state copies for churn recovery.
    pub pristine: bool,
    /// Global ids (within the range) of nodes that start crashed.
    pub crashed: Vec<u32>,
    /// Opaque application bytes (the coordinator's serialized spec).
    pub payload: Vec<u8>,
}

impl Wire for ShardAssignment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
        self.n.encode(out);
        self.seed.encode(out);
        self.pristine.encode(out);
        self.crashed.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ShardAssignment {
            start: u32::decode(r)?,
            end: u32::decode(r)?,
            n: u32::decode(r)?,
            seed: u64::decode(r)?,
            pristine: bool::decode(r)?,
            crashed: Vec::<u32>::decode(r)?,
            payload: Vec::<u8>::decode(r)?,
        })
    }
}

/// The handshake frame body (sent by both peers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHello {
    /// Wire-format major version; must equal the peer's.
    pub major: u16,
    /// Wire-format minor version; informational (additive only).
    pub minor: u16,
    /// Payload schema version ([`SPEC_VERSION_ANY`] = unpinned).
    pub spec_version: u32,
    /// Coordinator → worker shard assignment (minor ≥ 1, additive:
    /// absent bytes decode as `None`, `None` encodes as absent bytes).
    pub assignment: Option<ShardAssignment>,
}

impl WireHello {
    /// This build's hello, pinned to the given payload schema.
    pub fn current(spec_version: u32) -> Self {
        WireHello {
            major: WIRE_MAJOR,
            minor: WIRE_MINOR,
            spec_version,
            assignment: None,
        }
    }

    /// [`current`](Self::current) carrying a shard assignment.
    pub fn with_assignment(spec_version: u32, assignment: ShardAssignment) -> Self {
        WireHello {
            assignment: Some(assignment),
            ..Self::current(spec_version)
        }
    }

    /// Apply the compatibility rules to a peer's hello (`self` is the
    /// peer's, `ours` this side's).
    pub fn check_compatible(&self, ours: &WireHello) -> Result<(), WireError> {
        if self.major != ours.major {
            return Err(WireError::Incompatible(format!(
                "wire major {} (this side speaks {})",
                self.major, ours.major
            )));
        }
        // A differing minor — including a future one — is fine by
        // construction: minors only add.
        check_spec_version(ours.spec_version, self.spec_version)
    }
}

/// The shared `spec_version` rule, also applied by the campaign hello:
/// a peer speaking a **newer** schema than ours is rejected (we could
/// not parse its payloads); an older or equal one is accepted (schemas
/// migrate forward); [`SPEC_VERSION_ANY`] on either side skips the
/// check.
pub fn check_spec_version(ours: u32, theirs: u32) -> Result<(), WireError> {
    if ours == SPEC_VERSION_ANY || theirs == SPEC_VERSION_ANY {
        return Ok(());
    }
    if theirs > ours {
        return Err(WireError::Incompatible(format!(
            "peer speaks spec schema v{theirs}, newer than our v{ours}: \
             its payloads would fail to parse mid-stream"
        )));
    }
    Ok(())
}

impl Wire for WireHello {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&WIRE_MAGIC);
        self.major.encode(out);
        self.minor.encode(out);
        self.spec_version.encode(out);
        // Additive tail (minor 1): a `None` assignment encodes as *no*
        // bytes at all, keeping the frame byte-identical to a minor-0
        // hello; `Some` appends a presence byte plus the assignment.
        if let Some(assignment) = &self.assignment {
            out.push(1);
            assignment.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.take(4)?;
        if magic != WIRE_MAGIC {
            return Err(WireError::Corrupt(format!(
                "bad hello magic {magic:02x?} (expected {WIRE_MAGIC:02x?})"
            )));
        }
        let major = u16::decode(r)?;
        let minor = u16::decode(r)?;
        let spec_version = u32::decode(r)?;
        let assignment = if r.remaining() > 0 {
            match u8::decode(r)? {
                0 => None,
                1 => Some(ShardAssignment::decode(r)?),
                tag => {
                    return Err(WireError::Corrupt(format!(
                        "bad hello assignment presence byte {tag}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(WireHello {
            major,
            minor,
            spec_version,
            assignment,
        })
    }
}

/// Send `hello` as one frame.
pub fn send_hello<W: Write>(w: &mut W, hello: &WireHello) -> Result<(), WireError> {
    write_frame(w, &crate::codec::encode_to_vec(hello))
}

/// Receive the peer's hello frame (without checking compatibility).
pub fn recv_hello<R: Read>(r: &mut R) -> Result<WireHello, WireError> {
    let mut buf = Vec::new();
    read_frame(r, &mut buf)?;
    crate::codec::decode_from_slice(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_over_frames() {
        let mut stream = Vec::new();
        let hello = WireHello::current(6);
        send_hello(&mut stream, &hello).unwrap();
        let back = recv_hello(&mut &stream[..]).unwrap();
        assert_eq!(back, hello);
        assert!(back.check_compatible(&hello).is_ok());
    }

    #[test]
    fn major_is_strict_minor_is_additive() {
        let ours = WireHello::current(6);
        let alien = WireHello {
            major: WIRE_MAJOR + 1,
            ..ours.clone()
        };
        assert!(matches!(
            alien.check_compatible(&ours),
            Err(WireError::Incompatible(_))
        ));
        let future_minor = WireHello {
            minor: WIRE_MINOR + 9,
            ..ours.clone()
        };
        assert!(future_minor.check_compatible(&ours).is_ok());
    }

    #[test]
    fn a_major_1_hello_still_decodes_and_is_refused() {
        // The hello's layout is the same in both majors, so an older peer
        // is read and then refused by version, never misparsed.
        let mut major1 = Vec::new();
        major1.extend_from_slice(&WIRE_MAGIC);
        1u16.encode(&mut major1);
        1u16.encode(&mut major1);
        6u32.encode(&mut major1);
        let mut stream = Vec::new();
        write_frame(&mut stream, &major1).unwrap();
        let theirs = recv_hello(&mut &stream[..]).unwrap();
        assert_eq!(theirs.major, 1);
        assert!(matches!(
            theirs.check_compatible(&WireHello::current(6)),
            Err(WireError::Incompatible(_))
        ));
    }

    #[test]
    fn newer_spec_schema_is_rejected_older_and_wildcard_pass() {
        let ours = WireHello::current(6);
        let newer = WireHello {
            spec_version: 7,
            ..ours.clone()
        };
        assert!(matches!(
            newer.check_compatible(&ours),
            Err(WireError::Incompatible(_))
        ));
        let older = WireHello {
            spec_version: 5,
            ..ours.clone()
        };
        assert!(older.check_compatible(&ours).is_ok());
        let unpinned = WireHello {
            spec_version: SPEC_VERSION_ANY,
            ..ours.clone()
        };
        assert!(unpinned.check_compatible(&ours).is_ok());
        assert!(ours.check_compatible(&unpinned).is_ok());
        // The rule is shared with the campaign's JSON hello.
        assert!(check_spec_version(6, 6).is_ok());
        assert!(check_spec_version(6, 9).is_err());
        assert!(check_spec_version(9, 6).is_ok());
    }

    #[test]
    fn assignment_rides_the_hello_additively() {
        // A minor-0 hello (no assignment bytes) and a minor-1 hello with
        // `assignment: None` are the same frame: old and new builds
        // interoperate as long as no assignment is sent.
        let bare = WireHello::current(6);
        let bytes = crate::codec::encode_to_vec(&bare);
        let mut minor0 = Vec::new();
        WIRE_MAGIC.iter().for_each(|b| minor0.push(*b));
        WIRE_MAJOR.encode(&mut minor0);
        WIRE_MINOR.encode(&mut minor0);
        6u32.encode(&mut minor0);
        assert_eq!(bytes, minor0, "None must add zero bytes");
        let decoded: WireHello = crate::codec::decode_from_slice(&minor0).unwrap();
        assert_eq!(decoded.assignment, None);

        // A full assignment round-trips through frames.
        let assigned = WireHello::with_assignment(
            6,
            ShardAssignment {
                start: 64,
                end: 128,
                n: 256,
                seed: 0xFEED_BEEF,
                pristine: true,
                crashed: vec![65, 90],
                payload: b"{\"spec\":1}".to_vec(),
            },
        );
        let mut stream = Vec::new();
        send_hello(&mut stream, &assigned).unwrap();
        let back = recv_hello(&mut &stream[..]).unwrap();
        assert_eq!(back, assigned);
        assert!(back.check_compatible(&WireHello::current(6)).is_ok());
    }

    #[test]
    fn wrong_magic_is_corrupt_not_a_panic() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"{\"hello\":{}}").unwrap();
        assert!(matches!(
            recv_hello(&mut &stream[..]),
            Err(WireError::Corrupt(_))
        ));
    }
}
