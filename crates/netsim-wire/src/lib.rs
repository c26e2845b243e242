//! # netsim-wire
//!
//! The shared wire layer of the simulator: a canonical **binary** codec,
//! length-prefixed **checksummed frames**, a **versioned handshake**, and
//! an in-memory **duplex pipe** for hermetic (thread-based) transports.
//!
//! Two subsystems speak this layer:
//!
//! * the **distributed engine** (`netsim-runtime::distributed`): shard
//!   workers exchange per-round envelope arenas and final
//!   [`RunMetrics`](../netsim_runtime/metrics/struct.RunMetrics.html)
//!   with the coordinator.  Engine rates rule out per-message JSON —
//!   framing overhead would dominate, exactly as in constrained-bandwidth
//!   interactive-traffic systems — hence the binary codec;
//! * the **campaign service** (`byzcount-campaign`): its line-delimited
//!   JSON hello predates this crate; the version-rule helpers here
//!   ([`handshake::check_spec_version`]) are the shared formulation both
//!   protocols apply.
//!
//! ## Design
//!
//! * [`frame`] reuses the campaign WAL's frame discipline —
//!   `[u32 LE length][u32 LE FNV-1a checksum][payload]` — so torn or
//!   corrupted frames are detected before a single payload byte is
//!   interpreted.
//! * [`codec`] is a deliberately small, explicit binary encoding: fixed
//!   little-endian integers and `u32`-length-prefixed sequences, plus
//!   minimal LEB128 varints for the fields that are small in practice,
//!   no self-description.  Every value has exactly one encoding.  Both
//!   sides must agree on the schema, which is what the handshake's major
//!   version and `spec_version` pin.
//! * [`handshake`] carries `(major, minor, spec_version)`: major strict,
//!   minor additive, and a peer speaking a *newer* payload schema is
//!   rejected up front instead of failing mid-stream with a parse error.
//! * [`pipe`] is a blocking in-memory byte duplex implementing
//!   `Read`/`Write`, so shard workers can run as threads speaking the
//!   exact production codec with no sockets involved — the hermetic mode
//!   the differential suites and CI use.
//! * [`net`] is the Unix/TCP socket transport (one `unix:<path>` /
//!   `host:port` address grammar behind [`Listener`] / [`IoStream`],
//!   shared with the campaign service, which re-exports it).  TCP
//!   streams get `TCP_NODELAY` on connect *and* accept, and
//!   [`IoStream::exchange_hello`] bounds the handshake with a read
//!   deadline so a mute peer cannot hang an accept loop.
//!
//! Decoding **never panics** on malformed input: truncated, bit-flipped
//! and over-length frames all surface as [`WireError`] values (the
//! property fuzz suite in `tests/property_based.rs` feeds this layer
//! arbitrary bytes).

pub mod codec;
pub mod frame;
pub mod handshake;
pub mod net;
pub mod pipe;

pub use codec::{decode_from_slice, encode_to_vec, put_varint, Reader, Wire, MAX_SEQ_LEN};
pub use frame::{checksum32, read_frame, read_frame_opt, write_frame, MAX_FRAME_BYTES};
pub use handshake::{
    check_spec_version, recv_hello, send_hello, ShardAssignment, WireHello, SPEC_VERSION_ANY,
    WIRE_MAJOR, WIRE_MINOR,
};
pub use net::{IoStream, Listener, HELLO_DEADLINE};
pub use pipe::{duplex, PipeEnd};

/// Errors of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// A frame or payload failed validation (bad checksum, truncated or
    /// trailing bytes, over-length prefix, unknown tag, …).
    Corrupt(String),
    /// The peer's handshake is incompatible (major or spec mismatch).
    Incompatible(String),
    /// A read timed out partway through a frame.  Unlike [`WireError::Io`]
    /// this is unrecoverable: part of the frame was consumed, so the
    /// stream can never be re-synchronized — callers must not retry.
    Desync(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Corrupt(msg) => write!(f, "corrupt wire data: {msg}"),
            WireError::Incompatible(msg) => write!(f, "incompatible peer: {msg}"),
            WireError::Desync(msg) => write!(f, "wire stream desynchronized: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}
