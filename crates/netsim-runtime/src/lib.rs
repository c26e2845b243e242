//! # netsim-runtime
//!
//! A deterministic, synchronous, round-based message-passing simulator with
//! full-information Byzantine adversaries.
//!
//! This is the execution substrate for the Byzantine counting reproduction:
//! the paper assumes the standard synchronous model (all nodes run in
//! lock-step rounds; a message sent in round `r` is received by the end of
//! round `r`) with an adaptive, full-information adversary controlling up to
//! `O(n^{1−δ})` nodes.  The [`engine::SyncEngine`] implements exactly that:
//!
//! * every node runs a [`node::Protocol`] state machine;
//! * in each round, every active node consumes its inbox (the messages
//!   addressed to it in the previous round) and queues its messages
//!   straight into the round arena through an engine-stamped [`Outbox`];
//! * the [`adversary::Adversary`] then observes *everything* — all node
//!   states, every message queued by honest nodes this round, and the
//!   messages the Byzantine nodes would have sent had they been honest — and
//!   may replace the Byzantine nodes' messages arbitrarily (it cannot forge
//!   the sender identity nor send over non-existent edges, matching the
//!   paper's "cannot lie about its ID to a neighbour" and "can communicate
//!   only along network edges" assumptions);
//! * message and byte accounting implements the paper's "small-sized
//!   message" metric (number of IDs plus additional bits).
//!
//! Determinism: every node receives its own `ChaCha8` RNG stream derived
//! from the master seed, and message delivery order within a round is
//! canonical (sorted by sender), so a run is a pure function of
//! `(topology, protocol, adversary, seed)` regardless of thread scheduling.
//!
//! Two engines execute the same semantics: the reference
//! [`engine::SyncEngine`], and the [`sharded::ShardedEngine`], which takes
//! its layout as explicit inputs — how many contiguous shards, the
//! per-node [`clock::ClockPlan`], and whether each shard lives in this
//! process or behind a `netsim-wire` channel ([`distributed`]).  Under
//! [`clock::ClockPlan::Uniform`] every layout is byte-identical to the
//! reference engine; heterogeneous clock plans leave the synchronous
//! model, and when the adversary is [`adversary::Adversary::idle_passive`]
//! and no fault plan is installed, virtual time jumps straight to the
//! next scheduled event (sparse ticking), making idle-heavy runs cost
//! O(events) instead of O(ticks) — with byte-identical results.

pub mod adversary;
pub mod batch;
pub mod clock;
pub mod distributed;
pub mod engine;
pub mod message;
pub mod metrics;
pub mod node;
pub mod ring;
mod shard;
pub mod sharded;
pub mod topology;

pub use adversary::{Adversary, AdversaryDecision, AdversaryView, NullAdversary};
pub use clock::{CalendarQueue, ClockPlan, EventClass, EventKey};
pub use distributed::{serve_shard_session, RemoteFleet, RunError, ShardServeConfig};
pub use engine::{EngineConfig, RunResult, SyncEngine};
pub use message::{Envelope, MessageSize, SizedMessage};
pub use metrics::RunMetrics;
pub use node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
pub use ring::DelayRing;
pub use sharded::{run_with_engine, shard_bounds, EngineKind, Exec, Layout, ShardedEngine};
pub use topology::Topology;

/// The structured-tracing subsystem (re-exported from [`netsim_trace`]):
/// an optional [`Recorder`] installed via `with_recorder` on any engine
/// observes phase spans, counters and gauges without perturbing the run.
pub use netsim_trace as trace;
pub use netsim_trace::{NoopRecorder, Recorder};

/// The wire layer (re-exported from [`netsim_wire`]): the binary codec,
/// checksummed frames and versioned handshake a [`ShardedEngine`]'s shard
/// channels speak.  A protocol's message and output types must implement
/// [`netsim_wire::Wire`] to run on the sharded engine (and, through the
/// shared dispatcher, on [`run_with_engine`]).
pub use netsim_wire as wire;

/// The fault-injection subsystem (re-exported from [`netsim_faults`]): an
/// optional [`FaultPlan`] installed via [`SyncEngine::with_fault_plan`]
/// makes the network itself lossy, slow, churning or partitioned.
pub use netsim_faults as faults;
pub use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan, FaultSpec, NoFaults};

/// Convenient re-exports for downstream crates.
pub mod prelude {
    pub use crate::adversary::{Adversary, AdversaryDecision, AdversaryView, NullAdversary};
    pub use crate::clock::ClockPlan;
    pub use crate::distributed::{serve_shard_session, RemoteFleet, RunError, ShardServeConfig};
    pub use crate::engine::{EngineConfig, RunResult, SyncEngine};
    pub use crate::message::{Envelope, MessageSize, SizedMessage};
    pub use crate::metrics::RunMetrics;
    pub use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
    pub use crate::sharded::{run_with_engine, EngineKind, Exec, Layout, ShardedEngine};
    pub use crate::topology::Topology;
    pub use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan, FaultSpec, NoFaults};
    pub use netsim_trace::{NoopRecorder, Recorder};
}

#[cfg(test)]
mod fixtures;
