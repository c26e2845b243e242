//! Shards behind a `netsim-wire` channel: the [`Layout::Wire`] transport
//! of the [`ShardedEngine`].
//!
//! Each shard is owned by a worker — a scoped thread at the far end of an
//! in-memory [`netsim_wire::pipe`], or a session on a `shard-worker`
//! process dialed from a [`RemoteFleet`] (Unix-domain or TCP, round-robin
//! over the address list).  A remote worker receives a
//! [`ShardAssignment`] in the coordinator's hello — the node range, the
//! determinism anchors (engine seed, initial crashes, pristine flag) and
//! an opaque payload (the serialized run spec) from which it rebuilds its
//! slice of the simulation and then calls [`serve_shard_session`].  Every
//! per-tick payload crosses the full handshake/frame/codec stack, so the
//! conversation is byte-identical over pipes, Unix sockets, TCP loopback,
//! or a mix.
//!
//! [`Layout::Wire`]: crate::Layout::Wire
//! [`ShardedEngine`]: crate::ShardedEngine
//!
//! ## The conversation
//!
//! Per tick, the coordinator sends every worker a **`RoundBegin { round,
//! churn }`** (the effective churn events for its range) before it reads
//! any reply, so workers compute in parallel.  Each worker applies the
//! churn, steps its nodes and answers **`Arenas { honest, byz,
//! transitions }`**: its envelopes in node order plus the status
//! transitions its nodes took.  The coordinator gathers the arenas in
//! shard order, takes the adversary cut, routes, and sends each worker
//! **`Fates`**: one sequence, in global route order, of every envelope
//! routed to its range this tick, each due now or deferred to a later
//! tick.  An envelope the worker shipped itself comes back as a reference
//! into its own arenas (honest, then Byzantine-default, one index space);
//! only another shard's envelopes and the ones the adversary wrote travel
//! whole.  So each envelope crosses the wire once, or twice if it changes
//! shard.  A worker keeps the arenas it shipped until the tick's fates
//! arrive and discards the envelopes no item names (dropped by validation
//! or lost to the fault plan).  At the end, **`Finish`** prompts each
//! worker to expire its in-flight deferrals and ship one final **`Done`**
//! frame: its delivery-side [`RunMetrics`], its range's outputs and
//! decision rounds.
//!
//! The per-tick frames use the compact canonical encoding of
//! [`batch`](crate::batch): minimal varints, senders delta-coded inside
//! an arena, references delta-coded inside a batch.  Churn events and
//! transitions are a varint count, then a varint node id and an op byte
//! each; a `RoundBegin`'s round is a varint.  `Done` keeps the codec's
//! fixed-width layout.
//!
//! ## Failure semantics
//!
//! A worker channel failing mid-conversation — a torn frame, a dead
//! process, an incompatible hello — is **not** a panic: every wire
//! interaction surfaces as [`RunError::WorkerLost`] naming the shard and
//! the protocol step it died in.  A SIGKILLed worker process closes its
//! socket, the coordinator's next read sees EOF, and the run returns a
//! clean `Err` the caller (e.g. the campaign scheduler) can retry.  Only
//! the handshake has a deadline ([`HELLO_DEADLINE`]): a worker that stops
//! answering after it still blocks the coordinator.
//!
//! The worker side is just as strict.  A coordinator frame out of turn,
//! or one that does not decode — a reference out of range, repeated or
//! stepping backwards, an item addressed outside the range, a non-minimal
//! varint, trailing bytes — ends the session with [`WireError::Corrupt`],
//! never a panic.
//!
//! The coordinator's adversary sees exactly what it sees in process: the
//! gathered arenas and the masks.  Protocol states never leave their
//! shard, on any layout, so nothing about them needs to cross the wire.

use crate::batch::{decode_arena, encode_arena, FatesWriter};
use crate::clock::ClockPlan;
use crate::message::{Envelope, SizedMessage};
use crate::metrics::RunMetrics;
use crate::node::{NodeStatus, Protocol};
use crate::shard::Shard;
use crate::topology::Topology;
use netsim_graph::NodeId;
use netsim_wire::{
    put_varint, read_frame, recv_hello, send_hello, write_frame, IoStream, Reader, ShardAssignment,
    Wire, WireError, WireHello, HELLO_DEADLINE,
};
use std::io::{Read, Write};
use std::ops::Range;

/// Why a distributed run could not complete.
///
/// These are *engine* faults (a transport or peer failed), never protocol
/// results: a run that merely fails to decide still returns
/// `Ok(RunResult { completed: false, .. })`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A shard worker's channel failed mid-conversation: torn frame,
    /// closed socket (e.g. the worker process was killed), protocol
    /// violation or incompatible hello.
    WorkerLost {
        /// Which shard's channel failed.
        shard: usize,
        /// The protocol step the failure surfaced in (`"hello"`,
        /// `"round-begin"`, `"arenas"`, `"fates"`, `"finish"`, `"done"`).
        during: &'static str,
        /// The underlying error, stringified.
        detail: String,
    },
    /// The worker fleet could not be set up (bad address, refused dial).
    Fleet(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::WorkerLost {
                shard,
                during,
                detail,
            } => {
                write!(f, "shard worker {shard} lost during {during}: {detail}")
            }
            RunError::Fleet(msg) => write!(f, "worker fleet unavailable: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Shorthand for the per-step `WireError` → [`RunError::WorkerLost`]
/// mapping.
pub(crate) fn lost(shard: usize, during: &'static str) -> impl Fn(WireError) -> RunError {
    move |e| RunError::WorkerLost {
        shard,
        during,
        detail: e.to_string(),
    }
}

/// Where (and how) to find process-level shard workers.
///
/// Shard `s` dials `addrs[s % addrs.len()]` (round-robin, so a fleet
/// smaller than the shard count serves several sessions per process, and
/// a mixed Unix/TCP address list yields a mixed-transport run).  The
/// `payload` rides the hello's [`ShardAssignment`] opaquely — for
/// spec-driven runs it is the serialized `RunSpec` the worker rebuilds
/// its node range from.
#[derive(Clone, Debug)]
pub struct RemoteFleet {
    /// Worker addresses, `unix:<path>` or `host:port`.
    pub addrs: Vec<String>,
    /// Opaque application bytes shipped in every assignment.
    pub payload: Vec<u8>,
    /// Payload schema pin for the handshake (`SPEC_VERSION_ANY` to opt
    /// out).
    pub spec_version: u32,
}

impl RemoteFleet {
    /// A fleet over `addrs`, shipping `payload` pinned to `spec_version`.
    pub fn new(addrs: Vec<String>, payload: Vec<u8>, spec_version: u32) -> Self {
        RemoteFleet {
            addrs,
            payload,
            spec_version,
        }
    }

    /// Dial one worker session per shard and hand each its assignment.
    pub(crate) fn dial(
        &self,
        bounds: &[usize],
        seed: u64,
        pristine: bool,
        statuses: &[NodeStatus],
    ) -> Result<Vec<Box<dyn Channel>>, RunError> {
        let n = statuses.len() as u32;
        let mut chans: Vec<Box<dyn Channel>> = Vec::with_capacity(bounds.len() - 1);
        for (s, w) in bounds.windows(2).enumerate() {
            let addr = &self.addrs[s % self.addrs.len()];
            let mut stream = IoStream::connect(addr)
                .map_err(|e| RunError::Fleet(format!("dialing {addr} for shard {s}: {e}")))?;
            let crashed = (w[0]..w[1])
                .filter(|&i| statuses[i] == NodeStatus::Crashed)
                .map(|i| i as u32)
                .collect();
            let assignment = ShardAssignment {
                start: w[0] as u32,
                end: w[1] as u32,
                n,
                seed,
                pristine,
                crashed,
                payload: self.payload.clone(),
            };
            stream
                .exchange_hello(
                    &WireHello::with_assignment(self.spec_version, assignment),
                    HELLO_DEADLINE,
                )
                .map_err(lost(s, "hello"))?;
            chans.push(Box::new(stream));
        }
        Ok(chans)
    }
}

impl Wire for SizedMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ids.encode(out);
        self.bits.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SizedMessage {
            ids: u32::decode(r)?,
            bits: u32::decode(r)?,
        })
    }
}

/// A lone envelope: sender and recipient as varints, then the payload.
/// The per-tick batches code envelopes more tightly still (see
/// [`batch`](crate::batch)).
impl<M: Wire> Wire for Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.from.0));
        put_varint(out, u64::from(self.to.0));
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Envelope {
            from: NodeId(r.varint_u32()?),
            to: NodeId(r.varint_u32()?),
            payload: M::decode(r)?,
        })
    }
}

impl Wire for RunMetrics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.messages_delivered.encode(out);
        self.messages_dropped.encode(out);
        self.messages_lost.encode(out);
        self.messages_delayed.encode(out);
        self.messages_expired.encode(out);
        self.churn_crashes.encode(out);
        self.churn_recoveries.encode(out);
        self.total_ids.encode(out);
        self.total_bits.encode(out);
        self.max_message.encode(out);
        self.per_round_messages.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RunMetrics {
            rounds: u64::decode(r)?,
            messages_delivered: u64::decode(r)?,
            messages_dropped: u64::decode(r)?,
            messages_lost: u64::decode(r)?,
            messages_delayed: u64::decode(r)?,
            messages_expired: u64::decode(r)?,
            churn_crashes: u64::decode(r)?,
            churn_recoveries: u64::decode(r)?,
            total_ids: u64::decode(r)?,
            total_bits: u64::decode(r)?,
            max_message: SizedMessage::decode(r)?,
            per_round_messages: Vec::decode(r)?,
        })
    }
}

/// Coordinator → worker frame tags.
const ROUND_BEGIN: u8 = 0;
const FATES: u8 = 1;
const FINISH: u8 = 2;
/// Worker → coordinator frame tags.
const ARENAS: u8 = 0;
const DONE: u8 = 1;

/// Append `(node, op)` pairs (churn events or status transitions): a
/// varint count, then a varint node id and an op byte each.
fn put_ops(out: &mut Vec<u8>, ops: &[(u32, u8)]) {
    put_varint(out, ops.len() as u64);
    for &(node, op) in ops {
        put_varint(out, u64::from(node));
        out.push(op);
    }
}

/// Decode `(node, op)` pairs, appending them to `into`.  Both op
/// vocabularies (churn, transitions) are `0` or `1`, and every node must
/// lie in `nodes`.
fn decode_ops(
    r: &mut Reader<'_>,
    nodes: Range<u32>,
    into: &mut Vec<(u32, u8)>,
) -> Result<(), WireError> {
    for _ in 0..r.varint_len()? {
        let node = r.varint_u32()?;
        let op = u8::decode(r)?;
        if !nodes.contains(&node) || op > 1 {
            return Err(WireError::Corrupt(format!(
                "op {op} for node {node} (this shard holds {nodes:?})"
            )));
        }
        into.push((node, op));
    }
    Ok(())
}

/// A frame's tag, checked against the one this step of the conversation
/// expects.
fn expect_tag(r: &mut Reader<'_>, want: u8, what: &str) -> Result<(), WireError> {
    match u8::decode(r)? {
        tag if tag == want => Ok(()),
        tag => Err(WireError::Corrupt(format!(
            "frame tag {tag} where {what} (tag {want}) was due"
        ))),
    }
}

/// Exchange hellos over a pipe: both ends of an in-process channel share
/// the build, so neither needs a deadline.
pub(crate) fn pipe_hello<S: Read + Write>(chan: &mut S, ours: &WireHello) -> Result<(), WireError> {
    send_hello(chan, ours)?;
    recv_hello(chan)?.check_compatible(ours)
}

/// The coordinator's end of one shard channel: an in-memory pipe to a
/// scoped worker thread, or a socket to a worker process.
pub(crate) trait Channel: Read + Write + Send {}

impl<S: Read + Write + Send> Channel for S {}

/// What a finished shard hands back: its delivery-side metrics, and its
/// range's outputs and decision rounds.
pub(crate) type ShardOutcome<O> = (RunMetrics, Vec<Option<O>>, Vec<Option<u64>>);

/// The coordinator's side of shards behind channels: the channels, plus
/// this tick's `Fates` batches as they build.  It holds no per-node state
/// at all.
pub(crate) struct Remote {
    chans: Vec<Box<dyn Channel>>,
    /// Per shard, where the envelopes it shipped this tick sit in the
    /// gathered stream (honest arena, then Byzantine-default arena).
    shipped: Vec<[Range<usize>; 2]>,
    fates: Vec<FatesWriter>,
    /// Reused receive and send buffers.
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

impl Remote {
    pub(crate) fn new(chans: Vec<Box<dyn Channel>>) -> Self {
        Remote {
            shipped: vec![[0..0, 0..0]; chans.len()],
            fates: chans.iter().map(|_| FatesWriter::default()).collect(),
            chans,
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// Open `tick` on every shard (handing each its churn) before any
    /// arena is read, so the workers step in parallel.
    pub(crate) fn open(&mut self, tick: u64, churn: &mut [Vec<(u32, u8)>]) -> Result<(), RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            self.outbox.clear();
            self.outbox.push(ROUND_BEGIN);
            put_varint(&mut self.outbox, tick);
            put_ops(&mut self.outbox, &churn[s]);
            churn[s].clear();
            write_frame(chan, &self.outbox).map_err(lost(s, "round-begin"))?;
            self.fates[s].begin(tick);
        }
        Ok(())
    }

    /// Gather every shard's arenas and transitions, in shard order
    /// (`bounds` gives each shard's node range).
    pub(crate) fn gather<M: Wire>(
        &mut self,
        bounds: &[usize],
        honest: &mut Vec<Envelope<M>>,
        byz: &mut Vec<Envelope<M>>,
        transitions: &mut Vec<(u32, u8)>,
    ) -> Result<(), RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            let nodes = bounds[s] as u32..bounds[s + 1] as u32;
            let (h, b) = (honest.len(), byz.len());
            read_frame(chan, &mut self.inbox)
                .and_then(|()| {
                    let mut r = Reader::new(&self.inbox);
                    expect_tag(&mut r, ARENAS, "arenas")?;
                    decode_arena(&mut r, nodes.clone(), honest)?;
                    decode_arena(&mut r, nodes.clone(), byz)?;
                    decode_ops(&mut r, nodes, transitions)?;
                    r.finish()
                })
                .map_err(lost(s, "arenas"))?;
            self.shipped[s] = [h..honest.len(), b..byz.len()];
        }
        // The Byzantine-default stream follows the whole honest one.
        for [_, byz_span] in &mut self.shipped {
            *byz_span = byz_span.start + honest.len()..byz_span.end + honest.len();
        }
        Ok(())
    }

    /// Batch one routed envelope for shard `dest` (see [`Shard::accept`]).
    /// `pos` is its place in the gathered stream (`None` if the adversary
    /// wrote it): an envelope `dest` shipped itself travels back as a
    /// reference, any other whole.
    pub(crate) fn accept<M: Wire>(
        &mut self,
        dest: usize,
        due: Option<u64>,
        pos: Option<usize>,
        env: &Envelope<M>,
    ) {
        let [honest, byz] = &self.shipped[dest];
        let fates = &mut self.fates[dest];
        match pos {
            Some(p) if honest.contains(&p) => fates.own(due, p - honest.start),
            Some(p) if byz.contains(&p) => fates.own(due, honest.len() + p - byz.start),
            _ => fates.whole(due, env),
        }
    }

    /// Close the tick: send every shard its `Fates` batch.
    pub(crate) fn close(&mut self) -> Result<(), RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            self.outbox.clear();
            self.outbox.push(FATES);
            self.fates[s].finish(&mut self.outbox);
            write_frame(chan, &self.outbox).map_err(lost(s, "fates"))?;
        }
        Ok(())
    }

    /// End the run on every shard and collect each one's outcome, in shard
    /// order (`bounds` checks each reply covers its range).
    pub(crate) fn finish<O: Wire>(
        mut self,
        bounds: &[usize],
    ) -> Result<Vec<ShardOutcome<O>>, RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            write_frame(chan, &[FINISH]).map_err(lost(s, "finish"))?;
        }
        let mut outcomes = Vec::with_capacity(self.chans.len());
        for (s, chan) in self.chans.iter_mut().enumerate() {
            let expected = bounds[s + 1] - bounds[s];
            let outcome = read_frame(chan, &mut self.inbox)
                .and_then(|()| decode_done::<O>(&self.inbox, expected))
                .map_err(lost(s, "done"))?;
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }
}

/// A worker's final frame: its delivery-side metrics, then its range's
/// outputs and decision rounds.
fn encode_done<O: Wire>(
    out: &mut Vec<u8>,
    metrics: &RunMetrics,
    outputs: &Vec<Option<O>>,
    decided: &Vec<Option<u64>>,
) {
    out.push(DONE);
    metrics.encode(out);
    outputs.encode(out);
    decided.encode(out);
}

/// Decode a `Done` frame for a range of `len` nodes.
fn decode_done<O: Wire>(bytes: &[u8], len: usize) -> Result<ShardOutcome<O>, WireError> {
    let mut r = Reader::new(bytes);
    expect_tag(&mut r, DONE, "done")?;
    let metrics = RunMetrics::decode(&mut r)?;
    let outputs: Vec<Option<O>> = Vec::decode(&mut r)?;
    let decided: Vec<Option<u64>> = Vec::decode(&mut r)?;
    r.finish()?;
    if outputs.len() != len || decided.len() != len {
        return Err(WireError::Corrupt(format!(
            "worker reported {} outputs / {} decisions for a {len}-node range",
            outputs.len(),
            decided.len()
        )));
    }
    Ok((metrics, outputs, decided))
}

/// Everything a process-level shard worker needs beyond its node range's
/// states and Byzantine mask — normally lifted straight off the
/// coordinator's hello via [`ShardServeConfig::from_assignment`].
#[derive(Clone, Debug)]
pub struct ShardServeConfig {
    /// First global node id of the range.
    pub start: usize,
    /// The engine seed (per-node RNG sub-streams derive from it by global
    /// node id).
    pub seed: u64,
    /// Keep pristine state clones for churn recovery (true iff the
    /// coordinator runs a fault plan).
    pub keep_pristine: bool,
    /// Global ids within the range that start crashed.
    pub crashed: Vec<u32>,
}

impl ShardServeConfig {
    /// Lift the serve parameters off a coordinator's [`ShardAssignment`].
    pub fn from_assignment(a: &ShardAssignment) -> Self {
        ShardServeConfig {
            start: a.start as usize,
            seed: a.seed,
            keep_pristine: a.pristine,
            crashed: a.crashed.clone(),
        }
    }
}

/// Serve one coordinator session over an already-handshaken channel: the
/// process-level worker's side of the engine, fed with the node range's
/// freshly built states (`states`/`byzantine` cover the range only).
///
/// Determinism: given states built identically to the coordinator's (the
/// spec-driven runners construct per-node states by global node id, so a
/// range chunk is trivially identical), the conversation — and therefore
/// the run result — is byte-identical to the in-process transport.
pub fn serve_shard_session<T, P, S>(
    topology: &T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    cfg: &ShardServeConfig,
    chan: &mut S,
) -> Result<(), WireError>
where
    T: Topology,
    P: Protocol + Clone,
    P::Message: Wire,
    P::Output: Wire,
    S: Read + Write,
{
    let range = cfg.start..cfg.start + states.len();
    if byzantine.len() != range.len() {
        return Err(WireError::Corrupt(format!(
            "byzantine mask covers {} nodes, range has {}",
            byzantine.len(),
            range.len()
        )));
    }
    let mut shard = Shard::new(cfg.start, states, byzantine, cfg.seed, ClockPlan::Uniform);
    for &id in &cfg.crashed {
        if !range.contains(&(id as usize)) {
            return Err(WireError::Corrupt(format!(
                "initial crash id {id} outside range {range:?}"
            )));
        }
        shard.crash_initially(id as usize);
    }
    if cfg.keep_pristine {
        shard.keep_pristine();
    }
    serve(topology, shard, chan)
}

/// A worker's loop: drive `shard` from decoded coordinator frames until
/// `Finish`, then ship the final `Done` frame.  A tick is `RoundBegin`
/// (answered with `Arenas`), then `Fates`: the worker keeps the arenas it
/// shipped until the tick's fates name the envelopes that come back to
/// it.  A frame out of that order is corrupt.
pub(crate) fn serve<T, P, S>(
    topology: &T,
    mut shard: Shard<P>,
    chan: &mut S,
) -> Result<(), WireError>
where
    T: Topology,
    P: Protocol + Clone,
    P::Message: Wire,
    P::Output: Wire,
    S: Read + Write,
{
    let nodes = shard.start as u32..(shard.start + shard.len()) as u32;
    let (mut inbox, mut outbox, mut churn) = (Vec::new(), Vec::new(), Vec::new());
    let mut in_tick = false;
    loop {
        read_frame(chan, &mut inbox)?;
        let mut r = Reader::new(&inbox);
        outbox.clear();
        match (u8::decode(&mut r)?, in_tick) {
            (ROUND_BEGIN, false) => {
                let round = r.varint()?;
                churn.clear();
                decode_ops(&mut r, nodes.clone(), &mut churn)?;
                r.finish()?;
                shard.apply_churn(&churn)?;
                shard.open(round, topology);
                outbox.push(ARENAS);
                encode_arena(&mut outbox, nodes.start, shard.honest.envelopes());
                encode_arena(&mut outbox, nodes.start, shard.byz.envelopes());
                put_ops(&mut outbox, &shard.transitions);
                shard.transitions.clear();
                write_frame(chan, &outbox)?;
            }
            (FATES, true) => {
                shard.accept_fates(&mut r)?;
                r.finish()?;
                shard.drain();
            }
            (FINISH, false) => {
                r.finish()?;
                shard.finish();
                encode_done(
                    &mut outbox,
                    &shard.metrics,
                    &shard.outputs,
                    &shard.decided_round,
                );
                return write_frame(chan, &outbox);
            }
            (tag, _) => {
                return Err(WireError::Corrupt(format!(
                    "coordinator frame tag {tag} out of turn"
                )))
            }
        }
        in_tick = !in_tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::engine::{EngineConfig, RunResult};
    use crate::fixtures::{assert_results_equal, flood_states, line_graph, Val};
    use crate::sharded::{Layout, ShardedEngine};
    use netsim_wire::{decode_from_slice, duplex, encode_to_vec, Listener, SPEC_VERSION_ANY};
    use std::time::Duration;

    /// Max-flood over `shards` shards behind channels: pipe threads, or
    /// the fleet at `addrs`.
    fn flood(
        n: usize,
        ttl: u64,
        seed: u64,
        shards: usize,
        addrs: Vec<String>,
    ) -> Result<RunResult<u64>, RunError> {
        let g = line_graph(n);
        let fleet =
            (!addrs.is_empty()).then(|| RemoteFleet::new(addrs, Vec::new(), SPEC_VERSION_ANY));
        let layout = Layout::Wire { shards, fleet };
        let config = EngineConfig::default();
        ShardedEngine::new(
            &g,
            flood_states(n, ttl),
            vec![false; n],
            NullAdversary,
            config,
            seed,
            layout,
        )
        .run()
    }

    #[test]
    fn wire_round_trips_for_runtime_types() {
        let env = Envelope::new(NodeId(7), NodeId(300), Val(0xDEAD_BEEF));
        let bytes = encode_to_vec(&env);
        assert_eq!(&bytes[..3], [7, 0xAC, 0x02], "ids are varints");
        let back: Envelope<Val> = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, env);

        let mut metrics = RunMetrics::default();
        metrics.begin_round();
        metrics.record_delivery(SizedMessage::new(2, 17));
        metrics.record_fault_delay();
        metrics.begin_round();
        metrics.record_fault_expired(3);
        metrics.record_churn_crash();
        let bytes = encode_to_vec(&metrics);
        let back: RunMetrics = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, metrics);

        // Truncation is a clean error for composite payloads too.
        assert!(decode_from_slice::<RunMetrics>(&bytes[..bytes.len() - 3]).is_err());

        // The final worker frame round-trips with outputs and decisions,
        // and must cover the range it claims.
        let (outputs, decided) = (
            vec![Some(9), None, Some(u64::MAX)],
            vec![Some(4), None, Some(7)],
        );
        let mut bytes = Vec::new();
        encode_done(&mut bytes, &back, &outputs, &decided);
        let (m, o, d) = decode_done::<u64>(&bytes, 3).unwrap();
        assert_eq!((m, o, d), (back, outputs, decided));
        assert!(decode_done::<u64>(&bytes, 4).is_err());
        assert!(decode_done::<u64>(&[ARENAS, 0, 0, 0], 0).is_err());
    }

    /// Serve a four-node max-flood shard (ttl 3) over a pipe: open tick 0
    /// and read back its `Arenas` frame, then send `fates` and `Finish`.
    /// Returns what `serve` returned and whether the worker wrote anything
    /// after its arenas.
    fn serve_against(fates: &[u8]) -> (Result<(), WireError>, bool) {
        let (mut coord, mut worker) = duplex();
        let g = line_graph(4);
        let session = std::thread::spawn(move || {
            let shard = Shard::new(0, flood_states(4, 3), vec![false; 4], 1, ClockPlan::Uniform);
            serve(&g, shard, &mut worker)
        });
        write_frame(&mut coord, &[ROUND_BEGIN, 0, 0]).unwrap();
        let mut buf = Vec::new();
        read_frame(&mut coord, &mut buf).unwrap();
        let mut arenas = Vec::new();
        let mut r = Reader::new(&buf);
        expect_tag(&mut r, ARENAS, "arenas").unwrap();
        decode_arena::<Val>(&mut r, 0..4, &mut arenas).unwrap();
        assert_eq!(
            arenas.len(),
            6,
            "a line of four floods over six directed edges"
        );
        // A worker that refused the batch may already have hung up.
        let _ = write_frame(&mut coord, fates).and_then(|()| write_frame(&mut coord, &[FINISH]));
        let served = session.join().expect("serve must not panic");
        let more = !matches!(netsim_wire::read_frame_opt(&mut coord, &mut buf), Ok(false));
        (served, more)
    }

    /// A `Fates` frame: the tag, the item count, then the raw items.
    fn fates_frame(items: &[u64]) -> Vec<u8> {
        let mut frame = vec![FATES];
        put_varint(&mut frame, items.len() as u64);
        for &header in items {
            put_varint(&mut frame, header);
        }
        frame
    }

    #[test]
    fn hostile_fates_end_the_session_as_corrupt() {
        // Reference headers: the zigzag-coded step from the previous index
        // (from -1), shifted past the two flag bits.
        let step = |s: i64| ((s << 1) ^ (s >> 63)) as u64 * 4;
        let good = fates_frame(&[step(1), step(2), step(3)]);
        assert!(
            matches!(serve_against(&good), (Ok(()), true)),
            "a valid batch"
        );
        for (label, frame) in [
            ("out of range", fates_frame(&[step(7)])),
            ("repeat", fates_frame(&[step(2), step(0)])),
            ("backwards", fates_frame(&[step(3), step(-1)])),
            ("non-minimal varint", {
                let mut frame = fates_frame(&[]);
                frame[1] = 1;
                frame.extend_from_slice(&[0x84, 0x00]); // step(1), padded
                frame
            }),
            ("trailing bytes", {
                let mut frame = fates_frame(&[step(1)]);
                frame.push(0);
                frame
            }),
        ] {
            let (served, more) = serve_against(&frame);
            assert!(
                matches!(served, Err(WireError::Corrupt(_))),
                "{label}: {served:?}"
            );
            assert!(!more, "{label}: the worker must not answer a corrupt batch");
        }
    }

    #[test]
    fn frames_out_of_turn_end_the_session_as_corrupt() {
        // `Finish` and a second `RoundBegin` while a tick's fates are due.
        for frame in [vec![FINISH], vec![ROUND_BEGIN, 1, 0]] {
            let (served, more) = serve_against(&frame);
            assert!(matches!(served, Err(WireError::Corrupt(_))), "{served:?}");
            assert!(!more);
        }
    }

    #[test]
    fn a_non_minimal_varint_in_arenas_loses_the_worker() {
        // The worker answers the first round with an empty honest arena
        // whose count is padded to two bytes.
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let liar = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().expect("blocking accept");
            stream
                .exchange_hello(&WireHello::current(SPEC_VERSION_ANY), HELLO_DEADLINE)
                .unwrap();
            let mut scratch = Vec::new();
            read_frame(&mut stream, &mut scratch).unwrap();
            write_frame(&mut stream, &[ARENAS, 0x80, 0x00, 0, 0]).unwrap();
            // The coordinator hangs up without reading further.
            let _ = netsim_wire::read_frame_opt(&mut stream, &mut scratch);
        });
        let err = flood(8, 20, 1, 1, vec![addr]).expect_err("a lying worker must fail the run");
        match &err {
            RunError::WorkerLost {
                shard: 0,
                during: "arenas",
                detail,
            } => {
                assert!(detail.contains("non-minimal"), "{detail}")
            }
            other => panic!("expected WorkerLost during arenas, got {other}"),
        }
        liar.join().unwrap();
    }

    /// A process-worker stand-in: accept `sessions` coordinator sessions,
    /// serving each in its own thread (a coordinator holds several
    /// sessions on one address concurrently), rebuild the assigned node
    /// range from the hello, and serve it — exactly what
    /// `byzcount-cli shard-worker` does, minus the spec parsing.
    fn spawn_flood_worker(
        listener: Listener,
        sessions: usize,
        ttl: u64,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut serving = Vec::new();
            for _ in 0..sessions {
                let mut stream = listener.accept().unwrap().expect("blocking accept");
                serving.push(std::thread::spawn(move || {
                    let theirs = stream
                        .exchange_hello(&WireHello::current(SPEC_VERSION_ANY), HELLO_DEADLINE)
                        .unwrap();
                    let a = theirs.assignment.expect("coordinator sends an assignment");
                    let g = line_graph(a.n as usize);
                    let len = (a.end - a.start) as usize;
                    let cfg = ShardServeConfig::from_assignment(&a);
                    serve_shard_session(
                        &g,
                        flood_states(len, ttl),
                        vec![false; len],
                        &cfg,
                        &mut stream,
                    )
                    .unwrap();
                }));
            }
            for handle in serving {
                handle.join().unwrap();
            }
        })
    }

    #[test]
    fn remote_socket_workers_match_in_process_pipes_unix_tcp_and_mixed() {
        let (n, ttl, seed) = (24, 72, 42);
        let reference = flood(n, ttl, seed, 2, Vec::new()).unwrap();
        let unix_addr = format!(
            "unix:{}",
            std::env::temp_dir()
                .join(format!("nsr-dist-{}.sock", std::process::id()))
                .display()
        );
        let unix_listener = Listener::bind(&unix_addr).unwrap();
        let tcp_listener = Listener::bind("127.0.0.1:0").unwrap();
        let tcp_addr = tcp_listener.local_addr().unwrap();
        // Three transport legs: all-unix (both shards via one listener),
        // all-tcp, and mixed (shard 0 unix, shard 1 tcp) — so each worker
        // serves 2 + 1 sessions.
        let unix_worker = spawn_flood_worker(unix_listener, 3, ttl);
        let tcp_worker = spawn_flood_worker(tcp_listener, 3, ttl);
        for (label, addrs) in [
            ("unix", vec![unix_addr.clone()]),
            ("tcp", vec![tcp_addr.clone()]),
            ("mixed", vec![unix_addr.clone(), tcp_addr.clone()]),
        ] {
            let remote = flood(n, ttl, seed, 2, addrs).unwrap();
            assert_results_equal(&reference, &remote, label);
        }
        unix_worker.join().unwrap();
        tcp_worker.join().unwrap();
        if let Some(path) = unix_addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn a_worker_dying_mid_run_is_a_clean_error_not_a_panic() {
        // The worker accepts, handshakes, answers the first round, then
        // drops the connection cold — exactly what SIGKILL does to a real
        // worker process.  The coordinator must surface
        // `RunError::WorkerLost`, never panic.
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let quitter = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().expect("blocking accept");
            let theirs = stream
                .exchange_hello(
                    &WireHello::current(SPEC_VERSION_ANY),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert!(
                theirs.assignment.is_some(),
                "assignment must ride the hello"
            );
            let mut scratch = Vec::new();
            read_frame(&mut stream, &mut scratch).unwrap();
            // Empty arenas, no transitions.
            write_frame(&mut stream, &[ARENAS, 0, 0, 0]).unwrap();
            // Drop the stream: the coordinator's next read sees EOF.
        });
        let err = flood(8, 20, 1, 1, vec![addr]).expect_err("a dead worker must fail the run");
        match err {
            RunError::WorkerLost { shard, .. } => assert_eq!(shard, 0),
            other => panic!("expected WorkerLost, got {other}"),
        }
        quitter.join().unwrap();
    }

    #[test]
    fn an_unreachable_fleet_is_a_clean_error() {
        // A reserved port nobody listens on.
        let err = flood(4, 10, 0, 2, vec!["127.0.0.1:1".into()]).expect_err("nothing listens");
        assert!(matches!(err, RunError::Fleet(_)), "{err}");
    }
}
