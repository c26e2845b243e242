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
//! **`Fates { deliveries, deferred }`**: the envelopes destined for its
//! range, in global route order, and the deferred ones with their due
//! ticks.  At the end, **`Finish`** prompts each worker to expire its
//! in-flight deferrals and ship one final **`Done`** frame: its
//! delivery-side [`RunMetrics`], its range's outputs and decision rounds.
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
//! The coordinator's adversary sees exactly what it sees in process: the
//! gathered arenas and the masks.  Protocol states never leave their
//! shard, on any layout, so nothing about them needs to cross the wire.

use crate::clock::ClockPlan;
use crate::message::{Envelope, SizedMessage};
use crate::metrics::RunMetrics;
use crate::node::{NodeStatus, Protocol};
use crate::shard::Shard;
use crate::topology::Topology;
use netsim_graph::NodeId;
use netsim_wire::{
    decode_from_slice, encode_to_vec, read_frame, recv_hello, send_hello, write_frame, IoStream,
    Reader, ShardAssignment, Wire, WireError, WireHello, HELLO_DEADLINE,
};
use std::io::{Read, Write};

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

impl<M: Wire> Wire for Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.0.encode(out);
        self.to.0.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Envelope {
            from: NodeId(u32::decode(r)?),
            to: NodeId(u32::decode(r)?),
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

/// Coordinator → worker messages.
enum CoordMsg<M> {
    /// Open a tick: effective churn events for the worker's range, in the
    /// plan's global order.
    RoundBegin { round: u64, churn: Vec<(u32, u8)> },
    /// The tick's routing verdicts for this worker's destinations:
    /// immediate deliveries (in global route order) and deferred envelopes
    /// with their due ticks.
    Fates {
        deliveries: Vec<Envelope<M>>,
        deferred: Vec<(u64, Envelope<M>)>,
    },
    /// The run is over: expire in-flight deferrals and ship `Done`.
    Finish,
}

/// Worker → coordinator messages.
enum WorkerMsg<M, O> {
    /// The tick's gathered envelopes (honest and Byzantine-default, each
    /// in node order) plus the status transitions the worker's nodes took.
    Arenas {
        honest: Vec<Envelope<M>>,
        byz: Vec<Envelope<M>>,
        transitions: Vec<(u32, u8)>,
    },
    /// The worker's final frame: delivery-side metrics, its range's
    /// outputs and decision rounds.
    Done {
        metrics: RunMetrics,
        outputs: Vec<Option<O>>,
        decided: Vec<Option<u64>>,
    },
}

impl<M: Wire> Wire for CoordMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CoordMsg::RoundBegin { round, churn } => {
                out.push(0);
                round.encode(out);
                churn.encode(out);
            }
            CoordMsg::Fates {
                deliveries,
                deferred,
            } => {
                out.push(1);
                deliveries.encode(out);
                deferred.encode(out);
            }
            CoordMsg::Finish => out.push(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(CoordMsg::RoundBegin {
                round: u64::decode(r)?,
                churn: Vec::decode(r)?,
            }),
            1 => Ok(CoordMsg::Fates {
                deliveries: Vec::decode(r)?,
                deferred: Vec::decode(r)?,
            }),
            2 => Ok(CoordMsg::Finish),
            other => Err(WireError::Corrupt(format!(
                "unknown coordinator message tag {other}"
            ))),
        }
    }
}

impl<M: Wire, O: Wire> Wire for WorkerMsg<M, O> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerMsg::Arenas {
                honest,
                byz,
                transitions,
            } => {
                out.push(0);
                honest.encode(out);
                byz.encode(out);
                transitions.encode(out);
            }
            WorkerMsg::Done {
                metrics,
                outputs,
                decided,
            } => {
                out.push(1);
                metrics.encode(out);
                outputs.encode(out);
                decided.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(WorkerMsg::Arenas {
                honest: Vec::decode(r)?,
                byz: Vec::decode(r)?,
                transitions: Vec::decode(r)?,
            }),
            1 => Ok(WorkerMsg::Done {
                metrics: RunMetrics::decode(r)?,
                outputs: Vec::decode(r)?,
                decided: Vec::decode(r)?,
            }),
            other => Err(WireError::Corrupt(format!(
                "unknown worker message tag {other}"
            ))),
        }
    }
}

/// Send one codec message as one frame.
fn send_msg<W: Write, V: Wire>(w: &mut W, msg: &V) -> Result<(), WireError> {
    write_frame(w, &encode_to_vec(msg))
}

/// Receive one codec message from one frame (`scratch` is a reused buffer).
fn recv_msg<R: Read, V: Wire>(r: &mut R, scratch: &mut Vec<u8>) -> Result<V, WireError> {
    read_frame(r, scratch)?;
    decode_from_slice(scratch)
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
/// this tick's routing verdicts batched per shard.  It holds no per-node
/// state at all.
pub(crate) struct Remote<M> {
    chans: Vec<Box<dyn Channel>>,
    deliveries: Vec<Vec<Envelope<M>>>,
    deferred: Vec<Vec<(u64, Envelope<M>)>>,
    scratch: Vec<u8>,
}

impl<M: Wire> Remote<M> {
    pub(crate) fn new(chans: Vec<Box<dyn Channel>>) -> Self {
        Remote {
            deliveries: chans.iter().map(|_| Vec::new()).collect(),
            deferred: chans.iter().map(|_| Vec::new()).collect(),
            chans,
            scratch: Vec::new(),
        }
    }

    /// Open `tick` on every shard (handing each its churn) before any
    /// arena is read, so the workers step in parallel.
    pub(crate) fn open(&mut self, tick: u64, churn: &mut [Vec<(u32, u8)>]) -> Result<(), RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            let msg = CoordMsg::<M>::RoundBegin {
                round: tick,
                churn: std::mem::take(&mut churn[s]),
            };
            send_msg(chan, &msg).map_err(lost(s, "round-begin"))?;
        }
        Ok(())
    }

    /// Gather every shard's arenas and transitions, in shard order.
    pub(crate) fn gather<O: Wire>(
        &mut self,
        honest: &mut Vec<Envelope<M>>,
        byz: &mut Vec<Envelope<M>>,
        transitions: &mut Vec<(u32, u8)>,
    ) -> Result<(), RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            match recv_msg::<_, WorkerMsg<M, O>>(chan, &mut self.scratch)
                .map_err(lost(s, "arenas"))?
            {
                WorkerMsg::Arenas {
                    honest: h,
                    byz: b,
                    transitions: t,
                } => {
                    honest.extend(h);
                    byz.extend(b);
                    transitions.extend(t);
                }
                WorkerMsg::Done { .. } => {
                    return Err(RunError::WorkerLost {
                        shard: s,
                        during: "arenas",
                        detail: "worker sent its final frame mid-run".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Batch one routed envelope for shard `dest` (see [`Shard::accept`]).
    pub(crate) fn accept(&mut self, dest: usize, due: Option<u64>, env: Envelope<M>) {
        match due {
            None => self.deliveries[dest].push(env),
            Some(due) => self.deferred[dest].push((due, env)),
        }
    }

    /// Close the tick: scatter the batched fates to their shards.
    pub(crate) fn close(&mut self) -> Result<(), RunError> {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            let msg = CoordMsg::Fates {
                deliveries: std::mem::take(&mut self.deliveries[s]),
                deferred: std::mem::take(&mut self.deferred[s]),
            };
            send_msg(chan, &msg).map_err(lost(s, "fates"))?;
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
            send_msg(chan, &CoordMsg::<M>::Finish).map_err(lost(s, "finish"))?;
        }
        let mut outcomes = Vec::with_capacity(self.chans.len());
        for (s, chan) in self.chans.iter_mut().enumerate() {
            let fail = |detail: String| RunError::WorkerLost {
                shard: s,
                during: "done",
                detail,
            };
            match recv_msg::<_, WorkerMsg<M, O>>(chan, &mut self.scratch)
                .map_err(lost(s, "done"))?
            {
                WorkerMsg::Done {
                    metrics,
                    outputs,
                    decided,
                } => {
                    let expected = bounds[s + 1] - bounds[s];
                    if outputs.len() != expected || decided.len() != expected {
                        return Err(fail(format!(
                            "worker reported {} outputs / {} decisions for a {expected}-node range",
                            outputs.len(),
                            decided.len()
                        )));
                    }
                    outcomes.push((metrics, outputs, decided));
                }
                WorkerMsg::Arenas { .. } => {
                    return Err(fail("worker sent arenas at finish".into()));
                }
            }
        }
        Ok(outcomes)
    }
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
/// `Finish`, then ship the final `Done` frame.
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
    let mut scratch = Vec::new();
    loop {
        match recv_msg::<_, CoordMsg<P::Message>>(chan, &mut scratch)? {
            CoordMsg::RoundBegin { round, churn } => {
                shard.apply_churn(&churn)?;
                shard.open(round, topology);
                let msg = WorkerMsg::<_, P::Output>::Arenas {
                    honest: shard.honest.drain().collect(),
                    byz: shard.byz.drain().collect(),
                    transitions: std::mem::take(&mut shard.transitions),
                };
                send_msg(chan, &msg)?;
            }
            CoordMsg::Fates {
                deliveries,
                deferred,
            } => {
                for env in deliveries {
                    shard.accept(None, env);
                }
                for (due, env) in deferred {
                    shard.accept(Some(due), env);
                }
                shard.drain();
            }
            CoordMsg::Finish => {
                shard.finish();
                let msg = WorkerMsg::<P::Message, _>::Done {
                    metrics: shard.metrics,
                    outputs: shard.outputs,
                    decided: shard.decided_round,
                };
                return send_msg(chan, &msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::engine::{EngineConfig, RunResult};
    use crate::fixtures::{assert_results_equal, flood_states, line_graph, Val};
    use crate::sharded::{Layout, ShardedEngine};
    use netsim_wire::{Listener, SPEC_VERSION_ANY};
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
        let env = Envelope::new(NodeId(7), NodeId(3), Val(0xDEAD_BEEF));
        let bytes = encode_to_vec(&env);
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

        // The final worker frame round-trips with outputs and decisions.
        let done = WorkerMsg::<Val, u64>::Done {
            metrics: back,
            outputs: vec![Some(9), None, Some(u64::MAX)],
            decided: vec![Some(4), None, Some(7)],
        };
        let bytes = encode_to_vec(&done);
        match decode_from_slice::<WorkerMsg<Val, u64>>(&bytes).unwrap() {
            WorkerMsg::Done {
                outputs, decided, ..
            } => {
                assert_eq!(outputs, vec![Some(9), None, Some(u64::MAX)]);
                assert_eq!(decided, vec![Some(4), None, Some(7)]);
            }
            WorkerMsg::Arenas { .. } => panic!("wrong tag"),
        }
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
            let _round: CoordMsg<Val> = recv_msg(&mut stream, &mut scratch).unwrap();
            let arenas = WorkerMsg::<Val, u64>::Arenas {
                honest: Vec::new(),
                byz: Vec::new(),
                transitions: Vec::new(),
            };
            send_msg(&mut stream, &arenas).unwrap();
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
