//! Serializable run specifications.
//!
//! A [`RunSpec`] is the complete, versioned description of one simulation:
//! topology, workload, Byzantine placement, adversary, protocol parameters
//! and the master seed.  A [`BatchSpec`] lifts a `RunSpec` into a
//! multi-seed / multi-size campaign.  Both round-trip losslessly through
//! JSON (`to_json` / `from_json`), which makes campaigns reproducible and
//! diffable across runs and machines.
//!
//! The spec layer is deliberately plain data: adversary and baseline
//! workload variants are *named* here but interpreted by a
//! [`ScenarioRegistry`](crate::sim::ScenarioRegistry) (the full registry
//! lives downstream, where the concrete adversaries and estimators are in
//! scope).

use crate::params::ProtocolParams;
use crate::sim::error::SimError;
use netsim_faults::FaultSpec;
use netsim_graph::{balanced_tree, random_tree, Csr, NodeId, SmallWorldNetwork, WattsStrogatz};
use netsim_runtime::{ClockPlan, EngineKind, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Error, Map, Number, Serialize, Value};

/// Version of the specification schema.  Bump on breaking changes; readers
/// reject specs with a newer version than they understand.
///
/// History:
/// * **1** — the original schema (no fault layer).
/// * **2** — adds the `fault` field ([`FaultSpec`]).  Version-1 specs are
///   still accepted: a missing `fault` reads as [`FaultSpec::None`] and
///   parsing upgrades the spec in place ([`RunSpec::migrate`]), so a v1
///   spec and its v2 `fault: "None"` equivalent are indistinguishable — and
///   produce byte-identical reports.
/// * **3** — adds the `engine` field ([`EngineSpec`]): which engine
///   implementation executes the run (the classic
///   [`SyncEngine`](netsim_runtime::SyncEngine) or the sharded engine with
///   an explicit shard count).  Version-1/2 specs are still accepted: a
///   missing
///   `engine` reads as [`EngineSpec::Sync`] and parsing migrates in place.
///   The engine is execution *policy*, not semantics — every variant
///   produces byte-identical run results for equal spec and seed, which
///   `tests/sharded_parity.rs` locks down.
/// * **4** — adds the [`EngineSpec::Async`] variant: the event-driven
///   engine with per-node virtual clocks ([`ClockPlan`]).  No field is
///   added or removed, so version-1/2/3 specs all still parse unchanged
///   (missing/`null` engine still reads as [`EngineSpec::Sync`]); the
///   version bump marks that v3 readers cannot interpret an `Async`
///   engine value.  Under [`ClockPlan::Uniform`] the async engine is
///   byte-identical to the synchronous engines (`tests/async_parity.rs`);
///   heterogeneous clock plans are the first spec knob that changes run
///   *semantics* by design — deterministically per spec and seed.
/// * **5** — adds the [`EngineSpec::ShardedAsync`] variant: the
///   event-driven engine with per-shard calendar queues and clock
///   domains.  No field is added or removed, so version-1/2/3/4 specs all
///   still parse unchanged; the bump marks that v4 readers cannot
///   interpret a `ShardedAsync` engine value.  Like `Sharded`, the shard
///   count is pure execution policy: for equal spec and seed the run is
///   byte-identical to the unsharded async engine for every shard count.
/// * **6** — adds the [`EngineSpec::Distributed`] variant: shard workers
///   running as separate threads of control that speak the `netsim-wire`
///   binary codec over checksummed, versioned channels, with a coordinator
///   owning routing, faults and the adversary.  No field is added or
///   removed, so version-1/…/5 specs all still parse unchanged; the bump
///   marks that v5 readers cannot interpret a `Distributed` engine value.
///   Like `Sharded`, the worker count is pure execution policy: for equal
///   spec and seed the run is byte-identical to the unsharded synchronous
///   engine for every worker count (`tests/distributed_parity.rs`).
pub const SPEC_VERSION: u32 = 6;

/// Derive an independent seed stream from a master seed (SplitMix64).
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    rand::splitmix64(&mut state)
}

/// Seed sub-streams of a [`RunSpec`] master seed.
pub(crate) mod seed_stream {
    /// Topology generation.
    pub const TOPOLOGY: u64 = 1;
    /// Byzantine placement.
    pub const PLACEMENT: u64 = 2;
    /// Protocol execution.
    pub const RUN: u64 = 3;
    /// Fault injection (loss/delay/churn/partition streams).
    pub const FAULTS: u64 = 4;
}

/// The identity-derived seed (or identity tag) of one sweep cell: a stable
/// FNV-1a hash of the cell's identity `(workload, network, n)` mixed into
/// the base seed.
///
/// This is *the* workspace-wide definition of cell identity.  Identity-
/// derived (not position-derived), so sweep subsets, reorderings and future
/// sweep extensions never change an existing cell's value.  Two consumers
/// rely on that stability:
///
/// * the bench suite (`bench::suite`) derives every cell's *spec seed* from
///   it, which is what keeps `apply_baseline` joins across `--sizes`
///   subsets comparing runs of the same topology and placement;
/// * the campaign service (`byzcount-campaign`) derives every WAL record's
///   *identity tag* from it, which is what lets a resumed sweep verify that
///   a recovered record belongs to the cell it claims to.
///
/// The hash is pinned: changing it would silently unjoin historical bench
/// reports and orphan existing campaign stores, so it is locked by
/// regression literals in both consumers.
pub fn cell_seed(base: u64, workload: &str, network: &str, n: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(workload.as_bytes());
    mix(b"/");
    mix(network.as_bytes());
    mix(b"/");
    mix(&(n as u64).to_le_bytes());
    base ^ hash
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// Which communication graph to generate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The paper's small-world overlay `G = H(n, d) ∪ L`.
    SmallWorld {
        /// Number of nodes.
        n: usize,
        /// Degree of the base expander (even, ≥ 4).
        d: usize,
    },
    /// Only the base expander `H(n, d)` (what the baselines usually run on).
    SmallWorldH {
        /// Number of nodes.
        n: usize,
        /// Degree of the expander.
        d: usize,
    },
    /// A Watts–Strogatz rewired ring lattice.
    WattsStrogatz {
        /// Number of nodes.
        n: usize,
        /// Half-degree of the ring lattice (each node links to `k_half`
        /// neighbours on each side).
        k_half: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// A complete `arity`-ary tree.
    BalancedTree {
        /// Number of nodes.
        n: usize,
        /// Children per internal node.
        arity: usize,
    },
    /// A uniformly random labelled tree (optionally degree-capped).
    RandomTree {
        /// Number of nodes.
        n: usize,
        /// Maximum degree, `None` for unbounded.
        max_degree: Option<usize>,
    },
}

impl TopologySpec {
    /// Number of nodes the spec will generate.
    pub fn n(&self) -> usize {
        match *self {
            TopologySpec::SmallWorld { n, .. }
            | TopologySpec::SmallWorldH { n, .. }
            | TopologySpec::WattsStrogatz { n, .. }
            | TopologySpec::BalancedTree { n, .. }
            | TopologySpec::RandomTree { n, .. } => n,
        }
    }

    /// The same topology family at a different size (for size sweeps).
    pub fn with_n(&self, n: usize) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            TopologySpec::SmallWorld { n: slot, .. }
            | TopologySpec::SmallWorldH { n: slot, .. }
            | TopologySpec::WattsStrogatz { n: slot, .. }
            | TopologySpec::BalancedTree { n: slot, .. }
            | TopologySpec::RandomTree { n: slot, .. } => *slot = n,
        }
        spec
    }

    /// Nominal degree, used to derive protocol parameters for non-small-world
    /// topologies.
    pub fn nominal_degree(&self) -> usize {
        match *self {
            TopologySpec::SmallWorld { d, .. } | TopologySpec::SmallWorldH { d, .. } => d,
            TopologySpec::WattsStrogatz { k_half, .. } => 2 * k_half,
            TopologySpec::BalancedTree { arity, .. } => arity + 1,
            TopologySpec::RandomTree { max_degree, .. } => max_degree.unwrap_or(4),
        }
    }

    /// Generate the topology (deterministic in `seed`).
    pub fn build(&self, seed: u64) -> Result<BuiltTopology, SimError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(match *self {
            TopologySpec::SmallWorld { n, d } => {
                BuiltTopology::SmallWorld(SmallWorldNetwork::generate_seeded(n, d, seed)?)
            }
            TopologySpec::SmallWorldH { n, d } => {
                // Build only H — the k-ball overlay expansion that dominates
                // full small-world generation is never needed here.  The RNG
                // seeding matches `generate_seeded`, so H is the same graph
                // the SmallWorld variant would contain.
                let h = netsim_graph::HGraph::generate(n, d, &mut rng)?;
                BuiltTopology::Graph(h.csr().clone())
            }
            TopologySpec::WattsStrogatz { n, k_half, beta } => {
                BuiltTopology::WattsStrogatz(WattsStrogatz::generate(n, k_half, beta, &mut rng)?)
            }
            TopologySpec::BalancedTree { n, arity } => {
                BuiltTopology::Graph(balanced_tree(n, arity)?)
            }
            TopologySpec::RandomTree { n, max_degree } => {
                BuiltTopology::Graph(random_tree(n, max_degree, &mut rng)?)
            }
        })
    }
}

/// A materialized topology, kept concrete so knowledge-based adversaries can
/// recover the small-world structure when it exists.
#[derive(Clone, Debug)]
pub enum BuiltTopology {
    /// The full small-world overlay.
    SmallWorld(SmallWorldNetwork),
    /// A plain CSR graph (expander-only, trees, custom graphs).
    Graph(Csr),
    /// A Watts–Strogatz graph.
    WattsStrogatz(WattsStrogatz),
}

impl BuiltTopology {
    /// The underlying small-world network, when this topology has one.
    pub fn small_world(&self) -> Option<&SmallWorldNetwork> {
        match self {
            BuiltTopology::SmallWorld(net) => Some(net),
            _ => None,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        match self {
            BuiltTopology::SmallWorld(net) => net.len(),
            BuiltTopology::Graph(g) => g.len(),
            BuiltTopology::WattsStrogatz(ws) => ws.len(),
        }
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Topology for BuiltTopology {
    fn len(&self) -> usize {
        BuiltTopology::len(self)
    }

    fn neighbors(&self, v: NodeId) -> &[u32] {
        match self {
            BuiltTopology::SmallWorld(net) => net.g_neighbors(v),
            BuiltTopology::Graph(g) => g.neighbors(v),
            BuiltTopology::WattsStrogatz(ws) => ws.csr().neighbors(v),
        }
    }
}

// ---------------------------------------------------------------------------
// Workload / placement / adversary / params
// ---------------------------------------------------------------------------

/// Byzantine behaviour against a *baseline* estimator (mirrors
/// `byzcount_baselines::BaselineAttack`, kept here so the spec layer stays
/// dependency-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackSpec {
    /// Byzantine nodes follow the baseline protocol.
    #[default]
    None,
    /// Byzantine nodes push an extreme value.
    Inflate,
    /// Byzantine nodes swallow messages they should forward.
    Suppress,
}

/// What to execute over the topology.
///
/// A TTL baseline's engine round cap is `ttl + 4`.  When a baseline's own
/// horizon field is `None` and [`RunSpec::max_rounds`] is set, that cap
/// wins over the value derived from `n` below (a TTL baseline then floods
/// for `max(max_rounds − 4, 1)` rounds).  `byzcount_baselines::workloads`
/// resolves every horizon in one place and documents the precedence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Algorithm 1 (counting without verification).
    Basic,
    /// Algorithm 2 (Byzantine-tolerant counting).
    Byzantine,
    /// Geometric support estimation baseline (estimates `log₂ n`).
    GeometricSupport {
        /// Flooding horizon; `None` derives `⌈3·log₂ n⌉ + 5`.
        ttl: Option<u64>,
        /// Byzantine behaviour.
        attack: AttackSpec,
    },
    /// Exponential support estimation baseline (estimates `n`).
    ExponentialSupport {
        /// Flooding horizon; `None` derives `⌈3·log₂ n⌉ + 5`.
        ttl: Option<u64>,
        /// Byzantine behaviour.
        attack: AttackSpec,
    },
    /// BFS spanning-tree + converge-cast exact count (estimates `n`).
    SpanningTree {
        /// Engine round cap; `None` derives `max(4·(⌈3·log₂ n⌉ + 5), 2n + 8)`
        /// (linear in `n`: 4,104 rounds at `n = 2048`).
        max_rounds: Option<u64>,
        /// Byzantine behaviour.
        attack: AttackSpec,
    },
    /// Leader flood, first-arrival round as a diameter proxy.
    FloodDiameter {
        /// Flooding horizon; `None` derives `max(⌈3·log₂ n⌉ + 5, n)`.
        ttl: Option<u64>,
        /// Byzantine behaviour.
        attack: AttackSpec,
    },
}

impl WorkloadSpec {
    /// Short stable name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Basic => "basic-counting",
            WorkloadSpec::Byzantine => "byzantine-counting",
            WorkloadSpec::GeometricSupport { .. } => "geometric-support",
            WorkloadSpec::ExponentialSupport { .. } => "exponential-support",
            WorkloadSpec::SpanningTree { .. } => "spanning-tree",
            WorkloadSpec::FloodDiameter { .. } => "flood-diameter",
        }
    }

    /// Whether this is one of the two counting protocols (as opposed to a
    /// baseline estimator).
    pub fn is_counting(&self) -> bool {
        matches!(self, WorkloadSpec::Basic | WorkloadSpec::Byzantine)
    }
}

/// How Byzantine nodes are placed.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// No Byzantine nodes.
    #[default]
    None,
    /// `count` nodes chosen uniformly at random.
    Random {
        /// Number of Byzantine nodes.
        count: usize,
    },
    /// The paper's budget `⌊n^{1−δ}⌋`, chosen uniformly at random.
    RandomBudget {
        /// Fault exponent.
        delta: f64,
    },
    /// `count` nodes clustered around a random centre (BFS ball).
    Clustered {
        /// Number of Byzantine nodes.
        count: usize,
    },
    /// Exactly these node indices.
    Exact {
        /// Byzantine node indices.
        nodes: Vec<u32>,
    },
}

impl PlacementSpec {
    /// Materialize the Byzantine mask over a topology (deterministic in
    /// `seed`).
    pub fn materialize(&self, topo: &BuiltTopology, seed: u64) -> Result<Vec<bool>, SimError> {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let n = topo.len();
        let mut mask = vec![false; n];
        match self {
            PlacementSpec::None => {}
            PlacementSpec::Random { .. } | PlacementSpec::RandomBudget { .. } => {
                let count = match self {
                    PlacementSpec::Random { count } => (*count).min(n),
                    PlacementSpec::RandomBudget { delta } => {
                        ((n as f64).powf(1.0 - delta).floor() as usize).min(n)
                    }
                    _ => unreachable!(),
                };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(&mut rng);
                for &i in idx.iter().take(count) {
                    mask[i] = true;
                }
            }
            PlacementSpec::Clustered { count } => {
                let count = (*count).min(n);
                if count > 0 && n > 0 {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let center = rng.gen_range(0..n);
                    let dist = bfs_over_topology(topo, center);
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_by_key(|&i| dist[i]);
                    for &i in order.iter().take(count) {
                        mask[i] = true;
                    }
                }
            }
            PlacementSpec::Exact { nodes } => {
                for &v in nodes {
                    let i = v as usize;
                    if i >= n {
                        return Err(SimError::Spec(format!(
                            "placement node {i} out of range for n = {n}"
                        )));
                    }
                    mask[i] = true;
                }
            }
        }
        Ok(mask)
    }
}

/// BFS distances over any [`Topology`] (used for clustered placement on
/// graphs that are not small-world networks).
fn bfs_over_topology(topo: &BuiltTopology, source: usize) -> Vec<u32> {
    let n = topo.len();
    let mut dist = vec![u32::MAX; n];
    if source >= n {
        return dist;
    }
    dist[source] = 0;
    let mut queue = std::collections::VecDeque::from([source as u32]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &u in Topology::neighbors(topo, NodeId(v)) {
            if (u as usize) < n && dist[u as usize] == u32::MAX {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// When the color-inflation adversary injects (mirrors
/// `byzcount_adversary::InjectionTiming`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingSpec {
    /// At the generation step (legal-looking injection).
    Legal,
    /// In the step the continuation criterion inspects.
    LastStep,
}

/// Which full-information adversary drives the Byzantine nodes of a
/// *counting* workload (baseline workloads embed their attack in the
/// workload spec instead).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversarySpec {
    /// Byzantine nodes follow the protocol.
    #[default]
    Null,
    /// Byzantine nodes behave honestly (control condition).
    HonestBehaving,
    /// Byzantine nodes never send anything.
    Silent,
    /// Maximal-color injection.
    ColorInflation {
        /// Injection timing.
        timing: TimingSpec,
    },
    /// Swallow the true maximum instead of forwarding it.
    Suppression,
    /// Fabricated topology chains (Figure 1).
    FakeChain,
    /// The kitchen sink: inflation + suppression + fake chains.
    Combined,
}

impl AdversarySpec {
    /// Short stable name (used in reports and tables).
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::Null => "null",
            AdversarySpec::HonestBehaving => "honest",
            AdversarySpec::Silent => "silent",
            AdversarySpec::ColorInflation {
                timing: TimingSpec::Legal,
            } => "inflate-legal",
            AdversarySpec::ColorInflation {
                timing: TimingSpec::LastStep,
            } => "inflate-last",
            AdversarySpec::Suppression => "suppress",
            AdversarySpec::FakeChain => "fake-chain",
            AdversarySpec::Combined => "combined",
        }
    }
}

/// How protocol parameters are obtained.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamsSpec {
    /// Derive from the topology: `for_network_default_expansion` on
    /// small-world networks, [`ProtocolParams::for_degree`] elsewhere.
    Derived {
        /// Fault exponent `δ`.
        delta: f64,
        /// Error parameter `ε`.
        epsilon: f64,
    },
    /// Use these exact parameters.
    Explicit(ProtocolParams),
}

impl Default for ParamsSpec {
    fn default() -> Self {
        ParamsSpec::Derived {
            delta: 0.6,
            epsilon: 0.1,
        }
    }
}

impl ParamsSpec {
    /// Check every value the spec sets lies in the range
    /// [`ProtocolParams::new`] accepts.  `Derived` sets only `δ` and `ε`:
    /// the topology supplies the rest, so in-range stand-ins fill them.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let params = match *self {
            ParamsSpec::Explicit(params) => params,
            ParamsSpec::Derived { delta, epsilon } => ProtocolParams {
                d: 4,
                k: 1,
                delta,
                epsilon,
                edge_expansion: 1.0,
            },
        };
        params.check_range().map_err(|why| format!("params: {why}"))
    }

    /// Resolve against a materialized topology.
    pub fn resolve(&self, spec: &TopologySpec, topo: &BuiltTopology) -> ProtocolParams {
        match self {
            ParamsSpec::Explicit(params) => *params,
            ParamsSpec::Derived { delta, epsilon } => match topo.small_world() {
                Some(net) => ProtocolParams::for_network_default_expansion(net, *delta, *epsilon),
                None => ProtocolParams::for_degree(spec.nominal_degree(), *delta, *epsilon),
            },
        }
    }
}

/// How many runs a batch performs, and with which seeds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// One run with this exact seed.
    Fixed(u64),
    /// `count` runs with seeds derived from `base` (SplitMix64 stream, so
    /// the seeds are decorrelated but fully reproducible).
    Sequence {
        /// Base seed.
        base: u64,
        /// Number of derived seeds.
        count: u32,
    },
    /// Exactly these seeds.
    Explicit(Vec<u64>),
}

impl SeedPolicy {
    /// The concrete seed list.
    pub fn seeds(&self) -> Vec<u64> {
        match self {
            SeedPolicy::Fixed(seed) => vec![*seed],
            SeedPolicy::Sequence { base, count } => (0..*count as u64)
                .map(|i| derive_seed(*base, i.wrapping_add(0xA11CE)))
                .collect(),
            SeedPolicy::Explicit(seeds) => seeds.clone(),
        }
    }

    /// The first seed (what a single run uses).
    pub fn primary(&self) -> u64 {
        self.seeds().first().copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

/// Which engine implementation executes the run.
///
/// `Sync` and `Sharded` are execution policy, not semantics: the sharded
/// engine is contractually byte-identical to the classic engine for equal
/// spec and seed (for every shard count), so those knobs only change how
/// the round loop maps onto cores.  `Async` with
/// [`ClockPlan::Uniform`] keeps the same byte-identity contract; a
/// heterogeneous [`ClockPlan`] is the one engine knob that changes run
/// semantics by design (per-node clock speeds), deterministically per
/// spec and seed.  The knob lives in the spec so campaigns can pin their
/// execution layout — and their clock model — reproducibly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineSpec {
    /// The classic single-owner synchronous engine (the default).
    #[default]
    Sync,
    /// The sharded engine: node state, outboxes, inboxes, deferred rings
    /// and delivery metrics partitioned into `shards` contiguous node-id
    /// ranges (clamped to the node count at run time).
    Sharded {
        /// Number of shards (≥ 1).
        shards: u32,
    },
    /// The event-driven engine: per-node virtual clocks over a
    /// deterministic calendar event queue, no global round barrier.
    Async {
        /// How node clocks map onto virtual time
        /// ([`ClockPlan::Uniform`] = the synchronous model).
        clocks: ClockPlan,
    },
    /// The sharded event-driven engine: per-shard calendar queues and
    /// clock domains, rendezvousing only at the routing step.  The shard
    /// count is execution policy (byte-identical results for every
    /// count); the clock plan is the same semantic knob as `Async`'s.
    ShardedAsync {
        /// Number of shards (≥ 1).
        shards: u32,
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// The distributed engine: shard workers with private state speaking
    /// the `netsim-wire` binary codec over checksummed, versioned
    /// channels; a coordinator owns routing, fault injection and the
    /// adversary.  The worker count is execution policy (byte-identical
    /// results for every count), but the protocol's message type must
    /// have a canonical wire encoding.
    Distributed {
        /// Number of shard workers (≥ 1).
        shards: u32,
    },
}

impl EngineSpec {
    /// Short stable name (used in tables and logs).
    pub fn name(&self) -> String {
        self.kind().describe()
    }

    /// The event-driven engine with uniform clocks (the `--engine async`
    /// shape: byte-identical results, event-driven execution).
    pub fn asynchronous() -> Self {
        EngineSpec::Async {
            clocks: ClockPlan::Uniform,
        }
    }

    /// The runtime engine selection this spec resolves to.
    pub fn kind(&self) -> EngineKind {
        match *self {
            EngineSpec::Sync => EngineKind::Sync,
            EngineSpec::Sharded { shards } => EngineKind::Sharded {
                shards: shards as usize,
            },
            EngineSpec::Async { clocks } => EngineKind::Async { clocks },
            EngineSpec::ShardedAsync { shards, clocks } => EngineKind::ShardedAsync {
                shards: shards as usize,
                clocks,
            },
            EngineSpec::Distributed { shards } => EngineKind::Distributed {
                shards: shards as usize,
            },
        }
    }

    /// Check the engine selection is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            EngineSpec::Sync => Ok(()),
            EngineSpec::Sharded { shards: 0 }
            | EngineSpec::ShardedAsync { shards: 0, .. }
            | EngineSpec::Distributed { shards: 0 } => {
                Err("sharded engine needs at least one shard".into())
            }
            EngineSpec::Sharded { .. } | EngineSpec::Distributed { .. } => Ok(()),
            EngineSpec::Async { clocks } | EngineSpec::ShardedAsync { clocks, .. } => {
                clocks.validate()
            }
        }
    }
}

// Hand-written serde impls for the same backwards-compatibility reason as
// `FaultSpec`: a missing or `null` value must read as `EngineSpec::Sync`,
// so version-1/2 specs — which have no `engine` field at all — keep
// deserializing.  The wire shapes otherwise match what the derive would
// produce (externally tagged variants).

/// `u32` field helper with a range check (serde_json numbers are u64).
fn u32_field(m: &Map, key: &str) -> Result<u32, Error> {
    let raw: u64 = serde::from_value_field(m, key)?;
    u32::try_from(raw).map_err(|_| Error::msg(format!("{key} value {raw} out of range")))
}

/// Wire shape of a [`ClockPlan`] (externally tagged, like a derive).
fn clock_plan_to_value(clocks: &ClockPlan) -> Value {
    match *clocks {
        ClockPlan::Uniform => Value::Str("Uniform".into()),
        ClockPlan::Stratified { every, period } => {
            let mut inner = Map::new();
            inner.insert("every".into(), Value::Num(Number::U(every as u64)));
            inner.insert("period".into(), Value::Num(Number::U(period as u64)));
            let mut m = Map::new();
            m.insert("Stratified".into(), Value::Obj(inner));
            Value::Obj(m)
        }
        ClockPlan::Jittered { max_period } => {
            let mut inner = Map::new();
            inner.insert(
                "max_period".into(),
                Value::Num(Number::U(max_period as u64)),
            );
            let mut m = Map::new();
            m.insert("Jittered".into(), Value::Obj(inner));
            Value::Obj(m)
        }
    }
}

fn clock_plan_from_value(v: &Value) -> Result<ClockPlan, Error> {
    match v {
        // An Async engine without an explicit clock plan means the
        // synchronous model.
        Value::Null => Ok(ClockPlan::Uniform),
        Value::Str(s) if s == "Uniform" || s == "uniform" => Ok(ClockPlan::Uniform),
        Value::Str(other) => Err(Error::msg(format!(
            "unknown unit variant `{other}` of ClockPlan"
        ))),
        Value::Obj(m) if m.len() == 1 => {
            let (tag, inner) = m.iter().next().expect("len checked");
            let mm = inner
                .as_obj()
                .ok_or_else(|| Error::expected("object", inner))?;
            match tag.as_str() {
                "Stratified" => Ok(ClockPlan::Stratified {
                    every: u32_field(mm, "every")?,
                    period: u32_field(mm, "period")?,
                }),
                "Jittered" => Ok(ClockPlan::Jittered {
                    max_period: u32_field(mm, "max_period")?,
                }),
                other => Err(Error::msg(format!(
                    "unknown variant `{other}` of ClockPlan"
                ))),
            }
        }
        other => Err(Error::expected(
            "ClockPlan (string or tagged object)",
            other,
        )),
    }
}

impl Serialize for EngineSpec {
    fn to_value(&self) -> Value {
        match self {
            EngineSpec::Sync => Value::Str("Sync".into()),
            EngineSpec::Sharded { shards } => {
                let mut inner = Map::new();
                inner.insert("shards".into(), Value::Num(Number::U(*shards as u64)));
                let mut m = Map::new();
                m.insert("Sharded".into(), Value::Obj(inner));
                Value::Obj(m)
            }
            EngineSpec::Async { clocks } => {
                let mut inner = Map::new();
                inner.insert("clocks".into(), clock_plan_to_value(clocks));
                let mut m = Map::new();
                m.insert("Async".into(), Value::Obj(inner));
                Value::Obj(m)
            }
            EngineSpec::ShardedAsync { shards, clocks } => {
                let mut inner = Map::new();
                inner.insert("shards".into(), Value::Num(Number::U(*shards as u64)));
                inner.insert("clocks".into(), clock_plan_to_value(clocks));
                let mut m = Map::new();
                m.insert("ShardedAsync".into(), Value::Obj(inner));
                Value::Obj(m)
            }
            EngineSpec::Distributed { shards } => {
                let mut inner = Map::new();
                inner.insert("shards".into(), Value::Num(Number::U(*shards as u64)));
                let mut m = Map::new();
                m.insert("Distributed".into(), Value::Obj(inner));
                Value::Obj(m)
            }
        }
    }
}

impl Deserialize for EngineSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            // v1/v2 specs have no engine field: absent/null means the
            // classic engine.
            Value::Null => Ok(EngineSpec::Sync),
            Value::Str(s) if s == "Sync" || s == "sync" => Ok(EngineSpec::Sync),
            // Hand-written specs may abbreviate uniform clocks.
            Value::Str(s) if s == "Async" || s == "async" => Ok(EngineSpec::asynchronous()),
            Value::Str(other) => Err(Error::msg(format!(
                "unknown unit variant `{other}` of EngineSpec"
            ))),
            Value::Obj(m) if m.len() == 1 => {
                let (tag, inner) = m.iter().next().expect("len checked");
                match tag.as_str() {
                    "Sharded" => {
                        let mm = inner
                            .as_obj()
                            .ok_or_else(|| Error::expected("object", inner))?;
                        Ok(EngineSpec::Sharded {
                            shards: u32_field(mm, "shards")?,
                        })
                    }
                    "Async" => {
                        let mm = inner
                            .as_obj()
                            .ok_or_else(|| Error::expected("object", inner))?;
                        Ok(EngineSpec::Async {
                            clocks: clock_plan_from_value(
                                mm.get("clocks").unwrap_or(&Value::Null),
                            )?,
                        })
                    }
                    "Distributed" => {
                        let mm = inner
                            .as_obj()
                            .ok_or_else(|| Error::expected("object", inner))?;
                        Ok(EngineSpec::Distributed {
                            shards: u32_field(mm, "shards")?,
                        })
                    }
                    "ShardedAsync" => {
                        let mm = inner
                            .as_obj()
                            .ok_or_else(|| Error::expected("object", inner))?;
                        Ok(EngineSpec::ShardedAsync {
                            shards: u32_field(mm, "shards")?,
                            clocks: clock_plan_from_value(
                                mm.get("clocks").unwrap_or(&Value::Null),
                            )?,
                        })
                    }
                    other => Err(Error::msg(format!(
                        "unknown variant `{other}` of EngineSpec"
                    ))),
                }
            }
            other => Err(Error::expected(
                "EngineSpec (string or tagged object)",
                other,
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// RunSpec / BatchSpec
// ---------------------------------------------------------------------------

/// The complete, versioned description of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Schema version ([`SPEC_VERSION`]).
    pub version: u32,
    /// Communication graph.
    pub topology: TopologySpec,
    /// What to execute.
    pub workload: WorkloadSpec,
    /// Byzantine placement.
    pub placement: PlacementSpec,
    /// Adversary for counting workloads.
    pub adversary: AdversarySpec,
    /// Network fault injection (loss, delay, churn, partitions); absent in
    /// version-1 specs and defaults to [`FaultSpec::None`].
    pub fault: FaultSpec,
    /// Engine implementation (classic or sharded); absent in version-1/2
    /// specs and defaults to [`EngineSpec::Sync`].  Execution policy only:
    /// results are byte-identical across engines and shard counts.
    pub engine: EngineSpec,
    /// Protocol parameters.
    pub params: ParamsSpec,
    /// Master seed; topology, placement and execution use independent
    /// sub-streams derived from it.
    pub seed: u64,
    /// Engine round-cap override (`None` = derive from the counting
    /// schedule, or from the baseline's horizon; see [`WorkloadSpec`]).
    /// A baseline workload's own horizon field takes precedence.
    pub max_rounds: Option<u64>,
}

impl RunSpec {
    /// Check the spec is self-consistent and its version is understood.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.version > SPEC_VERSION {
            return Err(SimError::Spec(format!(
                "spec version {} is newer than supported version {SPEC_VERSION}",
                self.version
            )));
        }
        if self.topology.n() == 0 {
            return Err(SimError::Spec(
                "topology must have at least one node".into(),
            ));
        }
        if !self.workload.is_counting() && self.adversary != AdversarySpec::Null {
            return Err(SimError::Spec(format!(
                "baseline workload `{}` embeds its attack in the workload; \
                 set adversary to Null (got `{}`)",
                self.workload.name(),
                self.adversary.name()
            )));
        }
        self.fault.validate().map_err(SimError::Spec)?;
        self.engine.validate().map_err(SimError::Spec)?;
        self.params.validate().map_err(SimError::Spec)?;
        Ok(())
    }

    /// Upgrade an older (but accepted) spec to the current schema version.
    /// Versions 1, 2 and 3 only differ in the `fault` and `engine` fields,
    /// which older specs lack and deserialization already defaulted
    /// ([`FaultSpec::None`] / [`EngineSpec::Sync`]) — so the upgrade is
    /// just the version stamp.  Reports embed the migrated spec, which is
    /// what makes a v1 spec and its v2/v3 equivalents produce
    /// byte-identical reports.
    pub fn migrate(&mut self) {
        if self.version < SPEC_VERSION {
            self.version = SPEC_VERSION;
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunSpec serialization cannot fail")
    }

    /// Parse from JSON (accepting any schema version up to
    /// [`SPEC_VERSION`]) and migrate to the current version.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        let mut spec: RunSpec =
            serde_json::from_str(text).map_err(|e| SimError::Spec(e.to_string()))?;
        spec.validate()?;
        spec.migrate();
        Ok(spec)
    }
}

/// A multi-seed / multi-size campaign over one base [`RunSpec`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchSpec {
    /// Schema version ([`SPEC_VERSION`]).
    pub version: u32,
    /// The base run; its `seed` is ignored in favour of `seeds`.
    pub run: RunSpec,
    /// Seeds to sweep.
    pub seeds: SeedPolicy,
    /// Network sizes to sweep (`None` = just the base topology's size).
    pub sizes: Option<Vec<usize>>,
}

impl BatchSpec {
    /// Expand into the concrete per-run specs (size-major, seed-minor).
    pub fn expand(&self) -> Vec<RunSpec> {
        let sizes = match &self.sizes {
            Some(sizes) if !sizes.is_empty() => sizes.clone(),
            _ => vec![self.run.topology.n()],
        };
        let seeds = self.seeds.seeds();
        let mut specs = Vec::with_capacity(sizes.len() * seeds.len());
        for &n in &sizes {
            for &seed in &seeds {
                let mut spec = self.run.clone();
                spec.topology = spec.topology.with_n(n);
                spec.seed = seed;
                specs.push(spec);
            }
        }
        specs
    }

    /// Check the batch and its base run.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.version > SPEC_VERSION {
            return Err(SimError::Spec(format!(
                "spec version {} is newer than supported version {SPEC_VERSION}",
                self.version
            )));
        }
        if self.seeds.seeds().is_empty() {
            return Err(SimError::Spec("batch needs at least one seed".into()));
        }
        self.run.validate()
    }

    /// Upgrade an older batch (and its base run) to the current version.
    pub fn migrate(&mut self) {
        if self.version < SPEC_VERSION {
            self.version = SPEC_VERSION;
        }
        self.run.migrate();
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BatchSpec serialization cannot fail")
    }

    /// Parse from JSON (accepting any schema version up to
    /// [`SPEC_VERSION`]) and migrate to the current version.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        let mut spec: BatchSpec =
            serde_json::from_str(text).map_err(|e| SimError::Spec(e.to_string()))?;
        spec.validate()?;
        spec.migrate();
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> RunSpec {
        RunSpec {
            version: SPEC_VERSION,
            topology: TopologySpec::SmallWorld { n: 128, d: 6 },
            workload: WorkloadSpec::Byzantine,
            placement: PlacementSpec::RandomBudget { delta: 0.6 },
            adversary: AdversarySpec::Combined,
            fault: FaultSpec::None,
            engine: EngineSpec::Sync,
            params: ParamsSpec::default(),
            seed: 0xDEAD_BEEF_CAFE_F00D,
            max_rounds: None,
        }
    }

    #[test]
    fn v1_specs_without_a_fault_field_still_parse() {
        // A verbatim version-1 spec: no `fault` key anywhere.
        let v1 = r#"{
            "version": 1,
            "topology": {"SmallWorld": {"d": 6, "n": 128}},
            "workload": "Byzantine",
            "placement": {"RandomBudget": {"delta": 0.6}},
            "adversary": "Combined",
            "params": {"Derived": {"delta": 0.6, "epsilon": 0.1}},
            "seed": 7,
            "max_rounds": null
        }"#;
        let parsed = RunSpec::from_json(v1).expect("v1 spec must parse");
        assert_eq!(parsed.fault, FaultSpec::None);
        assert_eq!(parsed.version, SPEC_VERSION, "parsing migrates to latest");
        // The v2 equivalent spells the fault out; both normalize to the
        // same spec and hence the same JSON bytes.
        let v2 = v1.replace(
            "\"version\": 1,",
            "\"version\": 2,\n            \"fault\": \"None\",",
        );
        let parsed_v2 = RunSpec::from_json(&v2).expect("v2 spec must parse");
        assert_eq!(parsed, parsed_v2);
        assert_eq!(parsed.to_json(), parsed_v2.to_json());
    }

    #[test]
    fn v2_specs_without_an_engine_field_still_parse() {
        // A verbatim version-2 spec: a `fault` field but no `engine` key.
        let v2 = r#"{
            "version": 2,
            "topology": {"SmallWorld": {"d": 6, "n": 128}},
            "workload": "Byzantine",
            "placement": {"RandomBudget": {"delta": 0.6}},
            "adversary": "Combined",
            "fault": {"Loss": {"rate": 0.1}},
            "params": {"Derived": {"delta": 0.6, "epsilon": 0.1}},
            "seed": 7,
            "max_rounds": null
        }"#;
        let parsed = RunSpec::from_json(v2).expect("v2 spec must parse");
        assert_eq!(parsed.engine, EngineSpec::Sync);
        assert_eq!(parsed.version, SPEC_VERSION, "parsing migrates to latest");
        // The v3 equivalent spells the engine out; both normalize to the
        // same spec and hence the same JSON bytes.
        let v3 = v2.replace(
            "\"version\": 2,",
            "\"version\": 3,\n            \"engine\": \"Sync\",",
        );
        let parsed_v3 = RunSpec::from_json(&v3).expect("v3 spec must parse");
        assert_eq!(parsed, parsed_v3);
        assert_eq!(parsed.to_json(), parsed_v3.to_json());
    }

    #[test]
    fn engine_specs_round_trip_and_validate() {
        let mut spec = demo_spec();
        spec.engine = EngineSpec::Sharded { shards: 4 };
        let back = RunSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), spec.to_json());
        spec.engine = EngineSpec::Sharded { shards: 0 };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
        // Kind resolution and naming.
        assert_eq!(EngineSpec::Sync.name(), "sync");
        assert_eq!(EngineSpec::Sharded { shards: 8 }.name(), "sharded-8");
        assert_eq!(
            EngineSpec::Sharded { shards: 8 }.kind(),
            netsim_runtime::EngineKind::Sharded { shards: 8 }
        );
        assert_eq!(EngineSpec::default(), EngineSpec::Sync);
    }

    #[test]
    fn async_engine_specs_round_trip_and_validate() {
        for clocks in [
            ClockPlan::Uniform,
            ClockPlan::Stratified {
                every: 4,
                period: 3,
            },
            ClockPlan::Jittered { max_period: 5 },
        ] {
            let mut spec = demo_spec();
            spec.engine = EngineSpec::Async { clocks };
            let back = RunSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec, "{clocks:?}");
            assert_eq!(back.to_json(), spec.to_json(), "{clocks:?}");
        }
        // Degenerate clock plans are rejected at validation.
        let mut spec = demo_spec();
        spec.engine = EngineSpec::Async {
            clocks: ClockPlan::Stratified {
                every: 0,
                period: 2,
            },
        };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
        spec.engine = EngineSpec::Async {
            clocks: ClockPlan::Jittered { max_period: 0 },
        };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
        // Naming and kind resolution.
        assert_eq!(EngineSpec::asynchronous().name(), "async");
        assert_eq!(
            EngineSpec::Async {
                clocks: ClockPlan::Stratified {
                    every: 4,
                    period: 3
                }
            }
            .name(),
            "async-strat-4x3"
        );
        assert_eq!(
            EngineSpec::asynchronous().kind(),
            netsim_runtime::EngineKind::Async {
                clocks: ClockPlan::Uniform
            }
        );
        // The abbreviated wire form (`"engine": "Async"`) reads as uniform
        // clocks.
        let mut spec = demo_spec();
        spec.engine = EngineSpec::asynchronous();
        let mut value = spec.to_value();
        value
            .as_obj_mut()
            .expect("specs serialize to objects")
            .insert("engine".into(), Value::Str("Async".into()));
        let abbreviated = serde_json::to_string_pretty(&value).expect("value prints");
        let parsed = RunSpec::from_json(&abbreviated).expect("abbreviated Async parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn v3_specs_with_engine_fields_still_parse() {
        // A verbatim version-3 spec: `fault` and `engine` fields, but a
        // pre-async engine vocabulary (Sync / Sharded only).
        let v3 = r#"{
            "version": 3,
            "topology": {"SmallWorld": {"d": 6, "n": 128}},
            "workload": "Byzantine",
            "placement": {"RandomBudget": {"delta": 0.6}},
            "adversary": "Combined",
            "fault": "None",
            "engine": {"Sharded": {"shards": 4}},
            "params": {"Derived": {"delta": 0.6, "epsilon": 0.1}},
            "seed": 7,
            "max_rounds": null
        }"#;
        let parsed = RunSpec::from_json(v3).expect("v3 spec must parse");
        assert_eq!(parsed.engine, EngineSpec::Sharded { shards: 4 });
        assert_eq!(parsed.version, SPEC_VERSION, "parsing migrates to latest");
        // The v4 equivalent differs only in the version stamp; both
        // normalize to the same spec and hence the same JSON bytes.
        let v4 = v3.replace("\"version\": 3,", "\"version\": 4,");
        let parsed_v4 = RunSpec::from_json(&v4).expect("v4 spec must parse");
        assert_eq!(parsed, parsed_v4);
        assert_eq!(parsed.to_json(), parsed_v4.to_json());
        // And the v5 stamp as well: v4 → v5 added only the ShardedAsync
        // vocabulary, no field changes.
        let v5 = v3.replace("\"version\": 3,", "\"version\": 5,");
        let parsed_v5 = RunSpec::from_json(&v5).expect("v5 spec must parse");
        assert_eq!(parsed, parsed_v5);
        assert_eq!(parsed.to_json(), parsed_v5.to_json());
        // And the v6 stamp: v5 → v6 added only the Distributed vocabulary,
        // no field changes.
        let v6 = v3.replace("\"version\": 3,", "\"version\": 6,");
        let parsed_v6 = RunSpec::from_json(&v6).expect("v6 spec must parse");
        assert_eq!(parsed, parsed_v6);
        assert_eq!(parsed.to_json(), parsed_v6.to_json());
    }

    #[test]
    fn distributed_engine_specs_round_trip_and_validate() {
        let mut spec = demo_spec();
        spec.engine = EngineSpec::Distributed { shards: 4 };
        let back = RunSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), spec.to_json());
        assert!(spec.to_json().contains("\"Distributed\""));
        // Zero workers are rejected, like the other sharded engines.
        spec.engine = EngineSpec::Distributed { shards: 0 };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
        // Naming and kind resolution.
        assert_eq!(EngineSpec::Distributed { shards: 4 }.name(), "dist-4");
        assert_eq!(
            EngineSpec::Distributed { shards: 4 }.kind(),
            netsim_runtime::EngineKind::Distributed { shards: 4 }
        );
    }

    #[test]
    fn sharded_async_engine_specs_round_trip_and_validate() {
        for clocks in [
            ClockPlan::Uniform,
            ClockPlan::Stratified {
                every: 4,
                period: 3,
            },
            ClockPlan::Jittered { max_period: 5 },
        ] {
            let mut spec = demo_spec();
            spec.engine = EngineSpec::ShardedAsync { shards: 4, clocks };
            let back = RunSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec, "{clocks:?}");
            assert_eq!(back.to_json(), spec.to_json(), "{clocks:?}");
        }
        // Zero shards and degenerate clock plans are rejected.
        let mut spec = demo_spec();
        spec.engine = EngineSpec::ShardedAsync {
            shards: 0,
            clocks: ClockPlan::Uniform,
        };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
        spec.engine = EngineSpec::ShardedAsync {
            shards: 2,
            clocks: ClockPlan::Jittered { max_period: 0 },
        };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
        // Naming and kind resolution.
        assert_eq!(
            EngineSpec::ShardedAsync {
                shards: 4,
                clocks: ClockPlan::Uniform
            }
            .name(),
            "sharded-async-4"
        );
        assert_eq!(
            EngineSpec::ShardedAsync {
                shards: 2,
                clocks: ClockPlan::Stratified {
                    every: 4,
                    period: 3
                }
            }
            .name(),
            "sharded-async-2-strat-4x3"
        );
        assert_eq!(
            EngineSpec::ShardedAsync {
                shards: 4,
                clocks: ClockPlan::Uniform
            }
            .kind(),
            netsim_runtime::EngineKind::ShardedAsync {
                shards: 4,
                clocks: ClockPlan::Uniform
            }
        );
        // A ShardedAsync value without an explicit clock plan reads as
        // uniform clocks, like `Async`.
        let mut spec = demo_spec();
        spec.engine = EngineSpec::ShardedAsync {
            shards: 3,
            clocks: ClockPlan::Uniform,
        };
        let mut value = spec.to_value();
        let mut inner = Map::new();
        inner.insert("shards".into(), Value::Num(Number::U(3)));
        let mut engine = Map::new();
        engine.insert("ShardedAsync".into(), Value::Obj(inner));
        value
            .as_obj_mut()
            .expect("specs serialize to objects")
            .insert("engine".into(), Value::Obj(engine));
        let abbreviated = serde_json::to_string_pretty(&value).expect("value prints");
        let parsed = RunSpec::from_json(&abbreviated).expect("clockless ShardedAsync parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn faulty_specs_round_trip_and_validate() {
        let mut spec = demo_spec();
        spec.fault = FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.1 },
            FaultSpec::Churn {
                rate: 0.01,
                downtime: 4,
            },
        ]);
        let back = RunSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        spec.fault = FaultSpec::Loss { rate: 7.0 };
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
    }

    #[test]
    fn run_spec_round_trips_losslessly() {
        let spec = demo_spec();
        let json = spec.to_json();
        let back = RunSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut spec = demo_spec();
        spec.version = SPEC_VERSION + 1;
        assert!(matches!(spec.validate(), Err(SimError::Spec(_))));
    }

    #[test]
    fn baseline_workloads_reject_counting_adversaries() {
        let mut spec = demo_spec();
        spec.workload = WorkloadSpec::GeometricSupport {
            ttl: None,
            attack: AttackSpec::Inflate,
        };
        assert!(spec.validate().is_err());
        spec.adversary = AdversarySpec::Null;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn batch_expansion_is_size_major() {
        let batch = BatchSpec {
            version: SPEC_VERSION,
            run: demo_spec(),
            seeds: SeedPolicy::Sequence { base: 9, count: 3 },
            sizes: Some(vec![64, 128]),
        };
        let specs = batch.expand();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].topology.n(), 64);
        assert_eq!(specs[3].topology.n(), 128);
        let seeds: std::collections::HashSet<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 3, "derived seeds must be distinct");
    }

    #[test]
    fn placements_are_deterministic_and_sized() {
        let topo = TopologySpec::SmallWorld { n: 200, d: 6 }.build(11).unwrap();
        let a = PlacementSpec::Random { count: 17 }
            .materialize(&topo, 5)
            .unwrap();
        let b = PlacementSpec::Random { count: 17 }
            .materialize(&topo, 5)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&x| x).count(), 17);
        let budget = PlacementSpec::RandomBudget { delta: 0.6 }
            .materialize(&topo, 5)
            .unwrap();
        assert_eq!(
            budget.iter().filter(|&&x| x).count(),
            (200f64).powf(0.4).floor() as usize
        );
        let clustered = PlacementSpec::Clustered { count: 12 }
            .materialize(&topo, 7)
            .unwrap();
        assert_eq!(clustered.iter().filter(|&&x| x).count(), 12);
        let exact = PlacementSpec::Exact {
            nodes: vec![1, 5, 5],
        }
        .materialize(&topo, 0)
        .unwrap();
        assert_eq!(exact.iter().filter(|&&x| x).count(), 2);
        assert!(PlacementSpec::Exact { nodes: vec![900] }
            .materialize(&topo, 0)
            .is_err());
    }

    #[test]
    fn cell_seed_is_identity_derived_and_pinned() {
        // Identity-derived: the same cell gets the same value no matter
        // which sweep it appears in; distinct identities get distinct
        // values (workload, network and n all feed the hash).
        let full = cell_seed(0xBE7C4, "byzantine-counting", "clean", 4096);
        assert_eq!(
            full,
            cell_seed(0xBE7C4, "byzantine-counting", "clean", 4096)
        );
        assert_ne!(
            full,
            cell_seed(0xBE7C4, "byzantine-counting", "faulty", 4096)
        );
        assert_ne!(
            full,
            cell_seed(0xBE7C4, "byzantine-counting", "clean", 1024)
        );
        assert_ne!(full, cell_seed(0xBE7C4, "spanning-tree", "clean", 4096));
        assert_ne!(
            full,
            cell_seed(0xBE7C5, "byzantine-counting", "clean", 4096)
        );
        // Pinned: these literals are what the bench suite historically
        // produced (pre-promotion, when the helper lived in
        // `bench::suite`); changing the hash would unjoin historical
        // `BENCH_roundloop.json` baselines and orphan campaign stores.
        assert_eq!(full, 0x54db5256f1e5bc02);
        assert_eq!(
            cell_seed(0xBE7C4, "spanning-tree", "faulty", 256),
            0xfb0cb0f2a5c1bcda
        );
        assert_eq!(
            cell_seed(7, "basic-counting", "clean", 64),
            0xc79060f0771c9e67
        );
    }

    #[test]
    fn every_topology_family_builds() {
        for spec in [
            TopologySpec::SmallWorld { n: 64, d: 6 },
            TopologySpec::SmallWorldH { n: 64, d: 6 },
            TopologySpec::WattsStrogatz {
                n: 64,
                k_half: 3,
                beta: 0.1,
            },
            TopologySpec::BalancedTree { n: 64, arity: 3 },
            TopologySpec::RandomTree {
                n: 64,
                max_degree: Some(5),
            },
        ] {
            let topo = spec.build(3).expect("build");
            assert_eq!(topo.len(), 64, "{spec:?}");
            assert_eq!(spec.with_n(32).n(), 32);
            assert!(spec.nominal_degree() >= 2);
        }
    }
}
