//! The geometric-distribution support-estimation baseline (Section 1.2).
//!
//! Every node tosses a fair coin until heads and floods the maximum count
//! through the network for a fixed number of rounds (at least the
//! diameter); the maximum concentrates around `log₂ n`.  Without Byzantine
//! nodes this is a clean constant-factor estimator of `log n`; with even a
//! single Byzantine node it fails — the node can fake an enormous color
//! (making the network look huge) or refuse to forward the true maximum.

use crate::attack::BaselineAttack;
use crate::run_baseline;
use byzcount_core::color::{sample_color, Color};
use netsim_runtime::{
    Action, Envelope, Exec, MessageSize, NodeContext, Outbox, Protocol, RunError, RunResult,
    SizedMessage, Topology,
};
use netsim_wire::{Reader, Wire, WireError};
use rand_chacha::ChaCha8Rng;

/// The color value a Byzantine "inflate" node claims.
pub const INFLATED_COLOR: Color = 60;

/// Message: a color value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeoMsg(pub Color);

impl MessageSize for GeoMsg {
    fn message_size(&self) -> SizedMessage {
        SizedMessage::new(0, 32)
    }
}

/// Canonical binary encoding: the bare color value.
impl Wire for GeoMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GeoMsg(Color::decode(r)?))
    }
}

/// Per-node state of the geometric support estimator.
#[derive(Clone, Debug)]
pub struct GeometricSupportEstimator {
    /// Rounds to keep flooding before deciding (should exceed the diameter).
    ttl: u64,
    /// `None` = honest node, `Some(attack)` = Byzantine node behaviour.
    byz: Option<BaselineAttack>,
    best: Color,
}

impl GeometricSupportEstimator {
    /// An honest node.
    pub fn honest(ttl: u64) -> Self {
        GeometricSupportEstimator {
            ttl,
            byz: None,
            best: 0,
        }
    }

    /// A Byzantine node with the given behaviour.
    pub fn byzantine(ttl: u64, attack: BaselineAttack) -> Self {
        GeometricSupportEstimator {
            ttl,
            byz: Some(attack),
            best: 0,
        }
    }
}

impl Protocol for GeometricSupportEstimator {
    type Message = GeoMsg;
    /// The decided estimate of `log₂ n` (the maximum color seen).
    type Output = u32;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<GeoMsg>],
        outbox: &mut Outbox<GeoMsg>,
        rng: &mut ChaCha8Rng,
    ) -> Action<u32> {
        if ctx.round == 0 {
            match self.byz {
                None | Some(BaselineAttack::None) => {
                    self.best = sample_color(rng);
                    outbox.broadcast(ctx.neighbors.iter(), GeoMsg(self.best));
                }
                Some(BaselineAttack::Inflate) => {
                    self.best = INFLATED_COLOR;
                    outbox.broadcast(ctx.neighbors.iter(), GeoMsg(INFLATED_COLOR));
                }
                Some(BaselineAttack::Suppress) => {}
            }
            return Action::Continue;
        }
        let incoming_max = inbox.iter().map(|e| e.payload.0).max().unwrap_or(0);
        if incoming_max > self.best {
            self.best = incoming_max;
            // Suppressing Byzantine nodes swallow the maximum instead of
            // forwarding it.
            if !matches!(self.byz, Some(BaselineAttack::Suppress)) {
                outbox.broadcast(ctx.neighbors.iter(), GeoMsg(self.best));
            }
        }
        if ctx.round >= self.ttl {
            Action::Decide(self.best)
        } else {
            Action::Continue
        }
    }

    // Without input, a node acts only at round 0 (draw and broadcast) and
    // from the TTL on (decide).
    fn quiescent(&self, round: u64) -> bool {
        round != 0 && round < self.ttl
    }
}

/// Run the estimator over a topology.
///
/// `byzantine[i]` marks node `i` as Byzantine with behaviour `attack`;
/// `ttl` is the flooding horizon (use ≥ the diameter; `3·log₂ n + 5` is a
/// safe choice on expanders), and the engine stops at `ttl + 4` rounds.
///
/// # Errors
/// Only the distributed engine can fail; see
/// [`run_with_engine`](netsim_runtime::run_with_engine).
pub fn run_geometric_support<T: Topology>(
    topo: &T,
    byzantine: &[bool],
    attack: BaselineAttack,
    ttl: u64,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<u32>, RunError> {
    let nodes = geometric_support_nodes(byzantine, attack, ttl, 0..topo.len());
    run_baseline(topo, nodes, byzantine, ttl + 4, seed, exec)
}

/// Build the per-node estimator states for global node ids `range` (the
/// full run is `0..topo.len()`; shard workers build their assigned chunk).
pub fn geometric_support_nodes(
    byzantine: &[bool],
    attack: BaselineAttack,
    ttl: u64,
    range: std::ops::Range<usize>,
) -> Vec<GeometricSupportEstimator> {
    range
        .map(|i| {
            if byzantine[i] {
                GeometricSupportEstimator::byzantine(ttl, attack)
            } else {
                GeometricSupportEstimator::honest(ttl)
            }
        })
        .collect()
}

/// Honest nodes' decided estimates.
pub fn honest_estimates(result: &RunResult<u32>, byzantine: &[bool]) -> Vec<u32> {
    result
        .outputs
        .iter()
        .enumerate()
        .filter(|(i, o)| !byzantine[*i] && o.is_some())
        .map(|(_, o)| o.unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::SmallWorldNetwork;

    fn run<T: Topology>(
        topo: &T,
        byz: &[bool],
        attack: BaselineAttack,
        ttl: u64,
        seed: u64,
    ) -> RunResult<u32> {
        run_geometric_support(topo, byz, attack, ttl, seed, Exec::default()).unwrap()
    }

    fn ttl_for(n: usize) -> u64 {
        (3.0 * (n as f64).log2()).ceil() as u64 + 5
    }

    #[test]
    fn honest_run_estimates_log_n() {
        let net = SmallWorldNetwork::generate_seeded(1024, 8, 1).unwrap();
        let byz = vec![false; 1024];
        let result = run(net.h().csr(), &byz, BaselineAttack::None, ttl_for(1024), 3);
        assert!(result.completed);
        let estimates = honest_estimates(&result, &byz);
        assert_eq!(estimates.len(), 1024);
        // Everyone agrees on the flooded maximum …
        assert!(estimates.iter().all(|&e| e == estimates[0]));
        // … and it is a constant-factor estimate of log2(n) = 10.
        let est = estimates[0] as f64;
        assert!(
            (5.0..=25.0).contains(&est),
            "estimate {est} not within [0.5, 2.5]·log n"
        );
    }

    #[test]
    fn single_inflating_byzantine_node_destroys_the_estimate() {
        let net = SmallWorldNetwork::generate_seeded(1024, 8, 2).unwrap();
        let mut byz = vec![false; 1024];
        byz[17] = true;
        let result = run(
            net.h().csr(),
            &byz,
            BaselineAttack::Inflate,
            ttl_for(1024),
            4,
        );
        let estimates = honest_estimates(&result, &byz);
        // Every honest node now believes the network has ~2^60 nodes.
        assert!(estimates.iter().all(|&e| e == INFLATED_COLOR));
    }

    #[test]
    fn suppressing_byzantine_node_cuts_off_part_of_the_network() {
        // "Stop the correct maximum value from spreading": on a path graph a
        // single suppressing node at position 1 isolates node 0 from the
        // rest, so node 0's estimate collapses to its own coin flips while
        // the other side still aggregates ~log n.
        use netsim_graph::Csr;
        let n = 64usize;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let path = Csr::from_undirected_edges(n, &edges).unwrap();
        let mut byz = vec![false; n];
        byz[1] = true;
        let result = run(&path, &byz, BaselineAttack::Suppress, 2 * n as u64, 11);
        let isolated = result.outputs[0].unwrap();
        let far_side_max = (2..n).map(|i| result.outputs[i].unwrap()).max().unwrap();
        assert!(
            isolated < far_side_max,
            "node 0 ({isolated}) should see a smaller maximum than the far side ({far_side_max})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let net = SmallWorldNetwork::generate_seeded(256, 8, 4).unwrap();
        let byz = vec![false; 256];
        let a = run(net.h().csr(), &byz, BaselineAttack::None, 40, 9);
        let b = run(net.h().csr(), &byz, BaselineAttack::None, 40, 9);
        assert_eq!(a.outputs, b.outputs);
    }
}
