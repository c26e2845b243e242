//! Diameter-based estimation by leader flooding (Section 1.2).
//!
//! If an honest leader were available, it could flood a token; every node's
//! first-arrival round is at most the diameter, which is `Θ(log n)` on a
//! sparse expander, giving a constant-factor estimate of `log n`.  The
//! catch — and the reason the paper rejects this approach — is that electing
//! that leader under Byzantine faults without knowing `n` is itself an open
//! problem, and a Byzantine node can trivially pretend to be a (closer)
//! leader, shrinking everyone's estimate.

use crate::attack::BaselineAttack;
use crate::run_baseline;
use netsim_runtime::{
    Action, Envelope, Exec, MessageSize, NodeContext, Outbox, Protocol, RunError, RunResult,
    SizedMessage, Topology,
};
use netsim_wire::{Reader, Wire, WireError};
use rand_chacha::ChaCha8Rng;

/// The flooded token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenMsg;

impl MessageSize for TokenMsg {
    fn message_size(&self) -> SizedMessage {
        SizedMessage::new(0, 1)
    }
}

/// Canonical binary encoding: the token carries no data, so it encodes to
/// zero bytes (the envelope around it carries sender/receiver).
impl Wire for TokenMsg {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TokenMsg)
    }
}

/// Per-node state of the flooding diameter estimator.
#[derive(Clone, Debug)]
pub struct FloodDiameterEstimator {
    is_leader: bool,
    byz: Option<BaselineAttack>,
    ttl: u64,
    first_seen: Option<u64>,
}

impl FloodDiameterEstimator {
    /// Construct a node; exactly one honest node should be the leader.
    pub fn new(is_leader: bool, byz: Option<BaselineAttack>, ttl: u64) -> Self {
        FloodDiameterEstimator {
            is_leader,
            byz,
            ttl,
            first_seen: None,
        }
    }
}

impl Protocol for FloodDiameterEstimator {
    type Message = TokenMsg;
    /// The round at which the token was first seen (≈ distance to the
    /// leader, a proxy for `log n`).
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<TokenMsg>],
        outbox: &mut Outbox<TokenMsg>,
        _rng: &mut ChaCha8Rng,
    ) -> Action<u64> {
        if ctx.round == 0 {
            // `BaselineAttack::None` follows the protocol, so a Byzantine
            // leader under it still floods (the control arm).
            let follows_protocol = matches!(self.byz, None | Some(BaselineAttack::None));
            let pretend_leader = matches!(self.byz, Some(BaselineAttack::Inflate));
            if (self.is_leader && follows_protocol) || pretend_leader {
                self.first_seen = Some(0);
                outbox.broadcast(ctx.neighbors.iter(), TokenMsg);
            }
            return Action::Continue;
        }
        if self.first_seen.is_none() && !inbox.is_empty() {
            self.first_seen = Some(ctx.round);
            if !matches!(self.byz, Some(BaselineAttack::Suppress)) {
                outbox.broadcast(ctx.neighbors.iter(), TokenMsg);
            }
        }
        if ctx.round >= self.ttl {
            match self.first_seen {
                Some(r) => Action::Decide(r),
                None => Action::Decide(u64::MAX),
            }
        } else {
            Action::Continue
        }
    }

    // Without input, a node acts only at round 0 (the leader's flood) and
    // from the TTL on (decide).
    fn quiescent(&self, round: u64) -> bool {
        round != 0 && round < self.ttl
    }
}

/// Run the flooding estimator with node 0 as the leader.  The engine stops
/// at `ttl + 4` rounds.
///
/// # Errors
/// Only the distributed engine can fail; see
/// [`run_with_engine`](netsim_runtime::run_with_engine).
pub fn run_flood_diameter<T: Topology>(
    topo: &T,
    byzantine: &[bool],
    attack: BaselineAttack,
    ttl: u64,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<u64>, RunError> {
    let nodes = flood_diameter_nodes(byzantine, attack, ttl, 0..topo.len());
    run_baseline(topo, nodes, byzantine, ttl + 4, seed, exec)
}

/// Build the per-node estimator states for global node ids `range` (the
/// full run is `0..topo.len()`; shard workers build their assigned chunk).
/// Node 0 is always the leader.
pub fn flood_diameter_nodes(
    byzantine: &[bool],
    attack: BaselineAttack,
    ttl: u64,
    range: std::ops::Range<usize>,
) -> Vec<FloodDiameterEstimator> {
    range
        .map(|i| {
            FloodDiameterEstimator::new(i == 0, if byzantine[i] { Some(attack) } else { None }, ttl)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::metrics::diameter_estimate;
    use netsim_graph::SmallWorldNetwork;

    fn run<T: Topology>(
        topo: &T,
        byz: &[bool],
        attack: BaselineAttack,
        ttl: u64,
        seed: u64,
    ) -> RunResult<u64> {
        run_flood_diameter(topo, byz, attack, ttl, seed, Exec::default()).unwrap()
    }

    #[test]
    fn honest_flood_matches_bfs_distances() {
        let n = 1024usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 1).unwrap();
        let byz = vec![false; n];
        let ttl = (3.0 * (n as f64).log2()).ceil() as u64;
        let result = run(net.h().csr(), &byz, BaselineAttack::None, ttl, 2);
        assert!(result.completed);
        let max_round = result.outputs.iter().map(|o| o.unwrap()).max().unwrap();
        let diam = diameter_estimate(net.h().csr(), 0).lower_bound as u64;
        // The farthest node hears the token after ecc(leader) rounds, which
        // is between diam/2 and diam.
        assert!(
            max_round <= diam + 1,
            "max arrival {max_round} vs diameter {diam}"
        );
        assert!(max_round as f64 >= (n as f64).log2() / (8f64).log2() - 1.0);
    }

    #[test]
    fn byzantine_leader_under_the_control_attack_still_floods() {
        // `BaselineAttack::None` is the control arm: a Byzantine node 0
        // following the protocol must lead exactly like an honest one.
        let n = 256usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 5).unwrap();
        let ttl = (3.0 * (n as f64).log2()).ceil() as u64;
        let honest = run(net.h().csr(), &vec![false; n], BaselineAttack::None, ttl, 6);
        let mut byz = vec![false; n];
        byz[0] = true;
        let control = run(net.h().csr(), &byz, BaselineAttack::None, ttl, 6);
        for i in 1..n {
            assert_eq!(control.outputs[i], honest.outputs[i], "node {i}");
        }
        assert!(honest.outputs[1..].iter().all(|o| *o != Some(u64::MAX)));
    }

    #[test]
    fn fake_leaders_shrink_estimates() {
        let n = 512usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 3).unwrap();
        let mut byz = vec![false; n];
        // A handful of Byzantine nodes all pretend to be the leader.
        for i in [37usize, 113, 301, 444] {
            byz[i] = true;
        }
        let ttl = (3.0 * (n as f64).log2()).ceil() as u64;
        let honest = run(net.h().csr(), &vec![false; n], BaselineAttack::None, ttl, 4);
        let attacked = run(net.h().csr(), &byz, BaselineAttack::Inflate, ttl, 4);
        let sum = |r: &RunResult<u64>, mask: &[bool]| -> f64 {
            let vals: Vec<u64> = r
                .outputs
                .iter()
                .enumerate()
                .filter(|(i, o)| !mask[*i] && o.is_some())
                .map(|(_, o)| o.unwrap())
                .collect();
            vals.iter().sum::<u64>() as f64 / vals.len() as f64
        };
        assert!(
            sum(&attacked, &byz) < sum(&honest, &vec![false; n]),
            "fake leaders must shrink the average first-arrival round"
        );
    }
}
