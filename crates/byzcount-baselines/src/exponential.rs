//! Exponential-distribution support estimation ([6, 4] in the paper).
//!
//! Every node draws `K` independent `Exp(1)` variables; the network floods
//! the component-wise minimum.  The minimum of `n` unit exponentials is
//! `Exp(n)`, so `n̂ = (K − 1) / Σ_j W_j` is an (almost unbiased) estimate of
//! `n`.  A Byzantine node that reports zeros drives `n̂` to infinity; a
//! suppressing node biases it downward.

use crate::attack::BaselineAttack;
use crate::run_baseline;
use netsim_runtime::{
    Action, Envelope, Exec, MessageSize, NodeContext, Outbox, Protocol, RunError, RunResult,
    SizedMessage, Topology,
};
use netsim_wire::{Reader, Wire, WireError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Number of independent repetitions carried in each message.
pub const REPETITIONS: usize = 8;

/// Message: the component-wise minima known to the sender.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpMsg(pub Vec<f64>);

impl MessageSize for ExpMsg {
    fn message_size(&self) -> SizedMessage {
        SizedMessage::new(0, (self.0.len() * 64) as u32)
    }
}

/// Canonical binary encoding: the minima vector, with each `f64` as its
/// IEEE-754 bit pattern (exact — parity across engines needs every bit).
impl Wire for ExpMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ExpMsg(Vec::decode(r)?))
    }
}

/// Per-node state of the exponential support estimator.
#[derive(Clone, Debug)]
pub struct ExponentialSupportEstimator {
    ttl: u64,
    byz: Option<BaselineAttack>,
    mins: Vec<f64>,
}

impl ExponentialSupportEstimator {
    /// An honest node.
    pub fn honest(ttl: u64) -> Self {
        ExponentialSupportEstimator {
            ttl,
            byz: None,
            mins: vec![f64::INFINITY; REPETITIONS],
        }
    }

    /// A Byzantine node with the given behaviour.
    pub fn byzantine(ttl: u64, attack: BaselineAttack) -> Self {
        ExponentialSupportEstimator {
            ttl,
            byz: Some(attack),
            mins: vec![f64::INFINITY; REPETITIONS],
        }
    }

    /// Convert accumulated minima into an estimate of `n`.
    fn estimate(&self) -> f64 {
        let sum: f64 = self.mins.iter().copied().filter(|v| v.is_finite()).sum();
        if sum <= 0.0 {
            f64::INFINITY
        } else {
            (REPETITIONS as f64 - 1.0) / sum
        }
    }

    fn merge(&mut self, other: &[f64]) -> bool {
        let mut changed = false;
        for (m, &o) in self.mins.iter_mut().zip(other.iter()) {
            if o < *m {
                *m = o;
                changed = true;
            }
        }
        changed
    }
}

impl Protocol for ExponentialSupportEstimator {
    type Message = ExpMsg;
    /// The decided estimate of `n`.
    type Output = f64;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<ExpMsg>],
        outbox: &mut Outbox<ExpMsg>,
        rng: &mut ChaCha8Rng,
    ) -> Action<f64> {
        if ctx.round == 0 {
            match self.byz {
                None | Some(BaselineAttack::None) => {
                    for m in self.mins.iter_mut() {
                        // Exp(1) via inverse CDF.
                        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                        *m = -u.ln();
                    }
                }
                Some(BaselineAttack::Inflate) => {
                    // Claim (near-)zero draws: the minimum of anything with 0
                    // is 0, so every honest node's n̂ explodes.
                    for m in self.mins.iter_mut() {
                        *m = 1e-12;
                    }
                }
                Some(BaselineAttack::Suppress) => {
                    self.mins = vec![f64::INFINITY; REPETITIONS];
                    return Action::Continue;
                }
            }
            outbox.broadcast(ctx.neighbors.iter(), ExpMsg(self.mins.clone()));
            return Action::Continue;
        }
        let mut changed = false;
        for env in inbox {
            changed |= self.merge(&env.payload.0);
        }
        if changed && !matches!(self.byz, Some(BaselineAttack::Suppress)) {
            outbox.broadcast(ctx.neighbors.iter(), ExpMsg(self.mins.clone()));
        }
        if ctx.round >= self.ttl {
            Action::Decide(self.estimate())
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

/// Run the estimator over a topology: `byzantine[i]` marks node `i` as
/// Byzantine with behaviour `attack`, and the engine stops at `ttl + 4`
/// rounds.
///
/// # Errors
/// Only the distributed engine can fail; see
/// [`run_with_engine`](netsim_runtime::run_with_engine).
pub fn run_exponential_support<T: Topology>(
    topo: &T,
    byzantine: &[bool],
    attack: BaselineAttack,
    ttl: u64,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<f64>, RunError> {
    let nodes = exponential_support_nodes(byzantine, attack, ttl, 0..topo.len());
    run_baseline(topo, nodes, byzantine, ttl + 4, seed, exec)
}

/// Build the per-node estimator states for global node ids `range` (the
/// full run is `0..topo.len()`; shard workers build their assigned chunk).
pub fn exponential_support_nodes(
    byzantine: &[bool],
    attack: BaselineAttack,
    ttl: u64,
    range: std::ops::Range<usize>,
) -> Vec<ExponentialSupportEstimator> {
    range
        .map(|i| {
            if byzantine[i] {
                ExponentialSupportEstimator::byzantine(ttl, attack)
            } else {
                ExponentialSupportEstimator::honest(ttl)
            }
        })
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
    ) -> RunResult<f64> {
        run_exponential_support(topo, byz, attack, ttl, seed, Exec::default()).unwrap()
    }

    fn ttl_for(n: usize) -> u64 {
        (3.0 * (n as f64).log2()).ceil() as u64 + 5
    }

    #[test]
    fn honest_run_estimates_n_within_a_small_factor() {
        let n = 2048usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 1).unwrap();
        let byz = vec![false; n];
        let result = run(net.h().csr(), &byz, BaselineAttack::None, ttl_for(n), 3);
        assert!(result.completed);
        let est = result.outputs[0].unwrap();
        // With K = 8 repetitions the estimator is noisy but within a factor
        // ~3 of the truth essentially always.
        assert!(
            est > n as f64 / 3.0 && est < n as f64 * 3.0,
            "estimate {est} too far from n = {n}"
        );
        // All honest nodes converge to the same minima, hence same estimate.
        assert!(result.outputs.iter().all(|o| o.unwrap() == est));
    }

    #[test]
    fn single_inflating_byzantine_node_explodes_the_estimate() {
        let n = 1024usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 2).unwrap();
        let mut byz = vec![false; n];
        byz[100] = true;
        let result = run(net.h().csr(), &byz, BaselineAttack::Inflate, ttl_for(n), 4);
        let honest_est = result
            .outputs
            .iter()
            .enumerate()
            .filter(|(i, _)| !byz[*i])
            .map(|(_, o)| o.unwrap())
            .collect::<Vec<_>>();
        assert!(
            honest_est.iter().all(|&e| e > 100.0 * n as f64),
            "a single zero-claiming node must make n̂ explode"
        );
    }

    #[test]
    fn estimator_math_is_sane() {
        let node = ExponentialSupportEstimator {
            ttl: 1,
            byz: None,
            mins: vec![0.001; REPETITIONS],
        };
        let est = node.estimate();
        assert!((est - (REPETITIONS as f64 - 1.0) / (0.001 * REPETITIONS as f64)).abs() < 1e-9);
        let empty = ExponentialSupportEstimator::honest(1);
        assert!(
            empty.estimate().is_infinite() || empty.estimate().is_nan() || empty.estimate() > 0.0
        );
    }
}
