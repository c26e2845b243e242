//! The engine test suites' shared workload: max-flooding on a line, a
//! shouting adversary, the full fault stack, and result comparison.

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::engine::RunResult;
use crate::message::{Envelope, MessageSize, SizedMessage};
use crate::node::{Action, NodeContext, Outbox, Protocol};
use netsim_faults::{FaultPlan, FaultSpec};
use netsim_graph::{Csr, NodeId};
use netsim_wire::{Reader, Wire, WireError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Message carrying a single value; one ID's worth of payload.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Val(pub(crate) u64);

impl MessageSize for Val {
    fn message_size(&self) -> SizedMessage {
        SizedMessage::new(0, 64)
    }
}

impl Wire for Val {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Val(u64::decode(r)?))
    }
}

/// Max-flooding: every node starts with a random value and repeatedly
/// forwards the maximum it has seen; decides after `ttl` rounds.
#[derive(Clone)]
pub(crate) struct MaxFlood {
    best: u64,
    ttl: u64,
    started: bool,
}

impl Protocol for MaxFlood {
    type Message = Val;
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<Val>],
        outbox: &mut Outbox<Val>,
        rng: &mut ChaCha8Rng,
    ) -> Action<u64> {
        if !self.started {
            self.started = true;
            self.best = rng.gen::<u64>() | 1;
            outbox.broadcast(ctx.neighbors.iter(), Val(self.best));
            return Action::Continue;
        }
        let mut improved = false;
        for env in inbox {
            if env.payload.0 > self.best {
                self.best = env.payload.0;
                improved = true;
            }
        }
        if improved {
            outbox.broadcast(ctx.neighbors.iter(), Val(self.best));
        }
        if ctx.round >= self.ttl {
            Action::Decide(self.best)
        } else {
            Action::Continue
        }
    }

    // Once started, an empty inbox improves nothing, so only the decision
    // at the TTL acts without input.
    fn quiescent(&self, round: u64) -> bool {
        self.started && round < self.ttl
    }
}

pub(crate) fn line_graph(n: usize) -> Csr {
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    Csr::from_undirected_edges(n, &edges).unwrap()
}

pub(crate) fn flood_states(n: usize, ttl: u64) -> Vec<MaxFlood> {
    (0..n)
        .map(|_| MaxFlood {
            best: 0,
            ttl,
            started: false,
        })
        .collect()
}

/// An adversary that makes Byzantine nodes shout a huge value at node 0,
/// plus an illegal long-range message to node 5 that must be dropped.
pub(crate) struct Shouter;

impl Adversary<MaxFlood> for Shouter {
    fn act(
        &mut self,
        view: &AdversaryView<'_, MaxFlood>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<Val> {
        let mut msgs = Vec::new();
        for (i, &b) in view.byzantine.iter().enumerate() {
            if b {
                msgs.push(Envelope::new(
                    NodeId::from_index(i),
                    NodeId(0),
                    Val(u64::MAX),
                ));
                msgs.push(Envelope::new(
                    NodeId::from_index(i),
                    NodeId(5),
                    Val(u64::MAX),
                ));
            }
        }
        AdversaryDecision::Replace(msgs)
    }
}

/// Loss + bounded delay + churn + partition over `n` nodes.
pub(crate) fn full_fault_stack(n: usize, seed: u64) -> Box<dyn FaultPlan> {
    FaultSpec::Compose(vec![
        FaultSpec::Loss { rate: 0.15 },
        FaultSpec::Delay {
            max_delay: 3,
            rate: 0.3,
        },
        FaultSpec::Churn {
            rate: 0.04,
            downtime: 3,
        },
        FaultSpec::Partition {
            start: 2,
            duration: 5,
        },
    ])
    .build_plan(n, &vec![true; n], seed ^ 0xFA17)
    .expect("plan")
}

pub(crate) fn assert_results_equal(a: &RunResult<u64>, b: &RunResult<u64>, label: &str) {
    assert_eq!(a.outputs, b.outputs, "{label}: outputs diverged");
    assert_eq!(a.decided_round, b.decided_round, "{label}: decided_round");
    assert_eq!(a.crashed, b.crashed, "{label}: crash masks");
    assert_eq!(a.statuses, b.statuses, "{label}: statuses");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics");
    assert_eq!(a.completed, b.completed, "{label}: completed");
}
