//! Exact counting via a BFS spanning tree and converge-cast (Section 1.2's
//! "simply build a spanning tree" remark).
//!
//! A designated root floods an invitation; every node adopts its first
//! inviter as parent, learns its children from the accept/reject replies,
//! converge-casts subtree counts to the root, and the root floods the exact
//! total back down.  Exact without faults; a single Byzantine node on the
//! tree can report an arbitrary subtree count (inflate) or simply not
//! respond, dead-locking the converge-cast (suppress).

use crate::attack::BaselineAttack;
use crate::run_baseline;
use netsim_graph::NodeId;
use netsim_runtime::{
    Action, Envelope, Exec, MessageSize, NodeContext, Outbox, Protocol, RunError, RunResult,
    SizedMessage, Topology,
};
use netsim_wire::{Reader, Wire, WireError};
use rand_chacha::ChaCha8Rng;

/// Spanning-tree protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeMsg {
    /// "Join my tree" — sent once by every node after it joins.
    Invite,
    /// "You are my parent."
    Accept,
    /// "I already have a parent."
    Reject,
    /// Converge-cast subtree count.
    Count(u64),
    /// The root's final total, flooded back down.
    Result(u64),
}

impl MessageSize for TreeMsg {
    fn message_size(&self) -> SizedMessage {
        match self {
            TreeMsg::Invite | TreeMsg::Accept | TreeMsg::Reject => SizedMessage::new(0, 2),
            TreeMsg::Count(_) | TreeMsg::Result(_) => SizedMessage::new(0, 64),
        }
    }
}

/// Canonical binary encoding (tag byte + count), required to run this
/// baseline on the distributed engine's shard channels.
impl Wire for TreeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TreeMsg::Invite => out.push(0),
            TreeMsg::Accept => out.push(1),
            TreeMsg::Reject => out.push(2),
            TreeMsg::Count(c) => {
                out.push(3);
                c.encode(out);
            }
            TreeMsg::Result(c) => {
                out.push(4);
                c.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(TreeMsg::Invite),
            1 => Ok(TreeMsg::Accept),
            2 => Ok(TreeMsg::Reject),
            3 => Ok(TreeMsg::Count(u64::decode(r)?)),
            4 => Ok(TreeMsg::Result(u64::decode(r)?)),
            other => Err(WireError::Corrupt(format!(
                "unknown tree-message tag {other}"
            ))),
        }
    }
}

/// The subtree count an inflating Byzantine node reports.
pub const INFLATED_COUNT: u64 = 1_000_000_000;

/// Per-node state of the spanning-tree counter.
#[derive(Clone, Debug)]
pub struct SpanningTreeCounter {
    byz: Option<BaselineAttack>,
    is_root: bool,
    joined: bool,
    parent: Option<u32>,
    invite_round: Option<u64>,
    responses: usize,
    children: Vec<u32>,
    child_counts: Vec<u64>,
    sent_count: bool,
    result: Option<u64>,
}

impl SpanningTreeCounter {
    /// Construct a node; node 0 is conventionally the root.
    pub fn new(is_root: bool, byz: Option<BaselineAttack>) -> Self {
        SpanningTreeCounter {
            byz,
            is_root,
            joined: false,
            parent: None,
            invite_round: None,
            responses: 0,
            children: Vec::new(),
            child_counts: Vec::new(),
            sent_count: false,
            result: None,
        }
    }

    fn suppressing(&self) -> bool {
        matches!(self.byz, Some(BaselineAttack::Suppress))
    }

    fn subtree_count(&self) -> u64 {
        if matches!(self.byz, Some(BaselineAttack::Inflate)) {
            INFLATED_COUNT
        } else {
            1 + self.child_counts.iter().sum::<u64>()
        }
    }
}

impl Protocol for SpanningTreeCounter {
    type Message = TreeMsg;
    /// The network size as announced by the root.
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<TreeMsg>],
        outbox: &mut Outbox<TreeMsg>,
        _rng: &mut ChaCha8Rng,
    ) -> Action<u64> {
        if self.suppressing() {
            // A suppressing Byzantine node never answers anything, which
            // stalls its parent's converge-cast forever.
            return Action::Continue;
        }
        // Root bootstrap.
        if ctx.round == 0 && self.is_root {
            self.joined = true;
            self.invite_round = Some(0);
            outbox.broadcast(ctx.neighbors.iter(), TreeMsg::Invite);
        }
        let mut new_result = None;
        for env in inbox {
            match env.payload {
                TreeMsg::Invite => {
                    if !self.joined {
                        self.joined = true;
                        self.parent = Some(env.from.0);
                        self.invite_round = Some(ctx.round);
                        outbox.send(env.from, TreeMsg::Accept);
                        outbox.broadcast(ctx.neighbors.iter(), TreeMsg::Invite);
                    } else {
                        outbox.send(env.from, TreeMsg::Reject);
                    }
                }
                TreeMsg::Accept => {
                    self.responses += 1;
                    self.children.push(env.from.0);
                }
                TreeMsg::Reject => {
                    self.responses += 1;
                }
                TreeMsg::Count(c) => {
                    self.child_counts.push(c);
                }
                TreeMsg::Result(total) => {
                    if self.result.is_none() {
                        new_result = Some(total);
                    }
                }
            }
        }
        // Converge-cast once all neighbours responded to our invite and all
        // children reported.
        // Every neighbour (the parent included) answers each of our invites
        // with Accept or Reject, so completion means `responses` reaching the
        // neighbour count; a silent Byzantine neighbour therefore stalls us.
        if self.joined
            && !self.sent_count
            && self.invite_round.is_some()
            && self.responses >= ctx.neighbors.len()
            && self.child_counts.len() >= self.children.len()
        {
            self.sent_count = true;
            if self.is_root {
                let total = self.subtree_count();
                self.result = Some(total);
                outbox.broadcast(ctx.neighbors.iter(), TreeMsg::Result(total));
                return Action::Decide(total);
            } else if let Some(parent) = self.parent {
                outbox.send(NodeId(parent), TreeMsg::Count(self.subtree_count()));
            }
        }
        if let Some(total) = new_result {
            self.result = Some(total);
            outbox.broadcast(ctx.neighbors.iter(), TreeMsg::Result(total));
            return Action::Decide(total);
        }
        Action::Continue
    }

    // Only the root's bootstrap acts without input.  The converge-cast
    // test runs after the inbox in every step, and with nothing new in
    // the inbox it cannot newly hold.
    fn quiescent(&self, round: u64) -> bool {
        self.suppressing() || !(self.is_root && round == 0)
    }
}

/// Run the spanning-tree counter with node 0 as root; the engine stops at
/// `max_rounds`.
///
/// # Errors
/// Only the distributed engine can fail; see
/// [`run_with_engine`](netsim_runtime::run_with_engine).
pub fn run_spanning_tree_count<T: Topology>(
    topo: &T,
    byzantine: &[bool],
    attack: BaselineAttack,
    max_rounds: u64,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<u64>, RunError> {
    let nodes = spanning_tree_nodes(byzantine, attack, 0..topo.len());
    run_baseline(topo, nodes, byzantine, max_rounds, seed, exec)
}

/// Build the per-node counter states for global node ids `range` (the full
/// run is `0..topo.len()`; shard workers build their assigned chunk).
/// Node 0 is always the root.
pub fn spanning_tree_nodes(
    byzantine: &[bool],
    attack: BaselineAttack,
    range: std::ops::Range<usize>,
) -> Vec<SpanningTreeCounter> {
    range
        .map(|i| SpanningTreeCounter::new(i == 0, if byzantine[i] { Some(attack) } else { None }))
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
        max_rounds: u64,
        seed: u64,
    ) -> RunResult<u64> {
        run_spanning_tree_count(topo, byz, attack, max_rounds, seed, Exec::default()).unwrap()
    }

    #[test]
    fn counts_exactly_without_faults() {
        let n = 500usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 1).unwrap();
        let byz = vec![false; n];
        let result = run(net.h().csr(), &byz, BaselineAttack::None, 400, 2);
        assert!(result.completed);
        assert!(result.outputs.iter().all(|o| *o == Some(n as u64)));
    }

    #[test]
    fn one_inflating_node_corrupts_the_count() {
        let n = 300usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 3).unwrap();
        let mut byz = vec![false; n];
        byz[50] = true;
        let result = run(net.h().csr(), &byz, BaselineAttack::Inflate, 400, 4);
        let root_count = result.outputs[0];
        assert!(
            root_count.unwrap_or(0) >= INFLATED_COUNT,
            "the fake subtree count must reach the root: {root_count:?}"
        );
    }

    #[test]
    fn one_suppressing_node_stalls_the_count() {
        let n = 300usize;
        let net = SmallWorldNetwork::generate_seeded(n, 8, 5).unwrap();
        let mut byz = vec![false; n];
        byz[50] = true;
        let result = run(net.h().csr(), &byz, BaselineAttack::Suppress, 200, 6);
        // The root never hears from the silent child's subtree, so the
        // protocol cannot complete.
        assert!(!result.completed);
        assert!(result.outputs[0].is_none());
    }
}
