//! The per-node state machine implementing Algorithm 1 (basic counting) and
//! Algorithm 2 (Byzantine counting).
//!
//! Both algorithms share the same skeleton; the Byzantine variant
//! additionally (a) crashes on conflicting neighbourhood reports during
//! discovery and (b) verifies the provenance of every color received after
//! step `k−1` of a subphase (Algorithm 2 line 15 / Lemma 16).  The
//! `CountingNode::verify` flag selects the variant (see [`CountingNode::is_verifying`]).
//!
//! ## Round anatomy
//!
//! * **Discovery (2 rounds).**  Broadcast the `G`-adjacency list; process the
//!   neighbours' lists, reconstruct the `H`-neighbour set (Lemma 3) and, in
//!   the Byzantine variant, crash on any inconsistency.
//! * **Subphase step 0.**  Non-decided nodes draw a geometric color and flood
//!   it along their `H`-edges (plus an audit announcement to all
//!   `G`-neighbours).
//! * **Subphase steps `1..=i`.**  Process arriving floods: discard floods not
//!   arriving over a reconstructed `H`-edge, verify provenance (Byzantine
//!   variant), track the per-round maxima, and forward a newly learned
//!   maximum (with its updated provenance path) if the subphase has steps
//!   remaining.
//! * **Last step of a subphase.**  Evaluate the continuation criterion
//!   (Algorithm 2 line 18): the maximum color seen in the final step must
//!   exceed every earlier step's maximum *and* the phase threshold.
//! * **Last subphase of a phase.**  If no subphase of the phase produced a
//!   continuation signal, decide the current phase index as the estimate of
//!   `log n` — but keep forwarding other nodes' tokens, as the paper
//!   requires.

use crate::color::{sample_color, Color};
use crate::discovery::{reconstruct, DiscoveryOutcome};
use crate::messages::{CountingMessage, FloodPath};
use crate::params::ProtocolParams;
use crate::schedule::{PhasePosition, Position, Schedule};
use netsim_graph::row;
use netsim_runtime::{Action, Envelope, NodeContext, Outbox, Protocol};
use rand_chacha::ChaCha8Rng;

/// The estimate a node decides: the phase index it terminated in (a
/// constant-factor estimate of `log₂ n`), plus diagnostic context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The terminating phase, i.e. the node's estimate of `log n`.
    pub phase: u64,
}

/// Protocol outputs cross the shard channel in the distributed engine's
/// final `Done` frame, so the decision is a wire type.
impl netsim_runtime::wire::Wire for Decision {
    fn encode(&self, out: &mut Vec<u8>) {
        self.phase.encode(out);
    }
    fn decode(
        r: &mut netsim_runtime::wire::Reader<'_>,
    ) -> Result<Self, netsim_runtime::wire::WireError> {
        Ok(Decision {
            phase: u64::decode(r)?,
        })
    }
}

/// Per-node protocol state.
#[derive(Clone, Debug)]
pub struct CountingNode {
    params: ProtocolParams,
    schedule: Schedule,
    /// Byzantine-tolerant variant (Algorithm 2) when true; Algorithm 1
    /// otherwise.
    verify: bool,
    /// Reconstructed `H`-neighbours (sorted).
    h_neighbors: Vec<u32>,
    /// Diagnostic copy of the discovery outcome.
    reconstruction: Option<DiscoveryOutcome>,
    /// The highest color this node has flooded in the current subphase
    /// (its own color or a forwarded maximum).
    max_sent: Color,
    /// Maximum verified color received in steps `1..t−1` of the current
    /// subphase.
    prefix_max: Color,
    /// Whether any subphase of the current phase satisfied the continuation
    /// criterion.
    phase_continue: bool,
    /// Audit log for the current subphase, flattened for the hot path:
    /// slot `neighbour_pos · audit_stride + sending_step` holds the highest
    /// color the `G`-neighbour at `neighbour_pos` announced forwarding in
    /// that step; `0` = nothing announced.  A neighbour's position is the
    /// *first* position of its id in the sorted row (an `H(n, d)` row may
    /// repeat an id), found by [`row::first`] on both sides: logging an
    /// audit and looking a relay up.  Cleared with its capacity kept at
    /// every generation step.
    audit_log: Vec<Color>,
    /// Sending-step slots per neighbour in `audit_log` (steps of the
    /// current subphase; `0` until the first generation step).
    audit_stride: usize,
    /// The phase this node decided in (if any).
    decided_phase: Option<u64>,
}

impl CountingNode {
    /// Create a node for the Byzantine counting protocol (Algorithm 2).
    pub fn byzantine_variant(params: ProtocolParams) -> Self {
        Self::new(params, true)
    }

    /// Create a node for the basic counting protocol (Algorithm 1).
    pub fn basic_variant(params: ProtocolParams) -> Self {
        Self::new(params, false)
    }

    fn new(params: ProtocolParams, verify: bool) -> Self {
        CountingNode {
            params,
            schedule: Schedule::new(params.d, params.epsilon),
            verify,
            h_neighbors: Vec::new(),
            reconstruction: None,
            max_sent: 0,
            prefix_max: 0,
            phase_continue: false,
            audit_log: Vec::new(),
            audit_stride: 0,
            decided_phase: None,
        }
    }

    /// Lay out the audit log for a subphase of `phase` (sending steps
    /// `0..=phase − 1` — audits are logged for step `t − 1` at flooding
    /// step `t ≤ phase`) over `neighbor_count` neighbours, zeroing every
    /// slot while keeping the allocation.
    fn reset_audit_log(&mut self, neighbor_count: usize, phase: u64) {
        self.audit_stride = phase as usize;
        self.audit_log.clear();
        self.audit_log.resize(neighbor_count * self.audit_stride, 0);
    }

    /// Record that the `G`-neighbour at `pos` (its first position in the
    /// sorted row) announced forwarding `color` in flooding step
    /// `sending_step` (max-merging repeated announcements).
    fn log_audit(&mut self, pos: usize, sending_step: u64, color: Color) {
        if (sending_step as usize) < self.audit_stride {
            let slot = pos * self.audit_stride + sending_step as usize;
            if let Some(entry) = self.audit_log.get_mut(slot) {
                *entry = (*entry).max(color);
            }
        }
    }

    /// The highest color `relay` (at `relay_pos`, its first position in the
    /// sorted row) announced for `sending_step`; `0` when nothing was
    /// logged.
    fn audited_color(&self, relay_pos: usize, sending_step: u64) -> Color {
        if (sending_step as usize) < self.audit_stride {
            self.audit_log
                .get(relay_pos * self.audit_stride + sending_step as usize)
                .copied()
                .unwrap_or(0)
        } else {
            0
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The schedule this node follows.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Whether this node runs the verifying (Byzantine) variant.
    pub fn is_verifying(&self) -> bool {
        self.verify
    }

    /// The reconstructed `H`-neighbour list (empty before discovery).
    pub fn reconstructed_h_neighbors(&self) -> &[u32] {
        &self.h_neighbors
    }

    /// The full discovery outcome (None before discovery).
    pub fn discovery_outcome(&self) -> Option<&DiscoveryOutcome> {
        self.reconstruction.as_ref()
    }

    /// The phase this node decided in, if it has decided.
    pub fn decided_phase(&self) -> Option<u64> {
        self.decided_phase
    }

    // ------------------------------------------------------------------
    // Discovery
    // ------------------------------------------------------------------

    fn discovery_send(
        &mut self,
        ctx: &NodeContext<'_>,
        outbox: &mut Outbox<CountingMessage>,
    ) -> Action<Decision> {
        let report = CountingMessage::Adjacency {
            neighbors: ctx.neighbors.to_vec(),
        };
        outbox.broadcast(ctx.neighbors.iter(), report);
        Action::Continue
    }

    fn discovery_process(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<CountingMessage>],
    ) -> Action<Decision> {
        let reports = inbox.iter().filter_map(|env| match &env.payload {
            CountingMessage::Adjacency { neighbors } => Some((env.from.0, neighbors.as_slice())),
            _ => None,
        });
        let outcome = reconstruct(ctx.id.0, ctx.neighbors, reports);
        let conflict = outcome.conflict;
        self.h_neighbors = outcome.h_neighbors.clone();
        self.h_neighbors.sort_unstable();
        self.reconstruction = Some(outcome);
        if self.verify && conflict {
            // Algorithm 2 line 2: crash on contradictory neighbourhood data.
            return Action::Crash;
        }
        Action::Continue
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    fn flood(
        &mut self,
        ctx: &NodeContext<'_>,
        outbox: &mut Outbox<CountingMessage>,
        color: Color,
        path: FloodPath,
    ) {
        let flood = CountingMessage::Flood { color, path };
        outbox.broadcast(self.h_neighbors.iter(), flood);
        // Announce what we forwarded so our G-neighbours can audit claims
        // that reference us.  Only the Byzantine-tolerant variant consumes
        // audits, so the basic variant does not pay for them.
        if self.verify {
            outbox.broadcast(ctx.neighbors.iter(), CountingMessage::Audit { color });
        }
    }

    fn generation_step(
        &mut self,
        ctx: &NodeContext<'_>,
        pos: PhasePosition,
        outbox: &mut Outbox<CountingMessage>,
        rng: &mut ChaCha8Rng,
    ) -> Action<Decision> {
        // Reset per-subphase state.
        self.reset_audit_log(ctx.neighbors.len(), pos.phase);
        self.prefix_max = 0;
        self.max_sent = 0;
        if pos.subphase == 1 {
            self.phase_continue = false;
        }
        if self.decided_phase.is_none() {
            let color = sample_color(rng);
            self.max_sent = color;
            self.flood(ctx, outbox, color, FloodPath::new());
        }
        Action::Continue
    }

    /// Provenance verification (Algorithm 2 line 15 realised as
    /// path-attestation; see Lemma 16).  `step` is the flooding step at
    /// which the color arrived.
    fn verify_color(&self, ctx: &NodeContext<'_>, color: Color, path: &[u32], step: u64) -> bool {
        let k = self.params.k as u64;
        // Colors arriving within the first k−1 steps may have originated
        // anywhere in the sender's (k−1)-ball; Lemma 16 shows this is the
        // only window in which the adversary can inject values, and the
        // analysis of Lemma 17 absorbs it.
        if step < k {
            return true;
        }
        // Beyond that, the message must name its last k−1 relays and every
        // one of them must have announced forwarding this color at the
        // matching step.
        if (path.len() as u64) < k - 1 {
            return false;
        }
        for (idx, &relay) in path.iter().take((k - 1) as usize).enumerate() {
            let j = idx as u64 + 1; // hops behind the sender
            let sending_step = step - 1 - j;
            if relay == ctx.id.0 {
                // We are on the claimed path ourselves: we know what we sent.
                if self.max_sent < color {
                    return false;
                }
                continue;
            }
            let Some(relay_pos) = row::first(ctx.neighbors, relay) else {
                // A relay within B_H(sender, k−1) is necessarily one of our
                // G-neighbours; an unknown relay means a fabricated path.
                return false;
            };
            if self.audited_color(relay_pos, sending_step) < color {
                return false;
            }
        }
        true
    }

    fn flooding_step(
        &mut self,
        ctx: &NodeContext<'_>,
        pos: PhasePosition,
        inbox: &[Envelope<CountingMessage>],
        outbox: &mut Outbox<CountingMessage>,
    ) -> Action<Decision> {
        let step = pos.step;
        // 1. Log audits (they were sent in the previous engine round, i.e.
        //    flooding step `step − 1`).
        for env in inbox {
            if let CountingMessage::Audit { color } = env.payload {
                if let Some(pos) = row::first(ctx.neighbors, env.from.0) {
                    self.log_audit(pos, step - 1, color);
                }
            }
        }
        // 2. Process floods arriving over (reconstructed) H-edges.
        let mut best: Color = 0;
        let mut best_origin: Option<(u32, &[u32])> = None;
        for env in inbox {
            if let CountingMessage::Flood { color, path } = &env.payload {
                if !row::contains(&self.h_neighbors, env.from.0) {
                    // Floods travel along H only; anything else is ignored.
                    continue;
                }
                if self.verify && !self.verify_color(ctx, *color, path, step) {
                    continue;
                }
                if *color > best {
                    best = *color;
                    best_origin = Some((env.from.0, path.as_slice()));
                }
            }
        }
        // 3. Forward a newly learned maximum if the subphase still has steps
        //    left for it to travel.
        if best > self.max_sent && step < pos.phase {
            if let Some((from, path)) = best_origin {
                let behind = &path[..path.len().min(self.params.k.saturating_sub(2))];
                self.max_sent = best;
                self.flood(ctx, outbox, best, FloodPath::relayed(from, behind));
            }
        }
        // 4. Criterion bookkeeping.
        if pos.is_last_step() {
            if self.decided_phase.is_none() {
                let threshold = self.params.continue_threshold(pos.phase);
                if best as f64 > threshold && best > self.prefix_max {
                    self.phase_continue = true;
                }
                if pos.is_last_subphase(&self.schedule) && !self.phase_continue {
                    self.decided_phase = Some(pos.phase);
                    return Action::Decide(Decision { phase: pos.phase });
                }
            }
        } else {
            self.prefix_max = self.prefix_max.max(best);
        }
        Action::Continue
    }
}

impl Protocol for CountingNode {
    type Message = CountingMessage;
    type Output = Decision;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<CountingMessage>],
        outbox: &mut Outbox<CountingMessage>,
        rng: &mut ChaCha8Rng,
    ) -> Action<Decision> {
        match self.schedule.locate(ctx.round) {
            Position::DiscoverySend => self.discovery_send(ctx, outbox),
            Position::DiscoveryProcess => self.discovery_process(ctx, inbox),
            Position::InPhase(pos) => {
                if pos.is_generation_step() {
                    self.generation_step(ctx, pos, outbox, rng)
                } else {
                    self.flooding_step(ctx, pos, inbox, outbox)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::NodeId;
    use rand::SeedableRng;

    fn params() -> ProtocolParams {
        ProtocolParams::new(8, 3, 0.6, 0.1, 1.0)
    }

    fn ctx<'a>(neighbors: &'a [u32], round: u64) -> NodeContext<'a> {
        NodeContext {
            id: NodeId(0),
            round,
            neighbors,
            decided: false,
        }
    }

    #[test]
    fn node_construction_variants() {
        let byz = CountingNode::byzantine_variant(params());
        let basic = CountingNode::basic_variant(params());
        assert!(byz.is_verifying());
        assert!(!basic.is_verifying());
        assert!(byz.decided_phase().is_none());
    }

    #[test]
    fn discovery_send_broadcasts_adjacency() {
        let mut node = CountingNode::byzantine_variant(params());
        let neighbors = [1u32, 2, 3];
        let mut outbox = Outbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let action = node.step(&ctx(&neighbors, 0), &[], &mut outbox, &mut rng);
        assert_eq!(action, Action::Continue);
        assert_eq!(outbox.len(), 3);
    }

    #[test]
    fn verifying_node_crashes_on_missing_reports() {
        let mut node = CountingNode::byzantine_variant(params());
        let neighbors = [1u32, 2, 3];
        let mut outbox = Outbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // Round 1 with an empty inbox: every neighbour failed to report.
        let action = node.step(&ctx(&neighbors, 1), &[], &mut outbox, &mut rng);
        assert_eq!(action, Action::Crash);
    }

    #[test]
    fn basic_node_tolerates_missing_reports() {
        let mut node = CountingNode::basic_variant(params());
        let neighbors = [1u32, 2, 3];
        let mut outbox = Outbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let action = node.step(&ctx(&neighbors, 1), &[], &mut outbox, &mut rng);
        assert_eq!(action, Action::Continue);
    }

    #[test]
    fn verify_color_accepts_early_and_rejects_unattested_late_colors() {
        let mut node = CountingNode::byzantine_variant(params());
        node.h_neighbors = vec![1, 2];
        let neighbors = [1u32, 2, 3, 4];
        let c = ctx(&neighbors, 10);
        // Early steps (step < k = 3) are accepted unconditionally.
        assert!(node.verify_color(&c, 50, &[], 1));
        assert!(node.verify_color(&c, 50, &[], 2));
        // Step 3 requires a path of length k−1 = 2 with matching audits.
        assert!(!node.verify_color(&c, 50, &[], 3));
        assert!(
            !node.verify_color(&c, 50, &[3, 4], 3),
            "no audits logged yet"
        );
        // Log audits that corroborate the path: relay 3 sent at step 1,
        // relay 4 (the origin) at step 0.
        node.reset_audit_log(neighbors.len(), 3);
        node.log_audit(2, 1, 50); // relay 3, at position 2
        node.log_audit(3, 0, 50); // relay 4, at position 3
        assert!(node.verify_color(&c, 50, &[3, 4], 3));
        // A higher color than was attested is rejected.
        assert!(!node.verify_color(&c, 51, &[3, 4], 3));
        // A relay outside the G-neighbourhood is rejected.
        assert!(!node.verify_color(&c, 50, &[9, 4], 3));
    }

    #[test]
    fn generation_step_floods_own_color_over_h_edges_only() {
        let mut node = CountingNode::byzantine_variant(params());
        node.h_neighbors = vec![1, 2];
        let neighbors = [1u32, 2, 3, 4, 5];
        let mut outbox = Outbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let pos = PhasePosition {
            phase: 2,
            subphase: 1,
            step: 0,
        };
        let action = node.generation_step(&ctx(&neighbors, 2), pos, &mut outbox, &mut rng);
        assert_eq!(action, Action::Continue);
        // 2 floods (H-neighbours) + 5 audits (all G-neighbours).
        assert_eq!(outbox.len(), 2 + 5);
        assert!(node.max_sent >= 1);
    }

    #[test]
    fn flooding_step_ignores_floods_from_non_h_neighbors() {
        let mut node = CountingNode::basic_variant(params());
        node.h_neighbors = vec![1];
        let neighbors = [1u32, 2];
        let mut outbox = Outbox::new();
        let pos = PhasePosition {
            phase: 3,
            subphase: 1,
            step: 1,
        };
        let inbox = vec![
            Envelope::new(
                NodeId(2),
                NodeId(0),
                CountingMessage::Flood {
                    color: 40,
                    path: vec![].into(),
                },
            ),
            Envelope::new(
                NodeId(1),
                NodeId(0),
                CountingMessage::Flood {
                    color: 5,
                    path: vec![].into(),
                },
            ),
        ];
        node.flooding_step(&ctx(&neighbors, 3), pos, &inbox, &mut outbox);
        // The color 40 came over an L-edge and must be ignored; 5 is
        // forwarded (2 floods to H-neighbours + audits).
        assert_eq!(node.max_sent, 5);
    }

    #[test]
    fn decision_fires_only_without_a_continue_signal() {
        let p = params();
        let schedule = Schedule::new(p.d, p.epsilon);
        let mut node = CountingNode::basic_variant(p);
        node.h_neighbors = vec![1];
        let neighbors = [1u32];
        // Jump straight to the last step of the last subphase of phase 1
        // with an empty inbox: no continue signal → decide phase 1.
        let last_subphase = schedule.subphases_in_phase(1);
        let pos = PhasePosition {
            phase: 1,
            subphase: last_subphase,
            step: 1,
        };
        let mut outbox = Outbox::new();
        let action = node.flooding_step(&ctx(&neighbors, 99), pos, &[], &mut outbox);
        assert_eq!(action, Action::Decide(Decision { phase: 1 }));
        assert_eq!(node.decided_phase(), Some(1));
    }

    #[test]
    fn high_color_in_last_round_prevents_decision() {
        let p = params();
        let schedule = Schedule::new(p.d, p.epsilon);
        let mut node = CountingNode::basic_variant(p);
        node.h_neighbors = vec![1];
        let neighbors = [1u32];
        let last_subphase = schedule.subphases_in_phase(1);
        let pos = PhasePosition {
            phase: 1,
            subphase: last_subphase,
            step: 1,
        };
        let inbox = vec![Envelope::new(
            NodeId(1),
            NodeId(0),
            CountingMessage::Flood {
                color: 10,
                path: vec![].into(),
            },
        )];
        let mut outbox = Outbox::new();
        let action = node.flooding_step(&ctx(&neighbors, 99), pos, &inbox, &mut outbox);
        assert_eq!(action, Action::Continue);
        assert!(node.decided_phase().is_none());
    }
}
