//! Concrete adversary strategies.
//!
//! All strategies are *full-information*: they are constructed with
//! [`AdversaryKnowledge`] (the true topology, parameters and schedule) and
//! receive the complete [`netsim_runtime::AdversaryView`] every round.  They
//! differ in what they make the Byzantine nodes send.

use crate::knowledge::AdversaryKnowledge;
use byzcount_core::{Color, CountingMessage, CountingNode, FloodPath, Position, MAX_COLOR};
use netsim_runtime::{Adversary, AdversaryDecision, AdversaryView, Envelope};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// When the color-inflation adversary injects its fabricated colors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectionTiming {
    /// At the generation step of every subphase — indistinguishable from
    /// legitimately drawing an absurdly lucky color.  Lemma 17 shows the
    /// protocol terminates anyway (the fake maximum floods the core early,
    /// so it no longer arrives in the *last* step once `i` exceeds the core
    /// diameter).
    Legal,
    /// In the second-to-last step of every subphase, so the fabricated color
    /// arrives exactly in the step the continuation criterion looks at.
    /// Algorithm 2's provenance verification rejects it (Lemma 16); the
    /// basic Algorithm 1 is fooled into never terminating.
    LastStep,
}

/// Control strategy: Byzantine nodes follow the protocol to the letter.
#[derive(Clone, Copy, Debug, Default)]
pub struct HonestBehavingAdversary;

impl Adversary<CountingNode> for HonestBehavingAdversary {
    fn act(
        &mut self,
        _view: &AdversaryView<'_, CountingNode>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<CountingMessage> {
        AdversaryDecision::FollowProtocol
    }

    // Stateless, RNG-free and always `FollowProtocol`: eliding idle-tick
    // calls (sparse ticking) cannot change anything.
    fn idle_passive(&self) -> bool {
        true
    }
}

/// Byzantine nodes never send anything — not even their adjacency list,
/// which the discovery phase treats as a conflict, crashing (only) the
/// liar's `G`-neighbourhood.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentAdversary;

impl Adversary<CountingNode> for SilentAdversary {
    fn act(
        &mut self,
        _view: &AdversaryView<'_, CountingNode>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<CountingMessage> {
        AdversaryDecision::Replace(Vec::new())
    }

    // Stateless, RNG-free and always an empty `Replace`: on an idle tick
    // (no queued envelopes to suppress) the call is a pure no-op.
    fn idle_passive(&self) -> bool {
        true
    }
}

/// Inject colors far above the honest maximum.
#[derive(Clone, Debug)]
pub struct ColorInflationAdversary {
    knowledge: AdversaryKnowledge,
    timing: InjectionTiming,
    color: Color,
}

impl ColorInflationAdversary {
    /// Create the inflation adversary with the default (maximal) fake color.
    pub fn new(knowledge: AdversaryKnowledge, timing: InjectionTiming) -> Self {
        ColorInflationAdversary {
            knowledge,
            timing,
            color: MAX_COLOR,
        }
    }

    /// Override the fake color value.
    pub fn with_color(mut self, color: Color) -> Self {
        self.color = color;
        self
    }

    fn injection_messages(&self, fabricate_path: bool) -> Vec<Envelope<CountingMessage>> {
        let k = self.knowledge.params.k;
        let mut msgs = Vec::new();
        for info in &self.knowledge.byzantine {
            let path = if fabricate_path {
                // Claim the color travelled through our first k−1 G-neighbours;
                // those are honest nodes whose audit logs will refute us.
                let claimed = k.saturating_sub(1).min(info.g_neighbors.len());
                FloodPath::from(&info.g_neighbors[..claimed])
            } else {
                FloodPath::new()
            };
            for &h in &info.h_neighbors {
                msgs.push(Envelope::new(
                    info.node,
                    netsim_graph::NodeId(h),
                    CountingMessage::Flood {
                        color: self.color,
                        path: path.clone(),
                    },
                ));
            }
            // Announce the fake color as an audit too, so that colluding
            // Byzantine relays corroborate each other where possible.
            for &g in &info.g_neighbors {
                msgs.push(Envelope::new(
                    info.node,
                    netsim_graph::NodeId(g),
                    CountingMessage::Audit { color: self.color },
                ));
            }
        }
        msgs
    }
}

impl Adversary<CountingNode> for ColorInflationAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, CountingNode>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<CountingMessage> {
        match self.knowledge.schedule.locate(view.round) {
            Position::DiscoverySend | Position::DiscoveryProcess => {
                AdversaryDecision::FollowProtocol
            }
            Position::InPhase(pos) => {
                let inject_step = match self.timing {
                    InjectionTiming::Legal => 0,
                    // Send in step `phase − 1` so the color is *received* in
                    // the last step `phase`; phase 1 degenerates to step 0.
                    InjectionTiming::LastStep => pos.phase.saturating_sub(1),
                };
                if pos.step == inject_step {
                    let fabricate = self.timing == InjectionTiming::LastStep
                        && inject_step + 1 >= self.knowledge.params.k as u64;
                    AdversaryDecision::Replace(self.injection_messages(fabricate))
                } else {
                    AdversaryDecision::FollowProtocol
                }
            }
        }
    }
}

/// Participate honestly in discovery, then never generate or forward any
/// color — the attack that silently shrinks the support of the naive
/// max-propagation estimator.
#[derive(Clone, Debug)]
pub struct SuppressionAdversary {
    knowledge: AdversaryKnowledge,
}

impl SuppressionAdversary {
    /// Create the suppression adversary.
    pub fn new(knowledge: AdversaryKnowledge) -> Self {
        SuppressionAdversary { knowledge }
    }
}

impl Adversary<CountingNode> for SuppressionAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, CountingNode>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<CountingMessage> {
        match self.knowledge.schedule.locate(view.round) {
            Position::DiscoverySend | Position::DiscoveryProcess => {
                AdversaryDecision::FollowProtocol
            }
            Position::InPhase(_) => AdversaryDecision::Replace(Vec::new()),
        }
    }
}

/// The Figure 1 attack: during discovery each Byzantine node hides one of
/// its real neighbours and invents a non-existent one, trying to make the
/// receiver believe in a fabricated chain.  The honest hidden neighbour's
/// truthful report exposes the asymmetry and the receiver crashes itself
/// (Lemma 15) instead of accepting the fake topology.
#[derive(Clone, Debug)]
pub struct FakeChainAdversary {
    knowledge: AdversaryKnowledge,
}

impl FakeChainAdversary {
    /// Create the fake-chain adversary.
    pub fn new(knowledge: AdversaryKnowledge) -> Self {
        FakeChainAdversary { knowledge }
    }

    fn lying_reports(&self) -> Vec<Envelope<CountingMessage>> {
        let n = self.knowledge.n as u32;
        let mut msgs = Vec::new();
        for (idx, info) in self.knowledge.byzantine.iter().enumerate() {
            // Suppress the first real neighbour, insert a fabricated id far
            // outside the real id range.
            let fake_id = n + 1_000_000 + idx as u32;
            let mut claimed: Vec<u32> = info.g_neighbors.iter().copied().skip(1).collect();
            claimed.push(fake_id);
            for &g in &info.g_neighbors {
                msgs.push(Envelope::new(
                    info.node,
                    netsim_graph::NodeId(g),
                    CountingMessage::Adjacency {
                        neighbors: claimed.clone(),
                    },
                ));
            }
        }
        msgs
    }
}

impl Adversary<CountingNode> for FakeChainAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, CountingNode>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<CountingMessage> {
        match self.knowledge.schedule.locate(view.round) {
            Position::DiscoverySend => AdversaryDecision::Replace(self.lying_reports()),
            _ => AdversaryDecision::FollowProtocol,
        }
    }
}

/// Everything at once: lie during discovery, inject maximal colors in every
/// subphase, and never forward honest colors.
#[derive(Clone, Debug)]
pub struct CombinedAdversary {
    fake_chain: FakeChainAdversary,
    inflation: ColorInflationAdversary,
}

impl CombinedAdversary {
    /// Create the combined adversary.
    pub fn new(knowledge: AdversaryKnowledge) -> Self {
        CombinedAdversary {
            fake_chain: FakeChainAdversary::new(knowledge.clone()),
            inflation: ColorInflationAdversary::new(knowledge, InjectionTiming::Legal),
        }
    }
}

impl Adversary<CountingNode> for CombinedAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, CountingNode>,
        rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<CountingMessage> {
        let schedule = self.inflation.knowledge.schedule;
        match schedule.locate(view.round) {
            Position::DiscoverySend => self.fake_chain.act(view, rng),
            Position::DiscoveryProcess => AdversaryDecision::FollowProtocol,
            Position::InPhase(pos) => {
                if pos.step == 0 {
                    self.inflation.act(view, rng)
                } else {
                    // Suppress all forwarding outside the injection step.
                    AdversaryDecision::Replace(Vec::new())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use byzcount_core::{run_counting, Counting, CountingOutcome, ProtocolParams};
    use netsim_graph::SmallWorldNetwork;
    use netsim_runtime::Exec;

    /// Test networks use d = 6 (G-degree ≈ 36) so that a Byzantine node's
    /// audit neighbourhood is a small fraction of the network even at the
    /// few-hundred-node sizes unit tests can afford; the asymptotic regime
    /// (G-degree ≪ n) is exercised at larger n by the experiment harness.
    fn setup(
        n: usize,
        d: usize,
        byz_count: usize,
        seed: u64,
    ) -> (
        SmallWorldNetwork,
        ProtocolParams,
        Placement,
        AdversaryKnowledge,
    ) {
        let net = SmallWorldNetwork::generate_seeded(n, d, seed).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let placement = Placement::random(n, byz_count, seed ^ 0xABCD);
        let knowledge = AdversaryKnowledge::gather(&net, &params, placement.mask());
        (net, params, placement, knowledge)
    }

    /// Algorithm 2 on the synchronous engine, which cannot fail.
    fn algorithm2<A: Adversary<CountingNode>>(
        net: &SmallWorldNetwork,
        params: ProtocolParams,
        byzantine: &[bool],
        adversary: A,
        seed: u64,
    ) -> CountingOutcome {
        let alg2 = Counting::byzantine(params);
        run_counting(net, alg2, byzantine, adversary, seed, Exec::default()).unwrap()
    }

    #[test]
    fn honest_behaving_byzantine_nodes_change_nothing() {
        let (net, params, placement, _) = setup(256, 8, 8, 1);
        let outcome = algorithm2(&net, params, placement.mask(), HonestBehavingAdversary, 11);
        assert!(outcome.completed);
        let eval = outcome.evaluate();
        assert_eq!(eval.honest_crashed, 0);
        assert!(eval.good_fraction_of_honest > 0.9, "{eval:?}");
    }

    #[test]
    fn legal_inflation_is_tolerated_by_algorithm_2() {
        let (net, params, placement, knowledge) = setup(256, 8, 8, 2);
        let adversary = ColorInflationAdversary::new(knowledge, InjectionTiming::Legal);
        let outcome = algorithm2(&net, params, placement.mask(), adversary, 13);
        assert!(
            outcome.completed,
            "inflated colors must not prevent termination"
        );
        let eval = outcome.evaluate();
        assert!(
            eval.good_fraction_of_honest > 0.8,
            "legal inflation should leave most honest nodes accurate: {eval:?}"
        );
    }

    #[test]
    fn last_step_inflation_breaks_algorithm_1_but_not_algorithm_2() {
        let (net, params, placement, knowledge) = setup(256, 8, 8, 3);
        // Algorithm 1 (no verification): the fabricated last-step colors keep
        // arriving as "new maxima", so the continuation criterion keeps
        // firing for nodes near the Byzantine nodes and their estimates blow
        // up (or they never decide before the round cap).
        let adv1 = ColorInflationAdversary::new(knowledge.clone(), InjectionTiming::LastStep);
        let alg1 = Counting::basic(params);
        let basic = run_counting(&net, alg1, placement.mask(), adv1, 17, Exec::default()).unwrap();
        let eval_basic = basic.evaluate();
        // Algorithm 2 (verification): unattested late colors are rejected.
        let adv2 = ColorInflationAdversary::new(knowledge, InjectionTiming::LastStep);
        let byz = algorithm2(&net, params, placement.mask(), adv2, 17);
        let eval_byz = byz.evaluate();
        assert!(
            eval_byz.good_fraction_of_honest > 0.8,
            "Algorithm 2 must reject the late injection: {eval_byz:?}"
        );
        assert!(
            eval_byz.good_fraction_of_honest > eval_basic.good_fraction_of_honest,
            "verification must help: basic {} vs byzantine {}",
            eval_basic.good_fraction_of_honest,
            eval_byz.good_fraction_of_honest
        );
    }

    #[test]
    fn suppression_is_tolerated() {
        let (net, params, placement, knowledge) = setup(256, 8, 8, 4);
        let adversary = SuppressionAdversary::new(knowledge);
        let outcome = algorithm2(&net, params, placement.mask(), adversary, 19);
        assert!(outcome.completed);
        let eval = outcome.evaluate();
        assert!(eval.good_fraction_of_honest > 0.8, "{eval:?}");
    }

    #[test]
    fn fake_chain_lies_crash_only_a_small_neighborhood() {
        let (net, params, placement, knowledge) = setup(600, 6, 3, 5);
        let adversary = FakeChainAdversary::new(knowledge);
        let outcome = algorithm2(&net, params, placement.mask(), adversary, 23);
        let eval = outcome.evaluate();
        // Some nodes crash (the liars' audit neighbourhoods), but only a
        // bounded fraction — and nobody accepts the fabricated topology.
        assert!(
            eval.honest_crashed > 0,
            "the lie must be detected by someone"
        );
        assert!(
            (eval.honest_crashed as f64) < 0.35 * net.len() as f64,
            "crashes must stay local: {}",
            eval.honest_crashed
        );
        assert!(eval.good_fraction_of_honest > 0.55, "{eval:?}");
    }

    #[test]
    fn silent_adversary_is_tolerated() {
        let (net, params, placement, _) = setup(600, 6, 4, 6);
        let outcome = algorithm2(&net, params, placement.mask(), SilentAdversary, 29);
        let eval = outcome.evaluate();
        assert!(eval.good_fraction_of_honest > 0.6, "{eval:?}");
    }

    #[test]
    fn combined_adversary_is_tolerated_by_algorithm_2() {
        let (net, params, placement, knowledge) = setup(600, 6, 4, 7);
        let adversary = CombinedAdversary::new(knowledge);
        let outcome = algorithm2(&net, params, placement.mask(), adversary, 31);
        let eval = outcome.evaluate();
        assert!(
            eval.good_fraction_of_honest > 0.6,
            "combined attack must still leave most honest nodes accurate: {eval:?}"
        );
    }
}
