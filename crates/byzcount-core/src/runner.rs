//! One-call execution: wire a network, a [`Counting`] choice, a Byzantine
//! mask and an adversary into an engine and collect a [`CountingOutcome`].

use crate::node::{CountingNode, Decision};
use crate::outcome::CountingOutcome;
use crate::params::ProtocolParams;
use crate::schedule::Schedule;
use netsim_runtime::{run_with_engine, Adversary, EngineConfig, Exec, RunError, Topology};

/// How many phases past the reference decision phase the engine allows
/// before giving up (safety cap; honest runs finish well before it).
const PHASE_SLACK_FACTOR: f64 = 3.0;
const PHASE_SLACK_EXTRA: u64 = 8;

/// Which counting protocol a run executes, and under what round cap.
#[derive(Clone, Copy, Debug)]
pub struct Counting {
    /// The protocol parameters.
    pub params: ProtocolParams,
    /// `true` runs Algorithm 2 (Byzantine-tolerant, with verification);
    /// `false` runs Algorithm 1.
    pub verify: bool,
    /// Engine round cap; `None` derives it from the schedule
    /// ([`round_cap`]).  The simulation API sets it for workloads on
    /// non-expander topologies, where the analytic cap may not apply.
    pub max_rounds: Option<u64>,
}

impl Counting {
    /// Algorithm 1 (no verification) under the schedule-derived round cap.
    pub fn basic(params: ProtocolParams) -> Self {
        Counting {
            params,
            verify: false,
            max_rounds: None,
        }
    }

    /// Algorithm 2 (Byzantine-tolerant) under the schedule-derived round
    /// cap.
    pub fn byzantine(params: ProtocolParams) -> Self {
        Counting {
            params,
            verify: true,
            max_rounds: None,
        }
    }

    /// Build the per-node protocol states for global node ids `range`.
    ///
    /// The full run is `0..n`; shard workers build only their assigned
    /// chunk.  Construction is a pure function of `(params, verify)` per
    /// node, so a chunk built remotely is identical to the coordinator's
    /// slice — the distributed engine's byte-identity contract depends on
    /// this.
    pub(crate) fn nodes(&self, range: std::ops::Range<usize>) -> Vec<CountingNode> {
        range
            .map(|_| {
                if self.verify {
                    CountingNode::byzantine_variant(self.params)
                } else {
                    CountingNode::basic_variant(self.params)
                }
            })
            .collect()
    }
}

/// Compute the engine round cap for a network of size `n`.
pub fn round_cap(params: &ProtocolParams, n: usize) -> u64 {
    let schedule = Schedule::new(params.d, params.epsilon);
    let reference = params.expected_decision_phase(n);
    let max_phase = (reference * PHASE_SLACK_FACTOR).ceil() as u64 + PHASE_SLACK_EXTRA;
    schedule.rounds_through_phase(max_phase)
}

/// Run a counting protocol over any topology with any adversary.
///
/// # Errors
/// Only the distributed engine can fail; see [`run_with_engine`].
///
/// # Panics
/// If `byzantine` does not cover every node.
pub fn run_counting<T, A>(
    net: &T,
    counting: Counting,
    byzantine: &[bool],
    adversary: A,
    seed: u64,
    exec: Exec<'_>,
) -> Result<CountingOutcome, RunError>
where
    T: Topology,
    A: Adversary<CountingNode>,
{
    let n = net.len();
    assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
    let params = counting.params;
    let config = EngineConfig {
        max_rounds: counting.max_rounds.unwrap_or_else(|| round_cap(&params, n)),
        stop_when_all_decided: true,
    };
    let result = run_with_engine(
        net,
        counting.nodes(0..n),
        byzantine.to_vec(),
        adversary,
        config,
        seed,
        exec,
    )?;
    Ok(CountingOutcome {
        n,
        estimates: result
            .outputs
            .iter()
            .map(|o| o.as_ref().map(|d: &Decision| d.phase))
            .collect(),
        decided_round: result.decided_round,
        crashed: result.crashed,
        byzantine: byzantine.to_vec(),
        params,
        metrics: result.metrics,
        completed: result.completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::SmallWorldNetwork;
    use netsim_runtime::NullAdversary;

    fn run(net: &SmallWorldNetwork, counting: Counting, seed: u64) -> CountingOutcome {
        let byz = vec![false; net.len()];
        run_counting(net, counting, &byz, NullAdversary, seed, Exec::default()).unwrap()
    }

    #[test]
    fn round_cap_grows_with_n() {
        let p = ProtocolParams::new(8, 3, 0.6, 0.1, 1.0);
        assert!(round_cap(&p, 1 << 16) > round_cap(&p, 1 << 8));
        assert!(round_cap(&p, 256) > 50);
    }

    #[test]
    fn basic_counting_on_a_small_network_terminates_correctly() {
        let net = SmallWorldNetwork::generate_seeded(256, 8, 1).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let outcome = run(&net, Counting::basic(params), 7);
        assert!(
            outcome.completed,
            "all nodes must decide within the round cap"
        );
        let eval = outcome.evaluate();
        assert_eq!(eval.honest_total, 256);
        assert_eq!(eval.honest_crashed, 0);
        assert!(
            eval.good_fraction_of_honest > 0.9,
            "basic counting without faults should give almost everyone a good estimate \
             (got {}, reference {}, mean {})",
            eval.good_fraction_of_honest,
            eval.reference_phase,
            eval.mean_estimate
        );
    }

    #[test]
    fn byzantine_variant_without_faults_matches_basic() {
        let net = SmallWorldNetwork::generate_seeded(256, 8, 2).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let outcome = run(&net, Counting::byzantine(params), 3);
        assert!(outcome.completed);
        let eval = outcome.evaluate();
        assert_eq!(
            eval.honest_crashed, 0,
            "honest reports never trigger the crash rule"
        );
        assert!(eval.good_fraction_of_honest > 0.9, "{eval:?}");
    }

    #[test]
    fn estimates_scale_with_network_size() {
        // The decided phase must grow with n: that is what makes it an
        // estimate of log n at all.  The smallest even degree and one
        // doubling of n already show it; `tests/theorem1_end_to_end.rs`
        // checks the same invariant at d = 6 and larger sizes.
        let small = SmallWorldNetwork::generate_seeded(16, 4, 4).unwrap();
        let large = SmallWorldNetwork::generate_seeded(32, 4, 4).unwrap();
        let ps = ProtocolParams::for_network_default_expansion(&small, 0.6, 0.1);
        let pl = ProtocolParams::for_network_default_expansion(&large, 0.6, 0.1);
        let es = run(&small, Counting::basic(ps), 5).evaluate();
        let el = run(&large, Counting::basic(pl), 5).evaluate();
        assert!(
            el.mean_estimate > es.mean_estimate,
            "mean estimate must grow with n ({} vs {})",
            es.mean_estimate,
            el.mean_estimate
        );
    }

    #[test]
    #[should_panic(expected = "byzantine mask")]
    fn mask_length_is_checked() {
        let net = SmallWorldNetwork::generate_seeded(64, 8, 6).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let _ = run_counting(
            &net,
            Counting::byzantine(params),
            &[false; 3],
            NullAdversary,
            0,
            Exec::default(),
        );
    }
}
