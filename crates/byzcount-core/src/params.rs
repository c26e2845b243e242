//! Protocol parameters and the analytical constants of the paper.
//!
//! The analysis is phrased in terms of
//!
//! * the degree `d` of the base expander `H` and the small-world radius
//!   `k = ⌈d/3⌉`,
//! * the fault exponent `δ` (up to `n^{1−δ}` Byzantine nodes, `3/d < δ ≤ 1`),
//! * the error parameter `ε` (at most an ε-fraction of honest nodes may end
//!   up without a constant-factor estimate),
//! * the derived constants `a = δ / (10 k log(d−1))` and
//!   `b = 4 / log(1 + h/d)` where `h` is the edge expansion of `H`
//!   (resp. `γ` of the uncrashed core for Algorithm 2),
//! * the level sizes `l_r = log d + r·log(d−1)` (Lemma 6) and the
//!   continuation threshold of Algorithm 1/2 line 16/18.
//!
//! All logarithms are base 2, matching the coin-flip colors.

use netsim_graph::expansion::edge_expansion;
use netsim_graph::SmallWorldNetwork;
use serde::{Deserialize, Serialize};

/// All parameters needed to run and reason about the counting protocols.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolParams {
    /// Degree of the base graph `H`.
    pub d: usize,
    /// Small-world radius `k = ⌈d/3⌉` (or the override used by the network).
    pub k: usize,
    /// Fault exponent `δ` (`3/d < δ ≤ 1`).
    pub delta: f64,
    /// Error parameter `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Estimated edge expansion `h` of `H` (used only for the analytic `b`;
    /// the protocol itself never needs it).
    pub edge_expansion: f64,
}

impl ProtocolParams {
    /// Construct parameters directly.
    ///
    /// # Panics
    /// Panics if `d < 4`, `k < 1`, `ε ∉ (0, 1)`, `δ ∉ (0, 1]`, or `h ≤ 0`.
    pub fn new(d: usize, k: usize, delta: f64, epsilon: f64, edge_expansion: f64) -> Self {
        let params = ProtocolParams {
            d,
            k,
            delta,
            epsilon,
            edge_expansion,
        };
        if let Err(why) = params.check_range() {
            panic!("{why}");
        }
        params
    }

    /// The range every parameter must lie in: the first one that does
    /// not, as a message.  [`new`](Self::new) panics on it; spec
    /// validation returns it as an error.
    pub(crate) fn check_range(&self) -> Result<(), &'static str> {
        let conditions = [
            (self.d >= 4, "degree must be at least 4"),
            (self.k >= 1, "small-world radius must be at least 1"),
            (
                self.epsilon > 0.0 && self.epsilon < 1.0,
                "epsilon must lie in (0, 1)",
            ),
            (
                self.delta > 0.0 && self.delta <= 1.0,
                "delta must lie in (0, 1]",
            ),
            (self.edge_expansion > 0.0, "edge expansion must be positive"),
        ];
        match conditions.into_iter().find(|&(holds, _)| !holds) {
            Some((_, why)) => Err(why),
            None => Ok(()),
        }
    }

    /// Derive parameters from a generated network, estimating the edge
    /// expansion of `H` spectrally.
    pub fn for_network(net: &SmallWorldNetwork, delta: f64, epsilon: f64) -> Self {
        let est = edge_expansion(net.h().csr(), net.d(), 200, 0xB1A5);
        Self::new(
            net.d(),
            net.k(),
            delta,
            epsilon,
            est.working_value().max(0.05),
        )
    }

    /// Derive parameters from a network without running the spectral
    /// estimator (uses `h = 1`, a typical value for `H(n, 8)`).
    pub fn for_network_default_expansion(
        net: &SmallWorldNetwork,
        delta: f64,
        epsilon: f64,
    ) -> Self {
        Self::new(net.d(), net.k(), delta, epsilon, 1.0)
    }

    /// Derive parameters for an arbitrary topology from a nominal degree
    /// alone, with the paper's default radius `k = ⌈d/3⌉` and unit edge
    /// expansion.  This is what the simulation API uses for topologies that
    /// are not small-world networks (Watts–Strogatz, trees, raw CSR), where
    /// the analytic constants are heuristics rather than guarantees.
    pub fn for_degree(d: usize, delta: f64, epsilon: f64) -> Self {
        let d = d.max(4);
        Self::new(d, d.div_ceil(3).max(1), delta, epsilon, 1.0)
    }

    /// Whether `δ` satisfies the paper's admissibility condition `δ > 3/d`
    /// (needed so that no Byzantine chain of length `k` exists, Obs. 6).
    pub fn delta_is_admissible(&self) -> bool {
        self.delta > 3.0 / self.d as f64
    }

    /// The paper's constant `a = δ / (10 k log₂(d−1))`: phases below
    /// `a·log n` are the "small i" regime of the analysis.
    pub fn a(&self) -> f64 {
        self.delta / (10.0 * self.k as f64 * ((self.d - 1) as f64).log2())
    }

    /// The paper's constant `b = 4 / log₂(1 + h/d)`: by phase `b·log n`
    /// every active core node terminates.
    pub fn b(&self) -> f64 {
        4.0 / (1.0 + self.edge_expansion / self.d as f64).log2()
    }

    /// The analytic approximation factor `b/a = 40 k log(d−1) / (δ log(1+h/d))`.
    pub fn approximation_factor(&self) -> f64 {
        self.b() / self.a()
    }

    /// The admissible number of Byzantine nodes `⌊n^{1−δ}⌋` for a network of
    /// size `n`.
    pub fn byzantine_budget(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (n as f64).powf(1.0 - self.delta).floor() as usize
        }
    }

    /// `l_r = log₂ d + r·log₂(d−1)`: the (log of the) size of the ball
    /// boundary at radius `r` around a locally-tree-like node (Lemma 6).
    pub fn level_log(&self, r: u64) -> f64 {
        (self.d as f64).log2() + r as f64 * ((self.d - 1) as f64).log2()
    }

    /// The continuation threshold of phase `i` (Algorithm 2, line 18): a node
    /// keeps going only if the maximum color received in the *last* round of
    /// some subphase exceeds `l_{i−1} − log₂(l_{i−1})`.
    pub fn continue_threshold(&self, phase: u64) -> f64 {
        debug_assert!(phase >= 1);
        let l = self.level_log(phase - 1);
        l - l.max(1.0).log2()
    }

    /// The phase index at which `l_{i−1} ≈ log₂ n`, i.e. the ball boundary
    /// reaches the whole network.  This is where termination is expected;
    /// the experiments use it as the reference point for the
    /// "constant-factor estimate" evaluation.
    pub fn expected_decision_phase(&self, n: usize) -> f64 {
        let log_n = netsim_graph::log2n(n);
        let dm1 = ((self.d - 1) as f64).log2();
        1.0 + (log_n - (self.d as f64).log2()).max(0.0) / dm1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_d8() -> ProtocolParams {
        ProtocolParams::new(8, 3, 0.6, 0.1, 1.0)
    }

    #[test]
    fn constants_match_paper_formulas() {
        let p = params_d8();
        let a = p.a();
        let expected_a = 0.6 / (10.0 * 3.0 * (7.0f64).log2());
        assert!((a - expected_a).abs() < 1e-12);
        let b = p.b();
        let expected_b = 4.0 / (1.0 + 1.0 / 8.0f64).log2();
        assert!((b - expected_b).abs() < 1e-12);
        assert!(a < b, "the analysis requires 0 < a < b");
        assert!((p.approximation_factor() - b / a).abs() < 1e-9);
    }

    #[test]
    fn delta_admissibility() {
        assert!(params_d8().delta_is_admissible()); // 0.6 > 3/8
        let p = ProtocolParams::new(8, 3, 0.3, 0.1, 1.0);
        assert!(!p.delta_is_admissible()); // 0.3 < 3/8
    }

    #[test]
    fn byzantine_budget_scales_sublinearly() {
        let p = params_d8();
        assert_eq!(p.byzantine_budget(0), 0);
        assert_eq!(p.byzantine_budget(1), 1);
        let b1 = p.byzantine_budget(1 << 10);
        let b2 = p.byzantine_budget(1 << 20);
        // n^{0.4}: 2^4 = 16 and 2^8 = 256.
        assert_eq!(b1, 16);
        assert_eq!(b2, 256);
        assert!((b2 as f64) < (1 << 20) as f64 * 0.01);
    }

    #[test]
    fn level_log_is_affine_in_r() {
        let p = params_d8();
        let l0 = p.level_log(0);
        let l1 = p.level_log(1);
        let l5 = p.level_log(5);
        assert!((l0 - 3.0).abs() < 1e-12);
        assert!((l1 - l0 - (7.0f64).log2()).abs() < 1e-12);
        assert!((l5 - l0 - 5.0 * (7.0f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn continue_threshold_grows_with_phase() {
        let p = params_d8();
        let mut prev = f64::NEG_INFINITY;
        for i in 1..30 {
            let t = p.continue_threshold(i);
            assert!(t > prev, "threshold must be strictly increasing");
            prev = t;
        }
        // Phase 1: threshold = log2(8) - log2(log2(8)) = 3 - 1.585 ≈ 1.415.
        assert!((p.continue_threshold(1) - (3.0 - 3.0f64.log2())).abs() < 1e-12);
    }

    #[test]
    fn expected_decision_phase_matches_ball_growth() {
        let p = params_d8();
        // l_{i-1} = log2(n)  =>  i = 1 + (log2 n - 3)/log2 7.
        let i = p.expected_decision_phase(1 << 12);
        assert!((i - (1.0 + 9.0 / (7.0f64).log2())).abs() < 1e-9);
        assert!(p.expected_decision_phase(2) < p.expected_decision_phase(1 << 20));
    }

    #[test]
    fn for_network_estimates_a_positive_expansion() {
        let net = SmallWorldNetwork::generate_seeded(512, 8, 5).unwrap();
        let p = ProtocolParams::for_network(&net, 0.6, 0.1);
        assert!(p.edge_expansion > 0.0);
        assert_eq!(p.d, 8);
        assert_eq!(p.k, 3);
        assert!(p.b() > p.a());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = ProtocolParams::new(8, 3, 0.6, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        let _ = ProtocolParams::new(8, 3, 0.0, 0.1, 1.0);
    }
}
