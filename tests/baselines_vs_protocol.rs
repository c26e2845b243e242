//! Integration test of the paper's motivation: the naive estimator collapses
//! under a single Byzantine node while Algorithm 2 survives the full budget.

use byzcount::prelude::*;

#[test]
fn naive_baseline_collapses_but_algorithm2_survives() {
    // Scale note: like the strategy unit tests, this uses d = 6 at a size
    // where the G-degree (~36) is a small fraction of n.  Algorithm 2's
    // estimates sit at the low end of the constant-factor window at these
    // sizes (see EXPERIMENTS.md), so the acceptance factor below is 3.
    let n = 600;
    let net = SmallWorldNetwork::generate_seeded(n, 6, 5).unwrap();
    let ttl = (3.0 * (n as f64).log2()).ceil() as u64 + 5;

    // Naive estimator with one inflating Byzantine node.
    let mut one_byz = vec![false; n];
    one_byz[99] = true;
    let inflate = BaselineAttack::Inflate;
    let naive =
        run_geometric_support(net.h().csr(), &one_byz, inflate, ttl, 1, Exec::default()).unwrap();
    let naive_estimate = naive.outputs[0].unwrap() as f64;
    assert!(
        naive_estimate > 3.0 * (n as f64).log2(),
        "the single Byzantine node should wreck the naive estimate"
    );

    // Algorithm 2 with the full Byzantine budget and the analogous attack.
    let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
    let placement = Placement::random_budget(n, 0.6, 2);
    let knowledge = AdversaryKnowledge::gather(&net, &params, placement.mask());
    let adversary = ColorInflationAdversary::new(knowledge, InjectionTiming::LastStep);
    let alg2 = Counting::byzantine(params);
    let outcome =
        run_counting(&net, alg2, placement.mask(), adversary, 3, Exec::default()).unwrap();
    let eval = outcome.evaluate_with_factor(3.0);
    assert!(
        eval.good_fraction_of_honest > 0.8,
        "Algorithm 2 must withstand the inflation attack: {eval:?}"
    );
}

#[test]
fn spanning_tree_is_exact_without_faults_and_corruptible_with_one() {
    let n = 600;
    let net = SmallWorldNetwork::generate_seeded(n, 6, 8).unwrap();
    let honest = vec![false; n];
    let count = |byz: &[bool], attack| {
        run_spanning_tree_count(net.h().csr(), byz, attack, 500, 1, Exec::default()).unwrap()
    };
    let clean = count(&honest, BaselineAttack::None);
    assert_eq!(clean.outputs[0], Some(n as u64));

    let mut byz = vec![false; n];
    byz[123] = true;
    let attacked = count(&byz, BaselineAttack::Inflate);
    assert!(attacked.outputs[0].unwrap_or(0) > 10 * n as u64);
}
