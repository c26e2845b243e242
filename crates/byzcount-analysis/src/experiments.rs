//! The experiment suite: one function per experiment of DESIGN.md §3.
//!
//! The paper is a theory paper, so its "tables" are the quantitative claims
//! of Theorem 1 and the supporting lemmas.  Each function here regenerates
//! one of them as a [`Table`] over concrete network sizes; `EXPERIMENTS.md`
//! records representative output.
//!
//! All experiments are deterministic given the [`ExperimentConfig`] seed and
//! are parallelised over trials with rayon.

use crate::campaign::RunSimulation;
use crate::stats::summarize;
use crate::table::{fmt_f, Table};
use byzcount_adversary::{
    AdversaryKnowledge, ColorInflationAdversary, CombinedAdversary, FakeChainAdversary,
    HonestBehavingAdversary, InjectionTiming, Placement, SilentAdversary,
};
use byzcount_core::sim::{
    AdversarySpec, AttackSpec, BatchReport, Exec, FaultSpec, PlacementSpec, RunReport, SeedPolicy,
    Simulation, TimingSpec, TopologySpec, WorkloadSpec,
};
use byzcount_core::{run_counting, Counting, CountingNode, CountingOutcome, ProtocolParams};
use netsim_graph::expansion::spectral_gap;
use netsim_graph::metrics::average_clustering;
use netsim_graph::prelude::*;
use netsim_runtime::Adversary;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration shared by the experiments.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Network sizes to sweep.
    pub n_values: Vec<usize>,
    /// Degree of the base expander `H`.
    pub d: usize,
    /// Fault exponent `δ` (Byzantine budget `n^{1−δ}`).
    pub delta: f64,
    /// Error parameter `ε`.
    pub epsilon: f64,
    /// Independent trials (seeds) per configuration.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A configuration small enough for CI and unit tests (seconds).
    pub fn quick() -> Self {
        ExperimentConfig {
            n_values: vec![256, 512, 1024],
            d: 6,
            delta: 0.6,
            epsilon: 0.1,
            trials: 2,
            seed: 0xC0FFEE,
        }
    }

    /// The configuration used for the numbers recorded in EXPERIMENTS.md
    /// (minutes on a laptop).
    pub fn standard() -> Self {
        ExperimentConfig {
            n_values: vec![512, 1024, 2048, 4096, 8192],
            d: 6,
            delta: 0.6,
            epsilon: 0.1,
            trials: 5,
            seed: 0xC0FFEE,
        }
    }

    fn trial_seed(&self, n: usize, trial: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((n as u64) << 20)
            .wrapping_add(trial as u64)
    }

    fn network(&self, n: usize, trial: usize) -> SmallWorldNetwork {
        SmallWorldNetwork::generate_seeded(n, self.d, self.trial_seed(n, trial))
            .expect("network generation")
    }

    fn params(&self, net: &SmallWorldNetwork) -> ProtocolParams {
        ProtocolParams::for_network_default_expansion(net, self.delta, self.epsilon)
    }

    /// The counting-workload batch this configuration describes: the paper's
    /// Byzantine budget, `trials` seeds per size, all sizes in one campaign.
    pub fn counting_batch(
        &self,
        workload: WorkloadSpec,
        adversary: AdversarySpec,
        sizes: &[usize],
    ) -> BatchReport {
        Simulation::builder()
            .topology(TopologySpec::SmallWorld {
                n: sizes.first().copied().unwrap_or(256),
                d: self.d,
            })
            .workload(workload)
            .placement(PlacementSpec::RandomBudget { delta: self.delta })
            .adversary(adversary)
            .derived_params(self.delta, self.epsilon)
            .seeds(SeedPolicy::Sequence {
                base: self.seed,
                count: self.trials.max(1) as u32,
            })
            .sizes(sizes)
            .build()
            .expect("experiment batch spec")
            .run_batch()
            .expect("experiment batch execution")
    }
}

/// The factor-3 counting evaluations of one size bucket of a batch.
fn counting_rows(batch: &BatchReport, n: usize) -> Vec<&RunReport> {
    batch.runs.iter().filter(|r| r.n == n).collect()
}

/// Algorithm 2 on the synchronous engine.  That engine cannot fail, so
/// the `Result` is unwrapped here once for every experiment.
fn run_algorithm2<A: Adversary<CountingNode>>(
    net: &SmallWorldNetwork,
    params: ProtocolParams,
    byzantine: &[bool],
    adversary: A,
    seed: u64,
) -> CountingOutcome {
    let counting = Counting::byzantine(params);
    run_counting(net, counting, byzantine, adversary, seed, Exec::default())
        .expect("the sync engine never fails")
}

/// E1 — Theorem 1: fraction of honest nodes with a constant-factor estimate
/// of `log n` under the full Byzantine budget and the combined attack.
///
/// One multi-seed, multi-size [`BatchReport`] drives the whole table.
pub fn exp_theorem1(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E1",
        "Theorem 1: honest nodes with a estimate of log n within 3x of the reference phase (combined attack, B(n)=n^{1-δ})",
        &["n", "byz", "good frac", "crashed frac", "mean est", "ref phase", "def1 ok"],
    );
    let batch = cfg.counting_batch(
        WorkloadSpec::Byzantine,
        AdversarySpec::Combined,
        &cfg.n_values,
    );
    for &n in &cfg.n_values {
        let runs = counting_rows(&batch, n);
        let evals: Vec<_> = runs.iter().filter_map(|r| r.counting.as_ref()).collect();
        let good = summarize(
            &evals
                .iter()
                .map(|c| c.eval_factor3.good_fraction_of_honest)
                .collect::<Vec<_>>(),
        );
        let crashed = summarize(
            &evals
                .iter()
                .map(|c| {
                    c.eval_factor3.honest_crashed as f64 / c.eval_factor3.honest_total.max(1) as f64
                })
                .collect::<Vec<_>>(),
        );
        let mean_est = summarize(
            &evals
                .iter()
                .map(|c| c.eval_factor3.mean_estimate)
                .collect::<Vec<_>>(),
        );
        let def1_ok = evals.iter().filter(|c| c.definition1_factor3).count();
        let reference = evals
            .first()
            .map(|c| c.eval_factor3.reference_phase)
            .unwrap_or(0.0);
        let byz = (n as f64).powf(1.0 - cfg.delta).floor() as usize;
        table.push_row(vec![
            n.to_string(),
            byz.to_string(),
            fmt_f(good.mean),
            fmt_f(crashed.mean),
            fmt_f(mean_est.mean),
            fmt_f(reference),
            format!("{def1_ok}/{}", evals.len()),
        ]);
    }
    table
}

/// E2 — round complexity `O(log³ n)` and small messages.
pub fn exp_rounds(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E2",
        "Round complexity and message sizes (honest-behaving Byzantine nodes)",
        &[
            "n",
            "rounds",
            "rounds/log^3 n",
            "msgs/node/round",
            "max msg IDs",
            "max msg bits",
        ],
    );
    let batch = cfg.counting_batch(
        WorkloadSpec::Byzantine,
        AdversarySpec::HonestBehaving,
        &cfg.n_values,
    );
    for &n in &cfg.n_values {
        let runs = counting_rows(&batch, n);
        let rounds = summarize(&runs.iter().map(|r| r.rounds as f64).collect::<Vec<_>>());
        let mpr = summarize(
            &runs
                .iter()
                .map(|r| r.messages_delivered as f64 / (r.rounds.max(1) as f64 * n.max(1) as f64))
                .collect::<Vec<_>>(),
        );
        let log_n = netsim_graph::log2n(n).max(1.0);
        table.push_row(vec![
            n.to_string(),
            fmt_f(rounds.mean),
            fmt_f(rounds.mean / log_n.powi(3)),
            fmt_f(mpr.mean),
            runs.iter()
                .map(|r| r.max_message_ids)
                .max()
                .unwrap_or(0)
                .to_string(),
            runs.iter()
                .map(|r| r.max_message_bits)
                .max()
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    table
}

/// E3 — the approximation factor: analytic `b/a` versus the empirical spread
/// of honest estimates, as a function of the degree `d`.
pub fn exp_approx_factor(cfg: &ExperimentConfig, d_values: &[usize], n: usize) -> Table {
    let mut table = Table::new(
        "E3",
        "Approximation factor: analytic b/a vs empirical estimate spread",
        &[
            "d",
            "k",
            "a",
            "b",
            "b/a (analytic)",
            "empirical spread",
            "mean est / log2 n",
        ],
    );
    for &d in d_values {
        let results: Vec<(f64, f64)> = (0..cfg.trials)
            .into_par_iter()
            .map(|t| {
                let seed = cfg.trial_seed(n + d, t);
                let net = SmallWorldNetwork::generate_seeded(n, d, seed).expect("net");
                let params = ProtocolParams::for_network(&net, cfg.delta, cfg.epsilon);
                let placement = Placement::random_budget(n, cfg.delta, seed ^ 1);
                let outcome = run_algorithm2(
                    &net,
                    params,
                    placement.mask(),
                    HonestBehavingAdversary,
                    seed ^ 2,
                );
                let eval = outcome.evaluate_with_factor(3.0);
                (
                    eval.estimate_spread,
                    eval.mean_estimate / netsim_graph::log2n(n).max(1.0),
                )
            })
            .collect();
        let dummy_net = SmallWorldNetwork::generate_seeded(256, d, 7).expect("net");
        let params = ProtocolParams::for_network(&dummy_net, cfg.delta, cfg.epsilon);
        let spread = summarize(&results.iter().map(|r| r.0).collect::<Vec<_>>());
        let ratio = summarize(&results.iter().map(|r| r.1).collect::<Vec<_>>());
        table.push_row(vec![
            d.to_string(),
            params.k.to_string(),
            fmt_f(params.a()),
            fmt_f(params.b()),
            fmt_f(params.approximation_factor()),
            fmt_f(spread.mean),
            fmt_f(ratio.mean),
        ]);
    }
    table
}

/// E4 — the naive baselines: accurate without Byzantine nodes, broken by a
/// single one.  Every case is one [`Simulation`] run over the expander `H`.
pub fn exp_baselines(cfg: &ExperimentConfig, n: usize) -> Table {
    let mut table = Table::new(
        "E4",
        "Baselines under Byzantine faults (geometric support estimation & spanning-tree count)",
        &[
            "estimator",
            "attack",
            "#byz",
            "mean estimate",
            "truth",
            "relative error",
        ],
    );
    let cases: Vec<(AttackSpec, &str, usize)> = vec![
        (AttackSpec::None, "honest", 0),
        (AttackSpec::Inflate, "inflate", 1),
        (
            AttackSpec::Suppress,
            "suppress",
            (n as f64).powf(1.0 - cfg.delta) as usize,
        ),
    ];
    for (attack, label, byz_count) in cases {
        for (workload, name) in [
            (
                WorkloadSpec::GeometricSupport { ttl: None, attack },
                "geometric (log2 n)",
            ),
            (
                WorkloadSpec::SpanningTree {
                    max_rounds: None,
                    attack,
                },
                "spanning-tree (n)",
            ),
        ] {
            let report = Simulation::builder()
                .topology(TopologySpec::SmallWorldH { n, d: cfg.d })
                .workload(workload)
                .placement(PlacementSpec::Random { count: byz_count })
                .derived_params(cfg.delta, cfg.epsilon)
                .seed(cfg.seed ^ 0x4444)
                .build()
                .expect("baseline spec")
                .run()
                .expect("baseline run");
            let stalled = report.estimate.decided == 0;
            let truth = report.truth.unwrap_or(f64::NAN);
            table.push_row(vec![
                name.into(),
                label.into(),
                byz_count.to_string(),
                if stalled {
                    "stalled".into()
                } else {
                    fmt_f(report.estimate.mean)
                },
                fmt_f(truth),
                match report.relative_error() {
                    Some(err) => fmt_f(err),
                    None => "-".into(),
                },
            ]);
        }
    }
    table
}

/// E5 — Lemma 1 / Lemma 2: locally-tree-like fraction and the sizes of the
/// Definition 9 node categories.
pub fn exp_structure(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E5",
        "Locally-tree-like fraction and node-category sizes (Lemmas 1 and 2)",
        &[
            "n",
            "LTL frac",
            "paper bound 1-O(n^-0.2)",
            "safe frac",
            "byz-safe frac",
        ],
    );
    for &n in &cfg.n_values {
        let rows: Vec<(f64, f64, f64)> = (0..cfg.trials)
            .into_par_iter()
            .map(|t| {
                let net = cfg.network(n, t);
                let placement = Placement::random_budget(n, cfg.delta, cfg.trial_seed(n, t) ^ 0x99);
                let cats = NodeCategories::compute(&net, placement.mask(), cfg.delta);
                let counts = cats.counts();
                (
                    counts.locally_tree_like as f64 / n as f64,
                    counts.safe as f64 / n as f64,
                    counts.byzantine_safe as f64 / n as f64,
                )
            })
            .collect();
        let ltl = summarize(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let safe = summarize(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let bsafe = summarize(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        table.push_row(vec![
            n.to_string(),
            fmt_f(ltl.mean),
            fmt_f(1.0 - (n as f64).powf(-0.2)),
            fmt_f(safe.mean),
            fmt_f(bsafe.mean),
        ]);
    }
    table
}

/// E6 — expansion and clustering of `H`, `G` and Watts–Strogatz (Lemma 19
/// and the small-world property of Section 2.1).
pub fn exp_expander(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E6",
        "Spectral gap and clustering: H(n,d) vs G = H∪L vs Watts–Strogatz",
        &["n", "gap(H)", "gap(G)", "cc(H)", "cc(G)", "cc(WS β=0.1)"],
    );
    for &n in &cfg.n_values {
        let net = cfg.network(n, 0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed ^ n as u64);
        use rand::SeedableRng;
        let _ = &mut rng;
        let ws = netsim_graph::WattsStrogatz::generate(
            n,
            cfg.d / 2,
            0.1,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed ^ n as u64),
        )
        .expect("ws");
        let gap_h = spectral_gap(net.h().csr(), 200, cfg.seed).gap;
        let gap_g = spectral_gap(net.g(), 200, cfg.seed).gap;
        table.push_row(vec![
            n.to_string(),
            fmt_f(gap_h),
            fmt_f(gap_g),
            fmt_f(average_clustering(net.h().csr())),
            fmt_f(average_clustering(net.g())),
            fmt_f(average_clustering(ws.csr())),
        ]);
    }
    table
}

/// E7 — Lemma 3: accuracy of the H-neighbourhood reconstruction from honest
/// adjacency reports.
pub fn exp_discovery(cfg: &ExperimentConfig) -> Table {
    use byzcount_core::discovery::{reconstruct, ReconstructionAccuracy};
    use std::collections::HashMap;
    let mut table = Table::new(
        "E7",
        "Lemma 3: H-neighbourhood reconstruction accuracy from G-adjacency reports",
        &[
            "n",
            "exact frac",
            "missed H-edge frac",
            "spurious H-edge frac",
        ],
    );
    for &n in &cfg.n_values {
        let net = cfg.network(n, 0);
        let sample = n.min(400);
        let accs: Vec<ReconstructionAccuracy> = (0..sample)
            .into_par_iter()
            .map(|i| {
                let v = NodeId::from_index(i);
                let reports: HashMap<u32, Vec<u32>> = net
                    .g_neighbors(v)
                    .iter()
                    .map(|&u| (u, net.g_neighbors(NodeId(u)).to_vec()))
                    .collect();
                let out = reconstruct(v.0, net.g_neighbors(v), &reports);
                let mut truth: Vec<u32> = net.h_neighbors(v).to_vec();
                truth.dedup();
                ReconstructionAccuracy::compare(&out.h_neighbors, &truth)
            })
            .collect();
        let exact = accs.iter().filter(|a| a.is_exact()).count() as f64 / sample as f64;
        let total_h: usize = accs
            .iter()
            .map(|a| a.true_positives + a.false_negatives)
            .sum();
        let missed: usize = accs.iter().map(|a| a.false_negatives).sum();
        let spurious: usize = accs.iter().map(|a| a.false_positives).sum();
        table.push_row(vec![
            n.to_string(),
            fmt_f(exact),
            fmt_f(missed as f64 / total_h.max(1) as f64),
            fmt_f(spurious as f64 / total_h.max(1) as f64),
        ]);
    }
    table
}

/// E8 — Lemma 15/16 and Figure 1: the fake-chain and last-step injection
/// attacks against Algorithm 1 vs Algorithm 2.
pub fn exp_fakechain(cfg: &ExperimentConfig, n: usize) -> Table {
    let mut table = Table::new(
        "E8",
        "Attack resistance: Algorithm 1 (no verification) vs Algorithm 2 (verification)",
        &[
            "adversary",
            "algorithm",
            "good frac",
            "crashed frac",
            "completed",
        ],
    );
    let adversaries = [
        (
            "inflate-last",
            AdversarySpec::ColorInflation {
                timing: TimingSpec::LastStep,
            },
        ),
        ("fake-chain", AdversarySpec::FakeChain),
        ("suppress", AdversarySpec::Suppression),
        ("silent", AdversarySpec::Silent),
    ];
    for (label, adversary) in adversaries {
        for (algo, workload) in [
            ("Algo 1", WorkloadSpec::Basic),
            ("Algo 2", WorkloadSpec::Byzantine),
        ] {
            let batch = cfg.counting_batch(workload, adversary, &[n]);
            let runs = counting_rows(&batch, n);
            let evals: Vec<_> = runs.iter().filter_map(|r| r.counting.as_ref()).collect();
            let good = summarize(
                &evals
                    .iter()
                    .map(|c| c.eval_factor3.good_fraction_of_honest)
                    .collect::<Vec<_>>(),
            );
            let crashed = summarize(
                &evals
                    .iter()
                    .map(|c| {
                        c.eval_factor3.honest_crashed as f64
                            / c.eval_factor3.honest_total.max(1) as f64
                    })
                    .collect::<Vec<_>>(),
            );
            let completed = runs.iter().filter(|r| r.completed).count();
            table.push_row(vec![
                label.into(),
                algo.into(),
                fmt_f(good.mean),
                fmt_f(crashed.mean),
                format!("{completed}/{}", runs.len()),
            ]);
        }
    }
    table
}

/// E9 — Lemma 14: the uncrashed core retains `n − o(n)` nodes and positive
/// expansion under topology-lying adversaries.
pub fn exp_core(cfg: &ExperimentConfig, n: usize) -> Table {
    let mut table = Table::new(
        "E9",
        "Lemma 14: size and expansion of the uncrashed honest core",
        &[
            "adversary",
            "core frac",
            "crashed frac",
            "core spectral gap",
        ],
    );
    for adversary in ["fake-chain", "silent", "combined"] {
        let rows: Vec<(f64, f64, f64)> = (0..cfg.trials)
            .into_par_iter()
            .map(|t| {
                let net = cfg.network(n, t);
                let params = cfg.params(&net);
                let placement =
                    Placement::random_budget(n, cfg.delta, cfg.trial_seed(n, t) ^ 0xB12);
                let knowledge = AdversaryKnowledge::gather(&net, &params, placement.mask());
                let seed = cfg.trial_seed(n, t) ^ 0x5EED;
                let mask = placement.mask();
                let outcome = match adversary {
                    "fake-chain" => {
                        let fake_chain = FakeChainAdversary::new(knowledge);
                        run_algorithm2(&net, params, mask, fake_chain, seed)
                    }
                    "silent" => run_algorithm2(&net, params, mask, SilentAdversary, seed),
                    _ => {
                        let combined = CombinedAdversary::new(knowledge);
                        run_algorithm2(&net, params, mask, combined, seed)
                    }
                };
                let keep: Vec<bool> = (0..n)
                    .map(|i| !outcome.crashed[i] && !placement.mask()[i])
                    .collect();
                let core = netsim_graph::bfs::largest_component_induced(net.h().csr(), &keep);
                let crashed = outcome.crashed_honest() as f64 / n as f64;
                // Spectral gap of the core's induced subgraph.
                let core_set: std::collections::HashSet<u32> = core.iter().map(|v| v.0).collect();
                let remap: std::collections::HashMap<u32, u32> = core
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v.0, i as u32))
                    .collect();
                let mut edges = Vec::new();
                for &v in &core {
                    for &u in net.h_neighbors(v) {
                        if u > v.0 && core_set.contains(&u) {
                            edges.push((remap[&v.0], remap[&u]));
                        }
                    }
                }
                let gap = if core.len() > 2 {
                    let sub = Csr::from_undirected_edges(core.len(), &edges).expect("core csr");
                    spectral_gap(&sub, 150, seed).gap
                } else {
                    0.0
                };
                (core.len() as f64 / n as f64, crashed, gap)
            })
            .collect();
        let core = summarize(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let crashed = summarize(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let gap = summarize(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        table.push_row(vec![
            adversary.into(),
            fmt_f(core.mean),
            fmt_f(crashed.mean),
            fmt_f(gap.mean),
        ]);
    }
    table
}

/// E10 — the two-stage analysis (Lemmas 11 and 13): the distribution of
/// decided phases relative to `a·log n` and `b·log n`.
pub fn exp_phases(cfg: &ExperimentConfig, n: usize) -> Table {
    let mut table = Table::new(
        "E10",
        "Decision-phase distribution relative to the reference phase",
        &[
            "phase",
            "honest nodes deciding",
            "fraction",
            "reference phase",
        ],
    );
    let net = cfg.network(n, 0);
    let params = cfg.params(&net);
    let placement = Placement::random_budget(n, cfg.delta, cfg.trial_seed(n, 0) ^ 0xB12);
    let knowledge = AdversaryKnowledge::gather(&net, &params, placement.mask());
    let adversary = ColorInflationAdversary::new(knowledge, InjectionTiming::Legal);
    let seed = cfg.trial_seed(n, 0) ^ 0x5EED;
    let outcome = run_algorithm2(&net, params, placement.mask(), adversary, seed);
    let reference = outcome.params.expected_decision_phase(n);
    let mut histogram: std::collections::BTreeMap<u64, usize> = Default::default();
    let mut honest_total = 0usize;
    for i in 0..n {
        if outcome.byzantine[i] {
            continue;
        }
        honest_total += 1;
        if let Some(p) = outcome.estimates[i] {
            *histogram.entry(p).or_insert(0) += 1;
        }
    }
    for (phase, count) in histogram {
        table.push_row(vec![
            phase.to_string(),
            count.to_string(),
            fmt_f(count as f64 / honest_total.max(1) as f64),
            fmt_f(reference),
        ]);
    }
    table
}

/// E11 — random vs adversarially clustered Byzantine placement (the paper's
/// open-problem ablation).
pub fn exp_placement(cfg: &ExperimentConfig, n: usize) -> Table {
    let mut table = Table::new(
        "E11",
        "Byzantine placement ablation: random (paper's model) vs clustered",
        &["placement", "good frac", "crashed frac"],
    );
    let budget = (n as f64).powf(1.0 - cfg.delta).floor() as usize;
    for (mode, placement) in [
        ("random", PlacementSpec::Random { count: budget }),
        ("clustered", PlacementSpec::Clustered { count: budget }),
    ] {
        let batch = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n, d: cfg.d })
            .placement(placement)
            .adversary(AdversarySpec::Combined)
            .derived_params(cfg.delta, cfg.epsilon)
            .seeds(SeedPolicy::Sequence {
                base: cfg.seed ^ 0x1,
                count: cfg.trials.max(1) as u32,
            })
            .build()
            .expect("placement spec")
            .run_batch()
            .expect("placement batch");
        let evals: Vec<_> = batch
            .runs
            .iter()
            .filter_map(|r| r.counting.as_ref())
            .collect();
        let good = summarize(
            &evals
                .iter()
                .map(|c| c.eval_factor3.good_fraction_of_honest)
                .collect::<Vec<_>>(),
        );
        let crashed = summarize(
            &evals
                .iter()
                .map(|c| {
                    c.eval_factor3.honest_crashed as f64 / c.eval_factor3.honest_total.max(1) as f64
                })
                .collect::<Vec<_>>(),
        );
        table.push_row(vec![mode.into(), fmt_f(good.mean), fmt_f(crashed.mean)]);
    }
    table
}

/// The fault sweep E12 applies to every workload, mildest first (rows are
/// labelled with [`FaultSpec::describe`]).
pub fn degradation_fault_levels() -> Vec<FaultSpec> {
    vec![
        FaultSpec::None,
        FaultSpec::Loss { rate: 0.10 },
        FaultSpec::Loss { rate: 0.30 },
        FaultSpec::Delay {
            max_delay: 3,
            rate: 0.5,
        },
        FaultSpec::Churn {
            rate: 0.02,
            downtime: 5,
        },
        FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.20 },
            FaultSpec::Churn {
                rate: 0.01,
                downtime: 5,
            },
        ]),
    ]
}

/// E12 — graceful degradation under imperfect networks: Byzantine counting
/// (Algorithm 2) versus all four baselines as the fault layer sweeps
/// through message loss, bounded delay and node churn, across `n`.
///
/// No Byzantine nodes are placed: the sweep isolates what an unreliable
/// *network* does to each estimator, the dimension the paper's clean
/// synchronous model cannot express.
pub fn exp_degradation(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new(
        "E12",
        "Degradation under network faults (loss / delay / churn), no Byzantine nodes",
        &[
            "n",
            "fault",
            "workload",
            "good frac",
            "rel err",
            "rounds",
            "lost",
            "undecided frac",
        ],
    );
    let workloads: Vec<(WorkloadSpec, bool)> = vec![
        (WorkloadSpec::Byzantine, true),
        (
            WorkloadSpec::GeometricSupport {
                ttl: None,
                attack: AttackSpec::None,
            },
            false,
        ),
        (
            WorkloadSpec::ExponentialSupport {
                ttl: None,
                attack: AttackSpec::None,
            },
            false,
        ),
        (
            WorkloadSpec::SpanningTree {
                max_rounds: None,
                attack: AttackSpec::None,
            },
            false,
        ),
        (
            WorkloadSpec::FloodDiameter {
                ttl: None,
                attack: AttackSpec::None,
            },
            false,
        ),
    ];
    for &n in &cfg.n_values {
        for fault in degradation_fault_levels() {
            let label = fault.describe();
            for (workload, is_counting) in &workloads {
                // Counting runs on the full small-world overlay G; the
                // baselines run on the expander H, as everywhere else.
                let topology = if *is_counting {
                    TopologySpec::SmallWorld { n, d: cfg.d }
                } else {
                    TopologySpec::SmallWorldH { n, d: cfg.d }
                };
                let batch = Simulation::builder()
                    .topology(topology)
                    .workload(workload.clone())
                    .fault(fault.clone())
                    .derived_params(cfg.delta, cfg.epsilon)
                    .seeds(SeedPolicy::Sequence {
                        base: cfg.seed ^ 0xE12,
                        count: cfg.trials.max(1) as u32,
                    })
                    .build()
                    .expect("degradation spec")
                    .run_batch()
                    .expect("degradation batch");
                let agg = batch.aggregate_for(n).expect("aggregate");
                let good = agg.good_fraction.map(|g| g.mean);
                let rel_err = summarize(
                    &batch
                        .runs
                        .iter()
                        .filter_map(RunReport::relative_error)
                        .collect::<Vec<_>>(),
                );
                let undecided = summarize(
                    &batch
                        .runs
                        .iter()
                        .map(|r| {
                            1.0 - (r.honest_decided + r.honest_crashed) as f64
                                / r.honest_total.max(1) as f64
                        })
                        .collect::<Vec<_>>(),
                );
                table.push_row(vec![
                    n.to_string(),
                    label.clone(),
                    workload.name().into(),
                    good.map(fmt_f).unwrap_or_else(|| "-".into()),
                    if rel_err.count > 0 {
                        fmt_f(rel_err.mean)
                    } else {
                        "-".into()
                    },
                    fmt_f(agg.rounds.mean),
                    fmt_f(agg.messages_lost.mean),
                    fmt_f(undecided.mean),
                ]);
            }
        }
    }
    table
}

/// E13 — scale study: Byzantine counting (Algorithm 2) under the paper's
/// Byzantine budget with the honest-behaving adversary, on doubling network
/// sizes up to `n_max` (32 768 in the standard configuration).
///
/// This is the empirical check behind the ROADMAP's "as fast as the
/// hardware allows" goal at production sizes: rounds must grow like
/// `O(log n · polyloglog n)` — far sublinearly — while the per-node
/// per-round message rate stays flat (the paper's "small-sized messages"
/// claim at scale).  The companion wall-clock trajectory lives in
/// `BENCH_roundloop.json` (`byzcount-cli bench`); this table keeps the
/// deterministic protocol-level quantities.
pub fn exp_scale(cfg: &ExperimentConfig, n_max: usize) -> Table {
    let mut table = Table::new(
        "E13",
        "Scale study: rounds and message rates of Algorithm 2 on doubling sizes",
        &[
            "n",
            "byz",
            "rounds",
            "messages",
            "msg/node/round",
            "good frac",
            "completed",
        ],
    );
    let mut sizes = Vec::new();
    let mut n = cfg.n_values.first().copied().unwrap_or(1024).max(64);
    while n < n_max {
        sizes.push(n);
        n *= 2;
    }
    sizes.push(n_max);
    let batch = cfg.counting_batch(
        WorkloadSpec::Byzantine,
        AdversarySpec::HonestBehaving,
        &sizes,
    );
    for &n in &sizes {
        let agg = batch.aggregate_for(n).expect("aggregate");
        let rows = counting_rows(&batch, n);
        let byz = rows.first().map(|r| r.byzantine_count).unwrap_or(0);
        let per_node_round = if n > 0 && agg.rounds.mean > 0.0 {
            agg.messages.mean / (n as f64 * agg.rounds.mean)
        } else {
            0.0
        };
        table.push_row(vec![
            n.to_string(),
            byz.to_string(),
            fmt_f(agg.rounds.mean),
            fmt_f(agg.messages.mean),
            fmt_f(per_node_round),
            agg.good_fraction
                .map(|g| fmt_f(g.mean))
                .unwrap_or_else(|| "-".into()),
            format!("{}/{}", agg.completed_runs, agg.runs),
        ]);
    }
    table
}

/// Every experiment with its default workload, in DESIGN.md order.
pub fn run_all(cfg: &ExperimentConfig) -> Vec<Table> {
    let n_mid = cfg.n_values.last().copied().unwrap_or(1024);
    vec![
        exp_theorem1(cfg),
        exp_rounds(cfg),
        exp_approx_factor(
            cfg,
            &[6, 8, 10],
            cfg.n_values.first().copied().unwrap_or(512),
        ),
        exp_baselines(cfg, n_mid),
        exp_structure(cfg),
        exp_expander(cfg),
        exp_discovery(cfg),
        exp_fakechain(cfg, n_mid.min(2048)),
        exp_core(cfg, n_mid.min(2048)),
        exp_phases(cfg, n_mid.min(2048)),
        exp_placement(cfg, n_mid.min(2048)),
        exp_degradation(&ExperimentConfig {
            n_values: vec![n_mid.min(1024)],
            ..cfg.clone()
        }),
        exp_scale(cfg, n_mid),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            n_values: vec![256],
            d: 6,
            delta: 0.6,
            epsilon: 0.1,
            trials: 1,
            seed: 7,
        }
    }

    #[test]
    fn theorem1_quick_run_produces_high_accuracy() {
        let table = exp_theorem1(&tiny());
        assert_eq!(table.rows.len(), 1);
        let good: f64 = table.rows[0][2].parse().unwrap();
        assert!(
            good > 0.5,
            "good fraction {good} too low even for a tiny run"
        );
    }

    #[test]
    fn rounds_table_has_expected_columns() {
        let table = exp_rounds(&tiny());
        assert_eq!(table.headers.len(), 6);
        let rounds: f64 = table.rows[0][1].parse().unwrap();
        assert!(rounds > 10.0);
        // Small messages: a constant number of IDs.
        let max_ids: u32 = table.rows[0][4].parse().unwrap();
        assert!(max_ids <= 64, "messages must stay small, got {max_ids} IDs");
    }

    #[test]
    fn baselines_table_shows_inflation_damage() {
        let cfg = tiny();
        let table = exp_baselines(&cfg, 256);
        // Row 0: geometric honest; row 2: geometric under inflation.
        let honest_err: f64 = table.rows[0][5].parse().unwrap();
        let inflated_err: f64 = table.rows[2][5].parse().unwrap();
        assert!(honest_err < 1.0);
        assert!(
            inflated_err > honest_err,
            "inflation must worsen the estimate"
        );
    }

    #[test]
    fn degradation_curve_is_monotone_under_loss_for_spanning_tree() {
        let table = exp_degradation(&tiny());
        // 6 fault levels × 5 workloads at one size.
        assert_eq!(table.rows.len(), 30);
        let rel_err = |fault: &str, workload: &str| -> f64 {
            let row = table
                .rows
                .iter()
                .find(|r| r[1] == fault && r[2] == workload)
                .unwrap_or_else(|| panic!("missing row {fault}/{workload}"));
            row[4].parse().unwrap_or(f64::INFINITY)
        };
        // The acceptance curve: spanning-tree converge-cast relies on every
        // single hop, so its error must not improve as loss rises — and
        // must be strictly worse at 30% loss than on the perfect network.
        let clean = rel_err("none", "spanning-tree");
        let light = rel_err("loss 0.10", "spanning-tree");
        let heavy = rel_err("loss 0.30", "spanning-tree");
        assert!(clean <= light + 1e-9, "{clean} vs {light}");
        assert!(light <= heavy + 1e-9, "{light} vs {heavy}");
        assert!(heavy > clean, "loss must visibly degrade the count");
        // The fault-free row must match the paper's model: near-exact.
        assert!(clean < 0.05, "clean spanning tree is exact, got {clean}");
    }

    #[test]
    fn scale_table_shows_sublinear_rounds_and_flat_message_rate() {
        let cfg = ExperimentConfig {
            n_values: vec![128],
            ..tiny()
        };
        let table = exp_scale(&cfg, 512);
        // Sizes 128, 256, 512.
        assert_eq!(table.rows.len(), 3);
        let rounds: Vec<f64> = table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let rate: Vec<f64> = table.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // Rounds grow with n but far sublinearly: quadrupling n must not
        // even double the rounds.
        assert!(rounds[2] > rounds[0], "{rounds:?}");
        assert!(rounds[2] < 2.0 * rounds[0], "{rounds:?}");
        // Per-node per-round traffic stays flat (small-sized messages).
        assert!(rate[2] < 3.0 * rate[0], "{rate:?}");
    }

    #[test]
    fn structure_and_discovery_tables_are_sane() {
        let cfg = tiny();
        let s = exp_structure(&cfg);
        let ltl: f64 = s.rows[0][1].parse().unwrap();
        // Lemma 1 only promises 1 − O(n^{-0.2}); at n = 256 that allows a
        // third of the nodes to be non-tree-like, and across RNG streams the
        // empirical fraction lands anywhere in ~0.74..0.85.
        assert!(ltl > 0.7, "locally-tree-like fraction {ltl} too low");
        let d = exp_discovery(&cfg);
        // Exact reconstruction is structurally impossible at n = 256 (a
        // radius-2k ball of H(n,6) already exceeds n nodes, so no ball is
        // tree-like and Lemma 3's premise never holds); it climbs towards 1
        // at larger n (≈0.88 at n = 4096).  What the protocol *needs* is
        // that almost no true H-edge is missed — flooding tolerates extra
        // edges but not lost ones.
        let missed: f64 = d.rows[0][2].parse().unwrap();
        let spurious: f64 = d.rows[0][3].parse().unwrap();
        assert!(missed < 0.05, "missed H-edge fraction {missed} too high");
        assert!(spurious < 2.0, "spurious H-edge ratio {spurious} too high");
    }
}
