//! Per-layer measurements shared by every workload's traced pass: the
//! set-up layers (graph build, placement), the engine phases and counters
//! from the program's own `PhaseProfiler` / `CounterSet` recorders, report
//! serialization, memory per node, and the traced-vs-untraced checks.

use crate::metrics::{Outcome, PER_LAYER};
use crate::procfs;
use crate::stats::{coverage, median, ratio};
use byzcount::graph::NodeId;
use byzcount::runtime::Topology;
use byzcount::sim::{FullRegistry, PreparedRun, RemoteFleet, RunReport, RunSpec, SimError};
use byzcount::trace::{
    Counter, CounterSet, CounterSnapshot, Fanout, Phase, PhaseProfile, PhaseProfiler,
};
use std::sync::Arc;
use std::time::Instant;

/// A traced pass starts with every per-layer metric at `0` (not
/// applicable) and fills in what the workload exercises.
pub fn traced_outcome() -> Outcome {
    let mut out = Outcome::default();
    for &(name, _, _) in PER_LAYER {
        out.set(name, 0.0);
    }
    out
}

/// Time the set-up layers of `specs` (graph generation, Byzantine
/// placement) from outside, and count the first graph's edges.
pub fn setup_layers(out: &mut Outcome, specs: &[RunSpec]) -> Result<(), SimError> {
    let (mut build, mut place) = (Vec::new(), Vec::new());
    for (i, spec) in specs.iter().enumerate() {
        let start = Instant::now();
        let topo = spec.topology.build(spec.seed)?;
        build.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        spec.placement.materialize(&topo, spec.seed)?;
        place.push(start.elapsed().as_secs_f64());
        if i == 0 {
            let degree_sum: usize = (0..topo.len())
                .map(|v| topo.neighbors(NodeId(v as u32)).len())
                .sum();
            out.set("graph.edges", (degree_sum / 2) as f64);
        }
    }
    out.set("graph.build_s", median(&build));
    out.set("adversary.placement_s", median(&place));
    Ok(())
}

/// One cell run untraced and then traced.
pub struct TracedCell {
    /// Network size.
    pub n: usize,
    /// The untraced twin's report.
    pub untraced: RunReport,
    /// Untraced execute wall time.
    pub untraced_s: f64,
    /// CPU seconds this process spent on the untraced run.
    pub coord_cpu_s: f64,
    /// CPU seconds the shard worker spent on the untraced run.
    pub worker_cpu_s: f64,
    /// RSS before the untraced twin, kB.
    pub base_kb: u64,
    /// Peak RSS during the untraced twin, kB.
    pub peak_kb: u64,
    /// The traced run's report.
    pub traced: RunReport,
    /// Traced execute wall time.
    pub traced_s: f64,
    /// Phase spans of the traced run.
    pub profile: PhaseProfile,
    /// Counters of the traced run.
    pub counters: CounterSnapshot,
}

/// Run `prepared` once bare (through `plain`, if a fleet) and once under
/// a phase profiler plus counter set (through `traced`).  The bare run is
/// also priced in CPU time of this process and of `worker`, if given.
pub fn trace_cell(
    prepared: &PreparedRun,
    plain: Option<&RemoteFleet>,
    traced: Option<&RemoteFleet>,
    worker: Option<u32>,
) -> Result<TracedCell, SimError> {
    procfs::reset_peak_rss(None);
    let base_kb = procfs::rss_kb(None);
    let cpu = || {
        let theirs = worker.map_or(0.0, |pid| procfs::process_cpu_s(Some(pid)));
        (procfs::process_cpu_s(None), theirs)
    };
    let cpu0 = cpu();
    let start = Instant::now();
    let untraced = prepared.execute_fleet(&FullRegistry, None, plain)?;
    let untraced_s = start.elapsed().as_secs_f64();
    let cpu1 = cpu();
    let peak_kb = procfs::peak_rss_kb(None);

    let profiler = Arc::new(PhaseProfiler::new());
    let counters = Arc::new(CounterSet::new());
    let mut fanout = Fanout::new();
    fanout.push(profiler.clone());
    fanout.push(counters.clone());
    let start = Instant::now();
    let traced_report = prepared.execute_fleet(&FullRegistry, Some(&fanout), traced)?;
    let traced_s = start.elapsed().as_secs_f64();
    Ok(TracedCell {
        n: prepared.byzantine().len(),
        untraced,
        untraced_s,
        coord_cpu_s: cpu1.0 - cpu0.0,
        worker_cpu_s: cpu1.1 - cpu0.1,
        base_kb,
        peak_kb,
        traced: traced_report,
        traced_s,
        profile: profiler.report(),
        counters: counters.snapshot(),
    })
}

fn phase_s(profile: &PhaseProfile, phase: Phase) -> f64 {
    profile
        .phase(phase.name())
        .map_or(0.0, |p| p.sum_ns as f64 / 1e9)
}

/// Fill the engine, report, trace-overhead and memory metrics from traced
/// cells, and gate each traced report against its untraced twin.
pub fn engine_layers(out: &mut Outcome, cells: &[TracedCell]) {
    let sum = |f: &dyn Fn(&TracedCell) -> f64| cells.iter().map(f).sum::<f64>();
    let round = sum(&|c| phase_s(&c.profile, Phase::Round));
    let sub = sum(&|c| c.profile.subphase_sum_ns() as f64 / 1e9);
    let untraced_s = sum(&|c| c.untraced_s);
    let traced_s = sum(&|c| c.traced_s);
    let rounds = sum(&|c| c.untraced.rounds as f64);
    let msgs = sum(&|c| c.untraced.messages_delivered as f64);
    for (name, phase) in [
        ("engine.round_s", Phase::Round),
        ("engine.churn_s", Phase::Churn),
        ("engine.node_step_s", Phase::NodeStep),
        ("engine.adversary_cut_s", Phase::AdversaryCut),
        ("engine.routing_s", Phase::Routing),
        ("engine.deferred_drain_s", Phase::DeferredDrain),
    ] {
        out.set(name, sum(&|c| phase_s(&c.profile, phase)));
    }
    out.set("engine.unattributed_s", round - sub);
    out.set("engine.outside_rounds_s", traced_s - round);
    out.set("engine.coverage", coverage(sub, round));
    out.set("engine.us_per_round", ratio(untraced_s * 1e6, rounds));
    out.set("engine.ns_per_msg", ratio(untraced_s * 1e9, msgs));
    for (name, counter) in [
        ("engine.rounds", Counter::Rounds),
        ("engine.msgs_delivered", Counter::MessagesDelivered),
        ("engine.msgs_dropped", Counter::MessagesDropped),
        ("engine.msgs_lost", Counter::MessagesLost),
        ("engine.msgs_delayed", Counter::MessagesDelayed),
        ("engine.ticks_skipped", Counter::TicksSkipped),
        ("engine.cross_shard_routed", Counter::CrossShardRouted),
    ] {
        out.set(name, sum(&|c| c.counters.total(counter) as f64));
    }
    out.set(
        "trace.overhead_frac",
        ratio(traced_s - untraced_s, untraced_s),
    );
    // Only the first cell runs on a heap no earlier execution has grown,
    // so only its growth is the cell's own.
    if let Some(c) = cells.first() {
        let grown = c.peak_kb.saturating_sub(c.base_kb) as f64 * 1024.0;
        out.set("mem.bytes_per_node", ratio(grown, c.n as f64));
    }

    let (mut json_s, mut json_bytes) = (Vec::new(), Vec::new());
    for cell in cells {
        let start = Instant::now();
        let untraced = cell.untraced.to_json();
        json_s.push(start.elapsed().as_secs_f64());
        json_bytes.push(untraced.len() as f64);
        out.check_eq(
            &format!(
                "traced report differs from its untraced twin (seed {})",
                cell.untraced.seed
            ),
            &cell.traced.to_json(),
            &untraced,
        );
    }
    out.set("report.json_s", median(&json_s));
    out.set("report.bytes", median(&json_bytes));
}

/// Close a traced pass: the gate's check count and failure ratio.
pub fn finish_gate(out: &mut Outcome) {
    out.set("gate.checks", out.attempted as f64);
    out.set(
        "gate.failed_frac",
        crate::stats::failure_ratio(out.failed, out.attempted),
    );
}
