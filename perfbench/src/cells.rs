//! The timed loop shared by the workloads that execute prepared cells
//! (`counting-attack`, `longhaul-async`, `dist-unix`), and the two
//! in-process workloads themselves.

use crate::layers::{self, TracedCell};
use crate::metrics::Outcome;
use crate::procfs;
use crate::specs;
use crate::stats::{failure_ratio, median, ratio};
use crate::Ctx;
use byzcount::sim::{EngineSpec, FullRegistry, PreparedRun, RunReport, RunSpec, SimError};
use std::time::Instant;

/// Set-ups per cell in a measured pass; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 5;

/// Prepare every spec (graph build + placement) `rounds` times, timing
/// each set-up and keeping the last.
pub fn prepare(specs: &[RunSpec], rounds: usize) -> Result<(Vec<PreparedRun>, Vec<f64>), SimError> {
    let mut prepared = Vec::with_capacity(specs.len());
    let mut setup = Vec::with_capacity(specs.len() * rounds);
    for _ in 0..rounds {
        prepared.clear();
        for spec in specs {
            let start = Instant::now();
            prepared.push(PreparedRun::new(spec)?);
            setup.push(start.elapsed().as_secs_f64());
        }
    }
    Ok((prepared, setup))
}

/// Print a series of per-execution samples with its quartiles to stderr:
/// the within-run spread behind a figure of the result line.
pub fn describe(name: &str, values: &[f64]) {
    if let Some([q1, q2, q3]) = crate::stats::quartiles(values) {
        eprintln!(
            "perfbench: {name}: median {q2:.6} (q1 {q1:.6}, q3 {q3:.6}) over {} samples",
            values.len()
        );
    }
}

/// Execute the cells round-robin until `ctx.seconds` have passed (every
/// cell at least once), and report the end-to-end metrics: rates over the
/// total execute time, set-up time and peak memory as medians.  Each
/// cell's first report is its reference: every repeat must reproduce it
/// byte for byte.  Peak memory is the sum over `pids` (`None` = this
/// process), each high-water mark reset before a cell.
pub fn run_timed(
    ctx: &Ctx,
    out: &mut Outcome,
    prepared: &[PreparedRun],
    setup_s: &[f64],
    pids: &[Option<u32>],
    mut exec: impl FnMut(&PreparedRun) -> Result<RunReport, SimError>,
) {
    let mut reference: Vec<Option<String>> = vec![None; prepared.len()];
    let mut good = Vec::new();
    let (mut rounds, mut msgs, mut secs, mut peak_mb) = (0.0, 0.0, vec![], vec![]);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut i = 0;
    while i < prepared.len() || Instant::now() < deadline {
        let cell = i % prepared.len();
        i += 1;
        for &pid in pids {
            procfs::reset_peak_rss(pid);
        }
        let start = Instant::now();
        let result = exec(&prepared[cell]);
        let dt = start.elapsed().as_secs_f64();
        let peak_kb: u64 = pids.iter().map(|&pid| procfs::peak_rss_kb(pid)).sum();
        let report = match result {
            Ok(report) => report,
            Err(err) => {
                eprintln!("perfbench: cell {cell} failed: {err}");
                out.op(false);
                continue;
            }
        };
        let json = report.to_json();
        match &reference[cell] {
            Some(first) => out.check_eq(
                &format!("cell {cell} is not deterministic across repeats"),
                &json,
                first,
            ),
            None => {
                out.op(specs::sane(&report));
                good.extend(report.good_fraction());
                reference[cell] = Some(json);
            }
        }
        rounds += report.rounds as f64;
        msgs += report.messages_delivered as f64;
        secs.push(dt);
        peak_mb.push(peak_kb as f64 / 1024.0);
    }
    // Rates are totals over the whole measured time, so the machine's
    // speed swings average out instead of deciding a median.
    let busy: f64 = secs.iter().sum();
    describe("setup_s", setup_s);
    describe("execute_s", &secs);
    describe("peak_rss_mb", &peak_mb);
    out.set("setup_s", median(setup_s));
    out.set("rounds_per_s", ratio(rounds, busy));
    out.set("msgs_per_s", ratio(msgs, busy));
    out.set("cells_per_s", ratio(secs.len() as f64, busy));
    out.set("ttfr_s", ratio(busy, secs.len() as f64));
    out.set("peak_rss_mb", median(&peak_mb));
    // A workload without counting cells has no Definition-1 figure; its
    // good fraction is the share of executions that were correct.
    let good_frac = if good.is_empty() {
        1.0 - failure_ratio(out.failed, out.attempted)
    } else {
        good.iter().sum::<f64>() / good.len() as f64
    };
    out.set("good_frac", good_frac);
}

/// The specs of `counting-attack`: Algorithm 2 under the combined
/// adversary, `sync` engine, three seeds.
pub fn counting_specs(ctx: &Ctx) -> Vec<RunSpec> {
    (0..3)
        .map(|i| {
            let seed = specs::spec_seed(ctx.seed, "counting-attack", i);
            specs::counting(ctx.size(2048), seed, EngineSpec::Sync)
        })
        .collect()
}

/// The specs of `longhaul-async`: the spanning-tree baseline under loss
/// and delay on `sharded-async-2`, three seeds.
pub fn longhaul_specs(ctx: &Ctx) -> Vec<RunSpec> {
    (0..3)
        .map(|i| {
            let seed = specs::spec_seed(ctx.seed, "longhaul-async", i);
            specs::longhaul(ctx.size(2048), seed, specs::sharded_async_2())
        })
        .collect()
}

/// The untraced pass of an in-process workload.
pub fn timed_in_process(ctx: &Ctx, specs: &[RunSpec]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (prepared, setup) = prepare(specs, SETUP_ROUNDS).map_err(|e| e.to_string())?;
    run_timed(ctx, &mut out, &prepared, &setup, &[None], |p| {
        p.execute(&FullRegistry)
    });
    Ok(out)
}

/// Check each cell's report against a direct `execute` of the same spec
/// on the `sync` engine (engine knob erased before comparing).
pub fn gate_against_sync(out: &mut Outcome, cells: &[TracedCell]) -> Result<(), String> {
    for cell in cells {
        let mut spec = cell.untraced.spec.clone();
        spec.engine = EngineSpec::Sync;
        let direct = byzcount::sim::execute(&spec).map_err(|e| e.to_string())?;
        out.check_eq(
            &format!(
                "{} report differs from direct sync execute_spec (seed {})",
                cell.untraced.spec.engine.name(),
                spec.seed
            ),
            &specs::normalized_json(&cell.untraced),
            &specs::normalized_json(&direct),
        );
    }
    Ok(())
}

/// The traced pass of an in-process workload: set-up layers, engine
/// phases and counters, and the correctness gate.
pub fn traced_in_process(specs: &[RunSpec]) -> Result<Outcome, String> {
    let mut out = layers::traced_outcome();
    layers::setup_layers(&mut out, specs).map_err(|e| e.to_string())?;
    let (prepared, _) = prepare(specs, 1).map_err(|e| e.to_string())?;
    let cells = prepared
        .iter()
        .map(|p| layers::trace_cell(p, None, None, None))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    layers::engine_layers(&mut out, &cells);
    gate_against_sync(&mut out, &cells)?;
    layers::finish_gate(&mut out);
    Ok(out)
}
