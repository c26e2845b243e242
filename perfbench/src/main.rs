//! The byzcount benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--cli <byzcount-cli>] [--scratch <dir>] [--smoke]
//! ```
//!
//! Workloads: `counting-attack`, `longhaul-async`, `campaign-sweep`,
//! `dist-unix` (see `README.md` next to this package).  `--trace 0`
//! measures the end-to-end metrics for `--seconds`; `--trace 1` runs the
//! per-layer pass and the correctness gate.  The last stdout line is the
//! JSON result; the exit code is 0 only when every check passed.
//! `--smoke` shrinks every size so all workloads finish in seconds.

mod campaign;
mod cells;
mod dist;
mod layers;
mod metrics;
mod procfs;
mod relay;
mod specs;
mod stats;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workload names, in documentation order.
pub const WORKLOADS: [&str; 4] = [
    "counting-attack",
    "longhaul-async",
    "campaign-sweep",
    "dist-unix",
];

/// Settings shared by every workload.
pub struct Ctx {
    /// The benchmark seed every spec seed derives from.
    pub seed: u64,
    /// How long the untraced pass measures.
    pub seconds: f64,
    /// Tiny sizes for a fast functional check.
    pub smoke: bool,
    /// The `byzcount-cli` binary (`dist-unix` spawns its shard worker).
    pub cli: Option<PathBuf>,
    /// A private directory for sockets and stores, removed at exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A workload's network size, shrunk in smoke mode.
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            full.min(128)
        } else {
            full
        }
    }
}

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let (mut cli, mut scratch, mut smoke) = (None, PathBuf::from(".bench_build/perfbench"), false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--cli" => cli = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let scratch = scratch.join(format!("{}", std::process::id()));
    Ok(Args {
        workload,
        trace,
        ctx: Ctx {
            seed,
            seconds,
            smoke,
            cli,
            scratch,
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = &args.ctx;
    match (args.workload.as_str(), args.trace) {
        ("counting-attack", false) => cells::timed_in_process(ctx, &cells::counting_specs(ctx)),
        ("counting-attack", true) => cells::traced_in_process(&cells::counting_specs(ctx)),
        ("longhaul-async", false) => cells::timed_in_process(ctx, &cells::longhaul_specs(ctx)),
        ("longhaul-async", true) => cells::traced_in_process(&cells::longhaul_specs(ctx)),
        ("campaign-sweep", false) => campaign::timed(ctx),
        ("campaign-sweep", true) => campaign::traced(ctx),
        ("dist-unix", false) => dist::timed(ctx),
        ("dist-unix", true) => dist::traced(ctx),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.ctx.scratch) {
        eprintln!(
            "perfbench: cannot create {}: {err}",
            args.ctx.scratch.display()
        );
        return ExitCode::from(2);
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.ctx.scratch);
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match result.and_then(|out| Ok((out.to_json(defs)?, out.failed))) {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {}: {err}", args.workload);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, both passes, at smoke size; `dist-unix` only when
    /// `PERFBENCH_CLI` names a built `byzcount-cli`.
    #[test]
    fn smoke_runs_every_workload_in_both_passes() {
        let cli = std::env::var_os("PERFBENCH_CLI").map(PathBuf::from);
        for workload in WORKLOADS {
            if workload == "dist-unix" && cli.is_none() {
                continue;
            }
            for trace in [false, true] {
                let scratch = std::env::temp_dir().join(format!(
                    "perfbench-smoke-{}-{workload}-{trace}",
                    std::process::id()
                ));
                std::fs::create_dir_all(&scratch).unwrap();
                let args = Args {
                    workload: workload.to_string(),
                    trace,
                    ctx: Ctx {
                        seed: 1,
                        seconds: 0.1,
                        smoke: true,
                        cli: cli.clone(),
                        scratch: scratch.clone(),
                    },
                };
                let out = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
                std::fs::remove_dir_all(&scratch).unwrap();
                assert_eq!(out.failed, 0, "{workload} trace={trace}");
                let defs = if trace { PER_LAYER } else { END_TO_END };
                out.to_json(defs).expect("every metric measured");
            }
        }
    }
}
