//! `dist-unix`: the counting spec shape on the distributed engine with two
//! shards, both served over Unix sockets by one `byzcount-cli
//! shard-worker` process.  The only workload that crosses the
//! `netsim-wire` hop.

use crate::cells::{gate_against_sync, prepare, run_timed, SETUP_ROUNDS};
use crate::layers;
use crate::metrics::Outcome;
use crate::relay::Relay;
use crate::specs;
use crate::stats::median;
use crate::Ctx;
use byzcount::sim::{EngineSpec, FullRegistry, RunSpec};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

const NAME: &str = "dist-unix";

/// A spawned `shard-worker` process, killed and reaped on drop.
pub struct Worker {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Worker {
    /// Spawn `cli shard-worker --listen unix:<socket>` and wait until it
    /// reports that it is listening.
    pub fn spawn(cli: &Path, socket: &Path) -> Result<Worker, String> {
        let mut child = Command::new(cli)
            .arg("shard-worker")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).is_ok() && line.starts_with("listening on ");
        let worker = Worker {
            child,
            _stdout: stdout,
            socket: socket.to_path_buf(),
        };
        if !ready {
            return Err(format!("shard-worker did not start listening: {line:?}"));
        }
        Ok(worker)
    }

    /// The worker's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The address coordinators dial.
    pub fn addr(&self) -> String {
        format!("unix:{}", self.socket.display())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn cli(ctx: &Ctx) -> Result<&Path, String> {
    ctx.cli
        .as_deref()
        .ok_or_else(|| "dist-unix needs --cli <path to byzcount-cli>".to_string())
}

/// Three cells of the counting spec shape at n = 1024 on `dist-2`.
pub fn dist_specs(ctx: &Ctx) -> Vec<RunSpec> {
    (0..3)
        .map(|i| {
            let seed = specs::spec_seed(ctx.seed, NAME, i);
            specs::counting(ctx.size(1024), seed, EngineSpec::Distributed { shards: 2 })
        })
        .collect()
}

/// Set up `rounds` times per cell: spawn a fresh worker and prepare the
/// cell.  The last worker is kept for the measured runs.
fn setup(ctx: &Ctx, specs: &[RunSpec], rounds: usize) -> Result<(Worker, Vec<f64>), String> {
    let socket = ctx.scratch.join("worker.sock");
    let mut setup_s = Vec::new();
    let mut worker = None;
    for spec in specs.iter().cycle().take(specs.len() * rounds) {
        drop(worker.take());
        let start = Instant::now();
        worker = Some(Worker::spawn(cli(ctx)?, &socket)?);
        prepare(std::slice::from_ref(spec), 1).map_err(|e| e.to_string())?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    Ok((worker.expect("at least one cell"), setup_s))
}

/// The untraced pass.
pub fn timed(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = dist_specs(ctx);
    let (worker, setup_s) = setup(ctx, &specs, SETUP_ROUNDS)?;
    let (prepared, _) = prepare(&specs, 1).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let addr = worker.addr();
    run_timed(
        ctx,
        &mut out,
        &prepared,
        &setup_s,
        &[None, Some(worker.pid())],
        |p| {
            p.execute_fleet(
                &FullRegistry,
                None,
                Some(&p.remote_fleet(vec![addr.clone()])),
            )
        },
    );
    Ok(out)
}

/// The traced pass: per cell, an untraced twin straight to the worker
/// (priced with `/proc` CPU times), then a traced run through the
/// counting relay, then the in-process `sync` reference.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = dist_specs(ctx);
    let mut out = layers::traced_outcome();
    layers::setup_layers(&mut out, &specs).map_err(|e| e.to_string())?;
    let (worker, _) = setup(ctx, &specs, 1)?;
    let (prepared, _) = prepare(&specs, 1).map_err(|e| e.to_string())?;
    let relay = Relay::start(
        &ctx.scratch.join("relay.sock"),
        &ctx.scratch.join("worker.sock"),
    )
    .map_err(|e| format!("cannot start relay: {e}"))?;
    let mut cells = Vec::new();
    for p in &prepared {
        let direct = p.remote_fleet(vec![worker.addr()]);
        let relayed = p.remote_fleet(vec![relay.addr()]);
        let cell = layers::trace_cell(p, Some(&direct), Some(&relayed), Some(worker.pid()))
            .map_err(|e| e.to_string())?;
        cells.push(cell);
    }
    let stats = relay.stop();
    out.op(stats.torn == 0);
    layers::engine_layers(&mut out, &cells);
    gate_against_sync(&mut out, &cells)?;

    let rounds: u64 = cells.iter().map(|c| c.traced.rounds).sum();
    let msgs: u64 = cells.iter().map(|c| c.traced.messages_delivered).sum();
    let bytes = stats.to_worker.bytes + stats.to_coord.bytes;
    out.set(
        "wire.frames",
        (stats.to_worker.frames + stats.to_coord.frames) as f64,
    );
    out.set("wire.bytes", bytes as f64);
    out.set("wire.bytes_to_worker", stats.to_worker.bytes as f64);
    out.set("wire.bytes_to_coord", stats.to_coord.bytes as f64);
    out.set(
        "wire.bytes_per_round",
        crate::stats::ratio(bytes as f64, rounds as f64),
    );
    out.set(
        "wire.bytes_per_msg",
        crate::stats::ratio(bytes as f64, msgs as f64),
    );
    // CPU and waiting of the untraced runs, which dial the worker directly.
    let sum = |f: fn(&layers::TracedCell) -> f64| cells.iter().map(f).sum::<f64>();
    let coord_cpu = sum(|c| c.coord_cpu_s);
    out.set("dist.coord_cpu_s", coord_cpu);
    out.set("dist.worker_cpu_s", sum(|c| c.worker_cpu_s));
    out.set("dist.wait_s", sum(|c| c.untraced_s) - coord_cpu);
    out.set("dist.handshake_s", median(&stats.handshake_s));
    drop(worker);
    layers::finish_gate(&mut out);
    Ok(out)
}
