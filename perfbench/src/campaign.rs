//! `campaign-sweep`: a fresh in-process `CampaignServer` on a Unix socket;
//! one client submits jobs of small counting cells and pages their
//! results until each job is done.

use crate::cells::{describe, prepare};
use crate::layers;
use crate::metrics::Outcome;
use crate::procfs;
use crate::specs;
use crate::stats::{median, ratio};
use crate::Ctx;
use byzcount::campaign::{CampaignServer, CampaignSpec, Client, ServerConfig};
use byzcount::sim::{execute_batch, FullRegistry, RunReport};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const NAME: &str = "campaign-sweep";
/// Pause between result polls: well below one cell's run time.
const POLL: Duration = Duration::from_millis(5);
/// Server starts per measured run.  One start is only ~0.1 ms of thread
/// spawning, so `setup_s` needs many to be steady.
const SERVER_STARTS: usize = 15;

fn cell_n(ctx: &Ctx) -> usize {
    ctx.size(256)
}

fn cells_per_job(ctx: &Ctx) -> usize {
    if ctx.smoke {
        4
    } else {
        32
    }
}

/// A server with its store and one connected client.
struct Service {
    server: CampaignServer,
    client: Client,
    store: PathBuf,
}

impl Service {
    /// Create an empty store and bind the server (timed as set-up), then
    /// connect a client.  The connect is left out of `setup_s`: it waits
    /// on the server's accept loop, which polls every 20 ms.
    fn start(ctx: &Ctx, index: usize) -> Result<(Service, f64), String> {
        let store = ctx.scratch.join(format!("store-{index}"));
        let _ = std::fs::remove_dir_all(&store);
        let addr = format!("unix:{}", ctx.scratch.join("campaign.sock").display());
        let start = Instant::now();
        let server = CampaignServer::spawn(&addr, ServerConfig::new(&store))
            .map_err(|e| format!("cannot start the campaign server: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();
        let client = Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
        let service = Service {
            server,
            client,
            store,
        };
        Ok((service, setup_s))
    }

    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Start the service `rounds` times, keeping the last one.
fn setup(ctx: &Ctx, rounds: usize) -> Result<(Service, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut service: Option<Service> = None;
    for i in 0..rounds {
        if let Some(old) = service.take() {
            old.stop();
        }
        let (started, secs) = Service::start(ctx, i)?;
        service = Some(started);
        setup_s.push(secs);
    }
    Ok((service.expect("at least one set-up"), setup_s))
}

/// One submitted job, followed from submit to its last durable record.
struct Job {
    spec: CampaignSpec,
    reports: Vec<RunReport>,
    wall_s: f64,
    ttfr_s: f64,
    polls: u64,
}

fn run_job(ctx: &Ctx, out: &mut Outcome, client: &mut Client, index: usize) -> Result<Job, String> {
    let cells = cells_per_job(ctx);
    let batch = specs::counting_batch(cell_n(ctx), ctx.seed, NAME, index, cells);
    let spec = CampaignSpec::for_batch(format!("job-{index}"), batch);
    let err = |e: byzcount::campaign::CampaignError| e.to_string();
    let start = Instant::now();
    let (total, _) = client.submit(&spec).map_err(err)?;
    let (mut cursor, mut polls, mut ttfr_s) = (0, 0, None);
    let mut reports = Vec::new();
    while (reports.len() as u64) < total {
        let (records, next, done) = client
            .results(&spec.job, cursor, byzcount::campaign::protocol::MAX_PAGE)
            .map_err(err)?;
        polls += 1;
        if !records.is_empty() && ttfr_s.is_none() {
            ttfr_s = Some(start.elapsed().as_secs_f64());
        }
        cursor = next;
        reports.extend(records.into_iter().map(|r| r.report));
        if done && (reports.len() as u64) < total {
            return Err(format!(
                "job {} ended with {} of {total} cells",
                spec.job,
                reports.len()
            ));
        }
        if (reports.len() as u64) < total {
            std::thread::sleep(POLL);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    for report in &reports {
        out.op(report.completed);
    }
    Ok(Job {
        spec,
        reports,
        wall_s,
        ttfr_s: ttfr_s.unwrap_or(wall_s),
        polls,
    })
}

/// The untraced pass: jobs back to back until `ctx.seconds` have passed.
pub fn timed(ctx: &Ctx) -> Result<Outcome, String> {
    let (mut service, setup_s) = setup(ctx, SERVER_STARTS)?;
    let mut out = Outcome::default();
    // Cells run concurrently inside the server, so the per-cell peak comes
    // from the sweep's first cell run directly, through the same
    // `PreparedRun` path the server's workers take.  The server's own
    // peak over a job is `mem.server_peak_mb` in the traced pass.
    let first = specs::counting_batch(cell_n(ctx), ctx.seed, NAME, 0, 1).expand();
    let (prepared, _) = prepare(&first, 1).map_err(|e| e.to_string())?;
    procfs::reset_peak_rss(None);
    let report = prepared[0]
        .execute(&FullRegistry)
        .map_err(|e| e.to_string())?;
    let peak_mb = procfs::peak_rss_kb(None) as f64 / 1024.0;
    out.op(report.completed);

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let (mut cells, mut rounds, mut msgs, mut wall) = (0.0, 0.0, 0.0, 0.0);
    let (mut ttfr, mut good) = (vec![], vec![]);
    let mut index = 0;
    while index == 0 || Instant::now() < deadline {
        let job = run_job(ctx, &mut out, &mut service.client, index)?;
        index += 1;
        let sum = |f: fn(&RunReport) -> u64| job.reports.iter().map(f).sum::<u64>() as f64;
        cells += job.reports.len() as f64;
        rounds += sum(|r| r.rounds);
        msgs += sum(|r| r.messages_delivered);
        wall += job.wall_s;
        ttfr.push(job.ttfr_s);
        good.extend(job.reports.iter().filter_map(RunReport::good_fraction));
    }
    service.stop();
    describe("setup_s", &setup_s);
    describe("ttfr_s", &ttfr);
    // Rates and the first-result latency are averaged over every job, so
    // the machine's speed swings average out instead of deciding a median.
    out.set("setup_s", median(&setup_s));
    out.set("rounds_per_s", ratio(rounds, wall));
    out.set("msgs_per_s", ratio(msgs, wall));
    out.set("cells_per_s", ratio(cells, wall));
    out.set("ttfr_s", ttfr.iter().sum::<f64>() / ttfr.len() as f64);
    out.set("peak_rss_mb", peak_mb);
    out.set(
        "good_frac",
        good.iter().sum::<f64>() / good.len().max(1) as f64,
    );
    Ok(out)
}

/// The traced pass: one job priced from the service's public verbs, the
/// merged report gated against `execute_batch`, the same cells re-run
/// directly for the scheduler's overhead, and the engine layers of one
/// cell.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = layers::traced_outcome();
    // The direct cell runs first, on a fresh heap, so its memory growth
    // is its own.
    let first = &specs::counting_batch(cell_n(ctx), ctx.seed, NAME, 0, 1).expand();
    layers::setup_layers(&mut out, first).map_err(|e| e.to_string())?;
    let (prepared, _) = prepare(first, 1).map_err(|e| e.to_string())?;
    let cell = layers::trace_cell(&prepared[0], None, None, None).map_err(|e| e.to_string())?;
    layers::engine_layers(&mut out, &[cell]);

    let (mut service, _) = setup(ctx, 1)?;
    procfs::reset_peak_rss(None);
    let job = run_job(ctx, &mut out, &mut service.client, 0)?;
    out.set(
        "mem.server_peak_mb",
        procfs::peak_rss_kb(None) as f64 / 1024.0,
    );
    let err = |e: byzcount::campaign::CampaignError| e.to_string();
    let stats = service.client.stats().map_err(err)?;
    let mut rtt = Vec::new();
    for _ in 0..50 {
        let start = Instant::now();
        service.client.status(&job.spec.job).map_err(err)?;
        rtt.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let merged = service.client.merged(&job.spec.job).map_err(err)?;
    let store = service.store.clone();
    service.stop();
    out.set("wal.fsyncs", stats.fsyncs as f64);
    out.set("wal.fsync_p50_us", stats.fsync_p50_us as f64);
    out.set("wal.fsync_p99_us", stats.fsync_p99_us as f64);
    // An estimate: the histogram gives no exact sum, so fsyncs × p50.
    out.set(
        "wal.fsync_share",
        ratio(
            stats.fsyncs as f64 * stats.fsync_p50_us as f64 / 1e6,
            job.wall_s,
        ),
    );
    out.set("wal.bytes", procfs::dir_bytes(&store) as f64);
    out.set("proto.rtt_us", median(&rtt));
    out.set("proto.polls", job.polls as f64);

    let oneshot = execute_batch(&job.spec.batch).map_err(|e| e.to_string())?;
    out.check_eq(
        "campaign merged report differs from execute_batch",
        &merged.to_json(),
        &oneshot.to_json(),
    );

    let run_specs = job.spec.batch.expand();
    let start = Instant::now();
    for spec in &run_specs {
        let report = byzcount::sim::execute(spec).map_err(|e| e.to_string())?;
        out.op(report.completed);
    }
    let exec_s = start.elapsed().as_secs_f64();
    let workers = ServerConfig::new(&store).workers as f64;
    out.set("sched.exec_s", exec_s);
    out.set(
        "sched.overhead_frac",
        1.0 - ratio(exec_s, workers * job.wall_s),
    );
    layers::finish_gate(&mut out);
    Ok(out)
}
