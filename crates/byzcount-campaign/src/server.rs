//! The campaign server: one scheduler, many connections.
//!
//! A [`CampaignServer`] binds a [`Listener`], restores every job found
//! under its store root (the crash-recovery path — incomplete jobs are
//! re-queued automatically), and then runs two kinds of threads:
//!
//! * the **scheduler** — takes the highest-priority queued job
//!   (submission order breaks ties) and drives it with
//!   [`run_campaign_telemetry`], one job at a time, appending every
//!   finished cell to the job's WAL and feeding the live [`Telemetry`]
//!   served by the `stats` verb;
//! * one **connection handler** per client, up to [`MAX_CONNECTIONS`]
//!   at once (a connection past the cap is answered one `protocol` error
//!   in place of the hello, and closed) — hello handshake first (server
//!   speaks first), then a request/response loop.  Protocol errors are
//!   answered in-band; only a hello major mismatch, a line past
//!   [`MAX_LINE_BYTES`] (answered first) or EOF closes the connection.
//!
//! Shutdown is graceful: the stop flag lets in-flight cells finish,
//! their results are persisted and checkpointed, and the next start
//! resumes from exactly the durable cell set.

use crate::error::CampaignError;
use crate::net::{IoStream, Listener};
use crate::protocol::{
    decode_hello, decode_line, encode_hello, encode_line, Hello, JobStatus, JobTelemetry, Request,
    Response, ServerStats, MAX_CONNECTIONS, MAX_LINE_BYTES, MAX_PAGE,
};
use crate::scheduler::{run_campaign_telemetry, RunOutcome, RunnerConfig};
use crate::spec::CampaignSpec;
use crate::telemetry::Telemetry;
use crate::wal::CampaignStore;
use byzcount_analysis::campaign::FullRegistry;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory holding one subdirectory per job.
    pub store_root: PathBuf,
    /// Worker threads per running job.
    pub workers: usize,
    /// Checkpoint cadence (appends between snapshots; `0` = final only).
    pub snapshot_every: usize,
}

impl ServerConfig {
    /// Defaults: 2 workers, snapshot every 32 cells.
    pub fn new(store_root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            store_root: store_root.into(),
            workers: 2,
            snapshot_every: 32,
        }
    }
}

/// Scheduling lifecycle of a job (in-memory; the durable truth is the
/// job's store).
#[derive(Clone, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

struct JobHandle {
    spec: CampaignSpec,
    store: Mutex<CampaignStore>,
    state: Mutex<JobState>,
    cancel: AtomicBool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: u8,
    submit_seq: u64,
    job: String,
}

struct Shared {
    config: ServerConfig,
    jobs: Mutex<BTreeMap<String, Arc<JobHandle>>>,
    queue: Mutex<Vec<QueueEntry>>,
    wake: Condvar,
    shutdown: AtomicBool,
    submit_counter: AtomicU64,
    /// Process-wide live telemetry (the `stats` verb's source of truth).
    telemetry: Arc<Telemetry>,
}

impl Shared {
    /// Queue a job for the scheduler (idempotent per job id).
    fn enqueue(&self, job: &str, priority: u8) {
        let mut queue = self.queue.lock().expect("queue lock");
        if !queue.iter().any(|e| e.job == job) {
            queue.push(QueueEntry {
                priority,
                submit_seq: self.submit_counter.fetch_add(1, Ordering::SeqCst),
                job: job.to_string(),
            });
        }
        drop(queue);
        self.wake.notify_all();
    }

    /// Pop the best queued entry: highest priority, earliest submission.
    fn pop_best(&self) -> Option<QueueEntry> {
        let mut queue = self.queue.lock().expect("queue lock");
        let best = queue
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.submit_seq)))
            .map(|(i, _)| i)?;
        Some(queue.remove(best))
    }
}

/// A running campaign server plus the handles to stop it.
pub struct CampaignServer {
    addr: String,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    scheduler_thread: Option<JoinHandle<()>>,
}

impl CampaignServer {
    /// Bind `addr`, restore jobs from the store root (re-queuing every
    /// incomplete one), and start the scheduler and accept threads.
    pub fn spawn(addr: &str, config: ServerConfig) -> Result<Self, CampaignError> {
        std::fs::create_dir_all(&config.store_root)?;
        let listener = Listener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;

        let shared = Arc::new(Shared {
            config,
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submit_counter: AtomicU64::new(0),
            telemetry: Arc::new(Telemetry::new()),
        });
        restore_jobs(&shared)?;

        let scheduler_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(CampaignServer {
            addr: bound,
            shared,
            accept_thread: Some(accept_thread),
            scheduler_thread: Some(scheduler_thread),
        })
    }

    /// The bound address (TCP port 0 resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Graceful shutdown: stop accepting, let the running job finish its
    /// in-flight cells, checkpoint, and join both threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server stops (the CLI `serve` mode; the process
    /// is expected to be killed, and recovery handles the rest).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
    }
}

/// Scan the store root and re-adopt every persisted job; incomplete jobs
/// go straight back on the queue — this is the kill-and-resume path.
fn restore_jobs(shared: &Arc<Shared>) -> Result<(), CampaignError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&shared.config.store_root)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("spec.json").is_file())
        .collect();
    entries.sort();
    for dir in entries {
        let job = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let mut store = CampaignStore::open(&shared.config.store_root, &job)?;
        store.attach_telemetry(Arc::clone(&shared.telemetry));
        let spec = store.spec().clone();
        let complete = store.is_complete();
        let handle = Arc::new(JobHandle {
            spec: spec.clone(),
            store: Mutex::new(store),
            state: Mutex::new(if complete {
                JobState::Done
            } else {
                JobState::Queued
            }),
            cancel: AtomicBool::new(false),
        });
        shared
            .jobs
            .lock()
            .expect("jobs lock")
            .insert(job.clone(), handle);
        if !complete {
            shared.enqueue(&job, spec.priority);
        }
    }
    Ok(())
}

fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(entry) = shared.pop_best() else {
            // Nothing queued: nap until a submit or shutdown wakes us.
            let queue = shared.queue.lock().expect("queue lock");
            let _unused = shared
                .wake
                .wait_timeout(queue, Duration::from_millis(100))
                .expect("queue lock");
            continue;
        };
        let handle = {
            let jobs = shared.jobs.lock().expect("jobs lock");
            jobs.get(&entry.job).cloned()
        };
        let Some(handle) = handle else { continue };
        if handle.cancel.load(Ordering::SeqCst) {
            continue; // cancelled while queued
        }
        *handle.state.lock().expect("state lock") = JobState::Running;
        let config = RunnerConfig {
            workers: shared.config.workers,
            snapshot_every: shared.config.snapshot_every,
            ..RunnerConfig::default()
        };
        // The job's cancel flag doubles as the graceful-shutdown signal:
        // a stopping server cancels the running job's *scheduling*, never
        // its durable results.
        let stop = &handle.cancel;
        let watchdog = {
            let shared = Arc::clone(shared);
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                while !handle.cancel.load(Ordering::SeqCst) {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        handle.cancel.store(true, Ordering::SeqCst);
                        return;
                    }
                    if *handle.state.lock().expect("state lock") != JobState::Running {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        };
        let outcome = run_campaign_telemetry(
            &handle.store,
            &FullRegistry,
            config,
            stop,
            Some(&shared.telemetry),
            |_| {},
        );
        let next = match outcome {
            Ok(RunOutcome::Complete) => JobState::Done,
            Ok(RunOutcome::Stopped) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Leave it queued on disk; the next start resumes it.
                    JobState::Queued
                } else {
                    JobState::Cancelled
                }
            }
            Err(err) => JobState::Failed(err.to_string()),
        };
        *handle.state.lock().expect("state lock") = next;
        let _ = watchdog.join();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        connections.retain(|c| !c.is_finished());
        match listener.accept() {
            Ok(Some(stream)) if connections.len() >= MAX_CONNECTIONS => refuse(stream),
            Ok(Some(stream)) => {
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || {
                    let _ = serve_connection(&shared, stream);
                }));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => break,
        }
    }
    for c in connections {
        let _ = c.join();
    }
}

/// Answer a connection past [`MAX_CONNECTIONS`] with one `protocol` error
/// naming the cap, in place of the hello, and close it.  The line fits in
/// a fresh socket's send buffer, so the accept loop never blocks on it.
fn refuse(mut stream: IoStream) {
    let err = CampaignError::Protocol(format!(
        "the server is at its cap of {MAX_CONNECTIONS} connections"
    ));
    let _ = stream.write_all(encode_line(&Response::from_error(&err)).as_bytes());
    let _ = stream.flush();
}

/// `read_line` capped at [`MAX_LINE_BYTES`] that keeps polling through
/// read timeouts so the thread notices server shutdown; a timeout mid-line
/// keeps accumulating into `line` (`read_until` leaves already-read bytes
/// in the buffer).  A line that reaches the cap without its newline is
/// answered on `writer` with one `protocol` error naming the cap, and
/// returned as that error, which closes the connection.
fn read_frame(
    shared: &Shared,
    reader: &mut BufReader<IoStream>,
    writer: &mut IoStream,
    line: &mut String,
) -> Result<usize, CampaignError> {
    loop {
        let room = MAX_LINE_BYTES.saturating_sub(line.len()) as u64;
        match reader.by_ref().take(room).read_line(line) {
            Ok(_) if line.len() >= MAX_LINE_BYTES && !line.ends_with('\n') => {
                let err = CampaignError::Protocol(format!(
                    "request line longer than the {MAX_LINE_BYTES}-byte cap"
                ));
                writer.write_all(encode_line(&Response::from_error(&err)).as_bytes())?;
                writer.flush()?;
                return Err(err);
            }
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(0);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: IoStream) -> Result<(), CampaignError> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    // Handshake: server first, then the client's hello, majors must match.
    writer.write_all(encode_hello(&Hello::current()).as_bytes())?;
    writer.flush()?;
    let mut line = String::new();
    if read_frame(shared, &mut reader, &mut writer, &mut line)? == 0 {
        return Ok(()); // peer went away before the handshake
    }
    let theirs = decode_hello(&line)?;
    theirs.check_compatible()?;

    loop {
        line.clear();
        if read_frame(shared, &mut reader, &mut writer, &mut line)? == 0 {
            return Ok(()); // clean EOF (or shutdown)
        }
        if line.trim().is_empty() {
            continue;
        }
        // Bad frames are answered, not fatal: the protocol promises the
        // connection survives unknown verbs and malformed requests.
        let response = match decode_line::<Request>(&line) {
            Ok(request) => handle_request(shared, request),
            Err(err) => Response::from_error(&err),
        };
        writer.write_all(encode_line(&response).as_bytes())?;
        writer.flush()?;
    }
}

fn handle_request(shared: &Arc<Shared>, request: Request) -> Response {
    let result = match request {
        Request::Submit { spec } => handle_submit(shared, *spec),
        Request::Status { job } => handle_status(shared, &job),
        Request::Results {
            job,
            cursor,
            max,
            merged,
        } => handle_results(shared, &job, cursor, max, merged),
        Request::Cancel { job } => handle_cancel(shared, &job),
        Request::Stats => handle_stats(shared),
    };
    result.unwrap_or_else(|err| Response::from_error(&err))
}

fn lookup(shared: &Arc<Shared>, job: &str) -> Result<Arc<JobHandle>, CampaignError> {
    shared
        .jobs
        .lock()
        .expect("jobs lock")
        .get(job)
        .cloned()
        .ok_or_else(|| CampaignError::State(format!("unknown job `{job}`")))
}

fn handle_submit(shared: &Arc<Shared>, spec: CampaignSpec) -> Result<Response, CampaignError> {
    spec.validate()?;
    let mut spec = spec;
    spec.migrate();
    let existing = {
        let jobs = shared.jobs.lock().expect("jobs lock");
        jobs.get(&spec.job).cloned()
    };
    if let Some(handle) = existing {
        if handle.spec != spec {
            return Err(CampaignError::State(format!(
                "job `{}` already exists with a different spec",
                spec.job
            )));
        }
        let (cells, complete) = {
            let store = handle.store.lock().expect("store lock");
            (store.cells().len() as u64, store.is_complete())
        };
        let state = handle.state.lock().expect("state lock").clone();
        if !complete && !matches!(state, JobState::Queued | JobState::Running) {
            // Re-attach to a cancelled/failed job: clear the flag, requeue.
            handle.cancel.store(false, Ordering::SeqCst);
            *handle.state.lock().expect("state lock") = JobState::Queued;
            shared.enqueue(&spec.job, spec.priority);
        }
        return Ok(Response::Submitted {
            job: spec.job,
            cells,
            resumed: true,
        });
    }
    let (mut store, resumed) = CampaignStore::open_or_create(&shared.config.store_root, &spec)?;
    store.attach_telemetry(Arc::clone(&shared.telemetry));
    let cells = store.cells().len() as u64;
    let complete = store.is_complete();
    let job = spec.job.clone();
    let priority = spec.priority;
    let handle = Arc::new(JobHandle {
        spec,
        store: Mutex::new(store),
        state: Mutex::new(if complete {
            JobState::Done
        } else {
            JobState::Queued
        }),
        cancel: AtomicBool::new(false),
    });
    shared
        .jobs
        .lock()
        .expect("jobs lock")
        .insert(job.clone(), handle);
    if !complete {
        shared.enqueue(&job, priority);
    }
    Ok(Response::Submitted {
        job,
        cells,
        resumed,
    })
}

fn handle_status(shared: &Arc<Shared>, job: &str) -> Result<Response, CampaignError> {
    let handle = lookup(shared, job)?;
    let store = handle.store.lock().expect("store lock");
    let state = handle.state.lock().expect("state lock");
    Ok(Response::Status(JobStatus {
        job: job.to_string(),
        state: state.name().to_string(),
        total: store.cells().len() as u64,
        completed: store.completed() as u64,
        next_seq: store.next_seq(),
        priority: handle.spec.priority,
    }))
}

fn handle_results(
    shared: &Arc<Shared>,
    job: &str,
    cursor: u64,
    max: u32,
    merged: bool,
) -> Result<Response, CampaignError> {
    // Page-size bounds are protocol errors, answered before any store
    // work.  `max: 0` used to be silently clamped to 1 — a page the
    // client never asked for, indistinguishable from a real one-record
    // page — and an unbounded `max` would buffer and serialize a whole
    // job's records for one request.
    if max == 0 {
        return Err(CampaignError::Protocol(
            "results page size 0 is meaningless (omit `max` for the default page)".into(),
        ));
    }
    if max > MAX_PAGE {
        return Err(CampaignError::Protocol(format!(
            "results page size {max} exceeds the {MAX_PAGE} cap \
             (page with the returned cursor instead)"
        )));
    }
    let handle = lookup(shared, job)?;
    let store = handle.store.lock().expect("store lock");
    if merged {
        let report = crate::scheduler::merged_report(&store)?;
        return Ok(Response::Merged {
            report: Box::new(report),
        });
    }
    let records = store.records();
    // Records are in strictly increasing `seq` order; page the suffix.
    let start = records.partition_point(|r| r.seq < cursor);
    let page: Vec<_> = records[start..]
        .iter()
        .take(max as usize)
        .cloned()
        .collect();
    let next_cursor = page
        .last()
        .map(|r| r.seq + 1)
        .unwrap_or_else(|| cursor.max(store.next_seq()));
    let complete = store.is_complete();
    let state = handle.state.lock().expect("state lock").clone();
    // `done` promises "no more records will ever arrive": either every
    // cell is durable, or the job will not be scheduled again.
    let done = complete || matches!(state, JobState::Cancelled | JobState::Failed(_));
    Ok(Response::Results {
        records: page,
        cursor: next_cursor,
        total: store.next_seq(),
        done,
    })
}

/// Assemble the `stats` response from the process telemetry plus a walk
/// over the live job table.  Purely observational: takes the same locks
/// as `status`, mutates nothing.
fn handle_stats(shared: &Arc<Shared>) -> Result<Response, CampaignError> {
    let telemetry = &shared.telemetry;
    let cells_per_s = telemetry.cells_per_s();
    let (fsyncs, p50_ns, p90_ns, p99_ns) = telemetry.fsync_summary_ns();

    let handles: Vec<(String, Arc<JobHandle>)> = {
        let jobs = shared.jobs.lock().expect("jobs lock");
        jobs.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    };
    let mut jobs = Vec::with_capacity(handles.len());
    let mut cells_pending = 0u64;
    let mut running_jobs = 0u64;
    for (name, handle) in handles {
        let (total, completed) = {
            let store = handle.store.lock().expect("store lock");
            (store.cells().len() as u64, store.completed() as u64)
        };
        let state = handle.state.lock().expect("state lock").clone();
        let remaining = total - completed;
        let running = state == JobState::Running;
        if running {
            running_jobs += 1;
        }
        if matches!(state, JobState::Queued | JobState::Running) {
            cells_pending += remaining;
        }
        // ETA only when it is a finite, meaningful number: serde_json
        // cannot represent NaN/Inf, and a non-finite ETA (rate denormal,
        // huge remaining count) would poison the whole stats payload.
        let eta_s = if running && cells_per_s > 0.0 && remaining > 0 {
            Some(remaining as f64 / cells_per_s).filter(|eta| eta.is_finite())
        } else {
            None
        };
        jobs.push(JobTelemetry {
            job: name,
            state: state.name().to_string(),
            completed,
            total,
            eta_s,
        });
    }
    let queue_depth = shared.queue.lock().expect("queue lock").len() as u64;
    Ok(Response::Stats(ServerStats {
        uptime_s: telemetry.uptime_s(),
        workers: shared.config.workers as u64,
        busy_workers: telemetry.busy_workers(),
        queue_depth,
        running_jobs,
        cells_completed: telemetry.cells_done(),
        cells_pending,
        cells_per_s,
        fsyncs,
        fsync_p50_us: p50_ns / 1_000,
        fsync_p90_us: p90_ns / 1_000,
        fsync_p99_us: p99_ns / 1_000,
        jobs,
    }))
}

fn handle_cancel(shared: &Arc<Shared>, job: &str) -> Result<Response, CampaignError> {
    let handle = lookup(shared, job)?;
    handle.cancel.store(true, Ordering::SeqCst);
    {
        let mut queue = shared.queue.lock().expect("queue lock");
        queue.retain(|e| e.job != job);
    }
    let mut state = handle.state.lock().expect("state lock");
    if matches!(*state, JobState::Queued) {
        *state = JobState::Cancelled;
    }
    // A Running job flips to Cancelled when the scheduler drains it.
    Ok(Response::Cancelled {
        job: job.to_string(),
    })
}
