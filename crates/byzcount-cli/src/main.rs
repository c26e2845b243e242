//! Command-line driver for the Byzantine counting experiments and for
//! executing serialized run specifications.
//!
//! ```text
//! byzcount-cli <experiment> [options]     # regenerate paper tables
//! byzcount-cli run <spec.json|-> [--trace F] [--profile] [--workers A1,A2]
//! byzcount-cli shard-worker --listen <addr> # serve distributed shard sessions
//! byzcount-cli template [run|batch|faulty|async] # print an example spec
//! byzcount-cli bench [--smoke] [--out F] [--profile] # standardized perf suite
//! byzcount-cli trace-check <trace.ndjson> # validate a trace file
//! byzcount-cli serve <addr> [--store DIR] [--workers N] [--snapshot-every K]
//! byzcount-cli submit <addr> <spec.json|-> [--job ID] [--priority P]
//! byzcount-cli status <addr> <job>
//! byzcount-cli stats <addr>
//! byzcount-cli watch <addr> <job> [--cursor C] [--page N] [--merged]
//!
//! Experiments: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 all
//!
//! Options:
//!   --quick            small workload (default)
//!   --standard         the workload recorded in EXPERIMENTS.md
//!   --n <list>         comma-separated network sizes, e.g. 512,1024,4096
//!   --d <int>          degree of the base expander H
//!   --delta <float>    fault exponent (Byzantine budget n^{1-delta})
//!   --epsilon <float>  error parameter
//!   --trials <int>     trials per configuration
//!   --seed <int>       master seed
//!   --json             emit JSON instead of Markdown tables
//!
//! `run` reads a JSON `RunSpec` (or `BatchSpec` — autodetected by its
//! `seeds` field) from the given file or stdin (`-`), executes it with the
//! full scenario registry, and prints the `RunReport` / `BatchReport` JSON
//! to stdout.  The same spec and seed always produce byte-identical output.
//! `--workers addr1,addr2,...` makes distributed-engine runs (`"engine":
//! {"distributed": ...}` / `--engine dist-S`) dial remote `shard-worker`
//! processes instead of spawning in-process pipe threads — shard `s`
//! connects to address `s % len`.  Pure transport policy: the spec never
//! records the transport and the report is byte-identical either way.
//!
//! `shard-worker --listen <addr>` runs a stateless shard-worker process:
//! it accepts connections on a Unix (`unix:/path.sock`) or TCP
//! (`host:port`) socket, prints `listening on <addr>` to stdout once
//! bound, and serves each connection's shard session on its own thread
//! (the coordinator's hello carries the shard assignment and the run's
//! spec, so one worker fleet serves any sequence of runs).
//! `--trace FILE` additionally writes an NDJSON structured trace of the
//! run (Chrome trace-event format, byte-deterministic for equal
//! spec+seed; load it in `chrome://tracing` or Perfetto) and `--profile`
//! prints a phase-level timing table (count / total / p50 / p90 / p99 per
//! engine phase) to stderr.  Both are observation-only: the report JSON
//! on stdout is byte-identical with or without them.  `trace-check`
//! validates a trace file — every line a known event, spans balanced,
//! `ts` strictly increasing — and prints its counter totals.
//!
//! `bench` runs the standardized round-loop performance suite (counting +
//! all four baselines × {clean, faulty} networks × the configured sizes)
//! and writes machine-readable JSON — see `bench::suite` and the README's
//! "Performance" section.  Options: `--smoke` (n = 256, one repeat),
//! `--sizes 1024,4096`, `--repeats N`, `--seed N`, `--out FILE` (default
//! `BENCH_roundloop.json`; `-` = stdout only), `--baseline PREV.json`
//! (join a previous report to compute per-cell speedups), `--shards S`
//! (run every cell on the sharded engine with `S` shards — byte-identical
//! results, different core mapping), `--engine sync|async|sharded-S`
//! (general engine selection; `async` is the event-driven engine with
//! uniform clocks — byte-identical results, event-queue execution),
//! `--profile` (attach a phase profiler to one *extra* run per cell and
//! embed the phase table in each entry's `phases` block — the timed
//! repeats that feed the throughput columns never carry a recorder).
//!
//! `stats` asks a campaign server for live telemetry (protocol minor 1):
//! uptime, worker utilization, queue depth, cells/s, WAL fsync latency
//! percentiles, and per-job progress with an ETA.
//!
//! `serve` runs the campaign service (see the README's "Campaign service"
//! section): a WAL-checkpointed, resumable sweep scheduler behind a
//! line-delimited JSON protocol on a Unix (`unix:/path.sock`) or TCP
//! (`host:port`) socket.  `submit` sends a spec — a `CampaignSpec`, or a
//! bare `BatchSpec`/`RunSpec` that is wrapped automatically — and `watch`
//! streams the job's records as NDJSON from a cursor (`--merged` instead
//! prints the final merged `BatchReport`, byte-identical to what
//! `byzcount-cli run` prints for the same batch).
//! ```

use byzcount_analysis::experiments::{self, ExperimentConfig};
use byzcount_analysis::{campaign, Table};
use byzcount_core::sim::{
    AdversarySpec, BatchSpec, ClockPlan, EngineSpec, FaultSpec, ParamsSpec, PlacementSpec, RunSpec,
    SeedPolicy, TopologySpec, WorkloadSpec, SPEC_VERSION,
};
use netsim_trace::{check_trace, Fanout, PhaseProfiler, Recorder, TraceWriter};
use std::env;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: byzcount-cli <e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e12|e13|all> \
         [--quick|--standard] [--n 512,1024] [--d 6] [--delta 0.6] \
         [--epsilon 0.1] [--trials 3] [--seed 42] [--json]\n\
         \x20      byzcount-cli run <spec.json|-> [--trace FILE] [--profile] \
         [--workers ADDR1,ADDR2,...]\n\
         \x20      byzcount-cli shard-worker --listen <unix:PATH|HOST:PORT>\n\
         \x20      byzcount-cli template [run|batch|faulty|async]\n\
         \x20      byzcount-cli bench [--smoke] [--sizes 1024,4096] \
         [--repeats 3] [--seed N] [--out FILE|-] [--baseline PREV.json] \
         [--shards S] [--engine sync|async|sharded-S|sharded-async-S|dist-S] [--profile]\n\
         \x20      byzcount-cli trace-check <trace.ndjson>\n\
         \x20      byzcount-cli serve <unix:PATH|HOST:PORT> [--store DIR] \
         [--workers N] [--snapshot-every K]\n\
         \x20      byzcount-cli submit <addr> <spec.json|-> [--job ID] [--priority P]\n\
         \x20      byzcount-cli status <addr> <job>\n\
         \x20      byzcount-cli stats <addr>\n\
         \x20      byzcount-cli watch <addr> <job> [--cursor C] [--page N] [--merged]"
    );
    ExitCode::from(2)
}

/// Parse a `--engine` value: `sync`, `async` (event-driven engine,
/// uniform clocks), `sharded-S`, `sharded-async-S` (per-shard clock
/// domains, uniform clocks) or `dist-S` (shard workers over the binary
/// wire protocol).
fn parse_engine(value: &str) -> Option<EngineSpec> {
    match value {
        "sync" => Some(EngineSpec::Sync),
        "async" => Some(EngineSpec::asynchronous()),
        other => {
            if let Some(s) = other.strip_prefix("sharded-async-") {
                s.parse::<u32>()
                    .ok()
                    .filter(|&shards| shards >= 1)
                    .map(|shards| EngineSpec::ShardedAsync {
                        shards,
                        clocks: ClockPlan::Uniform,
                    })
            } else if let Some(s) = other.strip_prefix("dist-") {
                s.parse::<u32>()
                    .ok()
                    .filter(|&shards| shards >= 1)
                    .map(|shards| EngineSpec::Distributed { shards })
            } else {
                other
                    .strip_prefix("sharded-")
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&shards| shards >= 1)
                    .map(|shards| EngineSpec::Sharded { shards })
            }
        }
    }
}

fn cmd_bench(args: &[String]) -> ExitCode {
    // `--smoke` is a preset, applied first regardless of argument order, so
    // it never silently discards an explicit `--sizes`/`--repeats`/`--seed`
    // given elsewhere on the command line.
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        bench::suite::BenchConfig::smoke()
    } else {
        bench::suite::BenchConfig::standard()
    };
    let mut out = "BENCH_roundloop.json".to_string();
    let mut baseline: Option<(String, bench::suite::BenchReport)> = None;
    // `--shards` and `--engine` both select the engine; a command line
    // naming more than one selection is ambiguous (last-wins would depend
    // on argument order) and is rejected instead.
    let mut engine_flag: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {}
            "--profile" => cfg.profile = true,
            "--sizes" | "--repeats" | "--seed" | "--out" | "--baseline" | "--shards"
            | "--engine" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--sizes" => {
                        let parsed: Result<Vec<usize>, _> =
                            value.split(',').map(|s| s.trim().parse()).collect();
                        match parsed {
                            Ok(sizes) if !sizes.is_empty() => cfg.sizes = sizes,
                            _ => {
                                eprintln!("byzcount-cli: invalid --sizes value `{value}`");
                                return usage();
                            }
                        }
                    }
                    "--repeats" => match value.parse::<usize>() {
                        Ok(repeats) if repeats >= 1 => cfg.repeats = repeats,
                        _ => {
                            eprintln!("byzcount-cli: invalid --repeats value `{value}`");
                            return usage();
                        }
                    },
                    "--seed" => match value.parse() {
                        Ok(seed) => cfg.seed = seed,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --seed value `{value}`");
                            return usage();
                        }
                    },
                    "--out" => out = value.clone(),
                    flag @ ("--shards" | "--engine") => {
                        if let Some(previous) = engine_flag {
                            eprintln!(
                                "byzcount-cli: {flag} conflicts with {previous}: \
                                 give exactly one engine selection"
                            );
                            return usage();
                        }
                        engine_flag = Some(if flag == "--shards" {
                            "--shards"
                        } else {
                            "--engine"
                        });
                        match flag {
                            "--shards" => match value.parse::<u32>() {
                                Ok(shards) if shards >= 1 => {
                                    cfg.engine = EngineSpec::Sharded { shards };
                                }
                                _ => {
                                    eprintln!("byzcount-cli: invalid --shards value `{value}`");
                                    return usage();
                                }
                            },
                            _ => match parse_engine(value) {
                                Some(engine) => cfg.engine = engine,
                                None => {
                                    eprintln!("byzcount-cli: invalid --engine value `{value}`");
                                    return usage();
                                }
                            },
                        }
                    }
                    "--baseline" => {
                        let text = match std::fs::read_to_string(value) {
                            Ok(text) => text,
                            Err(err) => {
                                eprintln!("byzcount-cli: cannot read baseline {value}: {err}");
                                return ExitCode::FAILURE;
                            }
                        };
                        match bench::suite::BenchReport::from_json(&text) {
                            Ok(report) => baseline = Some((value.clone(), report)),
                            Err(err) => {
                                eprintln!("byzcount-cli: bad baseline {value}: {err}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    _ => unreachable!(),
                }
                i += 1;
            }
            other => {
                eprintln!("unknown bench option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    let suite = bench::suite::run_suite(&cfg, |entry| {
        eprintln!(
            "bench {:>20} {:>6} n={:<6} {:>10.1} ms  {:>9.1} rounds/s  {:>12.0} msg/s",
            entry.workload,
            entry.network,
            entry.n,
            entry.wall_ms,
            entry.rounds_per_s,
            entry.messages_per_s
        );
    });
    let mut suite = match suite {
        Ok(suite) => suite,
        Err(err) => {
            eprintln!("byzcount-cli: bench failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((label, base)) = &baseline {
        suite.apply_baseline(base, label);
    }
    let json = suite.to_json();
    // The suite's own completeness check: every cell present, sane numbers,
    // and the JSON parses back.  CI's bench smoke step relies on this.
    if let Err(err) = bench::suite::BenchReport::from_json(&json)
        .map_err(|e| e.to_string())
        .and_then(|parsed| parsed.validate_complete())
    {
        eprintln!("byzcount-cli: bench report failed validation: {err}");
        return ExitCode::FAILURE;
    }
    if out == "-" {
        println!("{json}");
    } else if let Err(err) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("byzcount-cli: cannot write {out}: {err}");
        return ExitCode::FAILURE;
    } else {
        eprintln!("bench report written to {out}");
    }
    ExitCode::SUCCESS
}

/// An example spec users can start from (also exercised by the test suite).
fn template_run_spec() -> RunSpec {
    RunSpec {
        version: SPEC_VERSION,
        topology: TopologySpec::SmallWorld { n: 1024, d: 6 },
        workload: WorkloadSpec::Byzantine,
        placement: PlacementSpec::RandomBudget { delta: 0.6 },
        adversary: AdversarySpec::Combined,
        fault: FaultSpec::None,
        engine: EngineSpec::Sync,
        params: ParamsSpec::Derived {
            delta: 0.6,
            epsilon: 0.1,
        },
        seed: 42,
        max_rounds: None,
    }
}

/// A template showing the fault layer: Byzantine counting on a network
/// that also loses, delays and churns.
fn template_faulty_spec() -> RunSpec {
    RunSpec {
        fault: FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.05 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.2,
            },
            FaultSpec::Churn {
                rate: 0.002,
                downtime: 10,
            },
        ]),
        ..template_run_spec()
    }
}

/// A template showing the async engine: Byzantine counting where every
/// fourth node runs at a third of the network's clock speed.
fn template_async_spec() -> RunSpec {
    RunSpec {
        engine: EngineSpec::Async {
            clocks: byzcount_core::sim::ClockPlan::Stratified {
                every: 4,
                period: 3,
            },
        },
        ..template_run_spec()
    }
}

fn template_batch_spec() -> BatchSpec {
    BatchSpec {
        version: SPEC_VERSION,
        run: template_run_spec(),
        seeds: SeedPolicy::Sequence { base: 42, count: 8 },
        sizes: Some(vec![512, 1024, 2048]),
    }
}

/// Read a spec argument: a file path or `-` for stdin.
fn read_spec_text(path: &str) -> Result<String, ExitCode> {
    let mut text = String::new();
    let read_result = if path == "-" {
        std::io::stdin().read_to_string(&mut text).map(|_| ())
    } else {
        std::fs::read_to_string(path).map(|s| {
            text = s;
        })
    };
    match read_result {
        Ok(()) => Ok(text),
        Err(err) => {
            eprintln!("byzcount-cli: cannot read {path}: {err}");
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut trace_path: Option<String> = None;
    let mut profile = false;
    let mut workers: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => profile = true,
            "--trace" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                trace_path = Some(value.clone());
                i += 1;
            }
            "--workers" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                workers = value
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if workers.is_empty() {
                    eprintln!("byzcount-cli: invalid --workers value `{value}`");
                    return usage();
                }
                i += 1;
            }
            other => {
                eprintln!("unknown run option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    let text = match read_spec_text(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    // Observation-only instrumentation: the report printed to stdout is
    // byte-identical with or without these recorders installed.
    let writer: Option<Arc<TraceWriter>> = trace_path
        .as_ref()
        .map(|p| Arc::new(TraceWriter::to_path(p)));
    let profiler: Option<Arc<PhaseProfiler>> = profile.then(|| Arc::new(PhaseProfiler::new()));
    let mut fanout = Fanout::new();
    if let Some(w) = &writer {
        fanout.push(Arc::clone(w) as Arc<dyn Recorder>);
    }
    if let Some(p) = &profiler {
        fanout.push(Arc::clone(p) as Arc<dyn Recorder>);
    }
    let recorder: Option<&dyn Recorder> = if fanout.is_empty() {
        None
    } else {
        Some(&fanout)
    };
    // A BatchSpec is distinguished by its `seeds` field.
    let is_batch = serde_json::parse_value_complete(&text)
        .map(|v| v.field("seeds") != &serde_json::Value::Null)
        .unwrap_or(false);
    let outcome = if is_batch {
        BatchSpec::from_json(&text)
            .and_then(|spec| campaign::execute_batch_workers(&spec, recorder, &workers))
            .map(|report| report.to_json())
    } else {
        RunSpec::from_json(&text)
            .and_then(|spec| campaign::execute_workers(&spec, recorder, &workers))
            .map(|report| report.to_json())
    };
    if let Some(writer) = &writer {
        writer.finish(); // writes the sorted NDJSON trace to --trace FILE
    }
    if let Some(profiler) = &profiler {
        eprint!("{}", profiler.report().render());
    }
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("byzcount-cli: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `shard-worker --listen <addr>`: a stateless shard-worker process for
/// the distributed engine.  Each accepted connection is one shard
/// session — the coordinator's hello carries the shard assignment and
/// the run's serialized spec, the worker rebuilds its node chunk and
/// serves the round loop, then the connection closes.  Sessions run on
/// their own threads so a multi-shard coordinator (several shards
/// dialing the same worker) cannot deadlock the accept loop.
fn cmd_shard_worker(args: &[String]) -> ExitCode {
    let mut listen: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                listen = Some(value.clone());
                i += 1;
            }
            other => {
                eprintln!("unknown shard-worker option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    let Some(addr) = listen else {
        eprintln!("byzcount-cli: shard-worker requires --listen <addr>");
        return usage();
    };
    let listener = match byzcount_campaign::net::Listener::bind(&addr) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("byzcount-cli: cannot listen on {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match listener.local_addr() {
        Ok(bound) => bound,
        Err(err) => {
            eprintln!("byzcount-cli: cannot resolve bound address: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Coordinators (and tests) wait for this line before dialing; flush
    // so it is visible even through a pipe.
    println!("listening on {bound}");
    let _ = std::io::stdout().flush();
    loop {
        match listener.accept() {
            Ok(Some(mut stream)) => {
                std::thread::spawn(move || {
                    if let Err(err) =
                        byzcount_core::sim::serve_shard_conn(&mut stream, &campaign::FullRegistry)
                    {
                        // One bad session (version skew, mute peer, a
                        // coordinator that died) never takes the worker
                        // down; the fleet stays dialable.
                        eprintln!("byzcount-cli: shard session failed: {err}");
                    }
                });
            }
            Ok(None) => {} // nonblocking accept returned WouldBlock
            Err(err) => {
                eprintln!("byzcount-cli: accept failed on {bound}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
}

/// Derive a stable default job id from the batch's canonical JSON
/// (FNV-1a 64), so resubmitting the same sweep re-attaches to the same
/// durable state without the user inventing a name.
fn derive_job_id(batch: &BatchSpec) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in batch.to_json().bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("job-{hash:016x}")
}

/// Interpret a submitted spec: a full `CampaignSpec` (has `batch`), a
/// `BatchSpec` (has `seeds`) or a bare `RunSpec` — the latter two are
/// wrapped into a campaign automatically.
fn parse_campaign_spec(text: &str) -> Result<byzcount_campaign::CampaignSpec, String> {
    let value = serde_json::parse_value_complete(text).map_err(|e| e.to_string())?;
    if value.field("batch") != &serde_json::Value::Null {
        return byzcount_campaign::CampaignSpec::from_json(text).map_err(|e| e.to_string());
    }
    let batch = if value.field("seeds") != &serde_json::Value::Null {
        BatchSpec::from_json(text).map_err(|e| e.to_string())?
    } else {
        let run = RunSpec::from_json(text).map_err(|e| e.to_string())?;
        let seed = run.seed;
        BatchSpec {
            version: SPEC_VERSION,
            run,
            seeds: SeedPolicy::Fixed(seed),
            sizes: None,
        }
    };
    let job = derive_job_id(&batch);
    Ok(byzcount_campaign::CampaignSpec::for_batch(job, batch))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        return usage();
    };
    let mut config = byzcount_campaign::ServerConfig::new("campaigns");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--store" | "--workers" | "--snapshot-every" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--store" => config.store_root = value.into(),
                    "--workers" => match value.parse::<usize>() {
                        Ok(workers) if workers >= 1 => config.workers = workers,
                        _ => {
                            eprintln!("byzcount-cli: invalid --workers value `{value}`");
                            return usage();
                        }
                    },
                    "--snapshot-every" => match value.parse::<usize>() {
                        Ok(every) => config.snapshot_every = every,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --snapshot-every value `{value}`");
                            return usage();
                        }
                    },
                    _ => unreachable!(),
                }
                i += 1;
            }
            other => {
                eprintln!("unknown serve option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    match byzcount_campaign::CampaignServer::spawn(addr, config) {
        Ok(server) => {
            eprintln!("byzcount-cli: serving campaigns on {}", server.addr());
            server.join();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("byzcount-cli: cannot serve on {addr}: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let (Some(addr), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut job_override: Option<String> = None;
    let mut priority: Option<u8> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--job" | "--priority" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--job" => job_override = Some(value.clone()),
                    "--priority" => match value.parse::<u8>() {
                        Ok(p) => priority = Some(p),
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --priority value `{value}`");
                            return usage();
                        }
                    },
                    _ => unreachable!(),
                }
                i += 1;
            }
            other => {
                eprintln!("unknown submit option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    let text = match read_spec_text(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let mut spec = match parse_campaign_spec(&text) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("byzcount-cli: bad spec {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(job) = job_override {
        spec.job = job;
    }
    if let Some(p) = priority {
        spec.priority = p;
    }
    if let Err(err) = spec.validate() {
        eprintln!("byzcount-cli: bad spec {path}: {err}");
        return ExitCode::FAILURE;
    }
    let result = byzcount_campaign::Client::connect(addr)
        .and_then(|mut client| client.submit(&spec).map(|ok| (client, ok)));
    match result {
        Ok((_, (cells, resumed))) => {
            println!(
                "submitted {} ({} cells, {})",
                spec.job,
                cells,
                if resumed { "resumed" } else { "fresh" }
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("byzcount-cli: submit failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_status(args: &[String]) -> ExitCode {
    let (Some(addr), Some(job)) = (args.first(), args.get(1)) else {
        return usage();
    };
    if let Some(other) = args.get(2) {
        eprintln!("unknown status option: {other}");
        return usage();
    }
    let outcome =
        byzcount_campaign::Client::connect(addr).and_then(|mut client| client.status(job));
    match outcome {
        Ok(status) => {
            // One `key=value` line — trivially parseable from shell (the
            // CI resume leg polls `completed=`).
            println!(
                "job={} state={} completed={} total={} next_seq={} priority={}",
                status.job,
                status.state,
                status.completed,
                status.total,
                status.next_seq,
                status.priority
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("byzcount-cli: status failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        return usage();
    };
    if let Some(other) = args.get(1) {
        eprintln!("unknown stats option: {other}");
        return usage();
    }
    let outcome = byzcount_campaign::Client::connect(addr).and_then(|mut client| client.stats());
    match outcome {
        Ok(stats) => {
            // Shell-parseable `key=value` lines: one for the service, one
            // per job (the CI telemetry probe greps `cells_completed=`).
            println!(
                "uptime_s={:.1} workers={} busy_workers={} queue_depth={} \
                 running_jobs={} cells_completed={} cells_pending={} \
                 cells_per_s={:.2} fsyncs={} fsync_p50_us={} fsync_p90_us={} \
                 fsync_p99_us={}",
                stats.uptime_s,
                stats.workers,
                stats.busy_workers,
                stats.queue_depth,
                stats.running_jobs,
                stats.cells_completed,
                stats.cells_pending,
                stats.cells_per_s,
                stats.fsyncs,
                stats.fsync_p50_us,
                stats.fsync_p90_us,
                stats.fsync_p99_us
            );
            for job in &stats.jobs {
                let eta = job
                    .eta_s
                    .map(|s| format!("{s:.1}"))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "job={} state={} completed={} total={} eta_s={eta}",
                    job.job, job.state, job.completed, job.total
                );
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("byzcount-cli: stats failed: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_trace_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    if let Some(other) = args.get(1) {
        eprintln!("unknown trace-check option: {other}");
        return usage();
    }
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("byzcount-cli: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    match check_trace(&text) {
        Ok(check) => {
            println!("trace-ok events={} spans={}", check.events, check.spans);
            for (name, total) in &check.counters {
                println!("counter {name}={total}");
            }
            for (name, max) in &check.gauges {
                println!("gauge {name}={max}");
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("byzcount-cli: malformed trace {path}: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let (Some(addr), Some(job)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut cursor = 0u64;
    let mut page = 64u32;
    let mut merged = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--merged" => merged = true,
            "--cursor" | "--page" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--cursor" => match value.parse::<u64>() {
                        Ok(c) => cursor = c,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --cursor value `{value}`");
                            return usage();
                        }
                    },
                    "--page" => match value.parse::<u32>() {
                        Ok(p) if p >= 1 => page = p,
                        _ => {
                            eprintln!("byzcount-cli: invalid --page value `{value}`");
                            return usage();
                        }
                    },
                    _ => unreachable!(),
                }
                i += 1;
            }
            other => {
                eprintln!("unknown watch option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    let outcome = byzcount_campaign::Client::connect(addr).and_then(|mut client| {
        // Follow the cursor to the end of the job.  With `--merged`, the
        // records themselves stay quiet and only the final merged report
        // is printed (byte-identical to `byzcount-cli run` on the batch).
        client.watch(job, cursor, page, |record| {
            if !merged {
                let line = serde_json::to_string(record).expect("record serialization cannot fail");
                println!("{line}");
            }
        })?;
        if merged {
            let report = client.merged(job)?;
            println!("{}", report.to_json());
        }
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("byzcount-cli: watch failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Every experiment selector `main` accepts before option parsing.
const EXPERIMENTS: [&str; 14] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "all",
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let experiment = args[0].to_lowercase();
    if experiment == "run" {
        return cmd_run(&args[1..]);
    }
    if experiment == "shard-worker" {
        return cmd_shard_worker(&args[1..]);
    }
    if experiment == "bench" {
        return cmd_bench(&args[1..]);
    }
    if experiment == "trace-check" {
        return cmd_trace_check(&args[1..]);
    }
    if experiment == "serve" {
        return cmd_serve(&args[1..]);
    }
    if experiment == "submit" {
        return cmd_submit(&args[1..]);
    }
    if experiment == "status" {
        return cmd_status(&args[1..]);
    }
    if experiment == "stats" {
        return cmd_stats(&args[1..]);
    }
    if experiment == "watch" {
        return cmd_watch(&args[1..]);
    }
    if experiment == "template" {
        match args.get(1).map(String::as_str) {
            None | Some("run") => println!("{}", template_run_spec().to_json()),
            Some("batch") => println!("{}", template_batch_spec().to_json()),
            Some("faulty") => println!("{}", template_faulty_spec().to_json()),
            Some("async") => println!("{}", template_async_spec().to_json()),
            Some(other) => {
                eprintln!("unknown template: {other}");
                return usage();
            }
        }
        // Stdout stays pure JSON (pipe it straight into `run`); the usage
        // hint — including the observability flags — goes to stderr.
        eprintln!(
            "# execute: byzcount-cli run <spec.json|-> [--trace trace.ndjson] [--profile]\n\
             # --trace writes a deterministic NDJSON trace (validate: byzcount-cli trace-check)\n\
             # --profile prints per-phase timings to stderr; neither changes the report JSON"
        );
        return ExitCode::SUCCESS;
    }
    // Reject unknown subcommands *before* option parsing, so a misspelled
    // experiment name fails loudly instead of falling through the option
    // loop first (and a typo like `e14 --trials x` reports the real
    // problem, not a flag error).
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        eprintln!("unknown subcommand: {experiment}");
        return usage();
    }
    let mut cfg = ExperimentConfig::quick();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--standard" => cfg = ExperimentConfig::standard(),
            "--json" => json = true,
            "--n" | "--d" | "--delta" | "--epsilon" | "--trials" | "--seed" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                // A value that does not parse is an error, never a silent
                // fall-back to the default.
                match args[i].as_str() {
                    "--n" => {
                        let parsed: Result<Vec<usize>, _> =
                            value.split(',').map(|s| s.trim().parse()).collect();
                        match parsed {
                            Ok(n_values) if !n_values.is_empty() => cfg.n_values = n_values,
                            _ => {
                                eprintln!("byzcount-cli: invalid --n value `{value}`");
                                return usage();
                            }
                        }
                    }
                    "--d" => match value.parse() {
                        Ok(d) => cfg.d = d,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --d value `{value}`");
                            return usage();
                        }
                    },
                    "--delta" => match value.parse() {
                        Ok(delta) => cfg.delta = delta,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --delta value `{value}`");
                            return usage();
                        }
                    },
                    "--epsilon" => match value.parse() {
                        Ok(epsilon) => cfg.epsilon = epsilon,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --epsilon value `{value}`");
                            return usage();
                        }
                    },
                    "--trials" => match value.parse() {
                        Ok(trials) => cfg.trials = trials,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --trials value `{value}`");
                            return usage();
                        }
                    },
                    "--seed" => match value.parse() {
                        Ok(seed) => cfg.seed = seed,
                        Err(_) => {
                            eprintln!("byzcount-cli: invalid --seed value `{value}`");
                            return usage();
                        }
                    },
                    _ => unreachable!(),
                }
                i += 1;
            }
            other => {
                eprintln!("unknown option: {other}");
                return usage();
            }
        }
        i += 1;
    }
    let n_big = cfg.n_values.last().copied().unwrap_or(1024);
    let n_small = cfg.n_values.first().copied().unwrap_or(512);
    let tables: Vec<Table> = match experiment.as_str() {
        "e1" => vec![experiments::exp_theorem1(&cfg)],
        "e2" => vec![experiments::exp_rounds(&cfg)],
        "e3" => vec![experiments::exp_approx_factor(&cfg, &[6, 8, 10], n_small)],
        "e4" => vec![experiments::exp_baselines(&cfg, n_big)],
        "e5" => vec![experiments::exp_structure(&cfg)],
        "e6" => vec![experiments::exp_expander(&cfg)],
        "e7" => vec![experiments::exp_discovery(&cfg)],
        "e8" => vec![experiments::exp_fakechain(&cfg, n_big.min(2048))],
        "e9" => vec![experiments::exp_core(&cfg, n_big.min(2048))],
        "e10" => vec![experiments::exp_phases(&cfg, n_big.min(2048))],
        "e11" => vec![experiments::exp_placement(&cfg, n_big.min(2048))],
        "e12" => vec![experiments::exp_degradation(&cfg)],
        // Scale study: quadruple the largest configured size, capped at the
        // standard study's n = 32768 (use `--n` to go further).
        "e13" => vec![experiments::exp_scale(
            &cfg,
            (n_big * 4).clamp(1024, 32768).max(n_big),
        )],
        "all" => experiments::run_all(&cfg),
        _ => return usage(),
    };
    for table in &tables {
        if json {
            println!("{}", table.to_json());
        } else {
            println!("{}", table.to_markdown());
        }
    }
    ExitCode::SUCCESS
}
