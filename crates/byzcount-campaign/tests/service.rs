//! In-process server tests: the full protocol loop over a real TCP
//! socket (ephemeral port), graceful shutdown mid-campaign, and the
//! restore-on-start resume path.

use byzcount_analysis::campaign::FullRegistry;
use byzcount_campaign::client::Client;
use byzcount_campaign::server::{CampaignServer, ServerConfig};
use byzcount_campaign::spec::CampaignSpec;
use byzcount_core::sim::{
    execute_batch, AdversarySpec, BatchSpec, EngineSpec, ParamsSpec, PlacementSpec, RunSpec,
    SeedPolicy, TopologySpec, WorkloadSpec, SPEC_VERSION,
};
use netsim_faults::FaultSpec;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn batch(seed_count: u32) -> BatchSpec {
    BatchSpec {
        version: SPEC_VERSION,
        run: RunSpec {
            version: SPEC_VERSION,
            topology: TopologySpec::SmallWorld { n: 64, d: 6 },
            workload: WorkloadSpec::Basic,
            placement: PlacementSpec::None,
            adversary: AdversarySpec::Null,
            fault: FaultSpec::None,
            engine: EngineSpec::Sync,
            params: ParamsSpec::Derived {
                delta: 0.6,
                epsilon: 0.1,
            },
            seed: 23,
            max_rounds: None,
        },
        seeds: SeedPolicy::Sequence {
            base: 23,
            count: seed_count,
        },
        sizes: None,
    }
}

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("byzcount-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(store: &Path) -> ServerConfig {
    ServerConfig {
        store_root: store.to_path_buf(),
        workers: 1,
        snapshot_every: 1,
    }
}

fn wait_done(client: &mut Client, job: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(job).expect("status");
        if status.state == "done" {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job `{job}` never finished: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn submit_stream_merge_over_tcp() {
    let store = tmp_store("tcp");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let spec = CampaignSpec::for_batch("tcp-job", batch(3));

    let mut client = Client::connect(server.addr()).unwrap();
    let (cells, resumed) = client.submit(&spec).unwrap();
    assert_eq!(cells, 3);
    assert!(!resumed);

    // Stream while the job runs: every record exactly once, seqs 0..3.
    let mut seqs = Vec::new();
    let cursor = client.watch("tcp-job", 0, 1, |r| seqs.push(r.seq)).unwrap();
    assert_eq!(seqs, vec![0, 1, 2]);
    assert_eq!(cursor, 3);

    // A second reader paging from an interior cursor sees only the tail.
    let (records, next, done) = client.results("tcp-job", 2, 10).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].seq, 2);
    assert_eq!(next, 3);
    assert!(done);

    // Merged report == uninterrupted one-shot, byte for byte.
    let merged = client.merged("tcp-job").unwrap();
    let oneshot = execute_batch(&spec.batch, &FullRegistry).unwrap();
    assert_eq!(merged.to_json(), oneshot.to_json());

    // Unknown jobs and premature merges answer in-band (connection stays
    // usable afterwards).
    assert!(client.status("no-such-job").is_err());
    assert!(client.status("tcp-job").is_ok(), "connection survived");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn duplicate_submit_attaches_and_conflicting_spec_is_rejected() {
    let store = tmp_store("dup");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let spec = CampaignSpec::for_batch("dup-job", batch(2));

    let mut client = Client::connect(server.addr()).unwrap();
    client.submit(&spec).unwrap();
    let mut client2 = Client::connect(server.addr()).unwrap();
    let (cells, resumed) = client2.submit(&spec).unwrap();
    assert_eq!(cells, 2);
    assert!(resumed, "identical resubmission attaches");

    let mut conflicting = CampaignSpec::for_batch("dup-job", batch(4));
    conflicting.priority = 9;
    let err = client2.submit(&conflicting).unwrap_err();
    assert!(
        err.to_string().contains("different spec"),
        "conflict must be explicit: {err}"
    );

    wait_done(&mut client, "dup-job");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn shutdown_mid_campaign_then_restart_resumes_to_identical_result() {
    let store = tmp_store("restart");
    let spec = CampaignSpec::for_batch("restart-job", batch(6));

    // Round 1: submit, let at least one cell land, shut down gracefully.
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.submit(&spec).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let landed = loop {
        let status = client.status("restart-job").unwrap();
        if status.completed >= 1 {
            break status.completed;
        }
        assert!(Instant::now() < deadline, "no progress before shutdown");
        std::thread::sleep(Duration::from_millis(10));
    };
    drop(client);
    server.shutdown();

    // Round 2: a fresh server over the same store adopts the job and
    // finishes it without re-running durable cells.
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let status = client.status("restart-job").expect("job restored on boot");
    assert!(
        status.completed >= landed,
        "durable cells survived the restart"
    );
    wait_done(&mut client, "restart-job");

    let merged = client.merged("restart-job").unwrap();
    let oneshot = execute_batch(&spec.batch, &FullRegistry).unwrap();
    assert_eq!(
        merged.to_json(),
        oneshot.to_json(),
        "restart + resume must be invisible in the merged bytes"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn page_size_bounds_are_protocol_errors_not_silent_clamps() {
    let store = tmp_store("page");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let spec = CampaignSpec::for_batch("page-job", batch(3));

    let mut client = Client::connect(server.addr()).unwrap();
    client.submit(&spec).unwrap();
    wait_done(&mut client, "page-job");

    // `max: 0` used to be silently clamped to a one-record page; it is
    // now an in-band protocol error.
    let err = client.results("page-job", 0, 0).unwrap_err();
    assert!(
        err.to_string().contains("page size 0"),
        "zero page must be explicit: {err}"
    );
    // So is a page beyond the documented cap.
    let err = client
        .results("page-job", 0, byzcount_campaign::protocol::MAX_PAGE + 1)
        .unwrap_err();
    assert!(
        err.to_string().contains("exceeds"),
        "over-cap page must be explicit: {err}"
    );
    // Both answered in-band: the connection stays usable, the cap itself
    // is accepted, and paging still yields every record.
    let (records, next, done) = client
        .results("page-job", 0, byzcount_campaign::protocol::MAX_PAGE)
        .unwrap();
    assert_eq!(records.len(), 3);
    assert_eq!(next, 3);
    assert!(done);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn binding_a_live_unix_socket_fails_loudly_but_a_stale_one_is_reclaimed() {
    let dir = tmp_store("unix-bind");
    std::fs::create_dir_all(&dir).unwrap();
    let addr = format!("unix:{}", dir.join("svc.sock").display());

    // A second server must NOT unlink the first one's live socket out
    // from under it (clients would hang; both would claim the store).
    let server = CampaignServer::spawn(&addr, config(&dir.join("store-a"))).unwrap();
    let err = match CampaignServer::spawn(&addr, config(&dir.join("store-b"))) {
        Err(err) => err,
        Ok(_) => panic!("second server bound over a live socket"),
    };
    assert!(
        err.to_string().contains("in use"),
        "live socket must be refused, not stolen: {err}"
    );

    // The first server kept working throughout.
    let mut client = Client::connect(server.addr()).unwrap();
    let spec = CampaignSpec::for_batch("bind-job", batch(1));
    client.submit(&spec).unwrap();
    wait_done(&mut client, "bind-job");
    drop(client);
    server.shutdown();

    // A socket file nobody is accepting on — the killed-server leftover —
    // is stale and gets reclaimed on the next bind.
    assert!(
        dir.join("svc.sock").exists(),
        "precondition: shutdown leaves the socket file behind"
    );
    let server = CampaignServer::spawn(&addr, config(&dir.join("store-a"))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(
        client.status("bind-job").is_ok(),
        "job restored over the reclaimed socket"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_scheduling_and_resubmit_revives() {
    let store = tmp_store("cancel");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let spec = CampaignSpec::for_batch("c-job", batch(4));

    let mut client = Client::connect(server.addr()).unwrap();
    client.submit(&spec).unwrap();
    client.cancel("c-job").unwrap();

    // The job settles into a non-running state; durable records stay.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        let status = client.status("c-job").unwrap();
        if status.state == "cancelled" || status.state == "done" {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "cancel never settled: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    // Streaming a cancelled job terminates (done covers "will never grow").
    let mut count = 0u64;
    client.watch("c-job", 0, 8, |_| count += 1).unwrap();
    assert_eq!(count, status.completed);

    if status.state == "cancelled" {
        // Resubmitting the identical spec revives the job to completion.
        let (_, resumed) = client.submit(&spec).unwrap();
        assert!(resumed);
        wait_done(&mut client, "c-job");
        let merged = client.merged("c-job").unwrap();
        let oneshot = execute_batch(&spec.batch, &FullRegistry).unwrap();
        assert_eq!(merged.to_json(), oneshot.to_json());
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn out_of_range_params_are_refused_at_submit_and_the_server_keeps_serving() {
    // Such a batch used to be accepted; its first cell then panicked in a
    // worker and the job stayed `running` forever.
    let store = tmp_store("bad-params");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let mut bad = batch(2);
    bad.run.params = ParamsSpec::Derived {
        delta: 0.6,
        epsilon: 1.0,
    };

    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .submit(&CampaignSpec::for_batch("bad-job", bad))
        .unwrap_err();
    assert!(
        err.to_string().contains("epsilon must lie in (0, 1)"),
        "the refusal must name the parameter: {err}"
    );
    assert!(client.status("bad-job").is_err(), "no job was created");
    let stats = client.stats().expect("the server still answers");
    assert_eq!(stats.running_jobs, 0);
    assert_eq!(stats.cells_pending, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn an_over_long_request_line_is_answered_then_closed_and_the_server_keeps_serving() {
    use byzcount_campaign::net::IoStream;
    use byzcount_campaign::protocol::{decode_line, encode_hello, Hello, Response, MAX_LINE_BYTES};
    use std::io::{BufRead, BufReader, Write};

    let store = tmp_store("long-line");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    let stream = IoStream::connect(server.addr()).unwrap();
    // A server that kept reading would leave this client waiting forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    writer
        .write_all(encode_hello(&Hello::current()).as_bytes())
        .unwrap();

    // One byte past the cap, and no newline.  The server may answer and
    // close as soon as the cap is reached, so the last byte can meet a
    // closed connection.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..MAX_LINE_BYTES / chunk.len() {
        writer.write_all(&chunk).unwrap();
    }
    let _ = writer.write_all(b"x");

    line.clear();
    reader.read_line(&mut line).expect("the server answers");
    match decode_line::<Response>(&line).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, "protocol");
            assert!(
                message.contains(&MAX_LINE_BYTES.to_string()),
                "the error must name the cap: {message}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    // Closing with the last byte unread may reset the connection rather
    // than end it; either way nothing more arrives.
    line.clear();
    match reader.read_line(&mut line) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the server must close the connection: {other:?}, {line:?}"),
    }

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().expect("a new connection is still served");
    assert_eq!(stats.running_jobs, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn connections_past_the_cap_are_refused_and_served_again_once_one_closes() {
    use byzcount_campaign::protocol::MAX_CONNECTIONS;

    let store = tmp_store("connection-cap");
    let server = CampaignServer::spawn("127.0.0.1:0", config(&store)).unwrap();
    // `connect` returns once the server's hello arrives, so each of these
    // has its own handler thread before the next one dials.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|i| Client::connect(server.addr()).unwrap_or_else(|e| panic!("connection {i}: {e}")))
        .collect();

    let refused = Client::connect(server.addr())
        .err()
        .expect("a connection past the cap is refused");
    assert!(
        refused.to_string().contains(&MAX_CONNECTIONS.to_string()),
        "the refusal must name the cap: {refused}"
    );
    let stats = held[0]
        .stats()
        .expect("the held connections are still served");
    assert_eq!(stats.running_jobs, 0);

    // Closing one frees a slot once the accept loop reaps its finished
    // handler, on its next pass.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        match Client::connect(server.addr()) {
            Ok(client) => break client,
            Err(e) => {
                assert!(Instant::now() < deadline, "no slot came free: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    client.stats().expect("the new connection is served");

    drop(held);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}
