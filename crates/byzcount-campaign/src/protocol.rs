//! The line-delimited JSON wire protocol of the campaign service.
//!
//! Every frame is one compact JSON object on one `\n`-terminated line,
//! externally tagged by its verb: `{"submit": {...}}`, `{"status":
//! {...}}`, … .  A connection opens with a **hello handshake**: the
//! server sends its `{"hello": {...}}` first, the client answers with
//! its own.  Compatibility is decided per the usual major/minor rules:
//!
//! * different `proto_major` → incompatible, the peer must close;
//! * different `proto_minor` → compatible — a *future* minor may add
//!   verbs or fields, and this implementation tolerates both (unknown
//!   object fields are ignored; an unknown verb draws an `error`
//!   response, not a disconnect).
//!
//! Requests and responses are hand-decoded from the self-describing
//! [`serde::Value`] tree so malformed frames and unknown verbs produce
//! clean errors instead of panics — the property fuzz suite feeds this
//! parser arbitrary bytes.
//!
//! Results are paged with a **cursor**: records carry the store's
//! monotone `seq` number, a `results` request names the first `seq` it
//! has not yet seen, and the response's `cursor` is the next value to
//! ask for.  Polling from cursor 0 to `done` therefore yields every
//! record exactly once, in durable order, even while the job is running.

use crate::error::CampaignError;
use crate::spec::CampaignSpec;
use crate::wal::CellRecord;
use byzcount_core::sim::{BatchReport, SPEC_VERSION};
use serde::{Deserialize, Map, Serialize, Value};

/// Protocol major version: peers must match exactly.
pub const PROTO_MAJOR: u32 = 1;
/// Protocol minor version: peers may differ (additive changes only).
/// Minor 1 added the `stats` verb (live service telemetry).
pub const PROTO_MINOR: u32 = 1;
/// Default page size of a `results` request that names none.
pub const DEFAULT_PAGE: u32 = 64;
/// Hard page-size ceiling of a `results` request.  A page is built and
/// serialized in memory before anything is written back, so an unbounded
/// `max` would let one request buffer an entire job's records; larger
/// requests are rejected (the cursor loop makes more pages cheap).
pub const MAX_PAGE: u32 = 4096;
/// Longest frame line the server reads, newline included.  A line is
/// buffered whole before it is parsed, so without a cap a peer that never
/// sends a newline would grow one buffer until the server ran out of
/// memory.  Past the cap the server answers one `protocol` error naming
/// it and closes the connection.  The ceiling matches the workspace's
/// other frame caps (`netsim_wire::MAX_FRAME_BYTES`,
/// [`MAX_RECORD_BYTES`](crate::wal::MAX_RECORD_BYTES)).
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;
/// Most connections the server serves at once.  Each connection gets its
/// own handler thread, so without a cap a peer that kept opening
/// connections would exhaust the server's threads.  A connection past the
/// cap is answered one `protocol` error naming it, in place of the hello,
/// and closed; the connections already open are served as before.
pub const MAX_CONNECTIONS: usize = 64;

/// The handshake frame body (sent by both peers, server first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Wire-format major version; must equal the peer's.
    pub proto_major: u32,
    /// Wire-format minor version; informational.
    pub proto_minor: u32,
    /// The sender's run-spec schema version.
    pub spec_version: u32,
}

impl Hello {
    /// This implementation's hello.
    pub fn current() -> Self {
        Hello {
            proto_major: PROTO_MAJOR,
            proto_minor: PROTO_MINOR,
            spec_version: SPEC_VERSION,
        }
    }

    /// Apply the compatibility rules to a peer's hello.
    pub fn check_compatible(&self) -> Result<(), CampaignError> {
        if self.proto_major != PROTO_MAJOR {
            return Err(CampaignError::Protocol(format!(
                "incompatible protocol major {} (this side speaks {PROTO_MAJOR})",
                self.proto_major
            )));
        }
        // A differing minor — including a future one — is fine by
        // construction: minors only add.  The spec schema is a separate
        // axis: a peer speaking a *newer* run-spec schema must be turned
        // away here, at handshake time, or its submits would fail
        // mid-stream with a parse error ("newer than supported version")
        // after the session looked healthy.  The rule is shared with the
        // binary wire layer.
        netsim_wire::check_spec_version(SPEC_VERSION, self.spec_version)
            .map_err(|e| CampaignError::Protocol(format!("incompatible hello: {e}")))
    }
}

/// Client → server verbs.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit (or re-attach to) a job.
    Submit {
        /// The campaign to run (boxed: it dwarfs every other verb).
        spec: Box<CampaignSpec>,
    },
    /// Ask for a job's progress counters.
    Status {
        /// Job id.
        job: String,
    },
    /// Page durable records with `seq >= cursor` (at most `max`), or the
    /// merged batch report once done.
    Results {
        /// Job id.
        job: String,
        /// First unseen record sequence number (0 = from the start).
        cursor: u64,
        /// Page size cap (server may return fewer).
        max: u32,
        /// Request the merged [`BatchReport`] instead of raw records;
        /// valid only once the job is complete.
        merged: bool,
    },
    /// Stop scheduling a job's pending cells (durable results stay).
    Cancel {
        /// Job id.
        job: String,
    },
    /// Ask for live service telemetry (added in minor 1).
    Stats,
}

/// A job's progress counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// Lifecycle state: `queued`, `running`, `done`, `cancelled` or
    /// `failed`.
    pub state: String,
    /// Total cells in the expansion.
    pub total: u64,
    /// Cells with durable reports.
    pub completed: u64,
    /// The results cursor one past the last durable record.
    pub next_seq: u64,
    /// Scheduling priority.
    pub priority: u8,
}

/// Per-job live telemetry inside a [`ServerStats`] frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobTelemetry {
    /// Job id.
    pub job: String,
    /// Lifecycle state (same vocabulary as [`JobStatus::state`]).
    pub state: String,
    /// Cells with durable reports.
    pub completed: u64,
    /// Total cells in the expansion.
    pub total: u64,
    /// Estimated seconds to completion at the current throughput;
    /// `None` when the job is not running or no throughput is
    /// established yet.
    pub eta_s: Option<f64>,
}

/// Live service telemetry: the body of a `stats` response (minor 1).
///
/// Every field is additive — older clients never ask for it, newer
/// servers may append fields that this struct silently ignores.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Seconds since the server process started.
    pub uptime_s: f64,
    /// Configured scheduler worker threads.
    pub workers: u64,
    /// Workers currently executing a cell (instantaneous).
    pub busy_workers: u64,
    /// Jobs waiting for a scheduler slot.
    pub queue_depth: u64,
    /// Jobs currently being scheduled.
    pub running_jobs: u64,
    /// Cells made durable by this process since start.
    pub cells_completed: u64,
    /// Cells still pending across all live jobs.
    pub cells_pending: u64,
    /// Mean cells per second since the process started.
    pub cells_per_s: f64,
    /// WAL fsyncs timed so far.
    pub fsyncs: u64,
    /// WAL fsync latency, 50th percentile (microseconds).
    pub fsync_p50_us: u64,
    /// WAL fsync latency, 90th percentile (microseconds).
    pub fsync_p90_us: u64,
    /// WAL fsync latency, 99th percentile (microseconds).
    pub fsync_p99_us: u64,
    /// Per-job progress and ETA.
    pub jobs: Vec<JobTelemetry>,
}

/// Server → client verbs.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Job accepted; `resumed` is true when it attached to existing
    /// durable state instead of starting fresh.
    Submitted {
        /// Job id.
        job: String,
        /// Total cells in the expansion.
        cells: u64,
        /// Whether prior durable state was resumed.
        resumed: bool,
    },
    /// Progress counters.
    Status(JobStatus),
    /// One page of durable records plus the cursor to continue from.
    Results {
        /// Records with `seq >= ` the requested cursor, in `seq` order.
        records: Vec<CellRecord>,
        /// Next cursor value (first `seq` not included in this page).
        cursor: u64,
        /// Durable records so far (the cursor's current ceiling).
        total: u64,
        /// Whether the job is complete (no more records will ever come).
        done: bool,
    },
    /// The merged report of a complete job.
    Merged {
        /// Byte-identical to the equivalent uninterrupted batch run
        /// (boxed: it dwarfs every other verb).
        report: Box<BatchReport>,
    },
    /// Cancellation acknowledged.
    Cancelled {
        /// Job id.
        job: String,
    },
    /// Live service telemetry (answer to a `stats` request, minor 1).
    Stats(ServerStats),
    /// The request failed; the connection stays usable.
    Error {
        /// Machine-readable kind (`spec`, `state`, `protocol`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Wrap an error into its wire form.
    pub fn from_error(err: &CampaignError) -> Self {
        let code = match err {
            CampaignError::Spec(_) => "spec",
            CampaignError::Io(_) => "io",
            CampaignError::Corrupt(_) => "corrupt",
            CampaignError::Protocol(_) => "protocol",
            CampaignError::State(_) => "state",
            CampaignError::Sim(_) => "sim",
        };
        Response::Error {
            code: code.to_string(),
            message: err.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn tagged(verb: &str, body: Value) -> Value {
    let mut obj = Map::new();
    obj.insert(verb.to_string(), body);
    Value::Obj(obj)
}

fn untag(v: &Value) -> Result<(&str, &Value), serde::Error> {
    let obj = v
        .as_obj()
        .ok_or_else(|| serde::Error::expected("frame object", v))?;
    if obj.len() != 1 {
        return Err(serde::Error::msg(format!(
            "frame must carry exactly one verb, got {} keys",
            obj.len()
        )));
    }
    let (verb, body) = obj.iter().next().expect("len checked");
    Ok((verb.as_str(), body))
}

fn str_field(body: &Value, key: &str) -> Result<String, serde::Error> {
    match body.field(key) {
        Value::Str(s) => Ok(s.clone()),
        Value::Null => Err(serde::Error::msg(format!("missing field `{key}`"))),
        other => Err(serde::Error::expected("string", other)),
    }
}

/// Optional field with a default — absent (Null) keys fall back, present
/// keys must parse.  This is what makes future-minor *removals*
/// unnecessary and future-minor additions invisible.
fn opt_field<T: Deserialize>(body: &Value, key: &str, default: T) -> Result<T, serde::Error> {
    match body.field(key) {
        Value::Null => Ok(default),
        other => T::from_value(other).map_err(|e| e.in_field(key)),
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Submit { spec } => {
                let mut body = Map::new();
                body.insert("spec".into(), spec.to_value());
                tagged("submit", Value::Obj(body))
            }
            Request::Status { job } => {
                let mut body = Map::new();
                body.insert("job".into(), Value::Str(job.clone()));
                tagged("status", Value::Obj(body))
            }
            Request::Results {
                job,
                cursor,
                max,
                merged,
            } => {
                let mut body = Map::new();
                body.insert("job".into(), Value::Str(job.clone()));
                body.insert("cursor".into(), cursor.to_value());
                body.insert("max".into(), max.to_value());
                body.insert("merged".into(), Value::Bool(*merged));
                tagged("results", Value::Obj(body))
            }
            Request::Cancel { job } => {
                let mut body = Map::new();
                body.insert("job".into(), Value::Str(job.clone()));
                tagged("cancel", Value::Obj(body))
            }
            Request::Stats => tagged("stats", Value::Obj(Map::new())),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let (verb, body) = untag(v)?;
        match verb {
            "submit" => Ok(Request::Submit {
                spec: Box::new(
                    CampaignSpec::from_value(body.field("spec")).map_err(|e| e.in_field("spec"))?,
                ),
            }),
            "status" => Ok(Request::Status {
                job: str_field(body, "job")?,
            }),
            "results" => Ok(Request::Results {
                job: str_field(body, "job")?,
                cursor: opt_field(body, "cursor", 0u64)?,
                max: opt_field(body, "max", DEFAULT_PAGE)?,
                merged: opt_field(body, "merged", false)?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: str_field(body, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            other => Err(serde::Error::msg(format!("unknown verb `{other}`"))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Submitted {
                job,
                cells,
                resumed,
            } => {
                let mut body = Map::new();
                body.insert("job".into(), Value::Str(job.clone()));
                body.insert("cells".into(), cells.to_value());
                body.insert("resumed".into(), Value::Bool(*resumed));
                tagged("submitted", Value::Obj(body))
            }
            Response::Status(status) => tagged("status", status.to_value()),
            Response::Results {
                records,
                cursor,
                total,
                done,
            } => {
                let mut body = Map::new();
                body.insert("records".into(), records.to_value());
                body.insert("cursor".into(), cursor.to_value());
                body.insert("total".into(), total.to_value());
                body.insert("done".into(), Value::Bool(*done));
                tagged("results", Value::Obj(body))
            }
            Response::Merged { report } => {
                let mut body = Map::new();
                body.insert("report".into(), report.to_value());
                tagged("merged", Value::Obj(body))
            }
            Response::Cancelled { job } => {
                let mut body = Map::new();
                body.insert("job".into(), Value::Str(job.clone()));
                tagged("cancelled", Value::Obj(body))
            }
            Response::Stats(stats) => tagged("stats", stats.to_value()),
            Response::Error { code, message } => {
                let mut body = Map::new();
                body.insert("code".into(), Value::Str(code.clone()));
                body.insert("message".into(), Value::Str(message.clone()));
                tagged("error", Value::Obj(body))
            }
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let (verb, body) = untag(v)?;
        match verb {
            "submitted" => Ok(Response::Submitted {
                job: str_field(body, "job")?,
                cells: opt_field(body, "cells", 0u64)?,
                resumed: opt_field(body, "resumed", false)?,
            }),
            "status" => Ok(Response::Status(
                JobStatus::from_value(body).map_err(|e| e.in_field("status"))?,
            )),
            "results" => Ok(Response::Results {
                records: Vec::<CellRecord>::from_value(body.field("records"))
                    .map_err(|e| e.in_field("records"))?,
                cursor: opt_field(body, "cursor", 0u64)?,
                total: opt_field(body, "total", 0u64)?,
                done: opt_field(body, "done", false)?,
            }),
            "merged" => Ok(Response::Merged {
                report: Box::new(
                    BatchReport::from_value(body.field("report"))
                        .map_err(|e| e.in_field("report"))?,
                ),
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: str_field(body, "job")?,
            }),
            "stats" => Ok(Response::Stats(
                ServerStats::from_value(body).map_err(|e| e.in_field("stats"))?,
            )),
            "error" => Ok(Response::Error {
                code: opt_field(body, "code", "error".to_string())?,
                message: opt_field(body, "message", String::new())?,
            }),
            other => Err(serde::Error::msg(format!("unknown verb `{other}`"))),
        }
    }
}

/// Encode any frame as one compact JSON line (with trailing `\n`).
pub fn encode_line<T: Serialize>(frame: &T) -> String {
    let mut line = serde_json::to_string(frame).expect("frame serialization cannot fail");
    line.push('\n');
    line
}

/// Decode one line into a frame.  Never panics: malformed JSON, wrong
/// shapes and unknown verbs all come back as [`CampaignError::Protocol`].
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, CampaignError> {
    serde_json::from_str(line.trim_end()).map_err(|e| CampaignError::Protocol(e.to_string()))
}

/// Encode a hello handshake frame.
pub fn encode_hello(hello: &Hello) -> String {
    encode_line(&tagged("hello", hello.to_value()))
}

/// Decode a hello handshake frame (tolerating extra fields from newer
/// minors).
pub fn decode_hello(line: &str) -> Result<Hello, CampaignError> {
    let value: Value = decode_line(line)?;
    let (verb, body) = untag(&value).map_err(|e| CampaignError::Protocol(e.to_string()))?;
    if verb != "hello" {
        return Err(CampaignError::Protocol(format!(
            "expected hello frame, got `{verb}`"
        )));
    }
    Hello::from_value(body).map_err(|e| CampaignError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::demo_batch;

    #[test]
    fn requests_round_trip() {
        let frames = vec![
            Request::Submit {
                spec: Box::new(CampaignSpec::for_batch("j", demo_batch())),
            },
            Request::Status { job: "j".into() },
            Request::Results {
                job: "j".into(),
                cursor: 17,
                max: 5,
                merged: false,
            },
            Request::Cancel { job: "j".into() },
            Request::Stats,
        ];
        for frame in frames {
            let line = encode_line(&frame);
            assert_eq!(line.matches('\n').count(), 1, "one frame, one line");
            let back: Request = decode_line(&line).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn responses_round_trip() {
        let frames = vec![
            Response::Submitted {
                job: "j".into(),
                cells: 6,
                resumed: true,
            },
            Response::Status(JobStatus {
                job: "j".into(),
                state: "running".into(),
                total: 6,
                completed: 2,
                next_seq: 2,
                priority: 3,
            }),
            Response::Results {
                records: vec![],
                cursor: 2,
                total: 2,
                done: false,
            },
            Response::Cancelled { job: "j".into() },
            Response::Stats(ServerStats {
                uptime_s: 12.5,
                workers: 4,
                busy_workers: 3,
                queue_depth: 1,
                running_jobs: 2,
                cells_completed: 40,
                cells_pending: 8,
                cells_per_s: 3.2,
                fsyncs: 40,
                fsync_p50_us: 90,
                fsync_p90_us: 200,
                fsync_p99_us: 512,
                jobs: vec![JobTelemetry {
                    job: "j".into(),
                    state: "running".into(),
                    completed: 4,
                    total: 12,
                    eta_s: Some(2.5),
                }],
            }),
            Response::Error {
                code: "state".into(),
                message: "nope".into(),
            },
        ];
        for frame in frames {
            let back: Response = decode_line(&encode_line(&frame)).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn unknown_verbs_and_malformed_frames_error_cleanly() {
        for line in [
            "{\"frobnicate\": {}}",
            "{\"submit\": {}, \"status\": {}}",
            "[1,2,3]",
            "42",
            "{\"status\": {\"job\": 7}}",
            "not json at all",
            "{\"submit\": {\"spec\": \"nope\"}}",
            "",
        ] {
            let err = decode_line::<Request>(line).unwrap_err();
            assert!(matches!(err, CampaignError::Protocol(_)), "{line} -> {err}");
        }
    }

    #[test]
    fn results_request_fields_have_defaults() {
        let req: Request = decode_line("{\"results\": {\"job\": \"j\"}}").unwrap();
        assert_eq!(
            req,
            Request::Results {
                job: "j".into(),
                cursor: 0,
                max: DEFAULT_PAGE,
                merged: false,
            }
        );
    }

    #[test]
    fn stats_tolerates_future_minor_additions() {
        // A newer server (higher minor) may append fields to the stats
        // body and to each job entry; this client must ignore them and
        // still parse what it knows.
        let line = "{\"stats\": {\"uptime_s\": 1.0, \"workers\": 2, \
                    \"busy_workers\": 0, \"queue_depth\": 0, \
                    \"running_jobs\": 0, \"cells_completed\": 9, \
                    \"cells_pending\": 0, \"cells_per_s\": 9.0, \
                    \"fsyncs\": 9, \"fsync_p50_us\": 1, \"fsync_p90_us\": 2, \
                    \"fsync_p99_us\": 3, \"jobs\": [{\"job\": \"j\", \
                    \"state\": \"done\", \"completed\": 9, \"total\": 9, \
                    \"eta_s\": null, \"gpu_ms\": 17}], \
                    \"brand_new_gauge\": 42}}\n";
        let back: Response = decode_line(line).unwrap();
        match back {
            Response::Stats(stats) => {
                assert_eq!(stats.cells_completed, 9);
                assert_eq!(stats.jobs.len(), 1);
                assert_eq!(stats.jobs[0].eta_s, None);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // And the old wire shape (minor 0) never carried `stats` at all:
        // an old server answers the verb with a clean protocol error, not
        // a disconnect — modelled here by the unknown-verb path.
        assert!(decode_line::<Response>("{\"statz\": {}}\n").is_err());
    }

    #[test]
    fn hello_versioning_rules() {
        let ours = Hello::current();
        let back = decode_hello(&encode_hello(&ours)).unwrap();
        assert_eq!(back, ours);
        assert!(back.check_compatible().is_ok());

        // A future minor is tolerated — even with fields we do not know —
        // as long as the peer's spec schema is not ahead of ours.
        let future = format!(
            "{{\"hello\": {{\"proto_major\": {PROTO_MAJOR}, \"proto_minor\": {}, \
             \"spec_version\": {SPEC_VERSION}, \"shiny_new_field\": true}}}}\n",
            PROTO_MINOR + 7
        );
        let hello = decode_hello(&future).unwrap();
        assert!(hello.check_compatible().is_ok());

        // A different major is rejected.
        let alien = Hello {
            proto_major: PROTO_MAJOR + 1,
            ..ours
        };
        assert!(alien.check_compatible().is_err());

        // A peer on a *newer* spec schema is rejected at handshake time —
        // its submits could only fail mid-stream ("newer than supported
        // version"), after the session looked healthy.
        let ahead = Hello {
            spec_version: SPEC_VERSION + 1,
            ..ours
        };
        let err = ahead.check_compatible().unwrap_err();
        assert!(
            err.to_string().contains("spec schema"),
            "unexpected error: {err}"
        );
        // Older spec schemas migrate forward and stay compatible.
        let behind = Hello {
            spec_version: SPEC_VERSION - 1,
            ..ours
        };
        assert!(behind.check_compatible().is_ok());

        // A non-hello first frame is rejected.
        assert!(decode_hello("{\"status\": {\"job\": \"j\"}}\n").is_err());
        assert!(decode_hello("garbage\n").is_err());
    }
}
