//! The campaign client: a blocking, line-oriented connection to a
//! [`CampaignServer`](crate::server::CampaignServer).
//!
//! [`Client::connect`] performs the hello handshake (the server speaks
//! first; majors must match), after which each method is one
//! request/response exchange.  [`Client::watch`] layers the pull-model
//! cursor on top: it pages records from a starting cursor until the
//! server reports the job done, sleeping briefly between empty pages —
//! the streaming consumption mode of a live campaign.

use crate::error::CampaignError;
use crate::net::IoStream;
use crate::protocol::{
    decode_hello, decode_line, encode_hello, encode_line, Hello, JobStatus, Request, Response,
    ServerStats,
};
use crate::spec::CampaignSpec;
use crate::wal::CellRecord;
use byzcount_core::sim::BatchReport;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

/// One connected protocol session.
pub struct Client {
    reader: BufReader<IoStream>,
    writer: IoStream,
    server_hello: Hello,
}

impl Client {
    /// Dial `addr` (`unix:<path>` or `<host>:<port>`) and complete the
    /// handshake.  A server already serving
    /// [`MAX_CONNECTIONS`](crate::protocol::MAX_CONNECTIONS) connections
    /// answers an error in place of its hello, returned here as
    /// [`CampaignError::Protocol`].
    pub fn connect(addr: &str) -> Result<Self, CampaignError> {
        let stream = IoStream::connect(addr)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(CampaignError::Protocol(
                "server closed before the hello".into(),
            ));
        }
        // A server at its connection cap answers an error, not a hello.
        if let Ok(Response::Error { code, message }) = decode_line::<Response>(&line) {
            return Err(CampaignError::Protocol(format!(
                "server [{code}]: {message}"
            )));
        }
        let server_hello = decode_hello(&line)?;
        server_hello.check_compatible()?;
        writer.write_all(encode_hello(&Hello::current()).as_bytes())?;
        writer.flush()?;
        Ok(Client {
            reader,
            writer,
            server_hello,
        })
    }

    /// The server's hello (its protocol and spec versions).
    pub fn server_hello(&self) -> &Hello {
        &self.server_hello
    }

    fn call(&mut self, request: &Request) -> Result<Response, CampaignError> {
        self.writer.write_all(encode_line(request).as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(CampaignError::Protocol("server closed mid-exchange".into()));
        }
        match decode_line::<Response>(&line)? {
            Response::Error { code, message } => Err(CampaignError::Protocol(format!(
                "server [{code}]: {message}"
            ))),
            other => Ok(other),
        }
    }

    /// Submit (or re-attach to) a job; returns `(cells, resumed)`.
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<(u64, bool), CampaignError> {
        match self.call(&Request::Submit {
            spec: Box::new(spec.clone()),
        })? {
            Response::Submitted { cells, resumed, .. } => Ok((cells, resumed)),
            other => Err(unexpected("submitted", &other)),
        }
    }

    /// Fetch a job's progress counters.
    pub fn status(&mut self, job: &str) -> Result<JobStatus, CampaignError> {
        match self.call(&Request::Status {
            job: job.to_string(),
        })? {
            Response::Status(status) => Ok(status),
            other => Err(unexpected("status", &other)),
        }
    }

    /// Fetch one page of records from `cursor`; returns the page, the
    /// next cursor, and whether the job is done.
    pub fn results(
        &mut self,
        job: &str,
        cursor: u64,
        max: u32,
    ) -> Result<(Vec<CellRecord>, u64, bool), CampaignError> {
        match self.call(&Request::Results {
            job: job.to_string(),
            cursor,
            max,
            merged: false,
        })? {
            Response::Results {
                records,
                cursor,
                done,
                ..
            } => Ok((records, cursor, done)),
            other => Err(unexpected("results", &other)),
        }
    }

    /// Fetch the merged [`BatchReport`] of a complete job.
    pub fn merged(&mut self, job: &str) -> Result<BatchReport, CampaignError> {
        match self.call(&Request::Results {
            job: job.to_string(),
            cursor: 0,
            max: 1,
            merged: true,
        })? {
            Response::Merged { report } => Ok(*report),
            other => Err(unexpected("merged", &other)),
        }
    }

    /// Fetch live service telemetry (requires a server speaking protocol
    /// minor ≥ 1; an older server answers with a clean `unknown verb`
    /// error, surfaced as [`CampaignError::Protocol`]).
    pub fn stats(&mut self) -> Result<ServerStats, CampaignError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Cancel a job's pending cells.
    pub fn cancel(&mut self, job: &str) -> Result<(), CampaignError> {
        match self.call(&Request::Cancel {
            job: job.to_string(),
        })? {
            Response::Cancelled { .. } => Ok(()),
            other => Err(unexpected("cancelled", &other)),
        }
    }

    /// Stream a job's records from `cursor` until done, invoking
    /// `on_record` for each (exactly once per record, in durable order).
    /// Returns the final cursor.
    pub fn watch(
        &mut self,
        job: &str,
        cursor: u64,
        page: u32,
        mut on_record: impl FnMut(&CellRecord),
    ) -> Result<u64, CampaignError> {
        let mut cursor = cursor;
        loop {
            let (records, next, done) = self.results(job, cursor, page)?;
            let progressed = !records.is_empty();
            for record in &records {
                on_record(record);
            }
            cursor = next;
            if done && !progressed {
                return Ok(cursor);
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> CampaignError {
    CampaignError::Protocol(format!("expected `{wanted}` response, got {got:?}"))
}
