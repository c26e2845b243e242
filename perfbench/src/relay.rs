//! A counting relay for the shard-worker socket hop.
//!
//! In the traced `dist-unix` pass the coordinator dials the relay instead
//! of the worker; the relay forwards every byte unchanged in both
//! directions and parses the `netsim-wire` frame headers
//! (`[u32 LE length][u32 LE checksum][payload]`) as they stream past, so
//! frames and bytes are counted per direction without any tracing inside
//! the program.  The time from accepting a coordinator connection to the
//! worker's first complete frame (its hello) is the handshake time.

use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Frames and bytes seen in one direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameTally {
    /// Complete frames.
    pub frames: u64,
    /// Bytes on the socket, frame headers included.
    pub bytes: u64,
}

const HEADER_BYTES: usize = 8;

/// Incremental frame-boundary tracker over a byte stream that may be cut
/// anywhere.
#[derive(Debug, Default)]
pub struct FrameParser {
    header: [u8; HEADER_BYTES],
    header_fill: usize,
    payload_left: usize,
    tally: FrameTally,
}

impl FrameParser {
    /// Account for the next chunk of the stream; returns how many frames
    /// it completed.
    pub fn feed(&mut self, mut chunk: &[u8]) -> u64 {
        self.tally.bytes += chunk.len() as u64;
        let mut completed = 0;
        while !chunk.is_empty() {
            if self.payload_left > 0 {
                let take = self.payload_left.min(chunk.len());
                self.payload_left -= take;
                chunk = &chunk[take..];
                if self.payload_left == 0 {
                    completed += 1;
                }
                continue;
            }
            let take = (HEADER_BYTES - self.header_fill).min(chunk.len());
            self.header[self.header_fill..self.header_fill + take].copy_from_slice(&chunk[..take]);
            self.header_fill += take;
            chunk = &chunk[take..];
            if self.header_fill == HEADER_BYTES {
                self.header_fill = 0;
                let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes"));
                self.payload_left = len as usize;
                if len == 0 {
                    completed += 1;
                }
            }
        }
        self.tally.frames += completed;
        completed
    }

    /// Totals so far.
    pub fn tally(&self) -> FrameTally {
        self.tally
    }

    /// Whether the stream stopped inside a frame.
    pub fn mid_frame(&self) -> bool {
        self.header_fill > 0 || self.payload_left > 0
    }
}

/// What the relay observed over its lifetime.
#[derive(Clone, Debug, Default)]
pub struct RelayStats {
    /// Coordinator → worker traffic.
    pub to_worker: FrameTally,
    /// Worker → coordinator traffic.
    pub to_coord: FrameTally,
    /// Connections relayed.
    pub sessions: u64,
    /// Per session: seconds from accept to the worker's first frame.
    pub handshake_s: Vec<f64>,
    /// Sessions whose stream ended inside a frame.
    pub torn: u64,
}

/// A running relay.
pub struct Relay {
    listen: PathBuf,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<RelayStats>>,
    accept: Option<JoinHandle<()>>,
}

impl Relay {
    /// Listen on the Unix socket `listen` and forward each connection to
    /// the Unix socket `target`.
    pub fn start(listen: &Path, target: &Path) -> io::Result<Relay> {
        let _ = std::fs::remove_file(listen);
        let listener = UnixListener::bind(listen)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(RelayStats::default()));
        let accept = {
            let (stop, stats, target) = (stop.clone(), stats.clone(), target.to_path_buf());
            std::thread::spawn(move || accept_loop(&listener, &target, &stop, &stats))
        };
        Ok(Relay {
            listen: listen.to_path_buf(),
            stop,
            stats,
            accept: Some(accept),
        })
    }

    /// The address coordinators dial, in the `unix:<path>` grammar.
    pub fn addr(&self) -> String {
        format!("unix:{}", self.listen.display())
    }

    /// Stop accepting, wait for every relayed session to end, and return
    /// the totals.
    pub fn stop(mut self) -> RelayStats {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it sees the flag.
        let _ = UnixStream::connect(&self.listen);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("relay accept thread panicked");
        }
        let _ = std::fs::remove_file(&self.listen);
        let stats = self.stats.lock().expect("relay stats lock").clone();
        stats
    }
}

fn accept_loop(
    listener: &UnixListener,
    target: &Path,
    stop: &AtomicBool,
    stats: &Arc<Mutex<RelayStats>>,
) {
    let mut sessions = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(coord) = conn else { continue };
        let accepted = Instant::now();
        let Ok(worker) = UnixStream::connect(target) else {
            continue;
        };
        let stats = stats.clone();
        sessions.push(std::thread::spawn(move || {
            relay_session(coord, worker, accepted, &stats)
        }));
    }
    for session in sessions {
        session.join().expect("relay session thread panicked");
    }
}

fn relay_session(
    coord: UnixStream,
    worker: UnixStream,
    accepted: Instant,
    stats: &Mutex<RelayStats>,
) {
    let clone = |s: &UnixStream| s.try_clone().expect("clone relay socket");
    let (coord_rx, worker_tx) = (clone(&coord), clone(&worker));
    let (down, up) = std::thread::scope(|scope| {
        let down = scope.spawn(move || pump(coord_rx, worker_tx, None));
        let up = pump(worker, coord, Some(accepted));
        (down.join().expect("relay pump panicked"), up)
    });
    let mut stats = stats.lock().expect("relay stats lock");
    stats.sessions += 1;
    stats.to_worker.frames += down.parser.tally().frames;
    stats.to_worker.bytes += down.parser.tally().bytes;
    stats.to_coord.frames += up.parser.tally().frames;
    stats.to_coord.bytes += up.parser.tally().bytes;
    stats.torn += u64::from(down.parser.mid_frame()) + u64::from(up.parser.mid_frame());
    if let Some(first) = up.first_frame_s {
        stats.handshake_s.push(first);
    }
}

struct PumpResult {
    parser: FrameParser,
    first_frame_s: Option<f64>,
}

/// Copy `src` to `dst` until EOF, tallying frames; `since` asks for the
/// time of the first complete frame.
fn pump(mut src: UnixStream, mut dst: UnixStream, since: Option<Instant>) -> PumpResult {
    let mut parser = FrameParser::default();
    let mut first_frame_s = None;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if dst.write_all(&buf[..n]).is_err() {
            break;
        }
        if parser.feed(&buf[..n]) > 0 && first_frame_s.is_none() {
            first_frame_s = since.map(|t| t.elapsed().as_secs_f64());
        }
    }
    let _ = dst.shutdown(Shutdown::Write);
    let _ = src.shutdown(Shutdown::Read);
    PumpResult {
        parser,
        first_frame_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcount::runtime::wire::{read_frame, write_frame};

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).expect("write frame");
        }
        out
    }

    #[test]
    fn parser_counts_real_frames_cut_at_every_boundary() {
        let payloads: [&[u8]; 4] = [b"hello", b"", &[7u8; 300], b"x"];
        let stream = framed(&payloads);
        for chunk in 1..=stream.len() {
            let mut parser = FrameParser::default();
            let completed: u64 = stream.chunks(chunk).map(|c| parser.feed(c)).sum();
            assert_eq!(completed, 4, "chunk size {chunk}");
            assert_eq!(
                parser.tally(),
                FrameTally {
                    frames: 4,
                    bytes: stream.len() as u64
                }
            );
            assert!(!parser.mid_frame());
        }
        let mut torn = FrameParser::default();
        torn.feed(&stream[..stream.len() - 1]);
        assert_eq!(torn.tally().frames, 3);
        assert!(torn.mid_frame());
    }

    #[test]
    fn relay_forwards_unchanged_and_counts_both_directions() {
        let dir = std::env::temp_dir().join(format!("perfbench-relay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (target, listen) = (dir.join("echo.sock"), dir.join("relay.sock"));
        let echo = UnixListener::bind(&target).unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = echo.accept().unwrap();
            let mut buf = Vec::new();
            for _ in 0..3 {
                read_frame(&mut s, &mut buf).unwrap();
                write_frame(&mut s, &buf).unwrap();
            }
        });
        let relay = Relay::start(&listen, &target).unwrap();
        {
            let mut c = UnixStream::connect(&listen).unwrap();
            let mut buf = Vec::new();
            for msg in [&b"round"[..], &[1u8; 5000], b"finish"] {
                write_frame(&mut c, msg).unwrap();
                read_frame(&mut c, &mut buf).unwrap();
                assert_eq!(buf, msg);
            }
        }
        server.join().unwrap();
        let stats = relay.stop();
        assert_eq!(stats.sessions, 1);
        let bytes = (8 * 3 + 5 + 5000 + 6) as u64;
        assert_eq!(stats.to_worker, FrameTally { frames: 3, bytes });
        assert_eq!(stats.to_coord, FrameTally { frames: 3, bytes });
        assert_eq!(stats.handshake_s.len(), 1);
        assert_eq!(stats.torn, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
