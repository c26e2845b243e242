//! Socket transport: one address grammar, two socket families.
//!
//! Addresses starting with `unix:` name a Unix-domain socket path
//! (`unix:/tmp/byzcount.sock`); anything else is a TCP `host:port`
//! (`127.0.0.1:7171`, with port `0` for an ephemeral port).  Both the
//! campaign's line-delimited JSON protocol and the distributed engine's
//! binary frames are stream-oriented, so the two families are
//! interchangeable behind [`Listener`] / [`IoStream`].
//!
//! This module grew up in `byzcount-campaign` and moved here when shard
//! workers became separate processes; the campaign re-exports it.  Two
//! behaviours matter for the frame-per-exchange coordinator protocol:
//!
//! * **`TCP_NODELAY` is set on connect and accept.**  Every frame is
//!   immediately waited on by the peer, so Nagle buffering only adds
//!   stalls (up to 40 ms per exchange against delayed ACKs) — there is
//!   never a follow-up write to coalesce with.
//! * **[`IoStream::exchange_hello`] bounds the handshake.**  A peer that
//!   connects and sends nothing would otherwise hang a blocking accept
//!   loop (or a dialing coordinator) forever; the deadline applies to
//!   the handshake only and is cleared once the hello verifies.

use crate::handshake::{recv_hello, send_hello, WireHello};
use crate::WireError;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

/// How long either side of a shard handshake waits for the peer's hello:
/// the coordinator dialing a worker, and a worker that just accepted a
/// coordinator.
pub const HELLO_DEADLINE: Duration = Duration::from_secs(10);

/// A bound server socket of either family.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain socket.
    Unix(UnixListener),
    /// TCP socket.
    Tcp(TcpListener),
}

/// An accepted or dialed connection of either family.
#[derive(Debug)]
pub enum IoStream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Listener {
    /// Bind `addr` (`unix:<path>` or `<host>:<port>`).
    ///
    /// A *stale* socket file at a Unix path — left behind by a killed
    /// server, exactly the resume scenario — is removed first.  Staleness
    /// is probed by connecting: if something answers, another server owns
    /// the path and binding fails loudly instead of silently unlinking a
    /// live server's socket out from under it (its clients would hang and
    /// two servers would believe they own the same store).
    pub fn bind(addr: &str) -> io::Result<Self> {
        if let Some(path) = addr.strip_prefix("unix:") {
            if Path::new(path).exists() {
                if UnixStream::connect(path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "{addr}: socket is in use by a live server \
                             (refusing to unlink it)"
                        ),
                    ));
                }
                // Nothing is accepting: a stale leftover; reclaim it.
                std::fs::remove_file(path)?;
            }
            Ok(Listener::Unix(UnixListener::bind(path)?))
        } else {
            Ok(Listener::Tcp(TcpListener::bind(addr)?))
        }
    }

    /// The bound address in the same grammar [`bind`](Listener::bind)
    /// accepts — for TCP this resolves port `0` to the real port.
    pub fn local_addr(&self) -> io::Result<String> {
        match self {
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix socket"))?;
                Ok(format!("unix:{}", path.display()))
            }
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
        }
    }

    /// Switch the accept loop between blocking and polling mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accept one connection (respects the nonblocking mode: callers see
    /// `WouldBlock` as `Ok(None)`).  TCP connections come back with
    /// `TCP_NODELAY` already set.
    pub fn accept(&self) -> io::Result<Option<IoStream>> {
        let result = match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| IoStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| IoStream::Tcp(s)),
        };
        match result {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl IoStream {
    /// Dial `addr` (same grammar as [`Listener::bind`]).  TCP streams
    /// come back with `TCP_NODELAY` already set.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = if let Some(path) = addr.strip_prefix("unix:") {
            IoStream::Unix(UnixStream::connect(path)?)
        } else {
            IoStream::Tcp(TcpStream::connect(addr)?)
        };
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Disable (or re-enable) Nagle buffering.  A no-op for Unix-domain
    /// streams, which have no such coalescing.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        match self {
            IoStream::Unix(_) => Ok(()),
            IoStream::Tcp(s) => s.set_nodelay(nodelay),
        }
    }

    /// A second handle on the same connection (reader/writer split).
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            IoStream::Unix(s) => IoStream::Unix(s.try_clone()?),
            IoStream::Tcp(s) => IoStream::Tcp(s.try_clone()?),
        })
    }

    /// Cap how long a blocking read may stall.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            IoStream::Unix(s) => s.set_read_timeout(timeout),
            IoStream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Exchange hellos under a read deadline that applies to the
    /// handshake *only*: send ours, receive and verify the peer's, then
    /// clear the deadline.  A mute peer surfaces as a timeout error
    /// within `deadline` instead of hanging the accept loop (or a
    /// dialing coordinator) forever.
    pub fn exchange_hello(
        &mut self,
        ours: &WireHello,
        deadline: Duration,
    ) -> Result<WireHello, WireError> {
        self.set_read_timeout(Some(deadline))?;
        send_hello(self, ours)?;
        let theirs = recv_hello(self)?;
        theirs.check_compatible(ours)?;
        self.set_read_timeout(None)?;
        Ok(theirs)
    }
}

impl Read for IoStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            IoStream::Unix(s) => s.read(buf),
            IoStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for IoStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            IoStream::Unix(s) => s.write(buf),
            IoStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            IoStream::Unix(s) => s.flush(),
            IoStream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use std::time::Instant;

    fn tmp_sock(tag: &str) -> String {
        format!(
            "unix:{}",
            std::env::temp_dir()
                .join(format!("nsw-net-{tag}-{}.sock", std::process::id()))
                .display()
        )
    }

    #[test]
    fn frames_flow_over_both_families() {
        for addr in [tmp_sock("families"), "127.0.0.1:0".to_string()] {
            let listener = Listener::bind(&addr).unwrap();
            let bound = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let mut stream = listener.accept().unwrap().expect("blocking accept");
                let mut buf = Vec::new();
                read_frame(&mut stream, &mut buf).unwrap();
                write_frame(&mut stream, &buf).unwrap();
            });
            let mut client = IoStream::connect(&bound).unwrap();
            write_frame(&mut client, b"over the socket").unwrap();
            let mut buf = Vec::new();
            read_frame(&mut client, &mut buf).unwrap();
            assert_eq!(buf, b"over the socket");
            server.join().unwrap();
            if let Some(path) = bound.strip_prefix("unix:") {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    fn mute_peer_times_out_during_the_handshake() {
        // Regression: `recv_hello` had no deadline, so a peer that
        // connects and sends nothing hung the accept loop forever.
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let bound = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().expect("blocking accept");
            let started = Instant::now();
            let err = stream
                .exchange_hello(&WireHello::current(0), Duration::from_millis(200))
                .expect_err("mute peer must not complete a handshake");
            (started.elapsed(), err)
        });
        // The "client" connects and never says hello.
        let _mute = IoStream::connect(&bound).unwrap();
        let (elapsed, err) = server.join().unwrap();
        assert!(
            matches!(err, WireError::Io(_)),
            "a pre-hello timeout is retryable I/O, not desync: {err}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "handshake must give up within the deadline, took {elapsed:?}"
        );
    }

    #[test]
    fn handshake_deadline_is_cleared_after_the_hello() {
        let listener = Listener::bind(&tmp_sock("deadline")).unwrap();
        let bound = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().expect("blocking accept");
            stream
                .exchange_hello(&WireHello::current(0), Duration::from_millis(200))
                .unwrap();
            // Post-handshake reads must block past the handshake
            // deadline: the peer legitimately thinks between frames.
            let mut buf = Vec::new();
            read_frame(&mut stream, &mut buf).unwrap();
            buf
        });
        let mut client = IoStream::connect(&bound).unwrap();
        client
            .exchange_hello(&WireHello::current(0), Duration::from_millis(200))
            .unwrap();
        std::thread::sleep(Duration::from_millis(400));
        write_frame(&mut client, b"late but fine").unwrap();
        assert_eq!(server.join().unwrap(), b"late but fine");
        if let Some(path) = bound.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn tcp_loopback_round_trips_are_not_nagle_stalled() {
        // Regression for the Nagle + delayed-ACK interaction: with the
        // old three-write `write_frame` and no `TCP_NODELAY`, a
        // request/response exchange could stall ~40 ms, making 200
        // round trips take ~8 s.  Coalesced single-write frames with
        // nodelay finish orders of magnitude faster; the bound is kept
        // generous for slow CI machines.
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let bound = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().expect("blocking accept");
            let mut buf = Vec::new();
            while crate::frame::read_frame_opt(&mut stream, &mut buf).unwrap() {
                write_frame(&mut stream, &buf).unwrap();
            }
        });
        let mut client = IoStream::connect(&bound).unwrap();
        let mut buf = Vec::new();
        let started = Instant::now();
        const TRIPS: u32 = 200;
        for i in 0..TRIPS {
            write_frame(&mut client, &i.to_le_bytes()).unwrap();
            read_frame(&mut client, &mut buf).unwrap();
            assert_eq!(buf, i.to_le_bytes());
        }
        let elapsed = started.elapsed();
        drop(client);
        server.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(4),
            "{TRIPS} loopback round trips took {elapsed:?} (Nagle stall?)"
        );
    }

    #[test]
    fn live_unix_socket_is_refused_stale_is_reclaimed() {
        let addr = tmp_sock("stale");
        let path = addr.strip_prefix("unix:").unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let first = Listener::bind(&addr).unwrap();
        let err = Listener::bind(&addr).expect_err("live socket must be refused");
        assert!(err.to_string().contains("in use"), "{err}");
        drop(first);
        // The file outlives the listener; nobody accepts: stale, reclaim.
        assert!(Path::new(&path).exists());
        let _second = Listener::bind(&addr).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
