//! A blocking in-memory byte duplex.
//!
//! [`duplex`] returns two connected [`PipeEnd`]s; bytes written to one
//! are read from the other, in order.  Both ends implement
//! `Read`/`Write` and are `Send`, so a coordinator and a worker thread
//! can speak the *exact* production frame/codec stack with no sockets —
//! the hermetic transport the distributed engine's tests and CI run on.
//!
//! Semantics:
//!
//! * writes never block (the buffer grows as needed);
//! * reads block until at least one byte is available or the peer end
//!   has dropped (then EOF after the buffer drains);
//! * writing after the peer dropped fails with `BrokenPipe` — a dead
//!   worker surfaces as a loud error, never a silent hang.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

struct ChannelState {
    buf: VecDeque<u8>,
    /// The end that would feed (or drain) this channel has dropped.
    closed: bool,
}

struct Channel {
    state: Mutex<ChannelState>,
    readable: Condvar,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Channel {
            state: Mutex::new(ChannelState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().expect("pipe lock").closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-memory duplex byte stream.
pub struct PipeEnd {
    incoming: Arc<Channel>,
    outgoing: Arc<Channel>,
}

/// Create a connected pair of pipe ends.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a_to_b = Channel::new();
    let b_to_a = Channel::new();
    (
        PipeEnd {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
        },
        PipeEnd {
            incoming: a_to_b,
            outgoing: b_to_a,
        },
    )
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.incoming.state.lock().expect("pipe lock");
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0); // clean EOF: peer gone, buffer drained
            }
            state = self.incoming.readable.wait(state).expect("pipe lock");
        }
        // `VecDeque<u8>`'s own `Read` copies its front slice in one go.
        state.buf.read(buf)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.outgoing.state.lock().expect("pipe lock");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer end of the pipe has dropped",
            ));
        }
        let n = state.buf.write(buf)?;
        self.outgoing.readable.notify_all();
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        // Readers of our outgoing channel see EOF once drained; writers
        // into our incoming channel get BrokenPipe.
        self.outgoing.close();
        self.incoming.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_in_order_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn drop_gives_eof_after_drain_and_broken_pipe_on_write() {
        let (mut a, mut b) = duplex();
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"tail");
        assert_eq!(b.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn blocking_read_wakes_on_cross_thread_write() {
        let (mut a, mut b) = duplex();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.write_all(b"hello").unwrap();
        assert_eq!(&handle.join().unwrap(), b"hello");
    }

    #[test]
    fn frames_flow_over_the_pipe() {
        let (mut a, mut b) = duplex();
        crate::frame::write_frame(&mut a, b"framed payload").unwrap();
        let mut buf = Vec::new();
        crate::frame::read_frame(&mut b, &mut buf).unwrap();
        assert_eq!(buf, b"framed payload");
        drop(a);
        assert!(!crate::frame::read_frame_opt(&mut b, &mut buf).unwrap());
    }
}
