//! Per-connection state machine for the readiness reactor.
//!
//! A [`Conn`] owns one nonblocking [`TcpStream`] and moves bytes
//! through four stages without ever blocking the reactor thread:
//!
//! ```text
//!   read → parse (pipelined) → dispatch (reactor) → buffered write
//! ```
//!
//! Requests are assigned a per-connection sequence number as they are
//! parsed; responses computed out of order by the worker pool are
//! reordered through a [`BTreeMap`] keyed by that sequence so the wire
//! order always matches the request order — the HTTP/1.1 pipelining
//! contract. The state machine never issues a syscall that can block:
//! reads and writes stop at `WouldBlock` and resume on the next
//! readiness event.

use crate::http::{self, Request};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Idle allowance for a connection that has not completed a request
/// yet (or is mid-upload); matches the old blocking read timeout.
pub(crate) const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a closing connection lingers to absorb late pipelined
/// bytes, so the peer's write never races our RST past the response.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_millis(250);

/// One serialized response waiting its turn on the wire.
#[derive(Debug)]
pub(crate) struct Outgoing {
    /// The full wire bytes (possibly chaos-truncated).
    pub bytes: Vec<u8>,
    /// Close the connection once these bytes are flushed.
    pub close: bool,
    /// When closing, linger read-draining first instead of dropping
    /// the socket immediately (avoids RST-ing an unread response).
    pub drain: bool,
}

/// Lifecycle of the socket within the reactor.
#[derive(Debug)]
pub(crate) enum Phase {
    /// Serving requests.
    Open,
    /// Response flushed and write side shut down; sinking any late
    /// client bytes until EOF or the deadline.
    Draining {
        /// When to give up and drop the socket.
        deadline: Instant,
    },
}

/// What a fill (read) pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Socket still open; zero or more bytes were buffered.
    Open,
    /// The peer closed its write side (EOF after any buffered bytes).
    Eof,
    /// The socket errored; the connection is unusable.
    Error,
}

/// Whether the connection survives the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushStatus {
    /// Keep the connection registered.
    Keep,
    /// Deregister and drop the connection now.
    Close,
}

/// The full per-connection state: buffered input, parsed-but-unanswered
/// sequence window, and the ordered write queue.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Bytes read but not yet parsed into a request.
    buf: Vec<u8>,
    /// The wire bytes currently being written.
    out: Vec<u8>,
    /// How much of `out` has hit the socket.
    out_pos: usize,
    /// Completed responses waiting for their turn (keyed by sequence).
    ready: BTreeMap<usize, Outgoing>,
    /// Sequence number the next parsed request will get.
    pub next_seq: usize,
    /// Sequence number the next wire response must carry.
    next_write: usize,
    /// Requests dispatched to workers but not yet completed.
    pub in_flight: usize,
    /// Keep-alive request budget for this connection.
    pub max_requests: usize,
    /// When set, the connection closes after serving this sequence.
    pub close_after: Option<usize>,
    /// No more requests will be parsed (cap, `Connection: close`, EOF,
    /// or a protocol error).
    pub read_closed: bool,
    /// Once the current `out` drains: `Some(drain)` closes, lingering
    /// when `drain` is true.
    close_when_flushed: Option<bool>,
    /// Last moment bytes moved in either direction.
    pub last_activity: Instant,
    /// Open vs. draining-to-close.
    pub phase: Phase,
    /// The epoll interest mask currently registered for this socket.
    pub interest: u32,
    /// The request owed a `100 Continue`, and whether it went out: its
    /// head asked for one while its body had not arrived. The interim
    /// answer is written once, right before that request's response.
    continue_for: Option<(usize, bool)>,
}

impl Conn {
    /// Wraps a freshly accepted nonblocking socket.
    pub fn new(stream: TcpStream, max_requests: usize) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            ready: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            in_flight: 0,
            max_requests: max_requests.max(1),
            close_after: None,
            read_closed: false,
            close_when_flushed: None,
            last_activity: Instant::now(),
            phase: Phase::Open,
            interest: 0,
            continue_for: None,
        }
    }

    /// Reads everything currently available without blocking.
    pub fn fill(&mut self) -> ReadOutcome {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Error,
            }
        }
    }

    /// Parses every complete request buffered so far, assigning each a
    /// sequence number. Stops at the keep-alive cap or an explicit
    /// `Connection: close`, after which remaining input is ignored.
    ///
    /// A parse failure is returned *with* the requests parsed before
    /// it: those already consumed sequence numbers, so the caller must
    /// dispatch them before answering the error at the sequence
    /// [`Conn::fail_next_request`] assigns — otherwise the write window
    /// has a permanent gap and the connection can never flush.
    pub fn take_requests(&mut self) -> (Vec<(usize, Request)>, Option<http::ParseError>) {
        let mut parsed = Vec::new();
        while !self.read_closed {
            if self.next_seq >= self.max_requests {
                self.close_after = Some(self.max_requests - 1);
                self.read_closed = true;
                break;
            }
            let (request, used) = match http::try_parse(&self.buf) {
                Ok(Some(hit)) => hit,
                Ok(None) => {
                    if !self.buf.is_empty()
                        && self.continue_for.map(|(seq, _)| seq) != Some(self.next_seq)
                        && http::awaits_continue(&self.buf)
                    {
                        self.continue_for = Some((self.next_seq, false));
                    }
                    break;
                }
                Err(e) => return (parsed, Some(e)),
            };
            self.buf.drain(..used);
            let seq = self.next_seq;
            self.next_seq += 1;
            let client_close = request
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"));
            parsed.push((seq, request));
            if client_close {
                self.close_after = Some(seq);
                self.read_closed = true;
            }
        }
        (parsed, None)
    }

    /// Whether the input buffer still holds unparsed bytes (a partial
    /// request, or pipelined data past a close).
    pub fn has_buffered_input(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Drops buffered input that will never become a request (pipelined
    /// bytes past a `Connection: close` observed at EOF).
    pub fn discard_input(&mut self) {
        self.buf.clear();
    }

    /// Consumes the next sequence number for a request that failed
    /// before dispatch (parse error, admission rejection at parse
    /// time): the buffer is abandoned and no further requests parse.
    pub fn fail_next_request(&mut self) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.close_after = Some(seq);
        self.read_closed = true;
        self.buf.clear();
        self.continue_for = None;
        seq
    }

    /// Queues a completed response for its wire slot.
    pub fn enqueue(&mut self, seq: usize, outgoing: Outgoing) {
        self.ready.insert(seq, outgoing);
    }

    /// Writes as much pending output as the socket accepts, promoting
    /// queued responses in sequence order as the buffer drains.
    pub fn flush(&mut self) -> FlushStatus {
        if matches!(self.phase, Phase::Draining { .. }) {
            return FlushStatus::Keep;
        }
        loop {
            while self.out_pos < self.out.len() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(0) => return FlushStatus::Close,
                    Ok(n) => {
                        self.out_pos += n;
                        self.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return FlushStatus::Keep,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return FlushStatus::Close,
                }
            }
            self.out.clear();
            self.out_pos = 0;
            match self.close_when_flushed {
                Some(true) => {
                    // Half-close and linger: the peer gets a clean FIN
                    // after the response instead of racing a reset.
                    let _ = self.stream.shutdown(Shutdown::Write);
                    self.phase = Phase::Draining {
                        deadline: Instant::now() + DRAIN_TIMEOUT,
                    };
                    return FlushStatus::Keep;
                }
                Some(false) => return FlushStatus::Close,
                None => {}
            }
            if self.continue_for == Some((self.next_write, false)) {
                // Every earlier response is on the wire: release the
                // waiting client's body.
                self.continue_for = Some((self.next_write, true));
                self.out.extend_from_slice(http::CONTINUE);
                continue;
            }
            let Some(outgoing) = self.ready.remove(&self.next_write) else {
                return FlushStatus::Keep;
            };
            self.next_write += 1;
            self.out = outgoing.bytes;
            self.out_pos = 0;
            if outgoing.close {
                self.close_when_flushed = Some(outgoing.drain);
                // Later responses can never reach the wire.
                self.ready.clear();
            }
        }
    }

    /// Sinks late client bytes during the draining phase.
    pub fn drain_read(&mut self) -> FlushStatus {
        let mut sink = [0u8; 1024];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => return FlushStatus::Close,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return FlushStatus::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return FlushStatus::Close,
            }
        }
    }

    /// Whether output (current buffer or queued responses) is pending.
    pub fn has_pending_output(&self) -> bool {
        self.out_pos < self.out.len() || !self.ready.is_empty()
    }

    /// The interest mask this connection needs right now.
    pub fn interest_now(&self) -> u32 {
        match self.phase {
            Phase::Draining { .. } => crate::sys::event::READ,
            Phase::Open => {
                let mut mask = 0;
                if !self.read_closed {
                    mask |= crate::sys::event::READ;
                }
                if self.out_pos < self.out.len() {
                    mask |= crate::sys::event::WRITE;
                }
                mask
            }
        }
    }

    /// Whether the connection has outlived its allowance: the draining
    /// deadline, or — with nothing in flight and nothing to write —
    /// the idle window (`SOCKET_TIMEOUT` before the first request or
    /// mid-upload, `keep_alive_idle` between keep-alive requests).
    pub fn expired(&self, now: Instant, keep_alive_idle: Duration) -> bool {
        if let Phase::Draining { deadline } = self.phase {
            return now >= deadline;
        }
        if self.in_flight > 0 || self.has_pending_output() {
            return false;
        }
        let allowance = if self.next_seq == 0 || self.has_buffered_input() {
            SOCKET_TIMEOUT
        } else {
            keep_alive_idle
        };
        now.saturating_duration_since(self.last_activity) >= allowance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn parses_pipelined_requests_in_sequence() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 8);
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        // Give the kernel a beat to move the bytes.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(conn.fill(), ReadOutcome::Open);
        let (reqs, err) = conn.take_requests();
        assert!(err.is_none());
        let seqs: Vec<usize> = reqs.iter().map(|(s, _)| *s).collect();
        let paths: Vec<&str> = reqs.iter().map(|(_, r)| r.path.as_str()).collect();
        assert_eq!(seqs, [0, 1]);
        assert_eq!(paths, ["/a", "/b"]);
        assert!(!conn.read_closed);
    }

    #[test]
    fn connection_close_header_seals_the_stream() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 8);
        client
            .write_all(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.fill();
        let (reqs, err) = conn.take_requests();
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1, "bytes after a close are ignored");
        assert_eq!(conn.close_after, Some(0));
        assert!(conn.read_closed);
    }

    #[test]
    fn keep_alive_cap_stops_parsing() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 2);
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.fill();
        let (reqs, err) = conn.take_requests();
        assert!(err.is_none());
        assert_eq!(reqs.len(), 2);
        assert_eq!(conn.close_after, Some(1));
        assert!(conn.read_closed);
    }

    #[test]
    fn parse_error_keeps_the_valid_prefix() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 8);
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGARBAGE LINE\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.fill();
        let (reqs, err) = conn.take_requests();
        assert!(err.is_some(), "the garbage request must surface an error");
        assert_eq!(reqs.len(), 1, "the valid prefix survives the error");
        assert_eq!(reqs[0].0, 0);
        assert_eq!(reqs[0].1.path, "/a");
        // The error response takes the next sequence, leaving the
        // write window gap-free.
        assert_eq!(conn.fail_next_request(), 1);
        assert_eq!(conn.close_after, Some(1));
    }

    #[test]
    fn responses_flush_in_sequence_order_regardless_of_completion_order() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 8);
        conn.next_seq = 2; // pretend two requests were parsed
        conn.enqueue(
            1,
            Outgoing {
                bytes: b"SECOND".to_vec(),
                close: true,
                drain: false,
            },
        );
        assert_eq!(conn.flush(), FlushStatus::Keep, "seq 0 still outstanding");
        conn.enqueue(
            0,
            Outgoing {
                bytes: b"FIRST".to_vec(),
                close: false,
                drain: false,
            },
        );
        assert_eq!(conn.flush(), FlushStatus::Close, "both flushed, then close");
        drop(conn); // the reactor drops a closed connection's socket
        client.set_nonblocking(false).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"FIRSTSECOND");
    }

    #[test]
    fn a_continue_follows_every_earlier_response_and_precedes_its_own() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 8);
        client
            .write_all(
                b"GET /a HTTP/1.1\r\n\r\n\
                  POST /b HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n",
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.fill();
        let (reqs, err) = conn.take_requests();
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1, "the second request waits for its body");
        assert_eq!(conn.flush(), FlushStatus::Keep);
        assert!(!conn.has_pending_output(), "no 100 ahead of /a's response");
        let outgoing = |bytes: &[u8], close| Outgoing {
            bytes: bytes.to_vec(),
            close,
            drain: false,
        };
        conn.enqueue(0, outgoing(b"FIRST", false));
        assert_eq!(conn.flush(), FlushStatus::Keep);
        client.write_all(b"{}").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.fill();
        let (reqs, err) = conn.take_requests();
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        conn.enqueue(1, outgoing(b"SECOND", true));
        assert_eq!(conn.flush(), FlushStatus::Close);
        drop(conn);
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"FIRSTHTTP/1.1 100 Continue\r\n\r\nSECOND");
    }

    #[test]
    fn idle_expiry_uses_the_right_window() {
        let (_client, server) = pair();
        let mut conn = Conn::new(server, 8);
        let now = Instant::now();
        assert!(!conn.expired(now, Duration::from_millis(1)));
        // Before any request: only the long socket timeout applies.
        assert!(!conn.expired(now + Duration::from_secs(1), Duration::from_millis(1)));
        assert!(conn.expired(now + SOCKET_TIMEOUT, Duration::from_millis(1)));
        // After a served request the keep-alive idle window applies.
        conn.next_seq = 1;
        assert!(conn.expired(now + Duration::from_secs(1), Duration::from_millis(1)));
        // In-flight work pins the connection open.
        conn.in_flight = 1;
        assert!(!conn.expired(now + SOCKET_TIMEOUT, Duration::from_millis(1)));
    }
}
