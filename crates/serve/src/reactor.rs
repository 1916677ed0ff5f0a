//! The readiness event loops: one thread per available CPU (at most
//! [`MAX_REACTORS`](crate::MAX_REACTORS)), each with its own epoll set,
//! eventfd and connections.
//!
//! Loop 0 also owns the listener. It hands each accepted socket to the
//! loop with the fewest open connections, ties going round-robin,
//! through that loop's [`Mailbox`], and registers a socket it picks for
//! itself at once; a connection never changes loops after that. The
//! kernel's own spreading (`SO_REUSEPORT`, `EPOLLEXCLUSIVE`) is not
//! used: it can put two busy callers on one loop. The `max_conns` bound
//! is checked, and the connection counted, at the hand-off.
//!
//! Each loop feeds bytes through its [`Conn`] state machines, pushes
//! parsed requests onto the shared admission queue, and stitches
//! worker [`Completion`]s back into the owning connection's ordered
//! write queue. It computes only the responses whose work is bounded
//! and never waits on disk: admission rejections, the `/healthz` and
//! `/statusz` probes, and a `/v1/solve` whose result the store already
//! holds ([`dispatch::answer_inline`]). Those skip the two thread
//! hand-offs but take the same completion path as a worker's answer,
//! so keep-alive and pipelining order are unchanged. Workers post
//! completions to the owning loop's mailbox and wake its eventfd; a
//! 50 ms poll timeout doubles as the clock for idle sweeps and
//! shutdown checks. A loop without the listener and without
//! connections has nothing to sweep, so it waits on its eventfd alone:
//! an idle server wakes only loop 0 on the clock.
//!
//! Tokens are `generation << 32 | slot-index` within one loop, so a
//! completion that arrives after its connection died (and the slot was
//! reused) is recognized as stale and dropped instead of corrupting the
//! new connection's pipeline.

use crate::conn::{Conn, FlushStatus, Outgoing, Phase, ReadOutcome};
use crate::dispatch::{self, Completion, DispatchJob};
use crate::http::{ParseError, Request, Response};
use crate::server::{Mailbox, Shared};
use crate::signal;
use crate::sys::{event, Epoll};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the loop's mailbox eventfd.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// How long loop 0, or a loop with connections, blocks in
/// `epoll_wait`; bounds the latency of noticing a shutdown signal with
/// no traffic.
const WAIT_MS: i32 = 50;
/// How often idle/draining connections are swept.
const SWEEP_EVERY: Duration = Duration::from_millis(500);
/// How long shutdown waits for in-flight work and unflushed responses
/// before abandoning unresponsive peers.
const STOP_GRACE: Duration = Duration::from_secs(5);

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// One event loop's state; owned by its `wrsn-serve-reactor-{i}`
/// thread.
pub(crate) struct Reactor {
    /// This loop's number: its mailbox in `Shared::reactors`.
    index: usize,
    shared: Arc<Shared>,
    epoll: Epoll,
    /// The listener, on loop 0 until shutdown starts.
    listener: Option<TcpListener>,
    /// Where loop 0 starts looking for the next hand-off's target, so
    /// ties between equally loaded loops go round-robin.
    next: usize,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Responses computed on this thread, applied with the workers'.
    answered: Vec<Completion>,
    stopping: bool,
    stop_deadline: Option<Instant>,
}

impl Reactor {
    pub fn new(
        index: usize,
        listener: Option<TcpListener>,
        epoll: Epoll,
        shared: Arc<Shared>,
    ) -> Self {
        Reactor {
            index,
            shared,
            epoll,
            listener,
            next: 0,
            slots: Vec::new(),
            free: Vec::new(),
            answered: Vec::new(),
            stopping: false,
            stop_deadline: None,
        }
    }

    fn mailbox(&self) -> &Mailbox {
        &self.shared.reactors[self.index]
    }

    /// The event loop; returns once shutdown has drained.
    pub fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .epoll
                .add(listener.as_raw_fd(), LISTENER_TOKEN, event::READ)
                .is_err()
            {
                return;
            }
        }
        let _ = self
            .epoll
            .add(self.mailbox().waker().fd(), WAKER_TOKEN, event::READ);
        let mut events = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if !self.stopping && self.draining() {
                self.stopping = true;
                self.stop_deadline = Some(Instant::now() + STOP_GRACE);
                // Workers drain the backlog, then exit on the closed
                // queue; new parses get an inline 503. The queue closes
                // before the listener, so a caller that sees the
                // listener gone finds every loop answering 503.
                self.shared.queue.close();
                if let Some(listener) = self.listener.take() {
                    self.epoll.delete(listener.as_raw_fd());
                }
            }
            if self.stopping {
                if self.quiescent() {
                    break;
                }
                if self.stop_deadline.is_some_and(|d| Instant::now() >= d) {
                    break;
                }
            }
            // Hand-offs, completions and shutdown all wake the eventfd;
            // the clock is only for idle sweeps and the signal flag.
            let idle =
                self.listener.is_none() && !self.stopping && self.free.len() == self.slots.len();
            let timeout = if idle { -1 } else { WAIT_MS };
            events.clear();
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            for &(token, mask) in &events {
                match token {
                    LISTENER_TOKEN => self.accept_all(),
                    WAKER_TOKEN => {
                        self.mailbox().waker().drain();
                        for stream in self.mailbox().take_accepted() {
                            self.register(stream);
                        }
                    }
                    _ => self.service(token, mask),
                }
            }
            self.apply_completions();
            let now = Instant::now();
            if now.saturating_duration_since(last_sweep) >= SWEEP_EVERY {
                last_sweep = now;
                self.sweep(now);
            }
        }
        // Dropping the slots closes every remaining socket.
    }

    /// Shutdown has started, whether or not this loop has seen it yet.
    fn draining(&self) -> bool {
        self.stopping || self.shared.stop.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Shutdown is complete for this loop: nothing in flight on any
    /// loop, so no connection can still be answered, and nothing left
    /// to write here. Until then an idle keep-alive connection stays
    /// open and its requests answer 503.
    fn quiescent(&self) -> bool {
        self.shared
            .reactors
            .iter()
            .all(|r| r.inflight.load(Ordering::SeqCst) == 0)
            && self.slots.iter().all(|slot| match &slot.conn {
                None => true,
                Some(conn) => {
                    matches!(conn.phase, Phase::Draining { .. }) || !conn.has_pending_output()
                }
            })
    }

    fn token_of(&self, index: usize) -> u64 {
        (u64::from(self.slots[index].gen) << 32) | index as u64
    }

    fn accept_all(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.hand_off(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient failure (e.g. EMFILE): give up this round;
                // the level-triggered listener event retries next wait.
                Err(_) => return,
            }
        }
    }

    /// Counts an accepted socket against `max_conns` and gives it to
    /// the loop with the fewest connections (the first such loop from
    /// `next`), or answers `503` when the server is full. A socket this
    /// loop keeps is registered at once, without a trip through its own
    /// mailbox.
    fn hand_off(&mut self, mut stream: TcpStream) {
        let shared = Arc::clone(&self.shared);
        let loops = shared.reactors.len();
        let mut open = 0;
        let mut target = (usize::MAX, self.next);
        for i in (self.next..loops).chain(0..self.next) {
            let conns = shared.reactors[i].conns.load(Ordering::SeqCst);
            open += conns;
            if conns < target.0 {
                target = (conns, i);
            }
        }
        if open >= shared.max_conns {
            // Admission control at the connection level: answer the 503
            // best-effort and hang up. The write must never stall the
            // loop — a hostile peer that refuses to read simply loses
            // the rejection body, which is acceptable.
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            let response = Response::error(503, "connection limit reached, try again")
                .header("Retry-After", "1");
            if stream.set_nonblocking(true).is_ok() {
                use std::io::Write as _;
                let _ = stream.write(&response.serialize(false));
            }
            return;
        }
        let target = target.1;
        self.next = (target + 1) % loops;
        shared.reactors[target].conns.fetch_add(1, Ordering::SeqCst);
        if target == self.index {
            self.register(stream);
        } else {
            shared.reactors[target].hand_over(stream);
        }
    }

    /// Adds a socket handed to this loop (and already counted) to the
    /// epoll set.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.mailbox().conns.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        // Pipelined responses are many small writes on a long-lived
        // socket; without TCP_NODELAY, Nagle holds each one for the
        // peer's delayed ACK (~40 ms) and throughput collapses.
        let _ = stream.set_nodelay(true);
        let max_requests = if self.shared.keep_alive {
            self.shared.keep_alive_max_requests
        } else {
            1
        };
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, conn: None });
            self.slots.len() - 1
        });
        let token = self.token_of(index);
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, max_requests);
        conn.interest = event::READ;
        if self.epoll.add(fd, token, event::READ).is_err() {
            self.free.push(index);
            self.mailbox().conns.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.slots[index].conn = Some(conn);
    }

    fn remove(&mut self, index: usize) {
        let slot = &mut self.slots[index];
        if let Some(conn) = slot.conn.take() {
            self.epoll.delete(conn.stream.as_raw_fd());
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(index);
            self.mailbox().conns.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn service(&mut self, token: u64, mask: u32) {
        let index = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        let valid = self
            .slots
            .get(index)
            .is_some_and(|s| s.gen == gen && s.conn.is_some());
        if !valid {
            return;
        }
        if event::readable(mask) && !self.handle_readable(index) {
            return;
        }
        if event::writable(mask) {
            self.settle(index);
        }
    }

    /// Read-side progress on one connection. Returns whether the
    /// connection is still alive.
    fn handle_readable(&mut self, index: usize) -> bool {
        let shared = Arc::clone(&self.shared);
        enum AfterRead {
            Dispatch(Vec<(usize, Request)>, ReadOutcome),
            Remove,
        }
        let step = {
            let conn = self.slots[index].conn.as_mut().expect("validated");
            if matches!(conn.phase, Phase::Draining { .. }) {
                match conn.drain_read() {
                    FlushStatus::Close => AfterRead::Remove,
                    FlushStatus::Keep => return true,
                }
            } else {
                let outcome = conn.fill();
                if outcome == ReadOutcome::Error {
                    AfterRead::Remove
                } else {
                    // A parse error still yields the requests parsed
                    // before it; they hold earlier sequence numbers, so
                    // they must be dispatched for the error response's
                    // slot to ever flush.
                    let (parsed, error) = conn.take_requests();
                    match error {
                        None => AfterRead::Dispatch(parsed, outcome),
                        Some(e) => {
                            let response = match e {
                                ParseError::TooLarge => Response::error(413, "request too large"),
                                ParseError::Bad(why) => Response::error(400, &why),
                            };
                            shared.metrics.record("other", response.status, 0);
                            let seq = conn.fail_next_request();
                            conn.enqueue(
                                seq,
                                Outgoing {
                                    bytes: response.serialize(false),
                                    close: true,
                                    drain: true,
                                },
                            );
                            AfterRead::Dispatch(parsed, outcome)
                        }
                    }
                }
            }
        };
        match step {
            AfterRead::Remove => {
                self.remove(index);
                false
            }
            AfterRead::Dispatch(parsed, outcome) => {
                for (seq, request) in parsed {
                    self.dispatch(index, seq, request);
                }
                if outcome == ReadOutcome::Eof && !self.handle_eof(index) {
                    return false;
                }
                self.settle(index)
            }
        }
    }

    /// Hands one parsed request to the worker pool, or answers it
    /// inline: `401`/`403` for failed auth, `429` past the tenant's
    /// rate limit, the probes and a stored `/v1/solve` result (past the
    /// rate limit, but ahead of the fair queue), and `503` when the
    /// tenant's sub-queue is full or the queue is closed. None of these
    /// ever occupies a worker.
    fn dispatch(&mut self, index: usize, seq: usize, request: Request) {
        let shared = Arc::clone(&self.shared);
        if seq > 0 {
            shared
                .metrics
                .keepalive_reuses
                .fetch_add(1, Ordering::Relaxed);
        }
        // Tenant admission runs before the request can touch queue
        // space: identity first, then the token bucket.
        let tenant = match shared.tenants.resolve(&request) {
            Ok(tenant) => tenant,
            Err(response) => {
                shared.metrics.record(&request.path, response.status, 0);
                self.reject(index, seq, response);
                return;
            }
        };
        if request.path.starts_with("/v1/") {
            let stats = &shared.tenants.tenant(tenant).stats;
            stats.requests.fetch_add(1, Ordering::Relaxed);
            if let Err(wait_us) = shared.tenants.admit(tenant) {
                stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                shared.metrics.record(&request.path, 429, 0);
                // Advertise the exact refill delay, rounded up to the
                // header's whole-second granularity.
                let retry_after = wait_us.div_ceil(1_000_000).max(1);
                let response = Response::error(
                    429,
                    &format!(
                        "tenant {:?} over its rate limit, retry in {wait_us} us",
                        shared.tenants.tenant(tenant).name
                    ),
                )
                .header("Retry-After", retry_after.to_string());
                self.reject(index, seq, response);
                return;
            }
        }
        let token = self.token_of(index);
        let started = Instant::now();
        // A draining server sends everything to the closed queue below,
        // which answers 503.
        if !self.draining() {
            if let Some(response) = dispatch::answer_inline(&request, tenant, &shared) {
                dispatch::record(&request, tenant, response.status, started, &shared);
                self.begin(index);
                self.answered.push(Completion {
                    token,
                    seq,
                    response,
                    truncate: false,
                });
                return;
            }
        }
        self.begin(index);
        let job = DispatchJob {
            reactor: self.index,
            token,
            seq,
            tenant,
            request,
            started,
        };
        if shared.queue.try_push(tenant, job).is_err() {
            // Admission control: answer the 503 here so a full worker
            // pool never delays the rejection.
            self.mailbox().inflight.fetch_sub(1, Ordering::SeqCst);
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            shared
                .tenants
                .tenant(tenant)
                .stats
                .queue_rejected
                .fetch_add(1, Ordering::Relaxed);
            let response =
                Response::error(503, "server busy, try again").header("Retry-After", "1");
            let conn = self.slots[index].conn.as_mut().expect("validated");
            conn.in_flight -= 1;
            self.reject(index, seq, response);
        }
    }

    /// Counts one request as in flight until its completion is applied.
    fn begin(&mut self, index: usize) {
        let conn = self.slots[index].conn.as_mut().expect("validated");
        conn.in_flight += 1;
        self.mailbox().inflight.fetch_add(1, Ordering::SeqCst);
    }

    /// Answers `response` inline and seals the connection after it:
    /// the rejection never reaches the worker pool.
    fn reject(&mut self, index: usize, seq: usize, response: Response) {
        let conn = self.slots[index].conn.as_mut().expect("validated");
        conn.close_after = Some(seq);
        conn.read_closed = true;
        conn.enqueue(
            seq,
            Outgoing {
                bytes: response.serialize(false),
                close: true,
                drain: true,
            },
        );
    }

    /// The peer closed its write side. Returns whether the connection
    /// is still alive.
    fn handle_eof(&mut self, index: usize) -> bool {
        let shared = Arc::clone(&self.shared);
        enum AfterEof {
            Keep,
            Remove,
        }
        let step = {
            let conn = self.slots[index].conn.as_mut().expect("validated");
            let sealed = conn.read_closed;
            conn.read_closed = true;
            if conn.has_buffered_input() && !sealed {
                // A genuine partial request cut off mid-head.
                let response = Response::error(400, "connection closed mid-head");
                shared.metrics.record("other", response.status, 0);
                let seq = conn.fail_next_request();
                conn.enqueue(
                    seq,
                    Outgoing {
                        bytes: response.serialize(false),
                        close: true,
                        drain: false,
                    },
                );
                AfterEof::Keep
            } else {
                // A sealed stream (`Connection: close`, keep-alive cap)
                // deliberately ignores trailing pipelined bytes — no
                // 400, and no new sequence that would override the
                // close already promised at `close_after`.
                conn.discard_input();
                if conn.in_flight == 0 && !conn.has_pending_output() {
                    // Clean close between requests.
                    AfterEof::Remove
                } else {
                    // Serve what is already in flight, then close.
                    if conn.next_seq > 0 && conn.close_after.is_none() {
                        conn.close_after = Some(conn.next_seq - 1);
                    }
                    AfterEof::Keep
                }
            }
        };
        match step {
            AfterEof::Remove => {
                self.remove(index);
                false
            }
            AfterEof::Keep => true,
        }
    }

    /// Flushes pending output and refreshes the epoll interest mask.
    /// Returns whether the connection is still alive.
    fn settle(&mut self, index: usize) -> bool {
        let status = {
            let Some(conn) = self.slots[index].conn.as_mut() else {
                return false;
            };
            conn.flush()
        };
        if status == FlushStatus::Close {
            self.remove(index);
            return false;
        }
        let update = {
            let conn = self.slots[index].conn.as_ref().expect("just flushed");
            let want = conn.interest_now();
            (conn.interest != want).then(|| (conn.stream.as_raw_fd(), want))
        };
        if let Some((fd, want)) = update {
            let token = self.token_of(index);
            if self.epoll.modify(fd, token, want).is_err() {
                self.remove(index);
                return false;
            }
            self.slots[index]
                .conn
                .as_mut()
                .expect("just flushed")
                .interest = want;
        }
        true
    }

    /// Applies every completion the workers posted to this loop, and
    /// every inline answer, since the last pass.
    fn apply_completions(&mut self) {
        let mut completions = std::mem::take(&mut self.answered);
        self.mailbox().take_completions(&mut completions);
        if completions.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let inflight = &shared.reactors[self.index].inflight;
        if inflight.fetch_sub(completions.len(), Ordering::SeqCst) == completions.len()
            && self.draining()
        {
            // The last request in flight here is done: the other loops
            // may be waiting on it to finish their shutdown.
            for mailbox in &shared.reactors {
                mailbox.waker().wake();
            }
        }
        for completion in completions {
            let index = (completion.token & u64::from(u32::MAX)) as usize;
            let gen = (completion.token >> 32) as u32;
            let valid = self
                .slots
                .get(index)
                .is_some_and(|s| s.gen == gen && s.conn.is_some());
            if !valid {
                // The connection died while its request was running.
                continue;
            }
            let stopping = self.draining();
            {
                let conn = self.slots[index].conn.as_mut().expect("validated");
                conn.in_flight = conn.in_flight.saturating_sub(1);
                let keep = shared.keep_alive
                    && completion.seq + 1 < conn.max_requests
                    && conn.close_after.is_none_or(|ca| completion.seq < ca)
                    && !stopping;
                let outgoing = if completion.truncate {
                    // Cut the serialized response in half and hang up:
                    // the client sees a short read, not a valid short
                    // body.
                    let bytes = completion.response.serialize(false);
                    let cut = (bytes.len() / 2).max(1);
                    Outgoing {
                        bytes: bytes[..cut].to_vec(),
                        close: true,
                        drain: false,
                    }
                } else {
                    Outgoing {
                        bytes: completion.response.serialize(keep),
                        close: !keep,
                        drain: false,
                    }
                };
                conn.enqueue(completion.seq, outgoing);
            }
            self.settle(index);
        }
    }

    /// Closes connections past their idle or draining deadline.
    fn sweep(&mut self, now: Instant) {
        for index in 0..self.slots.len() {
            let expired = self.slots[index]
                .conn
                .as_ref()
                .is_some_and(|c| c.expired(now, self.shared.keep_alive_idle));
            if expired {
                self.remove(index);
            }
        }
    }
}
