//! A matching minimal HTTP/1.1 client and the `loadgen` harness.
//!
//! The client speaks exactly the dialect the server emits:
//! `Content-Length` framing, with two connection styles — the one-shot
//! [`request`] (`Connection: close`, read to EOF) and the persistent
//! [`Connection`] (keep-alive, many requests per socket, optionally
//! pipelined). On top of the one-shot [`request`] sits
//! [`request_with_retry`]: a [`RetryPolicy`] with decorrelated-jitter
//! exponential backoff that honors `Retry-After`, and an optional
//! shared [`CircuitBreaker`] that stops hammering a failing server
//! (half-open probing brings it back).
//!
//! One load harness, [`loadgen`], runs a [`Workload`] and reports
//! exact (not bucketed) p50/p95/p99 latencies plus throughput. Its
//! [`Drive`] either fans one-shot requests across threads
//! (connect-per-request, the retry/chaos-era path) or opens a fixed
//! fleet of persistent connections up front and drives them with
//! pipelined batches — the path that exercises the reactor's
//! concurrency and pipelining. [`run_job`] drives the async job API
//! end to end (submit → cursor the event stream → fetch the final
//! report).

use crate::ServeError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body as text.
    pub body: String,
}

impl ClientResponse {
    /// The first header named `name` (lowercase), if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Performs one request against `addr` (e.g. `127.0.0.1:7421`) and
/// reads the full response. `body` is sent as JSON when present.
///
/// # Errors
///
/// [`ServeError::Client`] on connect, write, read, or parse failure.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<ClientResponse, ServeError> {
    request_auth(addr, method, path, body, None)
}

/// [`request`] with an optional API key sent as
/// `Authorization: Bearer {key}` — how a tenant identifies itself to a
/// multi-tenant server.
///
/// # Errors
///
/// Same as [`request`].
pub fn request_auth(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    key: Option<&str>,
) -> Result<ClientResponse, ServeError> {
    request_raw(addr, method, path, body, &bearer_header(key))
}

/// [`request`] with arbitrary extra header lines — the cluster
/// forwarding path, which must tag requests with its loop-guard header
/// while passing the caller's `Authorization` through.
///
/// # Errors
///
/// Same as [`request`].
pub fn request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra: &[(&str, &str)],
) -> Result<ClientResponse, ServeError> {
    let mut lines = String::new();
    for (name, value) in extra {
        lines.push_str(&format!("{name}: {value}\r\n"));
    }
    request_raw(addr, method, path, body, &lines)
}

/// The shared one-shot request core: `extra` is zero or more complete
/// `Name: value\r\n` header lines.
fn request_raw(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra: &str,
) -> Result<ClientResponse, ServeError> {
    let client = |m: String| ServeError::Client(m);
    let mut stream =
        TcpStream::connect(addr).map_err(|e| client(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| client(format!("timeout: {e}")))?;
    let body = body.unwrap_or("");
    let text = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(text.as_bytes())
        .map_err(|e| client(format!("write: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| client(format!("read: {e}")))?;
    parse_response(&raw).map_err(client)
}

/// The `Authorization` header line (with trailing CRLF) for an optional
/// API key; empty when no key is configured.
fn bearer_header(key: Option<&str>) -> String {
    match key {
        Some(key) => format!("Authorization: Bearer {key}\r\n"),
        None => String::new(),
    }
}

/// Parses a response head (status line + header lines, no trailing
/// blank line) into a status code and lowercased headers.
fn parse_response_head(head: &str) -> Result<(u16, Vec<(String, String)>), String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}

fn parse_response(raw: &[u8]) -> Result<ClientResponse, String> {
    let text = String::from_utf8_lossy(raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(format!("no header/body separator in {} bytes", raw.len()));
    };
    let (status, headers) = parse_response_head(head)?;
    // A body shorter than its advertised Content-Length means the
    // server hung up mid-response; surface that as an error (and thus
    // retryable) instead of silently returning the stump.
    let advertised = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    if let Some(expected) = advertised {
        if body.len() < expected {
            return Err(format!(
                "truncated body: got {} of {expected} bytes",
                body.len()
            ));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

/// Tries to lift one `Content-Length`-framed response off the front of
/// `buf`. Returns the response, how many bytes it consumed, and
/// whether the server announced `Connection: close` — or `None` when
/// the buffer does not yet hold a complete response.
fn try_parse_framed(buf: &[u8]) -> Result<Option<(ClientResponse, usize, bool)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let (status, headers) = parse_response_head(&head)?;
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    let close = headers
        .iter()
        .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
    Ok(Some((
        ClientResponse {
            status,
            headers,
            body,
        },
        total,
        close,
    )))
}

/// A persistent keep-alive connection: many requests per socket, with
/// optional pipelining (several [`Connection::send`]s before the
/// matching [`Connection::recv`]s — the server answers strictly in
/// order).
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    closing: bool,
}

impl Connection {
    /// Opens a keep-alive connection to `addr`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] on connect or socket-option failure.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Client(format!("connect {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| ServeError::Client(format!("timeout: {e}")))?;
        // Pipelined batches are small writes; don't let Nagle pace them.
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            buf: Vec::new(),
            closing: false,
        })
    }

    /// Writes one request without waiting for the response. Call
    /// repeatedly to pipeline; collect answers with [`Connection::recv`]
    /// in the same order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] on write failure.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<(), ServeError> {
        self.send_auth(method, path, body, None)
    }

    /// [`Connection::send`] with an optional API key sent as
    /// `Authorization: Bearer {key}`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] on write failure.
    pub fn send_auth(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        key: Option<&str>,
    ) -> Result<(), ServeError> {
        let body = body.unwrap_or("");
        let auth = bearer_header(key);
        let text = format!(
            "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{auth}\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(text.as_bytes())
            .map_err(|e| ServeError::Client(format!("write: {e}")))
    }

    /// Reads the next in-order response, blocking until its
    /// `Content-Length`-framed body is complete.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] on read failure, malformed framing, or
    /// EOF mid-response.
    pub fn recv(&mut self) -> Result<ClientResponse, ServeError> {
        loop {
            match try_parse_framed(&self.buf).map_err(ServeError::Client)? {
                Some((resp, used, close)) => {
                    self.buf.drain(..used);
                    self.closing |= close;
                    return Ok(resp);
                }
                None => {
                    let mut chunk = [0u8; 8192];
                    let n = self
                        .stream
                        .read(&mut chunk)
                        .map_err(|e| ServeError::Client(format!("read: {e}")))?;
                    if n == 0 {
                        return Err(ServeError::Client(format!(
                            "connection closed with {} buffered bytes and no complete response",
                            self.buf.len()
                        )));
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    /// One request–response round trip on this connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Client`] on write, read, or parse failure.
    pub fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ServeError> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Whether the server announced `Connection: close` on a response
    /// already received — the caller should reconnect before sending
    /// more.
    #[must_use]
    pub fn server_will_close(&self) -> bool {
        self.closing
    }
}

/// How [`request_with_retry`] paces its attempts and when its breaker
/// trips.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = behave like [`request`]).
    pub max_retries: u32,
    /// Minimum backoff between attempts.
    pub base: Duration,
    /// Ceiling on any single backoff sleep (also clamps `Retry-After`).
    pub cap: Duration,
    /// Seed for the jitter stream (loadgen derives one per thread).
    pub seed: u64,
    /// Consecutive failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks before half-open probing.
    pub breaker_cooldown: Duration,
}

impl Default for RetryPolicy {
    /// Six retries, 10 ms–2 s decorrelated-jitter backoff, breaker at
    /// five consecutive failures with a 200 ms cooldown.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            seed: 0,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The same policy with a different jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Statuses worth retrying: the server (or an intermediary) says "not
/// now", not "never".
#[must_use]
pub fn retryable_status(status: u16) -> bool {
    matches!(status, 429 | 500 | 502 | 503 | 504)
}

/// Decorrelated jitter (the AWS architecture-blog variant):
/// `sleep = min(cap, uniform(base, prev * 3))`. Grows roughly
/// exponentially while decorrelating concurrent clients.
fn next_backoff(rng: &mut SmallRng, base: Duration, cap: Duration, prev: Duration) -> Duration {
    let lo = base.as_secs_f64();
    let hi = (prev.as_secs_f64() * 3.0).max(lo);
    let chosen = if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    };
    Duration::from_secs_f64(chosen.min(cap.as_secs_f64()))
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are blocked until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    opens: u64,
}

/// A half-open circuit breaker shared by a client fleet: after
/// `threshold` consecutive failures it opens and blocks everyone for
/// `cooldown`, then admits exactly one probe; the probe's success
/// closes it, its failure re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive
    /// failures, cooling down for `cooldown` before probing.
    #[must_use]
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                opens: 0,
            }),
        }
    }

    /// A breaker configured from a [`RetryPolicy`].
    #[must_use]
    pub fn from_policy(policy: &RetryPolicy) -> Self {
        CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown)
    }

    /// The current state (transitions Open → HalfOpen are made by
    /// [`CircuitBreaker::try_acquire`], not by the clock alone).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .state
    }

    /// How many times the breaker has opened.
    #[must_use]
    pub fn opens(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .opens
    }

    /// Whether a request may proceed right now. While open, returns
    /// `false` until the cooldown elapses, then admits a single
    /// half-open probe (subsequent callers keep getting `false` until
    /// the probe reports back).
    #[must_use]
    pub fn try_acquire(&self) -> bool {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.cooldown);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful request: closes the breaker and resets the
    /// failure streak.
    pub fn record_success(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
    }

    /// Reports a failed request: a failed half-open probe re-opens the
    /// breaker immediately; in the closed state the failure streak
    /// opens it at the threshold.
    pub fn record_failure(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = match inner.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            inner.state = BreakerState::Open;
            inner.opened_at = Some(Instant::now());
            inner.opens += 1;
        }
    }
}

/// What [`request_with_retry`] went through to get its response.
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// The final response (its status may still be non-200 if the
    /// retry budget ran out on a retryable status).
    pub response: ClientResponse,
    /// Attempts beyond the first.
    pub retries: u64,
    /// Retryable statuses observed along the way (429/5xx).
    pub retryable_status: u64,
    /// Rate-limit rejections (`429`) observed along the way — its own
    /// bucket so throttling is distinguishable from overload `503`s.
    pub rate_limited: u64,
    /// Retryable statuses observed along the way, broken down by status
    /// code (sorted by status).
    pub retries_by_status: Vec<(u16, u64)>,
    /// Transport-level failures observed along the way (connection
    /// reset, truncated response, refused connect).
    pub transport_resets: u64,
}

/// Folds `from` into `into`, summing counts per status.
fn merge_status(into: &mut Vec<(u16, u64)>, from: &[(u16, u64)]) {
    for &(status, count) in from {
        match into.binary_search_by_key(&status, |&(s, _)| s) {
            Ok(i) => into[i].1 += count,
            Err(i) => into.insert(i, (status, count)),
        }
    }
}

/// [`request`] wrapped in retries with decorrelated-jitter backoff.
///
/// Transport errors and retryable statuses (429/500/502/503/504) are
/// retried up to `policy.max_retries` times; a `Retry-After` header is
/// honored (clamped to `[base, cap]`). When a shared `breaker` is
/// given, every attempt first acquires it, successes and failures feed
/// it, and open periods are waited out without consuming retries.
///
/// # Errors
///
/// [`ServeError::Client`] when the final attempt still failed at the
/// transport level. A non-200 final status is returned as an outcome,
/// not an error.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    breaker: Option<&CircuitBreaker>,
) -> Result<RetryOutcome, ServeError> {
    request_with_retry_auth(addr, method, path, body, None, policy, breaker)
}

/// [`request_with_retry`] with an optional API key sent as
/// `Authorization: Bearer {key}` on every attempt.
///
/// # Errors
///
/// Same as [`request_with_retry`].
pub fn request_with_retry_auth(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    key: Option<&str>,
    policy: &RetryPolicy,
    breaker: Option<&CircuitBreaker>,
) -> Result<RetryOutcome, ServeError> {
    retry_outcome(policy, breaker, || {
        request_auth(addr, method, path, body, key)
    })
}

/// [`request_with_retry`] sending arbitrary extra headers on every
/// attempt (see [`request_with_headers`]).
///
/// # Errors
///
/// Same as [`request_with_retry`].
pub fn request_with_retry_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra: &[(&str, &str)],
    policy: &RetryPolicy,
    breaker: Option<&CircuitBreaker>,
) -> Result<RetryOutcome, ServeError> {
    retry_outcome(policy, breaker, || {
        request_with_headers(addr, method, path, body, extra)
    })
}

/// [`retry_via`] with what its attempts ran into reported next to the
/// final response.
fn retry_outcome(
    policy: &RetryPolicy,
    breaker: Option<&CircuitBreaker>,
    attempt: impl Fn() -> Result<ClientResponse, ServeError>,
) -> Result<RetryOutcome, ServeError> {
    let mut seen = LoadgenReport::default();
    let response = retry_via(policy, breaker, &mut seen, attempt)?;
    Ok(RetryOutcome {
        response,
        retries: seen.retries,
        retryable_status: seen.retryable_status,
        rate_limited: seen.rate_limited,
        retries_by_status: seen.retries_by_status,
        transport_resets: seen.transport_resets,
    })
}

/// The shared retry loop: backoff, `Retry-After`, and breaker wiring
/// around any one-shot request closure. Retries, retryable statuses
/// and transport failures are counted into `seen`, also when the
/// last attempt fails.
fn retry_via(
    policy: &RetryPolicy,
    breaker: Option<&CircuitBreaker>,
    seen: &mut LoadgenReport,
    attempt: impl Fn() -> Result<ClientResponse, ServeError>,
) -> Result<ClientResponse, ServeError> {
    let mut rng = SmallRng::seed_from_u64(policy.seed);
    let mut prev = policy.base;
    let mut attempts = 0u32;
    loop {
        if let Some(b) = breaker {
            // An open breaker means *wait*, not *fail*: these sleeps
            // are bounded by the cooldown and consume no retry budget.
            while !b.try_acquire() {
                std::thread::sleep(
                    policy
                        .breaker_cooldown
                        .max(Duration::from_millis(1))
                        .min(Duration::from_millis(20)),
                );
            }
        }
        let result = attempt();
        let retry_after = match &result {
            Ok(resp) if !retryable_status(resp.status) => {
                if let Some(b) = breaker {
                    b.record_success();
                }
                return result;
            }
            Ok(resp) => {
                seen.saw(resp.status);
                resp.header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(Duration::from_secs)
            }
            Err(_) => {
                seen.transport_resets += 1;
                None
            }
        };
        if let Some(b) = breaker {
            b.record_failure();
        }
        if attempts >= policy.max_retries {
            return result;
        }
        attempts += 1;
        seen.retries += 1;
        let sleep = match retry_after {
            // The server named a pause; respect it within our bounds.
            Some(after) => after.max(policy.base).min(policy.cap),
            None => {
                prev = next_backoff(&mut rng, policy.base, policy.cap, prev);
                prev
            }
        };
        std::thread::sleep(sleep);
    }
}

/// What a load run measured. Counts add up over requests, threads and
/// lanes through one [`LoadgenReport::merge`].
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests that completed with status 200 (eventually, when
    /// retries are enabled).
    pub ok: u64,
    /// Requests whose *final* status was not 200.
    pub non_ok: u64,
    /// Requests that terminally failed at the transport level.
    pub errors: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Sorted per-request latencies (successful requests only).
    pub latencies: Vec<Duration>,
    /// Retry attempts spent across all requests (zero without a retry
    /// policy).
    pub retries: u64,
    /// Retryable statuses (429/5xx, e.g. a 503 + `Retry-After`)
    /// observed along the way — distinguishable from transport resets
    /// so retry behavior is measurable.
    pub retryable_status: u64,
    /// Rate-limit rejections (`429`) observed along the way — its own
    /// bucket so a throttled tenant can see exactly how often the
    /// server pushed back, separately from overload `503`s.
    pub rate_limited: u64,
    /// Retryable statuses observed along the way broken down by status
    /// code (sorted by status) — e.g. `[(429, 31), (503, 4)]`.
    pub retries_by_status: Vec<(u16, u64)>,
    /// Transport-level failures (connection reset, truncated response)
    /// observed along the way, whether or not a retry recovered them.
    pub transport_resets: u64,
    /// Times the shared circuit breaker opened during the run.
    pub breaker_opens: u64,
    /// Concurrent connections the run held open: the thread count of a
    /// [`Drive::PerRequest`] run, the socket-fleet size of a
    /// [`Drive::KeepAlive`] one.
    pub connections: usize,
}

impl LoadgenReport {
    /// Completed requests (any status) per wall-clock second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let total = (self.ok + self.non_ok) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            total / secs
        } else {
            0.0
        }
    }

    /// The exact `q`-quantile latency from the sorted samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank =
            ((q * self.latencies.len() as f64).ceil() as usize).clamp(1, self.latencies.len());
        self.latencies[rank - 1]
    }

    /// Folds `other` into this report: counts and connections add, the
    /// latencies stay sorted, and the wall clock is the longer of the
    /// two, since threads and lanes run at the same time.
    pub fn merge(&mut self, other: LoadgenReport) {
        self.ok += other.ok;
        self.non_ok += other.non_ok;
        self.errors += other.errors;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latencies.extend(other.latencies);
        self.latencies.sort_unstable();
        self.retries += other.retries;
        self.retryable_status += other.retryable_status;
        self.rate_limited += other.rate_limited;
        merge_status(&mut self.retries_by_status, &other.retries_by_status);
        self.transport_resets += other.transport_resets;
        self.breaker_opens += other.breaker_opens;
        self.connections += other.connections;
    }

    /// Counts one response on the way to a request's answer: a
    /// retryable status (429/5xx) by its code, a 429 also as a rate
    /// limit.
    fn saw(&mut self, status: u16) {
        if retryable_status(status) {
            self.retryable_status += 1;
            merge_status(&mut self.retries_by_status, &[(status, 1)]);
            if status == 429 {
                self.rate_limited += 1;
            }
        }
    }

    /// Counts a request's final answer: a 200 with its latency, any
    /// other status as not OK.
    fn answered(&mut self, status: u16, latency: Duration) {
        if status == 200 {
            self.ok += 1;
            self.latencies.push(latency);
        } else {
            self.non_ok += 1;
        }
    }
}

/// The one request a load run repeats: where it goes, what it says,
/// and the API key it sends as `Authorization: Bearer {key}`.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec<'a> {
    /// Server address, e.g. `127.0.0.1:7421`.
    pub addr: &'a str,
    /// HTTP method.
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// JSON body, if any.
    pub body: Option<&'a str>,
    /// API key, if any.
    pub key: Option<&'a str>,
}

impl RequestSpec<'_> {
    /// Sends the request once on a new connection.
    fn send(&self) -> Result<ClientResponse, ServeError> {
        request_auth(self.addr, self.method, self.path, self.body, self.key)
    }
}

/// How a load run drives its requests.
#[derive(Debug, Clone)]
pub enum Drive {
    /// One connection per request (`Connection: close`), the requests
    /// spread over `threads` threads. With a `retry` policy every
    /// request retries through one circuit breaker the threads share,
    /// each thread drawing its own jitter seed from the policy's.
    PerRequest {
        /// Client threads.
        threads: usize,
        /// Retry policy, if any.
        retry: Option<RetryPolicy>,
    },
    /// A fleet of `connections` keep-alive connections, all opened
    /// before the clock starts so the server holds the whole fleet at
    /// once, each writing `pipeline` requests per batch. The fleet is
    /// spread over up to `available_parallelism` threads.
    KeepAlive {
        /// Fleet size.
        connections: usize,
        /// Requests written per batch on each connection.
        pipeline: usize,
    },
}

/// One load run: the request, how many times to send it, and how.
#[derive(Debug, Clone)]
pub struct Workload<'a> {
    /// The request every send repeats.
    pub request: RequestSpec<'a>,
    /// How many times to send it.
    pub requests: u64,
    /// How the sends are driven.
    pub drive: Drive,
}

/// Sends `work.requests` copies of `work.request` the way `work.drive`
/// says, and reports throughput, exact latency quantiles and what the
/// retries went through.
///
/// # Errors
///
/// [`ServeError::Client`] when the first probe request fails — a dead
/// server fails fast instead of producing a report of pure errors — or
/// when a socket of a [`Drive::KeepAlive`] fleet cannot be opened.
/// Failures during the run are counted, not fatal.
pub fn loadgen(work: &Workload<'_>) -> Result<LoadgenReport, ServeError> {
    let spec = work.request;
    let (policy, breaker) = match &work.drive {
        Drive::PerRequest {
            retry: Some(policy),
            ..
        } => (policy.clone(), Some(CircuitBreaker::from_policy(policy))),
        _ => (
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            None,
        ),
    };
    let breaker = breaker.as_ref();
    // Probe first so misconfiguration is an error, not a zero report
    // (under chaos the probe itself retries, so an injected fault
    // cannot fail an otherwise healthy run).
    retry_via(&policy, breaker, &mut LoadgenReport::default(), || {
        spec.send()
    })?;
    Ok(match work.drive {
        Drive::PerRequest { threads, .. } => {
            let threads = threads.max(1);
            let policy = &policy;
            let report = fan_out(split(work.requests, threads), |t, quota| {
                // Decorrelate threads without sharing rng state.
                let policy = policy
                    .clone()
                    .with_seed(policy.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut tally = LoadgenReport::default();
                for _ in 0..quota {
                    let t0 = Instant::now();
                    match retry_via(&policy, breaker, &mut tally, || spec.send()) {
                        Ok(resp) => tally.answered(resp.status, t0.elapsed()),
                        Err(_) => tally.errors += 1,
                    }
                }
                tally
            });
            LoadgenReport {
                connections: threads,
                breaker_opens: breaker.map_or(0, CircuitBreaker::opens),
                ..report
            }
        }
        Drive::KeepAlive {
            connections,
            pipeline,
        } => {
            let (connections, pipeline) = (connections.max(1), pipeline.max(1));
            let threads = std::thread::available_parallelism()
                .map_or(8, std::num::NonZeroUsize::get)
                .min(connections);
            // Open the whole fleet before the clock starts, dealt
            // round-robin so quota remainders spread evenly.
            let mut groups: Vec<Vec<(Connection, u64)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (c, quota) in split(work.requests, connections).into_iter().enumerate() {
                groups[c % threads].push((Connection::connect(spec.addr)?, quota));
            }
            let report = fan_out(groups, |_, group| {
                let mut tally = LoadgenReport::default();
                for (conn, quota) in group {
                    drive_connection(spec, conn, quota, pipeline, &mut tally);
                }
                tally
            });
            LoadgenReport {
                connections,
                ..report
            }
        }
    })
}

/// `total` split into `parts` shares that differ by at most one, the
/// larger shares first.
fn split(total: u64, parts: usize) -> Vec<u64> {
    let n = parts as u64;
    (0..n)
        .map(|i| total / n + u64::from(i < total % n))
        .collect()
}

/// Runs `run` on every part, each in a thread of its own, and merges
/// what they counted. The run's wall clock covers these threads only.
fn fan_out<T: Send>(
    parts: Vec<T>,
    run: impl Fn(usize, T) -> LoadgenReport + Sync,
) -> LoadgenReport {
    let run = &run;
    let started = Instant::now();
    let mut total = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| scope.spawn(move || run(i, part)))
            .collect();
        let mut total = LoadgenReport::default();
        for handle in handles {
            total.merge(handle.join().expect("loadgen thread panicked"));
        }
        total
    });
    total.elapsed = started.elapsed();
    total
}

/// Drives one persistent connection through its request quota in
/// pipelined batches, reconnecting when the server closes it (e.g. at
/// its per-connection request cap).
fn drive_connection(
    spec: RequestSpec<'_>,
    mut conn: Connection,
    quota: u64,
    pipeline: usize,
    tally: &mut LoadgenReport,
) {
    let mut remaining = quota;
    let mut retried_stale = false;
    while remaining > 0 {
        let batch = (pipeline as u64).min(remaining);
        let t0 = Instant::now();
        let mut sent = 0u64;
        for _ in 0..batch {
            if conn
                .send_auth(spec.method, spec.path, spec.body, spec.key)
                .is_err()
            {
                break;
            }
            sent += 1;
        }
        let mut received = 0u64;
        let mut broken = sent < batch;
        for _ in 0..sent {
            match conn.recv() {
                Ok(resp) => {
                    received += 1;
                    tally.saw(resp.status);
                    // Batch-relative latency: later responses in a
                    // deep pipeline carry their queueing delay.
                    tally.answered(resp.status, t0.elapsed());
                }
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if broken && received == 0 && !retried_stale {
            // Stale keep-alive connection: the server closed it while
            // it sat idle (keep-alive idle timeout, max-requests cap)
            // and nothing came back. Standard client behavior is to
            // retry the batch once on a fresh socket — the requests
            // were never processed, so nothing is double-counted.
            tally.transport_resets += 1;
            match Connection::connect(spec.addr) {
                Ok(fresh) => {
                    conn = fresh;
                    retried_stale = true;
                    continue;
                }
                Err(_) => {
                    tally.errors += remaining;
                    return;
                }
            }
        }
        retried_stale = false;
        let unanswered = batch - received;
        if unanswered > 0 {
            tally.errors += unanswered;
            tally.transport_resets += 1;
        }
        remaining -= batch;
        if broken || conn.server_will_close() {
            match Connection::connect(spec.addr) {
                Ok(fresh) => conn = fresh,
                Err(_) => {
                    tally.errors += remaining;
                    tally.transport_resets += 1;
                    return;
                }
            }
        }
    }
}

/// What one async job round trip produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The server-assigned job id.
    pub id: u64,
    /// Terminal state: `"done"` or `"failed"`.
    pub state: String,
    /// Progress events collected from the cursor stream.
    pub events: Vec<serde::Value>,
    /// The final `GET /v1/jobs/{id}` body — carries the full sweep
    /// report (byte-identical to `/v1/sweep`) under `"report"` when
    /// the job succeeded.
    pub final_body: String,
}

/// Submits `spec` to `POST /v1/jobs` and follows the job to its
/// terminal state: cursors `GET /v1/jobs/{id}/events` until the state
/// leaves `"running"`, then fetches the final poll body. Every request
/// sends `key`, when given, as `Authorization: Bearer {key}`.
///
/// # Errors
///
/// [`ServeError::Client`] on transport failure, a non-202 submit, a
/// malformed body, or when the job outlives `deadline`.
pub fn run_job(
    addr: &str,
    key: Option<&str>,
    spec: Option<&str>,
    poll_every: Duration,
    deadline: Duration,
) -> Result<JobOutcome, ServeError> {
    let submitted = request_auth(addr, "POST", "/v1/jobs", spec, key)?;
    if submitted.status != 202 {
        return Err(ServeError::Client(format!(
            "job submit: status {} body {}",
            submitted.status, submitted.body
        )));
    }
    let parsed: serde::Value = serde_json::from_str(&submitted.body)
        .map_err(|e| ServeError::Client(format!("job submit body: {e}")))?;
    let id = parsed
        .get("id")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| ServeError::Client(format!("no job id in {}", submitted.body)))?;
    let started = Instant::now();
    let mut cursor = 0u64;
    let mut events: Vec<serde::Value> = Vec::new();
    let state = loop {
        let resp = request_auth(
            addr,
            "GET",
            &format!("/v1/jobs/{id}/events?since={cursor}"),
            None,
            key,
        )?;
        let page: serde::Value = serde_json::from_str(&resp.body)
            .map_err(|e| ServeError::Client(format!("job events body: {e}")))?;
        if let Some(serde::Value::Array(batch)) = page.get("events") {
            events.extend(batch.iter().cloned());
        }
        cursor = page
            .get("next")
            .and_then(serde::Value::as_u64)
            .unwrap_or(cursor);
        let state = page
            .get("state")
            .and_then(serde::Value::as_str)
            .unwrap_or("running")
            .to_string();
        if state != "running" {
            break state;
        }
        if started.elapsed() > deadline {
            return Err(ServeError::Client(format!(
                "job {id} still running after {deadline:?}"
            )));
        }
        std::thread::sleep(poll_every);
    };
    let final_poll = request_auth(addr, "GET", &format!("/v1/jobs/{id}"), None, key)?;
    Ok(JobOutcome {
        id,
        state,
        events,
        final_body: final_poll.body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n{\"error\":\"busy\"}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.body.contains("busy"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut latencies: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        latencies.sort_unstable();
        let report = LoadgenReport {
            ok: 100,
            elapsed: Duration::from_secs(1),
            latencies,
            ..LoadgenReport::default()
        };
        assert_eq!(report.quantile(0.50), Duration::from_millis(50));
        assert_eq!(report.quantile(0.95), Duration::from_millis(95));
        assert_eq!(report.quantile(0.99), Duration::from_millis(99));
        assert!((report.throughput_rps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let report = LoadgenReport::default();
        assert_eq!(report.quantile(0.5), Duration::ZERO);
        assert_eq!(report.throughput_rps(), 0.0);
    }

    /// One request as a load run ends it: the retryable statuses and
    /// transport resets its attempts ran into, the retries it spent,
    /// and its final status and latency (`None`: it failed terminally).
    struct Outcome {
        seen: Vec<u16>,
        resets: u64,
        retries: u64,
        last: Option<(u16, Duration)>,
    }

    /// Counts `outcome` as `loadgen`'s threads do.
    fn record(report: &mut LoadgenReport, outcome: &Outcome) {
        for &status in &outcome.seen {
            report.saw(status);
        }
        report.transport_resets += outcome.resets;
        report.retries += outcome.retries;
        match outcome.last {
            Some((status, latency)) => {
                report.saw(status);
                report.answered(status, latency);
            }
            None => report.errors += 1,
        }
    }

    #[test]
    fn merged_threads_and_lanes_count_what_one_report_of_every_outcome_counts() {
        let statuses = [200, 200, 200, 200, 400, 404, 429, 500, 502, 503, 504];
        let retryable = [429, 500, 502, 503, 504];
        let mut rng = SmallRng::seed_from_u64(2301);
        for case in 0..400 {
            let outcomes: Vec<Outcome> = (0..rng.random_range(0..120))
                .map(|_| Outcome {
                    seen: (0..rng.random_range(0..4))
                        .map(|_| retryable[rng.random_range(0..retryable.len())])
                        .collect(),
                    resets: rng.random_range(0..3),
                    retries: rng.random_range(0..5),
                    last: (rng.random_range(0..8) > 0).then(|| {
                        let status = statuses[rng.random_range(0..statuses.len())];
                        (status, Duration::from_micros(rng.random_range(0..50)))
                    }),
                })
                .collect();
            // The oracle counts every outcome at once, by hand.
            let mut by_status = std::collections::BTreeMap::new();
            let mut want = LoadgenReport::default();
            for outcome in &outcomes {
                let last = outcome.last.map(|(status, _)| status);
                for &status in outcome.seen.iter().chain(last.iter()) {
                    if retryable.contains(&status) {
                        want.retryable_status += 1;
                        *by_status.entry(status).or_insert(0) += 1;
                    }
                    want.rate_limited += u64::from(status == 429);
                }
                want.transport_resets += outcome.resets;
                want.retries += outcome.retries;
                match outcome.last {
                    Some((200, latency)) => {
                        want.ok += 1;
                        want.latencies.push(latency);
                    }
                    Some(_) => want.non_ok += 1,
                    None => want.errors += 1,
                }
            }
            want.latencies.sort_unstable();
            want.retries_by_status = by_status.into_iter().collect();
            // The run under test deals the outcomes over random lanes
            // and threads, then merges threads into lanes and lanes
            // into the total.
            let lanes: usize = rng.random_range(1..4);
            let mut threads: Vec<Vec<LoadgenReport>> = (0..lanes)
                .map(|_| vec![LoadgenReport::default(); rng.random_range(1..5usize)])
                .collect();
            for outcome in &outcomes {
                let lane = &mut threads[rng.random_range(0..lanes)];
                let t = rng.random_range(0..lane.len());
                record(&mut lane[t], outcome);
            }
            let mut total = LoadgenReport::default();
            for lane_threads in threads {
                let mut lane = LoadgenReport::default();
                for thread in lane_threads {
                    lane.merge(thread);
                }
                lane.elapsed = Duration::from_millis(rng.random_range(0..100));
                lane.connections = rng.random_range(1..9);
                lane.breaker_opens = rng.random_range(0..3);
                want.elapsed = want.elapsed.max(lane.elapsed);
                want.connections += lane.connections;
                want.breaker_opens += lane.breaker_opens;
                total.merge(lane);
            }
            let counts = |r: &LoadgenReport| {
                [
                    r.ok,
                    r.non_ok,
                    r.errors,
                    r.retries,
                    r.retryable_status,
                    r.rate_limited,
                    r.transport_resets,
                    r.breaker_opens,
                    r.connections as u64,
                ]
            };
            assert_eq!(counts(&total), counts(&want), "case {case}");
            assert_eq!(
                total.retries_by_status, want.retries_by_status,
                "case {case}"
            );
            assert_eq!(total.elapsed, want.elapsed, "case {case}");
            assert_eq!(total.latencies, want.latencies, "case {case}");
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(total.quantile(q), want.quantile(q), "case {case}, q {q}");
            }
        }
    }

    #[test]
    fn request_against_a_dead_port_errors() {
        // Port 9 (discard) is almost certainly closed in the test
        // environment; a refused connection must surface as Client.
        let err = request("127.0.0.1:9", "GET", "/healthz", None).unwrap_err();
        assert!(matches!(err, ServeError::Client(_)));
    }

    #[test]
    fn truncated_body_is_a_parse_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n{\"cut\":";
        let err = parse_response(raw).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // An exact-length body still parses.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(raw).unwrap().body, "{}");
    }

    #[test]
    fn retryable_statuses_are_the_not_now_codes() {
        for code in [429, 500, 502, 503, 504] {
            assert!(retryable_status(code), "{code}");
        }
        for code in [200, 400, 404, 405, 413] {
            assert!(!retryable_status(code), "{code}");
        }
    }

    #[test]
    fn backoff_grows_within_bounds_and_respects_the_cap() {
        let mut rng = SmallRng::seed_from_u64(5);
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut prev = base;
        for _ in 0..50 {
            let next = next_backoff(&mut rng, base, cap, prev);
            assert!(next >= base, "{next:?} below base");
            assert!(next <= cap, "{next:?} above cap");
            prev = next;
        }
        // Degenerate case: prev * 3 == base (empty jitter range).
        let next = next_backoff(&mut rng, base, cap, Duration::ZERO);
        assert_eq!(next, base);
    }

    #[test]
    fn breaker_opens_half_opens_and_recloses() {
        let cooldown = Duration::from_millis(10);
        let breaker = CircuitBreaker::new(3, cooldown);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.try_acquire());

        // Three consecutive failures trip it open.
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.opens(), 1);
        assert!(!breaker.try_acquire(), "open breaker blocks immediately");

        // After the cooldown exactly one probe gets through.
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(breaker.try_acquire(), "cooldown elapsed: probe admitted");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.try_acquire(), "only one probe at a time");

        // A failed probe re-opens; a successful one closes for good.
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.opens(), 2);
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(breaker.try_acquire());
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.try_acquire());
        assert_eq!(breaker.opens(), 2, "success does not add an open");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let breaker = CircuitBreaker::new(3, Duration::from_millis(1));
        breaker.record_failure();
        breaker.record_failure();
        breaker.record_success();
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(
            breaker.state(),
            BreakerState::Closed,
            "interleaved successes keep the streak below threshold"
        );
    }

    #[test]
    fn framed_parser_waits_for_complete_responses() {
        // No header/body separator yet.
        assert!(try_parse_framed(b"HTTP/1.1 200 OK\r\n").unwrap().is_none());
        // Head complete, body still short.
        let partial = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab";
        assert!(try_parse_framed(partial).unwrap().is_none());
        // Complete response followed by the start of the next one.
        let mut raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}".to_vec();
        raw.extend_from_slice(b"HTTP/1.1 404 Not Found\r\n");
        let (resp, used, close) = try_parse_framed(&raw).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{}");
        assert_eq!(used, raw.len() - b"HTTP/1.1 404 Not Found\r\n".len());
        assert!(!close);
        // Connection: close is surfaced.
        let closing = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let (_, _, close) = try_parse_framed(closing).unwrap().unwrap();
        assert!(close);
    }

    #[test]
    fn keep_alive_connection_pipelines_and_reuses_the_socket() {
        let server = crate::Server::start(
            &crate::ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_depth: 8,
                keep_alive: true,
                keep_alive_max_requests: 64,
                ..crate::ServerConfig::default()
            },
            crate::api::ApiContext::new(),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let mut conn = Connection::connect(&addr).unwrap();
        // Sequential reuse.
        for _ in 0..3 {
            let resp = conn.roundtrip("GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200);
        }
        // Pipelined batch: three sends, then three in-order receives.
        conn.send("GET", "/healthz", None).unwrap();
        conn.send("GET", "/nope", None).unwrap();
        conn.send("GET", "/v1/solvers", None).unwrap();
        assert_eq!(conn.recv().unwrap().status, 200);
        assert_eq!(conn.recv().unwrap().status, 404);
        let solvers = conn.recv().unwrap();
        assert_eq!(solvers.status, 200);
        assert!(solvers.body.contains("rfh"), "{}", solvers.body);
        assert!(!conn.server_will_close());
        server.shutdown().unwrap();
    }

    #[test]
    fn keep_alive_loadgen_spreads_quota_over_the_fleet() {
        let server = crate::Server::start(
            &crate::ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_depth: 32,
                keep_alive: true,
                keep_alive_max_requests: 64,
                ..crate::ServerConfig::default()
            },
            crate::api::ApiContext::new(),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let report = loadgen(&Workload {
            request: RequestSpec {
                addr: &addr,
                method: "GET",
                path: "/healthz",
                body: None,
                key: None,
            },
            requests: 40,
            drive: Drive::KeepAlive {
                connections: 4,
                pipeline: 3,
            },
        })
        .unwrap();
        assert_eq!(
            report.ok, 40,
            "errors={} non_ok={}",
            report.errors, report.non_ok
        );
        assert_eq!(report.connections, 4);
        assert_eq!(report.latencies.len(), 40);
        server.shutdown().unwrap();
    }

    #[test]
    fn a_terminal_failure_keeps_what_its_attempts_ran_into() {
        let policy = RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let attempts = std::cell::Cell::new(0);
        let mut seen = LoadgenReport::default();
        let result = retry_via(&policy, None, &mut seen, || {
            attempts.set(attempts.get() + 1);
            if attempts.get() == 1 {
                parse_response(b"HTTP/1.1 503 Service Unavailable\r\n\r\n")
                    .map_err(ServeError::Client)
            } else {
                Err(ServeError::Client("connection reset".into()))
            }
        });
        assert!(result.is_err());
        assert_eq!(attempts.get(), 3);
        assert_eq!(
            (seen.retries, seen.retryable_status, seen.transport_resets),
            (2, 1, 2)
        );
        assert_eq!(seen.retries_by_status, vec![(503, 1)]);
    }

    #[test]
    fn retry_against_a_dead_port_spends_its_budget_then_errors() {
        let policy = RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let err =
            request_with_retry("127.0.0.1:9", "GET", "/healthz", None, &policy, None).unwrap_err();
        assert!(matches!(err, ServeError::Client(_)));
    }
}
