//! Multi-tenant admission: API keys, deterministic token buckets, and
//! a deficit-round-robin weighted-fair queue.
//!
//! Three mechanisms, layered in dispatch order, keep one tenant from
//! starving or crashing the fleet:
//!
//! 1. **Identity** ([`TenantTable::resolve`]): requests carry
//!    `Authorization: Bearer KEY`; keys are compared in constant time.
//!    Probe endpoints (`/healthz`, `/statusz`) always resolve to the
//!    anonymous tenant so readiness checks can never be locked out,
//!    and a server started without a tenant config keeps the exact
//!    pre-tenant behavior (one anonymous tenant, no auth, no limits).
//! 2. **Rate** ([`TokenBucket`]): a deterministic token bucket per
//!    tenant (`rps` + `burst`) answers `429` with the exact refill
//!    delay in `Retry-After`, so the retrying client backs off by the
//!    right amount instead of guessing.
//! 3. **Share** ([`FairQueue`]): the admission queue holds one
//!    sub-queue per tenant with its own depth cap (overflow answered
//!    inline with `503`); workers pop by deficit round-robin over the
//!    configured weights, so a tenant flooding sweeps is bounded to
//!    its weighted share of the worker pool while backlogged.

use crate::http::{Request, Response};
use crate::metrics::Histogram;
use serde::{Deserialize, Serialize as _, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use wrsn_engine::CacheStats;

/// The anonymous tenant's index in every [`TenantTable`].
pub const ANONYMOUS: usize = 0;

fn default_weight() -> u32 {
    1
}

/// One tenant as declared in the `--tenants` config file (JSON lines,
/// one object per tenant; blank lines and `#` comments are skipped).
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TenantSpec {
    /// Display name; also the cache namespace for isolated tenants.
    pub name: String,
    /// The API key presented as `Authorization: Bearer KEY`. Omitted
    /// for the anonymous entry (configuring keyless callers).
    #[serde(default)]
    pub key: Option<String>,
    /// Deficit-round-robin weight: under saturation a tenant receives
    /// `weight / sum(weights of backlogged tenants)` of the workers.
    #[serde(default = "default_weight")]
    pub weight: u32,
    /// Sustained requests per second (0 or omitted = unlimited).
    #[serde(default)]
    pub rps: Option<f64>,
    /// Token-bucket burst capacity (defaults to `--default-burst`).
    #[serde(default)]
    pub burst: Option<u64>,
    /// Per-tenant admission sub-queue depth (defaults to the global
    /// `--queue-depth`).
    #[serde(default)]
    pub queue_depth: Option<usize>,
    /// When `true`, the tenant's results live in a private cache
    /// namespace (its name is folded into the fingerprint); otherwise
    /// tenants share one namespace and each other's cached sweeps.
    #[serde(default)]
    pub isolated: bool,
    /// Concurrent async-job slots (defaults to the global `--max-jobs`).
    #[serde(default)]
    pub max_jobs: Option<usize>,
}

/// Checks a request rate, `--default-rps` and a tenant's `rps` alike:
/// finite and at least 0, where 0 turns limiting off.
///
/// # Errors
///
/// What is wrong with it, for the caller to prefix with its name.
pub fn check_rate(rps: f64) -> Result<(), String> {
    if rps.is_finite() && rps >= 0.0 {
        Ok(())
    } else {
        Err(format!("must be finite and non-negative, got {rps}"))
    }
}

/// Parses a tenant config file: one JSON object per line.
///
/// # Errors
///
/// A message naming the offending line on malformed JSON, duplicate
/// names/keys, an empty name, a zero weight, burst, queue depth or job
/// cap, or an `rps` that [`check_rate`] refuses (each named by its key).
pub fn parse_tenants(text: &str) -> Result<Vec<TenantSpec>, String> {
    let mut specs: Vec<TenantSpec> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let spec: TenantSpec =
            serde_json::from_str(line).map_err(|e| format!("tenants file line {}: {e}", i + 1))?;
        if spec.name.trim().is_empty() {
            return Err(format!("tenants file line {}: empty tenant name", i + 1));
        }
        let zero = [
            ("weight", spec.weight == 0),
            ("burst", spec.burst == Some(0)),
            ("queue_depth", spec.queue_depth == Some(0)),
            ("max_jobs", spec.max_jobs == Some(0)),
        ];
        if let Some((key, _)) = zero.iter().find(|(_, zero)| *zero) {
            return Err(format!(
                "tenants file line {}: {key} must be at least 1",
                i + 1
            ));
        }
        if let Some(rps) = spec.rps {
            check_rate(rps).map_err(|why| format!("tenants file line {}: rps {why}", i + 1))?;
        }
        if specs.iter().any(|s| s.name == spec.name) {
            return Err(format!(
                "tenants file line {}: duplicate tenant name {:?}",
                i + 1,
                spec.name
            ));
        }
        if let Some(key) = &spec.key {
            if key.is_empty() {
                return Err(format!("tenants file line {}: empty API key", i + 1));
            }
            if specs.iter().any(|s| s.key.as_deref() == Some(key)) {
                return Err(format!("tenants file line {}: duplicate API key", i + 1));
            }
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Constant-time byte comparison: the fold touches every position of
/// the longer input regardless of where (or whether) a mismatch
/// occurs, so timing reveals nothing about how much of a guessed key
/// was right.
#[must_use]
pub fn constant_time_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// A deterministic token bucket over an explicit microsecond clock:
/// the same `(rate, burst)` and the same sequence of timestamps always
/// produce the same admit/reject decisions, which is what makes the
/// limiter property-testable and the `Retry-After` delay exact.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_us: u64,
}

impl TokenBucket {
    /// A full bucket admitting `rate_per_s` sustained requests per
    /// second with bursts up to `burst` (clamped to at least 1).
    /// `rate_per_s <= 0` disables limiting entirely.
    #[must_use]
    pub fn new(rate_per_s: f64, burst: u64) -> Self {
        let burst = burst.max(1) as f64;
        TokenBucket {
            rate: rate_per_s,
            burst,
            tokens: burst,
            last_us: 0,
        }
    }

    /// Takes one token at time `now_us` (microseconds on any monotonic
    /// clock; a timestamp earlier than the last one is clamped so the
    /// refill never runs backwards).
    ///
    /// # Errors
    ///
    /// `Err(wait_us)` when the bucket is empty: the exact delay until
    /// one token will have refilled.
    pub fn try_take(&mut self, now_us: u64) -> Result<(), u64> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        let now = now_us.max(self.last_us);
        let dt = (now - self.last_us) as f64 / 1e6;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last_us = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let wait_us = ((1.0 - self.tokens) / self.rate * 1e6).ceil() as u64;
            Err(wait_us.max(1))
        }
    }

    /// Tokens currently available (diagnostics only).
    #[must_use]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Lock-free per-tenant counters surfaced in `/statusz`.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// `/v1` requests attributed to this tenant (admitted or 429'd).
    pub requests: AtomicU64,
    /// Requests bounced by the token bucket.
    pub rate_limited: AtomicU64,
    /// Requests bounced by the tenant's full sub-queue.
    pub queue_rejected: AtomicU64,
    /// Cache hits across the tenant's API calls.
    pub cache_hits: AtomicU64,
    /// Cache misses across the tenant's API calls.
    pub cache_misses: AtomicU64,
    /// Latency of completed `/v1` requests.
    pub latency: Histogram,
}

/// One configured tenant at runtime.
#[derive(Debug)]
pub struct Tenant {
    /// Display name (and isolated-cache namespace).
    pub name: String,
    key: Option<String>,
    /// Deficit-round-robin weight.
    pub weight: u32,
    /// Whether cached results live in a private namespace.
    pub isolated: bool,
    /// Admission sub-queue depth.
    pub queue_depth: usize,
    /// Concurrent async-job cap.
    pub max_jobs: usize,
    bucket: Mutex<TokenBucket>,
    active_jobs: AtomicUsize,
    /// The tenant's counters.
    pub stats: TenantStats,
}

impl Tenant {
    fn from_spec(spec: &TenantSpec, defaults: &TenantDefaults) -> Self {
        let rps = spec.rps.unwrap_or(defaults.rps);
        let burst = spec.burst.unwrap_or(defaults.burst);
        Tenant {
            name: spec.name.clone(),
            key: spec.key.clone(),
            weight: spec.weight.max(1),
            isolated: spec.isolated,
            queue_depth: spec.queue_depth.unwrap_or(defaults.queue_depth).max(1),
            max_jobs: spec.max_jobs.unwrap_or(defaults.max_jobs).max(1),
            bucket: Mutex::new(TokenBucket::new(rps, burst)),
            active_jobs: AtomicUsize::new(0),
            stats: TenantStats::default(),
        }
    }

    fn anonymous(defaults: &TenantDefaults) -> Self {
        Tenant::from_spec(
            &TenantSpec {
                name: "anonymous".to_string(),
                key: None,
                weight: default_weight(),
                rps: None,
                burst: None,
                queue_depth: None,
                isolated: false,
                max_jobs: None,
            },
            defaults,
        )
    }

    /// The cache namespace: `Some(name)` only for isolated tenants.
    #[must_use]
    pub fn namespace(&self) -> Option<&str> {
        self.isolated.then_some(self.name.as_str())
    }

    /// Reserves one async-job slot; `false` when the tenant is at its
    /// job cap.
    pub fn try_reserve_job(&self) -> bool {
        self.active_jobs
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
                (a < self.max_jobs).then_some(a + 1)
            })
            .is_ok()
    }

    /// Releases a slot taken by [`Tenant::try_reserve_job`].
    pub fn release_job(&self) {
        self.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }

    /// Async jobs the tenant is currently running.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.active_jobs.load(Ordering::SeqCst)
    }
}

/// Fallbacks for fields a [`TenantSpec`] omits.
#[derive(Debug, Clone)]
pub struct TenantDefaults {
    /// Sustained requests per second (0 = unlimited).
    pub rps: f64,
    /// Token-bucket burst capacity.
    pub burst: u64,
    /// Per-tenant sub-queue depth.
    pub queue_depth: usize,
    /// Per-tenant concurrent async-job cap.
    pub max_jobs: usize,
}

/// The fixed set of tenants a server was started with. Index 0 is
/// always the anonymous tenant; the set never changes after startup,
/// so every per-tenant structure is a plain `Vec` indexed by tenant id
/// with no locking on the hot path.
#[derive(Debug)]
pub struct TenantTable {
    tenants: Vec<Tenant>,
    /// Whether a tenant config was supplied: keyed tenants exist and
    /// keyless `/v1` access is only allowed if the config kept an
    /// anonymous entry.
    multi: bool,
    anonymous_configured: bool,
    start: Instant,
}

impl TenantTable {
    /// The single-user table: one anonymous tenant, no auth, no rate
    /// limit — byte-for-byte the pre-tenant server behavior.
    #[must_use]
    pub fn single_user(queue_depth: usize, max_jobs: usize) -> Self {
        let defaults = TenantDefaults {
            rps: 0.0,
            burst: 1,
            queue_depth,
            max_jobs,
        };
        TenantTable {
            tenants: vec![Tenant::anonymous(&defaults)],
            multi: false,
            anonymous_configured: false,
            start: Instant::now(),
        }
    }

    /// Builds the table from a parsed config. An entry without a `key`
    /// configures the anonymous tenant (at most one such entry); when
    /// no entry does, keyless `/v1` requests are answered `401`.
    ///
    /// # Errors
    ///
    /// A message when two entries both try to configure the anonymous
    /// tenant.
    pub fn from_specs(specs: &[TenantSpec], defaults: &TenantDefaults) -> Result<Self, String> {
        let keyless: Vec<&TenantSpec> = specs.iter().filter(|s| s.key.is_none()).collect();
        if keyless.len() > 1 {
            return Err(format!(
                "tenants file: {} keyless (anonymous) entries; at most one is allowed",
                keyless.len()
            ));
        }
        let mut tenants = vec![match keyless.first() {
            Some(spec) => Tenant::from_spec(spec, defaults),
            None => Tenant::anonymous(defaults),
        }];
        tenants.extend(
            specs
                .iter()
                .filter(|s| s.key.is_some())
                .map(|s| Tenant::from_spec(s, defaults)),
        );
        Ok(TenantTable {
            tenants,
            multi: true,
            anonymous_configured: !keyless.is_empty(),
            start: Instant::now(),
        })
    }

    /// The configured tenants, anonymous first.
    #[must_use]
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The tenant at `index` (panics on a bad index — indices only
    /// come from [`TenantTable::resolve`]).
    #[must_use]
    pub fn tenant(&self, index: usize) -> &Tenant {
        &self.tenants[index]
    }

    /// Whether a tenant config was supplied.
    #[must_use]
    pub fn is_multi_tenant(&self) -> bool {
        self.multi
    }

    /// Microseconds on the table's monotonic clock (the token buckets'
    /// time base).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Maps a request to its tenant. Probe endpoints always resolve to
    /// the anonymous tenant (a readiness check must never be locked
    /// out by auth). `/v1` requests resolve by Bearer key; a missing
    /// key is `401` (unless the config kept an anonymous entry or no
    /// config was given), a malformed header is `401`, and a presented
    /// but unknown key is `403`.
    ///
    /// # Errors
    ///
    /// The ready-to-send `401`/`403` response.
    pub fn resolve(&self, request: &Request) -> Result<usize, Response> {
        if !request.path.starts_with("/v1/") {
            return Ok(ANONYMOUS);
        }
        if !self.multi {
            // Single-user mode predates authentication: a stray
            // Authorization header was always ignored, and stays so.
            return Ok(ANONYMOUS);
        }
        match request.header("authorization") {
            None => {
                if self.multi && !self.anonymous_configured {
                    Err(Response::error(
                        401,
                        "authentication required: send Authorization: Bearer <key>",
                    ))
                } else {
                    Ok(ANONYMOUS)
                }
            }
            Some(value) => {
                let Some(presented) = strip_bearer(value) else {
                    return Err(Response::error(
                        401,
                        "malformed Authorization header: expected Bearer <key>",
                    ));
                };
                // Scan every key unconditionally so the comparison cost
                // is independent of which (if any) tenant matches.
                let mut found = None;
                for (i, tenant) in self.tenants.iter().enumerate() {
                    if let Some(key) = &tenant.key {
                        if constant_time_eq(key, presented) {
                            found = Some(i);
                        }
                    }
                }
                found.ok_or_else(|| Response::error(403, "unknown API key"))
            }
        }
    }

    /// Takes one rate-limit token for `tenant` at the current time.
    ///
    /// # Errors
    ///
    /// `Err(wait_us)`: the exact refill delay to advertise.
    pub fn admit(&self, tenant: usize) -> Result<(), u64> {
        let mut bucket = self.tenants[tenant]
            .bucket
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        bucket.try_take(self.now_us())
    }

    /// Folds one request's cache stats into the tenant's counters.
    pub fn add_cache(&self, tenant: usize, stats: &CacheStats) {
        let t = &self.tenants[tenant].stats;
        t.cache_hits.fetch_add(stats.hits, Ordering::Relaxed);
        t.cache_misses.fetch_add(stats.misses, Ordering::Relaxed);
    }

    /// The `/statusz` per-tenant breakdown.
    #[must_use]
    pub fn to_value<T>(&self, queue: &FairQueue<T>) -> Value {
        let fields = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let stats = &t.stats;
                let hits = stats.cache_hits.load(Ordering::Relaxed);
                let misses = stats.cache_misses.load(Ordering::Relaxed);
                let lookups = hits + misses;
                let hit_ratio = if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                };
                let body = Value::Object(vec![
                    (
                        "requests".to_string(),
                        stats.requests.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "rate_limited".to_string(),
                        stats.rate_limited.load(Ordering::Relaxed).to_value(),
                    ),
                    (
                        "queue_rejected".to_string(),
                        stats.queue_rejected.load(Ordering::Relaxed).to_value(),
                    ),
                    ("weight".to_string(), u64::from(t.weight).to_value()),
                    (
                        "queue_depth".to_string(),
                        (queue.class_len(i) as u64).to_value(),
                    ),
                    (
                        "queue_capacity".to_string(),
                        (t.queue_depth as u64).to_value(),
                    ),
                    (
                        "jobs_active".to_string(),
                        (t.active_jobs() as u64).to_value(),
                    ),
                    ("isolated".to_string(), Value::Bool(t.isolated)),
                    ("cache_hits".to_string(), hits.to_value()),
                    ("cache_misses".to_string(), misses.to_value()),
                    ("cache_hit_ratio".to_string(), hit_ratio.to_value()),
                    ("latency_us".to_string(), stats.latency.to_value()),
                ]);
                (t.name.clone(), body)
            })
            .collect();
        Value::Object(fields)
    }
}

/// Extracts the key from a `Bearer <key>` header value (scheme
/// case-insensitive, surrounding whitespace tolerated).
fn strip_bearer(value: &str) -> Option<&str> {
    let value = value.trim();
    let (scheme, rest) = value.split_once(' ')?;
    if !scheme.eq_ignore_ascii_case("bearer") {
        return None;
    }
    let key = rest.trim();
    (!key.is_empty()).then_some(key)
}

struct SubQueue<T> {
    items: VecDeque<T>,
    weight: u32,
    capacity: usize,
    /// Pops the current turn may still take; refreshed to `weight`
    /// when the class reaches the head of the active list.
    deficit: u64,
    /// Whether the class currently sits in the active list.
    queued: bool,
}

struct FairState<T> {
    classes: Vec<SubQueue<T>>,
    /// Round-robin order over classes with pending items.
    active: VecDeque<usize>,
    len: usize,
    closed: bool,
}

/// A bounded weighted-fair admission queue: per-class FIFO sub-queues
/// with non-blocking pushes (per-class depth caps — the caller turns
/// overflow into an inline `503`) and blocking deficit-round-robin
/// pops. With a single class it degenerates to a bounded FIFO,
/// including the close contract: after [`FairQueue::close`], pushes
/// fail immediately and pops drain the backlog before returning `None`.
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    available: Condvar,
    total_capacity: usize,
}

impl<T> FairQueue<T> {
    /// A queue with one `(weight, depth)` sub-queue per class.
    #[must_use]
    pub fn new(classes: &[(u32, usize)]) -> Self {
        let classes: Vec<SubQueue<T>> = classes
            .iter()
            .map(|&(weight, capacity)| SubQueue {
                items: VecDeque::new(),
                weight: weight.max(1),
                capacity: capacity.max(1),
                deficit: 0,
                queued: false,
            })
            .collect();
        let total_capacity = classes.iter().map(|c| c.capacity).sum();
        FairQueue {
            state: Mutex::new(FairState {
                classes,
                active: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
            total_capacity,
        }
    }

    /// Builds the queue matching a tenant table (one class per tenant,
    /// the tenant's weight and depth cap).
    #[must_use]
    pub fn for_tenants(table: &TenantTable) -> Self {
        let classes: Vec<(u32, usize)> = table
            .tenants()
            .iter()
            .map(|t| (t.weight, t.queue_depth))
            .collect();
        FairQueue::new(&classes)
    }

    /// Enqueues `item` for `class`, or hands it back when that class's
    /// sub-queue is full or the queue is closed.
    ///
    /// # Errors
    ///
    /// `Err(item)` on per-class overflow or after [`FairQueue::close`].
    pub fn try_push(&self, class: usize, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.classes[class].items.len() >= state.classes[class].capacity {
            return Err(item);
        }
        state.classes[class].items.push_back(item);
        state.len += 1;
        if !state.classes[class].queued {
            state.classes[class].queued = true;
            state.classes[class].deficit = 0;
            state.active.push_back(class);
        }
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning the next one in
    /// deficit-round-robin order) or the queue is closed *and* drained
    /// (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = Self::pop_locked(&mut state) {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One deficit-round-robin step: the class at the head of the
    /// active list earns `weight` pops per turn; when its turn is
    /// spent (or it drains) the next class takes the head.
    fn pop_locked(state: &mut FairState<T>) -> Option<T> {
        while state.len > 0 {
            let class = *state
                .active
                .front()
                .expect("len > 0 implies an active class");
            let q = &mut state.classes[class];
            if q.items.is_empty() {
                q.queued = false;
                q.deficit = 0;
                state.active.pop_front();
                continue;
            }
            if q.deficit == 0 {
                q.deficit = u64::from(q.weight);
            }
            let item = q.items.pop_front().expect("checked non-empty");
            q.deficit -= 1;
            state.len -= 1;
            if q.items.is_empty() {
                q.queued = false;
                q.deficit = 0;
                state.active.pop_front();
            } else if q.deficit == 0 {
                // Turn spent with a backlog left: rotate to the tail.
                state.active.pop_front();
                state.active.push_back(class);
            }
            return Some(item);
        }
        None
    }

    /// Closes the queue: pushes start failing immediately, pops drain
    /// the backlog and then return `None`. Idempotent.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Items currently queued across every class.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across every class.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.total_capacity
    }

    /// Items queued for one class.
    #[must_use]
    pub fn class_len(&self, class: usize) -> usize {
        self.lock().classes[class].items.len()
    }

    /// Locks the state, recovering from poisoning (a panicking worker
    /// must not wedge admission; every mutation preserves the queue
    /// invariants, so the state is always reusable).
    fn lock(&self) -> MutexGuard<'_, FairState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> std::fmt::Debug for FairQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairQueue")
            .field("len", &self.len())
            .field("capacity", &self.total_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, key: Option<&str>) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            key: key.map(str::to_string),
            weight: 1,
            rps: None,
            burst: None,
            queue_depth: None,
            isolated: false,
            max_jobs: None,
        }
    }

    fn defaults() -> TenantDefaults {
        TenantDefaults {
            rps: 0.0,
            burst: 8,
            queue_depth: 16,
            max_jobs: 4,
        }
    }

    fn get(path: &str, auth: Option<&str>) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: auth
                .map(|v| vec![("authorization".to_string(), v.to_string())])
                .into_iter()
                .flatten()
                .collect(),
            body: Vec::new(),
        }
    }

    #[test]
    fn config_parses_jsonl_with_comments() {
        let text = "# fleet tenants\n\
                    {\"name\": \"alpha\", \"key\": \"ka\", \"weight\": 3, \"rps\": 50.0, \"isolated\": true}\n\
                    \n\
                    {\"name\": \"beta\", \"key\": \"kb\"}\n";
        let specs = parse_tenants(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "alpha");
        assert_eq!(specs[0].weight, 3);
        assert_eq!(specs[0].rps, Some(50.0));
        assert!(specs[0].isolated);
        assert_eq!(specs[1].weight, 1, "weight defaults to 1");
    }

    #[test]
    fn config_rejects_duplicates_and_bad_lines() {
        assert!(parse_tenants(
            "{\"name\": \"a\", \"key\": \"k\"}\n{\"name\": \"a\", \"key\": \"j\"}"
        )
        .unwrap_err()
        .contains("duplicate tenant name"));
        assert!(parse_tenants(
            "{\"name\": \"a\", \"key\": \"k\"}\n{\"name\": \"b\", \"key\": \"k\"}"
        )
        .unwrap_err()
        .contains("duplicate API key"));
        assert!(
            parse_tenants("{\"name\": \"a\", \"key\": \"k\", \"weight\": 0}")
                .unwrap_err()
                .contains("weight")
        );
        assert!(parse_tenants("not json").unwrap_err().contains("line 1"));
        // A misspelt limit would otherwise leave the tenant unlimited.
        let err = parse_tenants("{\"name\": \"a\", \"key\": \"k\", \"rsp\": 5}").unwrap_err();
        assert!(err.contains("line 1") && err.contains("`rsp`"), "{err}");
        // A limit that would silently turn limiting off, or be raised
        // to 1, is refused by its key.
        for (setting, want) in [
            ("\"rps\": -1", "rps must be finite and non-negative, got -1"),
            (
                "\"rps\": 1e999",
                "rps must be finite and non-negative, got inf",
            ),
            ("\"burst\": 0", "burst must be at least 1"),
            ("\"queue_depth\": 0", "queue_depth must be at least 1"),
            ("\"max_jobs\": 0", "max_jobs must be at least 1"),
        ] {
            let text = format!("# roster\n{{\"name\": \"a\", \"key\": \"k\", {setting}}}");
            let err = parse_tenants(&text).unwrap_err();
            assert!(err.contains(&format!("line 2: {want}")), "{setting}: {err}");
        }
        assert_eq!(check_rate(0.0), Ok(()));
        assert!(check_rate(f64::NAN).is_err());
    }

    #[test]
    fn constant_time_eq_matches_semantics() {
        assert!(constant_time_eq("secret", "secret"));
        assert!(!constant_time_eq("secret", "secrex"));
        assert!(!constant_time_eq("secret", "secre"));
        assert!(!constant_time_eq("", "x"));
        assert!(constant_time_eq("", ""));
    }

    #[test]
    fn token_bucket_admits_burst_then_throttles_with_exact_delay() {
        let mut b = TokenBucket::new(10.0, 3);
        for _ in 0..3 {
            assert_eq!(b.try_take(0), Ok(()));
        }
        // Bucket empty at t=0: one token refills in exactly 100 ms.
        assert_eq!(b.try_take(0), Err(100_000));
        // 50 ms in: half a token there, half (50 ms) still to wait.
        assert_eq!(b.try_take(50_000), Err(50_000));
        // 100 ms in: the token is back (and consumed again).
        assert_eq!(b.try_take(100_000), Ok(()));
        assert_eq!(b.try_take(100_000), Err(100_000));
    }

    #[test]
    fn token_bucket_clock_never_runs_backwards() {
        let mut b = TokenBucket::new(1.0, 1);
        assert_eq!(b.try_take(5_000_000), Ok(()));
        // An earlier timestamp is clamped: no free refill, no panic.
        assert!(b.try_take(1_000_000).is_err());
        assert_eq!(b.try_take(6_000_000), Ok(()));
    }

    #[test]
    fn unlimited_bucket_always_admits() {
        let mut b = TokenBucket::new(0.0, 1);
        for t in 0..1000 {
            assert_eq!(b.try_take(t), Ok(()));
        }
    }

    #[test]
    fn single_user_table_never_authenticates_or_limits() {
        let table = TenantTable::single_user(64, 8);
        assert!(!table.is_multi_tenant());
        assert_eq!(table.resolve(&get("/v1/solve", None)), Ok(ANONYMOUS));
        // Even a bogus Bearer key maps nowhere to reject against.
        assert_eq!(
            table.resolve(&get("/healthz", Some("Bearer junk"))),
            Ok(ANONYMOUS)
        );
        // And the API itself ignores stray credentials in single-user
        // mode — auth only exists once a tenant config is loaded.
        assert_eq!(
            table.resolve(&get("/v1/solve", Some("Bearer junk"))),
            Ok(ANONYMOUS)
        );
        for _ in 0..10_000 {
            assert_eq!(table.admit(ANONYMOUS), Ok(()));
        }
    }

    #[test]
    fn resolve_distinguishes_401_and_403() {
        let table = TenantTable::from_specs(
            &[spec("alpha", Some("ka")), spec("beta", Some("kb"))],
            &defaults(),
        )
        .unwrap();
        // No credentials where they are required: 401.
        assert_eq!(
            table.resolve(&get("/v1/solve", None)).unwrap_err().status,
            401
        );
        // Malformed header: 401.
        assert_eq!(
            table
                .resolve(&get("/v1/solve", Some("Basic abc")))
                .unwrap_err()
                .status,
            401
        );
        // Unknown key: 403.
        assert_eq!(
            table
                .resolve(&get("/v1/solve", Some("Bearer nope")))
                .unwrap_err()
                .status,
            403
        );
        // Valid keys resolve (anonymous slot 0 is reserved).
        let alpha = table.resolve(&get("/v1/solve", Some("Bearer ka"))).unwrap();
        let beta = table.resolve(&get("/v1/solve", Some("bearer kb"))).unwrap();
        assert_ne!(alpha, ANONYMOUS);
        assert_ne!(beta, ANONYMOUS);
        assert_ne!(alpha, beta);
        assert_eq!(table.tenant(alpha).name, "alpha");
        // Probes are always exempt.
        assert_eq!(table.resolve(&get("/healthz", None)), Ok(ANONYMOUS));
        assert_eq!(
            table.resolve(&get("/statusz", Some("Bearer nope"))),
            Ok(ANONYMOUS)
        );
    }

    #[test]
    fn keyless_config_entry_configures_the_anonymous_tenant() {
        let mut anon = spec("walk-ins", None);
        anon.weight = 2;
        let table =
            TenantTable::from_specs(&[anon, spec("alpha", Some("ka"))], &defaults()).unwrap();
        assert_eq!(table.resolve(&get("/v1/solve", None)), Ok(ANONYMOUS));
        assert_eq!(table.tenant(ANONYMOUS).name, "walk-ins");
        assert_eq!(table.tenant(ANONYMOUS).weight, 2);
        // Two keyless entries are ambiguous.
        assert!(TenantTable::from_specs(&[spec("a", None), spec("b", None)], &defaults()).is_err());
    }

    #[test]
    fn fair_queue_single_class_is_fifo_with_bounded_queue_semantics() {
        let q: FairQueue<i32> = FairQueue::new(&[(1, 2)]);
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        assert_eq!(q.try_push(0, 3), Err(3), "depth cap");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.close();
        assert_eq!(q.try_push(0, 4), Err(4), "closed queue rejects pushes");
        assert_eq!(q.pop(), Some(2), "backlog still drains");
        assert_eq!(q.pop(), None, "then pops see the close");
        q.close(); // idempotent
    }

    #[test]
    fn fair_queue_caps_are_per_class() {
        let q: FairQueue<&str> = FairQueue::new(&[(1, 1), (1, 2)]);
        q.try_push(0, "a0").unwrap();
        assert_eq!(q.try_push(0, "a1"), Err("a1"), "class 0 is full");
        q.try_push(1, "b0").unwrap();
        q.try_push(1, "b1").unwrap();
        assert_eq!(q.try_push(1, "b2"), Err("b2"), "class 1 is full");
        assert_eq!(q.len(), 3);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.class_len(1), 2);
    }

    #[test]
    fn drr_pops_follow_the_weights_under_saturation() {
        // Weight 3:1 with both classes backlogged: each full round
        // serves 3 of class 0 and 1 of class 1.
        let q: FairQueue<(usize, usize)> = FairQueue::new(&[(3, 64), (1, 64)]);
        for i in 0..12 {
            q.try_push(0, (0, i)).unwrap();
        }
        for i in 0..4 {
            q.try_push(1, (1, i)).unwrap();
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| (!q.is_empty()).then(|| q.pop().unwrap().0)).collect();
        assert_eq!(order.len(), 16);
        for round in 0..4 {
            let slice = &order[round * 4..round * 4 + 4];
            assert_eq!(
                slice.iter().filter(|&&c| c == 0).count(),
                3,
                "round {round}: {order:?}"
            );
            assert_eq!(slice.iter().filter(|&&c| c == 1).count(), 1);
        }
        // FIFO within each class.
        let zeros: Vec<usize> = Vec::new();
        let _ = zeros;
    }

    #[test]
    fn drr_does_not_starve_a_late_light_tenant() {
        // A heavy class with a deep backlog; a light class shows up
        // late and must be served within one quantum of the heavy
        // class, not after its whole backlog.
        let q: FairQueue<&str> = FairQueue::new(&[(3, 64), (1, 64)]);
        for _ in 0..20 {
            q.try_push(0, "heavy").unwrap();
        }
        assert_eq!(q.pop(), Some("heavy"));
        q.try_push(1, "light").unwrap();
        let mut pops_until_light = 0;
        loop {
            let item = q.pop().unwrap();
            if item == "light" {
                break;
            }
            pops_until_light += 1;
            assert!(
                pops_until_light <= 3,
                "light tenant starved behind the backlog"
            );
        }
    }

    #[test]
    fn fair_queue_blocking_pop_wakes_on_push_and_close() {
        let q: std::sync::Arc<FairQueue<usize>> = std::sync::Arc::new(FairQueue::new(&[(1, 64)]));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..10 {
            let mut item = i;
            loop {
                match q.try_push(0, item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fair_queue_survives_a_poisoned_lock() {
        let q: FairQueue<i32> = FairQueue::new(&[(1, 8)]);
        q.try_push(0, 1).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.state.lock().unwrap();
            panic!("poison");
        }));
        std::panic::set_hook(prev);
        q.try_push(0, 2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn job_slots_reserve_and_release() {
        let table = TenantTable::from_specs(
            &[{
                let mut s = spec("alpha", Some("ka"));
                s.max_jobs = Some(2);
                s
            }],
            &defaults(),
        )
        .unwrap();
        let alpha = table.resolve(&get("/v1/solve", Some("Bearer ka"))).unwrap();
        let t = table.tenant(alpha);
        assert!(t.try_reserve_job());
        assert!(t.try_reserve_job());
        assert!(!t.try_reserve_job(), "cap of 2");
        t.release_job();
        assert!(t.try_reserve_job());
        assert_eq!(t.active_jobs(), 2);
    }
}
