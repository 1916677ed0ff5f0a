//! Lock-free serving metrics: per-endpoint request counters and
//! latency histograms, admission rejections, and cumulative cache
//! stats, all rendered into the `/statusz` JSON.

use serde::{Serialize as _, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wrsn_engine::{CacheStats, IoSnapshot};

/// Upper bounds (microseconds) of the latency histogram buckets; one
/// final overflow bucket catches everything slower.
const BOUNDS_US: [u64; 15] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
];

/// A fixed-bucket latency histogram with atomic counters — recording
/// from many worker threads never takes a lock.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `micros` microseconds.
    pub fn record(&self, micros: u64) {
        let idx = BOUNDS_US
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (zero when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) estimated as the upper bound of
    /// the first bucket whose cumulative count covers it. Zero when
    /// empty; the overflow bucket reports `10_000_000` (10 s).
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = (q * count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return BOUNDS_US.get(i).copied().unwrap_or(10_000_000);
            }
        }
        10_000_000
    }

    /// The histogram as JSON: count, mean, p50/p95/p99 estimates, and
    /// the non-empty buckets as `[upper_bound_us, count]` pairs.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut buckets = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                let le = BOUNDS_US.get(i).copied().unwrap_or(10_000_000);
                buckets.push(Value::Array(vec![le.to_value(), n.to_value()]));
            }
        }
        Value::Object(vec![
            ("count".to_string(), self.count().to_value()),
            ("mean_us".to_string(), self.mean_us().to_value()),
            ("p50_us".to_string(), self.quantile_us(0.50).to_value()),
            ("p95_us".to_string(), self.quantile_us(0.95).to_value()),
            ("p99_us".to_string(), self.quantile_us(0.99).to_value()),
            ("buckets_us".to_string(), Value::Array(buckets)),
        ])
    }
}

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests handled (any status).
    pub requests: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Handling latency.
    pub latency: Histogram,
}

/// All serving metrics, shared across worker threads.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    endpoints: Vec<(&'static str, EndpointStats)>,
    /// Connections rejected by admission control (503).
    pub rejected: AtomicU64,
    /// Requests whose handler overran the deadline (504).
    pub timeouts: AtomicU64,
    /// Chaos injections served (faults + truncations).
    pub chaos_faults: AtomicU64,
    /// Extra requests served over reused keep-alive connections.
    pub keepalive_reuses: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_appended: AtomicU64,
}

/// The endpoints tracked individually; anything else lands under
/// `"other"`.
const ENDPOINTS: [&str; 9] = [
    "/v1/solve",
    "/v1/simulate",
    "/v1/sweep",
    "/v1/jobs",
    "/v1/cluster",
    "/v1/solvers",
    "/healthz",
    "/statusz",
    "other",
];

/// Point-in-time occupancy gauges sampled by the caller for
/// [`Metrics::to_statusz`] — they live in the server's shared state,
/// not in the cumulative metrics.
#[derive(Debug, Clone, Default)]
pub struct StatusGauges {
    /// Worker threads in the pool.
    pub workers_total: usize,
    /// Workers currently executing a request.
    pub workers_busy: usize,
    /// Dispatch jobs waiting in the admission queue.
    pub queue_len: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Connections currently open on each event loop, in loop order;
    /// `/statusz` reports their sum as `conns.open`.
    pub conns_per_reactor: Vec<usize>,
    /// Connection cap (accepts beyond it are rejected with 503).
    pub conns_max: usize,
    /// Async jobs currently running.
    pub jobs_active: usize,
    /// Async jobs accepted since startup.
    pub jobs_submitted: u64,
    /// Concurrent async job cap.
    pub jobs_max: usize,
    /// Result-store entry count, when a store is attached.
    pub store_entries: Option<usize>,
    /// Result-store I/O health (fsyncs, errors, quarantines), when a
    /// store is attached; gates the `io` section of `/statusz`.
    pub io: Option<IoSnapshot>,
    /// The store's fsync discipline (`"flush"` or `"fsync"`).
    pub durability: Option<&'static str>,
    /// Jobs resumed from their journals at the last startup.
    pub jobs_resumed: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh metrics; uptime starts now.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            start: Instant::now(),
            endpoints: ENDPOINTS
                .iter()
                .map(|&name| (name, EndpointStats::default()))
                .collect(),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            chaos_faults: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_appended: AtomicU64::new(0),
        }
    }

    /// The stats bucket for `path` (unknown paths share `"other"`).
    /// Job paths carry an id (`/v1/jobs/3/events`) and cluster paths a
    /// segment name, so each family folds into one bucket.
    #[must_use]
    pub fn endpoint(&self, path: &str) -> &EndpointStats {
        let name = if path.starts_with("/v1/jobs") {
            "/v1/jobs"
        } else if path.starts_with("/v1/cluster") {
            "/v1/cluster"
        } else {
            path
        };
        self.endpoints
            .iter()
            .find(|(n, _)| *n == name)
            .or_else(|| self.endpoints.iter().find(|(n, _)| *n == "other"))
            .map(|(_, stats)| stats)
            .expect("\"other\" is always present")
    }

    /// Records one handled request.
    pub fn record(&self, path: &str, status: u16, micros: u64) {
        let stats = self.endpoint(path);
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        stats.latency.record(micros);
    }

    /// Folds one experiment's cache stats into the cumulative tallies.
    pub fn add_cache(&self, stats: &CacheStats) {
        self.cache_hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.cache_appended
            .fetch_add(stats.appended, Ordering::Relaxed);
    }

    /// Cumulative cache stats across every request served.
    #[must_use]
    pub fn cache_totals(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            appended: self.cache_appended.load(Ordering::Relaxed),
        }
    }

    /// Seconds since the metrics were created.
    #[must_use]
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The full `/statusz` document. Occupancy gauges (workers, queue,
    /// connections, jobs, store size) are sampled by the caller — they
    /// live outside the metrics.
    #[must_use]
    pub fn to_statusz(&self, gauges: &StatusGauges) -> Value {
        let endpoints: Vec<(String, Value)> = self
            .endpoints
            .iter()
            .filter(|(_, stats)| stats.requests.load(Ordering::Relaxed) > 0)
            .map(|(name, stats)| {
                (
                    (*name).to_string(),
                    Value::Object(vec![
                        (
                            "requests".to_string(),
                            stats.requests.load(Ordering::Relaxed).to_value(),
                        ),
                        (
                            "errors".to_string(),
                            stats.errors.load(Ordering::Relaxed).to_value(),
                        ),
                        ("latency".to_string(), stats.latency.to_value()),
                    ]),
                )
            })
            .collect();
        let cache = self.cache_totals();
        let mut cache_fields = vec![
            ("hits".to_string(), cache.hits.to_value()),
            ("misses".to_string(), cache.misses.to_value()),
            ("appended".to_string(), cache.appended.to_value()),
        ];
        if let Some(entries) = gauges.store_entries {
            cache_fields.push(("entries".to_string(), entries.to_value()));
        }
        // The `io` section reports durability health and only exists
        // when a store is attached — a storeless server has no disk.
        let io = gauges.io.map(|io| {
            let mut fields = vec![
                ("fsyncs".to_string(), io.fsyncs.to_value()),
                ("io_errors_real".to_string(), io.real_errors.to_value()),
                (
                    "io_errors_injected".to_string(),
                    io.injected_errors.to_value(),
                ),
                (
                    "quarantined_segments".to_string(),
                    io.quarantined.to_value(),
                ),
                ("jobs_resumed".to_string(), gauges.jobs_resumed.to_value()),
            ];
            if let Some(durability) = gauges.durability {
                fields.push((
                    "durability".to_string(),
                    Value::String(durability.to_string()),
                ));
            }
            Value::Object(fields)
        });
        let mut doc = Value::Object(vec![
            ("status".to_string(), Value::String("ok".to_string())),
            (
                "engine_version".to_string(),
                Value::String(wrsn_engine::ENGINE_VERSION.to_string()),
            ),
            ("uptime_s".to_string(), self.uptime_s().to_value()),
            (
                "workers".to_string(),
                Value::Object(vec![
                    ("total".to_string(), gauges.workers_total.to_value()),
                    ("busy".to_string(), gauges.workers_busy.to_value()),
                ]),
            ),
            (
                "queue".to_string(),
                Value::Object(vec![
                    ("depth".to_string(), gauges.queue_len.to_value()),
                    ("capacity".to_string(), gauges.queue_capacity.to_value()),
                ]),
            ),
            (
                "conns".to_string(),
                Value::Object(vec![
                    (
                        "open".to_string(),
                        gauges.conns_per_reactor.iter().sum::<usize>().to_value(),
                    ),
                    ("max".to_string(), gauges.conns_max.to_value()),
                    (
                        "per_reactor".to_string(),
                        gauges.conns_per_reactor.to_value(),
                    ),
                ]),
            ),
            (
                "jobs".to_string(),
                Value::Object(vec![
                    ("active".to_string(), gauges.jobs_active.to_value()),
                    ("submitted".to_string(), gauges.jobs_submitted.to_value()),
                    ("max".to_string(), gauges.jobs_max.to_value()),
                ]),
            ),
            (
                "rejected".to_string(),
                self.rejected.load(Ordering::Relaxed).to_value(),
            ),
            (
                "timeouts".to_string(),
                self.timeouts.load(Ordering::Relaxed).to_value(),
            ),
            (
                "chaos_faults".to_string(),
                self.chaos_faults.load(Ordering::Relaxed).to_value(),
            ),
            (
                "keepalive_reuses".to_string(),
                self.keepalive_reuses.load(Ordering::Relaxed).to_value(),
            ),
            ("cache".to_string(), Value::Object(cache_fields)),
            ("endpoints".to_string(), Value::Object(endpoints)),
        ]);
        if let (Value::Object(pairs), Some(io)) = (&mut doc, io) {
            let at = pairs.iter().position(|(k, _)| k == "endpoints");
            match at {
                Some(at) => pairs.insert(at, ("io".to_string(), io)),
                None => pairs.push(("io".to_string(), io)),
            }
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_estimates_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        for _ in 0..90 {
            h.record(80); // <= 100 us bucket
        }
        for _ in 0..10 {
            h.record(40_000); // <= 50 ms bucket
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), 100);
        assert_eq!(h.quantile_us(0.95), 50_000);
        assert!(h.mean_us() > 80.0 && h.mean_us() < 40_000.0);
    }

    #[test]
    fn histogram_overflow_bucket_saturates() {
        let h = Histogram::new();
        h.record(60_000_000);
        assert_eq!(h.quantile_us(0.5), 10_000_000);
        let v = h.to_value();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn metrics_track_endpoints_and_errors() {
        let m = Metrics::new();
        m.record("/v1/solve", 200, 1_000);
        m.record("/v1/solve", 400, 500);
        m.record("/unknown", 404, 10);
        let solve = m.endpoint("/v1/solve");
        assert_eq!(solve.requests.load(Ordering::Relaxed), 2);
        assert_eq!(solve.errors.load(Ordering::Relaxed), 1);
        assert_eq!(m.endpoint("/unknown").requests.load(Ordering::Relaxed), 1);
        // Job paths carry ids but share one bucket.
        m.record("/v1/jobs", 202, 10);
        m.record("/v1/jobs/3", 200, 10);
        m.record("/v1/jobs/3/events?since=2", 200, 10);
        assert_eq!(m.endpoint("/v1/jobs").requests.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn statusz_includes_occupancy_and_cache() {
        let m = Metrics::new();
        m.record("/v1/sweep", 200, 2_000);
        m.add_cache(&CacheStats {
            hits: 4,
            misses: 1,
            appended: 1,
        });
        m.add_cache(&CacheStats {
            hits: 5,
            misses: 0,
            appended: 0,
        });
        m.timeouts.fetch_add(2, Ordering::Relaxed);
        m.keepalive_reuses.fetch_add(3, Ordering::Relaxed);
        let v = m.to_statusz(&StatusGauges {
            workers_total: 4,
            workers_busy: 2,
            queue_len: 1,
            queue_capacity: 64,
            conns_per_reactor: vec![9, 8],
            conns_max: 4096,
            jobs_active: 1,
            jobs_submitted: 3,
            jobs_max: 8,
            store_entries: Some(5),
            io: None,
            durability: None,
            jobs_resumed: 0,
        });
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("timeouts").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("chaos_faults").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("keepalive_reuses").and_then(Value::as_u64), Some(3));
        let workers = v.get("workers").unwrap();
        assert_eq!(workers.get("total").and_then(Value::as_u64), Some(4));
        assert_eq!(workers.get("busy").and_then(Value::as_u64), Some(2));
        let conns = v.get("conns").unwrap();
        assert_eq!(conns.get("open").and_then(Value::as_u64), Some(17));
        assert_eq!(conns.get("max").and_then(Value::as_u64), Some(4096));
        let per_reactor: Vec<u64> = conns
            .get("per_reactor")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(per_reactor, [9, 8]);
        let jobs = v.get("jobs").unwrap();
        assert_eq!(jobs.get("active").and_then(Value::as_u64), Some(1));
        assert_eq!(jobs.get("submitted").and_then(Value::as_u64), Some(3));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(9));
        assert_eq!(cache.get("entries").and_then(Value::as_u64), Some(5));
        let endpoints = v.get("endpoints").unwrap();
        assert!(endpoints.get("/v1/sweep").is_some());
        assert!(
            endpoints.get("/v1/solve").is_none(),
            "unused endpoints are omitted"
        );
        assert!(v.get("io").is_none(), "no io section without a store");
    }

    #[test]
    fn statusz_io_section_appears_with_a_store() {
        let m = Metrics::new();
        let v = m.to_statusz(&StatusGauges {
            io: Some(IoSnapshot {
                fsyncs: 12,
                real_errors: 1,
                injected_errors: 3,
                quarantined: 2,
            }),
            durability: Some("fsync"),
            jobs_resumed: 4,
            ..StatusGauges::default()
        });
        let io = v.get("io").expect("io section with a store");
        assert_eq!(io.get("fsyncs").and_then(Value::as_u64), Some(12));
        assert_eq!(io.get("io_errors_real").and_then(Value::as_u64), Some(1));
        assert_eq!(
            io.get("io_errors_injected").and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            io.get("quarantined_segments").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(io.get("jobs_resumed").and_then(Value::as_u64), Some(4));
        assert_eq!(io.get("durability").and_then(Value::as_str), Some("fsync"));
    }
}
