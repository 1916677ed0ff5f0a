//! Parallel, deterministic seed sweeps — with optional fault tolerance.
//!
//! Two layers live here:
//!
//! - [`SweepRunner::run`] is the infallible fan-out used when every seed
//!   is expected to succeed (a panic anywhere still aborts the sweep);
//! - [`SweepRunner::run_fault_tolerant`] catches per-seed panics and
//!   errors, retries them under a bounded [`RetryPolicy`], and reports a
//!   [`SeedOutcome`] per seed instead of unwinding the whole sweep.

use parking_lot::Mutex;
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Bounded retry for failing seeds: up to `max_attempts` tries with a
/// deterministic exponential backoff between them (`backoff_base_ms`,
/// doubling per retry). The default policy is a single attempt — no
/// retries, no sleeping — so fault tolerance is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    backoff_base_ms: u64,
}

impl RetryPolicy {
    /// A single attempt: the first failure is final.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
        }
    }

    /// Up to `max_attempts` tries per seed with no backoff delay.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a seed needs at least one attempt");
        RetryPolicy {
            max_attempts,
            backoff_base_ms: 0,
        }
    }

    /// Sets the base backoff: retry `k` (the second attempt being `k =
    /// 1`) sleeps `base_ms << (k - 1)` milliseconds first.
    #[must_use]
    pub fn backoff_ms(mut self, base_ms: u64) -> Self {
        self.backoff_base_ms = base_ms;
        self
    }

    /// The configured attempt ceiling (≥ 1).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Deterministic delay before `attempt` (1-based; the first attempt
    /// never waits).
    #[must_use]
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 || self.backoff_base_ms == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 2).min(16);
        Duration::from_millis(self.backoff_base_ms << shift)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Why a seed's final attempt failed.
#[derive(Debug)]
pub enum Failure<E> {
    /// The work function returned an error.
    Error(E),
    /// The work function panicked; the payload rendered as text.
    Panic(String),
}

impl<E: fmt::Display> fmt::Display for Failure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "{e}"),
            Failure::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// The result of one seed inside a fault-tolerant sweep.
#[derive(Debug)]
pub enum SeedOutcome<T, E> {
    /// The seed produced a value (possibly after retries).
    Ok {
        /// The per-seed result.
        value: T,
        /// How many attempts it took (≥ 1).
        attempts: u32,
    },
    /// Every attempt failed; the last failure is kept.
    Failed {
        /// The final error or panic.
        failure: Failure<E>,
        /// How many attempts were made (= the policy's ceiling).
        attempts: u32,
    },
    /// The seed was never run because the sweep halted first (see
    /// [`SweepRunner::run_fault_tolerant`]'s `halt_after` and `observe`).
    Skipped,
}

impl<T, E> SeedOutcome<T, E> {
    /// The value, if the seed succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            SeedOutcome::Ok { value, .. } => Some(value),
            _ => None,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fans per-seed work out across a thread pool while keeping results in
/// seed order, so a parallel sweep is byte-identical to a sequential one.
///
/// The default configuration uses one worker per CPU (capped by the seed
/// count); [`SweepRunner::sequential`] or [`SweepRunner::threads`] pin
/// the worker count, which is how the determinism guarantee is tested.
///
/// # Examples
///
/// ```
/// use wrsn_engine::SweepRunner;
///
/// let parallel = SweepRunner::new().run(0..32, |s| s * s);
/// let sequential = SweepRunner::sequential().run(0..32, |s| s * s);
/// assert_eq!(parallel, sequential);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    threads: Option<usize>,
}

impl SweepRunner {
    /// A runner using one worker per available CPU.
    #[must_use]
    pub fn new() -> Self {
        SweepRunner { threads: None }
    }

    /// A single-threaded runner (the reference ordering).
    #[must_use]
    pub fn sequential() -> Self {
        SweepRunner { threads: Some(1) }
    }

    /// Pins the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "a sweep needs at least one worker");
        self.threads = Some(n);
        self
    }

    /// Resolved worker count for `n` seeds: the pinned thread count, or
    /// one per available CPU, falling back to a single (sequential)
    /// worker when CPU detection fails — the reference ordering, rather
    /// than an arbitrary guess.
    fn workers_for(&self, n: usize) -> usize {
        self.threads
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(std::num::NonZeroUsize::get)
            })
            .unwrap_or(1)
            .max(1)
            .min(n)
    }

    /// Runs `f(seed)` for every seed in the range. Results come back in
    /// seed order regardless of scheduling; `f` must be deterministic in
    /// its seed for the parallel/sequential equivalence to mean anything.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (the panic message is preserved; the
    /// remaining seeds still finish first).
    pub fn run<T, F>(&self, seeds: Range<u64>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        let seeds: Vec<u64> = seeds.collect();
        let outcomes = self.run_fault_tolerant(
            &seeds,
            RetryPolicy::none(),
            None,
            |s| Ok::<T, std::convert::Infallible>(f(s)),
            |_, _, _| ControlFlow::Continue(()),
        );
        outcomes
            .into_iter()
            .map(|o| match o {
                SeedOutcome::Ok { value, .. } => value,
                SeedOutcome::Failed {
                    failure: Failure::Panic(msg),
                    ..
                } => panic!("seed sweep worker panicked: {msg}"),
                SeedOutcome::Failed {
                    failure: Failure::Error(e),
                    ..
                } => match e {},
                SeedOutcome::Skipped => unreachable!("no halt requested"),
            })
            .collect()
    }

    /// Runs fallible per-seed work with bounded retries, catching panics
    /// so one bad seed cannot unwind the sweep. Returns one
    /// [`SeedOutcome`] per input seed, in input order.
    ///
    /// `observe` fires after every processed seed — from worker threads,
    /// possibly out of seed order — with the seed, its outcome, and the
    /// number of seeds processed so far; it is how callers stream
    /// checkpoints and progress lines. It is not called for
    /// [`SeedOutcome::Skipped`] seeds.
    ///
    /// `halt_after` stops the sweep early: once that many seeds have
    /// been processed, remaining seeds are returned as
    /// [`SeedOutcome::Skipped`] without running. `observe` stops it the
    /// same way by returning [`ControlFlow::Break`]. With a sequential
    /// runner the cut is exact; with parallel workers seeds already in
    /// flight still finish.
    pub fn run_fault_tolerant<T, E, F, O>(
        &self,
        seeds: &[u64],
        policy: RetryPolicy,
        halt_after: Option<usize>,
        f: F,
        observe: O,
    ) -> Vec<SeedOutcome<T, E>>
    where
        T: Send,
        E: Send,
        F: Fn(u64) -> Result<T, E> + Sync,
        O: Fn(u64, &SeedOutcome<T, E>, usize) -> ControlFlow<()> + Sync,
    {
        let n = seeds.len();
        if n == 0 {
            return Vec::new();
        }
        let processed = AtomicUsize::new(0);
        let stopped = AtomicBool::new(false);
        let process = |seed: u64| -> SeedOutcome<T, E> {
            if stopped.load(Ordering::Acquire)
                || halt_after.is_some_and(|h| processed.load(Ordering::Acquire) >= h)
            {
                return SeedOutcome::Skipped;
            }
            let mut attempt = 1u32;
            let outcome = loop {
                match catch_unwind(AssertUnwindSafe(|| f(seed))) {
                    Ok(Ok(value)) => {
                        break SeedOutcome::Ok {
                            value,
                            attempts: attempt,
                        }
                    }
                    Ok(Err(e)) if attempt >= policy.max_attempts() => {
                        break SeedOutcome::Failed {
                            failure: Failure::Error(e),
                            attempts: attempt,
                        }
                    }
                    Err(payload) if attempt >= policy.max_attempts() => {
                        break SeedOutcome::Failed {
                            failure: Failure::Panic(panic_message(payload)),
                            attempts: attempt,
                        }
                    }
                    Ok(Err(_)) | Err(_) => {
                        attempt += 1;
                        let delay = policy.delay_before(attempt);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                    }
                }
            };
            let done = processed.fetch_add(1, Ordering::AcqRel) + 1;
            if observe(seed, &outcome, done).is_break() {
                stopped.store(true, Ordering::Release);
            }
            outcome
        };

        if self.workers_for(n) == 1 {
            return seeds.iter().map(|&seed| process(seed)).collect();
        }

        // One slot (and one lock) per seed: workers write disjoint slots,
        // so nothing serializes on a shared collection lock.
        let slots: Vec<Mutex<Option<SeedOutcome<T, E>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            for _ in 0..self.workers_for(n) {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock() = Some(process(seeds[i]));
                });
            }
        })
        .expect("sweep observer panicked");
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every seed produced an outcome"))
            .collect()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

/// Runs `f(seed)` for every seed over one worker per CPU — shorthand for
/// [`SweepRunner::new`]`.run(seeds, f)`.
///
/// # Panics
///
/// Propagates panics from `f`.
///
/// # Examples
///
/// ```
/// let squares = wrsn_engine::run_seeds(0..8, |s| s * s);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_seeds<T, F>(seeds: Range<u64>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    SweepRunner::new().run(seeds, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_under_parallelism() {
        let out = run_seeds(0..64, |s| {
            // Vary the work so threads finish out of order.
            std::thread::sleep(std::time::Duration::from_micros(64 - s));
            s * 3
        });
        assert_eq!(out, (0..64).map(|s| s * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range() {
        let out: Vec<u64> = run_seeds(5..5, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // Floating-point work: bitwise equality must hold because the
        // per-seed computation never crosses threads.
        let work = |s: u64| (s as f64).sqrt().sin() * 1e9;
        let par = SweepRunner::new().threads(8).run(0..100, work);
        let seq = SweepRunner::sequential().run(0..100, work);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn worker_cap_exceeding_seed_count_is_fine() {
        let out = SweepRunner::new().threads(32).run(0..3, |s| s + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = SweepRunner::new().threads(0);
    }

    #[test]
    #[should_panic(expected = "boom on seed 3")]
    fn run_still_propagates_panics() {
        let _ = SweepRunner::sequential().run(0..8, |s| {
            assert!(s != 3, "boom on seed 3");
            s
        });
    }

    #[test]
    fn fault_tolerant_sweep_survives_a_panicking_seed() {
        let seeds: Vec<u64> = (0..16).collect();
        let outcomes = SweepRunner::new().threads(4).run_fault_tolerant(
            &seeds,
            RetryPolicy::none(),
            None,
            |s| {
                assert!(s != 5, "seed 5 explodes");
                Ok::<u64, String>(s * 2)
            },
            |_, _, _| ControlFlow::Continue(()),
        );
        assert_eq!(outcomes.len(), 16);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 5 {
                let SeedOutcome::Failed { failure, attempts } = o else {
                    panic!("seed 5 should fail");
                };
                assert_eq!(*attempts, 1);
                assert!(failure.to_string().contains("seed 5 explodes"));
            } else {
                let SeedOutcome::Ok { value, .. } = o else {
                    panic!("seed {i} should succeed");
                };
                assert_eq!(*value, i as u64 * 2);
            }
        }
    }

    #[test]
    fn retry_policy_counts_attempts_and_recovers_flaky_work() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let seeds = [7u64];
        let outcomes = SweepRunner::sequential().run_fault_tolerant(
            &seeds,
            RetryPolicy::attempts(3),
            None,
            |s| {
                // Fails twice, then succeeds.
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".to_string())
                } else {
                    Ok(s)
                }
            },
            |_, _, _| ControlFlow::Continue(()),
        );
        let SeedOutcome::Ok { value, attempts } = &outcomes[0] else {
            panic!("should recover");
        };
        assert_eq!(*value, 7);
        assert_eq!(*attempts, 3);
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        let seeds = [1u64];
        let outcomes = SweepRunner::sequential().run_fault_tolerant(
            &seeds,
            RetryPolicy::attempts(2),
            None,
            |_| Err::<u64, _>("always broken".to_string()),
            |_, _, _| ControlFlow::Continue(()),
        );
        let SeedOutcome::Failed { failure, attempts } = &outcomes[0] else {
            panic!("should fail");
        };
        assert_eq!(*attempts, 2);
        assert!(matches!(failure, Failure::Error(e) if e == "always broken"));
    }

    #[test]
    fn halt_after_skips_the_tail_sequentially() {
        let seeds: Vec<u64> = (0..10).collect();
        let outcomes = SweepRunner::sequential().run_fault_tolerant(
            &seeds,
            RetryPolicy::none(),
            Some(4),
            Ok::<u64, String>,
            |_, _, _| ControlFlow::Continue(()),
        );
        let done = outcomes
            .iter()
            .filter(|o| matches!(o, SeedOutcome::Ok { .. }))
            .count();
        let skipped = outcomes
            .iter()
            .filter(|o| matches!(o, SeedOutcome::Skipped))
            .count();
        assert_eq!(done, 4);
        assert_eq!(skipped, 6);
        // The first four seeds (in order) ran; the rest were skipped.
        assert!(matches!(outcomes[3], SeedOutcome::Ok { .. }));
        assert!(matches!(outcomes[4], SeedOutcome::Skipped));
    }

    #[test]
    fn observer_sees_every_processed_seed() {
        let seen = Mutex::new(Vec::new());
        let seeds: Vec<u64> = (0..12).collect();
        let _ = SweepRunner::new().threads(3).run_fault_tolerant(
            &seeds,
            RetryPolicy::none(),
            None,
            Ok::<u64, String>,
            |seed, _, done| {
                seen.lock().push((seed, done));
                ControlFlow::Continue(())
            },
        );
        let mut seen = seen.into_inner();
        assert_eq!(seen.len(), 12);
        // Progress counts are a permutation of 1..=12.
        seen.sort_by_key(|&(_, done)| done);
        for (i, &(_, done)) in seen.iter().enumerate() {
            assert_eq!(done, i + 1);
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::attempts(4).backoff_ms(2);
        assert_eq!(policy.delay_before(1), Duration::ZERO);
        assert_eq!(policy.delay_before(2), Duration::from_millis(2));
        assert_eq!(policy.delay_before(3), Duration::from_millis(4));
        assert_eq!(policy.delay_before(4), Duration::from_millis(8));
        assert_eq!(RetryPolicy::none().delay_before(5), Duration::ZERO);
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
        assert_eq!(RetryPolicy::attempts(3).max_attempts(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::attempts(0);
    }
}
