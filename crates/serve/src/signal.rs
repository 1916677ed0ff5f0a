//! Minimal SIGINT/SIGTERM notification without external crates.
//!
//! Installing the handler flips a process-global [`AtomicBool`]; the
//! server's event loops poll it between readiness waits. Together with
//! the epoll/eventfd wrappers in `sys.rs` this is one of the two
//! places in the workspace that touch `unsafe` — one `libc`
//! `signal(2)` registration per signal, with a handler that does
//! nothing but an atomic swap (async-signal-safe).
//!
//! A second SIGINT/SIGTERM while the graceful drain is already in
//! flight escalates to an immediate `_exit(128 + signal)` — the
//! conventional "killed by signal" exit status — so an operator whose
//! drain is wedged (a stuck job, a full disk) is never forced to reach
//! for `kill -9`. Skipping the drain is safe by design: segment
//! appends and job journals are crash-consistent, so the next startup
//! recovers exactly the committed state.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT or SIGTERM has been received (or
/// [`request_shutdown`] was called).
#[must_use]
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Flips the shutdown flag by hand — how tests and the CLI trigger a
/// graceful stop without raising a real signal.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears the flag (tests only; the flag is process-global).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(sig: i32) {
        // Only async-signal-safe work here: one atomic swap, and on
        // escalation `_exit(2)` (also async-signal-safe — no atexit
        // handlers, no unwinding, no allocation).
        if SHUTDOWN.swap(true, Ordering::SeqCst) {
            // Second signal during the drain: force immediate exit
            // with the conventional fatal-signal status.
            unsafe { libc::_exit(128 + sig) };
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal(2)` with a handler that performs a single
        // atomic store. Errors (SIG_ERR) are ignored — the server then
        // simply cannot be stopped by that signal, which is harmless.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Installs the SIGINT/SIGTERM handlers (no-op on non-Unix platforms,
/// where only [`request_shutdown`] stops the server).
pub fn install_handlers() {
    #[cfg(unix)]
    unix::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_request_flips_the_flag() {
        reset();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset();
        assert!(!shutdown_requested());
    }
}
