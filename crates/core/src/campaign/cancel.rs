//! Cooperative cancellation for long campaigns.
//!
//! A [`CancelToken`] is a shared flag the campaign checks before it
//! starts each cell. [`install_signal_handlers`] wires SIGINT/SIGTERM
//! to a process-global token so an operator's Ctrl-C (or a scheduler's
//! TERM) turns into a graceful drain — journal flushed, partial matrix
//! emitted — instead of a mid-write kill.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cheaply-cloneable cancellation flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested (on this token or any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }
}

/// Set by the signal handler. Kept separate from any token so handler
/// installation is process-global and tokens stay plain atomics.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use super::SIGNALLED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // std links libc on unix; declaring `signal` directly avoids a
    // dependency the offline build environment doesn't have.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // An atomic store is async-signal-safe; everything else (the
        // journal flush, the partial emit) happens on the main thread
        // when the runner polls the flag.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    /// No signal story off unix: the token still works programmatically.
    pub fn install() {}
}

/// Install SIGINT/SIGTERM handlers that trip every [`CancelToken`], and
/// return a token observing them. Safe to call more than once.
pub fn install_signal_handlers() -> CancelToken {
    sys::install();
    CancelToken::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }
}
