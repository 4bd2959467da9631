//! The process-global install point the flight recorder and the phase
//! profiler share.
//!
//! A hot-path hook ([`trace::emit`](crate::trace::emit),
//! [`profile::enter`](crate::profile::enter)) must cost one relaxed
//! load when nothing is installed, and must never see a dangling
//! pointer when something is. [`Installed`] holds the three pieces that
//! takes — the enabled flag the hook tests, the pointer the slow path
//! follows, and a keep-alive list that is never drained — and this
//! crate's one `unsafe` dereference outside [`ring`](crate::ring).

use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// An install-on-demand, process-global `T`. Meant to be a `static`.
pub(crate) struct Installed<T> {
    enabled: AtomicBool,
    current: AtomicPtr<T>,
    /// Every value ever installed, kept alive for the process lifetime
    /// so a pointer loaded from `current` can never dangle. Installs
    /// happen a handful of times per process (report start, tests), so
    /// the leak is bounded and deliberate.
    keep: Mutex<Vec<Arc<T>>>,
}

impl<T> Installed<T> {
    /// Nothing installed.
    pub(crate) const fn new() -> Self {
        Installed {
            enabled: AtomicBool::new(false),
            current: AtomicPtr::new(std::ptr::null_mut()),
            keep: Mutex::new(Vec::new()),
        }
    }

    /// Make `value` the current one and enable the hooks. A previously
    /// installed value stays alive but is no longer reachable from
    /// here.
    pub(crate) fn install(&self, value: Arc<T>) {
        let raw = Arc::as_ptr(&value).cast_mut();
        self.keep
            .lock()
            .expect("keep-alive list lock poisoned")
            .push(value);
        self.current.store(raw, Ordering::Release);
        self.enabled.store(true, Ordering::Release);
    }

    /// Turn the hooks off. The current value stays reachable through
    /// [`current`](Self::current) until [`clear`](Self::clear).
    pub(crate) fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Forget the current value (it stays alive in the keep-alive list).
    pub(crate) fn clear(&self) {
        self.current.store(std::ptr::null_mut(), Ordering::Release);
    }

    /// The hooks' test: one relaxed load.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The current value, if one is installed and not cleared.
    pub(crate) fn current(&self) -> Option<&T> {
        let p = self.current.load(Ordering::Acquire);
        // SAFETY: `p` is null or was stored by `install` from an `Arc`
        // pushed into `keep` first; `keep` is private and never
        // drained, so the allocation lives as long as the process, and
        // `T` is only ever handed out by shared reference.
        unsafe { p.as_ref() }
    }
}
