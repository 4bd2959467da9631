//! The flight recorder's process-global install point, and its rings'
//! zeroed allocation.
//!
//! A hot-path hook ([`trace::emit`](crate::trace::emit),
//! [`profile::enter`](crate::profile::enter)) must cost one relaxed
//! load when its layer is not recorded, and must never see a dangling
//! pointer when it is. [`Sink`] holds the two pieces that takes — the
//! mask of recorded layers the hook tests, and the pointer the slow
//! path follows to a recorder that is never freed — and, with
//! [`zeroed_slots`], this crate's only `unsafe` outside
//! [`ring`](crate::ring).

use crate::trace::{FlightRecorder, Slot};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Arc;

/// The install-on-demand, process-global recorder. Meant to be a
/// `static`.
pub(crate) struct Sink {
    /// Bit `i` set: events of category `CATEGORIES[i]` are recorded.
    layers: AtomicU32,
    current: AtomicPtr<FlightRecorder>,
}

impl Sink {
    /// Nothing installed.
    pub(crate) const fn new() -> Self {
        Sink {
            layers: AtomicU32::new(0),
            current: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Make `recorder` the current one and record the `layers` mask. A
    /// previously installed recorder stays alive but is no longer
    /// reachable from here. Every recorder installed is kept alive for
    /// the process lifetime (its `Arc` is leaked), so a pointer loaded
    /// from `current` can never dangle. Installs happen a handful of
    /// times per process (report start, tests), so the leak is bounded
    /// and deliberate.
    pub(crate) fn install(&self, recorder: Arc<FlightRecorder>, layers: u32) {
        let raw = Arc::into_raw(recorder).cast_mut();
        self.current.store(raw, Ordering::Release);
        self.layers.store(layers, Ordering::Release);
    }

    /// Record nothing, and forget the current recorder.
    pub(crate) fn uninstall(&self) {
        self.layers.store(0, Ordering::Release);
        self.current.store(std::ptr::null_mut(), Ordering::Release);
    }

    /// The hooks' test: one relaxed load.
    #[inline]
    pub(crate) fn layers(&self) -> u32 {
        self.layers.load(Ordering::Relaxed)
    }

    /// The current recorder, if one is installed.
    pub(crate) fn current(&self) -> Option<&FlightRecorder> {
        let p = self.current.load(Ordering::Acquire);
        // SAFETY: `p` is null or came from `Arc::into_raw` in `install`,
        // whose strong count is never given back, so the recorder lives
        // as long as the process and is only handed out shared.
        unsafe { p.as_ref() }
    }
}

/// `len` empty ring slots, allocated zeroed: a large ring comes from
/// fresh pages, which cost memory only once an event is written there.
pub(crate) fn zeroed_slots(len: usize) -> Box<[Slot]> {
    let slots = Box::<[Slot]>::new_zeroed_slice(len);
    // SAFETY: a `Slot` is four `AtomicU64`s, which have the in-memory
    // representation of `u64`, so all-zero bytes are a valid (empty)
    // `Slot`.
    unsafe { slots.assume_init() }
}
