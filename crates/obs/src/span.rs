//! Lightweight timing spans.
//!
//! A [`Span`] is a started monotonic clock; reading it yields elapsed
//! nanoseconds. No allocation, no global state — cheap enough to wrap
//! individual checker searches and monitor windows.

use std::time::Instant;

/// An in-flight timing measurement.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: Instant,
}

impl Span {
    /// Start timing now.
    pub fn start() -> Self {
        Span {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let span = Span::start();
        let a = span.elapsed_ns();
        std::hint::black_box((0..1000u64).sum::<u64>());
        let b = span.elapsed_ns();
        assert!(b >= a);
    }
}
