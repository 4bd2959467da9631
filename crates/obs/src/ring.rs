//! Bounded multi-producer single-consumer event ring with an explicit
//! backpressure policy.
//!
//! The streaming monitor taps every STM operation, so the channel
//! between producers (transaction threads) and the consumer (the
//! monitor) must have a hard memory bound *and* an explicit answer to
//! "what happens when the consumer falls behind":
//!
//! * [`Backpressure::Block`] — the producer spins (yielding) until a
//!   slot frees up. No event is ever lost; producers pay latency.
//! * [`Backpressure::Drop`] — the publish fails immediately and the
//!   ring counts it in [`EventRing::dropped`]. Events are lost, but
//!   **never silently**: `published + dropped == attempts` always
//!   holds, and the counters are exact (plain atomic increments, no
//!   sampling, no saturation).
//!
//! The implementation is the classic bounded MPMC queue with per-slot
//! sequence numbers (used here MPSC), so producers never take a lock
//! and the consumer drains in publish order per producer. Capacity is
//! rounded up to a power of two.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// What a producer does when the ring is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backpressure {
    /// Spin (with `yield_now`) until space frees up; never loses
    /// events. If the ring is closed while waiting, the event is
    /// counted as dropped instead of spinning forever.
    Block,
    /// Fail the publish and count it in [`EventRing::dropped`].
    Drop,
}

struct Slot<T> {
    seq: AtomicUsize,
    value: std::cell::UnsafeCell<Option<T>>,
}

/// Bounded MPSC ring of `T` with exact publish/drop accounting.
pub struct EventRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    head: AtomicUsize, // producers claim here
    tail: AtomicUsize, // consumer drains here
    policy: Backpressure,
    published: AtomicU64,
    dropped: AtomicU64,
    closed: AtomicBool,
}

// SAFETY: slot handoff is synchronized by the per-slot `seq`
// (release-stored by the writer, acquire-loaded by the reader), so a
// value is only ever touched by one side at a time.
unsafe impl<T: Send> Sync for EventRing<T> {}
unsafe impl<T: Send> Send for EventRing<T> {}

impl<T> EventRing<T> {
    /// A ring holding at least `cap` events (rounded up to a power of
    /// two, minimum 2) under `policy`.
    pub fn new(cap: usize, policy: Backpressure) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: std::cell::UnsafeCell::new(None),
            })
            .collect();
        EventRing {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            policy,
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// The configured backpressure policy.
    pub fn policy(&self) -> Backpressure {
        self.policy
    }

    /// Events successfully published (exact).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Events rejected because the ring was full under
    /// [`Backpressure::Drop`] (or closed). Exact: every publish attempt
    /// lands in exactly one of `published` / `dropped`.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Approximate queue depth (events published but not yet popped).
    /// Exact when producers and the consumer are quiescent.
    pub fn len(&self) -> usize {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(self.tail.load(Ordering::Acquire))
    }

    /// True when no event is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark the ring closed: subsequent publishes fail (counted as
    /// dropped) and blocked producers give up. The consumer can still
    /// drain what was published.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Has [`EventRing::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Publish `value`. Returns `true` if the event entered the ring,
    /// `false` if it was dropped (full under [`Backpressure::Drop`], or
    /// the ring is closed). Either way exactly one of the
    /// [`EventRing::published`] / [`EventRing::dropped`] counters is
    /// incremented.
    pub fn push(&self, value: T) -> bool {
        if self.is_closed() {
            self.dropped.fetch_add(1, Ordering::AcqRel);
            return false;
        }
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free at this position: try to claim it.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: we own this slot until the seq store.
                        unsafe { *slot.value.get() = Some(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        self.published.fetch_add(1, Ordering::AcqRel);
                        return true;
                    }
                    Err(cur) => pos = cur,
                }
            } else if (seq as isize).wrapping_sub(pos as isize) < 0 {
                // Ring full: the slot still holds an unconsumed event.
                match self.policy {
                    Backpressure::Drop => {
                        self.dropped.fetch_add(1, Ordering::AcqRel);
                        return false;
                    }
                    Backpressure::Block => {
                        if self.is_closed() {
                            self.dropped.fetch_add(1, Ordering::AcqRel);
                            return false;
                        }
                        std::thread::yield_now();
                        pos = self.head.load(Ordering::Relaxed);
                    }
                }
            } else {
                // Another producer claimed `pos`; retry at the head.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest event, if any. Single consumer only.
    pub fn pop(&self) -> Option<T> {
        let pos = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != pos.wrapping_add(1) {
            return None; // nothing published at this position yet
        }
        // SAFETY: seq == pos + 1 means the producer finished writing
        // and no other consumer exists.
        let value = unsafe { (*slot.value.get()).take() };
        slot.seq.store(
            pos.wrapping_add(self.mask).wrapping_add(1),
            Ordering::Release,
        );
        self.tail.store(pos.wrapping_add(1), Ordering::Release);
        value
    }

    /// Drain up to `max` waiting events into `out`; returns how many
    /// were moved. Single consumer only.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_roundtrip() {
        let r = EventRing::new(8, Backpressure::Drop);
        for i in 0..5u32 {
            assert!(r.push(i));
        }
        assert_eq!(r.len(), 5);
        for i in 0..5u32 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
        assert_eq!(r.published(), 5);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn drop_policy_counts_exactly() {
        let r = EventRing::new(4, Backpressure::Drop);
        let mut attempts = 0u64;
        for i in 0..10u32 {
            r.push(i);
            attempts += 1;
        }
        assert_eq!(r.published() + r.dropped(), attempts);
        assert_eq!(r.published(), 4); // capacity
        assert_eq!(r.dropped(), 6);
        // Space freed by popping is publishable again.
        assert_eq!(r.pop(), Some(0));
        assert!(r.push(99));
        assert_eq!(r.published(), 5);
    }

    #[test]
    fn closed_ring_rejects_and_drains() {
        let r = EventRing::new(4, Backpressure::Block);
        assert!(r.push(1u32));
        r.close();
        assert!(!r.push(2));
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.pop(), Some(1)); // published events survive close
    }

    #[test]
    fn wraps_many_times() {
        let r = EventRing::new(4, Backpressure::Drop);
        for i in 0..100u32 {
            assert!(r.push(i));
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.published(), 100);
    }

    #[test]
    fn multi_producer_accounting_is_exact() {
        let r = Arc::new(EventRing::new(64, Backpressure::Drop));
        let producers = 4;
        let per = 10_000u64;
        let consumer = {
            let r = r.clone();
            std::thread::spawn(move || {
                let mut got = 0u64;
                let mut idle = 0;
                while idle < 10_000 {
                    match r.pop() {
                        Some(_v) => {
                            got += 1;
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            std::thread::yield_now();
                        }
                    }
                }
                got
            })
        };
        let joins: Vec<_> = (0..producers)
            .map(|p| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        r.push(p * per + i);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let got = consumer.join().unwrap();
        let attempts = producers * per;
        assert_eq!(r.published() + r.dropped(), attempts, "no silent loss");
        // Everything published was (or still can be) consumed.
        let mut rest = Vec::new();
        r.drain_into(&mut rest, usize::MAX);
        assert_eq!(got + rest.len() as u64, r.published());
    }

    #[test]
    fn block_policy_loses_nothing() {
        let r = Arc::new(EventRing::new(8, Backpressure::Block));
        let producers = 3;
        let per = 5_000u64;
        let joins: Vec<_> = (0..producers)
            .map(|p| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        assert!(r.push(p * per + i));
                    }
                })
            })
            .collect();
        let consumer = {
            let r = r.clone();
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while seen < producers * per {
                    if r.pop().is_some() {
                        seen += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen
            })
        };
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), producers * per);
        assert_eq!(r.published(), producers * per);
        assert_eq!(r.dropped(), 0);
    }
}
