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
//!   **never silently**: once producers are quiescent,
//!   `published + dropped == attempts` holds exactly (no sampling, no
//!   saturation).
//!
//! The implementation is the classic bounded MPMC queue with per-slot
//! sequence numbers (used here MPSC), so producers never take a lock
//! and the consumer drains in publish order per producer. Capacity is
//! rounded up to a power of two.
//!
//! The ring is built for a full, busy queue (the live monitor's steady
//! state):
//!
//! * `head` (written by producers) and `tail` (written by the consumer)
//!   each sit alone on a 128-byte-aligned line (two 64-byte lines, so
//!   the adjacent-line prefetcher does not pair them either); the cold
//!   fields (`policy`, `dropped`, `closed`) and the read-only slot
//!   table sit on neither.
//! * A publish makes one contended read-modify-write, the `head` CAS
//!   that claims its slot. A claimed slot is always filled, so there is
//!   no separate publish counter: [`EventRing::published`] reads `head`.
//! * The consumer takes the whole run of ready slots at once: it
//!   releases each slot's sequence number as it empties it (that is
//!   what producers wait on), but stores `tail` once per batch.
//!   [`EventRing::pop`] is the one-event batch.

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

/// One value alone on a 128-byte line.
#[repr(align(128))]
struct Padded<T>(T);

/// Bounded MPSC ring of `T` with exact publish/drop accounting.
pub struct EventRing<T> {
    head: Padded<AtomicUsize>, // producers claim here
    tail: Padded<AtomicUsize>, // consumer drains here
    slots: Box<[Slot<T>]>,
    mask: usize,
    policy: Backpressure,
    dropped: AtomicU64,
    closed: AtomicBool,
}

// SAFETY: slot handoff is synchronized by the per-slot `seq`
// (release-stored by the writer, acquire-loaded by the reader), so a
// value is only ever touched by one side at a time. Every other field
// is an atomic or is read-only after `new`.
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
            head: Padded(AtomicUsize::new(0)),
            tail: Padded(AtomicUsize::new(0)),
            slots,
            mask: cap - 1,
            policy,
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Events successfully published: the slots claimed so far, each
    /// of which its producer fills. Exact once producers are quiescent;
    /// while they run it may count an event still being written.
    pub fn published(&self) -> u64 {
        self.head.0.load(Ordering::Acquire) as u64
    }

    /// Events rejected because the ring was full under
    /// [`Backpressure::Drop`] (or closed). Every publish attempt lands
    /// in exactly one of `published` / `dropped`, so their sum is
    /// exact once producers are quiescent.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Approximate queue depth (events published but not yet popped;
    /// a batch being drained counts until it is done). Exact when
    /// producers and the consumer are quiescent.
    pub fn len(&self) -> usize {
        self.head
            .0
            .load(Ordering::Acquire)
            .saturating_sub(self.tail.0.load(Ordering::Acquire))
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
    /// the ring is closed). Either way it counts in exactly one of
    /// [`EventRing::published`] / [`EventRing::dropped`].
    pub fn push(&self, value: T) -> bool {
        if self.is_closed() {
            return self.drop_one();
        }
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free at this position: try to claim it. The
                // claim is the publish count, so it must be filled.
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: we own this slot until the seq store.
                        unsafe { *slot.value.get() = Some(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(cur) => pos = cur,
                }
            } else if (seq as isize).wrapping_sub(pos as isize) < 0 {
                // Ring full: the slot still holds an unconsumed event.
                if self.policy == Backpressure::Drop || self.is_closed() {
                    return self.drop_one();
                }
                std::thread::yield_now();
                pos = self.head.0.load(Ordering::Relaxed);
            } else {
                // Another producer claimed `pos`; retry at the head.
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    fn drop_one(&self) -> bool {
        self.dropped.fetch_add(1, Ordering::AcqRel);
        false
    }

    /// Pop the oldest event, if any. Single consumer only.
    pub fn pop(&self) -> Option<T> {
        let mut out = None;
        self.take_ready(1, |v| out = Some(v));
        out
    }

    /// Drain up to `max` waiting events into `out`; returns how many
    /// were moved. Single consumer only.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.take_ready(max, |v| out.push(v))
    }

    /// The one slot handoff: hand the run of ready slots at `tail`
    /// (at most `max`) to `sink` in ring order, releasing each slot to
    /// producers as it is emptied, then store `tail` once. Returns how
    /// many were taken. Single consumer only.
    #[inline]
    fn take_ready(&self, max: usize, mut sink: impl FnMut(T)) -> usize {
        let start = self.tail.0.load(Ordering::Relaxed);
        let mut pos = start;
        while pos.wrapping_sub(start) < max {
            let slot = &self.slots[pos & self.mask];
            if slot.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
                break; // nothing published at this position yet
            }
            // SAFETY: seq == pos + 1 means the producer finished writing
            // and no other consumer exists.
            let value = unsafe { (*slot.value.get()).take() };
            slot.seq.store(
                pos.wrapping_add(self.mask).wrapping_add(1),
                Ordering::Release,
            );
            sink(value.expect("a ready slot holds its event"));
            pos = pos.wrapping_add(1);
        }
        let n = pos.wrapping_sub(start);
        if n > 0 {
            self.tail.0.store(pos, Ordering::Release);
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
                let (mut seen, mut idle) = (0u64, 0u32);
                while seen < producers * per {
                    if r.pop().is_some() {
                        seen += 1;
                        idle = 0;
                    } else {
                        // A stalled ring fails the test, not hangs it.
                        idle += 1;
                        assert!(idle < 1 << 24, "consumer stalled after {seen}");
                        std::thread::yield_now();
                    }
                }
                seen
            })
        };
        // The consumer first: a stalled one fails the test, while the
        // producers it strands would keep spinning.
        assert_eq!(consumer.join().unwrap(), producers * per);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(r.published(), producers * per);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn head_and_tail_sit_on_lines_of_their_own() {
        use std::mem::{align_of, offset_of};
        type R = EventRing<u64>;
        assert!(align_of::<R>() >= 128);
        let (head, tail) = (offset_of!(R, head), offset_of!(R, tail));
        assert!(head.abs_diff(tail) >= 128, "head {head}, tail {tail}");
        for (name, cold) in [
            ("slots", offset_of!(R, slots)),
            ("mask", offset_of!(R, mask)),
            ("policy", offset_of!(R, policy)),
            ("dropped", offset_of!(R, dropped)),
            ("closed", offset_of!(R, closed)),
        ] {
            for hot in [head, tail] {
                assert!(!(hot..hot + 128).contains(&cold), "{name} at {cold}");
            }
        }
    }

    #[test]
    fn close_releases_producers_blocked_on_a_full_ring() {
        let cap = 4u64;
        let r = Arc::new(EventRing::new(cap as usize, Backpressure::Block));
        for i in 0..cap {
            assert!(r.push(i));
        }
        let producers = 3u64;
        let per = 1_000u64;
        let started = Arc::new(AtomicUsize::new(0));
        let joins: Vec<_> = (0..producers)
            .map(|p| {
                let (r, started) = (r.clone(), started.clone());
                std::thread::spawn(move || {
                    started.fetch_add(1, Ordering::Relaxed);
                    (0..per).filter(|i| r.push(100 + p * per + i)).count() as u64
                })
            })
            .collect();
        while started.load(Ordering::Relaxed) < producers as usize {
            std::thread::yield_now();
        }
        // Free two slots for the blocked producers, and wait until they
        // are taken, so the ring is full again when it closes.
        let mut consumed = 0u64;
        for _ in 0..2 {
            assert!(r.pop().is_some());
            consumed += 1;
        }
        while r.published() < cap + 2 {
            std::thread::yield_now();
        }
        r.close();
        let pushed: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(r.published(), cap + pushed);
        assert_eq!(r.published() + r.dropped(), cap + producers * per);
        let mut rest = Vec::new();
        consumed += r.drain_into(&mut rest, usize::MAX) as u64;
        assert_eq!(consumed, r.published());
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
    }

    /// Events `(producer, index)` pushed round-robin by three producers.
    fn tagged(n: u32) -> impl Iterator<Item = (u32, u32)> {
        (0..n).map(|k| (k % 3, k / 3))
    }

    /// Per producer, the indices arrive 0, 1, 2, ... with none missing.
    fn assert_fifo_per_producer(got: &[(u32, u32)]) {
        let mut next = [0u32; 3];
        for &(p, i) in got {
            assert_eq!(i, next[p as usize], "producer {p} out of order in {got:?}");
            next[p as usize] += 1;
        }
    }

    #[test]
    fn one_batched_drain_equals_repeated_pops_across_a_wrap() {
        let (batched, popped) = (
            EventRing::new(8, Backpressure::Drop),
            EventRing::new(8, Backpressure::Drop),
        );
        // Move both rings to position 5, so eight events wrap around.
        for r in [&batched, &popped] {
            for _ in 0..5 {
                assert!(r.push((9, 9)));
                assert_eq!(r.pop(), Some((9, 9)));
            }
        }
        for round in 0..3 {
            for e in tagged(8) {
                assert!(batched.push(e) && popped.push(e));
            }
            let mut a = Vec::new();
            assert_eq!(batched.drain_into(&mut a, usize::MAX), 8);
            let b: Vec<_> = std::iter::from_fn(|| popped.pop()).collect();
            assert_eq!(a, b, "round {round}");
            assert_fifo_per_producer(&a);
            assert!(batched.is_empty() && popped.is_empty());
        }
        // A bounded batch stops at `max` and leaves the rest in order.
        for e in tagged(6) {
            assert!(batched.push(e));
        }
        let mut a = Vec::new();
        assert_eq!(batched.drain_into(&mut a, 4), 4);
        assert_eq!(batched.len(), 2);
        assert_eq!(batched.drain_into(&mut a, 4), 2);
        assert_eq!(a, tagged(6).collect::<Vec<_>>());
        assert_eq!(batched.drain_into(&mut a, 4), 0);
    }

    #[test]
    fn batched_drains_keep_each_producers_order_under_threads() {
        let r = Arc::new(EventRing::new(8, Backpressure::Block));
        let producers = 3u32;
        let per = 5_000u32;
        let joins: Vec<_> = (0..producers)
            .map(|p| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        assert!(r.push((p, i)));
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        let mut idle = 0u32;
        while got.len() < (producers * per) as usize {
            if r.drain_into(&mut got, 5) == 0 {
                // A lost `tail` strands the consumer: fail, don't hang.
                idle += 1;
                assert!(idle < 1 << 24, "consumer stalled after {}", got.len());
                std::thread::yield_now();
            } else {
                idle = 0;
            }
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_fifo_per_producer(&got);
        assert_eq!(r.published(), u64::from(producers * per));
        assert!(r.is_empty());
    }
}
