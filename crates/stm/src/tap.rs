//! Live event tap: publish every transactional operation of a running
//! STM into a bounded ring for the streaming monitor.
//!
//! Unlike the interval [`Recorder`](crate::recorder::Recorder) — which
//! buffers a whole execution under a mutex and converts it to a trace
//! *after* the workers join — the tap is an **online** channel: each
//! begin/read/write/commit/abort is pushed into a bounded MPSC
//! [`EventRing`] as it happens, and a consumer (the `jungle-monitor`
//! crate) drains it concurrently. Backpressure is explicit
//! ([`Backpressure::Block`] never loses an event; [`Backpressure::Drop`]
//! counts every loss exactly — once producers are quiescent,
//! `published + dropped` equals the number of publish attempts, never a
//! silent truncation).
//!
//! ### Event-ordering discipline (soundness)
//!
//! The monitor reconstructs a real-time order from ring arrival order,
//! so the one publisher — the observation point in
//! [`api`](crate::api), i.e. the [`TmAlgo`](crate::TmAlgo) methods
//! every entry point calls ([`atomically`](crate::atomically), direct
//! trait calls) — makes that order an
//! **under-approximation** of the true one:
//!
//! * `Begin` is published *before* the algorithm starts;
//! * `Commit` / `Abort` are published *after* the algorithm completed
//!   the commit/rollback (a commit that fails publishes `Abort`);
//! * reads and writes are published after the operation succeeded; one
//!   that aborted the transaction publishes nothing.
//!
//! Hence if the ring shows transaction `T` committing before `T'`
//! began, then `T` really did complete before `T'` started. A race can
//! only *hide* a real-time edge (making the monitor's check more
//! permissive for that pair, possibly escalating), never invent one —
//! so the tap can cause extra work, but never a false violation.
//!
//! `Commit` events carry a ticket from a process-wide counter fetched
//! at publish time; the monitor uses ticket order to track the latest
//! committed value per variable across window boundaries.

use jungle_core::ids::ProcId;
use jungle_obs::ring::{Backpressure, EventRing};
use std::sync::atomic::{AtomicU64, Ordering};

/// One transactional operation as seen by the tap. Variables are
/// widened to `u64` so no publish site ever truncates an index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TapOp {
    /// A transaction attempt started.
    Begin,
    /// A transactional read observed `val` at `var`.
    Read {
        /// Variable index.
        var: u64,
        /// Observed value.
        val: u64,
    },
    /// A transactional write of `val` to `var` was buffered.
    Write {
        /// Variable index.
        var: u64,
        /// Written value.
        val: u64,
    },
    /// The attempt committed; `ticket` is its position in the
    /// process-wide commit-publish order.
    Commit {
        /// Commit-publish ticket (monotonic across all threads).
        ticket: u64,
    },
    /// The attempt aborted and rolled back.
    Abort,
}

/// A tap event: the issuing process plus the operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TapEvent {
    /// The process (thread slot) that issued the operation.
    pub pid: ProcId,
    /// What happened.
    pub op: TapOp,
}

/// The shared tap: a bounded event ring plus the commit ticket
/// counter. Attach one to each thread's [`Ctx`](crate::api::Ctx) via
/// [`Ctx::with_tap`](crate::api::Ctx::with_tap) and hand the same
/// `Arc` to the monitor as the consumer end.
pub struct StmTap {
    ring: EventRing<TapEvent>,
    tickets: AtomicU64,
}

impl std::fmt::Debug for StmTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmTap")
            .field("published", &self.published())
            .field("dropped", &self.dropped())
            .field("queue_depth", &self.queue_depth())
            .field("policy", &self.policy())
            .finish()
    }
}

impl StmTap {
    /// A tap whose ring holds at least `cap` events under `policy`.
    pub fn new(cap: usize, policy: Backpressure) -> Self {
        StmTap {
            ring: EventRing::new(cap, policy),
            tickets: AtomicU64::new(0),
        }
    }

    /// Publish one event. Returns `false` iff the event was dropped
    /// (counted — see [`StmTap::dropped`]).
    #[inline]
    pub fn publish(&self, pid: ProcId, op: TapOp) -> bool {
        self.ring.push(TapEvent { pid, op })
    }

    /// Publish a `Commit` for `pid`, drawing the next ticket.
    #[inline]
    pub(crate) fn publish_commit(&self, pid: ProcId) -> bool {
        let ticket = self.tickets.fetch_add(1, Ordering::AcqRel);
        let op = TapOp::Commit { ticket };
        self.ring.push(TapEvent { pid, op })
    }

    /// Pop the oldest event (single consumer).
    pub fn pop(&self) -> Option<TapEvent> {
        self.ring.pop()
    }

    /// Drain up to `max` events into `out`; returns the count moved.
    pub fn drain_into(&self, out: &mut Vec<TapEvent>, max: usize) -> usize {
        self.ring.drain_into(out, max)
    }

    /// Events successfully published: exact once producers are
    /// quiescent (the ring counts a claimed slot before it is filled).
    pub fn published(&self) -> u64 {
        self.ring.published()
    }

    /// Events dropped because the ring was full under
    /// [`Backpressure::Drop`] or closed (exact — never silent).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Approximate backlog (published, not yet consumed).
    pub fn queue_depth(&self) -> usize {
        self.ring.len()
    }

    /// The ring's backpressure policy.
    pub(crate) fn policy(&self) -> Backpressure {
        self.ring.policy()
    }

    /// Close the tap: producers stop publishing (counted as drops);
    /// the consumer drains what remains.
    pub fn close(&self) {
        self.ring.close()
    }

    /// Has the tap been closed?
    pub fn is_closed(&self) -> bool {
        self.ring.is_closed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, Ctx};
    use crate::global_lock::GlobalLockStm;
    use std::sync::Arc;

    #[test]
    fn publishes_txn_lifecycle_in_order() {
        let tap = Arc::new(StmTap::new(64, Backpressure::Block));
        let tm = GlobalLockStm::new(2);
        let mut cx = Ctx::new(ProcId(0), None).with_tap(tap.clone());
        atomically(&tm, &mut cx, |tx| {
            tx.write(0, 7)?;
            tx.read(0)
        });
        let mut evs = Vec::new();
        tap.drain_into(&mut evs, usize::MAX);
        let ops: Vec<TapOp> = evs.iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            vec![
                TapOp::Begin,
                TapOp::Write { var: 0, val: 7 },
                TapOp::Read { var: 0, val: 7 },
                TapOp::Commit { ticket: 0 },
            ]
        );
        assert!(evs.iter().all(|e| e.pid == ProcId(0)));
        assert_eq!(tap.published(), 4);
        assert_eq!(tap.dropped(), 0);
    }

    #[test]
    fn commit_tickets_are_unique_and_dense() {
        let tap = Arc::new(StmTap::new(1024, Backpressure::Block));
        let tm = Arc::new(GlobalLockStm::new(4));
        let joins: Vec<_> = (0..4u32)
            .map(|t| {
                let tap = tap.clone();
                let tm = tm.clone();
                std::thread::spawn(move || {
                    let mut cx = Ctx::new(ProcId(t), None).with_tap(tap);
                    for i in 0..10 {
                        atomically(&*tm, &mut cx, |tx| tx.write(t as usize, i));
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let mut evs = Vec::new();
        tap.drain_into(&mut evs, usize::MAX);
        let mut tickets: Vec<u64> = evs
            .iter()
            .filter_map(|e| match e.op {
                TapOp::Commit { ticket } => Some(ticket),
                _ => None,
            })
            .collect();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn drop_policy_accounts_every_attempt() {
        let tap = StmTap::new(4, Backpressure::Drop);
        let attempts = 50u64;
        for i in 0..attempts {
            tap.publish(ProcId(0), TapOp::Write { var: 0, val: i });
        }
        assert_eq!(tap.published() + tap.dropped(), attempts);
        assert!(tap.dropped() > 0);
        // Drained events free space: counters keep the invariant.
        let mut out = Vec::new();
        tap.drain_into(&mut out, usize::MAX);
        assert_eq!(out.len() as u64, tap.published());
        tap.publish(ProcId(0), TapOp::Abort);
        assert_eq!(tap.published() + tap.dropped(), attempts + 1);
    }
}
