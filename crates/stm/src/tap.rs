//! The event tap, the crate's one observation channel: every operation
//! of a running STM, published into a bounded MPSC [`EventRing`] as it
//! happens by the observation point in [`api`](crate::api). One
//! consumer drains it concurrently ([`StmTap::consume`]): the
//! `jungle-monitor` crate's streaming monitor, or a recording whose
//! events [`trace_of`] turns into a [`Trace`]. [`Backpressure::Block`]
//! never loses an event; under [`Backpressure::Drop`] every loss is
//! counted (`published + dropped` equals the publish attempts once
//! producers are quiescent).
//!
//! ### What is published, and why it is sound
//!
//! The paper's history alphabet is one sequence of operations,
//! transactional and non-transactional; the tap carries both. An event
//! is a point, and the ring's slot claim (one CAS) orders all events
//! consistently with real time. `Begin` is published *before* the
//! protocol's start; `Read`, `Write`, `Commit` and `Abort` *after* the
//! protocol call returned (a failed commit publishes `Abort`; a read or
//! write that aborts never responded and publishes nothing); a
//! non-transactional read or write publishes `NtInvoke` before the
//! protocol call and `NtRead` / `NtWrite`, with `var` and `val`, after
//! it. Each point lies inside the interval of its operation, and a unit
//! — a transaction, or a non-transactional operation — has its first
//! point before all of its instructions and its last after them.
//!
//! The real-time order ≺h that opacity and SGLA respect reads only a
//! transaction's first and last operation, and a non-transactional
//! operation is a unit of its own. So a transaction's reads and writes
//! can be points anywhere inside it, while a non-transactional
//! operation needs both ends: [`trace_of`] makes it the interval
//! between its two events. If the ring shows one unit's last point
//! before another's first, every instruction of the first precedes
//! every instruction of the second, and the edge holds in every valid
//! placement of the run's invocation and response markers. The rt edges
//! of the tap's trace are therefore a subset of those of every valid
//! placement (put each non-transactional operation where the placement
//! does; the points stay), and fewer edges only free the witness
//! search: a race can *hide* an edge — a more permissive check, or a
//! monitor window sent to escalation — but never invent one, so the tap
//! never causes a false violation.
//!
//! A `Commit` carries a ticket drawn from a process-wide counter as it
//! is published; the monitor tracks the latest committed value per
//! variable across windows in ticket order.

use jungle_core::ids::{OpId, ProcId, Var};
use jungle_core::op::{Command, Op};
use jungle_isa::instr::{Instr, InstrInstance};
use jungle_isa::trace::{Trace, TraceError};
use jungle_obs::ring::{Backpressure, EventRing};
use std::sync::atomic::{AtomicU64, Ordering};

/// One operation event as seen by the tap. Variables are widened to
/// `u64` so no publish site ever truncates an index.
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
    /// A non-transactional operation was invoked; its response, the
    /// process's next event, is an `NtRead` or `NtWrite`.
    NtInvoke,
    /// A non-transactional read observed `val` at `var`.
    NtRead {
        /// Variable index.
        var: u64,
        /// Observed value.
        val: u64,
    },
    /// A non-transactional write of `val` to `var` completed.
    NtWrite {
        /// Variable index.
        var: u64,
        /// Written value.
        val: u64,
    },
}

impl TapOp {
    /// Is this event part of a transaction (not one of a
    /// non-transactional operation's two)?
    #[inline]
    pub fn is_transactional(&self) -> bool {
        !matches!(
            self,
            TapOp::NtInvoke | TapOp::NtRead { .. } | TapOp::NtWrite { .. }
        )
    }
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
/// `Arc` to the consumer ([`StmTap::consume`]).
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
            .finish()
    }
}

/// Closes its tap when dropped, on a return and on an unwind alike.
struct CloseOnDrop<'a>(&'a StmTap);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
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
    /// (counted — see [`StmTap::dropped`]). A `Commit` is published
    /// with the next ticket, whatever ticket it carries.
    #[inline]
    pub fn publish(&self, pid: ProcId, mut op: TapOp) -> bool {
        if let TapOp::Commit { ticket } = &mut op {
            *ticket = self.tickets.fetch_add(1, Ordering::AcqRel);
        }
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

    /// Be the tap's consumer until it is closed **and** drained: hand
    /// each batch of up to 4,096 events to `batch`, with the backlog
    /// sampled before the drain that took it. The tap is closed when
    /// this returns or unwinds, so if `batch` panics, producers blocked
    /// on a full ring return, their events counted as drops.
    pub fn consume(&self, mut batch: impl FnMut(&[TapEvent], usize)) {
        let _close = CloseOnDrop(self);
        let mut buf: Vec<TapEvent> = Vec::with_capacity(4096);
        loop {
            let depth = self.queue_depth();
            if self.drain_into(&mut buf, 4096) > 0 {
                batch(&buf, depth);
                buf.clear();
            } else if self.is_closed() && self.queue_depth() == 0 {
                return;
            } else {
                std::thread::yield_now();
            }
        }
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
    pub(crate) fn queue_depth(&self) -> usize {
        self.ring.len()
    }

    /// Close the tap: producers stop publishing (counted as drops);
    /// the consumer drains what remains.
    pub fn close(&self) {
        self.ring.close()
    }

    /// Has the tap been closed?
    pub(crate) fn is_closed(&self) -> bool {
        self.ring.is_closed()
    }
}

/// The [`Trace`] of a drained tap stream, for the trace-correspondence
/// checkers (`jungle_mc::verify::trace_satisfies`).
///
/// A transactional event is one point, its operation's invocation and
/// response markers side by side; a non-transactional operation spans
/// its `NtInvoke` and its response. An `NtInvoke` its process's next
/// event does not answer (a [`Backpressure::Drop`] tap lost the
/// response, or the process stopped) never responded: it is left out.
///
/// # Errors
///
/// A variable index no history [`Var`] can hold (only a corrupt stream
/// carries one), or a stream [`Trace::new`] rejects.
pub fn trace_of(events: &[TapEvent]) -> Result<Trace, TraceError> {
    // An invocation marker's slot, filled in by the response that names
    // the operation; a slot left empty is dropped.
    let mut instrs: Vec<Option<InstrInstance>> = Vec::with_capacity(2 * events.len());
    // Per process, the slot of its open non-transactional invocation.
    let mut open: Vec<(ProcId, usize)> = Vec::new();
    let var = |raw: u64| {
        let bad = || TraceError::IllFormedHistory(format!("variable {raw} is not a Var"));
        u32::try_from(raw).map(Var).map_err(|_| bad())
    };
    for ev in events {
        let proc = ev.pid;
        let pending = (open.iter().position(|o| o.0 == proc)).map(|at| open.swap_remove(at).1);
        let what = match ev.op {
            TapOp::NtInvoke => {
                open.push((proc, instrs.len()));
                instrs.push(None);
                continue;
            }
            TapOp::Begin => Op::Start,
            TapOp::Commit { .. } => Op::Commit,
            TapOp::Abort => Op::Abort,
            TapOp::Read { var: v, val } | TapOp::NtRead { var: v, val } => {
                Op::Cmd(Command::Read { var: var(v)?, val })
            }
            TapOp::Write { var: v, val } | TapOp::NtWrite { var: v, val } => {
                Op::Cmd(Command::Write { var: var(v)?, val })
            }
        };
        let inv = match pending {
            Some(at) if !ev.op.is_transactional() => at,
            _ => {
                instrs.push(None);
                instrs.len() - 1
            }
        };
        // Slots grow in invocation order, so ids do too.
        let op = OpId(u32::try_from(inv + 1).expect("one OpId per operation"));
        let marker = |instr| Some(InstrInstance { instr, proc, op });
        instrs[inv] = marker(Instr::Inv(what.clone()));
        instrs.push(marker(Instr::Resp(what)));
    }
    Trace::new(instrs.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{atomically, Ctx, TmAlgo};
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

    fn ev(pid: u32, op: TapOp) -> TapEvent {
        TapEvent {
            pid: ProcId(pid),
            op,
        }
    }

    fn ops_of(trace: &Trace) -> Vec<Op> {
        let h = trace.canonical_history().unwrap();
        h.ops().iter().map(|o| o.op.clone()).collect()
    }

    #[test]
    fn a_tapped_run_is_a_trace_of_points_and_intervals() {
        let tap = Arc::new(StmTap::new(64, Backpressure::Block));
        let tm = GlobalLockStm::new(2);
        let mut cx = Ctx::new(ProcId(0), Some(tap.clone()));
        tm.nt_write(&mut cx, 0, 42);
        atomically(&tm, &mut cx, |tx| tx.read(0));
        assert_eq!(tm.nt_read(&mut cx, 1), 0);
        let mut evs = Vec::new();
        tap.drain_into(&mut evs, usize::MAX);
        assert_eq!(evs.len(), 7, "two per non-transactional operation");
        let trace = trace_of(&evs).unwrap();
        assert!(trace.ops().iter().all(|o| o.complete));
        let (read, write) = (
            |var, val| Op::Cmd(Command::Read { var: Var(var), val }),
            |var, val| Op::Cmd(Command::Write { var: Var(var), val }),
        );
        assert_eq!(
            ops_of(&trace),
            [write(0, 42), Op::Start, read(0, 42), Op::Commit, read(1, 0)]
        );
    }

    #[test]
    fn the_empty_stream_is_the_empty_trace() {
        assert!(trace_of(&[]).unwrap().ops().is_empty());
    }

    #[test]
    fn transactional_events_are_points_and_nontransactional_ops_intervals() {
        let read = TapOp::NtRead { var: 0, val: 3 };
        let evs = [
            ev(0, TapOp::NtInvoke),
            // Its response was lost: the next event opens a transaction,
            // and the operation that never responded is left out.
            ev(0, TapOp::Begin),
            ev(1, TapOp::NtInvoke),
            ev(0, TapOp::Abort),
            // Process 1's read spans the abort.
            ev(1, read),
            // A response whose invocation was lost is a point.
            ev(1, read),
            ev(0, TapOp::NtInvoke),
        ];
        let trace = trace_of(&evs).unwrap();
        let spans: Vec<(u32, usize)> = (trace.ops().iter())
            .map(|o| (o.proc.0, o.last - o.first))
            .collect();
        assert_eq!(spans, [(0, 1), (1, 3), (0, 1), (1, 1)]);
        let huge = ev(
            0,
            TapOp::NtRead {
                var: 1 << 32,
                val: 0,
            },
        );
        assert!(trace_of(&[huge]).is_err());
    }

    #[test]
    fn overlapping_nontransactional_writes_across_threads() {
        let tap = Arc::new(StmTap::new(16, Backpressure::Block));
        let tm = Arc::new(GlobalLockStm::new(1));
        let consumer = {
            let tap = tap.clone();
            std::thread::spawn(move || {
                let mut evs = Vec::new();
                tap.consume(|batch, _| evs.extend_from_slice(batch));
                evs
            })
        };
        let joins: Vec<_> = (0..4u32)
            .map(|t| {
                let (tap, tm) = (tap.clone(), tm.clone());
                std::thread::spawn(move || {
                    let mut cx = Ctx::new(ProcId(t), Some(tap));
                    for i in 0..25 {
                        tm.nt_write(&mut cx, 0, u64::from(t * 100 + i));
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        tap.close();
        let evs = consumer.join().unwrap();
        assert_eq!((evs.len(), tap.dropped()), (200, 0));
        let trace = trace_of(&evs).unwrap();
        assert_eq!(trace.ops().len(), 100);
        assert!(trace.canonical_history().is_ok());
    }

    #[test]
    fn a_consumer_that_panics_closes_the_tap() {
        use std::sync::atomic::AtomicBool;
        let tap = Arc::new(StmTap::new(8, Backpressure::Block));
        let took = Arc::new(AtomicBool::new(false));
        tap.publish(ProcId(1), TapOp::Begin);
        // The consumer takes that one event, waits until a producer has
        // filled the ring behind it, and panics.
        let consumer = {
            let (tap, took) = (tap.clone(), took.clone());
            std::thread::spawn(move || {
                tap.consume(|batch, _| {
                    assert_eq!(batch.len(), 1);
                    took.store(true, Ordering::Release);
                    while tap.published() < 9 {
                        std::thread::yield_now();
                    }
                    panic!("the consumer fails after one event");
                })
            })
        };
        while !took.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let (done, finished) = std::sync::mpsc::channel();
        let producer = {
            let tap = tap.clone();
            std::thread::spawn(move || {
                let write = |val| TapOp::Write { var: 0, val };
                let pushed = (0..16).filter(|&i| tap.publish(ProcId(0), write(i)));
                done.send(pushed.count() as u64).unwrap();
            })
        };
        let pushed = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a producer blocked on a dead consumer must return");
        producer.join().unwrap();
        assert!(consumer.join().is_err(), "the consumer panicked");
        assert!(tap.is_closed());
        // Eight filled the ring; the other eight are counted drops.
        assert_eq!((pushed, tap.dropped()), (8, 8));
        assert_eq!(tap.published(), 9);
    }
}
