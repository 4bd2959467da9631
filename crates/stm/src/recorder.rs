//! Online recording of real STM executions as traces.
//!
//! Checking a *real* concurrent execution against parametrized opacity
//! must not invent orderings that did not happen — so the recorder
//! captures each operation as an **interval**: `Recorder::begin`
//! grabs an invocation timestamp when the operation starts, and
//! `Recorder::finish` emits both the invocation and response events
//! once the operation completes and its observed values are known. The
//! result converts to a [`Trace`](jungle_isa::trace::Trace) of
//! invocation/response markers, and the paper's trace-correspondence
//! machinery decides whether *some* corresponding history satisfies
//! opacity/SGLA — the exact definition of a TM implementation
//! guaranteeing the property, sound against scheduling races by
//! construction.
//!
//! The algorithms never call the recorder. Its one caller is the
//! observation point in [`api`](crate::api), which brackets every
//! [`TmAlgo`](crate::TmAlgo) operation — `start` included — with
//! `begin`/`finish`, so no path through any STM can respond without
//! being recorded.
//!
//! An operation that never produces a response (e.g. a TL2 read whose
//! validation fails, aborting the transaction) simply never reaches
//! `finish`: per the paper's trace grammar the operation instance does
//! not exist, and the abort that follows is the next operation. A
//! *commit* that fails did respond — with `abort` — and is recorded so.
//!
//! Loss accounting audit: the recorder itself **never drops** events —
//! its buffer is unbounded and the only narrowing conversion
//! (`Recorder::begin`'s op-id allocation) is checked, panicking
//! rather than aliasing ids on overflow. Bounded buffering (with its
//! explicit block-vs-drop-with-exact-counter policy, surfaced through
//! `MonitorStats::events_dropped` in the metrics snapshot) lives in
//! the online [`tap`](crate::tap) instead.

use jungle_core::ids::{OpId, ProcId, Val, Var};
use jungle_core::op::{Command, Op};
use jungle_isa::instr::{Instr, InstrInstance};
use jungle_isa::trace::{Trace, TraceError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Handle for an operation in flight: carries its id and the timestamp
/// of its invocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpToken {
    id: u32,
    inv_seq: u64,
}

#[derive(Debug)]
struct Event {
    seq: u64,
    proc: ProcId,
    op: OpId,
    marker: Marker,
}

#[derive(Debug)]
enum Marker {
    Inv(Op),
    Resp(Op),
}

/// Concurrent interval recorder.
///
/// Timestamps come from lock-free atomic fetch-adds; only the event
/// push takes a mutex, which is off the measured path in every
/// experiment that cares (instrumentation-cost runs use no recorder).
#[derive(Debug, Default)]
pub struct Recorder {
    seq: AtomicU64,
    next_op: AtomicU64,
    events: Mutex<Vec<Event>>,
}

/// Build a read operation value.
pub fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

/// Build a write operation value.
pub fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Mark the start of an operation; pass the token to
    /// [`Recorder::finish`] when it completes. Dropping the token
    /// without finishing erases the operation (it never responded).
    ///
    /// # Panics
    ///
    /// If more than `u32::MAX - 1` operations are begun: op ids are
    /// 32-bit, and silently wrapping would alias distinct operations
    /// in the resulting trace.
    pub(crate) fn begin(&self) -> OpToken {
        let raw = self.next_op.fetch_add(1, Ordering::SeqCst);
        let id = u32::try_from(raw)
            .ok()
            .and_then(|n| n.checked_add(1))
            .expect("Recorder: op id space (u32) exhausted");
        let inv_seq = self.seq.fetch_add(1, Ordering::SeqCst);
        OpToken { id, inv_seq }
    }

    /// Complete the operation `token` as `op` (with observed values
    /// filled in), emitting its invocation and response events.
    pub(crate) fn finish(&self, proc: ProcId, token: OpToken, op: Op) {
        let resp_seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let mut events = self.events.lock().unwrap();
        events.push(Event {
            seq: token.inv_seq,
            proc,
            op: OpId(token.id),
            marker: Marker::Inv(op.clone()),
        });
        events.push(Event {
            seq: resp_seq,
            proc,
            op: OpId(token.id),
            marker: Marker::Resp(op),
        });
    }

    /// Drain into a marker-only trace ordered by timestamp. Call after
    /// all worker threads have joined.
    pub fn into_trace(self) -> Result<Trace, TraceError> {
        let mut evs = self.events.into_inner().unwrap();
        evs.sort_by_key(|e| e.seq);
        let instrs = evs
            .into_iter()
            .map(|e| {
                let instr = match e.marker {
                    Marker::Inv(op) => Instr::Inv(op),
                    Marker::Resp(op) => Instr::Resp(op),
                };
                InstrInstance {
                    instr,
                    proc: e.proc,
                    op: e.op,
                }
            })
            .collect();
        Trace::new(instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::X;

    impl Recorder {
        /// A zero-width operation (begin + finish).
        fn instant(&self, proc: ProcId, op: Op) {
            let t = self.begin();
            self.finish(proc, t, op);
        }
    }

    #[test]
    fn interval_recording_roundtrips() {
        let r = Recorder::new();
        let p = ProcId(0);
        r.instant(p, Op::Start);
        let t = r.begin();
        r.finish(p, t, rd_op(X, 42));
        r.instant(p, Op::Commit);
        let trace = r.into_trace().unwrap();
        assert_eq!(trace.ops().len(), 3);
        assert!(trace.ops().iter().all(|o| o.complete));
        let h = trace.canonical_history().unwrap();
        assert!(h
            .ops()
            .iter()
            .any(|o| matches!(o.op, Op::Cmd(Command::Read { val: 42, .. }))));
    }

    #[test]
    fn unfinished_token_erases_operation() {
        let r = Recorder::new();
        let p = ProcId(0);
        r.instant(p, Op::Start);
        let _dropped = r.begin(); // a read that failed validation
        r.instant(p, Op::Abort);
        let trace = r.into_trace().unwrap();
        assert_eq!(trace.ops().len(), 2); // start + abort only
    }

    #[test]
    fn intervals_overlap_across_threads() {
        let r = std::sync::Arc::new(Recorder::new());
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let r = r.clone();
            joins.push(std::thread::spawn(move || {
                let p = ProcId(t);
                for i in 0..25 {
                    let tok = r.begin();
                    r.finish(p, tok, wr_op(X, u64::from(t * 100 + i)));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let r = std::sync::Arc::try_unwrap(r).unwrap();
        let trace = r.into_trace().unwrap();
        assert_eq!(trace.ops().len(), 100);
        assert!(trace.canonical_history().is_ok());
    }

    #[test]
    fn empty_recorder() {
        let r = Recorder::new();
        assert_eq!(r.into_trace().unwrap().ops().len(), 0);
    }
}
