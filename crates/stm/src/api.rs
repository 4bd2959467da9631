//! The common STM interface: thread contexts, the object-safe
//! [`TmAlgo`] trait, and the [`atomically`] retry combinator.
//!
//! Transactional operations may fail with [`Aborted`] (conflict detected
//! by the pessimistic [`StrongStm`](crate::strong::StrongStm) or
//! validation failure in [`Tl2Stm`](crate::tl2::Tl2Stm)); `atomically`
//! rolls the transaction back and retries with randomized backoff. The
//! global-lock family never aborts spontaneously.
//!
//! ### Algorithms and the observation point
//!
//! The paper's TM implementation is a pair `I = (I_T, I_N)` mapping
//! each operation to an instruction sequence (§4), and a history is
//! the invocations and responses *around* those sequences. The code is
//! split the same way. Each STM implements the crate-private
//! `Protocol` trait — seven un-observed operations (start, read, write,
//! commit, abort, non-transactional read and write) that neither record
//! nor publish anything — and the one `impl<P: Protocol> TmAlgo for P`
//! below is the **only** place an operation is observed: with neither a
//! [`Recorder`] nor an [`StmTap`] attached it calls straight through
//! (one branch), otherwise it brackets the protocol call with
//! `Recorder::begin` / `Recorder::finish` and publishes to the tap.
//! Every entry point — [`atomically`], direct trait calls — goes
//! through [`TmAlgo`], so none of them can leave a response unrecorded
//! or unpublished:
//!
//! * `Begin` is published *before* the protocol's start; `Read`,
//!   `Write`, `Commit { ticket }` and `Abort` *after* the protocol call
//!   returned (the ordering discipline of the [`tap`](crate::tap)
//!   module);
//! * a read or write that returns [`Aborted`] never responded: its
//!   token is dropped and nothing is published (the caller's
//!   [`TmAlgo::txn_abort`] is the transaction's next operation);
//! * a commit that returns [`Aborted`] is answered by `abort`, so a
//!   retry's `start` always follows a completed transaction.

use crate::recorder::{rd_op, wr_op, OpToken, Recorder};
use crate::tap::{StmTap, TapOp};
use jungle_core::ids::{ProcId, Var};
use jungle_core::op::Op;
use jungle_isa::tm::Instrumentation;
use jungle_obs::trace::{self, EventKind};
use std::sync::Arc;

/// Marker error: the current transaction has been aborted and rolled
/// back; retry it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Aborted;

/// Per-thread context: identity, read/write sets, and per-algorithm
/// scratch state. One `Ctx` per thread, reused across transactions.
#[derive(Debug)]
pub struct Ctx {
    /// This thread's process id (also its CPU/slot id).
    pub pid: ProcId,
    /// Read set: `(var, word-as-loaded)`.
    pub readset: Vec<(usize, u64)>,
    /// Write set: `(var, value-to-write)`, insertion ordered.
    pub writeset: Vec<(usize, u64)>,
    /// Per-process version counter (versioned STM).
    pub version: u32,
    /// TL2 read version (snapshot of the global clock).
    pub rv: u64,
    /// Metadata slots this transaction holds exclusively (strong STM).
    pub locks: Vec<usize>,
    /// Metadata slots this transaction holds in shared mode (strong
    /// STM).
    pub shared: Vec<usize>,
    /// Optional history recorder.
    pub rec: Option<Arc<Recorder>>,
    /// Optional live event tap feeding the streaming monitor. With
    /// neither this nor `rec` set (the default) every operation is the
    /// bare protocol call.
    pub tap: Option<Arc<StmTap>>,
    /// Scratch RNG state for backoff (xorshift).
    pub rng: u64,
    /// Committed transactions on this thread (via [`atomically`]).
    pub commits: u64,
    /// Aborted attempts on this thread (via [`atomically`]).
    pub aborts: u64,
}

impl Ctx {
    /// A context for thread `pid`, optionally recording its history.
    pub fn new(pid: ProcId, rec: Option<Arc<Recorder>>) -> Self {
        Ctx {
            pid,
            readset: Vec::new(),
            writeset: Vec::new(),
            version: 0,
            rv: 0,
            locks: Vec::new(),
            shared: Vec::new(),
            rec,
            tap: None,
            rng: 0x9E37_79B9_7F4A_7C15 ^ (u64::from(pid.0) << 17 | 1),
            commits: 0,
            aborts: 0,
        }
    }

    /// Attach a live event tap (builder style). Every subsequent
    /// begin/read/write/commit/abort on this context is published.
    pub fn with_tap(mut self, tap: Arc<StmTap>) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Is a recorder or a tap attached? The one branch every
    /// operation pays at the observation point.
    #[inline]
    fn observed(&self) -> bool {
        self.rec.is_some() | self.tap.is_some()
    }

    /// Stamp an invocation with the recorder, if one is attached.
    fn invoke(&self) -> Option<OpToken> {
        self.rec.as_deref().map(Recorder::begin)
    }

    /// Record the response to `tok` as `op`.
    fn respond(&self, tok: Option<OpToken>, op: Op) {
        if let (Some(r), Some(t)) = (&self.rec, tok) {
            r.finish(self.pid, t, op);
        }
    }

    /// Publish `op` to the tap, if one is attached.
    fn publish(&self, op: TapOp) {
        if let Some(t) = &self.tap {
            t.publish(self.pid, op);
        }
    }

    /// Clear per-transaction state (sets and held locks lists).
    #[inline]
    pub(crate) fn reset_txn(&mut self) {
        self.readset.clear();
        self.writeset.clear();
        self.locks.clear();
        self.shared.clear();
    }

    /// Look up the write set.
    #[inline]
    pub(crate) fn ws_get(&self, var: usize) -> Option<u64> {
        self.writeset
            .iter()
            .rev()
            .find(|(v, _)| *v == var)
            .map(|(_, w)| *w)
    }

    /// Look up the read set.
    #[inline]
    pub(crate) fn rs_get(&self, var: usize) -> Option<u64> {
        self.readset
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, w)| *w)
    }

    /// Insert or update a write-set entry.
    #[inline]
    pub(crate) fn ws_put(&mut self, var: usize, val: u64) {
        match self.writeset.iter_mut().find(|(v, _)| *v == var) {
            Some(e) => e.1 = val,
            None => self.writeset.push((var, val)),
        }
    }

    /// Next pseudo-random number (xorshift64*), for backoff jitter.
    pub fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One STM algorithm, un-observed: what each operation *does* — the
/// paper's `I_T` (the five transactional operations) and `I_N` (the two
/// non-transactional ones) — and nothing about who is watching.
/// Implementations never touch the recorder or the tap; the blanket
/// [`TmAlgo`] impl below observes them. Crate-private, so an operation
/// cannot be run from outside without passing the observation point.
///
/// On [`Aborted`] the implementation has already rolled back and
/// released everything.
///
/// Implementations mark the seven operations (and the private helpers
/// on their paths) `#[inline]`: the blanket impl is generic, so it is
/// compiled in whichever crate turns an STM into a `dyn TmAlgo`, and
/// only inlinable code follows it there. Without the attribute every
/// operation pays a second call (≈ 10 % on `stm_mixed`).
pub(crate) trait Protocol: Sync {
    /// Display name and the instrumentation class of the
    /// non-transactional operations.
    fn class(&self) -> (&'static str, Instrumentation);
    fn start(&self, cx: &mut Ctx);
    fn read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted>;
    fn write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted>;
    fn commit(&self, cx: &mut Ctx) -> Result<(), Aborted>;
    fn abort(&self, cx: &mut Ctx);
    fn nontxn_read(&self, cx: &mut Ctx, var: usize) -> u64;
    fn nontxn_write(&self, cx: &mut Ctx, var: usize, val: u64);
}

/// An executable STM algorithm (object-safe). Implemented by the six
/// STMs of this crate and by nothing else: the methods are the
/// observation point described in the module docs.
///
/// Transactional calls must occur between a successful
/// [`TmAlgo::txn_start`] and a [`TmAlgo::txn_commit`] /
/// [`TmAlgo::txn_abort`]; non-transactional calls must occur outside.
/// On [`Aborted`], the algorithm has already rolled back and released
/// everything — the caller just retries (after closing a failed read
/// or write with [`TmAlgo::txn_abort`]; a failed commit is already
/// closed).
pub trait TmAlgo: Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// The instrumentation class of the non-transactional operations.
    fn instrumentation(&self) -> Instrumentation;

    /// Begin a transaction.
    fn txn_start(&self, cx: &mut Ctx);

    /// Transactional read.
    fn txn_read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted>;

    /// Transactional write (buffered until commit).
    fn txn_write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted>;

    /// Attempt to commit. On `Err(Aborted)` the transaction has been
    /// rolled back.
    fn txn_commit(&self, cx: &mut Ctx) -> Result<(), Aborted>;

    /// Abort and roll back the running transaction.
    fn txn_abort(&self, cx: &mut Ctx);

    /// Non-transactional read.
    fn nt_read(&self, cx: &mut Ctx, var: usize) -> u64;

    /// Non-transactional write.
    fn nt_write(&self, cx: &mut Ctx, var: usize, val: u64);
}

/// The observation point (see the module docs). Each method is the
/// protocol call behind one branch; what an attached recorder or tap
/// sees is in the `observed_*` functions below, one per operation.
impl<P: Protocol> TmAlgo for P {
    fn name(&self) -> &'static str {
        self.class().0
    }

    fn instrumentation(&self) -> Instrumentation {
        self.class().1
    }

    fn txn_start(&self, cx: &mut Ctx) {
        if cx.observed() {
            return observed_start(self, cx);
        }
        self.start(cx)
    }

    fn txn_read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
        if cx.observed() {
            return observed_read(self, cx, var);
        }
        self.read(cx, var)
    }

    fn txn_write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
        if cx.observed() {
            return observed_write(self, cx, var, val);
        }
        self.write(cx, var, val)
    }

    fn txn_commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
        if cx.observed() {
            return observed_commit(self, cx);
        }
        self.commit(cx)
    }

    fn txn_abort(&self, cx: &mut Ctx) {
        if cx.observed() {
            return observed_abort(self, cx);
        }
        self.abort(cx)
    }

    fn nt_read(&self, cx: &mut Ctx, var: usize) -> u64 {
        observe_nt_read(cx, var, |cx| self.nontxn_read(cx, var))
    }

    fn nt_write(&self, cx: &mut Ctx, var: usize, val: u64) {
        if cx.observed() {
            return observed_nt_write(self, cx, var, val);
        }
        self.nontxn_write(cx, var, val)
    }
}

// The observed paths. Kept out of line so that in each method above the
// protocol call has one call site and is inlined into it: an unobserved
// operation costs what the bare algorithm costs.

#[inline(never)]
fn observed_start<P: Protocol>(tm: &P, cx: &mut Ctx) {
    cx.publish(TapOp::Begin);
    let tok = cx.invoke();
    tm.start(cx);
    cx.respond(tok, Op::Start);
}

#[inline(never)]
fn observed_read<P: Protocol>(tm: &P, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
    let tok = cx.invoke();
    let val = tm.read(cx, var)?;
    cx.respond(tok, rd_op(Var(var as u32), val));
    cx.publish(TapOp::Read {
        var: var as u64,
        val,
    });
    Ok(val)
}

#[inline(never)]
fn observed_write<P: Protocol>(tm: &P, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
    let tok = cx.invoke();
    tm.write(cx, var, val)?;
    cx.respond(tok, wr_op(Var(var as u32), val));
    cx.publish(TapOp::Write {
        var: var as u64,
        val,
    });
    Ok(())
}

#[inline(never)]
fn observed_commit<P: Protocol>(tm: &P, cx: &mut Ctx) -> Result<(), Aborted> {
    let tok = cx.invoke();
    let out = tm.commit(cx);
    match out {
        Ok(()) => {
            cx.respond(tok, Op::Commit);
            if let Some(t) = &cx.tap {
                t.publish_commit(cx.pid);
            }
        }
        Err(Aborted) => {
            cx.respond(tok, Op::Abort);
            cx.publish(TapOp::Abort);
        }
    }
    out
}

#[inline(never)]
fn observed_abort<P: Protocol>(tm: &P, cx: &mut Ctx) {
    let tok = cx.invoke();
    tm.abort(cx);
    cx.respond(tok, Op::Abort);
    cx.publish(TapOp::Abort);
}

/// A non-transactional read through the observation point.
#[inline]
fn observe_nt_read(cx: &mut Ctx, var: usize, read: impl FnOnce(&mut Ctx) -> u64) -> u64 {
    if cx.observed() {
        return observed_nt_read(cx, var, read);
    }
    read(cx)
}

#[inline(never)]
fn observed_nt_read(cx: &mut Ctx, var: usize, read: impl FnOnce(&mut Ctx) -> u64) -> u64 {
    let tok = cx.invoke();
    let val = read(cx);
    cx.respond(tok, rd_op(Var(var as u32), val));
    val
}

#[inline(never)]
fn observed_nt_write<P: Protocol>(tm: &P, cx: &mut Ctx, var: usize, val: u64) {
    let tok = cx.invoke();
    tm.nontxn_write(cx, var, val);
    cx.respond(tok, wr_op(Var(var as u32), val));
}

/// Transaction handle passed to the [`atomically`] closure.
pub struct Tx<'a> {
    pub(crate) tm: &'a dyn TmAlgo,
    pub(crate) cx: &'a mut Ctx,
}

impl<'a> Tx<'a> {
    /// Read variable `var`.
    pub fn read(&mut self, var: usize) -> Result<u64, Aborted> {
        self.tm.txn_read(self.cx, var)
    }

    /// Write `val` to variable `var`.
    pub fn write(&mut self, var: usize, val: u64) -> Result<(), Aborted> {
        self.tm.txn_write(self.cx, var, val)
    }
}

/// Run `body` as a transaction, retrying on abort with randomized
/// exponential backoff. Returns the closure's result after a successful
/// commit.
pub fn atomically<R>(
    tm: &dyn TmAlgo,
    cx: &mut Ctx,
    mut body: impl FnMut(&mut Tx<'_>) -> Result<R, Aborted>,
) -> R {
    let mut attempt = 0u32;
    let pid = u64::from(cx.pid.0);
    loop {
        trace::emit(EventKind::TxnBegin, pid, u64::from(attempt));
        tm.txn_start(cx);
        let out = {
            let mut tx = Tx { tm, cx };
            body(&mut tx)
        };
        match out {
            Ok(r) => {
                if tm.txn_commit(cx).is_ok() {
                    cx.commits += 1;
                    trace::emit(EventKind::TxnCommit, pid, u64::from(attempt));
                    return r;
                }
            }
            Err(Aborted) => {
                // The algorithm rolled back when it raised the abort;
                // make sure boundary bookkeeping is closed too.
                tm.txn_abort(cx);
            }
        }
        cx.aborts += 1;
        trace::emit(EventKind::TxnAbort, pid, u64::from(attempt));
        attempt = attempt.saturating_add(1);
        backoff(cx, attempt);
    }
}

fn backoff(cx: &mut Ctx, attempt: u32) {
    let spins = 1u64 << attempt.min(10);
    let jitter = cx.next_rand() % spins.max(1);
    for _ in 0..(spins + jitter) {
        std::hint::spin_loop();
    }
    if attempt > 10 {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_sets() {
        let mut cx = Ctx::new(ProcId(0), None);
        assert_eq!(cx.ws_get(3), None);
        cx.ws_put(3, 7);
        cx.ws_put(3, 9);
        assert_eq!(cx.ws_get(3), Some(9));
        assert_eq!(cx.writeset.len(), 1);
        cx.readset.push((1, 5));
        assert_eq!(cx.rs_get(1), Some(5));
        cx.reset_txn();
        assert!(cx.readset.is_empty() && cx.writeset.is_empty());
    }

    /// A protocol that aborts on demand: reading variable 1 fails, and
    /// so does committing a write to variable 2.
    struct Scripted;

    impl Protocol for Scripted {
        fn class(&self) -> (&'static str, Instrumentation) {
            ("scripted", Instrumentation::Uninstrumented)
        }
        fn start(&self, cx: &mut Ctx) {
            cx.reset_txn();
        }
        fn read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
            if var == 1 {
                cx.reset_txn();
                return Err(Aborted);
            }
            Ok(7)
        }
        fn write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
            cx.ws_put(var, val);
            Ok(())
        }
        fn commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
            let lost = cx.ws_get(2).is_some();
            cx.reset_txn();
            if lost {
                Err(Aborted)
            } else {
                Ok(())
            }
        }
        fn abort(&self, cx: &mut Ctx) {
            cx.reset_txn();
        }
        fn nontxn_read(&self, _cx: &mut Ctx, _var: usize) -> u64 {
            7
        }
        fn nontxn_write(&self, _cx: &mut Ctx, _var: usize, _val: u64) {}
    }

    #[test]
    fn observation_point_records_and_publishes_every_response() {
        use jungle_obs::ring::Backpressure;
        let rec = Arc::new(Recorder::new());
        let tap = Arc::new(StmTap::new(64, Backpressure::Block));
        let mut cx = Ctx::new(ProcId(0), Some(rec.clone())).with_tap(tap.clone());
        let tm: &dyn TmAlgo = &Scripted;
        // A read that aborts never responded; the caller's abort closes
        // the transaction.
        tm.txn_start(&mut cx);
        assert_eq!(tm.txn_read(&mut cx, 0), Ok(7));
        assert_eq!(tm.txn_read(&mut cx, 1), Err(Aborted));
        tm.txn_abort(&mut cx);
        // A commit that fails is answered by abort.
        tm.txn_start(&mut cx);
        tm.txn_write(&mut cx, 2, 5).unwrap();
        assert_eq!(tm.txn_commit(&mut cx), Err(Aborted));
        // A transaction that commits, then non-transactional accesses
        // (recorded, never tapped).
        tm.txn_start(&mut cx);
        tm.txn_write(&mut cx, 0, 1).unwrap();
        tm.txn_commit(&mut cx).unwrap();
        assert_eq!(tm.nt_read(&mut cx, 3), 7);
        tm.nt_write(&mut cx, 3, 9);
        drop(cx);

        let mut evs = Vec::new();
        tap.drain_into(&mut evs, usize::MAX);
        let tapped: Vec<TapOp> = evs.iter().map(|e| e.op).collect();
        assert_eq!(
            tapped,
            vec![
                TapOp::Begin,
                TapOp::Read { var: 0, val: 7 },
                TapOp::Abort,
                TapOp::Begin,
                TapOp::Write { var: 2, val: 5 },
                TapOp::Abort,
                TapOp::Begin,
                TapOp::Write { var: 0, val: 1 },
                TapOp::Commit { ticket: 0 },
            ]
        );

        let trace = Arc::try_unwrap(rec).unwrap().into_trace().unwrap();
        let h = trace.canonical_history().unwrap();
        let recorded: Vec<Op> = h.ops().iter().map(|o| o.op.clone()).collect();
        assert_eq!(
            recorded,
            vec![
                Op::Start,
                rd_op(Var(0), 7),
                Op::Abort,
                Op::Start,
                wr_op(Var(2), 5),
                Op::Abort,
                Op::Start,
                wr_op(Var(0), 1),
                Op::Commit,
                rd_op(Var(3), 7),
                wr_op(Var(3), 9),
            ]
        );
    }

    #[test]
    fn rng_varies_by_pid_and_advances() {
        let mut a = Ctx::new(ProcId(0), None);
        let mut b = Ctx::new(ProcId(1), None);
        assert_ne!(a.next_rand(), b.next_rand());
        let x = a.next_rand();
        let y = a.next_rand();
        assert_ne!(x, y);
    }
}
