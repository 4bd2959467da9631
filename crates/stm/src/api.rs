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
//! commit, abort, non-transactional read and write) — and the one
//! `impl<P: Protocol> TmAlgo for P` below is the **only** place an
//! operation is observed: with no [`StmTap`] attached it calls straight
//! through (one branch), otherwise it publishes the operation around
//! the protocol call, as the [`tap`](crate::tap) module's ordering
//! discipline says. Every entry point — [`atomically`], direct trait
//! calls — goes through [`TmAlgo`], so none of them can leave a
//! response unpublished. A read or write that returns [`Aborted`]
//! never responded (the caller's [`TmAlgo::txn_abort`] is the
//! transaction's next operation); a commit that returns [`Aborted`] is
//! answered by `Abort`, so a retry's `Begin` always follows a completed
//! transaction.

use crate::tap::{StmTap, TapOp};
use jungle_core::ids::ProcId;
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
    /// Optional event tap, the one observation channel. Without one
    /// (the default) every operation is the bare protocol call.
    pub tap: Option<Arc<StmTap>>,
    /// Scratch RNG state for backoff (xorshift).
    pub rng: u64,
    /// Committed transactions on this thread (via [`atomically`]).
    pub commits: u64,
    /// Aborted attempts on this thread (via [`atomically`]).
    pub aborts: u64,
}

impl Ctx {
    /// A context for thread `pid`, optionally publishing its operations
    /// to `tap`.
    pub fn new(pid: ProcId, tap: Option<Arc<StmTap>>) -> Self {
        Ctx {
            pid,
            readset: Vec::new(),
            writeset: Vec::new(),
            version: 0,
            rv: 0,
            locks: Vec::new(),
            shared: Vec::new(),
            tap,
            rng: 0x9E37_79B9_7F4A_7C15 ^ (u64::from(pid.0) << 17 | 1),
            commits: 0,
            aborts: 0,
        }
    }

    /// Attach an event tap (builder style). Every subsequent operation
    /// on this context is published.
    pub fn with_tap(mut self, tap: Arc<StmTap>) -> Self {
        self.tap = Some(tap);
        self
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
/// Implementations never touch the tap; the blanket [`TmAlgo`] impl
/// below observes them. Crate-private, so an operation cannot be run
/// from outside without passing the observation point.
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

/// The observation point (see the module docs): each method names what
/// [`observe`] publishes around its protocol call.
impl<P: Protocol> TmAlgo for P {
    fn name(&self) -> &'static str {
        self.class().0
    }

    fn instrumentation(&self) -> Instrumentation {
        self.class().1
    }

    fn txn_start(&self, cx: &mut Ctx) {
        observe(cx, Some(TapOp::Begin), |cx| self.start(cx), |()| None)
    }

    fn txn_read(&self, cx: &mut Ctx, var: usize) -> Result<u64, Aborted> {
        let (v, read) = (var as u64, |cx: &mut Ctx| self.read(cx, var));
        observe(cx, None, read, |r| {
            r.ok().map(|val| TapOp::Read { var: v, val })
        })
    }

    fn txn_write(&self, cx: &mut Ctx, var: usize, val: u64) -> Result<(), Aborted> {
        let (v, write) = (var as u64, |cx: &mut Ctx| self.write(cx, var, val));
        observe(cx, None, write, |r| {
            r.ok().map(|()| TapOp::Write { var: v, val })
        })
    }

    fn txn_commit(&self, cx: &mut Ctx) -> Result<(), Aborted> {
        // The tap draws the commit's ticket as it publishes it.
        let end = |r: Result<(), _>| r.map_or(TapOp::Abort, |()| TapOp::Commit { ticket: 0 });
        observe(cx, None, |cx| self.commit(cx), |r| Some(end(r)))
    }

    fn txn_abort(&self, cx: &mut Ctx) {
        observe(cx, None, |cx| self.abort(cx), |()| Some(TapOp::Abort))
    }

    fn nt_read(&self, cx: &mut Ctx, var: usize) -> u64 {
        let (v, read) = (var as u64, |cx: &mut Ctx| self.nontxn_read(cx, var));
        observe(cx, Some(TapOp::NtInvoke), read, |val| {
            Some(TapOp::NtRead { var: v, val })
        })
    }

    fn nt_write(&self, cx: &mut Ctx, var: usize, val: u64) {
        let (v, write) = (var as u64, |cx: &mut Ctx| self.nontxn_write(cx, var, val));
        observe(cx, Some(TapOp::NtInvoke), write, |()| {
            Some(TapOp::NtWrite { var: v, val })
        })
    }
}

/// One operation at the observation point: with no tap attached, the
/// protocol `call` behind one branch; otherwise [`observed`].
#[inline]
fn observe<R: Copy>(
    cx: &mut Ctx,
    invoke: Option<TapOp>,
    call: impl FnOnce(&mut Ctx) -> R,
    respond: impl FnOnce(R) -> Option<TapOp>,
) -> R {
    if cx.tap.is_some() {
        return observed(cx, invoke, call, respond);
    }
    call(cx)
}

/// The observed path: publish `invoke`, make the protocol call, and
/// publish what `respond` makes of its result. Out of line, so that the
/// unobserved path has the protocol call's one other call site and
/// inlines it: an unobserved operation costs what the bare algorithm
/// costs.
#[inline(never)]
fn observed<R: Copy>(
    cx: &mut Ctx,
    invoke: Option<TapOp>,
    call: impl FnOnce(&mut Ctx) -> R,
    respond: impl FnOnce(R) -> Option<TapOp>,
) -> R {
    let publish = |cx: &Ctx, op: Option<TapOp>| {
        if let (Some(t), Some(op)) = (&cx.tap, op) {
            t.publish(cx.pid, op);
        }
    };
    publish(cx, invoke);
    let out = call(cx);
    publish(cx, respond(out));
    out
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
    fn observation_point_publishes_every_response() {
        use crate::tap::trace_of;
        use jungle_core::ids::Var;
        use jungle_core::op::{Command, Op};
        use jungle_obs::ring::Backpressure;
        let tap = Arc::new(StmTap::new(64, Backpressure::Block));
        let mut cx = Ctx::new(ProcId(0), Some(tap.clone()));
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
        // A transaction that commits, then non-transactional accesses,
        // each published at both ends.
        tm.txn_start(&mut cx);
        tm.txn_write(&mut cx, 0, 1).unwrap();
        tm.txn_commit(&mut cx).unwrap();
        assert_eq!(tm.nt_read(&mut cx, 3), 7);
        tm.nt_write(&mut cx, 3, 9);

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
                TapOp::NtInvoke,
                TapOp::NtRead { var: 3, val: 7 },
                TapOp::NtInvoke,
                TapOp::NtWrite { var: 3, val: 9 },
            ]
        );

        let h = trace_of(&evs).unwrap().canonical_history().unwrap();
        let ops: Vec<Op> = h.ops().iter().map(|o| o.op.clone()).collect();
        let read = |var, val| Op::Cmd(Command::Read { var: Var(var), val });
        let write = |var, val| Op::Cmd(Command::Write { var: Var(var), val });
        assert_eq!(
            ops,
            vec![
                Op::Start,
                read(0, 7),
                Op::Abort,
                Op::Start,
                write(2, 5),
                Op::Abort,
                Op::Start,
                write(0, 1),
                Op::Commit,
                read(3, 7),
                write(3, 9),
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
