//! The TM algorithms of §5 and §6.1, as protocols one driver runs on
//! simulated hardware.
//!
//! The paper defines a TM as `I = (I_T, I_N)`: each of seven operations
//! (start, read, write, commit, abort, non-transactional read and write)
//! maps to an instruction sequence. The code is split the same way as on
//! the real side (`jungle_stm::api`):
//!
//! * Each TM implements the crate-private `Protocol`: the seven
//!   operations, each a resumable step function that issues
//!   [`PInstr`]s, keeps the TM's own words in the thread's `Ctx` (read
//!   set, held locks, version counter) and returns a value. The word
//!   formats, and the three Figure 6 variants, come from
//!   [`jungle_isa::tm`], which the real STMs read too.
//! * One driver (`driver.rs`), the only [`Process`] here, runs a thread
//!   program on any protocol. It alone walks the statements, emits every
//!   `Inv`/`Resp` marker, evaluates guards, answers read-own-writes,
//!   buffers writes, restarts a statement whose commit answered abort,
//!   and resumes each step with its previous instruction's result.
//! * [`TmAlgo`] is the blanket impl over `Protocol`: a TM is its protocol.
//!
//! | TM | paper | non-txn read | non-txn write |
//! |---|---|---|---|
//! | [`GlobalLockTm`] | Fig. 6, Thms 3 and 7 | load | store |
//! | [`WriteTxnTm`] | Thm 4 | load | lock, store, unlock |
//! | [`VersionedTm`] | Thm 5 | load | one packed store |
//! | [`NaiveStoreTm`] | commits with stores: violates Thm 2's necessity | load | store |
//! | [`SkipWriteTm`] | commits publish nothing: violates Lemma 1 | load | store |
//! | [`StrongTm`] | §6.1 | record check, load (load when optimized) | anonymous ownership, store |
//! | [`LazyTl2Tm`] | §1's weakly atomic exhibit | load | store |

mod driver;
mod global_lock;
mod strong;
mod tl2;

use crate::layout::addr_of;
use crate::program::ThreadProg;
use driver::Driver;
use jungle_core::ids::{ProcId, Val, Var};
use jungle_isa::instr::Addr;
use jungle_isa::tm::Instrumentation;
use jungle_memsim::process::{PInstr, Process};

pub use global_lock::{GlobalLockTm, NaiveStoreTm, SkipWriteTm, VersionedTm, WriteTxnTm};
pub use strong::StrongTm;
pub use tl2::LazyTl2Tm;

/// A TM algorithm: compiles thread programs into reactive processes.
pub trait TmAlgo: Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// The instrumentation class of the algorithm's non-transactional
    /// operations (§4).
    fn instrumentation(&self) -> Instrumentation;

    /// Compile one thread of a program into a process for CPU `pid`.
    fn make_process(&self, pid: ProcId, prog: ThreadProg) -> Box<dyn Process>;
}

impl<P: Protocol> TmAlgo for P {
    fn name(&self) -> &'static str {
        self.class().0
    }

    fn instrumentation(&self) -> Instrumentation {
        self.class().1
    }

    fn make_process(&self, pid: ProcId, prog: ThreadProg) -> Box<dyn Process> {
        Box::new(Driver::new(*self, pid, prog))
    }
}

/// One TM, undriven: the paper's `I_T` (start, read, write, commit,
/// abort) and `I_N` (non-transactional read and write) as resumable step
/// functions, mirroring `jungle_stm::api::Protocol`.
///
/// The driver calls an operation's step with a zeroed [`Pc`], and again
/// after each [`Next::Issue`] with the instruction's result in
/// [`Pc::last`], until it returns [`Next::Ret`]. A step issues
/// instructions, updates `cx` and `pc`, and returns; markers, guards,
/// read-own-writes and the write set are the driver's. Only a read's
/// and a commit's return values mean anything.
///
/// The defaults are the bookkeeping-only start, write and abort, and the
/// uninstrumented `I_N`: `I_N(rd x) = ⟨load aₓ⟩`, `I_N(wr x v) = ⟨store
/// aₓ, v⟩`.
pub(crate) trait Protocol: Copy + Sync + 'static {
    /// Display name and the instrumentation class of `I_N` (§4).
    fn class(&self) -> (&'static str, Instrumentation);

    /// Begin a transaction.
    fn start(&self, _cx: &mut Ctx, _pc: &mut Pc) -> Next {
        Next::Ret(0)
    }

    /// Read `var`, which the transaction has not written.
    fn read(&self, cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next;

    /// Write `var`; the driver buffers the value once this returns.
    fn write(&self, _cx: &mut Ctx, _pc: &mut Pc, _var: Var) -> Next {
        Next::Ret(0)
    }

    /// Commit: [`COMMITTED`], or [`ABORTED`] to have the driver answer
    /// abort and run the statement again.
    fn commit(&self, cx: &mut Ctx, pc: &mut Pc) -> Next;

    /// Abort (the program asked to).
    fn abort(&self, _cx: &mut Ctx, _pc: &mut Pc) -> Next {
        Next::Ret(0)
    }

    /// Non-transactional read.
    fn nt_read(&self, _cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match pc.at {
            0 => pc.go(1, PInstr::Load(addr_of(var))),
            _ => Next::Ret(pc.last),
        }
    }

    /// Non-transactional write.
    fn nt_write(&self, _cx: &mut Ctx, pc: &mut Pc, var: Var, val: Val) -> Next {
        match pc.at {
            0 => pc.go(1, PInstr::Store(addr_of(var), val)),
            _ => Next::Ret(0),
        }
    }
}

/// What a protocol step asks of the driver.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Next {
    /// Issue this instruction, and step again with its result.
    Issue(PInstr),
    /// The operation is over, returning this value.
    Ret(Val),
}

impl Next {
    /// `f` of the returned value, or this instruction.
    fn then(self, f: impl FnOnce(Val) -> Next) -> Next {
        match self {
            Next::Ret(v) => f(v),
            issue => issue,
        }
    }
}

/// What commit returns when the transaction committed.
pub(crate) const COMMITTED: Val = 1;

/// What commit returns when the transaction aborted.
pub(crate) const ABORTED: Val = 0;

/// A running operation's state: where it stands, what its previous
/// instruction returned, and a few registers. Zeroed at invocation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Pc {
    /// Program counter (0 at entry).
    pub at: u8,
    /// The previous instruction's result: a load's word, a CAS's 1 or 0,
    /// a store's 0.
    pub last: Val,
    /// Loop index over the write set, read set or held locks.
    pub i: usize,
    /// What the pending [`Pc::acquire`] CAS expects, or a sampled word.
    pub w: Val,
    /// A loaded value awaiting revalidation.
    pub val: Val,
    /// Is the pending instruction [`Pc::acquire`]'s CAS?
    cas: bool,
}

impl Pc {
    /// Issue `instr` and continue at `at`.
    fn go(&mut self, at: u8, instr: PInstr) -> Next {
        self.at = at;
        Next::Issue(instr)
    }

    /// Continue at `at` with the loop index reset.
    fn jump(&mut self, at: u8) {
        self.at = at;
        self.i = 0;
    }

    /// Issue `f` of the next item of `items`, or `None` once all are.
    fn each<T: Copy>(&mut self, items: &[T], f: impl FnOnce(T) -> PInstr) -> Option<Next> {
        let item = *items.get(self.i)?;
        self.i += 1;
        Some(Next::Issue(f(item)))
    }

    /// Issue `cas a, w, new` as an [`Pc::acquire`] attempt.
    fn cas(&mut self, a: Addr, w: Val, new: Val) -> Next {
        self.cas = true;
        self.w = w;
        Next::Issue(PInstr::Cas(a, w, new))
    }

    /// One step of the spin every lock here takes: load `a` until its
    /// word `w` is `free(w)`, then `cas a, w, take(w)`; a failed CAS
    /// loads again. Entered after a `load a` or a [`Pc::cas`]; returns
    /// the word the successful CAS replaced.
    fn acquire(&mut self, a: Addr, free: impl Fn(Val) -> bool, take: impl Fn(Val) -> Val) -> Next {
        if std::mem::take(&mut self.cas) {
            if self.last == 1 {
                return Next::Ret(self.w);
            }
        } else if free(self.last) {
            return self.cas(a, self.last, take(self.last));
        }
        Next::Issue(PInstr::Load(a))
    }
}

/// One thread's TM state, the model-side mirror of `jungle_stm::Ctx`:
/// the driver's write set beside the protocol's words. All but
/// `version` are cleared when a transaction starts.
#[derive(Debug)]
pub(crate) struct Ctx {
    /// The thread's process (and CPU).
    pub pid: ProcId,
    /// Each variable read, with what the protocol latched at its first
    /// read: a word, a value or a version.
    pub readset: Vec<(Var, Val)>,
    /// Buffered program values, in first-write order (the driver's).
    pub writeset: Vec<(Var, Val)>,
    /// Records or version locks held, with the word each held before.
    pub locks: Vec<(Var, Val)>,
    /// Records held in shared mode (strong TM).
    pub shared: Vec<Var>,
    /// Process-local version counter (versioned TM).
    pub version: u32,
}

impl Clone for Ctx {
    fn clone(&self) -> Self {
        Ctx {
            pid: self.pid,
            readset: self.readset.clone(),
            writeset: self.writeset.clone(),
            locks: self.locks.clone(),
            shared: self.shared.clone(),
            version: self.version,
        }
    }

    /// Copies into the vectors `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        self.pid = src.pid;
        self.readset.clone_from(&src.readset);
        self.writeset.clone_from(&src.writeset);
        self.locks.clone_from(&src.locks);
        self.shared.clone_from(&src.shared);
        self.version = src.version;
    }
}

impl Ctx {
    fn new(pid: ProcId) -> Self {
        Ctx {
            pid,
            readset: Vec::new(),
            writeset: Vec::new(),
            locks: Vec::new(),
            shared: Vec::new(),
            version: 0,
        }
    }

    /// What the read set latched for `v`.
    fn latched(&self, v: Var) -> Option<Val> {
        find(&self.readset, v)
    }

    /// Latch `w` for `v` unless `v` is already in the read set.
    fn latch(&mut self, v: Var, w: Val) {
        if self.latched(v).is_none() {
            self.readset.push((v, w));
        }
    }

    /// The value buffered for `v`.
    fn buffered(&self, v: Var) -> Option<Val> {
        find(&self.writeset, v)
    }

    /// Does this thread hold `v`'s record or version lock?
    fn locked(&self, v: Var) -> bool {
        self.locks.iter().any(|&(x, _)| x == v)
    }
}

fn find(set: &[(Var, Val)], v: Var) -> Option<Val> {
    set.iter().find(|e| e.0 == v).map(|e| e.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumentation_classes() {
        assert_eq!(
            GlobalLockTm.instrumentation(),
            Instrumentation::Uninstrumented
        );
        assert_eq!(
            WriteTxnTm.instrumentation(),
            Instrumentation::UnboundedWrites
        );
        assert_eq!(
            VersionedTm.instrumentation(),
            Instrumentation::ConstantTimeWrites { bound: 1 }
        );
        assert!(GlobalLockTm.instrumentation().writes_uninstrumented());
        assert!(VersionedTm.instrumentation().reads_uninstrumented());
        assert!(!WriteTxnTm.instrumentation().writes_constant_time());
    }

    #[test]
    fn names() {
        assert_eq!(GlobalLockTm.name(), "global-lock");
        assert_eq!(SkipWriteTm.name(), "skip-write");
        assert_eq!(StrongTm::optimized().name(), "strong-optimized");
        assert_eq!(LazyTl2Tm.name(), "lazy-tl2");
    }
}
