//! The Figure 6 global-lock TM and its four variants (Theorems 3–5 and
//! two deliberately wrong TMs): one protocol, configured by an
//! [`AlgoSpec`]. The three variants of the paper are the
//! [`jungle_isa::tm::Fig6`] declarations that the real STMs of
//! `jungle-stm` are built from too; an `AlgoSpec` adds only how a commit
//! publishes.
//!
//! Transactions serialize on the global lock `g`. A read latches the
//! word at first access; a write latches it too (Figure 6's
//! transactional read before a write). Commit publishes each buffered
//! write with a CAS keyed on the latched word, ignoring failures (a
//! non-transactional write intervened and is ordered after the
//! transaction), then releases `g`.
//!
//! Fidelity notes versus the paper's Figure 6 pseudocode: the published
//! pseudocode (a) acquires the lock with `cas g, lg, p` where `lg` is a
//! stale read — taken literally this would steal a held lock, so we spin
//! on `cas g, 0, p` with a read back-off, and (b) returns the *readset*
//! value for a read of a variable the transaction has already written —
//! the driver returns the pending write (read-own-writes), which is what
//! opacity requires. Both are noted in DESIGN.md.

use super::driver::LATCHED_BEFORE_COMMIT;
use super::{Ctx, Next, Pc, Protocol, COMMITTED};
use crate::layout::{addr_of, GLOBAL_LOCK};
use jungle_core::ids::{Val, Var};
use jungle_isa::tm::{
    lock_owner, Fig6, Fig6Variant, GlobalLock, Instrumentation, NtWrite, Versioned, WriteTxn,
    LOCK_FREE,
};
use jungle_memsim::process::PInstr::{Cas, Load, Store};

/// How a commit publishes each write-set entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CommitUpdate {
    /// `⟨cas aₓ, old, new⟩` keyed on the word read earlier (Figure 6).
    Cas,
    /// Plain `⟨store aₓ, new⟩` — deliberately wrong (Theorem 2 shows
    /// CAS is necessary for read-write variables).
    Store,
    /// Publish nothing — deliberately wrong (Lemma 1 shows an update
    /// instruction is necessary).
    Skip,
}

/// Static description of a Figure 6 model: a variant, and how its
/// commit publishes (only the two deliberately wrong TMs differ from
/// Figure 6's CAS).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AlgoSpec {
    /// Name and non-transactional write.
    pub variant: Fig6Variant,
    /// Commit publication strategy.
    pub commit: CommitUpdate,
}

impl AlgoSpec {
    /// One of the three variants that `jungle_isa::tm` declares for
    /// both executors, committing as Figure 6 does.
    const fn declared<V: Fig6>() -> Self {
        AlgoSpec {
            variant: V::VARIANT,
            commit: CommitUpdate::Cas,
        }
    }

    /// A deliberately wrong TM: Figure 6 with plain non-transactional
    /// writes and a broken commit.
    const fn broken(name: &'static str, commit: CommitUpdate) -> Self {
        AlgoSpec {
            variant: Fig6Variant {
                name,
                nt_write: NtWrite::Plain,
            },
            commit,
        }
    }
}

/// A Figure 6 model.
pub(crate) trait Fig6Tm: Copy + Sync + 'static {
    /// Its description.
    const SPEC: AlgoSpec;
}

/// The uninstrumented global-lock TM of Figure 6: parametrized opacity
/// for fully relaxed models (Theorem 3) and SGLA for every model
/// (Theorem 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalLockTm;

impl Fig6Tm for GlobalLockTm {
    const SPEC: AlgoSpec = AlgoSpec::declared::<GlobalLock>();
}

/// Theorem 4's TM: non-transactional writes are one-write transactions
/// (lock acquire / store / release); reads stay plain loads.
/// Parametrized opacity for `M ∉ Mrr`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteTxnTm;

impl Fig6Tm for WriteTxnTm {
    const SPEC: AlgoSpec = AlgoSpec::declared::<WriteTxn>();
}

/// Theorem 5's TM: constant-time write instrumentation. Every data word
/// carries `(value, pid, version)`; a non-transactional write is a single
/// store of a fresh packed word, and commit-time CAS detects intervening
/// writes by word inequality. Parametrized opacity for `M ∉ Mrr ∪ Mwr`
/// (e.g. Alpha).
#[derive(Clone, Copy, Debug, Default)]
pub struct VersionedTm;

impl Fig6Tm for VersionedTm {
    const SPEC: AlgoSpec = AlgoSpec::declared::<Versioned>();
}

/// Deliberately incorrect: commits publish with plain stores. Theorem 2
/// proves a CAS is necessary for variables both read and written; the
/// model checker finds the violating trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveStoreTm;

impl Fig6Tm for NaiveStoreTm {
    const SPEC: AlgoSpec = AlgoSpec::broken("naive-store", CommitUpdate::Store);
}

/// Deliberately incorrect: commits never publish writes at all. Lemma 1
/// proves an update instruction is necessary.
#[derive(Clone, Copy, Debug, Default)]
pub struct SkipWriteTm;

impl Fig6Tm for SkipWriteTm {
    const SPEC: AlgoSpec = AlgoSpec::broken("skip-write", CommitUpdate::Skip);
}

/// Acquire `g`: `cas g, free, p`, reading `g` until it is free between
/// attempts. Uses `pc.at` 0 and 1.
fn lock(cx: &Ctx, pc: &mut Pc) -> Next {
    let me = lock_owner(cx.pid);
    if pc.at == 0 {
        pc.at = 1;
        return pc.cas(GLOBAL_LOCK, LOCK_FREE, me);
    }
    pc.acquire(GLOBAL_LOCK, |w| w == LOCK_FREE, |_| me)
}

impl<T: Fig6Tm> Protocol for T {
    fn class(&self) -> (&'static str, Instrumentation) {
        (T::SPEC.variant.name, T::SPEC.variant.class())
    }

    fn start(&self, cx: &mut Ctx, pc: &mut Pc) -> Next {
        lock(cx, pc)
    }

    fn read(&self, cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match (pc.at, cx.latched(var)) {
            (0, Some(w)) => Next::Ret(T::SPEC.variant.decode(w)),
            (0, None) => pc.go(1, Load(addr_of(var))),
            _ => {
                cx.latch(var, pc.last);
                Next::Ret(T::SPEC.variant.decode(pc.last))
            }
        }
    }

    /// Figure 6: a write is first a transactional read, which latches
    /// the word the commit-time CAS expects.
    fn write(&self, cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        self.read(cx, pc, var)
    }

    fn commit(&self, cx: &mut Ctx, pc: &mut Pc) -> Next {
        if pc.at == 0 && T::SPEC.commit != CommitUpdate::Skip {
            if let Some(&(var, val)) = cx.writeset.get(pc.i) {
                pc.i += 1;
                let new = T::SPEC.variant.encode(val, cx.pid, &mut cx.version);
                return Next::Issue(match T::SPEC.commit {
                    CommitUpdate::Cas => {
                        let old = cx.latched(var).expect(LATCHED_BEFORE_COMMIT);
                        Cas(addr_of(var), old, new)
                    }
                    _ => Store(addr_of(var), new),
                });
            }
        }
        self.abort(cx, pc)
    }

    /// Release `g` (commit's last step too).
    fn abort(&self, _cx: &mut Ctx, pc: &mut Pc) -> Next {
        match pc.at {
            0 => pc.go(1, Store(GLOBAL_LOCK, LOCK_FREE)),
            _ => Next::Ret(COMMITTED),
        }
    }

    fn nt_read(&self, _cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match pc.at {
            0 => pc.go(1, Load(addr_of(var))),
            _ => Next::Ret(T::SPEC.variant.decode(pc.last)),
        }
    }

    fn nt_write(&self, cx: &mut Ctx, pc: &mut Pc, var: Var, val: Val) -> Next {
        match (T::SPEC.variant.nt_write, pc.at) {
            (NtWrite::Locked, 0 | 1) => lock(cx, pc).then(|_| pc.go(2, Store(addr_of(var), val))),
            (NtWrite::Locked, 2) => pc.go(3, Store(GLOBAL_LOCK, LOCK_FREE)),
            (_, 0) => {
                let word = T::SPEC.variant.encode(val, cx.pid, &mut cx.version);
                pc.go(1, Store(addr_of(var), word))
            }
            _ => Next::Ret(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::TmAlgo;
    use crate::program::{Stmt, ThreadProg, TxOp};
    use jungle_core::ids::{ProcId, X, Y};
    use jungle_core::op::Op;
    use jungle_isa::instr::Instr;
    use jungle_isa::tm::packed;
    use jungle_memsim::{HwModel, Machine, ReplayScheduler};

    fn run_single(algo: &dyn TmAlgo, prog: ThreadProg) -> jungle_isa::Trace {
        let m = Machine::new(HwModel::SC, vec![algo.make_process(ProcId(0), prog)]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 10_000);
        assert!(r.completed, "single-threaded run must complete");
        r.trace
    }

    #[test]
    fn global_lock_txn_roundtrip() {
        let prog = ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 7), TxOp::Read(X)]),
            Stmt::NtRead(X),
        ]);
        let trace = run_single(&GlobalLockTm, prog);
        // The transactional read must return the pending write (7), and
        // the final non-transactional read must see the committed 7.
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![7, 7]);
        // The commit published with a CAS.
        assert!(trace.instrs().iter().any(|i| matches!(
            i.instr,
            Instr::Cas {
                addr: 0,
                ok: true,
                ..
            }
        )));
    }

    #[test]
    fn aborted_txn_discards_writes() {
        let prog = ThreadProg(vec![
            Stmt::aborting_txn(vec![TxOp::Write(X, 9)]),
            Stmt::NtRead(X),
        ]);
        let trace = run_single(&GlobalLockTm, prog);
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![0], "aborted write must not be visible");
    }

    #[test]
    fn versioned_nt_write_is_single_store() {
        let prog = ThreadProg(vec![Stmt::NtWrite(X, 5), Stmt::NtRead(X)]);
        let trace = run_single(&VersionedTm, prog);
        // Exactly one store, and the read decodes the packed value.
        let stores: Vec<&Instr> = trace
            .instrs()
            .iter()
            .filter_map(|i| match &i.instr {
                s @ Instr::Store { .. } => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(stores.len(), 1);
        if let Instr::Store { val, .. } = stores[0] {
            assert_eq!(packed::value(*val), 5);
            assert_eq!(packed::pid(*val), ProcId(0));
        }
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![5]);
    }

    #[test]
    fn versioned_txn_publishes_packed_words() {
        let prog = ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 3)]), Stmt::NtRead(X)]);
        let trace = run_single(&VersionedTm, prog);
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![3]);
    }

    #[test]
    fn write_txn_nt_write_takes_lock() {
        let prog = ThreadProg(vec![Stmt::NtWrite(Y, 4)]);
        let trace = run_single(&WriteTxnTm, prog);
        assert!(trace.instrs().iter().any(|i| matches!(
            i.instr,
            Instr::Cas {
                addr: GLOBAL_LOCK,
                ok: true,
                ..
            }
        )));
        // Lock released afterwards.
        assert!(trace.instrs().iter().any(|i| matches!(
            i.instr,
            Instr::Store {
                addr: GLOBAL_LOCK,
                val: LOCK_FREE
            }
        )));
    }

    #[test]
    fn two_sequential_txns_same_thread() {
        let prog = ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 1)]),
            Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 2)]),
            Stmt::NtRead(Y),
        ]);
        let trace = run_single(&GlobalLockTm, prog);
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![1, 2]);
    }

    #[test]
    fn contended_lock_eventually_acquired() {
        // Two transactions on two CPUs; a fair-ish random scheduler must
        // complete both.
        use jungle_memsim::RandomScheduler;
        let prog1 = ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)])]);
        let prog2 = ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 2)])]);
        let m = Machine::new(
            HwModel::SC,
            vec![
                GlobalLockTm.make_process(ProcId(0), prog1),
                GlobalLockTm.make_process(ProcId(1), prog2),
            ],
        );
        let mut s = RandomScheduler::new(3);
        let r = m.run(&mut s, 100_000);
        assert!(r.completed);
        assert_eq!(
            r.trace
                .ops()
                .iter()
                .filter(|o| matches!(o.op, Op::Commit))
                .count(),
            2
        );
    }
}
