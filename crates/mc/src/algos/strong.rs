//! The §6.1 strong-atomicity TM (Shpeisman et al.) as a model protocol.
//!
//! Per-variable transactional [`record`](jungle_isa::tm::record)s live at
//! [`meta_of`]: **shared** (reader count), **exclusive** (owned by a
//! writing transaction) or **exclusive anonymous** (owned by a
//! non-transactional write). Transactions acquire records at encounter
//! time (strict two-phase locking), publish buffered writes at commit
//! while holding every record, and only then release. Non-transactional
//! writes take anonymous ownership around their store; non-transactional
//! reads wait while a record is transactionally exclusive — unless the
//! algorithm is constructed [`StrongTm::optimized`], which leaves reads
//! as plain loads (§6.1's read de-instrumentation for models outside
//! `Mrr ∪ Mwr`).
//!
//! Unlike the real-threads implementation in `jungle-stm` (which aborts
//! and retries on contention), this protocol *spins*: aborting is a
//! liveness optimization irrelevant to the safety properties being
//! model-checked, and spinning keeps every operation inside the paper's
//! operation-trace grammar. Schedules that deadlock (e.g. two
//! transactions upgrading the same record) hit the exploration step
//! bound and are excluded — they produce no completed trace to check.

use super::{Ctx, Next, Pc, Protocol, COMMITTED};
use crate::layout::{addr_of, meta_of};
use jungle_core::ids::{Val, Var};
use jungle_isa::tm::record::{owned, readers, shared, tag, ANON, EXCL, SHARED};
use jungle_isa::tm::Instrumentation;
use jungle_memsim::process::PInstr::{Load, Store};

/// The strong-atomicity TM algorithm (model-checker form).
#[derive(Clone, Copy, Debug)]
pub struct StrongTm {
    optimized_reads: bool,
}

impl StrongTm {
    /// Fully instrumented: opacity parametrized by SC.
    pub const fn new() -> Self {
        StrongTm {
            optimized_reads: false,
        }
    }

    /// Read-de-instrumented variant (§6.1): plain non-transactional
    /// loads; correct for `M ∉ Mrr ∪ Mwr`.
    pub const fn optimized() -> Self {
        StrongTm {
            optimized_reads: true,
        }
    }
}

impl Default for StrongTm {
    fn default() -> Self {
        StrongTm::new()
    }
}

/// Release every exclusive record, then leave every shared one. Uses
/// `pc.at` 1 to 3.
fn release(cx: &mut Ctx, pc: &mut Pc) -> Next {
    loop {
        match pc.at {
            1 => match pc.each(&cx.locks, |(var, _)| Store(meta_of(var), shared(0))) {
                Some(next) => return next,
                None => pc.jump(2),
            },
            2 => match cx.shared.get(pc.i) {
                Some(&var) => return pc.go(3, Load(meta_of(var))),
                None => return Next::Ret(COMMITTED),
            },
            _ => match pc.acquire(
                meta_of(cx.shared[pc.i]),
                |_| true,
                |w| shared(readers(w) - 1),
            ) {
                Next::Ret(_) => {
                    pc.i += 1;
                    pc.at = 2;
                }
                issue => return issue,
            },
        }
    }
}

impl Protocol for StrongTm {
    fn class(&self) -> (&'static str, Instrumentation) {
        if self.optimized_reads {
            ("strong-optimized", Instrumentation::UnboundedWrites)
        } else {
            ("strong", Instrumentation::Full)
        }
    }

    fn read(&self, cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match pc.at {
            0 => match cx.latched(var) {
                Some(val) => Next::Ret(val),
                None if cx.locked(var) || cx.shared.contains(&var) => pc.go(2, Load(addr_of(var))),
                None => pc.go(1, Load(meta_of(var))),
            },
            // Join the readers once no one owns the record.
            1 => pc
                .acquire(
                    meta_of(var),
                    |w| tag(w) == SHARED,
                    |w| shared(readers(w) + 1),
                )
                .then(|_| {
                    cx.shared.push(var);
                    pc.go(2, Load(addr_of(var)))
                }),
            _ => {
                cx.latch(var, pc.last);
                Next::Ret(pc.last)
            }
        }
    }

    fn write(&self, cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match pc.at {
            0 if cx.locked(var) => Next::Ret(0),
            0 => pc.go(1, Load(meta_of(var))),
            // Own the record once no one else reads it (upgrading our own
            // shared hold).
            _ => {
                let free = shared(u64::from(cx.shared.contains(&var)));
                pc.acquire(meta_of(var), |w| w == free, |_| owned(EXCL, cx.pid))
                    .then(|w| {
                        cx.shared.retain(|&x| x != var);
                        cx.locks.push((var, w));
                        Next::Ret(0)
                    })
            }
        }
    }

    fn commit(&self, cx: &mut Ctx, pc: &mut Pc) -> Next {
        if pc.at == 0 {
            if let Some(next) = pc.each(&cx.writeset, |(var, val)| Store(addr_of(var), val)) {
                return next;
            }
            pc.jump(1);
        }
        release(cx, pc)
    }

    fn abort(&self, cx: &mut Ctx, pc: &mut Pc) -> Next {
        pc.at = pc.at.max(1);
        release(cx, pc)
    }

    fn nt_read(&self, _cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match pc.at {
            // Wait while a transaction owns the record.
            0 if !self.optimized_reads => pc.go(1, Load(meta_of(var))),
            1 if tag(pc.last) == EXCL => pc.go(1, Load(meta_of(var))),
            0 | 1 => pc.go(2, Load(addr_of(var))),
            _ => Next::Ret(pc.last),
        }
    }

    fn nt_write(&self, cx: &mut Ctx, pc: &mut Pc, var: Var, val: Val) -> Next {
        match pc.at {
            0 => pc.go(1, Load(meta_of(var))),
            // Own the record anonymously once it is free, store, release.
            1 => pc
                .acquire(meta_of(var), |w| w == shared(0), |_| owned(ANON, cx.pid))
                .then(|_| pc.go(2, Store(addr_of(var), val))),
            2 => pc.go(3, Store(meta_of(var), shared(0))),
            _ => Next::Ret(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::TmAlgo;
    use crate::program::{Program, Stmt, ThreadProg, TxOp};
    use crate::verify::{CheckKind, Schedules, Sweep, SweepSeeds};
    use jungle_core::ids::ProcId;
    use jungle_core::ids::{X, Y};
    use jungle_core::model::Sc;
    use jungle_core::registry::ModelEntry;
    use jungle_memsim::{HwModel, Machine, ReplayScheduler};

    fn run_single(prog: ThreadProg) -> jungle_isa::Trace {
        let m = Machine::new(
            HwModel::SC,
            vec![StrongTm::new().make_process(ProcId(0), prog)],
        );
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 50_000);
        assert!(r.completed);
        r.trace
    }

    #[test]
    fn single_thread_roundtrip() {
        let trace = run_single(ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 7), TxOp::Read(X)]),
            Stmt::NtRead(X),
        ]));
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![7, 7]);
    }

    #[test]
    fn aborted_txn_invisible() {
        let trace = run_single(ThreadProg(vec![
            Stmt::aborting_txn(vec![TxOp::Write(X, 9)]),
            Stmt::NtRead(X),
        ]));
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![0]);
    }

    #[test]
    fn guard_skips_body_when_mismatch() {
        // Guard expects Y == 1 but Y is 0: the body write is skipped.
        let trace = run_single(ThreadProg(vec![
            Stmt::TxnGuard {
                guard: Y,
                expect: 1,
                ops: vec![TxOp::Write(X, 5)],
            },
            Stmt::NtRead(X),
        ]));
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![0, 0]); // guard read + final nt read
    }

    #[test]
    fn guard_runs_body_when_match() {
        let trace = run_single(ThreadProg(vec![
            Stmt::NtWrite(Y, 1),
            Stmt::TxnGuard {
                guard: Y,
                expect: 1,
                ops: vec![TxOp::Write(X, 5)],
            },
            Stmt::NtRead(X),
        ]));
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![1, 5]);
    }

    #[test]
    fn strong_is_sc_opaque_on_fig1_sampled() {
        // The centerpiece: the strong TM forbids the Figure 1 anomaly —
        // opacity parametrized by SC. Exhaustive exploration is
        // intractable here (the record-protocol spin loops multiply the
        // schedule space), so sample widely with uniform + bursty
        // schedules.
        let program = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]);
        let v = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, 600)),
            ..Sweep::new(
                &program,
                &StrongTm::new(),
                &ModelEntry::checker_game(&Sc),
                CheckKind::Opacity,
                12_000,
            )
        }
        .run();
        assert!(v.ok, "strong TM violated SC-opacity: {:?}", v.violation);
        assert!(v.runs > 100);
    }

    #[test]
    fn optimized_variant_violates_sc_but_not_alpha() {
        use jungle_core::model::Alpha;
        let program = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(Y)]),
        ]);
        // Plain reads can straddle the commit's two data stores: the
        // Figure 5(b) window reappears under SC…
        let bad = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, 2_000)),
            ..Sweep::new(
                &program,
                &StrongTm::optimized(),
                &ModelEntry::checker_game(&Sc),
                CheckKind::Opacity,
                8_000,
            )
        }
        .run()
        .violation;
        assert!(
            bad.is_some(),
            "expected an SC violation for optimized reads"
        );
        // …but under Alpha (reads reorder) every trace is fine.
        let good = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, 300)),
            ..Sweep::new(
                &program,
                &StrongTm::optimized(),
                &ModelEntry::checker_game(&Alpha),
                CheckKind::Opacity,
                8_000,
            )
        }
        .run();
        assert!(
            good.ok,
            "optimized strong TM violated Alpha-opacity: {:?}",
            good.violation
        );
    }
}
