//! A lazy, TL2-style weakly atomic TM as a model protocol — the negative
//! exhibit for the paper's §1 motivation.
//!
//! Per-variable [`vlock`](jungle_isa::tm::vlock)s live at [`meta_of`].
//! Reads are optimistic (sample lock → load data → revalidate); writes
//! are buffered; commit locks the write set, validates the read set,
//! publishes, and releases with bumped versions. A commit that fails
//! validation answers **abort** and the transaction retries from
//! `start`.
//!
//! Non-transactional operations are plain loads and stores with no
//! protocol — which is exactly what makes this TM *weakly atomic*: the
//! window between read-set validation and write-back is invisible to
//! transactions but wide open to non-transactional writes. The
//! privatization experiment in `theorems` drives a schedule through
//! that window and the checker confirms that **no memory model**
//! rescues the resulting history.

use super::{Ctx, Next, Pc, Protocol, ABORTED, COMMITTED};
use crate::layout::{addr_of, meta_of};
use jungle_core::ids::Var;
use jungle_isa::tm::vlock::{encode, locked, version};
use jungle_isa::tm::Instrumentation;
use jungle_memsim::process::PInstr::{Load, Store};

/// The lazy TL2-style TM algorithm (model-checker form).
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyTl2Tm;

impl Protocol for LazyTl2Tm {
    fn class(&self) -> (&'static str, Instrumentation) {
        // Plain non-transactional accesses — with no guarantee attached.
        ("lazy-tl2", Instrumentation::Uninstrumented)
    }

    /// Sample the version lock (waiting while it is held), load, and
    /// sample again; a changed lock starts over. The read set keeps the
    /// first read's version.
    fn read(&self, cx: &mut Ctx, pc: &mut Pc, var: Var) -> Next {
        match pc.at {
            0 => pc.go(1, Load(meta_of(var))),
            1 if locked(pc.last) => pc.go(1, Load(meta_of(var))),
            1 => {
                pc.w = pc.last;
                pc.go(2, Load(addr_of(var)))
            }
            2 => {
                pc.val = pc.last;
                pc.go(3, Load(meta_of(var)))
            }
            _ if pc.last != pc.w => pc.go(1, Load(meta_of(var))),
            _ => {
                cx.latch(var, version(pc.w));
                Next::Ret(pc.val)
            }
        }
    }

    fn commit(&self, cx: &mut Ctx, pc: &mut Pc) -> Next {
        loop {
            match pc.at {
                // Lock the write set in order, waiting out other holders,
                0 => match cx.writeset.get(pc.i) {
                    Some(&(var, _)) => return pc.go(1, Load(meta_of(var))),
                    None => pc.jump(2),
                },
                1 => {
                    let var = cx.writeset[pc.i].0;
                    match pc.acquire(meta_of(var), |w| !locked(w), |w| encode(version(w), true)) {
                        Next::Ret(w) => {
                            cx.locks.push((var, w));
                            pc.i += 1;
                            pc.at = 0;
                        }
                        issue => return issue,
                    }
                }
                // validate the read set,
                2 => match cx.readset.get(pc.i) {
                    Some(&(var, _)) => return pc.go(3, Load(meta_of(var))),
                    None => pc.jump(4),
                },
                3 => {
                    let (var, seen) = cx.readset[pc.i];
                    let w = pc.last;
                    if version(w) == seen && (!locked(w) || cx.locked(var)) {
                        pc.i += 1;
                        pc.at = 2;
                    } else {
                        pc.jump(6);
                    }
                }
                // publish, and release with bumped versions.
                4 => match pc.each(&cx.writeset, |(var, val)| Store(addr_of(var), val)) {
                    Some(next) => return next,
                    None => pc.jump(5),
                },
                5 => {
                    let release = |(var, w)| Store(meta_of(var), encode(version(w) + 1, false));
                    return pc.each(&cx.locks, release).unwrap_or(Next::Ret(COMMITTED));
                }
                // Validation failed: restore the locked words and abort.
                _ => {
                    let restore = |(var, w)| Store(meta_of(var), w);
                    return pc.each(&cx.locks, restore).unwrap_or(Next::Ret(ABORTED));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::TmAlgo;
    use crate::program::{Program, Stmt, ThreadProg, TxOp};
    use crate::verify::{CheckKind, Schedules, Sweep, SweepSeeds};
    use jungle_core::ids::{ProcId, Val};
    use jungle_core::ids::{X, Y};
    use jungle_core::model::Sc;
    use jungle_core::op::Op;
    use jungle_core::registry::ModelEntry;
    use jungle_memsim::{HwModel, Machine, RandomScheduler, ReplayScheduler};

    fn run_single(prog: ThreadProg) -> jungle_isa::Trace {
        let m = Machine::new(HwModel::SC, vec![LazyTl2Tm.make_process(ProcId(0), prog)]);
        let mut s = ReplayScheduler::default();
        let r = m.run(&mut s, 50_000);
        assert!(r.completed);
        r.trace
    }

    #[test]
    fn single_thread_roundtrip() {
        let trace = run_single(ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 7), TxOp::Read(X), TxOp::Write(Y, 8)]),
            Stmt::NtRead(Y),
        ]));
        let reads: Vec<Val> = trace
            .ops()
            .iter()
            .filter_map(|o| o.op.command().and_then(|c| c.read_val()))
            .collect();
        assert_eq!(reads, vec![7, 8]);
    }

    #[test]
    fn conflicting_txns_retry_and_both_commit() {
        let p1 = ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(X, 1)])]);
        let p2 = ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(X, 2)])]);
        let m = Machine::new(
            HwModel::SC,
            vec![
                LazyTl2Tm.make_process(ProcId(0), p1),
                LazyTl2Tm.make_process(ProcId(1), p2),
            ],
        );
        let mut s = RandomScheduler::new(11);
        let r = m.run(&mut s, 100_000);
        assert!(r.completed);
        let commits = r
            .trace
            .ops()
            .iter()
            .filter(|o| matches!(o.op, Op::Commit))
            .count();
        assert_eq!(commits, 2);
    }

    #[test]
    fn purely_transactional_random_checks_hold() {
        // With single-read transactions there are no zombie snapshots,
        // and the retry-on-validation-failure protocol keeps histories
        // opaque.
        let program = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(Y, 2)])]),
            ThreadProg(vec![Stmt::txn(vec![TxOp::Read(Y), TxOp::Write(X, 1)])]),
        ]);
        let v = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, 150)),
            ..Sweep::new(
                &program,
                &LazyTl2Tm,
                &ModelEntry::checker_game(&Sc),
                CheckKind::Opacity,
                50_000,
            )
        }
        .run();
        assert!(v.ok, "violation: {:?}", v.violation);
    }
}
