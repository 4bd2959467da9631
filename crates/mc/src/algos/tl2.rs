//! A lazy, TL2-style weakly atomic TM as a model-checkable interpreter
//! — the negative exhibit for the paper's §1 motivation.
//!
//! Per-variable version-locks (`version << 1 | locked`) live at
//! [`meta_of`](crate::layout::meta_of). Reads are optimistic (sample
//! lock → load data → revalidate); writes are buffered; commit locks
//! the write set, validates the read set, publishes, and releases with
//! bumped versions. A commit that fails validation becomes an **abort**
//! operation in the trace and the transaction retries from `start`.
//!
//! Non-transactional operations are plain loads and stores with no
//! protocol — which is exactly what makes this TM *weakly atomic*: the
//! window between read-set validation and write-back is invisible to
//! transactions but wide open to non-transactional writes. The
//! privatization experiment in `theorems` drives a schedule through
//! that window and the checker confirms that **no memory model**
//! rescues the resulting history.

use super::TmAlgo;
use crate::layout::{addr_of, meta_of};
use crate::program::{Stmt, ThreadProg, TxOp};
use jungle_core::ids::{ProcId, Val, Var};
use jungle_core::op::{Command, Op};
use jungle_isa::tm::Instrumentation;
use jungle_memsim::process::{PInstr, Process, Resume, Step};

fn locked(w: u64) -> bool {
    w & 1 == 1
}

fn version(w: u64) -> u64 {
    w >> 1
}

fn enc(version: u64, locked: bool) -> u64 {
    (version << 1) | u64::from(locked)
}

fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

/// The lazy TL2-style TM algorithm (model-checker form).
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyTl2Tm;

impl TmAlgo for LazyTl2Tm {
    fn name(&self) -> &'static str {
        "lazy-tl2"
    }

    fn instrumentation(&self) -> Instrumentation {
        // Plain non-transactional accesses — with no guarantee attached.
        Instrumentation::Uninstrumented
    }

    fn make_process(&self, pid: ProcId, prog: ThreadProg) -> Box<dyn Process> {
        Box::new(Tl2Process::new(pid, prog))
    }
}

#[derive(Clone, Copy, Debug)]
enum Ph {
    NextStmt,
    StartInv,
    StartResp,
    GuardReadInv(Var, Val),
    TxnOpNext,
    // Optimistic read: v1 := vlock; data; v2 := vlock; v1 == v2?
    ReadInv(Var),
    ReadEntry(Var, Option<Val>),
    ReadV1Issue(Var, Option<Val>),
    ReadV1Check(Var, Option<Val>),
    ReadData(Var, Option<Val>, u64),
    ReadV2Issue(Var, Option<Val>, u64, Val),
    ReadV2Check(Var, Option<Val>, u64, Val),
    // Buffered write.
    WriteInv(Var, Val),
    WriteResp(Var, Val),
    // Commit: lock write set → validate read set → publish → release.
    CommitInv,
    LockIssue(usize),
    LockCheck(usize),
    LockCas(usize, u64),
    ValidateIssue(usize),
    ValidateCheck(usize),
    Publish(usize),
    Release(usize),
    CommitResp,
    // Validation failure: roll back locks, abort, retry the statement.
    FailRelease(usize),
    FailResp,
    AbortInv,
    AbortResp,
    // Non-transactional (uninstrumented).
    NtReadInv(Var),
    NtReadLoad(Var),
    NtReadResp(Var),
    NtWriteInv(Var, Val),
    NtWriteStore(Var, Val),
    NtWriteResp(Var, Val),
    Finished,
}

struct Tl2Process {
    stmts: Vec<Stmt>,
    stmt_idx: usize,
    op_idx: usize,
    phase: Ph,
    /// `(var, version-at-read)`.
    readset: Vec<(Var, u64)>,
    writeset: Vec<(Var, Val)>,
    /// `(var, pre-lock word)` held during commit.
    locks: Vec<(Var, u64)>,
    skip_body: bool,
}

impl Tl2Process {
    fn new(_pid: ProcId, prog: ThreadProg) -> Self {
        Tl2Process {
            stmts: prog.0,
            stmt_idx: 0,
            op_idx: 0,
            phase: Ph::NextStmt,
            readset: Vec::new(),
            writeset: Vec::new(),
            locks: Vec::new(),
            skip_body: false,
        }
    }

    fn cur_txn(&self) -> (&[TxOp], bool) {
        match &self.stmts[self.stmt_idx] {
            Stmt::Txn { ops, abort } => (ops, *abort),
            Stmt::TxnGuard { ops, .. } => (ops, false),
            _ => unreachable!("cur_txn outside a transaction"),
        }
    }

    fn ws_get(&self, v: Var) -> Option<Val> {
        self.writeset.iter().find(|(x, _)| *x == v).map(|(_, w)| *w)
    }

    fn rs_version(&self, v: Var) -> Option<u64> {
        self.readset.iter().find(|(x, _)| *x == v).map(|(_, w)| *w)
    }

    fn locked_by_me(&self, v: Var) -> bool {
        self.locks.iter().any(|(x, _)| *x == v)
    }

    fn finish_read(&mut self, var: Var, val: Val, guard: Option<Val>) -> Step {
        if let Some(expect) = guard {
            self.skip_body = val != expect;
        } else {
            self.op_idx += 1;
        }
        self.phase = Ph::TxnOpNext;
        Step::Resp(rd_op(var, val))
    }
}

impl Process for Tl2Process {
    fn next(&mut self, last: Resume) -> Step {
        let mut last = last;
        loop {
            match self.phase {
                Ph::Finished => return Step::Done,
                Ph::NextStmt => {
                    self.op_idx = 0;
                    self.skip_body = false;
                    self.readset.clear();
                    self.writeset.clear();
                    debug_assert!(self.locks.is_empty());
                    if self.stmt_idx >= self.stmts.len() {
                        self.phase = Ph::Finished;
                        continue;
                    }
                    match &self.stmts[self.stmt_idx] {
                        Stmt::Txn { .. } | Stmt::TxnGuard { .. } => self.phase = Ph::StartInv,
                        Stmt::NtRead(v) => self.phase = Ph::NtReadInv(*v),
                        Stmt::NtWrite(v, val) => self.phase = Ph::NtWriteInv(*v, *val),
                    }
                }

                Ph::StartInv => {
                    self.phase = Ph::StartResp;
                    return Step::Inv(Op::Start);
                }
                Ph::StartResp => {
                    self.phase = match &self.stmts[self.stmt_idx] {
                        Stmt::TxnGuard { guard, expect, .. } => Ph::GuardReadInv(*guard, *expect),
                        _ => Ph::TxnOpNext,
                    };
                    return Step::Resp(Op::Start);
                }
                Ph::GuardReadInv(g, e) => {
                    self.phase = Ph::ReadEntry(g, Some(e));
                    return Step::Inv(rd_op(g, 0));
                }
                Ph::TxnOpNext => {
                    let (ops, abort) = self.cur_txn();
                    if self.skip_body || self.op_idx >= ops.len() {
                        self.phase = if abort { Ph::AbortInv } else { Ph::CommitInv };
                        continue;
                    }
                    match ops[self.op_idx] {
                        TxOp::Read(v) => self.phase = Ph::ReadInv(v),
                        TxOp::Write(v, val) => self.phase = Ph::WriteInv(v, val),
                    }
                }

                // ---- optimistic read ---------------------------------
                Ph::ReadInv(v) => {
                    self.phase = Ph::ReadEntry(v, None);
                    return Step::Inv(rd_op(v, 0));
                }
                Ph::ReadEntry(v, guard) => {
                    if let Some(val) = self.ws_get(v) {
                        return self.finish_read(v, val, guard);
                    }
                    self.phase = Ph::ReadV1Issue(v, guard);
                }
                Ph::ReadV1Issue(v, guard) => {
                    self.phase = Ph::ReadV1Check(v, guard);
                    return Step::Instr(PInstr::Load(meta_of(v)));
                }
                Ph::ReadV1Check(v, guard) => {
                    let w = last.expect("load result");
                    if locked(w) {
                        self.phase = Ph::ReadV1Issue(v, guard); // spin
                        continue;
                    }
                    self.phase = Ph::ReadData(v, guard, w);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::ReadData(v, guard, v1) => {
                    let val = last.expect("load result");
                    self.phase = Ph::ReadV2Issue(v, guard, v1, val);
                }
                Ph::ReadV2Issue(v, guard, v1, val) => {
                    self.phase = Ph::ReadV2Check(v, guard, v1, val);
                    return Step::Instr(PInstr::Load(meta_of(v)));
                }
                Ph::ReadV2Check(v, guard, v1, val) => {
                    let w2 = last.expect("load result");
                    if w2 != v1 {
                        self.phase = Ph::ReadV1Issue(v, guard); // re-read
                        continue;
                    }
                    if self.rs_version(v).is_none() {
                        self.readset.push((v, version(v1)));
                    }
                    return self.finish_read(v, val, guard);
                }

                // ---- buffered write ----------------------------------
                Ph::WriteInv(v, val) => {
                    self.phase = Ph::WriteResp(v, val);
                    return Step::Inv(wr_op(v, val));
                }
                Ph::WriteResp(v, val) => {
                    match self.writeset.iter_mut().find(|(x, _)| *x == v) {
                        Some(e) => e.1 = val,
                        None => self.writeset.push((v, val)),
                    }
                    self.op_idx += 1;
                    self.phase = Ph::TxnOpNext;
                    return Step::Resp(wr_op(v, val));
                }

                // ---- commit ------------------------------------------
                Ph::CommitInv => {
                    self.phase = Ph::LockIssue(0);
                    return Step::Inv(Op::Commit);
                }
                Ph::LockIssue(i) => {
                    if i < self.writeset.len() {
                        self.phase = Ph::LockCheck(i);
                        return Step::Instr(PInstr::Load(meta_of(self.writeset[i].0)));
                    }
                    self.phase = Ph::ValidateIssue(0);
                }
                Ph::LockCheck(i) => {
                    let w = last.expect("load result");
                    if locked(w) {
                        self.phase = Ph::LockIssue(i); // spin on the holder
                        continue;
                    }
                    self.phase = Ph::LockCas(i, w);
                    return Step::Instr(PInstr::Cas(
                        meta_of(self.writeset[i].0),
                        w,
                        enc(version(w), true),
                    ));
                }
                Ph::LockCas(i, w) => {
                    if last == Some(1) {
                        self.locks.push((self.writeset[i].0, w));
                        self.phase = Ph::LockIssue(i + 1);
                    } else {
                        self.phase = Ph::LockIssue(i);
                    }
                }
                Ph::ValidateIssue(j) => {
                    if j < self.readset.len() {
                        self.phase = Ph::ValidateCheck(j);
                        return Step::Instr(PInstr::Load(meta_of(self.readset[j].0)));
                    }
                    self.phase = Ph::Publish(0);
                }
                Ph::ValidateCheck(j) => {
                    let w = last.expect("load result");
                    let (v, ver_at_read) = self.readset[j];
                    let ok = version(w) == ver_at_read && (!locked(w) || self.locked_by_me(v));
                    if ok {
                        self.phase = Ph::ValidateIssue(j + 1);
                    } else {
                        self.phase = Ph::FailRelease(0);
                    }
                }
                Ph::Publish(k) => {
                    if k < self.writeset.len() {
                        let (v, val) = self.writeset[k];
                        self.phase = Ph::Publish(k + 1);
                        return Step::Instr(PInstr::Store(addr_of(v), val));
                    }
                    self.phase = Ph::Release(0);
                }
                Ph::Release(k) => {
                    if k < self.locks.len() {
                        let (v, w) = self.locks[k];
                        self.phase = Ph::Release(k + 1);
                        return Step::Instr(PInstr::Store(meta_of(v), enc(version(w) + 1, false)));
                    }
                    self.phase = Ph::CommitResp;
                }
                Ph::CommitResp => {
                    self.locks.clear();
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(Op::Commit);
                }

                // ---- validation failure: abort and retry -------------
                Ph::FailRelease(k) => {
                    if k < self.locks.len() {
                        let (v, w) = self.locks[k];
                        self.phase = Ph::FailRelease(k + 1);
                        return Step::Instr(PInstr::Store(meta_of(v), w));
                    }
                    self.phase = Ph::FailResp;
                }
                Ph::FailResp => {
                    // The operation that began as a commit responds as an
                    // abort (the invocation marker is backpatched), and
                    // the statement retries from a fresh `start`.
                    self.locks.clear();
                    self.phase = Ph::NextStmt; // same stmt_idx → retry
                    return Step::Resp(Op::Abort);
                }

                // ---- program-level abort ------------------------------
                Ph::AbortInv => {
                    self.phase = Ph::AbortResp;
                    return Step::Inv(Op::Abort);
                }
                Ph::AbortResp => {
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(Op::Abort);
                }

                // ---- non-transactional (plain) ------------------------
                Ph::NtReadInv(v) => {
                    self.phase = Ph::NtReadLoad(v);
                    return Step::Inv(rd_op(v, 0));
                }
                Ph::NtReadLoad(v) => {
                    self.phase = Ph::NtReadResp(v);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::NtReadResp(v) => {
                    let val = last.expect("load result");
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(rd_op(v, val));
                }
                Ph::NtWriteInv(v, val) => {
                    self.phase = Ph::NtWriteStore(v, val);
                    return Step::Inv(wr_op(v, val));
                }
                Ph::NtWriteStore(v, val) => {
                    self.phase = Ph::NtWriteResp(v, val);
                    return Step::Instr(PInstr::Store(addr_of(v), val));
                }
                Ph::NtWriteResp(v, val) => {
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(wr_op(v, val));
                }
            }
            last = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, Stmt};
    use crate::verify::{CheckKind, Schedules, Sweep, SweepSeeds};
    use jungle_core::ids::{X, Y};
    use jungle_core::model::Sc;
    use jungle_core::registry::ModelEntry;
    use jungle_memsim::{DirectedScheduler, HwModel, Machine, RandomScheduler};

    fn run_single(prog: ThreadProg) -> jungle_isa::Trace {
        let m = Machine::new(HwModel::Sc, vec![LazyTl2Tm.make_process(ProcId(0), prog)]);
        let mut s = DirectedScheduler::default();
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
            HwModel::Sc,
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
