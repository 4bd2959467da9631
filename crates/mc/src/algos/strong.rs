//! The §6.1 strong-atomicity TM (Shpeisman et al.) as a model-checkable
//! interpreter.
//!
//! Per-variable *transactional records* live at
//! [`meta_of`](crate::layout::meta_of): **shared** (reader count),
//! **exclusive** (owned by a writing transaction) or **exclusive
//! anonymous** (owned by a non-transactional write). Transactions
//! acquire records at encounter time (strict two-phase locking),
//! publish buffered writes at commit while holding every record, and
//! only then release. Non-transactional writes take anonymous
//! ownership around their store; non-transactional reads wait while a
//! record is transactionally exclusive — unless the algorithm is
//! constructed [`StrongTm::optimized`], which leaves reads as plain
//! loads (§6.1's read de-instrumentation for models outside
//! `Mrr ∪ Mwr`).
//!
//! Unlike the real-threads implementation in `jungle-stm` (which aborts
//! and retries on contention), this interpreter *spins*: aborting is a
//! liveness optimization irrelevant to the safety properties being
//! model-checked, and spinning keeps every operation inside the paper's
//! operation-trace grammar. Schedules that deadlock (e.g. two
//! transactions upgrading the same record) hit the exploration step
//! bound and are excluded — they produce no completed trace to check.

use super::TmAlgo;
use crate::layout::{addr_of, meta_of};
use crate::program::{Stmt, ThreadProg, TxOp};
use jungle_core::ids::{ProcId, Val, Var};
use jungle_core::op::{Command, Op};
use jungle_isa::tm::Instrumentation;
use jungle_memsim::process::{PInstr, Process, Resume, Step};

const TAG_SHIFT: u32 = 62;
const TAG_SHARED: u64 = 0;
const TAG_EXCL: u64 = 1;
const TAG_ANON: u64 = 2;

fn tag(w: u64) -> u64 {
    w >> TAG_SHIFT
}

fn readers(w: u64) -> u64 {
    w & !(3 << TAG_SHIFT)
}

fn enc_shared(n: u64) -> u64 {
    n
}

fn enc_excl(p: ProcId) -> u64 {
    (TAG_EXCL << TAG_SHIFT) | (u64::from(p.0) + 1)
}

fn enc_anon(p: ProcId) -> u64 {
    (TAG_ANON << TAG_SHIFT) | (u64::from(p.0) + 1)
}

fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

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

impl TmAlgo for StrongTm {
    fn name(&self) -> &'static str {
        if self.optimized_reads {
            "strong-optimized"
        } else {
            "strong"
        }
    }

    fn instrumentation(&self) -> Instrumentation {
        if self.optimized_reads {
            Instrumentation::UnboundedWrites
        } else {
            Instrumentation::Full
        }
    }

    fn make_process(&self, pid: ProcId, prog: ThreadProg) -> Box<dyn Process> {
        Box::new(StrongProcess::new(*self, pid, prog))
    }
}

#[derive(Clone, Copy, Debug)]
enum Ph {
    NextStmt,
    StartInv,
    StartResp,
    GuardReadInv(Var, Val),
    TxnOpNext,
    // Transactional read (guard carries the expected value when this
    // read decides a TxnGuard body).
    ReadInv(Var),
    ReadEntry(Var, Option<Val>),
    ReadMetaIssue(Var, Option<Val>),
    ReadMetaCheck(Var, Option<Val>),
    ReadCasCheck(Var, Option<Val>),
    ReadDataIssue(Var, Option<Val>),
    ReadData(Var, Option<Val>),
    // Transactional write.
    WriteInv(Var, Val),
    WriteEntry(Var, Val),
    WriteMetaIssue(Var, Val),
    WriteMetaCheck(Var, Val),
    WriteCasCheck(Var, Val),
    WriteRecord(Var, Val),
    // Commit / abort.
    CommitInv,
    AbortInv,
    CommitStore(usize),
    ReleaseExcl(usize),
    ReleaseSharedIssue(usize),
    ReleaseSharedCheck(usize),
    ReleaseSharedCas(usize),
    TxnEndResp(bool),
    // Non-transactional read.
    NtReadInv(Var),
    NtReadCheckIssue(Var),
    NtReadCheck(Var),
    NtReadDataIssue(Var),
    NtReadData(Var),
    // Non-transactional write.
    NtWriteInv(Var, Val),
    NtWMetaIssue(Var, Val),
    NtWMetaCheck(Var, Val),
    NtWCasCheck(Var, Val),
    NtWStore(Var, Val),
    NtWRelease(Var, Val),
    NtWriteResp(Var, Val),
    Finished,
}

struct StrongProcess {
    algo: StrongTm,
    pid: ProcId,
    stmts: Vec<Stmt>,
    stmt_idx: usize,
    op_idx: usize,
    phase: Ph,
    readset: Vec<(Var, Val)>,
    writeset: Vec<(Var, Val)>,
    locks: Vec<Var>,
    shared: Vec<Var>,
    skip_body: bool,
}

impl StrongProcess {
    fn new(algo: StrongTm, pid: ProcId, prog: ThreadProg) -> Self {
        StrongProcess {
            algo,
            pid,
            stmts: prog.0,
            stmt_idx: 0,
            op_idx: 0,
            phase: Ph::NextStmt,
            readset: Vec::new(),
            writeset: Vec::new(),
            locks: Vec::new(),
            shared: Vec::new(),
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

    fn rs_get(&self, v: Var) -> Option<Val> {
        self.readset.iter().find(|(x, _)| *x == v).map(|(_, w)| *w)
    }

    fn ws_get(&self, v: Var) -> Option<Val> {
        self.writeset.iter().find(|(x, _)| *x == v).map(|(_, w)| *w)
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

impl Process for StrongProcess {
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
                    debug_assert!(self.locks.is_empty() && self.shared.is_empty());
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

                // ---- transaction start (bookkeeping only) ------------
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

                // ---- transactional read ------------------------------
                Ph::ReadInv(v) => {
                    self.phase = Ph::ReadEntry(v, None);
                    return Step::Inv(rd_op(v, 0));
                }
                Ph::ReadEntry(v, guard) => {
                    if let Some(val) = self.ws_get(v).or_else(|| self.rs_get(v)) {
                        return self.finish_read(v, val, guard);
                    }
                    if self.locks.contains(&v) || self.shared.contains(&v) {
                        self.phase = Ph::ReadDataIssue(v, guard);
                        continue;
                    }
                    self.phase = Ph::ReadMetaIssue(v, guard);
                }
                Ph::ReadMetaIssue(v, guard) => {
                    self.phase = Ph::ReadMetaCheck(v, guard);
                    return Step::Instr(PInstr::Load(meta_of(v)));
                }
                Ph::ReadMetaCheck(v, guard) => {
                    let w = last.expect("load result");
                    if tag(w) == TAG_SHARED {
                        self.phase = Ph::ReadCasCheck(v, guard);
                        return Step::Instr(PInstr::Cas(meta_of(v), w, enc_shared(readers(w) + 1)));
                    }
                    self.phase = Ph::ReadMetaIssue(v, guard); // spin
                }
                Ph::ReadCasCheck(v, guard) => {
                    if last == Some(1) {
                        self.shared.push(v);
                        self.phase = Ph::ReadDataIssue(v, guard);
                    } else {
                        self.phase = Ph::ReadMetaIssue(v, guard);
                    }
                }
                Ph::ReadDataIssue(v, guard) => {
                    self.phase = Ph::ReadData(v, guard);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::ReadData(v, guard) => {
                    let val = last.expect("load result");
                    if self.rs_get(v).is_none() {
                        self.readset.push((v, val));
                    }
                    return self.finish_read(v, val, guard);
                }

                // ---- transactional write -----------------------------
                Ph::WriteInv(v, val) => {
                    self.phase = Ph::WriteEntry(v, val);
                    return Step::Inv(wr_op(v, val));
                }
                Ph::WriteEntry(v, val) => {
                    if self.locks.contains(&v) {
                        self.phase = Ph::WriteRecord(v, val);
                        continue;
                    }
                    self.phase = Ph::WriteMetaIssue(v, val);
                }
                Ph::WriteMetaIssue(v, val) => {
                    self.phase = Ph::WriteMetaCheck(v, val);
                    return Step::Instr(PInstr::Load(meta_of(v)));
                }
                Ph::WriteMetaCheck(v, val) => {
                    let w = last.expect("load result");
                    let holding_shared = self.shared.contains(&v);
                    let want = if holding_shared { 1 } else { 0 };
                    if tag(w) == TAG_SHARED && readers(w) == want {
                        self.phase = Ph::WriteCasCheck(v, val);
                        return Step::Instr(PInstr::Cas(meta_of(v), w, enc_excl(self.pid)));
                    }
                    self.phase = Ph::WriteMetaIssue(v, val); // spin
                }
                Ph::WriteCasCheck(v, val) => {
                    if last == Some(1) {
                        self.shared.retain(|&x| x != v);
                        self.locks.push(v);
                        self.phase = Ph::WriteRecord(v, val);
                    } else {
                        self.phase = Ph::WriteMetaIssue(v, val);
                    }
                }
                Ph::WriteRecord(v, val) => {
                    match self.writeset.iter_mut().find(|(x, _)| *x == v) {
                        Some(e) => e.1 = val,
                        None => self.writeset.push((v, val)),
                    }
                    self.op_idx += 1;
                    self.phase = Ph::TxnOpNext;
                    return Step::Resp(wr_op(v, val));
                }

                // ---- commit / abort ----------------------------------
                Ph::CommitInv => {
                    self.phase = Ph::CommitStore(0);
                    return Step::Inv(Op::Commit);
                }
                Ph::AbortInv => {
                    // Aborts publish nothing; release straight away.
                    self.phase = Ph::ReleaseExcl(0);
                    return Step::Inv(Op::Abort);
                }
                Ph::CommitStore(i) => {
                    if i < self.writeset.len() {
                        let (v, val) = self.writeset[i];
                        self.phase = Ph::CommitStore(i + 1);
                        return Step::Instr(PInstr::Store(addr_of(v), val));
                    }
                    self.phase = Ph::ReleaseExcl(0);
                }
                Ph::ReleaseExcl(i) => {
                    if i < self.locks.len() {
                        let v = self.locks[i];
                        self.phase = Ph::ReleaseExcl(i + 1);
                        return Step::Instr(PInstr::Store(meta_of(v), enc_shared(0)));
                    }
                    self.phase = Ph::ReleaseSharedIssue(0);
                }
                Ph::ReleaseSharedIssue(i) => {
                    if i < self.shared.len() {
                        self.phase = Ph::ReleaseSharedCheck(i);
                        return Step::Instr(PInstr::Load(meta_of(self.shared[i])));
                    }
                    let (_, abort) = self.cur_txn();
                    self.phase = Ph::TxnEndResp(abort);
                }
                Ph::ReleaseSharedCheck(i) => {
                    let w = last.expect("load result");
                    debug_assert_eq!(tag(w), TAG_SHARED);
                    self.phase = Ph::ReleaseSharedCas(i);
                    return Step::Instr(PInstr::Cas(
                        meta_of(self.shared[i]),
                        w,
                        enc_shared(readers(w) - 1),
                    ));
                }
                Ph::ReleaseSharedCas(i) => {
                    if last == Some(1) {
                        self.phase = Ph::ReleaseSharedIssue(i + 1);
                    } else {
                        self.phase = Ph::ReleaseSharedIssue(i); // retry
                    }
                }
                Ph::TxnEndResp(abort) => {
                    self.locks.clear();
                    self.shared.clear();
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(if abort { Op::Abort } else { Op::Commit });
                }

                // ---- non-transactional read --------------------------
                Ph::NtReadInv(v) => {
                    self.phase = if self.algo.optimized_reads {
                        Ph::NtReadDataIssue(v)
                    } else {
                        Ph::NtReadCheckIssue(v)
                    };
                    return Step::Inv(rd_op(v, 0));
                }
                Ph::NtReadCheckIssue(v) => {
                    self.phase = Ph::NtReadCheck(v);
                    return Step::Instr(PInstr::Load(meta_of(v)));
                }
                Ph::NtReadCheck(v) => {
                    let w = last.expect("load result");
                    if tag(w) == TAG_EXCL {
                        self.phase = Ph::NtReadCheckIssue(v); // wait
                    } else {
                        self.phase = Ph::NtReadDataIssue(v);
                    }
                }
                Ph::NtReadDataIssue(v) => {
                    self.phase = Ph::NtReadData(v);
                    return Step::Instr(PInstr::Load(addr_of(v)));
                }
                Ph::NtReadData(v) => {
                    let val = last.expect("load result");
                    self.stmt_idx += 1;
                    self.phase = Ph::NextStmt;
                    return Step::Resp(rd_op(v, val));
                }

                // ---- non-transactional write -------------------------
                Ph::NtWriteInv(v, val) => {
                    self.phase = Ph::NtWMetaIssue(v, val);
                    return Step::Inv(wr_op(v, val));
                }
                Ph::NtWMetaIssue(v, val) => {
                    self.phase = Ph::NtWMetaCheck(v, val);
                    return Step::Instr(PInstr::Load(meta_of(v)));
                }
                Ph::NtWMetaCheck(v, val) => {
                    let w = last.expect("load result");
                    if tag(w) == TAG_SHARED && readers(w) == 0 {
                        self.phase = Ph::NtWCasCheck(v, val);
                        return Step::Instr(PInstr::Cas(meta_of(v), w, enc_anon(self.pid)));
                    }
                    self.phase = Ph::NtWMetaIssue(v, val); // wait
                }
                Ph::NtWCasCheck(v, val) => {
                    if last == Some(1) {
                        self.phase = Ph::NtWStore(v, val);
                    } else {
                        self.phase = Ph::NtWMetaIssue(v, val);
                    }
                }
                Ph::NtWStore(v, val) => {
                    self.phase = Ph::NtWRelease(v, val);
                    return Step::Instr(PInstr::Store(addr_of(v), val));
                }
                Ph::NtWRelease(v, val) => {
                    self.phase = Ph::NtWriteResp(v, val);
                    return Step::Instr(PInstr::Store(meta_of(v), enc_shared(0)));
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
    use jungle_memsim::{DirectedScheduler, HwModel, Machine};

    fn run_single(prog: ThreadProg) -> jungle_isa::Trace {
        let m = Machine::new(
            HwModel::Sc,
            vec![StrongTm::new().make_process(ProcId(0), prog)],
        );
        let mut s = DirectedScheduler::default();
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
