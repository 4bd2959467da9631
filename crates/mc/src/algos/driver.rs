//! The one driver: a thread program run on any [`Protocol`].

use super::{Ctx, Next, Pc, Protocol, ABORTED};
use crate::program::{Stmt, ThreadProg, TxOp};
use jungle_core::ids::{ProcId, Val, Var};
use jungle_core::op::{Command, Op};
use jungle_memsim::process::{self, Process, Resume, Step};
use std::sync::Arc;

/// The resumption contract: memsim resumes a process that issued an
/// instruction with that instruction's result.
pub(super) const RESUMED_WITH_RESULT: &str = "memsim resumes an instruction with its result";

/// Figure 6's invariant: a transaction latches every variable it writes
/// (the transactional read before a write) before it commits.
pub(super) const LATCHED_BEFORE_COMMIT: &str = "Figure 6 latches each written word first";

/// One operation of the program, as the driver invokes it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Call {
    Start,
    Read(Var),
    /// A guarded transaction's read of its guard: the body runs only if
    /// the value is the second field.
    Guard(Var, Val),
    Write(Var, Val),
    Commit,
    Abort,
    NtRead(Var),
    NtWrite(Var, Val),
}

impl Call {
    /// The operation this call's markers carry, `ret` being what it
    /// returned (0 at the invocation, a read's placeholder).
    fn op(self, ret: Val) -> Op {
        match self {
            Call::Start => Op::Start,
            Call::Read(var) | Call::Guard(var, _) | Call::NtRead(var) => {
                Op::Cmd(Command::Read { var, val: ret })
            }
            Call::Write(var, val) | Call::NtWrite(var, val) => Op::Cmd(Command::Write { var, val }),
            Call::Commit => Op::Commit,
            Call::Abort => Op::Abort,
        }
    }

    /// Does the call end its statement?
    fn ends_statement(self) -> bool {
        matches!(
            self,
            Call::Commit | Call::Abort | Call::NtRead(_) | Call::NtWrite(..)
        )
    }
}

/// One thread of a program, run on the protocol `P`.
pub(super) struct Driver<P> {
    tm: P,
    /// The thread's statements, shared by every copy of the driver.
    stmts: Arc<[Stmt]>,
    /// The statement running.
    stmt: usize,
    /// How many of its operations have responded.
    k: usize,
    /// A guard that did not match: the body is skipped and the
    /// transaction commits empty.
    skip: bool,
    /// The operation invoked and not yet responded, and its state.
    call: Option<Call>,
    pc: Pc,
    /// Did the last step issue an instruction?
    issued: bool,
    cx: Ctx,
}

impl<P: Protocol> Driver<P> {
    pub(super) fn new(tm: P, pid: ProcId, prog: ThreadProg) -> Self {
        Driver {
            tm,
            stmts: prog.0.into(),
            stmt: 0,
            k: 0,
            skip: false,
            call: None,
            pc: Pc::default(),
            issued: false,
            cx: Ctx::new(pid),
        }
    }

    /// The running statement's next operation; `None` once the program
    /// is done.
    fn next_call(&self) -> Option<Call> {
        Some(match self.stmts.get(self.stmt)? {
            Stmt::NtRead(v) => Call::NtRead(*v),
            Stmt::NtWrite(v, val) => Call::NtWrite(*v, *val),
            Stmt::Txn { ops, abort } => self.txn_call(None, ops, *abort),
            Stmt::TxnGuard { guard, expect, ops } => {
                self.txn_call(Some(Call::Guard(*guard, *expect)), ops, false)
            }
        })
    }

    /// Start, the guard if any, the body unless skipped, then commit or
    /// abort.
    fn txn_call(&self, guard: Option<Call>, ops: &[TxOp], abort: bool) -> Call {
        let prologue = 1 + usize::from(guard.is_some());
        match (self.k, guard) {
            (0, _) => Call::Start,
            (1, Some(g)) => g,
            _ => match ops.get(self.k - prologue).filter(|_| !self.skip) {
                Some(TxOp::Read(v)) => Call::Read(*v),
                Some(TxOp::Write(v, val)) => Call::Write(*v, *val),
                None if abort => Call::Abort,
                None => Call::Commit,
            },
        }
    }

    /// Emit the next operation's invocation, or finish.
    fn invoke(&mut self) -> Step {
        let Some(call) = self.next_call() else {
            return Step::Done;
        };
        if call == Call::Start {
            self.skip = false;
            self.cx.readset.clear();
            self.cx.writeset.clear();
            self.cx.locks.clear();
            self.cx.shared.clear();
        }
        self.call = Some(call);
        self.pc = Pc::default();
        Step::Inv(call.op(0))
    }

    /// Close `call`, which returned `ret`, move the program on, and
    /// return the response's operation.
    fn respond(&mut self, call: Call, ret: Val) -> Op {
        match call {
            Call::Guard(_, expect) => self.skip = ret != expect,
            Call::Write(var, val) => match self.cx.writeset.iter_mut().find(|e| e.0 == var) {
                Some(e) => e.1 = val,
                None => self.cx.writeset.push((var, val)),
            },
            Call::Commit if ret == ABORTED => {
                // The commit answers abort, and the transaction reruns.
                self.k = 0;
                return Op::Abort;
            }
            _ => {}
        }
        if call.ends_statement() {
            self.stmt += 1;
            self.k = 0;
        } else {
            self.k += 1;
        }
        call.op(ret)
    }
}

impl<P: Protocol> Clone for Driver<P> {
    fn clone(&self) -> Self {
        Driver {
            stmts: Arc::clone(&self.stmts),
            cx: self.cx.clone(),
            ..*self
        }
    }

    /// Copies into the context vectors `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        let mut cx = std::mem::replace(&mut self.cx, Ctx::new(src.cx.pid));
        cx.clone_from(&src.cx);
        *self = Driver {
            stmts: Arc::clone(&src.stmts),
            cx,
            ..*src
        };
    }
}

impl<P: Protocol> Process for Driver<P> {
    fn boxed_clone(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn clone_onto(&self, dst: &mut Box<dyn Process>) {
        process::clone_onto(self, dst)
    }

    fn next(&mut self, last: Resume) -> Step {
        let Some(call) = self.call else {
            return self.invoke();
        };
        if self.issued {
            self.pc.last = last.expect(RESUMED_WITH_RESULT);
        }
        let (tm, cx, pc) = (self.tm, &mut self.cx, &mut self.pc);
        let next = match call {
            Call::Start => tm.start(cx, pc),
            Call::Read(var) | Call::Guard(var, _) => match cx.buffered(var) {
                Some(val) => Next::Ret(val),
                None => tm.read(cx, pc, var),
            },
            Call::Write(var, _) => tm.write(cx, pc, var),
            Call::Commit => tm.commit(cx, pc),
            Call::Abort => tm.abort(cx, pc),
            Call::NtRead(var) => tm.nt_read(cx, pc, var),
            Call::NtWrite(var, val) => tm.nt_write(cx, pc, var, val),
        };
        self.issued = matches!(next, Next::Issue(_));
        match next {
            Next::Issue(instr) => Step::Instr(instr),
            Next::Ret(ret) => {
                self.call = None;
                Step::Resp(self.respond(call, ret))
            }
        }
    }
}
