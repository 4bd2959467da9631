//! Property: on single-threaded programs, every STM implements the same
//! sequential semantics — a simple reference interpreter. (Concurrency
//! differentiates them; sequential behaviour must not.) And whoever is
//! watching sees exactly that: with a tap attached, the tap stream and
//! the history of its trace are the script's operations, one for one,
//! with the values the reference predicts.
//!
//! And every real STM is tied to its model in `jungle-mc`, the copy the
//! theorems are checked on: both declare the same §4 instrumentation
//! class, and the model's instruction counts obey it. The three Figure 6
//! pairs read both off one `jungle_isa::tm` declaration.

use jungle::isa::tm::{Fig6, Fig6Variant, Instrumentation};
use jungle::mc::algos::TmAlgo as ModelTm;
use jungle::mc::program::{Stmt, ThreadProg, TxOp};
use jungle::mc::{cost, GlobalLockTm, LazyTl2Tm, StrongTm, VersionedTm, WriteTxnTm};
use jungle::stm::api::{Ctx, TmAlgo};
use jungle::stm::tap::trace_of;
use jungle::stm::{
    all_stms, Backpressure, Fig6Stm, GlobalLockStm, StmTap, TapOp, VersionedStm, WriteTxnStm,
};
use jungle_core::ids::{ProcId, Val, Var};
use jungle_core::op::{Command, Op};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const VARS: u32 = 4;

#[derive(Clone, Debug)]
enum Act {
    NtRead(u8),
    NtWrite(u8, u8),
    Txn(Vec<(bool, u8, u8)>, bool), // ops (is_read, var, val), abort?
}

fn rd_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Read { var, val })
}

fn wr_op(var: Var, val: Val) -> Op {
    Op::Cmd(Command::Write { var, val })
}

fn act_strategy() -> impl Strategy<Value = Act> {
    prop_oneof![
        (0..VARS as u8).prop_map(Act::NtRead),
        (0..VARS as u8, 1..50u8).prop_map(|(v, x)| Act::NtWrite(v, x)),
        (
            prop::collection::vec((any::<bool>(), 0..VARS as u8, 1..50u8), 1..4),
            prop::bool::weighted(0.25)
        )
            .prop_map(|(ops, abort)| Act::Txn(ops, abort)),
    ]
}

/// Reference semantics: a flat map, transactions are just grouped ops
/// (aborting transactions discard their writes). Returns the reads of
/// non-transactional code and committed transactions, and every
/// operation of the script — aborting transactions included — with the
/// value it must observe.
fn reference(acts: &[Act]) -> (Vec<Val>, Vec<Op>) {
    let mut mem: HashMap<u8, Val> = HashMap::new();
    let mut reads = Vec::new();
    let mut ops = Vec::new();
    let var = |v: &u8| Var(u32::from(*v));
    for a in acts {
        match a {
            Act::NtRead(v) => {
                let val = mem.get(v).copied().unwrap_or(0);
                reads.push(val);
                ops.push(rd_op(var(v), val));
            }
            Act::NtWrite(v, x) => {
                mem.insert(*v, Val::from(*x));
                ops.push(wr_op(var(v), Val::from(*x)));
            }
            Act::Txn(txn_ops, abort) => {
                let mut local = mem.clone();
                let mut txn_reads = Vec::new();
                ops.push(Op::Start);
                for (is_read, v, x) in txn_ops {
                    if *is_read {
                        let val = local.get(v).copied().unwrap_or(0);
                        txn_reads.push(val);
                        ops.push(rd_op(var(v), val));
                    } else {
                        local.insert(*v, Val::from(*x));
                        ops.push(wr_op(var(v), Val::from(*x)));
                    }
                }
                if *abort {
                    ops.push(Op::Abort);
                } else {
                    mem = local;
                    reads.extend(txn_reads);
                    ops.push(Op::Commit);
                }
            }
        }
    }
    (reads, ops)
}

/// What the tap must carry for `ops`: a transactional operation as one
/// event, commits ticketed in order; a non-transactional one as its
/// invocation and its response.
fn tap_stream(ops: &[Op]) -> Vec<TapOp> {
    let mut out = Vec::new();
    let (mut in_txn, mut ticket) = (false, 0);
    for op in ops {
        let (read, var, val) = match op {
            Op::Start => {
                in_txn = true;
                out.push(TapOp::Begin);
                continue;
            }
            Op::Commit => {
                in_txn = false;
                out.push(TapOp::Commit { ticket });
                ticket += 1;
                continue;
            }
            Op::Abort => {
                in_txn = false;
                out.push(TapOp::Abort);
                continue;
            }
            Op::Cmd(Command::Read { var, val }) => (true, var, *val),
            Op::Cmd(Command::Write { var, val }) => (false, var, *val),
            Op::Cmd(c) => unreachable!("the reference issues no {c:?}"),
        };
        let var = u64::from(var.0);
        out.push(match (in_txn, read) {
            (true, true) => TapOp::Read { var, val },
            (true, false) => TapOp::Write { var, val },
            (false, true) => TapOp::NtRead { var, val },
            (false, false) => TapOp::NtWrite { var, val },
        });
        if !in_txn {
            out.insert(out.len() - 1, TapOp::NtInvoke);
        }
    }
    out
}

/// Convert to the mc DSL and run on a real STM, collecting committed
/// reads (the runner's convention).
fn run_on(tm: &dyn TmAlgo, cx: &mut Ctx, acts: &[Act]) -> Vec<Val> {
    let stmts: Vec<Stmt> = acts
        .iter()
        .map(|a| match a {
            Act::NtRead(v) => Stmt::NtRead(Var(u32::from(*v))),
            Act::NtWrite(v, x) => Stmt::NtWrite(Var(u32::from(*v)), Val::from(*x)),
            Act::Txn(ops, abort) => {
                let ops = ops
                    .iter()
                    .map(|(is_read, v, x)| {
                        if *is_read {
                            TxOp::Read(Var(u32::from(*v)))
                        } else {
                            TxOp::Write(Var(u32::from(*v)), Val::from(*x))
                        }
                    })
                    .collect();
                if *abort {
                    Stmt::aborting_txn(ops)
                } else {
                    Stmt::txn(ops)
                }
            }
        })
        .collect();
    let prog = ThreadProg(stmts);

    // Single-threaded direct execution (no scheduler involved).
    let mut reads = Vec::new();
    for stmt in &prog.0 {
        match stmt {
            Stmt::NtRead(v) => reads.push(tm.nt_read(cx, v.0 as usize)),
            Stmt::NtWrite(v, val) => tm.nt_write(cx, v.0 as usize, *val),
            Stmt::Txn { ops, abort } => {
                tm.txn_start(cx);
                let mut txn_reads = Vec::new();
                for op in ops {
                    match op {
                        TxOp::Read(v) => txn_reads.push(tm.txn_read(cx, v.0 as usize).unwrap()),
                        TxOp::Write(v, val) => tm.txn_write(cx, v.0 as usize, *val).unwrap(),
                    }
                }
                if *abort {
                    tm.txn_abort(cx);
                } else {
                    tm.txn_commit(cx).unwrap();
                    reads.extend(txn_reads);
                }
            }
            Stmt::TxnGuard { .. } => unreachable!(),
        }
    }
    reads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_stms_agree_with_reference_single_threaded(
        acts in prop::collection::vec(act_strategy(), 0..12)
    ) {
        let (expected, expected_ops) = reference(&acts);
        for tm in &all_stms(VARS as usize) {
            let got = run_on(tm.as_ref(), &mut Ctx::new(ProcId(0), None), &acts);
            prop_assert_eq!(
                &got,
                &expected,
                "{} diverged from reference on {:?}",
                tm.name(),
                acts
            );
        }
        // The same scripts on fresh STMs, tapped.
        for tm in &all_stms(VARS as usize) {
            let tap = Arc::new(StmTap::new(256, Backpressure::Block));
            let mut cx = Ctx::new(ProcId(0), Some(tap.clone()));
            let got = run_on(tm.as_ref(), &mut cx, &acts);
            prop_assert_eq!(&got, &expected, "{} diverged when tapped", tm.name());
            let mut evs = Vec::new();
            tap.drain_into(&mut evs, usize::MAX);
            let tapped: Vec<TapOp> = evs.iter().map(|e| e.op).collect();
            prop_assert_eq!(
                &tapped,
                &tap_stream(&expected_ops),
                "{} tapped a different stream on {:?}",
                tm.name(),
                acts
            );
            let h = trace_of(&evs)
                .and_then(|t| t.canonical_history())
                .expect("tapped history is well-formed");
            let ops: Vec<Op> = h.ops().iter().map(|o| o.op.clone()).collect();
            prop_assert_eq!(
                &ops,
                &expected_ops,
                "{} tapped a different history on {:?}",
                tm.name(),
                acts
            );
        }
    }
}

/// The six TMs that exist twice, in [`all_stms`]'s order: the model
/// `jungle-mc` checks the theorems on.
fn models() -> [&'static dyn ModelTm; 6] {
    static STRONG: StrongTm = StrongTm::new();
    static STRONG_OPT: StrongTm = StrongTm::optimized();
    [
        &GlobalLockTm,
        &WriteTxnTm,
        &VersionedTm,
        &STRONG,
        &STRONG_OPT,
        &LazyTl2Tm,
    ]
}

/// The `jungle_isa::tm` declaration a real Figure 6 STM is built from.
fn declaration<V: Fig6>(_: &Fig6Stm<V>) -> Fig6Variant {
    V::VARIANT
}

#[test]
fn each_model_tm_pairs_with_its_real_stm() {
    // The first three pairs are Figure 6's variants: both sides read
    // their name and class off one declaration.
    let fig6 = [
        declaration(&GlobalLockStm::new(1)),
        declaration(&WriteTxnStm::new(1)),
        declaration(&VersionedStm::new(1)),
    ];
    for (i, (model, real)) in models()
        .into_iter()
        .zip(all_stms(VARS as usize))
        .enumerate()
    {
        let class = model.instrumentation();
        if let Some(decl) = fig6.get(i) {
            for (name, class) in [(model.name(), class), (real.name(), real.instrumentation())] {
                assert_eq!((name, class), (decl.name, decl.class()), "pair {i}");
            }
        }
        assert_eq!(
            model.name().trim_start_matches("lazy-"),
            real.name(),
            "pairs line up"
        );
        assert_eq!(class, real.instrumentation(), "{}", model.name());
        // The model's instruction counts on the cost program obey the
        // class both declare.
        let c = cost::measure(model);
        let (rd, wr) = (c.nt_read.max_instrs, c.nt_write.max_instrs);
        let obeys = match class {
            Instrumentation::Uninstrumented => rd == 1 && wr == 1,
            Instrumentation::ConstantTimeWrites { bound } => rd == 1 && wr <= bound,
            Instrumentation::UnboundedWrites => rd == 1 && wr > 1,
            Instrumentation::Full => rd > 1 && wr > 1,
        };
        assert!(
            obeys,
            "{}: nt-read {rd} and nt-write {wr} instructions break \"{class}\"",
            model.name()
        );
    }
}
