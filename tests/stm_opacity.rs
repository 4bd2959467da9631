//! Integration: the *real* STMs, checked online.
//!
//! Each test runs a small concurrent program on an executable STM with
//! a tap attached, then asks the paper's question of the tap's trace:
//! does **some corresponding history** satisfy the property the STM
//! claims? (This is exactly the definition of a TM implementation
//! guaranteeing opacity/SGLA parametrized by a model.)

use jungle::core::model::{Alpha, Relaxed, Sc};
use jungle::litmus::programs::fig1_program;
use jungle::litmus::runner::run_recorded;
use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
use jungle::mc::verify::{trace_satisfies, CheckKind};
use jungle::stm::tap::trace_of;
use jungle::stm::{
    all_stms, atomically, Aborted, Backpressure, Ctx, GlobalLockStm, StmTap, StrongStm, Tl2Stm,
    TmAlgo, VersionedStm, WriteTxnStm,
};
use jungle_core::ids::{ProcId, Var, X, Y, Z};
use jungle_core::op::{Command, Op};
use std::sync::{Arc, Barrier};

fn mixed_program() -> Program {
    Program(vec![
        ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)]),
            Stmt::NtRead(Z),
        ]),
        ThreadProg(vec![Stmt::NtWrite(Z, 5), Stmt::NtRead(Y), Stmt::NtRead(X)]),
    ])
}

#[test]
fn strong_stm_executions_opaque_under_sc() {
    // The §6.1 strong-atomicity STM: opacity parametrized by SC — the
    // strongest claim in the workspace, checked on live runs.
    for i in 0..40 {
        let (_, trace) = run_recorded(&fig1_program(), || StrongStm::new(4));
        assert!(
            trace_satisfies(&trace, &Sc, CheckKind::Opacity),
            "run {i}: strong STM trace not SC-opaque"
        );
    }
    for i in 0..40 {
        let (_, trace) = run_recorded(&mixed_program(), || StrongStm::new(4));
        assert!(
            trace_satisfies(&trace, &Sc, CheckKind::Opacity),
            "run {i}: strong STM mixed trace not SC-opaque"
        );
    }
}

#[test]
fn global_lock_stm_executions_opaque_under_relaxed_and_sgla_under_sc() {
    // Theorem 3 + Theorem 7 on the real Figure 6 STM.
    for i in 0..40 {
        let (_, trace) = run_recorded(&mixed_program(), || GlobalLockStm::new(4));
        assert!(
            trace_satisfies(&trace, &Relaxed, CheckKind::Opacity),
            "run {i}: global-lock trace not Relaxed-opaque"
        );
        assert!(
            trace_satisfies(&trace, &Sc, CheckKind::Sgla),
            "run {i}: global-lock trace not SC-SGLA"
        );
    }
}

#[test]
fn versioned_stm_executions_opaque_under_alpha() {
    // Theorem 5 on the real constant-time-write STM.
    for i in 0..40 {
        let (_, trace) = run_recorded(&mixed_program(), || VersionedStm::new(4));
        assert!(
            trace_satisfies(&trace, &Alpha, CheckKind::Opacity),
            "run {i}: versioned trace not Alpha-opaque"
        );
    }
}

#[test]
fn write_txn_stm_executions_opaque_under_alpha() {
    // Theorem 4 on the real writes-as-transactions STM.
    for i in 0..40 {
        let (_, trace) = run_recorded(&mixed_program(), || WriteTxnStm::new(4));
        assert!(
            trace_satisfies(&trace, &Alpha, CheckKind::Opacity),
            "run {i}: write-txn trace not Alpha-opaque"
        );
    }
}

#[test]
fn tl2_transaction_only_executions_opaque() {
    // TL2 guarantees opacity for purely transactional programs (its
    // weakness is only in mixing).
    let program = Program(vec![
        ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Write(Y, 2)]),
            Stmt::txn(vec![TxOp::Read(X), TxOp::Read(Y)]),
        ]),
        ThreadProg(vec![Stmt::txn(vec![TxOp::Read(Y), TxOp::Write(Z, 3)])]),
    ]);
    for i in 0..40 {
        let (_, trace) = run_recorded(&program, || Tl2Stm::new(4));
        assert!(
            trace_satisfies(&trace, &Sc, CheckKind::Opacity),
            "run {i}: TL2 transactional trace not opaque"
        );
    }
}

#[test]
fn aborting_transactions_recorded_and_consistent() {
    let program = Program(vec![
        ThreadProg(vec![
            Stmt::aborting_txn(vec![TxOp::Write(X, 9)]),
            Stmt::NtRead(X),
        ]),
        ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X)])]),
    ]);
    for i in 0..30 {
        let (out, trace) = run_recorded(&program, || GlobalLockStm::new(2));
        // The aborted write is never visible.
        assert_eq!(out[0], vec![0], "aborted write leaked on run {i}");
        assert!(
            trace_satisfies(&trace, &Relaxed, CheckKind::Opacity),
            "run {i} not opaque"
        );
    }
}

/// How a worker drives its transactions.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// Through [`atomically`].
    Atomically,
    /// Through the [`TmAlgo`] methods, with a hand-written retry loop.
    Direct,
}

const THREADS: u32 = 3;
const TXNS: u64 = 100;

/// `TXNS` increments of variable 0 (mirrored into variable 1), yielding
/// between the read and the writes so attempts overlap; the first
/// attempt of every third transaction is aborted by the user.
fn contended_worker(tm: &dyn TmAlgo, cx: &mut Ctx, entry: Entry) {
    for i in 0..TXNS {
        let mut force_abort = i % 3 == 0;
        match entry {
            Entry::Atomically => atomically(tm, cx, |tx| {
                let v = tx.read(0)?;
                std::thread::yield_now();
                if std::mem::take(&mut force_abort) {
                    return Err(Aborted);
                }
                tx.write(0, v + 1)?;
                tx.write(1, v + 1)
            }),
            Entry::Direct => {
                for attempt in 1u32.. {
                    tm.txn_start(cx);
                    let mut body = || {
                        let v = tm.txn_read(cx, 0)?;
                        std::thread::yield_now();
                        if std::mem::take(&mut force_abort) {
                            return Err(Aborted);
                        }
                        tm.txn_write(cx, 0, v + 1)?;
                        tm.txn_write(cx, 1, v + 1)
                    };
                    match body() {
                        // A failed commit has already closed the attempt.
                        Ok(()) => {
                            if tm.txn_commit(cx).is_ok() {
                                break;
                            }
                        }
                        Err(Aborted) => tm.txn_abort(cx),
                    }
                    // `atomically`'s backoff: without it two upgrading
                    // readers of the strong STM abort each other ~200 times
                    // per commit.
                    let spins = 1u64 << attempt.min(10);
                    for _ in 0..spins + cx.next_rand() % spins {
                        std::hint::spin_loop();
                    }
                    if attempt > 10 {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
}

/// Per-process `[start, commit, abort]` counts.
type Counts = Vec<[u64; 3]>;

#[test]
fn contended_aborting_executions_are_tapped_completely() {
    // No response may go unpublished, whichever way the transactions
    // are driven: every tapped `start` is closed by a `commit` or an
    // `abort` (a commit that lost answers with `abort`), and the final
    // non-transactional read is tapped after them.
    for entry in [Entry::Atomically, Entry::Direct] {
        for tm in all_stms(2) {
            let tm: Arc<dyn TmAlgo + Send + Sync> = Arc::from(tm);
            let ctx = format!("{} via {entry:?}", tm.name());
            let tap = Arc::new(StmTap::new(1 << 10, Backpressure::Block));
            let consumer = {
                let tap = tap.clone();
                std::thread::spawn(move || {
                    let mut events = Vec::new();
                    tap.consume(|batch, _| events.extend_from_slice(batch));
                    events
                })
            };
            let barrier = Arc::new(Barrier::new(THREADS as usize));
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (tm, tap) = (tm.clone(), tap.clone());
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        let mut cx = Ctx::new(ProcId(t), Some(tap));
                        barrier.wait();
                        contended_worker(tm.as_ref(), &mut cx, entry);
                        (cx.commits, cx.aborts)
                    })
                })
                .collect();
            let by_ctx: Vec<(u64, u64)> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            let mut cx = Ctx::new(ProcId(THREADS), Some(tap.clone()));
            let total = tm.nt_read(&mut cx, 0);
            tap.close();
            let events = consumer.join().unwrap();
            assert_eq!(tap.dropped(), 0, "{ctx}: a blocking tap never drops");
            assert_eq!(total, u64::from(THREADS) * TXNS, "{ctx}: lost update");

            let h = trace_of(&events)
                .and_then(|t| t.canonical_history())
                .unwrap_or_else(|e| panic!("{ctx}: tapped history is ill-formed: {e:?}"));
            let mut tapped: Counts = vec![[0; 3]; THREADS as usize];
            for o in h.ops() {
                let slot = match o.op {
                    Op::Start => 0,
                    Op::Commit => 1,
                    Op::Abort => 2,
                    Op::Cmd(_) => continue,
                };
                tapped[o.proc.0 as usize][slot] += 1;
            }
            for (p, &[start, commit, abort]) in tapped.iter().enumerate() {
                assert_eq!(start, commit + abort, "{ctx}: p{p} left a start open");
                assert_eq!(commit, TXNS, "{ctx}: p{p} commits");
                assert!(abort >= TXNS.div_ceil(3), "{ctx}: p{p} forced aborts");
                if let Entry::Atomically = entry {
                    assert_eq!((commit, abort), by_ctx[p], "{ctx}: p{p} vs its Ctx");
                }
            }
            let last = h.ops().last().map(|o| (o.proc, o.op.clone()));
            let read = Op::Cmd(Command::Read {
                var: Var(0),
                val: total,
            });
            assert_eq!(last, Some((ProcId(THREADS), read)), "{ctx}: the final read");
        }
    }
}
