//! Running `jungle-mc` programs on the *real* STMs with OS threads.
//!
//! `run_once` executes a [`Program`] once and returns each thread's
//! read results; [`sample_outcomes`] repeats it to approximate the set
//! of reachable outcomes (each iteration on a fresh STM instance);
//! [`run_recorded`] additionally taps the execution and returns its
//! trace for the `jungle-core` checkers.

use jungle_core::ids::ProcId;
use jungle_isa::trace::Trace;
use jungle_mc::program::{Program, Stmt, TxOp};
use jungle_stm::api::{atomically, Aborted, Ctx, TmAlgo, Tx};
use jungle_stm::{tap, Backpressure, StmTap};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

/// One thread's observable result: the values of its reads (inside
/// committed transactions and non-transactional), in program order.
type ThreadReads = Vec<u64>;

/// Run `ops` inside a transaction, pushing what the reads return.
fn run_ops(tx: &mut Tx<'_>, ops: &[TxOp], reads: &mut ThreadReads) -> Result<(), Aborted> {
    for op in ops {
        match op {
            TxOp::Read(v) => reads.push(tx.read(v.0 as usize)?),
            TxOp::Write(v, val) => tx.write(v.0 as usize, *val)?,
        }
    }
    Ok(())
}

/// Execute one thread's program against the STM. Committing
/// transactions retry on abort (through [`atomically`], so only the
/// successful attempt's reads count); aborting transactions run their
/// ops once and abort.
fn run_thread(tm: &dyn TmAlgo, cx: &mut Ctx, prog: &[Stmt]) -> ThreadReads {
    let mut reads = Vec::new();
    for stmt in prog {
        match stmt {
            Stmt::NtRead(v) => reads.push(tm.nt_read(cx, v.0 as usize)),
            Stmt::NtWrite(v, val) => tm.nt_write(cx, v.0 as usize, *val),
            Stmt::TxnGuard { guard, expect, ops } => {
                // Read the guard; run the body only when it matches;
                // commit either way.
                reads.extend(atomically(tm, cx, |tx| {
                    let mut attempt = vec![tx.read(guard.0 as usize)?];
                    if attempt[0] == *expect {
                        run_ops(tx, ops, &mut attempt)?;
                    }
                    Ok(attempt)
                }));
            }
            Stmt::Txn { ops, abort: true } => {
                // Must not retry: straight trait calls, and the abort
                // closes the transaction whether or not an operation
                // already aborted it.
                tm.txn_start(cx);
                for op in ops {
                    let res = match op {
                        TxOp::Read(v) => tm.txn_read(cx, v.0 as usize).map(|_| ()),
                        TxOp::Write(v, val) => tm.txn_write(cx, v.0 as usize, *val),
                    };
                    if res.is_err() {
                        break;
                    }
                }
                tm.txn_abort(cx);
            }
            Stmt::Txn { ops, abort: false } => {
                reads.extend(atomically(tm, cx, |tx| {
                    let mut attempt = Vec::new();
                    run_ops(tx, ops, &mut attempt)?;
                    Ok(attempt)
                }));
            }
        }
    }
    reads
}

/// Run the program once on `tm`, one OS thread per program thread,
/// released simultaneously by a barrier.
fn run_once<A: TmAlgo + Send + Sync + 'static>(
    program: &Program,
    tm: &Arc<A>,
    tap: Option<Arc<StmTap>>,
) -> Vec<ThreadReads> {
    let n = program.n_threads();
    let barrier = Arc::new(Barrier::new(n));
    let mut joins = Vec::with_capacity(n);
    for (i, t) in program.0.iter().enumerate() {
        let tm = tm.clone();
        let stmts = t.0.clone();
        let barrier = barrier.clone();
        let tap = tap.clone();
        joins.push(std::thread::spawn(move || {
            let mut cx = Ctx::new(ProcId(i as u32), tap);
            barrier.wait();
            run_thread(tm.as_ref(), &mut cx, &stmts)
        }));
    }
    joins
        .into_iter()
        .map(|j| j.join().expect("program thread panicked"))
        .collect()
}

/// Run the program `iters` times (fresh STM each time) and count the
/// distinct outcomes.
pub fn sample_outcomes<A: TmAlgo + Send + Sync + 'static>(
    program: &Program,
    mk_tm: impl Fn() -> A,
    iters: usize,
) -> BTreeMap<Vec<ThreadReads>, usize> {
    let mut counts = BTreeMap::new();
    for _ in 0..iters {
        let tm = Arc::new(mk_tm());
        let out = run_once(program, &tm, None);
        *counts.entry(out).or_insert(0) += 1;
    }
    counts
}

/// Run the program once with a blocking tap attached, drained by a
/// consumer thread until the run is over; returns the outcome and the
/// tap's trace ([`tap::trace_of`]).
pub fn run_recorded<A: TmAlgo + Send + Sync + 'static>(
    program: &Program,
    mk_tm: impl Fn() -> A,
) -> (Vec<ThreadReads>, Trace) {
    let tm = Arc::new(mk_tm());
    let tap = Arc::new(StmTap::new(1 << 10, Backpressure::Block));
    let consumer = {
        let tap = tap.clone();
        std::thread::spawn(move || {
            let mut events = Vec::new();
            tap.consume(|batch, _| events.extend_from_slice(batch));
            events
        })
    };
    let out = run_once(program, &tm, Some(tap.clone()));
    tap.close();
    let events = consumer.join().expect("recording consumer");
    let trace = tap::trace_of(&events).expect("recorded trace is well-formed");
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::fig1_program;
    use jungle_stm::{GlobalLockStm, StrongStm};

    #[test]
    fn fig1_on_strong_stm_never_shows_anomaly() {
        // The strong-atomicity STM forbids r1=1 ∧ r2=0 (it is opaque
        // parametrized by SC).
        let program = fig1_program();
        let outcomes = sample_outcomes(&program, || StrongStm::new(2), 300);
        for out in outcomes.keys() {
            let reads = &out[1]; // thread 2's [r1 (y), r2 (x)]
            assert!(
                !(reads[0] == 1 && reads[1] == 0),
                "strong STM exhibited the Figure 1 anomaly"
            );
        }
    }

    #[test]
    fn fig1_outcomes_are_subset_of_domain() {
        let program = fig1_program();
        let outcomes = sample_outcomes(&program, || GlobalLockStm::new(2), 100);
        for out in outcomes.keys() {
            for v in &out[1] {
                assert!(*v <= 1);
            }
        }
    }

    #[test]
    fn recorded_run_produces_complete_trace() {
        let program = fig1_program();
        let (_, trace) = run_recorded(&program, || GlobalLockStm::new(2));
        // 4 ops in the txn thread (start, 2 writes, commit) + 2 reads.
        assert_eq!(trace.ops().len(), 6);
        assert!(trace.ops().iter().all(|o| o.complete));
    }
}
