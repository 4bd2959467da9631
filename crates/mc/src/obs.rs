//! Deriving TM runtime counters from model-checker traces.
//!
//! The interpreted TM algorithms run inside the simulator, so their
//! runtime behaviour is fully visible in the recorded traces: commit
//! and abort responses, CAS outcomes, global-lock traffic (by
//! address), and the instruction footprint of every operation. This
//! module folds a trace into the same [`TmSnapshot`] shape the real
//! STMs report, so `jungle-bench` can put interpreted and native
//! executions side by side.

use crate::layout::GLOBAL_LOCK;
use jungle_core::ids::{OpId, ProcId};
use jungle_core::op::Op;
use jungle_isa::instr::Instr;
use jungle_isa::tm::LOCK_FREE;
use jungle_isa::trace::Trace;
use jungle_obs::TmSnapshot;
use std::collections::HashMap;

/// Classify every instruction and operation of `trace` into TM runtime
/// counters.
///
/// Conventions:
///
/// * `commits`/`aborts` count completed `commit`/`abort` operations.
/// * `cas_failures` counts every CAS that returned false.
/// * `lock_acquisitions` counts successful CASes that moved the global
///   lock away from [`LOCK_FREE`]; `lock_spins` counts reads of the
///   lock word and failed CASes on it.
/// * A non-transactional command is **uninstrumented** when it executed
///   at most one memory instruction (the bare access), and
///   **instrumented** otherwise — the paper's Table 1 distinction,
///   recovered from the trace.
pub fn tm_counts_from_trace(trace: &Trace) -> TmSnapshot {
    let mut snap = TmSnapshot::default();

    // Memory-instruction footprint of each operation.
    let mut footprint: HashMap<(ProcId, OpId), u64> = HashMap::new();
    for ii in trace.instrs() {
        match ii.instr {
            Instr::Load { addr, .. } => {
                *footprint.entry((ii.proc, ii.op)).or_insert(0) += 1;
                if addr == GLOBAL_LOCK {
                    snap.lock_spins += 1;
                }
            }
            Instr::Store { .. } => {
                *footprint.entry((ii.proc, ii.op)).or_insert(0) += 1;
            }
            Instr::Cas { addr, new, ok, .. } => {
                *footprint.entry((ii.proc, ii.op)).or_insert(0) += 1;
                if !ok {
                    snap.cas_failures += 1;
                }
                if addr == GLOBAL_LOCK {
                    if ok && new != LOCK_FREE {
                        snap.lock_acquisitions += 1;
                    } else if !ok {
                        snap.lock_spins += 1;
                    }
                }
            }
            Instr::Inv(_) | Instr::Resp(_) => {}
        }
    }

    // Operation-level classification, tracking per-process txn state.
    let mut in_txn: HashMap<ProcId, bool> = HashMap::new();
    for top in trace.ops() {
        let inside = in_txn.entry(top.proc).or_insert(false);
        match &top.op {
            Op::Start => *inside = true,
            Op::Commit => {
                if top.complete {
                    snap.commits += 1;
                }
                *inside = false;
            }
            Op::Abort => {
                if top.complete {
                    snap.aborts += 1;
                }
                *inside = false;
            }
            Op::Cmd(cmd) => {
                if *inside {
                    if cmd.is_write() {
                        snap.txn_writes += 1;
                    } else {
                        snap.txn_reads += 1;
                    }
                } else {
                    let n = footprint.get(&(top.proc, top.id)).copied().unwrap_or(0);
                    if n > 1 {
                        snap.nontxn_instrumented += 1;
                    } else {
                        snap.nontxn_uninstrumented += 1;
                    }
                }
            }
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::X;
    use jungle_core::op::Command;
    use jungle_isa::tm::lock_owner;
    use jungle_isa::trace::TraceBuilder;

    fn rd(val: u64) -> Op {
        Op::Cmd(Command::Read { var: X, val })
    }

    fn wr(val: u64) -> Op {
        Op::Cmd(Command::Write { var: X, val })
    }

    #[test]
    fn classifies_txn_and_nontxn_ops() {
        let p = ProcId(0);
        let mut b = TraceBuilder::new();
        // Txn: start (acquire lock), write in place, commit (release).
        b.complete_op(
            p,
            Op::Start,
            vec![
                Instr::Cas {
                    addr: GLOBAL_LOCK,
                    expect: LOCK_FREE,
                    new: lock_owner(p),
                    ok: false,
                },
                Instr::Load {
                    addr: GLOBAL_LOCK,
                    val: lock_owner(ProcId(1)),
                },
                Instr::Cas {
                    addr: GLOBAL_LOCK,
                    expect: LOCK_FREE,
                    new: lock_owner(p),
                    ok: true,
                },
            ],
        );
        b.complete_op(p, wr(5), vec![Instr::Store { addr: 0, val: 5 }]);
        b.complete_op(
            p,
            Op::Commit,
            vec![Instr::Store {
                addr: GLOBAL_LOCK,
                val: LOCK_FREE,
            }],
        );
        // Uninstrumented non-txn read (single bare load).
        b.complete_op(p, rd(5), vec![Instr::Load { addr: 0, val: 5 }]);
        // Instrumented non-txn read (lock check + load).
        b.complete_op(
            p,
            rd(5),
            vec![
                Instr::Load {
                    addr: GLOBAL_LOCK,
                    val: LOCK_FREE,
                },
                Instr::Load { addr: 0, val: 5 },
            ],
        );
        let snap = tm_counts_from_trace(&b.build().unwrap());
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts, 0);
        assert_eq!(snap.cas_failures, 1);
        assert_eq!(snap.lock_acquisitions, 1);
        assert_eq!(snap.lock_spins, 3); // failed CAS + 2 lock-word loads
        assert_eq!(snap.txn_writes, 1);
        assert_eq!(snap.txn_reads, 0);
        assert_eq!(snap.nontxn_uninstrumented, 1);
        assert_eq!(snap.nontxn_instrumented, 1);
    }

    #[test]
    fn abort_counted() {
        let p = ProcId(0);
        let mut b = TraceBuilder::new();
        b.complete_op(p, Op::Start, vec![]);
        b.complete_op(p, rd(0), vec![Instr::Load { addr: 0, val: 0 }]);
        b.complete_op(p, Op::Abort, vec![]);
        let snap = tm_counts_from_trace(&b.build().unwrap());
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.commits, 0);
        assert_eq!(snap.txn_reads, 1);
    }
}
