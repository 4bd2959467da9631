//! Static instrumentation-cost measurement (§4/§5, quantified).
//!
//! Runs a standard mixed workload program through each TM algorithm on
//! the simulator and reports the *instruction* cost of every operation
//! class from the recorded trace — the deterministic counterpart of the
//! wall-clock benches in `jungle-bench`. The theorems pin several cells
//! of this table exactly:
//!
//! * uninstrumented non-transactional reads and writes are **1**
//!   instruction (global-lock, versioned reads, lazy-TL2);
//! * Theorem 5's write instrumentation is **exactly 1** store;
//! * Theorem 4's write instrumentation is ≥ 3 (CAS + store + unlock)
//!   and unbounded under contention;
//! * the strong TM's non-transactional accesses cost ≥ 2 (record check
//!   + data access), its writes ≥ 4 (acquire, store, release).

use crate::algos::TmAlgo;
use crate::program::{Program, Stmt, ThreadProg, TxOp};
use jungle_core::ids::{ProcId, Var};
use jungle_isa::trace::CostStats;
use jungle_memsim::{HwModel, Machine, RandomScheduler};

/// A standard single-threaded workload touching every operation class.
pub fn standard_program() -> ThreadProg {
    let x = Var(0);
    let y = Var(1);
    ThreadProg(vec![
        Stmt::NtWrite(x, 1),
        Stmt::NtRead(x),
        Stmt::txn(vec![TxOp::Read(x), TxOp::Write(y, 2), TxOp::Read(y)]),
        Stmt::NtRead(y),
        Stmt::NtWrite(y, 3),
        Stmt::aborting_txn(vec![TxOp::Write(x, 9)]),
        Stmt::NtRead(x),
    ])
}

/// Execute the standard program single-threaded (no contention: the
/// measured costs are the algorithms' *base* instrumentation) and
/// return the per-class instruction costs.
pub fn measure(algo: &dyn TmAlgo) -> CostStats {
    let program = Program(vec![standard_program()]);
    let m = Machine::new(
        HwModel::SC,
        vec![algo.make_process(ProcId(0), program.0[0].clone())],
    );
    let mut sched = RandomScheduler::new(7);
    let r = m.run(&mut sched, 100_000);
    assert!(
        r.completed,
        "{}: standard program did not complete",
        algo.name()
    );
    r.trace.cost_stats()
}
