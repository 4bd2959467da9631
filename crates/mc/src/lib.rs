//! # jungle-mc — model checking TM algorithms on simulated hardware
//!
//! This crate closes the loop between the paper's formal results (§5)
//! and executable code: it implements the TM algorithms the paper
//! constructs — each as a protocol of seven resumable operations, run
//! by one driver as a reactive [`Process`](jungle_memsim::Process) on
//! the `jungle-memsim` multiprocessor (see [`algos`]) — runs them under
//! exhaustive or randomized schedules, extracts the recorded traces, and
//! decides with the `jungle-core` checkers whether **some corresponding
//! history** satisfies parametrized opacity (or SGLA) — exactly the
//! paper's definition of a TM implementation guaranteeing the property.
//!
//! The bundled algorithms:
//!
//! * [`algos::GlobalLockTm`] — Figure 6: the uninstrumented global-lock
//!   TM (Theorem 3: parametrized opacity for fully relaxed models;
//!   Theorem 7: SGLA for *every* model).
//! * [`algos::WriteTxnTm`] — Theorem 4: non-transactional writes become
//!   single-operation transactions; reads stay uninstrumented.
//! * [`algos::VersionedTm`] — Theorem 5: constant-time write
//!   instrumentation via per-process version numbers packed into the
//!   data word; reads stay plain loads.
//! * [`algos::NaiveStoreTm`] — a deliberately *wrong* uninstrumented TM
//!   that updates with plain stores, violating the necessity argument of
//!   Theorem 2.
//! * [`algos::SkipWriteTm`] — a deliberately wrong TM that never
//!   publishes transactional writes, violating Lemma 1.
//! * [`algos::StrongTm`] — §6.1's strong-atomicity TM (per-variable
//!   records; [`StrongTm::optimized`](algos::StrongTm::optimized) leaves
//!   non-transactional reads plain).
//! * [`algos::LazyTl2Tm`] — a lazy TL2-style TM, weakly atomic: the §1
//!   privatization exhibit.
//!
//! The [`theorems`] module packages each of the paper's results as a
//! checkable experiment; `tests/theorems.rs` at the workspace root runs
//! them all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod cost;
pub mod dpor;
pub mod explain;
pub mod layout;
pub mod program;
pub mod theorems;
pub mod verify;

pub use algos::{
    GlobalLockTm, LazyTl2Tm, NaiveStoreTm, SkipWriteTm, StrongTm, TmAlgo, VersionedTm, WriteTxnTm,
};
pub use dpor::explore_dpor;
pub use explain::{explain_trace, Explanation};
pub use jungle_core::registry::{entry, registry, ExecSemantics, ModelEntry, StoreDiscipline};
pub use program::{Program, Stmt, ThreadProg, TxOp};
pub use theorems::{experiment_by_id, experiment_ids, thm1_suite, Experiment};
pub use verify::{
    check_all_traces, machine_for, scheduler_for_seed, trace_satisfies, CheckKind, Counterexample,
    MemoLoad, Schedules, SeedScheduler, SharedVerdictMemo, Sweep, SweepSeeds, Verdict,
};
