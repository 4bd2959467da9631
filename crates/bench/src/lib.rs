//! # jungle-bench — the report harness
//!
//! The paper's "evaluation" consists of (a) the verdicts of its figures
//! and theorems, which the `report` binary regenerates as one table in
//! one pass — every experiment runs exactly once — and (b) the
//! practical claim of §6.1, that parametrizing correctness by a weaker
//! memory model lets a TM shed non-transactional instrumentation.
//!
//! This crate times nothing. Every measurement — the §6.1 per-operation
//! costs, checker and sweep latencies, monitor throughput, the cold
//! `report` run itself — is taken from outside by the standalone
//! `benchmark/` package (`benchmark/run.sh`, metrics declared in
//! `BENCHMARK.json`); EXPERIMENTS.md maps each experiment of DESIGN.md
//! (E1–E5, F1–F5, T3, M1) to its metric there.

#![warn(missing_docs)]

use jungle_stm::api::TmAlgo;
use jungle_stm::{GlobalLockStm, StrongStm, Tl2Stm, VersionedStm, WriteTxnStm};

/// Every STM under test, freshly constructed over `n_vars` variables,
/// in presentation order.
pub fn all_stms(n_vars: usize) -> Vec<Box<dyn TmAlgo + Send + Sync>> {
    vec![
        Box::new(GlobalLockStm::new(n_vars)),
        Box::new(WriteTxnStm::new(n_vars)),
        Box::new(VersionedStm::new(n_vars)),
        Box::new(StrongStm::new(n_vars)),
        Box::new(StrongStm::new_optimized(n_vars)),
        Box::new(Tl2Stm::new(n_vars)),
    ]
}
