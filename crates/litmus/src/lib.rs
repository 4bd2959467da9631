//! # jungle-litmus — the paper's figures as executable litmus tests
//!
//! Every figure of the paper is materialized here as data plus its
//! expected verdicts:
//!
//! * [`figures`] — Figures 1, 2(a–c), 3 and 4 as histories/traces with
//!   the paper's allowed/forbidden outcomes per memory model, checkable
//!   via `jungle-core` (the `litmus_explorer` example prints the whole
//!   table).
//! * [`programs`] — the same scenarios as thread programs runnable both
//!   on the `jungle-mc` simulator and on the real `jungle-stm` STMs.
//! * [`runner`] — drives the real STMs with OS threads, collecting
//!   observed outcome frequencies and (optionally) recorded traces.
//! * [`workload`] — parameterized workload generators for the
//!   `jungle-bench` experiments (read/write mixes, transaction sizes,
//!   non-transactional fractions).
//! * [`stress`] — larger generated histories (long chains, wide fully
//!   concurrent transaction sets) sized for the parallel-checker
//!   benchmarks rather than figure-level correctness checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod programs;
pub mod runner;
pub mod stress;
pub mod workload;
