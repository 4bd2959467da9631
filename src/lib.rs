//! # jungle — *Transactions in the Jungle*, reproduced in Rust
//!
//! Umbrella crate over the workspace reproducing Guerraoui, Henzinger,
//! Kapalka & Singh, *"Transactions in the Jungle"* (SPAA 2010): the
//! formal theory of **parametrized opacity** — transactional-memory
//! correctness parametrized by the memory model governing
//! non-transactional accesses — together with every system needed to
//! exercise it end to end.
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`core`] | `jungle-core` | histories, memory models (SC/TSO/PSO/RMO/Alpha/Junk-SC/…), the `Mrr`/`Mrw`/`Mwr`/`Mww` classification, and exact checkers for parametrized opacity (§3.3) and SGLA (§6.2) |
//! | [`isa`] | `jungle-isa` | `load`/`store`/`cas` instructions, traces, trace↔history correspondence, instrumentation taxonomy (§4), and what the two executors of each TM share: Figure 6's three variants and the TM word formats |
//! | [`memsim`] | `jungle-memsim` | the simulated multiprocessor, one execution discipline per memory-model registry entry (eight: SC, TSO, TSO+fwd, PSO, RMO, Alpha, Relaxed, Junk-SC), with directed, random, bursty and exhaustive schedulers |
//! | [`mc`] | `jungle-mc` | the paper's TM algorithms as protocols run by one driver on the simulator + every lemma/theorem as a checkable experiment (§5) |
//! | [`replay`] | `jungle-replay` | deterministic schedule record/replay (portable `ScheduleLog`, divergence detection) and delta-debugging counterexample shrinking |
//! | [`stm`] | `jungle-stm` | six executable STMs over real atomics with online trace recording; Figure 6's three are one generic `Fig6Stm` over the variants [`isa::tm`] declares for both executors |
//! | [`litmus`] | `jungle-litmus` | the figures as litmus tests, workload generators, real-STM program runner |
//!
//! ## Entry points
//!
//! * Check a history:
//!   [`core::opacity::check_opacity`] /
//!   [`core::sgla::check_sgla`].
//! * Run a theorem experiment:
//!   [`mc::theorems`].
//! * Use an STM from application code: one [`stm::Ctx`] per thread,
//!   [`stm::atomically`] for transactions and the [`stm::TmAlgo`]
//!   methods outside them, on the word variables of any STM (e.g.
//!   [`stm::StrongStm`]).
//! * Regenerate the paper: `cargo run --release -p jungle-bench --bin
//!   report`, and the examples (`quickstart`, `litmus_explorer`,
//!   `privatization`, `check_history`, `model_checker`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use jungle_core as core;
pub use jungle_isa as isa;
pub use jungle_litmus as litmus;
pub use jungle_mc as mc;
pub use jungle_memsim as memsim;
pub use jungle_replay as replay;
pub use jungle_stm as stm;

/// The README's Rust blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
