//! # jungle-stm — executable software transactional memories
//!
//! Where `jungle-mc` runs the paper's TM algorithms on a simulated
//! multiprocessor, this crate runs them *for real*: five STM
//! implementations over a shared heap of `AtomicU64` cells, exercised by
//! actual threads, with an optional [`recorder::Recorder`] that captures
//! the execution as a `jungle-core` history for online opacity/SGLA
//! checking, and an optional live [`tap::StmTap`] that streams every
//! transactional operation into a bounded ring for the
//! `jungle-monitor` crate. The five implementations are algorithms
//! only; both observers are driven from one place, the [`TmAlgo`]
//! methods in [`api`]. Their word formats (lock word, packed word,
//! record, version lock) are [`jungle_isa::tm`]'s, which the models in
//! `jungle-mc` share. The implementations reproduce the paper's
//! design points:
//!
//! | STM | paper artifact | non-txn reads | non-txn writes |
//! |---|---|---|---|
//! | [`GlobalLockStm`] | Fig. 6 / Thm 3, 7 | plain load | plain store |
//! | [`WriteTxnStm`] | Thm 4 | plain load | lock + store + unlock |
//! | [`VersionedStm`] | Thm 5 | plain load | single packed store |
//! | [`StrongStm`] | §6.1 (Shpeisman et al.) | record check (or plain when `optimized_reads`) | ownership acquisition |
//! | [`Tl2Stm`] | baseline weak-atomicity STM | plain load (**unsafe mix**) | plain store (**unsafe mix**) |
//!
//! All five implement the object-safe [`TmAlgo`] trait; user code goes
//! through [`atomically`] (retry-on-abort) or the typed
//! [`tvar::TVarSpace`] facade. How often a run committed, aborted or
//! lost a CAS is read off [`Ctx::commits`] / [`Ctx::aborts`] and the
//! flight recorder's `Txn*` / `StmCasFail` events; the per-operation
//! instruction costs in `report` are measured on the model TMs of
//! `jungle-mc`.
//!
//! Memory-ordering note: the implementations use `SeqCst` throughout.
//! The paper's subject is the *programmer-visible* model of
//! non-transactional operations relative to transactions, which these
//! STMs establish with their instrumentation protocols; relaxing the
//! internal orderings is an optimization orthogonal to the reproduction
//! and is deliberately not attempted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cell;
pub mod global_lock;
pub mod recorder;
pub mod strong;
pub mod tap;
pub mod tl2;
pub mod tvar;
pub mod versioned;
pub mod word;
pub mod write_txn;

pub use api::{atomically, Aborted, Ctx, TmAlgo, Tx};
pub use cell::Heap;
pub use global_lock::GlobalLockStm;
pub use recorder::Recorder;
pub use strong::StrongStm;
pub use tap::{StmTap, TapEvent, TapOp};
pub use tl2::Tl2Stm;
pub use tvar::{TVar, TVarSpace};
pub use versioned::VersionedStm;
pub use word::Word;
pub use write_txn::WriteTxnStm;
