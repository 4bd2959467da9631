//! # jungle-stm — executable software transactional memories
//!
//! Where `jungle-mc` runs the paper's TM algorithms on a simulated
//! multiprocessor, this crate runs them *for real*: six STMs over a
//! shared heap of `AtomicU64` cells, exercised by actual threads. The
//! implementations are algorithms only, observed from one place, the
//! [`TmAlgo`] methods in [`api`], through one channel: an optional
//! [`tap::StmTap`] that publishes every operation, transactional or
//! not, into a bounded ring. Its consumer is the `jungle-monitor`
//! crate's streaming checker, or a recording that [`tap::trace_of`]
//! turns into a trace for the offline opacity/SGLA checkers. What the
//! STMs share with the models in `jungle-mc` is declared once in
//! [`jungle_isa::tm`]: Figure 6's three variants and the word formats
//! (lock word, packed word, record, version lock). The implementations
//! reproduce the paper's design points:
//!
//! | STM | paper artifact | non-txn reads | non-txn writes |
//! |---|---|---|---|
//! | [`GlobalLockStm`] | Fig. 6 / Thm 3, 7 | plain load | plain store |
//! | [`WriteTxnStm`] | Thm 4 | plain load | lock + store + unlock |
//! | [`VersionedStm`] | Thm 5 | plain load | single packed store |
//! | [`StrongStm`] | §6.1 (Shpeisman et al.) | record check | ownership acquisition |
//! | [`StrongStm::new_optimized`] | §6.1, read-optimized | plain load | ownership acquisition |
//! | [`Tl2Stm`] | baseline weak-atomicity STM | plain load (**unsafe mix**) | plain store (**unsafe mix**) |
//!
//! The first three are one generic [`Fig6Stm`], whose type parameter
//! picks the non-transactional write at compile time. [`all_stms`]
//! builds the six in this order. All implement the object-safe
//! [`TmAlgo`] trait over word variables; user code goes through
//! [`atomically`] (retry-on-abort), a [`Ctx`] per thread, and
//! [`TmAlgo::nt_read`] / [`TmAlgo::nt_write`] outside transactions:
//!
//! ```
//! use jungle_stm::{atomically, Ctx, GlobalLockStm, TmAlgo};
//! use jungle_core::ids::ProcId;
//!
//! let tm = GlobalLockStm::new(2);
//! let mut cx = Ctx::new(ProcId(0), None);
//! let old = atomically(&tm, &mut cx, |tx| {
//!     let v = tx.read(0)?;
//!     tx.write(0, v + 100)?;
//!     Ok(v)
//! });
//! assert_eq!((old, tm.nt_read(&mut cx, 0)), (0, 100));
//! ```
//!
//! How often a run committed, aborted or lost a CAS is read off
//! [`Ctx::commits`] / [`Ctx::aborts`] and the flight recorder's `Txn*` /
//! `StmCasFail` events; the per-operation instruction costs in `report`
//! are measured on the model TMs of `jungle-mc`.
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
pub mod strong;
pub mod tap;
pub mod tl2;

pub use api::{atomically, Aborted, Ctx, TmAlgo, Tx};
pub use cell::Heap;
pub use global_lock::{Fig6Stm, GlobalLockStm, VersionedStm, WriteTxnStm};
pub use jungle_obs::ring::Backpressure;
pub use strong::StrongStm;
pub use tap::{StmTap, TapEvent, TapOp};
pub use tl2::Tl2Stm;

/// The six STMs, each over `n_vars` variables, in the order of the
/// table above.
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
