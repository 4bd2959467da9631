//! # jungle-core — the formal framework of *Transactions in the Jungle*
//!
//! This crate is an executable rendition of the formal machinery of
//! Guerraoui, Henzinger, Kapalka and Singh, *"Transactions in the Jungle"*
//! (SPAA 2010): shared-memory **histories** mixing transactional and
//! non-transactional operations on read/write registers, **memory
//! models** formalized as a transformation function `τ` plus a
//! reordering function `R`, the classification of memory models by
//! the reorderings they forbid (`Mrr`, `Mrw`, `Mwr`, `Mww`), and — the
//! paper's central contribution — decision procedures for
//! **parametrized opacity** (opacity parametrized by a memory model) and
//! for **single global lock atomicity** (SGLA).
//!
//! The layering mirrors the paper:
//!
//! * [`ids`], [`op`], [`history`] — §2 *Preliminaries*: operations,
//!   operation instances, histories, transactions, the real-time partial
//!   order `≺h`, sequential histories, `visible(s)` and legality.
//! * [`legal`] — §2 *Object semantics*: every object is a read/write
//!   register initialized to 0 (the paper's `[[x]]`), and the
//!   incremental legality checkers the searches drive.
//! * [`model`] — §3.1/§3.2: memory models `M = (τ, R)` and the concrete
//!   instances SC, TSO, PSO, RMO, Alpha, Junk-SC and the fully relaxed
//!   idealized model.
//! * [`classes`] — §3.2 *Classes of memory models*.
//! * [`check`] — the one request type, [`Check`], that answers "does
//!   this history satisfy kind K under model M": kind × backend in,
//!   verdict and stats out; and the one order search both properties
//!   run.
//! * [`linearize`] — the constraint system both properties share and
//!   the legal-linearization search under it: the minimal view, the
//!   node graph over `τ(h)`, and placement of a node.
//! * [`saturate`] — the order edges the values reads return force on
//!   every witness, derived before the search (and refuting most
//!   violating histories on their own).
//! * [`opacity`] — §3.3: parametrized opacity as one constructor of
//!   that search (unit granularity, deferred-update legality).
//! * [`sgla`] — §6.2: SGLA as the other (operation granularity,
//!   critical-section legality).
//!
//! All decision procedures are exact (backtracking explicit-state search
//! over the frontiers of a history, not over its serialization orders),
//! sized for the histories that arise from litmus tests, model checking,
//! recorded STM executions and monitor windows. See the `jungle-mc` and
//! `jungle-stm` crates for the systems that generate such histories.
//!
//! ## Quick example
//!
//! Figure 1 of the paper asks: a transaction writes `x := 1; y := 1`
//! while another thread non-transactionally reads `y` then `x` — may it
//! observe `y = 1` but `x = 0`? The answer depends on the memory model:
//!
//! ```
//! use jungle_core::prelude::*;
//!
//! let mut b = HistoryBuilder::new();
//! let (p1, p2) = (ProcId(0), ProcId(1));
//! b.start(p1);
//! b.write(p1, Var(0), 1); // x := 1
//! b.write(p1, Var(1), 1); // y := 1
//! b.commit(p1);
//! b.read(p2, Var(1), 1);  // r1 := y  (reads 1)
//! b.read(p2, Var(0), 0);  // r2 := x  (reads 0)
//! let h = b.build().unwrap();
//!
//! // Forbidden under sequential consistency...
//! assert!(!check_opacity(&h, &Sc).is_opaque());
//! // ...but allowed under RMO, which may reorder independent reads.
//! assert!(check_opacity(&h, &Rmo).is_opaque());
//!
//! // `check_opacity` is shorthand for the one request type: any kind ×
//! // backend, and the stats of the work done always come back with
//! // the verdict.
//! let sgla_by_sat = Check {
//!     backend: CheckBackend::Sat,
//!     ..Check::new(CheckKind::Sgla)
//! };
//! let (verdict, stats) = sgla_by_sat.run(&h, &Rmo);
//! assert!(verdict.holds() && stats.sat.certified == 1 && stats.search.nodes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod check;
pub mod classes;
pub mod encode;
pub mod explain;
pub mod fingerprint;
pub mod history;
pub mod ids;
pub mod legal;
#[cfg(test)]
mod legal_reference;
pub mod linearize;
pub mod model;
pub mod op;
pub mod opacity;
pub mod par;
pub mod pretty;
pub mod registry;
pub mod saturate;
pub mod sgla;
pub mod testkit;
pub mod triage;

/// Convenient glob-import of the most frequently used items.
pub mod prelude {
    pub use crate::builder::HistoryBuilder;
    pub use crate::check::{Check, CheckBackend, CheckKind, CheckVerdict};
    pub use crate::classes::ClassSet;
    pub use crate::encode::{check_opacity_sat, check_opacity_sat_traced, check_sgla_sat};
    pub use crate::history::{History, OpInstance, TxnStatus};
    pub use crate::ids::{OpId, ProcId, Val, Var};
    pub use crate::model::{Alpha, JunkSc, MemoryModel, Pso, Relaxed, Rmo, Sc, Tso, TsoForwarding};
    pub use crate::op::{Command, DepKind, Op};
    pub use crate::opacity::{
        check_opacity, check_opacity_par, check_opacity_traced, OpacityVerdict,
    };
    pub use crate::par::ParallelConfig;
    pub use crate::registry::{entry, registry, ExecSemantics, ModelEntry, StoreDiscipline};
    pub use crate::sgla::check_sgla;
    pub use crate::triage::{triage_opacity, Triage};
    pub use jungle_obs::SearchStats;
}

pub use prelude::*;
