//! # jungle-memsim — a relaxed-memory multiprocessor simulator
//!
//! The paper's results concern TM implementations running on shared
//! memory multiprocessors. We do not have SPARC/Alpha hardware to run
//! the constructions on, so this crate provides the substitute: a small,
//! deterministic multiprocessor simulator that executes the instruction
//! alphabet of `jungle-isa` (`load`/`store`/`cas` plus operation
//! markers) under a pluggable **hardware** memory model.
//!
//! The hardware model is an execution discipline
//! ([`ExecSemantics`], aliased as
//! [`HwModel`]) drawn from the model registry in `jungle_core`, which
//! pairs it with the matching checker-side `MemoryModel`. The full
//! registry zoo is executable:
//!
//! * **SC** — linearizable memory, the paper's baseline assumption
//!   ("we assume that the underlying hardware guarantees a strong
//!   memory model equivalent to linearizability");
//! * **TSO** / **TSO+fwd** — per-CPU FIFO store buffers, without /
//!   with store-to-load forwarding; CAS drains the buffer (x86-style
//!   `lock` semantics);
//! * **PSO** — per-address store queues (write→write reordering in
//!   addition to write→read);
//! * **RMO**, **Alpha**, **Relaxed** — per-address store queues plus a
//!   bounded *load reorder window*: a load may observe one of the last
//!   few overwritten values of an address (a load performed early),
//!   bounded by per-CPU coherence floors; RMO keeps dependent loads
//!   ([`PInstr::LoadDep`]) ordered, Alpha and Relaxed do not.
//!
//! Programs are *reactive* ([`Process`]): the simulator feeds each
//! completed instruction's result back to the process, which decides its
//! next step — this is what lets the TM algorithms of `jungle-mc` spin
//! on CAS failures and branch on loaded values.
//!
//! Nondeterminism (which CPU steps; which buffered store drains) is
//! resolved by a [`Scheduler`]: seeded-random ([`RandomScheduler`],
//! [`BurstyScheduler`]) for fuzzing, exhaustive enumeration
//! ([`explore`]) for the model-checking sweeps, and a recorded script
//! ([`ReplayScheduler`]) to re-execute a run; its empty script takes the
//! first enabled action every time, as the paper's Figure 5
//! constructions do.
//!
//! Every run records a [`Trace`](jungle_isa::Trace) whose corresponding
//! histories are checked by `jungle-core`, and its own decisions
//! ([`RunResult::decisions`]): replayed, they reproduce the run, and
//! [`Divergence::find`] names the first point where a replay did not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod machine;
pub mod process;
pub mod sched;

pub use cpu::HwModel;
pub use jungle_core::registry::{ExecSemantics, StoreDiscipline};
pub use machine::{explore, Machine, RunResult};
pub use process::{PInstr, Process, Step};
pub use sched::{
    Action, AddrSet, BurstyScheduler, ChoicePoint, Divergence, ExhaustiveCursor, Footprint,
    RandomScheduler, ReplayScheduler, Scheduler,
};
