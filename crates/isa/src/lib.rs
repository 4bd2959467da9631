//! # jungle-isa — instructions, traces, and TM implementations (§4)
//!
//! The paper models a TM implementation `I = (I_T, I_N)` as a mapping
//! from operations to *instruction* sequences over the hardware
//! primitives `load`, `store` and `cas`, bracketed by invocation
//! (`(., o)`) and response (`(/, o)`) markers. A **trace** is a sequence
//! of instruction instances; a **history corresponds to a trace** when
//! each operation can be assigned a linearization point between its
//! invocation and response that yields the history order.
//!
//! This crate provides:
//!
//! * [`instr`] — the instruction alphabet `În` and instruction instances;
//! * [`trace`] — traces, per-process operation traces, trace-level
//!   transactions, and the enumeration of corresponding histories;
//! * [`tm`] — the instrumentation taxonomy of TM implementations
//!   (uninstrumented / write-instrumented / fully instrumented, and the
//!   constant-time bound of Theorem 5), and what the TMs of both
//!   executors share: the three variants of Figure 6's global-lock TM
//!   and the word formats (lock word, packed word, record, version
//!   lock).
//!
//! The operational TM algorithms that *generate* traces live in
//! `jungle-mc` (abstract, model-checked) and `jungle-stm` (real atomics);
//! this crate is the common vocabulary between them and `jungle-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instr;
pub mod tm;
pub mod trace;

pub use instr::{Addr, Instr, InstrInstance};
pub use tm::Instrumentation;
pub use trace::{Trace, TraceError};
