//! # jungle-monitor — streaming opacity monitor for live STM traffic
//!
//! The batch pipeline (record a whole execution, convert it to a trace,
//! check it) answers "was that run correct?" *after* the fact. This
//! crate answers it **while the STMs run**: worker threads publish
//! every transactional operation into a bounded ring (the
//! [`StmTap`](jungle_stm::StmTap) attached to their contexts), and a
//! consumer thread cuts the stream into transaction windows and checks
//! each one with a tiered pipeline —
//!
//! * a **polynomial triage tier** ([`jungle_core::triage`]) that
//!   certifies the common case on every window, replaying the window's
//!   events without building a history, and
//! * the **full batch checker** (with the model checker's shared
//!   verdict memo) for the windows triage cannot clear, the only ones
//!   whose [`History`](jungle_core::history::History) is built.
//!
//! Backpressure between producers and the monitor is explicit: a
//! [`Backpressure::Block`](jungle_obs::Backpressure) tap never loses an
//! event (verdict mode); a `Drop` tap counts every loss exactly
//! (throughput mode, best-effort verdicts). See [`window`] for the
//! window/carry-over model and its cross-window precision trade, and
//! [`monitor`] for the tier semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod monitor;
pub mod window;

pub use monitor::{Monitor, MonitorConfig};
pub use window::{build_history, SealedWindow, WindowBuilder, INIT_PID};
