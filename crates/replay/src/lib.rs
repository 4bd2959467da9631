//! # jungle-replay — deterministic record/replay with counterexample shrinking
//!
//! The paper's negative results (Lemma 1, Theorems 1 and 2) are
//! demonstrated by *finding a violating trace* — but a violating trace
//! is only as useful as the ability to re-execute and explain the exact
//! interleaving that produced it. This crate closes that loop, in the
//! style of systematic concurrency-testing tools (CHESS-style schedule
//! capture, delta-debugging minimization):
//!
//! * A [`ScheduleLog`] is a **versioned, JSON-portable record** of every
//!   scheduler decision of one simulated-machine run: which process
//!   steps, which buffered store drains, which admissible stale version
//!   a load observes. The machine logs these decisions itself
//!   ([`RunResult::decisions`](jungle_memsim::RunResult::decisions)), a
//!   failing sweep keeps them in its
//!   [`Counterexample`](jungle_mc::Counterexample), and [`log_of`] turns
//!   that into a log; [`record_experiment`] does this for an
//!   experiment's randomized sweep.
//! * [`replay`] / [`replay_on`] re-execute a log through a
//!   [`ReplayScheduler`](jungle_memsim::ReplayScheduler) under any
//!   registry [`ModelEntry`](jungle_core::registry::ModelEntry), with
//!   **divergence detection**: the replayed trace's structural
//!   fingerprint must equal the recorded one, and
//!   [`Divergence::find`](jungle_memsim::Divergence::find) reports the
//!   first choose point where the recorded decisions and the replayed
//!   run's own disagree.
//! * [`shrink()`] **delta-debugs** a violating log — chunk removal plus
//!   single-decision flips, re-checking the verdict after every
//!   candidate — down to a minimal schedule that still violates, ready
//!   for `jungle_mc::explain`'s per-process timeline and Theorem 1
//!   classification.
//!
//! The `report` binary wires these together: `--record <dir>` writes
//! and shrinks one log per Theorem 1 construction from the
//! counterexamples its theorem sweeps found, and `--replay <file>`
//! re-executes a saved log, verifies the fingerprint and narrates the
//! replayed counterexample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod run;
pub mod shrink;

pub use crate::log::{ScheduleLog, FORMAT_VERSION};
pub use crate::run::{log_of, record_experiment, replay, replay_on, Recording};
pub use crate::shrink::shrink;
