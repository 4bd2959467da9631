//! `jungle-obs` — observability primitives for the jungle workspace.
//!
//! The workspace reproduces "Transactions in the Jungle" (Guerraoui et
//! al., SPAA 2010): TM algorithms whose cost model turns on *how many*
//! instrumented steps each operation takes, and checkers whose cost is
//! an exponential search. This crate gives every layer a common,
//! dependency-free vocabulary for counting that work:
//!
//! * [`profile`] — the phase profile: named-span guards, and the fold
//!   of the flight recorder's named spans into a self/total-time tree.
//! * [`search::SearchStats`] — per-search counters for the opacity and
//!   SGLA checkers (nodes, backtracks, prune hits, orders, depth).
//! * [`sim::MachineStats`] / [`sim::McStats`] — simulator steps,
//!   store-buffer flushes and occupancy, schedules explored;
//!   [`sim::DporStats`] — the DPOR explorer's race-pair heat table.
//! * [`snapshot::MetricsSnapshot`] — the serializable aggregate the
//!   report binary emits.
//! * [`trace`] — the flight recorder, the one span mechanism:
//!   per-thread lock-free ring buffers of spans and verdicts from every
//!   layer, exported as Chrome-trace-event JSON and folded into the
//!   phase profile.
//! * [`ledger`] — the persistent run ledger (`report --ledger <path>`),
//!   an append-only log of report runs.
//! * [`ring::EventRing`] — a bounded MPSC event ring with an explicit
//!   backpressure policy (block vs drop-with-exact-counter), the
//!   channel between live STM taps and the streaming monitor.
//! * [`monitor::MonitorStats`] — per-run counters of the streaming
//!   opacity monitor (ingest, windows, triage/escalation, violations).
//! * [`sat::SatStats`] — counters of the SAT serialization-order
//!   backend (encoding sizes, CDCL effort, CEGAR rounds).
//!
//! Every signal is **declared once**: each stats block above is one
//! invocation of the crate-private `counters!` macro (field list with
//! merge rules → the struct, `absorb`, [`ToJson`], and a `FIELDS`
//! table such as [`SearchStats::FIELDS`]), the flight events are one
//! table in [`trace`] (→ [`EventKind`], [`EventKind::ALL`] and the
//! category list), the span names another beside it (→ [`Span`]), and
//! the recorder has one install point (the private `sink` module, which
//! with [`ring`] holds all of this crate's `unsafe`).
//!
//! Collection is **off by default** in the hot paths: the real STMs
//! count nothing (an operation with no tap attached is the bare
//! algorithm behind one branch), and phases and flight-recorder event
//! sites reduce to a single relaxed load and a branch unless
//! [`trace::install`] switched their layer on. The recorder is the
//! crate's only clock reader: every stats block counts work, and wall
//! time is the caller's to measure. The build is fully
//! offline, so serialization is a small hand-rolled JSON model
//! ([`json`]) rather than `serde`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod json;
pub mod ledger;
pub mod monitor;
pub mod profile;
#[allow(unsafe_code)]
pub mod ring;
pub mod sat;
pub mod search;
pub mod sim;
#[allow(unsafe_code)]
mod sink;
pub mod snapshot;
pub mod trace;

pub use json::{Json, ToJson};
pub use ledger::LedgerEntry;
pub use monitor::MonitorStats;
pub use profile::{ProfileNode, SpanGuard, SpawnPoint};
pub use ring::{Backpressure, EventRing};
pub use sat::SatStats;
pub use search::SearchStats;
pub use sim::{DporStats, MachineStats, McStats};
pub use snapshot::MetricsSnapshot;
pub use trace::{EventKind, FlightRecorder, Span};
