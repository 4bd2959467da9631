//! The streaming monitor: ingest → window → triage → (maybe) escalate.
//!
//! Checking parametrized opacity is NP-hard in general — the batch
//! checker ([`Check`]) walks down the transaction serialization orders
//! a backtracking witness search accepts, at a cost that grows with
//! the window's frontiers: exponentially in how many of its
//! transactions overlap one another. Running it on every window of a
//! live stream would cap throughput at the checker's worst case. The
//! monitor is therefore **tiered**:
//!
//! 1. **Triage** (polynomial, every window): the monitor's one
//!    [`Triager`] is fed the window's operations straight from its
//!    events — the initializer's, then the sanitized stream's, as
//!    [`build_history`](crate::window::build_history) would lay them
//!    out — and replays two candidate serialization orders, by first
//!    and by last operation, through the incremental legality checker.
//!    The construction in `jungle_core::triage` proves a cleared window
//!    is opaque under the window's model (and, via the paper's Theorem
//!    6, SGLA too), so triage **never produces a verdict the batch
//!    checker would contradict**: it only ever says "provably fine" or
//!    "don't know". It takes no model: the one model that transforms a
//!    history, Junk-SC, cannot change its verdict. A cleared window
//!    never becomes a [`History`].
//! 2. **Escalation** (exact, rare): an un-cleared window has its
//!    history built, once, and goes to the full batch checker, through
//!    the [`SharedVerdictMemo`] so repeated window shapes
//!    (fingerprinted by [`History::cache_key`]) are checked once. A
//!    mostly sequential window costs it saturation, its first
//!    admissible serialization order and one pass over the window's
//!    units in that order — about ten times triage for a 64-attempt
//!    window (≈ 45–55 µs against ≈ 4–5 µs on a 2-core x86 host,
//!    `monitor_stream` seed 1), which is why triage stays in front. Only a cluster of overlapping transactions makes it
//!    search, and then over the cluster's subsets, not its orders.
//! 3. **Second chance** (see
//!    [`SealedWindow::reseeded`](crate::window::SealedWindow::reseeded)):
//!    a window that fails the full check is re-checked with its
//!    initializer re-seeded from first-observed reads before being
//!    declared a violation, absorbing commit-publish races at window
//!    boundaries.
//!
//! Under well-behaved traffic the triage tier clears the overwhelming
//! majority of windows, so the monitor's steady-state cost is a cleared
//! window's: buffering its events, cutting it (seeds and folds) and
//! triaging it from its events, about 8 µs in all for a 64-attempt
//! window of ≈ 290 events on the host above (13–15 µs when the window
//! was sealed into a `History` first); the ring traffic of a live tap
//! comes on top: one contended CAS per published event and, on this
//! side, one `tail` store per [`StmTap::drain_into`] batch of up to
//! 4,096 events (see `jungle_obs::ring`).
//!
//! The stages are counted in [`MonitorStats`]; a window found in
//! violation also emits the flight recorder's `MonitorViolation`
//! (the window's history length, the windows sealed so far), so a
//! `--trace` session shows it inline with the STM transaction spans
//! that caused it.

use crate::window::{Cut, WindowBuilder};
use jungle_core::check::{Check, CheckKind};
use jungle_core::history::History;
use jungle_core::registry::{entry, ModelEntry};
use jungle_core::triage::Triager;
use jungle_mc::SharedVerdictMemo;
use jungle_obs::trace::{self, EventKind};
use jungle_obs::MonitorStats;
use jungle_stm::{StmTap, TapEvent};
use std::sync::Arc;

/// Monitor configuration.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Completed transaction attempts per window.
    pub window_txns: usize,
    /// Which property to enforce on escalation.
    pub kind: CheckKind,
    /// The memory model parametrizing the property.
    pub model: &'static ModelEntry,
}

impl MonitorConfig {
    /// Defaults: 64-transaction windows, opacity, SC.
    pub fn new() -> Self {
        MonitorConfig {
            window_txns: 64,
            kind: CheckKind::Opacity,
            model: entry("SC").expect("SC is always registered"),
        }
    }

    /// Set the window size (builder style).
    pub fn window(mut self, txns: usize) -> Self {
        self.window_txns = txns;
        self
    }

    /// Set the property kind (builder style).
    pub fn kind(mut self, kind: CheckKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the memory model (builder style).
    pub fn model(mut self, model: &'static ModelEntry) -> Self {
        self.model = model;
        self
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig::new()
    }
}

/// The online checker. Feed it events ([`Monitor::ingest`]) or let it
/// consume a tap ([`Monitor::run`]); read the verdicts off
/// [`Monitor::stats`].
pub struct Monitor {
    cfg: MonitorConfig,
    builder: WindowBuilder,
    triager: Triager,
    memo: Option<Arc<SharedVerdictMemo>>,
    stats: MonitorStats,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl Monitor {
    /// A monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        Monitor {
            builder: WindowBuilder::new(cfg.window_txns),
            triager: Triager::new(),
            cfg,
            memo: None,
            stats: MonitorStats::default(),
        }
    }

    /// Share a verdict memo (typically across monitors / with the model
    /// checker) so identical window fingerprints escalate once.
    pub fn with_memo(mut self, memo: Arc<SharedVerdictMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Counters so far. Final numbers require [`Monitor::finish`].
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    /// Ingest one event, sealing and checking a window when full. A
    /// non-transactional event is counted in
    /// [`MonitorStats::nontxn_skipped`] and goes no further: windows
    /// judge the transactional sub-history.
    pub fn ingest(&mut self, ev: TapEvent) {
        self.stats.ops_ingested += 1;
        if !ev.op.is_transactional() {
            self.stats.nontxn_skipped += 1;
            return;
        }
        if self.builder.push(ev) {
            if let Some(w) = self.builder.seal_cut() {
                self.check_window(&w);
            }
        }
    }

    /// Flush the final (partial) window and return the totals.
    pub fn finish(&mut self) -> MonitorStats {
        if let Some(w) = self.builder.flush_cut() {
            self.check_window(&w);
        }
        self.stats.clone()
    }

    /// Consume `tap` until it is closed **and** drained, then flush.
    /// Returns the totals; `events_dropped` is taken from the tap's
    /// exact drop counter, and `max_queue_depth` is the deepest backlog
    /// seen before a drain that took events. The monitor is the tap's
    /// consumer ([`StmTap::consume`]): if it panics, the tap is closed
    /// on the way out, and producers blocked on it return.
    pub fn run(&mut self, tap: &StmTap) -> MonitorStats {
        tap.consume(|batch, depth| {
            let max = &mut self.stats.max_queue_depth;
            *max = (*max).max(depth as u64);
            for &ev in batch {
                self.ingest(ev);
            }
        });
        self.stats.events_dropped = tap.dropped();
        self.finish()
    }

    /// One-shot mode: run the tiered pipeline on a ready-made history,
    /// returning the verdict (`true` = property holds). Used by the
    /// corpus-agreement tests; counters update as for a sealed window,
    /// but no second chance applies (there is no raced initializer to
    /// blame).
    pub fn check_history(&mut self, h: &History) -> bool {
        self.triager.clear();
        for oi in h.ops() {
            self.triager.push(oi.proc, &oi.op);
        }
        if self.triage() {
            return true;
        }
        self.stats.escalated += 1;
        self.escalate(h)
    }

    /// A window is triaged from its events; only one that escalates
    /// has its history built, once, and it escalates once, however
    /// many full checks its second chance takes.
    fn check_window(&mut self, w: &Cut) {
        w.feed(&mut self.triager);
        if self.triage() {
            return;
        }
        self.stats.escalated += 1;
        let h = w.history().0;
        if self.escalate(&h) || w.reseeded().is_some_and(|h2| self.escalate(&h2)) {
            return;
        }
        self.stats.violations += 1;
        trace::emit(
            EventKind::MonitorViolation,
            h.len() as u64,
            self.stats.windows_sealed,
        );
    }

    /// Tier 1: count the window fed to the triager, and try to clear
    /// it in polynomial time. Triage takes no model (see
    /// `jungle_core::triage`): the window's operations are replayed as
    /// they are under every one.
    fn triage(&mut self) -> bool {
        self.stats.windows_sealed += 1;
        let cleared = self.triager.verdict().cleared();
        if cleared {
            self.stats.triage_cleared += 1;
        }
        cleared
    }

    /// Tier 2: the full batch checker, through the shared memo. The
    /// caller counts the window as escalated.
    fn escalate(&mut self, h: &History) -> bool {
        // The fingerprint walks every operation; only a memo reads it.
        let memo = self.memo.as_ref().map(|m| (m, h.cache_key()));
        if let Some(v) = memo.and_then(|(m, fp)| m.lookup(self.cfg.model.key, self.cfg.kind, fp)) {
            self.stats.memo_hits += 1;
            return v;
        }
        let v = Check::new(self.cfg.kind)
            .run(h, self.cfg.model.model)
            .0
            .holds();
        if let Some((memo, fp)) = memo {
            memo.record(self.cfg.model.key, self.cfg.kind, fp, v);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::ids::ProcId;
    use jungle_stm::TapOp;

    fn ev(pid: u32, op: TapOp) -> TapEvent {
        TapEvent {
            pid: ProcId(pid),
            op,
        }
    }

    #[test]
    fn a_window_given_the_second_chance_escalates_once() {
        let mut mon = Monitor::new(MonitorConfig::new().window(2));
        // Window 1: `x = 2` truly commits last, but its ticket is the
        // smaller one, so window 2 is seeded with the stale `x = 1`.
        for e in [
            ev(0, TapOp::Begin),
            ev(0, TapOp::Write { var: 0, val: 1 }),
            ev(0, TapOp::Commit { ticket: 2 }),
            ev(1, TapOp::Begin),
            ev(1, TapOp::Write { var: 0, val: 2 }),
            ev(1, TapOp::Commit { ticket: 1 }),
            // Window 2 reads the true value first: the stale seed fails
            // triage and the full check, and the re-seeded one passes.
            ev(2, TapOp::Begin),
            ev(2, TapOp::Read { var: 0, val: 2 }),
            ev(2, TapOp::Commit { ticket: 3 }),
            ev(3, TapOp::Begin),
            ev(3, TapOp::Read { var: 0, val: 2 }),
            ev(3, TapOp::Commit { ticket: 4 }),
        ] {
            mon.ingest(e);
        }
        let s = mon.finish();
        assert_eq!(s.windows_sealed, 2);
        assert_eq!(s.violations, 0);
        assert_eq!(s.escalated, 1);
        assert_eq!(s.triage_cleared + s.escalated, s.windows_sealed);
    }

    #[test]
    fn nontransactional_events_are_counted_not_judged() {
        let txn = [
            ev(0, TapOp::Begin),
            ev(0, TapOp::Write { var: 0, val: 1 }),
            ev(0, TapOp::Commit { ticket: 0 }),
        ];
        let mut plain = Monitor::new(MonitorConfig::new().window(1));
        txn.into_iter().for_each(|e| plain.ingest(e));
        let mut mixed = Monitor::new(MonitorConfig::new().window(1));
        mixed.ingest(ev(1, TapOp::NtInvoke));
        txn.into_iter().for_each(|e| mixed.ingest(e));
        mixed.ingest(ev(1, TapOp::NtRead { var: 0, val: 7 }));
        let (plain, mixed) = (plain.finish(), mixed.finish());
        assert_eq!(mixed.nontxn_skipped, 2);
        assert_eq!(mixed.ops_ingested, plain.ops_ingested + 2);
        let judged = MonitorStats {
            ops_ingested: plain.ops_ingested,
            nontxn_skipped: 0,
            ..mixed
        };
        assert_eq!(judged, plain);
    }
}
