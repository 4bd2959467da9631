//! Windowing: cut the tap's flat event stream into windows, which the
//! monitor triages from their events and builds into [`History`]
//! values only to escalate them.
//!
//! The monitor cannot check an unbounded stream at once, so it cuts the
//! stream into **windows of `K` completed transaction attempts**
//! (commits and aborts both count — an attempt that finished is an
//! attempt the checker can place). Transactions still open when a
//! window fills are **carried over**: their events (from their `Begin`)
//! move wholesale into the next window, so no transaction is ever split
//! across two checked histories.
//!
//! ## Cross-window value continuity
//!
//! A read in window `n+1` may observe a value committed in window `n`,
//! which the checker — seeing only window `n+1` — could not justify.
//! The builder therefore tracks the **latest committed value per
//! variable** (in commit-ticket order, see
//! [`TapOp::Commit`]) and prepends each
//! window with a synthetic committed *initializer transaction* on the
//! reserved process [`INIT_PID`] that writes those values. The
//! initializer precedes every real event of the window in real time,
//! so any serialization order the checker finds places it first: it
//! plays the role of "the state the previous windows left behind".
//!
//! Ticket order is the *publish* order of commits, which can lag the
//! true commit order (the tap publishes `Commit` after the algorithm
//! finished). A raced seed can therefore be stale; the monitor gives
//! such windows a **second chance** with the initializer re-seeded from
//! the first value each variable was actually *read* to contain
//! ([`SealedWindow::reseeded`]) before declaring a violation. What the
//! window model inherently cannot see is an anomaly whose every witness
//! spans two windows (e.g. a stale read in window `n+1` of a variable
//! whose overwrite committed in window `n`): the initializer collapses
//! the previous windows into a single final state. This is the standard
//! precision/throughput trade of windowed runtime verification — the
//! monitor is sound for everything in one window and best-effort
//! across.
//!
//! ## Dropped events
//!
//! Under [`Backpressure::Drop`](jungle_obs::Backpressure) the stream may
//! have counted gaps. Rather than panic on a now-malformed per-process
//! sequence, the window's operations are sanitized, by one emitter
//! that both [`build_history`] and the monitor's triage read: a `Begin`
//! while the same process is already open synthesizes a closing
//! `Abort` first; a `Commit`/`Abort` with no open transaction is
//! skipped, and so is an access whose variable index does not fit a
//! history [`Var`] (only a corrupt stream carries one). Every such
//! repair is counted in [`SealedWindow::repaired`]. Under
//! `Backpressure::Block` no event is ever lost and no repair ever
//! fires; that is the policy to use when verdicts matter.
//!
//! ## Non-transactional events
//!
//! A window is the stream's transactional sub-history. The tap also
//! carries non-transactional operations (`NtInvoke`, then `NtRead` or
//! `NtWrite`); [`WindowBuilder::push`] does not buffer them and
//! [`build_history`] skips them. The monitor counts each one it is fed
//! in `MonitorStats::nontxn_skipped`, so none is dropped silently.
//!
//! **Known blind spot.** A window judges the transactional sub-history
//! only, so the monitor is not a checker of mixed traffic. A violation
//! that only a non-transactional *read* witnesses goes unseen. Worse,
//! a non-transactional *write* makes it report violations that are not
//! there: a transaction that reads the value such a write stored reads
//! a value no window ever saw written, and the second chance re-seeds
//! only a variable's first read in the window. Two threads that each
//! `nt_write` a variable and then read it in a transaction (global-lock
//! STM, window 8, `Block` tap) were reported in violation in every
//! window. `report --monitor`'s traffic is transactional only, so its
//! rows are unaffected. Judging non-transactional operations is ROADMAP
//! item 14.
//!
//! ## One pass
//!
//! A window costs its events. [`WindowBuilder::push`] keeps what a seal
//! would otherwise re-derive from the buffer: for each process with an
//! unmatched `Begin`, the buffer index of that `Begin`, and — appended
//! as each `Commit` arrives, from the writes since its `Begin` — the
//! window's committed writes with their tickets. A `Commit` or `Abort`
//! is never carried over (it closes what would carry it), so at a seal
//! that list is exactly the sealed window's. Sealing takes the buffer
//! whole when nothing is open; otherwise it splits it at the recorded
//! indices and re-bases them on what it carries. The seeds are read
//! off the tracked values *before* the window's own writes are folded
//! into them — the initializer is the state the previous windows left
//! behind. The tracked values live in an [`IdMap`] keyed by the tap's
//! index: a seed or a fold is one probe under a one-multiplication
//! hash, not a walk down a tree, and the table holds one entry per
//! variable ever seen, whatever its index.
//!
//! What the cut yields is the window's events and seeds, with no
//! history: the monitor feeds them to its triager operation by
//! operation, and only [`WindowBuilder::seal`] and an escalating
//! window build a [`History`] — into a buffer sized once, as a
//! [`HistoryBuilder`] history, which has no identifier index to build
//! or check. That build is most of what a seal costs (the
//! `monitor_stream` workload's `monitor.window_build_us_p50`); the
//! monitor's cut of a window triage clears costs only the seeds and
//! folds.

use jungle_core::builder::HistoryBuilder;
use jungle_core::history::History;
use jungle_core::ids::{IdMap, ProcId, Var};
use jungle_core::op::{Command, Op};
use jungle_core::triage::Triager;
use jungle_stm::{TapEvent, TapOp};

/// Reserved process id for the synthetic initializer transaction. Real
/// STM threads are numbered from 0, so the all-ones id never collides.
pub const INIT_PID: u32 = u32::MAX;

/// A tap variable index (widened to `u64` at the publish site) as a
/// history [`Var`]. `None` above `u32::MAX`: only a corrupt stream says
/// so, and truncating would alias variables in the checked history.
fn var(raw: u64) -> Option<Var> {
    u32::try_from(raw).ok().map(Var)
}

/// A sealed window: the checkable history plus enough residue to build
/// the second-chance variant.
#[derive(Debug)]
pub struct SealedWindow {
    /// The window's history: initializer transaction (if any seed is
    /// nonzero) followed by the window's events in arrival order.
    pub history: History,
    /// Completed transaction attempts inside this window.
    pub completed: usize,
    /// Sanitization repairs performed while building the history
    /// (always 0 under `Backpressure::Block`).
    pub repaired: u64,
    cut: Cut,
}

impl SealedWindow {
    /// The second-chance history: the same window re-seeded so that
    /// every variable whose **first in-window access is a read** is
    /// initialized to the value that read observed. Returns `None`
    /// when re-seeding changes nothing (the re-check would repeat the
    /// same verdict).
    pub fn reseeded(&self) -> Option<History> {
        self.cut.reseeded()
    }
}

/// A window as [`WindowBuilder`] cuts it, before any history is built:
/// its events and its seeds. The monitor triages it from the events
/// and builds a history only if triage escalates.
#[derive(Debug)]
pub(crate) struct Cut {
    /// Completed transaction attempts inside this window.
    pub(crate) completed: usize,
    events: Vec<TapEvent>,
    /// `(variable, seed)` for every variable the window accesses, in
    /// first-access order.
    init_writes: Vec<(u64, u64)>,
    /// The same, a variable first read seeded with what was read.
    reseeds: Vec<(u64, u64)>,
}

impl Cut {
    /// The window's history and its repair count.
    pub(crate) fn history(&self) -> (History, u64) {
        build_history(&self.events, &self.init_writes)
    }

    /// See [`SealedWindow::reseeded`].
    pub(crate) fn reseeded(&self) -> Option<History> {
        (self.reseeds != self.init_writes).then(|| build_history(&self.events, &self.reseeds).0)
    }

    /// Feed the window's history to a cleared `t`, operation by
    /// operation, without building it.
    pub(crate) fn feed(&self, t: &mut Triager) {
        t.clear();
        emit(&self.events, &self.init_writes, |p, op| t.push(p, &op));
    }

    fn sealed(self) -> SealedWindow {
        let (history, repaired) = self.history();
        SealedWindow {
            history,
            completed: self.completed,
            repaired,
            cut: self,
        }
    }
}

/// Build a window history: synthetic initializer transaction writing
/// `init_writes` (zero-valued seeds are omitted — histories read 0 as
/// the implicit initial value), then `events` in arrival order, with
/// the drop-gap sanitization described in the module docs. Returns the
/// history and the repair count.
pub fn build_history(events: &[TapEvent], init_writes: &[(u64, u64)]) -> (History, u64) {
    // Room for the initializer's start and commit; only a phantom
    // abort (a repair) outgrows it.
    let mut b = HistoryBuilder::with_capacity(events.len() + init_writes.len() + 2);
    let repaired = emit(events, init_writes, |p, op| _ = b.op(p, op));
    let h = b
        .build()
        .expect("sanitized window event sequence is well-formed");
    (h, repaired)
}

/// The operations of the history [`build_history`] builds, in order,
/// each handed to `f` with its process. Returns the repair count.
fn emit(events: &[TapEvent], init_writes: &[(u64, u64)], mut f: impl FnMut(ProcId, Op)) -> u64 {
    let write = |var, val| Op::Cmd(Command::Write { var, val });
    // A seed under an index no `Var` holds is for accesses skipped below.
    let seeds = init_writes.iter().filter(|(_, val)| *val != 0);
    let mut init = seeds
        .filter_map(|&(v, val)| Some((var(v)?, val)))
        .peekable();
    if init.peek().is_some() {
        let ip = ProcId(INIT_PID);
        f(ip, Op::Start);
        for (x, val) in init {
            f(ip, write(x, val));
        }
        f(ip, Op::Commit);
    }
    let mut open: Vec<ProcId> = Vec::new();
    let mut repaired = 0u64;
    for ev in events {
        let p = ev.pid;
        let at = open.iter().position(|&q| q == p);
        match (ev.op, at) {
            (TapOp::Begin, _) => {
                if at.is_some() {
                    // A Commit/Abort was dropped from the stream: close
                    // the phantom attempt before opening the new one.
                    f(p, Op::Abort);
                    repaired += 1;
                } else {
                    open.push(p);
                }
                f(p, Op::Start);
            }
            (TapOp::Read { var: v, val }, _) => match var(v) {
                Some(x) => f(p, Op::Cmd(Command::Read { var: x, val })),
                None => repaired += 1,
            },
            (TapOp::Write { var: v, val }, _) => match var(v) {
                Some(x) => f(p, write(x, val)),
                None => repaired += 1,
            },
            // Begin was dropped: nothing to close.
            (TapOp::Commit { .. } | TapOp::Abort, None) => repaired += 1,
            (TapOp::Commit { .. }, Some(at)) => {
                open.swap_remove(at);
                f(p, Op::Commit);
            }
            (TapOp::Abort, Some(at)) => {
                open.swap_remove(at);
                f(p, Op::Abort);
            }
            // The transactional sub-history only (see `WindowBuilder::push`).
            (TapOp::NtInvoke | TapOp::NtRead { .. } | TapOp::NtWrite { .. }, _) => {}
        }
    }
    repaired
}

/// The latest committed value of one variable.
#[derive(Debug, Default)]
struct Tracked {
    /// The commit ticket that wrote `val`: the greatest one so far.
    ticket: u64,
    val: u64,
    /// The last window (counted from 1) that took a seed from here.
    seeded: u64,
}

/// Accumulates tap events and seals them into windows of
/// `window_txns` completed transaction attempts.
#[derive(Debug)]
pub struct WindowBuilder {
    window_txns: usize,
    pending: Vec<TapEvent>,
    completed: usize,
    /// The processes with an unmatched `Begin`, and its index in
    /// `pending`.
    open: Vec<(ProcId, usize)>,
    /// `(ticket, variable, value)` of the writes committed since the
    /// last seal, in arrival order.
    folds: Vec<(u64, u64, u64)>,
    /// Every variable seen, under its tap index: one probe per seed.
    tracked: IdMap<u64, Tracked>,
    /// Windows cut so far.
    windows: u64,
}

impl WindowBuilder {
    /// A builder sealing after `window_txns` completed attempts (min 1).
    pub fn new(window_txns: usize) -> Self {
        WindowBuilder {
            window_txns: window_txns.max(1),
            pending: Vec::new(),
            completed: 0,
            open: Vec::new(),
            folds: Vec::new(),
            tracked: IdMap::default(),
            windows: 0,
        }
    }

    /// Buffer one event; returns `true` when the window is ready to
    /// [`seal`](WindowBuilder::seal). A non-transactional event is not
    /// buffered (the monitor counts it before it gets here).
    pub fn push(&mut self, ev: TapEvent) -> bool {
        let open = |b: &Self| b.open.iter().position(|&(p, _)| p == ev.pid);
        match ev.op {
            TapOp::NtInvoke | TapOp::NtRead { .. } | TapOp::NtWrite { .. } => return false,
            TapOp::Read { .. } | TapOp::Write { .. } => {}
            // A second Begin (its Commit/Abort was dropped) starts the
            // attempt, and its write set, over.
            TapOp::Begin => match open(self) {
                Some(at) => self.open[at].1 = self.pending.len(),
                None => self.open.push((ev.pid, self.pending.len())),
            },
            TapOp::Commit { .. } | TapOp::Abort => {
                self.completed += 1;
                // No open Begin (it was dropped): no write set either.
                if let Some(at) = open(self) {
                    let (_, begin) = self.open.swap_remove(at);
                    if let TapOp::Commit { ticket } = ev.op {
                        let own = self.pending[begin..].iter().filter(|e| e.pid == ev.pid);
                        self.folds.extend(own.filter_map(|e| match e.op {
                            TapOp::Write { var, val } => Some((ticket, var, val)),
                            _ => None,
                        }));
                    }
                }
            }
        }
        self.pending.push(ev);
        self.completed >= self.window_txns
    }

    /// Events buffered but not yet sealed (including carried-over open
    /// transactions).
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Seal the current window. Events of transactions still open move
    /// to the next window; everything else becomes the window history,
    /// prefixed by the initializer transaction. Returns `None` when
    /// nothing would be checked (no events beyond carried prefixes).
    pub fn seal(&mut self) -> Option<SealedWindow> {
        self.seal_cut().map(Cut::sealed)
    }

    /// Final flush: seal everything buffered, **including** still-open
    /// transactions (they appear as live transactions in the history).
    pub fn flush(&mut self) -> Option<SealedWindow> {
        self.flush_cut().map(Cut::sealed)
    }

    /// [`seal`](Self::seal), without building the history.
    pub(crate) fn seal_cut(&mut self) -> Option<Cut> {
        // The next window will be about as long as this one.
        let room = Vec::with_capacity(self.pending.len());
        let pending = std::mem::replace(&mut self.pending, room);
        if self.open.is_empty() {
            return self.cut(pending);
        }
        // Carry every open process's events from its Begin on, and
        // re-base that index on the carried buffer.
        let mut window = Vec::with_capacity(pending.len());
        for (i, ev) in pending.into_iter().enumerate() {
            match self.open.iter_mut().find(|(p, _)| *p == ev.pid) {
                Some((_, begin)) if i >= *begin => {
                    if i == *begin {
                        *begin = self.pending.len();
                    }
                    self.pending.push(ev);
                }
                _ => window.push(ev),
            }
        }
        self.cut(window)
    }

    /// [`flush`](Self::flush), without building the history.
    pub(crate) fn flush_cut(&mut self) -> Option<Cut> {
        self.open.clear();
        let window = std::mem::take(&mut self.pending);
        self.cut(window)
    }

    /// Make `window` — every Commit and Abort buffered since the last
    /// cut, and whatever else was not carried — a [`Cut`].
    fn cut(&mut self, window: Vec<TapEvent>) -> Option<Cut> {
        let completed = std::mem::take(&mut self.completed);
        if window.is_empty() {
            return None;
        }
        // Seed: the tracked committed value of every variable the
        // window touches, in first-access order (a variable nobody
        // committed to yet is tracked at the implicit initial 0, under
        // a ticket every commit supersedes).
        self.windows += 1;
        let room = self.tracked.len().min(window.len());
        let (mut init_writes, mut reseeds) = (Vec::with_capacity(room), Vec::with_capacity(room));
        let mut last = None;
        for ev in &window {
            let (var, read) = match ev.op {
                TapOp::Read { var, val } => (var, Some(val)),
                TapOp::Write { var, .. } => (var, None),
                _ => continue,
            };
            // Accesses repeat their variable in runs: look up once per run.
            if last.replace(var) == Some(var) {
                continue;
            }
            let t = self.tracked.entry(var).or_default();
            if t.seeded != self.windows {
                t.seeded = self.windows;
                init_writes.push((var, t.val));
                reseeds.push((var, read.unwrap_or(t.val)));
            }
        }
        // Only now fold this window's committed write sets into the
        // tracked state, in arrival order (max ticket wins, so a commit
        // whose publish raced past a later one cannot clobber it).
        for (ticket, var, val) in self.folds.drain(..) {
            let t = self.tracked.entry(var).or_default();
            if ticket >= t.ticket {
                (t.ticket, t.val) = (ticket, val);
            }
        }
        Some(Cut {
            completed,
            events: window,
            init_writes,
            reseeds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::history::TxnStatus;
    use jungle_core::model::Sc;
    use jungle_core::opacity::check_opacity;

    fn ev(pid: u32, op: TapOp) -> TapEvent {
        TapEvent {
            pid: ProcId(pid),
            op,
        }
    }

    #[test]
    fn seals_after_k_completed_attempts() {
        let mut wb = WindowBuilder::new(2);
        assert!(!wb.push(ev(0, TapOp::Begin)));
        assert!(!wb.push(ev(0, TapOp::Write { var: 0, val: 1 })));
        assert!(!wb.push(ev(0, TapOp::Commit { ticket: 0 })));
        assert!(!wb.push(ev(1, TapOp::Begin)));
        assert!(wb.push(ev(1, TapOp::Abort)));
        let w = wb.seal().unwrap();
        assert_eq!(w.completed, 2);
        assert_eq!(w.repaired, 0);
        assert_eq!(w.history.txns().len(), 2);
        assert!(check_opacity(&w.history, &Sc).is_opaque());
    }

    #[test]
    fn open_txns_carry_over_whole() {
        let mut wb = WindowBuilder::new(1);
        wb.push(ev(0, TapOp::Begin));
        wb.push(ev(1, TapOp::Begin));
        wb.push(ev(1, TapOp::Write { var: 3, val: 9 }));
        wb.push(ev(0, TapOp::Commit { ticket: 0 }));
        let w = wb.seal().unwrap();
        // Pid 1's open transaction moved wholesale to the next window.
        assert_eq!(w.history.txns().len(), 1);
        assert_eq!(wb.backlog(), 2);
        wb.push(ev(1, TapOp::Commit { ticket: 1 }));
        let w2 = wb.flush().unwrap();
        assert_eq!(w2.history.txns().len(), 1);
        assert_eq!(w2.history.txns()[0].status, TxnStatus::Committed);
    }

    #[test]
    fn tracked_values_seed_next_window() {
        let mut wb = WindowBuilder::new(1);
        wb.push(ev(0, TapOp::Begin));
        wb.push(ev(0, TapOp::Write { var: 7, val: 42 }));
        wb.push(ev(0, TapOp::Commit { ticket: 0 }));
        wb.seal().unwrap();
        // Window 2 reads the value committed in window 1.
        wb.push(ev(1, TapOp::Begin));
        wb.push(ev(1, TapOp::Read { var: 7, val: 42 }));
        wb.push(ev(1, TapOp::Commit { ticket: 1 }));
        let w = wb.seal().unwrap();
        // Initializer (INIT_PID) + the real transaction.
        assert_eq!(w.history.txns().len(), 2);
        assert!(
            check_opacity(&w.history, &Sc).is_opaque(),
            "cross-window read must be justified by the initializer"
        );
    }

    #[test]
    fn ticket_order_wins_over_arrival_order() {
        let mut wb = WindowBuilder::new(2);
        // Publish order inverted relative to tickets: ticket 1 arrives
        // first. The tracked value must be ticket 1's, not ticket 0's.
        wb.push(ev(0, TapOp::Begin));
        wb.push(ev(0, TapOp::Write { var: 0, val: 200 }));
        wb.push(ev(1, TapOp::Begin));
        wb.push(ev(1, TapOp::Write { var: 0, val: 100 }));
        wb.push(ev(0, TapOp::Commit { ticket: 1 }));
        wb.push(ev(1, TapOp::Commit { ticket: 0 }));
        wb.seal().unwrap();
        wb.push(ev(2, TapOp::Begin));
        wb.push(ev(2, TapOp::Read { var: 0, val: 200 }));
        wb.push(ev(2, TapOp::Commit { ticket: 2 }));
        let w = wb.flush().unwrap();
        assert!(check_opacity(&w.history, &Sc).is_opaque());
    }

    #[test]
    fn drop_gaps_are_repaired_not_fatal() {
        // Begin, (dropped Commit), Begin again; and a Commit with a
        // dropped Begin on another process.
        let events = vec![
            ev(0, TapOp::Begin),
            ev(0, TapOp::Write { var: 0, val: 1 }),
            ev(0, TapOp::Begin),
            ev(0, TapOp::Commit { ticket: 0 }),
            ev(1, TapOp::Commit { ticket: 1 }),
        ];
        let (h, repaired) = build_history(&events, &[]);
        assert_eq!(repaired, 2);
        assert_eq!(h.txns().len(), 2); // phantom aborted + real committed
    }

    #[test]
    fn reseeded_replaces_stale_seeds_with_first_reads() {
        let mut wb = WindowBuilder::new(1);
        wb.push(ev(0, TapOp::Begin));
        wb.push(ev(0, TapOp::Write { var: 0, val: 5 }));
        wb.push(ev(0, TapOp::Commit { ticket: 0 }));
        wb.seal().unwrap();
        // The next window reads 6 — a value the tracker never saw
        // (e.g. its commit publish raced past the seal).
        wb.push(ev(1, TapOp::Begin));
        wb.push(ev(1, TapOp::Read { var: 0, val: 6 }));
        wb.push(ev(1, TapOp::Commit { ticket: 1 }));
        let w = wb.flush().unwrap();
        assert!(!check_opacity(&w.history, &Sc).is_opaque());
        let h2 = w.reseeded().expect("seed changed");
        assert!(check_opacity(&h2, &Sc).is_opaque());
        // A window whose seeds already match has no second chance.
        let mut wb2 = WindowBuilder::new(1);
        wb2.push(ev(0, TapOp::Begin));
        wb2.push(ev(0, TapOp::Read { var: 0, val: 0 }));
        wb2.push(ev(0, TapOp::Commit { ticket: 0 }));
        let w2 = wb2.flush().unwrap();
        assert!(w2.reseeded().is_none());
    }

    #[test]
    fn the_seed_table_holds_one_entry_per_variable() {
        // Small indices, the top of the `u32` range and indices no
        // history can name: each is tracked once, however often seen.
        let top = u64::from(u32::MAX);
        let vars = [0, 1, 35, 1 << 31, top - 1, top, top + 1, u64::MAX];
        let mut wb = WindowBuilder::new(2);
        let mut ticket = 0;
        for round in 0..3 {
            for (p, &var) in vars.iter().enumerate() {
                let p = p as u32;
                wb.push(ev(p, TapOp::Begin));
                wb.push(ev(p, TapOp::Read { var, val: round }));
                wb.push(ev(
                    p,
                    TapOp::Write {
                        var,
                        val: round + 1,
                    },
                ));
                ticket += 1;
                if wb.push(ev(p, TapOp::Commit { ticket })) {
                    wb.seal().unwrap();
                }
            }
        }
        assert_eq!(wb.tracked.len(), vars.len());
    }

    #[test]
    fn a_variable_no_history_can_name_is_a_counted_repair() {
        let huge = u64::from(u32::MAX) + 1;
        let mut wb = WindowBuilder::new(1);
        wb.push(ev(0, TapOp::Begin));
        wb.push(ev(0, TapOp::Read { var: huge, val: 3 }));
        wb.push(ev(0, TapOp::Write { var: huge, val: 9 }));
        wb.push(ev(0, TapOp::Write { var: 1, val: 9 }));
        assert!(wb.push(ev(0, TapOp::Commit { ticket: 0 })));
        let w = wb.seal().unwrap();
        // Start, the write of variable 1, commit: both accesses skipped.
        assert_eq!((w.history.len(), w.repaired), (3, 2));
        assert_eq!(w.reseeded().map(|h| h.len()), Some(3));
        // The committed 9 seeds no initializer in the next window.
        wb.push(ev(1, TapOp::Begin));
        wb.push(ev(1, TapOp::Read { var: huge, val: 9 }));
        wb.push(ev(1, TapOp::Commit { ticket: 1 }));
        let w = wb.flush().unwrap();
        assert_eq!((w.history.len(), w.repaired), (2, 1));
        assert!(check_opacity(&w.history, &Sc).is_opaque());
    }
}
