//! Flight recorder: per-thread lock-free ring buffers of structured
//! events, exported as Chrome-trace-event JSON (loadable in Perfetto).
//!
//! A trace holds spans and verdicts: a checker's witness search and a
//! CDCL solve (begin / end), an executable STM's transaction attempt
//! (begin / commit / abort), and the verdicts a layer reaches — a
//! model-checking violation, a monitored window's violation, a
//! replay's divergence. Beside them it holds the few happenings no
//! stats field counts: a DFS backtracking out of an exhausted
//! frontier, a listed prefix dropped after a lower-indexed success, a
//! load forwarded from the CPU's own store buffer, an STM CAS that
//! lost its race, and the start of a replay. What a counter already
//! counts (nodes, prunes, schedules, drains, ingested events, solver
//! conflicts, …) is not an event: the stats say how many, and the
//! spans around them say when and where.
//!
//! Recording is zero-cost when off: event sites call [`emit`], which
//! is a single relaxed atomic load returning immediately unless a
//! [`FlightRecorder`] has been [`install`]ed. No recorder, no work —
//! not even a timestamp read.
//!
//! When a recorder *is* installed, an event is one monotonic clock
//! read plus four relaxed atomic stores into a fixed ring buffer slot:
//! no locks, no allocation, wait-free. Each thread writes to its own
//! shard (chosen by a thread-local id), so writers never contend; a
//! full ring wraps and overwrites its oldest events, keeping memory
//! flat and counting the overwritten events in
//! [`FlightRecorder::dropped`].

use crate::json::Json;
use crate::sink::Installed;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of ring-buffer shards. Threads map to shards by a
/// process-unique thread id modulo this count, so runs with up to this
/// many recording threads have fully private shards.
const TRACE_SHARDS: usize = 32;

/// Default ring capacity (events) per shard. Must be a power of two.
const DEFAULT_RING_CAP: usize = 1 << 12;

/// Chrome-trace phase of an event kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// `"B"` — opens a duration span.
    Begin,
    /// `"E"` — closes the innermost open span of the same thread.
    End,
    /// `"i"` — instant event.
    Instant,
}

/// The one declaration of the event taxonomy: per category (one per
/// instrumented layer), one row per kind — `Variant = ring code,
/// "chrome-trace name", Phase;` under the variant's doc comment. Derives
/// [`EventKind`] with [`ALL`](EventKind::ALL), `cat_index`, `name`,
/// `phase` and `from_u8`, and [`CATEGORIES`] in declaration order.
macro_rules! events {
    ($(
        $cat:ident {
            $( $(#[$doc:meta])* $kind:ident = $code:literal, $name:literal, $phase:ident; )*
        }
    )*) => {
        /// The event categories, in `cat_index` order. One per
        /// instrumented layer of the workspace.
        const CATEGORIES: [&str; [$(stringify!($cat)),*].len()] = [$(stringify!($cat)),*];

        /// Declaration-order index of each category.
        #[allow(non_camel_case_types)]
        enum Category {
            $($cat),*
        }

        /// The event taxonomy, one variant per narrated happening.
        ///
        /// Ring codes start at 1 so a zeroed ring slot is recognizably
        /// empty.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum EventKind {
            $($( $(#[$doc])* $kind = $code, )*)*
        }

        impl EventKind {
            /// Every kind, in ring-code order.
            pub const ALL: &'static [EventKind] = &[$($(EventKind::$kind,)*)*];

            /// Index of this kind's category into [`CATEGORIES`].
            fn cat_index(self) -> usize {
                match self {
                    $( $(EventKind::$kind)|* => Category::$cat as usize, )*
                }
            }

            /// Chrome-trace event name. Span pairs share one name so
            /// Perfetto nests them ("search" for begin/end, "txn" for
            /// begin/commit/abort).
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $($( EventKind::$kind => $name, )*)*
                }
            }

            /// The Chrome-trace phase this kind exports as.
            pub fn phase(self) -> Phase {
                match self {
                    $($( EventKind::$kind => Phase::$phase, )*)*
                }
            }

            fn from_u8(v: u8) -> Option<EventKind> {
                match v {
                    $($( $code => Some(EventKind::$kind), )*)*
                    _ => None,
                }
            }
        }
    };
}

events! {
    checker {
        /// A witness search started (`a` = schedulable units, `b` = the
        /// workers `check_opacity_par` split it over, 0 for a serial
        /// search).
        SearchBegin = 1, "search", Begin;
        /// The witness search finished (`a` = nodes, `b` = 1 if satisfied).
        SearchEnd = 2, "search", End;
        /// The DFS exhausted a frontier's candidates and backtracked out
        /// of it (`a` = depth, `b` = 0).
        Backtrack = 3, "backtrack", Instant;
        /// A worker of the prefix list dropped a prefix because a
        /// lower-indexed one already succeeded (`a` = prefix length,
        /// `b` = 0).
        PrefixCancel = 4, "prefix_cancel", Instant;
    }
    mc {
        /// A violating trace was found (`a` = schedule sequence number,
        /// `b` = 0).
        McViolation = 5, "violation", Instant;
    }
    memsim {
        /// A load was served from the CPU's own store buffer (`a` = addr,
        /// `b` = value forwarded).
        StoreForward = 6, "store_forward", Instant;
    }
    stm {
        /// A transaction attempt started (`a` = process id, `b` = attempt).
        TxnBegin = 7, "txn", Begin;
        /// The attempt committed (`a` = process id, `b` = attempt).
        TxnCommit = 8, "txn", End;
        /// The attempt aborted and will retry (`a` = process id, `b` =
        /// attempt).
        TxnAbort = 9, "txn", End;
        /// A CAS inside an STM operation lost its race (`a` = process id,
        /// `b` = variable).
        StmCasFail = 10, "cas_fail", Instant;
    }
    replay {
        /// A schedule-log replay started (`a` = decision count, `b` =
        /// recorded fingerprint).
        ReplayBegin = 11, "replay_begin", Instant;
        /// The replay stopped matching its recording (`a` = step index,
        /// `b` = encoded action the recording expected).
        ReplayDivergence = 12, "replay_divergence", Instant;
    }
    monitor {
        /// The full checker found a window in violation (`a` = operations
        /// in the window's history, `b` = windows sealed so far).
        MonitorViolation = 13, "monitor_violation", Instant;
    }
    sat {
        /// A CDCL solve of an order encoding started (`a` = variables,
        /// `b` = clauses).
        SatSolveBegin = 14, "sat_solve", Begin;
        /// The CDCL solve finished (`a` = 1 if a model was found, `b` =
        /// CEGAR rounds).
        SatSolveEnd = 15, "sat_solve", End;
    }
}

impl EventKind {
    /// Layer category, one of `CATEGORIES`.
    pub fn cat(self) -> &'static str {
        CATEGORIES[self.cat_index()]
    }
}

/// A decoded event read back out of the rings.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Nanoseconds since the recorder was created (monotonic clock).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Recording thread (process-unique small integer).
    pub tid: u32,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// One ring slot: four relaxed atomics. `meta == 0` marks a
/// never-written slot (event kinds start at 1).
struct Slot {
    ts: AtomicU64,
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Shard {
    /// Monotonic write cursor; the slot index is `head & (cap - 1)`.
    head: AtomicUsize,
    slots: Box<[Slot]>,
}

/// The flight recorder: `TRACE_SHARDS` single-writer ring buffers.
///
/// Writers are wait-free (a clock read and four relaxed stores). A
/// shard is owned by the threads whose ids map to it; with more
/// recording threads than shards two writers can race on a wrapped
/// slot and record a torn event — acceptable for diagnostics, and
/// impossible below `TRACE_SHARDS` concurrent threads.
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    shards: Box<[Shard]>,
    /// Events recorded per [`CATEGORIES`] entry.
    cat_recorded: [AtomicU64; CATEGORIES.len()],
    /// Events evicted by ring wrap-around per [`CATEGORIES`] entry,
    /// attributed to the *evicted* event's category. Two writers racing
    /// on the same wrapped slot can double- or mis-count an eviction —
    /// the same torn-event tolerance as the slots themselves.
    cat_dropped: [AtomicU64; CATEGORIES.len()],
}

impl FlightRecorder {
    /// A recorder with the default per-shard capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAP)
    }

    /// A recorder with `cap` slots per shard (rounded up to a power of
    /// two, minimum 8).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(8).next_power_of_two();
        let shards = (0..TRACE_SHARDS)
            .map(|_| Shard {
                head: AtomicUsize::new(0),
                slots: (0..cap)
                    .map(|_| Slot {
                        ts: AtomicU64::new(0),
                        meta: AtomicU64::new(0),
                        a: AtomicU64::new(0),
                        b: AtomicU64::new(0),
                    })
                    .collect(),
            })
            .collect();
        FlightRecorder {
            epoch: Instant::now(),
            cap,
            shards,
            cat_recorded: Default::default(),
            cat_dropped: Default::default(),
        }
    }

    /// Record one event. Wait-free; wraps (overwriting the shard's
    /// oldest event) when the ring is full.
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        let tid = thread_id();
        let ts = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let shard = &self.shards[(tid as usize) % TRACE_SHARDS];
        let cursor = shard.head.fetch_add(1, Ordering::Relaxed);
        let slot = &shard.slots[cursor & (self.cap - 1)];
        if cursor >= self.cap {
            // Wrapping: attribute the evicted event before overwriting.
            let old = slot.meta.load(Ordering::Acquire);
            if let Some(evicted) = EventKind::from_u8((old & 0xff) as u8) {
                self.cat_dropped[evicted.cat_index()].fetch_add(1, Ordering::Relaxed);
            }
        }
        slot.ts.store(ts, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.meta
            .store((kind as u64) | (u64::from(tid) << 8), Ordering::Release);
        self.cat_recorded[kind.cat_index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Total events recorded (including any since overwritten).
    pub fn recorded(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed) as u64)
            .sum()
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed).saturating_sub(self.cap) as u64)
            .sum()
    }

    /// Per-category `(name, recorded, dropped)` rows, in
    /// `CATEGORIES` order. Dropped counts attribute each ring
    /// eviction to the overwritten event's category, so they sum to
    /// [`dropped`](Self::dropped) (modulo torn-slot races above
    /// `TRACE_SHARDS` concurrent writers).
    pub fn by_category(&self) -> Vec<(&'static str, u64, u64)> {
        CATEGORIES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    *name,
                    self.cat_recorded[i].load(Ordering::Relaxed),
                    self.cat_dropped[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Snapshot every surviving event, sorted by timestamp. Intended
    /// for export after the recorded work has quiesced; concurrent
    /// writers may leave a torn final event per shard.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let filled = shard.head.load(Ordering::Acquire).min(self.cap);
            for slot in &shard.slots[..filled] {
                let meta = slot.meta.load(Ordering::Acquire);
                if meta == 0 {
                    continue;
                }
                let Some(kind) = EventKind::from_u8((meta & 0xff) as u8) else {
                    continue;
                };
                out.push(Event {
                    ts_ns: slot.ts.load(Ordering::Relaxed),
                    kind,
                    tid: (meta >> 8) as u32,
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                });
            }
        }
        out.sort_by_key(|e| e.ts_ns);
        out
    }

    /// Export as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...], "displayTimeUnit": "ns"}`), loadable in
    /// Perfetto or `chrome://tracing`.
    ///
    /// Span events (`"B"`/`"E"`) are emitted only as matched, properly
    /// nested per-thread pairs; orphans from ring wrap-around are
    /// demoted out of the export so the file always balances.
    pub fn chrome_trace(&self) -> Json {
        let events = self.events();
        // Balance pass: per tid, stack-match Begin/End events by index.
        let mut keep = vec![true; events.len()];
        let mut stacks: std::collections::HashMap<u32, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, e) in events.iter().enumerate() {
            match e.kind.phase() {
                Phase::Begin => stacks.entry(e.tid).or_default().push(i),
                Phase::End => {
                    let stack = stacks.entry(e.tid).or_default();
                    if stack.pop().is_none() {
                        keep[i] = false; // End without a recorded Begin
                    }
                }
                Phase::Instant => {}
            }
        }
        for stack in stacks.values() {
            for &i in stack {
                keep[i] = false; // Begin whose End was overwritten
            }
        }

        let mut arr = Vec::with_capacity(events.len());
        for (i, e) in events.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let mut j = Json::obj();
            j.push("name", e.kind.name().into())
                .push("cat", e.kind.cat().into())
                .push(
                    "ph",
                    match e.kind.phase() {
                        Phase::Begin => "B",
                        Phase::End => "E",
                        Phase::Instant => "i",
                    }
                    .into(),
                )
                .push("ts", Json::F64(e.ts_ns as f64 / 1000.0))
                .push("pid", 1u64.into())
                .push("tid", u64::from(e.tid).into());
            if e.kind.phase() == Phase::Instant {
                j.push("s", "t".into());
            }
            let mut args = Json::obj();
            args.push("a", e.a.into()).push("b", e.b.into());
            j.push("args", args);
            arr.push(j);
        }
        let mut out = Json::obj();
        let mut cats = Json::obj();
        for (name, recorded, dropped) in self.by_category() {
            let mut c = Json::obj();
            c.push("recorded", recorded.into())
                .push("dropped", dropped.into());
            cats.push(name, c);
        }
        out.push("traceEvents", Json::Arr(arr))
            .push("displayTimeUnit", "ns".into())
            .push("recorded", self.recorded().into())
            .push("dropped", self.dropped().into())
            .push("categories", cats);
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

// ── global installation ──────────────────────────────────────────────

static SINK: Installed<FlightRecorder> = Installed::new();

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u32 = (NEXT_TID.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff) as u32;
}

/// Process-unique id of the calling thread (small, assigned on first
/// use).
pub fn thread_id() -> u32 {
    TID.with(|t| *t)
}

/// Install `recorder` as the process-global flight recorder; event
/// sites start recording into it immediately. Replaces any previous
/// recorder (which stays alive but stops receiving events).
pub fn install(recorder: Arc<FlightRecorder>) {
    SINK.install(recorder);
}

/// Stop recording. The last installed recorder remains readable via
/// the caller's own `Arc`.
pub fn uninstall() {
    SINK.disable();
    SINK.clear();
}

/// Record an event on the installed recorder, if any. This is the hook
/// the hot paths call: with no recorder installed it is one relaxed
/// load and a predictable branch.
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64) {
    if !SINK.enabled() {
        return;
    }
    emit_installed(kind, a, b);
}

#[cold]
fn emit_installed(kind: EventKind, a: u64, b: u64) {
    if let Some(recorder) = SINK.current() {
        recorder.record(kind, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_exports_no_events() {
        let r = FlightRecorder::new();
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.events().is_empty());
        let j = r.chrome_trace();
        match j.get("traceEvents") {
            Some(Json::Arr(a)) => assert!(a.is_empty()),
            other => panic!("bad traceEvents: {other:?}"),
        }
    }

    #[test]
    fn events_round_trip_and_sort_monotonic() {
        let r = FlightRecorder::with_capacity(64);
        r.record(EventKind::SearchBegin, 5, 0);
        r.record(EventKind::PrefixCancel, 1, 0);
        r.record(EventKind::Backtrack, 0, 0);
        r.record(EventKind::SearchEnd, 9, 1);
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(evs[0].kind, EventKind::SearchBegin);
        assert_eq!(evs[0].a, 5);
        assert_eq!(evs[3].b, 1);
        // All on the same thread.
        assert!(evs.iter().all(|e| e.tid == evs[0].tid));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20 {
            r.record(EventKind::Backtrack, i, 0);
        }
        assert_eq!(r.recorded(), 20);
        assert_eq!(r.dropped(), 12);
        assert_eq!(r.events().len(), 8);
    }

    #[test]
    fn per_category_counts_reconcile_with_totals() {
        let r = FlightRecorder::with_capacity(8);
        // 6 checker events, then 14 memsim events: the memsim burst
        // evicts all checker events plus its own overflow.
        for i in 0..6 {
            r.record(EventKind::Backtrack, i, 0);
        }
        for i in 0..14 {
            r.record(EventKind::StoreForward, i, 0);
        }
        let by_cat = r.by_category();
        let recorded: u64 = by_cat.iter().map(|(_, rec, _)| rec).sum();
        let dropped: u64 = by_cat.iter().map(|(_, _, d)| d).sum();
        assert_eq!(recorded, r.recorded());
        assert_eq!(dropped, r.dropped());
        let get = |name: &str| by_cat.iter().find(|(n, _, _)| *n == name).copied().unwrap();
        assert_eq!(get("checker"), ("checker", 6, 6));
        assert_eq!(get("memsim"), ("memsim", 14, 6));
        assert_eq!(get("stm"), ("stm", 0, 0));

        let j = r.chrome_trace();
        let cats = j.get("categories").expect("categories section");
        let memsim = cats.get("memsim").expect("memsim row");
        assert_eq!(memsim.get("recorded").and_then(Json::as_u64), Some(14));
        assert_eq!(memsim.get("dropped").and_then(Json::as_u64), Some(6));
    }

    #[test]
    fn chrome_trace_balances_spans() {
        let r = FlightRecorder::with_capacity(64);
        // An End with no Begin (simulating wrap), then a good pair,
        // then an unclosed Begin.
        r.record(EventKind::SearchEnd, 0, 0);
        r.record(EventKind::TxnBegin, 1, 0);
        r.record(EventKind::TxnCommit, 1, 0);
        r.record(EventKind::SearchBegin, 2, 0);
        let j = r.chrome_trace();
        let Some(Json::Arr(evs)) = j.get("traceEvents") else {
            panic!("no traceEvents")
        };
        let phases: Vec<String> = evs
            .iter()
            .map(|e| match e.get("ph") {
                Some(Json::Str(s)) => s.clone(),
                _ => panic!("missing ph"),
            })
            .collect();
        assert_eq!(phases, vec!["B", "E"], "only the matched pair survives");
    }

    #[test]
    fn events_table_is_dense_paired_and_covers_every_category() {
        let all = EventKind::ALL;
        // Ring codes are dense from 1, so `from_u8` inverts `as u8` on
        // every kind and a zeroed slot (or the code past the end)
        // decodes to nothing.
        for (i, &kind) in all.iter().enumerate() {
            assert_eq!(kind as usize, i + 1, "{kind:?}");
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(all.len() as u8 + 1), None);
        // `chrome_trace`'s balance pass matches a Begin with whatever
        // End follows on the thread: the exported pair nests only if
        // some End shares the Begin's category and name.
        let span = |k: &EventKind| (k.cat(), k.name());
        for begin in all.iter().filter(|k| k.phase() == Phase::Begin) {
            assert!(
                all.iter()
                    .any(|end| end.phase() == Phase::End && span(end) == span(begin)),
                "{begin:?} has no End kind"
            );
        }
        for (i, cat) in CATEGORIES.iter().enumerate() {
            assert!(!CATEGORIES[..i].contains(cat), "duplicate category {cat}");
            assert!(all.iter().any(|k| k.cat_index() == i), "{cat} has no kind");
        }
    }

    #[test]
    fn every_category_is_exported() {
        let r = FlightRecorder::with_capacity(64);
        r.record(EventKind::Backtrack, 0, 0);
        r.record(EventKind::McViolation, 0, 0);
        r.record(EventKind::StoreForward, 0, 0);
        r.record(EventKind::StmCasFail, 0, 0);
        r.record(EventKind::ReplayBegin, 0, 0);
        r.record(EventKind::MonitorViolation, 0, 0);
        r.record(EventKind::SatSolveBegin, 0, 0);
        let cats: std::collections::HashSet<&'static str> =
            r.events().iter().map(|e| e.kind.cat()).collect();
        assert_eq!(cats.len(), CATEGORIES.len());
        for c in CATEGORIES {
            assert!(cats.contains(c), "missing {c}");
        }
    }

    #[test]
    fn sat_solve_span_nests_in_its_search() {
        let r = FlightRecorder::with_capacity(64);
        r.record(EventKind::SearchBegin, 3, 0);
        r.record(EventKind::SatSolveBegin, 10, 42);
        r.record(EventKind::SatSolveEnd, 1, 0);
        r.record(EventKind::SearchEnd, 0, 1);
        let j = r.chrome_trace();
        let Some(Json::Arr(evs)) = j.get("traceEvents") else {
            panic!("no traceEvents")
        };
        let field = |e: &Json, k: &str| match e.get(k) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("missing {k}"),
        };
        let got: Vec<(String, String)> = evs
            .iter()
            .map(|e| (field(e, "ph"), field(e, "cat")))
            .collect();
        let want = [
            ("B", "checker"),
            ("B", "sat"),
            ("E", "sat"),
            ("E", "checker"),
        ];
        assert_eq!(
            got,
            want.map(|(p, c)| (p.to_string(), c.to_string())).to_vec()
        );
    }

    #[test]
    fn install_gates_emit() {
        // Uninstalled: emit is a no-op (cannot observe directly, but
        // must not crash).
        emit(EventKind::Backtrack, 0, 0);
        let r = Arc::new(FlightRecorder::with_capacity(256));
        install(r.clone());
        emit(EventKind::StoreForward, 0xfeed, 1);
        uninstall();
        emit(EventKind::StoreForward, 0xdead, 2); // dropped
        let evs = r.events();
        assert!(
            evs.iter()
                .any(|e| e.kind == EventKind::StoreForward && e.a == 0xfeed),
            "installed emit must reach the recorder"
        );
        assert!(
            !evs.iter().any(|e| e.a == 0xdead),
            "uninstalled emit must not"
        );
    }
}
