//! The one-pass [`WindowBuilder`] against the multi-pass builder it
//! replaced, kept here verbatim as the reference but for its names and
//! for variable indices above `u32::MAX`, which both count as repairs:
//! `seal` found the open transactions, the seeds, the committed write
//! sets and the completed count in one scan of the buffer each, `flush`
//! copied half of it, and the seeds lived in a `BTreeMap`.
//!
//! Seeded streams — 1–6 processes, transactions that stay open across
//! seals, commit tickets that arrive inverted, aborts, non-transactional
//! accesses, (every other seed) dropped `Begin`/`Commit`/`Abort` events,
//! and (every fourth seed) variable indices at the top of the `u32`
//! range and above it — drive both at window sizes 1, 2, 7 and 64. At
//! every seal and at the final flush the sealed history (its
//! initializer holds the seeds), `completed`, `repaired`, the backlog
//! and the second-chance history must be equal.
//!
//! The same streams then drive a [`Monitor`] against the loop it
//! replaces — seal a window, triage its history, check it on a miss,
//! give it its second chance — under every registry entry and both
//! kinds: the monitor triages a window from its events and builds a
//! history only to escalate, and must count the same windows, clears,
//! escalations and violations.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::{Check, CheckKind};
use jungle_core::history::{History, OpInstance};
use jungle_core::ids::{ProcId, Var};
use jungle_core::registry::{entry, registry, ModelEntry};
use jungle_core::triage::triage_opacity;
use jungle_monitor::{Monitor, MonitorConfig, SealedWindow, WindowBuilder, INIT_PID};
use jungle_obs::trace::{self, EventKind, FlightRecorder};
use jungle_stm::{TapEvent, TapOp};
use std::collections::BTreeMap;

// ---- the parent's builder, verbatim but for the `Ref` names ----

fn var(raw: u64) -> Option<Var> {
    u32::try_from(raw).ok().map(Var)
}

struct RefSealed {
    history: History,
    completed: usize,
    repaired: u64,
    events: Vec<TapEvent>,
    init_writes: Vec<(u64, u64)>,
}

impl RefSealed {
    fn reseeded(&self) -> Option<History> {
        let mut first_read: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for ev in &self.events {
            match ev.op {
                TapOp::Read { var, val } => {
                    first_read.entry(var).or_insert(Some(val));
                }
                TapOp::Write { var, .. } => {
                    first_read.entry(var).or_insert(None);
                }
                _ => {}
            }
        }
        let mut seeds = self.init_writes.clone();
        let mut changed = false;
        for (v, val) in &mut seeds {
            if let Some(Some(seen)) = first_read.get(v) {
                if *seen != *val {
                    *val = *seen;
                    changed = true;
                }
            }
        }
        for (v, fr) in &first_read {
            if let Some(seen) = fr {
                if *seen != 0 && !seeds.iter().any(|(sv, _)| sv == v) {
                    seeds.push((*v, *seen));
                    changed = true;
                }
            }
        }
        if !changed {
            return None;
        }
        Some(ref_build_history(&self.events, &seeds).0)
    }
}

fn ref_build_history(events: &[TapEvent], init_writes: &[(u64, u64)]) -> (History, u64) {
    let mut b = HistoryBuilder::new();
    let init: Vec<(Var, u64)> = init_writes
        .iter()
        .filter(|(_, val)| *val != 0)
        .filter_map(|&(v, val)| Some((var(v)?, val)))
        .collect();
    if !init.is_empty() {
        let ip = ProcId(INIT_PID);
        b.start(ip);
        for (x, val) in init {
            b.write(ip, x, val);
        }
        b.commit(ip);
    }
    let mut open: BTreeMap<u32, bool> = BTreeMap::new();
    let mut repaired = 0u64;
    for ev in events {
        let p = ev.pid;
        let is_open = open.get(&p.0).copied().unwrap_or(false);
        match ev.op {
            TapOp::Begin => {
                if is_open {
                    b.abort(p);
                    repaired += 1;
                }
                b.start(p);
                open.insert(p.0, true);
            }
            TapOp::Read { var: v, val } => match var(v) {
                Some(x) => _ = b.read(p, x, val),
                None => repaired += 1,
            },
            TapOp::Write { var: v, val } => match var(v) {
                Some(x) => _ = b.write(p, x, val),
                None => repaired += 1,
            },
            TapOp::Commit { .. } => {
                if is_open {
                    b.commit(p);
                    open.insert(p.0, false);
                } else {
                    repaired += 1;
                }
            }
            TapOp::Abort => {
                if is_open {
                    b.abort(p);
                    open.insert(p.0, false);
                } else {
                    repaired += 1;
                }
            }
            // The streams here are transactional.
            TapOp::NtInvoke | TapOp::NtRead { .. } | TapOp::NtWrite { .. } => {}
        }
    }
    let h = b
        .build()
        .expect("sanitized window event sequence is well-formed");
    (h, repaired)
}

struct RefBuilder {
    window_txns: usize,
    pending: Vec<TapEvent>,
    completed: usize,
    tracked: BTreeMap<u64, (u64, u64)>,
}

impl RefBuilder {
    fn new(window_txns: usize) -> Self {
        RefBuilder {
            window_txns: window_txns.max(1),
            pending: Vec::new(),
            completed: 0,
            tracked: BTreeMap::new(),
        }
    }

    fn push(&mut self, ev: TapEvent) -> bool {
        if matches!(ev.op, TapOp::Commit { .. } | TapOp::Abort) {
            self.completed += 1;
        }
        self.pending.push(ev);
        self.completed >= self.window_txns
    }

    fn backlog(&self) -> usize {
        self.pending.len()
    }

    fn seal(&mut self) -> Option<RefSealed> {
        let mut open_from: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, ev) in self.pending.iter().enumerate() {
            match ev.op {
                TapOp::Begin => {
                    open_from.insert(ev.pid.0, i);
                }
                TapOp::Commit { .. } | TapOp::Abort => {
                    open_from.remove(&ev.pid.0);
                }
                _ => {}
            }
        }
        let mut window = Vec::with_capacity(self.pending.len());
        let mut carried = Vec::new();
        for (i, ev) in self.pending.drain(..).enumerate() {
            let carry = open_from.get(&ev.pid.0).is_some_and(|&from| i >= from);
            if carry {
                carried.push(ev);
            } else {
                window.push(ev);
            }
        }
        self.pending = carried;
        self.completed = 0;
        if window.is_empty() {
            return None;
        }

        let mut init_writes = Vec::new();
        let mut seen = BTreeMap::new();
        for ev in &window {
            if let TapOp::Read { var, .. } | TapOp::Write { var, .. } = ev.op {
                if seen.insert(var, ()).is_none() {
                    let seed = self.tracked.get(&var).map_or(0, |&(_, val)| val);
                    init_writes.push((var, seed));
                }
            }
        }

        let mut ws: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for ev in &window {
            match ev.op {
                TapOp::Begin => {
                    ws.insert(ev.pid.0, Vec::new());
                }
                TapOp::Write { var, val } => {
                    if let Some(w) = ws.get_mut(&ev.pid.0) {
                        w.push((var, val));
                    }
                }
                TapOp::Commit { ticket } => {
                    for (var, val) in ws.remove(&ev.pid.0).unwrap_or_default() {
                        let e = self.tracked.entry(var).or_insert((ticket, val));
                        if ticket >= e.0 {
                            *e = (ticket, val);
                        }
                    }
                }
                TapOp::Abort => {
                    ws.remove(&ev.pid.0);
                }
                TapOp::Read { .. } => {}
                // The streams here are transactional.
                TapOp::NtInvoke | TapOp::NtRead { .. } | TapOp::NtWrite { .. } => {}
            }
        }

        let completed = window
            .iter()
            .filter(|e| matches!(e.op, TapOp::Commit { .. } | TapOp::Abort))
            .count();
        let (history, repaired) = ref_build_history(&window, &init_writes);
        Some(RefSealed {
            history,
            completed,
            repaired,
            events: window,
            init_writes,
        })
    }

    fn flush(&mut self) -> Option<RefSealed> {
        if self.pending.is_empty() {
            return None;
        }
        let window = std::mem::take(&mut self.pending);
        self.completed = 0;
        let mut init_writes = Vec::new();
        let mut seen = BTreeMap::new();
        for ev in &window {
            if let TapOp::Read { var, .. } | TapOp::Write { var, .. } = ev.op {
                if seen.insert(var, ()).is_none() {
                    let seed = self.tracked.get(&var).map_or(0, |&(_, val)| val);
                    init_writes.push((var, seed));
                }
            }
        }
        let completed = window
            .iter()
            .filter(|e| matches!(e.op, TapOp::Commit { .. } | TapOp::Abort))
            .count();
        let (history, repaired) = ref_build_history(&window, &init_writes);
        Some(RefSealed {
            history,
            completed,
            repaired,
            events: window,
            init_writes,
        })
    }
}

// ---- the streams ----

/// xorshift64*, seeded per stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
    }
}

/// Variable indices a tap's `u64` can carry beyond the four small ones:
/// the top of the `u32` range, which a history holds, and indices above
/// it, which only a corrupt stream carries and both builders skip.
const WIDE: [u64; 5] = [
    u32::MAX as u64,
    u32::MAX as u64 - 1,
    1 << 31,
    1 << 32,
    u64::MAX,
];

/// Does some access of the sealed window name a variable `pick` selects?
fn names(w: &Option<RefSealed>, pick: impl Fn(u64) -> bool) -> bool {
    w.iter().flat_map(|w| &w.events).any(|e| match e.op {
        TapOp::Read { var, .. } | TapOp::Write { var, .. } => pick(var),
        _ => false,
    })
}

/// `len` steps of `1 + seed % 6` processes over four variables. A
/// process outside a transaction begins one (or, rarely, makes a
/// non-transactional access); inside, it reads, writes, commits or
/// aborts. The lowest process is scheduled a tenth as often as the
/// others and ends its transactions reluctantly, so they stay open
/// across several seals of a small window. One commit in four takes its
/// ticket from below the counter — an inverted publish. With `gaps`,
/// one boundary event in eight is dropped after it took effect, as
/// `Backpressure::Drop` would. With `wide`, one access in three names
/// one of [`WIDE`] instead.
fn stream(seed: u64, len: usize, gaps: bool, wide: bool) -> Vec<TapEvent> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let procs = 1 + seed % 6;
    let mut in_txn = vec![false; procs as usize];
    let (mut ticket, mut fresh) = (10u64, 0u64);
    let mut events = Vec::new();
    for _ in 0..len {
        let mut p = rng.below(procs);
        if p == 0 && rng.below(10) != 0 {
            p = rng.below(procs);
        }
        let mut var = rng.below(4);
        if wide && rng.below(3) == 0 {
            var = WIDE[rng.below(WIDE.len() as u64) as usize];
        }
        let roll = rng.below(if p == 0 { 24 } else { 8 });
        let op = match (in_txn[p as usize], roll) {
            (false, 0) => TapOp::Read {
                var,
                val: rng.below(3),
            },
            (false, _) => TapOp::Begin,
            (true, 0) => TapOp::Abort,
            (true, 1 | 2) => {
                ticket += 1;
                let late = if rng.below(4) == 0 { rng.below(6) } else { 0 };
                TapOp::Commit {
                    ticket: ticket - late,
                }
            }
            (true, r) if r % 2 == 0 => TapOp::Read {
                var,
                val: rng.below(3),
            },
            (true, _) => {
                fresh += 1;
                TapOp::Write { var, val: fresh }
            }
        };
        let boundary = !matches!(op, TapOp::Read { .. } | TapOp::Write { .. });
        if boundary {
            in_txn[p as usize] = matches!(op, TapOp::Begin);
        }
        if !(gaps && boundary && rng.below(8) == 0) {
            events.push(TapEvent {
                pid: ProcId(p as u32),
                op,
            });
        }
    }
    events
}

fn ops(h: Option<History>) -> Option<Vec<OpInstance>> {
    h.map(|h| h.ops().to_vec())
}

fn assert_same(new: Option<SealedWindow>, old: Option<RefSealed>, ctx: &str) {
    let (Some(new), Some(old)) = (&new, &old) else {
        assert_eq!(new.is_some(), old.is_some(), "{ctx}: one builder sealed");
        return;
    };
    assert_eq!(new.history.ops(), old.history.ops(), "{ctx}: history");
    assert_eq!(new.completed, old.completed, "{ctx}: completed");
    assert_eq!(new.repaired, old.repaired, "{ctx}: repaired");
    assert_eq!(ops(new.reseeded()), ops(old.reseeded()), "{ctx}: reseeded");
}

#[test]
fn one_pass_builder_seals_what_the_multi_pass_builder_sealed() {
    let (mut windows, mut carried, mut repaired, mut reseeded) = (0u64, 0u64, 0u64, 0u64);
    let (mut top, mut above) = (0u64, 0u64);
    for k in [1usize, 2, 7, 64] {
        for seed in 0..48u64 {
            let (gaps, wide) = (seed % 2 == 1, seed % 4 == 2);
            let (mut new, mut old) = (WindowBuilder::new(k), RefBuilder::new(k));
            for (i, ev) in stream(seed, 40 * k.max(8), gaps, wide)
                .into_iter()
                .enumerate()
            {
                let ctx = format!("window {k}, seed {seed}, event {i}");
                let full = new.push(ev);
                assert_eq!(full, old.push(ev), "{ctx}: fullness");
                if full {
                    let (w, r) = (new.seal(), old.seal());
                    windows += 1;
                    carried += u64::from(old.backlog() > 0);
                    repaired += r.as_ref().map_or(0, |r| r.repaired);
                    reseeded += u64::from(r.as_ref().is_some_and(|r| r.reseeded().is_some()));
                    let u32_top = |v: u64| v >= 1 << 31 && v <= u64::from(u32::MAX);
                    top += u64::from(names(&r, u32_top));
                    above += u64::from(names(&r, |v| v > u64::from(u32::MAX)));
                    assert_same(w, r, &ctx);
                }
                assert_eq!(new.backlog(), old.backlog(), "{ctx}: backlog");
            }
            let ctx = format!("window {k}, seed {seed}, flush");
            assert_same(new.flush(), old.flush(), &ctx);
            assert_eq!(new.backlog(), 0, "{ctx}");
        }
    }
    // The streams reach what they were built to reach.
    assert!(windows > 5_000, "{windows} windows");
    assert!(
        carried > 1_000,
        "{carried} seals carried a transaction over"
    );
    assert!(repaired > 100, "{repaired} repairs");
    assert!(reseeded > 1_000, "{reseeded} windows had a second chance");
    assert!(
        top > 200 && above > 200,
        "{top} windows name the top of the u32 range, {above} an index above it"
    );
}

/// The loop the monitor's pipeline must match: `(windows, cleared,
/// escalated, violations, rescued)`, the last counting the windows
/// only their second chance passed.
fn reference(events: &[TapEvent], k: usize, e: &ModelEntry, kind: CheckKind) -> [u64; 5] {
    let mut counts = [0u64; 5];
    let holds = |h: &History| Check::new(kind).run(h, e.model).0.holds();
    let mut check = |w: SealedWindow| {
        counts[0] += 1;
        if triage_opacity(&w.history, e.model).cleared() {
            counts[1] += 1;
        } else if holds(&w.history) {
            counts[2] += 1;
        } else if w.reseeded().is_some_and(|h| holds(&h)) {
            counts[2] += 1;
            counts[4] += 1;
        } else {
            counts[2] += 1;
            counts[3] += 1;
        }
    };
    let mut wb = WindowBuilder::new(k);
    for &ev in events {
        if wb.push(ev) {
            wb.seal().map(&mut check);
        }
    }
    wb.flush().map(check);
    counts
}

#[test]
fn the_monitor_counts_what_sealing_and_triaging_each_history_counted() {
    let mut total = [0u64; 5];
    for k in [1usize, 2, 7] {
        for seed in 0..48u64 {
            let (gaps, wide) = (seed % 2 == 1, seed % 4 == 2);
            let events = stream(seed, 40 * k.max(8), gaps, wide);
            for e in registry() {
                for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                    let want = reference(&events, k, e, kind);
                    let mut mon = Monitor::new(MonitorConfig::new().window(k).kind(kind).model(e));
                    for &ev in &events {
                        mon.ingest(ev);
                    }
                    let s = mon.finish();
                    assert_eq!(
                        [
                            s.windows_sealed,
                            s.triage_cleared,
                            s.escalated,
                            s.violations
                        ],
                        want[..4],
                        "window {k}, seed {seed}, {} {kind:?}",
                        e.key
                    );
                    for (t, w) in total.iter_mut().zip(want) {
                        *t += w;
                    }
                }
            }
        }
    }
    // Every tier fires: triage clears, escalations pass, second chances
    // rescue, violations are reported.
    let [windows, cleared, escalated, violations, rescued] = total;
    assert_eq!(cleared + escalated, windows);
    assert!(
        cleared > 1_000 && escalated > violations + rescued && rescued > 100 && violations > 1_000,
        "{windows} windows: {cleared} cleared, {escalated} escalated, \
         {rescued} rescued by the second chance, {violations} violations"
    );
}

/// The monitor's one flight event, `MonitorViolation`, names the
/// windows the loop found in violation: it carries the length of the
/// history the loop built and the number of windows sealed so far.
#[test]
fn flight_events_carry_the_sealed_histories_lengths() {
    let sc = entry("SC").expect("SC is registered");
    let mut violations = 0;
    for seed in 0..48u64 {
        let events = stream(seed, 320, seed % 2 == 1, seed % 4 == 2);
        let mut want = Vec::new();
        let mut windows = 0;
        let mut check = |w: SealedWindow| {
            windows += 1;
            if triage_opacity(&w.history, sc.model).cleared() {
                return;
            }
            let holds = |h: &History| Check::new(CheckKind::Opacity).run(h, sc.model).0.holds();
            if !(holds(&w.history) || w.reseeded().is_some_and(|h| holds(&h))) {
                want.push((EventKind::MonitorViolation, w.history.len() as u64, windows));
            }
        };
        let mut wb = WindowBuilder::new(2);
        for &ev in &events {
            if wb.push(ev) {
                wb.seal().map(&mut check);
            }
        }
        wb.flush().map(check);

        let recorder = std::sync::Arc::new(FlightRecorder::with_capacity(1 << 12));
        trace::install(recorder.clone());
        let mut mon = Monitor::new(MonitorConfig::new().window(2));
        for &ev in &events {
            mon.ingest(ev);
        }
        mon.finish();
        trace::uninstall();
        // Other tests' threads record into other shards of the ring.
        let me = trace::thread_id();
        let got: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.tid == me && e.kind.cat() == "monitor")
            .map(|e| (e.kind, e.a, e.b))
            .collect();
        violations += want.len();
        assert_eq!(got, want, "seed {seed}");
    }
    assert!(violations > 10, "{violations} violating windows");
}
