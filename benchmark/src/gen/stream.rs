//! A tap-event stream with a known monitor outcome.
//!
//! Four processes run read-modify-write transactions on disjoint
//! variables, one transaction after the other (which process runs
//! next is seeded); 64 of them make one monitor window, so a window
//! boundary never cuts a transaction. The real-time order of such a
//! window is total, and triage clears it.
//!
//! One window in [`CLUSTER_EVERY`] holds a *cluster* at a seeded
//! offset: three writers of one shared variable that overlap each
//! other (begun and committed in the order a, b, c), then an observer
//! that reads a's value. The window is opaque — serialize b, c, a —
//! but both orders triage tries end with c, so the window escalates.
//! Everything outside the cluster stays sequential: were the ordinary
//! transactions allowed to overlap four at a time, the escalated
//! search would face 24 orders per group of four and not return.
//!
//! The stream ends with [`POISONED`] windows that each hold a
//! transaction which reads its variable twice and gets a value nobody
//! wrote the second time: a violation in every order, and one the
//! monitor's re-seeded second look cannot explain away.

use crate::rng::Rng;
use jungle_core::ids::ProcId;
use jungle_stm::{TapEvent, TapOp};

pub const WINDOW_TXNS: usize = 64;
pub const PIDS: usize = 4;
/// Attempts a cluster takes up: three writers and the observer.
pub const CLUSTER_TXNS: usize = 4;
pub const CLUSTER_EVERY: usize = 20;
pub const POISONED: usize = 3;
/// Private variables per process; the cluster variables come after.
const VARS_PER_PID: u64 = 8;
const SHARED_VARS: u64 = 4;
const POISON: u64 = u64::MAX - 0xDEAD;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowKind {
    /// Triage clears it.
    Clear,
    /// Opaque, but triage cannot show it: escalates, no violation.
    Cluster,
    /// Not opaque: escalates and is reported.
    Poisoned,
}

/// The stream, cut where the monitor will seal its windows.
pub struct Stream {
    pub events: Vec<TapEvent>,
    /// `windows[i]` = (index one past its last event, what it holds).
    pub windows: Vec<(usize, WindowKind)>,
}

impl Stream {
    pub fn window_events(&self, i: usize) -> &[TapEvent] {
        let start = if i == 0 { 0 } else { self.windows[i - 1].0 };
        &self.events[start..self.windows[i].0]
    }

    pub fn count(&self, kind: WindowKind) -> usize {
        self.windows.iter().filter(|w| w.1 == kind).count()
    }
}

struct Builder {
    events: Vec<TapEvent>,
    mem: Vec<u64>,
    fresh: u64,
    ticket: u64,
    rng: Rng,
}

impl Builder {
    fn push(&mut self, pid: usize, op: TapOp) {
        self.events.push(TapEvent {
            pid: ProcId(pid as u32),
            op,
        });
    }

    fn commit(&mut self, pid: usize) {
        let ticket = self.ticket;
        self.ticket += 1;
        self.push(pid, TapOp::Commit { ticket });
    }

    fn fresh(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh
    }

    /// One read-modify-write transaction of a seeded process on one
    /// of its private variables. `poison` makes it read the variable a
    /// second time and see a value nobody wrote.
    fn plain_txn(&mut self, poison: bool) {
        let p = self.rng.below(PIDS);
        let var = p as u64 * VARS_PER_PID + self.rng.below(VARS_PER_PID as usize) as u64;
        let seen = self.mem[var as usize];
        let val = self.fresh();
        self.mem[var as usize] = val;
        self.push(p, TapOp::Begin);
        self.push(p, TapOp::Read { var, val: seen });
        if poison {
            self.push(p, TapOp::Read { var, val: POISON });
        }
        self.push(p, TapOp::Write { var, val });
        self.commit(p);
    }

    /// Writers a, b, c of one shared variable, mutually overlapping,
    /// then an observer that reads a's value.
    fn cluster(&mut self) {
        let var = PIDS as u64 * VARS_PER_PID + self.rng.below(SHARED_VARS as usize) as u64;
        let vals: Vec<u64> = (0..3).map(|_| self.fresh()).collect();
        for w in 0..3 {
            self.push(w, TapOp::Begin);
        }
        for (w, val) in vals.iter().enumerate() {
            self.push(w, TapOp::Write { var, val: *val });
        }
        for w in 0..3 {
            self.commit(w);
        }
        self.push(3, TapOp::Begin);
        self.push(3, TapOp::Read { var, val: vals[0] });
        self.commit(3);
    }
}

/// `windows` windows of ordinary traffic (every [`CLUSTER_EVERY`]-th
/// group holding one cluster window, at a seeded position and offset),
/// then [`POISONED`] poisoned ones.
pub fn build(seed: u64, windows: usize) -> Stream {
    let vars = PIDS as u64 * VARS_PER_PID + SHARED_VARS;
    let mut b = Builder {
        events: Vec::with_capacity((windows + POISONED) * WINDOW_TXNS * 4),
        mem: vec![0; vars as usize],
        fresh: 0,
        ticket: 0,
        rng: Rng::stream(seed, 0x57_52_45_41_4D),
    };
    let mut out = Vec::with_capacity(windows + POISONED);
    let mut cluster_at = 0;
    for w in 0..windows + POISONED {
        if w % CLUSTER_EVERY == 0 {
            cluster_at = w + b.rng.below(CLUSTER_EVERY);
        }
        let kind = if w >= windows {
            WindowKind::Poisoned
        } else if w == cluster_at {
            WindowKind::Cluster
        } else {
            WindowKind::Clear
        };
        // Where the cluster starts / which transaction is poisoned.
        let special = match kind {
            WindowKind::Clear => usize::MAX,
            WindowKind::Cluster => b.rng.below(WINDOW_TXNS - CLUSTER_TXNS + 1),
            WindowKind::Poisoned => b.rng.below(WINDOW_TXNS),
        };
        let mut t = 0;
        while t < WINDOW_TXNS {
            if kind == WindowKind::Cluster && t == special {
                b.cluster();
                t += CLUSTER_TXNS;
            } else {
                b.plain_txn(kind == WindowKind::Poisoned && t == special);
                t += 1;
            }
        }
        out.push((b.events.len(), kind));
    }
    Stream {
        events: b.events,
        windows: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn completions(evs: &[TapEvent]) -> usize {
        evs.iter()
            .filter(|e| matches!(e.op, TapOp::Commit { .. } | TapOp::Abort))
            .count()
    }

    #[test]
    fn every_window_is_64_whole_transactions() {
        let s = build(3, 100);
        assert_eq!(s.windows.len(), 100 + POISONED);
        for i in 0..s.windows.len() {
            let evs = s.window_events(i);
            assert_eq!(completions(evs), WINDOW_TXNS, "window {i}");
            // The 64th completion is the window's last event, and no
            // transaction is open across the boundary.
            assert!(matches!(evs.last().unwrap().op, TapOp::Commit { .. }));
            let mut open: BTreeMap<u32, bool> = BTreeMap::new();
            for e in evs {
                match e.op {
                    TapOp::Begin => assert!(!open.insert(e.pid.0, true).unwrap_or(false)),
                    TapOp::Commit { .. } | TapOp::Abort => {
                        assert_eq!(open.insert(e.pid.0, false), Some(true))
                    }
                    _ => assert_eq!(open.get(&e.pid.0), Some(&true)),
                }
            }
            assert!(
                open.values().all(|o| !o),
                "window {i} leaves a transaction open"
            );
        }
    }

    #[test]
    fn clusters_sit_inside_one_window_one_per_group() {
        let s = build(4, 200);
        assert_eq!(s.count(WindowKind::Cluster), 200 / CLUSTER_EVERY);
        assert_eq!(s.count(WindowKind::Poisoned), POISONED);
        let shared_from = PIDS as u64 * VARS_PER_PID;
        for (i, (_, kind)) in s.windows.iter().enumerate() {
            let shared: Vec<&TapEvent> = s
                .window_events(i)
                .iter()
                .filter(|e| {
                    matches!(e.op, TapOp::Read { var, .. } | TapOp::Write { var, .. } if var >= shared_from)
                })
                .collect();
            match kind {
                WindowKind::Cluster => {
                    // Three writes and the observer's read, all here.
                    assert_eq!(shared.len(), 4, "window {i}");
                    let TapOp::Write { val: first, .. } = shared[0].op else {
                        panic!("cluster starts with a write");
                    };
                    assert_eq!(
                        shared[3].op,
                        TapOp::Read {
                            var: var_of(shared[3]),
                            val: first
                        }
                    );
                }
                _ => assert!(shared.is_empty(), "window {i} touches a cluster variable"),
            }
        }
        for g in 0..200 / CLUSTER_EVERY {
            let in_group = (g * CLUSTER_EVERY..(g + 1) * CLUSTER_EVERY)
                .filter(|&w| s.windows[w].1 == WindowKind::Cluster)
                .count();
            assert_eq!(in_group, 1);
        }
    }

    fn var_of(e: &TapEvent) -> u64 {
        match e.op {
            TapOp::Read { var, .. } | TapOp::Write { var, .. } => var,
            _ => panic!("not an access"),
        }
    }

    #[test]
    fn tickets_follow_event_order_and_streams_are_seeded() {
        let s = build(5, 40);
        let tickets: Vec<u64> = s
            .events
            .iter()
            .filter_map(|e| match e.op {
                TapOp::Commit { ticket } => Some(ticket),
                _ => None,
            })
            .collect();
        assert_eq!(tickets, (0..tickets.len() as u64).collect::<Vec<_>>());
        assert_eq!(s.events, build(5, 40).events);
        assert_ne!(s.events, build(6, 40).events);
    }
}
