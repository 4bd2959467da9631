//! Polynomial triage tier for the streaming opacity monitor.
//!
//! The full parametrized-opacity checker
//! ([`check_opacity`](crate::opacity::check_opacity)) is a
//! backtracking search, exponential in how many transactions overlap —
//! exact, but too expensive to run on every window of a live event
//! stream. This module provides a
//! **sound fast path**: a polynomial check that either *clears* a
//! history (proving it opaque) or *abstains* (the caller escalates to
//! the full checker). It never claims a violation, so a streaming
//! monitor built on it reports exactly the verdicts the batch checker
//! would.
//!
//! ### Why the fast path is sound for every bundled model
//!
//! The checker's witness is a permutation of *units* (one per
//! transaction, one per non-transactional operation) that respects the
//! generating relation of `≺h`, the minimal view's edges, and a
//! real-time-consistent transaction serialization order — with every
//! operation prefix-legal. A [`Triager`] forms the same units from an
//! operation stream, as [`History`] parses them: a `start` opens a
//! transaction for its process, a command of a process with an open
//! transaction joins it and any other command is a unit of its own,
//! and `commit`/`abort` closes the transaction; one still open at the
//! end is live. It then replays two *candidate* orders of the units
//! through the incremental [`PrefixChecker`], as the search places a
//! unit: its operations in program order, a live transaction suspended
//! after its last one.
//!
//! 1. units by their **first** operation — the order they were formed
//!    in;
//! 2. units by their **last** operation.
//!
//! Both candidates provably respect every constraint edge the search
//! would impose, for *any* of the bundled memory models:
//!
//! * **`≺h` case 1** (completed `T` wholly before `T'`): then
//!   `T.last < T'.first ≤ T'.last` and `T.first < T'.first`, so both
//!   sorts place `T` first.
//! * **`≺h` case 2** (same-process program order, one side
//!   transactional): same-process spans never interleave — a
//!   transaction's span contains no other unit of its process — so the
//!   spans are disjoint and both sorts preserve their order.
//! * **View edges**: the view
//!   ([`view_pairs`](crate::linearize::view_pairs)) only relates
//!   same-process *non-transactional* command pairs `i < j`; those
//!   units are single operations with `first = last = index`, kept in
//!   index order by both sorts.
//! * **Serialization order**: the transaction order induced by either
//!   sort satisfies the checker's real-time placement rule (a
//!   completed transaction ending before another begins sorts first
//!   under both keys).
//!
//! So if either replay is fully legal, the candidate order *is* a
//! witness for every process, and `check_opacity`
//! would return opaque. By Theorem 6 (parametrized opacity implies
//! SGLA) a cleared history also satisfies SGLA, so one triage pass
//! serves both properties.
//!
//! ### Why the model drops out
//!
//! Seven of the eight bundled models transform a history by the
//! identity. Junk-SC's τ places a `havoc x` immediately before each
//! write of `x`, by the same process: inside the write's transaction
//! if it has one, otherwise as a unit of its own one index before the
//! write's. In either candidate order nothing is placed between the
//! two — a transaction's operations step together, and no other unit's
//! first or last operation lies between two adjacent indices — and the
//! write overwrites whatever the `havoc` did to the register before
//! anything reads it. So replaying `h` and replaying `τ(h)` give the
//! same verdict: a [`Triager`] takes no model, and the monitor feeds it
//! a window's events as they come. [`triage_opacity`] still replays
//! `τ(h)`, the history the checker judges.
//!
//! Cost: one pass to form the units, a sort of their last indices for
//! the second candidate, and two linear [`PrefixChecker`] replays —
//! independent of the model's view structure. A [`Triager`] keeps its
//! buffers and its checker from one window to the next, so once they
//! have grown a window allocates nothing. On conflict-serializable
//! traffic (what correct STMs produce) the commit-time order is almost
//! always legal, so the monitor's escalation rate stays near zero.

use crate::history::History;
use crate::ids::{IdMap, ProcId, Val, Var};
use crate::legal::PrefixChecker;
use crate::linearize::OWN_NUMBERS;
use crate::model::MemoryModel;
use crate::op::{Command, Op};
use std::cell::RefCell;

/// Outcome of the polynomial triage tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Triage {
    /// The history is opaque (and, by Theorem 6, SGLA); proved by a
    /// linear witness, no full search needed.
    Cleared,
    /// The fast path could not decide; escalate to the full checker.
    Escalate,
}

impl Triage {
    /// Did triage prove the history opaque?
    pub fn cleared(self) -> bool {
        matches!(self, Triage::Cleared)
    }
}

/// What one operation does to a register, all the replay keeps of it:
/// a dependent read or write is legal exactly where the plain one is.
#[derive(Clone, Copy, Debug)]
enum Act {
    Start,
    Commit,
    Abort,
    Read(Val),
    Write(Val),
    Havoc,
}

/// One pushed operation.
#[derive(Clone, Copy, Debug)]
struct Step {
    act: Act,
    /// The variable's index, or — once [`Triager::verdict`] numbered
    /// a stream with wide indices — its number (0 for a boundary).
    x: u32,
    /// The next operation of the same unit, once there is one.
    next: u32,
}

impl Step {
    /// The operation, as the legality checker takes it: built where
    /// [`PrefixChecker::step_var`] is inlined, so that its match and
    /// this one fold into one.
    #[inline(always)]
    fn op(self) -> Op {
        let var = Var(self.x);
        match self.act {
            Act::Start => Op::Start,
            Act::Commit => Op::Commit,
            Act::Abort => Op::Abort,
            Act::Read(val) => Op::Cmd(Command::Read { var, val }),
            Act::Write(val) => Op::Cmd(Command::Write { var, val }),
            Act::Havoc => Op::Cmd(Command::Havoc { var }),
        }
    }
}

/// What a unit is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// A non-transactional command.
    Single,
    /// A transaction not closed (yet): live if it stays so.
    Open,
    /// A committed or aborted transaction.
    Closed,
}

/// A unit: its first and last operations, linked through
/// [`Step::next`].
#[derive(Clone, Copy, Debug)]
struct Unit {
    first: u32,
    last: u32,
    kind: Kind,
}

/// The triage tier over an operation stream: [`push`](Self::push) a
/// history's operations in order, then ask for the
/// [`verdict`](Self::verdict). [`clear`](Self::clear) readies it for
/// the next history without giving back its buffers.
///
/// The stream must be one [`History::new`] would accept; the verdict
/// on any other is unspecified. It is the same for `h` and for `τ(h)`
/// under every bundled model (see the module docs), so it takes no
/// model.
///
/// ```
/// use jungle_core::prelude::*;
/// use jungle_core::triage::Triager;
///
/// let (p, q) = (ProcId(0), ProcId(1));
/// let write = Op::Cmd(Command::Write { var: Var(0), val: 1 });
/// let stale = Op::Cmd(Command::Read { var: Var(0), val: 0 });
/// let mut t = Triager::new();
/// for (proc, op) in [(p, Op::Start), (q, Op::Start), (p, write)] {
///     t.push(proc, &op);
/// }
/// // `q` reads the value `p`'s open transaction overwrote and commits
/// // first: the second candidate serializes `q` before `p`.
/// for (proc, op) in [(q, stale), (q, Op::Commit), (p, Op::Commit)] {
///     t.push(proc, &op);
/// }
/// assert_eq!(t.verdict(), Triage::Cleared);
/// ```
#[derive(Debug, Default)]
pub struct Triager {
    steps: Vec<Step>,
    /// Units in first-operation order: the first candidate.
    units: Vec<Unit>,
    /// The processes with an open transaction, and its unit.
    open: Vec<(ProcId, u32)>,
    /// Some variable index is at least [`OWN_NUMBERS`].
    wide: bool,
    /// The numbers a wide stream's variables get, densely, in
    /// first-access order.
    names: IdMap<u32, u32>,
    /// The second candidate.
    order: Vec<u32>,
    checker: PrefixChecker,
}

impl Triager {
    /// An empty triager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the operations pushed so far, keeping the buffers.
    pub fn clear(&mut self) {
        self.steps.clear();
        self.units.clear();
        self.open.clear();
        self.wide = false;
    }

    /// Append `proc`'s operation `op` to the stream.
    pub fn push(&mut self, proc: ProcId, op: &Op) {
        let i = self.steps.len() as u32;
        let (act, x) = match op {
            Op::Start => (Act::Start, 0),
            Op::Commit => (Act::Commit, 0),
            Op::Abort => (Act::Abort, 0),
            Op::Cmd(c) => {
                let act = match c {
                    Command::Read { val, .. } | Command::DepRead { val, .. } => Act::Read(*val),
                    Command::Write { val, .. } | Command::DepWrite { val, .. } => Act::Write(*val),
                    Command::Havoc { .. } => Act::Havoc,
                };
                (act, c.var().0)
            }
        };
        self.wide |= x as usize >= OWN_NUMBERS;
        self.steps.push(Step { act, x, next: i });
        let at = self.open.iter().position(|&(p, _)| p == proc);
        let u = match (act, at) {
            (Act::Commit | Act::Abort, Some(at)) => {
                let u = self.open.swap_remove(at).1;
                self.units[u as usize].kind = Kind::Closed;
                u
            }
            (Act::Start, _) | (_, None) => {
                let u = self.units.len() as u32;
                let kind = match act {
                    Act::Start => Kind::Open,
                    _ => Kind::Single,
                };
                self.units.push(Unit {
                    first: i,
                    last: i,
                    kind,
                });
                if kind == Kind::Open {
                    self.open.push((proc, u));
                }
                return;
            }
            (_, Some(at)) => self.open[at].1,
        };
        let unit = &mut self.units[u as usize];
        self.steps[unit.last as usize].next = i;
        unit.last = i;
    }

    /// Replay the two candidate orders: [`Triage::Cleared`] if either
    /// is legal, which guarantees that
    /// [`check_opacity`](crate::opacity::check_opacity) holds for the
    /// history pushed; see the module docs for the argument.
    pub fn verdict(&mut self) -> Triage {
        if self.wide {
            self.number();
        }
        if self.replay(0..self.units.len() as u32) {
            return Triage::Cleared;
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..self.units.len() as u32);
        order.sort_unstable_by_key(|&u| self.units[u as usize].last);
        let legal = self.replay(order.iter().copied());
        self.order = order;
        if legal {
            Triage::Cleared
        } else {
            Triage::Escalate
        }
    }

    /// Number the variables densely in first-access order, as the
    /// search's `Graph` does when some index is at least
    /// [`OWN_NUMBERS`]: the checker's tables stay as short as the
    /// variables are few.
    fn number(&mut self) {
        self.names.clear();
        for s in &mut self.steps {
            if matches!(s.act, Act::Read(_) | Act::Write(_) | Act::Havoc) {
                let next = self.names.len() as u32;
                s.x = *self.names.entry(s.x).or_insert(next);
            }
        }
        self.wide = false;
    }

    /// Replay the units in `order` through a cleared checker.
    fn replay(&mut self, order: impl Iterator<Item = u32>) -> bool {
        let c = &mut self.checker;
        c.clear();
        for u in order {
            let unit = self.units[u as usize];
            let mut i = unit.first;
            loop {
                let s = self.steps[i as usize];
                if !c.step_var(s.x as usize, &s.op(), unit.kind != Kind::Single) {
                    return false;
                }
                if i == unit.last {
                    break;
                }
                i = s.next;
            }
            if unit.kind == Kind::Open {
                c.suspend_live();
            }
        }
        true
    }
}

thread_local! {
    /// The triager [`triage_opacity`] reuses on this thread.
    static TRIAGER: RefCell<Triager> = RefCell::new(Triager::new());
}

/// Triage `h` against `model`: its transformed history `τ(h)`, pushed
/// through this thread's [`Triager`], whose buffers outlive the call.
/// [`Triage::Cleared`] guarantees that
/// [`check_opacity`](crate::opacity::check_opacity) holds; see the
/// module docs for the argument.
pub fn triage_opacity(h: &History, model: &dyn MemoryModel) -> Triage {
    let th = model.transform(h);
    TRIAGER.with_borrow_mut(|t| {
        t.clear();
        for oi in th.ops() {
            t.push(oi.proc, &oi.op);
        }
        t.verdict()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X, Y};
    use crate::linearize::{scheduled, Graph};
    use crate::model::{all_models, Rmo, Sc};
    use crate::opacity::check_opacity;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// A clean serializable exchange: triage must clear it.
    #[test]
    fn serial_commits_clear() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.commit(p(1));
        b.start(p(2));
        b.read(p(2), X, 1);
        b.commit(p(2));
        let h = b.build().unwrap();
        assert_eq!(triage_opacity(&h, &Sc), Triage::Cleared);
    }

    /// Overlapping transactions whose only legal serialization inverts
    /// start order: the by-last candidate finds it.
    #[test]
    fn inverted_serialization_clears() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.start(p(2));
        b.write(p(1), X, 1);
        b.read(p(2), X, 0); // T2 must serialize before T1
        b.commit(p(2));
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(check_opacity(&h, &Sc).is_opaque());
        assert_eq!(triage_opacity(&h, &Sc), Triage::Cleared);
    }

    /// A genuine violation must never be cleared.
    #[test]
    fn violations_escalate() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(1), Y, 1);
        b.commit(p(1));
        b.read(p(2), Y, 1);
        b.read(p(2), X, 0);
        let h = b.build().unwrap();
        assert!(!check_opacity(&h, &Sc).is_opaque());
        assert_eq!(triage_opacity(&h, &Sc), Triage::Escalate);
        // RMO allows this outcome but only via a reordered view the
        // linear candidates don't model — abstaining is fine (sound),
        // clearing would also be fine; either way no false verdict.
        if triage_opacity(&h, &Rmo).cleared() {
            assert!(check_opacity(&h, &Rmo).is_opaque());
        }
    }

    /// Live transactions replay with suspension, like the full search.
    #[test]
    fn live_txn_clears() {
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.start(p(2));
        b.read(p(2), X, 1);
        let h = b.build().unwrap();
        assert_eq!(triage_opacity(&h, &Sc), Triage::Cleared);
    }

    /// Soundness: on a brute-force corpus of small histories, a triage
    /// clear always agrees with the full checker, for every model.
    #[test]
    fn cleared_implies_opaque_exhaustive() {
        let mut checked = 0u32;
        for wv in [0u64, 1] {
            for r1 in [0u64, 1] {
                for r2 in [0u64, 1] {
                    for commit2 in [true, false] {
                        let mut b = HistoryBuilder::new();
                        b.start(p(1));
                        b.write(p(1), X, 1);
                        b.write(p(1), Y, wv);
                        b.commit(p(1));
                        b.start(p(2));
                        b.read(p(2), Y, r1);
                        b.read(p(2), X, r2);
                        if commit2 {
                            b.commit(p(2));
                        } else {
                            b.abort(p(2));
                        }
                        b.read(p(3), X, r2);
                        let h = b.build().unwrap();
                        for m in all_models() {
                            if triage_opacity(&h, m).cleared() {
                                assert!(
                                    check_opacity(&h, m).is_opaque(),
                                    "triage cleared a non-opaque history under {}",
                                    m.name()
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "corpus never exercised the cleared path");
    }

    /// The replay this module's [`Triager`] replaced: `τ(h)`'s units as
    /// the search's `Graph` forms them, sorted by first and by last
    /// operation, each placed by `Graph::place`.
    fn graph_triage(h: &History, model: &dyn MemoryModel) -> Triage {
        let th = model.transform(h);
        let g = Graph::units(&th);
        let legal = |order: &[usize]| {
            let mut c = PrefixChecker::new();
            order.iter().all(|&u| g.place(u, &mut c))
        };
        let mut order: Vec<usize> = (0..g.len()).collect();
        order.sort_by_key(|&u| g.ops_of(u)[0]);
        if legal(&order) {
            return Triage::Cleared;
        }
        order.sort_by_key(|&u| g.ops_of(u).last().copied());
        if legal(&order) {
            Triage::Cleared
        } else {
            Triage::Escalate
        }
    }

    /// The model drops out: one reused [`Triager`] fed `h` as it is
    /// agrees with [`triage_opacity`] — which replays `τ(h)` — and with
    /// the `Graph` replay, under every model, on seeded schedules of
    /// 1–5 processes, chains and overlaps, with live transactions.
    #[test]
    fn an_untransformed_replay_agrees_under_every_model() {
        let mut t = Triager::new();
        let (mut pairs, mut cleared) = (0, 0);
        for seed in 0..3_000u64 {
            let (procs, eager) = (1 + seed % 5, 1 + seed / 5 % 7);
            let h = scheduled(seed, procs, 8 + (seed % 40) as usize, eager);
            t.clear();
            for oi in h.ops() {
                t.push(oi.proc, &oi.op);
            }
            let v = t.verdict();
            for m in all_models() {
                let ctx = format!("seed {seed} under {}", m.name());
                assert_eq!(v, triage_opacity(&h, m), "{ctx}");
                assert_eq!(v, graph_triage(&h, m), "{ctx}: the Graph replay");
                pairs += 1;
                cleared += usize::from(v.cleared());
            }
        }
        assert_eq!(pairs, 24_000);
        assert!(
            cleared > 0 && cleared < pairs,
            "{cleared} of {pairs} cleared: both verdicts must occur"
        );
    }

    /// Indices at or above `OWN_NUMBERS` are numbered densely, and the
    /// verdict does not depend on which indices name the variables.
    #[test]
    fn wide_indices_get_the_verdict_of_small_ones() {
        let mut t = Triager::new();
        let mut cleared = 0;
        for seed in 0..300u64 {
            let h = scheduled(
                seed,
                1 + seed % 5,
                8 + (seed % 40) as usize,
                1 + seed / 5 % 7,
            );
            let v = triage_opacity(&h, &Sc);
            t.clear();
            for oi in h.ops() {
                let mut op = oi.op.clone();
                if let Op::Cmd(Command::Read { var, .. } | Command::Write { var, .. }) = &mut op {
                    *var = Var(u32::MAX - var.0);
                }
                t.push(oi.proc, &op);
            }
            assert_eq!(t.verdict(), v, "seed {seed}");
            cleared += usize::from(v.cleared());
        }
        assert!(cleared > 0 && cleared < 300, "{cleared} of 300 cleared");
    }
}
