//! Histories with a known opacity verdict under SC.
//!
//! A *witness* history is opaque by construction: `p` processes each
//! run `u` units (a transaction of 1–3 operations, or one
//! non-transactional operation), their operations are interleaved at
//! random, a random linear extension `S` of the units' interval order
//! is drawn, and every read returns what a sequential replay of `S`
//! would return (each write stores a value no other write stores).
//! `S` respects real-time and program order, so it is a witness.
//!
//! A *refuted* history is the same thing with one transactional read
//! made stale: it returns the value of a committed writer `W1` of `x`
//! although a second committed writer `W2` of `x` lies entirely
//! between `W1` and the reader in real time. Values are unique, so
//! only `W1` could serve the read, and every serialization must put
//! `W2` in between: the history is not opaque.

use crate::rng::Rng;
use jungle_core::builder::HistoryBuilder;
use jungle_core::history::History;
use jungle_core::ids::{ProcId, Var};

/// Variables the generated operations range over.
pub const VARS: u32 = 3;
const TXN_PCT: u32 = 80;
const READ_PCT: u32 = 60;
const MAX_TXN_OPS: usize = 3;
/// Chance that the next operation comes from the process that is in
/// the middle of a transaction, rather than from a random one.
const STICK_PCT: u32 = 50;

/// Size of a generated history: `procs` processes × `units` units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rung {
    pub procs: usize,
    pub units: usize,
}

impl Rung {
    pub const fn new(procs: usize, units: usize) -> Self {
        Rung { procs, units }
    }
}

/// One read or write; `val` is filled by the replay of `S`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub read: bool,
    pub var: u32,
    pub val: u64,
}

/// A transaction or a single non-transactional operation, with the
/// history positions of its first and last operation instance.
#[derive(Clone, Debug)]
pub struct Unit {
    pub proc: u32,
    pub txn: bool,
    pub ops: Vec<Access>,
    pub first: usize,
    pub last: usize,
}

impl Unit {
    /// `self` ends before `other` begins (the interval order).
    pub fn precedes(&self, other: &Unit) -> bool {
        self.last < other.first
    }

    fn writes(&self, var: u32) -> bool {
        self.ops.iter().any(|a| !a.read && a.var == var)
    }
}

/// The planted contradiction of a refuted history (unit indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stale {
    pub w1: usize,
    pub w2: usize,
    pub reader: usize,
    pub var: u32,
}

/// A generated history together with what is known about it.
#[derive(Debug)]
pub struct Built {
    pub history: History,
    pub units: Vec<Unit>,
    /// `S`: unit indices in the order the values were replayed.
    /// (This and `stale` are what the generator's tests check.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub order: Vec<usize>,
    /// `None` for a witness history (opaque under SC); `Some` for a
    /// refuted one (not opaque under any model that keeps real-time
    /// order between transactions).
    #[cfg_attr(not(test), allow(dead_code))]
    pub stale: Option<Stale>,
}

/// What to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Opaque,
    NotOpaque,
}

/// Caps on a corpus history. The checkers' cost is exponential in
/// the number of transaction orders the real-time order leaves open
/// and in the number of non-transactional units placed between them;
/// uncapped, a single `4x3` history in a thousand takes over a second
/// and a pass measures that one history. A layout beyond a cap is
/// redrawn. Both caps are computed from the layout alone, never from
/// what a checker did with it.
#[derive(Clone, Copy, Debug)]
pub struct Caps {
    pub txn_orders: u64,
    pub nt_units: usize,
}

/// Linear extensions of the real-time order on the transactions —
/// the serialization orders an exhaustive refutation has to reject —
/// by dynamic programming over subsets.
pub fn txn_orders(units: &[Unit]) -> u64 {
    let txns: Vec<&Unit> = units.iter().filter(|u| u.txn).collect();
    let n = txns.len();
    assert!(n < 24, "subset table of {n} transactions would not fit");
    let preds: Vec<u32> = txns
        .iter()
        .map(|t| {
            (0..n)
                .filter(|&j| txns[j].precedes(t))
                .fold(0, |m, j| m | 1 << j)
        })
        .collect();
    let mut ways = vec![0u64; 1 << n];
    ways[0] = 1;
    for placed in 0..(1u32 << n) {
        let w = ways[placed as usize];
        if w == 0 {
            continue;
        }
        for (i, pred) in preds.iter().enumerate() {
            if placed & (1 << i) == 0 && pred & !placed == 0 {
                let next = &mut ways[(placed | 1 << i) as usize];
                *next = next.saturating_add(w);
            }
        }
    }
    ways[(1usize << n) - 1]
}

/// Build history number `index` of the corpus of `seed`.
pub fn build(rung: Rung, answer: Answer, caps: Caps, seed: u64, index: u64) -> Built {
    let mut rng = Rng::stream(
        seed,
        index.wrapping_mul(2) + (answer == Answer::NotOpaque) as u64,
    );
    loop {
        let (mut units, slots) = layout(rung, caps.nt_units, &mut rng);
        if txn_orders(&units) > caps.txn_orders {
            continue;
        }
        let stale = match answer {
            Answer::Opaque => None,
            Answer::NotOpaque => match plant(&mut units, &mut rng) {
                Some(s) => Some(s),
                None => continue, // no real-time chain of three transactions: redraw
            },
        };
        let order = linear_extension(&units, &mut rng);
        replay(&mut units, &order);
        if let Some(s) = stale {
            let served = last_write(&units[s.w1], s.var);
            units[s.reader].ops[0].val = served;
        }
        return Built {
            history: emit(&units, &slots),
            units,
            order,
            stale,
        };
    }
}

/// One position of the interleaving: which unit, and which of its
/// operation instances (`0` = start for a transaction).
#[derive(Clone, Copy)]
struct Slot {
    unit: usize,
    step: usize,
}

fn layout(rung: Rung, max_nt: usize, rng: &mut Rng) -> (Vec<Unit>, Vec<Slot>) {
    let n_units = rung.procs * rung.units;
    let is_txn: Vec<bool> = loop {
        let draw: Vec<bool> = (0..n_units).map(|_| rng.pct(TXN_PCT)).collect();
        if draw.iter().filter(|t| !**t).count() <= max_nt {
            break draw;
        }
    };
    let mut units = Vec::with_capacity(n_units);
    let mut queues: Vec<Vec<Slot>> = Vec::with_capacity(rung.procs);
    for p in 0..rung.procs {
        let mut q = Vec::new();
        for _ in 0..rung.units {
            let unit = units.len();
            let txn = is_txn[unit];
            let n = if txn { 1 + rng.below(MAX_TXN_OPS) } else { 1 };
            let ops = (0..n)
                .map(|_| Access {
                    read: rng.pct(READ_PCT),
                    var: rng.below(VARS as usize) as u32,
                    val: 0,
                })
                .collect();
            let steps = if txn { n + 2 } else { 1 };
            q.extend((0..steps).map(|step| Slot { unit, step }));
            units.push(Unit {
                proc: p as u32,
                txn,
                ops,
                first: usize::MAX,
                last: 0,
            });
        }
        q.reverse(); // pop() takes the next one in program order
        queues.push(q);
    }
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut slots: Vec<Slot> = Vec::with_capacity(total);
    let mut current: Option<usize> = None;
    while slots.len() < total {
        // A process in the middle of a transaction tends to go on.
        let stay =
            current.filter(|&p| queues[p].last().is_some_and(|s| s.step > 0) && rng.pct(STICK_PCT));
        let p = stay.unwrap_or_else(|| {
            let live: Vec<usize> = (0..queues.len())
                .filter(|&p| !queues[p].is_empty())
                .collect();
            live[rng.below(live.len())]
        });
        current = Some(p);
        let s = queues[p].pop().expect("chosen queue is non-empty");
        let u = &mut units[s.unit];
        u.first = u.first.min(slots.len());
        u.last = slots.len();
        slots.push(s);
    }
    (units, slots)
}

/// Pick transactions `W1 ≺ W2 ≺ R` in real time and make both writers
/// write, and the reader first read, one variable.
fn plant(units: &mut [Unit], rng: &mut Rng) -> Option<Stale> {
    let txns: Vec<usize> = (0..units.len()).filter(|&i| units[i].txn).collect();
    let mut chains = Vec::new();
    for &a in &txns {
        for &b in &txns {
            if !units[a].precedes(&units[b]) {
                continue;
            }
            for &c in &txns {
                if units[b].precedes(&units[c]) {
                    chains.push((a, b, c));
                }
            }
        }
    }
    if chains.is_empty() {
        return None;
    }
    let (w1, w2, reader) = chains[rng.below(chains.len())];
    let var = rng.below(VARS as usize) as u32;
    for w in [w1, w2] {
        if !units[w].writes(var) {
            let k = rng.below(units[w].ops.len());
            units[w].ops[k] = Access {
                read: false,
                var,
                val: 0,
            };
        }
    }
    units[reader].ops[0] = Access {
        read: true,
        var,
        val: 0,
    };
    Some(Stale {
        w1,
        w2,
        reader,
        var,
    })
}

/// A random linear extension of the interval order: repeatedly take
/// one of the units none of whose predecessors is still unplaced.
fn linear_extension(units: &[Unit], rng: &mut Rng) -> Vec<usize> {
    let mut placed = vec![false; units.len()];
    let mut order = Vec::with_capacity(units.len());
    while order.len() < units.len() {
        let ready: Vec<usize> = (0..units.len())
            .filter(|&i| {
                !placed[i] && (0..units.len()).all(|j| placed[j] || !units[j].precedes(&units[i]))
            })
            .collect();
        let next = ready[rng.below(ready.len())];
        placed[next] = true;
        order.push(next);
    }
    order
}

/// Execute the units one after another in `order`, giving every write
/// a fresh value and every read the current one (0 initially).
fn replay(units: &mut [Unit], order: &[usize]) {
    let mut mem = [0u64; VARS as usize];
    let mut fresh = 0u64;
    for &u in order {
        for a in &mut units[u].ops {
            if a.read {
                a.val = mem[a.var as usize];
            } else {
                fresh += 1;
                a.val = fresh;
                mem[a.var as usize] = fresh;
            }
        }
    }
}

fn last_write(unit: &Unit, var: u32) -> u64 {
    unit.ops
        .iter()
        .rev()
        .find(|a| !a.read && a.var == var)
        .expect("planted writer writes the variable")
        .val
}

fn emit(units: &[Unit], slots: &[Slot]) -> History {
    let mut b = HistoryBuilder::new();
    for s in slots {
        let u = &units[s.unit];
        let p = ProcId(u.proc);
        let op = if u.txn {
            match s.step {
                0 => {
                    b.start(p);
                    continue;
                }
                k if k == u.ops.len() + 1 => {
                    b.commit(p);
                    continue;
                }
                k => u.ops[k - 1],
            }
        } else {
            u.ops[0]
        };
        if op.read {
            b.read(p, Var(op.var), op.val);
        } else {
            b.write(p, Var(op.var), op.val);
        }
    }
    b.build().expect("generated history is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::op::{Command, Op};

    const RUNGS: [Rung; 2] = [Rung::new(4, 3), Rung::new(3, 3)];
    const LOOSE: Caps = Caps {
        txn_orders: u64::MAX,
        nt_units: usize::MAX,
    };

    /// The value every read and write of the built history carries,
    /// taken from the `History` itself (not from `Unit::ops`).
    fn history_accesses(b: &Built) -> Vec<Vec<(bool, u32, u64)>> {
        let mut per_unit: Vec<Vec<(bool, u32, u64)>> = vec![Vec::new(); b.units.len()];
        for (pos, oi) in b.history.ops().iter().enumerate() {
            let unit = b
                .units
                .iter()
                .position(|u| u.proc == oi.proc.0 && u.first <= pos && pos <= u.last)
                .expect("every op belongs to a unit");
            match &oi.op {
                Op::Cmd(Command::Read { var, val }) => per_unit[unit].push((true, var.0, *val)),
                Op::Cmd(Command::Write { var, val }) => per_unit[unit].push((false, var.0, *val)),
                _ => {}
            }
        }
        per_unit
    }

    /// Replay the history's own values along `order`; the read that
    /// does not see the current value, if any.
    fn first_illegal_read(b: &Built) -> Option<(usize, usize)> {
        let acc = history_accesses(b);
        let mut mem = [0u64; VARS as usize];
        for &u in &b.order {
            for (k, (read, var, val)) in acc[u].iter().enumerate() {
                if *read {
                    if mem[*var as usize] != *val {
                        return Some((u, k));
                    }
                } else {
                    mem[*var as usize] = *val;
                }
            }
        }
        None
    }

    fn respects_interval_and_program_order(b: &Built) -> bool {
        let pos: Vec<usize> = {
            let mut p = vec![0; b.units.len()];
            for (i, &u) in b.order.iter().enumerate() {
                p[u] = i;
            }
            p
        };
        (0..b.units.len()).all(|i| {
            (0..b.units.len()).all(|j| !b.units[i].precedes(&b.units[j]) || pos[i] < pos[j])
        })
    }

    #[test]
    fn witness_histories_replay_legally_along_their_order() {
        for rung in RUNGS {
            for i in 0..200 {
                let b = build(rung, Answer::Opaque, LOOSE, 11, i);
                assert_eq!(b.order.len(), rung.procs * rung.units);
                assert!(respects_interval_and_program_order(&b), "{rung:?} #{i}");
                assert_eq!(first_illegal_read(&b), None, "{rung:?} #{i}");
                assert!(b.stale.is_none());
            }
        }
    }

    #[test]
    fn refuted_histories_hold_their_triple() {
        for rung in RUNGS {
            for i in 0..200 {
                let b = build(rung, Answer::NotOpaque, LOOSE, 12, i);
                let s = b.stale.expect("refuted history has a planted triple");
                let (w1, w2, r) = (&b.units[s.w1], &b.units[s.w2], &b.units[s.reader]);
                assert!(w1.txn && w2.txn && r.txn);
                assert!(
                    w1.precedes(w2) && w2.precedes(r),
                    "{rung:?} #{i}: W1 < W2 < reader"
                );
                assert!(w2.writes(s.var));
                let acc = history_accesses(&b);
                let served = acc[s.w1]
                    .iter()
                    .rev()
                    .find(|a| !a.0 && a.1 == s.var)
                    .expect("W1 writes the variable")
                    .2;
                assert_eq!(acc[s.reader][0], (true, s.var, served));
                // The stale read is the only thing wrong with the replay.
                assert_eq!(first_illegal_read(&b), Some((s.reader, 0)));
                // Written values are unique, so only W1 can serve it.
                let mut written: Vec<u64> =
                    acc.iter().flatten().filter(|a| !a.0).map(|a| a.2).collect();
                let n = written.len();
                written.sort_unstable();
                written.dedup();
                assert_eq!(written.len(), n);
            }
        }
    }

    #[test]
    fn same_seed_same_history_and_indices_differ() {
        let a = build(RUNGS[0], Answer::Opaque, LOOSE, 5, 3);
        let b = build(RUNGS[0], Answer::Opaque, LOOSE, 5, 3);
        assert_eq!(a.history.cache_key(), b.history.cache_key());
        let c = build(RUNGS[0], Answer::Opaque, LOOSE, 5, 4);
        assert_ne!(a.history.cache_key(), c.history.cache_key());
    }

    #[test]
    fn txn_orders_counts_linear_extensions() {
        let unit = |first, last| Unit {
            proc: 0,
            txn: true,
            ops: Vec::new(),
            first,
            last,
        };
        // Three mutually overlapping transactions: 3! orders.
        assert_eq!(txn_orders(&[unit(0, 5), unit(1, 6), unit(2, 7)]), 6);
        // A chain: one order.
        assert_eq!(txn_orders(&[unit(0, 1), unit(2, 3), unit(4, 5)]), 1);
        // One before two overlapping ones: 2 orders; a non-transactional
        // unit does not count.
        let mut nt = unit(0, 9);
        nt.txn = false;
        assert_eq!(txn_orders(&[unit(0, 1), unit(2, 5), unit(3, 6), nt]), 2);
    }

    #[test]
    fn capped_histories_are_within_the_caps() {
        let caps = Caps {
            txn_orders: 300,
            nt_units: 1,
        };
        for i in 0..100 {
            let b = build(RUNGS[0], Answer::NotOpaque, caps, 9, i);
            assert!(txn_orders(&b.units) <= caps.txn_orders);
            assert!(b.units.iter().filter(|u| !u.txn).count() <= caps.nt_units);
        }
    }
}
