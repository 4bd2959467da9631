//! Seeded random histories for property tests and differentials: one
//! grammar, [`history`], drawn as a [`Shape`] says, and one re-check of
//! a verdict's evidence, [`witness_errors`].
//!
//! Each step appends one operation of a process that, outside a
//! transaction, starts one or accesses a variable and, inside one, ends
//! it or accesses. Then each open transaction stays live or ends, and a
//! history may end with one more read. A seed and a shape always give
//! the same history, so a property test draws `seed in any::<u64>()` and
//! a failure names its seed. The coverage test below counts what each
//! named shape reaches.

use crate::builder::HistoryBuilder;
use crate::check::{CheckKind, CheckVerdict};
use crate::history::History;
use crate::ids::{OpId, ProcId, Val, Var};
use crate::legal::every_op_legal;
use crate::model::MemoryModel;
use crate::op::DepKind;
use std::ops::RangeInclusive;

/// A value no write of any shape stores, for a last read that no
/// order can make legal.
pub const JUNK: Value = Value::In(1_000_000, 1_000_000);

/// The value a read returns or a write stores.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Any value of `lo..=hi`.
    In(Val, Val),
    /// Any value written so far, to any variable, or the initial 0.
    Written,
    /// A value no earlier write stored.
    Fresh,
    /// The value the history's own order makes legal for a read: the
    /// process's last write in its open transaction, else the last
    /// committed or non-transactional write, else 0.
    Legal,
}

/// What [`history`] draws. Each weight is a count out of 8 (or 4)
/// steps at that point.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Processes, drawn per history.
    pub procs: RangeInclusive<u64>,
    /// Variables `0..vars`.
    pub vars: u64,
    /// Steps, drawn per history.
    pub steps: RangeInclusive<u64>,
    /// One transaction is open at a time, and only its process acts
    /// until it ends: the history is sequential.
    pub sequential: bool,
    /// Every process starts a transaction before the first step, so all
    /// of them are mutually concurrent.
    pub concurrent: bool,
    /// Of 8 steps outside a transaction, how many start one: 0 gives no
    /// transactions (bar `concurrent` ones), 8 no non-transactional
    /// operations.
    pub start: u64,
    /// Of 8 steps inside a transaction, how many end it, drawn per
    /// history: low values keep many open at once, high ones give chains.
    pub end: RangeInclusive<u64>,
    /// Of 4 ends, how many abort.
    pub abort: u64,
    /// Of 4 transactions open after the last step, how many stay live;
    /// the rest end.
    pub live: u64,
    /// Of 8 accesses, how many write.
    pub write: u64,
    /// Of 8 accesses, how many depend (by data or control) on their
    /// process's last access since its last transaction ended.
    pub dep: u64,
    /// The value a read returns.
    pub reads: Value,
    /// The value a write stores.
    pub writes: Value,
    /// Of 4 histories, how many end with one more read, returning the
    /// value `.1` draws: half the time by the process of the last step,
    /// inside its transaction if that stays live, else by a process of
    /// its own, outside any transaction.
    pub tail: (u64, Value),
}

/// Up to eight steps of three processes on two variables, any of them
/// transactional, reading any small value: about half are opaque.
pub const FREEFORM: Shape = Shape {
    procs: 3..=3,
    vars: 2,
    steps: 0..=7,
    sequential: false,
    concurrent: false,
    start: 3,
    end: 4..=4,
    abort: 2,
    live: 4,
    write: 4,
    dep: 0,
    reads: Value::In(0, 2),
    writes: Value::In(1, 3),
    tail: (0, JUNK),
};

/// Whole transactions and single operations one after another, reading
/// any small value: sequential, legal or not.
pub const BLOCKS: Shape = Shape {
    steps: 0..=12,
    sequential: true,
    live: 0,
    reads: Value::In(0, 3),
    ..FREEFORM
};

/// A sequential execution: each read returns the legal value and each
/// write a fresh one, so the history is opaque under every model.
pub const EXECUTED: Shape = Shape {
    vars: 3,
    steps: 0..=23,
    sequential: true,
    start: 2,
    end: 2..=2,
    live: 0,
    write: 3,
    reads: Value::Legal,
    writes: Value::Fresh,
    ..FREEFORM
};

/// Overlapping transactions, every one ended, whose reads return any
/// value written so far.
pub const OVERLAPPING: Shape = Shape {
    steps: 0..=8,
    start: 1,
    end: 2..=2,
    live: 0,
    write: 3,
    reads: Value::Written,
    writes: Value::Fresh,
    ..FREEFORM
};

/// Five or six mutually concurrent transactions, which commit, abort
/// or stay live only after every access, and in half the histories one
/// more read.
pub const CONCURRENT: Shape = Shape {
    procs: 5..=6,
    steps: 9..=12,
    concurrent: true,
    start: 0,
    end: 0..=0,
    abort: 1,
    live: 1,
    write: 5,
    writes: Value::In(1, 2),
    tail: (2, Value::In(0, 2)),
    ..FREEFORM
};

/// Up to seven operations of two or three processes, with dependent
/// reads and writes, repeated values, aborted and live transactions.
pub const DEPENDENT: Shape = Shape {
    procs: 2..=3,
    steps: 4..=7,
    start: 2,
    end: 2..=2,
    abort: 1,
    write: 3,
    dep: 1,
    writes: Value::In(1, 2),
    ..FREEFORM
};

/// Longer schedules of one to five processes, from many transactions
/// open at once to chains, with live ones left open.
#[cfg(test)]
pub(crate) const SCHEDULED: Shape = Shape {
    procs: 1..=5,
    steps: 8..=47,
    start: 5,
    end: 1..=7,
    abort: 1,
    reads: Value::In(0, 1),
    writes: Value::In(1, 1),
    ..FREEFORM
};

/// A xorshift stream: the same seed, the same draws.
struct Draw(u64);

impl Draw {
    /// A value below `n` (0 when `n` is 0).
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 33) % n.max(1)
    }

    /// A value of `lo..=hi`.
    fn within(&mut self, (lo, hi): (u64, u64)) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// What a history has written so far: the committed value of each
/// variable (for [`Value::Legal`]), the writes of each open transaction,
/// and every value any write stored (for [`Value::Written`] and
/// [`Value::Fresh`]).
struct Memory {
    committed: Vec<Val>,
    pending: Vec<(usize, usize, Val)>,
    written: Vec<Val>,
}

impl Memory {
    /// A value `value` draws for an access of `p` to `x`.
    fn value(&self, value: Value, p: usize, x: usize, draw: &mut Draw) -> Val {
        match value {
            Value::In(lo, hi) => draw.within((lo, hi)),
            Value::Written => self.written[draw.below(self.written.len() as u64) as usize],
            Value::Fresh => self.written.iter().max().map_or(0, |v| v + 1),
            Value::Legal => {
                let mine = self
                    .pending
                    .iter()
                    .rev()
                    .find(|&&(q, y, _)| (q, y) == (p, x));
                mine.map_or(self.committed[x], |&(.., v)| v)
            }
        }
    }

    /// Ends `p`'s transaction in `b`, publishing its writes unless it
    /// aborts.
    fn end(&mut self, b: &mut HistoryBuilder, p: usize, abort: bool) {
        for &(_, x, v) in self.pending.iter().filter(|&&(q, ..)| q == p && !abort) {
            self.committed[x] = v;
        }
        self.pending.retain(|&(q, ..)| q != p);
        let proc = ProcId(p as u32);
        _ = if abort { b.abort(proc) } else { b.commit(proc) };
    }
}

/// The history `seed` draws from `shape`.
pub fn history(seed: u64, shape: &Shape) -> History {
    let mut draw = Draw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut within = |r: &RangeInclusive<u64>| draw.within(r.clone().into_inner());
    let (n, steps, end) = (
        within(&shape.procs) as usize,
        within(&shape.steps),
        within(&shape.end),
    );
    let mut b = HistoryBuilder::new();
    let (mut open, mut last) = (vec![false; n], vec![None::<OpId>; n]);
    let mut mem = Memory {
        committed: vec![0; shape.vars as usize],
        pending: Vec::new(),
        written: vec![0],
    };
    for p in (0..n).filter(|_| shape.concurrent) {
        b.start(ProcId(p as u32));
        open[p] = true;
    }
    let mut latest = None;
    for _ in 0..steps {
        let p = match open.iter().position(|&o| o) {
            Some(owner) if shape.sequential => owner,
            _ => draw.below(n as u64) as usize,
        };
        latest = Some(p);
        let proc = ProcId(p as u32);
        if !open[p] && draw.below(8) < shape.start {
            b.start(proc);
            open[p] = true;
            continue;
        }
        if open[p] && draw.below(8) < end {
            mem.end(&mut b, p, draw.below(4) < shape.abort);
            (open[p], last[p]) = (false, None);
            continue;
        }
        let x = draw.below(shape.vars) as usize;
        let var = Var(x as u32);
        let dep = last[p].filter(|_| draw.below(8) < shape.dep).map(|d| {
            let kind = [DepKind::Data, DepKind::Control][draw.below(2) as usize];
            (kind, vec![d])
        });
        let id = if draw.below(8) < shape.write {
            let v = mem.value(shape.writes, p, x, &mut draw);
            mem.written.push(v);
            if open[p] {
                mem.pending.push((p, x, v));
            } else {
                mem.committed[x] = v;
            }
            match dep {
                Some((kind, on)) => b.dep_write(proc, var, v, kind, on),
                None => b.write(proc, var, v),
            }
        } else {
            let v = mem.value(shape.reads, p, x, &mut draw);
            match dep {
                Some((kind, on)) => b.dep_read(proc, var, v, kind, on),
                None => b.read(proc, var, v),
            }
        };
        last[p] = Some(id);
    }
    for p in (0..n).filter(|&p| open[p]) {
        if draw.below(4) >= shape.live {
            mem.end(&mut b, p, draw.below(4) < shape.abort);
        }
    }
    if draw.below(4) < shape.tail.0 {
        let p = latest.filter(|_| draw.below(2) == 0).unwrap_or(n);
        let x = draw.below(shape.vars) as usize;
        let v = mem.value(shape.tail.1, p, x, &mut draw);
        b.read(ProcId(p as u32), Var(x as u32), v);
    }
    b.build().expect("the grammar keeps a history well-formed")
}

/// What is wrong with `v` as the evidence of checking `kind` on `h`
/// under `model`; empty if nothing. A verdict that holds carries one
/// witness per process of `τ(h)`, each a permutation of `τ(h)`'s
/// operations — for opacity also sequential, legal at every operation
/// and serializing the transactions in `v.txn_order()`. (An SGLA
/// witness lets non-transactional operations run inside a transaction,
/// so only its permutation is re-checked here.) A verdict that fails
/// carries neither witness nor order.
pub fn witness_errors(
    h: &History,
    model: &dyn MemoryModel,
    kind: CheckKind,
    v: &CheckVerdict,
) -> Vec<String> {
    let th = model.transform(h);
    let mut errors = Vec::new();
    if !v.holds() {
        if !v.witnesses().is_empty() || !v.txn_order().is_empty() {
            errors.push("a refutation carries a witness or an order".into());
        }
        return errors;
    }
    let (witnesses, procs) = (v.witnesses().len(), th.procs().len());
    if witnesses != procs {
        errors.push(format!("{witnesses} witnesses for {procs} processes"));
    }
    for (viewer, ids) in v.witnesses() {
        let at: Vec<usize> = ids.iter().filter_map(|&id| th.index_of(id)).collect();
        let mut once = at.clone();
        once.sort_unstable();
        once.dedup();
        let mut wrong = |what| errors.push(format!("the witness for {viewer:?} {what}"));
        if ids.len() != th.len() || once.len() != th.len() {
            wrong("is not a permutation of τ(h)");
            continue;
        }
        if kind == CheckKind::Sgla {
            continue;
        }
        let s = History::new(at.iter().map(|&i| th.ops()[i].clone()).collect());
        if !s.is_ok_and(|s| s.is_sequential() && every_op_legal(&s)) {
            wrong("is not a sequential legal history");
        }
        let mut order: Vec<usize> = at.iter().filter_map(|&i| th.txn_of(i)).collect();
        order.dedup();
        if order != v.txn_order() {
            wrong("deviates from txn_order");
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;
    use crate::history::TxnStatus;
    use crate::model::Sc;
    use crate::saturate::{derive, Saturation};

    /// Every named shape, by name, in the coverage table's order.
    const SHAPES: [(&str, &Shape); 7] = [
        ("freeform", &FREEFORM),
        ("blocks", &BLOCKS),
        ("executed", &EXECUTED),
        ("overlapping", &OVERLAPPING),
        ("concurrent", &CONCURRENT),
        ("dependent", &DEPENDENT),
        ("scheduled", &SCHEDULED),
    ];

    /// The inputs every property drawing from the kit sees, measured
    /// over seeds `0..200` of each named shape: histories opaque and
    /// refuted under SC; of the refuted, those saturation refutes by a
    /// cycle and by an unsourced read; and histories with a live
    /// transaction, an aborted one, a dependent operation and a
    /// non-transactional one. A change to the grammar or a shape moves
    /// the table, and the failure prints the new one.
    const COVERAGE: &str = "\
shape         opaque refuted   cycle unsourced    live aborted dependent nontxn
freeform         116      84       7        77     124      42         0    152
blocks            77     123      10       108       0     108         0    160
executed         200       0       0         0       0     112         0    175
overlapping      136      64      12        51       0      47         0    163
concurrent        17     183      11       136     170     124         0    100
dependent         37     163      10       148     137      12        54    193
scheduled         37     163     112        36     168     145         0    193
";

    #[test]
    fn each_shape_reaches_what_it_promises() {
        let mut table = COVERAGE.lines().next().unwrap().to_string() + "\n";
        for (name, shape) in SHAPES {
            let mut n = [0usize; 8];
            for seed in 0..200 {
                let h = history(seed, shape);
                let opaque = Check::new(CheckKind::Opacity).run(&h, &Sc).0.holds();
                let saturation = derive(&h, &Sc, CheckKind::Opacity);
                let dependent = h
                    .ops()
                    .iter()
                    .any(|oi| oi.op.command().is_some_and(|c| c.deps().is_some()));
                let status = |s| h.txns().iter().any(|t| t.status == s);
                let hits = [
                    opaque,
                    !opaque,
                    matches!(saturation, Saturation::Cycle(_)),
                    matches!(saturation, Saturation::Unsourced(_)),
                    status(TxnStatus::Live),
                    status(TxnStatus::Aborted),
                    dependent,
                    (0..h.len()).any(|i| h.txn_of(i).is_none()),
                ];
                for (k, hit) in hits.into_iter().enumerate() {
                    n[k] += usize::from(hit);
                }
            }
            table += &format!(
                "{:<13}{:>7}{:>8}{:>8}{:>10}{:>8}{:>8}{:>10}{:>7}\n",
                name, n[0], n[1], n[2], n[3], n[4], n[5], n[6], n[7]
            );
        }
        assert_eq!(table, COVERAGE, "the kit's coverage moved:\n{table}");
    }
}
