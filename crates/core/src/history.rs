//! Histories, transactions, the real-time order `≺h`, and `visible(s)`
//! (§2 *Preliminaries*).
//!
//! A [`History`] is a sequence of [`OpInstance`]s with unique operation
//! identifiers. On construction it is checked for *well-formedness*
//! (matching `start`/`commit`/`abort`, no nested transactions, dependency
//! sets referring only to preceding operations of the same process) and
//! its transactions are parsed once, so that queries such as
//! [`History::is_transactional`] and [`History::precedes_rt`] (the
//! paper's `≺h`) are cheap.
//!
//! Construction hashes nothing and allocates a fixed number of times —
//! the streaming monitor builds a history per window. A
//! [`HistoryBuilder`] history has no identifier index: the builder
//! numbers its operations `1..=n` in history order, so
//! [`History::index_of`] answers by arithmetic and nothing is built or
//! checked. [`History::new`] takes identifiers as they come and indexes
//! them in a vector sorted by identifier (left as built when they
//! ascend), looked up by binary search. The transactions open during
//! the parse are a short list, and every transaction's operation
//! indices lie in one arena, read through [`History::txn_ops`].
//!
//! [`HistoryBuilder`]: crate::builder::HistoryBuilder

use crate::fingerprint::{fold_op, Fnv1a};
use crate::ids::{OpId, ProcId, Var};
use crate::op::{Command, Op};

/// An operation instance `(o, p, k)`: operation `o` issued by process `p`
/// with history-unique identifier `k`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpInstance {
    /// The operation.
    pub op: Op,
    /// The issuing process.
    pub proc: ProcId,
    /// The unique identifier of this instance.
    pub id: OpId,
}

/// Completion status of a transaction in a history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    /// Ends with a `commit` operation.
    Committed,
    /// Ends with an `abort` operation.
    Aborted,
    /// Still running: its last operation is the last operation of its
    /// process in the history ("live" transaction).
    Live,
}

impl TxnStatus {
    /// A transaction is *completed* if it is committed or aborted.
    pub fn is_completed(self) -> bool {
        !matches!(self, TxnStatus::Live)
    }
}

/// A parsed transaction: a maximal `start … (commit|abort)` subsequence of
/// one process (or a trailing live transaction).
#[derive(Clone, Debug)]
pub struct Txn {
    /// The process executing the transaction.
    pub proc: ProcId,
    /// Completion status.
    pub status: TxnStatus,
    first: usize,
    last: usize,
    /// Where its operation indices lie in the history's arena
    /// ([`History::txn_ops`]).
    span: std::ops::Range<usize>,
}

impl Txn {
    /// Index of the transaction's first operation instance (its
    /// `start`) in the history.
    pub fn first(&self) -> usize {
        self.first
    }

    /// Index of the transaction's last operation instance in the history.
    pub fn last(&self) -> usize {
        self.last
    }
}

/// Errors detected when validating a history for well-formedness.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field names are self-describing
pub enum HistoryError {
    /// Two operation instances share an identifier.
    DuplicateOpId(OpId),
    /// A `start` was issued while the process already had a live
    /// transaction (nested transactions are not allowed).
    NestedStart { proc: ProcId, id: OpId },
    /// A `commit` or `abort` without a matching `start`.
    UnmatchedEnd { proc: ProcId, id: OpId },
    /// A dependent command refers to an operation that does not precede
    /// it in the history, is not by the same process, or does not exist.
    BadDependency { id: OpId, dep: OpId },
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::DuplicateOpId(id) => write!(f, "duplicate operation id {id}"),
            HistoryError::NestedStart { proc, id } => {
                write!(f, "nested start {id} by {proc}")
            }
            HistoryError::UnmatchedEnd { proc, id } => {
                write!(f, "commit/abort {id} by {proc} without matching start")
            }
            HistoryError::BadDependency { id, dep } => {
                write!(
                    f,
                    "operation {id} depends on {dep}, which does not precede it"
                )
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// A well-formed history: a sequence of operation instances with parsed
/// transaction structure.
#[derive(Clone, Debug)]
pub struct History {
    ops: Vec<OpInstance>,
    txns: Vec<Txn>,
    /// The operation indices of every transaction, transaction after
    /// transaction: one allocation where a monitor window would make 65.
    txn_ops: Vec<usize>,
    /// For each operation index, the index of its transaction in `txns`
    /// ([`NO_TXN`] for non-transactional operations): four bytes an
    /// operation, not sixteen.
    txn_of: Vec<u32>,
    /// `(identifier, index in ops)`, sorted by identifier; empty for a
    /// [`HistoryBuilder`](crate::builder::HistoryBuilder) history, whose
    /// identifiers are `1..=n` in history order.
    index_of: Vec<(OpId, usize)>,
}

/// `History::txn_of`'s mark for a non-transactional operation.
const NO_TXN: u32 = u32::MAX;

/// A `txn_of` entry as a transaction index.
fn some_txn(t: u32) -> Option<usize> {
    (t != NO_TXN).then_some(t as usize)
}

/// The index of `id` among `n` operations whose identifier index is
/// `index_of` (empty: identifier `k` is operation `k - 1`).
fn lookup(index_of: &[(OpId, usize)], n: usize, id: OpId) -> Option<usize> {
    if index_of.is_empty() {
        let i = (id.0 as usize).checked_sub(1)?;
        return (i < n).then_some(i);
    }
    let at = index_of.binary_search_by_key(&id, |&(k, _)| k);
    at.ok().map(|k| index_of[k].1)
}

impl History {
    /// Validate and construct a history from raw operation instances.
    ///
    /// Checks the paper's well-formedness conditions: unique identifiers,
    /// every `commit`/`abort` matching a `start`, no nested transactions,
    /// and dependency sets of `cdrd`/`ddrd`/`cdwr`/`ddwr` commands naming
    /// only operations of the same process that precede them.
    pub fn new(ops: Vec<OpInstance>) -> Result<Self, HistoryError> {
        // Already sorted when identifiers ascend; otherwise sorted once,
        // which also brings duplicates together. The duplicate reported
        // is the first one met in history order: the least index that
        // repeats an earlier id.
        let mut index_of: Vec<(OpId, usize)> =
            ops.iter().enumerate().map(|(i, oi)| (oi.id, i)).collect();
        if !index_of.windows(2).all(|w| w[0].0 < w[1].0) {
            index_of.sort_unstable();
            let repeats = index_of.windows(2).filter(|w| w[0].0 == w[1].0);
            if let Some(i) = repeats.map(|w| w[1].1).min() {
                return Err(HistoryError::DuplicateOpId(ops[i].id));
            }
        }
        Self::parse(ops, index_of)
    }

    /// [`History::new`] for operations whose identifiers are `1..=n` in
    /// history order, as a [`HistoryBuilder`] numbers them: unique, so
    /// there is no identifier index to build or check, and
    /// [`History::index_of`] answers by arithmetic.
    ///
    /// [`HistoryBuilder`]: crate::builder::HistoryBuilder
    pub(crate) fn numbered(ops: Vec<OpInstance>) -> Result<Self, HistoryError> {
        debug_assert!(ops
            .iter()
            .enumerate()
            .all(|(i, oi)| oi.id.0 as usize == i + 1));
        Self::parse(ops, Vec::new())
    }

    /// Parse the transactions of `ops`, whose identifiers are unique
    /// and indexed by `index_of` (empty: `1..=n` in order).
    fn parse(ops: Vec<OpInstance>, index_of: Vec<(OpId, usize)>) -> Result<Self, HistoryError> {
        // Parse transactions per process.
        let mut txns: Vec<Txn> = Vec::new();
        let mut txn_of = vec![NO_TXN; ops.len()];
        // (process, its open transaction): as long as there are
        // processes with a transaction open at once.
        let mut open: Vec<(ProcId, usize)> = Vec::new();
        for (i, oi) in ops.iter().enumerate() {
            let at = open.iter().position(|&(p, _)| p == oi.proc);
            match &oi.op {
                Op::Start => {
                    if at.is_some() {
                        return Err(HistoryError::NestedStart {
                            proc: oi.proc,
                            id: oi.id,
                        });
                    }
                    let t = txns.len();
                    txns.push(Txn {
                        proc: oi.proc,
                        status: TxnStatus::Live,
                        first: i,
                        last: i,
                        span: 0..1, // its length, until the arena is laid out
                    });
                    txn_of[i] = t as u32;
                    open.push((oi.proc, t));
                }
                Op::Commit | Op::Abort => {
                    let Some(at) = at else {
                        return Err(HistoryError::UnmatchedEnd {
                            proc: oi.proc,
                            id: oi.id,
                        });
                    };
                    let (_, t) = open.swap_remove(at);
                    txns[t].last = i;
                    txns[t].span.end += 1;
                    txns[t].status = if matches!(oi.op, Op::Commit) {
                        TxnStatus::Committed
                    } else {
                        TxnStatus::Aborted
                    };
                    txn_of[i] = t as u32;
                }
                Op::Cmd(c) => {
                    if let Some(at) = at {
                        let t = open[at].1;
                        txns[t].last = i;
                        txns[t].span.end += 1;
                        txn_of[i] = t as u32;
                    }
                    // Dependency well-formedness: each dep must be an
                    // earlier operation of the same process.
                    if let Some((_, deps)) = c.deps() {
                        for d in deps {
                            match lookup(&index_of, ops.len(), *d) {
                                Some(j) if j < i && ops[j].proc == oi.proc => {}
                                _ => {
                                    return Err(HistoryError::BadDependency { id: oi.id, dep: *d })
                                }
                            }
                        }
                    }
                }
            }
        }

        // Lay the transactions' operation indices out in one arena:
        // each span starts empty at its offset and grows as its
        // operations are met in history order.
        let mut offset = 0;
        for t in &mut txns {
            let len = t.span.end;
            t.span = offset..offset;
            offset += len;
        }
        let mut txn_ops = vec![0; offset];
        for (i, &t) in txn_of.iter().enumerate() {
            if let Some(t) = some_txn(t) {
                txn_ops[txns[t].span.end] = i;
                txns[t].span.end += 1;
            }
        }

        Ok(History {
            ops,
            txns,
            txn_ops,
            txn_of,
            index_of,
        })
    }

    /// The operation instances, in history order.
    pub fn ops(&self) -> &[OpInstance] {
        &self.ops
    }

    /// Number of operation instances.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The parsed transactions, in order of their `start` operations.
    pub fn txns(&self) -> &[Txn] {
        &self.txns
    }

    /// Indices (into [`History::ops`]) of the operation instances of
    /// transaction `t` (an index into [`History::txns`]), in history
    /// order; the first is always the `start`.
    pub fn txn_ops(&self, t: usize) -> &[usize] {
        &self.txn_ops[self.txns[t].span.clone()]
    }

    /// The transaction containing the operation at history index `i`, if
    /// that operation is transactional.
    pub fn txn_of(&self, i: usize) -> Option<usize> {
        some_txn(self.txn_of[i])
    }

    /// True iff the operation at history index `i` is part of a
    /// transaction.
    pub fn is_transactional(&self, i: usize) -> bool {
        self.txn_of[i] != NO_TXN
    }

    /// History index of the operation with identifier `id`.
    pub fn index_of(&self, id: OpId) -> Option<usize> {
        lookup(&self.index_of, self.ops.len(), id)
    }

    /// The set of processes appearing in the history, sorted.
    pub fn procs(&self) -> Vec<ProcId> {
        // A handful of processes, each in runs: one search per run.
        let (mut set, mut last) = (Vec::new(), None);
        for p in self.ops.iter().map(|o| o.proc) {
            if last.replace(p) != Some(p) {
                if let Err(at) = set.binary_search(&p) {
                    set.insert(at, p);
                }
            }
        }
        set
    }

    /// The set of variables accessed in the history, sorted.
    pub(crate) fn vars(&self) -> Vec<Var> {
        let commands = self.ops.iter().filter_map(|o| o.op.command());
        let mut set: Vec<Var> = commands.map(Command::var).collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// The *generating* relation of the real-time partial order `≺h` on
    /// history indices (§2): `i → j` iff
    ///
    /// 1. `i` and `j` belong to transactions `T` and `T'` where `T` is
    ///    completed and the last operation of `T` precedes the first
    ///    operation of `T'`, or
    /// 2. `i` precedes `j` in the history, both are by the same process,
    ///    and at least one of them is transactional.
    ///
    /// `≺h` itself is the transitive closure of this relation (it is a
    /// partial order); see [`History::rt_closure`]. A sequence respects
    /// `≺h` iff it respects the generating relation, so the checkers use
    /// this cheaper form directly.
    pub fn precedes_rt(&self, i: usize, j: usize) -> bool {
        // Case 2: same-process program order, at least one transactional.
        if i < j
            && self.ops[i].proc == self.ops[j].proc
            && (self.is_transactional(i) || self.is_transactional(j))
        {
            return true;
        }
        // Case 1: cross-transaction real-time order.
        if let (Some(t1), Some(t2)) = (self.txn_of(i), self.txn_of(j)) {
            if t1 != t2 {
                let t1 = &self.txns[t1];
                let t2 = &self.txns[t2];
                if t1.status.is_completed() && t1.last() < t2.first() {
                    return true;
                }
            }
        }
        false
    }

    /// The full real-time partial order `≺h` (transitive closure of
    /// [`History::precedes_rt`]) as a boolean matrix indexed by history
    /// position. Quadratic in space; intended for tests and diagnostics.
    #[allow(clippy::needless_range_loop)] // index-matrix code reads clearer with i/j/k
    pub fn rt_closure(&self) -> Vec<Vec<bool>> {
        let n = self.ops.len();
        let mut m = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j && self.precedes_rt(i, j) {
                    m[i][j] = true;
                }
            }
        }
        // Floyd–Warshall transitive closure.
        for k in 0..n {
            for i in 0..n {
                if m[i][k] {
                    for j in 0..n {
                        if m[k][j] {
                            m[i][j] = true;
                        }
                    }
                }
            }
        }
        m
    }

    /// True iff the history is *sequential*: no transaction overlaps
    /// another transaction or a non-transactional operation instance.
    pub fn is_sequential(&self) -> bool {
        self.txns.iter().all(|t| {
            let (first, last) = (t.first(), t.last());
            (first..=last).all(|i| self.txn_of[i] == self.txn_of[first])
        })
    }

    /// The paper's `visible(s)`: the longest subsequence of `self` that
    /// contains no operation instance of a non-committed transaction `T`,
    /// *except* if `T` is not followed by any other transaction or
    /// non-transactional operation instance (i.e. `T` is the trailing,
    /// still-pending transaction).
    pub fn visible(&self) -> History {
        // Determine, for each transaction, whether it survives.
        let mut keep_txn = vec![false; self.txns.len()];
        for (ti, t) in self.txns.iter().enumerate() {
            if t.status == TxnStatus::Committed {
                keep_txn[ti] = true;
            } else {
                // Keep a non-committed T only if nothing follows it other
                // than its own operations.
                let last = t.last();
                let followed = self.ops[last + 1..]
                    .iter()
                    .enumerate()
                    .any(|(off, _)| self.txn_of(last + 1 + off) != Some(ti));
                keep_txn[ti] = !followed;
            }
        }
        let ops: Vec<OpInstance> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| match self.txn_of(*i) {
                Some(t) => keep_txn[t],
                None => true,
            })
            .map(|(_, o)| o.clone())
            .collect();
        History::new(ops).expect("visible() preserves well-formedness")
    }

    /// The subsequence `s|x` of commands on variable `x` (boundary
    /// operations are excluded, matching the paper's definition of `s|x`
    /// as a sequence of *commands*).
    pub(crate) fn project(&self, x: Var) -> Vec<Command> {
        self.ops
            .iter()
            .filter_map(|o| o.op.command())
            .filter(|c| c.var() == x)
            .cloned()
            .collect()
    }

    /// The prefix of the history ending with (and including) index `i`.
    pub fn prefix(&self, i: usize) -> History {
        History::new(self.ops[..=i].to_vec()).expect("prefix of well-formed is well-formed")
    }

    /// A stable 64-bit structural fingerprint of the history: FNV-1a
    /// over the operation sequence (process, identifier, operation kind,
    /// variable, values, dependency sets).
    ///
    /// Two histories with the same fingerprint are — modulo the
    /// vanishingly unlikely 64-bit collision — the *same* sequence of
    /// operation instances, so any checker verdict computed for one
    /// applies to the other. The model-checking sweeps use this as the
    /// memoization key for checker verdicts; the deduplicated schedule
    /// exploration keys its seen-set on the analogous trace fingerprint.
    /// The hash is independent of platform, allocation, and process run,
    /// so fingerprints are comparable across runs and machines.
    pub fn cache_key(&self) -> u64 {
        let mut f = Fnv1a::new();
        for oi in &self.ops {
            f.word(u64::from(oi.proc.0));
            f.word(u64::from(oi.id.0));
            fold_op(&mut f, &oi.op);
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{X, Y};

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// Figure 3(a) of the paper: p1 writes `x` non-transactionally and
    /// runs the transaction writing `y`; p2 reads `y` then `x`
    /// non-transactionally (its read of `y` interleaves inside p1's
    /// transaction region); p3 runs an empty transaction and reads `x`.
    fn fig3a() -> History {
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1); // id 1
        b.start(p(1)); // id 2
        b.read(p(2), Y, 1); // id 3
        b.write(p(1), Y, 1); // id 4
        b.commit(p(1)); // id 5
        b.read(p(2), X, 7); // id 6 (value v arbitrary)
        b.start(p(3)); // id 7
        b.commit(p(3)); // id 8
        b.read(p(3), X, 7); // id 9 (value v' arbitrary)
        b.build().unwrap()
    }

    #[test]
    fn parses_transactions() {
        let h = fig3a();
        assert_eq!(h.txns().len(), 2);
        assert_eq!(h.txns()[0].proc, p(1));
        assert_eq!(h.txns()[0].status, TxnStatus::Committed);
        assert_eq!(h.txns()[1].proc, p(3));
        // Non-transactional ops.
        assert!(!h.is_transactional(0)); // (wr,x,1) by p1
        assert!(h.is_transactional(1)); // start by p1
        assert!(!h.is_transactional(2)); // (rd,y,1) by p2
        assert!(!h.is_transactional(5)); // (rd,x,v) by p2
    }

    #[test]
    fn cache_key_stable_and_structure_sensitive() {
        let h = fig3a();
        assert_eq!(h.cache_key(), fig3a().cache_key());
        // Changing any structural detail changes the fingerprint.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 2); // differs in the written value only
        b.start(p(1));
        b.read(p(2), Y, 1);
        b.write(p(1), Y, 1);
        b.commit(p(1));
        b.read(p(2), X, 7);
        b.start(p(3));
        b.commit(p(3));
        b.read(p(3), X, 7);
        let h2 = b.build().unwrap();
        assert_ne!(h.cache_key(), h2.cache_key());
    }

    #[test]
    fn realtime_order_matches_paper_example() {
        // The paper: "≺h consists of elements (1,2), (5,7), and (1,9).
        // On the other hand, (1,6) and (6,9) are not in ≺h."
        // (≺h is a partial order, i.e. the transitive closure of the
        // generating relation; the paper lists representative pairs.)
        let h = fig3a();
        let ix = |id: u32| h.index_of(OpId(id)).unwrap();
        let m = h.rt_closure();
        assert!(m[ix(1)][ix(2)]); // same process, start transactional
        assert!(m[ix(5)][ix(7)]); // T(p1) completed before T(p3)
        assert!(m[ix(1)][ix(9)]); // via 1 ≺ 2 ≺ 7 ≺ 9
        assert!(!m[ix(1)][ix(6)]); // cross-process non-transactional
        assert!(!m[ix(6)][ix(9)]); // cross-process non-transactional
    }

    #[test]
    fn nested_start_rejected() {
        let ops = vec![
            OpInstance {
                op: Op::Start,
                proc: p(1),
                id: OpId(1),
            },
            OpInstance {
                op: Op::Start,
                proc: p(1),
                id: OpId(2),
            },
        ];
        assert!(matches!(
            History::new(ops),
            Err(HistoryError::NestedStart { .. })
        ));
    }

    #[test]
    fn unmatched_commit_rejected() {
        let ops = vec![OpInstance {
            op: Op::Commit,
            proc: p(1),
            id: OpId(1),
        }];
        assert!(matches!(
            History::new(ops),
            Err(HistoryError::UnmatchedEnd { .. })
        ));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let ops = vec![
            OpInstance {
                op: Op::Start,
                proc: p(1),
                id: OpId(1),
            },
            OpInstance {
                op: Op::Commit,
                proc: p(1),
                id: OpId(1),
            },
        ];
        assert!(matches!(
            History::new(ops),
            Err(HistoryError::DuplicateOpId(_))
        ));
    }

    #[test]
    fn bad_dependency_rejected() {
        use crate::op::DepKind;
        let ops = vec![OpInstance {
            op: Op::Cmd(Command::DepRead {
                var: X,
                val: 0,
                kind: DepKind::Data,
                deps: vec![OpId(99)],
            }),
            proc: p(1),
            id: OpId(1),
        }];
        assert!(matches!(
            History::new(ops),
            Err(HistoryError::BadDependency { .. })
        ));
    }

    #[test]
    fn sequential_detection() {
        // Fig. 3(a) is not sequential: p2's read of y (id 3) interleaves
        // inside p1's transaction region.
        let h = fig3a();
        assert!(!h.is_sequential());
        // A properly sequentialized variant is sequential.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.start(p(2));
        b.write(p(2), Y, 1);
        b.commit(p(2));
        b.read(p(1), X, 1);
        let s = b.build().unwrap();
        assert!(s.is_sequential());
    }

    #[test]
    fn visible_drops_aborted_followed() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.abort(p(1));
        b.read(p(2), X, 0);
        let h = b.build().unwrap();
        let v = h.visible();
        assert_eq!(v.len(), 1); // only the non-transactional read remains
        assert!(matches!(v.ops()[0].op, Op::Cmd(Command::Read { .. })));
    }

    #[test]
    fn visible_keeps_trailing_live_txn() {
        let mut b = HistoryBuilder::new();
        b.read(p(2), X, 0);
        b.start(p(1));
        b.write(p(1), X, 1);
        let h = b.build().unwrap();
        let v = h.visible();
        assert_eq!(v.len(), 3); // live trailing transaction is kept
    }

    #[test]
    fn visible_keeps_committed() {
        let h = fig3a();
        let v = h.visible();
        assert_eq!(v.len(), h.len()); // both txns committed/none trailing-dropped
    }

    #[test]
    fn project_selects_var_commands() {
        let h = fig3a();
        let px = h.project(X);
        assert_eq!(px.len(), 3); // wr x 1, rd x v (p1), rd x v (p3)
        let py = h.project(Y);
        assert_eq!(py.len(), 2);
    }

    #[test]
    fn procs_and_vars() {
        let h = fig3a();
        assert_eq!(h.procs(), vec![p(1), p(2), p(3)]);
        assert_eq!(h.vars(), vec![X, Y]);
    }
}
