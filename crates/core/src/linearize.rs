//! The constraint system of §3.3 and the one search over it.
//!
//! `h` ensures opacity parametrized by `M = (τ, R)` iff there are a
//! total order `≺` and a view `v ∈ R(τ(h))` such that every process has
//! a legal permutation of `τ(h)` respecting `≺ ∪ ≺h ∪ v(p)`; SGLA
//! (§6.2) changes only the granularity of the permutation (operations
//! instead of whole transactions) and the legality semantics (critical
//! sections instead of deferred updates). This module owns what the
//! two share, in four parts, and the one order search
//! ([`check`](crate::check)) and the explainers are clients of it:
//!
//! * [`view_pairs`] — the minimal view `v` as history-index pairs, the
//!   same for every process (public: `jungle-mc`'s explainer masks
//!   these pairs one at a time);
//! * `Graph` — the nodes of the permutation over `τ(h)`, at unit or at
//!   operation granularity, with the lift of index pairs to node edges
//!   and `≺h` as a covering edge set (`Graph::rt_edges`: one pass over
//!   the history, a few edges per node, the closure of all the
//!   generating pairs);
//! * `Graph::place` — apply one node to a `Legality` state
//!   ([`PrefixChecker`] or [`CsChecker`]);
//! * `linearize` — the backtracking search for a legal topological
//!   order of the nodes, which explores no frontier (placed nodes, open
//!   critical section, memory state) twice: at most one position per
//!   process × memory states of them, where sequences are factorially
//!   many. Under a whole serialization order it is the checkers' leaf;
//!   under part of one, their oracle for every order that includes the
//!   part.
//!
//! The clients say which granularity, which static edges, and which
//! legality: the constructors in [`opacity`](crate::opacity) and
//! [`sgla`](crate::sgla) for the two properties, and
//! [`explain`](crate::explain) for the greedy placement. The
//! [`triage`](crate::triage) tier forms the same units from an
//! operation stream itself, and numbers variables as `Graph` does.
//! Before a check searches, [`saturate`](crate::saturate) adds the
//! edges the reads' values force to the static ones, so `linearize`
//! meets most stale reads as a cycle that was refuted before it was
//! called, and the rest with fewer orders to try.

use crate::history::{History, TxnStatus};
use crate::ids::{IdMap, OpId, ProcId, Var};
use crate::legal::{CsChecker, PrefixChecker};
use crate::model::MemoryModel;
use crate::op::{Command, Op};
use crate::par::Cancel;
use jungle_obs::trace::{self, EventKind};
use jungle_obs::SearchStats;
use std::collections::HashSet;

/// The minimal view `v` of `R(h)`: the history-index pairs `(i, j)`,
/// `i < j`, that every view must order — pairs of non-transactional
/// commands of one process for which [`MemoryModel::required`] holds,
/// in ascending order. `h` is the transformed history `τ(h)`.
///
/// For all of the paper's models `R` is upward closed and gives every
/// process the same minimal view, so the existential over views is
/// discharged by this one.
pub fn view_pairs(h: &History, model: &dyn MemoryModel) -> Vec<(usize, usize)> {
    let ops = h.ops();
    let cmds: Vec<usize> = (0..h.len())
        .filter(|&i| !h.is_transactional(i) && ops[i].op.command().is_some())
        .collect();
    let mut pairs = Vec::new();
    for (k, &i) in cmds.iter().enumerate() {
        for &j in &cmds[k + 1..] {
            if ops[i].proc == ops[j].proc && model.required(h, i, j) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// An incremental legality state the search snapshots by [`Clone`]:
/// [`PrefixChecker`] (deferred updates, opacity) or [`CsChecker`]
/// (critical sections, SGLA).
pub(crate) trait Legality: Clone + Sync {
    /// Apply the next operation, `x` being the number `Graph` gave its
    /// variable; `false` if it is illegal.
    fn step(&mut self, x: usize, op: &Op, transactional: bool) -> bool;
    /// Close a live transaction after its last operation.
    fn suspend_live(&mut self);
    /// Is a transaction open?
    fn in_txn(&self) -> bool;
    /// Append the state to a memo key: equal keys, equal futures.
    fn key(&self, out: &mut Vec<u64>);
}

macro_rules! legality {
    ($checker:ident) => {
        impl Legality for $checker {
            fn step(&mut self, x: usize, op: &Op, transactional: bool) -> bool {
                $checker::step_var(self, x, op, transactional)
            }
            fn suspend_live(&mut self) {
                $checker::suspend_live(self)
            }
            fn in_txn(&self) -> bool {
                $checker::in_txn(self)
            }
            fn key(&self, out: &mut Vec<u64>) {
                $checker::key(self, out)
            }
        }
    };
}
legality!(PrefixChecker);
legality!(CsChecker);

/// The nodes a witness permutes. At **unit** granularity: one node per
/// transaction, in transaction-index order (so node `t` *is*
/// transaction `t`), then one per non-transactional operation in
/// history order. At **operation** granularity: one node per
/// operation, node `i` being history index `i`.
///
/// It also numbers the history's variables, and [`Graph::place`] hands
/// every access its number: the legality checkers keep their state in
/// tables indexed by it. Where every variable index is below
/// [`OWN_NUMBERS`], each is its own number; otherwise they are numbered
/// densely, in the order the history first names them. Either way a
/// table — which the search copies at every node — is no longer than
/// `OWN_NUMBERS` or the number of distinct variables, whichever is
/// larger.
pub(crate) struct Graph<'h> {
    h: &'h History,
    /// Leading nodes that are whole transactions (0 at operation
    /// granularity); they borrow the transaction's
    /// [`History::txn_ops`].
    blocks: usize,
    /// History indices of the single-operation nodes that follow.
    singles: Vec<usize>,
    /// For each history index, its node.
    node_of: Vec<usize>,
    /// For each history index, the number of the variable it accesses
    /// (0 for `start`, `commit` and `abort`); empty when every variable
    /// is its own number.
    var_of: Vec<u32>,
}

/// Variable indices below this are their own numbers in any history.
pub(crate) const OWN_NUMBERS: usize = 64;

/// The number of the variable each operation of `h` accesses, or
/// nothing when each variable is its own number.
fn number_vars(h: &History) -> Vec<u32> {
    let vars = h
        .ops()
        .iter()
        .filter_map(|oi| oi.op.command().map(Command::var));
    if vars.clone().all(|x| (x.0 as usize) < OWN_NUMBERS) {
        return Vec::new();
    }
    let mut seen: IdMap<Var, u32> = IdMap::default();
    let ops = h.ops().iter().map(|oi| {
        let Some(cmd) = oi.op.command() else { return 0 };
        let next = seen.len() as u32;
        *seen.entry(cmd.var()).or_insert(next)
    });
    ops.collect()
}

impl<'h> Graph<'h> {
    /// The unit-granularity graph of `h`.
    pub(crate) fn units(h: &'h History) -> Self {
        let blocks = h.txns().len();
        let mut singles = Vec::new();
        let node_of = (0..h.len())
            .map(|i| {
                h.txn_of(i).unwrap_or_else(|| {
                    singles.push(i);
                    blocks + singles.len() - 1
                })
            })
            .collect();
        Graph {
            h,
            blocks,
            singles,
            node_of,
            var_of: number_vars(h),
        }
    }

    /// The operation-granularity graph of `h`.
    pub(crate) fn ops(h: &'h History) -> Self {
        Graph {
            h,
            blocks: 0,
            singles: (0..h.len()).collect(),
            node_of: (0..h.len()).collect(),
            var_of: number_vars(h),
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.blocks + self.singles.len()
    }

    /// The history indices of node `u`'s operations, in program order.
    pub(crate) fn ops_of(&self, u: usize) -> &[usize] {
        match u.checked_sub(self.blocks) {
            None => self.h.txn_ops(u),
            Some(k) => std::slice::from_ref(&self.singles[k]),
        }
    }

    /// The node of history index `i`.
    pub(crate) fn node(&self, i: usize) -> usize {
        self.node_of[i]
    }

    /// The transaction node `u` belongs to, if any.
    pub(crate) fn txn_of(&self, u: usize) -> Option<usize> {
        self.h.txn_of(self.ops_of(u)[0])
    }

    /// The identifiers of the operations of `nodes`, flattened.
    pub(crate) fn op_ids(&self, nodes: &[usize]) -> Vec<OpId> {
        let ids = nodes.iter().flat_map(|&u| self.ops_of(u));
        ids.map(|&i| self.h.ops()[i].id).collect()
    }

    /// Lift history-index pairs to node edges, dropping pairs inside
    /// one node.
    pub(crate) fn lift<'a>(
        &'a self,
        pairs: impl IntoIterator<Item = (usize, usize)> + 'a,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let edges = pairs
            .into_iter()
            .map(|(i, j)| (self.node_of[i], self.node_of[j]));
        edges.filter(|(a, b)| a != b)
    }

    /// The transactions of `nodes`, each where its first operation
    /// stands — the serialization order a linearization carries.
    pub(crate) fn txn_order(&self, nodes: &[usize]) -> Vec<usize> {
        let starts = |&u: &usize| {
            let t = self.txn_of(u)?;
            (self.ops_of(u)[0] == self.h.txns()[t].first()).then_some(t)
        };
        nodes.iter().filter_map(starts).collect()
    }

    /// A **covering** subset of the generating pairs of `≺h`
    /// ([`History::precedes_rt`]), lifted — as an [`edge_set`]. Its
    /// transitive closure is that of all the pairs, and the search
    /// only ever asks whether every predecessor of a node is placed,
    /// which a closure decides: the nodes available at each frontier —
    /// hence the nodes visited, the witness and the dead ends — are
    /// those of the full relation, from a tenth of the edges.
    ///
    /// One pass over the history keeps two kinds of pair:
    ///
    /// * program order with a transactional side: into each node, from
    ///   its process's latest transactional node, and into a
    ///   transactional one also from the process's single operations
    ///   since then (earlier ones reach it through that node);
    /// * a completed transaction `a` wholly before a transaction `b`:
    ///   only when no completed `c` lies wholly between them (`a → c →
    ///   b` is kept instead) — that is, when `a` ends after every
    ///   transaction completed before `b` has begun. Those `a` overlap
    ///   one another, so there is at most one per process.
    pub(crate) fn rt_edges(&self) -> Vec<(usize, usize)> {
        let (h, txns) = (self.h, self.h.txns());
        let mut edges = Vec::new();
        // Per process: its latest transactional node, its singles since.
        let mut procs: Vec<(ProcId, Option<usize>, Vec<usize>)> = Vec::new();
        // The completed transactions so far as (last operation, its
        // node), ascending, and the latest `first()` among them.
        let mut done: Vec<(usize, usize)> = Vec::new();
        let mut latest_first = 0;
        for (i, oi) in h.ops().iter().enumerate() {
            let u = self.node_of[i];
            let txn = h.txn_of(i).map(|t| &txns[t]);
            if self.ops_of(u)[0] == i {
                let at = procs.iter().position(|&(p, ..)| p == oi.proc);
                let at = at.unwrap_or_else(|| {
                    procs.push((oi.proc, None, Vec::new()));
                    procs.len() - 1
                });
                let (_, latest, singles) = &mut procs[at];
                edges.extend(latest.map(|a| (a, u)));
                if txn.is_some() {
                    edges.extend(singles.drain(..).map(|a| (a, u)));
                    *latest = Some(u);
                } else {
                    singles.push(u);
                }
            }
            let Some(t) = txn else { continue };
            if t.first() == i {
                let covering = done
                    .iter()
                    .rev()
                    .take_while(|&&(last, _)| last > latest_first);
                edges.extend(covering.map(|&(_, a)| (a, u)));
            }
            if t.last() == i && t.status.is_completed() {
                done.push((i, u));
                latest_first = latest_first.max(t.first());
            }
        }
        edge_set(edges)
    }

    /// The edge that serializes transaction `a` before transaction
    /// `b`: `a`'s last operation before `b`'s first.
    pub(crate) fn order_edge(&self, a: usize, b: usize) -> (usize, usize) {
        let txns = self.h.txns();
        (self.node_of[txns[a].last()], self.node_of[txns[b].first()])
    }

    /// Apply node `u` to `c`: its operations step in program order,
    /// and a live transaction is suspended after its last operation.
    /// `false` if some operation is illegal (`c` is then spent).
    pub(crate) fn place<L: Legality>(&self, u: usize, c: &mut L) -> bool {
        let ops = self.ops_of(u);
        let txn = self.txn_of(u).map(|t| &self.h.txns()[t]);
        for &i in ops {
            let op = &self.h.ops()[i].op;
            let x = match self.var_of.get(i) {
                Some(&x) => x as usize,
                None => op.command().map_or(0, |c| c.var().0 as usize),
            };
            if !c.step(x, op, txn.is_some()) {
                return false;
            }
        }
        if txn.is_some_and(|t| t.status == TxnStatus::Live && ops.last() == Some(&t.last())) {
            c.suspend_live();
        }
        true
    }
}

/// Sort and deduplicate an edge list — the form the search and its
/// memo key take.
pub(crate) fn edge_set(edges: impl IntoIterator<Item = (usize, usize)>) -> Vec<(usize, usize)> {
    let mut edges: Vec<_> = edges.into_iter().collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Where each of the `n` nodes' out-edges begin in the [`edge_set`]
/// `edges`, and where the last node's end: node `u`'s are
/// `edges[start[u]..start[u + 1]]`.
pub(crate) fn sources(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut start = vec![0; n + 1];
    for &(a, _) in edges {
        start[a + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    start
}

/// The union of two [`edge_set`]s, as one: a merge, since `fixed` is
/// sorted already and a call adds a handful.
pub(crate) fn union(a: &[(usize, usize)], b: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Frontiers of the search from which no legal completion exists,
/// under their exact key: the placed nodes, the open critical section
/// and the whole [`Legality`] state (no digest — a collision would be a
/// wrong verdict).
///
/// A frontier that is dead under one constraint set is dead under every
/// set that implies it, and under no other. So the entries a
/// [`linearize`] call adds (`fresh`) live until the next call begins,
/// unless the caller [`keep`](LeafMemo::keep_dead_ends)s them — which
/// it may do exactly when every later call on this memo only adds
/// constraints. Once full the set stops admitting entries; it never
/// evicts, so a capped search is slower, not different.
struct DeadEnds {
    cap: usize,
    kept: HashSet<Vec<u64>>,
    fresh: HashSet<Vec<u64>>,
}

impl DeadEnds {
    fn is_empty(&self) -> bool {
        self.kept.is_empty() && self.fresh.is_empty()
    }

    fn contains(&self, key: &[u64]) -> bool {
        self.fresh.contains(key) || self.kept.contains(key)
    }

    fn insert(&mut self, key: Vec<u64>) {
        if self.kept.len() + self.fresh.len() < self.cap {
            self.fresh.insert(key);
        }
    }
}

/// Dead ends one search may remember (some ten megabytes of keys);
/// refuting ten mutually concurrent transactions under SGLA, when
/// saturation leaves their order open
/// (`litmus::stress::wide_split_unsat_history(10)`), takes 31,296.
pub(crate) const DEAD_END_CAP: usize = 1 << 17;

/// What [`linearize`] remembers between calls on one history: the dead
/// ends the caller vouched for.
pub(crate) struct LeafMemo {
    dead: DeadEnds,
}

impl LeafMemo {
    /// A memo admitting at most `dead_ends` dead ends
    /// ([`DEAD_END_CAP`] outside tests).
    pub(crate) fn new(dead_ends: usize) -> Self {
        LeafMemo {
            dead: DeadEnds {
                cap: dead_ends,
                kept: HashSet::new(),
                fresh: HashSet::new(),
            },
        }
    }

    /// Carry the dead ends of the call just made into the calls that
    /// follow: the caller promises that each of those poses every
    /// constraint of this one (and possibly more).
    pub(crate) fn keep_dead_ends(&mut self) {
        self.dead.kept.extend(self.dead.fresh.drain());
    }

    /// Forget every dead end, kept or not: the next call is free to
    /// pose unrelated constraints.
    pub(crate) fn clear_dead_ends(&mut self) {
        self.dead.kept.clear();
        self.dead.fresh.clear();
    }
}

/// Search for a prefix-legal sequence of all of `g`'s nodes respecting
/// `fixed` (an [`edge_set`]) and the transaction precedences `pairs`,
/// starting from the legality state `init`; the witness comes back as
/// the node sequence ([`Graph::op_ids`] names its operations,
/// [`Graph::txn_order`] the serialization order it carries).
///
/// `pairs` need not be a full order. A full order's adjacent pairs
/// give the classic leaf; a *subset* is a weaker constraint set, so
/// "no witness" refutes every total order whose precedences include
/// the pairs — with no pairs at all, every order — and a witness under
/// the pairs of a *prefix* ("π₀ → … → π_k, π_k → every other
/// transaction") shows that some complete order extends that prefix.
///
/// The search is a backtracking DFS trying nodes in ascending index
/// order, so the witness is the lexicographically first one, and it
/// never explores a frontier twice: one that failed is a dead end in
/// `memo`, found again by its exact key. With one program position per
/// process, the frontiers number at most (positions per process)^
/// (processes) × memory states, which bounds the search where the
/// number of node sequences does not. A cancelled call may report "no
/// witness" spuriously, and records no dead end.
pub(crate) fn linearize<L: Legality>(
    g: &Graph<'_>,
    fixed: &[(usize, usize)],
    pairs: &[(usize, usize)],
    init: &L,
    stats: &mut SearchStats,
    cancel: &Cancel<'_>,
    memo: &mut LeafMemo,
) -> Option<Vec<usize>> {
    memo.dead.fresh.clear();
    let order = edge_set(pairs.iter().map(|&(a, b)| g.order_edge(a, b)));
    let edges = union(fixed, &order);
    let n = g.len();
    let mut indeg = vec![0; n];
    for &(_, b) in &edges {
        indeg[b] += 1;
    }
    let mut ready = vec![0; n.div_ceil(64)];
    for u in (0..n).filter(|&u| indeg[u] == 0) {
        ready[u / 64] |= 1 << (u % 64);
    }
    let mut dfs = Dfs {
        g,
        start: sources(n, &edges),
        succs: edges.iter().map(|&(_, b)| b).collect(),
        indeg,
        ready,
        placed: vec![0; n.div_ceil(64)],
        seq: Vec::with_capacity(n),
        spare: Vec::new(),
        stats,
        cancel,
        dead: &mut memo.dead,
    };
    dfs.dfs(init, None).then_some(dfs.seq)
}

/// The state of one [`linearize`] search.
struct Dfs<'a, 'h, L> {
    g: &'a Graph<'h>,
    /// Where each node's successors begin in `succs`.
    start: Vec<usize>,
    succs: Vec<usize>,
    /// Unplaced predecessors of each node.
    indeg: Vec<usize>,
    /// Bit `u` is set while node `u` is unplaced and has no unplaced
    /// predecessor: the candidates, found without a scan.
    ready: Vec<u64>,
    /// Bit `u` is set once node `u` is placed; as wide as the graph.
    placed: Vec<u64>,
    seq: Vec<usize>,
    /// Legality states no frame holds, for the next frame's candidates:
    /// a candidate is tried on a copy made into one of these buffers.
    spare: Vec<L>,
    stats: &'a mut SearchStats,
    cancel: &'a Cancel<'a>,
    dead: &'a mut DeadEnds,
}

impl<L: Legality> Dfs<'_, '_, L> {
    /// The least ready node from `u` on.
    fn ready_from(&self, u: usize) -> Option<usize> {
        let mut w = u / 64;
        let mut bits = *self.ready.get(w)? & (!0 << (u % 64));
        while bits == 0 {
            w += 1;
            bits = *self.ready.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Place node `u` in the bookkeeping — its bit, its successors'
    /// counts, the ready set — or, unless `placing`, take it back.
    fn mark(&mut self, u: usize, placing: bool) {
        let flip = |bits: &mut [u64], v: usize| bits[v / 64] ^= 1 << (v % 64);
        flip(&mut self.placed, u);
        flip(&mut self.ready, u);
        for k in self.start[u]..self.start[u + 1] {
            let s = self.succs[k];
            if placing {
                self.indeg[s] -= 1;
            }
            if self.indeg[s] == 0 {
                flip(&mut self.ready, s);
            }
            if !placing {
                self.indeg[s] += 1;
            }
        }
    }

    /// The exact identity of the current frontier.
    fn key(&self, checker: &L, open: Option<usize>) -> Vec<u64> {
        let mut key = Vec::with_capacity(self.placed.len() + 12);
        key.extend_from_slice(&self.placed);
        key.push(open.map_or(0, |t| t as u64 + 1));
        checker.key(&mut key);
        key
    }

    /// Extend `seq`, whose legality state is `checker`, to all nodes.
    ///
    /// `open` is the transaction whose critical section is currently
    /// entered (started, not yet committed, aborted or suspended); no
    /// other transaction's node may be placed meanwhile. Whole
    /// transactions close themselves, so at unit granularity the guard
    /// is inert; at operation granularity a full order's chain of
    /// order edges blocks those nodes anyway, and the guard matters
    /// under a *subset* of pairs.
    fn dfs(&mut self, checker: &L, open: Option<usize>) -> bool {
        let depth = self.seq.len();
        if depth == self.g.len() {
            return true;
        }
        if self.cancel.hit() {
            return false;
        }
        // A search that has not failed yet has nothing to look up, and
        // one that never fails builds no key at all.
        let mut key = None;
        if !self.dead.is_empty() {
            let k = self.key(checker, open);
            if self.dead.contains(&k) {
                self.stats.cache_hits += 1;
                return false;
            }
            key = Some(k);
        }
        let mut descended = false;
        // A fresh copy of `checker` for the first candidate; a spare
        // buffer is overwritten before each.
        let (mut c, mut fresh) = match self.spare.pop() {
            Some(c) => (c, false),
            None => (checker.clone(), true),
        };
        let mut next = self.ready_from(0);
        while let Some(u) = next {
            next = self.ready_from(u + 1);
            let txn = self.g.txn_of(u);
            if open.is_some() && txn.is_some() && open != txn {
                continue;
            }
            self.stats.nodes += 1;
            if !std::mem::take(&mut fresh) {
                c.clone_from(checker);
            }
            if !self.g.place(u, &mut c) {
                self.stats.prune_hits += 1;
                continue;
            }
            let next_open = if c.in_txn() { txn.or(open) } else { None };
            self.mark(u, true);
            self.seq.push(u);
            self.stats.note_depth(depth + 1);
            descended = true;
            if self.dfs(&c, next_open) {
                return true;
            }
            self.seq.pop();
            self.mark(u, false);
            self.stats.backtracks += 1;
        }
        self.spare.push(c);
        trace::emit(EventKind::Backtrack, depth as u64, 0);
        // A frontier whose every candidate is illegal on the spot is
        // as cheap to refute again as to look up, and a cancelled
        // subtree may have failed spuriously.
        if descended && !self.cancel.hit() {
            let key = key.unwrap_or_else(|| self.key(checker, open));
            self.dead.insert(key);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::testkit::{history, SCHEDULED};

    /// Reflexive-transitive reachability over `n` nodes.
    fn closure(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Vec<Vec<bool>> {
        let mut m = vec![vec![false; n]; n];
        for (a, b) in edges {
            m[a][b] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if m[i][k] {
                    let via = m[k].clone();
                    m[i].iter_mut().zip(via).for_each(|(to, k_to)| *to |= k_to);
                }
            }
        }
        m
    }

    /// Every generating pair of `≺h`, lifted to `g`'s nodes.
    fn generating(g: &Graph<'_>, h: &History) -> Vec<(usize, usize)> {
        let n = h.len();
        let all = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        edge_set(g.lift(all.filter(|&(i, j)| h.precedes_rt(i, j))))
    }

    #[test]
    fn covering_edges_generate_the_same_order_as_all_generating_pairs() {
        let (mut histories, mut singles, mut live, mut aborted) = (0, 0, 0, 0);
        for seed in 0..600u64 {
            let h = history(seed, &SCHEDULED);
            histories += 1;
            singles += usize::from((0..h.len()).any(|i| !h.is_transactional(i)));
            live += usize::from(h.txns().iter().any(|t| t.status == TxnStatus::Live));
            aborted += usize::from(h.txns().iter().any(|t| t.status == TxnStatus::Aborted));
            for g in [Graph::units(&h), Graph::ops(&h)] {
                let covering = g.rt_edges();
                assert_eq!(covering, edge_set(covering.iter().copied()), "seed {seed}");
                assert_eq!(
                    closure(g.len(), covering.iter().copied()),
                    closure(g.len(), generating(&g, &h).into_iter()),
                    "seed {seed}, {} nodes: {:?}",
                    g.len(),
                    h.ops()
                );
            }
        }
        // The schedules reach the shapes the reduction has a rule for.
        assert!(singles > histories / 2 && live > histories / 4 && aborted > histories / 4);
    }

    #[test]
    fn a_sequential_window_has_a_few_edges_per_unit() {
        // A monitor window: the initializer, then 64 read-modify-write
        // transactions of four processes, one after the other.
        let mut b = HistoryBuilder::new();
        let init = ProcId(u32::MAX);
        b.start(init);
        b.write(init, Var(0), 1);
        b.commit(init);
        for i in 0..64u32 {
            let (p, x) = (ProcId(i * 7 % 4), Var(i % 3));
            b.start(p);
            b.read(p, x, 0);
            b.write(p, x, u64::from(i));
            b.commit(p);
        }
        let h = b.build().unwrap();
        let g = Graph::units(&h);
        let (units, processes) = (g.len(), h.procs().len());
        assert_eq!((units, processes), (65, 5));
        let edges = g.rt_edges().len();
        assert!(
            edges >= units - 1,
            "{edges} edges cannot order {units} units"
        );
        assert!(edges <= units * (processes + 1), "{edges} edges");
        // All generating pairs: every unit before every later one.
        assert_eq!(generating(&g, &h).len(), units * (units - 1) / 2);
    }
}
