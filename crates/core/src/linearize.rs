//! The constraint system of §3.3 and the one search over it.
//!
//! `h` ensures opacity parametrized by `M = (τ, R)` iff there are a
//! total order `≺` and a view `v ∈ R(τ(h))` such that every process has
//! a legal permutation of `τ(h)` respecting `≺ ∪ ≺h ∪ v(p)`; SGLA
//! (§6.2) changes only the granularity of the permutation (operations
//! instead of whole transactions) and the legality semantics (critical
//! sections instead of deferred updates). This module owns what the
//! two share, in four parts, and every checker, the explainers and the
//! triage tier are clients of it:
//!
//! * [`view_pairs`] — the minimal view `v(p)` as history-index pairs
//!   (public: `jungle-mc`'s explainer masks these pairs one at a time);
//! * `Graph` — the nodes of the permutation over `τ(h)`, at unit or at
//!   operation granularity, with the lift of index pairs to node edges
//!   and the generating pairs of `≺h`;
//! * `Graph::place` — apply one node to a `Legality` state
//!   ([`PrefixChecker`] or [`CsChecker`]);
//! * `linearize` — the memoized backtracking search for a legal
//!   topological order of the nodes.
//!
//! The clients say which granularity, which static edges, and which
//! legality: [`opacity`](crate::opacity) and [`sgla`](crate::sgla) for
//! the two properties, [`explain`](crate::explain) and
//! [`triage`](crate::triage) for the greedy and the two-candidate
//! placements.

use crate::check::LeafMemo;
use crate::history::{History, TxnStatus};
use crate::ids::{OpId, ProcId};
use crate::legal::{CsChecker, PrefixChecker};
use crate::model::MemoryModel;
use crate::op::Op;
use crate::par::Cancel;
use jungle_obs::trace::{self, EventKind};
use jungle_obs::SearchStats;

/// The minimal view `v(viewer)` of `R(h)`: the history-index pairs
/// `(i, j)`, `i < j`, that every view of `viewer` must order — pairs of
/// non-transactional commands of one process for which
/// [`MemoryModel::required_in_view`] holds, in ascending order. `h` is
/// the transformed history `τ(h)`.
///
/// For all of the paper's models `R` is upward closed, so the
/// existential over views is discharged by this one.
pub fn view_pairs(h: &History, model: &dyn MemoryModel, viewer: ProcId) -> Vec<(usize, usize)> {
    let ops = h.ops();
    let cmds: Vec<usize> = (0..h.len())
        .filter(|&i| !h.is_transactional(i) && ops[i].op.command().is_some())
        .collect();
    let mut pairs = Vec::new();
    for (k, &i) in cmds.iter().enumerate() {
        for &j in &cmds[k + 1..] {
            if ops[i].proc == ops[j].proc && model.required_in_view(h, viewer, i, j) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// An incremental legality state the search snapshots by [`Clone`]:
/// [`PrefixChecker`] (deferred updates, opacity) or [`CsChecker`]
/// (critical sections, SGLA).
pub(crate) trait Legality: Clone {
    /// Apply the next operation; `false` if it is illegal.
    fn step(&mut self, op: &Op, transactional: bool) -> bool;
    /// Close a live transaction after its last operation.
    fn suspend_live(&mut self);
    /// Is a transaction open?
    fn in_txn(&self) -> bool;
}

macro_rules! legality {
    ($checker:ident) => {
        impl Legality for $checker<'_> {
            fn step(&mut self, op: &Op, transactional: bool) -> bool {
                $checker::step(self, op, transactional)
            }
            fn suspend_live(&mut self) {
                $checker::suspend_live(self)
            }
            fn in_txn(&self) -> bool {
                $checker::in_txn(self)
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
pub(crate) struct Graph<'h> {
    h: &'h History,
    /// Leading nodes that are whole transactions (0 at operation
    /// granularity); they borrow the transaction's `op_indices`.
    blocks: usize,
    /// History indices of the single-operation nodes that follow.
    singles: Vec<usize>,
    /// For each history index, its node.
    node_of: Vec<usize>,
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
        }
    }

    /// The operation-granularity graph of `h`.
    pub(crate) fn ops(h: &'h History) -> Self {
        Graph {
            h,
            blocks: 0,
            singles: (0..h.len()).collect(),
            node_of: (0..h.len()).collect(),
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.blocks + self.singles.len()
    }

    /// The history indices of node `u`'s operations, in program order.
    pub(crate) fn ops_of(&self, u: usize) -> &[usize] {
        match u.checked_sub(self.blocks) {
            None => &self.h.txns()[u].op_indices,
            Some(k) => std::slice::from_ref(&self.singles[k]),
        }
    }

    /// The transaction node `u` belongs to, if any.
    fn txn_of(&self, u: usize) -> Option<usize> {
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

    /// The generating pairs of `≺h`, lifted — as an [`edge_set`], since
    /// many operation pairs lift to one edge between transactions.
    pub(crate) fn rt_edges(&self) -> Vec<(usize, usize)> {
        let n = self.h.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (self.node_of[i], self.node_of[j]);
                if a != b && self.h.precedes_rt(i, j) {
                    edges.push((a, b));
                }
            }
        }
        edge_set(edges)
    }

    /// The edge that serializes transaction `a` before transaction
    /// `b`: `a`'s last operation before `b`'s first.
    fn order_edge(&self, a: usize, b: usize) -> (usize, usize) {
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
            if !c.step(&self.h.ops()[i].op, txn.is_some()) {
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

/// Search for a prefix-legal sequence of all of `g`'s nodes respecting
/// `fixed` (an [`edge_set`]) and the transaction precedences `pairs`,
/// starting from the legality state `init`; the witness comes back as
/// operation identifiers.
///
/// `pairs` need not be a full order. A full order's adjacent pairs
/// give the classic leaf; a *subset* is a weaker constraint set, so
/// "no witness" refutes every total order whose precedences include
/// the pairs (the SAT backend's blocking-core query) — and with no
/// pairs at all, every order.
///
/// The search is a backtracking DFS trying nodes in ascending index
/// order, so the witness is the lexicographically first one. Results
/// are memoized under the full edge set — the only input that varies
/// between calls on one history — except after a cancellation, which
/// may report "no witness" spuriously.
pub(crate) fn linearize<L: Legality>(
    g: &Graph<'_>,
    fixed: &[(usize, usize)],
    pairs: &[(usize, usize)],
    init: &L,
    stats: &mut SearchStats,
    cancel: &Cancel<'_>,
    memo: &mut LeafMemo,
) -> Option<Vec<OpId>> {
    let order = pairs.iter().map(|&(a, b)| g.order_edge(a, b));
    let edges = edge_set(fixed.iter().copied().chain(order));
    if let Some(hit) = memo.get(&edges) {
        stats.cache_hits += 1;
        trace::emit(EventKind::WitnessMemoHit, edges.len() as u64, 0);
        return hit.clone();
    }
    let n = g.len();
    let mut dfs = Dfs {
        g,
        succs: vec![Vec::new(); n],
        indeg: vec![0; n],
        placed: vec![false; n],
        seq: Vec::with_capacity(n),
        stats,
        cancel,
    };
    for &(a, b) in &edges {
        dfs.succs[a].push(b);
        dfs.indeg[b] += 1;
    }
    let result = dfs.dfs(init, None).then(|| g.op_ids(&dfs.seq));
    if !cancel.hit() {
        memo.put(edges, result.clone());
    }
    result
}

/// The state of one [`linearize`] search.
struct Dfs<'a, 'h> {
    g: &'a Graph<'h>,
    succs: Vec<Vec<usize>>,
    /// Unplaced predecessors of each node.
    indeg: Vec<usize>,
    placed: Vec<bool>,
    seq: Vec<usize>,
    stats: &'a mut SearchStats,
    cancel: &'a Cancel<'a>,
}

impl Dfs<'_, '_> {
    /// Extend `seq`, whose legality state is `checker`, to all nodes.
    ///
    /// `open` is the transaction whose critical section is currently
    /// entered (started, not yet committed, aborted or suspended); no
    /// other transaction's node may be placed meanwhile. Whole
    /// transactions close themselves, so at unit granularity the guard
    /// is inert; at operation granularity a full order's chain of
    /// order edges blocks those nodes anyway, and the guard matters
    /// under a *subset* of pairs.
    fn dfs<L: Legality>(&mut self, checker: &L, open: Option<usize>) -> bool {
        let depth = self.seq.len();
        if depth == self.g.len() {
            return true;
        }
        if self.cancel.hit() {
            return false;
        }
        for u in 0..self.g.len() {
            if self.placed[u] || self.indeg[u] != 0 {
                continue;
            }
            let txn = self.g.txn_of(u);
            if open.is_some() && txn.is_some() && open != txn {
                continue;
            }
            self.stats.nodes += 1;
            trace::emit(EventKind::NodeEnter, depth as u64, u as u64);
            let mut c = checker.clone();
            if !self.g.place(u, &mut c) {
                self.stats.prune_hits += 1;
                trace::emit(EventKind::Prune, depth as u64, u as u64);
                continue;
            }
            let next_open = if c.in_txn() { txn.or(open) } else { None };
            for &s in &self.succs[u] {
                self.indeg[s] -= 1;
            }
            self.placed[u] = true;
            self.seq.push(u);
            self.stats.note_depth(depth + 1);
            if self.dfs(&c, next_open) {
                return true;
            }
            self.seq.pop();
            self.placed[u] = false;
            self.stats.backtracks += 1;
            trace::emit(EventKind::NodeLeave, depth as u64, u as u64);
            for &s in &self.succs[u] {
                self.indeg[s] += 1;
            }
        }
        trace::emit(EventKind::Backtrack, depth as u64, 0);
        false
    }
}
