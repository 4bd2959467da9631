//! Single global lock atomicity — SGLA (§6.2).
//!
//! SGLA is the weaker correctness notion under which transactions behave
//! like critical sections of one global lock: transactions are isolated
//! from *each other*, but **not** from non-transactional operations. A
//! history `h` ensures SGLA parametrized by `M = (τ, R)` iff there is a
//! view `v` in a *well-formed extension* of `R` applied to `τ(h)` such
//! that for every process there is a **transactionally sequential**
//! permutation of `τ(h)` (transactions do not overlap one another, but
//! non-transactional operations may interleave within them) respecting
//! `v(p)` in which every operation is legal.
//!
//! ### The extension chosen here
//!
//! The paper constrains well-formed extensions of `R` by lock ("roach
//! motel") semantics of `start` (lock) and `commit`/`abort` (unlock) but
//! leaves the exact extension open. This checker uses the *most
//! permissive* extension satisfying the paper's conditions (i)–(iii),
//! plus real-time consistency of the global lock:
//!
//! * one total order over all transactions, shared by every process
//!   (condition (i)), enumerated existentially; it must extend both the
//!   per-process program order of transactions and the cross-process
//!   real-time order (a global lock can only be acquired in real-time
//!   consistent order);
//! * a non-transactional operation preceding its own process's
//!   transaction `T` may migrate *into* `T`'s critical section but not
//!   past its end (conditions (ii)/(iii)): it must precede `T`'s last
//!   operation; symmetrically an operation following `T` must follow
//!   `T`'s `start`;
//! * between non-transactional operations, the base model's required
//!   pairs apply unchanged.
//!
//! Legality uses **critical-section semantics**
//! ([`CsChecker`](crate::legal::CsChecker)): a transaction's writes take
//! effect in place at their positions — interleaved non-transactional
//! reads observe them — and aborts roll back via an undo log. This is
//! the reading under which the paper's Theorem 7 proof goes through:
//! the Figure 6 TM's commit-time updates are observable mid-commit by
//! uninstrumented reads, and SGLA (unlike opacity) deems that correct.
//!
//! Because every constraint above is implied by the constraints of
//! parametrized opacity, and the two legality semantics coincide on
//! fully sequential histories, Theorem 6 (*parametrized opacity implies
//! SGLA*) holds by construction — and is property-tested in the crate's
//! test suite. Theorem 7 (an uninstrumented global-lock TM guarantees
//! SGLA for **every** memory model) is exercised end-to-end in
//! `jungle-mc`.

use crate::check::{adjacent_pairs, Check, CheckKind, CheckVerdict, LeafMemo, OrderSearch};
use crate::history::{History, TxnStatus};
use crate::ids::{OpId, ProcId};
use crate::legal::CsChecker;
use crate::model::MemoryModel;
use crate::par::Cancel;
use crate::spec::SpecRegistry;
use jungle_obs::SearchStats;

/// The verdict of an SGLA check.
pub type SglaVerdict = CheckVerdict;

/// Check SGLA parametrized by `model` with register semantics.
pub fn check_sgla(h: &History, model: &dyn MemoryModel) -> SglaVerdict {
    Check::new(CheckKind::Sgla).run(h, model).0
}

pub(crate) struct SglaSearch<'a> {
    h: &'a History,
    model: &'a dyn MemoryModel,
    specs: &'a SpecRegistry,
}

/// Node metadata for the op-level topological search.
struct Node {
    /// History index of the operation.
    idx: usize,
    /// Transaction (index into `History::txns`) if transactional.
    txn: Option<usize>,
    /// True if this is the last operation of a live transaction (the
    /// legality checker suspends the overlay after it).
    last_of_live: bool,
}

impl<'a> SglaSearch<'a> {
    pub(crate) fn new(h: &'a History, model: &'a dyn MemoryModel, specs: &'a SpecRegistry) -> Self {
        SglaSearch { h, model, specs }
    }

    /// Build op-level edges for the transaction precedences `pairs`
    /// (block edges `last(a) → first(b)`) and run the
    /// topological/legality search. The constraints are
    /// viewer-independent for all bundled models, so a single search
    /// covers every process's view. A full order's adjacent pairs give
    /// the classic leaf; a subset of pairs is a weaker constraint set,
    /// so "no witness" refutes every total order whose precedences
    /// include the pairs (the SAT backend's blocking-core query).
    fn witness_for_pairs(
        &self,
        pairs: &[(usize, usize)],
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
        memo: &mut LeafMemo,
    ) -> Option<Vec<OpId>> {
        let h = self.h;
        let n = h.len();
        let txns = h.txns();

        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let txn = h.txn_of(i);
                let last_of_live = txn
                    .map(|t| txns[t].status == TxnStatus::Live && txns[t].last() == i)
                    .unwrap_or(false);
                Node {
                    idx: i,
                    txn,
                    last_of_live,
                }
            })
            .collect();

        let mut edges: Vec<(usize, usize)> = Vec::new();

        // Program order within each transaction.
        for t in txns {
            for w in t.op_indices.windows(2) {
                edges.push((w[0], w[1]));
            }
        }
        // Block order between transactions constrained by `pairs`.
        for &(a, b) in pairs {
            edges.push((txns[a].last(), txns[b].first()));
        }
        // Roach-motel edges between a process's non-transactional ops
        // and its own transactions.
        for i in 0..n {
            if h.is_transactional(i) {
                continue;
            }
            for t in txns {
                if t.proc != h.ops()[i].proc {
                    continue;
                }
                if i < t.first() {
                    // May enter the critical section, not cross its end.
                    edges.push((i, t.last()));
                } else if i > t.last() {
                    edges.push((t.first(), i));
                }
            }
        }
        // Base-model view edges between non-transactional ops of the
        // same process.
        let ops = h.ops();
        for i in 0..n {
            if h.is_transactional(i) || ops[i].op.command().is_none() {
                continue;
            }
            for j in (i + 1)..n {
                if h.is_transactional(j)
                    || ops[j].op.command().is_none()
                    || ops[i].proc != ops[j].proc
                {
                    continue;
                }
                if self.model.required(h, i, j) {
                    edges.push((i, j));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // Distinct txn orders can collapse to the same op-level edge
        // set (block edges shadowed by program order); replay those.
        if let Some(hit) = memo.get(&edges) {
            stats.cache_hits += 1;
            return hit.clone();
        }

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for &(a, b) in &edges {
            succs[a].push(b);
            indeg[b] += 1;
        }

        let mut seq = Vec::with_capacity(n);
        let checker = CsChecker::new(self.specs);
        let result = if self.dfs(
            &nodes, &succs, &mut indeg, &mut seq, &checker, None, stats, cancel,
        ) {
            Some(seq.into_iter().map(|i| h.ops()[i].id).collect())
        } else {
            None
        };
        // A cancelled search may report "no witness" spuriously — never
        // memoize it.
        if !cancel.hit() {
            memo.put(edges, result.clone());
        }
        result
    }

    /// `open` is the transaction whose critical section is currently
    /// entered (a txn has started but not yet committed/aborted/been
    /// suspended). With a full order's chain of block edges this guard
    /// never fires — other transactions' ops are edge-blocked anyway —
    /// but under a *subset* of block pairs (the SAT backend's core
    /// probes) it is what keeps critical sections from interleaving.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        nodes: &[Node],
        succs: &[Vec<usize>],
        indeg: &mut Vec<usize>,
        seq: &mut Vec<usize>,
        checker: &CsChecker<'_>,
        open: Option<usize>,
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
    ) -> bool {
        let n = nodes.len();
        if seq.len() == n {
            return true;
        }
        if cancel.hit() {
            return false;
        }
        let mut placed = vec![false; n];
        for &i in seq.iter() {
            placed[i] = true;
        }
        for u in 0..n {
            if placed[u] || indeg[u] != 0 {
                continue;
            }
            let node = &nodes[u];
            if let (Some(o), Some(t)) = (open, node.txn) {
                if o != t {
                    continue; // one critical section at a time
                }
            }
            stats.nodes += 1;
            let mut c = checker.clone();
            if !c.step(&self.h.ops()[node.idx].op, node.txn.is_some()) {
                stats.prune_hits += 1;
                continue;
            }
            if node.last_of_live {
                c.suspend_live();
            }
            let next_open = if c.in_txn() { node.txn.or(open) } else { None };
            for &s in &succs[u] {
                indeg[s] -= 1;
            }
            seq.push(u);
            stats.note_depth(seq.len());
            if self.dfs(nodes, succs, indeg, seq, &c, next_open, stats, cancel) {
                return true;
            }
            seq.pop();
            stats.backtracks += 1;
            for &s in &succs[u] {
                indeg[s] += 1;
            }
        }
        false
    }
}

impl OrderSearch for SglaSearch<'_> {
    const PHASE: &'static str = "check.sgla";

    /// SGLA schedules at operation granularity: every op is a unit.
    fn units(&self) -> usize {
        self.h.len()
    }

    fn n_txns(&self) -> usize {
        self.h.txns().len()
    }

    /// Program order on one process; real-time order across processes.
    fn must_precede(&self, a: usize, b: usize) -> bool {
        let txns = self.h.txns();
        if txns[a].proc == txns[b].proc {
            return txns[a].first() < txns[b].first();
        }
        txns[a].status.is_completed() && txns[a].last() < txns[b].first()
    }

    fn try_order(
        &self,
        order: &[usize],
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
        memo: &mut LeafMemo,
    ) -> Result<Vec<(ProcId, Vec<OpId>)>, usize> {
        let seq = self
            .witness_for_pairs(&adjacent_pairs(order), stats, cancel, memo)
            .ok_or(0usize)?;
        Ok(self
            .h
            .procs()
            .into_iter()
            .map(|p| (p, seq.clone()))
            .collect())
    }

    fn infeasible(
        &self,
        _set: usize,
        pairs: &[(usize, usize)],
        stats: &mut SearchStats,
        memo: &mut LeafMemo,
    ) -> bool {
        self.witness_for_pairs(pairs, stats, &Cancel::never(), memo)
            .is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X, Y};
    use crate::model::{all_models, Relaxed, Rmo, Sc};
    use crate::opacity::check_opacity;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    #[test]
    fn sgla_weaker_than_opacity_fig1() {
        // Figure 1 outcome (y=1, x=0) is not SC-opaque, and it is not
        // SGLA/SC either (the reads are still PO-ordered and the txn is
        // a critical section)…
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(1), Y, 1);
        b.commit(p(1));
        b.read(p(2), Y, 1);
        b.read(p(2), X, 0);
        let h = b.build().unwrap();
        assert!(!check_sgla(&h, &Sc).is_sgla());
        // …but under RMO both are allowed.
        assert!(check_sgla(&h, &Rmo).is_sgla());
    }

    #[test]
    fn sgla_allows_nontxn_interleaving_opacity_forbids() {
        // A non-transactional write lands between two transactional
        // reads of the same variable: forbidden by opacity (isolation),
        // allowed by SGLA (no isolation from non-transactional ops).
        let mut b = HistoryBuilder::new();
        b.start(p(2));
        b.read(p(2), X, 0);
        b.write(p(1), X, 5);
        b.read(p(2), X, 5);
        b.commit(p(2));
        let h = b.build().unwrap();
        assert!(!check_opacity(&h, &Sc).is_opaque());
        assert!(check_sgla(&h, &Sc).is_sgla());
    }

    #[test]
    fn sgla_still_isolates_transactions_from_each_other() {
        // T2 reads x twice around T1's committed write: transactions
        // are critical sections, so the torn read is forbidden even
        // under SGLA.
        let mut b = HistoryBuilder::new();
        b.start(p(2));
        b.read(p(2), X, 0);
        b.start(p(1));
        b.write(p(1), X, 5);
        b.commit(p(1));
        b.read(p(2), X, 5);
        b.commit(p(2));
        let h = b.build().unwrap();
        assert!(!check_sgla(&h, &Sc).is_sgla());
        assert!(!check_sgla(&h, &Relaxed).is_sgla());
    }

    #[test]
    fn theorem6_opaque_implies_sgla_examples() {
        // Theorem 6 on a few concrete histories (the proptest suite
        // covers random ones).
        let histories: Vec<crate::history::History> = vec![
            {
                let mut b = HistoryBuilder::new();
                b.start(p(1));
                b.write(p(1), X, 1);
                b.write(p(1), Y, 1);
                b.commit(p(1));
                b.read(p(2), Y, 1);
                b.read(p(2), X, 1);
                b.build().unwrap()
            },
            {
                let mut b = HistoryBuilder::new();
                b.write(p(1), X, 1);
                b.start(p(2));
                b.read(p(2), X, 1);
                b.commit(p(2));
                b.build().unwrap()
            },
        ];
        for h in &histories {
            for m in all_models() {
                if check_opacity(h, m).is_opaque() {
                    assert!(
                        check_sgla(h, m).is_sgla(),
                        "opaque but not SGLA under {} — Theorem 6 violated",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn roach_motel_allows_entering_critical_section() {
        // p1: non-txn write of x, then a transaction reading y.
        // p2's transaction writes y before p1's txn starts… the point:
        // p1's non-txn write may slide into its own transaction's
        // critical section but not past its end.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.start(p(1));
        b.read(p(1), X, 1);
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(check_sgla(&h, &Sc).is_sgla());
    }

    #[test]
    fn nontxn_op_cannot_cross_own_txn_end() {
        // p1 writes x non-transactionally *before* its transaction, and
        // the transaction reads x: the write cannot be deferred past the
        // transaction's end, so reading the old value inside the txn
        // with no other writer is illegal — under SC, where the
        // program-order pair (write x, read x within txn) is… note the
        // read is transactional, so only the roach-motel edge applies:
        // write must precede the txn's last op. Reading x=0 inside the
        // txn then requires the write to come after the read but before
        // commit — which IS permitted by the chosen extension.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.start(p(1));
        b.read(p(1), X, 0); // old value: write slid between read & commit
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(check_sgla(&h, &Sc).is_sgla());

        // But it cannot cross the commit: a *later* observer of the
        // same process must see the write ordered before anything after
        // the transaction.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.start(p(1));
        b.commit(p(1));
        b.read(p(1), X, 0); // PO + roach motel: write before commit < read
        let h = b.build().unwrap();
        assert!(!check_sgla(&h, &Sc).is_sgla());
    }

    #[test]
    fn same_process_transactions_keep_program_order() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.commit(p(1));
        b.start(p(1));
        b.read(p(1), X, 0); // would need T2 before T1
        b.commit(p(1));
        let h = b.build().unwrap();
        assert!(!check_sgla(&h, &Relaxed).is_sgla());
    }

    #[test]
    fn live_txn_supported() {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 9);
        b.read(p(2), X, 0); // must not see live txn's write
        let h = b.build().unwrap();
        assert!(check_sgla(&h, &Sc).is_sgla());

        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 9);
        b.read(p(2), X, 9);
        let h = b.build().unwrap();
        // Critical-section semantics: the open transaction's in-place
        // write IS observable by a concurrent non-transactional read
        // (think of a global-lock TM with in-place updates). SGLA
        // allows it; opacity (tested elsewhere) forbids it.
        assert!(check_sgla(&h, &Sc).is_sgla());
    }

    #[test]
    fn empty_history_sgla() {
        let h = HistoryBuilder::new().build().unwrap();
        for m in all_models() {
            assert!(check_sgla(&h, m).is_sgla());
        }
    }
}
