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
//! Legality uses **critical-section semantics** ([`CsChecker`]): a
//! transaction's writes take effect in place at their positions —
//! interleaved non-transactional reads observe them — and aborts roll
//! back via an undo log. This is
//! the reading under which the paper's Theorem 7 proof goes through:
//! the Figure 6 TM's commit-time updates are observable mid-commit by
//! uninstrumented reads, and SGLA (unlike opacity) deems that correct.
//!
//! ### The search
//!
//! The order search is the one in [`check`](crate::check) and the leaf
//! is the one in [`linearize`](crate::linearize), both shared with
//! opacity. What is left here is what makes the search *SGLA*: its
//! constructor — operation granularity, the static edges above
//! (program order inside transactions, roach motel, the view, and the
//! program and real-time order of the lock as block edges, computed
//! once per check), and [`CsChecker`] legality. The order search adds a
//! block edge `last(a) → first(b)` per transaction pair it orders.
//!
//! Because every constraint above is implied by the constraints of
//! parametrized opacity, and the two legality semantics coincide on
//! fully sequential histories, Theorem 6 (*parametrized opacity implies
//! SGLA*) holds by construction — and is property-tested in the crate's
//! test suite. Theorem 7 (an uninstrumented global-lock TM guarantees
//! SGLA for **every** memory model) is exercised end-to-end in
//! `jungle-mc`.

use crate::check::{Check, CheckKind, CheckVerdict, Search};
use crate::history::History;
use crate::legal::CsChecker;
use crate::linearize::{edge_set, view_pairs, Graph};
use crate::model::MemoryModel;

/// The verdict of an SGLA check.
pub(crate) type SglaVerdict = CheckVerdict;

/// Check SGLA parametrized by `model`.
pub fn check_sgla(h: &History, model: &dyn MemoryModel) -> SglaVerdict {
    Check::new(CheckKind::Sgla).run(h, model).0
}

impl<'a> Search<'a, CsChecker> {
    /// The SGLA search of `h` (transformed already): every operation a
    /// node, the static edges of the module docs, critical sections as
    /// the legality.
    pub(crate) fn sgla(h: &'a History, model: &dyn MemoryModel) -> Self {
        let txns = h.txns();
        // Program order within each transaction.
        let mut pairs: Vec<(usize, usize)> = (0..txns.len())
            .flat_map(|t| h.txn_ops(t).windows(2).map(|w| (w[0], w[1])))
            .collect();
        // Roach-motel edges between a process's non-transactional ops
        // and its own transactions.
        for i in (0..h.len()).filter(|&i| !h.is_transactional(i)) {
            for t in txns.iter().filter(|t| t.proc == h.ops()[i].proc) {
                if i < t.first() {
                    // May enter the critical section, not cross its end.
                    pairs.push((i, t.last()));
                } else if i > t.last() {
                    pairs.push((t.first(), i));
                }
            }
        }
        // The base model's view, which every process shares.
        pairs.extend(view_pairs(h, model));
        let mut s = Search {
            h,
            graph: Graph::ops(h),
            fixed: Vec::new(),
            order: None,
            init: CsChecker::new(),
            phase: "check.sgla",
        };
        // The global lock is acquired in an order consistent with
        // program and real-time order. These belong to the constraint
        // set, not to whoever proposes orders: a linearization under
        // *some* of an order's pairs must still carry an admissible
        // order.
        for (a, ta) in txns.iter().enumerate() {
            let later = (0..txns.len()).filter(|&b| a != b && s.must_precede(a, b));
            pairs.extend(later.map(|b| (ta.last(), txns[b].first())));
        }
        s.fixed = edge_set(s.graph.lift(pairs));
        s
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
    fn real_time_order_is_part_of_the_constraint_set() {
        // Litmus fig2a / x=0 y=0: T0 writes x and commits before T1
        // begins, T1 reads x = 0, T2 follows on T0's process. Ignoring
        // real time, [1, 0, 2] is a legal lock order; nothing
        // admissible is. The pair-free call is the order search's
        // refutation, so it must know real time itself — for every
        // registry entry.
        use crate::registry::registry;
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(1), X, 2);
        b.commit(p(1));
        b.start(p(2));
        b.read(p(2), X, 0);
        b.read(p(2), Y, 0);
        b.commit(p(2));
        b.start(p(1));
        b.write(p(1), Y, 2);
        b.commit(p(1));
        let h = b.build().unwrap();
        use crate::linearize::{LeafMemo, DEAD_END_CAP};
        use crate::par::Cancel;
        use jungle_obs::SearchStats;
        for e in registry() {
            let th = e.model.transform(&h);
            let s = Search::sgla(&th, e.model);
            let mut stats = SearchStats::default();
            let mut memo = LeafMemo::new(DEAD_END_CAP);
            let free = s.extend(&[], &mut stats, &Cancel::never(), &mut memo);
            assert_eq!(free, None, "{}: an inadmissible lock order", e.key);
            assert!(!check_sgla(&h, e.model).is_sgla(), "{}", e.key);
        }
    }

    #[test]
    fn empty_history_sgla() {
        let h = HistoryBuilder::new().build().unwrap();
        for m in all_models() {
            let v = check_sgla(&h, m);
            assert!(v.is_sgla() && v.witnesses().is_empty());
        }
    }
}
