//! `SearchStats` unit tests on the paper's Figure 1–3 histories: the
//! checker must report search counters that are internally consistent
//! and match the known structure of each figure.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::{Check, CheckKind};
use jungle_core::history::History;
use jungle_core::ids::{ProcId, X, Y};
use jungle_core::model::{Rmo, Sc};
use jungle_core::opacity::check_opacity_traced;
use jungle_litmus::figures::all_litmus;

fn p(n: u32) -> ProcId {
    ProcId(n)
}

#[test]
fn fig1_allowed_outcome_stats() {
    // Figure 1, consistent outcome (y=1, x=1): 1 transaction + 2
    // non-transactional reads = 3 schedulable units; the first
    // serialization order already admits a witness.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 1);
    b.write(p(1), Y, 1);
    b.commit(p(1));
    b.read(p(2), Y, 1);
    b.read(p(2), X, 1);
    let h = b.build().unwrap();
    let (v, s) = check_opacity_traced(&h, &Sc);
    assert!(v.is_opaque());
    assert_eq!(s.units, 3);
    assert_eq!(s.txn_orders, 1); // only one txn: one complete order
    assert_eq!(s.searches, 1);
    assert_eq!(s.peak_depth, 3); // a full witness was placed
    assert!(
        s.nodes >= 3,
        "at least one node per placed unit, got {}",
        s.nodes
    );
}

/// Figure 1's transaction (x := 1; y := 1), run by each process of
/// `writers`, and process 2 reading `y = 1`, then `x = 0`.
fn fig1(writers: &[u32]) -> History {
    let mut b = HistoryBuilder::new();
    for &w in writers {
        b.start(p(w));
        b.write(p(w), X, 1);
        b.write(p(w), Y, 1);
        b.commit(p(w));
    }
    b.read(p(2), Y, 1);
    b.read(p(2), X, 0);
    b.build().unwrap()
}

#[test]
fn fig1_forbidden_outcome_exhausts_search() {
    // Figure 1, the paper's headline outcome (y=1, x=0) under SC: the
    // read of y needs the transaction before it, the read of x needs
    // it after, and SC keeps the reads in order — saturation closes a
    // cycle before any node is placed.
    let (v, s) = check_opacity_traced(&fig1(&[1]), &Sc);
    assert!(!v.is_opaque());
    assert_eq!((s.nodes, s.txn_orders, s.cycle_refutes), (0, 0, 1));

    // With the transaction run twice, the read of y has two sources:
    // the checker must exhaust the search, visibly pruning and
    // backtracking.
    let h = fig1(&[1, 3]);
    let (v, s) = check_opacity_traced(&h, &Sc);
    assert!(!v.is_opaque());
    assert_eq!(s.cycle_refutes, 0);
    assert!(
        s.prune_hits > 0,
        "rejection must come from the prefix checker"
    );
    assert!(s.peak_depth < s.units, "no full witness may be reached");

    // The same outcome is allowed under RMO: dropping the read-read
    // view edge lets the stale read of x serialize before the
    // transaction, so the search reaches full depth.
    let (v, s_rmo) = check_opacity_traced(&h, &Rmo);
    assert!(v.is_opaque());
    assert_eq!(s_rmo.peak_depth, s_rmo.units);
}

/// Figure 2(a): thread 1 runs (x := 1; x := 2), then — after thread 2's
/// transaction observes `x_obs` and y = 0 — (y := 2) and `tail`'s
/// further writes.
fn fig2a(x_obs: u64, tail: &[(jungle_core::ids::Var, u64)]) -> History {
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 1);
    b.write(p(1), X, 2);
    b.commit(p(1));
    b.start(p(2));
    b.read(p(2), X, x_obs);
    b.read(p(2), Y, 0);
    b.commit(p(2));
    b.start(p(1));
    b.write(p(1), Y, 2);
    for &(var, val) in tail {
        b.write(p(1), var, val);
    }
    b.commit(p(1));
    b.build().unwrap()
}

#[test]
fn fig2a_three_transactions_enumerate_orders() {
    // Figure 2(a) with the forbidden intermediate observation x=1: no
    // committed write leaves 1 behind, so saturation refutes it alone.
    let (v, s) = check_opacity_traced(&fig2a(1, &[]), &Sc);
    assert!(!v.is_opaque());
    assert_eq!((s.nodes, s.txn_orders, s.cycle_refutes), (0, 0, 1));

    // Observing x's initial value, which the third transaction writes
    // again: two possible sources, so the search must reject it — every
    // serialization order consistent with real time enumerated first.
    let (v, s) = check_opacity_traced(&fig2a(0, &[(X, 0)]), &Sc);
    assert!(!v.is_opaque());
    assert_eq!(s.units, 3);
    assert_eq!(s.cycle_refutes, 0);
    // Real time totally orders the three transactions (each completes
    // before the next starts): exactly one complete order exists.
    assert_eq!(s.txn_orders, 1);
    assert!(s.backtracks > 0);
}

#[test]
fn fig2b_nontxn_only_message_passing() {
    // Figure 2(b): four non-transactional operations, no transactions,
    // from one writer; `writers` runs the writing thread on more
    // processes.
    let mp = |writers: &[u32]| {
        let mut b = HistoryBuilder::new();
        for &w in writers {
            b.write(p(w), X, 1);
            b.write(p(w), Y, 1);
        }
        b.read(p(2), Y, 1);
        b.read(p(2), X, 0);
        b.build().unwrap()
    };
    // One writer: saturation refutes it under SC with no node.
    let (v, s) = check_opacity_traced(&mp(&[1]), &Sc);
    assert!(!v.is_opaque());
    assert_eq!(
        (s.units, s.nodes, s.txn_orders, s.cycle_refutes),
        (4, 0, 0, 1)
    );

    // Two writers: the read of y has two sources, and the search
    // refutes it.
    let h = mp(&[1, 3]);
    let (v, s) = check_opacity_traced(&h, &Sc);
    assert!(!v.is_opaque());
    assert_eq!(s.units, 6);
    assert_eq!(s.txn_orders, 1); // the single empty transaction order
    let (v, s) = check_opacity_traced(&h, &Rmo);
    assert!(v.is_opaque());
    assert_eq!(s.peak_depth, 6);
}

#[test]
fn fig3_units_and_depth() {
    // Figure 3(a) with v = 1 (opaque under SC): one non-transactional
    // write, two transactions, three non-transactional reads = 6 units.
    let mut b = HistoryBuilder::new();
    b.write(p(1), X, 1);
    b.start(p(1));
    b.read(p(2), Y, 1);
    b.write(p(1), Y, 1);
    b.commit(p(1));
    b.read(p(2), X, 1);
    b.start(p(3));
    b.commit(p(3));
    b.read(p(3), X, 1);
    let h = b.build().unwrap();
    let (v, s) = check_opacity_traced(&h, &Sc);
    assert!(v.is_opaque());
    assert_eq!(s.units, 6);
    assert_eq!(s.peak_depth, 6);
    assert!(s.nodes >= 6);
}

#[test]
fn sgla_check_reports_stats_too() {
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 1);
    b.commit(p(1));
    b.read(p(2), X, 1);
    let h = b.build().unwrap();
    let (v, s) = Check::new(CheckKind::Sgla).run(&h, &Sc);
    let s = s.search;
    assert!(v.is_sgla());
    assert!(s.units > 0);
    assert_eq!(s.searches, 1);
}

#[test]
fn all_litmus_outcomes_have_consistent_stats() {
    // Invariants that must hold for every bundled figure outcome: the
    // traced checker visits at least one node per placed unit, and reaches full depth exactly when a witness exists.
    for litmus in all_litmus() {
        for o in &litmus.outcomes {
            let (v, s) = check_opacity_traced(&o.history, &Sc);
            let ctx = format!("{}/{}", litmus.name, o.label);
            assert!(s.units > 0, "{ctx}: no units");
            assert_eq!(s.searches, 1, "{ctx}");
            assert!(s.peak_depth <= s.units, "{ctx}: depth overflow");
            assert!(s.nodes >= s.peak_depth, "{ctx}: fewer nodes than depth");
            if v.is_opaque() {
                assert_eq!(s.peak_depth, s.units, "{ctx}: witness without full depth");
            } else {
                // Refuted by saturation with no node, or by the search.
                assert!(
                    s.txn_orders >= 1 || (s.cycle_refutes == 1 && s.nodes == 0),
                    "{ctx}: rejected without enumerating"
                );
            }
        }
    }
}

#[test]
fn stats_absorb_accumulates_across_figures() {
    // Folding per-outcome stats (as the report binary does per figure)
    // sums counters and maxes depth.
    let litmus = &all_litmus()[0];
    let mut acc = jungle_obs::SearchStats::default();
    for o in &litmus.outcomes {
        let (_, s) = check_opacity_traced(&o.history, &Sc);
        acc.absorb(&s);
    }
    assert_eq!(acc.searches, litmus.outcomes.len() as u64);
    assert!(acc.units >= 3);
}
