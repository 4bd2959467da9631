//! Integration: SGLA-specific behaviour (§6.2) — the gap between
//! parametrized opacity and single global lock atomicity, and SGLA's
//! own invariants.

use jungle::core::builder::HistoryBuilder;
use jungle::core::ids::{ProcId, Var, X, Y};
use jungle::core::model::{all_models, Pso, Relaxed, Rmo, Sc, Tso};
use jungle::core::opacity::check_opacity;
use jungle::core::sgla::check_sgla;
use jungle::core::testkit::{history, Shape, FREEFORM};
use proptest::prelude::*;

fn p(n: u32) -> ProcId {
    ProcId(n)
}

/// Histories in the gap: SGLA allows them, opacity does not.
#[test]
fn sgla_opacity_gap_examples() {
    // 1. A non-transactional write observed mid-transaction.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.read(p(1), X, 0);
    b.write(p(2), X, 5);
    b.read(p(1), X, 5); // non-repeatable read inside the txn
    b.commit(p(1));
    let h = b.build().unwrap();
    for m in all_models() {
        if m.name() != "Junk-SC" {
            // (Junk-SC's havoc legitimately explains the torn values.)
            assert!(
                !check_opacity(&h, m).is_opaque(),
                "opacity under {}",
                m.name()
            );
        }
        assert!(check_sgla(&h, m).is_sgla(), "SGLA under {}", m.name());
    }

    // 2. A non-transactional observer provably *inside* a transaction:
    //    p2 reads the transaction's write of x and then feeds y back
    //    into the same transaction — under opacity the read must be
    //    after T and the write before T (a cycle with p2's program
    //    order); under SGLA's critical-section semantics the exchange
    //    is the ordinary behaviour of a monitor.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 9);
    b.read(p(2), X, 9); // sees the in-place write
    b.write(p(2), Y, 1);
    b.read(p(1), Y, 1); // the transaction sees the reply
    b.commit(p(1));
    let h = b.build().unwrap();
    assert!(!check_opacity(&h, &Sc).is_opaque());
    assert!(check_sgla(&h, &Sc).is_sgla());

    // 3. A value written by an ultimately-aborted transaction, read
    //    non-transactionally before the rollback (undo semantics).
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 7);
    b.read(p(2), X, 7); // sees the to-be-undone value
    b.abort(p(1));
    b.read(p(2), X, 0); // after rollback the old value is back
    let h = b.build().unwrap();
    assert!(!check_opacity(&h, &Sc).is_opaque());
    assert!(check_sgla(&h, &Sc).is_sgla());
}

/// SGLA still means something: transactions are atomic against each
/// other, in real-time order, per process program order.
#[test]
fn sgla_still_rejects_transactional_anomalies() {
    // Torn snapshot across two transactions.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 1);
    b.write(p(1), Y, 1);
    b.commit(p(1));
    b.start(p(2));
    b.read(p(2), X, 1);
    b.read(p(2), Y, 0); // would split T1
    b.commit(p(2));
    let h = b.build().unwrap();
    for m in all_models() {
        assert!(!check_sgla(&h, m).is_sgla(), "under {}", m.name());
    }

    // Real-time order between transactions.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.write(p(1), X, 1);
    b.commit(p(1));
    b.start(p(2));
    b.read(p(2), X, 0); // stale: T1 completed before T2 started
    b.commit(p(2));
    let h = b.build().unwrap();
    assert!(!check_sgla(&h, &Relaxed).is_sgla());
}

#[test]
fn sgla_respects_base_model_for_nontransactional_code() {
    // Figure 2(b)-style message passing with an unrelated transaction
    // appended: the non-transactional verdict still follows the model.
    let mk = || {
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.write(p(1), Y, 1);
        b.read(p(2), Y, 1);
        b.read(p(2), X, 0);
        b.start(p(3));
        b.write(p(3), Var(5), 1);
        b.commit(p(3));
        b.build().unwrap()
    };
    assert!(!check_sgla(&mk(), &Sc).is_sgla());
    assert!(!check_sgla(&mk(), &Tso).is_sgla());
    assert!(check_sgla(&mk(), &Pso).is_sgla());
    assert!(check_sgla(&mk(), &Rmo).is_sgla());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// SGLA is monotone under model weakening, like opacity.
    #[test]
    fn sgla_monotone_under_model_weakening(seed in any::<u64>()) {
        let h = history(seed, &FREEFORM);
        if check_sgla(&h, &Sc).is_sgla() {
            for m in [&Tso as &dyn jungle::core::model::MemoryModel, &Pso, &Rmo, &Relaxed] {
                prop_assert!(
                    check_sgla(&h, m).is_sgla(),
                    "SC-SGLA but not {}-SGLA: {:?}",
                    m.name(),
                    h
                );
            }
        }
    }

    /// Purely non-transactional histories: SGLA and opacity coincide
    /// (with no transactions both reduce to the memory model alone).
    #[test]
    fn no_txns_sgla_equals_opacity(seed in any::<u64>()) {
        let h = history(seed, &Shape { start: 0, ..FREEFORM });
        for m in all_models() {
            prop_assert_eq!(
                check_opacity(&h, m).is_opaque(),
                check_sgla(&h, m).is_sgla(),
                "divergence without transactions under {} for seed {}",
                m.name(),
                seed
            );
        }
    }
}
