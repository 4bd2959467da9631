//! Scenario tests for the parametrized-opacity checker: multi-
//! transaction serialization, Junk-SC edge cases, and witness
//! validity.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::CheckKind;
use jungle_core::ids::{ProcId, Var, X, Y, Z};
use jungle_core::model::{all_models, JunkSc, Relaxed, Sc};
use jungle_core::opacity::check_opacity;
use jungle_core::testkit::witness_errors;

fn p(n: u32) -> ProcId {
    ProcId(n)
}

#[test]
fn three_txn_serialization_cycle_rejected() {
    // T1 reads x=0 writes y=1; T2 reads y=0 writes z=1; T3 reads z=0
    // writes x=1 — all overlapping. Values force T1 < T2 < T3 < T1:
    // no serialization exists.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.start(p(2));
    b.start(p(3));
    b.read(p(1), X, 0);
    b.write(p(1), Y, 1);
    b.read(p(2), Y, 1); // T1 < T2
    b.write(p(2), Z, 1);
    b.read(p(3), Z, 1); // T2 < T3
    b.write(p(3), X, 1);
    b.commit(p(1));
    b.commit(p(2));
    b.commit(p(3));
    let h = b.build().unwrap();
    // This chain IS serializable: T1 < T2 < T3 and T1 read x=0 before
    // T3's write. Sanity: opaque.
    assert!(check_opacity(&h, &Sc).is_opaque());

    // Close the cycle: T1 reads x=1 (T3 < T1) while T3 reads y... make
    // T1's read require T3 before it, contradiction.
    let mut b = HistoryBuilder::new();
    b.start(p(1));
    b.start(p(2));
    b.start(p(3));
    b.read(p(1), X, 1); // needs T3 first
    b.write(p(1), Y, 1);
    b.read(p(2), Y, 1); // needs T1 first
    b.write(p(2), Z, 1);
    b.read(p(3), Z, 1); // needs T2 first
    b.write(p(3), X, 1);
    b.commit(p(1));
    b.commit(p(2));
    b.commit(p(3));
    let h = b.build().unwrap();
    for m in all_models() {
        assert!(
            !check_opacity(&h, m).is_opaque(),
            "cycle allowed under {}",
            m.name()
        );
    }
}

#[test]
fn five_process_mixed_history() {
    // Larger stress: 3 txns + 4 non-transactional ops across 5 procs,
    // all values consistent — opaque under SC.
    let mut b = HistoryBuilder::new();
    b.write(p(4), X, 1);
    b.start(p(1));
    b.read(p(1), X, 1);
    b.write(p(1), Y, 2);
    b.commit(p(1));
    b.read(p(5), Y, 2);
    b.start(p(2));
    b.read(p(2), Y, 2);
    b.write(p(2), Z, 3);
    b.commit(p(2));
    b.start(p(3));
    b.read(p(3), Z, 3);
    b.commit(p(3));
    b.read(p(5), Z, 3);
    let h = b.build().unwrap();
    assert!(check_opacity(&h, &Sc).is_opaque());
    // Flip one value to something unjustifiable.
    let mut b = HistoryBuilder::new();
    b.write(p(4), X, 1);
    b.start(p(1));
    b.read(p(1), X, 2); // never written
    b.commit(p(1));
    let h = b.build().unwrap();
    assert!(!check_opacity(&h, &Relaxed).is_opaque());
}

#[test]
fn junk_sc_pins_values_without_a_race() {
    // With no concurrent reader between havoc and write, Junk-SC agrees
    // with SC: a read after the write must return it.
    let mut b = HistoryBuilder::new();
    b.write(p(1), X, 4);
    b.read(p(1), X, 9); // same process, same var: pinned
    let h = b.build().unwrap();
    assert!(!check_opacity(&h, &JunkSc).is_opaque());

    // A racing reader on another process CAN see junk.
    let mut b = HistoryBuilder::new();
    b.write(p(1), X, 4);
    b.read(p(2), X, 9);
    let h = b.build().unwrap();
    assert!(check_opacity(&h, &JunkSc).is_opaque());
    assert!(!check_opacity(&h, &Sc).is_opaque());
}

#[test]
fn witnesses_are_checkable_sequential_histories() {
    let mut b = HistoryBuilder::new();
    b.write(p(1), X, 1);
    b.start(p(1));
    b.read(p(2), Y, 1);
    b.write(p(1), Y, 1);
    b.commit(p(1));
    b.read(p(2), X, 1);
    let h = b.build().unwrap();
    let v = check_opacity(&h, &Sc);
    assert!(v.is_opaque());
    // Each witness rebuilds as a sequential, fully legal permutation —
    // the verdict's evidence is independently checkable.
    assert_eq!(
        witness_errors(&h, &Sc, CheckKind::Opacity, &v),
        Vec::<String>::new()
    );
}

#[test]
fn many_variables_scale() {
    // 8 variables, one committed txn each, then a reader checking all:
    // exercises the checker on a longer (but structurally easy) history.
    let mut b = HistoryBuilder::new();
    for i in 0..8u32 {
        b.start(p(1));
        b.write(p(1), Var(i), u64::from(i) + 1);
        b.commit(p(1));
    }
    for i in 0..8u32 {
        b.read(p(2), Var(i), u64::from(i) + 1);
    }
    let h = b.build().unwrap();
    assert_eq!(h.len(), 32);
    assert!(check_opacity(&h, &Sc).is_opaque());
}
