//! Scenario tests for the parametrized-opacity checker: multi-
//! transaction serialization, richer objects, Junk-SC edge cases, and
//! witness validity.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::{Check, CheckKind};
use jungle_core::history::History;
use jungle_core::ids::{ProcId, Var, X, Y, Z};
use jungle_core::model::MemoryModel;
use jungle_core::model::{all_models, JunkSc, Relaxed, Sc};
use jungle_core::opacity::check_opacity;
use jungle_core::spec::{Spec, SpecRegistry};

/// Is `h` opaque under `model` with the object semantics `specs`?
fn opaque_under(specs: &SpecRegistry, h: &History, model: &dyn MemoryModel) -> bool {
    let check = Check {
        specs: specs.clone(),
        ..Check::new(CheckKind::Opacity)
    };
    check.run(h, model).0.is_opaque()
}

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
fn counters_compose_with_transactions() {
    let specs = SpecRegistry::with_default(Spec::Counter);
    // Two transactions each fetch-add 1 on the same counter; their
    // return values must serialize (0 then 1 in some order).
    let mk = |r1: u64, r2: u64| {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.fetch_add(p(1), X, 1, r1);
        b.commit(p(1));
        b.start(p(2));
        b.fetch_add(p(2), X, 1, r2);
        b.commit(p(2));
        b.build().unwrap()
    };
    assert!(opaque_under(&specs, &mk(0, 1), &Sc));
    assert!(!opaque_under(&specs, &mk(0, 0), &Sc));
    assert!(!opaque_under(&specs, &mk(1, 1), &Sc));
    // Real-time order: T1 completes before T2 starts → r1 must be 0.
    assert!(!opaque_under(&specs, &mk(1, 0), &Sc));
}

#[test]
fn mixed_specs_register_and_counter() {
    let mut specs = SpecRegistry::registers();
    specs.set(Y, Spec::Counter);
    let mut b = HistoryBuilder::new();
    b.write(p(1), X, 5);
    b.fetch_add(p(1), Y, 3, 0);
    b.start(p(2));
    b.read(p(2), X, 5);
    b.fetch_add(p(2), Y, 2, 3);
    b.commit(p(2));
    b.read(p(1), Y, 5);
    let h = b.build().unwrap();
    assert!(opaque_under(&specs, &h, &Sc));
    // FetchAdd on a plain register is illegal.
    let plain = SpecRegistry::registers();
    assert!(!opaque_under(&plain, &h, &Sc));
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
    use jungle_core::history::{History, OpInstance};
    use jungle_core::legal::every_op_legal;

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
    // Reconstruct each witness as a history and verify it is a
    // sequential, fully legal permutation — i.e. the verdict's
    // evidence is independently checkable.
    for (_, ids) in v.witnesses() {
        let ops: Vec<OpInstance> = ids
            .iter()
            .map(|id| {
                let idx = h.index_of(*id).unwrap();
                h.ops()[idx].clone()
            })
            .collect();
        let s = History::new(ops).unwrap();
        assert!(s.is_sequential());
        assert!(every_op_legal(&s, &SpecRegistry::registers()));
    }
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
