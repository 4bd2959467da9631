//! Property tests for the opacity checker's evidence: every witness an
//! [`OpacityVerdict`] reports must be an independently checkable
//! sequential permutation of the transformed history that serializes
//! transactions in the claimed `txn_order`.
//!
//! Histories are generated by executing a random action script
//! sequentially (one live transaction at a time, reads returning the
//! value the overlay semantics dictate), so every generated history is
//! opaque under every bundled model and witnesses always exist.
//! Injecting a read of a value that was never written gives the
//! complementary negative case.

use jungle_core::builder::HistoryBuilder;
use jungle_core::history::{History, OpInstance};
use jungle_core::ids::{ProcId, Var};
use jungle_core::legal::every_op_legal;
use jungle_core::model::{all_models, MemoryModel, Sc};
use jungle_core::opacity::{check_opacity, OpacityVerdict};
use proptest::prelude::*;
use std::collections::HashMap;

/// A value no generated script ever writes.
const JUNK: u64 = 1_000_000;

/// One step of the random script: `(proc, kind, var)`.
type Action = (u32, u32, u32);

/// Execute `script` sequentially and record it as a history. At most
/// one transaction is live at a time and only its process acts while it
/// is open, so the recorded order itself is a legal sequential history:
/// the result is opaque under every model whose reorderings include the
/// identity (all of them).
fn build_history(script: &[Action]) -> History {
    let mut b = HistoryBuilder::new();
    let mut committed: HashMap<u32, u64> = HashMap::new();
    let mut overlay: HashMap<u32, u64> = HashMap::new();
    let mut live: Option<u32> = None;
    let mut fresh = 1u64;
    for &(proc_raw, kind, var_raw) in script {
        let p = ProcId(proc_raw % 3);
        let var = var_raw % 3;
        if let Some(owner) = live {
            if owner != p.0 {
                continue; // only the live transaction's process may act
            }
        }
        match kind % 8 {
            0 if live.is_none() => {
                b.start(p);
                live = Some(p.0);
            }
            1 if live == Some(p.0) => {
                b.commit(p);
                committed.extend(overlay.drain());
                live = None;
            }
            2 if live == Some(p.0) => {
                b.abort(p);
                overlay.clear();
                live = None;
            }
            3 | 4 => {
                b.write(p, Var(var), fresh);
                if live.is_some() {
                    overlay.insert(var, fresh);
                } else {
                    committed.insert(var, fresh);
                }
                fresh += 1;
            }
            _ => {
                let val = overlay
                    .get(&var)
                    .or_else(|| committed.get(&var))
                    .copied()
                    .unwrap_or(0);
                b.read(p, Var(var), val);
            }
        }
    }
    if let Some(owner) = live {
        b.commit(ProcId(owner));
    }
    b.build().expect("script produces a well-formed history")
}

/// Assert that the verdict's witnesses are valid for `h` under `model`:
/// each is a permutation of the transformed history, sequential, fully
/// legal, and serializes transactions exactly in `txn_order`.
fn assert_witnesses_valid(h: &History, model: &dyn MemoryModel, v: &OpacityVerdict) {
    let th = model.transform(h);
    assert!(!v.witnesses().is_empty() || th.is_empty() || th.procs().is_empty());
    assert_eq!(v.txn_order().len(), th.txns().len());
    for (viewer, ids) in v.witnesses() {
        // Permutation: same length, every transformed op exactly once.
        assert_eq!(
            ids.len(),
            th.len(),
            "witness for {viewer:?} is not a permutation"
        );
        let mut indices: Vec<usize> = Vec::with_capacity(ids.len());
        for id in ids {
            let idx = th
                .index_of(*id)
                .unwrap_or_else(|| panic!("witness op {id:?} not in transformed history"));
            assert!(!indices.contains(&idx), "witness repeats op {id:?}");
            indices.push(idx);
        }
        // Sequential + legal: rebuild as a history and check it.
        let ops: Vec<OpInstance> = indices.iter().map(|&i| th.ops()[i].clone()).collect();
        let s = History::new(ops).expect("witness rebuilds as a history");
        assert!(s.is_sequential(), "witness interleaves transactions");
        assert!(
            every_op_legal(&s),
            "witness for {viewer:?} contains an illegal operation"
        );
        // Claimed serialization order: transactions appear in the
        // witness exactly in `txn_order`.
        let pos_of = |op_idx: usize| indices.iter().position(|&i| i == op_idx).unwrap();
        let mut seen: Vec<(usize, usize)> = th
            .txns()
            .iter()
            .enumerate()
            .map(|(ti, t)| (pos_of(t.first()), ti))
            .collect();
        seen.sort_unstable();
        let order: Vec<usize> = seen.into_iter().map(|(_, ti)| ti).collect();
        assert_eq!(
            order,
            v.txn_order(),
            "witness for {viewer:?} deviates from txn_order"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn witnesses_are_legal_ordered_permutations(
        script in prop::collection::vec((0u32..3, 0u32..8, 0u32..3), 0..24),
    ) {
        let h = build_history(&script);
        for model in all_models() {
            let v = check_opacity(&h, model);
            prop_assert!(v.is_opaque(), "sequential history rejected under {}", model.name());
            assert_witnesses_valid(&h, model, &v);
        }
    }

    #[test]
    fn junk_read_is_rejected_under_sc(
        script in prop::collection::vec((0u32..3, 0u32..8, 0u32..3), 1..16),
        var in 0u32..3,
    ) {
        // Append a non-transactional read of a value nobody ever wrote:
        // no legal permutation can justify it under SC.
        let mut b = HistoryBuilder::new();
        let h = build_history(&script);
        for op in h.ops() {
            b.op(op.proc, op.op.clone());
        }
        b.read(ProcId(2), Var(var), JUNK);
        let h = b.build().unwrap();
        let v = check_opacity(&h, &Sc);
        prop_assert!(!v.is_opaque());
        prop_assert!(v.witnesses().is_empty());
        prop_assert!(v.txn_order().is_empty());
    }
}
