//! Property test cross-validating [`check_opacity_par`] against the
//! serial opacity check: for every bundled memory model and any thread
//! count it must produce the *same* verdict — and, by the lowest-index
//! determinism rule of the prefix list, the same serialization order
//! and witness — as the serial search, run after run.
//!
//! Histories are generated freeform (overlapping transactions across
//! up to three processes, reads that may observe stale or fabricated
//! values), so both satisfying and violating inputs appear; the split
//! is forced with `min_units: 0` so even tiny histories exercise it.
//! The witnesses it returns are re-validated from scratch as legal
//! sequential permutations.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::{Check, CheckKind, CheckVerdict};
use jungle_core::history::{History, OpInstance};
use jungle_core::ids::{ProcId, Var};
use jungle_core::legal::every_op_legal;
use jungle_core::model::{all_models, MemoryModel};
use jungle_core::opacity::check_opacity_par;
use jungle_core::par::ParallelConfig;
use proptest::prelude::*;

/// Thread counts the cross-validation sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

/// One step of the random script: `(proc, kind, var, val_choice)`.
type Action = (u32, u32, u32, u32);

/// A parallel config with the size threshold disabled, so every
/// generated history is split over the prefix list.
fn forced(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_units: 0,
    }
}

/// Record `script` as a history of at most `max_ops` operations.
/// Unlike the sequential generator in `witness_props`, transactions on
/// different processes may overlap freely and reads pick their observed
/// value from *any* value previously written to the variable (or a
/// fabricated one), so the result may or may not be opaque — exactly
/// what a cross-validation oracle needs.
fn build_history(script: &[Action], max_ops: usize) -> History {
    let mut b = HistoryBuilder::new();
    let mut live = [false; 3];
    let mut written: Vec<u64> = vec![0];
    let mut fresh = 1u64;
    for &(proc_raw, kind, var_raw, val_choice) in script {
        if b.len() >= max_ops {
            break;
        }
        let pi = (proc_raw % 3) as usize;
        let p = ProcId(pi as u32);
        let var = Var(var_raw % 2);
        match kind % 8 {
            0 if !live[pi] => {
                b.start(p);
                live[pi] = true;
            }
            1 if live[pi] => {
                b.commit(p);
                live[pi] = false;
            }
            2 if live[pi] => {
                b.abort(p);
                live[pi] = false;
            }
            3 | 4 => {
                b.write(p, var, fresh);
                written.push(fresh);
                fresh += 1;
            }
            _ => {
                let val = written[(val_choice as usize) % written.len()];
                b.read(p, var, val);
            }
        }
    }
    for (pi, open) in live.iter().enumerate() {
        if *open {
            b.commit(ProcId(pi as u32));
        }
    }
    b.build().expect("script produces a well-formed history")
}

/// Re-validate a witness set from scratch: each witness must be a legal
/// sequential permutation of the transformed history serializing
/// transactions in the claimed order. (Same checks as `witness_props`,
/// applied here to the *parallel* path's evidence.)
fn assert_witnesses_valid(h: &History, model: &dyn MemoryModel, v: &CheckVerdict) {
    let th = model.transform(h);
    for (viewer, ids) in v.witnesses() {
        assert_eq!(
            ids.len(),
            th.len(),
            "witness for {viewer:?} not a permutation"
        );
        let mut indices: Vec<usize> = Vec::with_capacity(ids.len());
        for id in ids {
            let idx = th
                .index_of(*id)
                .unwrap_or_else(|| panic!("witness op {id:?} not in transformed history"));
            assert!(!indices.contains(&idx), "witness repeats op {id:?}");
            indices.push(idx);
        }
        let ops: Vec<OpInstance> = indices.iter().map(|&i| th.ops()[i].clone()).collect();
        let s = History::new(ops).expect("witness rebuilds as a history");
        assert!(s.is_sequential(), "witness interleaves transactions");
        assert!(
            every_op_legal(&s),
            "witness for {viewer:?} contains an illegal operation"
        );
    }
}

fn action_strategy() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec((0u32..3, 0u32..8, 0u32..2, 0u32..8), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_check_matches_serial_and_repeats(script in action_strategy()) {
        let h = build_history(&script, 8);
        for model in all_models() {
            let serial = Check::new(CheckKind::Opacity).run(&h, model).0;
            for t in THREADS {
                let par = check_opacity_par(&h, model, &forced(t));
                // Lowest-index determinism: the split returns the exact
                // serial witness, not just *a* witness — and the
                // scheduler cannot influence a repeat run.
                for v in [&par, &check_opacity_par(&h, model, &forced(t))] {
                    prop_assert_eq!(
                        v.holds(), serial.holds(),
                        "verdict diverged under {} at {} threads", model.name(), t
                    );
                    prop_assert_eq!(
                        v.txn_order(), serial.txn_order(),
                        "txn order diverged under {} at {} threads", model.name(), t
                    );
                    prop_assert_eq!(
                        v.witnesses(), serial.witnesses(),
                        "witness diverged under {} at {} threads", model.name(), t
                    );
                }
                if par.holds() {
                    assert_witnesses_valid(&h, model, &par);
                }
            }
        }
    }
}
