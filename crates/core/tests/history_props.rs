//! [`History::new`] against the construction it replaced: a hash map
//! from identifier to index filled in history order (so the duplicate
//! reported is the first one *met*), a hash map of open transactions,
//! and one vector of operation indices per transaction — kept below as
//! the reference. The sorted index, the open list and the arena must
//! accept and reject the same raw sequences, with the same error
//! variant **and payload**, and answer every query alike. A
//! `HistoryBuilder` history, which has no identifier index, must do
//! the same as `History::new` on its operations.

use jungle_core::builder::HistoryBuilder;
use jungle_core::history::{History, HistoryError, OpInstance, TxnStatus};
use jungle_core::ids::{OpId, ProcId, Var};
use jungle_core::op::{Command, DepKind, Op};
use proptest::prelude::*;
use std::collections::HashMap;

/// `(process, operation indices, status)` per transaction.
type RefTxns = Vec<(ProcId, Vec<usize>, TxnStatus)>;

/// The parent's `History::new`, returning what it stored.
fn reference(ops: &[OpInstance]) -> Result<(HashMap<OpId, usize>, RefTxns), HistoryError> {
    let mut index_of = HashMap::new();
    for (i, oi) in ops.iter().enumerate() {
        if index_of.insert(oi.id, i).is_some() {
            return Err(HistoryError::DuplicateOpId(oi.id));
        }
    }
    let mut txns: RefTxns = Vec::new();
    let mut open: HashMap<ProcId, usize> = HashMap::new();
    for (i, oi) in ops.iter().enumerate() {
        let (proc, id) = (oi.proc, oi.id);
        match &oi.op {
            Op::Start => {
                if open.contains_key(&proc) {
                    return Err(HistoryError::NestedStart { proc, id });
                }
                open.insert(proc, txns.len());
                txns.push((proc, vec![i], TxnStatus::Live));
            }
            Op::Commit | Op::Abort => {
                let Some(t) = open.remove(&proc) else {
                    return Err(HistoryError::UnmatchedEnd { proc, id });
                };
                txns[t].1.push(i);
                let committed = matches!(oi.op, Op::Commit);
                txns[t].2 = [TxnStatus::Aborted, TxnStatus::Committed][usize::from(committed)];
            }
            Op::Cmd(c) => {
                if let Some(&t) = open.get(&proc) {
                    txns[t].1.push(i);
                }
                for dep in c.deps().map_or(&[][..], |(_, deps)| deps) {
                    match index_of.get(dep) {
                        Some(&j) if j < i && ops[j].proc == proc => {}
                        _ => return Err(HistoryError::BadDependency { id, dep: *dep }),
                    }
                }
            }
        }
    }
    Ok((index_of, txns))
}

/// One raw operation: `(process, kind, a, b)`.
type Step = (u32, u32, u32, u32);

/// Identifier of position `i` of `n` under `mode`: ascending,
/// descending, or scattered (`11 i mod 31` is injective below 31).
/// Positions `n` and `n + 1` name identifiers no operation carries.
fn id_at(mode: u32, n: u32, i: u32) -> OpId {
    OpId(match mode % 3 {
        0 => i + 1,
        1 => (n + 2) - i,
        _ => (i + 1) * 11 % 31,
    })
}

/// The sequence `script` spells: starts (often nested), ends (often
/// unmatched), plain accesses, and dependent ones whose sets name
/// earlier, later, foreign and missing operations; one operation in
/// twelve repeats the identifier of some other position.
fn raw_ops(script: &[Step], mode: u32) -> Vec<OpInstance> {
    let n = script.len() as u32;
    let steps = script.iter().enumerate();
    steps
        .map(|(i, &(proc, kind, a, b))| {
            let own = if b % 12 == 0 { a % n } else { i as u32 };
            let (var, val, kind_of) = (Var(a % 2), u64::from(b), DepKind::Data);
            let dep = |k: u32| id_at(mode, n, k % (n + 2));
            let op = match kind % 10 {
                0..=2 => Op::Start,
                3 => Op::Commit,
                4 => Op::Abort,
                5 | 6 => Op::Cmd(Command::Read { var, val }),
                7 => Op::Cmd(Command::Write { var, val }),
                8 => Op::Cmd(Command::DepRead {
                    var,
                    val,
                    kind: kind_of,
                    deps: vec![dep(a)],
                }),
                _ => Op::Cmd(Command::DepWrite {
                    var,
                    val,
                    kind: kind_of,
                    deps: vec![dep(a), dep(b)],
                }),
            };
            OpInstance {
                op,
                proc: ProcId(proc),
                id: id_at(mode, n, own),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn new_agrees_with_the_hash_map_construction(
        script in prop::collection::vec((0u32..3, 0u32..10, 0u32..64, 0u32..64), 0..14),
        mode in 0u32..3,
    ) {
        let ops = raw_ops(&script, mode);
        match (History::new(ops.clone()), reference(&ops)) {
            (Err(new), Err(old)) => prop_assert_eq!(new, old, "{:?}", ops),
            (Ok(h), Ok((index_of, txns))) => {
                prop_assert_eq!(h.ops(), &ops[..]);
                // Every identifier present (at most 31) and some absent.
                for k in 0..40 {
                    prop_assert_eq!(h.index_of(OpId(k)), index_of.get(&OpId(k)).copied(), "id {}", k);
                }
                prop_assert_eq!(h.txns().len(), txns.len());
                for (t, (proc, indices, status)) in txns.iter().enumerate() {
                    let txn = &h.txns()[t];
                    prop_assert_eq!((txn.proc, txn.status), (*proc, *status));
                    prop_assert_eq!(h.txn_ops(t), &indices[..]);
                    prop_assert_eq!((txn.first(), txn.last()), (indices[0], indices[indices.len() - 1]));
                    prop_assert!(indices.iter().all(|&i| h.txn_of(i) == Some(t)));
                }
                let transactional: usize = txns.iter().map(|t| t.1.len()).sum();
                prop_assert_eq!((0..h.len()).filter(|&i| h.is_transactional(i)).count(), transactional);
            }
            (new, old) => {
                let (new, old) = (new.map(|_| ()), old.map(|_| ()));
                prop_assert!(false, "{new:?} but the reference {old:?}: {ops:?}");
            }
        }
    }

    /// A `HistoryBuilder` numbers its operations `1..=n` and builds no
    /// identifier index; it must accept, reject and answer exactly as
    /// `History::new` does on the same operations.
    #[test]
    fn a_builder_history_agrees_with_new(
        script in prop::collection::vec((0u32..3, 0u32..10, 0u32..64, 0u32..64), 0..14),
    ) {
        let mut ops = raw_ops(&script, 0);
        for (i, oi) in ops.iter_mut().enumerate() {
            oi.id = OpId(i as u32 + 1);
        }
        let mut b = HistoryBuilder::new();
        for oi in &ops {
            b.op(oi.proc, oi.op.clone());
        }
        match (b.build(), History::new(ops.clone())) {
            (Err(built), Err(new)) => prop_assert_eq!(built, new, "{:?}", ops),
            (Ok(built), Ok(h)) => {
                prop_assert_eq!(built.ops(), h.ops());
                for k in 0..40 {
                    prop_assert_eq!(built.index_of(OpId(k)), h.index_of(OpId(k)), "id {}", k);
                }
                prop_assert_eq!(built.txns().len(), h.txns().len());
                for (t, (x, y)) in built.txns().iter().zip(h.txns()).enumerate() {
                    prop_assert_eq!((x.proc, x.status), (y.proc, y.status));
                    prop_assert_eq!(built.txn_ops(t), h.txn_ops(t));
                }
                for i in 0..h.len() {
                    prop_assert_eq!(built.txn_of(i), h.txn_of(i));
                }
            }
            (built, new) => {
                let (built, new) = (built.map(|_| ()), new.map(|_| ()));
                prop_assert!(false, "built {built:?} but new {new:?}: {ops:?}");
            }
        }
    }
}

/// The generator reaches every outcome, in every identifier order.
#[test]
fn the_scripts_cover_all_four_errors_and_well_formed_histories() {
    let mut seen = [[0u32; 5]; 3];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as u32 % n
    };
    for case in 0..6_000 {
        let len = draw(14);
        let script: Vec<Step> = (0..len)
            .map(|_| (draw(3), draw(10), draw(64), draw(64)))
            .collect();
        let mode = case % 3;
        let outcome = match History::new(raw_ops(&script, mode)) {
            Ok(_) => 0,
            Err(HistoryError::DuplicateOpId(_)) => 1,
            Err(HistoryError::NestedStart { .. }) => 2,
            Err(HistoryError::UnmatchedEnd { .. }) => 3,
            Err(HistoryError::BadDependency { .. }) => 4,
        };
        seen[mode as usize][outcome] += 1;
    }
    for (mode, counts) in seen.iter().enumerate() {
        assert!(counts.iter().all(|&c| c >= 20), "mode {mode}: {counts:?}");
    }
}
