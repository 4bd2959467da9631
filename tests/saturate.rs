//! Saturation is sound: every order edge `saturate::derive` reports
//! holds in every witness a brute-force oracle accepts, and every
//! history it refutes has no witness at all.
//!
//! Opacity's oracle is `oracle.rs`'s [`perm_is_witness`] (the
//! definition of §3.3), fed every permutation of the units — a
//! transaction's operations kept together, in order — that respects
//! the unit-level real-time and view order, which the predicate checks
//! again. SGLA's is its definition (§6.2, as `sgla.rs` chooses the
//! extension), written out here: every permutation of the operations
//! that keeps program order inside transactions, the roach-motel
//! pairs, the view and the lock's real-time order, lets no two
//! transactions overlap, and replays legally under critical-section
//! semantics.
//!
//! The generated histories mix transactional and non-transactional
//! operations on up to three processes, with repeated values, aborted
//! and live transactions, and dependent reads and writes; each is
//! checked under all eight registry entries (Junk-SC's `havoc`
//! included) and both kinds.

mod common;

use common::perm_is_witness;
use jungle::core::builder::HistoryBuilder;
use jungle::core::check::{Check, CheckKind};
use jungle::core::history::{History, TxnStatus};
use jungle::core::ids::{OpId, ProcId, Var, X};
use jungle::core::legal::CsChecker;
use jungle::core::model::MemoryModel;
use jungle::core::op::DepKind;
use jungle::core::registry::registry;
use jungle::core::saturate::{derive, Saturation};

/// Up to seven operations of two or three processes, drawn from `seed`.
fn history(seed: u64) -> History {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut draw = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) % n
    };
    let procs = 2 + draw(2) as usize;
    let steps = 4 + draw(4);
    let mut b = HistoryBuilder::new();
    let mut open = vec![false; procs];
    let mut last: Vec<Option<OpId>> = vec![None; procs];
    for _ in 0..steps {
        let at = draw(procs as u64) as usize;
        let (p, var) = (ProcId(at as u32), Var(draw(2) as u32));
        let kind = if draw(2) == 0 {
            DepKind::Data
        } else {
            DepKind::Control
        };
        let id = match (open[at], draw(10), last[at]) {
            (false, 0..=2, _) => {
                b.start(p);
                open[at] = true;
                continue;
            }
            // A dependency never reaches past a transaction's end: the
            // reference legality drops aborted transactions' operations.
            (true, 0..=1, _) => {
                b.commit(p);
                (open[at], last[at]) = (false, None);
                continue;
            }
            (true, 2, _) => {
                b.abort(p);
                (open[at], last[at]) = (false, None);
                continue;
            }
            (_, 8, Some(dep)) if draw(2) == 0 => b.dep_read(p, var, draw(3), kind, vec![dep]),
            (_, 8, Some(dep)) => b.dep_write(p, var, 1 + draw(2), kind, vec![dep]),
            (_, 6..=7, _) => b.write(p, var, 1 + draw(2)),
            _ => b.read(p, var, draw(3)),
        };
        last[at] = Some(id);
    }
    b.build().expect("the schedule is well-formed")
}

/// Calls `leaf` on every permutation of `0..n` that places `j` only
/// after every `i` with `before[i][j]`, and only where `allowed` lets
/// it extend the prefix.
fn each_order(
    n: usize,
    before: &[Vec<bool>],
    allowed: &dyn Fn(&[usize], usize) -> bool,
    leaf: &mut dyn FnMut(&[usize]),
) {
    fn go(
        seq: &mut Vec<usize>,
        placed: &mut [bool],
        before: &[Vec<bool>],
        allowed: &dyn Fn(&[usize], usize) -> bool,
        leaf: &mut dyn FnMut(&[usize]),
    ) {
        let n = placed.len();
        if seq.len() == n {
            return leaf(seq);
        }
        for j in 0..n {
            let ready = !placed[j] && (0..n).all(|i| placed[i] || !before[i][j]);
            if ready && allowed(seq, j) {
                placed[j] = true;
                seq.push(j);
                go(seq, placed, before, allowed, leaf);
                seq.pop();
                placed[j] = false;
            }
        }
    }
    go(&mut Vec::new(), &mut vec![false; n], before, allowed, leaf);
}

/// Must every witness of `th` under `model` order `i` before `j` by the
/// model's view: non-transactional commands of one process, `i < j`?
fn view(th: &History, model: &dyn MemoryModel, i: usize, j: usize) -> bool {
    let ops = th.ops();
    i < j
        && !th.is_transactional(i)
        && !th.is_transactional(j)
        && ops[i].op.command().is_some()
        && ops[j].op.command().is_some()
        && ops[i].proc == ops[j].proc
        && model.required(th, i, j)
}

/// Every opacity witness of `th` (transformed already), as operation
/// sequences.
fn opacity_witnesses(th: &History, model: &dyn MemoryModel) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = (0..th.txns().len())
        .map(|t| th.txn_ops(t).to_vec())
        .collect();
    units.extend(
        (0..th.len())
            .filter(|&i| !th.is_transactional(i))
            .map(|i| vec![i]),
    );
    let n = units.len();
    let before: Vec<Vec<bool>> = (0..n)
        .map(|u| {
            (0..n)
                .map(|v| {
                    u != v
                        && units[u].iter().any(|&i| {
                            units[v]
                                .iter()
                                .any(|&j| th.precedes_rt(i, j) || view(th, model, i, j))
                        })
                })
                .collect()
        })
        .collect();
    let mut found = Vec::new();
    each_order(n, &before, &|_, _| true, &mut |order| {
        let perm: Vec<usize> = order.iter().flat_map(|&u| units[u].clone()).collect();
        if perm_is_witness(th, &perm, model) {
            found.push(perm);
        }
    });
    found
}

/// Every SGLA witness of `th` (transformed already), as operation
/// sequences.
fn sgla_witnesses(th: &History, model: &dyn MemoryModel) -> Vec<Vec<usize>> {
    let (n, txns) = (th.len(), th.txns());
    let mut before = vec![vec![false; n]; n];
    for t in 0..txns.len() {
        for w in th.txn_ops(t).windows(2) {
            before[w[0]][w[1]] = true;
        }
    }
    for i in (0..n).filter(|&i| !th.is_transactional(i)) {
        for t in txns.iter().filter(|t| t.proc == th.ops()[i].proc) {
            if i < t.first() {
                before[i][t.last()] = true;
            } else if i > t.last() {
                before[t.first()][i] = true;
            }
        }
    }
    for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
        before[i][j] |= view(th, model, i, j);
    }
    for a in txns.iter().filter(|a| a.status.is_completed()) {
        for b in txns.iter().filter(|b| a.last() < b.first()) {
            before[a.last()][b.first()] = true;
        }
    }
    // No operation of another transaction while one is open.
    let open = |seq: &[usize]| {
        let t = th.txn_of(*seq.iter().rev().find(|&&i| th.is_transactional(i))?)?;
        seq.iter().all(|&i| i != txns[t].last()).then_some(t)
    };
    let allowed = |seq: &[usize], j: usize| match (open(seq), th.txn_of(j)) {
        (Some(t), Some(u)) => t == u,
        _ => true,
    };
    let mut found = Vec::new();
    each_order(n, &before, &allowed, &mut |perm| {
        let mut c = CsChecker::new();
        let legal = perm.iter().all(|&i| {
            let txn = th.txn_of(i).map(|t| &txns[t]);
            let ok = c.step(&th.ops()[i].op, txn.is_some());
            if txn.is_some_and(|t| t.status == TxnStatus::Live && t.last() == i) {
                c.suspend_live();
            }
            ok
        });
        if legal {
            found.push(perm.to_vec());
        }
    });
    found
}

fn witnesses(th: &History, model: &dyn MemoryModel, kind: CheckKind) -> Vec<Vec<usize>> {
    match kind {
        CheckKind::Opacity => opacity_witnesses(th, model),
        CheckKind::Sgla => sgla_witnesses(th, model),
    }
}

#[test]
fn derived_edges_hold_in_every_witness_and_refutations_have_none() {
    let (mut edges, mut checked, mut cycles, mut unsourced, mut holding) = (0, 0, 0, 0, 0);
    let mut kinds_refuted = [false; 2];
    for seed in 0..2000u64 {
        let h = history(seed);
        for e in registry() {
            let th = e.model.transform(&h);
            for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                let ctx = format!("seed {seed}, {kind:?} under {}: {h:?}", e.key);
                let found = witnesses(&th, e.model, kind);
                // The oracle decides what the checker decides.
                let holds = Check::new(kind).run(&h, e.model).0.holds();
                assert_eq!(holds, !found.is_empty(), "{ctx}");
                holding += usize::from(!found.is_empty());
                match derive(&h, e.model, kind) {
                    Saturation::Edges(pairs) => {
                        for perm in &found {
                            let mut pos = vec![0; th.len()];
                            for (k, &i) in perm.iter().enumerate() {
                                pos[i] = k;
                            }
                            for &(i, j) in &pairs {
                                assert!(pos[i] < pos[j], "{ctx}: {i} → {j} broken by {perm:?}");
                                checked += 1;
                            }
                        }
                        edges += pairs.len();
                    }
                    refuted => {
                        assert!(found.is_empty(), "{ctx}: {refuted:?} but {found:?}");
                        cycles += usize::from(matches!(refuted, Saturation::Cycle(_)));
                        unsourced += usize::from(matches!(refuted, Saturation::Unsourced(_)));
                        kinds_refuted[usize::from(kind == CheckKind::Sgla)] = true;
                    }
                }
            }
        }
    }
    // The corpus reaches every outcome, and the edges meet witnesses.
    assert!(holding > 5_000, "{holding} holding cases");
    assert!(
        edges > 3_000 && checked > 40_000,
        "{edges} edges, {checked} checks"
    );
    assert!(
        cycles > 1_000 && unsourced > 1_000,
        "{cycles} cycles, {unsourced} unsourced"
    );
    assert_eq!(kinds_refuted, [true, true]);
}

#[test]
fn sgla_critical_sections_close_a_cycle() {
    // The shape of `sgla_still_isolates_transactions_from_each_other`:
    // T2 reads x = 0 and later x = 5 around T1's committed write. The
    // first read precedes T1's write, the second follows it, so T1
    // overlaps T2 — which critical sections forbid.
    let (p1, p2) = (ProcId(1), ProcId(2));
    let mut b = HistoryBuilder::new();
    b.start(p2);
    b.read(p2, X, 0);
    b.start(p1);
    b.write(p1, X, 5);
    b.commit(p1);
    b.read(p2, X, 5);
    b.commit(p2);
    let h = b.build().unwrap();
    for e in registry() {
        let th = e.model.transform(&h);
        let refuted = derive(&h, e.model, CheckKind::Sgla);
        if e.key == "Junk-SC" {
            // `havoc` can make any read legal: x is not saturated.
            assert!(matches!(refuted, Saturation::Edges(_)), "{refuted:?}");
        } else {
            assert!(
                matches!(refuted, Saturation::Cycle(ref c) if c.len() >= 2),
                "{}: {refuted:?}",
                e.key
            );
        }
        assert!(sgla_witnesses(&th, e.model).is_empty(), "{}", e.key);
        let (v, stats) = Check::new(CheckKind::Sgla).run(&h, e.model);
        assert!(!v.holds(), "{}", e.key);
        assert_eq!(
            stats.search.cycle_refutes,
            u64::from(e.key != "Junk-SC"),
            "{}",
            e.key
        );
    }
}
