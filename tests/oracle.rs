//! Cross-validation of the optimized parametrized-opacity checker
//! against a brute-force oracle.
//!
//! The oracle enumerates **every permutation** of the (transformed)
//! history's operations and tests the definition of §3.3 directly:
//! sequentiality, respect for `≺h` and the model's required view pairs,
//! and per-prefix legality via the replay-based reference
//! implementation. No unit grouping, no serialization-order factoring,
//! no incremental pruning — maximally dumb, maximally trustworthy.
//!
//! For the bundled (viewer-uniform) models, a single witness serves all
//! processes, so oracle and checker must agree exactly.
//!
//! Operation permutations stop at six operations. Histories with five
//! or six mutually concurrent transactions — where the checker's
//! prefix oracle walks down the orders and its dead-end memo answers —
//! are judged by the same `perm_is_witness`, fed every permutation of
//! the *units* (a transaction's operations kept together, in order):
//! those are exactly the permutations the sequentiality test can pass.

mod common;

use common::perm_is_witness;
use jungle::core::builder::HistoryBuilder;
use jungle::core::history::History;
use jungle::core::ids::{ProcId, Val, Var};
use jungle::core::model::{all_models, MemoryModel};
use jungle::core::opacity::{check_opacity, check_opacity_traced};
use proptest::prelude::*;

/// Does `accept` hold for some permutation of `0..n`? Heap's
/// algorithm, iterative.
fn any_permutation(n: usize, mut accept: impl FnMut(&[usize]) -> bool) -> bool {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut c = vec![0usize; n];
    if accept(&perm) {
        return true;
    }
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            if accept(&perm) {
                return true;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    false
}

/// Brute-force decision of parametrized opacity.
fn oracle_opaque(h: &History, model: &dyn MemoryModel) -> bool {
    let th = model.transform(h);
    any_permutation(th.len(), |perm| perm_is_witness(&th, perm, model))
}

/// [`oracle_opaque`] over the sequential permutations only: every
/// order of the units, each transaction's operations in history order.
fn oracle_opaque_by_units(h: &History, model: &dyn MemoryModel) -> bool {
    let th = model.transform(h);
    let mut units: Vec<Vec<usize>> = (0..th.txns().len())
        .map(|t| th.txn_ops(t).to_vec())
        .collect();
    units.extend(
        (0..th.len())
            .filter(|&i| !th.is_transactional(i))
            .map(|i| vec![i]),
    );
    any_permutation(units.len(), |order| {
        let perm: Vec<usize> = order
            .iter()
            .flat_map(|&u| units[u].iter().copied())
            .collect();
        perm_is_witness(&th, &perm, model)
    })
}

/// `txns` transactions on as many processes, all started before any of
/// them does anything else (so every serialization order is
/// admissible), each with one or two accesses to two variables drawn
/// from `seed`, then committed, aborted or left live; half the seeds
/// add a non-transactional read by one more process. Writes store one
/// of `values` values. With one, every read returns it, so a read with
/// two committed writers has no single source and saturation leaves
/// its order to the search.
fn concurrent_history(seed: u64, txns: usize, values: u64) -> History {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut draw = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) % n
    };
    // Reads return 0, 1 or 2 — or, with one written value, only it.
    let observe = |d: u64| if values == 1 { 1 } else { d.saturating_sub(1) };
    let mut b = HistoryBuilder::new();
    for t in 0..txns {
        b.start(ProcId(t as u32));
    }
    for round in 0..2 {
        for t in 0..txns {
            let (p, var) = (ProcId(t as u32), Var(draw(2) as u32));
            match draw(3 + round) {
                0 => b.read(p, var, observe(draw(4))),
                1 | 2 => b.write(p, var, 1 + draw(2) % values),
                _ => continue,
            };
        }
    }
    for t in 0..txns {
        match draw(4) {
            0 => b.abort(ProcId(t as u32)),
            1 => continue, // live
            _ => b.commit(ProcId(t as u32)),
        };
    }
    if draw(2) == 0 {
        b.read(ProcId(txns as u32), Var(draw(2) as u32), observe(draw(4)));
    }
    b.build().unwrap()
}

#[derive(Clone, Debug)]
enum Ev {
    Read(u8, u8, u8),
    Write(u8, u8, u8),
    Start(u8),
    Commit(u8),
    Abort(u8),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0..2u8, 0..2u8, 0..3u8).prop_map(|(p, v, x)| Ev::Read(p, v, x)),
        (0..2u8, 0..2u8, 1..3u8).prop_map(|(p, v, x)| Ev::Write(p, v, x)),
        (0..2u8).prop_map(Ev::Start),
        (0..2u8).prop_map(Ev::Commit),
        (0..2u8).prop_map(Ev::Abort),
    ]
}

fn build_history(evs: &[Ev]) -> History {
    let mut b = HistoryBuilder::new();
    let mut open = [false; 2];
    for ev in evs {
        match *ev {
            Ev::Read(p, v, x) => {
                b.read(ProcId(p.into()), Var(v.into()), Val::from(x));
            }
            Ev::Write(p, v, x) => {
                b.write(ProcId(p.into()), Var(v.into()), Val::from(x));
            }
            Ev::Start(p) if !open[p as usize] => {
                open[p as usize] = true;
                b.start(ProcId(p.into()));
            }
            Ev::Commit(p) if open[p as usize] => {
                open[p as usize] = false;
                b.commit(ProcId(p.into()));
            }
            Ev::Abort(p) if open[p as usize] => {
                open[p as usize] = false;
                b.abort(ProcId(p.into()));
            }
            _ => {}
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimized checker agrees with the brute-force oracle on
    /// random small histories, for every bundled memory model.
    #[test]
    fn checker_matches_bruteforce_oracle(
        evs in prop::collection::vec(ev_strategy(), 0..6)
    ) {
        let h = build_history(&evs);
        prop_assume!(h.len() <= 6); // 6! = 720 permutations per model
        for m in all_models() {
            let fast = check_opacity(&h, m).is_opaque();
            let slow = oracle_opaque(&h, m);
            prop_assert_eq!(
                fast,
                slow,
                "checker={} oracle={} under {} for {:?}",
                fast,
                slow,
                m.name(),
                h
            );
        }
    }
}

/// Five and six mutually concurrent transactions: 120 and 720 orders,
/// which the checker no longer enumerates and the oracle still does.
/// Saturation orders most writers of the two-valued histories before
/// the search starts; the one-valued ones keep the prefix oracle's
/// descent exercised.
#[test]
fn checker_matches_unit_oracle_on_concurrent_transactions() {
    for values in [2, 1] {
        let (mut opaque, mut descents) = (0, 0);
        for seed in 0..24u64 {
            let h = concurrent_history(seed, 5 + (seed % 2) as usize, values);
            for m in all_models() {
                let (fast, stats) = check_opacity_traced(&h, m);
                let slow = oracle_opaque_by_units(&h, m);
                assert_eq!(
                    fast.is_opaque(),
                    slow,
                    "seed {seed} under {} for {h:?}",
                    m.name()
                );
                opaque += usize::from(slow);
                descents += usize::from(stats.txn_orders == 2);
            }
        }
        // Both answers occur, and some witnesses are not the first
        // order's — or the comparison says little.
        let ctx = format!("{values} values");
        assert!(
            (24..=168).contains(&opaque),
            "{ctx}: {opaque} of 192 opaque"
        );
        if values == 1 {
            assert!(descents >= 8, "{ctx}: {descents} descents");
        }
    }
}

#[test]
fn oracle_agrees_on_fig1() {
    use jungle::core::model::{Rmo, Sc};
    let mk = |ry: u64, rx: u64| {
        let mut b = HistoryBuilder::new();
        b.start(ProcId(1));
        b.write(ProcId(1), Var(0), 1);
        b.write(ProcId(1), Var(1), 1);
        b.commit(ProcId(1));
        b.read(ProcId(2), Var(1), ry);
        b.read(ProcId(2), Var(0), rx);
        b.build().unwrap()
    };
    let h = mk(1, 0);
    assert!(!oracle_opaque(&h, &Sc));
    assert!(oracle_opaque(&h, &Rmo));
    assert_eq!(oracle_opaque(&h, &Sc), check_opacity(&h, &Sc).is_opaque());
    assert_eq!(oracle_opaque(&h, &Rmo), check_opacity(&h, &Rmo).is_opaque());
}
