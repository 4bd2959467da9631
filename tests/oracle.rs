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

use common::{each_order, perm_is_witness, units};
use jungle::core::builder::HistoryBuilder;
use jungle::core::history::History;
use jungle::core::ids::{ProcId, Var};
use jungle::core::model::{all_models, MemoryModel};
use jungle::core::opacity::{check_opacity, check_opacity_traced};
use jungle::core::testkit::{history, Shape, Value, CONCURRENT, FREEFORM};
use proptest::prelude::*;

/// Does `accept` hold for some permutation of `0..n`?
fn any_permutation(n: usize, accept: &mut dyn FnMut(&[usize]) -> bool) -> bool {
    each_order(n, &vec![vec![false; n]; n], &|_, _| true, accept)
}

/// Brute-force decision of parametrized opacity.
fn oracle_opaque(h: &History, model: &dyn MemoryModel) -> bool {
    let th = model.transform(h);
    any_permutation(th.len(), &mut |perm| perm_is_witness(&th, perm, model))
}

/// [`oracle_opaque`] over the sequential permutations only: every
/// order of the units, each transaction's operations in history order.
fn oracle_opaque_by_units(h: &History, model: &dyn MemoryModel) -> bool {
    let th = model.transform(h);
    let units = units(&th);
    any_permutation(units.len(), &mut |order| {
        let perm: Vec<usize> = order.iter().flat_map(|&u| units[u].clone()).collect();
        perm_is_witness(&th, &perm, model)
    })
}

/// Two processes' freeform histories of up to five operations, on two
/// variables, reading any of 0, 1, 2: few enough operations to try every
/// permutation.
const SMALL: Shape = Shape {
    procs: 2..=2,
    steps: 0..=5,
    writes: Value::In(1, 2),
    ..FREEFORM
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimized checker agrees with the brute-force oracle on
    /// random small histories, for every bundled memory model.
    #[test]
    fn checker_matches_bruteforce_oracle(seed in any::<u64>()) {
        let h = history(seed, &SMALL);
        prop_assume!(h.len() <= 6); // 6! = 720 permutations per model
        for m in all_models() {
            let fast = check_opacity(&h, m).is_opaque();
            let slow = oracle_opaque(&h, m);
            prop_assert_eq!(
                fast,
                slow,
                "checker={} oracle={} under {} for seed {}: {:?}",
                fast,
                slow,
                m.name(),
                seed,
                h
            );
        }
    }
}

/// Five and six mutually concurrent transactions: 120 and 720 orders,
/// which the checker no longer enumerates and the oracle still does.
/// Saturation orders most writers of the two-valued histories before
/// the search starts; the one-valued ones, whose every read returns the
/// one value written, so that a read with two committed writers has no
/// single source, keep the prefix oracle's descent exercised.
#[test]
fn checker_matches_unit_oracle_on_concurrent_transactions() {
    for values in [2, 1] {
        let reads = [Value::In(1, 1), CONCURRENT.reads][values as usize - 1];
        let shape = Shape {
            reads,
            writes: Value::In(1, values),
            tail: (CONCURRENT.tail.0, reads),
            ..CONCURRENT
        };
        let (mut opaque, mut descents) = (0, 0);
        for seed in 0..24u64 {
            let h = history(seed, &shape);
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
