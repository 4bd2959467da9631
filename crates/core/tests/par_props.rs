//! Property test cross-validating [`check_opacity_par`] against the
//! serial opacity check: for every bundled memory model and any thread
//! count it must produce the *same* verdict — and, by the lowest-index
//! determinism rule of the prefix list, the same serialization order
//! and witness — as the serial search, run after run.
//!
//! Histories are the kit's `OVERLAPPING` shape (overlapping
//! transactions across three processes, reads that may observe any
//! value written so far), so both satisfying and violating inputs
//! appear; the split is forced with `min_units: 0` so even tiny
//! histories exercise it. The witnesses it returns are re-validated
//! from scratch as legal sequential permutations.

use jungle_core::check::{Check, CheckKind};
use jungle_core::model::all_models;
use jungle_core::opacity::check_opacity_par;
use jungle_core::par::ParallelConfig;
use jungle_core::testkit::{history, witness_errors, OVERLAPPING};
use proptest::prelude::*;

/// Thread counts the cross-validation sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

/// A parallel config with the size threshold disabled, so every
/// generated history is split over the prefix list.
fn forced(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_units: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_check_matches_serial_and_repeats(seed in any::<u64>()) {
        let h = history(seed, &OVERLAPPING);
        for model in all_models() {
            let serial = Check::new(CheckKind::Opacity).run(&h, model).0;
            for t in THREADS {
                let par = check_opacity_par(&h, model, &forced(t));
                // Lowest-index determinism: the split returns the exact
                // serial witness, not just *a* witness — and the
                // scheduler cannot influence a repeat run.
                for v in [&par, &check_opacity_par(&h, model, &forced(t))] {
                    prop_assert_eq!(
                        (v.holds(), v.txn_order(), v.witnesses()),
                        (serial.holds(), serial.txn_order(), serial.witnesses()),
                        "seed {}: verdict, order or witness diverged under {} at {} threads",
                        seed, model.name(), t
                    );
                }
                let errors = witness_errors(&h, model, CheckKind::Opacity, &par);
                prop_assert!(errors.is_empty(), "seed {} under {}: {:?}", seed, model.name(), errors);
            }
        }
    }
}
