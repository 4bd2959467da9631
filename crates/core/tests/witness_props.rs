//! Property tests for the opacity checker's evidence: every witness a
//! verdict reports must be an independently checkable
//! sequential permutation of the transformed history that serializes
//! transactions in the claimed `txn_order`.
//!
//! Histories are the kit's `EXECUTED` shape, a random script run
//! sequentially (one live transaction at a time, reads returning the
//! value the overlay semantics dictate), so every generated history is
//! opaque under every bundled model and witnesses always exist. The
//! same shape with one read of a value that was never written gives
//! the complementary negative case.

use jungle_core::check::CheckKind;
use jungle_core::model::{all_models, Sc};
use jungle_core::opacity::check_opacity;
use jungle_core::testkit::{history, witness_errors, Shape, EXECUTED, JUNK};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn witnesses_are_legal_ordered_permutations(seed in any::<u64>()) {
        let h = history(seed, &EXECUTED);
        for model in all_models() {
            let v = check_opacity(&h, model);
            prop_assert!(v.is_opaque(), "seed {}: sequential history rejected under {}", seed, model.name());
            prop_assert!(h.is_empty() || !v.witnesses().is_empty(), "seed {}: no witness", seed);
            let errors = witness_errors(&h, model, CheckKind::Opacity, &v);
            prop_assert!(errors.is_empty(), "seed {} under {}: {:?}", seed, model.name(), errors);
        }
    }

    #[test]
    fn junk_read_is_rejected_under_sc(seed in any::<u64>()) {
        // A non-transactional read of a value nobody ever wrote: no
        // legal permutation can justify it under SC, and the refutation
        // carries no witness and no order.
        let h = history(seed, &Shape { steps: 1..=15, tail: (4, JUNK), ..EXECUTED });
        let v = check_opacity(&h, &Sc);
        prop_assert!(!v.is_opaque(), "seed {}", seed);
        let errors = witness_errors(&h, &Sc, CheckKind::Opacity, &v);
        prop_assert!(errors.is_empty(), "seed {}: {:?}", seed, errors);
    }
}
