//! Property-based tests on the formal framework's invariants.
//!
//! * the incremental legality checker agrees with the replay-based
//!   reference on sequential histories;
//! * weakening the memory model never revokes opacity (monotonicity);
//! * parametrized opacity implies SGLA (Theorem 6), for random
//!   histories and every bundled model;
//! * structural invariants: `visible` idempotence, prefix
//!   well-formedness, real-time closure transitivity;
//! * purely transactional histories get identical verdicts under every
//!   memory model (requirement 1 of §1: the model must not affect
//!   transaction-only semantics).

use jungle::core::check::CheckKind;
use jungle::core::ids::ProcId;
use jungle::core::legal::{every_op_legal, PrefixChecker};
use jungle::core::model::{all_models, Pso, Relaxed, Rmo, Sc, Tso};
use jungle::core::opacity::check_opacity;
use jungle::core::sgla::check_sgla;
use jungle::core::testkit::{history, witness_errors, Shape, BLOCKS, FREEFORM};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_checker_matches_reference_on_sequential(seed in any::<u64>()) {
        let h = history(seed, &BLOCKS);
        prop_assume!(h.is_sequential());
        let mut inc = PrefixChecker::new();
        let mut inc_ok = true;
        for (i, oi) in h.ops().iter().enumerate() {
            if !inc.step(&oi.op, h.is_transactional(i)) {
                inc_ok = false;
                break;
            }
        }
        let ref_ok = every_op_legal(&h);
        prop_assert_eq!(inc_ok, ref_ok, "seed {}: {:?}", seed, h);
    }

    #[test]
    fn opacity_monotone_under_model_weakening(seed in any::<u64>()) {
        let h = history(seed, &FREEFORM);
        // SC requires the most; every other (identity-transform) model
        // requires a subset of its pairs, so SC-opaque ⟹ M-opaque.
        if check_opacity(&h, &Sc).is_opaque() {
            for m in [&Tso as &dyn jungle::core::model::MemoryModel, &Pso, &Rmo, &Relaxed] {
                prop_assert!(
                    check_opacity(&h, m).is_opaque(),
                    "SC-opaque but not {}-opaque: {:?}",
                    m.name(),
                    h
                );
            }
        }
        // TSO ⟹ PSO ⟹ Relaxed (chain of pointwise-weaker models).
        if check_opacity(&h, &Tso).is_opaque() {
            prop_assert!(check_opacity(&h, &Pso).is_opaque());
        }
        if check_opacity(&h, &Pso).is_opaque() {
            prop_assert!(check_opacity(&h, &Relaxed).is_opaque());
        }
    }

    #[test]
    fn theorem6_opacity_implies_sgla(seed in any::<u64>()) {
        let h = history(seed, &FREEFORM);
        for m in all_models() {
            if check_opacity(&h, m).is_opaque() {
                prop_assert!(
                    check_sgla(&h, m).is_sgla(),
                    "opaque but not SGLA under {}: {:?}",
                    m.name(),
                    h
                );
            }
        }
    }

    #[test]
    fn purely_transactional_histories_model_independent(seed in any::<u64>()) {
        // Requirement 1 of §1: executions that are purely transactional
        // must get the same verdict under every memory model.
        let h = history(seed, &Shape { start: 8, ..BLOCKS });
        let reference = check_opacity(&h, &Sc).is_opaque();
        for m in all_models() {
            if m.name() == "Junk-SC" {
                continue; // its τ rewrites transactional writes too
            }
            prop_assert_eq!(
                check_opacity(&h, m).is_opaque(),
                reference,
                "transaction-only verdict differs under {} for seed {}",
                m.name(),
                seed
            );
        }
    }

    #[test]
    fn visible_is_idempotent_and_wellformed(seed in any::<u64>()) {
        let h = history(seed, &Shape { steps: 0..=9, ..FREEFORM });
        let v1 = h.visible();
        let v2 = v1.visible();
        prop_assert_eq!(v1.len(), v2.len());
        // Prefixes of a well-formed history are well-formed (the
        // builder would panic otherwise) and visible() only shrinks.
        prop_assert!(v1.len() <= h.len());
        for i in 0..h.len() {
            let p = h.prefix(i);
            prop_assert_eq!(p.len(), i + 1);
        }
    }

    #[test]
    fn rt_closure_is_transitive_and_irreflexive(seed in any::<u64>()) {
        let h = history(seed, &Shape { steps: 0..=9, ..FREEFORM });
        let m = h.rt_closure();
        let n = h.len();
        for i in 0..n {
            prop_assert!(!m[i][i], "≺h must be irreflexive");
            for j in 0..n {
                for k in 0..n {
                    if m[i][j] && m[j][k] {
                        prop_assert!(m[i][k], "≺h closure not transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn opaque_history_has_witness_permutation(seed in any::<u64>()) {
        // Every witness is a permutation of the (transformed) history's
        // operations, sequential and legal; a refutation carries none.
        let h = history(seed, &Shape { steps: 0..=6, ..FREEFORM });
        let v = check_opacity(&h, &Sc);
        let errors = witness_errors(&h, &Sc, CheckKind::Opacity, &v);
        prop_assert!(errors.is_empty(), "seed {}: {:?}", seed, errors);
    }

    #[test]
    fn packed_word_roundtrips(
        val in 0..=u32::MAX as u64, pid in 0..=255u32, ver in 0..=0x00FF_FFFFu32
    ) {
        // Theorem 5's word, which the model TM and the real STM share:
        // every field comes back out.
        use jungle::isa::tm::packed;
        let w = packed::pack(val, ProcId(pid), ver);
        prop_assert_eq!(packed::value(w), val);
        prop_assert_eq!(packed::pid(w), ProcId(pid));
        prop_assert_eq!(packed::version(w), ver);
    }
}
