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

use jungle::core::builder::HistoryBuilder;
use jungle::core::history::History;
use jungle::core::ids::{ProcId, Val, Var};
use jungle::core::legal::{every_op_legal, PrefixChecker};
use jungle::core::model::{all_models, Pso, Relaxed, Rmo, Sc, Tso};
use jungle::core::opacity::check_opacity;
use jungle::core::sgla::check_sgla;
use proptest::prelude::*;

/// A step of a random (possibly concurrent) history.
#[derive(Clone, Debug)]
enum Ev {
    Read(u8, u8, u8),  // proc, var, val
    Write(u8, u8, u8), // proc, var, val
    Start(u8),
    Commit(u8),
    Abort(u8),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0..3u8, 0..2u8, 0..3u8).prop_map(|(p, v, x)| Ev::Read(p, v, x)),
        (0..3u8, 0..2u8, 1..4u8).prop_map(|(p, v, x)| Ev::Write(p, v, x)),
        (0..3u8).prop_map(Ev::Start),
        (0..3u8).prop_map(Ev::Commit),
        (0..3u8).prop_map(Ev::Abort),
    ]
}

/// Interpret an event list into a well-formed history (boundary events
/// are dropped when they would break well-formedness).
fn build_history(evs: &[Ev]) -> History {
    let mut b = HistoryBuilder::new();
    let mut open = [false; 3];
    for ev in evs {
        match *ev {
            Ev::Read(p, v, x) => {
                b.read(ProcId(p.into()), Var(v.into()), Val::from(x));
            }
            Ev::Write(p, v, x) => {
                b.write(ProcId(p.into()), Var(v.into()), Val::from(x));
            }
            Ev::Start(p) => {
                if !open[p as usize] {
                    open[p as usize] = true;
                    b.start(ProcId(p.into()));
                }
            }
            Ev::Commit(p) => {
                if open[p as usize] {
                    open[p as usize] = false;
                    b.commit(ProcId(p.into()));
                }
            }
            Ev::Abort(p) => {
                if open[p as usize] {
                    open[p as usize] = false;
                    b.abort(ProcId(p.into()));
                }
            }
        }
    }
    b.build().expect("interpreter maintains well-formedness")
}

/// A *sequential* random history: whole transactions and
/// non-transactional ops appended one block at a time.
#[derive(Clone, Debug)]
enum Block {
    Nt(Ev),
    Txn(u8, Vec<(bool, u8, u8)>, bool), // proc, (is_read, var, val), commit?
}

fn block_strategy() -> impl Strategy<Value = Block> {
    prop_oneof![
        (0..3u8, 0..2u8, 0..3u8).prop_map(|(p, v, x)| Block::Nt(Ev::Read(p, v, x))),
        (0..3u8, 0..2u8, 1..4u8).prop_map(|(p, v, x)| Block::Nt(Ev::Write(p, v, x))),
        (
            0..3u8,
            prop::collection::vec((any::<bool>(), 0..2u8, 0..4u8), 0..3),
            any::<bool>()
        )
            .prop_map(|(p, ops, c)| Block::Txn(p, ops, c)),
    ]
}

fn build_sequential(blocks: &[Block]) -> History {
    let mut b = HistoryBuilder::new();
    for blk in blocks {
        match blk {
            Block::Nt(Ev::Read(p, v, x)) => {
                b.read(ProcId((*p).into()), Var((*v).into()), Val::from(*x));
            }
            Block::Nt(Ev::Write(p, v, x)) => {
                b.write(ProcId((*p).into()), Var((*v).into()), Val::from(*x));
            }
            Block::Nt(_) => unreachable!(),
            Block::Txn(p, ops, commit) => {
                let p = ProcId((*p).into());
                b.start(p);
                for (is_read, v, x) in ops {
                    if *is_read {
                        b.read(p, Var((*v).into()), Val::from(*x));
                    } else {
                        b.write(p, Var((*v).into()), Val::from(*x));
                    }
                }
                if *commit {
                    b.commit(p);
                } else {
                    b.abort(p);
                }
            }
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_checker_matches_reference_on_sequential(
        blocks in prop::collection::vec(block_strategy(), 0..6)
    ) {
        let h = build_sequential(&blocks);
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
        prop_assert_eq!(inc_ok, ref_ok, "history: {:?}", h);
    }

    #[test]
    fn opacity_monotone_under_model_weakening(
        evs in prop::collection::vec(ev_strategy(), 0..8)
    ) {
        let h = build_history(&evs);
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
    fn theorem6_opacity_implies_sgla(
        evs in prop::collection::vec(ev_strategy(), 0..8)
    ) {
        let h = build_history(&evs);
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
    fn purely_transactional_histories_model_independent(
        blocks in prop::collection::vec(block_strategy(), 0..5)
    ) {
        // Requirement 1 of §1: executions that are purely transactional
        // must get the same verdict under every memory model.
        let only_txns: Vec<Block> =
            blocks.into_iter().filter(|b| matches!(b, Block::Txn(..))).collect();
        let h = build_sequential(&only_txns);
        let reference = check_opacity(&h, &Sc).is_opaque();
        for m in all_models() {
            if m.name() == "Junk-SC" {
                continue; // its τ rewrites transactional writes too
            }
            prop_assert_eq!(
                check_opacity(&h, m).is_opaque(),
                reference,
                "transaction-only verdict differs under {}",
                m.name()
            );
        }
    }

    #[test]
    fn visible_is_idempotent_and_wellformed(
        evs in prop::collection::vec(ev_strategy(), 0..10)
    ) {
        let h = build_history(&evs);
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
    fn rt_closure_is_transitive_and_irreflexive(
        evs in prop::collection::vec(ev_strategy(), 0..10)
    ) {
        let h = build_history(&evs);
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
    fn opaque_history_has_witness_permutation(
        evs in prop::collection::vec(ev_strategy(), 0..7)
    ) {
        let h = build_history(&evs);
        let v = check_opacity(&h, &Sc);
        if v.is_opaque() {
            // Every witness is a permutation of the (transformed)
            // history's operations.
            for (_, w) in v.witnesses() {
                prop_assert_eq!(w.len(), h.len());
                let mut ids: Vec<u32> = w.iter().map(|id| id.0).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), h.len());
            }
        }
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
