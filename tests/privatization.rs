//! Integration: the §1 privatization idiom, end to end — simulator,
//! formal checker, and real STMs (including the strong STM's *private*
//! record state).

use jungle::core::model::{Relaxed, Sc};
use jungle::mc::theorems::{
    privatization_program, privatization_safe_global_lock, privatization_safe_strong,
    privatization_unsafe_lazy_tl2,
};
use jungle::mc::verify::CheckKind;
use jungle::mc::{ModelEntry, SweepSeeds};
use jungle::stm::api::{atomically, Ctx};
use jungle::stm::{StrongStm, TmAlgo};
use jungle_core::ids::ProcId;
use std::sync::Arc;

#[test]
fn lazy_tl2_privatization_violation_found() {
    let r = privatization_unsafe_lazy_tl2().run(SweepSeeds::new(0, 4_000), 20_000);
    assert!(r.passed, "{}", r.detail);
}

#[test]
fn lazy_tl2_privatization_violates_even_sgla() {
    // The delayed write-back history is not even SGLA: the violation is
    // not about transactional isolation at all.
    use jungle::mc::verify::{Schedules, Sweep, SweepSeeds};
    use jungle::mc::LazyTl2Tm;
    let found = Sweep {
        schedules: Schedules::Random(SweepSeeds::new(0, 4_000)),
        ..Sweep::new(
            &privatization_program(),
            &LazyTl2Tm,
            &ModelEntry::checker_game(&Relaxed),
            CheckKind::Sgla,
            20_000,
        )
    }
    .run()
    .violation;
    assert!(found.is_some(), "expected an SGLA violation for lazy TL2");
}

#[test]
fn strong_and_global_lock_privatization_safe() {
    let r = privatization_safe_strong().run(SweepSeeds::new(0, 400), 30_000);
    assert!(r.passed, "{}", r.detail);
    let r = privatization_safe_global_lock().run(SweepSeeds::new(0, 400), 30_000);
    assert!(r.passed, "{}", r.detail);
}

#[test]
fn real_strong_stm_private_state_idiom() {
    // The §6.1 private state on the real STM: privatize → plain access
    // → publish, with a concurrent transactional mutator that must
    // never slip a write into the private window.
    let tm = Arc::new(StrongStm::new(2));
    const DATA: usize = 0;
    const ROUNDS: u64 = 200;

    let mutator = {
        let tm = tm.clone();
        std::thread::spawn(move || {
            let mut cx = Ctx::new(ProcId(1), None);
            for i in 0..2_000 {
                atomically(tm.as_ref(), &mut cx, |tx| tx.write(DATA, 1_000 + i));
            }
        })
    };

    let mut cx = Ctx::new(ProcId(0), None);
    for r in 0..ROUNDS {
        tm.privatize(&mut cx, DATA);
        // While private, our plain writes are unclobberable.
        tm.private_write(&cx, DATA, r);
        assert_eq!(tm.private_read(&cx, DATA), r, "private datum clobbered");
        tm.private_write(&cx, DATA, r + 1);
        assert_eq!(tm.private_read(&cx, DATA), r + 1);
        tm.publish(&mut cx, DATA);
    }
    mutator.join().unwrap();
    // After everything, the datum holds either the last private value
    // or a mutator value — but it is always a value someone wrote.
    let v = tm.nt_read(&mut cx, DATA);
    assert!(
        v == ROUNDS || (1_000..3_000).contains(&v),
        "out-of-thin-air value {v}"
    );
}

#[test]
fn strong_stm_guarded_privatization_program() {
    // The guarded-transaction program from the mc experiments, run on
    // the real strong STM: the privatizer's plain write always survives.
    use jungle::litmus::runner::sample_outcomes;
    let program = privatization_program();
    let outcomes = sample_outcomes(&program, || StrongStm::new(2), 150);
    for (out, n) in &outcomes {
        // Thread 1 (privatizer) reads: [flag inside txn, final nt read].
        let final_read = *out[1].last().unwrap();
        assert_eq!(
            final_read, 100,
            "privatized datum clobbered in {n} runs: outcome {out:?}"
        );
    }
}

#[test]
fn sc_opacity_distinguishes_strong_from_global_lock_here() {
    // Sanity tying the experiments together: on the privatization
    // program the strong TM is SC-opaque while the Figure 6 TM is only
    // SGLA (its uninstrumented accesses admit SC-opacity violations in
    // principle — Theorem 1 — though this particular program may not
    // exhibit one; we only assert the strong TM's positive claim).
    let r = privatization_safe_strong().run(SweepSeeds::new(0, 200), 30_000);
    assert!(r.passed, "{}", r.detail);
    let _ = Sc; // (model referenced for documentation purposes)
}
