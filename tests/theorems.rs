//! Integration: Lemma 1 and Theorems 1–5, 7 on the simulated
//! multiprocessor, including the randomized positive sweeps over
//! generated programs.

use jungle::core::model::{Alpha, Relaxed, Sc};
use jungle::mc::program::GenConfig;
use jungle::mc::theorems::{all_fixed_experiments, random_sweep};
use jungle::mc::verify::CheckKind;
use jungle::mc::{GlobalLockTm, VersionedTm, WriteTxnTm};
use jungle::mc::{ModelEntry, SweepSeeds};

#[test]
fn all_fixed_experiments_pass() {
    for e in all_fixed_experiments() {
        let r = e.run(SweepSeeds::new(0, 2_000), 8_000);
        assert!(r.passed, "{} [{}]: {}", e.id, e.paper_ref, r.detail);
    }
}

fn sweep_cfg() -> GenConfig {
    GenConfig {
        threads: 2,
        vars: 2,
        max_stmts: 2,
        max_txn_ops: 2,
        txn_pct: 60,
        abort_pct: 20,
    }
}

#[test]
fn thm3_random_program_sweep() {
    // Theorem 3: the Figure 6 TM is opaque parametrized by the fully
    // relaxed model, over randomly generated programs and schedules.
    let checked = random_sweep(
        &GlobalLockTm,
        &ModelEntry::checker_game(&Relaxed),
        CheckKind::Opacity,
        25,
        12,
        &sweep_cfg(),
    )
    .unwrap_or_else(|e| panic!("Theorem 3 sweep failed: {e}"));
    assert!(checked >= 25 * 6, "too few completed runs: {checked}");
}

#[test]
fn thm4_random_program_sweep() {
    // Theorem 4: writes-as-transactions, opaque for M ∉ Mrr (Alpha).
    let checked = random_sweep(
        &WriteTxnTm,
        &ModelEntry::checker_game(&Alpha),
        CheckKind::Opacity,
        20,
        10,
        &sweep_cfg(),
    )
    .unwrap_or_else(|e| panic!("Theorem 4 sweep failed: {e}"));
    assert!(checked > 0);
}

#[test]
fn thm5_random_program_sweep() {
    // Theorem 5: constant-time write instrumentation, opaque for
    // M ∉ Mrr ∪ Mwr (Alpha).
    let checked = random_sweep(
        &VersionedTm,
        &ModelEntry::checker_game(&Alpha),
        CheckKind::Opacity,
        20,
        10,
        &sweep_cfg(),
    )
    .unwrap_or_else(|e| panic!("Theorem 5 sweep failed: {e}"));
    assert!(checked > 0);
}

#[test]
fn thm7_sgla_random_program_sweep_under_sc() {
    // Theorem 7: the global-lock TM guarantees SGLA for *every* model;
    // SC is the strongest, so it is the binding case.
    let checked = random_sweep(
        &GlobalLockTm,
        &ModelEntry::checker_game(&Sc),
        CheckKind::Sgla,
        20,
        10,
        &sweep_cfg(),
    )
    .unwrap_or_else(|e| panic!("Theorem 7 sweep failed: {e}"));
    assert!(checked > 0);
}

#[test]
fn thm3_exhaustive_on_aborting_program() {
    // Aborted transactions must also observe consistent states and
    // leak nothing — exhaustively on a small program.
    use jungle::core::ids::{X, Y};
    use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
    use jungle::mc::verify::check_all_traces;

    // Keep the program tiny: exhaustive exploration is exponential in
    // the interleaving width (the Y-write variant of this program has
    // ~50M schedules; this one has a few thousand).
    let program = Program(vec![
        ThreadProg(vec![Stmt::aborting_txn(vec![TxOp::Write(X, 9)])]),
        ThreadProg(vec![Stmt::NtRead(X), Stmt::NtRead(X)]),
    ]);
    let v = check_all_traces(
        &program,
        &GlobalLockTm,
        &ModelEntry::checker_game(&Relaxed),
        CheckKind::Opacity,
        4_000,
    );
    assert!(v.ok, "aborted-txn leak: {:?}", v.violation);
    assert!(v.runs > 10, "exploration too shallow: {} runs", v.runs);
    let _ = Y;
}

#[test]
fn small_scope_exhaustive_thm3_and_thm7() {
    use jungle::mc::theorems::small_scope_sweep;
    // Theorem 3: every tiny two-thread program, every schedule (random
    // sampling only for the lock-contended txn×txn pairs).
    let runs = small_scope_sweep(
        &GlobalLockTm,
        &ModelEntry::checker_game(&Relaxed),
        CheckKind::Opacity,
        4_000,
    )
    .unwrap_or_else(|e| panic!("Theorem 3 small-scope sweep failed: {e}"));
    assert!(runs > 1_000, "suspiciously few runs: {runs}");
    // Theorem 7 under SC (the strongest SGLA case).
    let runs = small_scope_sweep(
        &GlobalLockTm,
        &ModelEntry::checker_game(&Sc),
        CheckKind::Sgla,
        4_000,
    )
    .unwrap_or_else(|e| panic!("Theorem 7 small-scope sweep failed: {e}"));
    assert!(runs > 1_000);
}

#[test]
fn small_scope_exhaustive_thm5() {
    use jungle::mc::theorems::small_scope_sweep;
    let runs = small_scope_sweep(
        &VersionedTm,
        &ModelEntry::checker_game(&Alpha),
        CheckKind::Opacity,
        4_000,
    )
    .unwrap_or_else(|e| panic!("Theorem 5 small-scope sweep failed: {e}"));
    assert!(runs > 1_000);
}

#[test]
fn versioned_vs_naive_on_theorem2_scenario() {
    // The same program under the versioned TM (CAS on packed words) is
    // correct where the naive store-based TM is not — even under the
    // fully relaxed model.
    use jungle::core::ids::X;
    use jungle::mc::program::{Program, Stmt, ThreadProg, TxOp};
    use jungle::mc::verify::{Schedules, Sweep, SweepSeeds};
    use jungle::mc::NaiveStoreTm;

    let program = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![TxOp::Read(X), TxOp::Write(X, 7)])]),
        ThreadProg(vec![
            Stmt::NtWrite(X, 3),
            Stmt::NtRead(X),
            Stmt::txn(vec![]),
            Stmt::NtRead(X),
        ]),
    ]);
    let naive = Sweep {
        schedules: Schedules::Random(SweepSeeds::new(0, 2_000)),
        ..Sweep::new(
            &program,
            &NaiveStoreTm,
            &ModelEntry::checker_game(&Relaxed),
            CheckKind::Opacity,
            8_000,
        )
    }
    .run()
    .violation;
    assert!(
        naive.is_some(),
        "Theorem 2: naive store-based TM must violate"
    );

    let versioned = Sweep {
        schedules: Schedules::Random(SweepSeeds::new(0, 2_000)),
        ..Sweep::new(
            &program,
            &VersionedTm,
            &ModelEntry::checker_game(&Relaxed),
            CheckKind::Opacity,
            8_000,
        )
    }
    .run();
    assert!(
        versioned.ok,
        "versioned TM violated: {:?}",
        versioned.violation
    );
}
