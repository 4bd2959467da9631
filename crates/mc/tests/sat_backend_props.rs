//! SAT-backend properties the workspace-level table test
//! (`tests/check_agreement.rs`: corpus × registry × kind × backend ×
//! workers, digests pinned at the pre-`Check` commit) does not cover:
//! the empty-core fast path, and backend independence of whole sweeps.

use jungle_core::encode::check_opacity_sat_traced;
use jungle_core::registry::registry;
use jungle_litmus::stress::wide_unsat_history;
use jungle_mc::CheckKind;

#[test]
fn wide_unsat_refutes_in_one_round() {
    // The S = ∅ fast path: a history with no witness even before any
    // order constraints must be refuted without enumerating orders.
    for p in 2..=4 {
        let h = wide_unsat_history(p);
        let (v, stats) = check_opacity_sat_traced(&h, &jungle_core::model::Sc);
        assert!(!v.is_opaque());
        assert_eq!(
            stats.cegar_rounds, 1,
            "p={p}: empty-core refutation should need exactly one round"
        );
    }
}

#[test]
fn sweep_verdicts_are_backend_independent() {
    use jungle_core::ids::Var;
    use jungle_mc::{
        check_all_traces, CheckBackend, GlobalLockTm, Program, Stmt, Sweep, ThreadProg, TxOp,
    };
    // The Figure-1 message-pass shape: one transaction writes x then y;
    // the other thread reads y then x non-transactionally.
    let program = Program(vec![
        ThreadProg(vec![Stmt::txn(vec![
            TxOp::Write(Var(0), 1),
            TxOp::Write(Var(1), 1),
        ])]),
        ThreadProg(vec![Stmt::NtRead(Var(1)), Stmt::NtRead(Var(0))]),
    ]);
    for e in registry()
        .iter()
        .filter(|e| e.key == "SC" || e.key == "TSO")
    {
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            let dfs = check_all_traces(&program, &GlobalLockTm, e, kind, 200);
            let sat = Sweep {
                backend: CheckBackend::Sat,
                ..Sweep::new(&program, &GlobalLockTm, e, kind, 200)
            }
            .run();
            assert_eq!(
                dfs.ok, sat.ok,
                "sweep verdict diverged for {} {kind:?}",
                e.key
            );
        }
    }
}
