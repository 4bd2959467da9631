//! The SAT-backend property the workspace-level table test
//! (`tests/check_agreement.rs`: corpus × registry × kind × backend ×
//! workers, digests pinned at the pre-`Check` commit) does not cover:
//! the empty-core fast path.

use jungle_core::check::{Check, CheckBackend, CheckKind};
use jungle_core::encode::check_opacity_sat_traced;
use jungle_core::model::Sc;
use jungle_litmus::stress::{wide_split_unsat_history, wide_unsat_history};

#[test]
fn wide_unsat_refutes_in_one_round() {
    // A read of a value nobody wrote: saturation refutes it before the
    // solver runs, still one solved query.
    let sat = Check {
        backend: CheckBackend::Sat,
        ..Check::new(CheckKind::Opacity)
    };
    for p in 2..=4 {
        let (v, stats) = sat.run(&wide_unsat_history(p), &Sc);
        assert!(!v.is_opaque());
        assert_eq!((stats.search.nodes, stats.search.cycle_refutes), (0, 1));
        assert_eq!((stats.sat.solved, stats.sat.cegar_rounds), (1, 0), "p={p}");
    }
    // The S = ∅ fast path: a history with no witness even before any
    // order constraints, which saturation leaves to the solver, must be
    // refuted without enumerating orders.
    for p in 3..=5 {
        let h = wide_split_unsat_history(p);
        let (v, stats) = check_opacity_sat_traced(&h, &Sc);
        assert!(!v.is_opaque());
        assert_eq!(
            stats.cegar_rounds, 1,
            "p={p}: empty-core refutation should need exactly one round"
        );
    }
}
