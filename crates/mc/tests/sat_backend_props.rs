//! The SAT-backend property the workspace-level table test
//! (`tests/check_agreement.rs`: corpus × registry × kind × backend ×
//! workers, digests pinned at the pre-`Check` commit) does not cover:
//! the empty-core fast path.

use jungle_core::encode::check_opacity_sat_traced;
use jungle_litmus::stress::wide_unsat_history;

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
