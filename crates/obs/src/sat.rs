//! Counters for the SAT serialization-order backend.
//!
//! `jungle_core::encode` compiles the opacity/SGLA order search into
//! CNF, solves it with `jungle-sat`, and certifies every model against
//! the DFS legality checker. This is the serializable record of that
//! work: encoding sizes, CDCL effort and CEGAR refinement rounds,
//! aggregated the same way as the other sections of
//! [`MetricsSnapshot`](crate::snapshot::MetricsSnapshot).

use crate::counters::counters;

counters! {
    /// Aggregated SAT-backend counters.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SatStats {
        /// SAT-backed checks completed (one per history × kind).
        sum solved: u64,
        /// Positive verdicts whose decoded witness was re-validated by the
        /// DFS legality routine (must equal the number of positive
        /// verdicts — a SAT "yes" is never trusted uncertified).
        sum certified: u64,
        /// CEGAR refinement rounds (solver models rejected by
        /// certification and blocked with a minimal core).
        sum cegar_rounds: u64,
        /// Order variables allocated across all encodings.
        sum vars: u64,
        /// Input clauses encoded (totality/transitivity/precedence plus
        /// blocking clauses; learned clauses are counted separately).
        sum clauses: u64,
        /// CDCL branching decisions.
        sum decisions: u64,
        /// CDCL conflicts.
        sum conflicts: u64,
        /// Literals enqueued by unit propagation.
        sum propagations: u64,
        /// Solver restarts.
        sum restarts: u64,
        /// Clauses learned from conflicts.
        sum learned: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = SatStats {
            solved: 1,
            conflicts: 3,
            ..Default::default()
        };
        let b = SatStats {
            solved: 2,
            certified: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.solved, 3);
        assert_eq!(a.certified, 1);
        assert_eq!(a.conflicts, 3);
    }

    #[test]
    fn table_drives_absorb_and_json() {
        SatStats::check_table();
    }
}
