//! Counters for the SAT serialization-order backend.
//!
//! `jungle_core::encode` compiles the opacity/SGLA order search into
//! CNF, solves it with `jungle-sat`, and certifies every model against
//! the DFS legality checker. This is the serializable record of that
//! work: encoding sizes, CDCL effort, CEGAR refinement rounds, and a
//! per-check wall-clock histogram ([`HistSnapshot`]), aggregated the
//! same way as the other sections of
//! [`MetricsSnapshot`](crate::snapshot::MetricsSnapshot).

use crate::hist::HistSnapshot;
use crate::json::{Json, ToJson};

/// Aggregated SAT-backend counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SatStats {
    /// SAT-backed checks completed (one per history × kind).
    pub solved: u64,
    /// Positive verdicts whose decoded witness was re-validated by the
    /// DFS legality routine (must equal the number of positive
    /// verdicts — a SAT "yes" is never trusted uncertified).
    pub certified: u64,
    /// CEGAR refinement rounds (solver models rejected by
    /// certification and blocked with a minimal core).
    pub cegar_rounds: u64,
    /// Order variables allocated across all encodings.
    pub vars: u64,
    /// Input clauses encoded (totality/transitivity/precedence plus
    /// blocking clauses; learned clauses are counted separately).
    pub clauses: u64,
    /// CDCL branching decisions.
    pub decisions: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Solver restarts.
    pub restarts: u64,
    /// Clauses learned from conflicts.
    pub learned: u64,
    /// Per-check wall time, nanoseconds.
    pub wall: HistSnapshot,
}

impl SatStats {
    /// Merge another run's counters into this one.
    pub fn absorb(&mut self, other: &SatStats) {
        self.solved += other.solved;
        self.certified += other.certified;
        self.cegar_rounds += other.cegar_rounds;
        self.vars += other.vars;
        self.clauses += other.clauses;
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.wall.absorb(&other.wall);
    }
}

impl ToJson for SatStats {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("solved", self.solved.into())
            .push("certified", self.certified.into())
            .push("cegar_rounds", self.cegar_rounds.into())
            .push("vars", self.vars.into())
            .push("clauses", self.clauses.into())
            .push("decisions", self.decisions.into())
            .push("conflicts", self.conflicts.into())
            .push("propagations", self.propagations.into())
            .push("restarts", self.restarts.into())
            .push("learned", self.learned.into())
            .push("wall", self.wall.to_json());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_merges_hist() {
        let mut a = SatStats {
            solved: 1,
            conflicts: 3,
            ..Default::default()
        };
        a.wall.record(100);
        let mut b = SatStats {
            solved: 2,
            certified: 1,
            ..Default::default()
        };
        b.wall.record(5_000);
        a.absorb(&b);
        assert_eq!(a.solved, 3);
        assert_eq!(a.certified, 1);
        assert_eq!(a.conflicts, 3);
        assert_eq!(a.wall.count, 2);
        assert_eq!(a.wall.max, 5_000);
    }
}
