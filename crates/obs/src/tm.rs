//! Per-algorithm TM runtime counts.
//!
//! [`TmSnapshot`] is a plain value the model-checking layer fills by
//! classifying the instructions of interpreter traces
//! (`jungle_mc::obs::tm_counts_from_trace`); `report` prints one per
//! algorithm as `metrics.stms`. The real-thread STMs of `jungle-stm`
//! keep no shared counters: their commits and aborts are on each
//! thread's `Ctx`, their retries and CAS failures in the flight
//! recorder ([`crate::trace`]).

use crate::json::{Json, ToJson};

/// Operation counts of one TM algorithm, derived from traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TmSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
    /// CAS instructions that failed.
    pub cas_failures: u64,
    /// Successful lock acquisitions (global lock or per-var locks).
    pub lock_acquisitions: u64,
    /// Spin-loop iterations while waiting for a lock.
    pub lock_spins: u64,
    /// Transactional reads.
    pub txn_reads: u64,
    /// Transactional writes.
    pub txn_writes: u64,
    /// Non-transactional ops that ran extra instrumentation.
    pub nontxn_instrumented: u64,
    /// Non-transactional ops compiled to the bare access.
    pub nontxn_uninstrumented: u64,
}

impl TmSnapshot {
    /// Fold another snapshot into this one (all fields add).
    pub fn absorb(&mut self, other: &TmSnapshot) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.cas_failures += other.cas_failures;
        self.lock_acquisitions += other.lock_acquisitions;
        self.lock_spins += other.lock_spins;
        self.txn_reads += other.txn_reads;
        self.txn_writes += other.txn_writes;
        self.nontxn_instrumented += other.nontxn_instrumented;
        self.nontxn_uninstrumented += other.nontxn_uninstrumented;
    }
}

impl ToJson for TmSnapshot {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("commits", self.commits.into())
            .push("aborts", self.aborts.into())
            .push("cas_failures", self.cas_failures.into())
            .push("lock_acquisitions", self.lock_acquisitions.into())
            .push("lock_spins", self.lock_spins.into())
            .push("txn_reads", self.txn_reads.into())
            .push("txn_writes", self.txn_writes.into())
            .push("nontxn_instrumented", self.nontxn_instrumented.into())
            .push("nontxn_uninstrumented", self.nontxn_uninstrumented.into());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fields() {
        let mut a = TmSnapshot {
            commits: 1,
            cas_failures: 2,
            ..Default::default()
        };
        a.absorb(&TmSnapshot {
            commits: 3,
            lock_spins: 4,
            ..Default::default()
        });
        assert_eq!(a.commits, 4);
        assert_eq!(a.cas_failures, 2);
        assert_eq!(a.lock_spins, 4);
    }
}
