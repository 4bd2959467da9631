//! Per-algorithm TM runtime counts.
//!
//! [`TmSnapshot`] is a plain value the model-checking layer fills by
//! classifying the instructions of interpreter traces
//! (`jungle_mc::obs::tm_counts_from_trace`); `report` prints one per
//! algorithm as `metrics.stms`. The real-thread STMs of `jungle-stm`
//! keep no shared counters: their commits and aborts are on each
//! thread's `Ctx`, their retries and CAS failures in the flight
//! recorder ([`crate::trace`]).

use crate::counters::counters;

counters! {
    /// Operation counts of one TM algorithm, derived from traces.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct TmSnapshot {
        /// Transactions committed.
        sum commits: u64,
        /// Transactions aborted.
        sum aborts: u64,
        /// CAS instructions that failed.
        sum cas_failures: u64,
        /// Successful lock acquisitions (global lock or per-var locks).
        sum lock_acquisitions: u64,
        /// Spin-loop iterations while waiting for a lock.
        sum lock_spins: u64,
        /// Transactional reads.
        sum txn_reads: u64,
        /// Transactional writes.
        sum txn_writes: u64,
        /// Non-transactional ops that ran extra instrumentation.
        sum nontxn_instrumented: u64,
        /// Non-transactional ops compiled to the bare access.
        sum nontxn_uninstrumented: u64,
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

    #[test]
    fn table_drives_absorb_and_json() {
        TmSnapshot::check_table();
    }
}
