//! Counters for the streaming opacity monitor.
//!
//! One [`MonitorStats`] block summarizes a monitoring run: how many
//! operation events were ingested (how many of them were
//! non-transactional, which no window judges yet, and how many the tap
//! dropped — both always *counted*, never silent), how many windows
//! were sealed, how the triage tier did (cleared vs escalated to the
//! full checker, memo hits among the full checks), violations found
//! and the deepest queue backlog observed. Every field counts; the time a run takes is
//! measured by whoever drives it. The monitor crate fills it in;
//! [`MetricsSnapshot`](crate::MetricsSnapshot) carries it into the
//! report JSON and the run ledger.

use crate::counters::counters;

counters! {
    /// Aggregated counters of one streaming-monitor run.
    #[derive(Clone, Default, PartialEq, Debug)]
    pub struct MonitorStats {
        /// Operation events ingested from the tap ring.
        sum ops_ingested: u64,
        /// Non-transactional events among them, which no window
        /// judges: windows check the transactional sub-history.
        sum nontxn_skipped: u64,
        /// Events the tap ring dropped under [`Backpressure::Drop`]
        /// (exact; `0` under `Block`).
        ///
        /// [`Backpressure::Drop`]: crate::ring::Backpressure::Drop
        sum events_dropped: u64,
        /// Windows sealed and checked.
        sum windows_sealed: u64,
        /// Windows the polynomial triage tier proved opaque.
        sum triage_cleared: u64,
        /// Windows escalated to the full backtracking checker (once per
        /// window, however many full checks its second chance takes).
        sum escalated: u64,
        /// Full checks answered by the shared verdict memo instead of a
        /// fresh search (a window given the second chance may take two).
        sum memo_hits: u64,
        /// Windows the full checker found in violation.
        sum violations: u64,
        /// Deepest tap-ring backlog observed at a drain poll: sampled
        /// before every drain of `jungle_monitor::Monitor::run` that
        /// took events (0 for a monitor fed event by event).
        max max_queue_depth: u64,
    }
}

impl MonitorStats {
    /// Fraction of sealed windows that escaped the triage tier
    /// (`escalated / windows_sealed`), `0` when nothing was sealed.
    pub fn escalation_rate(&self) -> f64 {
        if self.windows_sealed == 0 {
            0.0
        } else {
            self.escalated as f64 / self.windows_sealed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{Json, ToJson};

    #[test]
    fn escalation_rate() {
        let mut s = MonitorStats::default();
        assert_eq!(s.escalation_rate(), 0.0);
        s.windows_sealed = 100;
        s.escalated = 3;
        assert!((s.escalation_rate() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = MonitorStats {
            ops_ingested: 10,
            windows_sealed: 2,
            max_queue_depth: 5,
            ..Default::default()
        };
        let b = MonitorStats {
            ops_ingested: 7,
            windows_sealed: 1,
            escalated: 1,
            max_queue_depth: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.ops_ingested, 17);
        assert_eq!(a.windows_sealed, 3);
        assert_eq!(a.escalated, 1);
        assert_eq!(a.max_queue_depth, 5);
    }

    #[test]
    fn json_has_counters() {
        let s = MonitorStats {
            ops_ingested: 4,
            windows_sealed: 2,
            escalated: 1,
            ..Default::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("ops_ingested"), Some(&Json::U64(4)));
        assert_eq!(j.get("events_dropped"), Some(&Json::U64(0)));
    }

    #[test]
    fn table_drives_absorb_and_json() {
        MonitorStats::check_table();
    }
}
