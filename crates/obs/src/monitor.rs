//! Counters for the streaming opacity monitor.
//!
//! One [`MonitorStats`] block summarizes a monitoring run: how many
//! operation events were ingested (and how many the tap dropped, which
//! is always *counted*, never silent), how many windows were sealed,
//! how the triage tier did (cleared vs escalated to the full checker,
//! memo hits among escalations), violations found, the deepest queue
//! backlog observed, and where the time went. The monitor crate fills
//! it in; [`MetricsSnapshot`](crate::MetricsSnapshot) carries it into
//! the report JSON and the run ledger.

use crate::counters::counters;
use crate::hist::HistSnapshot;
use crate::json::Json;

counters! {
    /// Aggregated counters of one streaming-monitor run.
    #[derive(Clone, Default, PartialEq, Debug)]
    pub struct MonitorStats {
        /// Operation events ingested from the tap ring.
        sum ops_ingested: u64,
        /// Events the tap ring dropped under [`Backpressure::Drop`]
        /// (exact; `0` under `Block`).
        ///
        /// [`Backpressure::Drop`]: crate::ring::Backpressure::Drop
        sum events_dropped: u64,
        /// Windows sealed and checked.
        sum windows_sealed: u64,
        /// Windows the polynomial triage tier proved opaque.
        sum triage_cleared: u64,
        /// Windows escalated to the full backtracking checker.
        sum escalated: u64,
        /// Escalations answered by the shared verdict memo instead of a
        /// fresh search (subset of `escalated`).
        sum memo_hits: u64,
        /// Windows the full checker found in violation.
        sum violations: u64 => escalation_rate: Json::F64,
        /// Deepest tap-ring backlog observed at a window seal.
        max max_queue_depth: u64,
        /// Wall-clock nanoseconds of the whole monitoring run.
        sum wall_ns: u64 => p99_window_ns: Json::U64,
        /// Per-window triage latency distribution (one sample per sealed
        /// window); its `sum` is the time spent in the triage tier.
        nest triage_window_ns: HistSnapshot,
        /// Per-window escalation latency distribution (one sample per
        /// escalated check, memo hits included); its `sum` is the time
        /// spent in escalated full checks.
        nest escalate_window_ns: HistSnapshot,
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

    /// Ingested operations per second, `0` when no time was measured.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops_ingested as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Per-window check latency across both tiers: every window
    /// contributes its triage time, and escalated windows additionally
    /// contribute each full-check time.
    pub fn window_hist(&self) -> HistSnapshot {
        let mut h = self.triage_window_ns.clone();
        h.absorb(&self.escalate_window_ns);
        h
    }

    /// 99th-percentile per-window check latency (see
    /// [`window_hist`](Self::window_hist)); serialized as
    /// `p99_window_ns` in the `monitor` JSON section.
    pub fn p99_window_ns(&self) -> u64 {
        self.window_hist().p99()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn rates() {
        let mut s = MonitorStats::default();
        assert_eq!(s.escalation_rate(), 0.0);
        assert_eq!(s.ops_per_sec(), 0.0);
        s.windows_sealed = 100;
        s.escalated = 3;
        s.ops_ingested = 1_000;
        s.wall_ns = 500_000_000; // 0.5 s
        assert!((s.escalation_rate() - 0.03).abs() < 1e-12);
        assert!((s.ops_per_sec() - 2_000.0).abs() < 1e-6);
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
    fn json_has_rate_and_counters() {
        let s = MonitorStats {
            ops_ingested: 4,
            windows_sealed: 2,
            escalated: 1,
            ..Default::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("ops_ingested"), Some(&Json::U64(4)));
        assert_eq!(j.get("escalation_rate"), Some(&Json::F64(0.5)));
        assert_eq!(j.get("events_dropped"), Some(&Json::U64(0)));
        assert!(j.get("p99_window_ns").is_some());
        assert!(j.get("triage_window_ns").unwrap().get("count").is_some());
    }

    #[test]
    fn window_hist_merges_tiers() {
        let mut s = MonitorStats::default();
        for _ in 0..99 {
            s.triage_window_ns.record(1_000);
        }
        s.escalate_window_ns.record(1_000_000);
        let h = s.window_hist();
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 1_000_000);
        // The single slow escalation is exactly the tail percentile.
        assert!(s.p99_window_ns() >= s.triage_window_ns.p50());
        assert!(s.p99_window_ns() <= h.max);

        let mut t = MonitorStats::default();
        t.triage_window_ns.record(5);
        s.absorb(&t);
        assert_eq!(s.triage_window_ns.count, 100);
    }

    #[test]
    fn table_drives_absorb_and_json() {
        MonitorStats::check_table();
    }
}
