//! The top-level serializable metrics aggregate.

use crate::json::{Json, ToJson};
use crate::monitor::MonitorStats;
use crate::sat::SatStats;
use crate::search::SearchStats;
use crate::sim::McStats;

/// Everything the workspace knows how to measure, gathered into one
/// serializable value. Sections are independent: a producer fills in
/// what it ran and leaves the rest empty.
///
/// With no `serde` available offline, serialization is via
/// [`ToJson`]; `snapshot.to_json().to_string()` yields a compact JSON
/// object with stable key order.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// Checker search stats, keyed by a caller-chosen label (for the
    /// report: one entry per litmus figure).
    pub checker: Vec<(String, SearchStats)>,
    /// Model-checking totals, if a verification pass ran.
    pub mc: Option<McStats>,
    /// Streaming-monitor totals, if a monitoring run happened.
    pub monitor: Option<MonitorStats>,
    /// SAT-backend totals, if any SAT-backed checks ran.
    pub sat: Option<SatStats>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `stats` into the checker entry labelled `label`, creating
    /// it if absent.
    pub fn record_checker(&mut self, label: &str, stats: &SearchStats) {
        match self.checker.iter_mut().find(|(l, _)| l == label) {
            Some((_, s)) => s.absorb(stats),
            None => self.checker.push((label.to_string(), *stats)),
        }
    }

    /// Fold model-checking totals into the `mc` section.
    pub fn record_mc(&mut self, stats: &McStats) {
        self.mc.get_or_insert_with(McStats::default).absorb(stats);
    }

    /// Fold streaming-monitor totals into the `monitor` section.
    pub fn record_monitor(&mut self, stats: &MonitorStats) {
        self.monitor
            .get_or_insert_with(MonitorStats::default)
            .absorb(stats);
    }

    /// Fold SAT-backend totals into the `sat` section.
    pub fn record_sat(&mut self, stats: &SatStats) {
        self.sat.get_or_insert_with(SatStats::default).absorb(stats);
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        let mut checker = Json::obj();
        for (label, stats) in &self.checker {
            checker.push(label, stats.to_json());
        }
        let mut j = Json::obj();
        j.push("checker", checker)
            .push("mc", self.mc.as_ref().map_or(Json::Null, ToJson::to_json))
            .push(
                "monitor",
                self.monitor.as_ref().map_or(Json::Null, ToJson::to_json),
            )
            .push("sat", self.sat.as_ref().map_or(Json::Null, ToJson::to_json));
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_merges_by_key() {
        let mut m = MetricsSnapshot::new();
        m.record_checker(
            "fig1",
            &SearchStats {
                nodes: 2,
                searches: 1,
                ..Default::default()
            },
        );
        m.record_checker(
            "fig1",
            &SearchStats {
                nodes: 3,
                searches: 1,
                ..Default::default()
            },
        );
        m.record_checker("fig2", &SearchStats::default());
        assert_eq!(m.checker.len(), 2);
        assert_eq!(m.checker[0].1.nodes, 5);
        assert_eq!(m.checker[0].1.searches, 2);
    }

    #[test]
    fn json_shape() {
        let mut m = MetricsSnapshot::new();
        m.record_mc(&McStats {
            schedules: 9,
            ..Default::default()
        });
        let j = m.to_json();
        assert!(j.get("checker").is_some());
        assert_eq!(
            j.get("mc").and_then(|mc| mc.get("schedules")),
            Some(&Json::U64(9))
        );
        // Empty sections serialize as {} / null, still valid JSON.
        let text = MetricsSnapshot::new().to_json().to_string();
        assert_eq!(
            text,
            r#"{"checker":{},"mc":null,"monitor":null,"sat":null}"#
        );
    }

    #[test]
    fn sat_section_folds_and_serializes() {
        let mut m = MetricsSnapshot::new();
        m.record_sat(&SatStats {
            solved: 2,
            conflicts: 5,
            ..Default::default()
        });
        m.record_sat(&SatStats {
            solved: 1,
            certified: 1,
            ..Default::default()
        });
        let j = m.to_json();
        let sat = j.get("sat").expect("sat section");
        assert_eq!(sat.get("solved"), Some(&Json::U64(3)));
        assert_eq!(sat.get("certified"), Some(&Json::U64(1)));
        assert_eq!(sat.get("conflicts"), Some(&Json::U64(5)));
    }

    #[test]
    fn monitor_section_folds_and_serializes() {
        let mut m = MetricsSnapshot::new();
        m.record_monitor(&MonitorStats {
            ops_ingested: 10,
            windows_sealed: 2,
            ..Default::default()
        });
        m.record_monitor(&MonitorStats {
            ops_ingested: 5,
            escalated: 1,
            windows_sealed: 1,
            ..Default::default()
        });
        let j = m.to_json();
        let mon = j.get("monitor").expect("monitor section");
        assert_eq!(mon.get("ops_ingested"), Some(&Json::U64(15)));
        assert_eq!(mon.get("windows_sealed"), Some(&Json::U64(3)));
        assert_eq!(mon.get("escalated"), Some(&Json::U64(1)));
    }
}
