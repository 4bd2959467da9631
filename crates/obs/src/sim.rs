//! Statistics for the relaxed-memory simulator and the model-checking
//! layer built on it.

use crate::counters::counters;
use crate::json::{Json, ToJson};

counters! {
    /// Counters for one simulated machine run (or a sum over many runs —
    /// see [`MachineStats::absorb`]).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct MachineStats {
        /// Scheduler steps executed (instruction executions + drains).
        sum steps: u64,
        /// Load instructions executed.
        sum loads: u64,
        /// Store instructions executed (into the store buffer).
        sum stores: u64,
        /// CAS instructions executed.
        sum cas_ops: u64,
        /// Store-buffer entries flushed to memory.
        sum flushes: u64,
        /// Loads that observed a stale (overwritten) value through the
        /// model's load reorder window.
        sum stale_loads: u64,
        /// Largest store-buffer occupancy observed on any CPU (the
        /// reorder-window high-water mark).
        max max_buffer_occupancy: u64,
    }
}

impl MachineStats {
    /// Record a store-buffer occupancy observation.
    #[inline]
    pub fn note_occupancy(&mut self, depth: usize) {
        self.max_buffer_occupancy = self.max_buffer_occupancy.max(depth as u64);
    }
}

counters! {
    /// Totals for a model-checking pass (exhaustive or randomized).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct McStats {
        /// Schedules explored (machine runs).
        sum schedules: u64,
        /// Runs cut off by the step bound before completing.
        sum truncated: u64,
        /// Histories extracted from traces and fed to a checker.
        sum histories_checked: u64,
        /// Completed traces skipped because a structurally identical trace
        /// (same operations and same overlap relation, per
        /// `Trace::cache_key`) was already checked in this sweep.
        sum dedup_hits: u64,
        /// Trace/history verdicts answered from the sweep-wide bounded
        /// memo instead of re-running a checker search.
        sum memo_hits: u64,
        /// Checker worker threads used by the sweep (0 = serial).
        max workers: u64,
        /// Machine runs executed by the DPOR explorer (0 when the sweep
        /// used brute enumeration instead).
        sum dpor_executed: u64,
        /// Mazurkiewicz equivalence classes the DPOR explorer visited
        /// (complete, non-sleep-blocked runs).
        sum dpor_classes: u64,
        /// DPOR runs aborted at a node whose every enabled action was
        /// asleep.
        sum dpor_blocked: u64,
        /// Enabled actions skipped because their footprint was in the sleep
        /// set.
        sum sleep_skips: u64,
        /// Dependent decisions of different CPUs that nothing but the
        /// schedule ordered, each pair counted once per exploration.
        sum races: u64,
        /// Machine-level totals across all runs.
        nest machine: MachineStats,
    }
}

/// Footprint-kind names indexing [`DporStats::race_heat`]. The
/// classification itself lives beside the race pass in
/// `jungle_mc::dpor::cursor` (this crate cannot see footprints); the
/// table here just fixes the vocabulary both sides share.
pub const FOOTPRINT_KINDS: [&str; 6] = ["read", "write", "rmw", "fence", "boundary", "other"];

/// Number of footprint kinds (side length of the heat table).
const KINDS: usize = FOOTPRINT_KINDS.len();

/// Race attribution for DPOR exploration: *which* footprint-kind
/// pairs race (and therefore open backtrack points). The aggregate
/// counters in [`McStats`] say how much work happened; this says where
/// the backtracking comes from.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DporStats {
    /// Races by footprint-kind pair: `race_heat[a][b]` counts racing
    /// transition pairs whose earlier member is kind `a` (see
    /// [`FOOTPRINT_KINDS`]) and later member kind `b`.
    pub race_heat: [[u64; KINDS]; KINDS],
}

impl DporStats {
    /// Record one racing pair by kind indices (clamped into range).
    pub fn note_race(&mut self, a: usize, b: usize) {
        self.race_heat[a.min(KINDS - 1)][b.min(KINDS - 1)] += 1;
    }

    /// Total races in the heat table.
    pub fn race_total(&self) -> u64 {
        self.race_heat.iter().flatten().sum()
    }

    /// Fold another exploration's heat table in, element-wise.
    pub fn absorb(&mut self, other: &DporStats) {
        for (a, row) in other.race_heat.iter().enumerate() {
            for (b, n) in row.iter().enumerate() {
                self.race_heat[a][b] += n;
            }
        }
    }
}

impl ToJson for DporStats {
    fn to_json(&self) -> Json {
        let mut heat: Vec<(u64, usize, usize)> = Vec::new();
        for (a, row) in self.race_heat.iter().enumerate() {
            for (b, &n) in row.iter().enumerate() {
                if n > 0 {
                    heat.push((n, a, b));
                }
            }
        }
        heat.sort_by(|x, y| y.cmp(x)); // hottest pair first
        let mut j = Json::obj();
        j.push(
            "race_heat",
            Json::Arr(
                heat.into_iter()
                    .map(|(n, a, b)| {
                        let mut e = Json::obj();
                        e.push("a", FOOTPRINT_KINDS[a].into())
                            .push("b", FOOTPRINT_KINDS[b].into())
                            .push("races", n.into());
                        e
                    })
                    .collect(),
            ),
        );
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_absorb() {
        let mut a = MachineStats {
            steps: 10,
            flushes: 2,
            max_buffer_occupancy: 3,
            ..Default::default()
        };
        a.absorb(&MachineStats {
            steps: 5,
            max_buffer_occupancy: 7,
            ..Default::default()
        });
        assert_eq!(a.steps, 15);
        assert_eq!(a.flushes, 2);
        assert_eq!(a.max_buffer_occupancy, 7);
    }

    #[test]
    fn mc_json_nests_machine() {
        let s = McStats {
            schedules: 4,
            histories_checked: 4,
            ..Default::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("schedules"), Some(&Json::U64(4)));
        assert!(j.get("machine").is_some());
    }

    #[test]
    fn dpor_stats_heat_merges() {
        let mut s = DporStats::default();
        s.note_race(0, 1);
        s.note_race(0, 1);
        s.note_race(1, 1);
        s.note_race(99, 99); // clamps into "other"
        assert_eq!(s.race_total(), 4);
        let mut t = DporStats::default();
        t.note_race(0, 1);
        s.absorb(&t);
        assert_eq!(s.race_heat[0][1], 3);
        assert_eq!(s.race_heat[KINDS - 1][KINDS - 1], 1);
        assert_eq!(s.race_total(), 5);
    }

    #[test]
    fn dpor_stats_json_shape() {
        let mut s = DporStats::default();
        s.note_race(1, 1);
        let j = s.to_json();
        let Json::Obj(fields) = &j else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["race_heat"]);
        let Some(Json::Arr(heat)) = j.get("race_heat") else {
            panic!("race_heat missing")
        };
        assert_eq!(heat.len(), 1);
        assert_eq!(heat[0].get("a").unwrap().as_str(), Some("write"));
    }

    #[test]
    fn machine_table_drives_absorb_and_json() {
        MachineStats::check_table();
    }

    #[test]
    fn mc_table_drives_absorb_and_json() {
        McStats::check_table();
    }
}
