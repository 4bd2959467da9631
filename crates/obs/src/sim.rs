//! Statistics for the relaxed-memory simulator and the model-checking
//! layer built on it.

use crate::counters::counters;
use crate::hist::HistSnapshot;
use crate::json::{Json, ToJson};

counters! {
    /// Counters for one simulated machine run (or a sum over many runs —
    /// see [`MachineStats::absorb`]).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct MachineStats {
        /// Execution-semantics name the machine ran under (e.g. `"RMO"`);
        /// empty until a machine sets it.
        first model: &'static str,
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
        /// Registry key of the checker-side memory model the sweep verified
        /// against (e.g. `"RMO"`); empty until a sweep sets it.
        first model: &'static str,
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
        /// asleep (the waste the attribution in [`DporStats`] localizes).
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
pub const KINDS: usize = FOOTPRINT_KINDS.len();

counters! {
    /// One exploration's wall-clock ledger. The explorer is one serial
    /// search, so an exploration is one lane, busy all the time.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct WorkerLane {
        /// Nanoseconds spent executing machine runs and cursor bookkeeping.
        sum busy_ns: u64,
        /// Machine runs this lane executed.
        sum runs: u64,
    }
}

/// Waste attribution for DPOR exploration: *where* the sleep-blocked
/// probes cluster, *which* footprint-kind pairs race (and therefore
/// open backtrack points), and *how long* the explorer ran. The aggregate counters in [`McStats`] say how much work
/// happened; this says where the avoidable part lives.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DporStats {
    /// Runs aborted at a sleep-blocked node (must equal the sum of
    /// `blocked_by_depth` — the attribution is exhaustive).
    pub blocked: u64,
    /// Blocked probes by the tree depth of the blocked node
    /// (`blocked_by_depth[d]` counts probes blocked at depth `d`).
    pub blocked_by_depth: Vec<u64>,
    /// Races by footprint-kind pair: `race_heat[a][b]` counts racing
    /// transition pairs whose earlier member is kind `a` (see
    /// [`FOOTPRINT_KINDS`]) and later member kind `b`.
    pub race_heat: [[u64; KINDS]; KINDS],
    /// Per-lane wall-clock ledgers, merged by lane index across sweeps
    /// (an exploration is one lane).
    pub workers: Vec<WorkerLane>,
    /// Per-machine-run latency distribution.
    pub run_ns: HistSnapshot,
}

impl DporStats {
    /// Record one blocked probe at `depth`, keeping `blocked` and its
    /// per-depth attribution in lockstep.
    pub fn note_blocked(&mut self, depth: usize) {
        if self.blocked_by_depth.len() <= depth {
            self.blocked_by_depth.resize(depth + 1, 0);
        }
        self.blocked_by_depth[depth] += 1;
        self.blocked += 1;
    }

    /// Record one racing pair by kind indices (clamped into range).
    pub fn note_race(&mut self, a: usize, b: usize) {
        self.race_heat[a.min(KINDS - 1)][b.min(KINDS - 1)] += 1;
    }

    /// The depth with the most blocked probes (0 when none blocked).
    pub fn blocked_depth_mode(&self) -> u64 {
        self.blocked_by_depth
            .iter()
            .enumerate()
            .max_by_key(|&(d, n)| (*n, std::cmp::Reverse(d)))
            .filter(|&(_, n)| *n > 0)
            .map(|(d, _)| d as u64)
            .unwrap_or(0)
    }

    /// Total races in the heat table.
    pub fn race_total(&self) -> u64 {
        self.race_heat.iter().flatten().sum()
    }

    /// Fold another exploration's attribution in. Depth counts and the
    /// heat table add element-wise; worker lanes merge by index.
    pub fn absorb(&mut self, other: &DporStats) {
        self.blocked += other.blocked;
        if self.blocked_by_depth.len() < other.blocked_by_depth.len() {
            self.blocked_by_depth
                .resize(other.blocked_by_depth.len(), 0);
        }
        for (d, n) in other.blocked_by_depth.iter().enumerate() {
            self.blocked_by_depth[d] += n;
        }
        for (a, row) in other.race_heat.iter().enumerate() {
            for (b, n) in row.iter().enumerate() {
                self.race_heat[a][b] += n;
            }
        }
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerLane::default());
        }
        for (i, lane) in other.workers.iter().enumerate() {
            self.workers[i].absorb(lane);
        }
        self.run_ns.absorb(&other.run_ns);
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
        j.push("blocked", self.blocked.into())
            .push(
                "blocked_by_depth",
                Json::Arr(
                    self.blocked_by_depth
                        .iter()
                        .map(|&n| Json::U64(n))
                        .collect(),
                ),
            )
            .push("blocked_depth_mode", self.blocked_depth_mode().into())
            .push(
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
            )
            .push("race_total", self.race_total().into())
            .push(
                "workers",
                Json::Arr(self.workers.iter().map(|w| w.to_json()).collect()),
            )
            .push("run_ns", self.run_ns.to_json());
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
    fn dpor_stats_blocked_attribution_stays_exhaustive() {
        let mut s = DporStats::default();
        s.note_blocked(3);
        s.note_blocked(3);
        s.note_blocked(1);
        assert_eq!(s.blocked, 3);
        assert_eq!(s.blocked_by_depth.iter().sum::<u64>(), s.blocked);
        assert_eq!(s.blocked_depth_mode(), 3);

        let mut t = DporStats::default();
        t.note_blocked(5);
        s.absorb(&t);
        assert_eq!(s.blocked, 4);
        assert_eq!(s.blocked_by_depth.iter().sum::<u64>(), s.blocked);
    }

    #[test]
    fn dpor_stats_heat_and_lanes_merge() {
        let mut s = DporStats::default();
        s.note_race(0, 1);
        s.note_race(0, 1);
        s.note_race(1, 1);
        s.note_race(99, 99); // clamps into "other"
        assert_eq!(s.race_total(), 4);
        s.workers.push(WorkerLane {
            busy_ns: 900,
            runs: 4,
        });
        let mut t = DporStats::default();
        t.workers.push(WorkerLane {
            busy_ns: 100,
            runs: 1,
        });
        t.workers.push(WorkerLane {
            busy_ns: 500,
            ..Default::default()
        });
        s.absorb(&t);
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.workers[0].busy_ns, 1000);
        assert_eq!(s.workers[0].runs, 5);
    }

    #[test]
    fn dpor_stats_json_shape() {
        let mut s = DporStats::default();
        s.note_blocked(2);
        s.note_race(1, 1);
        s.run_ns.record(1_000);
        let j = s.to_json();
        assert_eq!(j.get("blocked"), Some(&Json::U64(1)));
        assert_eq!(j.get("blocked_depth_mode"), Some(&Json::U64(2)));
        assert_eq!(j.get("race_total"), Some(&Json::U64(1)));
        let Some(Json::Arr(heat)) = j.get("race_heat") else {
            panic!("race_heat missing")
        };
        assert_eq!(heat.len(), 1);
        assert_eq!(heat[0].get("a").unwrap().as_str(), Some("write"));
        assert!(j.get("run_ns").unwrap().get("p50").is_some());
    }

    #[test]
    fn empty_dpor_stats_have_no_blocked_mode() {
        assert_eq!(DporStats::default().blocked_depth_mode(), 0);
    }

    #[test]
    fn machine_table_drives_absorb_and_json() {
        MachineStats::check_table();
    }

    #[test]
    fn mc_table_drives_absorb_and_json() {
        McStats::check_table();
    }

    #[test]
    fn worker_lane_table_drives_absorb_and_json() {
        WorkerLane::check_table();
    }
}
