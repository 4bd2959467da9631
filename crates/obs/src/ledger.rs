//! Persistent run ledger with regression gates.
//!
//! Every `report` invocation appends one [`LedgerEntry`] —
//! headline exploration counters, wall time, git revision, and the
//! full [`MetricsSnapshot`](crate::MetricsSnapshot) JSON — as a single
//! line to `.jungle/ledger.jsonl`. The file is append-only JSONL so
//! entries from concurrent or crashed runs never corrupt each other,
//! and the history of a working tree accumulates across sessions.
//!
//! [`compare`] diffs a fresh entry against the previous one and
//! reports regressions beyond [`Tolerances`]: collapsed schedule
//! exploration, dropped dedup/memo hit-rates, shrunk zoo coverage.
//! `report --compare` turns any such finding into a nonzero exit, and
//! CI runs it against a committed seed entry so a change that quietly
//! destroys the redundancy elimination fails the build.

use crate::json::{Json, ToJson};
use std::io::Write;
use std::path::Path;

/// One ledger line: the durable summary of a report run.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Seconds since the Unix epoch at the end of the run.
    pub ts_unix: u64,
    /// `git rev-parse --short HEAD` of the working tree (or
    /// `"unknown"`).
    pub git_rev: String,
    /// What produced the entry: `"report"`, the ledger's only writer.
    pub source: String,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// Schedules explored by the model-checking sweeps.
    pub schedules: u64,
    /// Structurally duplicate traces skipped.
    pub dedup_hits: u64,
    /// Shared verdict-memo hits.
    pub memo_hits: u64,
    /// Shared verdict-memo lookups.
    pub memo_lookups: u64,
    /// Distinct memory models covered by the matched zoo.
    pub zoo_models: u64,
    /// Distinct STM algorithms covered by the matched zoo.
    pub zoo_algos: u64,
    /// Schedule logs recorded and replay-verified this run (0 when the
    /// run did not record).
    pub replay_logs: u64,
    /// Total shrinker rounds spent minimizing recorded logs.
    pub shrink_rounds: u64,
    /// Operation events ingested by the streaming monitor (0 when the
    /// run did not monitor).
    pub monitor_ops: u64,
    /// Windows the streaming monitor sealed and checked.
    pub monitor_windows: u64,
    /// Monitor windows escalated past the triage tier to the full
    /// checker.
    pub monitor_escalated: u64,
    /// Machine runs executed by the DPOR explorer (0 when the run did
    /// not use DPOR).
    pub dpor_executed: u64,
    /// Equivalence classes the DPOR explorer visited.
    pub dpor_classes: u64,
    /// Frontier work items stolen across DPOR workers.
    pub frontier_steals: u64,
    /// 99th-percentile per-window monitor check latency in nanoseconds
    /// (0 when the run did not monitor).
    pub p99_window_ns: u64,
    /// Most common depth at which DPOR runs were sleep-set blocked
    /// (0 when the run did not use DPOR or nothing blocked).
    pub blocked_depth_mode: u64,
    /// Fraction of DPOR worker wall-time spent doing useful work
    /// (busy / (busy + steal + idle); 0 when the run did not profile).
    pub worker_busy_frac: f64,
    /// SAT-backed checks completed (0 when the run did not use the SAT
    /// backend).
    pub sat_solved: u64,
    /// CDCL conflicts across all SAT-backed checks.
    pub sat_conflicts: u64,
    /// 99th-percentile SAT check wall time in nanoseconds (0 when the
    /// run did not use the SAT backend).
    pub sat_wall_ns_p99: u64,
    /// The run's full metrics snapshot (or `Json::Null` for sources
    /// that only report headline counters).
    pub metrics: Json,
}

impl LedgerEntry {
    /// Trace dedup rate (`dedup_hits / schedules`), 0 when nothing ran.
    pub fn dedup_rate(&self) -> f64 {
        rate(self.dedup_hits, self.schedules)
    }

    /// Verdict-memo hit rate (`memo_hits / memo_lookups`).
    pub fn memo_rate(&self) -> f64 {
        rate(self.memo_hits, self.memo_lookups)
    }

    /// Monitor escalation rate (`monitor_escalated / monitor_windows`).
    pub fn monitor_escalation_rate(&self) -> f64 {
        rate(self.monitor_escalated, self.monitor_windows)
    }

    /// DPOR redundancy (`dpor_executed / dpor_classes`): how many
    /// machine runs each equivalence class cost. 1.0 is optimal; 0 when
    /// the run did not use DPOR.
    pub fn dpor_ratio(&self) -> f64 {
        rate(self.dpor_executed, self.dpor_classes)
    }

    /// Rebuild an entry from a parsed ledger line. Missing fields are
    /// an error naming the field, so schema drift is diagnosed rather
    /// than silently zeroed.
    pub fn from_json(j: &Json) -> Result<LedgerEntry, String> {
        let num = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("ledger entry missing numeric field '{key}'"))
        };
        let text = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("ledger entry missing string field '{key}'"))
        };
        Ok(LedgerEntry {
            ts_unix: num("ts_unix")?,
            git_rev: text("git_rev")?,
            source: text("source")?,
            wall_ms: num("wall_ms")?,
            schedules: num("schedules")?,
            dedup_hits: num("dedup_hits")?,
            memo_hits: num("memo_hits")?,
            memo_lookups: num("memo_lookups")?,
            zoo_models: num("zoo_models")?,
            zoo_algos: num("zoo_algos")?,
            // Added after the first ledger format: default to 0 so
            // entries written before record/replay existed still parse.
            replay_logs: j.get("replay_logs").and_then(Json::as_u64).unwrap_or(0),
            shrink_rounds: j.get("shrink_rounds").and_then(Json::as_u64).unwrap_or(0),
            // Added with the streaming monitor: same defaulting rule.
            monitor_ops: j.get("monitor_ops").and_then(Json::as_u64).unwrap_or(0),
            monitor_windows: j.get("monitor_windows").and_then(Json::as_u64).unwrap_or(0),
            monitor_escalated: j
                .get("monitor_escalated")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            // Added with the DPOR explorer: same defaulting rule.
            dpor_executed: j.get("dpor_executed").and_then(Json::as_u64).unwrap_or(0),
            dpor_classes: j.get("dpor_classes").and_then(Json::as_u64).unwrap_or(0),
            frontier_steals: j.get("frontier_steals").and_then(Json::as_u64).unwrap_or(0),
            // Added with the exploration profiler: same defaulting rule.
            p99_window_ns: j.get("p99_window_ns").and_then(Json::as_u64).unwrap_or(0),
            blocked_depth_mode: j
                .get("blocked_depth_mode")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            worker_busy_frac: j
                .get("worker_busy_frac")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            // Added with the SAT backend: same defaulting rule.
            sat_solved: j.get("sat_solved").and_then(Json::as_u64).unwrap_or(0),
            sat_conflicts: j.get("sat_conflicts").and_then(Json::as_u64).unwrap_or(0),
            sat_wall_ns_p99: j.get("sat_wall_ns_p99").and_then(Json::as_u64).unwrap_or(0),
            metrics: j.get("metrics").cloned().unwrap_or(Json::Null),
        })
    }
}

impl ToJson for LedgerEntry {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("ts_unix", self.ts_unix.into())
            .push("git_rev", self.git_rev.as_str().into())
            .push("source", self.source.as_str().into())
            .push("wall_ms", self.wall_ms.into())
            .push("schedules", self.schedules.into())
            .push("dedup_hits", self.dedup_hits.into())
            .push("memo_hits", self.memo_hits.into())
            .push("memo_lookups", self.memo_lookups.into())
            .push("zoo_models", self.zoo_models.into())
            .push("zoo_algos", self.zoo_algos.into())
            .push("replay_logs", self.replay_logs.into())
            .push("shrink_rounds", self.shrink_rounds.into())
            .push("monitor_ops", self.monitor_ops.into())
            .push("monitor_windows", self.monitor_windows.into())
            .push("monitor_escalated", self.monitor_escalated.into())
            .push("dpor_executed", self.dpor_executed.into())
            .push("dpor_classes", self.dpor_classes.into())
            .push("frontier_steals", self.frontier_steals.into())
            .push("p99_window_ns", self.p99_window_ns.into())
            .push("blocked_depth_mode", self.blocked_depth_mode.into())
            .push("worker_busy_frac", Json::F64(self.worker_busy_frac))
            .push("sat_solved", self.sat_solved.into())
            .push("sat_conflicts", self.sat_conflicts.into())
            .push("sat_wall_ns_p99", self.sat_wall_ns_p99.into())
            .push("metrics", self.metrics.clone());
        j
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Append `entry` as one JSONL line, creating the parent directory and
/// file as needed.
pub fn append(path: &Path, entry: &LedgerEntry) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", entry.to_json())
}

/// Default retention for [`compact`]: plenty of history for trend
/// plots, bounded growth for long-lived working trees.
pub const COMPACT_KEEP_DEFAULT: usize = 500;

/// Trim the ledger at `path` to its last `keep_last_n` parseable
/// lines, returning how many lines were removed. Torn or unparseable
/// lines (crashed runs) are dropped in the same pass. A missing file
/// or one already within bounds is left untouched. The rewrite goes
/// through a temp file + rename so a crash mid-compaction cannot lose
/// the ledger.
pub fn compact(path: &Path, keep_last_n: usize) -> std::io::Result<usize> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let valid: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| LedgerEntry::from_json(&j).ok())
                .is_some()
        })
        .collect();
    let total_lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    let kept = valid.len().min(keep_last_n);
    if kept == total_lines {
        return Ok(0);
    }
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        for line in &valid[valid.len() - kept..] {
            writeln!(f, "{line}")?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(total_lines - kept)
}

/// The last parseable entry of the ledger at `path`, or `None` when
/// the file is missing or holds no valid line. Unparseable lines are
/// skipped (append-only files survive crashes mid-write).
pub fn last(path: &Path) -> Option<LedgerEntry> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .filter(|l| !l.trim().is_empty())
        .find_map(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| LedgerEntry::from_json(&j).ok())
        })
}

/// Acceptable run-to-run slack before [`compare`] calls a regression.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Fractional drop in explored schedules that is still fine (e.g.
    /// `0.5` = current may explore as little as half the previous run).
    pub schedules_frac: f64,
    /// Absolute drop in the dedup / memo hit *rates* that is still
    /// fine (rates live in `[0, 1]`).
    pub rate_drop: f64,
}

impl Default for Tolerances {
    /// Loose defaults: halved exploration or a 20-point rate drop is a
    /// regression, anything subtler is noise.
    fn default() -> Self {
        Tolerances {
            schedules_frac: 0.5,
            rate_drop: 0.20,
        }
    }
}

/// Compare `cur` against `prev`; each returned string names one
/// regression beyond `tol`. Empty means the gate passes. Zoo coverage
/// has no tolerance: dropping a model or an STM from the matrix is
/// always a regression.
pub fn compare(prev: &LedgerEntry, cur: &LedgerEntry, tol: &Tolerances) -> Vec<String> {
    let mut out = Vec::new();
    let floor = prev.schedules as f64 * (1.0 - tol.schedules_frac);
    if (cur.schedules as f64) < floor {
        out.push(format!(
            "schedules explored fell {} -> {} (floor {:.0})",
            prev.schedules, cur.schedules, floor
        ));
    }
    if cur.dedup_rate() < prev.dedup_rate() - tol.rate_drop {
        out.push(format!(
            "dedup rate fell {:.3} -> {:.3} (tolerance {:.2})",
            prev.dedup_rate(),
            cur.dedup_rate(),
            tol.rate_drop
        ));
    }
    if cur.memo_rate() < prev.memo_rate() - tol.rate_drop {
        out.push(format!(
            "memo hit rate fell {:.3} -> {:.3} (tolerance {:.2})",
            prev.memo_rate(),
            cur.memo_rate(),
            tol.rate_drop
        ));
    }
    if cur.zoo_models < prev.zoo_models {
        out.push(format!(
            "zoo model coverage fell {} -> {}",
            prev.zoo_models, cur.zoo_models
        ));
    }
    if cur.zoo_algos < prev.zoo_algos {
        out.push(format!(
            "zoo STM coverage fell {} -> {}",
            prev.zoo_algos, cur.zoo_algos
        ));
    }
    // Monitor gates apply only when both runs monitored: a run without
    // `--monitor` legitimately reports zeros.
    if prev.monitor_ops > 0 && cur.monitor_ops > 0 {
        let floor = prev.monitor_ops as f64 * (1.0 - tol.schedules_frac);
        if (cur.monitor_ops as f64) < floor {
            out.push(format!(
                "monitor ops ingested fell {} -> {} (floor {:.0})",
                prev.monitor_ops, cur.monitor_ops, floor
            ));
        }
        if cur.monitor_escalation_rate() > prev.monitor_escalation_rate() + tol.rate_drop {
            out.push(format!(
                "monitor escalation rate rose {:.3} -> {:.3} (tolerance {:.2})",
                prev.monitor_escalation_rate(),
                cur.monitor_escalation_rate(),
                tol.rate_drop
            ));
        }
    }
    // DPOR gates apply only when both runs explored with DPOR: older
    // entries (and brute-force runs) legitimately report zeros.
    if prev.dpor_executed > 0 && cur.dpor_executed > 0 {
        let floor = prev.dpor_classes as f64 * (1.0 - tol.schedules_frac);
        if (cur.dpor_classes as f64) < floor {
            out.push(format!(
                "dpor classes visited fell {} -> {} (floor {:.0})",
                prev.dpor_classes, cur.dpor_classes, floor
            ));
        }
        if cur.dpor_ratio() > prev.dpor_ratio() * (1.0 + tol.rate_drop) {
            out.push(format!(
                "dpor executed/classes ratio rose {:.3} -> {:.3} (tolerance {:.2})",
                prev.dpor_ratio(),
                cur.dpor_ratio(),
                tol.rate_drop
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> LedgerEntry {
        LedgerEntry {
            ts_unix: 1_700_000_000,
            git_rev: "abc1234".into(),
            source: "report".into(),
            wall_ms: 1234,
            schedules: 40_000,
            dedup_hits: 39_000,
            memo_hits: 500,
            memo_lookups: 1_000,
            zoo_models: 8,
            zoo_algos: 5,
            replay_logs: 4,
            shrink_rounds: 12,
            monitor_ops: 1_000_000,
            monitor_windows: 2_000,
            monitor_escalated: 10,
            dpor_executed: 5_000,
            dpor_classes: 4_800,
            frontier_steals: 32,
            p99_window_ns: 250_000,
            blocked_depth_mode: 3,
            worker_busy_frac: 0.75,
            sat_solved: 40,
            sat_conflicts: 120,
            sat_wall_ns_p99: 80_000,
            metrics: Json::Null,
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let e = entry();
        let line = e.to_json().to_string();
        let back = LedgerEntry::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn from_json_names_missing_field() {
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "schedules");
        }
        let err = LedgerEntry::from_json(&j).unwrap_err();
        assert!(err.contains("'schedules'"), "{err}");
    }

    #[test]
    fn pre_replay_entries_still_parse() {
        // Entries written before the replay fields existed must load
        // with the fields defaulted, not error.
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "replay_logs" && k != "shrink_rounds");
        }
        let back = LedgerEntry::from_json(&j).unwrap();
        assert_eq!(back.replay_logs, 0);
        assert_eq!(back.shrink_rounds, 0);
        assert_eq!(back.schedules, entry().schedules);
    }

    #[test]
    fn pre_monitor_entries_still_parse() {
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| !k.starts_with("monitor_"));
        }
        let back = LedgerEntry::from_json(&j).unwrap();
        assert_eq!(back.monitor_ops, 0);
        assert_eq!(back.monitor_windows, 0);
        assert_eq!(back.monitor_escalated, 0);
        assert_eq!(back.monitor_escalation_rate(), 0.0);
    }

    #[test]
    fn pre_dpor_entries_still_parse() {
        // PR-4/5/6 ledger lines predate the DPOR fields and must load
        // with them defaulted, not error.
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| {
                k != "dpor_executed" && k != "dpor_classes" && k != "frontier_steals"
            });
        }
        let back = LedgerEntry::from_json(&j).unwrap();
        assert_eq!(back.dpor_executed, 0);
        assert_eq!(back.dpor_classes, 0);
        assert_eq!(back.frontier_steals, 0);
        assert_eq!(back.dpor_ratio(), 0.0);
        assert_eq!(back.schedules, entry().schedules);
    }

    #[test]
    fn pre_profile_entries_still_parse() {
        // PR-8 and earlier ledger lines predate the profiler fields and
        // must load with them defaulted, not error.
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| {
                k != "p99_window_ns" && k != "blocked_depth_mode" && k != "worker_busy_frac"
            });
        }
        let back = LedgerEntry::from_json(&j).unwrap();
        assert_eq!(back.p99_window_ns, 0);
        assert_eq!(back.blocked_depth_mode, 0);
        assert_eq!(back.worker_busy_frac, 0.0);
        assert_eq!(back.schedules, entry().schedules);
    }

    #[test]
    fn pre_sat_entries_still_parse() {
        // PR-9 and earlier ledger lines predate the SAT-backend fields
        // and must load with them defaulted, not error.
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| !k.starts_with("sat_"));
        }
        let back = LedgerEntry::from_json(&j).unwrap();
        assert_eq!(back.sat_solved, 0);
        assert_eq!(back.sat_conflicts, 0);
        assert_eq!(back.sat_wall_ns_p99, 0);
        assert_eq!(back.schedules, entry().schedules);
    }

    #[test]
    fn compact_keeps_last_n_and_drops_torn_lines() {
        let dir = std::env::temp_dir().join(format!("jungle-ledger-gc-{}", std::process::id()));
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        // Missing file: nothing to do.
        assert_eq!(compact(&path, 5).unwrap(), 0);
        for i in 0..8u64 {
            let mut e = entry();
            e.schedules = i;
            append(&path, &e).unwrap();
        }
        // Torn trailing line from a crashed run.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"ts_unix\":99").unwrap();
        }
        // 8 valid + 1 torn, keep 3: removes 6 lines.
        assert_eq!(compact(&path, 3).unwrap(), 6);
        let text = std::fs::read_to_string(&path).unwrap();
        let survivors: Vec<LedgerEntry> = text
            .lines()
            .map(|l| LedgerEntry::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        let scheds: Vec<u64> = survivors.iter().map(|e| e.schedules).collect();
        assert_eq!(scheds, vec![5, 6, 7], "newest entries survive, in order");
        // Already within bounds: untouched.
        assert_eq!(compact(&path, 3).unwrap(), 0);
        assert_eq!(last(&path).unwrap().schedules, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dpor_gates_apply_only_when_both_explored() {
        let prev = entry();
        // Current run fell back to brute force: no dpor regression.
        let mut cur = entry();
        cur.dpor_executed = 0;
        cur.dpor_classes = 0;
        assert!(compare(&prev, &cur, &Tolerances::default()).is_empty());
        // Both explored, class coverage collapsed and redundancy spiked.
        let mut cur = entry();
        cur.dpor_classes = 1_000;
        cur.dpor_executed = 5_000; // ratio 5.0 vs ~1.04
        let regs = compare(&prev, &cur, &Tolerances::default());
        assert!(
            regs.iter().any(|r| r.contains("dpor classes visited")),
            "{regs:?}"
        );
        assert!(regs.iter().any(|r| r.contains("ratio rose")), "{regs:?}");
    }

    #[test]
    fn monitor_gates_apply_only_when_both_monitored() {
        let prev = entry();
        // Current run skipped monitoring entirely: no regression.
        let mut cur = entry();
        cur.monitor_ops = 0;
        cur.monitor_windows = 0;
        cur.monitor_escalated = 0;
        assert!(compare(&prev, &cur, &Tolerances::default()).is_empty());
        // Both monitored, throughput collapsed and escalation spiked.
        let mut cur = entry();
        cur.monitor_ops = 100;
        cur.monitor_windows = 10;
        cur.monitor_escalated = 10; // rate 1.0 vs 0.005
        let regs = compare(&prev, &cur, &Tolerances::default());
        assert!(
            regs.iter().any(|r| r.contains("monitor ops ingested")),
            "{regs:?}"
        );
        assert!(
            regs.iter().any(|r| r.contains("escalation rate rose")),
            "{regs:?}"
        );
    }

    #[test]
    fn append_and_last_round_trip() {
        let dir = std::env::temp_dir().join(format!("jungle-ledger-{}", std::process::id()));
        let path = dir.join("nested").join("ledger.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(last(&path).is_none());
        let mut a = entry();
        append(&path, &a).unwrap();
        a.schedules += 1;
        append(&path, &a).unwrap();
        // A torn trailing line must be skipped, not fatal.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"ts_unix\":12").unwrap();
        }
        let got = last(&path).expect("two valid lines present");
        assert_eq!(got, a, "last valid line wins");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_runs_pass_compare() {
        let e = entry();
        assert!(compare(&e, &e, &Tolerances::default()).is_empty());
    }

    #[test]
    fn compare_flags_each_regression() {
        let prev = entry();
        let mut cur = entry();
        cur.schedules = 10_000; // below half
        cur.dedup_hits = 1_000; // rate collapses
        cur.memo_hits = 0;
        cur.zoo_models = 6;
        cur.zoo_algos = 4;
        let regs = compare(&prev, &cur, &Tolerances::default());
        assert_eq!(regs.len(), 5, "{regs:?}");
        assert!(regs.iter().any(|r| r.contains("schedules")));
        assert!(regs.iter().any(|r| r.contains("dedup")));
        assert!(regs.iter().any(|r| r.contains("memo")));
        assert!(regs.iter().any(|r| r.contains("model coverage")));
        assert!(regs.iter().any(|r| r.contains("STM coverage")));
    }

    #[test]
    fn tolerances_absorb_small_drift() {
        let prev = entry();
        let mut cur = entry();
        cur.schedules = (prev.schedules as f64 * 0.6) as u64;
        cur.dedup_hits = (cur.schedules as f64 * 0.9) as u64; // ~0.9 vs ~0.975
        let regs = compare(&prev, &cur, &Tolerances::default());
        assert!(regs.is_empty(), "{regs:?}");
    }
}
