//! Persistent run ledger: an append-only log.
//!
//! A `report` run given `--ledger <path>` appends one [`LedgerEntry`] —
//! when, at which git revision, how long, and the run's full
//! [`MetricsSnapshot`](crate::MetricsSnapshot) JSON — as a single line
//! to that file. The file is append-only JSONL so entries
//! from concurrent or crashed runs never corrupt each other, and the
//! history of a working tree accumulates across sessions. Nothing
//! reads the log back to judge a run: a `report` run is gated by its
//! own rows. [`compact`] bounds the file and drops torn lines.

use crate::json::{Json, ToJson};
use std::io::Write;
use std::path::Path;

/// One ledger line: the durable summary of a report run.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Seconds since the Unix epoch at the end of the run.
    pub ts_unix: u64,
    /// `git rev-parse --short HEAD` of the checkout the binary was
    /// built from (or `"unknown"`).
    pub git_rev: String,
    /// What produced the entry: `"report"`, the ledger's only writer.
    pub source: String,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// The run's full metrics snapshot: every counter lives here, once.
    /// `Null` serializes as no key: a `report` document's entry, whose
    /// metrics are the document's own.
    pub metrics: Json,
}

impl LedgerEntry {
    /// Rebuild an entry from a parsed ledger line. A missing field is
    /// an error naming it; fields this schema does not know (lines
    /// written when the entry also mirrored headline counters) are
    /// ignored.
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
            .push("wall_ms", self.wall_ms.into());
        if self.metrics != Json::Null {
            j.push("metrics", self.metrics.clone());
        }
        j
    }
}

/// Append `entry` as one JSONL line, creating the parent directory and
/// file as needed. Run [`compact`] first when the file may end in a
/// torn line, or the entry is glued to it and lost with it.
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

/// Default retention for [`compact`]: plenty of history, bounded
/// growth for long-lived working trees.
pub const COMPACT_KEEP_DEFAULT: usize = 500;

/// What [`compact`] removed from a ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Compaction {
    /// Parseable entries trimmed beyond the newest `keep_last_n`.
    pub trimmed: usize,
    /// Lines that are not an entry (torn by a crashed run, or foreign).
    pub unparsable: usize,
}

/// Trim the ledger at `path` to its last `keep_last_n` parseable
/// lines, dropping every line that is not an entry in the same pass,
/// and say how many of each went. A missing file or one already
/// within bounds is left untouched. The rewrite goes through a temp
/// file + rename so a crash mid-compaction cannot lose the ledger.
pub fn compact(path: &Path, keep_last_n: usize) -> std::io::Result<Compaction> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Compaction::default()),
        Err(e) => return Err(e),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let valid: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| LedgerEntry::from_json(&j).ok())
                .is_some()
        })
        .collect();
    let kept = valid.len().min(keep_last_n);
    let c = Compaction {
        trimmed: valid.len() - kept,
        unparsable: lines.len() - valid.len(),
    };
    if c == Compaction::default() {
        return Ok(c);
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
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> LedgerEntry {
        let mut mc = Json::obj();
        mc.push("schedules", 40_000u64.into());
        let mut metrics = Json::obj();
        metrics.push("mc", mc);
        LedgerEntry {
            ts_unix: 1_700_000_000,
            git_rev: "abc1234".into(),
            source: "report".into(),
            wall_ms: 1234,
            metrics,
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
    fn an_entry_without_metrics_serializes_no_metrics_key() {
        let e = LedgerEntry {
            metrics: Json::Null,
            ..entry()
        };
        let j = e.to_json();
        assert!(j.get("metrics").is_none(), "{j}");
        assert_eq!(LedgerEntry::from_json(&j).unwrap(), e);
    }

    #[test]
    fn from_json_names_missing_field() {
        let mut j = entry().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "wall_ms");
        }
        let err = LedgerEntry::from_json(&j).unwrap_err();
        assert!(err.contains("'wall_ms'"), "{err}");
    }

    #[test]
    fn previous_schema_lines_still_parse() {
        // A line as written when the entry mirrored twenty headline
        // counters beside `metrics`: the extras are ignored, so an
        // existing ledger is compacted, not emptied.
        let line = r#"{"ts_unix":1700000000,"git_rev":"abc1234","source":"report","wall_ms":1234,"schedules":40000,"dedup_hits":39000,"memo_hits":500,"memo_lookups":1000,"zoo_models":8,"zoo_algos":5,"replay_logs":4,"shrink_rounds":12,"monitor_ops":1000000,"monitor_windows":2000,"monitor_escalated":10,"dpor_executed":5000,"dpor_classes":4800,"frontier_steals":32,"p99_window_ns":250000,"blocked_depth_mode":3,"worker_busy_frac":0.75,"sat_solved":40,"sat_conflicts":120,"sat_wall_ns_p99":80000,"metrics":{"mc":{"schedules":40000}}}"#;
        let back = LedgerEntry::from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(back, entry());
    }

    #[test]
    fn compact_keeps_last_n_and_drops_torn_lines() {
        let dir = std::env::temp_dir().join(format!("jungle-ledger-gc-{}", std::process::id()));
        let path = dir.join("nested").join("ledger.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        // Missing file: nothing to do.
        assert_eq!(compact(&path, 5).unwrap(), Compaction::default());
        for i in 0..8u64 {
            let mut e = entry();
            e.wall_ms = i;
            append(&path, &e).unwrap();
        }
        // Torn trailing line from a crashed run.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"ts_unix\":99").unwrap();
        }
        // 8 valid + 1 torn, keep 3: trims 5 entries and drops the torn
        // line, counted apart.
        let c = compact(&path, 3).unwrap();
        assert_eq!((c.trimmed, c.unparsable), (5, 1));
        let text = std::fs::read_to_string(&path).unwrap();
        let walls: Vec<u64> = text
            .lines()
            .map(|l| {
                LedgerEntry::from_json(&Json::parse(l).unwrap())
                    .unwrap()
                    .wall_ms
            })
            .collect();
        assert_eq!(walls, vec![5, 6, 7], "newest entries survive, in order");
        // Already within bounds: untouched.
        assert_eq!(compact(&path, 3).unwrap(), Compaction::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
