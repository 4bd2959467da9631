//! `report_cold`: one cold run of the product binary, end to end —
//! figures → theorems → DPOR → zoo → live 4-thread monitor → SAT.
//!
//! Each pass spawns `report --json --monitor --sat` with a fresh
//! ledger file and memo directory inside the checkout's scratch
//! directory (the repo's `.jungle/` is never written). A unit is one
//! verdict row; a row with `pass: false`, a non-zero exit or output
//! that does not parse fails. The seed has no part in this workload:
//! `report` takes none. A traced pass is the same command plus
//! `--profile`.

use crate::harness::{Env, Metric, Workload};
use crate::span::Tracer;
use crate::stats::fastest;
use jungle_obs::json::Json;
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

/// One finished `report` process.
pub struct Run {
    pub profiled: bool,
    pub wall_s: f64,
    pub doc: Json,
}

/// Every run of this process, so that the probe does not repeat what
/// the passes already ran.
pub type RunLog = Rc<RefCell<Vec<Run>>>;

fn spawn(env: &Env, profiled: bool, serial: usize) -> Result<Run, String> {
    let dir = env.tmp.join(format!("report-{serial}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cmd = Command::new(&env.report_bin);
    cmd.args(["--json", "--monitor", "--sat", "--ledger"])
        .arg(dir.join("ledger.jsonl"))
        .arg("--memo-dir")
        .arg(dir.join("memo"))
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if profiled {
        cmd.arg("--profile");
    }
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("{}: {e}", env.report_bin.display()));
    let wall_s = t0.elapsed().as_secs_f64();
    // The scratch files go whatever happened.
    let _ = std::fs::remove_dir_all(&dir);
    let out = out?;
    if !out.status.success() {
        return Err(format!("report exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("report output: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("report output: {e}"))?;
    Ok(Run {
        profiled,
        wall_s,
        doc,
    })
}

/// `(rows, rows with pass: false)`.
fn rows(doc: &Json) -> Result<(usize, u64), String> {
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err("report output has no rows".into());
    };
    let failing = rows
        .iter()
        .filter(|r| !matches!(r.get("pass"), Some(Json::Bool(true))))
        .count();
    Ok((rows.len(), failing as u64))
}

pub struct ReportCold {
    env: Env,
    log: RunLog,
    rows: usize,
    spawned: usize,
}

impl ReportCold {
    /// The warm-up run; it also fixes how many rows a run must print.
    pub fn setup(env: &Env, log: RunLog) -> Result<ReportCold, String> {
        if !env.report_bin.is_file() {
            return Err(format!(
                "{}: no such binary (build the root workspace)",
                env.report_bin.display()
            ));
        }
        let warm = spawn(env, false, 0)?;
        let (n, _) = rows(&warm.doc)?;
        if n == 0 {
            return Err("report printed no verdict rows".into());
        }
        Ok(ReportCold {
            env: env.clone(),
            log,
            rows: if env.sabotage { n + 1 } else { n },
            spawned: 1,
        })
    }
}

impl Workload for ReportCold {
    fn units(&self) -> usize {
        self.rows
    }

    fn times_units(&self) -> bool {
        false
    }

    fn pass(&mut self, tr: &mut Tracer, _unit_ns: &mut [u64]) -> u64 {
        let profiled = tr.is_on();
        let span = tr.open("report.main", crate::span::NO_UNIT);
        self.spawned += 1;
        let run = spawn(&self.env, profiled, self.spawned);
        let failed = match &run {
            // A run with a different number of rows lost (or invented)
            // verdicts: the difference fails too.
            Ok(r) => rows(&r.doc).map_or(self.rows as u64, |(n, failing)| {
                failing + n.abs_diff(self.rows) as u64
            }),
            Err(e) => {
                eprintln!("report_cold: {e}");
                self.rows as u64
            }
        };
        tr.close_with(span, &[("rows", self.rows as u64), ("failed", failed)]);
        if let Ok(r) = run {
            self.log.borrow_mut().push(r);
        }
        failed.min(self.rows as u64)
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![("rows", self.rows as u64)]
    }
}

fn phase_ms(doc: &Json, phase: &str) -> f64 {
    let want = format!("report.{phase}");
    let Some(Json::Arr(children)) = doc
        .get("profile")
        .and_then(|p| p.get("phases"))
        .and_then(|p| p.get("children"))
    else {
        return 0.0;
    };
    children
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(&want))
        .and_then(|c| c.get("total_ns"))
        .and_then(Json::as_f64)
        .map_or(0.0, |ns| ns / 1e6)
}

pub const PHASES: [&str; 6] = ["figures", "theorems", "dpor", "zoo", "monitor", "sat"];

/// `report.*`, from the `profile` and `ledger_entry` sections the
/// binary already prints. Runs one plain and one profiled `report`
/// unless `log` already holds them.
pub fn probe(env: &Env, log: &RunLog, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    for profiled in [false, true] {
        if !log.borrow().iter().any(|r| r.profiled == profiled) {
            let span = tr.open("report.main", crate::span::NO_UNIT);
            let run = spawn(env, profiled, 1000 + usize::from(profiled));
            tr.close(span);
            log.borrow_mut().push(run?);
        }
    }
    let log = log.borrow();
    let walls = |profiled: bool| -> Vec<f64> {
        log.iter()
            .filter(|r| r.profiled == profiled)
            .map(|r| r.wall_s)
            .collect()
    };
    let prof = log
        .iter()
        .rev()
        .find(|r| r.profiled)
        .expect("a profiled run was just ensured");
    let internal_ms = prof
        .doc
        .get("ledger_entry")
        .and_then(|l| l.get("wall_ms"))
        .and_then(Json::as_f64)
        .ok_or("report output has no ledger_entry.wall_ms")?;
    let mut out = vec![
        Metric::count("report.rows", rows(&prof.doc)?.0 as u64),
        Metric::new("report.internal_wall_ms", internal_ms, "ms"),
    ];
    for p in PHASES {
        out.push(Metric::new(
            format!("report.phase_ms.{p}"),
            phase_ms(&prof.doc, p),
            "ms",
        ));
    }
    out.push(Metric::new(
        "report.oracle_share",
        phase_ms(&prof.doc, "dpor") / internal_ms,
        "frac",
    ));
    out.push(Metric::new(
        "report.profile_overhead_frac",
        fastest(&walls(true)) / fastest(&walls(false)) - 1.0,
        "frac",
    ));
    Ok(out)
}

/// Where `run.sh` leaves the binary: beside this one.
pub fn default_report_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("report")))
        .unwrap_or_else(|| PathBuf::from("report"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_untraced, Scale};
    use std::os::unix::fs::PermissionsExt;

    /// A stand-in for `report`: prints three rows, one failing when
    /// asked, and touches the ledger path it was given.
    fn fake_report(dir: &std::path::Path, failing: bool) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("report");
        let row = if failing { "false" } else { "true" };
        let script = format!(
            "#!/bin/sh\nwhile [ $# -gt 0 ]; do [ \"$1\" = --ledger ] && touch \"$2\"; shift; done\n\
             echo '{{\"rows\":[{{\"pass\":true}},{{\"pass\":true}},{{\"pass\":{row}}}],\
             \"ledger_entry\":{{\"wall_ms\":10}}}}'\n"
        );
        std::fs::write(&path, script).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    fn env(tag: &str, failing: bool, sabotage: bool) -> Env {
        let dir = std::env::temp_dir().join(format!(
            "jungle-benchmark-test-{}-{tag}",
            std::process::id()
        ));
        Env {
            report_bin: fake_report(&dir, failing),
            tmp: dir.join("tmp"),
            ..Env::for_test(1, sabotage)
        }
    }

    #[test]
    fn failing_rows_and_wrong_row_counts_fail_units() {
        for (tag, failing, sabotage, want) in [
            ("ok", false, false, 0),
            ("row", true, false, 1),
            ("sab", false, true, 1),
        ] {
            let env = env(tag, failing, sabotage);
            let mut w = ReportCold::setup(&env, RunLog::default()).unwrap();
            let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
            assert_eq!(o.failed, want, "{tag}");
            // Nothing is left behind in the scratch directory.
            let left = std::fs::read_dir(&env.tmp).map(|d| d.count()).unwrap_or(0);
            assert_eq!(left, 0, "{tag}");
            let _ = std::fs::remove_dir_all(env.report_bin.parent().unwrap());
        }
    }

    #[test]
    fn a_missing_binary_is_a_setup_error() {
        let env = Env::for_test(1, false);
        assert!(ReportCold::setup(&env, RunLog::default()).is_err());
    }
}
