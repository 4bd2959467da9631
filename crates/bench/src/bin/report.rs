//! The reproduction report: regenerates every figure verdict and
//! theorem experiment of the paper in one run and prints the tables
//! that EXPERIMENTS.md records.
//!
//! Every run builds one JSON document (`{"rows": [...], "metrics":
//! {...}, ...}`) and prints it: with `--json` as **exactly one JSON
//! object** and nothing else, without as its text, which is
//! `jungle_bench::render::report` of the document — the code
//! EXPERIMENTS.md's tables are held to. The text shows nothing the
//! document lacks, and the document states each fact once. The
//! `metrics` section aggregates the observability counters:
//! opacity-checker search statistics per litmus figure, the
//! model-checker exploration totals, and with `--monitor` and `--sat`
//! those layers' totals; the `costs` array is the paper's §4
//! instruction-cost table. The `explanations` array narrates the
//! counterexample each Theorem 1 sweep found (timeline, irreconcilable
//! pair, class), so a saved document says why each case violates.
//!
//! The rows are the run's only gate: exit 0 when every row passes,
//! 1 when one fails (or an output file cannot be written, the
//! `--profile` tree cannot be folded, or a monitor consumer panics), 2
//! for a bad command line or an unreadable `--replay` log. The floors
//! that are not a verdict of the paper are `jungle_bench`'s predicates.
//!
//! Further flags:
//!
//! * `--trace <out.json>` — install the flight recorder for the whole
//!   run, every layer, and export a Chrome-trace-event file loadable in
//!   Perfetto (the phases and checks under their span names); it adds
//!   no work to the run. Adds the `flight/complete` row: no event
//!   dropped, and every span layer the flags drove recorded a span (the
//!   phases and the checker always, `stm` with `--monitor`, `sat` with
//!   `--sat`). The `flight` section names the exported file.
//! * `--record <dir>` — write the schedule log of each Theorem 1
//!   sweep's counterexample (`<dir>/<id>.json`), delta-debug it to a
//!   minimal still-violating log (`<dir>/<id>.min.json`), and
//!   replay-verify both. Adds a `replay` section. It sweeps nothing
//!   again, and each log carries the class of its counterexample's
//!   explanation.
//! * `--monitor` — drive every STM with live transactional traffic
//!   through the event tap while a streaming monitor thread checks the
//!   stream with the tiered (triage → escalate) pipeline. Adds the
//!   per-STM ingest/triage/escalation counts as a `monitor` section. A
//!   consumer that panics is a named error (exit 1).
//! * `--profile` — emit a `profile` section: the phase tree with calls
//!   and self/total time per phase, folded from the flight recorder's
//!   named spans, and the run-wide DPOR race-pair heat table beside the
//!   blocked-run count. Without `--trace` the recorder records only the
//!   two layers whose spans carry names, phase and checker, and adds no
//!   row: a profiled run prints the rows of the same run unprofiled. A
//!   recorder that dropped an event (or spans that do not nest) cannot
//!   be folded: the section then holds the `error` in place of the
//!   tree, and the run exits 1. Apart from the ledger entry's
//!   `wall_ms`, the phase tree is the only time the report reads.
//! * `--sat` — cross-validate the CDCL serialization-order backend
//!   against the DFS checkers on the full litmus corpus (every registry
//!   entry, both check kinds; every SAT positive re-certified through
//!   the DFS leaf), then run the two engines on the wide-UNSAT stress
//!   family, where both must refute every size and the DFS may try at
//!   most one serialization order. Adds a `sat` section, which names
//!   every check on which the backends disagree (`disagreeing`).
//! * `--replay <file>` — re-execute a saved schedule log, verify the
//!   recorded history fingerprint, and exit nonzero on divergence (a
//!   focused mode: the full report is skipped). A log whose model or
//!   property is not its experiment's is refused (exit 2). Its document
//!   is the replay's, with the replayed counterexample's class and
//!   narrative (`class`, `rendered`), and its text is
//!   `jungle_bench::render::replayed` of it.
//! * `--ledger <path>` — append this run's entry to the ledger at
//!   `path`. Without it no ledger is written; the document still holds
//!   the entry (`ledger_entry`).
//! * `--memo-dir <path>` — preload the verdict memo from `path` on
//!   start and rewrite it there on exit. Without it the memo starts
//!   empty and is not saved: a run reads no state its command line does
//!   not name.
//!
//! Run with: `cargo run --release -p jungle-bench --bin report`

#![forbid(unsafe_code)]

use jungle_core::model::all_models;
use jungle_core::opacity::check_opacity_traced;
use jungle_core::par::ParallelConfig;
use jungle_core::registry::registry;
use jungle_litmus::figures::all_litmus;
use jungle_mc::algos::{
    GlobalLockTm, LazyTl2Tm, StrongTm, TmAlgo as McAlgo, VersionedTm, WriteTxnTm,
};
use jungle_mc::cost::measure;
use jungle_mc::explain::explain_trace;
use jungle_mc::theorems::{
    all_fixed_experiments, experiment_by_id, experiment_ids, matched_zoo, thm1_suite, Experiment,
};
use jungle_mc::{Counterexample, SharedVerdictMemo, SweepSeeds};
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::ledger::{self, LedgerEntry};
use jungle_obs::trace::{self as flight, FlightRecorder, Span, CATEGORIES};
use jungle_obs::{
    profile, Backpressure, DporStats, Json, McStats, MetricsSnapshot, MonitorStats, SatStats,
    ToJson,
};
use jungle_replay::{log_of, replay, shrink, ScheduleLog};
use jungle_stm::StmTap;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The step bound of every theorem sweep, and so of the logs
/// `--record` writes from their counterexamples.
const THEOREM_STEPS: usize = 8_000;

struct Row {
    section: &'static str,
    id: String,
    expected: &'static str,
    observed: String,
    pass: bool,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("section", self.section.into())
            .push("id", self.id.as_str().into())
            .push("expected", self.expected.into())
            .push("observed", self.observed.as_str().into())
            .push("pass", self.pass.into());
        j
    }
}

struct Args {
    json: bool,
    monitor: bool,
    /// `--profile`: fold the flight recorder into the `profile` section
    /// (phase tree, DPOR race heat).
    profile: bool,
    trace: Option<PathBuf>,
    /// `--record <dir>`: capture + shrink Theorem 1 schedule logs.
    record: Option<PathBuf>,
    /// `--replay <file>`: focused replay mode, skipping the report.
    replay: Option<PathBuf>,
    /// `--sat`: DFS-vs-SAT cross-validation + crossover benchmark.
    sat: bool,
    ledger: Option<PathBuf>,
    memo_dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        json: false,
        monitor: false,
        profile: false,
        trace: None,
        record: None,
        replay: None,
        sat: false,
        ledger: None,
        memo_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a path argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--json" => args.json = true,
            "--monitor" => args.monitor = true,
            "--profile" => args.profile = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace"))),
            "--record" => args.record = Some(PathBuf::from(value("--record"))),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
            "--sat" => args.sat = true,
            "--ledger" => args.ledger = Some(PathBuf::from(value("--ledger"))),
            "--memo-dir" => args.memo_dir = Some(PathBuf::from(value("--memo-dir"))),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Resolve the experiment id a `--replay` log names, or exit with a
/// named error listing every valid id.
fn resolve_experiment(id: &str) -> Experiment {
    experiment_by_id(id).unwrap_or_else(|| {
        eprintln!("error: no bundled experiment with id '{id}'");
        eprintln!("valid ids:");
        for valid in experiment_ids() {
            eprintln!("  {valid}");
        }
        std::process::exit(2);
    })
}

/// `report --replay <file>`: re-execute a saved schedule log on the
/// experiment it was recorded against, verify the recorded history
/// fingerprint, and narrate the replayed counterexample. Returns the
/// replay's document, and a failure on divergence or a fingerprint
/// mismatch.
fn replay_mode(path: &std::path::Path) -> (Json, Option<String>) {
    let log = ScheduleLog::load(path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let Some(id) = log.experiment.clone() else {
        eprintln!(
            "error: {} names no bundled experiment; cannot resolve a program to replay on",
            path.display()
        );
        std::process::exit(2);
    };
    let exp = resolve_experiment(&id);
    if log.model != exp.entry.key || log.kind != exp.kind {
        eprintln!(
            "error: {} was recorded under {} {}, but experiment '{id}' checks {} {}",
            path.display(),
            log.model,
            log.kind.tag(),
            exp.entry.key,
            exp.kind.tag()
        );
        std::process::exit(2);
    }
    let out = replay(&log, &exp);
    let mut j = Json::obj();
    j.push("file", path.display().to_string().as_str().into())
        .push("experiment", id.as_str().into())
        .push("model", log.model.as_str().into())
        .push("decisions", log.decisions.len().into())
        .push("recorded_fingerprint", log.fingerprint.into())
        .push("replayed_fingerprint", out.fingerprint.into())
        .push("completed", out.completed.into())
        .push("matches", out.matches.into())
        .push("violating", out.violating.into())
        .push("steps", out.steps.into());
    if let Some(d) = out.divergence {
        let mut dj = Json::obj();
        dj.push("step", d.step.into())
            .push("expected_options", d.expected_options.into())
            .push("actual_options", d.actual_options.into())
            .push("expected_action", d.expected_action.into())
            .push("actual_action", d.actual_action.into());
        j.push("divergence", dj);
    }
    let explanation = out
        .trace
        .as_ref()
        .and_then(|t| explain_trace(t, exp.entry.model, exp.kind).ok());
    j.push(
        "class",
        explanation
            .as_ref()
            .and_then(|ex| ex.class)
            .map_or(Json::Null, |c| c.name().into()),
    )
    .push(
        "rendered",
        explanation.map_or(Json::Null, |ex| ex.render().into()),
    );
    let failure = (!out.matches).then(|| format!("{} did not replay as recorded", path.display()));
    (j, failure)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `--monitor`: drive every STM with live transactional traffic (4
/// threads, each running read-modify-write transactions on its own
/// variable) through a blocking event tap while a monitor thread
/// checks the stream online. Returns the per-STM JSON entries and the
/// aggregate stats.
///
/// The disjoint per-thread footprint makes every window provably
/// opaque, so this sweep measures the monitor's steady state: each
/// STM's row holds its stream to `jungle_bench::monitor_ok` — every
/// event of every transaction ingested, none dropped, no violation,
/// every window decided by one tier, (nearly) all by triage. A
/// consumer that panics ends the run with a named error (exit 1).
fn monitor_sweep(rows: &mut Vec<Row>) -> (Vec<Json>, MonitorStats) {
    use jungle_core::ids::ProcId;
    use jungle_stm::{atomically, Ctx};
    const THREADS: u32 = 4;
    const TXNS: u64 = 11_000;
    const WINDOW: usize = 64;
    // Begin, read, write, commit.
    const OPS_PER_TXN: u64 = 4;

    let memo = Arc::new(SharedVerdictMemo::new());
    let mut total = MonitorStats::default();
    let mut entries = Vec::new();
    for tm in jungle_stm::all_stms(64) {
        // Its own phase, which the consumer's escalations and the
        // traffic threads nest under.
        let span = Span::from_name(&format!("monitor.{}", tm.name()));
        let _phase = profile::enter(span.expect("every monitored STM has a declared span"));
        let from = profile::spawn_point();
        let tap = Arc::new(StmTap::new(1 << 14, Backpressure::Block));
        let mut mon = Monitor::new(MonitorConfig::new().window(WINDOW)).with_memo(memo.clone());
        let consumer = {
            let tap = tap.clone();
            std::thread::spawn(move || {
                let _path = profile::inherit(from);
                mon.run(&tap)
            })
        };
        let tm_ref: &dyn jungle_stm::TmAlgo = tm.as_ref();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let tap = tap.clone();
                s.spawn(move || {
                    let _path = profile::inherit(from);
                    let mut cx = Ctx::new(ProcId(t), None).with_tap(tap);
                    for _ in 0..TXNS {
                        atomically(tm_ref, &mut cx, |tx| {
                            let v = tx.read(t as usize)?;
                            tx.write(t as usize, v + 1)
                        });
                    }
                });
            }
        });
        tap.close();
        let stats = jungle_bench::join_consumer(tm.name(), consumer).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        rows.push(Row {
            section: "monitor",
            id: format!("monitor/{}", tm.name()),
            expected: "every op ingested, 0 violations, 0 drops, triage carries the stream",
            observed: format!(
                "{} ops, {} windows ({} cleared, {} escalated), {} violations, {} dropped",
                stats.ops_ingested,
                stats.windows_sealed,
                stats.triage_cleared,
                stats.escalated,
                stats.violations,
                stats.events_dropped
            ),
            pass: jungle_bench::monitor_ok(&stats, OPS_PER_TXN * u64::from(THREADS) * TXNS),
        });
        let mut j = Json::obj();
        j.push("stm", tm.name().into())
            .push("stats", stats.to_json());
        entries.push(j);
        total.absorb(&stats);
    }
    (entries, total)
}

/// `--sat`: cross-validate the CDCL serialization-order backend
/// against the DFS checkers over the full litmus corpus (every
/// registry entry, both check kinds), then run the two engines on the
/// wide-UNSAT stress family — the shape whose order space is `p!` but
/// whose infeasibility the SAT backend refutes with a single
/// empty-core probe — to locate the first size where SAT does less
/// work (CEGAR rounds against serialization orders tried). Returns the
/// JSON section, which names each check the backends disagree on, and
/// the aggregated solver stats (the document's `metrics.sat`).
fn sat_sweep(rows: &mut Vec<Row>) -> (Json, SatStats) {
    use jungle_core::check::{Check, CheckBackend, CheckKind};
    use jungle_core::model::Sc;
    use jungle_litmus::stress::wide_unsat_history;

    let mut total = SatStats::default();
    let mut checked = 0u64;
    let mut positives = 0u64;
    let mut certified = 0u64;
    let mut disagreements: Vec<String> = Vec::new();

    for litmus in all_litmus() {
        for o in &litmus.outcomes {
            for e in registry() {
                for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                    let dfs = Check::new(kind).run(&o.history, e.model).0.holds();
                    let (sat, st) = Check {
                        backend: CheckBackend::Sat,
                        ..Check::new(kind)
                    }
                    .run(&o.history, e.model);
                    total.absorb(&st.sat);
                    checked += 1;
                    if dfs != sat.holds() {
                        let (name, label) = (litmus.name, &o.label);
                        disagreements.push(format!("{name}/{label}/{}/{}", e.key, kind.tag()));
                    }
                    if sat.holds() {
                        positives += 1;
                        certified += st.sat.certified;
                    }
                }
            }
        }
    }
    rows.push(Row {
        section: "sat",
        id: "sat/agreement".into(),
        expected: "identical verdicts; every positive certified",
        observed: format!(
            "{checked} checks, {} disagreements, {certified}/{positives} positives certified",
            disagreements.len()
        ),
        pass: checked > 0 && disagreements.is_empty() && certified == positives,
    });

    // Crossover: no serialization order of the wide-UNSAT family has a
    // witness. The SAT backend's first CEGAR round finds the empty
    // core; the DFS backend used to enumerate all p! orders first and
    // now asks the same pair-free question after its first order. The
    // table and the row are that work and the verdicts, both
    // deterministic; the time either backend takes is the benchmark's
    // to measure.
    let mut points: Vec<Json> = Vec::new();
    let (mut dfs_orders_max, mut refuted) = (0u64, true);
    for p in 2..=6usize {
        let h = wide_unsat_history(p);
        let (dfs, dfs_st) = Check::new(CheckKind::Opacity).run(&h, &Sc);
        let (sat, sat_st) = Check {
            backend: CheckBackend::Sat,
            ..Check::new(CheckKind::Opacity)
        }
        .run(&h, &Sc);
        total.absorb(&sat_st.sat);
        if dfs.holds() != sat.holds() {
            disagreements.push(format!("wide_unsat({p})/SC/opacity"));
        }
        let (orders, rounds) = (dfs_st.search.txn_orders, sat_st.sat.cegar_rounds);
        dfs_orders_max = dfs_orders_max.max(orders);
        refuted &= !dfs.holds() && !sat.holds();
        let mut j = Json::obj();
        j.push("p", (p as u64).into())
            .push("dfs_orders", orders.into())
            .push("sat_rounds", rounds.into());
        points.push(j);
    }
    rows.push(Row {
        section: "sat",
        id: "sat/crossover".into(),
        expected: "both backends refute wide-UNSAT at every size, the DFS after at most one order",
        observed: format!(
            "p = 2..6: {}, DFS orders <= {dfs_orders_max}",
            if refuted {
                "refuted by both"
            } else {
                "NOT refuted by both"
            }
        ),
        pass: refuted && dfs_orders_max <= 1,
    });

    let mut sec = Json::obj();
    sec.push("checked", checked.into())
        .push("positives", positives.into())
        .push("witness_certified", certified.into())
        .push("crossover_refuted", refuted.into())
        .push("crossover_points", Json::Arr(points))
        .push(
            "disagreeing",
            Json::Arr(disagreements.iter().map(|d| d.as_str().into()).collect()),
        );
    (sec, total)
}

/// The run's one output: its document, or that document's text.
fn main() {
    let args = parse_args();
    let (doc, failure) = match &args.replay {
        Some(path) => replay_mode(path),
        None => run_report(&args),
    };
    let render = match args.replay {
        Some(_) => jungle_bench::render::replayed,
        None => jungle_bench::render::report,
    };
    let out = if args.json {
        format!("{doc}\n")
    } else {
        render(&doc)
    };
    print!("{out}");
    if let Some(why) = failure {
        eprintln!("{why}");
        std::process::exit(1);
    }
}

/// Every experiment of the report, once: the document, and why the run
/// fails if it does (a failing row, a profile that cannot be folded).
fn run_report(args: &Args) -> (Json, Option<String>) {
    let t_start = std::time::Instant::now();

    // One recorder for both flags: `--trace` records every layer, and
    // `--profile` alone only the layers whose spans the fold reads
    // (phases and checks), which keeps the monitored STMs' transaction
    // spans out of a profile.
    let layers: &[&str] = if args.trace.is_some() {
        &CATEGORIES
    } else {
        &["phase", "checker"]
    };
    let recorder = (args.trace.is_some() || args.profile).then(|| {
        let r = Arc::new(FlightRecorder::new());
        flight::install(r.clone(), layers);
        r
    });

    let mut rows: Vec<Row> = Vec::new();
    let mut metrics = MetricsSnapshot::new();
    // Run-wide DPOR race heat, absorbed from every DPOR-backed
    // verification; its total is `metrics.mc.races`.
    let mut waste_total = DporStats::default();

    // ── Figures 1–2: litmus verdict tables ────────────────────────
    let phase_figures = profile::enter(Span::ReportFigures);
    for litmus in all_litmus() {
        for o in &litmus.outcomes {
            for m in all_models() {
                let (verdict, stats) = check_opacity_traced(&o.history, m);
                metrics.record_checker(litmus.name, &stats);
                let ok = verdict.is_opaque();
                rows.push(Row {
                    section: "figures",
                    id: format!("{}/{}/{}", litmus.name, o.label, m.name()),
                    expected: "(see paper)",
                    observed: if ok {
                        "allowed".into()
                    } else {
                        "forbidden".into()
                    },
                    pass: true,
                });
            }
        }
    }
    drop(phase_figures);

    // ── Instrumentation taxonomy + measured instruction costs ─────
    // The paper's §4 table: the `costs` entry of each algorithm, the
    // most memory instructions one operation of an uncontended program
    // executes.
    let strong = StrongTm::new();
    let strong_opt = StrongTm::optimized();
    let algos: [&dyn McAlgo; 6] = [
        &GlobalLockTm, // Fig. 6 / Thm 3, 7
        &WriteTxnTm,   // Thm 4
        &VersionedTm,  // Thm 5
        &strong,       // §6.1
        &strong_opt,   // §6.1 optimized
        &LazyTl2Tm,    // weak baseline
    ];
    let mut costs: Vec<Json> = Vec::new();
    for algo in algos {
        let c = measure(algo);
        let class = algo.instrumentation().to_string();
        let mut j = Json::obj();
        j.push("algorithm", algo.name().into())
            .push("class", class.as_str().into());
        for (key, cost) in [
            ("nt_read", c.nt_read),
            ("nt_write", c.nt_write),
            ("txn_read", c.txn_read),
            ("commit", c.commit),
        ] {
            j.push(key, cost.max_instrs.into());
        }
        costs.push(j);
    }

    // ── Lemma 1 / Theorems 1–5, 7 on the simulator ────────────────
    // One verdict memo shared across every sweep in the report,
    // preloaded from the verdicts a previous run persisted in
    // `--memo-dir`, if the run names one: the constructions reuse the
    // same litmus programs under the same models, so repeated
    // per-history verdicts come from the memo — within the run and
    // across runs.
    let memo = SharedVerdictMemo::new();
    if let Some(dir) = &args.memo_dir {
        if let Err(e) = memo.load_dir(dir) {
            eprintln!(
                "warning: could not preload memo from {}: {e}",
                dir.display()
            );
        }
    }
    let cfg = ParallelConfig::default();
    let phase_theorems = profile::enter(Span::ReportTheorems);
    // The exhaustive experiments' exploration counters, kept for the
    // DPOR table below, and every experiment's counterexample, kept for
    // the explanations and `--record`: those sections are views of
    // these sweeps, not second runs of them.
    let mut exhaustive: Vec<(String, McStats)> = Vec::new();
    let mut violations: HashMap<String, Option<Counterexample>> = HashMap::new();
    for e in all_fixed_experiments() {
        let r = e.run_shared(SweepSeeds::new(0, 2_000), THEOREM_STEPS, &cfg, &memo);
        if e.exhaustive {
            exhaustive.push((e.id.clone(), r.stats));
        }
        metrics.record_mc(&r.stats);
        waste_total.absorb(&r.waste);
        rows.push(Row {
            section: "theorems",
            id: e.id.clone(),
            expected: e.paper_ref,
            observed: r.detail,
            pass: r.passed,
        });
        violations.insert(e.id, r.violation);
    }
    drop(phase_theorems);

    // ── DPOR reduction: executed runs vs history classes ──────────
    // What the reduction did on the exhaustive experiments above. That
    // it visits exactly the enumerated classes, at any worker count, is
    // proven by `tests/dpor_props.rs` on these same experiments; the
    // row holds the run to its own accounting only (the explorer and
    // the judge must also agree on the complete-run count). The phase
    // times this table; the sweeps ran under `report.theorems`.
    let phase_dpor = profile::enter(Span::ReportDpor);
    let mut dpor_entries: Vec<Json> = Vec::new();
    for (id, st) in &exhaustive {
        let completed = st.histories_checked + st.dedup_hits;
        let classes = st.histories_checked;
        let mut j = Json::obj();
        j.push("id", id.as_str().into())
            .push("dpor_executed", st.dpor_executed.into())
            .push("dpor_completed", completed.into())
            .push("classes", classes.into())
            .push("truncated", st.truncated.into())
            .push("blocked", st.dpor_blocked.into());
        dpor_entries.push(j);
        rows.push(Row {
            section: "dpor",
            id: format!("dpor/{id}"),
            expected: "executed = complete + blocked, none truncated",
            observed: format!(
                "{} runs ({} complete, {} blocked, {} truncated) → {} classes",
                st.dpor_executed, completed, st.dpor_blocked, st.truncated, classes,
            ),
            pass: st.truncated == 0
                && st.dpor_executed == completed + st.dpor_blocked
                && st.dpor_classes == completed,
        });
    }
    drop(phase_dpor);

    // ── Matched-model zoo: five STMs × every registry entry ───────
    // Descriptive cross-validation: each cell samples the STM on the
    // entry's execution semantics and checks opacity parametrized by
    // the same entry's model. (The fixed experiments above keep the
    // paper's SC-execution setting; this table is what the unified
    // registry adds.)
    let phase_zoo = profile::enter(Span::ReportZoo);
    let zoo = matched_zoo(SweepSeeds::new(0, 30), 8_000, &cfg, &memo);
    for z in &zoo {
        metrics.record_mc(&z.stats);
        rows.push(Row {
            section: "zoo",
            id: format!("zoo/{}/{}", z.algo, z.model),
            expected: "(descriptive)",
            observed: if z.ok {
                "opaque".into()
            } else {
                "violated".into()
            },
            pass: true,
        });
    }
    drop(phase_zoo);

    // ── Redundancy elimination and coverage of the sweeps above ───
    // Every sweep — theorems and zoo — folded into one total.
    let mc = metrics.mc.unwrap_or_default();
    rows.push(Row {
        section: "sweeps",
        id: "sweeps/dedup-rate".into(),
        expected: "duplicate traces skipped at or above the floor",
        // One decimal: the counts differ run to run (two workers race
        // to the seen-set), the rows must not.
        observed: format!(
            "{:.1} of schedules were duplicates (floor {})",
            jungle_bench::rate(mc.dedup_hits, mc.schedules),
            jungle_bench::DEDUP_RATE_FLOOR
        ),
        pass: jungle_bench::dedup_rate_ok(&mc),
    });
    rows.push(Row {
        section: "sweeps",
        id: "sweeps/memo-hit-rate".into(),
        expected: "shared verdict memo hits at or above the floor",
        observed: format!(
            "{:.1} of lookups hit (floor {})",
            jungle_bench::rate(memo.hits(), memo.lookups()),
            jungle_bench::MEMO_HIT_RATE_FLOOR
        ),
        pass: jungle_bench::memo_rate_ok(memo.hits(), memo.lookups()),
    });
    rows.push(Row {
        section: "sweeps",
        id: "sweeps/zoo-coverage".into(),
        expected: "every registry entry × every zoo STM",
        observed: format!("{} cells", zoo.len()),
        pass: jungle_bench::zoo_covers_registry(&zoo),
    });

    // ── Theorem 1 counterexamples, explained ──────────────────────
    // Each once: its narrative goes into the document, its class into
    // the `--record` log.
    let mut explanations: Vec<Json> = Vec::new();
    let mut suite = Vec::new();
    let phase_explain = profile::enter(Span::ReportExplain);
    for e in thm1_suite() {
        let cx = violations.remove(&e.id).flatten();
        let explained = cx
            .as_ref()
            .and_then(|cx| explain_trace(&cx.trace, e.entry.model, e.kind).ok());
        match &explained {
            Some(ex) => {
                let mut j = Json::obj();
                j.push("id", e.id.as_str().into())
                    .push("model", ex.model.into())
                    .push("class", ex.class.map_or(Json::Null, |c| c.name().into()))
                    .push("rendered", ex.render().into());
                explanations.push(j);
            }
            None => {
                rows.push(Row {
                    section: "explain",
                    id: e.id.clone(),
                    expected: "violating trace",
                    observed: "none found".into(),
                    pass: false,
                });
            }
        }
        suite.push((e, cx, explained.and_then(|ex| ex.class)));
    }
    drop(phase_explain);

    // ── Schedule logs → shrink → replay (--record) ────────────────
    let mut replay_section: Option<Json> = None;
    if let Some(dir) = &args.record {
        let _phase = profile::enter(Span::ReportRecord);
        let mut log_entries: Vec<Json> = Vec::new();
        for (e, cx, class) in &suite {
            let Some(cx) = cx else {
                rows.push(Row {
                    section: "replay",
                    id: e.id.clone(),
                    expected: "violating schedule recorded",
                    observed: "no violation within sweep".into(),
                    pass: false,
                });
                continue;
            };
            let log = log_of(e, cx, THEOREM_STEPS, *class);
            let (min, stats) = shrink(&log, e);
            let raw_out = replay(&log, e);
            let min_out = replay(&min, e);
            let class_matches = log.class.is_some() && log.class == min.class;
            let stem = e.id.replace('/', "-");
            let raw_path = dir.join(format!("{stem}.json"));
            let min_path = dir.join(format!("{stem}.min.json"));
            for (path, log) in [(&raw_path, &log), (&min_path, &min)] {
                if let Err(err) = log.save(path) {
                    eprintln!("could not write schedule log {}: {err}", path.display());
                    std::process::exit(1);
                }
            }
            let pass = raw_out.matches
                && raw_out.violating
                && min_out.matches
                && min_out.violating
                && class_matches;
            let mut j = Json::obj();
            j.push("id", e.id.as_str().into())
                .push("model", min.model.as_str().into())
                .push("seed", log.seed.map_or(Json::Null, Json::from))
                .push("decisions", log.decisions.len().into())
                .push("shrunk_decisions", min.decisions.len().into())
                .push("fingerprint", log.fingerprint.into())
                .push("shrunk_fingerprint", min.fingerprint.into())
                .push("replay_matches", raw_out.matches.into())
                .push("shrunk_replay_matches", min_out.matches.into())
                .push("shrunk_violating", min_out.violating.into())
                .push("shrink_rounds", stats.rounds.into())
                .push("shrink_candidates", stats.candidates.into())
                .push("class", log.class.as_deref().map_or(Json::Null, Json::from))
                .push("class_matches", class_matches.into())
                .push("file", raw_path.display().to_string().as_str().into())
                .push("min_file", min_path.display().to_string().as_str().into());
            log_entries.push(j);
            rows.push(Row {
                section: "replay",
                id: e.id.clone(),
                expected: "replay reproduces; shrunk log keeps class",
                observed: format!(
                    "{} → {} decisions, class {}",
                    log.decisions.len(),
                    min.decisions.len(),
                    min.class.as_deref().unwrap_or("?")
                ),
                pass,
            });
        }
        let mut sec = Json::obj();
        sec.push("dir", dir.display().to_string().as_str().into())
            .push("logs", Json::Arr(log_entries));
        replay_section = Some(sec);
    }

    // ── Streaming monitor over live STM traffic (--monitor) ───────
    let mut monitor_entries: Option<Vec<Json>> = None;
    if args.monitor {
        let _phase = profile::enter(Span::ReportMonitor);
        let (entries, total) = monitor_sweep(&mut rows);
        metrics.record_monitor(&total);
        monitor_entries = Some(entries);
    }

    // ── SAT backend cross-validation + crossover (--sat) ──────────
    let mut sat_section: Option<Json> = None;
    if args.sat {
        let _phase = profile::enter(Span::ReportSat);
        let (sec, total) = sat_sweep(&mut rows);
        metrics.record_sat(&total);
        sat_section = Some(sec);
    }

    // ── Persist the memo for the next run (--memo-dir) ────────────
    if let Some(dir) = &args.memo_dir {
        if let Err(e) = memo.save_dir(dir) {
            eprintln!("warning: could not persist memo to {}: {e}", dir.display());
        }
    }

    // ── Ledger: append this run (--ledger) ────────────────────────
    let entry = LedgerEntry {
        ts_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        git_rev: git_rev(),
        source: "report".into(),
        wall_ms: t_start.elapsed().as_millis() as u64,
        metrics: metrics.to_json(),
    };
    // Compact first: it drops a torn last line (a crashed run), so the
    // append below starts on a line of its own.
    if let Some(path) = &args.ledger {
        if let Err(e) = ledger::compact(path, ledger::COMPACT_KEEP_DEFAULT) {
            eprintln!("warning: could not compact ledger {}: {e}", path.display());
        }
        if let Err(e) = ledger::append(path, &entry) {
            eprintln!(
                "warning: could not append to ledger {}: {e}",
                path.display()
            );
        }
    }

    // ── Flight recording: completeness, export, profile ───────────
    // Every worker and monitor thread has been joined above, so the
    // rings hold the whole run.
    flight::uninstall();
    if let (Some(rec), Some(path)) = (&recorder, &args.trace) {
        // The checker and the phases always run; the real STMs only
        // under `--monitor` and the SAT backend only under `--sat`.
        let mut idle = Vec::new();
        if !args.monitor {
            idle.push("stm");
        }
        if !args.sat {
            idle.push("sat");
        }
        rows.push(Row {
            section: "flight",
            id: "flight/complete".into(),
            expected: "0 events dropped, every driven span layer recorded",
            observed: format!("{} recorded, {} dropped", rec.recorded(), rec.dropped()),
            pass: jungle_bench::flight_complete(rec, &idle),
        });
        let trace_json = rec.chrome_trace();
        if let Err(e) = std::fs::write(path, format!("{trace_json}\n")) {
            eprintln!("could not write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // ── Phase profile (--profile) ─────────────────────────────────
    // A profile that cannot be folded is an error, never a smaller tree.
    let mut fold_error = None;
    let profile_section = recorder.as_ref().filter(|_| args.profile).map(|rec| {
        let mut sec = Json::obj();
        match profile::fold(rec) {
            Ok(phases) => {
                sec.push("phases", phases.to_json());
            }
            Err(e) => {
                sec.push("phases", Json::Null)
                    .push("error", e.as_str().into());
                fold_error = Some(e);
            }
        }
        sec.push("dpor", waste_total.to_json());
        sec
    });
    let failed = rows.iter().filter(|r| !r.pass).count();

    let mut out = Json::obj();
    let mut memo_j = Json::obj();
    memo_j
        .push("hits", memo.hits().into())
        .push("lookups", memo.lookups().into())
        .push("entries", (memo.len() as u64).into())
        .push("cross_run_hits", memo.cross_run_hits().into())
        .push("preloaded_entries", memo.preloaded_entries().into());
    out.push(
        "rows",
        Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
    )
    .push("metrics", metrics.to_json())
    .push("shared_memo", memo_j)
    .push("dpor", Json::Arr(dpor_entries))
    .push("costs", Json::Arr(costs))
    .push(
        "ledger_entry",
        LedgerEntry {
            metrics: Json::Null,
            ..entry
        }
        .to_json(),
    )
    .push("explanations", Json::Arr(explanations));
    if let Some(sec) = replay_section {
        out.push("replay", sec);
    }
    if let Some(entries) = monitor_entries {
        let mut sec = Json::obj();
        sec.push("stms", Json::Arr(entries));
        out.push("monitor", sec);
    }
    if let Some(sec) = sat_section {
        out.push("sat", sec);
    }
    if let Some(sec) = profile_section {
        out.push("profile", sec);
    }
    if let Some(rec) = &recorder {
        let mut sec = rec.summary();
        if let Some(path) = &args.trace {
            sec.push("file", path.display().to_string().into());
        }
        out.push("flight", sec);
    }

    let failure = if failed > 0 {
        Some(format!("{failed} report checks failed"))
    } else {
        fold_error.map(|e| format!("the profile could not be folded: {e}"))
    };
    (out, failure)
}
