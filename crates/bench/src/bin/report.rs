//! The reproduction report: regenerates every figure verdict and
//! theorem experiment of the paper in one run and prints the tables
//! that EXPERIMENTS.md records.
//!
//! Every run builds both outputs on one path — the human tables into
//! one `String`, the JSON document beside them — and prints one of
//! them at the end: the tables, or with `--json` **exactly one JSON
//! object** (`{"rows": [...], "metrics": {...}, ...}`) and nothing
//! else; the tables are then built and not printed. The `metrics`
//! section aggregates the observability counters: opacity-checker
//! search statistics per litmus figure, the model-checker exploration
//! totals, and with `--monitor` and `--sat` those layers' totals; the
//! `costs` array is the paper's §4 instruction-cost table.
//!
//! The rows are the run's only gate: exit 0 when every row passes,
//! 1 when one fails (or an output file cannot be written), 2 for a bad
//! command line or an unreadable `--replay` log. The floors that are
//! not a verdict of the paper are `jungle_bench`'s predicates.
//!
//! Further flags:
//!
//! * `--trace <out.json>` — install the flight recorder for the whole
//!   run and export a Chrome-trace-event file loadable in Perfetto; it
//!   adds no work to the run. Adds the `flight/complete` row: no event
//!   dropped, and every span layer the flags drove recorded a span (the
//!   checker always, `stm` with `--monitor`, `sat` with `--sat`).
//! * `--explain [id]` — print the explainer narrative (timeline,
//!   irreconcilable pair, class) of the counterexample each Theorem 1
//!   sweep found above (or just that of the experiment named by `id`).
//!   An unknown id is a named error listing the valid experiment ids.
//! * `--record <dir> [id]` — write the schedule log of each Theorem 1
//!   sweep's counterexample (`<dir>/<id>.json`), delta-debug it to a
//!   minimal still-violating log (`<dir>/<id>.min.json`), and
//!   replay-verify both. With an optional experiment `id`, record just
//!   that experiment; an unknown id is a named error listing the valid
//!   ids. Adds a `replay` section to `--json` output. Neither flag
//!   sweeps again, and each counterexample is explained once for both.
//! * `--monitor` — drive every STM with live transactional traffic
//!   through the event tap while a streaming monitor thread checks the
//!   stream with the tiered (triage → escalate) pipeline. Prints the
//!   per-STM ingest/triage/escalation counts and adds a `monitor`
//!   section to `--json` output.
//! * `--profile` — install the hierarchical phase profiler for the
//!   whole run and emit a `profile` section: the phase tree with calls
//!   and self/total time per phase, and the run-wide DPOR race-pair
//!   heat table beside the blocked-run count. Apart from the ledger
//!   entry's `wall_ms`, the phase tree is the only time the report
//!   reads.
//! * `--sat` — cross-validate the CDCL serialization-order backend
//!   against the DFS checkers on the full litmus corpus (every registry
//!   entry, both check kinds; every SAT positive re-certified through
//!   the DFS leaf), then run the two engines on the wide-UNSAT stress
//!   family, where both must refute every size and the DFS may try at
//!   most one serialization order. Adds a `sat` section to `--json`
//!   output.
//! * `--replay <file>` — re-execute a saved schedule log, verify the
//!   recorded history fingerprint, and exit nonzero on divergence (a
//!   focused mode: the full report is skipped). A log whose model or
//!   property is not its experiment's is refused (exit 2). With
//!   `--explain`, also narrate the replayed counterexample.
//! * `--ledger <path>` — ledger location (default
//!   `.jungle/ledger.jsonl`). Every run appends one entry.
//! * `--memo-dir <path>` — verdict-memo persistence directory (default
//!   `.jungle/memo`), preloaded on start and rewritten on exit.
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
use jungle_mc::explain::{explain_trace, Explanation};
use jungle_mc::theorems::{
    all_fixed_experiments, experiment_by_id, experiment_ids, matched_zoo, thm1_suite, Experiment,
};
use jungle_mc::{Counterexample, SharedVerdictMemo, SweepSeeds};
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::ledger::{self, LedgerEntry};
use jungle_obs::trace::{self as flight, FlightRecorder};
use jungle_obs::{
    profile, Backpressure, DporStats, Json, McStats, MetricsSnapshot, MonitorStats, Profiler,
    SatStats, ToJson,
};
use jungle_replay::{log_of, replay, shrink, ScheduleLog};
use jungle_stm::StmTap;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt::Write as _;
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
    explain: bool,
    /// `--explain <id>`: narrate only this bundled experiment.
    explain_id: Option<String>,
    monitor: bool,
    /// `--profile`: install the phase profiler and emit the `profile`
    /// section (phase tree, DPOR race heat).
    profile: bool,
    trace: Option<PathBuf>,
    /// `--record <dir>`: capture + shrink Theorem 1 schedule logs.
    record: Option<PathBuf>,
    /// `--record <dir> <id>`: record only this bundled experiment.
    record_id: Option<String>,
    /// `--replay <file>`: focused replay mode, skipping the report.
    replay: Option<PathBuf>,
    /// `--sat`: DFS-vs-SAT cross-validation + crossover benchmark.
    sat: bool,
    ledger: PathBuf,
    memo_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        json: false,
        explain: false,
        explain_id: None,
        monitor: false,
        profile: false,
        trace: None,
        record: None,
        record_id: None,
        replay: None,
        sat: false,
        ledger: PathBuf::from(".jungle/ledger.jsonl"),
        memo_dir: PathBuf::from(".jungle/memo"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a path argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--json" => args.json = true,
            "--explain" => {
                args.explain = true;
                // Optional value: the id of one bundled experiment.
                args.explain_id = it.next_if(|next| !next.starts_with("--"));
            }
            "--monitor" => args.monitor = true,
            "--profile" => args.profile = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace"))),
            "--record" => {
                args.record = Some(PathBuf::from(value("--record")));
                // Optional second value: one bundled experiment id.
                args.record_id = it.next_if(|next| !next.starts_with("--"));
            }
            "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
            "--sat" => args.sat = true,
            "--ledger" => args.ledger = PathBuf::from(value("--ledger")),
            "--memo-dir" => args.memo_dir = PathBuf::from(value("--memo-dir")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Resolve an `--explain`/`--replay` experiment id, or exit with a
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
/// fingerprint, and (with `--explain`) narrate the replayed
/// counterexample. Exits nonzero on divergence or a fingerprint
/// mismatch.
fn replay_mode(args: &Args, path: &std::path::Path) -> ! {
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
        .filter(|_| args.explain)
        .and_then(|t| explain_trace(t, exp.entry.model, exp.kind).ok());
    if let Some(ex) = &explanation {
        j.push("class", ex.class.map_or(Json::Null, |c| c.name().into()));
    }
    if args.json {
        println!("{j}");
    } else {
        println!(
            "replayed {} on {} ({} decisions): {}",
            path.display(),
            id,
            log.decisions.len(),
            if out.matches {
                "fingerprint reproduced"
            } else if !out.completed {
                "run truncated"
            } else {
                "MISMATCH"
            }
        );
        if let Some(d) = out.divergence {
            println!(
                "  first divergence at step {}: expected action {:#x} of {} options, got {:#x} of {}",
                d.step, d.expected_action, d.expected_options, d.actual_action, d.actual_options
            );
        }
        println!(
            "  recorded fingerprint {:#x}, replayed {:#x}, violating: {}",
            log.fingerprint, out.fingerprint, out.violating
        );
        if let Some(ex) = &explanation {
            println!("\n{}", ex.render());
        }
    }
    std::process::exit(if out.matches { 0 } else { 1 });
}

/// One experiment of the theorem phase, with its sweep's counterexample.
struct Case {
    exp: Experiment,
    cx: Option<Counterexample>,
    explained: OnceCell<Option<Explanation>>,
}

impl Case {
    /// The counterexample's explanation, computed on first use: once
    /// for `--explain` and `--record` together.
    fn explanation(&self) -> Option<&Explanation> {
        let (e, cx) = (&self.exp, self.cx.as_ref()?);
        let ex = || explain_trace(&cx.trace, e.entry.model, e.kind).ok();
        self.explained.get_or_init(ex).as_ref()
    }
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
/// every window decided by one tier, (nearly) all by triage.
fn monitor_sweep(text: &mut String, rows: &mut Vec<Row>) -> (Vec<Json>, MonitorStats) {
    use jungle_core::ids::ProcId;
    use jungle_stm::{atomically, Ctx};
    const THREADS: u32 = 4;
    const TXNS: u64 = 11_000;
    const WINDOW: usize = 64;
    // Begin, read, write, commit.
    const OPS_PER_TXN: u64 = 4;

    text.push_str("\n════ Streaming monitor: live traffic through the tiered checker ════\n\n");
    writeln!(
        text,
        "  {:<18} {:>9} {:>8} {:>9} {:>6} {:>5} {:>6}",
        "algorithm", "ops", "windows", "cleared%", "escal", "viol", "drops"
    )
    .unwrap();
    let memo = Arc::new(SharedVerdictMemo::new());
    let mut total = MonitorStats::default();
    let mut entries = Vec::new();
    for tm in jungle_stm::all_stms(64) {
        let tap = Arc::new(StmTap::new(1 << 14, Backpressure::Block));
        let mut mon = Monitor::new(MonitorConfig::new().window(WINDOW)).with_memo(memo.clone());
        let consumer = {
            let tap = tap.clone();
            std::thread::spawn(move || mon.run(&tap))
        };
        let tm_ref: &dyn jungle_stm::TmAlgo = tm.as_ref();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let tap = tap.clone();
                s.spawn(move || {
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
        let stats = consumer.join().expect("monitor consumer thread");
        let cleared_pct = if stats.windows_sealed == 0 {
            100.0
        } else {
            100.0 * stats.triage_cleared as f64 / stats.windows_sealed as f64
        };
        writeln!(
            text,
            "  {:<18} {:>9} {:>8} {:>8.1}% {:>6} {:>5} {:>6}",
            tm.name(),
            stats.ops_ingested,
            stats.windows_sealed,
            cleared_pct,
            stats.escalated,
            stats.violations,
            stats.events_dropped,
        )
        .unwrap();
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
    writeln!(
        text,
        "  (4 threads × {TXNS} disjoint read-modify-write txns per STM, window {WINDOW}, blocking tap)"
    )
    .unwrap();
    (entries, total)
}

/// `--sat`: cross-validate the CDCL serialization-order backend
/// against the DFS checkers over the full litmus corpus (every
/// registry entry, both check kinds), then run the two engines on the
/// wide-UNSAT stress family — the shape whose order space is `p!` but
/// whose infeasibility the SAT backend refutes with a single
/// empty-core probe — to locate the first size where SAT does less
/// work (CEGAR rounds against serialization orders tried). Returns the
/// JSON section and the aggregated solver stats.
fn sat_sweep(text: &mut String, rows: &mut Vec<Row>) -> (Json, SatStats) {
    use jungle_core::check::{Check, CheckBackend, CheckKind};
    use jungle_core::model::Sc;
    use jungle_litmus::stress::wide_unsat_history;

    let mut total = SatStats::default();
    let mut checked = 0u64;
    let mut positives = 0u64;
    let mut certified = 0u64;
    let mut disagreements: Vec<String> = Vec::new();

    text.push_str("\n════ SAT backend: DFS vs CDCL verdicts (litmus × registry × kind) ════\n\n");
    writeln!(
        text,
        "  {:<26} {:>7} {:>7} {:>9} {:>10}",
        "history", "checks", "agree", "positive", "certified"
    )
    .unwrap();
    for litmus in all_litmus() {
        for o in &litmus.outcomes {
            let label = format!("{}/{}", litmus.name, o.label);
            let (mut n, mut agree, mut pos, mut cert) = (0u64, 0u64, 0u64, 0u64);
            for e in registry() {
                for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                    let dfs = Check::new(kind).run(&o.history, e.model).0.holds();
                    let (sat, st) = Check {
                        backend: CheckBackend::Sat,
                        ..Check::new(kind)
                    }
                    .run(&o.history, e.model);
                    total.absorb(&st.sat);
                    n += 1;
                    if dfs == sat.holds() {
                        agree += 1;
                    } else {
                        disagreements.push(format!("{label}/{}/{}", e.key, kind.tag()));
                    }
                    if sat.holds() {
                        pos += 1;
                        cert += st.sat.certified;
                    }
                }
            }
            checked += n;
            positives += pos;
            certified += cert;
            writeln!(text, "  {label:<26} {n:>7} {agree:>7} {pos:>9} {cert:>10}").unwrap();
        }
    }
    let agreement = disagreements.is_empty();
    rows.push(Row {
        section: "sat",
        id: "sat/agreement".into(),
        expected: "identical verdicts; every positive certified",
        observed: format!(
            "{checked} checks, {} disagreements, {certified}/{positives} positives certified",
            disagreements.len()
        ),
        pass: checked > 0 && agreement && certified == positives,
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
    text.push_str("\n  wide-UNSAT crossover (SC, opacity):\n");
    writeln!(
        text,
        "    {:>3} {:>10} {:>10} {:>9}",
        "p", "dfs orders", "sat rounds", "verdicts"
    )
    .unwrap();
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
        writeln!(
            text,
            "    {:>3} {:>10} {:>10} {:>9}",
            p,
            orders,
            rounds,
            if dfs.holds() == sat.holds() {
                "equal"
            } else {
                "DIFFER"
            }
        )
        .unwrap();
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
    writeln!(
        text,
        "  {} checks, {} disagreements; solver: {} conflicts, {} learned",
        checked,
        disagreements.len(),
        total.conflicts,
        total.learned,
    )
    .unwrap();

    let mut sec = Json::obj();
    sec.push("checked", checked.into())
        .push("disagreements", (disagreements.len() as u64).into())
        .push("agreement", disagreements.is_empty().into())
        .push("positives", positives.into())
        .push("witness_certified", certified.into())
        .push("crossover_refuted", refuted.into())
        .push("crossover_dfs_orders_max", dfs_orders_max.into())
        .push("crossover_points", Json::Arr(points))
        .push("stats", total.to_json());
    (sec, total)
}

fn main() {
    let args = parse_args();
    if let Some(path) = args.replay.clone() {
        replay_mode(&args, &path);
    }
    // Validate `--explain <id>` / `--record <dir> <id>` up front so a
    // typo fails before the multi-second report run, with the valid
    // ids listed.
    let targets = |id: &Option<String>| -> Vec<String> {
        match id {
            Some(id) => vec![resolve_experiment(id).id],
            None => thm1_suite().into_iter().map(|e| e.id).collect(),
        }
    };
    let explain_targets = args.explain.then(|| targets(&args.explain_id));
    let record_targets = args.record.is_some().then(|| targets(&args.record_id));
    let t_start = std::time::Instant::now();

    let recorder = args.trace.as_ref().map(|_| {
        // A bigger ring than the default: with `--monitor` the run
        // records about 545k events, almost all of them the monitored
        // STMs' transaction spans, one traffic thread (≈ 22k events)
        // per shard. The fullest shard, such a thread plus a sweep
        // worker that shares its shard, holds about 30k; 2^16 leaves
        // twice that (the `flight/complete` row fails a trace that
        // dropped any).
        let r = Arc::new(FlightRecorder::with_capacity(1 << 16));
        flight::install(r.clone());
        r
    });
    let profiler = args.profile.then(|| {
        let p = Arc::new(Profiler::new());
        profile::install(p.clone());
        p
    });

    // The human tables, built on every run and printed at the end unless
    // `--json` asks for the document instead. Writing into a `String`
    // fails only if a `Display` impl does, which `println!` answered
    // with a panic too: hence the `unwrap`s.
    let mut text = String::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut metrics = MetricsSnapshot::new();
    // Run-wide DPOR race heat, absorbed from every DPOR-backed
    // verification; its total is `metrics.mc.races`.
    let mut waste_total = DporStats::default();

    // ── Figures 1–2: litmus verdict tables ────────────────────────
    let phase_figures = profile::enter("report.figures");
    text.push_str("════ Figures 1–2: litmus verdicts per memory model ════\n\n");
    for litmus in all_litmus() {
        writeln!(text, "{} — {}", litmus.name, litmus.question).unwrap();
        write!(text, "  {:<14}", "outcome").unwrap();
        for m in all_models() {
            write!(text, "{:>9}", m.name()).unwrap();
        }
        text.push('\n');
        for o in &litmus.outcomes {
            write!(text, "  {:<14}", o.label).unwrap();
            for m in all_models() {
                let (verdict, stats) = check_opacity_traced(&o.history, m);
                metrics.record_checker(litmus.name, &stats);
                let ok = verdict.is_opaque();
                write!(text, "{:>9}", if ok { "allowed" } else { "✗" }).unwrap();
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
            text.push('\n');
        }
        text.push('\n');
    }
    drop(phase_figures);

    // ── Instrumentation taxonomy + measured instruction costs ─────
    // The paper's §4 table. One loop writes the text line and the
    // `costs` entry of each algorithm, column by column.
    text.push_str("════ TM algorithms: instrumentation & measured instruction cost ════\n\n");
    writeln!(
        text,
        "  {:<18} {:<34} {:>8} {:>8} {:>8} {:>8}",
        "algorithm", "class (§4)", "nt-rd", "nt-wr", "tx-rd", "commit"
    )
    .unwrap();
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
        write!(text, "  {:<18} {:<34}", algo.name(), class).unwrap();
        let mut j = Json::obj();
        j.push("algorithm", algo.name().into())
            .push("class", class.as_str().into());
        for (key, cost) in [
            ("nt_read", c.nt_read),
            ("nt_write", c.nt_write),
            ("txn_read", c.txn_read),
            ("commit", c.commit),
        ] {
            write!(text, " {:>8}", cost.max_instrs).unwrap();
            j.push(key, cost.max_instrs.into());
        }
        text.push('\n');
        costs.push(j);
    }
    text.push_str("  (max memory instructions per operation, uncontended standard program)\n\n");

    // ── Lemma 1 / Theorems 1–5, 7 on the simulator ────────────────
    // One verdict memo shared across every sweep in the report,
    // preloaded from the previous run's persisted verdicts: the
    // constructions reuse the same litmus programs under the same
    // models, so repeated per-history verdicts come from the memo —
    // within the run and across runs.
    let memo = SharedVerdictMemo::new();
    match memo.load_dir(&args.memo_dir) {
        Ok(0) => {}
        Ok(n) => writeln!(
            text,
            "(preloaded {n} memoized verdicts from {})\n",
            args.memo_dir.display()
        )
        .unwrap(),
        Err(e) => eprintln!(
            "warning: could not preload memo from {}: {e}",
            args.memo_dir.display()
        ),
    }
    let cfg = ParallelConfig::default();
    let phase_theorems = profile::enter("report.theorems");
    text.push_str("════ Lemma 1 & Theorems (simulator experiments) ════\n\n");
    // The exhaustive experiments' exploration counters, kept for the
    // DPOR table below, and every experiment's counterexample, kept for
    // `--explain` and `--record`: those sections are views of these
    // sweeps, not second runs of them.
    let mut exhaustive: Vec<(String, McStats)> = Vec::new();
    let mut cases: HashMap<String, Case> = HashMap::new();
    for e in all_fixed_experiments() {
        let r = e.run_shared(SweepSeeds::new(0, 2_000), THEOREM_STEPS, &cfg, &memo);
        if e.exhaustive {
            exhaustive.push((e.id.clone(), r.stats));
        }
        metrics.record_mc(&r.stats);
        waste_total.absorb(&r.waste);
        writeln!(
            text,
            "  {:<22} {:<36} {:>6}",
            e.id,
            e.paper_ref,
            if r.passed { "PASS" } else { "FAIL" },
        )
        .unwrap();
        rows.push(Row {
            section: "theorems",
            id: e.id.clone(),
            expected: e.paper_ref,
            observed: r.detail,
            pass: r.passed,
        });
        let case = Case {
            exp: e,
            cx: r.violation,
            explained: OnceCell::new(),
        };
        cases.insert(case.exp.id.clone(), case);
    }
    drop(phase_theorems);

    // ── DPOR reduction: executed runs vs history classes ──────────
    // What the reduction did on the exhaustive experiments above. That
    // it visits exactly the enumerated classes, at any worker count, is
    // proven by `tests/dpor_props.rs` on these same experiments; the
    // row holds the run to its own accounting only (the explorer and
    // the judge must also agree on the complete-run count). The phase
    // times this table; the sweeps ran under `report.theorems`.
    let phase_dpor = profile::enter("report.dpor");
    let mut dpor_entries: Vec<Json> = Vec::new();
    text.push_str("\n════ DPOR reduction: the exhaustive sweeps above, runs vs classes ════\n\n");
    writeln!(
        text,
        "  {:<22} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "experiment", "executed", "complete", "blocked", "classes", "ratio"
    )
    .unwrap();
    for (id, st) in &exhaustive {
        let completed = st.histories_checked + st.dedup_hits;
        let classes = st.histories_checked;
        // Complete runs per distinct class: 1.00 is optimal. Executed
        // also counts sleep-set probes that abort partway (blocked).
        let ratio = completed as f64 / classes.max(1) as f64;
        writeln!(
            text,
            "  {:<22} {:>9} {:>9} {:>9} {:>9} {:>7.2}",
            id, st.dpor_executed, completed, st.dpor_blocked, classes, ratio,
        )
        .unwrap();
        let mut j = Json::obj();
        j.push("id", id.as_str().into())
            .push("dpor_executed", st.dpor_executed.into())
            .push("dpor_completed", completed.into())
            .push("classes", classes.into())
            .push("truncated", st.truncated.into())
            .push("completed_per_class", Json::F64(ratio))
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
    text.push_str("\n════ Matched-model zoo: STM × registry entry (execute X, check X) ════\n\n");
    write!(text, "  {:<18}", "algorithm").unwrap();
    for e in registry() {
        write!(text, "{:>9}", e.key).unwrap();
    }
    text.push('\n');
    let phase_zoo = profile::enter("report.zoo");
    let zoo = matched_zoo(SweepSeeds::new(0, 30), 8_000, &cfg, &memo);
    {
        let mut last_algo = "";
        for z in &zoo {
            metrics.record_mc(&z.stats);
            if z.algo != last_algo {
                if !last_algo.is_empty() {
                    text.push('\n');
                }
                write!(text, "  {:<18}", z.algo).unwrap();
                last_algo = z.algo;
            }
            write!(text, "{:>9}", if z.ok { "opaque" } else { "✗" }).unwrap();
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
        text.push_str("\n  (30 sampled schedules per cell; matched execution and checker model)\n");
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

    // ── Counterexample explanations (--explain) ───────────────────
    let mut explanations: Vec<Json> = Vec::new();
    if let Some(ids) = &explain_targets {
        let _phase = profile::enter("report.explain");
        text.push_str("\n════ Theorem 1 counterexamples, explained ════\n\n");
        for id in ids {
            let case = &cases[id];
            let e = &case.exp;
            match case.explanation() {
                Some(ex) => {
                    let rendered = ex.render();
                    writeln!(text, "── {} ({}) ──", e.id, e.paper_ref).unwrap();
                    writeln!(text, "{rendered}").unwrap();
                    let mut j = Json::obj();
                    j.push("id", e.id.as_str().into())
                        .push("model", ex.model.into())
                        .push("class", ex.class.map_or(Json::Null, |c| c.name().into()))
                        .push("rendered", rendered.into());
                    explanations.push(j);
                }
                None => {
                    writeln!(text, "── {} — no violation found (unexpected)", e.id).unwrap();
                    rows.push(Row {
                        section: "explain",
                        id: e.id.clone(),
                        expected: "violating trace",
                        observed: "none found".into(),
                        pass: false,
                    });
                }
            }
        }
    }

    // ── Schedule logs → shrink → replay (--record) ────────────────
    let mut replay_section: Option<Json> = None;
    if let Some(dir) = &args.record {
        let _phase = profile::enter("report.record");
        let mut shrink_rounds_total = 0u64;
        text.push_str("\n════ Recorded schedules: capture → shrink → replay ════\n\n");
        let mut log_entries: Vec<Json> = Vec::new();
        for id in record_targets.unwrap_or_default() {
            let case = &cases[&id];
            let (e, Some(cx)) = (&case.exp, &case.cx) else {
                rows.push(Row {
                    section: "replay",
                    id,
                    expected: "violating schedule recorded",
                    observed: "no violation within sweep".into(),
                    pass: false,
                });
                continue;
            };
            let class = case.explanation().and_then(|ex| ex.class);
            let log = log_of(e, cx, THEOREM_STEPS, class);
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
            shrink_rounds_total += stats.rounds;
            let pass = raw_out.matches
                && raw_out.violating
                && min_out.matches
                && min_out.violating
                && class_matches;
            writeln!(
                text,
                "  {:<22} {:>5} decisions → {:>4} ({} rounds, {} candidates), class {} → {}: {}",
                e.id,
                stats.initial_decisions,
                stats.final_decisions,
                stats.rounds,
                stats.candidates,
                log.class.as_deref().unwrap_or("?"),
                min.class.as_deref().unwrap_or("?"),
                if pass { "replay OK" } else { "FAIL" },
            )
            .unwrap();
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
                    stats.initial_decisions,
                    stats.final_decisions,
                    min.class.as_deref().unwrap_or("?")
                ),
                pass,
            });
        }
        let mut sec = Json::obj();
        sec.push("dir", dir.display().to_string().as_str().into())
            .push("recorded", log_entries.len().into())
            .push("shrink_rounds", shrink_rounds_total.into())
            .push("logs", Json::Arr(log_entries));
        replay_section = Some(sec);
    }

    // ── Streaming monitor over live STM traffic (--monitor) ───────
    let mut monitor_entries: Vec<Json> = Vec::new();
    let mut monitor_total: Option<MonitorStats> = None;
    if args.monitor {
        let _phase = profile::enter("report.monitor");
        let (entries, total) = monitor_sweep(&mut text, &mut rows);
        metrics.record_monitor(&total);
        monitor_entries = entries;
        monitor_total = Some(total);
    }

    // ── SAT backend cross-validation + crossover (--sat) ──────────
    let mut sat_section: Option<Json> = None;
    if args.sat {
        let _phase = profile::enter("report.sat");
        let (sec, total) = sat_sweep(&mut text, &mut rows);
        metrics.record_sat(&total);
        sat_section = Some(sec);
    }

    // ── Persist the memo for the next run ─────────────────────────
    if let Err(e) = memo.save_dir(&args.memo_dir) {
        eprintln!(
            "warning: could not persist memo to {}: {e}",
            args.memo_dir.display()
        );
    }

    // ── Ledger: append this run ───────────────────────────────────
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
    if let Err(e) = ledger::compact(&args.ledger, ledger::COMPACT_KEEP_DEFAULT) {
        eprintln!(
            "warning: could not compact ledger {}: {e}",
            args.ledger.display()
        );
    }
    if let Err(e) = ledger::append(&args.ledger, &entry) {
        eprintln!(
            "warning: could not append to ledger {}: {e}",
            args.ledger.display()
        );
    }

    // ── Flight-recorder export ────────────────────────────────────
    if let (Some(rec), Some(path)) = (&recorder, &args.trace) {
        flight::uninstall();
        // The checker always runs; the real STMs only under `--monitor`
        // and the SAT backend only under `--sat`.
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
        writeln!(
            text,
            "\nflight recording: {} events ({} dropped) -> {}",
            rec.recorded(),
            rec.dropped(),
            path.display()
        )
        .unwrap();
    }

    // ── Phase-profile snapshot (--profile) ────────────────────────
    let profile_section = profiler.as_ref().map(|p| {
        // Every worker and monitor thread has exited (scoped spawns and
        // explicit joins above), flushing its thread-local aggregation;
        // only the main thread's remains.
        profile::flush_thread();
        profile::uninstall();
        let phases = p.snapshot();
        let mut sec = Json::obj();
        sec.push("phases", phases.to_json())
            .push("dpor", waste_total.to_json())
            .push("dpor_blocked", mc.dpor_blocked.into());
        text.push_str("\n════ Exploration profile ════\n\n");
        write!(text, "{}", phases.render()).unwrap();
        writeln!(
            text,
            "\n  dpor: {} race pairs, {} blocked runs",
            waste_total.race_total(),
            mc.dpor_blocked,
        )
        .unwrap();
        sec
    });
    let failed: Vec<&Row> = rows.iter().filter(|r| !r.pass).collect();
    text.push('\n');
    if failed.is_empty() {
        writeln!(text, "All {} checks passed.", rows.len()).unwrap();
    } else {
        writeln!(text, "{} FAILURES:", failed.len()).unwrap();
        for f in &failed {
            writeln!(text, "  {}: {}", f.id, f.observed).unwrap();
        }
    }

    let mut out = Json::obj();
    let mut memo_j = Json::obj();
    memo_j
        .push("hits", memo.hits().into())
        .push("lookups", memo.lookups().into())
        .push("entries", (memo.len() as u64).into())
        .push("cross_run_hits", memo.cross_run_hits().into())
        .push("in_run_hits", (memo.hits() - memo.cross_run_hits()).into())
        .push("preloaded_entries", memo.preloaded_entries().into());
    out.push(
        "rows",
        Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
    )
    .push("metrics", metrics.to_json())
    .push("shared_memo", memo_j)
    .push("dpor", Json::Arr(dpor_entries))
    .push("costs", Json::Arr(costs))
    .push("ledger_entry", entry.to_json());
    if args.explain {
        out.push("explanations", Json::Arr(explanations));
    }
    if let Some(sec) = replay_section {
        out.push("replay", sec);
    }
    if let Some(total) = &monitor_total {
        let mut sec = Json::obj();
        sec.push("stms", Json::Arr(monitor_entries))
            .push("total", total.to_json());
        out.push("monitor", sec);
    }
    if let Some(sec) = sat_section {
        out.push("sat", sec);
    }
    if let Some(sec) = profile_section {
        out.push("profile", sec);
    }
    if let Some(rec) = &recorder {
        let mut fj = Json::obj();
        fj.push("recorded", rec.recorded().into())
            .push("dropped", rec.dropped().into());
        let mut cats = Json::obj();
        for (name, recorded, dropped) in rec.by_category() {
            let mut c = Json::obj();
            c.push("recorded", recorded.into())
                .push("dropped", dropped.into());
            cats.push(name, c);
        }
        fj.push("categories", cats);
        out.push("flight", fj);
    }

    // The run's one output: the document or the tables, both complete.
    if args.json {
        println!("{out}");
    } else {
        print!("{text}");
    }
    if !failed.is_empty() {
        eprintln!("{} report checks failed", failed.len());
        std::process::exit(1);
    }
}
