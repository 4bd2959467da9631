//! `report`'s run: one table of phases, [`PHASES`], and the loop that
//! runs it, [`report`].
//!
//! A phase is declared once, as a [`Phase`] entry: the span it runs
//! under, the flag that enables it, the span layer it drives, and the
//! document key, heading and renderer of its section. Each phase is a
//! `fn(&mut Run) -> Result<Section, String>` over the state the phases
//! share; the loop enters each enabled phase's span, appends its rows
//! and pushes its document entry, and [`render::report`] walks the same
//! table.

use crate::{join_consumer, render};
use jungle_core::model::all_models;
use jungle_core::opacity::check_opacity_traced;
use jungle_core::par::ParallelConfig;
use jungle_core::registry::registry;
use jungle_litmus::figures::all_litmus;
use jungle_mc::algos::{
    GlobalLockTm, LazyTl2Tm, StrongTm, TmAlgo as McAlgo, VersionedTm, WriteTxnTm,
};
use jungle_mc::cost::measure;
use jungle_mc::explain::{explain_trace, TheoremClass};
use jungle_mc::theorems::{all_fixed_experiments, matched_zoo, thm1_suite, ZooVerdict};
use jungle_mc::{Counterexample, SharedVerdictMemo, SweepSeeds};
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::ledger::{self, LedgerEntry};
use jungle_obs::trace::{self as flight, FlightRecorder, Span, CATEGORIES};
use jungle_obs::{
    profile, Backpressure, DporStats, Json, McStats, MetricsSnapshot, MonitorStats, SatStats,
    ToJson,
};
use jungle_replay::{log_of, replay, shrink};
use jungle_stm::StmTap;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The step bound of every theorem sweep, and so of the logs
/// `--record` writes from their counterexamples.
const THEOREM_STEPS: usize = 8_000;

/// `report`'s command line; `report.rs`'s module doc describes each flag.
#[derive(Default)]
pub struct Args {
    /// `--json`: print the document, not its text.
    pub json: bool,
    /// `--monitor`: the streaming monitor over live STM traffic.
    pub monitor: bool,
    /// `--profile`: fold the flight recorder into the `profile` section
    /// (phase tree, DPOR race heat).
    pub profile: bool,
    /// `--trace <file>`: export the flight recording.
    pub trace: Option<PathBuf>,
    /// `--record <dir>`: capture + shrink Theorem 1 schedule logs.
    pub record: Option<PathBuf>,
    /// `--replay <file>`: focused replay mode, skipping the report.
    pub replay: Option<PathBuf>,
    /// `--sat`: DFS-vs-SAT cross-validation + crossover benchmark.
    pub sat: bool,
    /// `--ledger <path>`: append the run's entry there.
    pub ledger: Option<PathBuf>,
    /// `--memo-dir <dir>`: preload and persist the verdict memo there.
    pub memo_dir: Option<PathBuf>,
}

impl Args {
    /// Does the command line name `flag`, a [`Phase::flag`]?
    fn names(&self, flag: &str) -> bool {
        match flag {
            "--record" => self.record.is_some(),
            "--monitor" => self.monitor,
            "--sat" => self.sat,
            other => panic!("{other} enables no phase"),
        }
    }
}

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

/// What a phase yields: its rows, and its entry under its document key.
pub(crate) struct Section {
    rows: Vec<Row>,
    entry: Option<Json>,
}

/// The state the phases share, each phase reading what an earlier one
/// left: the one verdict memo of every sweep, the exhaustive sweeps'
/// counters (the DPOR table), the counterexamples and the classes their
/// explanations assigned (the explanations, `--record`), the zoo's cells
/// (its coverage), the metrics and the run-wide DPOR race heat.
pub(crate) struct Run<'a> {
    args: &'a Args,
    memo: SharedVerdictMemo,
    cfg: ParallelConfig,
    metrics: MetricsSnapshot,
    waste: DporStats,
    exhaustive: Vec<(String, McStats)>,
    counterexamples: HashMap<String, Counterexample>,
    classes: HashMap<String, TheoremClass>,
    zoo: Vec<ZooVerdict>,
}

impl<'a> Run<'a> {
    /// A run of `args` that no phase has touched. Its memo is preloaded
    /// from the verdicts a previous run persisted in `--memo-dir`, if
    /// the run names one: the constructions reuse the same litmus
    /// programs under the same models, so repeated per-history verdicts
    /// come from the memo — within the run and across runs.
    fn new(args: &'a Args) -> Self {
        let memo = SharedVerdictMemo::new();
        if let Some(dir) = &args.memo_dir {
            if let Err(e) = memo.load_dir(dir) {
                eprintln!(
                    "warning: could not preload memo from {}: {e}",
                    dir.display()
                );
            }
        }
        Run {
            args,
            memo,
            cfg: ParallelConfig::default(),
            metrics: MetricsSnapshot::new(),
            waste: DporStats::default(),
            exhaustive: Vec::new(),
            counterexamples: HashMap::new(),
            classes: HashMap::new(),
            zoo: Vec::new(),
        }
    }
}

/// A part of the text: the document key that holds it (`rows` for a
/// table of a phase's rows, which every document holds), its heading,
/// and its renderer.
pub(crate) type Part = (&'static str, &'static str, fn(&Json) -> String);

/// One phase of a `report` run: what it runs and how its section reads.
pub struct Phase {
    /// The span the phase runs under.
    pub span: Span,
    /// The flag that enables it; `None` for a phase every run runs.
    pub flag: Option<&'static str>,
    /// The span layer it drives besides the phases and the checker,
    /// which `flight/complete` holds to recording a span.
    pub(crate) layer: Option<&'static str>,
    /// Its part of the text, if it has one.
    pub(crate) part: Option<Part>,
    pub(crate) run: fn(&mut Run) -> Result<Section, String>,
}

/// `report`'s phases in run order, which is also the order their
/// sections print in.
pub const PHASES: [Phase; 10] = [
    Phase {
        span: Span::ReportFigures,
        flag: None,
        layer: None,
        part: Some(("rows", "Figures 1–2: litmus verdicts per memory model", render::figures)),
        run: figures,
    },
    Phase {
        span: Span::ReportCosts,
        flag: None,
        layer: None,
        part: Some(("costs", "TM algorithms (§4): instrumentation, and the most memory instructions per uncontended operation", render::costs)),
        run: costs,
    },
    Phase {
        span: Span::ReportTheorems,
        flag: None,
        layer: None,
        part: Some(("rows", "Lemma 1 and Theorems: simulator experiments", render::theorems)),
        run: theorems,
    },
    Phase {
        span: Span::ReportDpor,
        flag: None,
        layer: None,
        part: Some(("dpor", "DPOR reduction: the exhaustive sweeps above, runs against classes", render::dpor)),
        run: dpor,
    },
    Phase {
        span: Span::ReportZoo,
        flag: None,
        layer: None,
        part: Some(("rows", "Matched-model zoo: STM × registry entry (execute X, check X)", render::zoo)),
        run: zoo,
    },
    Phase {
        span: Span::ReportSweeps,
        flag: None,
        layer: None,
        part: None,
        run: sweeps,
    },
    Phase {
        span: Span::ReportExplain,
        flag: None,
        layer: None,
        part: Some(("explanations", "Theorem 1 counterexamples, explained", render::explanations)),
        run: explain,
    },
    Phase {
        span: Span::ReportRecord,
        flag: Some("--record"),
        layer: None,
        part: Some(("replay", "Recorded schedules: capture → shrink → replay", render::replay)),
        run: record,
    },
    Phase {
        span: Span::ReportMonitor,
        flag: Some("--monitor"),
        layer: Some("stm"),
        part: Some(("monitor", "Streaming monitor: live traffic through the tiered checker", render::monitor)),
        run: monitor,
    },
    Phase {
        span: Span::ReportSat,
        flag: Some("--sat"),
        layer: Some("sat"),
        part: Some(("sat", "SAT backend: DFS against CDCL verdicts, and the wide-UNSAT crossover", render::sat)),
        run: sat,
    },
];

/// The parts of the text the flight recorder yields after the last
/// phase: what it held, and the phase tree folded from it.
pub(crate) const RECORDING: [Part; 2] = [
    ("flight", "Flight recording", render::flight),
    ("profile", "Exploration profile", render::profile),
];

/// Figures 1–2: every litmus outcome's verdict under every model.
fn figures(run: &mut Run) -> Result<Section, String> {
    let mut rows = Vec::new();
    for litmus in all_litmus() {
        for o in &litmus.outcomes {
            for m in all_models() {
                let (verdict, stats) = check_opacity_traced(&o.history, m);
                run.metrics.record_checker(litmus.name, &stats);
                rows.push(Row {
                    section: "figures",
                    id: format!("{}/{}/{}", litmus.name, o.label, m.name()),
                    expected: "(see paper)",
                    observed: if verdict.is_opaque() {
                        "allowed".into()
                    } else {
                        "forbidden".into()
                    },
                    pass: true,
                });
            }
        }
    }
    Ok(Section { rows, entry: None })
}

/// The paper's §4 table: the `costs` entry of each algorithm, the most
/// memory instructions one operation of an uncontended program
/// executes.
fn costs(_: &mut Run) -> Result<Section, String> {
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
    Ok(Section {
        rows: Vec::new(),
        entry: Some(Json::Arr(costs)),
    })
}

/// Lemma 1 and Theorems 1–5, 7 on the simulator, every sweep through
/// the run's one memo. It keeps the exhaustive experiments' exploration
/// counters for the DPOR table and every counterexample for the
/// explanations and `--record`: those sections are views of these
/// sweeps, not second runs of them.
fn theorems(run: &mut Run) -> Result<Section, String> {
    let mut rows = Vec::new();
    for e in all_fixed_experiments() {
        let r = e.run_shared(
            SweepSeeds::new(0, 2_000),
            THEOREM_STEPS,
            &run.cfg,
            &run.memo,
        );
        if e.exhaustive {
            run.exhaustive.push((e.id.clone(), r.stats));
        }
        run.metrics.record_mc(&r.stats);
        run.waste.absorb(&r.waste);
        rows.push(Row {
            section: "theorems",
            id: e.id.clone(),
            expected: e.paper_ref,
            observed: r.detail,
            pass: r.passed,
        });
        if let Some(cx) = r.violation {
            run.counterexamples.insert(e.id, cx);
        }
    }
    Ok(Section { rows, entry: None })
}

/// DPOR reduction: executed runs against history classes, on the
/// theorem phase's exhaustive experiments. That it visits exactly the
/// enumerated classes, at any worker count, is proven by
/// `tests/dpor_props.rs` on these same experiments; the row holds the
/// run to its own accounting only (the explorer and the judge must also
/// agree on the complete-run count).
fn dpor(run: &mut Run) -> Result<Section, String> {
    let (mut rows, mut entries) = (Vec::new(), Vec::new());
    for (id, st) in &run.exhaustive {
        let completed = st.histories_checked + st.dedup_hits;
        let classes = st.histories_checked;
        let mut j = Json::obj();
        j.push("id", id.as_str().into())
            .push("dpor_executed", st.dpor_executed.into())
            .push("dpor_completed", completed.into())
            .push("classes", classes.into())
            .push("truncated", st.truncated.into())
            .push("blocked", st.dpor_blocked.into());
        entries.push(j);
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
    Ok(Section {
        rows,
        entry: Some(Json::Arr(entries)),
    })
}

/// The matched-model zoo, five STMs × every registry entry: each cell
/// samples the STM on the entry's execution semantics and checks opacity
/// parametrized by the same entry's model. (The fixed experiments keep
/// the paper's SC-execution setting; this table is what the unified
/// registry adds.)
fn zoo(run: &mut Run) -> Result<Section, String> {
    run.zoo = matched_zoo(SweepSeeds::new(0, 30), 8_000, &run.cfg, &run.memo);
    let mut rows = Vec::new();
    for z in &run.zoo {
        run.metrics.record_mc(&z.stats);
        rows.push(Row {
            section: "zoo",
            id: format!("zoo/{}/{}", z.algo, z.model),
            expected: "(descriptive)",
            observed: if z.ok { "opaque" } else { "violated" }.into(),
            pass: true,
        });
    }
    Ok(Section { rows, entry: None })
}

/// Redundancy elimination and coverage of every sweep so far — theorems
/// and zoo — folded into one total.
fn sweeps(run: &mut Run) -> Result<Section, String> {
    let mc = run.metrics.mc.unwrap_or_default();
    let (hits, lookups) = (run.memo.hits(), run.memo.lookups());
    let rows = vec![
        Row {
            section: "sweeps",
            id: "sweeps/dedup-rate".into(),
            expected: "duplicate traces skipped at or above the floor",
            // One decimal: the counts differ run to run (two workers race
            // to the seen-set), the rows must not.
            observed: format!(
                "{:.1} of schedules were duplicates (floor {})",
                crate::rate(mc.dedup_hits, mc.schedules),
                crate::DEDUP_RATE_FLOOR
            ),
            pass: crate::dedup_rate_ok(&mc),
        },
        Row {
            section: "sweeps",
            id: "sweeps/memo-hit-rate".into(),
            expected: "shared verdict memo hits at or above the floor",
            observed: format!(
                "{:.1} of lookups hit (floor {})",
                crate::rate(hits, lookups),
                crate::MEMO_HIT_RATE_FLOOR
            ),
            pass: crate::memo_rate_ok(hits, lookups),
        },
        Row {
            section: "sweeps",
            id: "sweeps/zoo-coverage".into(),
            expected: "every registry entry × every zoo STM",
            observed: format!("{} cells", run.zoo.len()),
            pass: crate::zoo_covers_registry(&run.zoo),
        },
    ];
    Ok(Section { rows, entry: None })
}

/// Each Theorem 1 counterexample, explained once: its narrative goes
/// into the document, its class into the `--record` log. A case the
/// theorem phase found no counterexample for fails.
fn explain(run: &mut Run) -> Result<Section, String> {
    let (mut rows, mut explanations) = (Vec::new(), Vec::new());
    for e in thm1_suite() {
        let explained = run
            .counterexamples
            .get(&e.id)
            .and_then(|cx| explain_trace(&cx.trace, e.entry.model, e.kind).ok());
        let Some(ex) = explained else {
            rows.push(Row {
                section: "explain",
                id: e.id,
                expected: "violating trace",
                observed: "none found".into(),
                pass: false,
            });
            continue;
        };
        let mut j = Json::obj();
        j.push("id", e.id.as_str().into())
            .push("model", ex.model.into())
            .push("class", ex.class.map_or(Json::Null, |c| c.name().into()))
            .push("rendered", ex.render().into());
        explanations.push(j);
        if let Some(class) = ex.class {
            run.classes.insert(e.id, class);
        }
    }
    Ok(Section {
        rows,
        entry: Some(Json::Arr(explanations)),
    })
}

/// `--record`: each Theorem 1 counterexample's schedule log, shrunk to a
/// minimal still-violating log, both replay-verified and written under
/// the directory. A log that cannot be written is an error.
fn record(run: &mut Run) -> Result<Section, String> {
    let dir = run
        .args
        .record
        .as_ref()
        .expect("--record names a directory");
    let (mut rows, mut logs) = (Vec::new(), Vec::new());
    for e in thm1_suite() {
        let Some(cx) = run.counterexamples.get(&e.id) else {
            rows.push(Row {
                section: "replay",
                id: e.id,
                expected: "violating schedule recorded",
                observed: "no violation within sweep".into(),
                pass: false,
            });
            continue;
        };
        let log = log_of(&e, cx, THEOREM_STEPS, run.classes.get(&e.id).copied());
        let (min, stats) = shrink(&log, &e);
        let raw_out = replay(&log, &e);
        let min_out = replay(&min, &e);
        let class_matches = log.class.is_some() && log.class == min.class;
        let stem = e.id.replace('/', "-");
        let raw_path = dir.join(format!("{stem}.json"));
        let min_path = dir.join(format!("{stem}.min.json"));
        for (path, log) in [(&raw_path, &log), (&min_path, &min)] {
            log.save(path)
                .map_err(|err| format!("could not write schedule log {}: {err}", path.display()))?;
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
        logs.push(j);
        rows.push(Row {
            section: "replay",
            id: e.id,
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
        .push("logs", Json::Arr(logs));
    Ok(Section {
        rows,
        entry: Some(sec),
    })
}

/// `--monitor`: drive every STM with live transactional traffic (4
/// threads, each running read-modify-write transactions on its own
/// variable) through a blocking event tap while a monitor thread
/// checks the stream online.
///
/// The disjoint per-thread footprint makes every window provably
/// opaque, so this sweep measures the monitor's steady state: each
/// STM's row holds its stream to [`crate::monitor_ok`] — every event of
/// every transaction ingested, none dropped, no violation, every window
/// decided by one tier, (nearly) all by triage. A consumer that panics
/// is an error.
fn monitor(run: &mut Run) -> Result<Section, String> {
    use jungle_core::ids::ProcId;
    use jungle_stm::{atomically, Ctx};
    const THREADS: u32 = 4;
    const TXNS: u64 = 11_000;
    const WINDOW: usize = 64;
    // Begin, read, write, commit.
    const OPS_PER_TXN: u64 = 4;

    let memo = Arc::new(SharedVerdictMemo::new());
    let mut total = MonitorStats::default();
    let (mut rows, mut entries) = (Vec::new(), Vec::new());
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
        let stats = join_consumer(tm.name(), consumer).map_err(|e| format!("error: {e}"))?;
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
            pass: crate::monitor_ok(&stats, OPS_PER_TXN * u64::from(THREADS) * TXNS),
        });
        let mut j = Json::obj();
        j.push("stm", tm.name().into())
            .push("stats", stats.to_json());
        entries.push(j);
        total.absorb(&stats);
    }
    run.metrics.record_monitor(&total);
    let mut sec = Json::obj();
    sec.push("stms", Json::Arr(entries));
    Ok(Section {
        rows,
        entry: Some(sec),
    })
}

/// `--sat`: cross-validate the CDCL serialization-order backend
/// against the DFS checkers over the full litmus corpus (every
/// registry entry, both check kinds), then run the two engines on the
/// wide-UNSAT stress family — the shape whose order space is `p!` but
/// whose infeasibility the SAT backend refutes with a single
/// empty-core probe — to locate the first size where SAT does less
/// work (CEGAR rounds against serialization orders tried). Its entry
/// names each check the backends disagree on; the solver's effort is
/// `metrics.sat`.
fn sat(run: &mut Run) -> Result<Section, String> {
    use jungle_core::check::{Check, CheckBackend, CheckKind};
    use jungle_core::model::Sc;
    use jungle_litmus::stress::wide_unsat_history;

    let mut rows = Vec::new();
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
    run.metrics.record_sat(&total);

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
    Ok(Section {
        rows,
        entry: Some(sec),
    })
}

/// Every enabled phase of [`PHASES`], once, in order: the document, and
/// why the run fails if it does (a failing row, a profile that cannot
/// be folded). An error is a phase or an output that could not finish
/// (a monitor consumer that panicked, a file that cannot be written);
/// it leaves no document.
pub fn report(args: &Args) -> Result<(Json, Option<String>), String> {
    let start = std::time::Instant::now();
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

    let mut run = Run::new(args);
    let (mut rows, mut entries, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    for phase in &PHASES {
        if !phase.flag.is_none_or(|flag| args.names(flag)) {
            idle.extend(phase.layer);
            continue;
        }
        let _span = profile::enter(phase.span);
        let section = (phase.run)(&mut run)?;
        rows.extend(section.rows);
        if let (Some((key, ..)), Some(entry)) = (phase.part, section.entry) {
            entries.push((key, entry));
        }
    }
    let Run {
        memo,
        metrics,
        waste,
        ..
    } = run;

    if let Some(dir) = &args.memo_dir {
        if let Err(e) = memo.save_dir(dir) {
            eprintln!("warning: could not persist memo to {}: {e}", dir.display());
        }
    }
    let entry = LedgerEntry {
        ts_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        git_rev: env!("JUNGLE_GIT_REV").into(),
        source: "report".into(),
        wall_ms: start.elapsed().as_millis() as u64,
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

    // Every worker and monitor thread has been joined, so the rings hold
    // the whole run.
    flight::uninstall();
    if let (Some(rec), Some(path)) = (&recorder, &args.trace) {
        rows.push(Row {
            section: "flight",
            id: "flight/complete".into(),
            expected: "0 events dropped, every driven span layer recorded",
            observed: format!("{} recorded, {} dropped", rec.recorded(), rec.dropped()),
            pass: crate::flight_complete(rec, &idle),
        });
        let trace_json = rec.chrome_trace();
        std::fs::write(path, format!("{trace_json}\n"))
            .map_err(|e| format!("could not write trace to {}: {e}", path.display()))?;
    }
    // A profile that cannot be folded is an error, never a smaller tree.
    let mut fold_error = None;
    if let Some(rec) = recorder.as_ref().filter(|_| args.profile) {
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
        sec.push("dpor", waste.to_json());
        entries.push(("profile", sec));
    }
    if let Some(rec) = &recorder {
        let mut sec = rec.summary();
        if let Some(path) = &args.trace {
            sec.push("file", path.display().to_string().into());
        }
        entries.push(("flight", sec));
    }

    let mut memo_j = Json::obj();
    memo_j
        .push("hits", memo.hits().into())
        .push("lookups", memo.lookups().into())
        .push("entries", (memo.len() as u64).into())
        .push("cross_run_hits", memo.cross_run_hits().into())
        .push("preloaded_entries", memo.preloaded_entries().into());
    let failed = rows.iter().filter(|r| !r.pass).count();
    let mut doc = Json::obj();
    doc.push(
        "rows",
        Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
    )
    .push("metrics", metrics.to_json())
    .push("shared_memo", memo_j)
    .push(
        "ledger_entry",
        LedgerEntry {
            metrics: Json::Null,
            ..entry
        }
        .to_json(),
    );
    for (key, entry) in entries {
        doc.push(key, entry);
    }
    let failure = if failed > 0 {
        Some(format!("{failed} report checks failed"))
    } else {
        fold_error.map(|e| format!("the profile could not be folded: {e}"))
    };
    Ok((doc, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A theorem phase that kept no counterexample, injected without a
    /// process or a flag: the explain phase fails each Theorem 1 case
    /// by name, and the text closes on those failures.
    #[test]
    fn explaining_no_counterexample_fails_each_case() {
        let args = Args::default();
        let section = explain(&mut Run::new(&args)).unwrap();
        assert_eq!(section.rows.len(), 4);
        for r in &section.rows {
            assert_eq!(
                (r.section, r.observed.as_str(), r.pass),
                ("explain", "none found", false)
            );
        }
        let mut doc = Json::obj();
        doc.push(
            "rows",
            Json::Arr(section.rows.iter().map(Row::to_json).collect()),
        )
        .push(
            "explanations",
            section.entry.expect("an explanations entry"),
        );
        let failures: String = thm1_suite()
            .iter()
            .map(|e| format!("- `{}`: none found\n", e.id))
            .collect();
        let text = render::report(&doc);
        assert!(
            text.ends_with(&format!("\n4 FAILURES:\n{failures}")),
            "{text}"
        );
    }
}
