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

use jungle_bench::phases::{self, Args};
use jungle_bench::render;
use jungle_mc::explain::explain_trace;
use jungle_mc::theorems::{experiment_by_id, experiment_ids};
use jungle_obs::Json;
use jungle_replay::{replay, ScheduleLog};
use std::path::PathBuf;

fn parse_args() -> Args {
    let mut args = Args::default();
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

/// `report --replay <file>`: re-execute a saved schedule log on the
/// experiment it was recorded against, verify the recorded history
/// fingerprint, and narrate the replayed counterexample. Returns the
/// replay's document, and a failure on divergence or a fingerprint
/// mismatch. A log that cannot be read, or that names no bundled
/// experiment or another model or property than its experiment's, exits
/// with a named error.
fn replay_mode(path: &std::path::Path) -> (Json, Option<String>) {
    let refuse = |why: String| -> ! {
        eprintln!("error: {why}");
        std::process::exit(2);
    };
    let log = ScheduleLog::load(path).unwrap_or_else(|e| refuse(e.to_string()));
    let Some(id) = log.experiment.clone() else {
        refuse(format!(
            "{} names no bundled experiment; cannot resolve a program to replay on",
            path.display()
        ));
    };
    let exp = experiment_by_id(&id).unwrap_or_else(|| {
        let valid: Vec<String> = experiment_ids().iter().map(|v| format!("  {v}")).collect();
        refuse(format!(
            "no bundled experiment with id '{id}'\nvalid ids:\n{}",
            valid.join("\n")
        ))
    });
    if log.model != exp.entry.key || log.kind != exp.kind {
        refuse(format!(
            "{} was recorded under {} {}, but experiment '{id}' checks {} {}",
            path.display(),
            log.model,
            log.kind.tag(),
            exp.entry.key,
            exp.kind.tag()
        ));
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

/// The run's one output: its document, or that document's text.
fn main() {
    let args = parse_args();
    let (doc, failure) = match &args.replay {
        Some(path) => replay_mode(path),
        None => phases::report(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        }),
    };
    let render = match args.replay {
        Some(_) => render::replayed,
        None => render::report,
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
