//! `report`'s text: the rendering of its JSON document.
//!
//! `report` builds one document per run. With `--json` it prints the
//! document; without, it prints [`report`] of it (a `--replay` run,
//! [`replayed`]). The section functions are also what
//! `crates/bench/tests/report_cli.rs` holds EXPERIMENTS.md's
//! `<!-- report:<name> -->` blocks to, so a table reads the same in
//! the terminal and in the document, and a saved `--json` document
//! renders as the run that wrote it printed. The renderer reads only
//! the document and shows no value that races between runs (the
//! sweeps' counters, the monitor's queue depth), so the same flags
//! render the same text; only a `--trace` or `--profile` run's flight
//! counts and phase times differ run to run.

use jungle_obs::Json;
use std::fmt::Write as _;

fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("'{key}' is not an array: {other:?}"),
    }
}

fn num(obj: &Json, key: &str) -> u64 {
    obj.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no numeric '{key}' in {obj}"))
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {obj}"))
}

fn flag(obj: &Json, key: &str) -> bool {
    obj.get(key) == Some(&Json::Bool(true))
}

fn field(obj: &Json, key: &str) -> String {
    obj.get(key)
        .unwrap_or_else(|| panic!("no '{key}' in {obj}"))
        .to_string()
}

fn section<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key).unwrap_or_else(|| panic!("no '{key}' section"))
}

/// The `metrics.<block>` counters.
fn metric<'a>(doc: &'a Json, block: &str) -> &'a Json {
    section(section(doc, "metrics"), block)
}

/// A Markdown table: the header row, its rule, then one line per row.
fn table(header: &[impl AsRef<str>], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let line = |cells: &[String]| format!("| {} |", cells.join(" | "));
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let mut out = vec![line(&header), format!("|{}", "---|".repeat(header.len()))];
    out.extend(rows.into_iter().map(|r| line(&r)));
    out.join("\n")
}

fn rows_of<'a>(doc: &'a Json, section: &'a str) -> impl Iterator<Item = &'a Json> {
    arr(doc, "rows")
        .iter()
        .filter(move |r| text(r, "section") == section)
}

/// A section's rows with ids `<line>/<column>` as a grid: the columns
/// in the report's order, then each line with its rows.
type Grid<'a> = (Vec<&'a str>, Vec<(&'a str, Vec<&'a Json>)>);

fn grid<'a>(doc: &'a Json, section: &'a str) -> Grid<'a> {
    let (mut columns, mut lines): Grid = (Vec::new(), Vec::new());
    for r in rows_of(doc, section) {
        let id = text(r, "id");
        let (line, column) = id
            .rsplit_once('/')
            .unwrap_or_else(|| panic!("no '/' in row id {id}"));
        if !columns.contains(&column) {
            columns.push(column);
        }
        match lines.last_mut() {
            Some((l, cells)) if *l == line => cells.push(r),
            _ => lines.push((line, vec![r])),
        }
    }
    (columns, lines)
}

/// The `figures` rows (`<figure>/<outcome>/<model>`): one line per
/// outcome, one column per registry model; a failing row is marked.
pub fn figures(doc: &Json) -> String {
    let (models, lines) = grid(doc, "figures");
    let mut header = vec!["figure", "outcome"];
    header.extend(&models);
    table(
        &header,
        lines.into_iter().map(|(id, rows)| {
            let (figure, outcome) = id.split_once('/').unwrap();
            let mut line = vec![figure.to_string(), outcome.to_string()];
            line.extend(rows.into_iter().map(|r| {
                let verdict = match text(r, "observed") {
                    "allowed" => "✓",
                    "forbidden" => "✗",
                    other => panic!("figure verdict {other}"),
                };
                if flag(r, "pass") {
                    verdict.to_string()
                } else {
                    format!("{verdict} ❌")
                }
            }));
            line
        }),
    )
}

/// The `theorems` rows: the experiment, the paper's result, what the
/// report observed (without the id it repeats) and whether it passed.
pub fn theorems(doc: &Json) -> String {
    table(
        &["experiment", "paper", "observed", "pass"],
        rows_of(doc, "theorems").map(|r| {
            let id = text(r, "id");
            let observed = text(r, "observed");
            let observed = observed
                .strip_prefix(&format!("{id}: "))
                .unwrap_or(observed);
            vec![
                format!("`{id}`"),
                text(r, "expected").to_string(),
                observed.to_string(),
                if flag(r, "pass") { "✅" } else { "❌" }.to_string(),
            ]
        }),
    )
}

/// The `dpor` section: one line per exhaustive experiment.
pub fn dpor(doc: &Json) -> String {
    let keys = [
        "dpor_executed",
        "dpor_completed",
        "blocked",
        "truncated",
        "classes",
    ];
    table(
        &[
            "experiment",
            "executed",
            "complete",
            "blocked",
            "truncated",
            "classes",
        ],
        arr(doc, "dpor").iter().map(|e| {
            let mut row = vec![format!("`{}`", text(e, "id"))];
            row.extend(keys.iter().map(|k| field(e, k)));
            row
        }),
    )
}

/// The `zoo` rows (`zoo/<algorithm>/<model>`): one line per algorithm,
/// one column per registry model.
pub fn zoo(doc: &Json) -> String {
    let (models, lines) = grid(doc, "zoo");
    let mut header = vec!["algorithm"];
    header.extend(&models);
    table(
        &header,
        lines.into_iter().map(|(id, rows)| {
            let mut line = vec![id.strip_prefix("zoo/").unwrap().to_string()];
            line.extend(rows.into_iter().map(|r| text(r, "observed").to_string()));
            line
        }),
    )
}

/// The `costs` array: the paper's §4 instruction counts per algorithm.
pub fn costs(doc: &Json) -> String {
    let keys = ["nt_read", "nt_write", "txn_read", "commit"];
    table(
        &[
            "algorithm",
            "class",
            "nt-read",
            "nt-write",
            "txn-read",
            "commit",
        ],
        arr(doc, "costs").iter().map(|c| {
            let mut row = vec![
                text(c, "algorithm").to_string(),
                text(c, "class").to_string(),
            ];
            row.extend(keys.iter().map(|k| field(c, k)));
            row
        }),
    )
}

/// The `monitor` section per STM, and `metrics.monitor` as the total.
/// `max_queue_depth` is left out (how far the producers outrun the
/// consumer is a race).
pub fn monitor(doc: &Json) -> String {
    let keys = [
        "ops_ingested",
        "nontxn_skipped",
        "events_dropped",
        "windows_sealed",
        "triage_cleared",
        "escalated",
        "memo_hits",
        "violations",
    ];
    let section = doc.get("monitor").expect("a --monitor run");
    let line = |name: String, stats: &Json| {
        let mut row = vec![name];
        row.extend(keys.iter().map(|k| field(stats, k)));
        row
    };
    let mut rows: Vec<Vec<String>> = arr(section, "stms")
        .iter()
        .map(|s| line(text(s, "stm").to_string(), s.get("stats").unwrap()))
        .collect();
    rows.push(line("total".to_string(), metric(doc, "monitor")));
    table(
        &[
            "STM",
            "events",
            "non-txn skipped",
            "dropped",
            "windows",
            "triage-cleared",
            "escalated",
            "memo hits",
            "violations",
        ],
        rows,
    )
}

/// The `sat` section: the agreement sweep and the solver's effort
/// (`metrics.sat`) in one line, then the crossover family one column
/// per size, then the checks on which the two backends disagreed, if
/// any did.
pub fn sat(doc: &Json) -> String {
    let section = doc.get("sat").expect("a --sat run");
    let disagreeing = arr(section, "disagreeing");
    let mut cells: Vec<(String, String)> = vec![
        ("checked".into(), field(section, "checked")),
        ("disagreements".into(), disagreeing.len().to_string()),
        ("positives".into(), field(section, "positives")),
        (
            "witness_certified".into(),
            field(section, "witness_certified"),
        ),
    ];
    match metric(doc, "sat") {
        Json::Obj(fields) => cells.extend(
            fields
                .iter()
                .map(|(k, v)| (format!("stats.{k}"), v.to_string())),
        ),
        other => panic!("metrics.sat is not an object: {other:?}"),
    }
    let header: Vec<String> = cells.iter().map(|(k, _)| format!("`{k}`")).collect();
    let totals = table(&header, [cells.into_iter().map(|(_, v)| v).collect()]);
    let points = arr(section, "crossover_points");
    let line = |key: &str, name: &str| {
        let mut row = vec![name.to_string()];
        row.extend(points.iter().map(|p| field(p, key)));
        row
    };
    let crossover = table(
        &line("p", "p"),
        [
            line("dfs_orders", "DFS orders"),
            line("sat_rounds", "SAT CEGAR rounds"),
        ],
    );
    let mut out = format!("{totals}\n\n{crossover}");
    for label in disagreeing {
        write!(out, "\n- disagree: `{}`", label.as_str().unwrap()).unwrap();
    }
    out
}

/// The `explanations` array: each counterexample's narrative.
fn explanations(doc: &Json) -> String {
    let narratives: Vec<String> = arr(doc, "explanations")
        .iter()
        .map(|e| {
            format!(
                "### {}\n\n{}",
                text(e, "id"),
                text(e, "rendered").trim_end()
            )
        })
        .collect();
    narratives.join("\n\n")
}

/// The `replay` section: one line per recorded schedule log.
fn replay(doc: &Json) -> String {
    let section = section(doc, "replay");
    let logs = table(
        &[
            "experiment",
            "decisions",
            "shrunk",
            "rounds",
            "candidates",
            "class",
            "replay",
        ],
        arr(section, "logs").iter().map(|l| {
            let ok = [
                "replay_matches",
                "shrunk_replay_matches",
                "shrunk_violating",
                "class_matches",
            ]
            .iter()
            .all(|k| flag(l, k));
            let mut row = vec![format!("`{}`", text(l, "id"))];
            row.extend(
                [
                    "decisions",
                    "shrunk_decisions",
                    "shrink_rounds",
                    "shrink_candidates",
                ]
                .iter()
                .map(|k| field(l, k)),
            );
            row.push(l.get("class").and_then(Json::as_str).unwrap_or("?").into());
            row.push(if ok { "OK" } else { "FAIL" }.into());
            row
        }),
    );
    format!("{logs}\n\nLogs under {}.", text(section, "dir"))
}

/// The `flight` section: what the recorder held, and the exported file.
fn flight(doc: &Json) -> String {
    let f = section(doc, "flight");
    let mut out = format!(
        "{} events recorded, {} dropped",
        num(f, "recorded"),
        num(f, "dropped")
    );
    if let Some(file) = f.get("file") {
        write!(out, ", exported to {}", file.as_str().unwrap()).unwrap();
    }
    out
}

/// The `profile` section: the phase tree (or why it could not be
/// folded) and the run-wide DPOR race heat.
fn profile(doc: &Json) -> String {
    fn ns(ns: u64) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.2}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.2}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.1}us", ns as f64 / 1e3)
        } else {
            format!("{ns}ns")
        }
    }
    fn walk(n: &Json, depth: usize, out: &mut String) {
        writeln!(
            out,
            "{:indent$}{:<width$} calls={:<8} total={:<9} self={}",
            "",
            text(n, "name"),
            num(n, "calls"),
            ns(num(n, "total_ns")),
            ns(num(n, "self_ns")),
            indent = depth * 2,
            width = 28usize.saturating_sub(depth * 2),
        )
        .unwrap();
        for c in arr(n, "children") {
            walk(c, depth + 1, out);
        }
    }
    let p = section(doc, "profile");
    let mut tree = String::new();
    match p.get("error") {
        Some(e) => writeln!(tree, "profile: {}", e.as_str().unwrap()).unwrap(),
        None => walk(section(p, "phases"), 0, &mut tree),
    }
    let mc = metric(doc, "mc");
    format!(
        "```\n{tree}```\n\ndpor: {} race pairs, {} blocked runs",
        num(mc, "races"),
        num(mc, "dpor_blocked")
    )
}

/// `report`'s sections in print order: the document key that holds the
/// section (the first five are in every document), its heading, and
/// its renderer.
type Section = (&'static str, &'static str, fn(&Json) -> String);
const SECTIONS: [Section; 11] = [
    ("rows", "Figures 1–2: litmus verdicts per memory model", figures),
    (
        "costs",
        "TM algorithms (§4): instrumentation, and the most memory instructions per uncontended operation",
        costs,
    ),
    ("rows", "Lemma 1 and Theorems: simulator experiments", theorems),
    (
        "dpor",
        "DPOR reduction: the exhaustive sweeps above, runs against classes",
        dpor,
    ),
    (
        "rows",
        "Matched-model zoo: STM × registry entry (execute X, check X)",
        zoo,
    ),
    (
        "explanations",
        "Theorem 1 counterexamples, explained",
        explanations,
    ),
    (
        "replay",
        "Recorded schedules: capture → shrink → replay",
        replay,
    ),
    (
        "monitor",
        "Streaming monitor: live traffic through the tiered checker",
        monitor,
    ),
    (
        "sat",
        "SAT backend: DFS against CDCL verdicts, and the wide-UNSAT crossover",
        sat,
    ),
    ("flight", "Flight recording", flight),
    ("profile", "Exploration profile", profile),
];

/// A `report` document as text: each section it holds under a Markdown
/// heading, then `All N checks passed.` or the failing rows.
pub fn report(doc: &Json) -> String {
    let mut out = String::new();
    for (key, heading, render) in SECTIONS {
        if doc.get(key).is_some() {
            write!(out, "## {heading}\n\n{}\n\n", render(doc)).unwrap();
        }
    }
    let rows = arr(doc, "rows");
    let failed: Vec<&Json> = rows.iter().filter(|r| !flag(r, "pass")).collect();
    if failed.is_empty() {
        writeln!(out, "All {} checks passed.", rows.len()).unwrap();
    } else {
        writeln!(out, "{} FAILURES:", failed.len()).unwrap();
        for f in failed {
            writeln!(out, "- `{}`: {}", text(f, "id"), text(f, "observed")).unwrap();
        }
    }
    out
}

/// A `report --replay` document as text: what the replay reproduced,
/// where it first diverged, and the narrative when it holds one.
pub fn replayed(doc: &Json) -> String {
    let status = if flag(doc, "matches") {
        "fingerprint reproduced"
    } else if !flag(doc, "completed") {
        "run truncated"
    } else {
        "MISMATCH"
    };
    let mut out = format!(
        "replayed {} on {} ({} decisions): {status}\n",
        text(doc, "file"),
        text(doc, "experiment"),
        num(doc, "decisions"),
    );
    if let Some(d) = doc.get("divergence") {
        writeln!(
            out,
            "  first divergence at step {}: expected action {:#x} of {} options, got {:#x} of {}",
            num(d, "step"),
            num(d, "expected_action"),
            num(d, "expected_options"),
            num(d, "actual_action"),
            num(d, "actual_options")
        )
        .unwrap();
    }
    writeln!(
        out,
        "  recorded fingerprint {:#x}, replayed {:#x}, violating: {}",
        num(doc, "recorded_fingerprint"),
        num(doc, "replayed_fingerprint"),
        field(doc, "violating")
    )
    .unwrap();
    if let Some(narrative) = doc.get("rendered").and_then(Json::as_str) {
        write!(out, "\n{narrative}\n").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_obs::{ProfileNode, ToJson};

    fn profiled(phases: Json, error: Option<&str>) -> Json {
        let mut mc = Json::obj();
        mc.push("races", 3u64.into())
            .push("dpor_blocked", 2u64.into());
        let mut metrics = Json::obj();
        metrics.push("mc", mc);
        let mut sec = Json::obj();
        sec.push("phases", phases);
        if let Some(e) = error {
            sec.push("error", e.into());
        }
        let mut doc = Json::obj();
        doc.push("metrics", metrics).push("profile", sec);
        doc
    }

    /// One line per node of the JSON phase tree, a child indented under
    /// its parent, then the race heat; a fold error in its place.
    #[test]
    fn the_profile_renders_its_phase_tree() {
        let node = |name: &str, total_ns, self_ns, children| ProfileNode {
            name: name.into(),
            calls: 1,
            total_ns,
            self_ns,
            children,
        };
        let tl2 = node("monitor.tl2", 2_498_500, 2_498_500, vec![]);
        let monitor = node("report.monitor", 2_500_000, 1_500, vec![tl2]);
        let root = node("profile", 2_500_000, 0, vec![monitor]);
        let text = profile(&profiled(root.to_json(), None));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        assert!(lines[1].starts_with("profile ") && lines[1].ends_with("self=0ns"));
        assert!(lines[2].starts_with("  report.monitor "), "{}", lines[2]);
        assert!(lines[2].contains("calls=1 ") && lines[2].contains("total=2.50ms "));
        assert!(lines[2].ends_with("self=1.5us"), "{}", lines[2]);
        assert!(lines[3].starts_with("    monitor.tl2 "), "{}", lines[3]);
        assert_eq!(lines[6], "dpor: 3 race pairs, 2 blocked runs");

        let error = profile(&profiled(Json::Null, Some("2 events dropped")));
        assert!(
            error.starts_with("```\nprofile: 2 events dropped\n```"),
            "{error}"
        );
    }

    /// A failing row ends the text in place of the closing line.
    #[test]
    fn failing_rows_close_the_report() {
        let row = |id: &str, pass: bool| {
            let mut r = Json::obj();
            r.push("section", "explain".into())
                .push("id", id.into())
                .push("observed", "none found".into())
                .push("pass", pass.into());
            r
        };
        let mut doc = Json::obj();
        doc.push("rows", Json::Arr(vec![row("a", true)]));
        assert!(report(&doc).ends_with("\n\nAll 1 checks passed.\n"));
        let mut doc = Json::obj();
        doc.push("rows", Json::Arr(vec![row("a", true), row("b", false)]));
        let text = report(&doc);
        assert!(
            text.ends_with("\n\n1 FAILURES:\n- `b`: none found\n"),
            "{text}"
        );
    }
}
