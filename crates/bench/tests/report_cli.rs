//! The `report` binary from outside: what it prints in either output
//! mode, what it exits with, that it runs each exhaustive experiment
//! exactly once, what it leaves in the ledger and the trace file, and
//! what it makes of hostile ledger, memo and schedule-log files; and
//! that the documents state what it prints and the flags it takes.

use jungle_mc::SharedVerdictMemo;
use jungle_obs::{Json, LedgerEntry, MonitorStats};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};

/// DPOR runs of one exhaustive fixed experiment (`thm3-litmus`,
/// `thm7-litmus/SC`, `thm7-litmus/Relaxed` all execute this many): one
/// per class. Taken again (from 1,820, of which 1,521 were blocked
/// sleep-set probes) when PR 23 made the explorer source-set DPOR,
/// which starts no run a sleep set will cut.
const RUNS_PER_EXHAUSTIVE: u64 = 299;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jungle-report-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `report` with `args`, its ledger and memo inside `dir`.
fn report(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .arg("--ledger")
        .arg(dir.join("ledger.jsonl"))
        .arg("--memo-dir")
        .arg(dir.join("memo"))
        .output()
        .expect("spawn report")
}

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

#[test]
fn json_run_prints_one_object_and_sweeps_each_experiment_once() {
    let dir = scratch("json");
    let out = report(&dir, &["--json"]);
    assert!(out.status.success(), "exit {:?}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 1, "stdout is one line of JSON");
    // `Json::parse` rejects trailing characters: one object, nothing else.
    let doc = Json::parse(&text).unwrap();
    assert!(matches!(doc, Json::Obj(_)));

    let rows = arr(&doc, "rows");
    let mut ids = HashSet::new();
    for r in rows {
        let id = r.get("id").and_then(Json::as_str).unwrap();
        assert!(ids.insert(id), "row id {id} printed twice");
        assert!(matches!(r.get("pass"), Some(Json::Bool(true))), "{id}");
    }

    // The ledger's metrics count the theorem phase's DPOR runs; the
    // `dpor` section must describe those same runs and no others.
    let dpor = arr(&doc, "dpor");
    assert_eq!(dpor.len(), 3);
    for e in dpor {
        assert_eq!(
            num(e, "dpor_executed"),
            num(e, "dpor_completed") + num(e, "blocked"),
            "{e}"
        );
    }
    let executed: u64 = dpor.iter().map(|e| num(e, "dpor_executed")).sum();
    assert_eq!(executed, 3 * RUNS_PER_EXHAUSTIVE);
    let mc = doc
        .get("ledger_entry")
        .and_then(|l| l.get("metrics"))
        .and_then(|m| m.get("mc"))
        .unwrap();
    assert_eq!(executed, num(mc, "dpor_executed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

/// Every node of a phase tree has exactly the keys the benchmark's
/// traced `report_cold` may read, and none is a `memsim.*` phase: the
/// machine's scheduler decisions are counted (`MachineStats`), not
/// timed. Returns how many nodes there are.
fn phase_nodes(node: &Json) -> usize {
    assert_eq!(
        keys(node),
        ["name", "calls", "total_ns", "self_ns", "children"],
        "{node}"
    );
    let name = node.get("name").and_then(Json::as_str).unwrap();
    assert!(!name.starts_with("memsim."), "a timed decision: {name}");
    1 + arr(node, "children").iter().map(phase_nodes).sum::<usize>()
}

/// Every key of `doc`, at any depth, that ends in `_ns`.
fn ns_keys<'a>(doc: &'a Json, out: &mut Vec<&'a str>) {
    match doc {
        Json::Obj(fields) => {
            for (k, v) in fields {
                if k.ends_with("_ns") {
                    out.push(k);
                }
                ns_keys(v, out);
            }
        }
        Json::Arr(items) => items.iter().for_each(|v| ns_keys(v, out)),
        _ => {}
    }
}

/// The document of a run with every section the profile reads: the
/// phase tree holds one `report.*` child with its `total_ns` per phase
/// the benchmark's traced `report_cold` reads, and nothing else at its
/// root (`--explain` and `--record` explain, shrink and replay under
/// phases of their own, and sweep nothing), the ledger entry carries
/// the run's wall time, `metrics` holds exactly its four blocks, and
/// the run-wide race heat adds up to the sweeps' own race count. No
/// timer below the phase tree: a phase node has calls and times and no
/// latency histogram, the monitor block is its counters, a crossover
/// point is work, and the phase tree holds the document's only
/// nanoseconds.
#[test]
fn profiled_run_has_the_shape_the_benchmark_reads() {
    let dir = scratch("profile");
    let schedules = dir.join("schedules");
    let out = report(
        &dir,
        &[
            "--json",
            "--monitor",
            "--profile",
            "--sat",
            "--explain",
            "--record",
            schedules.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();

    let profile = doc.get("profile").expect("profile section");
    let phases = arr(profile.get("phases").expect("phase tree"), "children");
    for phase in [
        "figures", "theorems", "dpor", "zoo", "explain", "record", "monitor", "sat",
    ] {
        let name = format!("report.{phase}");
        let node = phases
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name.as_str()))
            .unwrap_or_else(|| panic!("no phase {name}"));
        num(node, "total_ns");
    }
    // A sweep's stripe workers check under the phase that spawned them.
    for node in phases {
        let name = node.get("name").and_then(Json::as_str).unwrap();
        assert!(name.starts_with("report."), "{name} at the root");
    }
    num(doc.get("ledger_entry").expect("ledger entry"), "wall_ms");

    let metrics = doc.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), ["checker", "mc", "monitor", "sat"]);
    let dpor = profile.get("dpor").expect("profile.dpor");
    assert_eq!(keys(dpor), ["race_heat", "race_total"]);
    let races = num(metrics.get("mc").unwrap(), "races");
    assert!(races > 0, "the exhaustive sweeps race");
    assert_eq!(num(dpor, "race_total"), races);

    let nodes = phase_nodes(profile.get("phases").unwrap());
    let monitor: Vec<&str> = MonitorStats::FIELDS.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys(metrics.get("monitor").unwrap()), monitor);
    let sat = doc.get("sat").expect("sat section");
    for point in arr(sat, "crossover_points") {
        assert_eq!(keys(point), ["p", "dfs_orders", "sat_rounds"]);
    }
    let mut ns = Vec::new();
    ns_keys(&doc, &mut ns);
    assert!(
        ns.iter().all(|k| *k == "total_ns" || *k == "self_ns"),
        "{ns:?}"
    );
    assert_eq!(ns.len(), 2 * nodes, "a `_ns` key outside the phase tree");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_ledger_is_compacted_and_appended_to() {
    let dir = scratch("ledger");
    let valid = r#"{"ts_unix":1,"git_rev":"abc1234","source":"report","wall_ms":7,"schedules":9,"metrics":null}"#;
    // A line of the previous schema, garbage, a line nested deeper than
    // the parser's stack could follow, and a final line torn mid-write
    // with no newline after it.
    let deep = "[".repeat(200_000);
    std::fs::write(
        dir.join("ledger.jsonl"),
        format!("{valid}\nnot json at all\n{deep}\n{{\"ts_unix\":12,\"git_r"),
    )
    .unwrap();
    let out = report(&dir, &["--json"]);
    assert!(out.status.success(), "exit {:?}", out.status);
    assert!(
        Json::parse(&String::from_utf8(out.stdout).unwrap()).is_ok(),
        "the run still prints its document"
    );
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    let entries: Vec<LedgerEntry> = text
        .lines()
        .map(|l| {
            LedgerEntry::from_json(&Json::parse(l).unwrap())
                .unwrap_or_else(|e| panic!("invalid line survived: {l}: {e}"))
        })
        .collect();
    assert_eq!(entries.len(), 2, "the old valid line and this run's");
    assert_eq!(entries[0].wall_ms, 7);
    assert!(
        matches!(entries[1].metrics, Json::Obj(_)),
        "this run's entry"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_run_exports_a_complete_balanced_trace() {
    let dir = scratch("trace");
    let trace = dir.join("trace.json");
    let out = report(
        &dir,
        &[
            "--json",
            "--monitor",
            "--sat",
            "--trace",
            trace.to_str().unwrap(),
            "--record",
            dir.join("schedules").to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let row = arr(&doc, "rows")
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("flight/complete"))
        .expect("a traced run prints the flight/complete row");
    assert!(matches!(row.get("pass"), Some(Json::Bool(true))), "{row}");
    assert_eq!(num(doc.get("flight").unwrap(), "dropped"), 0);

    let file = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert_eq!(num(&file, "dropped"), 0);
    let mut depth: HashMap<u64, u64> = HashMap::new();
    let mut cats = HashSet::new();
    for ev in arr(&file, "traceEvents") {
        cats.insert(ev.get("cat").and_then(Json::as_str).unwrap());
        let open = depth.entry(num(ev, "tid")).or_default();
        match ev.get("ph").and_then(Json::as_str).unwrap() {
            "B" => *open += 1,
            "E" => *open = open.checked_sub(1).expect("E without a matching B"),
            ph => assert_eq!(ph, "i"),
        }
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "spans left open: {depth:?}"
    );
    // The span layers this run drives, and the verdicts of the
    // Theorem 1 sweeps and their replays.
    for layer in ["checker", "mc", "replay", "sat", "stm"] {
        assert!(cats.contains(layer), "no {layer} event in {cats:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flag_exits_2() {
    let dir = scratch("flag");
    // `--compare` and `--cnf` were flags once; they are unknown like
    // any other now.
    for flag in ["--compare", "--cnf"] {
        let out = report(&dir, &[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown argument: {flag}")), "{err}");
        assert!(out.stdout.is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_of_a_truncated_log_is_a_named_error() {
    let dir = scratch("replay");
    let log = dir.join("torn.json");
    // A schedule log cut off mid-write.
    std::fs::write(
        &log,
        r#"{"version":1,"experiment":"thm1-case1/SC","model":"SC","kind":"opacity","decisions":[[0,2,"#,
    )
    .unwrap();
    let out = report(&dir, &["--replay", log.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "an error exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: ") && err.contains("torn.json"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_of_a_log_with_another_model_or_property_is_refused() {
    let dir = scratch("replay-mismatch");
    let exp = jungle_mc::theorems::thm1_case3(&jungle_core::model::Pso);
    let rec = jungle_replay::record_experiment(&exp, jungle_mc::SweepSeeds::new(0, 2_000), 8_000)
        .expect("thm1-case3/PSO violates");
    let path = dir.join("log.json");
    rec.log.save(&path).unwrap();
    let out = report(&dir, &["--replay", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "the log as recorded replays");
    // The log still names its experiment, but not the experiment's
    // model, or not its property: replaying it against PSO opacity
    // would report a verdict about neither.
    let sc = jungle_replay::ScheduleLog {
        model: "SC".into(),
        ..rec.log.clone()
    };
    let sgla = jungle_replay::ScheduleLog {
        kind: jungle_mc::CheckKind::Sgla,
        ..rec.log
    };
    for (tag, log) in [("model", sc), ("kind", sgla)] {
        log.save(&path).unwrap();
        let out = report(&dir, &["--json", "--replay", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{tag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: ")
                && err.contains("log.json")
                && err.contains("thm1-case3/PSO"),
            "{tag}: {err}"
        );
        assert!(out.stdout.is_empty(), "{tag}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_of_a_deeply_nested_log_is_a_named_error() {
    let dir = scratch("replay-deep");
    let log = dir.join("deep.json");
    // Deep enough to overflow the stack of a parser that recursed
    // without a bound.
    std::fs::write(&log, "[".repeat(200_000)).unwrap();
    let out = report(&dir, &["--replay", log.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "an error exit, not an abort");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: ") && err.contains("deep.json") && err.contains("nesting"),
        "{err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("overflow"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a row claims: `(section, id, expected, pass)`. Its `observed`
/// text carries counts that two worker threads make differ run to run
/// (`sweeps/dedup-rate`: "0.5" or "0.6 of schedules were duplicates").
fn claim(row: &Json) -> ([&str; 3], bool) {
    (
        ["section", "id", "expected"].map(|key| row.get(key).and_then(Json::as_str).unwrap()),
        matches!(row.get("pass"), Some(Json::Bool(true))),
    )
}

/// FNV-1a over every row's [`claim`], fields and rows separated by a
/// byte no string holds.
fn rows_digest(rows: &[Json]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes.iter().chain(&[0xff]) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in rows {
        let (texts, pass) = claim(r);
        for text in texts {
            feed(text.as_bytes());
        }
        feed(&[u8::from(pass)]);
    }
    hash
}

/// What `report --monitor --sat` says, held in both output modes. The
/// row count and [`rows_digest`] were captured at the commit before the
/// text and the document were built on one path (PR 19, `9b128d1`), by
/// this loop run against that commit's binary: a row added, dropped,
/// renamed, reordered, re-specified or no longer passing moves them.
/// The digest was taken again (from `0xe63fd83c61818b45`) when PR 21
/// re-specified `sat/crossover` — its `expected` text is the one input
/// that changed; the other 345 rows were diffed equal to the parent's.
/// Text mode — which no other test runs — must print every section
/// header, the paper's §4 cost table with the very numbers the
/// document's `costs` array carries, and the closing line.
#[test]
fn report_says_the_same_in_json_and_in_text() {
    const ROWS: usize = 346;
    const DIGEST: u64 = 0x878a_65dc_361e_a8cf;

    let dir = scratch("identity");
    let out = report(&dir, &["--json", "--monitor", "--sat"]);
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let rows = arr(&doc, "rows");
    assert_eq!(rows.len(), ROWS);
    let digest = rows_digest(rows);
    assert_eq!(digest, DIGEST, "got {digest:#x}");

    let out = report(&dir, &["--monitor", "--sat"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        text.lines().last(),
        Some(format!("All {ROWS} checks passed.").as_str())
    );
    let headers = text.lines().filter(|l| l.starts_with("════ ")).count();
    assert_eq!(
        headers, 7,
        "figures, costs, theorems, dpor, zoo, monitor, sat"
    );
    let costs = arr(&doc, "costs");
    assert_eq!(costs.len(), 6, "one entry per TM algorithm");
    for c in costs {
        let algo = c.get("algorithm").and_then(Json::as_str).unwrap();
        let want: Vec<String> = ["nt_read", "nt_write", "txn_read", "commit"]
            .iter()
            .map(|k| num(c, k).to_string())
            .collect();
        let lines = text
            .lines()
            .filter(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.first() == Some(&algo) && cols.len() > 4 && cols[cols.len() - 4..] == want[..]
            })
            .count();
        assert_eq!(lines, 1, "cost-table line of {algo}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A memo directory as a crashed or foreign writer could leave it. Only
/// lines that are exactly `<fingerprint> <0|1>`, in a file named for a
/// registry model and a check kind, are verdicts; everything else is
/// skipped without failing the load, and the report's rows do not move.
#[test]
fn hostile_memo_dir_preloads_only_well_formed_lines() {
    let dir = scratch("memo");
    let memo_dir = dir.join("memo");
    std::fs::create_dir_all(&memo_dir).unwrap();
    // Verdicts a real run persisted (`SC.opacity.memo`, `PSO.opacity.memo`).
    let sc = "17699238635919744 1\n1690934655856514595 0\n";
    let pso_good = "70174946227143970 1\n";
    let well_formed = 3;
    let files = [
        // Hostile lines between good ones, and a tail torn mid-number.
        (
            "SC.opacity.memo",
            format!("{sc}12 7\n12 1 x\nnot a line\n-3 1\n12  1\n 12 1\n99"),
        ),
        ("PSO.opacity.memo", format!("{pso_good}126360483034202319")),
        // A model the registry does not know, a kind nobody checks, a
        // foreign extension: well-formed lines that must not load.
        ("VAX.opacity.memo", sc.to_string()),
        ("SC.linearizability.memo", sc.to_string()),
        ("SC.opacity.memo.bak", sc.to_string()),
        ("README", sc.to_string()),
    ];
    for (name, body) in &files {
        std::fs::write(memo_dir.join(name), body).unwrap();
    }
    let memo = SharedVerdictMemo::new();
    assert_eq!(memo.load_dir(&memo_dir).unwrap(), well_formed);
    assert_eq!(memo.preloaded_entries(), well_formed as u64);
    assert_eq!(memo.len(), well_formed);

    let hostile = report(&dir, &["--json"]);
    assert!(hostile.status.success(), "exit {:?}", hostile.status);
    let hostile = Json::parse(&String::from_utf8(hostile.stdout).unwrap()).unwrap();
    assert_eq!(
        num(hostile.get("shared_memo").unwrap(), "preloaded_entries"),
        well_formed as u64
    );
    let empty_dir = scratch("memo-empty");
    let empty = report(&empty_dir, &["--json"]);
    let empty = Json::parse(&String::from_utf8(empty.stdout).unwrap()).unwrap();
    let claims = |doc| arr(doc, "rows").iter().map(claim).collect::<Vec<_>>();
    assert_eq!(claims(&hostile), claims(&empty));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&empty_dir).unwrap();
}

// The documents the last two tests hold to the binary: EXPERIMENTS.md's
// count tables are rendered from one `report --json --monitor --sat`
// run, and the `report` flags README.md and `report.rs`'s module doc
// name are the ones `parse_args` matches.
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const README: &str = include_str!("../../../README.md");
const REPORT_RS: &str = include_str!("../src/bin/report.rs");

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {obj}"))
}

fn field(obj: &Json, key: &str) -> String {
    obj.get(key)
        .unwrap_or_else(|| panic!("no '{key}' in {obj}"))
        .to_string()
}

/// A Markdown table: the header row, its rule, then one line per row.
fn table(header: &[impl AsRef<str>], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let line = |cells: &[String]| format!("| {} |", cells.join(" | "));
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let mut out = vec![line(&header), format!("|{}", "---|".repeat(header.len()))];
    out.extend(rows.into_iter().map(|r| line(&r)));
    out.join("\n")
}

fn passed(row: &Json) -> bool {
    row.get("pass") == Some(&Json::Bool(true))
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
fn figures(doc: &Json) -> String {
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
                if passed(r) {
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
fn theorems(doc: &Json) -> String {
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
                if passed(r) { "✅" } else { "❌" }.to_string(),
            ]
        }),
    )
}

/// The `dpor` section: one line per exhaustive experiment.
fn dpor(doc: &Json) -> String {
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
fn zoo(doc: &Json) -> String {
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
fn costs(doc: &Json) -> String {
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

/// The `monitor` section, per STM and in total. `max_queue_depth` is
/// left out (how far the producers outrun the consumer is a race), and
/// so is `escalation_rate` (the quotient of two shown columns).
fn monitor(doc: &Json) -> String {
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
    rows.push(line("total".to_string(), section.get("total").unwrap()));
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

/// The `sat` section: the agreement sweep and the solver's effort in
/// one line, then the crossover family one column per size.
fn sat(doc: &Json) -> String {
    let section = doc.get("sat").expect("a --sat run");
    let mut cells: Vec<(String, String)> =
        ["checked", "disagreements", "positives", "witness_certified"]
            .iter()
            .map(|k| (k.to_string(), field(section, k)))
            .collect();
    match section.get("stats") {
        Some(Json::Obj(fields)) => cells.extend(
            fields
                .iter()
                .map(|(k, v)| (format!("stats.{k}"), v.to_string())),
        ),
        other => panic!("sat.stats is not an object: {other:?}"),
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
    format!("{totals}\n\n{crossover}")
}

/// The lines strictly between `<!-- report:<name> -->` and
/// `<!-- /report:<name> -->` in EXPERIMENTS.md.
fn committed_block(name: &str) -> Option<String> {
    let open = format!("<!-- report:{name} -->");
    let close = format!("<!-- /report:{name} -->");
    let mut lines = EXPERIMENTS.lines().skip_while(|l| l.trim() != open);
    lines.next()?;
    let block: Vec<&str> = lines.take_while(|l| l.trim() != close).collect();
    Some(block.join("\n"))
}

/// Every count table of EXPERIMENTS.md is what one `report --json
/// --monitor --sat` run renders, byte for byte. A failure prints each
/// block that differs as it should read.
#[test]
fn experiments_tables_are_what_report_prints() {
    let dir = scratch("docs");
    let out = report(&dir, &["--json", "--monitor", "--sat"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();

    let tables = [
        ("figures", figures(&doc)),
        ("theorems", theorems(&doc)),
        ("dpor", dpor(&doc)),
        ("zoo", zoo(&doc)),
        ("costs", costs(&doc)),
        ("monitor", monitor(&doc)),
        ("sat", sat(&doc)),
    ];
    let mut report = String::new();
    for (name, want) in tables {
        match committed_block(name) {
            Some(got) if got == want => {}
            Some(_) => writeln!(
                report,
                "EXPERIMENTS.md's `{name}` table differs from the report's; it should read:\n{want}\n"
            )
            .unwrap(),
            None => writeln!(
                report,
                "EXPERIMENTS.md has no <!-- report:{name} --> … <!-- /report:{name} --> block; it should hold:\n{want}\n"
            )
            .unwrap(),
        }
    }
    assert!(report.is_empty(), "{report}");
}

/// The `--` flags in `line` that are `report`'s own: after `--bin
/// report --` on a cargo command line (none when it has no `--`
/// separator), every one anywhere else.
fn flags_in(line: &str) -> Vec<String> {
    let rest = match line.split_once("--bin report") {
        Some((_, rest)) => match rest.trim_start().strip_prefix("--") {
            Some(args) if args.starts_with(' ') || args.is_empty() => args,
            _ => "",
        },
        None => line,
    };
    rest.match_indices("--")
        .filter(|(i, _)| *i == 0 || !rest.as_bytes()[i - 1].is_ascii_alphanumeric())
        .map(|(i, _)| {
            let tail = &rest[i + 2..];
            let end = tail
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(tail.len());
            rest[i..i + 2 + end].to_string()
        })
        .filter(|f| f.len() > 2)
        .collect()
}

/// The flags `parse_args` matches: its `"--<flag>" =>` arms.
fn parsed_flags() -> BTreeSet<String> {
    let body = REPORT_RS
        .split_once("fn parse_args()")
        .and_then(|(_, rest)| rest.split_once("\n}\n"))
        .expect("report.rs has a parse_args")
        .0;
    body.lines()
        .filter_map(|l| l.trim().strip_prefix('"'))
        .filter_map(|l| l.split_once("\" =>"))
        .filter(|(flag, _)| flag.starts_with("--"))
        .map(|(flag, _)| flag.to_string())
        .collect()
}

/// README's `report` command lines, a `\`-continued command joined
/// into one line.
fn readme_report_commands() -> Vec<String> {
    let mut commands = Vec::new();
    let mut in_code = false;
    let mut pending = String::new();
    for line in README.lines() {
        if line.starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if !in_code || line.trim_start().starts_with('#') {
            continue;
        }
        pending.push_str(line.trim_end_matches('\\'));
        if !line.ends_with('\\') {
            if pending.contains("--bin report") {
                commands.push(std::mem::take(&mut pending));
            }
            pending.clear();
        }
    }
    commands
}

/// README's `report` commands, together, name exactly the flags
/// `parse_args` matches; so does `report.rs`'s module doc.
#[test]
fn report_flags_in_the_docs_are_the_ones_it_parses() {
    let parsed = parsed_flags();
    let readme: BTreeSet<String> = readme_report_commands()
        .iter()
        .flat_map(|c| flags_in(c))
        .collect();
    assert_eq!(
        readme, parsed,
        "README's report commands against parse_args"
    );
    let module_doc: BTreeSet<String> = REPORT_RS
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .flat_map(flags_in)
        .collect();
    assert_eq!(
        module_doc, parsed,
        "report.rs's module doc against parse_args"
    );
}
