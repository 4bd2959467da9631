//! The `report` binary from outside: what it prints in either output
//! mode, what it exits with, that it runs each exhaustive experiment
//! exactly once, what it leaves in the ledger and the trace file, and
//! what it makes of hostile ledger, memo and schedule-log files.

use jungle_mc::SharedVerdictMemo;
use jungle_obs::{Json, LedgerEntry, MonitorStats};
use std::collections::{HashMap, HashSet};
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
/// the benchmark's traced `report_cold` reads, the ledger entry carries
/// the run's wall time, `metrics` holds exactly its four blocks, and
/// the run-wide race heat adds up to the sweeps' own race count. No
/// timer below the phase tree: a phase node has calls and times and no
/// latency histogram, the monitor block is its counters, a crossover
/// point is work, and the phase tree holds the document's only
/// nanoseconds.
#[test]
fn profiled_run_has_the_shape_the_benchmark_reads() {
    let dir = scratch("profile");
    let out = report(&dir, &["--json", "--monitor", "--profile", "--sat"]);
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();

    let profile = doc.get("profile").expect("profile section");
    let phases = arr(profile.get("phases").expect("phase tree"), "children");
    for phase in ["figures", "theorems", "dpor", "zoo", "monitor", "sat"] {
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
