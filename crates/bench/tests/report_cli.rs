//! The `report` binary from outside: what it prints in either output
//! mode, what it exits with, that it runs each exhaustive experiment
//! exactly once, what it leaves in the ledger and the trace file, and
//! what it makes of hostile ledger, memo and schedule-log files; and
//! that the documents state what it prints and the flags it takes.

use jungle_bench::phases::PHASES;
use jungle_bench::render;
use jungle_mc::SharedVerdictMemo;
use jungle_obs::{Json, LedgerEntry, MonitorStats, Span};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
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

/// Run `report` with `args` alone in an empty working directory, and
/// hold it to leaving that directory empty.
fn bare(tag: &str, args: &[&str]) -> Output {
    let dir = scratch(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn report");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "{args:?} left {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
    out
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

    // The metrics count the theorem phase's DPOR runs; the `dpor`
    // section must describe those same runs and no others.
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
    let mc = doc.get("metrics").and_then(|m| m.get("mc")).unwrap();
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

/// The keys a document once held beside the key that states the same
/// fact (`metrics.sat` for `sat.stats`, `disagreeing` for
/// `sat.disagreements`, `metrics.mc.races` for `profile.dpor.race_total`,
/// …), or that named one model for a total over many (`mc.model`). A
/// key path matches an entry when the entry is its suffix.
const DELETED: [&str; 13] = [
    "ledger_entry.metrics",
    "monitor.total",
    "sat.stats",
    "disagreements",
    "agreement",
    "crossover_dfs_orders_max",
    "in_run_hits",
    "completed_per_class",
    "escalation_rate",
    "race_total",
    "profile.dpor_blocked",
    "mc.model",
    "machine.model",
];

/// Every key path of `doc`, an array's elements as `[]`.
fn key_paths(doc: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let path = format!("{prefix}.{k}");
                key_paths(v, &path, out);
                out.insert(path);
            }
        }
        Json::Arr(items) => items
            .iter()
            .for_each(|v| key_paths(v, &format!("{prefix}[]"), out)),
        _ => {}
    }
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

/// A profile adds no row: the run prints the very rows it prints
/// unprofiled (the benchmark's profiled `report_cold` passes count the
/// rows an unprofiled warm-up printed).
#[test]
fn a_profile_adds_no_row() {
    let digest = |args: &[&str]| {
        let dir = scratch(&format!("rows{}", args.len()));
        let out = report(&dir, args);
        assert!(out.status.success(), "{args:?}: exit {:?}", out.status);
        let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (arr(&doc, "rows").len(), rows_digest(arr(&doc, "rows")))
    };
    assert_eq!(digest(&["--json", "--profile"]), digest(&["--json"]));
}

/// The document of a run with every section the profile reads: the
/// phase tree's root holds one child with its `total_ns` per phase of
/// `PHASES` the flags enable, in the table's order, and nothing else
/// (among them the phases the benchmark's traced `report_cold` reads;
/// the explanations and `--record` explain, shrink and replay under
/// phases of their own, and sweep nothing), `report.monitor` one child
/// per monitored STM, the recorder behind the profile kept the STMs'
/// transaction spans out and dropped nothing, the ledger entry carries
/// the run's wall time, `metrics` holds exactly its four blocks, and
/// the run-wide race heat adds up to the sweeps' own race count. No
/// timer below the phase tree: a phase node has calls and times and no
/// latency histogram, the monitor block is its counters, a crossover
/// point is work, and the phase tree holds the document's only
/// nanoseconds. No key of [`DELETED`] is back, and the `replay` section
/// holds its logs and where they are, nothing it could count from them.
#[test]
fn profiled_run_has_the_shape_the_benchmark_reads() {
    let dir = scratch("profile");
    let schedules = dir.join("schedules");
    let args = [
        "--json",
        "--monitor",
        "--profile",
        "--sat",
        "--record",
        schedules.to_str().unwrap(),
    ];
    let out = report(&dir, &args);
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();

    let profile = doc.get("profile").expect("profile section");
    let phases = arr(profile.get("phases").expect("phase tree"), "children");
    // Every phase this command line enables, in table order, and nothing
    // else: a sweep's stripe workers check under the phase that spawned
    // them.
    let spans: Vec<Option<Span>> = phases
        .iter()
        .map(|node| {
            num(node, "total_ns");
            Span::from_name(node.get("name").and_then(Json::as_str).unwrap())
        })
        .collect();
    let enabled: Vec<Option<Span>> = PHASES
        .iter()
        .filter(|p| p.flag.is_none_or(|flag| args.contains(&flag)))
        .map(|p| Some(p.span))
        .collect();
    assert_eq!(spans, enabled);
    // One phase per monitored STM, which its consumer's escalations
    // (and its traffic threads) nest under.
    let monitor = phases
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some("report.monitor"))
        .unwrap();
    let stms: Vec<String> = jungle_stm::all_stms(1)
        .iter()
        .map(|tm| format!("monitor.{}", tm.name()))
        .collect();
    let children = arr(monitor, "children");
    let names: Vec<&str> = children
        .iter()
        .map(|c| c.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, stms);
    assert!(children.iter().all(|c| num(c, "calls") == 1), "{monitor}");
    // A profile records only the phase and checker layers, so no
    // transaction or solve spans, and its recorder dropped nothing.
    let flight = doc.get("flight").expect("flight section");
    let cats = flight.get("categories").unwrap();
    for layer in ["stm", "sat"] {
        assert_eq!(num(cats.get(layer).unwrap(), "recorded"), 0, "{layer}");
    }
    assert_eq!(num(flight, "dropped"), 0);
    assert!(profile.get("error").is_none(), "{profile}");
    num(doc.get("ledger_entry").expect("ledger entry"), "wall_ms");

    let metrics = doc.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), ["checker", "mc", "monitor", "sat"]);
    let dpor = profile.get("dpor").expect("profile.dpor");
    assert_eq!(keys(dpor), ["race_heat"]);
    let races = num(metrics.get("mc").unwrap(), "races");
    assert!(races > 0, "the exhaustive sweeps race");
    let heat: u64 = arr(dpor, "race_heat").iter().map(|e| num(e, "races")).sum();
    assert_eq!(heat, races);

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
    let mut paths = BTreeSet::new();
    key_paths(&doc, "", &mut paths);
    for gone in DELETED {
        let back: Vec<&String> = paths
            .iter()
            .filter(|p| p.ends_with(&format!(".{gone}")))
            .collect();
        assert!(back.is_empty(), "{back:?}");
    }
    assert_eq!(keys(doc.get("replay").unwrap()), ["dir", "logs"]);
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

/// Every path of the tree, with its calls.
fn profile_paths(node: &Json, prefix: &mut Vec<String>, out: &mut BTreeMap<Vec<String>, u64>) {
    for child in arr(node, "children") {
        prefix.push(child.get("name").and_then(Json::as_str).unwrap().into());
        out.insert(prefix.clone(), num(child, "calls"));
        profile_paths(child, prefix, out);
        prefix.pop();
    }
}

/// The profile is a fold of the trace: each path of `profile.phases`
/// counts as many calls as the exported file holds begins of a named
/// span at that path, a path being the names a thread has open (an
/// `inherit` begin opens the names its spawner had open at the matching
/// `spawn` instant).
#[test]
fn the_profile_and_the_trace_are_one_source() {
    let dir = scratch("one-source");
    let trace = dir.join("trace.json");
    let out = report(
        &dir,
        &[
            "--json",
            "--monitor",
            "--sat",
            "--profile",
            "--trace",
            trace.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let mut profiled = BTreeMap::new();
    let phases = doc.get("profile").and_then(|p| p.get("phases")).unwrap();
    profile_paths(phases, &mut Vec::new(), &mut profiled);

    let file = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let mut traced: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    let mut frames: HashMap<u64, Vec<Vec<String>>> = HashMap::new();
    let mut spawns: HashMap<u64, Vec<String>> = HashMap::new();
    for ev in arr(&file, "traceEvents") {
        let name = ev.get("name").and_then(Json::as_str).unwrap();
        let a = num(ev.get("args").unwrap(), "a");
        let open = frames.entry(num(ev, "tid")).or_default();
        let path = open.concat();
        match ev.get("ph").and_then(Json::as_str).unwrap() {
            "B" if name == "inherit" => open.push(spawns[&a].clone()),
            "B" if Span::from_name(name).is_some() => {
                *traced
                    .entry([path, vec![name.into()]].concat())
                    .or_default() += 1;
                open.push(vec![name.into()]);
            }
            "B" => open.push(Vec::new()),
            "E" => _ = open.pop(),
            _ if name == "spawn" => _ = spawns.insert(a, path),
            _ => {}
        }
    }
    assert_eq!(traced, profiled);
    for phase in ["report.figures", "report.theorems", "report.monitor"] {
        assert!(traced.contains_key(&vec![phase.to_string()]), "{phase}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flag_exits_2() {
    let dir = scratch("flag");
    // `--compare`, `--cnf` and `--explain` were flags once; they are
    // unknown like any other now.
    for flag in ["--compare", "--cnf", "--explain"] {
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
/// Text mode prints the rendering of the document, and nothing else: a
/// text run's stdout is `render::report` of a `--json` run's document.
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

    let out = bare("identity-text", &["--monitor", "--sat"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text, render::report(&doc));
    assert_eq!(
        text.lines().last(),
        Some(format!("All {ROWS} checks passed.").as_str())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `--replay` run's text is `render::replayed` of its document,
/// which holds the replayed counterexample's class and narrative.
#[test]
fn a_replay_says_the_same_in_json_and_in_text() {
    let dir = scratch("replay-text");
    let exp = jungle_mc::theorems::thm1_case3(&jungle_core::model::Pso);
    let rec = jungle_replay::record_experiment(&exp, jungle_mc::SweepSeeds::new(0, 2_000), 8_000)
        .expect("thm1-case3/PSO violates");
    let log = dir.join("log.json");
    rec.log.save(&log).unwrap();
    let args = ["--replay", log.to_str().unwrap()];
    let text = bare("replay-text-run", &args);
    assert_eq!(text.status.code(), Some(0), "{args:?}");
    let json = bare("replay-json-run", &[&["--json"][..], &args].concat());
    let doc = Json::parse(&String::from_utf8(json.stdout).unwrap()).unwrap();
    assert_eq!(doc.get("class").and_then(Json::as_str), Some("Mrw"));
    assert!(doc.get("rendered").and_then(Json::as_str).is_some());
    let text = String::from_utf8(text.stdout).unwrap();
    assert_eq!(text, render::replayed(&doc), "{args:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `replay/<id>` row counts the decisions its `replay.logs[]` entry
/// holds: the recorded log's, then the shrunk log's.
#[test]
fn a_replay_row_counts_its_logs_decisions() {
    let dir = scratch("record");
    let out = report(
        &dir,
        &[
            "--json",
            "--record",
            dir.join("schedules").to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let logs = arr(doc.get("replay").expect("replay section"), "logs");
    assert_eq!(logs.len(), 4);
    for log in logs {
        let id = log.get("id").and_then(Json::as_str).unwrap();
        let row = arr(&doc, "rows")
            .iter()
            .find(|r| {
                r.get("section").and_then(Json::as_str) == Some("replay")
                    && r.get("id").and_then(Json::as_str) == Some(id)
            })
            .unwrap_or_else(|| panic!("no replay row for {id}"));
        let counts = format!(
            "{} → {} decisions",
            num(log, "decisions"),
            num(log, "shrunk_decisions")
        );
        let observed = row.get("observed").and_then(Json::as_str).unwrap();
        assert!(observed.starts_with(&counts), "{observed} against {log}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `--record` directory that cannot be made (a regular file) is an
/// error: exit 1, naming the log it could not write, and no document.
#[test]
fn an_unwritable_record_directory_exits_1() {
    let dir = scratch("record-file");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let out = report(&dir, &["--json", "--record", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("could not write schedule log"), "{err}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without `--ledger` and `--memo-dir` a run reads and writes no state:
/// its working directory stays empty, and its memo starts cold. Its
/// document explains each Theorem 1 counterexample with its class, and
/// records the revision the binary was built from, as a run inside the
/// checkout does.
#[test]
fn a_bare_run_leaves_its_directory_untouched() {
    let out = bare("bare", &["--json"]);
    assert!(out.status.success(), "exit {:?}", out.status);
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(num(doc.get("shared_memo").unwrap(), "preloaded_entries"), 0);
    let entry = doc.get("ledger_entry").unwrap();
    num(entry, "wall_ms");
    let dir = scratch("bare-inside");
    let inside = report(&dir, &["--json"]);
    let inside = Json::parse(&String::from_utf8(inside.stdout).unwrap()).unwrap();
    let rev = |entry: &Json| {
        entry
            .get("git_rev")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(rev(entry), rev(inside.get("ledger_entry").unwrap()));
    std::fs::remove_dir_all(&dir).unwrap();
    let explained: Vec<(&str, &str)> = arr(&doc, "explanations")
        .iter()
        .map(|e| {
            let text = |key| e.get(key).and_then(Json::as_str).unwrap();
            assert!(!text("rendered").is_empty(), "{e}");
            (text("id"), text("class"))
        })
        .collect();
    assert_eq!(
        explained,
        [
            ("thm1-case1/SC", "Mrr"),
            ("thm1-case2/SC", "Mwr"),
            ("thm1-case3/PSO", "Mrw"),
            ("thm1-case4/TSO", "Mww"),
        ]
    );
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
// count tables are rendered (by `jungle_bench::render`) from one `report
// --json --monitor --sat` run, and the `report` flags README.md and
// `report.rs`'s module doc name are the ones `parse_args` matches.
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const README: &str = include_str!("../../../README.md");
const REPORT_RS: &str = include_str!("../src/bin/report.rs");

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
/// --monitor --sat` run renders, byte for byte, by the section
/// functions that also make `report`'s text. A failure prints each
/// block that differs as it should read.
#[test]
fn experiments_tables_are_what_report_prints() {
    let dir = scratch("docs");
    let out = report(&dir, &["--json", "--monitor", "--sat"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();

    let tables = [
        ("figures", render::figures(&doc)),
        ("theorems", render::theorems(&doc)),
        ("dpor", render::dpor(&doc)),
        ("zoo", render::zoo(&doc)),
        ("costs", render::costs(&doc)),
        ("monitor", render::monitor(&doc)),
        ("sat", render::sat(&doc)),
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
/// `parse_args` matches; so does `report.rs`'s module doc. Each flag
/// that enables a phase is one of them.
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
    for flag in PHASES.iter().filter_map(|p| p.flag) {
        assert!(parsed.contains(flag), "a phase's {flag} is not parsed");
    }
}
