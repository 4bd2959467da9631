#!/usr/bin/env python3
"""Regression floors for the report's redundancy-elimination metrics.

Reads the ``report --json`` output on stdin and asserts that the
model-checking sweeps keep eliminating redundant work:

* trace dedup rate  = dedup_hits / schedules        (observed ~0.98)
* memo hit rate     = shared_memo.hits / lookups    (observed ~0.50)
* the matched-model zoo covers >= 6 registry models x 5 STMs

Floors are committed at roughly half the observed rates so routine
drift doesn't flake CI, while a broken dedup key or an unshared memo
(both of which drop a rate to ~0) fails loudly.

When the report carries a ``replay`` section (``report --record``), it
is validated too: every recorded schedule log must replay to the
recorded fingerprint, every shrunk log must still violate with no more
decisions than the original, and the Theorem 1 class must survive
minimization.

Extra modes:

* ``--trace-file out.json`` additionally validates a Chrome-trace-event
  file written by ``report --trace``: parseable JSON, a non-empty
  ``traceEvents`` array whose events carry the required fields, with
  per-thread timestamps sorted and B/E duration events balanced, and
  all four instrumentation layers (checker / mc / memsim / stm)
  represented.
* ``--require-replay`` makes a missing ``replay`` section an error
  (use in CI after ``report --record``).
* ``--require-monitor`` makes a missing ``monitor`` section an error
  (use in CI after ``report --monitor``).
* ``--require-profile`` makes a missing ``profile`` section an error
  (use in CI after ``report --profile``). When the section is present
  (with or without the flag), the exploration profile's invariants are
  enforced: every phase-tree node keeps ``self <= total`` and
  ``p50 <= p90 <= p99 <= p999 <= max`` on its latency histogram, the
  DPOR blocked-probe attribution reconciles **exactly**
  (``sum(blocked_by_depth) == profile.dpor.blocked ==
  profile.dpor_blocked``, where ``dpor_blocked`` is independently
  summed from the explorers' plain counters), the race-pair heat table
  sums to ``race_total``, worker utilization stays above
  ``WORKER_BUSY_FRAC_FLOOR``, and the ledger's profiler fields mirror
  the section.
* ``--require-sat`` makes a missing ``sat`` section an error (use in
  CI after ``report --sat``). When the section is present (with or
  without the flag), the SAT backend's contracts are enforced: zero
  DFS-vs-SAT disagreements, every positive verdict certified through
  the DFS leaf (``witness_certified == positives``), a recorded
  wide-UNSAT crossover size from which SAT needs fewer CEGAR rounds
  than DFS tries serialization orders (deterministic work counts — the
  two wall-clock columns are descriptive and decide nothing), solver
  totals consistent with the check count, and the ledger's ``sat_*``
  fields mirroring the section.
* ``--require-dpor`` makes a missing ``dpor`` section an error. When
  the section is present (with or without the flag), every exhaustive
  experiment must keep the reduction's accounting: something explored,
  ``executed == completed + blocked``, ``completed >= classes`` and at
  most ``DPOR_COMPLETED_PER_CLASS_CEILING`` complete runs per distinct
  class. (That the class set equals brute-force enumeration's, in
  >= 10x fewer runs, and that verdict and witness are stable at 1/2/4
  workers is asserted on the same experiments by
  ``tests/dpor_props.rs``, which owns the enumerative reference.) A
  ``dpor`` section also lowers the dedup-rate floor to
  ``DEDUP_RATE_FLOOR_DPOR``: the reduction now prevents duplicate
  schedules from running at all rather than deduplicating them
  afterwards.
* ``--self-test`` runs the checker against built-in golden inputs (one
  passing, several failing with a *named* key or floor) and exits 0 iff
  every case behaves as expected. No stdin is read.

When the report carries a ``monitor`` section (``report --monitor``),
the streaming monitor's invariants are enforced: at least
``MONITOR_OPS_FLOOR`` operations ingested, tier accounting exact
(``triage_cleared + escalated == windows_sealed``), the escalation rate
under ``MONITOR_ESCALATION_CEILING`` (the triage tier must carry the
stream), **zero silent loss** (the report's sweep uses the blocking
tap, so ``events_dropped`` must be exactly 0 — any nonzero value means
backpressure accounting broke), no violations, and the ledger entry's
``monitor_*`` fields mirroring the section totals.

A missing key anywhere in the expected schema fails with a message that
names both the key and the section it was expected in, e.g.
``missing key 'dedup_hits' in section 'metrics.mc'`` — never a bare
KeyError traceback.
"""

import json
import sys

DEDUP_RATE_FLOOR = 0.50
# With the DPOR explorer in place most structurally-duplicate schedules
# are never executed at all, so the in-sweep dedup rate drops by design;
# the reduction itself is enforced by check_dpor instead.
DEDUP_RATE_FLOOR_DPOR = 0.25
MEMO_HIT_RATE_FLOOR = 0.25
DPOR_COMPLETED_PER_CLASS_CEILING = 2.0  # observed 1.00 (optimal)
MIN_ZOO_MODELS = 6
MIN_ZOO_ALGOS = 5
MONITOR_OPS_FLOOR = 1_000_000
MONITOR_ESCALATION_CEILING = 0.05
WORKER_BUSY_FRAC_FLOOR = 0.5  # observed ~0.93 at 4 DPOR workers
THEOREM1_CLASSES = {"Mrr", "Mrw", "Mwr", "Mww"}
TRACE_CATEGORIES = {"checker", "dpor", "mc", "memsim", "sat", "stm"}
TRACE_EVENT_FIELDS = ("name", "cat", "ph", "ts", "pid", "tid")


class CheckFailure(Exception):
    """A named, human-readable check failure."""


def fail(msg: str) -> None:
    raise CheckFailure(msg)


def need(obj: dict, key: str, section: str):
    """``obj[key]``, failing with the key *and* section named."""
    if not isinstance(obj, dict):
        fail(f"section '{section}' is {type(obj).__name__}, expected object")
    if key not in obj:
        fail(f"missing key '{key}' in section '{section}'")
    return obj[key]


def check_replay(report: dict) -> str:
    """Validate the ``replay`` section written by ``report --record``."""
    replay = need(report, "replay", "report")
    recorded = need(replay, "recorded", "replay")
    logs = need(replay, "logs", "replay")
    if not isinstance(logs, list) or recorded == 0 or not logs:
        fail("replay section recorded no schedule logs")
    if recorded != len(logs):
        fail(f"replay 'recorded' {recorded} != {len(logs)} log entries")
    rounds_total = 0
    for i, log in enumerate(logs):
        section = f"replay.logs[{i}]"
        log_id = need(log, "id", section)
        decisions = need(log, "decisions", section)
        shrunk = need(log, "shrunk_decisions", section)
        if shrunk > decisions:
            fail(f"{log_id}: shrunk log has {shrunk} decisions, original {decisions}")
        if not need(log, "replay_matches", section):
            fail(f"{log_id}: recorded log did not replay to its fingerprint")
        if not need(log, "shrunk_replay_matches", section):
            fail(f"{log_id}: shrunk log did not replay to its fingerprint")
        if not need(log, "shrunk_violating", section):
            fail(f"{log_id}: shrunk log no longer violates")
        if not need(log, "class_matches", section):
            fail(f"{log_id}: minimization changed the Theorem 1 class")
        cls = need(log, "class", section)
        if cls not in THEOREM1_CLASSES:
            fail(f"{log_id}: class {cls!r} is not a Theorem 1 class")
        rounds_total += need(log, "shrink_rounds", section)
    if need(replay, "shrink_rounds", "replay") != rounds_total:
        fail(f"replay 'shrink_rounds' disagrees with per-log sum {rounds_total}")
    ledger = report.get("ledger_entry")
    if isinstance(ledger, dict) and ledger.get("replay_logs") != recorded:
        fail(
            f"ledger replay_logs {ledger.get('replay_logs')} != "
            f"recorded {recorded}"
        )
    return f"replay {recorded} logs verified, {rounds_total} shrink rounds"


def check_monitor(report: dict) -> str:
    """Validate the ``monitor`` section written by ``report --monitor``."""
    monitor = need(report, "monitor", "report")
    total = need(monitor, "total", "monitor")
    ops = need(total, "ops_ingested", "monitor.total")
    dropped = need(total, "events_dropped", "monitor.total")
    sealed = need(total, "windows_sealed", "monitor.total")
    cleared = need(total, "triage_cleared", "monitor.total")
    escalated = need(total, "escalated", "monitor.total")
    violations = need(total, "violations", "monitor.total")
    if ops < MONITOR_OPS_FLOOR:
        fail(f"monitor ingested {ops} ops, floor is {MONITOR_OPS_FLOOR}")
    if dropped != 0:
        fail(
            f"monitor dropped {dropped} events under the blocking tap —"
            " silent loss is forbidden"
        )
    if violations != 0:
        fail(f"monitor reported {violations} violations on a clean workload")
    if sealed == 0:
        fail("monitor sealed no windows")
    if cleared + escalated != sealed:
        fail(
            f"monitor tier accounting broken: cleared {cleared} +"
            f" escalated {escalated} != sealed {sealed}"
        )
    rate = escalated / sealed
    if rate > MONITOR_ESCALATION_CEILING:
        fail(
            f"monitor escalation rate {rate:.4f} above ceiling"
            f" {MONITOR_ESCALATION_CEILING} ({escalated}/{sealed})"
        )
    stms = need(monitor, "stms", "monitor")
    if not isinstance(stms, list) or not stms:
        fail("monitor section lists no per-STM entries")
    for i, entry in enumerate(stms):
        section = f"monitor.stms[{i}]"
        stm = need(entry, "stm", section)
        stats = need(entry, "stats", section)
        if need(stats, "events_dropped", section) != 0:
            fail(f"monitor/{stm}: dropped events under the blocking tap")
        if need(stats, "violations", section) != 0:
            fail(f"monitor/{stm}: violations on a clean workload")
    # The aggregate in metrics.monitor and the ledger fields must
    # mirror the section totals — three views of one run.
    metrics_mon = need(report, "metrics", "report").get("monitor")
    if isinstance(metrics_mon, dict) and metrics_mon.get("ops_ingested") != ops:
        fail(
            f"metrics.monitor ops_ingested {metrics_mon.get('ops_ingested')}"
            f" != monitor.total {ops}"
        )
    ledger = report.get("ledger_entry")
    if isinstance(ledger, dict):
        for key, want in [
            ("monitor_ops", ops),
            ("monitor_windows", sealed),
            ("monitor_escalated", escalated),
        ]:
            if key in ledger and ledger[key] != want:
                fail(f"ledger {key} {ledger[key]} != monitor section {want}")
    return (
        f"monitor {ops} ops, {sealed} windows,"
        f" escalation {rate:.4f} <= {MONITOR_ESCALATION_CEILING}, 0 dropped"
    )


def check_dpor(report: dict) -> str:
    """Validate the ``dpor`` section: what the theorem phase's
    exhaustive sweeps did, with every executed run accounted for."""
    entries = need(report, "dpor", "report")
    if not isinstance(entries, list) or not entries:
        fail("dpor section lists no exhaustive experiments")
    executed_total = 0
    classes_total = 0
    for i, e in enumerate(entries):
        section = f"dpor[{i}]"
        exp_id = need(e, "id", section)
        executed = need(e, "dpor_executed", section)
        completed = need(e, "dpor_completed", section)
        blocked = need(e, "blocked", section)
        classes = need(e, "classes", section)
        if executed == 0 or classes == 0:
            fail(f"dpor/{exp_id}: explored nothing ({executed} runs, {classes} classes)")
        if executed != completed + blocked:
            fail(
                f"dpor/{exp_id}: {executed} executed runs !="
                f" {completed} complete + {blocked} blocked"
            )
        if completed < classes:
            fail(f"dpor/{exp_id}: {completed} complete runs < {classes} classes")
        per_class = completed / classes
        if per_class > DPOR_COMPLETED_PER_CLASS_CEILING:
            fail(
                f"dpor/{exp_id}: {per_class:.2f} complete runs per class, ceiling"
                f" {DPOR_COMPLETED_PER_CLASS_CEILING} ({completed}/{classes})"
            )
        executed_total += executed
        classes_total += classes
    ledger = report.get("ledger_entry")
    if isinstance(ledger, dict):
        for key in ("dpor_executed", "dpor_classes"):
            if key in ledger and ledger[key] == 0:
                fail(f"ledger {key} is 0 despite a populated dpor section")
    return (
        f"dpor {len(entries)} experiments, {executed_total} runs ->"
        f" {classes_total} classes, all accounted for"
    )


def check_sat(report: dict) -> str:
    """Validate the ``sat`` section written by ``report --sat``: the
    CDCL backend must agree with DFS everywhere, certify every positive
    verdict, and do less work than DFS at some wide-UNSAT size."""
    sat = need(report, "sat", "report")
    checked = need(sat, "checked", "sat")
    disagreements = need(sat, "disagreements", "sat")
    positives = need(sat, "positives", "sat")
    certified = need(sat, "witness_certified", "sat")
    if checked == 0:
        fail("sat section checked nothing")
    if disagreements != 0 or not need(sat, "agreement", "sat"):
        fail(f"sat backend disagreed with DFS on {disagreements} checks")
    if certified != positives:
        fail(
            f"sat certified {certified} of {positives} positive verdicts —"
            " every SAT 'yes' must re-validate through the DFS leaf"
        )
    # The crossover is decided on deterministic work — CEGAR rounds
    # against serialization orders tried — and re-derived here from the
    # points; dfs_ns / sat_ns must be present but decide nothing.
    points = need(sat, "crossover_points", "sat")
    if not isinstance(points, list) or not points:
        fail("sat section lists no crossover points")
    less_work = []
    for i, p in enumerate(points):
        section = f"sat.crossover_points[{i}]"
        for key in ("dfs_ns", "sat_ns"):
            need(p, key, section)
        if need(p, "sat_rounds", section) < need(p, "dfs_orders", section):
            less_work.append(need(p, "p", section))
    if not less_work or not need(sat, "crossover", "sat"):
        fail("sat backend never beat DFS on the wide-UNSAT family")
    crossover_at = need(sat, "crossover_at", "sat")
    if crossover_at != less_work[0]:
        fail(
            f"sat crossover_at {crossover_at} but the first size where SAT"
            f" does less work is p={less_work[0]}"
        )
    stats = need(sat, "stats", "sat")
    solved = need(stats, "solved", "sat.stats")
    # The crossover benchmark solves on top of the agreement sweep.
    if solved < checked:
        fail(f"sat.stats solved {solved} < checked {checked}")
    if need(stats, "certified", "sat.stats") < certified:
        fail(
            f"sat.stats certified {stats['certified']} <"
            f" section witness_certified {certified}"
        )
    check_hist(need(stats, "wall", "sat.stats"), "sat.stats.wall")
    ledger = report.get("ledger_entry")
    if isinstance(ledger, dict):
        for key, want in [
            ("sat_solved", solved),
            ("sat_conflicts", need(stats, "conflicts", "sat.stats")),
            ("sat_wall_ns_p99", need(stats["wall"], "p99", "sat.stats.wall")),
        ]:
            if key in ledger and ledger[key] != want:
                fail(f"ledger {key} {ledger[key]} != sat section {want}")
    return (
        f"sat {checked} checks agree, {certified}/{positives} certified,"
        f" crossover at p={crossover_at}"
    )


def check_hist(hist: dict, section: str) -> None:
    """A serialized ``HistSnapshot`` must be internally consistent:
    bucket counts sum to ``count`` and percentiles are monotone."""
    count = need(hist, "count", section)
    buckets = need(hist, "buckets", section)
    if sum(n for _, n in buckets) != count:
        fail(f"{section}: bucket counts do not sum to count {count}")
    p50 = need(hist, "p50", section)
    p90 = need(hist, "p90", section)
    p99 = need(hist, "p99", section)
    p999 = need(hist, "p999", section)
    maxv = need(hist, "max", section)
    if not p50 <= p90 <= p99 <= p999 <= maxv:
        fail(
            f"{section}: percentiles not monotone:"
            f" p50 {p50}, p90 {p90}, p99 {p99}, p999 {p999}, max {maxv}"
        )


def check_phase_node(node: dict, section: str) -> int:
    """Recursively validate one phase-tree node; returns nodes seen."""
    total = need(node, "total_ns", section)
    self_ns = need(node, "self_ns", section)
    name = need(node, "name", section)
    if self_ns > total:
        fail(f"{section} ({name}): self_ns {self_ns} > total_ns {total}")
    children = need(node, "children", section)
    child_total = sum(need(c, "total_ns", f"{section}.children") for c in children)
    if child_total > total:
        fail(f"{section} ({name}): children total {child_total} > total_ns {total}")
    if "hist" in node and need(node, "calls", section) > 0:
        check_hist(node["hist"], f"{section}.hist")
    seen = 1
    for i, c in enumerate(children):
        seen += check_phase_node(c, f"{section}.children[{i}]")
    return seen


def check_profile(report: dict) -> str:
    """Validate the ``profile`` section written by ``report --profile``."""
    profile = need(report, "profile", "report")
    phases = need(profile, "phases", "profile")
    nodes = check_phase_node(phases, "profile.phases")

    dpor = need(profile, "dpor", "profile")
    blocked = need(dpor, "blocked", "profile.dpor")
    by_depth = need(dpor, "blocked_by_depth", "profile.dpor")
    independent = need(profile, "dpor_blocked", "profile")
    # The acceptance contract: attribution is exhaustive. The per-depth
    # histogram, the attributed total, and the independently summed
    # plain counters must agree exactly — no tolerance.
    if sum(by_depth) != blocked:
        fail(
            f"profile.dpor blocked attribution leaks: sum(blocked_by_depth)"
            f" {sum(by_depth)} != blocked {blocked}"
        )
    if blocked != independent:
        fail(
            f"profile.dpor.blocked {blocked} != independently counted"
            f" dpor_blocked {independent}"
        )
    heat = need(dpor, "race_heat", "profile.dpor")
    race_total = need(dpor, "race_total", "profile.dpor")
    heat_sum = sum(need(h, "races", "profile.dpor.race_heat[]") for h in heat)
    if heat_sum != race_total:
        fail(f"profile.dpor race heat sums to {heat_sum}, race_total is {race_total}")
    busy = need(dpor, "worker_busy_frac", "profile.dpor")
    workers = need(dpor, "workers", "profile.dpor")
    if workers and busy < WORKER_BUSY_FRAC_FLOOR:
        fail(
            f"profile.dpor worker_busy_frac {busy:.3f} below floor"
            f" {WORKER_BUSY_FRAC_FLOOR}"
        )
    check_hist(need(dpor, "run_ns", "profile.dpor"), "profile.dpor.run_ns")

    if "monitor" in report:
        check_hist(
            need(profile, "monitor_window_ns", "profile"),
            "profile.monitor_window_ns",
        )

    ledger = report.get("ledger_entry")
    if isinstance(ledger, dict):
        mode = need(dpor, "blocked_depth_mode", "profile.dpor")
        for key, want in [
            ("blocked_depth_mode", mode),
            ("worker_busy_frac", busy),
        ]:
            if key in ledger and ledger[key] != want:
                fail(f"ledger {key} {ledger[key]} != profile section {want}")
    return (
        f"profile {nodes} phase nodes, {blocked} blocked probes reconciled,"
        f" busy {busy:.2f} >= {WORKER_BUSY_FRAC_FLOOR}"
    )


def check_flight(report: dict) -> str:
    """Validate the ``flight`` section: every recorded event is
    attributed to a category and none was dropped — a trace that drops
    events is not one."""
    flight = need(report, "flight", "report")
    recorded = need(flight, "recorded", "flight")
    dropped = need(flight, "dropped", "flight")
    cats = need(flight, "categories", "flight")
    rec_sum = sum(need(c, "recorded", f"flight.categories.{k}") for k, c in cats.items())
    if rec_sum != recorded:
        fail(f"flight category recorded sums to {rec_sum}, total is {recorded}")
    if dropped > 0:
        where = {
            k: n for k, c in cats.items()
            if (n := need(c, "dropped", f"flight.categories.{k}"))
        }
        fail(
            f"flight dropped {dropped} of {recorded} events ({where or 'unattributed'})"
            " — a trace that drops events is not one"
        )
    return f"flight {recorded} events recorded, 0 dropped"


def check_report(report: dict) -> str:
    metrics = need(report, "metrics", "report")
    mc = need(metrics, "mc", "metrics")
    schedules = need(mc, "schedules", "metrics.mc")
    dedup = need(mc, "dedup_hits", "metrics.mc")
    if schedules == 0:
        fail("no schedules explored")
    dedup_rate = dedup / schedules
    dedup_floor = DEDUP_RATE_FLOOR_DPOR if "dpor" in report else DEDUP_RATE_FLOOR
    if dedup_rate < dedup_floor:
        fail(
            f"trace dedup rate {dedup_rate:.3f} below floor {dedup_floor}"
            f" ({dedup}/{schedules})"
        )

    memo = need(report, "shared_memo", "report")
    lookups = need(memo, "lookups", "shared_memo")
    hits = need(memo, "hits", "shared_memo")
    if lookups == 0:
        fail("shared verdict memo was never consulted")
    memo_rate = hits / lookups
    if memo_rate < MEMO_HIT_RATE_FLOOR:
        fail(
            f"memo hit rate {memo_rate:.3f} below floor {MEMO_HIT_RATE_FLOOR}"
            f" ({hits}/{lookups})"
        )
    # Cross-run provenance, when present, must be consistent: every
    # cross-run hit is a hit, and in-run + cross-run = hits.
    if "cross_run_hits" in memo:
        cross = memo["cross_run_hits"]
        in_run = need(memo, "in_run_hits", "shared_memo")
        if cross + in_run != hits:
            fail(
                f"memo hit provenance inconsistent: cross {cross} + in-run"
                f" {in_run} != hits {hits}"
            )

    rows = need(report, "rows", "report")
    zoo = [r for r in rows if need(r, "section", "rows[]") == "zoo"]
    models = {need(r, "id", "rows[]").split("/")[2] for r in zoo}
    algos = {need(r, "id", "rows[]").split("/")[1] for r in zoo}
    if len(models) < MIN_ZOO_MODELS:
        fail(f"zoo covers {len(models)} models, need >= {MIN_ZOO_MODELS}: {sorted(models)}")
    if len(algos) < MIN_ZOO_ALGOS:
        fail(f"zoo covers {len(algos)} STMs, need >= {MIN_ZOO_ALGOS}: {sorted(algos)}")

    summary = (
        f"dedup {dedup_rate:.3f} >= {DEDUP_RATE_FLOOR}, "
        f"memo {memo_rate:.3f} >= {MEMO_HIT_RATE_FLOOR}, "
        f"zoo {len(algos)} STMs x {len(models)} models"
    )
    if "dpor" in report:
        summary += "; " + check_dpor(report)
    if "replay" in report:
        summary += "; " + check_replay(report)
    if "monitor" in report:
        summary += "; " + check_monitor(report)
    if "sat" in report:
        summary += "; " + check_sat(report)
    if "profile" in report:
        summary += "; " + check_profile(report)
    if "flight" in report:
        summary += "; " + check_flight(report)
    return summary


def check_trace(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except OSError as e:
        fail(f"cannot read trace file {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"trace file {path} is not valid JSON: {e}")
    events = need(trace, "traceEvents", "trace")
    if not isinstance(events, list) or not events:
        fail("trace 'traceEvents' is empty — recorder captured nothing")

    last_ts = {}
    depth = {}
    cats = set()
    for i, ev in enumerate(events):
        for field in TRACE_EVENT_FIELDS:
            if field not in ev:
                fail(f"missing key '{field}' in section 'traceEvents[{i}]'")
        tid = ev["tid"]
        if ev["ts"] < last_ts.get(tid, 0):
            fail(f"traceEvents[{i}]: ts {ev['ts']} not sorted within tid {tid}")
        last_ts[tid] = ev["ts"]
        ph = ev["ph"]
        if ph == "B":
            depth[tid] = depth.get(tid, 0) + 1
        elif ph == "E":
            if depth.get(tid, 0) == 0:
                fail(f"traceEvents[{i}]: E without matching B on tid {tid}")
            depth[tid] -= 1
        elif ph != "i":
            fail(f"traceEvents[{i}]: unexpected phase {ph!r}")
        cats.add(ev["cat"])
    open_tids = sorted(t for t, d in depth.items() if d != 0)
    if open_tids:
        fail(f"unbalanced B/E durations left open on tids {open_tids}")
    missing = TRACE_CATEGORIES - cats
    if missing:
        fail(f"trace is missing event categories: {sorted(missing)}")

    dropped = need(trace, "dropped", "trace")
    if dropped > 0:
        fail(
            f"trace file records {dropped} dropped events —"
            " a trace that drops events is not one"
        )
    return f"trace {len(events)} events, layers {sorted(cats)}, 0 dropped"


# ── self-test golden inputs ──────────────────────────────────────────

def golden_hist(count: int, value: int) -> dict:
    """A degenerate but internally consistent serialized HistSnapshot:
    `count` samples all landing in one bucket whose low bound is `value`."""
    return {
        "count": count,
        "sum": count * value,
        "max": value,
        "p50": value,
        "p90": value,
        "p99": value,
        "p999": value,
        "buckets": [[17, count]] if count else [],
    }


def golden_phase(name: str, calls: int, total: int, self_ns: int, children=None) -> dict:
    return {
        "name": name,
        "calls": calls,
        "total_ns": total,
        "self_ns": self_ns,
        "hist": golden_hist(calls, total // calls if calls else 0),
        "children": children or [],
    }


def golden_report() -> dict:
    return {
        "rows": [
            {"section": "zoo", "id": f"zoo/{a}/{m}", "pass": True}
            for a in ["gl", "wt", "v", "s", "tl2"]
            for m in ["SC", "TSO", "TSO+fwd", "PSO", "RMO", "Alpha", "Relaxed", "Junk-SC"]
        ],
        "metrics": {"mc": {"schedules": 1000, "dedup_hits": 980}},
        "dpor": [
            {
                "id": "thm3-litmus",
                "dpor_executed": 1_820,
                "dpor_completed": 299,
                "classes": 299,
                "truncated": 0,
                "completed_per_class": 1.0,
                "blocked": 1_521,
                "frontier_steals": 122,
            }
        ],
        "shared_memo": {
            "hits": 500,
            "lookups": 1000,
            "cross_run_hits": 200,
            "in_run_hits": 300,
        },
        "ledger_entry": {
            "replay_logs": 1,
            "shrink_rounds": 2,
            "dpor_executed": 5_460,
            "dpor_classes": 897,
            "monitor_ops": 1_056_000,
            "monitor_windows": 4_128,
            "monitor_escalated": 0,
            "p99_window_ns": 27_648,
            "sat_solved": 549,
            "sat_conflicts": 0,
            "sat_wall_ns_p99": 2_048,
            "blocked_depth_mode": 21,
            "worker_busy_frac": 0.92,
        },
        "profile": {
            "phases": golden_phase(
                "<root>",
                0,
                900_000_000,
                0,
                [
                    golden_phase(
                        "report.theorems",
                        1,
                        450_000_000,
                        50_000_000,
                        [golden_phase("memsim.choose", 1_100_000, 400_000_000, 400_000_000)],
                    ),
                    golden_phase("report.monitor", 1, 400_000_000, 400_000_000),
                ],
            ),
            "dpor": {
                "blocked": 22_815,
                "blocked_by_depth": [0, 1_000, 21_815],
                "blocked_depth_mode": 21,
                "race_heat": [
                    {"a": "boundary", "b": "boundary", "races": 19_350},
                    {"a": "write", "b": "read", "races": 3_360},
                ],
                "race_total": 22_710,
                "workers": [
                    {
                        "busy_ns": 344_800_000,
                        "idle_ns": 522_000,
                        "steal_ns": 933_000,
                        "runs": 20_389,
                        "steals": 181,
                    }
                ],
                "worker_busy_frac": 0.92,
                "run_ns": golden_hist(27_300, 15_000),
            },
            "dpor_blocked": 22_815,
            "monitor_window_ns": golden_hist(4_128, 11_776),
        },
        "flight": {
            "recorded": 216_130,
            "dropped": 0,
            "categories": {
                "checker": {"recorded": 201_668, "dropped": 0},
                "dpor": {"recorded": 14_462, "dropped": 0},
            },
        },
        "monitor": {
            "stms": [
                {
                    "stm": name,
                    "stats": {
                        "ops_ingested": 176_000,
                        "events_dropped": 0,
                        "windows_sealed": 688,
                        "triage_cleared": 688,
                        "escalated": 0,
                        "violations": 0,
                    },
                }
                for name in ["gl", "wt", "v", "s", "tl2", "strong"]
            ],
            "total": {
                "ops_ingested": 1_056_000,
                "events_dropped": 0,
                "windows_sealed": 4_128,
                "triage_cleared": 4_128,
                "escalated": 0,
                "violations": 0,
            },
        },
        "sat": {
            "checked": 544,
            "disagreements": 0,
            "agreement": True,
            "positives": 369,
            "witness_certified": 369,
            "crossover": True,
            "crossover_at": 2,
            "crossover_points": [
                {"p": 2, "dfs_orders": 2, "sat_rounds": 1, "dfs_ns": 6_163, "sat_ns": 4_332},
                {"p": 6, "dfs_orders": 720, "sat_rounds": 1, "dfs_ns": 1_530_688, "sat_ns": 595_591},
            ],
            "stats": {
                "solved": 549,
                "certified": 369,
                "cegar_rounds": 180,
                "vars": 371,
                "clauses": 622,
                "decisions": 35,
                "conflicts": 0,
                "propagations": 0,
                "restarts": 0,
                "learned": 0,
                "wall": golden_hist(549, 2_048),
            },
        },
        "replay": {
            "dir": "/tmp/schedules",
            "recorded": 1,
            "shrink_rounds": 2,
            "logs": [
                {
                    "id": "thm1-case3/PSO",
                    "model": "PSO",
                    "decisions": 37,
                    "shrunk_decisions": 19,
                    "replay_matches": True,
                    "shrunk_replay_matches": True,
                    "shrunk_violating": True,
                    "class_matches": True,
                    "class": "Mrw",
                    "shrink_rounds": 2,
                }
            ],
        },
    }


def self_test() -> int:
    cases = []

    ok = golden_report()
    cases.append(("golden passes", ok, None))

    broken = golden_report()
    del broken["metrics"]["mc"]["dedup_hits"]
    cases.append(
        ("missing dedup_hits named", broken, "missing key 'dedup_hits' in section 'metrics.mc'")
    )

    broken = golden_report()
    del broken["shared_memo"]
    cases.append(
        ("missing shared_memo named", broken, "missing key 'shared_memo' in section 'report'")
    )

    broken = golden_report()
    broken["metrics"]["mc"]["dedup_hits"] = 10
    cases.append(("low dedup rate fails", broken, "trace dedup rate"))

    broken = golden_report()
    broken["shared_memo"]["in_run_hits"] = 999
    cases.append(("provenance mismatch fails", broken, "provenance inconsistent"))

    broken = golden_report()
    broken["rows"] = broken["rows"][:8]  # one algo only
    cases.append(("zoo coverage fails", broken, "zoo covers"))

    broken = golden_report()
    broken["dpor"][0]["blocked"] = 1_520
    cases.append(("dpor unaccounted run fails", broken, "1820 executed runs != 299 complete + 1520 blocked"))

    broken = golden_report()
    broken["dpor"][0]["classes"] = 0
    cases.append(("dpor empty exploration fails", broken, "explored nothing"))

    broken = golden_report()
    broken["dpor"][0]["classes"] = 300
    cases.append(("dpor lost class fails", broken, "299 complete runs < 300 classes"))

    broken = golden_report()
    del broken["dpor"][0]["blocked"]
    cases.append(
        ("missing blocked named", broken, "missing key 'blocked' in section 'dpor[0]'")
    )

    broken = golden_report()
    broken["dpor"][0]["dpor_completed"] = 900
    broken["dpor"][0]["blocked"] = 920
    cases.append(("dpor duplicate classes fail", broken, "complete runs per class"))

    broken = golden_report()
    del broken["dpor"][0]["dpor_completed"]
    cases.append(
        (
            "missing dpor_completed named",
            broken,
            "missing key 'dpor_completed' in section 'dpor[0]'",
        )
    )

    broken = golden_report()
    broken["ledger_entry"]["dpor_executed"] = 0
    cases.append(("ledger dpor zero fails", broken, "ledger dpor_executed is 0"))

    # A dedup rate legal only under the relaxed DPOR floor must fail
    # once the dpor section is absent (pre-reduction semantics).
    broken = golden_report()
    broken["metrics"]["mc"]["dedup_hits"] = 300
    del broken["dpor"]
    cases.append(("dedup floor tightens without dpor", broken, "below floor 0.5"))

    ok_relaxed = golden_report()
    ok_relaxed["metrics"]["mc"]["dedup_hits"] = 300
    cases.append(("dpor section relaxes dedup floor", ok_relaxed, None))

    broken = golden_report()
    broken["sat"]["disagreements"] = 2
    cases.append(("sat disagreement fails", broken, "disagreed with DFS on 2"))

    broken = golden_report()
    broken["sat"]["witness_certified"] = 368
    cases.append(("sat uncertified positive fails", broken, "must re-validate through the DFS leaf"))

    broken = golden_report()
    broken["sat"]["crossover"] = False
    cases.append(("sat missing crossover fails", broken, "never beat DFS"))

    broken = golden_report()
    for point in broken["sat"]["crossover_points"]:
        point["sat_rounds"] = point["dfs_orders"]
    cases.append(("sat no work saved fails", broken, "never beat DFS"))

    broken = golden_report()
    broken["sat"]["crossover_at"] = 6
    cases.append(("sat misreported crossover fails", broken, "first size where SAT does less work is p=2"))

    broken = golden_report()
    del broken["sat"]["crossover_points"][1]["sat_rounds"]
    cases.append(
        (
            "missing sat_rounds named",
            broken,
            "missing key 'sat_rounds' in section 'sat.crossover_points[1]'",
        )
    )

    # The clocks decide nothing: DFS faster at every size still passes.
    ok_slow_sat = golden_report()
    for point in ok_slow_sat["sat"]["crossover_points"]:
        point["sat_ns"] = 10 * point["dfs_ns"]
    cases.append(("sat slower on the clock still passes", ok_slow_sat, None))

    broken = golden_report()
    del broken["sat"]["witness_certified"]
    cases.append(
        (
            "missing witness_certified named",
            broken,
            "missing key 'witness_certified' in section 'sat'",
        )
    )

    broken = golden_report()
    broken["sat"]["stats"]["solved"] = 100
    broken["ledger_entry"]["sat_solved"] = 100
    cases.append(("sat solved undercount fails", broken, "solved 100 < checked 544"))

    broken = golden_report()
    broken["ledger_entry"]["sat_solved"] = 1
    cases.append(("ledger sat mirror fails", broken, "ledger sat_solved"))

    broken = golden_report()
    del broken["replay"]["logs"][0]["shrunk_decisions"]
    cases.append(
        (
            "missing shrunk_decisions named",
            broken,
            "missing key 'shrunk_decisions' in section 'replay.logs[0]'",
        )
    )

    broken = golden_report()
    broken["replay"]["logs"][0]["shrunk_decisions"] = 99
    cases.append(("grown shrunk log fails", broken, "shrunk log has 99 decisions"))

    broken = golden_report()
    broken["replay"]["logs"][0]["shrunk_violating"] = False
    cases.append(("non-violating shrunk log fails", broken, "no longer violates"))

    broken = golden_report()
    broken["replay"]["logs"][0]["class_matches"] = False
    cases.append(("changed class fails", broken, "changed the Theorem 1 class"))

    broken = golden_report()
    broken["ledger_entry"]["replay_logs"] = 7
    cases.append(("ledger replay count mismatch fails", broken, "ledger replay_logs"))

    broken = golden_report()
    broken["monitor"]["total"]["ops_ingested"] = 999
    cases.append(("monitor ops below floor fails", broken, "floor is 1000000"))

    broken = golden_report()
    broken["monitor"]["total"]["events_dropped"] = 3
    cases.append(("monitor drop fails", broken, "dropped 3 events"))

    broken = golden_report()
    broken["monitor"]["total"]["triage_cleared"] = 3_000
    broken["monitor"]["total"]["escalated"] = 1_128
    broken["ledger_entry"]["monitor_escalated"] = 1_128
    cases.append(("monitor escalation ceiling fails", broken, "escalation rate"))

    broken = golden_report()
    broken["monitor"]["total"]["triage_cleared"] = 4_000
    cases.append(("monitor tier accounting fails", broken, "tier accounting broken"))

    broken = golden_report()
    del broken["monitor"]["total"]["windows_sealed"]
    cases.append(
        (
            "missing windows_sealed named",
            broken,
            "missing key 'windows_sealed' in section 'monitor.total'",
        )
    )

    broken = golden_report()
    broken["monitor"]["stms"][2]["stats"]["events_dropped"] = 1
    cases.append(("per-stm drop fails", broken, "monitor/v: dropped"))

    broken = golden_report()
    broken["ledger_entry"]["monitor_ops"] = 5
    cases.append(("ledger monitor_ops mismatch fails", broken, "ledger monitor_ops"))

    broken = golden_report()
    broken["profile"]["dpor"]["blocked_by_depth"][1] = 999
    cases.append(
        ("profile depth attribution leak fails", broken, "blocked attribution leaks")
    )

    broken = golden_report()
    broken["profile"]["dpor_blocked"] = 22_814
    cases.append(
        (
            "profile reconciliation mismatch fails",
            broken,
            "independently counted dpor_blocked 22814",
        )
    )

    broken = golden_report()
    broken["profile"]["dpor"]["worker_busy_frac"] = 0.4
    broken["ledger_entry"]["worker_busy_frac"] = 0.4
    cases.append(("profile busy-frac floor fails", broken, "below floor 0.5"))

    broken = golden_report()
    broken["profile"]["dpor"]["race_heat"][0]["races"] = 1
    cases.append(("profile heat/total mismatch fails", broken, "race heat sums to"))

    broken = golden_report()
    hist = broken["profile"]["monitor_window_ns"]
    hist["p50"] = hist["p99"] + 1
    cases.append(
        ("profile hist percentile inversion fails", broken, "percentiles not monotone")
    )

    broken = golden_report()
    node = broken["profile"]["phases"]["children"][0]
    node["self_ns"] = node["total_ns"] + 1
    cases.append(("profile self>total fails", broken, "self_ns"))

    broken = golden_report()
    del broken["profile"]["dpor"]["run_ns"]
    cases.append(
        (
            "missing run_ns named",
            broken,
            "missing key 'run_ns' in section 'profile.dpor'",
        )
    )

    broken = golden_report()
    broken["ledger_entry"]["blocked_depth_mode"] = 3
    cases.append(("ledger profile mirror fails", broken, "ledger blocked_depth_mode"))

    broken = golden_report()
    broken["flight"]["dropped"] = 7
    broken["flight"]["categories"]["dpor"]["dropped"] = 7
    cases.append(("flight drop fails", broken, "flight dropped 7 of 216130 events ({'dpor': 7})"))

    broken = golden_report()
    broken["flight"]["dropped"] = 7
    cases.append(("flight silent drop fails", broken, "(unattributed)"))

    broken = golden_report()
    broken["flight"]["categories"]["checker"]["recorded"] = 1
    cases.append(("flight recorded accounting fails", broken, "category recorded sums"))

    failures = 0
    for name, report, want in cases:
        try:
            check_report(report)
            got = None
        except CheckFailure as e:
            got = str(e)
        if want is None:
            if got is not None:
                print(f"self-test: {name}: unexpected failure: {got}", file=sys.stderr)
                failures += 1
        elif got is None or want not in got:
            print(f"self-test: {name}: wanted {want!r} in message, got {got!r}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"check_report_metrics: self-test FAILED ({failures} cases)", file=sys.stderr)
        return 1
    print(f"check_report_metrics: self-test OK ({len(cases)} cases)")
    return 0


def main() -> None:
    argv = sys.argv[1:]
    if "--self-test" in argv:
        sys.exit(self_test())

    trace_file = None
    if "--trace-file" in argv:
        i = argv.index("--trace-file")
        if i + 1 >= len(argv):
            print("check_report_metrics: --trace-file requires a path", file=sys.stderr)
            sys.exit(2)
        trace_file = argv[i + 1]

    try:
        report = json.load(sys.stdin)
        if "--require-replay" in argv and "replay" not in report:
            fail("missing key 'replay' in section 'report' (--require-replay)")
        if "--require-monitor" in argv and "monitor" not in report:
            fail("missing key 'monitor' in section 'report' (--require-monitor)")
        if "--require-dpor" in argv and "dpor" not in report:
            fail("missing key 'dpor' in section 'report' (--require-dpor)")
        if "--require-sat" in argv and "sat" not in report:
            fail("missing key 'sat' in section 'report' (--require-sat)")
        if "--require-profile" in argv and "profile" not in report:
            fail("missing key 'profile' in section 'report' (--require-profile)")
        summary = check_report(report)
        if trace_file is not None:
            summary += "; " + check_trace(trace_file)
    except CheckFailure as e:
        print(f"check_report_metrics: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"check_report_metrics: OK ({summary})")


if __name__ == "__main__":
    main()
