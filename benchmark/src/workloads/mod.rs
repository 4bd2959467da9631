//! The six workloads, and which layers' probes each one owns.

pub mod check;
pub mod monitor;
pub mod report;
pub mod stm;
pub mod sweep;

/// `(name, why)` — the same text as `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "report_cold",
        "one cold run of the report binary: figures, theorems, DPOR oracle, zoo, live 4-thread monitor, SAT - the product end to end",
    ),
    (
        "sweep_exhaustive",
        "fixed experiments, zoo and a 3-process DPOR rung: mc and memsim do the work, blocked probes dominate, core sees tiny histories",
    ),
    (
        "check_witness",
        "core alone on seeded histories opaque by construction: the search succeeds early; inner witness search and per-model views",
    ),
    (
        "check_refute",
        "core alone on the same histories with one stale read: exhaustive refutation, the other side of any pruning or SAT trade-off",
    ),
    (
        "monitor_stream",
        "monitor windowing, triage and the escalation tier on a deterministic single-threaded event stream with planted clusters",
    ),
    (
        "stm_mixed",
        "the six real STMs at 0/50/100 % transactional operations, one thread: the paper's section 6.1 instrumentation cost; no checker runs",
    ),
];
