//! # jungle-bench — the report harness
//!
//! The paper's "evaluation" consists of (a) the verdicts of its figures
//! and theorems, which the `report` binary regenerates as one table in
//! one pass — every experiment runs exactly once — and (b) the
//! practical claim of §6.1, that parametrizing correctness by a weaker
//! memory model lets a TM shed non-transactional instrumentation.
//!
//! A `report` run is judged by its own rows and nothing else. The few
//! floors that are not a verdict of the paper — redundancy-elimination
//! rates, zoo coverage, the monitor's tier accounting, flight-recorder
//! completeness — are the predicates below, over the typed stats, each
//! with its threshold beside it.
//!
//! A run is the table [`phases::PHASES`], one entry per phase, and the
//! report's text is [`render::report`] of its JSON document, by the
//! same section functions that EXPERIMENTS.md's tables are held to.
//!
//! This crate times nothing. Every measurement — the §6.1 per-operation
//! costs, checker and sweep latencies, monitor throughput, the cold
//! `report` run itself — is taken from outside by the standalone
//! `benchmark/` package (`benchmark/run.sh`, metrics declared in
//! `BENCHMARK.json`); EXPERIMENTS.md maps each experiment of DESIGN.md
//! (E1–E5, F1–F5, T3, M1) to its metric there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jungle_core::registry::registry;
use jungle_mc::theorems::ZooVerdict;
use jungle_obs::trace::Phase;
use jungle_obs::{EventKind, FlightRecorder, McStats, MonitorStats};
use std::collections::BTreeSet;
use std::thread::JoinHandle;

pub mod phases;
pub mod render;

/// Floor on the sweeps' trace dedup rate (`dedup_hits / schedules`;
/// observed 0.52). DPOR keeps most duplicate schedules from running at
/// all, so this sits at half of what is left; a broken dedup key drops
/// the rate to 0.
pub(crate) const DEDUP_RATE_FLOOR: f64 = 0.25;

/// Floor on the shared verdict memo's hit rate from a cold start
/// (observed 0.50). An unshared memo drops it to 0.
pub(crate) const MEMO_HIT_RATE_FLOOR: f64 = 0.25;

/// STMs the matched zoo samples: the five positive-result TMs.
const ZOO_STMS: usize = 5;

/// Ceiling on the monitor's escalation rate over the report's clean
/// traffic (observed 0): the triage tier must carry the stream.
const MONITOR_ESCALATION_CEILING: f64 = 0.05;

/// `num / den`, 0 when `den` is 0 (nothing ran, so nothing was saved).
pub(crate) fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Did the sweeps run and keep eliminating duplicate traces?
pub(crate) fn dedup_rate_ok(mc: &McStats) -> bool {
    rate(mc.dedup_hits, mc.schedules) >= DEDUP_RATE_FLOOR
}

/// Was the shared memo consulted, and did it answer often enough?
pub(crate) fn memo_rate_ok(hits: u64, lookups: u64) -> bool {
    rate(hits, lookups) >= MEMO_HIT_RATE_FLOOR
}

/// Does the zoo hold a cell for every registry entry under each of at
/// least `ZOO_STMS` algorithms?
pub(crate) fn zoo_covers_registry(zoo: &[ZooVerdict]) -> bool {
    let cells: BTreeSet<(&str, &str)> = zoo.iter().map(|z| (z.algo, z.model)).collect();
    let algos: BTreeSet<&str> = zoo.iter().map(|z| z.algo).collect();
    algos.len() >= ZOO_STMS
        && algos
            .iter()
            .all(|a| registry().iter().all(|e| cells.contains(&(*a, e.key))))
}

/// One STM's monitored stream over clean traffic: nothing lost, nothing
/// flagged, at least `min_ops` events ingested, every sealed window
/// decided by exactly one tier, and escalation under
/// `MONITOR_ESCALATION_CEILING`.
pub(crate) fn monitor_ok(s: &MonitorStats, min_ops: u64) -> bool {
    s.violations == 0
        && s.events_dropped == 0
        && s.ops_ingested >= min_ops
        && s.windows_sealed > 0
        && s.triage_cleared + s.escalated == s.windows_sealed
        && s.escalation_rate() <= MONITOR_ESCALATION_CEILING
}

/// A flight recording is complete when the ring never wrapped and every
/// span layer (a category with a `Begin` kind: `checker`, `stm`, `sat`,
/// `phase`) recorded something, except those in `idle` — the layers the
/// run's flags left undriven. The other categories hold only verdicts
/// and rare instants, which a passing run may never emit.
pub(crate) fn flight_complete(rec: &FlightRecorder, idle: &[&str]) -> bool {
    let spans = |cat: &str| {
        EventKind::ALL
            .iter()
            .any(|k| k.cat() == cat && k.phase() == Phase::Begin)
    };
    rec.dropped() == 0
        && rec
            .by_category()
            .iter()
            .all(|(name, recorded, _)| *recorded > 0 || idle.contains(name) || !spans(name))
}

/// Join the monitor consumer thread of `stm`: its result, or its panic
/// as a named error. A consumer that unwinds has already closed its
/// tap, so the traffic threads feeding it have returned.
pub(crate) fn join_consumer<T>(stm: &str, consumer: JoinHandle<T>) -> Result<T, String> {
    consumer.join().map_err(|payload| {
        let why = match (
            payload.downcast_ref::<&str>(),
            payload.downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "a payload that is not a string".into(),
        };
        format!("the monitor consumer for {stm} panicked: {why}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_floor() {
        let mut mc = McStats {
            schedules: 21_652,
            dedup_hits: 11_273,
            ..McStats::default()
        };
        assert!(dedup_rate_ok(&mc));
        mc.dedup_hits = 100; // a broken dedup key
        assert!(!dedup_rate_ok(&mc));
        assert!(!dedup_rate_ok(&McStats::default()), "nothing explored");
    }

    #[test]
    fn memo_floor() {
        assert!(memo_rate_ok(2_994, 5_981));
        assert!(!memo_rate_ok(12, 5_981), "an unshared memo");
        assert!(!memo_rate_ok(0, 0), "never consulted");
    }

    fn zoo(algos: &[&'static str]) -> Vec<ZooVerdict> {
        algos
            .iter()
            .flat_map(|&algo| {
                registry().iter().map(move |e| ZooVerdict {
                    algo,
                    model: e.key,
                    ok: true,
                    stats: McStats::default(),
                })
            })
            .collect()
    }

    #[test]
    fn zoo_coverage() {
        let full = zoo(&["a", "b", "c", "d", "e"]);
        assert!(zoo_covers_registry(&full));
        assert!(
            !zoo_covers_registry(&zoo(&["a", "b", "c", "d"])),
            "an STM short"
        );
        assert!(!zoo_covers_registry(&full[1..]), "a registry entry short");
    }

    fn stream() -> MonitorStats {
        MonitorStats {
            ops_ingested: 176_000,
            windows_sealed: 688,
            triage_cleared: 680,
            escalated: 8,
            ..MonitorStats::default()
        }
    }

    #[test]
    fn monitor_stream() {
        assert!(monitor_ok(&stream(), 176_000));
        assert!(!monitor_ok(&stream(), 176_001), "ops under the floor");
        let broken: [fn(&mut MonitorStats); 5] = [
            |s| s.violations = 1,
            |s| s.events_dropped = 1,
            |s| s.triage_cleared -= 1, // a window no tier decided
            |s| (s.triage_cleared, s.escalated) = (600, 88), // rate 0.13
            |s| *s = MonitorStats::default(), // sealed nothing
        ];
        for breakage in broken {
            let mut s = stream();
            breakage(&mut s);
            assert!(!monitor_ok(&s, 0), "{s:?}");
        }
    }

    #[test]
    fn flight_completeness() {
        let spans = [
            EventKind::SearchBegin,
            EventKind::SearchEnd,
            EventKind::TxnBegin,
            EventKind::TxnCommit,
            EventKind::SatSolveBegin,
            EventKind::SatSolveEnd,
            EventKind::PhaseBegin,
            EventKind::PhaseEnd,
        ];
        let rec = FlightRecorder::new();
        for kind in spans {
            rec.record(kind, 0, 0);
        }
        // The instant-only layers (mc, memsim, replay, monitor) stayed
        // silent: a run with no violation emits none of their events.
        assert!(flight_complete(&rec, &[]));
        // A run without `--monitor` and `--sat` drives only the checker
        // and the phases.
        let checker = FlightRecorder::new();
        for kind in spans[..2].iter().chain(&spans[6..]) {
            checker.record(*kind, 0, 0);
        }
        assert!(flight_complete(&checker, &["stm", "sat"]));
        assert!(!flight_complete(&checker, &["sat"]), "stm layer silent");
        assert!(!flight_complete(&checker, &["stm"]), "sat layer silent");
        assert!(!flight_complete(&FlightRecorder::new(), &["stm", "sat"]));
        let unphased = FlightRecorder::new();
        unphased.record(EventKind::SearchBegin, 0, 0);
        assert!(
            !flight_complete(&unphased, &["stm", "sat"]),
            "phase layer silent"
        );
        assert!(flight_complete(&unphased, &["stm", "sat", "phase"]));
        // The smallest ring (8 slots) wraps on the ninth event.
        let rec = FlightRecorder::with_capacity(8);
        for kind in spans.iter().cycle().take(9) {
            rec.record(*kind, 0, 0);
        }
        assert!(!flight_complete(&rec, &[]), "dropped one");
    }

    #[test]
    fn a_consumer_panic_is_a_named_error() {
        let ok = std::thread::spawn(|| 7);
        assert_eq!(join_consumer("tl2", ok), Ok(7));
        let formatted = std::thread::spawn(|| -> u64 { panic!("window {} torn", 3) });
        assert_eq!(
            join_consumer("tl2", formatted),
            Err("the monitor consumer for tl2 panicked: window 3 torn".into())
        );
        let literal = std::thread::spawn(|| -> u64 { panic!("tap gone") });
        let err = join_consumer("strong", literal).unwrap_err();
        assert_eq!(err, "the monitor consumer for strong panicked: tap gone");
    }

    /// `report --monitor` opens a phase per monitored STM by its name,
    /// so the span table must declare one for every STM.
    #[test]
    fn every_monitored_stm_has_a_span() {
        for tm in jungle_stm::all_stms(1) {
            let name = format!("monitor.{}", tm.name());
            assert!(jungle_obs::Span::from_name(&name).is_some(), "{name}");
        }
    }
}
