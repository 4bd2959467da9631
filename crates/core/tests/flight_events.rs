//! Every check is visible to the flight recorder as one span: a
//! `SearchBegin` / `SearchEnd` pair per [`Check::run`], for both kinds,
//! and per [`check_opacity_par`] split over workers, named by its kind
//! (`check.opacity`, `check.sgla`) — the only named span a check
//! records, and so the one the phase profile folds. What the search did
//! inside the span is counted by `SearchStats`, not narrated: no event
//! fires per node.
//!
//! The recorder is process-global, so this file holds a single test.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::{Check, CheckKind};
use jungle_core::ids::{ProcId, X, Y};
use jungle_core::model::Sc;
use jungle_core::opacity::check_opacity_par;
use jungle_core::par::ParallelConfig;
use jungle_obs::trace::{self, EventKind, FlightRecorder, Phase, Span, CATEGORIES};
use std::sync::Arc;

#[test]
fn every_check_brackets_its_search_with_begin_and_end() {
    // The reader starts first but must serialize after one of two
    // writers of what it reads — two sources, so saturation orders
    // nothing — and the first order tried prunes before another
    // succeeds.
    let (p1, p2, p3) = (ProcId(1), ProcId(2), ProcId(3));
    let mut b = HistoryBuilder::new();
    b.start(p2);
    for w in [p1, p3] {
        b.start(w);
        b.write(w, X, 1);
        b.write(w, Y, 1);
        b.commit(w);
    }
    b.read(p2, Y, 1);
    b.read(p2, X, 1);
    b.commit(p2);
    let h = b.build().unwrap();

    // Only opacity has a split entry point.
    for (kind, threads) in [
        (CheckKind::Opacity, 0usize),
        (CheckKind::Sgla, 0),
        (CheckKind::Opacity, 2),
    ] {
        let check = Check::new(kind);
        let (_, stats) = check.run(&h, &Sc);
        let recorder = Arc::new(FlightRecorder::with_capacity(1 << 10));
        trace::install(recorder.clone(), &CATEGORIES);
        let verdict = match threads {
            0 => check.run(&h, &Sc).0,
            _ => {
                let cfg = ParallelConfig {
                    threads,
                    min_units: 0,
                };
                check_opacity_par(&h, &Sc, &cfg)
            }
        };
        trace::uninstall();
        assert!(verdict.holds());

        let events = recorder.events();
        let of = |k| events.iter().filter(|e| e.kind == k).collect::<Vec<_>>();
        let (begin, end) = (of(EventKind::SearchBegin), of(EventKind::SearchEnd));
        let ctx = format!("{kind:?}, {threads} workers");
        assert_eq!((begin.len(), end.len()), (1, 1), "{ctx}");
        // Exactly one named pair: the search span, named by its kind.
        let span = match kind {
            CheckKind::Opacity => Span::CheckOpacity,
            CheckKind::Sgla => Span::CheckSgla,
        };
        let named: Vec<_> = events.iter().filter_map(|e| e.span).collect();
        assert_eq!(named, [span, span], "{ctx}");
        assert_eq!(
            (begin[0].span, end[0].span),
            (Some(span), Some(span)),
            "{ctx}"
        );
        // SearchBegin: units, workers. SearchEnd: nodes, satisfied.
        assert_eq!(
            (begin[0].a, begin[0].b),
            (stats.search.units, threads as u64),
            "{ctx}"
        );
        assert_eq!(end[0].b, 1, "{ctx}");
        if threads == 0 {
            assert_eq!(end[0].a, stats.search.nodes, "{ctx}");
        } else {
            assert!(end[0].a > 0, "{ctx}: the workers' nodes are merged");
        }
        assert!(begin[0].ts_ns <= end[0].ts_ns, "{ctx}");
        // Inside the span: only the instants no counter keeps (a
        // frontier backtracked out of, a dropped prefix).
        assert_eq!(recorder.dropped(), 0, "{ctx}");
        let inside = events
            .iter()
            .filter(|e| e.kind.cat() == "checker" && e.kind.phase() == Phase::Instant);
        assert!(
            inside
                .clone()
                .all(|e| matches!(e.kind, EventKind::Backtrack | EventKind::PrefixCancel)),
            "{ctx}"
        );
        assert!(
            (inside.count() as u64) < end[0].a,
            "{ctx}: an event per node"
        );
        assert!(stats.search.prune_hits > 0, "{ctx}");
    }
}
