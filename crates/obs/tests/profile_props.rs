//! The phase profile, the fold of the flight recorder's named spans:
//! nesting, cross-thread merging, a spawned thread under its spawner,
//! serialization, a wrapped ring; and as properties, on random nested
//! span trees executed across threads, every folded node satisfies
//! `self <= total` and `sum(children) <= total`, and no span is lost or
//! double-counted.

use jungle_obs::trace::{self, EventKind, FlightRecorder, Span};
use jungle_obs::{profile, Json, ProfileNode, ToJson};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The recorder install point is process-global; serialize every case
/// so concurrent tests in this binary cannot cross-contaminate.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const NAMES: [Span; 4] = [
    Span::ReportFigures,
    Span::ReportTheorems,
    Span::CheckOpacity,
    Span::CheckSgla,
];

/// Run `work` under a fresh recorder of `cap` slots per shard (the
/// profile's layer alone) and fold it.
fn fold_of<T>(cap: usize, work: impl FnOnce() -> T) -> (Result<ProfileNode, String>, T) {
    let _guard = lock();
    let r = Arc::new(FlightRecorder::with_capacity(cap));
    trace::install(r.clone(), &["phase"]);
    let out = work();
    trace::uninstall();
    (profile::fold(&r), out)
}

fn profiled<T>(work: impl FnOnce() -> T) -> (ProfileNode, T) {
    let (folded, out) = fold_of(1 << 12, work);
    (folded.expect("no event dropped"), out)
}

fn spin(iters: u64) -> u64 {
    std::hint::black_box((0..iters).sum::<u64>())
}

fn names(node: &ProfileNode) -> Vec<&str> {
    node.children.iter().map(|c| c.name.as_str()).collect()
}

#[test]
fn a_layer_not_recorded_records_no_phase() {
    let _guard = lock();
    let r = Arc::new(FlightRecorder::with_capacity(64));
    trace::install(r.clone(), &["checker"]);
    {
        let _g = profile::enter(Span::ReportFigures);
        let _path = profile::inherit(profile::spawn_point());
    }
    trace::uninstall();
    assert_eq!(r.recorded(), 0);
}

#[test]
fn nested_spans_build_a_tree_with_self_total_split() {
    let (root, ()) = profiled(|| {
        let _outer = profile::enter(Span::ReportFigures);
        spin(10_000);
        for _ in 0..2 {
            let _inner = profile::enter(Span::CheckOpacity);
            spin(10_000);
        }
    });
    let outer = &root.children[0];
    assert_eq!((outer.name.as_str(), outer.calls), ("report.figures", 1));
    let inner = &outer.children[0];
    assert_eq!((inner.name.as_str(), inner.calls), ("check.opacity", 2));
    assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    assert_eq!(inner.self_ns, inner.total_ns);
    assert_eq!((root.calls, root.total_ns), (1, outer.total_ns));
}

#[test]
fn cross_thread_spans_merge() {
    let (root, ()) = profiled(|| {
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let _g = profile::enter(Span::CheckSgla);
                        spin(1_000);
                    }
                });
            }
        })
    });
    assert_eq!(names(&root), ["check.sgla"]);
    assert_eq!(root.children[0].calls, 15);
    assert!(root.children[0].self_ns <= root.children[0].total_ns);
}

#[test]
fn a_spawned_thread_nests_under_its_spawner() {
    let (root, ()) = profiled(|| {
        let _outer = profile::enter(Span::ReportTheorems);
        let from = profile::spawn_point();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _path = profile::inherit(from);
                for _ in 0..300 {
                    let _g = profile::enter(Span::CheckOpacity);
                }
            });
        });
    });
    assert_eq!(
        names(&root),
        ["report.theorems"],
        "nothing else at the root"
    );
    let outer = &root.children[0];
    assert_eq!(outer.calls, 1, "the inherited frame times nothing");
    assert_eq!(
        outer.self_ns, outer.total_ns,
        "the worker's time is its own"
    );
    assert_eq!(names(outer), ["check.opacity"]);
    assert_eq!(outer.children[0].calls, 300);
}

#[test]
fn a_wrapped_ring_fails_the_fold() {
    // 8 slots per shard: the ninth event overwrites the first.
    let (folded, ()) = fold_of(8, || {
        for _ in 0..5 {
            let _g = profile::enter(Span::ReportZoo);
        }
    });
    let err = folded.expect_err("a wrapped ring is not a smaller tree");
    assert!(err.contains("2 events dropped"), "{err}");
    let (folded, ()) = fold_of(64, || {
        let _open = profile::enter(Span::ReportSat);
        trace::emit_named(EventKind::PhaseEnd, Span::ReportDpor, 0, 0);
    });
    assert!(folded.is_err(), "an end that closes nothing");
}

/// The JSON tree is what `report` renders: each node's name, calls and
/// times, its children nested under it.
#[test]
fn the_tree_serializes() {
    let (root, ()) = profiled(|| {
        let _a = profile::enter(Span::ReportMonitor);
        let _b = profile::enter(Span::MonitorTl2);
        spin(1_000);
    });
    let j = root.to_json();
    assert_eq!(j.get("name").unwrap().as_str(), Some("profile"));
    let only_child = |node: &Json| match node.get("children") {
        Some(Json::Arr(children)) if children.len() == 1 => children[0].clone(),
        other => panic!("not one child: {other:?}"),
    };
    let monitor = only_child(&j);
    let tl2 = only_child(&monitor);
    assert_eq!(
        monitor.get("name").unwrap().as_str(),
        Some("report.monitor")
    );
    assert_eq!(tl2.get("name").unwrap().as_str(), Some("monitor.tl2"));
    assert_eq!(tl2.get("calls").unwrap().as_u64(), Some(1));
    let ns = |node: &Json, key| node.get(key).unwrap().as_u64().unwrap();
    assert!(ns(&tl2, "self_ns") <= ns(&tl2, "total_ns"));
    assert!(ns(&tl2, "total_ns") <= ns(&monitor, "total_ns"));
}

/// Interpret `script` as a span tree: each byte opens a span named by
/// its low bits and hands a byte-dependent chunk of the remaining
/// script to its children. Returns how many spans were entered.
fn run_spans(script: &[u32], depth: usize) -> u64 {
    if depth > 6 {
        return 0;
    }
    let mut entered = 0u64;
    let mut i = 0;
    while i < script.len() {
        let b = script[i];
        let _g = profile::enter(NAMES[(b % 4) as usize]);
        entered += 1;
        let take = (b as usize % 3) * 2;
        let end = (i + 1 + take).min(script.len());
        entered += run_spans(&script[i + 1..end], depth + 1);
        std::hint::black_box(&entered);
        i = end;
    }
    entered
}

/// Recursively assert the timing invariants on a snapshot subtree and
/// return the total calls below (and including) `node`'s children.
fn check_node(node: &ProfileNode) -> u64 {
    assert!(
        node.self_ns <= node.total_ns,
        "{}: self {} > total {}",
        node.name,
        node.self_ns,
        node.total_ns
    );
    assert!(
        node.children_ns() <= node.total_ns,
        "{}: children {} > total {}",
        node.name,
        node.children_ns(),
        node.total_ns
    );
    node.calls + node.children.iter().map(check_node).sum::<u64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-threaded random trees: invariants hold and the call count
    /// reconciles exactly with the spans entered.
    #[test]
    fn nested_trees_keep_self_within_total(
        script in prop::collection::vec(0u32..256, 0..40),
    ) {
        let (root, entered) = profiled(|| run_spans(&script, 0));
        let counted: u64 = root.children.iter().map(check_node).sum();
        prop_assert_eq!(counted, entered, "spans lost or double-counted");
        prop_assert_eq!(root.calls, {
            let top: u64 = root.children.iter().map(|c| c.calls).sum();
            top
        });
    }

    /// Cross-thread random trees: every thread's spans land in the
    /// fold, invariants intact; a thread that inherits its spawner's
    /// path nests its whole tree under it.
    #[test]
    fn cross_thread_trees_merge_without_loss(
        script in prop::collection::vec(0u32..256, 3..60),
        threads in 1usize..4,
        nested in any::<bool>(),
    ) {
        let chunk = script.len().div_ceil(threads);
        let (root, entered) = profiled(|| {
            let _outer = nested.then(|| profile::enter(Span::ReportMonitor));
            let from = profile::spawn_point();
            std::thread::scope(|s| {
                let handles: Vec<_> = script
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            let _path = profile::inherit(from);
                            run_spans(part, 0)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("span worker")).sum()
            })
        });
        let counted: u64 = root.children.iter().map(check_node).sum();
        prop_assert!(root.self_ns <= root.total_ns);
        if nested {
            prop_assert_eq!(root.children.len(), 1, "a worker span at the root");
            let outer = &root.children[0];
            prop_assert_eq!(outer.calls, 1, "the inherited frames time nothing");
            prop_assert_eq!(counted, entered + 1, "cross-thread spans lost");
        } else {
            prop_assert_eq!(counted, entered, "cross-thread spans lost");
        }
    }
}
