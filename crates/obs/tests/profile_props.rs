//! Property tests for the phase profiler: on random nested span trees
//! executed across threads, every snapshot node must satisfy
//! `self <= total` and `sum(children) <= total`, and no span may be
//! lost or double-counted.

use jungle_obs::{profile, Profiler};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The profiler install point is process-global; serialize every case
/// so concurrent tests in this binary cannot cross-contaminate.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

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
fn check_node(node: &jungle_obs::ProfileNode) -> u64 {
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
        let _guard = lock();
        let p = Arc::new(Profiler::new());
        profile::install(p.clone());
        let entered = run_spans(&script, 0);
        profile::flush_thread();
        profile::uninstall();
        let root = p.snapshot();
        let counted: u64 = root.children.iter().map(check_node).sum();
        prop_assert_eq!(counted, entered, "spans lost or double-counted");
        prop_assert_eq!(root.calls, {
            let top: u64 = root.children.iter().map(|c| c.calls).sum();
            top
        });
    }

    /// Cross-thread random trees: every thread's spans land in the
    /// shared profiler at thread exit, invariants intact.
    #[test]
    fn cross_thread_trees_merge_without_loss(
        script in prop::collection::vec(0u32..256, 3..60),
        threads in 1usize..4,
    ) {
        let _guard = lock();
        let p = Arc::new(Profiler::new());
        profile::install(p.clone());
        let chunk = script.len().div_ceil(threads);
        let mut entered = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = script
                .chunks(chunk)
                .map(|part| s.spawn(move || run_spans(part, 0)))
                .collect();
            for h in handles {
                entered += h.join().expect("span worker");
            }
        });
        profile::flush_thread();
        profile::uninstall();
        let root = p.snapshot();
        let counted: u64 = root.children.iter().map(check_node).sum();
        prop_assert_eq!(counted, entered, "cross-thread spans lost");
        prop_assert!(root.self_ns <= root.total_ns);
    }
}
