//! Property tests: drop-counter exactness under saturated rings, and
//! monitor/batch agreement on randomly generated histories.

use jungle_core::check::Check;
use jungle_core::registry::registry;
use jungle_core::testkit::{history, Shape, EXECUTED, JUNK};
use jungle_mc::CheckKind;
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::{Backpressure, EventRing};
use proptest::prelude::*;

/// The kit's sequential executions, with the transactions open at the
/// end left live: the recorded order is itself legal, so every history
/// is opaque under every bundled model — and any monitor disagreement
/// with the batch checker is a tiering bug, not an input artifact.
const EXECUTED_LIVE: Shape = Shape {
    steps: 0..=29,
    live: 4,
    ..EXECUTED
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ring's accounting is exact under any interleaving of pushes
    /// and pops, at any capacity, with any drop pattern:
    /// `published + dropped == attempts` and the consumer sees exactly
    /// `published` events, in FIFO order of their successful publishes.
    #[test]
    fn ring_accounting_is_exact_under_saturation(
        cap_exp in 1u32..6,
        ops in prop::collection::vec((any::<bool>(), 0u64..1000), 1..200),
    ) {
        let ring: EventRing<u64> = EventRing::new(1 << cap_exp, Backpressure::Drop);
        let mut attempts = 0u64;
        let mut consumed: Vec<u64> = Vec::new();
        let mut accepted: Vec<u64> = Vec::new();
        for (push, val) in ops {
            if push {
                attempts += 1;
                if ring.push(val) {
                    accepted.push(val);
                }
            } else if let Some(v) = ring.pop() {
                consumed.push(v);
            }
        }
        prop_assert_eq!(ring.published() + ring.dropped(), attempts);
        prop_assert_eq!(ring.published(), accepted.len() as u64);
        let mut rest = Vec::new();
        ring.drain_into(&mut rest, usize::MAX);
        consumed.extend(rest);
        // Everything accepted is eventually consumed, in order.
        prop_assert_eq!(consumed, accepted);
    }

    /// Monitor and batch checker agree on random sequential histories
    /// (all opaque by construction) for every registry entry and both
    /// check kinds — and triage proves its keep by clearing them
    /// without escalation.
    #[test]
    fn monitor_agrees_on_random_sequential_histories(seed in any::<u64>()) {
        let h = history(seed, &EXECUTED_LIVE);
        for entry in registry() {
            for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                let batch = Check::new(kind).run(&h, entry.model).0.holds();
                let mut mon = Monitor::new(MonitorConfig::new().model(entry).kind(kind));
                prop_assert_eq!(mon.check_history(&h), batch, "seed {}", seed);
                prop_assert!(batch, "seed {}: sequential histories are opaque/SGLA", seed);
                prop_assert_eq!(mon.stats().escalated, 0,
                    "seed {}: triage must clear sequential histories under {}", seed, entry.key);
            }
        }
    }

    /// A junk read (value nobody wrote) must surface as a violation
    /// through the whole tiered pipeline, never be triage-cleared —
    /// read outside any transaction, or inside the live one of the
    /// process that took the last step.
    #[test]
    fn monitor_rejects_junk_reads(seed in any::<u64>()) {
        let h = history(seed, &Shape { steps: 1..=19, tail: (4, JUNK), ..EXECUTED_LIVE });
        let mut mon = Monitor::new(MonitorConfig::new());
        prop_assert!(!mon.check_history(&h), "seed {}", seed);
        prop_assert_eq!(mon.stats().escalated, 1, "seed {}", seed);
    }
}
