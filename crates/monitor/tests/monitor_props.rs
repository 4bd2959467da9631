//! Property tests: drop-counter exactness under saturated rings, and
//! monitor/batch agreement on randomly generated histories.

use jungle_core::builder::HistoryBuilder;
use jungle_core::check::Check;
use jungle_core::history::History;
use jungle_core::ids::{ProcId, Var};
use jungle_core::registry::registry;
use jungle_mc::CheckKind;
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::{Backpressure, EventRing};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of the random script: `(proc, kind, var)`.
type Action = (u32, u32, u32);

/// Execute `script` sequentially (one live transaction at a time) and
/// record it as a history: the recorded order is itself legal, so the
/// result is opaque under every bundled model — and any monitor
/// disagreement with the batch checker is a tiering bug, not an input
/// artifact. Mirrors the generator in `core/tests/witness_props.rs`.
fn build_history(script: &[Action]) -> History {
    let mut b = HistoryBuilder::new();
    let mut committed: HashMap<u32, u64> = HashMap::new();
    let mut overlay: HashMap<u32, u64> = HashMap::new();
    let mut live: Option<u32> = None;
    let mut fresh = 1u64;
    for &(proc_raw, kind, var_raw) in script {
        let p = ProcId(proc_raw % 3);
        let var = var_raw % 3;
        if let Some(owner) = live {
            if owner != p.0 {
                continue;
            }
        }
        match kind % 6 {
            0 if live.is_none() => {
                b.start(p);
                live = Some(p.0);
            }
            1 if live == Some(p.0) => {
                b.commit(p);
                committed.extend(overlay.drain());
                live = None;
            }
            2 if live == Some(p.0) => {
                b.abort(p);
                overlay.clear();
                live = None;
            }
            3 => {
                let val = overlay
                    .get(&var)
                    .or_else(|| committed.get(&var))
                    .copied()
                    .unwrap_or(0);
                b.read(p, Var(var), val);
            }
            _ => {
                b.write(p, Var(var), fresh);
                if live.is_some() {
                    overlay.insert(var, fresh);
                } else {
                    committed.insert(var, fresh);
                }
                fresh += 1;
            }
        }
    }
    b.build().expect("sequential script builds")
}

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
    fn monitor_agrees_on_random_sequential_histories(
        script in prop::collection::vec((0u32..3, 0u32..6, 0u32..3), 0..30),
    ) {
        let h = build_history(&script);
        for entry in registry() {
            for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                let batch = Check::new(kind).run(&h, entry.model).0.holds();
                let mut mon = Monitor::new(MonitorConfig::new().model(entry).kind(kind));
                prop_assert_eq!(mon.check_history(&h), batch);
                prop_assert!(batch, "sequential histories are opaque/SGLA");
                prop_assert_eq!(mon.stats().escalated, 0,
                    "triage must clear sequential histories under {}", entry.key);
            }
        }
    }

    /// A junk read (value nobody wrote) must surface as a violation
    /// through the whole tiered pipeline, never be triage-cleared.
    #[test]
    fn monitor_rejects_junk_reads(
        script in prop::collection::vec((0u32..3, 0u32..6, 0u32..3), 1..20),
        var in 0u32..3,
    ) {
        let mut b = HistoryBuilder::new();
        let h = build_history(&script);
        for op in h.ops() {
            b.op(op.proc, op.op.clone());
        }
        b.read(ProcId(2), Var(var), 999_999);
        let h = b.build().unwrap();
        let mut mon = Monitor::new(MonitorConfig::new());
        prop_assert!(!mon.check_history(&h));
        prop_assert_eq!(mon.stats().escalated, 1);
    }
}
