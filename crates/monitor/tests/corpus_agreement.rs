//! Agreement: the monitor's tiered pipeline must reach exactly the
//! verdict the batch DFS checker reaches, on every litmus outcome and
//! stress history, under every registry model, for both check kinds.
//!
//! This is the contract that makes the triage tier trustworthy: triage
//! may only *clear* histories the batch checker would accept (the
//! soundness construction in `jungle_core::triage`), and escalation
//! *is* the batch checker — so any disagreement here means the tiering
//! broke the semantics.

use jungle_core::check::Check;
use jungle_core::history::History;
use jungle_core::registry::registry;
use jungle_litmus::figures::all_litmus;
use jungle_litmus::stress::{chain_history, wide_history, wide_unsat_history};
use jungle_mc::{CheckKind, SharedVerdictMemo};
use jungle_monitor::{Monitor, MonitorConfig};
use std::sync::Arc;

fn corpus() -> Vec<(String, History)> {
    let mut out = Vec::new();
    for l in all_litmus() {
        for o in l.outcomes {
            out.push((format!("{}/{}", l.name, o.label), o.history));
        }
    }
    out.push(("stress/chain-4".into(), chain_history(4)));
    out.push(("stress/wide-3-first".into(), wide_history(3, 0)));
    out.push(("stress/wide-3-last".into(), wide_history(3, 2)));
    out.push(("stress/wide-unsat-3".into(), wide_unsat_history(3)));
    out
}

#[test]
fn monitor_agrees_with_batch_checker_on_full_corpus() {
    let memo = Arc::new(SharedVerdictMemo::new());
    for entry in registry() {
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            let mut mon =
                Monitor::new(MonitorConfig::new().model(entry).kind(kind)).with_memo(memo.clone());
            for (name, h) in corpus() {
                let batch = Check::new(kind).run(&h, entry.model).0.holds();
                let online = mon.check_history(&h);
                assert_eq!(
                    online, batch,
                    "monitor disagrees with batch on {name} under {} ({kind:?})",
                    entry.key
                );
            }
            let s = mon.stats().clone();
            assert_eq!(
                s.triage_cleared + s.escalated,
                s.windows_sealed,
                "every window either cleared or escalated"
            );
        }
    }
}

#[test]
fn memo_absorbs_repeat_escalations() {
    let memo = Arc::new(SharedVerdictMemo::new());
    let entry = &registry()[0]; // SC
    let h = wide_unsat_history(3); // never clears triage, never opaque
    let mut mon = Monitor::new(MonitorConfig::new().model(entry)).with_memo(memo.clone());
    assert!(!mon.check_history(&h));
    assert!(!mon.check_history(&h));
    let s = mon.stats().clone();
    assert_eq!(s.escalated, 2);
    assert_eq!(s.memo_hits, 1, "second escalation is a fingerprint hit");
}
