//! The narratives of every `report` document, pinned.
//!
//! The mc explainer's Theorem 1 tests pin only the class each
//! counterexample matches, so a drift in the edges either explainer
//! builds — the masked view pairs of `jungle_mc::explain` or the greedy
//! placement of `jungle_core::explain` — would pass them. This test
//! folds the whole rendered text of the four Theorem 1 explanations
//! into one FNV digest: each explains the counterexample of the
//! experiment's own sweep (`thm1_suite`, the same seeds and step bound
//! as the theorem phase whose counterexamples `report` narrates).
//! `EXPLANATIONS_DIGEST` was captured at the commit that introduced
//! this test, before the checkers' per-viewer view layer was removed
//! (e248245), which printed:
//!
//! ```text
//! explanations digest=0x3a305eb1ec6fffba bytes=2541
//! ```

use jungle::core::fingerprint::Fnv1a;
use jungle::mc::explain::explain_trace;
use jungle::mc::theorems::thm1_suite;
use jungle::mc::verify::SweepSeeds;

const EXPLANATIONS_DIGEST: u64 = 0x3a30_5eb1_ec6f_ffba;

#[test]
fn theorem1_explanations_render_the_parent_text() {
    let mut digest = Fnv1a::new();
    let mut bytes = 0;
    for e in thm1_suite() {
        let cx = e
            .run(SweepSeeds::new(0, 2_000), 8_000)
            .violation
            .unwrap_or_else(|| panic!("{}: no violating trace", e.id));
        let ex = explain_trace(&cx.trace, e.entry.model, e.kind).unwrap();
        let text = ex.render();
        println!("── {} ──\n{text}", e.id);
        digest.word(text.len() as u64);
        for b in text.bytes() {
            digest.word(u64::from(b));
        }
        bytes += text.len();
    }
    println!(
        "explanations digest={:#018x} bytes={bytes}",
        digest.finish()
    );
    assert_eq!(
        digest.finish(),
        EXPLANATIONS_DIGEST,
        "the Theorem 1 explanations diverged from the parent's text"
    );
}
