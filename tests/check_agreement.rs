//! One table-driven agreement test for the one checker request.
//!
//! Over the litmus + stress corpus × the 8 registry entries ×
//! {opacity, SGLA} × {DFS, SAT} × {serial, 2, 4 workers}, every
//! [`Check`] verdict — `holds`, the serialization order and every
//! per-process witness — is folded into one FNV digest per backend,
//! which must equal the constant captured **at the parent commit
//! (0ac9a81) through the entry points this request replaced**:
//! `check_{opacity,sgla}_with` (serial), `check_{opacity,sgla}_par_with`
//! with `ParallelConfig { threads, min_units: 0 }`, and
//! `check_{opacity,sgla}_sat_with`, iterated and folded exactly as
//! below. The capture printed:
//!
//! ```text
//! dfs workers=0 digest=0x56cc199034b282e5
//! dfs workers=1 digest=0x56cc199034b282e5
//! dfs workers=2 digest=0x56cc199034b282e5
//! dfs workers=4 digest=0x56cc199034b282e5
//! sat digest=0x52b1902d3c8733e5
//! histories=40 cases=640 holding=450
//! ```
//!
//! (The backends may pick different witnesses, hence two constants.)
//! Only DFS opacity has a parallel entry point, `check_opacity_par`,
//! which the DFS opacity cases of the worker rows go through; every
//! other case of a worker row is the serial request again and must
//! simply repeat.
//! Same-backend digests must be equal across worker counts, `holds`
//! equal across backends, every SAT positive certified, and every
//! witness must re-validate from scratch — the backend and the prefix list
//! are only allowed to be *faster*, never *different*.
//!
//! A third digest pins the search *tree*, not only its result: the
//! `(units, txn_orders, nodes, backtracks, prune_hits, peak_depth,
//! cache_hits)` of every serial DFS case, folded by the loop below.
//! It was **re-captured when saturation landed**, because saturation
//! changes the work on purpose and nothing else: edges derived from
//! the values reads return refute most negative cases with no node and
//! no order, and prune the leaf of the rest. The parent (eca3d6d)
//! printed `tree digest=0x3074607066a26a0d nodes=10006
//! txn_orders=640`; with saturation the table prints:
//!
//! ```text
//! tree digest=0x8cc38b7e49c02ba5 nodes=3582 txn_orders=466
//! ```
//!
//! — at most one order per case, since on this corpus the first
//! admissible order either succeeds or the pair-free oracle call (or
//! saturation, before it) refutes. The table asserts that bound case
//! by case: at most one order handed to the leaf when the verdict is
//! negative, at most two when it holds.
//!
//! Two more columns ride on the serial DFS opacity rows: a triage
//! clear implies the verdict holds, and the explainer agrees with the
//! verdict and names at least one stuck operation whenever it fails.
//! The explainer's whole rendered text (against the transformed
//! history, whose identifiers it names) is folded into a fourth
//! digest, `EXPLAIN_DIGEST`, so a drift in the edges it places along
//! fails here too. It was captured at e248245, before the checkers'
//! per-viewer view layer was removed, which printed:
//!
//! ```text
//! explain digest=0xe69c8d960ccf355e
//! ```

use jungle::core::check::{Check, CheckBackend, CheckKind, CheckVerdict};
use jungle::core::explain::explain_opacity;
use jungle::core::fingerprint::Fnv1a;
use jungle::core::history::History;
use jungle::core::ids::Var;
use jungle::core::op::{Command, Op};
use jungle::core::opacity::check_opacity_par;
use jungle::core::par::ParallelConfig;
use jungle::core::registry::registry;
use jungle::core::testkit::witness_errors;
use jungle::core::triage::triage_opacity;
use jungle::litmus::figures::all_litmus;
use jungle::litmus::stress::{
    chain_history, wide_history, wide_split_unsat_history, wide_unsat_history,
};

const DFS_DIGEST: u64 = 0x56cc_1990_34b2_82e5;
const SAT_DIGEST: u64 = 0x52b1_902d_3c87_33e5;
const HOLDING: usize = 450;
const TREE_DIGEST: u64 = 0x8cc3_8b7e_49c0_2ba5;
const EXPLAIN_DIGEST: u64 = 0xe69c_8d96_0ccf_355e;

fn corpus() -> Vec<History> {
    let mut hs: Vec<History> = all_litmus()
        .into_iter()
        .flat_map(|l| l.outcomes.into_iter().map(|o| o.history))
        .collect();
    hs.extend([
        chain_history(2),
        chain_history(3),
        chain_history(4),
        wide_history(3, 0),
        wide_history(3, 2),
        wide_unsat_history(3),
    ]);
    hs
}

fn fold(f: &mut Fnv1a, v: &CheckVerdict) {
    f.word(u64::from(v.holds()));
    f.word(v.txn_order().len() as u64);
    for &t in v.txn_order() {
        f.word(t as u64);
    }
    f.word(v.witnesses().len() as u64);
    for (p, ids) in v.witnesses() {
        f.word(u64::from(p.0));
        f.word(ids.len() as u64);
        for id in ids {
            f.word(u64::from(id.0));
        }
    }
}

#[test]
fn check_table_reproduces_the_parent_digests() {
    let corpus = corpus();
    let mut serial_holds: Vec<Vec<bool>> = Vec::new();
    let (mut tree, mut explained) = (Fnv1a::new(), Fnv1a::new());
    let (mut nodes, mut txn_orders) = (0u64, 0u64);
    for (backend, expected) in [
        (CheckBackend::Dfs, DFS_DIGEST),
        (CheckBackend::Sat, SAT_DIGEST),
    ] {
        for workers in [0usize, 2, 4] {
            let mut digest = Fnv1a::new();
            let mut holds = Vec::new();
            for h in &corpus {
                for e in registry() {
                    for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                        let check = Check {
                            backend,
                            ..Check::new(kind)
                        };
                        let (mut v, stats) = check.run(h, e.model);
                        if workers > 0 && (kind, backend) == (CheckKind::Opacity, CheckBackend::Dfs)
                        {
                            let cfg = ParallelConfig {
                                threads: workers,
                                min_units: 0,
                            };
                            v = check_opacity_par(h, e.model, &cfg);
                        }
                        fold(&mut digest, &v);
                        holds.push(v.holds());
                        let ctx = format!("{kind:?}/{backend:?}/{workers} under {}", e.key);
                        assert_eq!(stats.search.searches, 1, "{ctx}");
                        if backend == CheckBackend::Sat {
                            assert_eq!(stats.sat.solved, 1, "{ctx}");
                            assert_eq!(
                                stats.sat.certified,
                                u64::from(v.holds()),
                                "{ctx}: every positive verdict must be certified"
                            );
                        }
                        if workers == 0 {
                            let errors = witness_errors(h, e.model, kind, &v);
                            assert!(errors.is_empty(), "{ctx}: {errors:?}");
                        }
                        if workers == 0 && backend == CheckBackend::Dfs {
                            let s = &stats.search;
                            for w in [
                                s.units,
                                s.txn_orders,
                                s.nodes,
                                s.backtracks,
                                s.prune_hits,
                                s.peak_depth,
                                s.cache_hits,
                            ] {
                                tree.word(w);
                            }
                            nodes += s.nodes;
                            txn_orders += s.txn_orders;
                            assert!(
                                s.txn_orders <= 1 + u64::from(v.holds()),
                                "{ctx}: {} orders reached the leaf",
                                s.txn_orders
                            );
                            if kind == CheckKind::Opacity {
                                assert!(
                                    !triage_opacity(h, e.model).cleared() || v.holds(),
                                    "{ctx}: triage cleared a non-opaque history"
                                );
                                let d = explain_opacity(h, e.model);
                                assert_eq!(d.opaque, v.holds(), "{ctx}: explainer disagrees");
                                assert!(
                                    v.holds() || !d.stuck.is_empty(),
                                    "{ctx}: nothing stuck in a non-opaque history"
                                );
                                let text = d.render(&e.model.transform(h));
                                explained.word(text.len() as u64);
                                for b in text.bytes() {
                                    explained.word(u64::from(b));
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(
                digest.finish(),
                expected,
                "{backend:?} at {workers} workers diverged from the parent's verdicts/witnesses"
            );
            if workers == 0 {
                serial_holds.push(holds);
            }
        }
    }
    println!(
        "tree digest={:#018x} nodes={nodes} txn_orders={txn_orders}",
        tree.finish()
    );
    assert_eq!(
        tree.finish(),
        TREE_DIGEST,
        "the serial DFS search tree diverged from the parent's"
    );
    println!("explain digest={:#018x}", explained.finish());
    assert_eq!(
        explained.finish(),
        EXPLAIN_DIGEST,
        "the opacity explainer's text diverged from the parent's"
    );
    // 8 registry entries × 2 kinds × the whole corpus, per backend.
    assert_eq!(serial_holds[0].len(), corpus.len() * registry().len() * 2);
    assert_eq!(serial_holds[0], serial_holds[1], "backends disagree");
    assert_eq!(serial_holds[0].iter().filter(|&&b| b).count(), HOLDING);
}

/// `h` with every variable moved to the top of the `u32` range, in the
/// same order: the search then numbers the variables itself instead of
/// taking each index as its own number.
fn with_high_variables(h: &History) -> History {
    let high = |var: &mut Var| {
        assert!(var.0 < 4096, "corpus variables are small");
        var.0 += u32::MAX - 4096;
    };
    let mut ops = h.ops().to_vec();
    for oi in &mut ops {
        if let Op::Cmd(cmd) = &mut oi.op {
            match cmd {
                Command::Read { var, .. }
                | Command::Write { var, .. }
                | Command::DepRead { var, .. }
                | Command::DepWrite { var, .. }
                | Command::Havoc { var } => high(var),
            }
        }
    }
    History::new(ops).expect("renaming keeps a history well-formed")
}

/// Variable indices are names: the serial DFS reaches the same verdict
/// and witnesses by the same search tree whether the legality checkers
/// index their tables by the variables themselves (the corpus's small
/// indices) or by the numbers the search gives them (the same
/// variables near `u32::MAX`).
#[test]
fn numbered_variables_search_the_same_tree() {
    let mut cases = 0;
    for h in corpus() {
        let high = with_high_variables(&h);
        for e in registry() {
            for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                let ((v, s), (hv, hs)) = (
                    Check::new(kind).run(&h, e.model),
                    Check::new(kind).run(&high, e.model),
                );
                let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
                fold(&mut a, &v);
                fold(&mut b, &hv);
                let ctx = format!("{kind:?} under {}", e.key);
                assert_eq!(a.finish(), b.finish(), "{ctx}: verdicts differ");
                let (s, hs) = (&s.search, &hs.search);
                assert_eq!(
                    (
                        s.nodes,
                        s.backtracks,
                        s.prune_hits,
                        s.peak_depth,
                        s.cache_hits
                    ),
                    (
                        hs.nodes,
                        hs.backtracks,
                        hs.prune_hits,
                        hs.peak_depth,
                        hs.cache_hits
                    ),
                    "{ctx}: trees differ"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, corpus().len() * registry().len() * 2);
}

/// `wide_split_unsat_history(p)` has `p!` admissible orders and no
/// witness, and from p = 4 on every value its reader observes has two
/// writers, so saturation leaves it to the search. Refuting it costs
/// one order and a search over *frontiers* — sets of placed
/// transactions, `2^p` of them, each tried against `p` candidates of up
/// to four nodes — not over sequences. Before the frontier search,
/// p = 8 of the single-variable `wide_unsat_history` already took
/// 40,320 orders and 685,440 nodes under opacity, and p = 10 (3,628,800
/// orders) did not finish; a return to the factorial trips the node
/// bound at p = 7, before it can hang. `wide_unsat_history` itself
/// reads a value nobody wrote: saturation refutes it with no node.
#[test]
fn refuting_wide_histories_costs_frontiers_not_orders() {
    let sc = jungle::core::registry::entry("SC").unwrap().model;
    for kind in [CheckKind::Opacity, CheckKind::Sgla] {
        for p in 2..=10u64 {
            let (v, stats) = Check::new(kind).run(&wide_unsat_history(p as usize), sc);
            assert!(!v.holds(), "{kind:?}, p = {p}");
            assert_eq!(stats.search.nodes, 0, "{kind:?}, p = {p}");
            assert_eq!(stats.search.cycle_refutes, 1, "{kind:?}, p = {p}");

            let (v, stats) = Check::new(kind).run(&wide_split_unsat_history(p as usize), sc);
            let s = stats.search;
            assert!(!v.holds(), "{kind:?}, p = {p}");
            assert!(
                s.txn_orders <= 1,
                "{kind:?}, p = {p}: {} orders",
                s.txn_orders
            );
            let bound = 4 * p * p * (1 << p);
            assert!(s.nodes <= bound, "{kind:?}, p = {p}: {} nodes", s.nodes);
            assert!(
                p < 4 || s.nodes >= 1 << p,
                "{kind:?}, p = {p}: {} nodes",
                s.nodes
            );
        }
    }
}
