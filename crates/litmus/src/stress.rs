//! Larger stress histories for the checker benchmarks.
//!
//! The figure litmus tests are tiny by design — a handful of operations
//! each — so they exercise correctness, not cost. The parallel checker
//! benchmarks (`jungle-bench`, experiment E5) need histories whose
//! serialization-order enumeration is wide enough that splitting it
//! across workers matters. These generators produce such histories
//! deterministically from their size parameters:
//!
//! * [`chain_history`] grows the *length* of the history while keeping
//!   every transaction real-time ordered — exactly one serialization
//!   order, so it measures the inner witness search (and the serial
//!   fallback for under-threshold inputs).
//! * [`wide_history`] grows the *width*: `p` fully concurrent
//!   transactions admit `p!` serialization orders, of which only those
//!   ending in a chosen transaction can justify the final
//!   non-transactional read. The checker must wade through the failing
//!   ones first.
//! * [`wide_unsat_history`] is the worst case: the trailing read
//!   observes a value nobody wrote, so *no* order succeeds and the
//!   checker exhausts all `p!` of them. This is the history where
//!   parallel prefix splitting pays off most.
//! * [`wide_split_unsat_history`] has no witness either, but every
//!   value its reader observes is stored by two transactions (from
//!   `p = 4` on), so saturation derives nothing from it and the search
//!   over frontiers must refute it.

use jungle_core::builder::HistoryBuilder;
use jungle_core::history::History;
use jungle_core::ids::{ProcId, Var};

/// A history with `k` committed transactions (2 ops each) and `k`
/// non-transactional reads, alternating across two processes. Every
/// transaction is real-time ordered after the previous one, so the
/// serialization order is unique and cost scales with history length
/// only.
pub fn chain_history(k: usize) -> History {
    let mut b = HistoryBuilder::new();
    let (p1, p2) = (ProcId(1), ProcId(2));
    for i in 0..k {
        let x = Var((i % 4) as u32);
        b.start(p1);
        b.write(p1, x, (i + 1) as u64);
        b.read(p1, x, (i + 1) as u64);
        b.commit(p1);
        b.read(p2, x, (i + 1) as u64);
    }
    b.build().expect("chain_history is well-formed")
}

/// `p` fully concurrent transactions (one per process) each writing its
/// own value to the single variable `x` and reading it back, followed
/// by a non-transactional read that observes transaction
/// `last_writer`'s value. All `p!` serialization orders are real-time
/// consistent, but only those placing `last_writer` last can justify
/// the final read — the history is opaque, with the witness buried
/// behind the failing orders the enumeration visits first.
///
/// # Panics
///
/// Panics if `last_writer >= p`.
pub fn wide_history(p: usize, last_writer: usize) -> History {
    assert!(last_writer < p, "last_writer must index one of the p txns");
    build_wide(p, (last_writer + 1) as u64)
}

/// Like [`wide_history`], but the trailing non-transactional read
/// observes a value no transaction wrote. No serialization order can
/// justify it, so the checker must exhaust all `p!` orders: the
/// worst-case (and most parallelizable) search.
pub fn wide_unsat_history(p: usize) -> History {
    build_wide(p, (p + 1_000) as u64)
}

fn build_wide(p: usize, observed: u64) -> History {
    assert!(p >= 1, "need at least one transaction");
    let x = Var(0);
    let mut b = HistoryBuilder::new();
    // All transactions start before any body op: pairwise concurrent.
    for i in 0..p {
        b.start(ProcId(i as u32 + 1));
    }
    for i in 0..p {
        let proc = ProcId(i as u32 + 1);
        b.write(proc, x, (i + 1) as u64);
        b.read(proc, x, (i + 1) as u64);
    }
    for i in 0..p {
        b.commit(ProcId(i as u32 + 1));
    }
    // The observer runs strictly after every commit.
    b.read(ProcId(p as u32 + 1), x, observed);
    b.build().expect("wide history is well-formed")
}

/// `p` fully concurrent transactions, transaction `i` writing
/// `1 + i % 2` to both `x` and `y`, then — after every commit — a
/// transaction reading `x = 1` and `y = 2`. Whichever writer comes last
/// stores equal values, so no order justifies the reader. At `p = 2`
/// each value has one writer and saturation closes a cycle; at `p = 3`
/// it orders the odd writer last; from `p = 4` on it derives nothing.
pub fn wide_split_unsat_history(p: usize) -> History {
    let (x, y) = (Var(0), Var(1));
    let mut b = HistoryBuilder::new();
    for i in 0..p {
        b.start(ProcId(i as u32 + 1));
    }
    for i in 0..p {
        let (proc, val) = (ProcId(i as u32 + 1), 1 + (i % 2) as u64);
        b.write(proc, x, val);
        b.write(proc, y, val);
    }
    for i in 0..p {
        b.commit(ProcId(i as u32 + 1));
    }
    let reader = ProcId(p as u32 + 1);
    b.start(reader);
    b.read(reader, x, 1);
    b.read(reader, y, 2);
    b.commit(reader);
    b.build().expect("wide split history is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_core::model::{Relaxed, Sc};
    use jungle_core::opacity::{check_opacity, check_opacity_par};
    use jungle_core::par::ParallelConfig;
    use jungle_core::sgla::check_sgla;

    fn all_parallel(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            min_units: 0,
        }
    }

    #[test]
    fn chain_scales_and_stays_opaque() {
        for k in [1usize, 4, 8] {
            let h = chain_history(k);
            assert_eq!(h.len(), 5 * k);
            assert!(check_opacity(&h, &Sc).is_opaque(), "k={k}");
        }
    }

    #[test]
    fn wide_is_opaque_for_every_last_writer() {
        for w in 0..4 {
            let h = wide_history(4, w);
            assert_eq!(h.len(), 4 * 4 + 1);
            assert!(check_opacity(&h, &Sc).is_opaque(), "last_writer={w}");
            assert!(check_sgla(&h, &Sc).is_sgla(), "last_writer={w}");
        }
    }

    #[test]
    fn wide_unsat_fails_under_every_model() {
        let h = wide_unsat_history(4);
        assert!(!check_opacity(&h, &Sc).is_opaque());
        assert!(!check_opacity(&h, &Relaxed).is_opaque());
        assert!(!check_sgla(&h, &Sc).is_sgla());
    }

    #[test]
    fn wide_split_unsat_fails_and_saturation_leaves_it_to_the_search() {
        use jungle_core::check::{Check, CheckKind};
        use jungle_core::saturate::{derive, Saturation};
        for p in 2..=5 {
            let h = wide_split_unsat_history(p);
            for kind in [CheckKind::Opacity, CheckKind::Sgla] {
                let (v, stats) = Check::new(kind).run(&h, &Sc);
                assert!(!v.holds(), "p={p}, {kind:?}");
                let refuted = !matches!(derive(&h, &Sc, kind), Saturation::Edges(_));
                assert_eq!(refuted, p == 2, "p={p}, {kind:?}");
                assert_eq!(stats.search.nodes == 0, p == 2, "p={p}, {kind:?}");
            }
            if p >= 4 {
                let edges = derive(&h, &Sc, CheckKind::Opacity);
                assert_eq!(edges, Saturation::Edges(vec![]), "p={p}");
            }
        }
    }

    #[test]
    fn parallel_agrees_on_stress_histories() {
        for h in [wide_history(4, 0), wide_unsat_history(4)] {
            let serial = check_opacity(&h, &Sc);
            for t in [1usize, 2, 4] {
                let par = check_opacity_par(&h, &Sc, &all_parallel(t));
                assert_eq!(par.is_opaque(), serial.is_opaque(), "threads={t}");
            }
        }
    }
}
