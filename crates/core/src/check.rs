//! The one way to ask "does `h` satisfy kind K under model M".
//!
//! The paper has one definition (parametrized opacity, §3.3) and one
//! weakening (SGLA, §6.2). A [`Check`] names the question — which
//! property ([`CheckKind`]), decided by which procedure
//! ([`CheckBackend`]), on how many workers, under which sequential
//! specifications — and [`Check::run`] answers it with a
//! [`CheckVerdict`] plus the [`CheckStats`] of the work done. A further
//! kind or backend is one more enum arm here, not another family of
//! functions.
//!
//! Both properties reduce to the same search shape, captured by the
//! crate-internal `OrderSearch` trait: enumerate total orders of the
//! transactions consistent with a must-precede relation, and run an
//! exact witness search (the *leaf*) for each complete order. The DFS
//! backend enumerates the orders itself (`search_orders`, serially or
//! on the work-stealing pool of [`par`](crate::par)); the SAT backend
//! ([`encode`]) lets a CDCL solver propose them and
//! certifies every proposal through the same leaf. The leaf is written
//! once too — [`linearize`](crate::linearize) — so an `OrderSearch`
//! impl only says which granularity, which static edges and which
//! legality.

use crate::encode;
use crate::history::History;
use crate::ids::{OpId, ProcId};
use crate::model::MemoryModel;
use crate::opacity::Search;
use crate::par::{run_order_pool, Cancel, ParallelConfig, WitnessMemo, MEMO_CAP};
use crate::sgla::SglaSearch;
use crate::spec::SpecRegistry;
use jungle_obs::trace::{self, EventKind};
use jungle_obs::{profile, SatStats, SearchStats, Span};

/// Which correctness property to check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CheckKind {
    /// Parametrized opacity (§3.3).
    Opacity,
    /// Single global lock atomicity (§6.2).
    Sgla,
}

impl CheckKind {
    /// Stable on-disk tag, used in persisted memo file names.
    pub fn tag(self) -> &'static str {
        match self {
            CheckKind::Opacity => "opacity",
            CheckKind::Sgla => "sgla",
        }
    }

    /// Inverse of [`CheckKind::tag`].
    pub fn from_tag(tag: &str) -> Option<CheckKind> {
        match tag {
            "opacity" => Some(CheckKind::Opacity),
            "sgla" => Some(CheckKind::Sgla),
            _ => None,
        }
    }
}

/// Which decision procedure answers the query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CheckBackend {
    /// The exact DFS over serialization orders (the default).
    #[default]
    Dfs,
    /// The CDCL + CEGAR backend of [`encode`]. Positive
    /// verdicts are still certified by the DFS leaf routine.
    Sat,
}

/// The verdict of a [`Check`], for either kind.
#[derive(Clone, Debug)]
pub struct CheckVerdict {
    holds: bool,
    witnesses: Vec<(ProcId, Vec<OpId>)>,
    txn_order: Vec<usize>,
}

impl CheckVerdict {
    /// Did the history ensure the checked property parametrized by the
    /// model?
    pub fn holds(&self) -> bool {
        self.holds
    }

    /// [`holds`](Self::holds), spelled for an opacity check.
    pub fn is_opaque(&self) -> bool {
        self.holds
    }

    /// [`holds`](Self::holds), spelled for an SGLA check.
    pub fn is_sgla(&self) -> bool {
        self.holds
    }

    /// Witness histories (one per process), as sequences of operation
    /// identifiers of the transformed history: sequential for opacity,
    /// transactionally sequential for SGLA. Empty if the property does
    /// not hold.
    pub fn witnesses(&self) -> &[(ProcId, Vec<OpId>)] {
        &self.witnesses
    }

    /// The transaction serialization order shared by all witnesses
    /// (indices into the transformed history's transaction list).
    pub fn txn_order(&self) -> &[usize] {
        &self.txn_order
    }
}

/// What one [`Check::run`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckStats {
    /// The witness search: under the DFS backend the whole search,
    /// under the SAT backend the leaf certifications and core probes.
    /// `wall_ns` covers the whole check for either.
    pub search: SearchStats,
    /// Solver and refinement counters; all zero under the DFS backend.
    pub sat: SatStats,
}

/// One checker request; see the module docs.
#[derive(Clone, Debug)]
pub struct Check {
    /// The property.
    pub kind: CheckKind,
    /// The decision procedure.
    pub backend: CheckBackend,
    /// `Some` fans the DFS backend's order enumeration over a scoped
    /// worker pool (histories below `min_units` schedulable units stay
    /// serial). Verdict **and** witness are exactly those of the serial
    /// search for every thread count — see [`par`](crate::par). The SAT
    /// backend is single-threaded and ignores it.
    pub parallel: Option<ParallelConfig>,
    /// The sequential specification of every variable.
    pub specs: SpecRegistry,
}

impl Check {
    /// The serial DFS check of `kind` with every variable a read/write
    /// register (the paper's default object semantics).
    pub fn new(kind: CheckKind) -> Self {
        Check {
            kind,
            backend: CheckBackend::Dfs,
            parallel: None,
            specs: SpecRegistry::registers(),
        }
    }

    /// Decide whether `h` ensures the property parametrized by `model`.
    pub fn run(&self, h: &History, model: &dyn MemoryModel) -> (CheckVerdict, CheckStats) {
        let wall = Span::start();
        let mut stats = CheckStats::default();
        stats.search.searches = 1;
        let th = model.transform(h);
        let found = match self.kind {
            CheckKind::Opacity => self.solve(&Search::new(&th, model, &self.specs), &mut stats),
            CheckKind::Sgla => self.solve(&SglaSearch::new(&th, model, &self.specs), &mut stats),
        };
        stats.search.wall_ns = wall.elapsed_ns();
        if stats.sat.solved != 0 {
            stats.sat.wall.record(stats.search.wall_ns);
        }
        let holds = found.is_some();
        let (txn_order, witnesses) = found.unwrap_or_default();
        let verdict = CheckVerdict {
            holds,
            witnesses,
            txn_order,
        };
        (verdict, stats)
    }

    /// The single dispatch on the backend, with the bookkeeping every
    /// search shares: profiler phase, flight events, unit count.
    fn solve<S: OrderSearch>(&self, s: &S, stats: &mut CheckStats) -> Option<Found> {
        let _phase = profile::enter(S::PHASE);
        let units = s.units();
        let threads = match self.parallel {
            Some(cfg) if self.backend == CheckBackend::Dfs && !cfg.serial_for(units) => {
                cfg.effective_threads()
            }
            _ => 0,
        };
        trace::emit(EventKind::SearchBegin, units as u64, threads as u64);
        stats.search.units = units as u64;
        let found = match self.backend {
            CheckBackend::Dfs => search_orders(s, threads, &mut stats.search),
            CheckBackend::Sat => encode::cegar(s, stats),
        };
        trace::emit(
            EventKind::SearchEnd,
            stats.search.nodes,
            found.is_some() as u64,
        );
        found
    }
}

/// A successful search: the serialization order and the per-process
/// witness sequences it justifies.
pub(crate) type Found = (Vec<usize>, Vec<(ProcId, Vec<OpId>)>);

/// Memo of leaf witness searches, keyed by the exact deduplicated edge
/// set (the only input that varies between calls on one history).
pub(crate) type LeafMemo = WitnessMemo<Vec<(usize, usize)>, Option<Vec<OpId>>>;

/// The search shape both properties share (see the module docs).
pub(crate) trait OrderSearch: Sync {
    /// Profiler phase name.
    const PHASE: &'static str;

    /// Schedulable units of the leaf search.
    fn units(&self) -> usize;

    /// Transactions in the (transformed) history — the domain of the
    /// order search.
    fn n_txns(&self) -> usize;

    /// Must transaction `a` precede transaction `b` in every admissible
    /// order?
    fn must_precede(&self, a: usize, b: usize) -> bool;

    /// The leaf: per-process witnesses for one complete serialization
    /// order. `Err(set)` names the constraint set that admitted no
    /// witness, for [`infeasible`](Self::infeasible) (meaningless when
    /// `cancel` fired mid-way, in which case the failure may be
    /// spurious).
    fn try_order(
        &self,
        order: &[usize],
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
        memo: &mut LeafMemo,
    ) -> Result<Vec<(ProcId, Vec<OpId>)>, usize>;

    /// Does constraint set `set` admit no witness under the
    /// transaction precedences `pairs` alone? A subset of an order's
    /// pairs is a weaker constraint, so `true` refutes every total
    /// order whose precedences include `pairs` (the SAT backend's
    /// blocking-core query).
    fn infeasible(
        &self,
        set: usize,
        pairs: &[(usize, usize)],
        stats: &mut SearchStats,
        memo: &mut LeafMemo,
    ) -> bool;
}

/// The adjacent pairs of a total order — the precedences that, with
/// transitivity, generate it.
pub(crate) fn adjacent_pairs(order: &[usize]) -> Vec<(usize, usize)> {
    order.windows(2).map(|w| (w[0], w[1])).collect()
}

/// May transaction `t` come next, given the already-placed `used`?
fn can_place<S: OrderSearch>(s: &S, t: usize, used: &[bool]) -> bool {
    (0..s.n_txns()).all(|u| u == t || used[u] || !s.must_precede(u, t))
}

fn used_by(n: usize, prefix: &[usize]) -> Vec<bool> {
    let mut used = vec![false; n];
    for &t in prefix {
        used[t] = true;
    }
    used
}

/// The DFS backend: enumerate admissible serialization orders in
/// ascending-index candidate order and return the first whose leaf
/// succeeds — on `threads` pool workers, or inline when `threads` is 0.
fn search_orders<S: OrderSearch>(s: &S, threads: usize, stats: &mut SearchStats) -> Option<Found> {
    let n = s.n_txns();
    let subtree =
        |prefix: &[usize], cancel: &Cancel<'_>, memo: &mut LeafMemo, stats: &mut SearchStats| {
            let mut order = Vec::with_capacity(n);
            order.extend_from_slice(prefix);
            let mut found = None;
            enum_orders(
                s,
                &mut order,
                &mut used_by(n, prefix),
                &mut found,
                stats,
                cancel,
                memo,
            );
            found
        };
    if threads == 0 {
        // No memo: the serial search is the reference the pool and the
        // SAT backend are compared against.
        return subtree(&[], &Cancel::never(), &mut LeafMemo::disabled(), stats);
    }
    stats.workers = threads as u64;
    run_order_pool(
        threads,
        n,
        |prefix| {
            let used = used_by(n, prefix);
            (0..n)
                .filter(|&t| !used[t] && can_place(s, t, &used))
                .collect()
        },
        || LeafMemo::new(MEMO_CAP),
        subtree,
        stats,
    )
}

/// Extend `order` to every admissible complete order, running the leaf
/// on each, until one succeeds. `cancel` aborts the enumeration once
/// its result can no longer matter (pool only).
fn enum_orders<S: OrderSearch>(
    s: &S,
    order: &mut Vec<usize>,
    used: &mut [bool],
    found: &mut Option<Found>,
    stats: &mut SearchStats,
    cancel: &Cancel<'_>,
    memo: &mut LeafMemo,
) {
    if found.is_some() || cancel.hit() {
        return;
    }
    if order.len() == s.n_txns() {
        stats.txn_orders += 1;
        if let Ok(witnesses) = s.try_order(order, stats, cancel, memo) {
            *found = Some((order.clone(), witnesses));
        }
        return;
    }
    for t in 0..s.n_txns() {
        if used[t] || !can_place(s, t, used) {
            continue;
        }
        used[t] = true;
        order.push(t);
        enum_orders(s, order, used, found, stats, cancel, memo);
        order.pop();
        used[t] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{X, Y};
    use crate::model::{Rmo, Sc};

    /// Figure 1: a transaction writes x then y; another thread reads
    /// `y = 1` then `x = r_x` non-transactionally.
    fn fig1(r_x: u64) -> History {
        let (p1, p2) = (ProcId(1), ProcId(2));
        let mut b = HistoryBuilder::new();
        b.start(p1);
        b.write(p1, X, 1);
        b.write(p1, Y, 1);
        b.commit(p1);
        b.read(p2, Y, 1);
        b.read(p2, X, r_x);
        b.build().unwrap()
    }

    #[test]
    fn every_request_returns_a_verdict_and_the_work_it_took() {
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            for backend in [CheckBackend::Dfs, CheckBackend::Sat] {
                let check = Check {
                    backend,
                    ..Check::new(kind)
                };
                let (v, stats) = check.run(&fig1(1), &Sc);
                assert!(v.holds(), "{kind:?}/{backend:?}");
                assert_eq!(v.txn_order(), &[0]);
                assert_eq!(stats.search.searches, 1);
                assert!(stats.search.wall_ns > 0);
                assert_eq!(stats.sat.solved, u64::from(backend == CheckBackend::Sat));
                assert_eq!(stats.sat.certified, stats.sat.solved);
                assert_eq!(stats.sat.wall.count, stats.sat.solved);

                let (v, _) = check.run(&fig1(0), &Sc);
                assert!(!v.holds() && v.witnesses().is_empty() && v.txn_order().is_empty());
                assert!(check.run(&fig1(0), &Rmo).0.holds());
            }
        }
    }

    #[test]
    fn sat_certification_work_is_reported() {
        // A certified SAT witness went through the DFS leaf; its nodes
        // must not be thrown away.
        let check = Check {
            backend: CheckBackend::Sat,
            ..Check::new(CheckKind::Opacity)
        };
        let (v, stats) = check.run(&fig1(1), &Sc);
        assert!(v.is_opaque());
        assert_eq!(stats.sat.certified, 1);
        assert!(stats.search.nodes > 0, "{:?}", stats.search);
        assert!(stats.search.units > 0);
    }

    #[test]
    fn kinds_round_trip_their_tags() {
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            assert_eq!(CheckKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(CheckKind::from_tag("du-opacity"), None);
        assert_eq!(CheckBackend::default(), CheckBackend::Dfs);
    }
}
