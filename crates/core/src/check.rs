//! The one way to ask "does `h` satisfy kind K under model M".
//!
//! The paper has one definition (parametrized opacity, §3.3) and one
//! weakening (SGLA, §6.2). A [`Check`] names the question — which
//! property ([`CheckKind`]), decided by which procedure
//! ([`CheckBackend`]) — and [`Check::run`] answers it with a
//! [`CheckVerdict`] plus the [`CheckStats`] of the work done. A further
//! kind or backend is one more enum arm here, not another family of
//! functions.
//!
//! Both properties are one search, the crate-internal `Search`: find a
//! total order of the transactions, consistent with the real-time
//! order, under which an exact witness search (the *leaf*,
//! [`linearize`](crate::linearize)) succeeds. The property chooses only
//! the object searched — [`opacity`](crate::opacity) and
//! [`sgla`](crate::sgla) each hold one constructor naming the
//! granularity, the order-independent edges and the legality — and
//! because the leaf accepts any *subset* of an order's precedences, it
//! doubles as an oracle for whole families of orders.
//!
//! Before either backend runs, [`saturate`](crate::saturate) closes the
//! search's edges under the read-from facts every witness respects: a
//! cycle refutes the history with no node placed, and otherwise the
//! derived edges join `fixed` and order transactions for
//! `must_precede`. They hold in every legal witness, so they change the
//! work, never the verdict, the order or the witness.
//!
//! The DFS backend (`first_success`) returns the lexicographically
//! first admissible order whose leaf succeeds, without enumerating
//! orders: every process has the same view, so a linearization under
//! the precedences of a *prefix* exists iff some complete order
//! extending the prefix succeeds, and the search tries the first
//! admissible order, refutes with one precedence-free call, and
//! otherwise walks down one accepted prefix at a time (`first_success`
//! has the details). The leaf sees at most two complete orders; the
//! cost of a check follows the history's frontiers, not `n!`.
//! [`check_opacity_par`](crate::opacity::check_opacity_par) runs the
//! same walk on each prefix of a sorted list ([`par`](crate::par)).
//! The SAT backend ([`encode`]) lets a CDCL solver propose complete
//! orders and certifies every proposal through the same leaf.

use crate::encode;
use crate::history::History;
use crate::ids::{OpId, ProcId};
use crate::linearize::{linearize, union, Graph, LeafMemo, Legality, DEAD_END_CAP};
use crate::model::MemoryModel;
use crate::par::{search_orders_par, Cancel};
use crate::saturate::{saturate, Reach};
use jungle_obs::trace::{self, EventKind, Span};
use jungle_obs::{SatStats, SearchStats};

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
    /// The verdict of a search that found `found`.
    pub(crate) fn new(found: Option<Found>) -> Self {
        let holds = found.is_some();
        let (txn_order, witnesses) = found.unwrap_or_default();
        CheckVerdict {
            holds,
            witnesses,
            txn_order,
        }
    }

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

/// What one [`Check::run`] did, in work counted, not time taken: a
/// caller that wants the wall time reads a clock around the call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckStats {
    /// The witness search: under the DFS backend the whole search,
    /// under the SAT backend the leaf certifications and core probes.
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
}

impl Check {
    /// The serial DFS check of `kind`.
    pub fn new(kind: CheckKind) -> Self {
        Check {
            kind,
            backend: CheckBackend::Dfs,
        }
    }

    /// Decide whether `h` ensures the property parametrized by `model`.
    pub fn run(&self, h: &History, model: &dyn MemoryModel) -> (CheckVerdict, CheckStats) {
        let mut stats = CheckStats::default();
        stats.search.searches = 1;
        let th = model.transform(h);
        let found = match self.kind {
            CheckKind::Opacity => self.solve(Search::opacity(&th, model), 0, &mut stats),
            CheckKind::Sgla => self.solve(Search::sgla(&th, model), 0, &mut stats),
        };
        (CheckVerdict::new(found), stats)
    }

    /// The single dispatch on the backend, with the bookkeeping every
    /// search shares: its one flight span (named by the property, so the
    /// phase profile counts it), the unit count,
    /// and [`saturate`](crate::saturate) before either backend.
    /// `workers` above 1 splits the DFS backend over a prefix list
    /// ([`par`](crate::par)); only
    /// [`check_opacity_par`](crate::opacity::check_opacity_par) asks
    /// for that.
    pub(crate) fn solve<L: Legality>(
        &self,
        mut s: Search<'_, L>,
        workers: usize,
        stats: &mut CheckStats,
    ) -> Option<Found> {
        let units = s.graph.len();
        trace::emit_named(EventKind::SearchBegin, s.span, units as u64, workers as u64);
        stats.search.units = units as u64;
        let found = match saturate(&s, self.kind) {
            Err(_) => {
                // Decided before any backend ran; a SAT check still
                // counts as one solved query.
                stats.search.cycle_refutes += 1;
                stats.sat.solved += u64::from(self.backend == CheckBackend::Sat);
                None
            }
            Ok(derived) => {
                if let Some(d) = derived {
                    stats.search.derived_edges += d.edges.len() as u64;
                    s.fixed = union(&s.fixed, &d.edges);
                    s.order = Some(d.order);
                }
                match self.backend {
                    CheckBackend::Dfs if workers > 1 => {
                        search_orders_par(&s, workers, &mut stats.search)
                    }
                    CheckBackend::Dfs => {
                        let memo = &mut LeafMemo::new(DEAD_END_CAP);
                        first_success(&s, &[], &mut stats.search, &Cancel::never(), memo)
                    }
                    CheckBackend::Sat => encode::cegar(&s, stats),
                }
            }
        };
        trace::emit_named(
            EventKind::SearchEnd,
            s.span,
            stats.search.nodes,
            found.is_some() as u64,
        );
        found
    }
}

/// A successful search: the serialization order and the per-process
/// witness sequences it justifies.
pub(crate) type Found = (Vec<usize>, Vec<(ProcId, Vec<OpId>)>);

/// The one order search (see the module docs). A property is a
/// constructor — [`Search::opacity`] or [`Search::sgla`] — that picks
/// the granularity of `graph`, the edges of `fixed` and the legality
/// `init`; everything else is written once, here.
pub(crate) struct Search<'a, L> {
    /// The transformed history `τ(h)`.
    pub(crate) h: &'a History,
    /// The nodes a witness permutes.
    pub(crate) graph: Graph<'a>,
    /// The order-independent edges every witness respects, as an
    /// [`edge_set`](crate::linearize::edge_set). They enforce every
    /// [`must_precede`](Search::must_precede) pair on their own, so a
    /// linearization under *any* transaction precedences carries an
    /// admissible order.
    pub(crate) fixed: Vec<(usize, usize)>,
    /// The closure of `fixed` once [`saturate`] has added its edges to
    /// it (`None` until then, and when no read constrains the order).
    pub(crate) order: Option<Reach>,
    /// The legality state of the empty sequence.
    pub(crate) init: L,
    /// The name of the check's flight span.
    pub(crate) span: Span,
}

impl<L: Legality> Search<'_, L> {
    /// Transactions in `τ(h)` — the domain of the order search.
    pub(crate) fn n_txns(&self) -> usize {
        self.h.txns().len()
    }

    /// Must transaction `a` precede transaction `b` in every admissible
    /// order: did `a` complete before `b` began, or does the saturated
    /// order put `a`'s last operation before `b`'s first? On a
    /// well-formed history real time covers program order too, since a
    /// process completes one transaction before it starts the next.
    pub(crate) fn must_precede(&self, a: usize, b: usize) -> bool {
        let txns = self.h.txns();
        if txns[a].status.is_completed() && txns[a].last() < txns[b].first() {
            return true;
        }
        self.order.as_ref().is_some_and(|order| {
            let (u, v) = self.graph.order_edge(a, b);
            order.reaches(u, v)
        })
    }

    /// For each transaction, whether some transaction that starts after
    /// it must precede it. Real time never orders a transaction before
    /// an earlier-starting one, so only the saturated order can, and a
    /// transaction it does not do this to may come next as soon as
    /// every earlier-starting one is placed.
    fn overtaken(&self) -> Vec<bool> {
        let mut out = vec![false; self.n_txns()];
        let Some(order) = &self.order else {
            return out;
        };
        let (g, txns) = (&self.graph, self.h.txns());
        for u in txns {
            for b in order.reached_below(g.node(u.last()), g.node(u.first())) {
                let starts = g.txn_of(b).filter(|&t| g.node(txns[t].first()) == b);
                if let Some(t) = starts {
                    out[t] = true;
                }
            }
        }
        out
    }

    /// A legal sequence of the nodes under `fixed` and the transaction
    /// precedences `pairs`.
    fn leaf(
        &self,
        pairs: &[(usize, usize)],
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
        memo: &mut LeafMemo,
    ) -> Option<Vec<usize>> {
        let (g, init) = (&self.graph, &self.init);
        linearize(g, &self.fixed, pairs, init, stats, cancel, memo)
    }

    /// The leaf under one complete serialization order: the witness,
    /// the same for every process of `τ(h)`. `None` may be spurious
    /// once `cancel` has fired.
    pub(crate) fn try_order(
        &self,
        order: &[usize],
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
        memo: &mut LeafMemo,
    ) -> Option<Vec<(ProcId, Vec<OpId>)>> {
        let nodes = self.leaf(&adjacent_pairs(order), stats, cancel, memo)?;
        let witness = self.graph.op_ids(&nodes);
        let procs = self.h.procs();
        let Some((&last, rest)) = procs.split_last() else {
            return Some(Vec::new());
        };
        let mut witnesses: Vec<_> = rest.iter().map(|&p| (p, witness.clone())).collect();
        witnesses.push((last, witness));
        Some(witnesses)
    }

    /// The serialization order of a witness under the transaction
    /// precedences `pairs` alone — an admissible complete order that
    /// includes `pairs`. `pairs` is a weaker constraint than any total
    /// order including it, so `None` refutes all of those (the SAT
    /// backend's blocking-core query, and the DFS backend's prefix
    /// oracle).
    pub(crate) fn extend(
        &self,
        pairs: &[(usize, usize)],
        stats: &mut SearchStats,
        cancel: &Cancel<'_>,
        memo: &mut LeafMemo,
    ) -> Option<Vec<usize>> {
        let nodes = self.leaf(pairs, stats, cancel, memo)?;
        Some(self.graph.txn_order(&nodes))
    }
}

/// The adjacent pairs of a total order — the precedences that, with
/// transitivity, generate it.
pub(crate) fn adjacent_pairs(order: &[usize]) -> Vec<(usize, usize)> {
    order.windows(2).map(|w| (w[0], w[1])).collect()
}

/// The precedences every complete order extending `prefix` includes:
/// the prefix as a chain, and its last transaction before each of the
/// `n` that `used` does not mark.
fn prefix_pairs(prefix: &[usize], used: &[bool]) -> Vec<(usize, usize)> {
    let mut pairs = adjacent_pairs(prefix);
    if let Some(&last) = prefix.last() {
        let rest = (0..used.len()).filter(|&u| !used[u]);
        pairs.extend(rest.map(|u| (last, u)));
    }
    pairs
}

/// May transaction `t` come next, given the already-placed `used`?
pub(crate) fn can_place<L: Legality>(s: &Search<'_, L>, t: usize, used: &[bool]) -> bool {
    !used[t] && (0..s.n_txns()).all(|u| u == t || used[u] || !s.must_precede(u, t))
}

/// Which of `n` transactions `prefix` has placed.
pub(crate) fn used_by(n: usize, prefix: &[usize]) -> Vec<bool> {
    let mut used = vec![false; n];
    for &t in prefix {
        used[t] = true;
    }
    used
}

/// The first admissible complete order extending `prefix`, in
/// ascending-index candidate order, whose leaf succeeds.
///
/// A linearization *is* a serialization order plus its witness, so
/// [`Search::extend`] under [`prefix_pairs`] decides exactly whether
/// some admissible completion of a prefix succeeds, and the search
/// never backtracks over orders:
///
/// 1. try the first admissible completion — a history that holds under
///    it (every sequential one) costs the one leaf it always did;
/// 2. ask the oracle about `prefix` itself: `None` refutes the subtree
///    after one order;
/// 3. otherwise walk down, taking at each depth the smallest admissible
///    candidate whose prefix the oracle accepts. The order `bound` of
///    the last accepted witness extends the walk, so only candidates
///    *below* `bound`'s cost a call;
/// 4. hand the complete order to the leaf, which is the call the
///    enumeration would have made on it: same order, same witnesses.
///
/// Every oracle call that succeeds poses the constraints of the calls
/// after it (a longer prefix implies a shorter one's pairs), so its
/// dead ends are carried down the walk; a failed call's are not — the
/// walk turns away from that prefix.
pub(crate) fn first_success<L: Legality>(
    s: &Search<'_, L>,
    prefix: &[usize],
    stats: &mut SearchStats,
    cancel: &Cancel<'_>,
    memo: &mut LeafMemo,
) -> Option<Found> {
    let n = s.n_txns();
    let mut order = prefix.to_vec();
    let mut used = used_by(n, prefix);
    let leaf = |order: Vec<usize>, stats: &mut SearchStats, memo: &mut LeafMemo| {
        stats.txn_orders += 1;
        let witnesses = s.try_order(&order, stats, cancel, memo)?;
        Some((order, witnesses))
    };
    let oracle = |order: &[usize], used: &[bool], stats: &mut SearchStats, memo: &mut LeafMemo| {
        let bound = s.extend(&prefix_pairs(order, used), stats, cancel, memo)?;
        memo.keep_dead_ends();
        Some(bound)
    };

    memo.clear_dead_ends();
    let mut first = order.clone();
    let mut placed = used.clone();
    let (overtaken, mut least) = (s.overtaken(), 0);
    while first.len() < n {
        while placed[least] {
            least += 1;
        }
        let t = match overtaken[least] {
            false => Some(least),
            true => (least..n).find(|&t| can_place(s, t, &placed)),
        };
        let t = t.expect("must-precede is a partial order");
        placed[t] = true;
        first.push(t);
    }
    if let Some(found) = leaf(first, stats, memo) {
        return Some(found);
    }
    let mut bound = oracle(&order, &used, stats, memo)?;
    while order.len() < n {
        let at = order.len();
        let mut next = bound[at];
        for t in 0..bound[at] {
            if !can_place(s, t, &used) {
                continue;
            }
            order.push(t);
            used[t] = true;
            let accepted = oracle(&order, &used, stats, memo);
            order.pop();
            used[t] = false;
            if let Some(witnessed) = accepted {
                (bound, next) = (witnessed, t);
                break;
            }
        }
        order.push(next);
        used[next] = true;
    }
    let found = leaf(order, stats, memo);
    debug_assert!(found.is_some() || cancel.hit(), "the oracle accepted it");
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{X, Y};
    use crate::linearize::scheduled;
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
                assert_eq!(stats.sat.solved, u64::from(backend == CheckBackend::Sat));
                assert_eq!(stats.sat.certified, stats.sat.solved);

                let (v, _) = check.run(&fig1(0), &Sc);
                assert!(!v.holds() && v.witnesses().is_empty() && v.txn_order().is_empty());
                assert!(check.run(&fig1(0), &Rmo).0.holds());

                // One witness per process of τ(h): none at all here.
                let (v, _) = check.run(&HistoryBuilder::new().build().unwrap(), &Sc);
                assert!(v.holds(), "{kind:?}/{backend:?}");
                assert!(v.witnesses().is_empty() && v.txn_order().is_empty());
            }
        }
    }

    #[test]
    fn one_must_precede_serves_both_properties() {
        // The reference is SGLA's separate predicate as of e248245:
        // program order on one process, real-time order across them.
        let reference = |h: &History, a: usize, b: usize| {
            let txns = h.txns();
            if txns[a].proc == txns[b].proc {
                return txns[a].first() < txns[b].first();
            }
            txns[a].status.is_completed() && txns[a].last() < txns[b].first()
        };
        let (mut pairs, mut same_proc) = (0, 0);
        for seed in 0..600u64 {
            let (procs, eager) = (1 + seed % 5, 1 + seed / 5 % 7);
            let h = scheduled(seed, procs, 8 + (seed % 40) as usize, eager);
            let opacity = Search::opacity(&h, &Sc);
            let sgla = Search::sgla(&h, &Sc);
            let n = h.txns().len();
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                if a == b {
                    continue;
                }
                let expected = reference(&h, a, b);
                let ctx = format!("seed {seed}: {a} → {b}");
                assert_eq!(opacity.must_precede(a, b), expected, "{ctx}");
                assert_eq!(sgla.must_precede(a, b), expected, "{ctx}");
                pairs += 1;
                same_proc += usize::from(h.txns()[a].proc == h.txns()[b].proc);
            }
        }
        assert!(
            pairs > 10_000 && same_proc > pairs / 10,
            "{pairs} pairs, {same_proc}"
        );
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

    /// A monitor window's shape with a contended tail: `k` sequential
    /// read-modify-write transactions over four processes and four
    /// variables, then `wide` mutually concurrent writers of one
    /// variable, then — after all of them committed — a transaction
    /// that reads `observed` there. Writer `i` writes `1000 + i`.
    fn window(k: usize, wide: usize, observed: u64) -> History {
        use crate::ids::Var;
        let mut b = HistoryBuilder::new();
        for i in 0..k {
            let (p, x) = (ProcId((i % 4) as u32), Var((i % 4) as u32));
            b.start(p);
            b.read(p, x, (i / 4) as u64);
            b.write(p, x, (i / 4 + 1) as u64);
            b.commit(p);
        }
        let writers = || (0..wide).map(|i| (ProcId(10 + i as u32), 1000 + i as u64));
        for (p, _) in writers() {
            b.start(p);
        }
        for (p, val) in writers() {
            b.write(p, Var(9), val);
        }
        for (p, _) in writers() {
            b.commit(p);
        }
        b.start(ProcId(9));
        b.read(ProcId(9), Var(9), observed);
        b.commit(ProcId(9));
        b.build().unwrap()
    }

    /// The serial DFS search of `kind` on `h` under SC, remembering at
    /// most `dead_ends` dead ends.
    fn search(kind: CheckKind, h: &History, dead_ends: usize) -> (Option<Found>, SearchStats) {
        let mut stats = SearchStats::default();
        let mut memo = LeafMemo::new(dead_ends);
        let never = Cancel::never();
        let found = match kind {
            CheckKind::Opacity => {
                let s = Search::opacity(h, &Sc);
                first_success(&s, &[], &mut stats, &never, &mut memo)
            }
            CheckKind::Sgla => {
                let s = Search::sgla(h, &Sc);
                first_success(&s, &[], &mut stats, &never, &mut memo)
            }
        };
        (found, stats)
    }

    #[test]
    fn a_graph_wider_than_a_word_is_memoized_like_a_narrow_one() {
        // 5, 85 and 261 units; 15, 335 and 1,039 operation nodes. The
        // sequential part is never re-reached, so the dead ends that
        // answer are the tail's, whatever the width of the bitmap in
        // their keys.
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            let mut hits = Vec::new();
            for k in [0, 80, 256] {
                // Nobody wrote 7: one order, one pair-free call.
                let (found, stats) = search(kind, &window(k, 4, 7), usize::MAX);
                assert!(found.is_none(), "{kind:?}, k = {k}");
                assert_eq!(stats.txn_orders, 1, "{kind:?}, k = {k}");
                hits.push(stats.cache_hits);

                // Writer 0 must come last of the four: the first order
                // fails, the descent names the right one, and neither
                // the dead ends nor their absence changes the answer.
                let h = window(k, 4, 1000);
                let (found, stats) = search(kind, &h, usize::MAX);
                let (order, _) = found.clone().expect("writers 1, 2, 3, 0 justify the read");
                let tail: Vec<usize> = order[k..].iter().map(|t| t - k).collect();
                assert_eq!(tail, [1, 2, 3, 0, 4], "{kind:?}, k = {k}");
                assert_eq!(stats.txn_orders, 2, "{kind:?}, k = {k}");
                assert_eq!(search(kind, &h, 0).0, found, "{kind:?}, k = {k}");
                let (verdict, _) = Check::new(kind).run(&h, &Sc);
                assert_eq!((verdict.txn_order, verdict.witnesses), found.unwrap());
            }
            assert!(hits[0] > 0, "{kind:?}: the tail re-reaches frontiers");
            assert_eq!(hits, [hits[0]; 3], "{kind:?}");
        }
    }

    #[test]
    fn a_full_dead_end_set_costs_nodes_not_verdicts() {
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            for observed in [7, 1000] {
                let h = window(3, 5, observed);
                let (found, stats) = search(kind, &h, usize::MAX);
                assert_eq!(found.is_some(), observed == 1000);
                for cap in [0, 1, 8] {
                    let (capped, capped_stats) = search(kind, &h, cap);
                    assert_eq!(capped, found, "{kind:?}, cap {cap}");
                    assert_eq!(capped_stats.txn_orders, stats.txn_orders);
                    assert!(
                        capped_stats.nodes > stats.nodes,
                        "{kind:?}, cap {cap}: {} nodes, uncapped {}",
                        capped_stats.nodes,
                        stats.nodes
                    );
                }
            }
        }
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
