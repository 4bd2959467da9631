//! Saturation: the order every witness must respect, derived from the
//! values the reads return, before the search places a single node.
//!
//! A read of `x` whose value has exactly one possible source `w` pins
//! two facts about every witness (dbcop's saturation axiom): `w` comes
//! before the read, and every other visible writer `w'` of `x` comes
//! before `w` or after the read. The checker closes the search's
//! `fixed` edges under three rules, once per check:
//!
//! * **(rf)** a read whose value exactly one visible writer `w` stores
//!   gets `w → r`; a read of the initial value that no visible writer
//!   stores gets `r → w'` for every visible writer `w'`;
//! * **(ww)** every other visible writer `w'` of `x`: if `w'` reaches
//!   `r`, add `w' → w`; if `w` reaches `w'`, add `r → w'`;
//! * **(cs)** at operation granularity (SGLA) only: if an operation of
//!   transaction `a` reaches one of `b`, add `last(a) → first(b)` —
//!   critical sections do not overlap.
//!
//! A cycle, or a read whose value is neither the initial one nor
//! stored by any visible writer, refutes the history with zero search
//! nodes. Otherwise the derived edges join `fixed` and the closure
//! answers `must_precede`. Every derived edge holds in every legal
//! witness, so the lexicographically first witness and the first
//! admissible order whose leaf succeeds — hence verdicts and
//! witnesses — are those of the unsaturated search.
//!
//! *Visible* writers follow the legality of each property:
//!
//! * opacity (unit nodes, deferred updates): a committed transaction's
//!   last write of `x`, and non-transactional writes; a unit's reads
//!   after its own write of `x` see that write and are skipped;
//! * SGLA (operation nodes, critical sections): every write, live
//!   transactions' included; a variable an aborted transaction writes
//!   is skipped, since its undo log can restore an older value.
//!
//! Both skip a variable whose `havoc` a read can observe (for opacity,
//! one that is not overwritten inside a committed transaction; for
//! SGLA, any).

use crate::check::{CheckKind, Search};
use crate::history::{History, TxnStatus};
use crate::ids::{Val, Var};
use crate::legal::INITIAL;
use crate::linearize::{edge_set, sources, Legality};
use crate::model::MemoryModel;
use crate::op::Op;

/// What saturation concludes about a history, in history indices of
/// the transformed history `τ(h)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Saturation {
    /// Pairs `(i, j)`: operation `i` precedes operation `j` in every
    /// witness. Empty when no read constrains the order.
    Edges(Vec<(usize, usize)>),
    /// No witness exists: every witness would have to respect a cycle.
    /// One operation per node of the cycle, in cycle order.
    Cycle(Vec<usize>),
    /// No witness exists: the read at this index returns a value that
    /// is not the initial one and that no visible writer stores.
    Unsourced(usize),
}

/// Saturate `h` (not yet transformed) for `kind` under `model`.
pub fn derive(h: &History, model: &dyn MemoryModel, kind: CheckKind) -> Saturation {
    let th = model.transform(h);
    match kind {
        CheckKind::Opacity => report(&Search::opacity(&th, model), kind),
        CheckKind::Sgla => report(&Search::sgla(&th, model), kind),
    }
}

/// [`saturate`] in history indices.
fn report<L: Legality>(s: &Search<'_, L>, kind: CheckKind) -> Saturation {
    let g = &s.graph;
    let last = |u: usize| *g.ops_of(u).last().expect("a node has operations");
    match saturate(s, kind) {
        Ok(None) => Saturation::Edges(Vec::new()),
        Ok(Some(d)) => Saturation::Edges(
            d.edges
                .iter()
                .map(|&(u, v)| (last(u), g.ops_of(v)[0]))
                .collect(),
        ),
        Err(Refuted::Unsourced(i)) => Saturation::Unsourced(i),
        Err(Refuted::Cycle(derived)) => {
            let edges = edge_set(s.fixed.iter().chain(&derived).copied());
            let cycle = find_cycle(g.len(), &edges).expect("a refuting cycle exists");
            Saturation::Cycle(cycle.into_iter().map(|u| g.ops_of(u)[0]).collect())
        }
    }
}

/// The edges saturation adds to a search, and the closure of the
/// search's edges with them.
pub(crate) struct Derived {
    /// New node edges, as an [`edge_set`]; none is implied by `fixed`.
    pub(crate) edges: Vec<(usize, usize)>,
    /// Reachability under `fixed` and `edges`.
    pub(crate) order: Reach,
}

/// Why saturation refuted a history.
pub(crate) enum Refuted {
    /// The derived node edges so far, the last of which closes a cycle
    /// with `fixed` and the others (none when `fixed` is cyclic).
    Cycle(Vec<(usize, usize)>),
    /// The history index of a read nothing visible justifies.
    Unsourced(usize),
}

/// Saturate the search `s` of `kind` (see the module docs): `Ok(None)`
/// when no read constrains the order, in which case no closure is
/// built.
pub(crate) fn saturate<L: Legality>(
    s: &Search<'_, L>,
    kind: CheckKind,
) -> Result<Option<Derived>, Refuted> {
    let (writes, reads, skip) = accesses(s, kind);
    let counted = |var: Var| skip.binary_search(&var).is_err();
    // `(read, source, writers of x)` for the (ww) rule, and the (rf)
    // edges themselves.
    let mut rf = Vec::new();
    let mut base = Vec::new();
    for r in reads.iter().filter(|r| counted(r.var)) {
        let lo = writes.partition_point(|w| w.var < r.var);
        let hi = writes.partition_point(|w| w.var <= r.var);
        let others = writes[lo..hi].iter().filter(|w| w.node != r.node);
        let mut sources = others.clone().filter(|w| w.val == r.val);
        let init = r.val.expect("reads return a value") == INITIAL;
        match (sources.next(), sources.next(), init) {
            (Some(w), None, false) => {
                base.push((w.node, r.node));
                rf.push((r.node, w.node, lo..hi));
            }
            (None, _, true) => base.extend(others.map(|w| (r.node, w.node))),
            (None, _, false) => return Err(Refuted::Unsourced(r.at)),
            _ => {}
        }
    }
    if base.is_empty() {
        return Ok(None);
    }
    let order = Reach::of(s.graph.len(), &s.fixed).ok_or(Refuted::Cycle(Vec::new()))?;
    let mut c = Closure {
        order,
        edges: Vec::new(),
    };
    for (a, b) in base {
        c.add(a, b)?;
    }
    let txns = s.h.txns();
    loop {
        let mut changed = false;
        for (r, w, range) in &rf {
            for w2 in writes[range.clone()].iter().map(|x| x.node) {
                if w2 == *r || w2 == *w {
                    continue;
                }
                if c.order.reaches(w2, *r) {
                    changed |= c.add(w2, *w)?;
                }
                if c.order.reaches(*w, w2) {
                    changed |= c.add(*r, w2)?;
                }
            }
        }
        if kind == CheckKind::Sgla {
            let g = &s.graph;
            for (a, b) in (0..txns.len()).flat_map(|a| (0..txns.len()).map(move |b| (a, b))) {
                // Program order chains each transaction, so an operation
                // of `a` reaches one of `b` iff `first(a)` reaches
                // `last(b)`.
                let (ta, tb) = (&txns[a], &txns[b]);
                if a != b && c.order.reaches(g.node(ta.first()), g.node(tb.last())) {
                    changed |= c.add(g.node(ta.last()), g.node(tb.first()))?;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(Some(Derived {
        edges: edge_set(c.edges),
        order: c.order,
    }))
}

/// A read, or a visible write (`val: None` for a `havoc`), of `var`
/// by node `node` at history index `at`.
#[derive(Clone, Copy)]
struct Access {
    var: Var,
    node: usize,
    at: usize,
    val: Option<Val>,
}

/// The visible writes (each node's last of each variable, sorted by
/// variable), the reads that see another node's value, and the
/// variables to skip (sorted).
fn accesses<L: Legality>(
    s: &Search<'_, L>,
    kind: CheckKind,
) -> (Vec<Access>, Vec<Access>, Vec<Var>) {
    let (h, g) = (s.h, &s.graph);
    let (mut writes, mut reads, mut skip) = (Vec::new(), Vec::new(), Vec::new());
    for (at, oi) in h.ops().iter().enumerate() {
        let Op::Cmd(cmd) = &oi.op else { continue };
        let (var, node) = (cmd.var(), g.node(at));
        let access = Access {
            var,
            node,
            at,
            val: cmd.read_val().or(cmd.written_val()),
        };
        if cmd.is_read() {
            // A unit's read after its own write of `x` sees that write.
            let earlier = g.ops_of(node).iter().take_while(|&&i| i < at);
            let mut own = earlier.filter_map(|&i| h.ops()[i].op.command());
            if !own.any(|c| c.var() == var && !c.is_read()) {
                reads.push(access);
            }
        } else {
            match (kind, h.txn_of(at).map(|t| h.txns()[t].status)) {
                (CheckKind::Opacity, None | Some(TxnStatus::Committed)) => writes.push(access),
                (CheckKind::Opacity, _) => {}
                (CheckKind::Sgla, Some(TxnStatus::Aborted)) => skip.push(var),
                (CheckKind::Sgla, _) => writes.push(access),
            }
        }
    }
    // Others see a node's last write of a variable (at operation
    // granularity a node has one).
    writes.sort_unstable_by_key(|w| (w.var, w.node, std::cmp::Reverse(w.at)));
    writes.dedup_by_key(|w| (w.var, w.node));
    skip.extend(writes.iter().filter(|w| w.val.is_none()).map(|w| w.var));
    skip.sort_unstable();
    skip.dedup();
    (writes, reads, skip)
}

/// The saturation state: the closure, and the edges derived so far.
struct Closure {
    order: Reach,
    edges: Vec<(usize, usize)>,
}

impl Closure {
    /// Add `a → b`; `Ok(false)` if the closure implies it already.
    fn add(&mut self, a: usize, b: usize) -> Result<bool, Refuted> {
        if a == b || self.order.reaches(b, a) {
            self.edges.push((a, b));
            return Err(Refuted::Cycle(std::mem::take(&mut self.edges)));
        }
        if self.order.reaches(a, b) {
            return Ok(false);
        }
        self.order.insert(a, b);
        self.edges.push((a, b));
        Ok(true)
    }
}

/// Strict reachability over `n` nodes, one bit row per node.
pub(crate) struct Reach {
    words: usize,
    rows: Vec<u64>,
    /// One row of scratch for [`Reach::insert`].
    scratch: Vec<u64>,
}

impl Reach {
    /// The closure of the [`edge_set`] `edges`, built in reverse
    /// topological order; `None` if the edges close a cycle.
    fn of(n: usize, edges: &[(usize, usize)]) -> Option<Reach> {
        let words = n.div_ceil(64).max(1);
        let start = sources(n, edges);
        let succs = |u: usize| &edges[start[u]..start[u + 1]];
        let mut indeg = vec![0usize; n];
        for &(_, b) in edges {
            indeg[b] += 1;
        }
        let mut topo: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut k = 0;
        while k < topo.len() {
            for &(_, b) in succs(topo[k]) {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    topo.push(b);
                }
            }
            k += 1;
        }
        if topo.len() < n {
            return None;
        }
        let mut rows = vec![0u64; n * words];
        for &u in topo.iter().rev() {
            for &(_, b) in succs(u) {
                let (head, tail) = rows.split_at_mut(u.max(b) * words);
                let (row_u, row_b) = if u < b {
                    (&mut head[u * words..(u + 1) * words], &tail[..words])
                } else {
                    (&mut tail[..words], &head[b * words..(b + 1) * words])
                };
                row_u.iter_mut().zip(row_b).for_each(|(x, y)| *x |= y);
                row_u[b / 64] |= 1 << (b % 64);
            }
        }
        Some(Reach {
            words,
            rows,
            scratch: vec![0; words],
        })
    }

    /// Does every witness place node `a` before node `b`?
    pub(crate) fn reaches(&self, a: usize, b: usize) -> bool {
        self.rows[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    /// The nodes below `limit` that node `a` reaches, ascending.
    pub(crate) fn reached_below(&self, a: usize, limit: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.rows[a * self.words..(a + 1) * self.words];
        let words = row.iter().enumerate().take(limit.div_ceil(64));
        words.flat_map(move |(w, &bits)| {
            let below = limit - w * 64;
            let mut bits = if below < 64 {
                bits & ((1 << below) - 1)
            } else {
                bits
            };
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (b < 64).then_some(w * 64 + b)
            })
        })
    }

    /// Add the edge `a → b` to an acyclic closure that lacks it.
    fn insert(&mut self, a: usize, b: usize) {
        let w = self.words;
        self.scratch.copy_from_slice(&self.rows[b * w..(b + 1) * w]);
        self.scratch[b / 64] |= 1 << (b % 64);
        for x in 0..self.rows.len() / w {
            if x == a || self.reaches(x, a) {
                let row = &mut self.rows[x * w..(x + 1) * w];
                row.iter_mut().zip(&self.scratch).for_each(|(r, s)| *r |= s);
            }
        }
    }
}

/// Some cycle of the [`edge_set`] `edges` over `n` nodes, as its
/// nodes in order.
fn find_cycle(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    // 0: unvisited, 1: on the path, 2: done.
    let mut state = vec![0u8; n];
    let mut path: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        state[root] = 1;
        path.push((root, edges.partition_point(|e| e.0 < root)));
        while let Some(&(u, next)) = path.last() {
            match edges.get(next).filter(|e| e.0 == u) {
                Some(&(_, v)) => {
                    let top = path.len() - 1;
                    path[top].1 += 1;
                    match state[v] {
                        0 => {
                            state[v] = 1;
                            path.push((v, edges.partition_point(|e| e.0 < v)));
                        }
                        1 => {
                            let from = path.iter().position(|&(x, _)| x == v)?;
                            return Some(path[from..].iter().map(|&(x, _)| x).collect());
                        }
                        _ => {}
                    }
                }
                None => {
                    state[u] = 2;
                    path.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X};
    use crate::model::Sc;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    #[test]
    fn a_planted_stale_read_closes_a_cycle() {
        // W1 ≺ W2 ≺ R, R reading W1's value: W2 must precede W1 or
        // follow R, and real time forbids both.
        let mut b = HistoryBuilder::new();
        for (proc, val) in [(1, 1), (2, 2)] {
            b.start(p(proc));
            b.write(p(proc), X, val);
            b.commit(p(proc));
        }
        b.start(p(3));
        b.read(p(3), X, 1);
        b.commit(p(3));
        let h = b.build().unwrap();
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            assert!(
                matches!(derive(&h, &Sc, kind), Saturation::Cycle(_)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn unsourced_reads_and_skipped_variables() {
        let mut b = HistoryBuilder::new();
        b.read(p(1), X, 7);
        let h = b.build().unwrap();
        assert_eq!(
            derive(&h, &Sc, CheckKind::Opacity),
            Saturation::Unsourced(0)
        );

        // Two writers of 1: no single source, nothing derived.
        let mut b = HistoryBuilder::new();
        b.write(p(1), X, 1);
        b.write(p(2), X, 1);
        b.read(p(3), X, 1);
        let h = b.build().unwrap();
        assert_eq!(
            derive(&h, &Sc, CheckKind::Opacity),
            Saturation::Edges(vec![])
        );

        // A visible `havoc` lets a read of x return anything.
        let mut b = HistoryBuilder::new();
        b.havoc(p(1), X);
        b.read(p(2), X, 5);
        let h = b.build().unwrap();
        for kind in [CheckKind::Opacity, CheckKind::Sgla] {
            assert_eq!(derive(&h, &Sc, kind), Saturation::Edges(vec![]));
        }
    }

    #[test]
    fn a_read_of_the_initial_value_precedes_every_writer() {
        let mut b = HistoryBuilder::new();
        b.read(p(1), X, 0);
        b.write(p(2), X, 1);
        b.write(p(3), X, 2);
        let h = b.build().unwrap();
        assert_eq!(
            derive(&h, &Sc, CheckKind::Opacity),
            Saturation::Edges(vec![(0, 1), (0, 2)])
        );
    }

    #[test]
    fn reach_closes_and_finds_cycles() {
        let r = Reach::of(70, &[(0, 65), (3, 0), (65, 69)]).unwrap();
        assert!(r.reaches(3, 69) && r.reaches(0, 69) && !r.reaches(69, 3));
        assert!(Reach::of(3, &[(0, 1), (1, 2), (2, 0)]).is_none());
        assert_eq!(
            find_cycle(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]),
            Some(vec![1, 2, 3])
        );
        assert_eq!(find_cycle(3, &[(0, 1), (0, 2), (1, 2)]), None);
    }
}
