//! SAT backend for the serialization-order search (CEGAR over CNF).
//!
//! The DFS backend of [`check`](crate::check) looks for a transaction
//! serialization order by walking down prefixes an exact witness
//! search accepts. This module compiles the same *outer* existential —
//! "∃ total order ≺ over the transactions consistent with the
//! real-time order" — into CNF for the in-tree CDCL solver
//! ([`jungle_sat`]) and discharges the *inner* existential
//! (the per-process witness permutations) by counterexample-guided
//! refinement against the DFS leaf routine.
//!
//! ### Encoding
//!
//! One Boolean variable per unordered transaction pair `{i < j}`, true
//! iff `i ≺ j` (a single variable per pair makes totality and
//! antisymmetry structural). For each unordered triple `a < b < c`,
//! exactly two clauses kill the two cyclic assignments of a tournament
//! on three nodes:
//!
//! ```text
//! ¬x_ab ∨ ¬x_bc ∨ x_ac      (forbids a≺b≺c≺a)
//!  x_ab ∨  x_bc ∨ ¬x_ac     (forbids c≺b≺a, a≺c)
//! ```
//!
//! A tournament with no 3-cycle is transitively closed, so every model
//! of the base CNF decodes to a total order. Must-precede constraints
//! (real-time order, which includes each process's program order of
//! transactions) become unit clauses, the same for both properties.
//! They are consistent with ordering transactions by
//! their first operation, so the base CNF is always satisfiable —
//! `Unsat` only ever arises from learned blocking clauses.
//!
//! ### CEGAR loop
//!
//! Each solver model is decoded to an order and **certified** by the
//! exact DFS leaf search (`Search::try_order`, the routine the DFS
//! backend runs on the order it settles on). A SAT "yes" is never
//! trusted: a positive verdict always carries a DFS-validated witness.
//! When certification fails, the oracle (`Search::extend`) shrinks the
//! order's adjacent-pair set to a minimal infeasible core `S` by greedy
//! deletion and blocks `⋀_{(a,b)∈S} a ≺ b` with the clause
//! `⋁_{(a,b)∈S} ¬lit(a,b)`.
//!
//! **Soundness of blocking:** the witness search under constraint set
//! `S` places a unit edge per pair (opacity: txn-unit to txn-unit;
//! SGLA: `last(a) → first(b)`, chained through each transaction's
//! program-order edges). For any *total* order whose precedences
//! include `S`, the adjacent-pair edges transitively imply every edge
//! of `S`, so its witness candidates are a subset of those under `S`
//! alone — "no witness under `S`" refutes every such order at once.
//! Because the empty set is tested first, a history with no witness
//! even unconstrained short-circuits to `Unsat` in one round.
//! **Termination:** every blocking clause falsifies the model that
//! produced it, and the model space is finite.
//!
//! Defensively, every clause ever added is mirrored outside the solver
//! and each model is re-checked against the mirror with
//! [`jungle_sat::verify_model`] before decoding.

use crate::check::{adjacent_pairs, Check, CheckBackend, CheckKind, CheckStats, Found, Search};
use crate::history::History;
use crate::linearize::{LeafMemo, Legality, DEAD_END_CAP};
use crate::model::MemoryModel;
use crate::opacity::OpacityVerdict;
use crate::par::Cancel;
use crate::sgla::SglaVerdict;
use jungle_obs::trace::{self, EventKind};
use jungle_obs::SatStats;
use jungle_sat::{Lit, Solution, Solver, Var};

/// The pair-variable order encoding plus a defensive clause mirror.
struct OrderEnc {
    n: usize,
    solver: Solver,
    /// Every clause ever handed to the solver, for [`verify_model`]
    /// re-checks.
    mirror: Vec<Vec<Lit>>,
}

impl OrderEnc {
    /// Allocate the `n·(n-1)/2` pair variables and add the two
    /// anti-cycle clauses per unordered triple.
    fn new(n: usize) -> OrderEnc {
        let mut solver = Solver::new();
        for _ in 0..n * n.saturating_sub(1) / 2 {
            solver.new_var();
        }
        let mut enc = OrderEnc {
            n,
            solver,
            mirror: Vec::new(),
        };
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let (ab, bc, ac) = (enc.lit(a, b), enc.lit(b, c), enc.lit(a, c));
                    enc.add(vec![ab.negate(), bc.negate(), ac]);
                    enc.add(vec![ab, bc, ac.negate()]);
                }
            }
        }
        enc
    }

    /// The base encoding of `s`'s order search: the anti-cycle clauses
    /// plus one unit clause per must-precede pair.
    fn for_search<L: Legality>(s: &Search<'_, L>) -> OrderEnc {
        let n = s.n_txns();
        let mut enc = OrderEnc::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b && s.must_precede(a, b) {
                    enc.unit(a, b);
                }
            }
        }
        enc
    }

    /// The variable for the unordered pair `{i < j}`.
    fn var(&self, i: usize, j: usize) -> Var {
        debug_assert!(i < j && j < self.n);
        (i * (2 * self.n - i - 1) / 2 + (j - i - 1)) as Var
    }

    /// The literal asserting `a ≺ b`.
    fn lit(&self, a: usize, b: usize) -> Lit {
        if a < b {
            Lit::pos(self.var(a, b))
        } else {
            Lit::neg(self.var(b, a))
        }
    }

    fn add(&mut self, lits: Vec<Lit>) {
        self.solver.add_clause(&lits);
        self.mirror.push(lits);
    }

    /// Assert `a ≺ b` unconditionally (a must-precede constraint).
    fn unit(&mut self, a: usize, b: usize) {
        let l = self.lit(a, b);
        self.add(vec![l]);
    }

    /// Forbid every total order whose precedences include all of
    /// `core`.
    fn block(&mut self, core: &[(usize, usize)]) {
        let lits = core.iter().map(|&(a, b)| self.lit(a, b).negate()).collect();
        self.add(lits);
    }

    /// Does the model order `a` before `b`?
    fn before(&self, model: &[bool], a: usize, b: usize) -> bool {
        let l = self.lit(a, b);
        model[l.var() as usize] != l.is_neg()
    }

    /// Decode a model into the total order it represents: a
    /// transaction's position is its predecessor count (well-defined
    /// because the anti-cycle clauses make the tournament transitive).
    fn decode(&self, model: &[bool]) -> Vec<usize> {
        let mut order = vec![usize::MAX; self.n];
        for i in 0..self.n {
            let pos = (0..self.n)
                .filter(|&j| j != i && self.before(model, j, i))
                .count();
            debug_assert_eq!(order[pos], usize::MAX, "model is not a total order");
            order[pos] = i;
        }
        order
    }
}

/// Shrink `pairs` to a minimal infeasible subset by greedy deletion,
/// given `infeasible(subset)` (true when no witness exists under it).
fn shrink_core<F: FnMut(&[(usize, usize)]) -> bool>(
    pairs: &[(usize, usize)],
    mut infeasible: F,
) -> Vec<(usize, usize)> {
    let mut core = pairs.to_vec();
    let mut i = 0;
    while i < core.len() {
        let removed = core.remove(i);
        if infeasible(&core) {
            continue; // redundant pair: keep it out
        }
        core.insert(i, removed);
        i += 1;
    }
    core
}

/// The CEGAR driver: encode, solve, certify, block, repeat. Leaf work
/// lands in `stats.search`, solver work in `stats.sat`.
pub(crate) fn cegar<L: Legality>(s: &Search<'_, L>, stats: &mut CheckStats) -> Option<Found> {
    let (search, sat) = (&mut stats.search, &mut stats.sat);
    let mut memo = LeafMemo::new(DEAD_END_CAP);
    let mut enc = OrderEnc::for_search(s);
    trace::emit(
        EventKind::SatSolveBegin,
        u64::from(enc.solver.num_vars()),
        enc.mirror.len() as u64,
    );

    let mut rounds = 0u64;
    let result = loop {
        let model = match enc.solver.solve() {
            Solution::Model(m) => m,
            Solution::Unsat => break None,
        };
        // Never trust the solver: re-check the model against the
        // clause mirror before acting on it.
        assert!(
            jungle_sat::verify_model(&enc.mirror, &model),
            "CDCL model violates its own clause set"
        );
        let order = enc.decode(&model);
        // Certify through the exact DFS leaf; on failure, minimize the
        // order's adjacent pairs.
        let never = Cancel::never();
        if let Some(witnesses) = s.try_order(&order, search, &never, &mut memo) {
            break Some((order, witnesses));
        }
        rounds += 1;
        let mut infeasible =
            |pairs: &[(usize, usize)]| s.extend(pairs, search, &never, &mut memo).is_none();
        if infeasible(&[]) {
            break None; // no witness even unconstrained
        }
        enc.block(&shrink_core(&adjacent_pairs(&order), infeasible));
    };

    let st = enc.solver.stats();
    sat.solved += 1;
    sat.certified += u64::from(result.is_some());
    sat.vars += u64::from(enc.solver.num_vars());
    sat.clauses += enc.mirror.len() as u64;
    sat.decisions += st.decisions;
    sat.conflicts += st.conflicts;
    sat.propagations += st.propagations;
    sat.restarts += st.restarts;
    sat.learned += st.learned;
    sat.cegar_rounds += rounds;
    trace::emit(EventKind::SatSolveEnd, result.is_some() as u64, rounds);
    result
}

fn sat(kind: CheckKind) -> Check {
    Check {
        backend: CheckBackend::Sat,
        ..Check::new(kind)
    }
}

/// [`check_opacity`](crate::opacity::check_opacity) via the SAT
/// backend. Verdicts agree with the DFS checker by construction:
/// positive answers carry a DFS-certified witness; negative answers
/// are `Unsat` proofs over DFS-refuted cores.
pub fn check_opacity_sat(h: &History, model: &dyn MemoryModel) -> OpacityVerdict {
    sat(CheckKind::Opacity).run(h, model).0
}

/// Like [`check_opacity_sat`], additionally returning the solver and
/// refinement counters.
pub fn check_opacity_sat_traced(
    h: &History,
    model: &dyn MemoryModel,
) -> (OpacityVerdict, SatStats) {
    let (verdict, stats) = sat(CheckKind::Opacity).run(h, model);
    (verdict, stats.sat)
}

/// [`check_sgla`](crate::sgla::check_sgla) via the SAT backend. Same
/// certification discipline as [`check_opacity_sat`].
pub fn check_sgla_sat(h: &History, model: &dyn MemoryModel) -> SglaVerdict {
    sat(CheckKind::Sgla).run(h, model).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X, Y};
    use crate::model::{all_models, Rmo, Sc, Tso};
    use crate::opacity::check_opacity;
    use crate::sgla::check_sgla;

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    /// Figure 1 shape: transactional double write, racing plain reads.
    fn fig1(r_y: u64, r_x: u64) -> History {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(1), Y, 1);
        b.commit(p(1));
        b.read(p(2), Y, r_y);
        b.read(p(2), X, r_x);
        b.build().unwrap()
    }

    /// Three committed transactions across two processes, the middle
    /// one observing a snapshot.
    fn fig2a(x_obs: u64, y_obs: u64) -> History {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(1), X, 2);
        b.commit(p(1));
        b.start(p(2));
        b.read(p(2), X, x_obs);
        b.read(p(2), Y, y_obs);
        b.commit(p(2));
        b.start(p(1));
        b.write(p(1), Y, 2);
        b.commit(p(1));
        b.build().unwrap()
    }

    fn corpus() -> Vec<History> {
        vec![
            fig1(1, 0),
            fig1(1, 1),
            fig1(0, 0),
            fig2a(1, 0),
            fig2a(2, 0),
            fig2a(2, 2),
            fig2a(0, 0),
        ]
    }

    /// Three concurrent transactions storing `(x, y)` = (1, 2), (2, 1)
    /// and (2, 1), then a transaction reading x = 2, y = 2. Only the
    /// first stores y = 2, so it must come last, and then x = 1; x = 2
    /// has two writers, which leaves that to the search.
    fn last_writer_mismatch() -> History {
        let mut b = HistoryBuilder::new();
        let writers = [(1, 1, 2), (2, 2, 1), (3, 2, 1)];
        for (proc, _, _) in writers {
            b.start(p(proc));
        }
        for (proc, x, y) in writers {
            b.write(p(proc), X, x);
            b.write(p(proc), Y, y);
        }
        for (proc, _, _) in writers {
            b.commit(p(proc));
        }
        b.start(p(4));
        b.read(p(4), X, 2);
        b.read(p(4), Y, 2);
        b.commit(p(4));
        b.build().unwrap()
    }

    #[test]
    fn sat_agrees_with_dfs_on_opacity() {
        for h in corpus().into_iter().chain([last_writer_mismatch()]) {
            for m in all_models() {
                let dfs = check_opacity(&h, m);
                let (sat, stats) = check_opacity_sat_traced(&h, m);
                assert_eq!(
                    dfs.is_opaque(),
                    sat.is_opaque(),
                    "backend disagreement under {}",
                    m.name()
                );
                assert_eq!(stats.solved, 1);
                assert_eq!(stats.certified, u64::from(sat.is_opaque()));
            }
        }
    }

    #[test]
    fn sat_agrees_with_dfs_on_sgla() {
        for h in corpus() {
            for m in all_models() {
                let dfs = check_sgla(&h, m);
                let sat = check_sgla_sat(&h, m);
                assert_eq!(
                    dfs.is_sgla(),
                    sat.is_sgla(),
                    "backend disagreement under {}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn positive_sat_verdict_carries_dfs_grade_witness() {
        let h = fig1(1, 1);
        let v = check_opacity_sat(&h, &Sc);
        assert!(v.is_opaque());
        assert_eq!(v.witnesses().len(), 2);
        for (_, w) in v.witnesses() {
            assert_eq!(w.len(), 6); // permutation of all six operations
        }
        // The order respects real time: the only committed txn is first.
        assert_eq!(v.txn_order(), &[0]);
    }

    #[test]
    fn negative_histories_report_empty_witness() {
        let v = check_opacity_sat(&fig1(1, 0), &Sc);
        assert!(!v.is_opaque());
        assert!(v.witnesses().is_empty());
        assert!(v.txn_order().is_empty());
    }

    #[test]
    fn model_discriminates_like_dfs() {
        // The classic fig1 relaxation split: forbidden under SC/TSO,
        // allowed under RMO.
        assert!(!check_opacity_sat(&fig1(1, 0), &Sc).is_opaque());
        assert!(!check_opacity_sat(&fig1(1, 0), &Tso).is_opaque());
        assert!(check_opacity_sat(&fig1(1, 0), &Rmo).is_opaque());
    }

    #[test]
    fn stats_count_encoding_and_refinement() {
        // fig2a(2, 2) is non-opaque under SC, and saturation says so
        // before any encoding: y = 2 has one writer, which real time
        // puts after the reader.
        let (v, stats) = sat(CheckKind::Opacity).run(&fig2a(2, 2), &Sc);
        assert!(!v.is_opaque());
        assert_eq!((stats.search.nodes, stats.search.cycle_refutes), (0, 1));
        assert_eq!(
            (stats.sat.solved, stats.sat.vars, stats.sat.cegar_rounds),
            (1, 0, 0)
        );

        // Saturation leaves this one to the solver, whose first model
        // certification refutes, forcing a CEGAR round.
        let (v, stats) = check_opacity_sat_traced(&last_writer_mismatch(), &Sc);
        assert!(!v.is_opaque());
        assert!(stats.vars >= 3, "three txns need three pair variables");
        assert!(stats.clauses > 0);
        assert!(stats.cegar_rounds >= 1);
        assert_eq!(stats.certified, 0);
        assert_eq!(stats.solved, 1);
    }

    #[test]
    fn empty_history_is_trivially_opaque() {
        let h = HistoryBuilder::new().build().unwrap();
        assert!(check_opacity_sat(&h, &Sc).is_opaque());
        assert!(check_sgla_sat(&h, &Sc).is_sgla());
    }
}
