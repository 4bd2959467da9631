//! `jungle-sat` — a small, dependency-free CDCL SAT solver.
//!
//! The opacity/SGLA witness search in `jungle-core` is an NP-complete
//! DFS over total serialization orders. This crate is the other half
//! of that trade: the `jungle_core::encode` module compiles the order
//! search into CNF and hands it to this solver, then decodes and
//! re-certifies any model it returns. The build environment is fully
//! offline, so no external solver crate can be vendored; this is a
//! classic CDCL core in ~600 lines:
//!
//! * two-watched-literal propagation with blocker literals,
//! * first-UIP conflict analysis and clause learning,
//! * VSIDS-style variable activities with exponential decay,
//! * Luby-sequence restarts and phase saving,
//! * incremental use: [`Solver::add_clause`] may be called between
//!   [`Solver::solve`] calls (it cancels to decision level 0), which
//!   is what the encoder's CEGAR refinement loop needs.
//!
//! Results are never trusted blindly: a satisfying assignment is
//! returned as a plain `Vec<bool>` that callers can (and do) check
//! against their own clause list — [`verify_model`] is the reference
//! implementation of that check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: variable plus sign, packed as `2 * var + (negated as u32)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True if this is a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists.
    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Truth value of a variable or literal during search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

/// Outcome of [`Solver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// Satisfiable: value of every variable, indexed by `Var`.
    Model(Vec<bool>),
    /// No satisfying assignment exists.
    Unsat,
}

/// Plain counters of solver work, cheap enough to always collect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts hit (equals clauses learned plus level-0 refutations).
    pub conflicts: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned from conflicts.
    pub learned: u64,
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: usize,
    blocker: Lit,
}

/// Conflicts between restarts is `RESTART_UNIT * luby(restarts)`.
const RESTART_UNIT: u64 = 64;
const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

/// A CDCL SAT solver over clauses of [`Lit`]s.
pub struct Solver {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    unsat: bool,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            unsat: false,
            stats: SolverStats::default(),
        }
    }

    /// Allocate a fresh variable and return it.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Counters of work done across all `solve` calls so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// True once an empty clause (or level-0 conflict) has been derived;
    /// every subsequent `solve` returns [`Solution::Unsat`] immediately.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause; returns `false` once the formula is known
    /// unsatisfiable (an empty clause was derived). May be called
    /// between `solve` calls — the trail is cancelled to level 0 first,
    /// which is what the encoder's CEGAR loop relies on.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        // Normalize: sort, dedup, drop tautologies and level-0-false
        // literals, and skip clauses already true at level 0.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_by_key(|l| l.0);
        c.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        for (k, &l) in c.iter().enumerate() {
            if k + 1 < c.len() && c[k + 1] == l.negate() {
                return true; // tautology: l ∨ ¬l
            }
            match self.value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => {}          // drop the false literal
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.clauses.len();
                self.watches[out[0].code()].push(Watcher {
                    cref,
                    blocker: out[1],
                });
                self.watches[out[1].code()].push(Watcher {
                    cref,
                    blocker: out[0],
                });
                self.clauses.push(out);
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, from: Option<usize>) {
        let v = l.var() as usize;
        self.assign[v] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                let Watcher { cref, blocker } = ws[i];
                if self.value(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                // Make sure the false literal sits at position 1.
                if self.clauses[cref][0] == false_lit {
                    self.clauses[cref].swap(0, 1);
                }
                let first = self.clauses[cref][0];
                if first != blocker && self.value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Hunt for a replacement watch.
                let len = self.clauses[cref].len();
                for k in 2..len {
                    let lk = self.clauses[cref][k];
                    if self.value(lk) != LBool::False {
                        self.clauses[cref].swap(1, k);
                        self.watches[lk.code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                if self.value(first) == LBool::False {
                    self.watches[false_lit.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                self.stats.propagations += 1;
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > ACTIVITY_RESCALE {
            for x in &mut self.activity {
                *x /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    /// First-UIP conflict analysis: returns the learnt clause (with the
    /// asserting literal first) and the level to backtrack to.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 = asserting lit
        let mut seen = vec![false; self.num_vars as usize];
        let mut path = 0u32;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            let start = usize::from(p.is_some());
            for j in start..self.clauses[confl].len() {
                let q = self.clauses[confl][j];
                let v = q.var();
                if !seen[v as usize] && self.level[v as usize] > 0 {
                    seen[v as usize] = true;
                    self.bump(v);
                    if self.level[v as usize] >= self.decision_level() {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if seen[self.trail[idx].var() as usize] {
                    p = Some(self.trail[idx]);
                    break;
                }
            }
            path -= 1;
            if path == 0 {
                break;
            }
            confl = self.reason[p.unwrap().var() as usize]
                .expect("non-decision literal on conflict path has a reason");
        }
        learnt[0] = p.unwrap().negate();
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Hoist the deepest of the remaining literals to slot 1 so
            // it becomes the second watch after backtracking.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };
        (learnt, bt)
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var() as usize;
                self.phase[v] = !l.is_neg();
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    fn pick_branch(&self) -> Option<Var> {
        let mut best: Option<Var> = None;
        for v in 0..self.num_vars {
            if self.assign[v as usize] == LBool::Undef {
                match best {
                    None => best = Some(v),
                    Some(b) => {
                        if self.activity[v as usize] > self.activity[b as usize] {
                            best = Some(v);
                        }
                    }
                }
            }
        }
        best
    }

    /// The Luby restart sequence: 1 1 2 1 1 2 4 …
    fn luby(mut i: u64) -> u64 {
        let mut k = 1u32;
        while (1u64 << k) < i + 2 {
            k += 1;
        }
        loop {
            if (1u64 << k) == i + 2 {
                return 1u64 << (k - 1);
            }
            k -= 1;
            i -= (1u64 << k) - 1;
            while (1u64 << k) >= i + 2 {
                k -= 1;
            }
            k += 1;
        }
    }

    /// Search for a satisfying assignment. May be called repeatedly,
    /// interleaved with [`Solver::add_clause`].
    pub fn solve(&mut self) -> Solution {
        if self.unsat {
            return Solution::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return Solution::Unsat;
        }
        let mut conflicts_here = 0u64;
        let mut restart_budget = RESTART_UNIT * Self::luby(0);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return Solution::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    let cref = self.clauses.len();
                    self.watches[learnt[0].code()].push(Watcher {
                        cref,
                        blocker: learnt[1],
                    });
                    self.watches[learnt[1].code()].push(Watcher {
                        cref,
                        blocker: learnt[0],
                    });
                    self.clauses.push(learnt);
                    self.enqueue(asserting, Some(cref));
                }
                self.stats.learned += 1;
                self.var_inc /= ACTIVITY_DECAY;
            } else if conflicts_here >= restart_budget {
                self.stats.restarts += 1;
                conflicts_here = 0;
                restart_budget = RESTART_UNIT * Self::luby(self.stats.restarts);
                self.cancel_until(0);
            } else {
                match self.pick_branch() {
                    None => {
                        let model = self
                            .assign
                            .iter()
                            .map(|&a| a == LBool::True)
                            .collect::<Vec<bool>>();
                        return Solution::Model(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let l = if self.phase[v as usize] {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        };
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

/// Reference model check: does `model` satisfy every clause?
///
/// This is the certification primitive: anything the solver claims is
/// a model must pass this before a caller acts on it.
pub fn verify_model(clauses: &[Vec<Lit>], model: &[bool]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|l| model.get(l.var() as usize).copied().unwrap_or(false) != l.is_neg())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(x: i64) -> Lit {
        let v = (x.unsigned_abs() - 1) as Var;
        if x < 0 {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    }

    fn solver_for(num_vars: u32, clauses: &[Vec<i64>]) -> (Solver, Vec<Vec<Lit>>) {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        let mut cs = Vec::new();
        for c in clauses {
            let c: Vec<Lit> = c.iter().map(|&x| lit(x)).collect();
            s.add_clause(&c);
            cs.push(c);
        }
        (s, cs)
    }

    #[test]
    fn trivial_sat() {
        let (mut s, cs) = solver_for(2, &[vec![1, 2], vec![-1, 2]]);
        match s.solve() {
            Solution::Model(m) => assert!(verify_model(&cs, &m)),
            Solution::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let (mut s, _) = solver_for(1, &[vec![1], vec![-1]]);
        assert_eq!(s.solve(), Solution::Unsat);
        assert!(s.is_unsat());
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p(i,h): pigeon i in hole h; vars 1..=6 as i*2 + h.
        let p = |i: i64, h: i64| i * 2 + h + 1;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![p(i, 0), p(i, 1)]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    clauses.push(vec![-p(i, h), -p(j, h)]);
                }
            }
        }
        let (mut s, _) = solver_for(6, &clauses);
        assert_eq!(s.solve(), Solution::Unsat);
    }

    #[test]
    fn incremental_blocking_enumerates_models() {
        // x1 ∨ x2 has exactly 3 models over 2 vars.
        let (mut s, cs) = solver_for(2, &[vec![1, 2]]);
        let mut models = 0;
        loop {
            match s.solve() {
                Solution::Unsat => break,
                Solution::Model(m) => {
                    assert!(verify_model(&cs, &m));
                    models += 1;
                    assert!(models <= 3, "enumerated too many models");
                    let block: Vec<Lit> = (0..2)
                        .map(|v| {
                            if m[v as usize] {
                                Lit::neg(v)
                            } else {
                                Lit::pos(v)
                            }
                        })
                        .collect();
                    s.add_clause(&block);
                }
            }
        }
        assert_eq!(models, 3);
    }

    #[test]
    fn luby_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), w, "luby({i})");
        }
    }
}
