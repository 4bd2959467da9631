//! Diagnosis of non-opaque histories: *why* did the checker reject?
//!
//! [`explain_opacity`] re-runs the witness search and reports, for the
//! serialization order that got furthest, the longest legal prefix any
//! viewer achieved and the operations that could not be placed next —
//! each annotated with the constraint or legality failure blocking it.
//! This is the difference between "not opaque" and an actionable
//! counterexample narrative, and it is what the `model_checker` example
//! prints for violating traces.

use crate::check::{Check, CheckKind};
use crate::history::{History, TxnStatus};
use crate::ids::OpId;
use crate::legal::PrefixChecker;
use crate::model::MemoryModel;
use crate::spec::SpecRegistry;

/// Why an operation could not extend the witness prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Blocker {
    /// Some required predecessor (by `≺h`, the view, or the chosen
    /// serialization order) has not been placed yet.
    OrderedAfter(OpId),
    /// Placing the operation (or its transaction) violates legality —
    /// typically a read value with no justifying write at this point.
    Illegal,
}

/// A diagnosis of a non-opaque history.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// Whether the history was actually opaque (then the rest is empty).
    pub opaque: bool,
    /// Longest legal witness prefix achieved (operation ids of the
    /// transformed history).
    pub best_prefix: Vec<OpId>,
    /// For each operation not in the prefix that is a candidate next
    /// step, what blocks it.
    pub stuck: Vec<(OpId, Blocker)>,
}

impl Diagnosis {
    /// Render a short human-readable explanation.
    pub fn render(&self, h: &History) -> String {
        if self.opaque {
            return "history is opaque (no diagnosis)".into();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "no witness exists; best prefix covered {}/{} operations\n",
            self.best_prefix.len(),
            h.len()
        ));
        let op_str = |id: &OpId| {
            h.index_of(*id)
                .map(|i| format!("{}:{}", h.ops()[i].proc, h.ops()[i].op))
                .unwrap_or_else(|| id.to_string())
        };
        if !self.best_prefix.is_empty() {
            out.push_str("  prefix: ");
            out.push_str(
                &self
                    .best_prefix
                    .iter()
                    .map(op_str)
                    .collect::<Vec<_>>()
                    .join(" → "),
            );
            out.push('\n');
        }
        for (id, b) in &self.stuck {
            match b {
                Blocker::OrderedAfter(dep) => {
                    out.push_str(&format!("  {} must wait for {}\n", op_str(id), op_str(dep)))
                }
                Blocker::Illegal => out.push_str(&format!(
                    "  {} cannot be made legal at any remaining position\n",
                    op_str(id)
                )),
            }
        }
        out
    }
}

/// Diagnose a history against opacity parametrized by `model` (register
/// semantics).
pub fn explain_opacity(h: &History, model: &dyn MemoryModel) -> Diagnosis {
    explain_opacity_with(h, model, &SpecRegistry::registers())
}

/// Diagnose with explicit sequential specifications.
///
/// The diagnosis is *greedy*: it follows one serialization order (the
/// history order of transactions, restricted to real-time-consistent
/// choices) and extends the prefix with any placeable unit until stuck;
/// it is meant to explain, not to re-decide (use
/// [`check_opacity`](crate::opacity::check_opacity) for the verdict).
pub fn explain_opacity_with(
    h: &History,
    model: &dyn MemoryModel,
    specs: &SpecRegistry,
) -> Diagnosis {
    let check = Check {
        specs: specs.clone(),
        ..Check::new(CheckKind::Opacity)
    };
    if check.run(h, model).0.holds() {
        return Diagnosis {
            opaque: true,
            best_prefix: Vec::new(),
            stuck: Vec::new(),
        };
    }
    let th = model.transform(h);

    // Units: one per transaction (ops contiguous, program order), one
    // per non-transactional op; edges as in the checker, with the
    // serialization order fixed to history order of transaction starts.
    #[derive(Clone)]
    enum Unit {
        Txn(usize),
        Nt(usize),
    }
    let txns = th.txns();
    let mut units: Vec<Unit> = (0..txns.len()).map(Unit::Txn).collect();
    let mut unit_of = vec![usize::MAX; th.len()];
    for (ti, t) in txns.iter().enumerate() {
        for &i in &t.op_indices {
            unit_of[i] = ti;
        }
    }
    for (i, u) in unit_of.iter_mut().enumerate() {
        if th.txn_of(i).is_none() {
            *u = units.len();
            units.push(Unit::Nt(i));
        }
    }

    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..th.len() {
        for j in 0..th.len() {
            if i != j && unit_of[i] != unit_of[j] && th.precedes_rt(i, j) {
                edges.push((unit_of[i], unit_of[j]));
            }
        }
    }
    let ops = th.ops();
    for i in 0..th.len() {
        if th.is_transactional(i) || ops[i].op.command().is_none() {
            continue;
        }
        for j in (i + 1)..th.len() {
            if th.is_transactional(j) || ops[j].op.command().is_none() || ops[i].proc != ops[j].proc
            {
                continue;
            }
            if model.required(&th, i, j) {
                edges.push((unit_of[i], unit_of[j]));
            }
        }
    }
    // Serialization: history order of transaction starts.
    for w in 0..txns.len().saturating_sub(1) {
        edges.push((w, w + 1));
    }
    edges.sort_unstable();
    edges.dedup();

    // Greedy placement.
    let n = units.len();
    let mut placed = vec![false; n];
    let mut prefix: Vec<OpId> = Vec::new();
    let mut checker = PrefixChecker::new(specs);
    loop {
        let mut progressed = false;
        'units: for u in 0..n {
            if placed[u] {
                continue;
            }
            for &(a, b) in &edges {
                if b == u && !placed[a] {
                    continue 'units;
                }
            }
            // Try to apply.
            let mut c = checker.clone();
            let ok = match &units[u] {
                Unit::Nt(i) => c.step(&th.ops()[*i].op, false),
                Unit::Txn(ti) => {
                    let t = &txns[*ti];
                    let mut ok = true;
                    for &i in &t.op_indices {
                        if !c.step(&th.ops()[i].op, true) {
                            ok = false;
                            break;
                        }
                    }
                    if ok && t.status == TxnStatus::Live {
                        c.suspend_live();
                    }
                    ok
                }
            };
            if ok {
                match &units[u] {
                    Unit::Nt(i) => prefix.push(th.ops()[*i].id),
                    Unit::Txn(ti) => {
                        for &i in &txns[*ti].op_indices {
                            prefix.push(th.ops()[i].id);
                        }
                    }
                }
                checker = c;
                placed[u] = true;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Classify what's stuck.
    let mut stuck = Vec::new();
    for u in 0..n {
        if placed[u] {
            continue;
        }
        let rep = match &units[u] {
            Unit::Nt(i) => th.ops()[*i].id,
            Unit::Txn(ti) => th.ops()[txns[*ti].first()].id,
        };
        let waiting = edges
            .iter()
            .find(|&&(a, b)| b == u && !placed[a])
            .map(|&(a, _)| a);
        match waiting {
            Some(a) => {
                let dep = match &units[a] {
                    Unit::Nt(i) => th.ops()[*i].id,
                    Unit::Txn(ti) => th.ops()[txns[*ti].first()].id,
                };
                stuck.push((rep, Blocker::OrderedAfter(dep)));
            }
            None => stuck.push((rep, Blocker::Illegal)),
        }
    }

    Diagnosis {
        opaque: false,
        best_prefix: prefix,
        stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;
    use crate::ids::{ProcId, X, Y};
    use crate::model::{Rmo, Sc};

    fn p(n: u32) -> ProcId {
        ProcId(n)
    }

    fn fig1_anomaly() -> History {
        let mut b = HistoryBuilder::new();
        b.start(p(1));
        b.write(p(1), X, 1);
        b.write(p(1), Y, 1);
        b.commit(p(1));
        b.read(p(2), Y, 1);
        b.read(p(2), X, 0);
        b.build().unwrap()
    }

    #[test]
    fn opaque_history_yields_empty_diagnosis() {
        let h = fig1_anomaly();
        let d = explain_opacity(&h, &Rmo);
        assert!(d.opaque);
        assert!(d.stuck.is_empty());
        assert_eq!(d.render(&h), "history is opaque (no diagnosis)");
    }

    #[test]
    fn anomaly_diagnosis_identifies_stuck_reads() {
        let h = fig1_anomaly();
        let d = explain_opacity(&h, &Sc);
        assert!(!d.opaque);
        // The transaction places; the reads get stuck (rd y needs the
        // txn, rd x needs to precede it but is view-ordered after rd y).
        assert!(!d.stuck.is_empty());
        let text = d.render(&h);
        assert!(text.contains("best prefix"), "{text}");
        assert!(d.best_prefix.len() < h.len());
    }

    #[test]
    fn illegal_value_diagnosed() {
        let mut b = HistoryBuilder::new();
        b.read(p(1), X, 77); // never written
        let h = b.build().unwrap();
        let d = explain_opacity(&h, &Sc);
        assert!(!d.opaque);
        assert!(matches!(d.stuck.as_slice(), [(_, Blocker::Illegal)]));
    }
}
