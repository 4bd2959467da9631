//! Diagnosis of non-opaque histories: *why* did the checker reject?
//!
//! [`explain_opacity`] asks the checker for the verdict and, when it
//! fails, places units greedily along one serialization order and
//! reports the legal prefix it reached and the units that could not be
//! placed next — each annotated with the constraint or legality failure
//! blocking it. This is the difference between "not opaque" and an
//! actionable counterexample narrative, and it is what the
//! `model_checker` example prints for violating traces.
//!
//! The units, the edges `≺h ∪ v` and the placement of a unit are the
//! opacity search's own ([`linearize`](crate::linearize)); only the
//! greedy walk, in place of the backtracking search, is this module's.

use crate::check::Search;
use crate::history::History;
use crate::ids::OpId;
use crate::linearize::union;
use crate::model::MemoryModel;
use crate::opacity::check_opacity;

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

/// Diagnose a history against opacity parametrized by `model`.
///
/// The diagnosis is *greedy*: it follows one serialization order (the
/// history order of transactions, restricted to real-time-consistent
/// choices) and extends the prefix with any placeable unit until stuck;
/// it is meant to explain, not to re-decide (use
/// [`check_opacity`] for the verdict).
pub fn explain_opacity(h: &History, model: &dyn MemoryModel) -> Diagnosis {
    if check_opacity(h, model).holds() {
        return Diagnosis {
            opaque: true,
            best_prefix: Vec::new(),
            stuck: Vec::new(),
        };
    }
    let th = model.transform(h);

    // The checker's own units and edges `≺h ∪ v`, with the
    // serialization order fixed to history order of transaction starts
    // (unit `t` is transaction `t`).
    let s = Search::opacity(&th, model);
    let g = &s.graph;
    let serial: Vec<_> = (1..th.txns().len()).map(|t| (t - 1, t)).collect();
    let edges = union(&s.fixed, &serial);

    // Greedy placement.
    let n = g.len();
    let mut placed = vec![false; n];
    let mut prefix: Vec<usize> = Vec::new();
    let mut checker = s.init.clone();
    let waiting = |u: usize, placed: &[bool]| {
        let blocking = edges.iter().find(|&&(a, b)| b == u && !placed[a]);
        blocking.map(|&(a, _)| a)
    };
    loop {
        let before = prefix.len();
        for u in 0..n {
            if placed[u] || waiting(u, &placed).is_some() {
                continue;
            }
            let mut c = checker.clone();
            if g.place(u, &mut c) {
                prefix.push(u);
                checker = c;
                placed[u] = true;
            }
        }
        if prefix.len() == before {
            break;
        }
    }

    // Classify what's stuck; a unit is named by its first operation.
    let rep = |u: usize| th.ops()[g.ops_of(u)[0]].id;
    let stuck = (0..n)
        .filter(|&u| !placed[u])
        .map(|u| match waiting(u, &placed) {
            Some(a) => (rep(u), Blocker::OrderedAfter(rep(a))),
            None => (rep(u), Blocker::Illegal),
        })
        .collect();

    Diagnosis {
        opaque: false,
        best_prefix: g.op_ids(&prefix),
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
