//! Counterexample explainer: turn a violating trace into a narrative.
//!
//! The negative experiments ([`crate::theorems`]) end with "a violating
//! trace exists" — a trace none of whose corresponding histories
//! satisfies the property. This module explains *why*, in the paper's
//! own vocabulary:
//!
//! 1. an ASCII **timeline** of the representative (canonical)
//!    corresponding history, one row per process;
//! 2. the **irreconcilable pair**: the single required view ordering
//!    `i ≺ j` whose removal would make the history pass — found by
//!    re-running the checker under a [`MemoryModel`] wrapper that masks
//!    exactly one required edge;
//! 3. the **Theorem 1 class** the shape matches (`Mrr`/`Mrw`/`Mwr`/
//!    `Mww`), read off the masked pair's (read/write, read/write)
//!    kinds;
//! 4. the per-process **views** `v(p)` (the model's required orderings
//!    over each process's non-transactional operations), and the greedy
//!    stuck-prefix diagnosis from
//!    [`jungle_core::explain::explain_opacity`].
//!
//! The explainer works on the *canonical* corresponding history — the
//! linearize-at-response order. Any corresponding history of a
//! violating trace fails, so the canonical one is a faithful (and
//! reproducible) representative. Classification needs a single masked
//! edge to flip the verdict; when no single edge does (a violation that
//! is over-determined), the explainer falls back to masking a whole
//! reorder class at a time.

use crate::verify::CheckKind;
use jungle_core::check::Check;
use jungle_core::classes::ClassSet;
use jungle_core::explain::explain_opacity;
use jungle_core::history::History;
use jungle_core::ids::ProcId;
use jungle_core::linearize::view_pairs;
use jungle_core::model::MemoryModel;
use jungle_core::pretty::render_timeline;
use jungle_isa::trace::Trace;
use std::borrow::Cow;

/// The four reorder-restriction classes of Theorem 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TheoremClass {
    /// Read-read restrictive (`M ∈ Mrr`) — Figure 5(b).
    Mrr,
    /// Read-write restrictive (`M ∈ Mrw`) — Figure 5(d).
    Mrw,
    /// Write-read restrictive (`M ∈ Mwr`) — Figure 5(c).
    Mwr,
    /// Write-write restrictive (`M ∈ Mww`).
    Mww,
}

impl TheoremClass {
    /// The class for a required pair whose earlier op is a read iff
    /// `i_read`, later op a read iff `j_read`.
    fn of_pair(i_read: bool, j_read: bool) -> TheoremClass {
        match (i_read, j_read) {
            (true, true) => TheoremClass::Mrr,
            (true, false) => TheoremClass::Mrw,
            (false, true) => TheoremClass::Mwr,
            (false, false) => TheoremClass::Mww,
        }
    }

    /// Paper-style name, e.g. `"Mrr"`.
    pub fn name(self) -> &'static str {
        match self {
            TheoremClass::Mrr => "Mrr",
            TheoremClass::Mrw => "Mrw",
            TheoremClass::Mwr => "Mwr",
            TheoremClass::Mww => "Mww",
        }
    }

    /// Longhand description.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            TheoremClass::Mrr => "read-read restrictive",
            TheoremClass::Mrw => "read-write restrictive",
            TheoremClass::Mwr => "write-read restrictive",
            TheoremClass::Mww => "write-write restrictive",
        }
    }
}

impl std::fmt::Display for TheoremClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured explanation of one counterexample.
#[derive(Debug)]
pub struct Explanation {
    /// Model that parametrized the violated property.
    pub model: &'static str,
    /// The violated property.
    pub kind: CheckKind,
    /// Theorem 1 construction class the shape matches, when a masking
    /// pass could isolate it.
    pub class: Option<TheoremClass>,
    /// The irreconcilable required ordering, as (process, earlier op,
    /// later op) rendered text — the single view edge whose removal
    /// makes the history pass.
    pub pair: Option<(ProcId, String, String)>,
    /// ASCII timeline of the explained history (one row per process).
    pub timeline: String,
    /// Per-process views `v(p)`: the model's required orderings over
    /// each process's non-transactional operations.
    pub views: Vec<(ProcId, String)>,
    /// Greedy stuck-prefix diagnosis (opacity only; empty for SGLA).
    pub diagnosis: String,
}

impl Explanation {
    /// Render the full narrative.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "counterexample to {} parametrized by {}\n",
            match self.kind {
                CheckKind::Opacity => "opacity",
                CheckKind::Sgla => "SGLA",
            },
            self.model
        ));
        out.push_str(&self.timeline);
        for (p, v) in &self.views {
            out.push_str(&format!("view v({p}): {v}\n"));
        }
        match (&self.pair, self.class) {
            (Some((p, a, b)), Some(c)) => {
                out.push_str(&format!(
                    "irreconcilable pair: {p} requires {a} ≺ {b} in every view, \
                     but no witness order can honor it\n"
                ));
                out.push_str(&format!(
                    "shape matches Theorem 1 class {c} ({})\n",
                    c.describe()
                ));
            }
            (None, Some(c)) => out.push_str(&format!(
                "no single view edge explains the violation; \
                 relaxing the whole {c} class ({}) makes it pass\n",
                c.describe()
            )),
            _ => out.push_str(
                "violation is not explained by the model's view orderings \
                 (legality failure; see diagnosis)\n",
            ),
        }
        if !self.diagnosis.is_empty() {
            out.push_str(&self.diagnosis);
        }
        out
    }
}

/// A model wrapper that drops the required edges selected by `mask`
/// (given transformed-history indices) and otherwise behaves as
/// `inner`.
struct MaskedModel<'a, F: Fn(&History, usize, usize) -> bool + Sync> {
    inner: &'a dyn MemoryModel,
    mask: F,
}

impl<F: Fn(&History, usize, usize) -> bool + Sync> MemoryModel for MaskedModel<'_, F> {
    fn name(&self) -> &'static str {
        "masked"
    }

    fn transform<'h>(&self, h: &'h History) -> Cow<'h, History> {
        self.inner.transform(h)
    }

    fn required(&self, h: &History, i: usize, j: usize) -> bool {
        if (self.mask)(h, i, j) {
            return false;
        }
        self.inner.required(h, i, j)
    }

    fn classes(&self) -> ClassSet {
        self.inner.classes()
    }
}

fn passes(h: &History, model: &dyn MemoryModel, kind: CheckKind) -> bool {
    Check::new(kind).run(h, model).0.holds()
}

/// Is transformed-history index `i` a non-transactional object command?
fn is_nt_cmd(th: &History, i: usize) -> bool {
    !th.is_transactional(i) && th.ops()[i].op.command().is_some()
}

/// The candidate maskable pairs, in ascending order: the
/// different-variable pairs of the minimal view — the pairs whose
/// orderings define the §3.2 classes. (Same-variable pairs are program
/// order per location, required by every model; dropping one would not
/// be a statement about `M`.)
fn candidate_pairs(th: &History, model: &dyn MemoryModel) -> Vec<(usize, usize)> {
    let var = |i: usize| th.ops()[i].op.command().map(|c| c.var());
    let view = view_pairs(th, model).into_iter();
    view.filter(|&(i, j)| var(i) != var(j)).collect()
}

/// Explain why `h` violates `kind` parametrized by `model`.
///
/// If `h` actually satisfies the property the explanation degenerates
/// (no pair, no class, empty diagnosis) — callers normally hold a
/// violating history from a [`Sweep`](crate::verify::Sweep)'s
/// `violation` or an experiment.
fn explain_history(h: &History, model: &dyn MemoryModel, kind: CheckKind) -> Explanation {
    let th = model.transform(h);
    let ops = th.ops();
    let mut explanation = Explanation {
        model: model.name(),
        kind,
        class: None,
        pair: None,
        timeline: render_timeline(&th),
        views: views_of(&th, model),
        diagnosis: String::new(),
    };
    if passes(h, model, kind) {
        return explanation;
    }
    if kind == CheckKind::Opacity {
        explanation.diagnosis = explain_opacity(h, model).render(&th);
    }

    // Single-edge masking: the first (in history order) required pair
    // whose removal flips the verdict is the irreconcilable ordering.
    let candidates = candidate_pairs(&th, model);
    for &(i, j) in &candidates {
        let masked = MaskedModel {
            inner: model,
            mask: move |_: &History, a: usize, b: usize| (a, b) == (i, j),
        };
        if passes(h, &masked, kind) {
            let (ci, cj) = (ops[i].op.command().unwrap(), ops[j].op.command().unwrap());
            explanation.class = Some(TheoremClass::of_pair(ci.is_read(), cj.is_read()));
            explanation.pair = Some((ops[i].proc, ci.to_string(), cj.to_string()));
            return explanation;
        }
    }

    // Over-determined violation: mask a whole reorder class at a time.
    for class in [
        TheoremClass::Mrr,
        TheoremClass::Mrw,
        TheoremClass::Mwr,
        TheoremClass::Mww,
    ] {
        let masked = MaskedModel {
            inner: model,
            mask: move |th: &History, a: usize, b: usize| {
                if !is_nt_cmd(th, a) || !is_nt_cmd(th, b) {
                    return false;
                }
                let (ca, cb) = (
                    th.ops()[a].op.command().unwrap(),
                    th.ops()[b].op.command().unwrap(),
                );
                ca.var() != cb.var() && TheoremClass::of_pair(ca.is_read(), cb.is_read()) == class
            },
        };
        if passes(h, &masked, kind) {
            explanation.class = Some(class);
            return explanation;
        }
    }
    explanation
}

/// Explain why `trace` violates `kind` parametrized by `model`, using
/// its canonical corresponding history as the representative (any
/// corresponding history of a violating trace fails; the canonical one
/// is reproducible). Errors if the trace has no well-formed canonical
/// history.
pub fn explain_trace(
    trace: &Trace,
    model: &dyn MemoryModel,
    kind: CheckKind,
) -> Result<Explanation, String> {
    let h = trace
        .canonical_history()
        .map_err(|e| format!("trace has no canonical history: {e:?}"))?;
    Ok(explain_history(&h, model, kind))
}

/// Render each process's view `v(p)`: the chain of the model's required
/// orderings over that process's non-transactional operations.
fn views_of(th: &History, model: &dyn MemoryModel) -> Vec<(ProcId, String)> {
    let ops = th.ops();
    let mut out: Vec<(ProcId, String)> = Vec::new();
    for p in th.procs() {
        let idxs: Vec<usize> = (0..th.len())
            .filter(|&i| ops[i].proc == p && is_nt_cmd(th, i))
            .collect();
        if idxs.is_empty() {
            continue;
        }
        let mut parts: Vec<String> = Vec::new();
        for w in 0..idxs.len() {
            let i = idxs[w];
            let sep = if w + 1 < idxs.len() {
                if model.required(th, i, idxs[w + 1]) {
                    " ≺ "
                } else {
                    " ∥ "
                }
            } else {
                ""
            };
            parts.push(format!("{}{sep}", ops[i].op));
        }
        out.push((p, parts.concat()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorems::{thm1_case1, thm1_case2, thm1_case3, thm1_case4, Experiment};
    use crate::verify::SweepSeeds;
    use jungle_core::model::{Pso, Sc, Tso};

    /// Explain the counterexample of `exp`'s own sweep.
    fn classify(exp: &Experiment) -> Explanation {
        let cx = exp
            .run(SweepSeeds::new(0, 2_000), 8_000)
            .violation
            .expect("theorem 1 construction must produce a violating trace");
        explain_trace(&cx.trace, exp.entry.model, exp.kind).unwrap()
    }

    #[test]
    fn thm1_case1_classifies_as_mrr() {
        let e = classify(&thm1_case1(&Sc));
        assert_eq!(e.class, Some(TheoremClass::Mrr), "{}", e.render());
        assert!(e.pair.is_some(), "{}", e.render());
    }

    #[test]
    fn thm1_case2_classifies_as_mwr() {
        let e = classify(&thm1_case2(&Sc));
        assert_eq!(e.class, Some(TheoremClass::Mwr), "{}", e.render());
    }

    #[test]
    fn thm1_case3_classifies_as_mrw() {
        let e = classify(&thm1_case3(&Pso));
        assert_eq!(e.class, Some(TheoremClass::Mrw), "{}", e.render());
    }

    #[test]
    fn thm1_case4_classifies_as_mww() {
        let e = classify(&thm1_case4(&Tso));
        assert_eq!(e.class, Some(TheoremClass::Mww), "{}", e.render());
    }

    #[test]
    fn render_names_the_model_and_draws_the_timeline() {
        let e = classify(&thm1_case1(&Sc));
        let text = e.render();
        assert!(text.contains("parametrized by SC"), "{text}");
        assert!(text.contains("p0 |"), "{text}");
        assert!(text.contains("p1 |"), "{text}");
        assert!(text.contains("view v(p1)"), "{text}");
        assert!(text.contains("Mrr"), "{text}");
    }

    #[test]
    fn passing_history_degenerates() {
        use jungle_core::builder::HistoryBuilder;
        use jungle_core::ids::{ProcId, X};
        let mut b = HistoryBuilder::new();
        b.start(ProcId(1));
        b.write(ProcId(1), X, 1);
        b.commit(ProcId(1));
        b.read(ProcId(2), X, 1);
        let h = b.build().unwrap();
        let e = explain_history(&h, &Sc, CheckKind::Opacity);
        assert_eq!(e.class, None);
        assert_eq!(e.pair, None);
        assert!(e.diagnosis.is_empty());
    }
}
