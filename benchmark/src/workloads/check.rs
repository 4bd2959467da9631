//! `check_witness` and `check_refute`: the `core` checkers alone, on
//! histories whose verdict under SC is known by construction
//! (see [`crate::gen::history`]).
//!
//! Every history is checked under one registry model, taken in turn,
//! so that a pass of a given length sees eight times more independent
//! histories than it would if each were checked under all eight
//! models; the seed-to-seed spread of a search whose cost has a heavy
//! tail shrinks accordingly.

use crate::gen::history::{build, Answer, Built, Caps, Rung};
use crate::harness::{timed_unit, Env, Metric, Scale, Workload};
use crate::span::Tracer;
use crate::stats::{hi_or_max, median};
use jungle_core::encode::{check_opacity_sat, check_opacity_sat_traced, check_sgla_sat};
use jungle_core::fingerprint::Fnv1a;
use jungle_core::opacity::{check_opacity, check_opacity_par, check_opacity_traced};
use jungle_core::par::ParallelConfig;
use jungle_core::registry::{registry, ModelEntry};
use jungle_core::sgla::check_sgla;
use jungle_obs::{SatStats, SearchStats};
use std::hint::black_box;
use std::time::Instant;

/// Opacity rung and SGLA rung. Do not widen: on `4x3` SGLA has a 2 s
/// tail and on `4x4` a 12 s one; uncapped `4x3` opacity has single
/// histories of over a second.
pub const OPACITY_RUNG: Rung = Rung::new(4, 3);
pub const SGLA_RUNG: Rung = Rung::new(3, 3);
/// Within the rungs, what still blows up is capped too: SGLA under
/// Junk-SC with two non-transactional units takes up to 2 s a history.
pub const OPACITY_CAPS: Caps = Caps {
    txn_orders: 500,
    nt_units: 2,
};
pub const SGLA_CAPS: Caps = Caps {
    txn_orders: 500,
    nt_units: 1,
};

/// Histories per pass at full scale: (opacity, SGLA).
const WITNESS_SIZE: (usize, usize) = (4000, 4000);
const REFUTE_SIZE: (usize, usize) = (1500, 1500);
/// Every n-th non-SC case is also decided by the SAT backend at
/// set-up; a disagreement fails that unit in every pass.
const SAT_SAMPLE: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Opacity,
    Sgla,
}

pub struct Case {
    pub built: Built,
    pub model: &'static ModelEntry,
    pub kind: Kind,
    /// The verdict a pass must reproduce.
    pub expected: bool,
    /// Known by construction (SC) rather than taken from the warm-up.
    pub by_construction: bool,
    /// DFS and SAT disagreed at set-up.
    pub disagree: bool,
}

impl Case {
    fn dfs(&self) -> bool {
        let (h, m) = (&self.built.history, self.model.model);
        match self.kind {
            Kind::Opacity => check_opacity(h, m).is_opaque(),
            Kind::Sgla => check_sgla(h, m).is_sgla(),
        }
    }

    fn sat(&self) -> bool {
        let (h, m) = (&self.built.history, self.model.model);
        match self.kind {
            Kind::Opacity => check_opacity_sat(h, m).is_opaque(),
            Kind::Sgla => check_sgla_sat(h, m).is_sgla(),
        }
    }
}

fn sizes(answer: Answer, scale: Scale) -> (usize, usize) {
    let (op, sg) = match answer {
        Answer::Opaque => WITNESS_SIZE,
        Answer::NotOpaque => REFUTE_SIZE,
    };
    (scale.size(op, 16), scale.size(sg, 16))
}

/// The corpus of `seed`: opacity cases first, then SGLA cases; case
/// `i` of either part is checked under registry model `i mod 8`.
/// By Theorem 6 a witness history is also SGLA under SC; a refuted
/// one has no SGLA answer by construction (SGLA is weaker).
pub fn corpus(answer: Answer, seed: u64, scale: Scale) -> Vec<Case> {
    let (n_op, n_sg) = sizes(answer, scale);
    let models = registry();
    let mut cases = Vec::with_capacity(n_op + n_sg);
    for (kind, rung, caps, n, tag) in [
        (Kind::Opacity, OPACITY_RUNG, OPACITY_CAPS, n_op, 0u64),
        (Kind::Sgla, SGLA_RUNG, SGLA_CAPS, n_sg, 1u64 << 40),
    ] {
        for i in 0..n {
            let built = build(rung, answer, caps, seed, tag + i as u64);
            let model = &models[i % models.len()];
            let known = model.key == "SC" && (kind == Kind::Opacity || answer == Answer::Opaque);
            cases.push(Case {
                built,
                model,
                kind,
                expected: answer == Answer::Opaque,
                by_construction: known,
                disagree: false,
            });
        }
    }
    cases
}

/// Fold of `History::cache_key` over the corpus: equal on two builds
/// iff the generator produced the same histories.
pub fn fingerprint(cases: &[Case]) -> u64 {
    let mut f = Fnv1a::new();
    for c in cases {
        f.word(c.built.history.cache_key());
    }
    f.finish()
}

pub struct Check {
    cases: Vec<Case>,
    fingerprint: u64,
}

impl Check {
    /// Generate the corpus, run the warm-up pass (which fixes the
    /// expected verdict of every case not known by construction) and
    /// cross-check a sample against the SAT backend.
    pub fn setup(env: &Env, answer: Answer) -> Check {
        let mut cases = corpus(answer, env.seed, env.scale);
        for (i, c) in cases.iter_mut().enumerate() {
            let v = c.dfs();
            if !c.by_construction {
                c.expected = v;
                if i % SAT_SAMPLE == 0 {
                    c.disagree = c.sat() != v;
                }
            }
        }
        if env.sabotage {
            cases[0].expected = !cases[0].expected;
        }
        let fingerprint = fingerprint(&cases);
        Check { cases, fingerprint }
    }
}

impl Workload for Check {
    fn units(&self) -> usize {
        self.cases.len()
    }

    fn pass(&mut self, tr: &mut Tracer, unit_ns: &mut [u64]) -> u64 {
        let mut failed = 0;
        for (i, (c, slot)) in self.cases.iter().zip(unit_ns).enumerate() {
            let name = match c.kind {
                Kind::Opacity => "core.check_opacity",
                Kind::Sgla => "core.check_sgla",
            };
            let span = tr.open(name, i as u32);
            failed += timed_unit(slot, || c.dfs() == c.expected && !c.disagree);
            tr.close(span);
        }
        failed
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        let n = |f: &dyn Fn(&Case) -> bool| self.cases.iter().filter(|c| f(c)).count() as u64;
        vec![
            ("corpus_fingerprint", self.fingerprint),
            ("opacity_cases", n(&|c| c.kind == Kind::Opacity)),
            ("sgla_cases", n(&|c| c.kind == Kind::Sgla)),
            ("known_by_construction", n(&|c| c.by_construction)),
            (
                "transactions",
                self.cases
                    .iter()
                    .flat_map(|c| &c.built.units)
                    .filter(|u| u.txn)
                    .count() as u64,
            ),
            ("expected_positive", n(&|c| c.expected)),
            ("backend_disagreements", n(&|c| c.disagree)),
        ]
    }
}

fn metric_key(model: &str) -> String {
    model.to_lowercase().replace('+', "-")
}

fn p50_hi(prefix: &str, us: &[f64], out: &mut Vec<Metric>) {
    out.push(Metric::new(format!("{prefix}_us_p50"), median(us), "us"));
    out.push(Metric::new(format!("{prefix}_us_hi"), hi_or_max(us), "us"));
}

/// The `core.*` (search) and `sat.*` metrics, on the corpora of
/// `answers`.
pub fn probe(env: &Env, answers: &[Answer], tr: &mut Tracer) -> Vec<Metric> {
    let cases: Vec<Case> = answers
        .iter()
        .flat_map(|a| corpus(*a, env.seed, env.scale))
        .collect();
    let opacity: Vec<(u32, &Case)> = cases
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == Kind::Opacity)
        .map(|(i, c)| (i as u32, c))
        .collect();

    let mut out = Vec::new();
    let mut dfs = SearchStats::default();
    let mut dfs_us = Vec::with_capacity(opacity.len());
    let mut verdicts = Vec::with_capacity(opacity.len());
    let mut per_model_ms = vec![0.0f64; registry().len()];
    for (i, c) in &opacity {
        let span = tr.open("core.check_opacity_traced", *i);
        let t0 = Instant::now();
        let (v, st) = check_opacity_traced(&c.built.history, c.model.model);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tr.close_with(
            span,
            &[
                ("nodes", st.nodes),
                ("txn_orders", st.txn_orders),
                ("backtracks", st.backtracks),
                ("prune_hits", st.prune_hits),
            ],
        );
        dfs.absorb(&st);
        dfs_us.push(us);
        verdicts.push(v.is_opaque());
        let m = registry()
            .iter()
            .position(|e| e.key == c.model.key)
            .expect("registry model");
        per_model_ms[m] += us / 1e3;
    }
    let dfs_sum_us: f64 = dfs_us.iter().sum();
    p50_hi("core.dfs_opacity", &dfs_us, &mut out);

    let mut sgla_us = Vec::new();
    for (i, c) in cases
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == Kind::Sgla)
    {
        let span = tr.open("core.check_sgla", i as u32);
        let t0 = Instant::now();
        black_box(check_sgla(&c.built.history, c.model.model).is_sgla());
        sgla_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.close(span);
    }
    p50_hi("core.dfs_sgla", &sgla_us, &mut out);

    for (e, ms) in registry().iter().zip(&per_model_ms) {
        out.push(Metric::new(
            format!("core.dfs_opacity_ms.{}", metric_key(e.key)),
            *ms,
            "ms",
        ));
    }
    out.push(Metric::count("core.nodes", dfs.nodes));
    out.push(Metric::count("core.txn_orders", dfs.txn_orders));
    out.push(Metric::count("core.backtracks", dfs.backtracks));
    out.push(Metric::count("core.prune_hits", dfs.prune_hits));
    out.push(Metric::new(
        "core.dfs_ns_per_node",
        dfs_sum_us * 1e3 / dfs.nodes.max(1) as f64,
        "ns",
    ));

    // Two workers on every history, however small: what the pool costs.
    let par_cfg = ParallelConfig {
        threads: 2,
        min_units: 0,
    };
    let mut par_us = Vec::with_capacity(opacity.len());
    for (i, c) in &opacity {
        let span = tr.open("core.check_opacity_par", *i);
        let t0 = Instant::now();
        black_box(check_opacity_par(&c.built.history, c.model.model, &par_cfg).is_opaque());
        par_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.close(span);
    }
    out.push(Metric::new(
        "core.par2_opacity_us_p50",
        median(&par_us),
        "us",
    ));
    out.push(Metric::new(
        "core.par2_vs_dfs_ratio",
        par_us.iter().sum::<f64>() / dfs_sum_us,
        "ratio",
    ));

    let mut sat = SatStats::default();
    let mut sat_us = Vec::with_capacity(opacity.len());
    let mut positives = 0u64;
    for ((i, c), dfs_verdict) in opacity.iter().zip(&verdicts) {
        let span = tr.open("sat.check_opacity_sat_traced", *i);
        let t0 = Instant::now();
        let (v, st) = check_opacity_sat_traced(&c.built.history, c.model.model);
        sat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.close_with(
            span,
            &[
                ("decisions", st.decisions),
                ("conflicts", st.conflicts),
                ("cegar_rounds", st.cegar_rounds),
            ],
        );
        positives += u64::from(v.is_opaque());
        debug_assert_eq!(v.is_opaque(), *dfs_verdict);
        sat.absorb(&st);
    }
    let sat_sum_us: f64 = sat_us.iter().sum();
    p50_hi("sat.opacity", &sat_us, &mut out);
    out.push(Metric::new(
        "sat.vs_dfs_ratio",
        sat_sum_us / dfs_sum_us,
        "ratio",
    ));
    out.push(Metric::new("sat.sum_ms", sat_sum_us / 1e3, "ms"));
    out.push(Metric::new("core.dfs_sum_ms", dfs_sum_us / 1e3, "ms"));
    out.push(Metric::count("sat.solved", sat.solved));
    out.push(Metric::count("sat.decisions", sat.decisions));
    out.push(Metric::count("sat.conflicts", sat.conflicts));
    out.push(Metric::count("sat.propagations", sat.propagations));
    out.push(Metric::count("sat.learned", sat.learned));
    out.push(Metric::count("sat.cegar_rounds", sat.cegar_rounds));
    out.push(Metric::new(
        "sat.certified_frac",
        if positives == 0 {
            1.0
        } else {
            sat.certified as f64 / positives as f64
        },
        "frac",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_untraced, Scale};

    fn env(sabotage: bool) -> Env {
        Env::for_test(1, sabotage)
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_other_corpus() {
        for a in [Answer::Opaque, Answer::NotOpaque] {
            let one = fingerprint(&corpus(a, 7, Scale::Smoke));
            assert_eq!(one, fingerprint(&corpus(a, 7, Scale::Smoke)));
            assert_ne!(one, fingerprint(&corpus(a, 8, Scale::Smoke)));
        }
        // Pinned: a generator change that moves the default corpus is
        // a change of the benchmark and must show up here.
        assert_eq!(
            fingerprint(&corpus(Answer::Opaque, 1, Scale::Smoke)),
            PINNED_WITNESS_SMOKE_SEED1
        );
    }
    const PINNED_WITNESS_SMOKE_SEED1: u64 = 10_595_907_541_497_108_323;

    #[test]
    fn smoke_passes_clean_and_sabotage_is_caught() {
        for a in [Answer::Opaque, Answer::NotOpaque] {
            let mut w = Check::setup(&env(false), a);
            let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
            assert_eq!(o.failed, 0, "{a:?}");
            let mut w = Check::setup(&env(true), a);
            let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
            assert_eq!(
                o.failed, 1,
                "{a:?}: a wrong known answer must fail its unit"
            );
        }
    }

    #[test]
    fn sc_cases_are_known_by_construction_and_models_rotate() {
        let cases = corpus(Answer::NotOpaque, 3, Scale::Smoke);
        assert!(cases.iter().any(|c| c.by_construction));
        for c in &cases {
            assert_eq!(
                c.by_construction,
                c.model.key == "SC" && c.kind == Kind::Opacity
            );
        }
        let keys: std::collections::BTreeSet<_> = cases.iter().map(|c| c.model.key).collect();
        assert_eq!(keys.len(), registry().len());
    }
}
