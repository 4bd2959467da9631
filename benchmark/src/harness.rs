//! Pass loop, metric arithmetic and the result document.
//!
//! Load is closed-loop from one thread: a pass runs every unit of
//! the workload once, one after the other. End-to-end metrics come
//! from untraced passes only; a traced run alternates untraced and
//! traced passes (for the tracing overhead and the layer-share
//! table) and then runs the per-layer probes.
//!
//! Across passes every time is reduced to its *fastest* reading: each
//! unit's fastest time, and for the pass the sum of those (the fastest
//! whole pass where units cannot be timed). On the shared-core
//! hosts this runs on, interference only ever adds time, in bursts of
//! +20 to +40 % that last seconds; the fastest of a dozen readings is
//! the one the burst missed, and repeats to 2–3 % where the median
//! of the same readings moves by 7–15 % (figures in README.md).
//! Across units the metrics stay order statistics (p50, p99).

use crate::span::{layer_self_ns, Tracer, NO_UNIT};
use crate::stats::{fastest, hi_value, median};
use jungle_obs::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Timed passes never go below this, whatever `--seconds` says.
pub const PASS_FLOOR: usize = 3;
/// Set-up is repeated (to report the fastest) this many times, unless
/// the repeats would take longer than [`SETUP_BUDGET_S`] together.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_BUDGET_S: f64 = 3.0;
/// Untraced/traced pass pairs of a traced run.
pub const TRACED_PAIRS: usize = 2;
/// A traced run stops adding pairs once its passes took this share
/// of `--seconds` (the probes need the rest).
pub const TRACED_PASS_SHARE: f64 = 0.4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// About 1/20 of the full corpus; known-answer checks stay on.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// `full` at full scale, about a twentieth of it (at least
    /// `floor`) at smoke scale.
    pub fn size(self, full: usize, floor: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 20).max(floor),
        }
    }
}

/// What a workload or probe needs to know about the run.
#[derive(Clone, Debug)]
pub struct Env {
    pub seed: u64,
    pub scale: Scale,
    /// Test-only: corrupt one known answer, so that the check fails.
    pub sabotage: bool,
    /// The root workspace's `report` binary.
    pub report_bin: PathBuf,
    /// Scratch directory inside the checkout (ledger and memo files of
    /// `report` go here, never to the repo's `.jungle/`).
    pub tmp: PathBuf,
}

impl Env {
    pub fn at(&self, scale: Scale) -> Env {
        Env {
            scale,
            ..self.clone()
        }
    }

    /// A smoke-scale environment with no `report` binary.
    #[cfg(test)]
    pub fn for_test(seed: u64, sabotage: bool) -> Env {
        Env {
            seed,
            scale: Scale::Smoke,
            sabotage,
            report_bin: PathBuf::new(),
            tmp: PathBuf::new(),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    pub fn count(name: impl Into<String>, value: u64) -> Self {
        Metric::new(name, value as f64, "count")
    }

    fn value_json(&self) -> Json {
        if self.unit == "count" {
            Json::U64(self.value as u64)
        } else {
            Json::F64(self.value)
        }
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in metrics {
        let mut v = Json::obj();
        v.push("value", m.value_json()).push("unit", m.unit.into());
        obj.push(&m.name, v);
    }
    obj
}

/// One workload, set up from a seed and ready to run passes.
pub trait Workload {
    /// Units one pass runs.
    fn units(&self) -> usize;

    /// False when units cannot be timed one by one from outside (the
    /// rows of one `report` process).
    fn times_units(&self) -> bool {
        true
    }

    /// Run every unit once. Writes unit `i`'s time to `unit_ns[i]`
    /// and returns how many units failed their known-answer check.
    fn pass(&mut self, tr: &mut Tracer, unit_ns: &mut [u64]) -> u64;

    /// Counts of the last pass that must repeat exactly for a seed.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Run `f`, turning a panic into `None` (a failed unit).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Time one unit: `f` returns whether the unit's output was right; a
/// panic counts as wrong. Returns 1 if the unit failed.
#[inline]
pub fn timed_unit(slot: &mut u64, f: impl FnOnce() -> bool) -> u64 {
    let t0 = Instant::now();
    let ok = guarded(f).unwrap_or(false);
    *slot = t0.elapsed().as_nanos() as u64;
    u64::from(!ok)
}

/// Set-up, repeated. Returns the last instance and every time.
pub fn setup_repeated<W>(
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut times = Vec::new();
    let t_all = Instant::now();
    loop {
        let t0 = Instant::now();
        let w = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        let spent = t_all.elapsed().as_secs_f64();
        let next_would_fit = spent + spent / times.len() as f64 <= SETUP_BUDGET_S;
        if times.len() >= SETUP_REPEATS || !next_would_fit {
            return Ok((w, times));
        }
    }
}

struct PassLog {
    wall_s: Vec<f64>,
    /// `unit_us[unit][pass]`
    unit_us: Vec<Vec<f64>>,
    failed: u64,
    attempted: u64,
}

impl PassLog {
    fn new(units: usize) -> Self {
        PassLog {
            wall_s: Vec::new(),
            unit_us: vec![Vec::new(); units],
            failed: 0,
            attempted: 0,
        }
    }
}

fn one_pass(w: &mut dyn Workload, tr: &mut Tracer, traced: bool, log: &mut PassLog) {
    let mut unit_ns = vec![0u64; w.units()];
    tr.set_on(traced);
    let span = tr.open("bench.pass", NO_UNIT);
    let t0 = Instant::now();
    let failed = w.pass(tr, &mut unit_ns);
    let wall = t0.elapsed().as_secs_f64();
    tr.close(span);
    tr.set_on(false);
    log.wall_s.push(wall);
    log.failed += failed;
    log.attempted += w.units() as u64;
    if w.times_units() {
        for (per_unit, ns) in log.unit_us.iter_mut().zip(&unit_ns) {
            per_unit.push(*ns as f64 / 1e3);
        }
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Fields of the result document beyond the metrics.
    pub detail: Json,
}

/// The untraced run: timed passes for `seconds`, end-to-end metrics.
pub fn run_untraced(
    w: &mut dyn Workload,
    setup_times: &[f64],
    seconds: f64,
    scale: Scale,
) -> Outcome {
    let mut tr = Tracer::new();
    let mut log = PassLog::new(w.units());
    let t0 = Instant::now();
    let one_only = scale == Scale::Smoke;
    loop {
        one_pass(w, &mut tr, false, &mut log);
        let n = log.wall_s.len();
        if one_only || (n >= PASS_FLOOR && t0.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let units = w.units();
    let fastest_pass = fastest(&log.wall_s);
    // Per-pass values of the two unit metrics, for `compare.py`'s
    // quartiles; the metrics themselves rest on each unit's fastest.
    let (mut pass_p50, mut pass_hi) = (Vec::new(), Vec::new());
    let (wall, p50, hi, hi_pct) = if w.times_units() {
        let per_unit: Vec<f64> = log.unit_us.iter().map(|v| fastest(v)).collect();
        let hi = hi_value(&per_unit);
        // What each pass spent outside its units (the loop around them).
        let mut outside_s = Vec::new();
        for (pass, wall) in log.wall_s.iter().enumerate() {
            let of_pass: Vec<f64> = log.unit_us.iter().map(|v| v[pass]).collect();
            outside_s.push(wall - of_pass.iter().sum::<f64>() / 1e6);
            pass_p50.push(median(&of_pass));
            pass_hi.extend(hi_value(&of_pass).map(|h| h.0));
        }
        // A pass in which every unit takes its fastest reading: a slow
        // burst of the host lasts seconds, and so does a pass, so that
        // a handful of whole passes need not hold a clean one.
        let wall = per_unit.iter().sum::<f64>() / 1e6 + fastest(&outside_s).max(0.0);
        (wall, median(&per_unit), hi.map(|h| h.0), hi.map(|h| h.1))
    } else {
        // No unit can be timed from outside: the fastest pass, the
        // mean time to a unit in it, and in the median pass.
        let typical = median(&log.wall_s);
        (
            fastest_pass,
            fastest_pass * 1e6 / units as f64,
            Some(typical * 1e6 / units as f64),
            None,
        )
    };
    let mut e2e = vec![
        Metric::new("setup_s", fastest(setup_times), "s"),
        Metric::new("wall_s", wall, "s"),
        Metric::new("units_per_s", units as f64 / wall, "1/s"),
        Metric::new("unit_p50_us", p50, "us"),
    ];
    if let Some(hi) = hi {
        e2e.push(Metric::new("unit_hi_us", hi, "us"));
    }
    let mut detail = Json::obj();
    let mut passes = Json::obj();
    passes
        .push("warmup", 1u64.into())
        .push("timed", log.wall_s.len().into())
        .push("floor", PASS_FLOOR.into())
        .push("seconds_budget", Json::F64(seconds))
        .push("setup_repeats", setup_times.len().into());
    let mut samples = Json::obj();
    samples
        .push("setup_s", f64_arr(setup_times))
        .push("wall_s", f64_arr(&log.wall_s))
        .push(
            "units_per_s",
            f64_arr(
                &log.wall_s
                    .iter()
                    .map(|s| units as f64 / s)
                    .collect::<Vec<_>>(),
            ),
        );
    if !pass_p50.is_empty() {
        samples
            .push("unit_p50_us", f64_arr(&pass_p50))
            .push("unit_hi_us", f64_arr(&pass_hi));
    }
    detail
        .push("passes", passes)
        .push("units", units.into())
        .push(
            "unit_hi_percentile",
            match hi_pct {
                Some(p) => Json::F64(p),
                None if w.times_units() => Json::Null,
                None => "median pass".into(),
            },
        )
        .push(
            "fail_frac",
            Json::F64(log.failed as f64 / log.attempted as f64),
        )
        .push("fastest_pass_s", Json::F64(fastest_pass))
        .push("samples", samples)
        .push("counts", counts_json(&w.counts()));
    Outcome {
        end_to_end: e2e,
        per_layer: Vec::new(),
        attempted: log.attempted,
        failed: log.failed,
        detail,
    }
}

/// The traced run: untraced/traced pass pairs, then `probes`.
pub fn run_traced(
    w: &mut dyn Workload,
    seconds: f64,
    scale: Scale,
    tr: &mut Tracer,
    probes: impl FnOnce(&mut Tracer) -> Result<Vec<Metric>, String>,
) -> Result<Outcome, String> {
    let mut plain = PassLog::new(w.units());
    let mut traced = PassLog::new(w.units());
    let t0 = Instant::now();
    let pairs = if scale == Scale::Smoke {
        1
    } else {
        TRACED_PAIRS
    };
    for pair in 0..pairs {
        if pair > 0 && t0.elapsed().as_secs_f64() > seconds * TRACED_PASS_SHARE {
            break;
        }
        one_pass(w, tr, false, &mut plain);
        one_pass(w, tr, true, &mut traced);
    }
    let overhead = fastest(&traced.wall_s) / fastest(&plain.wall_s) - 1.0;
    let shares = layer_self_ns(tr.spans(), "bench.pass");
    let total: u64 = shares.values().sum();

    tr.set_on(true);
    let root = tr.open("bench.probe", NO_UNIT);
    let probed = probes(tr);
    tr.close(root);
    tr.set_on(false);
    let mut per_layer = probed?;
    per_layer.push(Metric::new("bench.trace_overhead_frac", overhead, "frac"));

    let mut table = Vec::new();
    for (layer, ns) in &shares {
        let mut row = Json::obj();
        row.push("layer", (*layer).into())
            .push("self_s", Json::F64(*ns as f64 / 1e9))
            .push("share", Json::F64(*ns as f64 / total.max(1) as f64));
        table.push(row);
    }
    let mut passes = Json::obj();
    passes
        .push("untraced", plain.wall_s.len().into())
        .push("traced", traced.wall_s.len().into());
    let mut samples = Json::obj();
    samples
        .push("untraced_wall_s", f64_arr(&plain.wall_s))
        .push("traced_wall_s", f64_arr(&traced.wall_s));
    let mut detail = Json::obj();
    detail
        .push("passes", passes)
        .push("units", w.units().into())
        .push("spans", tr.spans().len().into())
        .push("layer_share", Json::Arr(table))
        .push("samples", samples)
        .push("counts", counts_json(&w.counts()));
    Ok(Outcome {
        end_to_end: Vec::new(),
        per_layer,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        detail,
    })
}

fn f64_arr(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|x| Json::F64(*x)).collect())
}

fn counts_json(counts: &[(&'static str, u64)]) -> Json {
    let mut obj = Json::obj();
    for (k, v) in counts {
        obj.push(k, (*v).into());
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 120 units of known cost, one of which can be made to fail.
    struct Fake {
        fail_unit: Option<usize>,
        passes: usize,
    }

    impl Workload for Fake {
        fn units(&self) -> usize {
            120
        }
        fn pass(&mut self, tr: &mut Tracer, unit_ns: &mut [u64]) -> u64 {
            self.passes += 1;
            let mut failed = 0;
            for (i, slot) in unit_ns.iter_mut().enumerate() {
                let s = tr.open("fake.unit", i as u32);
                failed += timed_unit(slot, || Some(i) != self.fail_unit);
                *slot = 1_000 * (i as u64 + 1); // deterministic "time"
                tr.close(s);
            }
            failed
        }
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.end_to_end.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn end_to_end_arithmetic() {
        let mut w = Fake {
            fail_unit: None,
            passes: 0,
        };
        let o = run_untraced(&mut w, &[0.3, 0.1, 0.2], 0.0, Scale::Full);
        assert_eq!(w.passes, PASS_FLOOR);
        assert_eq!((o.attempted, o.failed), (360, 0));
        assert_eq!(value(&o, "setup_s"), 0.1);
        // Unit i takes i+1 µs: the median of 1..=120 is 60.5, p90
        // (twelve units beyond it) is unit 108, and the band of six
        // that ends there is 103..=108.
        assert_eq!(value(&o, "unit_p50_us"), 60.5);
        assert_eq!(value(&o, "unit_hi_us"), 105.5);
        let wall = value(&o, "wall_s");
        assert!((value(&o, "units_per_s") - 120.0 / wall).abs() < 1e-6);
    }

    #[test]
    fn a_wrong_unit_and_a_panicking_unit_both_count_as_failed() {
        let mut w = Fake {
            fail_unit: Some(4),
            passes: 0,
        };
        let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
        assert_eq!((o.attempted, o.failed), (120, 1));
        let mut slot = 0;
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failed = timed_unit(&mut slot, || panic!("unit blew up"));
        std::panic::set_hook(prev);
        assert_eq!(failed, 1);
    }

    #[test]
    fn traced_run_reports_overhead_and_shares() {
        let mut w = Fake {
            fail_unit: None,
            passes: 0,
        };
        let mut tr = Tracer::new();
        let o = run_traced(&mut w, 1.0, Scale::Full, &mut tr, |tr| {
            let s = tr.open("other.probe", NO_UNIT);
            tr.close(s);
            Ok(vec![Metric::count("other.n", 3)])
        })
        .unwrap();
        assert!(o
            .per_layer
            .iter()
            .any(|m| m.name == "bench.trace_overhead_frac"));
        assert!(o.per_layer.iter().any(|m| m.name == "other.n"));
        let Some(Json::Arr(rows)) = o.detail.get("layer_share") else {
            panic!("no layer_share");
        };
        let layers: Vec<&str> = rows
            .iter()
            .map(|r| r.get("layer").and_then(Json::as_str).unwrap())
            .collect();
        // The probe's spans are not part of the pass shares.
        assert_eq!(layers, vec!["bench", "fake"]);
        let sum: f64 = rows
            .iter()
            .map(|r| r.get("share").and_then(Json::as_f64).unwrap())
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn setup_repeats_until_count_or_budget() {
        let mut calls = 0;
        let (_, times) = setup_repeated(|| {
            calls += 1;
            Ok::<_, String>(())
        })
        .unwrap();
        assert_eq!((calls, times.len()), (SETUP_REPEATS, SETUP_REPEATS));
        let err = setup_repeated(|| Err::<(), _>("no".to_string()));
        assert!(err.is_err());
    }
}
