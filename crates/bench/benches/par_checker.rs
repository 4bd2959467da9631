//! Experiment E5 (parallel half): the serial checker against the
//! pooled `Check` at 1/2/4/8 worker threads, over histories
//! whose serialization-order enumeration is wide enough to split.
//!
//! The stress histories come from `jungle_litmus::stress`:
//! `wide_unsat_history(p)` forces the checker to exhaust all `p!`
//! transaction orders (the most parallelizable shape), while
//! `wide_history(p, 0)` buries the witness behind the orders the
//! enumeration visits first. An untimed traced pass at the end attaches
//! the search counters (workers, stolen prefixes, memo hits) to the
//! JSON report so `report --json` and CI can track them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jungle_core::check::{Check, CheckKind};
use jungle_core::model::Sc;
use jungle_core::opacity::{check_opacity, check_opacity_par};
use jungle_core::par::ParallelConfig;
use jungle_core::sgla::check_sgla;
use jungle_litmus::stress::{wide_history, wide_unsat_history};
use jungle_obs::ledger::{self, LedgerEntry};
use jungle_obs::{MetricsSnapshot, ToJson};
use std::hint::black_box;
use std::time::Duration;

/// Worker counts swept by every group. `0` is not included: the point
/// is comparing fixed counts against the serial baseline, not the OS
/// auto-detection.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A config pinned to `threads` workers with the size threshold
/// disabled, so even the smaller stress histories take the parallel
/// path and the comparison is clean.
fn pinned(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_units: 0,
    }
}

/// The `kind` check on the [`pinned`] pool of `threads` workers.
fn pooled(kind: CheckKind, threads: usize) -> Check {
    Check {
        parallel: Some(pinned(threads)),
        ..Check::new(kind)
    }
}

fn bench_opacity(c: &mut Criterion) {
    let mut g = c.benchmark_group("E5_par_opacity");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    for p in [4usize, 5, 6] {
        let h = wide_unsat_history(p);
        g.bench_with_input(BenchmarkId::new("serial", p), &h, |b, h| {
            b.iter(|| black_box(check_opacity(h, &Sc).is_opaque()))
        });
        for t in THREADS {
            let cfg = pinned(t);
            g.bench_with_input(BenchmarkId::new(format!("par_t{t}"), p), &h, |b, h| {
                b.iter(|| black_box(check_opacity_par(h, &Sc, &cfg).is_opaque()))
            });
        }
    }
    g.finish();
}

fn bench_opacity_witness(c: &mut Criterion) {
    // The satisfiable variant: the witness needs transaction 0 last, so
    // the serial scan burns through (p-1)! failing orders first while
    // the pool reaches the successful prefix sooner (the deterministic
    // lowest-index rule still returns the identical witness).
    let mut g = c.benchmark_group("E5_par_opacity_witness");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let p = 6usize;
    let h = wide_history(p, 0);
    g.bench_with_input(BenchmarkId::new("serial", p), &h, |b, h| {
        b.iter(|| black_box(check_opacity(h, &Sc).is_opaque()))
    });
    for t in THREADS {
        let cfg = pinned(t);
        g.bench_with_input(BenchmarkId::new(format!("par_t{t}"), p), &h, |b, h| {
            b.iter(|| black_box(check_opacity_par(h, &Sc, &cfg).is_opaque()))
        });
    }
    g.finish();
}

fn bench_sgla(c: &mut Criterion) {
    let mut g = c.benchmark_group("E5_par_sgla");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let p = 5usize;
    let h = wide_unsat_history(p);
    g.bench_with_input(BenchmarkId::new("serial", p), &h, |b, h| {
        b.iter(|| black_box(check_sgla(h, &Sc).is_sgla()))
    });
    for t in THREADS {
        let pooled = pooled(CheckKind::Sgla, t);
        g.bench_with_input(BenchmarkId::new(format!("par_t{t}"), p), &h, |b, h| {
            b.iter(|| black_box(pooled.run(h, &Sc).0.is_sgla()))
        });
    }
    g.finish();
}

fn report_counters(_c: &mut Criterion) {
    // Untimed traced pass: cross-check verdicts and surface the
    // parallel counters in the JSON report.
    let t_start = std::time::Instant::now();
    let mut snap = MetricsSnapshot::new();
    for p in [4usize, 6] {
        let h = wide_unsat_history(p);
        let serial = check_opacity(&h, &Sc);
        for t in THREADS {
            let (v, stats) = pooled(CheckKind::Opacity, t).run(&h, &Sc);
            assert_eq!(
                v.is_opaque(),
                serial.is_opaque(),
                "parallel verdict diverged at p={p}, threads={t}"
            );
            snap.record_checker(&format!("E5_wide_unsat_p{p}_t{t}"), &stats.search);
        }
    }
    criterion::report_metrics("E5_par_checker", snap.to_json().to_string());

    // Append the traced pass to the run ledger so bench invocations
    // leave the same audit trail as `report` (the headline sweep
    // counters stay zero: this source only carries checker metrics —
    // `report --compare` filters on source and skips these entries).
    let entry = LedgerEntry {
        ts_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        git_rev: git_rev(),
        source: "bench/par_checker".into(),
        wall_ms: t_start.elapsed().as_millis() as u64,
        schedules: 0,
        dedup_hits: 0,
        memo_hits: 0,
        memo_lookups: 0,
        zoo_models: 0,
        zoo_algos: 0,
        replay_logs: 0,
        shrink_rounds: 0,
        monitor_ops: 0,
        monitor_windows: 0,
        monitor_escalated: 0,
        dpor_executed: 0,
        dpor_classes: 0,
        frontier_steals: 0,
        p99_window_ns: 0,
        blocked_depth_mode: 0,
        worker_busy_frac: 0.0,
        sat_solved: 0,
        sat_conflicts: 0,
        sat_wall_ns_p99: 0,
        metrics: snap.to_json(),
    };
    // Bench binaries run with the package as CWD; anchor the default
    // ledger at the workspace root so bench and report share one file.
    let path = std::env::var("JUNGLE_LEDGER")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(".jungle/ledger.jsonl")
        });
    if let Err(e) = ledger::append(&path, &entry) {
        eprintln!(
            "warning: could not append to ledger {}: {e}",
            path.display()
        );
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

criterion_group!(
    benches,
    bench_opacity,
    bench_opacity_witness,
    bench_sgla,
    report_counters
);
criterion_main!(benches);
