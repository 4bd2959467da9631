//! The jungle benchmark: six workloads, end-to-end metrics from
//! untraced passes, per-layer metrics and a span trace from a traced
//! run. `run.sh` builds and drives this binary; see `README.md`.

mod gen;
mod harness;
mod rng;
mod span;
mod stats;
mod workloads;

use gen::history::Answer;
use harness::{
    metrics_json, run_traced, run_untraced, setup_repeated, Env, Metric, Outcome, Scale, Workload,
};
use jungle_obs::json::Json;
use span::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use workloads::report::RunLog;
use workloads::{check, monitor, report, stm, sweep, WORKLOADS};

const SCHEMA: &str = "jungle-benchmark/1";
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sabotage: bool,
    report_bin: PathBuf,
    out: PathBuf,
    rustc: String,
    git_rev: String,
    build_s: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: jungle-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--report-bin PATH] [--out DIR] | --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sabotage: false,
        report_bin: report::default_report_bin(),
        out: PathBuf::from("benchmark/out"),
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
        build_s: 0.0,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag}: not a number: {v}");
                usage()
            })
        }
        match flag.as_str() {
            "--list" => {
                for (name, _) in WORKLOADS {
                    println!("{name}");
                }
                std::process::exit(0);
            }
            "--workload" => a.workload = value(&mut it),
            "--seed" => a.seed = num(&flag, value(&mut it)),
            "--seconds" => a.seconds = num(&flag, value(&mut it)),
            "--trace" => {
                // `--trace` alone or `--trace 0|1` (the driver's form).
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--sabotage" => a.sabotage = true,
            "--report-bin" => a.report_bin = PathBuf::from(value(&mut it)),
            "--out" => a.out = PathBuf::from(value(&mut it)),
            "--rustc" => a.rustc = value(&mut it),
            "--git-rev" => a.git_rev = value(&mut it),
            "--build-s" => a.build_s = num(&flag, value(&mut it)),
            _ => {
                eprintln!("unknown argument {flag}");
                usage();
            }
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        eprintln!("unknown workload '{}'", a.workload);
        usage();
    }
    a
}

fn setup(name: &str, env: &Env, log: &RunLog) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "report_cold" => Box::new(report::ReportCold::setup(env, log.clone())?),
        "sweep_exhaustive" => Box::new(sweep::Sweep::setup(env)),
        "check_witness" => Box::new(check::Check::setup(env, Answer::Opaque)),
        "check_refute" => Box::new(check::Check::setup(env, Answer::NotOpaque)),
        "monitor_stream" => Box::new(monitor::MonitorStream::setup(env)),
        "stm_mixed" => Box::new(stm::StmMixed::setup(env)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

type Probe<'a> = &'a dyn Fn(&Env, &mut Tracer) -> Result<Vec<Metric>, String>;

/// Every per-layer metric: the layers `workload` owns at the run's
/// scale and under the tracer, the others at smoke scale with the
/// tracer off (so that they stay out of the trace and cost little).
fn probes(workload: &str, env: &Env, log: &RunLog, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut group = |owners: &[&str], tr: &mut Tracer, f: Probe| -> Result<(), String> {
        let own = owners.contains(&workload);
        let env = if own {
            env.clone()
        } else {
            env.at(Scale::Smoke)
        };
        tr.set_on(own);
        let got = f(&env, tr);
        tr.set_on(true);
        out.extend(got?);
        Ok(())
    };
    group(&["report_cold"], tr, &|e, tr| report::probe(e, log, tr))?;
    group(&["sweep_exhaustive"], tr, &|e, tr| sweep::probe(e, tr))?;
    let answers: &[Answer] = match workload {
        "check_witness" => &[Answer::Opaque],
        "check_refute" => &[Answer::NotOpaque],
        _ => &[Answer::Opaque, Answer::NotOpaque],
    };
    group(&["check_witness", "check_refute"], tr, &|e, tr| {
        Ok(check::probe(e, answers, tr))
    })?;
    group(&["monitor_stream"], tr, &|e, tr| monitor::probe(e, tr))?;
    group(&["stm_mixed"], tr, &|e, tr| stm::probe(e, tr))?;
    Ok(out)
}

/// Peak resident set of this process, from the kernel's own account.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn measure(a: &Args, env: &Env) -> Result<Outcome, String> {
    let log = RunLog::default();
    if !a.trace {
        let (mut w, setup_times) = setup_repeated(|| setup(&a.workload, env, &log))?;
        let mut o = run_untraced(w.as_mut(), &setup_times, a.seconds, env.scale);
        o.detail.push("peak_rss_mb", Json::F64(peak_rss_mb()));
        return Ok(o);
    }
    let t_setup = Instant::now();
    let mut w = setup(&a.workload, env, &log)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let mut tr = Tracer::new();
    let mut o = run_traced(w.as_mut(), a.seconds, env.scale, &mut tr, |tr| {
        probes(&a.workload, env, &log, tr)
    })?;
    o.per_layer
        .push(Metric::new("bench.build_s", a.build_s, "s"));
    o.per_layer
        .push(Metric::new("bench.peak_rss_mb", peak_rss_mb(), "MB"));
    o.detail.push("setup_s", Json::F64(setup_s));
    let path = a.out.join(format!("{}.trace.json", a.workload));
    std::fs::write(&path, tr.to_chrome_json().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(o)
}

fn run(a: &Args) -> Result<(Outcome, Json), String> {
    let scale = if a.smoke { Scale::Smoke } else { Scale::Full };
    let tmp = a.out.join(format!("tmp-{}", std::process::id()));
    let env = Env {
        seed: a.seed,
        scale,
        sabotage: a.sabotage,
        report_bin: a.report_bin.clone(),
        tmp: tmp.clone(),
    };
    let result = measure(a, &env);
    let _ = std::fs::remove_dir_all(&tmp);
    let o = result?;

    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == a.workload)
        .map_or("", |w| w.1);
    let mut host = Json::obj();
    host.push(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .into(),
    )
    .push("rustc", a.rustc.as_str().into())
    .push("git_rev", a.git_rev.as_str().into())
    .push("os", std::env::consts::OS.into())
    .push("arch", std::env::consts::ARCH.into());
    let mut doc = Json::obj();
    doc.push("schema", SCHEMA.into())
        .push("workload", a.workload.as_str().into())
        .push("why", why.into())
        .push("seed", a.seed.into())
        .push("scale", scale.name().into())
        .push("traced", a.trace.into())
        .push("load", "closed loop, one client thread".into())
        .push("host", host)
        .push("build_s", Json::F64(a.build_s))
        .push("correct", (o.failed == 0).into())
        .push("attempted", o.attempted.into())
        .push("failed", o.failed.into())
        .push("end_to_end", metrics_json(&o.end_to_end))
        .push("per_layer", metrics_json(&o.per_layer));
    if let Json::Obj(fields) = &o.detail {
        for (k, v) in fields {
            doc.push(k, v.clone());
        }
    }
    Ok((o, doc))
}

fn main() {
    let a = parse_args();
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("{}: {e}", a.out.display());
        std::process::exit(1);
    }
    let (o, doc) = match run(&a) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("jungle-benchmark: {}: {e}", a.workload);
            std::process::exit(1);
        }
    };
    let suffix = if a.trace { ".traced" } else { "" };
    let path = a.out.join(format!("{}{suffix}.json", a.workload));
    if let Err(e) = std::fs::write(&path, doc.to_string()) {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    }

    let metrics = if a.trace { &o.per_layer } else { &o.end_to_end };
    println!(
        "# {} seed {} ({})",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "untraced" }
    );
    for m in metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(Json::Arr(rows)) = doc.get("layer_share") {
        println!("# layer share of the traced passes (self time)");
        for r in rows {
            println!(
                "{:<40} {:>16.6} s {:>7.2} %",
                r.get("layer").and_then(Json::as_str).unwrap_or("?"),
                r.get("self_s").and_then(Json::as_f64).unwrap_or(0.0),
                100.0 * r.get("share").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    println!(
        "{:<40} {:>16} of {} units ({})",
        "failed",
        o.failed,
        o.attempted,
        path.display()
    );
    let mut line = Json::obj();
    line.push("correct", (o.failed == 0).into())
        .push("attempted", o.attempted.into())
        .push("failed", o.failed.into())
        .push("metrics", metrics_json(metrics));
    println!("{line}");
}
