//! `monitor_stream`: the streaming monitor on a pre-generated event
//! stream (see [`crate::gen::stream`]), one thread, fed window by
//! window so that each 64-attempt chunk is one timed unit.
//!
//! Known answer per window: a clear window neither escalates nor
//! violates; a cluster window escalates and does not violate; a
//! poisoned window is reported. Do not use 256-attempt windows with
//! escalation: one escalated window then costs 39 ms.

use crate::gen::stream::{build, Stream, WindowKind, WINDOW_TXNS};
use crate::harness::{timed_unit, Env, Metric, Workload};
use crate::span::Tracer;
use crate::stats::{hi_or_max, median};
use jungle_core::registry::entry;
use jungle_core::triage::triage_opacity;
use jungle_monitor::{Monitor, MonitorConfig, WindowBuilder};
use jungle_obs::MonitorStats;
use std::time::Instant;

/// Ordinary windows per pass at full scale (≈ 400 k transactions,
/// 1.6 M events).
const WINDOWS: usize = 6_250;

pub struct MonitorStream {
    stream: Stream,
    sabotage: bool,
    last: MonitorStats,
    /// `(window time µs, escalated)` of the last pass.
    last_windows: Vec<(f64, bool)>,
}

impl MonitorStream {
    pub fn setup(env: &Env) -> MonitorStream {
        let stream = build(env.seed, env.scale.size(WINDOWS, 60));
        let mut w = MonitorStream {
            stream,
            sabotage: false,
            last: MonitorStats::default(),
            last_windows: Vec::new(),
        };
        let mut unit_ns = vec![0; w.units()];
        w.pass(&mut Tracer::new(), &mut unit_ns); // warm-up
        w.sabotage = env.sabotage;
        w
    }
}

impl Workload for MonitorStream {
    fn units(&self) -> usize {
        self.stream.windows.len()
    }

    fn pass(&mut self, tr: &mut Tracer, unit_ns: &mut [u64]) -> u64 {
        let mut mon = Monitor::new(MonitorConfig::new().window(WINDOW_TXNS));
        let mut failed = 0;
        self.last_windows.clear();
        for (i, slot) in unit_ns.iter_mut().enumerate() {
            let mut kind = self.stream.windows[i].1;
            if self.sabotage && i == 0 {
                kind = WindowKind::Poisoned;
            }
            let before = (
                mon.stats().windows_sealed,
                mon.stats().escalated,
                mon.stats().violations,
            );
            let span = tr.open("monitor.Monitor::ingest", i as u32);
            let mut escalated = false;
            failed += timed_unit(slot, || {
                for ev in self.stream.window_events(i) {
                    mon.ingest(*ev);
                }
                let st = mon.stats();
                escalated = st.escalated > before.1;
                let violated = st.violations - before.2;
                st.windows_sealed == before.0 + 1
                    && match kind {
                        WindowKind::Clear => !escalated && violated == 0,
                        WindowKind::Cluster => escalated && violated == 0,
                        WindowKind::Poisoned => violated == 1,
                    }
            });
            tr.close_with(span, &[("escalated", u64::from(escalated))]);
            self.last_windows.push((*slot as f64 / 1e3, escalated));
        }
        // Everything was sealed at a window boundary: nothing to flush.
        let end = mon.finish();
        if end.windows_sealed != self.units() as u64 {
            failed += 1;
        }
        self.last = end;
        failed
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("events", self.stream.events.len() as u64),
            ("windows", self.last.windows_sealed),
            ("clusters", self.stream.count(WindowKind::Cluster) as u64),
            ("poisoned", self.stream.count(WindowKind::Poisoned) as u64),
            ("escalated", self.last.escalated),
            ("violations", self.last.violations),
            ("triage_cleared", self.last.triage_cleared),
        ]
    }
}

/// `monitor.*` and the two `core.triage_*` metrics.
pub fn probe(env: &Env, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut w = MonitorStream::setup(env);
    let mut unit_ns = vec![0; w.units()];
    let t0 = Instant::now();
    w.pass(tr, &mut unit_ns);
    let wall = t0.elapsed().as_secs_f64();
    let st = &w.last;
    let by = |esc: bool| -> Vec<f64> {
        w.last_windows
            .iter()
            .filter(|x| x.1 == esc)
            .map(|x| x.0)
            .collect()
    };
    let (triage, escal) = (by(false), by(true));
    let mut out = vec![
        Metric::new(
            "monitor.events_per_s",
            w.stream.events.len() as f64 / wall,
            "1/s",
        ),
        Metric::count("monitor.windows", st.windows_sealed),
        Metric::count("monitor.escalated", st.escalated),
        Metric::new("monitor.escalate_frac", st.escalation_rate(), "frac"),
        Metric::count("monitor.memo_hits", st.memo_hits),
        Metric::count("monitor.violations", st.violations),
        Metric::new("monitor.triage_win_us_p50", median(&triage), "us"),
        Metric::new("monitor.triage_win_us_hi", hi_or_max(&triage), "us"),
        Metric::new("monitor.escalate_win_us_p50", median(&escal), "us"),
        Metric::new("monitor.escalate_win_us_hi", hi_or_max(&escal), "us"),
    ];

    // Window building alone, then triage alone on the sealed windows.
    let sc = entry("SC").expect("SC is registered").model;
    let mut builder = WindowBuilder::new(WINDOW_TXNS);
    let (mut build_us, mut triage_us, mut cleared) = (Vec::new(), Vec::new(), 0u64);
    for i in 0..w.units() {
        let span = tr.open("monitor.WindowBuilder::push_seal", i as u32);
        let t0 = Instant::now();
        let mut full = false;
        for ev in w.stream.window_events(i) {
            full = builder.push(*ev);
        }
        let sealed = if full { builder.seal() } else { None };
        build_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.close(span);
        let sealed = sealed.ok_or("monitor probe: a window did not seal at its boundary")?;
        let span = tr.open("core.triage_opacity", i as u32);
        let t0 = Instant::now();
        cleared += u64::from(triage_opacity(&sealed.history, sc).cleared());
        triage_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tr.close(span);
    }
    out.push(Metric::new(
        "monitor.window_build_us_p50",
        median(&build_us),
        "us",
    ));
    out.push(Metric::new("core.triage_us_p50", median(&triage_us), "us"));
    out.push(Metric::new(
        "core.triage_clear_frac",
        cleared as f64 / w.units() as f64,
        "frac",
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_untraced, Scale};

    #[test]
    fn smoke_stream_meets_its_known_answers_and_sabotage_is_caught() {
        let mut w = MonitorStream::setup(&Env::for_test(2, false));
        let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
        assert_eq!(o.failed, 0);
        let clusters = w.stream.count(WindowKind::Cluster) as u64;
        let poisoned = w.stream.count(WindowKind::Poisoned) as u64;
        assert!(clusters > 0 && poisoned > 0);
        // Every cluster escalated and was found opaque; every poisoned
        // window escalated and was reported.
        assert_eq!(w.last.escalated, clusters + poisoned);
        assert_eq!(w.last.violations, poisoned);
        assert_eq!(
            w.last.triage_cleared,
            w.last.windows_sealed - clusters - poisoned
        );

        let mut w = MonitorStream::setup(&Env::for_test(2, true));
        let o = run_untraced(&mut w, &[0.1], 0.0, Scale::Smoke);
        assert_eq!(o.failed, 1);
    }
}
