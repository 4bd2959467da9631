//! In-memory spans around the calls the benchmark makes into each
//! layer's public functions.
//!
//! A span is named `<layer>.<function>`; its parent is the span that
//! was open when it started. Spans are kept in memory and written out
//! as Chrome-trace JSON when the run ends. A layer's *self time* is
//! the sum over its spans of (duration − time covered by child spans).
//! With the tracer off, `open`/`close` are one branch each.

use jungle_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Unit id of a span that belongs to no unit (a pass, a probe).
pub const NO_UNIT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub unit: u32,
    /// Counts returned by the call (from `SearchStats`, `McStats`, …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[inline]
    pub fn open(&mut self, name: &'static str, unit: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn close(&mut self, open: Open) {
        self.close_with(open, &[]);
    }

    /// Close the span and attach the counts its call returned.
    #[inline]
    pub fn close_with(&mut self, open: Open, counts: &[(&'static str, u64)]) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        // A panic caught inside the span can leave deeper spans open:
        // close them at the same instant so the tree stays well-formed.
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].counts.extend_from_slice(counts);
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, µs).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::obj();
                args.push("span", (i as u64).into());
                if let Some(p) = s.parent {
                    args.push("parent", u64::from(p).into());
                }
                if s.unit != NO_UNIT {
                    args.push("unit", u64::from(s.unit).into());
                }
                for (k, v) in &s.counts {
                    args.push(k, (*v).into());
                }
                let mut e = Json::obj();
                e.push("name", s.name.into())
                    .push("cat", s.layer().into())
                    .push("ph", "X".into())
                    .push("ts", Json::F64(s.start_ns as f64 / 1e3))
                    .push("dur", Json::F64(s.dur() as f64 / 1e3))
                    .push("pid", 1u64.into())
                    .push("tid", 1u64.into())
                    .push("args", args);
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.push("traceEvents", Json::Arr(events))
            .push("displayTimeUnit", "ms".into());
        doc
    }
}

/// Self time per layer, in ns, over the spans at or below a root
/// named `root` (the spans of other roots are left out).
pub fn layer_self_ns(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut under = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so `under[p]` is already final.
        under[i] = match s.parent {
            None => s.name == root,
            Some(p) => under[p as usize],
        };
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if under[i] {
            *out.entry(s.layer()).or_insert(0) += s.dur().saturating_sub(child_ns[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: NO_UNIT,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("mc.run", 10, 70, Some(0)),
            span("core.check", 20, 30, Some(1)),
            span("core.check", 40, 60, Some(1)),
            span("bench.probe", 100, 150, None),
            span("core.check", 110, 140, Some(4)),
        ];
        let by = layer_self_ns(&spans, "bench.pass");
        assert_eq!(by["bench"], 100 - 60);
        assert_eq!(by["mc"], 60 - 30);
        assert_eq!(by["core"], 30);
        assert_eq!(by.values().sum::<u64>(), 100);
        // The probe root is a separate tree.
        let probe = layer_self_ns(&spans, "bench.probe");
        assert_eq!(probe["bench"], 20);
        assert_eq!(probe["core"], 30);
    }

    #[test]
    fn tracer_records_parents_and_is_inert_when_off() {
        let mut t = Tracer::new();
        let o = t.open("a.x", 1);
        t.close(o);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let a = t.open("a.x", NO_UNIT);
        let b = t.open("b.y", 7);
        t.close_with(b, &[("nodes", 3)]);
        t.close(a);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].unit, 7);
        assert_eq!(s[1].counts, vec![("nodes", 3)]);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].layer(), "b");
    }

    #[test]
    fn closing_an_outer_span_closes_the_inner_ones() {
        let mut t = Tracer::new();
        t.set_on(true);
        let a = t.open("a.x", NO_UNIT);
        let _leaked = t.open("b.y", NO_UNIT);
        t.close(a);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let c = t.open("c.z", NO_UNIT);
        t.close(c);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn chrome_json_round_trips() {
        let mut t = Tracer::new();
        t.set_on(true);
        let a = t.open("core.check_opacity", 4);
        t.close_with(a, &[("nodes", 9)]);
        let text = t.to_chrome_json().to_string();
        let back = Json::parse(&text).unwrap();
        let Some(Json::Arr(evs)) = back.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("cat").and_then(Json::as_str), Some("core"));
        assert_eq!(
            evs[0]
                .get("args")
                .and_then(|a| a.get("nodes"))
                .and_then(Json::as_u64),
            Some(9)
        );
    }
}
