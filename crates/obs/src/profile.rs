//! Hierarchical phase profile: the flight recorder's named spans
//! folded into a self/total-time tree.
//!
//! The flight recorder answers *what happened*; this module answers
//! *where the time went*, from the same events. Call sites bracket a
//! phase with [`enter`] — the returned guard closes the phase on drop —
//! which records a `phase`-category begin/end pair named by a [`Span`]
//! (each check names its own search span the same way). Once the work
//! has quiesced, [`fold`] keeps one stack per thread and attributes
//! wall-clock to the full enclosing path (`report.figures >
//! check.opacity`), counting each node's calls and splitting its total
//! into self time (not covered by named children).
//!
//! The discipline is the recorder's zero-cost-when-off contract: with
//! the `phase` layer not [`install`](crate::trace::install)ed, [`enter`]
//! is one relaxed atomic load returning an inert guard — no clock read,
//! no allocation, no thread-local touch.
//!
//! A thread that a phase spawns starts with an empty stack of its own;
//! handing it the spawner's [`spawn_point`] to [`inherit`] nests its
//! spans under the spans open there, as untimed frames, so they are
//! attributed where the work was asked for and the spawner's own totals
//! do not change.

use crate::json::{Json, ToJson};
use crate::trace::{self, EventKind, FlightRecorder, Phase, Span};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One node of the folded phase tree.
#[derive(Debug, Default, Clone)]
pub struct ProfileNode {
    /// Phase name (the [`Span`]'s name).
    pub name: String,
    /// Completed spans at this exact path.
    pub calls: u64,
    /// Wall-clock nanoseconds covered by those spans.
    pub total_ns: u64,
    /// Portion of `total_ns` not covered by child phases.
    pub self_ns: u64,
    /// Nested spans, in the order their first call ended.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn named(name: &str) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            ..ProfileNode::default()
        }
    }

    /// Count one call of `path` below this node.
    fn add(&mut self, path: &[Span], total_ns: u64, self_ns: u64) {
        let mut node = self;
        for span in path {
            let found = node.children.iter().position(|c| c.name == span.name());
            let i = found.unwrap_or_else(|| {
                node.children.push(ProfileNode::named(span.name()));
                node.children.len() - 1
            });
            node = &mut node.children[i];
        }
        node.calls += 1;
        node.total_ns += total_ns;
        node.self_ns += self_ns;
    }

    /// Total nanoseconds attributed to direct children.
    pub fn children_ns(&self) -> u64 {
        self.children.iter().map(|c| c.total_ns).sum()
    }
}

impl ToJson for ProfileNode {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("name", self.name.as_str().into())
            .push("calls", self.calls.into())
            .push("total_ns", self.total_ns.into())
            .push("self_ns", self.self_ns.into())
            .push(
                "children",
                Json::Arr(self.children.iter().map(|c| c.to_json()).collect()),
            );
        j
    }
}

/// Open a phase. The returned guard closes it when dropped; phases on
/// one thread nest by drop order. With the `phase` layer not recorded
/// this is one relaxed load returning an inert guard.
#[inline]
pub fn enter(span: Span) -> SpanGuard {
    SpanGuard::open(EventKind::PhaseBegin, Some(span), 0, EventKind::PhaseEnd)
}

/// The spans open on a spawner's thread when it took the point.
#[derive(Clone, Copy, Debug)]
pub struct SpawnPoint(u64);

static NEXT_SPAWN: AtomicU64 = AtomicU64::new(1);

/// Mark the calling thread's open spans as the path of the threads it
/// is about to spawn.
pub fn spawn_point() -> SpawnPoint {
    if !trace::recording(EventKind::Spawn) {
        return SpawnPoint(0);
    }
    let id = NEXT_SPAWN.fetch_add(1, Ordering::Relaxed);
    trace::emit(EventKind::Spawn, id, 0);
    SpawnPoint(id)
}

/// Continue `from`'s path, untimed, until the returned guard drops.
pub fn inherit(from: SpawnPoint) -> SpanGuard {
    match from.0 {
        0 => SpanGuard { end: None },
        id => SpanGuard::open(EventKind::Inherit, None, id, EventKind::InheritEnd),
    }
}

/// Closes its phase (or inherited path) on drop.
#[must_use = "the phase ends when this guard drops; bind it to a named local"]
pub struct SpanGuard {
    /// The end to record, if the begin was recorded.
    end: Option<(EventKind, Option<Span>)>,
}

impl SpanGuard {
    #[inline]
    fn open(begin: EventKind, span: Option<Span>, a: u64, end: EventKind) -> SpanGuard {
        let recorded = trace::recording(begin);
        if recorded {
            trace::emit_span(begin, span, a, 0);
        }
        SpanGuard {
            end: recorded.then_some((end, span)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((kind, span)) = self.end {
            trace::emit_span(kind, span, 0, 0);
        }
    }
}

/// An open span of a thread: named, or an inherited path (`span: None`).
struct Frame {
    span: Option<Span>,
    /// The names open down to and including this frame.
    path: Vec<Span>,
    start_ns: u64,
    /// Time covered by the named spans nested directly inside.
    child_ns: u64,
}

/// Fold `recorder`'s named spans into the phase tree, under a `profile`
/// root that spans its top-level phases; a span still open is not
/// counted. A ring that wrapped is an error, never a smaller tree, and
/// so is an end that closes nothing or an unknown spawn point.
pub fn fold(recorder: &FlightRecorder) -> Result<ProfileNode, String> {
    let dropped = recorder.dropped();
    if dropped > 0 {
        return Err(format!(
            "{dropped} events dropped: a profile would under-count"
        ));
    }
    let mut root = ProfileNode::named("profile");
    let mut stacks: HashMap<u32, Vec<Frame>> = HashMap::new();
    let mut spawns: HashMap<u64, Vec<Span>> = HashMap::new();
    for e in recorder.events() {
        let stack = stacks.entry(e.tid).or_default();
        let path = |stack: &Vec<Frame>| stack.last().map_or(Vec::new(), |f| f.path.clone());
        let frame = |span, path| Frame {
            span,
            path,
            start_ns: e.ts_ns,
            child_ns: 0,
        };
        match (e.kind, e.kind.phase(), e.span) {
            (EventKind::Spawn, ..) => _ = spawns.insert(e.a, path(stack)),
            (EventKind::Inherit, ..) => {
                let inherited = spawns.get(&e.a).ok_or("inherits an unknown spawn point");
                stack.push(frame(None, inherited?.clone()));
            }
            (_, Phase::Begin, Some(span)) => {
                let named = [path(stack), vec![span]].concat();
                stack.push(frame(Some(span), named));
            }
            (EventKind::InheritEnd, ..) | (_, Phase::End, Some(_)) => {
                let open = stack.pop().filter(|f| f.span == e.span);
                let f = open.ok_or_else(|| format!("{:?} {:?} closes nothing", e.kind, e.span))?;
                if f.span.is_some() {
                    let ns = e.ts_ns.saturating_sub(f.start_ns);
                    root.add(&f.path, ns, ns.saturating_sub(f.child_ns));
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += ns;
                    }
                }
            }
            _ => {}
        }
    }
    root.total_ns = root.children_ns();
    root.calls = root.children.iter().map(|c| c.calls).sum();
    Ok(root)
}
