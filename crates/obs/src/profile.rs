//! Hierarchical phase profiler: per-thread span stacks folded into a
//! self/total-time tree.
//!
//! The flight recorder answers *what happened*; this module answers
//! *where the time went*. Call sites bracket a phase with
//! [`enter`] — the returned guard closes the phase on drop — and the
//! profiler attributes wall-clock to the full enclosing path
//! (`report.figures > check.opacity`), counting each node's calls and
//! splitting its total into self time (not covered by children).
//!
//! The discipline is the same zero-cost-when-off contract as
//! [`trace`](crate::trace): with no [`Profiler`] [`install`]ed,
//! [`enter`] is one relaxed atomic load returning an inert guard — no
//! clock read, no allocation, no thread-local touch. When installed,
//! spans record into plain thread-local state (a stack and a per-path
//! aggregate map) with no synchronization; a thread folds its local
//! aggregates into the shared tree only when none of its own phases is
//! open and enough spans have accumulated (`FLUSH_EVERY`), or when the
//! thread exits, so a worker thread pays one mutex acquisition per few
//! hundred spans, not per span.
//!
//! A thread that a phase spawns starts with an empty stack of its own;
//! handing it the spawner's [`path`] to [`inherit`] nests its phases
//! under the spawner's, as untimed frames, so they are attributed where
//! the work was asked for and the spawner's own totals do not change.
//!
//! Snapshots: call [`flush_thread`] on the reading thread (its own
//! residue is otherwise still local) and then [`Profiler::snapshot`],
//! which renders the path-keyed aggregates as a [`ProfileNode`] tree.

use crate::json::{Json, ToJson};
use crate::sink::Installed;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Completed spans a thread accumulates locally before folding into
/// the shared tree (only at stack-empty points, so partial paths never
/// publish).
const FLUSH_EVERY: u32 = 256;

/// Aggregate for one phase path.
#[derive(Debug, Default, Clone)]
struct NodeAgg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

impl NodeAgg {
    fn absorb(&mut self, other: &NodeAgg) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// The shared profile: path-keyed aggregates behind a mutex that
/// threads only touch at flush points.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Mutex<BTreeMap<Vec<&'static str>, NodeAgg>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    fn merge(&self, local: &mut BTreeMap<Vec<&'static str>, NodeAgg>) {
        if local.is_empty() {
            return;
        }
        let mut nodes = self.nodes.lock().unwrap();
        for (path, agg) in std::mem::take(local) {
            nodes.entry(path).or_default().absorb(&agg);
        }
    }

    /// Fold the aggregates into a phase tree. Call [`flush_thread`]
    /// first so the reading thread's own residue is included; other
    /// threads contribute what they have flushed (worker threads flush
    /// fully at exit).
    pub fn snapshot(&self) -> ProfileNode {
        let nodes = self.nodes.lock().unwrap();
        let mut root = ProfileNode::named("profile");
        for (path, agg) in nodes.iter() {
            let mut cur = &mut root;
            for seg in path {
                let pos = match cur.children.iter().position(|c| c.name == *seg) {
                    Some(p) => p,
                    None => {
                        cur.children.push(ProfileNode::named(seg));
                        cur.children.len() - 1
                    }
                };
                cur = &mut cur.children[pos];
            }
            cur.calls += agg.calls;
            cur.total_ns += agg.total_ns;
            cur.self_ns += agg.self_ns;
        }
        // The synthetic root spans its top-level phases.
        root.total_ns = root.children.iter().map(|c| c.total_ns).sum();
        root.calls = root.children.iter().map(|c| c.calls).sum();
        root
    }
}

/// One node of the rendered phase tree.
#[derive(Debug, Default, Clone)]
pub struct ProfileNode {
    /// Phase name (the string passed to [`enter`]).
    pub name: String,
    /// Completed spans at this exact path.
    pub calls: u64,
    /// Wall-clock nanoseconds covered by those spans.
    pub total_ns: u64,
    /// Portion of `total_ns` not covered by child phases.
    pub self_ns: u64,
    /// Nested phases, in first-seen path order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn named(name: &str) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            ..ProfileNode::default()
        }
    }

    /// Total nanoseconds attributed to direct children.
    pub fn children_ns(&self) -> u64 {
        self.children.iter().map(|c| c.total_ns).sum()
    }

    /// Render an indented human-readable table (one line per node).
    pub fn render(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2}s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.1}us", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        fn walk(n: &ProfileNode, depth: usize, out: &mut String) {
            out.push_str(&format!(
                "{:indent$}{:<width$} calls={:<8} total={:<9} self={}\n",
                "",
                n.name,
                n.calls,
                fmt_ns(n.total_ns),
                fmt_ns(n.self_ns),
                indent = depth * 2,
                width = 28usize.saturating_sub(depth * 2),
            ));
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
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

// ── thread-local recording state ─────────────────────────────────────

struct Frame {
    name: &'static str,
    /// `None` for a frame [`inherit`]ed from the spawning thread: it
    /// names the path and times nothing.
    start: Option<Instant>,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<Frame>,
    local: BTreeMap<Vec<&'static str>, NodeAgg>,
    pending: u32,
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // Thread exit: whatever this thread accumulated must land in
        // the shared tree, or worker-thread time would vanish.
        merge_into_installed(&mut self.local);
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

// ── global installation ──────────────────────────────────────────────

static SINK: Installed<Profiler> = Installed::new();

/// Fold `local` into the last installed profiler — also after
/// [`uninstall`], which is what lets spans open at that point land.
fn merge_into_installed(local: &mut BTreeMap<Vec<&'static str>, NodeAgg>) {
    match SINK.current() {
        Some(profiler) => profiler.merge(local),
        None => local.clear(),
    }
}

/// Install `profiler` as the process-global phase profiler; [`enter`]
/// starts recording immediately. Replaces any previous profiler (which
/// stays alive and readable but stops receiving spans).
pub fn install(profiler: Arc<Profiler>) {
    SINK.install(profiler);
}

/// Stop profiling. Spans already open keep timing and fold into the
/// last installed profiler when they close.
pub fn uninstall() {
    SINK.disable();
}

/// Fold the calling thread's local aggregates into the installed
/// profiler now. Call before [`Profiler::snapshot`] on the thread that
/// did the work (other threads flush at stack-empty points and at
/// exit).
pub fn flush_thread() {
    let _ = TLS.try_with(|tls| {
        let mut tls = tls.borrow_mut();
        tls.pending = 0;
        let mut local = std::mem::take(&mut tls.local);
        drop(tls);
        merge_into_installed(&mut local);
    });
}

/// Open a phase. The returned guard closes it when dropped; phases on
/// one thread nest by drop order. With no profiler installed this is
/// one relaxed load returning an inert guard.
#[inline]
pub fn enter(name: &'static str) -> PhaseGuard {
    if !SINK.enabled() {
        return PhaseGuard { frames: 0 };
    }
    push_frames(&[name], true)
}

/// The calling thread's open phases, outermost first (empty with no
/// profiler installed): what a thread it spawns passes to [`inherit`].
pub fn path() -> Vec<&'static str> {
    if !SINK.enabled() {
        return Vec::new();
    }
    TLS.try_with(|tls| tls.borrow().stack.iter().map(|f| f.name).collect())
        .unwrap_or_default()
}

/// Continue the spawning thread's `path` on this thread: until the
/// returned guard drops, the phases this thread opens nest under it.
/// The inherited frames time nothing, so only the spawner times them.
pub fn inherit(path: &[&'static str]) -> PhaseGuard {
    if path.is_empty() || !SINK.enabled() {
        return PhaseGuard { frames: 0 };
    }
    push_frames(path, false)
}

/// Push `names` as frames, timed from now or (inherited) untimed.
#[cold]
fn push_frames(names: &[&'static str], timed: bool) -> PhaseGuard {
    let start = timed.then(Instant::now);
    let pushed = TLS.try_with(|tls| {
        let frames = names.iter().map(|&name| Frame {
            name,
            start,
            child_ns: 0,
        });
        tls.borrow_mut().stack.extend(frames);
    });
    PhaseGuard {
        frames: if pushed.is_ok() { names.len() } else { 0 },
    }
}

/// Closes its phase (or the frames it [`inherit`]ed) on drop. Hold it
/// for the duration of the phase; binding to `_` drops immediately and
/// times nothing.
#[must_use = "the phase ends when this guard drops; bind it to a named local"]
pub struct PhaseGuard {
    frames: usize,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        for _ in 0..self.frames {
            exit_installed();
        }
    }
}

fn exit_installed() {
    let _ = TLS.try_with(|tls| {
        let mut tls = tls.borrow_mut();
        let Some(Frame {
            name,
            start: Some(start),
            child_ns,
        }) = tls.stack.pop()
        else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let self_ns = ns.saturating_sub(child_ns);
        if let Some(parent) = tls.stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(ns);
        }
        let path: Vec<&'static str> = tls
            .stack
            .iter()
            .map(|f| f.name)
            .chain(std::iter::once(name))
            .collect();
        let agg = tls.local.entry(path).or_default();
        agg.calls += 1;
        agg.total_ns += ns;
        agg.self_ns += self_ns;
        tls.pending += 1;
        let outermost = tls.stack.last().is_none_or(|f| f.start.is_none());
        if outermost && tls.pending >= FLUSH_EVERY {
            tls.pending = 0;
            let mut local = std::mem::take(&mut tls.local);
            drop(tls);
            merge_into_installed(&mut local);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global install state.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(iters: u64) -> u64 {
        std::hint::black_box((0..iters).sum::<u64>())
    }

    #[test]
    fn uninstalled_enter_is_inert() {
        let _l = lock();
        uninstall();
        let g = enter("never");
        drop(g);
        // No profiler: nothing to observe, but nothing crashed and the
        // TLS stack stayed empty.
        TLS.with(|tls| assert!(tls.borrow().stack.is_empty()));
    }

    #[test]
    fn nested_spans_build_a_tree_with_self_total_split() {
        let _l = lock();
        let p = Arc::new(Profiler::new());
        install(p.clone());
        {
            let _outer = enter("outer");
            spin(10_000);
            {
                let _inner = enter("inner");
                spin(10_000);
            }
            {
                let _inner = enter("inner");
                spin(10_000);
            }
        }
        uninstall();
        flush_thread();
        let root = p.snapshot();
        let outer = root
            .children
            .iter()
            .find(|c| c.name == "outer")
            .expect("outer phase recorded");
        assert_eq!(outer.calls, 1);
        let inner = outer
            .children
            .iter()
            .find(|c| c.name == "inner")
            .expect("inner nested under outer");
        assert_eq!(inner.calls, 2);
        assert!(inner.total_ns <= outer.total_ns);
        assert!(outer.self_ns <= outer.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.children_ns() <= outer.total_ns);
    }

    #[test]
    fn cross_thread_spans_merge_at_thread_exit() {
        let _l = lock();
        let p = Arc::new(Profiler::new());
        install(p.clone());
        let threads: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..5 {
                        let _g = enter("worker");
                        spin(1_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        uninstall();
        flush_thread();
        let root = p.snapshot();
        let worker = root
            .children
            .iter()
            .find(|c| c.name == "worker")
            .expect("worker spans flushed at thread exit");
        assert_eq!(worker.calls, 15);
        assert!(worker.self_ns <= worker.total_ns);
    }

    #[test]
    fn a_spawned_thread_nests_under_its_spawner() {
        let _l = lock();
        let p = Arc::new(Profiler::new());
        install(p.clone());
        {
            let _outer = enter("outer");
            let path = path();
            assert_eq!(path, ["outer"]);
            std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    let _path = inherit(&path);
                    for _ in 0..FLUSH_EVERY + 1 {
                        let _g = enter("worker");
                    }
                });
                // A join waits for the thread's exit flush.
                worker.join().unwrap();
            });
        }
        uninstall();
        flush_thread();
        let root = p.snapshot();
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["outer"],
            "nothing at the root but the spawner's phase"
        );
        let outer = &root.children[0];
        assert_eq!(outer.calls, 1, "the inherited frame times nothing");
        assert_eq!(
            outer.self_ns, outer.total_ns,
            "the worker's time is its own"
        );
        assert_eq!(outer.children[0].name, "worker");
        assert_eq!(outer.children[0].calls, u64::from(FLUSH_EVERY) + 1);
        assert!(inherit(&[]).frames == 0 && path().is_empty());
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let _l = lock();
        let p = Arc::new(Profiler::new());
        install(p.clone());
        {
            let _a = enter("alpha");
            let _b = enter("beta");
            spin(1_000);
        }
        uninstall();
        flush_thread();
        let root = p.snapshot();
        let j = root.to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("profile"));
        let text = j.to_string();
        assert!(text.contains("\"alpha\"") && text.contains("\"beta\""));
        let rendered = root.render();
        assert!(rendered.contains("alpha") && rendered.contains("beta"));
        assert!(rendered.contains("self="));
    }
}
