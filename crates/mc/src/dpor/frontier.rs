//! The unit of work of parallel DPOR.
//!
//! The serial explorer walks one DFS; the parallel one shares a dynamic
//! frontier of donated subtrees — a
//! [`jungle_core::par::Frontier`]`<WorkItem>`, the same idle-counting
//! work-stealing queue the parallel checker search uses. Each
//! [`WorkItem`] names a choice point (decision `prefix` from the root)
//! plus the sleep set and first branch index under which its remaining
//! branches must be explored — exactly the state the serial DFS would
//! carry there, so the union of all items' explorations equals the
//! serial exploration regardless of worker count or interleaving.
//!
//! Exploration is seeded by a single root item; workers that find the
//! queue starved donate their shallowest splittable node
//! ([`DporCursor::split_shallowest`](super::DporCursor::split_shallowest)),
//! so the frontier balances itself against however lopsided the
//! schedule tree turns out to be. Popping an item another worker pushed
//! counts as a *steal* (`EventKind::FrontierSteal`).
//!
//! Verdict determinism does not come from the frontier (item order is
//! racy by design) but from the caller keeping the lexicographically
//! least violating decision path and pruning work beyond it — see
//! [`explore_dpor_par`](super::explore_dpor_par).

use super::cursor::SleepEntry;

/// A donated subtree: explore the choice point at `prefix`, branches
/// `next..`, under `sleep`.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Decision indices from the root down to (not including) the
    /// donated choice point.
    pub prefix: Vec<usize>,
    /// Sleep set in force at that point, with the donor's explored and
    /// in-progress branches pre-slept.
    pub sleep: Vec<SleepEntry>,
    /// First branch index the receiver may explore.
    pub next: usize,
}
