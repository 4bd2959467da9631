//! The source-set exploration cursor.
//!
//! `DporCursor` drives the simulated machine like
//! [`ExhaustiveCursor`](jungle_memsim::ExhaustiveCursor) — replay a
//! recorded decision prefix, extend it at the frontier, backtrack with
//! `DporCursor::advance` — but a choice point opens a sibling branch
//! only where a race found in some run below it demands one
//! (source-set DPOR: Abdulla, Aronis, Jonsson, Sagonas, POPL 2014), and
//! never re-enters a branch that is asleep (Godefroid).
//!
//! **Processes are CPUs.** [`Footprint::dependent`] orders every two
//! decisions of one CPU, so per-CPU vector clocks are exact for the
//! happens-before order of a run. What one CPU may do next — execute
//! its instruction, drain one of its drainable stores, or (inside a
//! load) observe one of several versions — is a choice *within* that
//! process: the alternatives are co-enabled and pairwise dependent, so
//! each starts classes none of the others reaches, and a backtrack set
//! names CPUs, never single actions. Scheduling a CPU at a node
//! schedules every enabled action it has there. An `Exec` and a `Drain`
//! of one CPU are thereby both explored without any race between them
//! having to be detected (an `Exec` that force-drains a store leaves no
//! drain event to detect one with), and a buffered store needs no
//! identity: `Drain { idx }` renumbers only when its own CPU acts, and
//! no analysis here carries an action of a CPU across that CPU's steps.
//!
//! **The race pass.** When the footprint of a new decision `j` arrives
//! ([`Scheduler::observe`]), its clock is the join of the clocks of the
//! earlier decisions it depends on, and it *directly races* with such a
//! decision `i` of another CPU when nothing else orders `i` before it.
//! The pass walks the earlier decisions once, latest first, joining as
//! it goes: a decision that happens before one already joined is
//! dominated by it — it adds nothing to the clock and cannot race
//! directly — so of each CPU only the decisions after its latest
//! dependent one are even tested for dependence, and every dependent
//! decision the walk still meets undominated is a direct race.
//! Reversing the race means running, from node `i`, the decisions after
//! `i` that do not happen after `i`, then `j`; any CPU whose first
//! decision in that sequence has no predecessor inside it (an *initial*)
//! can start it. Unless node `i` already explores an initial (or holds
//! it asleep), the pass adds the earliest. An initial's action is by
//! construction an option of node `i`; should the analysis name one
//! that is not, every option of the node is added instead — the full
//! tree's behaviour, always sound. Races are reversed in the order of
//! their earlier decisions. Decisions of the replayed prefix were
//! analysed by the run that first made them and are skipped.
//!
//! **Sleep sets.** After a branch is fully explored its action goes to
//! sleep at that node with its observed [`Footprint`]. A sleeper
//! survives into descendant nodes while every decision taken since is
//! independent of it, and an action found asleep is skipped:
//! executing it first could only produce runs equivalent to runs under
//! the sleeping branch. Sleep sets make every class complete at most
//! once; source sets make it complete at least once. A node whose every
//! enabled action is asleep is cut via [`Scheduler::abort_run`] (the
//! machine reports `aborted == true`) — source sets without wakeup
//! trees may still start such a run, and
//! [`DporOutcome::blocked`](super::DporOutcome::blocked) counts them.
//!
//! **Cost.** The cursor's share of a decision is a replay step or a
//! new node. Footprints are `Copy`, the clocks of the path live in one
//! flat table (a row per node, a column per CPU), and the nodes live in
//! one vector that only grows, indexed by depth: a node leaving the
//! path stays where it is as a spare, and the next choice point at that
//! depth refills its vectors in place. No node is ever moved, and after
//! the first few runs neither a choice point nor a race allocates.
//! The machine side is the same: [`explore_dpor`](super::explore_dpor)
//! builds its machine once and resets a copy of it before every run
//! ([`Machine::run_from`](jungle_memsim::Machine::run_from)), reusing
//! the copy's instruction record, footprints, store buffers, memory and
//! trace. What a run still pays for is replay: it re-executes the
//! recorded prefix from the root. Since the machine is `Clone`,
//! restoring a copy taken at the backtrack node instead needs only the
//! clone.

use jungle_memsim::{Action, Footprint, Scheduler};
use jungle_obs::sim::{DporStats, FOOTPRINT_KINDS};

/// Classify a footprint into an index of [`FOOTPRINT_KINDS`]: fences
/// first (they conflict with everything), then transaction boundaries
/// (invocation/response markers), then the data shape (rmw = both
/// reads and writes, else write, else read), with a catch-all for
/// footprints touching nothing.
fn footprint_kind(fp: &Footprint) -> usize {
    debug_assert_eq!(FOOTPRINT_KINDS.len(), 6);
    if fp.fence {
        3 // fence
    } else if fp.inv || fp.resp {
        4 // boundary
    } else if !fp.writes.is_empty() && !fp.reads.is_empty() {
        2 // rmw
    } else if !fp.writes.is_empty() {
        1 // write
    } else if !fp.reads.is_empty() {
        0 // read
    } else {
        5 // other
    }
}

/// A sleeping transition at one choice point: the action of a fully
/// explored branch together with the footprint it had when executed
/// there. (A sleeper is dropped by the first decision of its own CPU,
/// so the action still names the same transition wherever it is found.)
#[derive(Clone, Copy, Debug)]
struct SleepEntry {
    action: Action,
    fp: Footprint,
}

fn slept(sleep: &[SleepEntry], action: Action) -> bool {
    sleep.iter().any(|e| e.action == action)
}

/// Where one option of a choice point stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Branch {
    /// Not in the backtrack set.
    Idle,
    /// In the backtrack set, not yet explored.
    Todo,
    /// Explored, being explored, or skipped asleep.
    Done,
}

/// One choice point on the current exploration path. Its clock is row
/// `depth` of [`DporCursor::clocks`].
#[derive(Debug, Default)]
struct Node {
    /// The enabled actions offered here.
    options: Vec<Action>,
    /// The backtrack set, per option.
    branch: Vec<Branch>,
    /// Index of the branch currently being explored.
    chosen: usize,
    /// Sleep set at this node: inherited survivors plus entries for
    /// branches already explored here.
    sleep: Vec<SleepEntry>,
    /// Footprint of the chosen action, once observed.
    fp: Option<Footprint>,
    /// The chosen decision is observed and has a clock (`clock[c]`
    /// counts the cpu-`c` decisions that happen before or are it).
    /// Never for a version pick, which is the second half of the load
    /// decision before it and reads nothing that decision's footprint
    /// does not already hold.
    timed: bool,
}

impl Node {
    /// Put every enabled action of `cpu` — of every CPU, if `None` — in
    /// the backtrack set.
    fn schedule(&mut self, cpu: Option<usize>) {
        for (a, b) in self.options.iter().zip(&mut self.branch) {
            if *b == Branch::Idle && cpu.is_none_or(|c| a.cpu() == c) {
                *b = Branch::Todo;
            }
        }
    }

    /// The action this node is exploring.
    fn action(&self) -> Action {
        self.options[self.chosen]
    }

    /// Footprint of the chosen decision, once it has a clock.
    fn event(&self) -> Option<&Footprint> {
        self.fp.as_ref().filter(|_| self.timed)
    }
}

/// Source-set DFS cursor over the machine's schedule tree. Implements
/// [`Scheduler`]; drive it like an `ExhaustiveCursor`: `rewind`, run
/// the machine, `advance` until it returns `false`.
#[derive(Debug, Default)]
pub(crate) struct DporCursor {
    /// The path is `nodes[..depth]`; the nodes past it are spares whose
    /// vectors the next choice points refill. A node never moves.
    nodes: Vec<Node>,
    depth: usize,
    /// The clocks of the path: row `d` (`width` entries, one per CPU
    /// seen so far) belongs to `nodes[d]` while it is timed.
    clocks: Vec<u32>,
    width: usize,
    /// Scratch of the race pass: the racing earlier decisions, latest
    /// first.
    races: Vec<usize>,
    /// Scratch of a reversal: each CPU's first decision in the
    /// sequence to reverse, as `(cpu, node)`.
    firsts: Vec<(usize, usize)>,
    /// Replay position within the path for the current run.
    pos: usize,
    /// Next path index to receive an observed footprint.
    obs: usize,
    /// The current run reached a node with every option asleep.
    blocked: bool,
    /// Members of backtrack sets skipped because they were asleep.
    pub sleep_skips: u64,
    /// Racing pairs by footprint kind, found on the way. Each racing
    /// pair is counted once, by the run that first executed its later
    /// decision.
    pub waste: DporStats,
}

impl DporCursor {
    /// A cursor rooted at the top of the schedule tree.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Reset the replay position for the next run.
    pub(crate) fn rewind(&mut self) {
        self.pos = 0;
        self.obs = 0;
        self.blocked = false;
    }

    /// Advance to the next unexplored member of a backtrack set,
    /// deepest node first and lowest option first within a node,
    /// putting each completed branch to sleep at its node. Returns
    /// `false` when every backtrack set is exhausted.
    pub(crate) fn advance(&mut self) -> bool {
        if self.blocked {
            // The blocked node explored nothing: every option was
            // already asleep, so it has no footprint and sleeps nothing.
            self.blocked = false;
            self.depth -= 1;
        }
        while self.depth > 0 {
            let node = &mut self.nodes[self.depth - 1];
            // The branch just completed joins the sleep set: any
            // sibling explored after it may skip re-entering it.
            if let Some(fp) = node.fp.take() {
                let action = node.action();
                node.sleep.push(SleepEntry { action, fp });
            }
            node.timed = false;
            while let Some(next) = node.branch.iter().position(|b| *b == Branch::Todo) {
                node.branch[next] = Branch::Done;
                if slept(&node.sleep, node.options[next]) {
                    self.sleep_skips += 1;
                } else {
                    node.chosen = next;
                    return true;
                }
            }
            self.depth -= 1;
        }
        false
    }

    /// Give every clock a column for each of the first `width` CPUs.
    fn widen(&mut self, width: usize) {
        let rows = self.clocks.len().checked_div(self.width).unwrap_or(0);
        let mut wide = vec![0; rows * width];
        for (to, from) in wide
            .chunks_exact_mut(width)
            .zip(self.clocks.chunks_exact(self.width.max(1)))
        {
            to[..self.width].copy_from_slice(from);
        }
        self.clocks = wide;
        self.width = width;
    }

    /// Give decision `k` (footprint `fp`, just executed for the first
    /// time) its clock, and for every earlier decision it directly
    /// races with make sure the other order is explored too.
    fn place(&mut self, k: usize, fp: &Footprint) {
        if fp.cpu >= self.width {
            self.widen(fp.cpu + 1);
        }
        let w = self.width;
        if self.clocks.len() < (k + 1) * w {
            self.clocks.resize((k + 1) * w, 0);
        }
        let (earlier_rows, rest) = self.clocks.split_at_mut(k * w);
        let clock = &mut rest[..w];
        clock.fill(0);
        self.races.clear();
        for i in (0..k).rev() {
            let Some(earlier) = self.nodes[i].event() else {
                continue;
            };
            let cpu = earlier.cpu;
            let its = &earlier_rows[i * w..(i + 1) * w];
            // Happens before a decision already joined: dominated.
            if clock[cpu] >= its[cpu] || !earlier.dependent(fp) {
                continue;
            }
            for (c, e) in clock.iter_mut().zip(its) {
                *c = (*c).max(*e);
            }
            if cpu != fp.cpu {
                self.races.push(i); // one process is program order
            }
        }
        clock[fp.cpu] += 1;
        for r in (0..self.races.len()).rev() {
            let i = self.races[r];
            let earlier = self.nodes[i].fp.as_ref().expect("races are between events");
            self.waste
                .note_race(footprint_kind(earlier), footprint_kind(fp));
            self.reverse(i, k, fp.cpu);
        }
    }

    /// Decision `k` (cpu `cpu_k`, already timed) races with the earlier
    /// decision `i`: unless node `i` already explores (or holds asleep)
    /// an action that can start "everything after `i` that does not
    /// happen after `i`, then `k`", schedule the CPU of the earliest.
    fn reverse(&mut self, i: usize, k: usize, cpu_k: usize) {
        let (nodes, firsts, w) = (&self.nodes, &mut self.firsts, self.width);
        // The clock of timed node `d`.
        let clock = |d: usize| &self.clocks[d * w..(d + 1) * w];
        let cpu_i = nodes[i].event().expect("races are between events").cpu;
        let seq_i = clock(i)[cpu_i];
        // Each CPU's first decision in that sequence, in run order.
        firsts.clear();
        for (x, node) in nodes.iter().enumerate().take(k).skip(i + 1) {
            if let Some(fp) = node.event() {
                if clock(x)[cpu_i] < seq_i && firsts.iter().all(|f| f.0 != fp.cpu) {
                    firsts.push((fp.cpu, x));
                }
            }
        }
        if firsts.iter().all(|f| f.0 != cpu_k) {
            firsts.push((cpu_k, k));
        }
        // A first decision is an initial unless another CPU's first
        // decision (hence that CPU's whole part of the sequence up to
        // it) happens before it. Its CPU has decided nothing since
        // node `i`, so its action is an option of node `i` under the
        // same name.
        let mut earliest = None;
        for &(p, xp) in firsts.iter() {
            let initial = firsts
                .iter()
                .all(|&(q, xq)| q == p || xq > xp || clock(xp)[q] < clock(xq)[q]);
            if !initial {
                continue;
            }
            let action = nodes[xp].action();
            let node = &nodes[i];
            match node.options.iter().position(|a| *a == action) {
                // Explored here, or asleep here: its runs are covered.
                Some(o) if node.branch[o] != Branch::Idle || slept(&node.sleep, action) => return,
                Some(_) => earliest = earliest.or(Some(p)),
                // The analysis named an action node `i` cannot take.
                None => {
                    earliest = None;
                    break;
                }
            }
        }
        // The earliest decision of the sequence is always an initial,
        // and the one from which the depth-first order reaches the
        // other classes without meeting a sleeper that blocks the run.
        // (`None`: the fallback, every option.)
        self.nodes[i].schedule(earliest);
    }
}

impl Scheduler for DporCursor {
    fn choose(&mut self, actions: &[Action]) -> usize {
        if self.pos < self.depth {
            // Replay the recorded prefix. The machine is deterministic,
            // so the offered list matches the one recorded.
            let node = &self.nodes[self.pos];
            debug_assert_eq!(node.options, actions, "nondeterministic replay");
            self.pos += 1;
            return node.chosen;
        }
        // Frontier: open a new choice point in the first spare node.
        if self.depth == self.nodes.len() {
            self.nodes.push(Node::default());
        }
        let (path, spare) = self.nodes.split_at_mut(self.depth);
        let node = &mut spare[0];
        node.options.clear();
        node.options.extend_from_slice(actions);
        node.branch.clear();
        node.branch.resize(actions.len(), Branch::Idle);
        node.sleep.clear();
        node.fp = None;
        node.timed = false;
        // Sleeping actions survive past the parent's decision iff they
        // are independent of it.
        if let Some(parent) = path.last() {
            let pfp = parent
                .fp
                .as_ref()
                .expect("parent footprint observed before child choice");
            node.sleep
                .extend(parent.sleep.iter().filter(|e| !e.fp.dependent(pfp)));
        }
        let awake = actions.iter().position(|a| !slept(&node.sleep, *a));
        node.chosen = awake.unwrap_or(0);
        match awake {
            // The backtrack set starts as one CPU: the first with an
            // action awake. (A version list belongs to one CPU, so all
            // of it is explored.)
            Some(first) => {
                node.schedule(Some(actions[first].cpu()));
                node.branch[first] = Branch::Done;
            }
            // Everything enabled is asleep: all behaviors from here are
            // covered by runs already explored. Cut the run (the
            // machine checks abort_run before executing the choice).
            None => {
                self.blocked = true;
            }
        }
        self.depth += 1;
        self.pos += 1;
        awake.unwrap_or(0)
    }

    fn observe(&mut self, fp: &Footprint) {
        // One footprint per decision, in decision order. Re-runs
        // re-deliver the (identical) footprints of the replayed prefix,
        // which the run that opened those branches already analysed.
        debug_assert!(self.obs < self.depth, "footprint without a node");
        let k = self.obs;
        self.obs += 1;
        let node = &self.nodes[k];
        if node.fp.is_some() {
            return;
        }
        if !matches!(node.action(), Action::ReadVersion { .. }) {
            self.place(k, fp);
            self.nodes[k].timed = true;
        }
        self.nodes[k].fp = Some(*fp);
    }

    fn abort_run(&self) -> bool {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungle_memsim::AddrSet;

    fn w(cpu: usize, addr: u32) -> Footprint {
        Footprint {
            writes: AddrSet::of(&[addr]),
            ..Footprint::on(cpu)
        }
    }

    fn execs(cpus: &[usize]) -> Vec<Action> {
        cpus.iter().map(|&cpu| Action::Exec { cpu }).collect()
    }

    /// Make one decision: offer `cpus`' next instructions, expect the
    /// cursor to pick `expect`, and report `fp` for it.
    fn step(c: &mut DporCursor, cpus: &[usize], expect: usize, fp: Footprint) {
        assert_eq!(c.choose(&execs(cpus)), expect);
        assert!(!c.abort_run());
        c.observe(&fp);
    }

    /// Races flagged in the one run that makes `fps`' decisions in
    /// order (each offered alone, so nothing can be reversed).
    fn races(fps: &[Footprint]) -> u64 {
        let mut c = DporCursor::new();
        for fp in fps {
            step(&mut c, &[fp.cpu], 0, *fp);
        }
        assert!(!c.advance(), "single options leave nothing to explore");
        c.waste.race_total()
    }

    #[test]
    fn same_cpu_sequence_never_races() {
        assert_eq!(races(&[w(0, 1), w(0, 1), w(0, 2)]), 0);
    }

    #[test]
    fn conflicting_writes_on_two_cpus_race() {
        assert_eq!(races(&[w(0, 5), w(1, 5)]), 1);
    }

    #[test]
    fn disjoint_addresses_do_not_race() {
        assert_eq!(races(&[w(0, 1), w(1, 2)]), 0);
    }

    #[test]
    fn transitive_order_suppresses_race() {
        // cpu0 writes a; cpu1 writes a (races with the first); cpu1
        // writes a again — ordered after cpu0's write via its own
        // program-order predecessor, so only the first pair races.
        assert_eq!(races(&[w(0, 9), w(1, 9), w(1, 9)]), 1);
    }

    #[test]
    fn mediated_pair_is_not_direct_race() {
        // (0,1) and (1,2) race; (0,2) is program order.
        assert_eq!(races(&[w(0, 3), w(1, 3), w(0, 3)]), 2);
    }

    #[test]
    fn race_heat_lands_on_the_pair_of_kinds() {
        let mut c = DporCursor::new();
        step(&mut c, &[0], 0, w(0, 5));
        step(&mut c, &[1], 0, w(1, 5));
        assert_eq!(c.waste.race_heat[1][1], 1, "(write, write)");
    }

    #[test]
    fn footprint_kinds_classify_by_shape() {
        let read = Footprint {
            reads: AddrSet::of(&[1]),
            ..Footprint::on(0)
        };
        let rmw = Footprint {
            reads: AddrSet::of(&[1]),
            writes: AddrSet::of(&[1]),
            ..Footprint::on(0)
        };
        let fence = Footprint {
            fence: true,
            writes: AddrSet::of(&[1]),
            ..Footprint::on(0)
        };
        let boundary = Footprint {
            inv: true,
            ..Footprint::on(0)
        };
        assert_eq!(footprint_kind(&read), 0);
        assert_eq!(footprint_kind(&w(0, 1)), 1);
        assert_eq!(footprint_kind(&rmw), 2);
        assert_eq!(footprint_kind(&fence), 3, "fence wins over data shape");
        assert_eq!(footprint_kind(&boundary), 4);
        assert_eq!(footprint_kind(&Footprint::on(0)), 5);
    }

    #[test]
    fn independent_siblings_are_never_opened() {
        let mut c = DporCursor::new();
        step(&mut c, &[0, 1], 0, w(0, 1));
        step(&mut c, &[1], 0, w(1, 2));
        assert!(!c.advance(), "no race, so one run is the whole tree");
        assert_eq!(c.waste.race_total(), 0);
    }

    #[test]
    fn a_race_opens_the_other_cpu_at_the_earlier_node() {
        let mut c = DporCursor::new();
        step(&mut c, &[0, 1], 0, w(0, 7));
        step(&mut c, &[1], 0, w(1, 7));
        assert!(
            c.advance(),
            "the race puts cpu 1 in the root's backtrack set"
        );
        c.rewind();
        step(&mut c, &[0, 1], 1, w(1, 7));
        // cpu 0's write is dependent on the decision just taken, so the
        // sleeper is woken and explored again below it.
        step(&mut c, &[0], 0, w(0, 7));
        assert!(!c.advance(), "both orders explored");
        assert_eq!(c.sleep_skips, 0);
    }

    #[test]
    fn the_reversal_starts_with_an_initial_not_with_the_racing_cpu() {
        // cpu 0 writes a; cpu 1 writes b then a. Decision 2 (cpu 1's
        // second) races with decision 0, but cpu 1's *first* decision
        // is what can run at the root; the root opens cpu 1 and the
        // second run starts with the write of b.
        let mut c = DporCursor::new();
        step(&mut c, &[0, 1], 0, w(0, 7));
        step(&mut c, &[1], 0, w(1, 8));
        step(&mut c, &[1], 0, w(1, 7));
        assert!(c.advance());
        c.rewind();
        step(&mut c, &[0, 1], 1, w(1, 8));
        // cpu 0 slept at the root and the write of b is independent of
        // it: it is still asleep here, and passed over.
        step(&mut c, &[0, 1], 1, w(1, 7));
        // Woken by the write of a, it races with it — but where it
        // would have to run first it is asleep: nothing to add.
        step(&mut c, &[0], 0, w(0, 7));
        assert!(!c.advance());
        assert_eq!(c.sleep_skips, 0, "it never entered a backtrack set");
    }

    #[test]
    fn a_sleeper_that_is_all_there_is_blocks_the_run() {
        // Three CPUs: 0 and 2 conflict on a, 1 writes b. The first run
        // takes them in order; the race (0, 2) can be reversed starting
        // with cpu 1 or cpu 2, and the root opens the earlier, cpu 1.
        let mut c = DporCursor::new();
        step(&mut c, &[0, 1, 2], 0, w(0, 7));
        step(&mut c, &[1, 2], 0, w(1, 8));
        step(&mut c, &[2], 0, w(2, 7));
        assert!(c.advance());
        c.rewind();
        step(&mut c, &[0, 1, 2], 1, w(1, 8));
        // cpu 0 is asleep and the write of b did not wake it.
        step(&mut c, &[0, 2], 1, w(2, 7));
        step(&mut c, &[0], 0, w(0, 7));
        assert!(!c.advance(), "two classes, two runs");
        assert!(!c.abort_run(), "neither run was cut");

        // A sleeper with nothing else enabled cuts the run.
        let mut c = DporCursor::new();
        step(&mut c, &[0, 1], 0, w(0, 7));
        step(&mut c, &[1], 0, w(1, 7));
        assert!(c.advance());
        c.rewind();
        step(&mut c, &[0, 1], 1, w(1, 9)); // not the footprint it had below cpu 0
        c.choose(&execs(&[0]));
        assert!(c.abort_run(), "cpu 0 is asleep and independent of w(1, 9)");
        assert_eq!(c.waste.race_total(), 1, "the race of the first run");
        assert!(!c.advance());
    }

    #[test]
    fn every_enabled_action_of_the_scheduled_cpu_is_explored() {
        // cpu 0 may execute or drain; cpu 1 is independent of both. No
        // race is ever flagged, yet both of cpu 0's actions are tried
        // at the root, and cpu 1 never is.
        let root = [
            Action::Exec { cpu: 0 },
            Action::Drain { cpu: 0, idx: 0 },
            Action::Exec { cpu: 1 },
        ];
        let mut c = DporCursor::new();
        assert_eq!(c.choose(&root), 0);
        c.observe(&Footprint::on(0));
        step(&mut c, &[1], 0, w(1, 2));
        assert!(c.advance());
        c.rewind();
        assert_eq!(c.choose(&root), 1);
        c.observe(&w(0, 1));
        step(&mut c, &[1], 0, w(1, 2));
        assert!(!c.advance());
        assert_eq!(c.waste.race_total(), 0);
    }

    #[test]
    fn every_version_of_a_load_is_explored_and_none_is_an_event() {
        let r = |cpu: usize| Footprint {
            reads: AddrSet::of(&[4]),
            ..Footprint::on(cpu)
        };
        let versions = [
            Action::ReadVersion { cpu: 1, version: 0 },
            Action::ReadVersion { cpu: 1, version: 1 },
        ];
        let mut c = DporCursor::new();
        step(&mut c, &[0, 1], 0, w(0, 4));
        step(&mut c, &[1], 0, r(1)); // the load: races with the write
        assert_eq!(c.choose(&versions), 0);
        c.observe(&r(1)); // the pick: part of the load, no second race
        assert_eq!(c.waste.race_total(), 1);
        assert!(c.advance(), "the other version");
        c.rewind();
        step(&mut c, &[0, 1], 0, w(0, 4));
        step(&mut c, &[1], 0, r(1));
        assert_eq!(c.choose(&versions), 1);
        c.observe(&r(1));
        assert!(c.advance(), "then the load before the write");
        c.rewind();
        step(&mut c, &[0, 1], 1, r(1));
        assert_eq!(
            c.waste.race_total(),
            1,
            "replayed decisions are not re-counted"
        );
    }
}
