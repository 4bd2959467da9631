//! Schedulers: resolution of the machine's nondeterminism.
//!
//! At every global step the machine computes the deterministic list of
//! enabled [`Action`]s (execute a CPU's next program step, or drain one
//! of its buffered stores) and asks the scheduler to pick one.

use jungle_isa::instr::Addr;
use jungle_obs::trace::{self, EventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One schedulable action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Execute the next program step of CPU `cpu`.
    Exec {
        /// CPU index.
        cpu: usize,
    },
    /// Drain the buffered store at buffer index `idx` of CPU `cpu` to
    /// global memory.
    Drain {
        /// CPU index.
        cpu: usize,
        /// Index into the CPU's store buffer.
        idx: usize,
    },
    /// Have the load currently executing on CPU `cpu` observe the
    /// memory version at `version` (0 = newest) of its admissible
    /// staleness window.
    ///
    /// Never part of the machine's `enabled()` set: when a load on a
    /// model with a non-zero load window has more than one admissible
    /// version, the machine makes a *second* `choose` call mid-step
    /// with a synthetic list of these actions. The [`ExhaustiveCursor`]
    /// enumerates them like any other choice point.
    ReadVersion {
        /// CPU index.
        cpu: usize,
        /// Index into the admissible version list (0 = newest).
        version: usize,
    },
}

impl Action {
    /// The CPU the action runs on.
    pub fn cpu(self) -> usize {
        match self {
            Action::Exec { cpu } | Action::Drain { cpu, .. } | Action::ReadVersion { cpu, .. } => {
                cpu
            }
        }
    }

    /// Pack the action into one `u64` for portable schedule logs and
    /// flight-recorder arguments: `kind << 32 | cpu << 16 | arg`, where
    /// `arg` is the drain buffer index or the read-version index.
    pub(crate) fn encode(self) -> u64 {
        let (kind, arg) = match self {
            Action::Exec { .. } => (1u64, 0),
            Action::Drain { idx, .. } => (2u64, idx),
            Action::ReadVersion { version, .. } => (3u64, version),
        };
        (kind << 32) | ((self.cpu() as u64 & 0xffff) << 16) | (arg as u64 & 0xffff)
    }
}

/// A set of at most [`AddrSet::CAP`] distinct addresses, held inline in
/// insertion order. A set asked to hold one more becomes *full*: it
/// keeps the first `CAP` and stands for every address from then on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddrSet {
    addrs: [Addr; AddrSet::CAP],
    /// Addresses held, or [`AddrSet::FULL`].
    len: u8,
}

impl AddrSet {
    /// Addresses a set holds before it becomes full. A scheduler
    /// decision touches one address, or a CAS's or forced load's
    /// address plus every store it drains: no decision of the programs
    /// this repository runs writes more than two.
    pub const CAP: usize = 3;

    const FULL: u8 = u8::MAX;

    /// The set holding `addrs` (duplicates once).
    pub fn of(addrs: &[Addr]) -> Self {
        let mut s = AddrSet::default();
        for &a in addrs {
            s.insert(a);
        }
        s
    }

    /// Add `addr`; a set that cannot hold it becomes full.
    #[inline]
    pub(crate) fn insert(&mut self, addr: Addr) {
        if self.is_full() || self.held().contains(&addr) {
            return;
        }
        if usize::from(self.len) == Self::CAP {
            self.len = Self::FULL;
        } else {
            self.addrs[usize::from(self.len)] = addr;
            self.len += 1;
        }
    }

    /// No address at all?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Did the set overflow, so that it stands for every address?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == Self::FULL
    }

    /// The addresses held (for a full set, the first [`Self::CAP`]).
    #[inline]
    pub fn held(&self) -> &[Addr] {
        &self.addrs[..usize::from(self.len).min(Self::CAP)]
    }

    /// Do the two sets share an address? Assumes neither is full.
    #[inline]
    fn meets(&self, other: &AddrSet) -> bool {
        self.held().iter().any(|a| other.held().contains(a))
    }
}

/// The memory-level footprint of one scheduler decision: which CPU it
/// ran on, which global-memory addresses it read or wrote, and whether
/// it acted as a fence or crossed an operation boundary. The machine
/// records one footprint per `choose` call and reports each to the
/// scheduler via [`Scheduler::observe`] before the *next* call, so an
/// exploration cursor can reason about which decisions commute.
///
/// Two decisions are **dependent** (their order can matter) iff they
/// run on the same CPU, conflict on an address (one writes it), one is
/// a fence and the other writes (a CAS synchronizes with the global
/// store order), or both cross operation boundaries with at least one
/// an invocation (swapping a response past an invocation flips the
/// trace's real-time precedence relation; swapping two invocations
/// permutes the trace's operation sequence). Everything else commutes:
/// swapping two adjacent independent decisions yields a run with the
/// same per-CPU behavior and the same
/// [`Trace::cache_key`](jungle_isa::trace::Trace::cache_key) class.
///
/// A footprint is a few words and `Copy`: its address sets are inline
/// [`AddrSet`]s. A decision whose accesses overflow one is dependent on
/// every decision that touches memory — sound, since it only adds
/// dependence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// CPU the decision executed on.
    pub cpu: usize,
    /// Global-memory addresses read (loads, CAS comparisons, version
    /// picks).
    pub reads: AddrSet,
    /// Global-memory addresses written (immediate stores, drains,
    /// successful CAS, forced pre-load flushes).
    pub writes: AddrSet,
    /// True for CAS decisions: the CPU synchronized with the global
    /// store sequence, so the decision depends on every other CPU's
    /// writes.
    pub fence: bool,
    /// The decision recorded an operation invocation marker.
    pub inv: bool,
    /// The decision recorded an operation response marker.
    pub resp: bool,
}

impl Footprint {
    /// A footprint for a decision on `cpu` with no accesses yet.
    pub fn on(cpu: usize) -> Self {
        Footprint {
            cpu,
            ..Footprint::default()
        }
    }

    /// Can the order of `self` and `other` affect the run? See the type
    /// docs for the exact relation. Symmetric and over-approximate in
    /// the safe direction: anything not provably commuting is
    /// dependent.
    #[inline]
    pub fn dependent(&self, other: &Footprint) -> bool {
        if self.cpu == other.cpu {
            return true;
        }
        let conflict = if self.overflows() || other.overflows() {
            self.touches_memory() && other.touches_memory()
        } else {
            self.writes.meets(&other.writes)
                || self.writes.meets(&other.reads)
                || other.writes.meets(&self.reads)
        };
        if conflict {
            return true;
        }
        // A fence observes the global store sequence number, which any
        // write advances; two fences observe each other.
        if (self.fence && (other.fence || !other.writes.is_empty()))
            || (other.fence && !self.writes.is_empty())
        {
            return true;
        }
        // Trace precedence is `earlier.last < later.first` over
        // instruction indices — i.e. response-before-invocation pairs —
        // so swapping an adjacent cross-CPU (response, invocation) pair
        // flips a precedence bit. Invocations additionally fix the
        // trace's operation *sequence* (op ids are allocated at the
        // invocation), so two cross-CPU invocations do not commute
        // either: swapping them permutes the op list and changes
        // `Trace::cache_key`. Only response↔response swaps of
        // already-open operations leave both the sequence and the
        // precedence relation intact.
        (self.inv && (other.inv || other.resp)) || (self.resp && other.inv)
    }

    /// Did the decision read or write global memory?
    #[inline]
    pub fn touches_memory(&self) -> bool {
        !(self.reads.is_empty() && self.writes.is_empty())
    }

    /// Did the decision touch more addresses than an [`AddrSet`] holds?
    #[inline]
    pub fn overflows(&self) -> bool {
        self.reads.is_full() || self.writes.is_full()
    }
}

/// Chooses among enabled actions.
pub trait Scheduler {
    /// Pick an index into `actions` (guaranteed non-empty). The machine
    /// validates the returned index and panics if it is out of range —
    /// schedulers that replay external scripts must clamp bad entries
    /// themselves (see [`ReplayScheduler`]; [`Divergence::find`] then
    /// reports the clamp instead of letting it pass silently).
    fn choose(&mut self, actions: &[Action]) -> usize;

    /// Receive the [`Footprint`] of an earlier decision. The machine
    /// calls this once per completed decision, in decision order,
    /// always before the next `choose` (and once more before `run`
    /// returns), so by each choice point the scheduler has seen the
    /// footprints of every prior decision. Default: ignore.
    fn observe(&mut self, fp: &Footprint) {
        let _ = fp;
    }

    /// Should the machine abandon the current run? Checked after every
    /// `choose`; a `true` stops the run before the chosen action
    /// executes and reports it with `aborted == true`. Exploration
    /// cursors use this to cut runs whose remaining behaviors are
    /// provably covered elsewhere (sleep-set blocked nodes). Default:
    /// never.
    fn abort_run(&self) -> bool {
        false
    }
}

/// Uniform random choices from a seeded generator (reproducible
/// fuzzing).
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// A scheduler seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, actions: &[Action]) -> usize {
        self.rng.gen_range(0..actions.len())
    }
}

/// Random scheduler with *bursts*: it repeatedly picks a CPU and a
/// burst length and then prefers that CPU's actions for the duration of
/// the burst. Bursts make the narrow windows of the paper's Figure 5
/// constructions (several consecutive steps of one process between two
/// consecutive steps of another) exponentially more likely than under
/// uniform choice, while still producing only legal schedules.
#[derive(Clone, Debug)]
pub struct BurstyScheduler {
    rng: StdRng,
    target: usize,
    remaining: usize,
}

impl BurstyScheduler {
    /// A bursty scheduler seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        BurstyScheduler {
            rng: StdRng::seed_from_u64(seed),
            target: 0,
            remaining: 0,
        }
    }
}

impl Scheduler for BurstyScheduler {
    fn choose(&mut self, actions: &[Action]) -> usize {
        if self.remaining == 0 {
            self.target = self.rng.gen_range(0..8);
            self.remaining = self.rng.gen_range(1..=8);
        }
        self.remaining -= 1;
        let target = self.target;
        let preferred = actions.iter().filter(|a| a.cpu() == target).count();
        if preferred == 0 {
            return self.rng.gen_range(0..actions.len());
        }
        // The k-th of the target's actions: the same draw as indexing a
        // list of them, without building one.
        let k = self.rng.gen_range(0..preferred);
        actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.cpu() == target)
            .nth(k)
            .map_or(0, |(i, _)| i)
    }
}

/// Replay cursor for exhaustive (DFS) exploration: replays a recorded
/// prefix of choices, then takes the first option at every new choice
/// point while recording how many options existed.
#[derive(Clone, Debug, Default)]
pub struct ExhaustiveCursor {
    /// `(chosen, n_options)` per choice point.
    pub stack: Vec<(usize, usize)>,
    pos: usize,
}

impl ExhaustiveCursor {
    /// Reset the replay position for the next run.
    pub(crate) fn rewind(&mut self) {
        self.pos = 0;
    }

    /// Advance to the lexicographically next choice string. Returns
    /// `false` when the space is exhausted.
    pub(crate) fn advance(&mut self) -> bool {
        while let Some((chosen, n)) = self.stack.pop() {
            if chosen + 1 < n {
                self.stack.push((chosen + 1, n));
                return true;
            }
        }
        false
    }
}

impl Scheduler for ExhaustiveCursor {
    fn choose(&mut self, actions: &[Action]) -> usize {
        if self.pos < self.stack.len() {
            let c = self.stack[self.pos].0;
            self.pos += 1;
            c.min(actions.len() - 1)
        } else {
            self.stack.push((0, actions.len()));
            self.pos += 1;
            0
        }
    }
}

// ── record / replay ──────────────────────────────────────────────────

/// One scheduler decision: which index was chosen out of how many
/// options, and the encoded action it selected. The machine logs one
/// per `choose` call in [`RunResult::decisions`](crate::RunResult::decisions).
///
/// The `options` count and encoded `action` are redundant with `chosen`
/// for the run that produced them — they exist so a replay on a changed
/// machine can detect *where* the choice lists stopped matching instead
/// of silently taking a different schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChoicePoint {
    /// Index chosen from the action list.
    pub chosen: usize,
    /// Length of the action list at this choose point.
    pub options: usize,
    /// The chosen action, encoded (`Action::encode`).
    pub action: u64,
}

/// The first point where a replayed run stopped matching its recording.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Index of the diverging choose point (0-based).
    pub step: usize,
    /// Option count the recording saw at this point.
    pub expected_options: usize,
    /// Option count the replayed machine offered.
    pub actual_options: usize,
    /// Encoded action the recording chose.
    pub expected_action: u64,
    /// Encoded action the replay ended up taking.
    pub actual_action: u64,
}

impl Divergence {
    /// The first choose point where a replayed run's own
    /// [`decisions`](crate::RunResult::decisions) differ from the
    /// `recorded` script: in option count, in the action taken, or by a
    /// recorded index the replay had to clamp (even to an identically
    /// encoded action). Points past either end are not compared. Emits
    /// a `ReplayDivergence` flight event when it finds one.
    pub fn find(recorded: &[ChoicePoint], replayed: &[ChoicePoint]) -> Option<Divergence> {
        let mut points = recorded.iter().zip(replayed).enumerate();
        let (step, (cp, got)) = points.find(|(_, (cp, got))| {
            cp.options != got.options || cp.action != got.action || cp.chosen >= got.options
        })?;
        trace::emit(EventKind::ReplayDivergence, step as u64, cp.action);
        Some(Divergence {
            step,
            expected_options: cp.options,
            actual_options: got.options,
            expected_action: cp.action,
            actual_action: got.action,
        })
    }
}

/// Deterministically re-executes a recorded decision sequence.
///
/// Each `choose` plays the next recorded index (clamped to the offered
/// list); past the end of the script it picks 0, so shrunk logs — which
/// are *prefixes with holes* of the original — still drive a complete
/// run, and the empty script always takes the first enabled action in
/// CPU order (the paper's hand-constructed Figure 5 interleavings).
/// Whether the replay followed its script is read off the run's own
/// decisions afterwards, by [`Divergence::find`].
#[derive(Clone, Debug, Default)]
pub struct ReplayScheduler<'a> {
    script: &'a [ChoicePoint],
    pos: usize,
}

impl<'a> ReplayScheduler<'a> {
    /// A scheduler that replays `script`.
    pub fn new(script: &'a [ChoicePoint]) -> Self {
        ReplayScheduler { script, pos: 0 }
    }
}

impl Scheduler for ReplayScheduler<'_> {
    fn choose(&mut self, actions: &[Action]) -> usize {
        let cp = self.script.get(self.pos);
        self.pos += 1;
        cp.map_or(0, |cp| cp.chosen.min(actions.len() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acts(n: usize) -> Vec<Action> {
        (0..n).map(|cpu| Action::Exec { cpu }).collect()
    }

    #[test]
    fn random_is_reproducible() {
        let mut a = RandomScheduler::new(42);
        let mut b = RandomScheduler::new(42);
        for _ in 0..32 {
            assert_eq!(a.choose(&acts(4)), b.choose(&acts(4)));
        }
    }

    #[test]
    fn action_encodings_are_distinct() {
        let all = [
            Action::Exec { cpu: 0 },
            Action::Exec { cpu: 1 },
            Action::Drain { cpu: 0, idx: 0 },
            Action::Drain { cpu: 0, idx: 1 },
            Action::Drain { cpu: 1, idx: 0 },
            Action::ReadVersion { cpu: 0, version: 0 },
            Action::ReadVersion { cpu: 0, version: 1 },
        ];
        let codes: std::collections::HashSet<u64> = all.iter().map(|a| a.encode()).collect();
        assert_eq!(codes.len(), all.len());
    }

    fn cp(chosen: usize, options: usize, cpu: usize) -> ChoicePoint {
        ChoicePoint {
            chosen,
            options,
            action: Action::Exec { cpu }.encode(),
        }
    }

    #[test]
    fn replay_plays_its_script_then_defaults_to_zero() {
        let script = [cp(1, 3, 1), cp(2, 3, 2)];
        let mut rep = ReplayScheduler::new(&script);
        assert_eq!(rep.choose(&acts(3)), 1);
        assert_eq!(rep.choose(&acts(2)), 1, "clamped to the offered list");
        assert_eq!(rep.choose(&acts(3)), 0);
        let mut empty = ReplayScheduler::default();
        assert_eq!(empty.choose(&acts(3)), 0);
    }

    #[test]
    fn divergence_is_the_first_mismatch() {
        let recorded = [cp(0, 2, 0), cp(1, 4, 3), cp(0, 1, 0)];
        // The replay was offered 2 options at step 1, not 4.
        let replayed = [cp(0, 2, 0), cp(1, 2, 1), cp(0, 1, 0)];
        let d = Divergence::find(&recorded, &replayed).expect("must diverge at step 1");
        assert_eq!(d.step, 1);
        assert_eq!(d.expected_options, 4);
        assert_eq!(d.actual_options, 2);
        assert_eq!(d.expected_action, Action::Exec { cpu: 3 }.encode());
        assert_eq!(d.actual_action, Action::Exec { cpu: 1 }.encode());
        assert_eq!(Divergence::find(&recorded, &recorded), None);
        // Points past either end are not compared.
        assert_eq!(Divergence::find(&recorded[..1], &replayed), None);
        assert_eq!(Divergence::find(&recorded, &replayed[..1]), None);
    }

    #[test]
    fn divergence_flags_out_of_range_recorded_choice() {
        // A corrupted log whose index exceeds the offered list must
        // surface as a Divergence even when the clamped action matches
        // the recorded encoding (the clamp is not silent).
        let recorded = [cp(7, 2, 1)];
        assert_eq!(ReplayScheduler::new(&recorded).choose(&acts(2)), 1);
        let d =
            Divergence::find(&recorded, &[cp(1, 2, 1)]).expect("out-of-range index must diverge");
        assert_eq!(d.step, 0);
        assert_eq!(d.actual_action, Action::Exec { cpu: 1 }.encode());
    }

    #[test]
    fn footprint_dependence_relation() {
        let mem = |cpu: usize, reads: &[Addr], writes: &[Addr]| Footprint {
            cpu,
            reads: AddrSet::of(reads),
            writes: AddrSet::of(writes),
            ..Footprint::default()
        };
        // Same CPU: always dependent, even with empty footprints.
        assert!(Footprint::on(0).dependent(&Footprint::on(0)));
        // Cross-CPU reads of the same address commute.
        assert!(!mem(0, &[5], &[]).dependent(&mem(1, &[5], &[])));
        // Write-read and write-write conflicts do not.
        assert!(mem(0, &[], &[5]).dependent(&mem(1, &[5], &[])));
        assert!(mem(0, &[5], &[]).dependent(&mem(1, &[], &[5])));
        assert!(mem(0, &[], &[5]).dependent(&mem(1, &[], &[5])));
        // Disjoint addresses commute.
        assert!(!mem(0, &[], &[5]).dependent(&mem(1, &[6], &[7])));
        // A fence depends on any other-CPU write (and other fences),
        // but not on a pure read.
        let fence = Footprint {
            fence: true,
            ..Footprint::on(0)
        };
        assert!(fence.dependent(&mem(1, &[], &[9])));
        assert!(mem(1, &[], &[9]).dependent(&fence));
        assert!(!fence.dependent(&mem(1, &[9], &[])));
        assert!(fence.dependent(&Footprint {
            fence: true,
            ..Footprint::on(1)
        }));
        // Cross-CPU response/invocation pairs flip trace precedence.
        let inv = Footprint {
            inv: true,
            ..Footprint::on(0)
        };
        let resp = Footprint {
            resp: true,
            ..Footprint::on(1)
        };
        assert!(inv.dependent(&resp));
        assert!(resp.dependent(&inv));
        // Two invocations fix the trace's operation sequence (op ids
        // are allocated at the invocation): dependent.
        assert!(inv.dependent(&Footprint {
            inv: true,
            ..Footprint::on(1)
        }));
        // Responses of already-open operations commute.
        assert!(!resp.dependent(&Footprint {
            resp: true,
            ..Footprint::on(0)
        }));
    }

    #[test]
    fn addr_set_holds_cap_then_stands_for_everything() {
        let mut s = AddrSet::default();
        assert!(s.is_empty());
        for a in [3, 1, 3, 2, 1] {
            s.insert(a);
        }
        assert_eq!(AddrSet::CAP, 3);
        assert_eq!(s.held(), &[3, 1, 2]);
        assert!(!s.is_full());
        s.insert(9);
        assert!(s.is_full());
        assert_eq!(s.held(), &[3, 1, 2], "a full set keeps the first CAP");
        assert_eq!(s, AddrSet::of(&[3, 1, 2, 9, 10]));
    }

    #[test]
    fn exhaustive_cursor_enumerates_all_strings() {
        // Simulate a machine with two choice points of 2 and 3 options.
        let mut cursor = ExhaustiveCursor::default();
        let mut seen = Vec::new();
        loop {
            cursor.rewind();
            let a = cursor.choose(&acts(2));
            let b = cursor.choose(&acts(3));
            seen.push((a, b));
            if !cursor.advance() {
                break;
            }
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], (0, 0));
        assert!(seen.contains(&(1, 2)));
    }
}
