//! Verification driver: programs × algorithms × schedules → verdicts.
//!
//! The paper defines: a TM implementation `I` *guarantees opacity
//! parametrized by `M`* iff for every trace `r ∈ L(I)` **there exists**
//! a corresponding history that ensures opacity parametrized by `M`
//! (and analogously for SGLA). [`trace_satisfies`] decides the inner
//! existential (trying the cheap canonical correspondence first); a
//! [`Sweep`] discharges the outer universal — by exhaustive schedule
//! exploration ([`Schedules::Exhaustive`], small programs) or by
//! sampling seeded-random schedules ([`Schedules::Random`]).
//!
//! A sweep is one request type, the mc-level sibling of
//! [`jungle_core::check::Check`]: program, algorithm, registry entry,
//! property, step bound, schedules, workers, verdict memo. It takes a
//! [`ModelEntry`] — the unified handle from the model registry bundling
//! the checker-side `MemoryModel` with the execution-side
//! `ExecSemantics` the simulated machine runs under — instead of
//! separate hardware/model arguments, so the two facades can never
//! drift apart at a call site.
//!
//! ### Redundancy elimination
//!
//! Exhaustive store-buffer scheduling produces many instruction-level
//! interleavings that collapse to the *same* operations with the same
//! overlap structure — and the inner existential depends on nothing
//! else. Every run of every sweep therefore goes through one judging
//! routine that deduplicates completed traces by [`Trace::cache_key`]
//! (skips counted as `McStats::dedup_hits`) and memoizes per-history
//! checker verdicts in a [`SharedVerdictMemo`] keyed by `(model key,
//! CheckKind, History::cache_key)` (hits counted as
//! `McStats::memo_hits`). Because the key carries the model and the
//! property, one memo can safely be **shared across sweeps** —
//! [`Sweep::memo`] accepts a caller-owned one so a report run spanning
//! many experiments reuses verdicts; without it each sweep creates a
//! private one. History fingerprints are 64-bit structural hashes; a
//! collision between distinct structures is possible in principle but
//! vanishingly unlikely.
//!
//! ### Partial-order reduction
//!
//! The exhaustive sweep does not enumerate raw schedules at all: it
//! runs the source-set DPOR explorer ([`crate::dpor`]), which executes
//! one machine run per Mazurkiewicz equivalence class of decisions —
//! orders of magnitude fewer runs than enumeration on store-buffer
//! machines, with the same set of classes and therefore the same
//! verdict. The explorer meets the classes in its own depth-first
//! order, not in the lexicographic order of the full schedule tree, so
//! the violation a failing sweep reports is the first violating class
//! in *that* order: deterministic and equal on repeated runs, but not
//! necessarily the trace enumeration would have flagged first. The
//! pre-reduction algorithm survives only as the oracle in
//! `tests/dpor_props.rs`, built on [`jungle_memsim::explore`]: the
//! explorer must produce exactly the class-key set and the verdict
//! that enumeration does, and a witness among enumeration's violating
//! classes.
//!
//! ### Parallel sweeps
//!
//! [`Sweep::parallel`] applies to [`Schedules::Random`] only. The
//! exhaustive exploration is one serial depth-first search whatever it
//! says (see [`crate::dpor`]), so its verdict, witness and counters do
//! not depend on the setting.
//!
//! The random sweep stripes the seed range over the workers (a loop,
//! not a pool: worker `t` takes seeds `t, t + threads, …`). The `ok`
//! verdict is deterministic (dedup only ever skips a trace whose
//! structural twin was already decided, with the same verdict), and
//! the reported violation comes from the lowest violating seed: a
//! worker never skips a seed smaller than the best violation found so
//! far, only larger ones, and a run whose twin another worker is still
//! checking is checked again rather than skipped. Per-run counters
//! (`runs`, `dedup_hits`, `histories_checked`, `memo_hits`) may differ
//! from the serial sweep, which stops at the first violating seed.
//!
//! A failing sweep's violation is a [`Counterexample`]: the trace with
//! the decisions the machine logged while producing it, replayable
//! whichever driver found it, so no caller has to sweep again to
//! record, explain or replay it.

use crate::algos::TmAlgo;
use crate::dpor::explore_dpor;
use crate::program::Program;
use jungle_core::check::Check;
use jungle_core::history::History;
use jungle_core::ids::ProcId;
use jungle_core::model::MemoryModel;
use jungle_core::par::ParallelConfig;
use jungle_core::registry::ModelEntry;
use jungle_isa::trace::Trace;
use jungle_memsim::{
    Action, BurstyScheduler, ChoicePoint, HwModel, Machine, RandomScheduler, RunResult, Scheduler,
};
use jungle_obs::trace::{self as flight, EventKind};
use jungle_obs::{profile, DporStats, McStats};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use jungle_core::check::CheckKind;

/// The seed range of a randomized sweep, with an **explicit** base so
/// two sweeps over the same program are reproducibly identical iff
/// their `(base, runs)` pairs are — there is no hidden default seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SweepSeeds {
    /// First seed used.
    pub base: u64,
    /// Number of consecutive seeds (`base, base+1, …, base+runs-1`).
    pub runs: u64,
}

impl SweepSeeds {
    /// The sweep over seeds `base, base+1, …, base+runs-1`.
    pub fn new(base: u64, runs: u64) -> Self {
        SweepSeeds { base, runs }
    }

    /// The seeds, in order.
    pub fn iter(self) -> impl Iterator<Item = u64> {
        self.base..self.base.saturating_add(self.runs)
    }
}

/// Outcome of a multi-trace verification.
#[derive(Debug)]
pub struct Verdict {
    /// True if every checked trace had a satisfying corresponding
    /// history. Deterministic: independent of thread count and, for
    /// randomized sweeps, fully determined by the explicit
    /// [`SweepSeeds`].
    pub ok: bool,
    /// A violating run, if one was found: for an exhaustive sweep the
    /// first violating class in the DPOR explorer's own depth-first
    /// order (deterministic, the same at any `parallel` setting, not
    /// necessarily the one enumeration meets first); for a random sweep
    /// the run of the lowest violating seed, at any worker count.
    pub violation: Option<Counterexample>,
    /// Number of runs examined. For a parallel random sweep this may
    /// exceed the serial early-stop count (see module docs); it is zero
    /// for a vacuously passing verdict.
    pub runs: usize,
    /// Runs that hit the step bound before completing. Completed-trace
    /// checking never includes these; like `runs`, zero when nothing
    /// was explored.
    pub truncated: usize,
    /// Exploration counters: checked model key, schedules, histories
    /// checked, dedup/memo hits, worker threads, and the aggregated
    /// simulated-machine statistics.
    pub stats: McStats,
    /// The DPOR explorer's race-pair heat table (empty for randomized
    /// sweeps). Its total equals `stats.races`.
    pub waste: DporStats,
}

/// A violating run as a sweep found it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The run's trace: no corresponding history satisfies the
    /// property.
    pub trace: Trace,
    /// The scheduler decisions that produced it; replayed through a
    /// [`ReplayScheduler`](jungle_memsim::ReplayScheduler) on the
    /// sweep's machine, they reproduce the trace.
    pub decisions: Vec<ChoicePoint>,
    /// The seed whose scheduler made the decisions, for a random sweep
    /// (`None` for an exhaustive one).
    pub seed: Option<u64>,
}

impl Verdict {
    fn passing(entry: &ModelEntry) -> Self {
        Verdict {
            ok: true,
            violation: None,
            runs: 0,
            truncated: 0,
            stats: McStats {
                model: entry.key,
                ..McStats::default()
            },
            waste: DporStats::default(),
        }
    }
}

/// One memoized verdict with its provenance (computed this run vs
/// preloaded from a previous run's persisted memo).
#[derive(Clone, Copy)]
struct MemoVerdict {
    ok: bool,
    from_disk: bool,
}

/// Bounded memo of per-history checker verdicts, keyed by
/// `(model key, CheckKind, History::cache_key)`.
///
/// Because the model and the property are part of the key, a single
/// memo is safe to share across sweeps with different parameters —
/// [`Sweep::memo`] takes one by reference, and a report run covering
/// many experiments pays for each distinct (model, property, history)
/// search only once. Stops admitting entries when full rather
/// than evicting. [`SharedVerdictMemo::hits`] /
/// [`SharedVerdictMemo::lookups`] expose lifetime counters for the
/// report's memo-efficiency metrics.
///
/// The memo also **persists across runs**: [`SharedVerdictMemo::save_dir`]
/// writes one file per `(model, property)` under a directory (the
/// report's `--memo-dir`), and [`SharedVerdictMemo::load_dir`]
/// preloads them on start. Preloaded entries are tracked separately —
/// [`SharedVerdictMemo::cross_run_hits`] counts lookups answered by a
/// *previous* run's search, so the report can surface cross-run vs
/// in-run reuse as distinct rates. Persistence is sound for the same
/// reason sharing is: the key carries the model and the property, and
/// the checker verdict for a history fingerprint is a pure function of
/// both.
pub struct SharedVerdictMemo {
    cap: usize,
    map: Mutex<HashMap<(&'static str, CheckKind, u64), MemoVerdict>>,
    hits: AtomicU64,
    lookups: AtomicU64,
    cross_hits: AtomicU64,
    preloaded: AtomicU64,
}

impl SharedVerdictMemo {
    /// Default entry budget: enough for every distinct history that
    /// litmus-scale sweeps produce, with a hard memory ceiling.
    const DEFAULT_CAP: usize = 1 << 16;

    /// A memo with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// A memo admitting at most `cap` entries.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        SharedVerdictMemo {
            cap,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            cross_hits: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
        }
    }

    /// Lifetime count of lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Hits answered by an entry preloaded from a previous run (a
    /// subset of [`SharedVerdictMemo::hits`]).
    pub fn cross_run_hits(&self) -> u64 {
        self.cross_hits.load(Ordering::Relaxed)
    }

    /// Entries preloaded from disk by [`SharedVerdictMemo::load_dir`].
    pub fn preloaded_entries(&self) -> u64 {
        self.preloaded.load(Ordering::Relaxed)
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a memoized verdict for `(model, kind, fingerprint)`.
    /// Public entry point for external consumers (e.g. the streaming
    /// monitor's escalation path); counts as a lookup and, on success,
    /// a hit.
    pub fn lookup(&self, model: &'static str, kind: CheckKind, fingerprint: u64) -> Option<bool> {
        self.get((model, kind, fingerprint))
    }

    /// Record a freshly computed verdict for `(model, kind,
    /// fingerprint)`. Sound for any caller because the verdict for a
    /// history fingerprint is a pure function of the key.
    pub fn record(&self, model: &'static str, kind: CheckKind, fingerprint: u64, verdict: bool) {
        self.put((model, kind, fingerprint), verdict);
    }

    fn get(&self, key: (&'static str, CheckKind, u64)) -> Option<bool> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let v = self.map.lock().unwrap().get(&key).copied();
        if let Some(e) = v {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if e.from_disk {
                self.cross_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some(e.ok);
        }
        None
    }

    fn put(&self, key: (&'static str, CheckKind, u64), verdict: bool) {
        self.insert(
            key,
            MemoVerdict {
                ok: verdict,
                from_disk: false,
            },
        );
    }

    fn insert(&self, key: (&'static str, CheckKind, u64), v: MemoVerdict) {
        let mut m = self.map.lock().unwrap();
        if m.len() < self.cap {
            m.insert(key, v);
        }
    }

    /// Preload one verdict from a previous run. The model key must be
    /// `'static` (callers resolve names through the
    /// [registry](jungle_core::registry::registry)).
    pub(crate) fn preload(
        &self,
        model: &'static str,
        kind: CheckKind,
        fingerprint: u64,
        verdict: bool,
    ) {
        self.insert(
            (model, kind, fingerprint),
            MemoVerdict {
                ok: verdict,
                from_disk: true,
            },
        );
        self.preloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Persist every memoized verdict under `dir`, one
    /// `<model>.<property>.memo` file per `(model, property)` pair with
    /// `fingerprint verdict` lines. Returns the number of entries
    /// written. Files are rewritten whole, so stale verdicts never
    /// accumulate.
    pub fn save_dir(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let map = self.map.lock().unwrap();
        let mut by_file: HashMap<(&'static str, CheckKind), Vec<(u64, bool)>> = HashMap::new();
        for (&(model, kind, fp), v) in map.iter() {
            by_file.entry((model, kind)).or_default().push((fp, v.ok));
        }
        let mut written = 0;
        for ((model, kind), mut entries) in by_file {
            entries.sort_unstable();
            let path = dir.join(format!("{model}.{}.memo", kind.tag()));
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (fp, ok) in entries {
                writeln!(f, "{fp} {}", u64::from(ok))?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Preload every persisted verdict found under `dir` (files written
    /// by [`SharedVerdictMemo::save_dir`]). Model names are resolved
    /// through the canonical registry; files for unknown models or
    /// properties are skipped, as is every line that is not exactly
    /// `<u64> <0|1>` (a torn tail, a verdict other than `0`/`1`,
    /// trailing tokens). Returns the number of entries loaded. A
    /// missing directory is not an error.
    pub fn load_dir(&self, dir: &Path) -> std::io::Result<usize> {
        let rd = match std::fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut loaded = 0;
        for entry in rd {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".memo") else {
                continue;
            };
            let Some((model_name, kind_tag)) = stem.rsplit_once('.') else {
                continue;
            };
            let Some(kind) = CheckKind::from_tag(kind_tag) else {
                continue;
            };
            // Resolve the on-disk name to the registry's 'static key.
            let Some(model) = jungle_core::registry::entry(model_name).map(|e| e.key) else {
                continue;
            };
            let text = std::fs::read_to_string(&path)?;
            for line in text.lines() {
                // Exactly what `save_dir` writes: `<u64> <0|1>`.
                let Some((fp, v)) = line.split_once(' ') else {
                    continue;
                };
                let Ok(fp) = fp.parse::<u64>() else {
                    continue;
                };
                let ok = match v {
                    "0" => false,
                    "1" => true,
                    _ => continue,
                };
                self.preload(model, kind, fp, ok);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

impl Default for SharedVerdictMemo {
    fn default() -> Self {
        Self::new()
    }
}

/// Does some history corresponding to `trace` satisfy the property
/// under `model`?
pub fn trace_satisfies(trace: &Trace, model: &dyn MemoryModel, kind: CheckKind) -> bool {
    trace_satisfies_memo(trace, model, &Check::new(kind), None).0
}

/// [`trace_satisfies`] deciding each history with `check`, with an
/// optional verdict memo binding (the memo plus the model key to scope
/// entries under); returns the verdict and the number of memo hits.
fn trace_satisfies_memo(
    trace: &Trace,
    model: &dyn MemoryModel,
    check: &Check,
    memo: Option<(&SharedVerdictMemo, &'static str)>,
) -> (bool, u64) {
    let mut memo_hits = 0u64;
    let mut pass = |h: &History| {
        let key = memo.map(|(_, mk)| (mk, check.kind, h.cache_key()));
        if let (Some((m, _)), Some(k)) = (memo, key) {
            if let Some(v) = m.get(k) {
                memo_hits += 1;
                return v;
            }
        }
        let v = check.run(h, model).0.holds();
        if let (Some((m, _)), Some(k)) = (memo, key) {
            m.put(k, v);
        }
        v
    };
    // Fast path: the canonical linearize-at-response history.
    let canonical = trace.canonical_history().ok();
    if let Some(h) = &canonical {
        if pass(h) {
            return (true, memo_hits);
        }
    }
    // The canonical history failed (or was ill-formed); enumerate the
    // rest, skipping the canonical order so it is not checked twice.
    let canon_ids: Option<Vec<jungle_core::ids::OpId>> =
        canonical.map(|h| h.ops().iter().map(|o| o.id).collect());
    let found = trace.exists_corresponding(|h| {
        if let Some(ids) = &canon_ids {
            if h.ops().iter().map(|o| o.id).eq(ids.iter().copied()) {
                return false; // already rejected above
            }
        }
        pass(h)
    });
    (found.is_some(), memo_hits)
}

/// Build the simulated machine for `program` under `algo` on `hw` —
/// the exact construction every sweep in this module uses. Public so
/// the record/replay engine (`jungle-replay`) re-executes schedule logs
/// on machines identical to the ones that produced them.
pub fn machine_for(program: &Program, algo: &dyn TmAlgo, hw: HwModel) -> Machine {
    let procs = program
        .0
        .iter()
        .enumerate()
        .map(|(i, t)| algo.make_process(ProcId(i as u32), t.clone()))
        .collect();
    Machine::new(hw, procs)
}

/// The scheduler the randomized sweeps use for one seed: uniform for
/// even seeds (diffuse interleavings), bursty for odd ones (the tight
/// windows of the paper's Figure 5 constructions).
#[derive(Clone, Debug)]
pub enum SeedScheduler {
    /// An even seed's uniform scheduler.
    Uniform(RandomScheduler),
    /// An odd seed's bursty scheduler.
    Bursty(BurstyScheduler),
}

impl SeedScheduler {
    /// The scheduler for `seed`.
    pub fn new(seed: u64) -> Self {
        if seed.is_multiple_of(2) {
            SeedScheduler::Uniform(RandomScheduler::new(seed))
        } else {
            SeedScheduler::Bursty(BurstyScheduler::new(seed))
        }
    }
}

impl Scheduler for SeedScheduler {
    fn choose(&mut self, actions: &[Action]) -> usize {
        match self {
            SeedScheduler::Uniform(s) => s.choose(actions),
            SeedScheduler::Bursty(s) => s.choose(actions),
        }
    }
}

/// [`SeedScheduler::new`], boxed.
pub fn scheduler_for_seed(seed: u64) -> Box<dyn Scheduler> {
    Box::new(SeedScheduler::new(seed))
}

/// Which schedules a [`Sweep`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedules {
    /// Every schedule, one machine run per Mazurkiewicz class
    /// (source-set DPOR, one serial search). Use only for litmus-sized
    /// programs: the class count is still exponential.
    Exhaustive,
    /// One seeded-random schedule per seed (see [`SeedScheduler`]).
    /// Two sweeps with equal [`SweepSeeds`] replay byte-identical
    /// schedules.
    Random(SweepSeeds),
}

/// One sweep request: run `program` under `algo` on `entry`'s execution
/// semantics along `schedules`, and check every completed trace against
/// `entry`'s memory model once per structural equivalence class (see
/// the module docs).
#[derive(Clone, Copy)]
pub struct Sweep<'a> {
    /// The multiprocess program.
    pub program: &'a Program,
    /// The TM algorithm under test.
    pub algo: &'a dyn TmAlgo,
    /// Checker-side model and execution-side semantics, as one handle.
    pub entry: &'a ModelEntry,
    /// Opacity or SGLA.
    pub kind: CheckKind,
    /// Step bound per machine run; a run that hits it is *truncated*
    /// and never checked.
    pub max_steps: usize,
    /// Which schedules to run.
    pub schedules: Schedules,
    /// `Some` stripes a [`Schedules::Random`] sweep over
    /// `effective_threads()` workers; verdict and violating trace still
    /// match the serial sweep (see the module docs).
    /// [`Schedules::Exhaustive`] ignores it.
    pub parallel: Option<ParallelConfig>,
    /// A caller-owned verdict memo to reuse across sweeps; `None` uses
    /// a private one.
    pub memo: Option<&'a SharedVerdictMemo>,
}

impl<'a> Sweep<'a> {
    /// The serial exhaustive DFS-backed sweep with a private memo.
    pub fn new(
        program: &'a Program,
        algo: &'a dyn TmAlgo,
        entry: &'a ModelEntry,
        kind: CheckKind,
        max_steps: usize,
    ) -> Self {
        Sweep {
            program,
            algo,
            entry,
            kind,
            max_steps,
            schedules: Schedules::Exhaustive,
            parallel: None,
            memo: None,
        }
    }

    /// Run the sweep.
    pub fn run(&self) -> Verdict {
        let private;
        let memo = match self.memo {
            Some(shared) => shared,
            None => {
                private = SharedVerdictMemo::new();
                &private
            }
        };
        let judge = Judge::new(self, memo);
        let verdict = match self.schedules {
            Schedules::Exhaustive => self.explore_classes(&judge),
            Schedules::Random(seeds) => {
                let threads = self.parallel.map_or(1, |cfg| cfg.effective_threads());
                self.sample(&judge, seeds, threads)
            }
        };
        judge.conclude(verdict)
    }

    fn machine(&self) -> Machine {
        machine_for(self.program, self.algo, self.entry.exec)
    }

    /// The DPOR driver. It stops at the first violating class.
    fn explore_classes(&self, judge: &Judge<'_>) -> Verdict {
        let out = explore_dpor(|| self.machine(), self.max_steps, |r| judge.judge(r, None));
        let mut verdict = Verdict::passing(self.entry);
        verdict.runs = out.executed;
        verdict.truncated = out.truncated;
        verdict.stats.machine = out.stats;
        verdict.stats.dpor_executed = out.executed as u64;
        verdict.stats.dpor_classes = out.classes as u64;
        verdict.stats.dpor_blocked = out.blocked as u64;
        verdict.stats.sleep_skips = out.sleep_skips;
        verdict.stats.races = out.races;
        verdict.waste = out.waste;
        verdict
    }

    /// The random drivers: one stripe of the seed range inline, or one
    /// per worker. Violations are ranked by seed.
    fn sample(&self, judge: &Judge<'_>, seeds: SweepSeeds, threads: usize) -> Verdict {
        let threads = threads.min(seeds.runs.max(1) as usize);
        // The earliest violating seed found so far; later seeds can
        // never lower it, so every stripe stops there.
        let best = AtomicU64::new(u64::MAX);
        let stripe = |t: usize| {
            let mut local = Verdict::passing(self.entry);
            // One machine per worker; each schedule runs a copy of it.
            let root = self.machine();
            let mut machine = root.clone();
            for seed in seeds.iter().skip(t).step_by(threads) {
                if seed > best.load(Ordering::Relaxed) {
                    break;
                }
                let r = machine.run_from(&root, &mut SeedScheduler::new(seed), self.max_steps);
                local.runs += 1;
                local.truncated += usize::from(!r.completed);
                local.stats.machine.absorb(&r.stats);
                if judge.judge(r, Some(seed)) {
                    best.fetch_min(seed, Ordering::Relaxed);
                }
            }
            local
        };
        if threads <= 1 {
            return stripe(0);
        }
        let mut verdict = Verdict::passing(self.entry);
        verdict.stats.workers = threads as u64;
        let from = profile::spawn_point();
        std::thread::scope(|s| {
            let stripe = &stripe;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let _path = profile::inherit(from);
                        stripe(t)
                    })
                })
                .collect();
            for h in handles {
                let local = h.join().expect("random-sweep worker panicked");
                verdict.runs += local.runs;
                verdict.truncated += local.truncated;
                verdict.stats.machine.absorb(&local.stats.machine);
            }
        });
        verdict
    }
}

/// The per-run judging routine every sweep driver calls, with the
/// sweep-wide state it needs: the dedup set, the counters, and the
/// least-ranked violation — the first one in exploration (or seed)
/// order, at every worker count. Thread-safe, so parallel drivers judge
/// inline in the worker that executed the run (the explorer already
/// distributes machine runs; a separate checker pool would idle).
struct Judge<'a> {
    check: Check,
    entry: &'a ModelEntry,
    memo: &'a SharedVerdictMemo,
    /// Every class key met so far, with its verdict once decided
    /// (`None` while a worker is still checking it).
    seen: Mutex<HashMap<u64, Option<bool>>>,
    schedules: AtomicU64,
    dedup_hits: AtomicU64,
    histories_checked: AtomicU64,
    memo_hits: AtomicU64,
    violation: Mutex<Option<Counterexample>>,
}

/// Why a poisoned judge lock is fatal: the panic that poisoned it is
/// already unwinding the sweep.
const POISON: &str = "a sweep worker panicked";

impl<'a> Judge<'a> {
    fn new(sweep: &Sweep<'a>, memo: &'a SharedVerdictMemo) -> Self {
        Judge {
            check: Check::new(sweep.kind),
            entry: sweep.entry,
            memo,
            seen: Mutex::new(HashMap::new()),
            schedules: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            histories_checked: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            violation: Mutex::new(None),
        }
    }

    /// Judge one machine run (of `seed`, for a random sweep); `true`
    /// means it is a violating leaf. Truncated runs are skipped (the
    /// drivers count them), and the checker runs once per class key —
    /// or again, when a parallel worker meets a class another is still
    /// checking: skipping it would lose a lower-seeded twin if that
    /// class violates.
    fn judge(&self, r: &RunResult, seed: Option<u64>) -> bool {
        let seq = self.schedules.fetch_add(1, Ordering::Relaxed);
        if !r.completed {
            return false;
        }
        let key = r.trace.cache_key();
        let decided = *self.seen.lock().expect(POISON).entry(key).or_default();
        let ok = match decided {
            Some(ok) => {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                ok
            }
            None => {
                self.histories_checked.fetch_add(1, Ordering::Relaxed);
                let (ok, hits) = trace_satisfies_memo(
                    &r.trace,
                    self.entry.model,
                    &self.check,
                    Some((self.memo, self.entry.key)),
                );
                self.memo_hits.fetch_add(hits, Ordering::Relaxed);
                self.seen.lock().expect(POISON).insert(key, Some(ok));
                if !ok {
                    flight::emit(EventKind::McViolation, seq, 0);
                }
                ok
            }
        };
        if ok {
            return false;
        }
        // A violating class: keep this run if it ranks lowest. (A
        // decided twin is still a violating leaf: tighten pruning.)
        let mut v = self.violation.lock().expect(POISON);
        if v.as_ref().is_none_or(|w| seed < w.seed) {
            *v = Some(Counterexample {
                trace: r.trace.clone(),
                decisions: r.decisions.clone(),
                seed,
            });
        }
        true
    }

    /// Fold the judge's state into the driver's `verdict`.
    fn conclude(self, mut verdict: Verdict) -> Verdict {
        verdict.stats.schedules = verdict.runs as u64;
        verdict.stats.truncated = verdict.truncated as u64;
        verdict.stats.dedup_hits = self.dedup_hits.into_inner();
        verdict.stats.histories_checked = self.histories_checked.into_inner();
        verdict.stats.memo_hits = self.memo_hits.into_inner();
        verdict.violation = self.violation.into_inner().expect(POISON);
        verdict.ok = verdict.violation.is_none();
        verdict
    }
}

/// The exhaustive serial sweep — `Sweep::new(..).run()`.
pub fn check_all_traces(
    program: &Program,
    algo: &dyn TmAlgo,
    entry: &ModelEntry,
    kind: CheckKind,
    max_steps: usize,
) -> Verdict {
    Sweep::new(program, algo, entry, kind, max_steps).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::{GlobalLockTm, SkipWriteTm};
    use crate::program::{Stmt, ThreadProg, TxOp};
    use jungle_core::ids::X;
    use jungle_core::model::{Relaxed, Sc};
    use jungle_core::registry::{entry as registry_entry, ExecSemantics};

    /// The old (hw = TSO machine, SC checker) pairing used by these
    /// tests, as an explicit custom entry.
    fn sc_on_tso() -> ModelEntry {
        ModelEntry::new("SC", &Sc, ExecSemantics::TSO_FWD, "test pairing")
    }

    #[test]
    fn single_thread_global_lock_always_opaque() {
        let p = Program(vec![ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 1), TxOp::Read(X)]),
            Stmt::NtRead(X),
        ])]);
        let v = check_all_traces(
            &p,
            &GlobalLockTm,
            &ModelEntry::checker_game(&Sc),
            CheckKind::Opacity,
            1_000,
        );
        assert!(v.ok, "violation: {:?}", v.violation);
        assert_eq!(v.runs, 1); // single thread → single schedule
                               // Exploration stats are recorded alongside the verdict.
        assert_eq!(v.stats.schedules, 1);
        assert_eq!(v.stats.histories_checked, 1);
        assert_eq!(v.stats.model, "SC");
        assert_eq!(v.stats.machine.model, "SC");
        assert!(v.stats.machine.steps > 0);
    }

    #[test]
    fn skip_write_violates_even_single_threaded() {
        // Lemma 1's scenario: a committed transactional write followed
        // by an uninstrumented read of the same variable.
        let p = Program(vec![ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 5)]),
            Stmt::NtRead(X),
        ])]);
        let v = check_all_traces(
            &p,
            &SkipWriteTm,
            &ModelEntry::checker_game(&Relaxed),
            CheckKind::Opacity,
            1_000,
        );
        assert!(!v.ok);
        assert!(v.violation.is_some());
    }

    #[test]
    fn random_sampling_agrees_on_simple_case() {
        let p = Program(vec![ThreadProg(vec![
            Stmt::txn(vec![TxOp::Write(X, 5)]),
            Stmt::NtRead(X),
        ])]);
        let good = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, 5)),
            ..Sweep::new(
                &p,
                &GlobalLockTm,
                &ModelEntry::checker_game(&Sc),
                CheckKind::Opacity,
                1_000,
            )
        }
        .run();
        assert!(good.ok);
        assert_eq!(good.runs, 5);
        let bad = Sweep {
            schedules: Schedules::Random(SweepSeeds::new(0, 5)),
            ..Sweep::new(
                &p,
                &SkipWriteTm,
                &ModelEntry::checker_game(&Sc),
                CheckKind::Opacity,
                1_000,
            )
        }
        .run()
        .violation;
        assert!(bad.is_some());
    }

    #[test]
    fn sweep_seeds_are_explicit_and_reproducible() {
        assert_eq!(
            SweepSeeds::new(7, 3).iter().collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        let run = |seeds| {
            Sweep {
                schedules: Schedules::Random(seeds),
                ..Sweep::new(&p, &GlobalLockTm, &sc_on_tso(), CheckKind::Opacity, 2_000)
            }
            .run()
        };
        let a = run(SweepSeeds::new(11, 6));
        let b = run(SweepSeeds::new(11, 6));
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
        assert_eq!(a.stats.machine.steps, b.stats.machine.steps);
    }

    #[test]
    fn exhaustive_sweep_ignores_parallel() {
        let two_thread = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        for (algo, expect_ok) in [
            (&GlobalLockTm as &dyn TmAlgo, true),
            (&SkipWriteTm as &dyn TmAlgo, false),
        ] {
            let serial =
                check_all_traces(&two_thread, algo, &sc_on_tso(), CheckKind::Opacity, 4_000);
            assert_eq!(serial.ok, expect_ok);
            for threads in [2, 4] {
                let par = Sweep {
                    parallel: Some(ParallelConfig::with_threads(threads)),
                    ..Sweep::new(&two_thread, algo, &sc_on_tso(), CheckKind::Opacity, 4_000)
                }
                .run();
                assert_eq!(par.ok, serial.ok, "threads={threads}");
                assert_eq!(par.stats.workers, 0, "one serial search");
                assert_eq!(par.stats.dpor_executed, serial.stats.dpor_executed);
                assert_eq!(
                    par.violation.as_ref().map(|c| c.trace.cache_key()),
                    serial.violation.as_ref().map(|c| c.trace.cache_key()),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_random_matches_serial_verdict() {
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        let seeds = SweepSeeds::new(0, 24);
        for (algo, expect_ok) in [
            (&GlobalLockTm as &dyn TmAlgo, true),
            (&SkipWriteTm as &dyn TmAlgo, false),
        ] {
            let serial = Sweep {
                schedules: Schedules::Random(seeds),
                ..Sweep::new(&p, algo, &sc_on_tso(), CheckKind::Opacity, 4_000)
            }
            .run();
            assert_eq!(serial.ok, expect_ok);
            for threads in [2, 4] {
                let par = Sweep {
                    schedules: Schedules::Random(seeds),
                    parallel: Some(ParallelConfig::with_threads(threads)),
                    ..Sweep::new(&p, algo, &sc_on_tso(), CheckKind::Opacity, 4_000)
                }
                .run();
                assert_eq!(par.ok, serial.ok, "threads={threads}");
                assert_eq!(par.stats.workers, threads as u64);
                if !expect_ok {
                    assert!(par.violation.is_some());
                }
            }
        }
    }

    #[test]
    fn shared_memo_reuses_verdicts_across_sweeps() {
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        let memo = SharedVerdictMemo::new();
        let cfg = ParallelConfig::with_threads(1);
        let e = sc_on_tso();
        let a = Sweep {
            parallel: Some(cfg),
            memo: Some(&memo),
            ..Sweep::new(&p, &GlobalLockTm, &e, CheckKind::Opacity, 4_000)
        }
        .run();
        assert!(a.ok);
        assert!(!memo.is_empty());
        let after_first = memo.hits();
        // An identical second sweep answers every history from the memo.
        let b = Sweep {
            parallel: Some(cfg),
            memo: Some(&memo),
            ..Sweep::new(&p, &GlobalLockTm, &e, CheckKind::Opacity, 4_000)
        }
        .run();
        assert!(b.ok);
        assert!(
            memo.hits() > after_first,
            "second sweep must hit the shared memo"
        );
        assert!(b.stats.memo_hits > 0);
    }

    #[test]
    fn memo_persists_and_preloads_across_runs() {
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        let e = registry_entry("SC").unwrap();
        let cfg = ParallelConfig::with_threads(1);
        let memo = SharedVerdictMemo::new();
        let a = Sweep {
            parallel: Some(cfg),
            memo: Some(&memo),
            ..Sweep::new(&p, &GlobalLockTm, e, CheckKind::Opacity, 4_000)
        }
        .run();
        assert!(a.ok);
        assert!(!memo.is_empty());
        assert_eq!(memo.cross_run_hits(), 0, "nothing preloaded yet");

        let dir = std::env::temp_dir().join(format!("jungle-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = memo.save_dir(&dir).unwrap();
        assert_eq!(written, memo.len());

        // A fresh memo in a "new run" preloads the verdicts and answers
        // every history from disk.
        let fresh = SharedVerdictMemo::new();
        let loaded = fresh.load_dir(&dir).unwrap();
        assert_eq!(loaded, written);
        assert_eq!(fresh.preloaded_entries(), loaded as u64);
        let b = Sweep {
            parallel: Some(cfg),
            memo: Some(&fresh),
            ..Sweep::new(&p, &GlobalLockTm, e, CheckKind::Opacity, 4_000)
        }
        .run();
        assert!(b.ok);
        assert!(
            fresh.cross_run_hits() > 0,
            "second run must hit the preloaded verdicts"
        );
        assert_eq!(fresh.cross_run_hits(), fresh.hits());

        // A missing directory is a clean no-op.
        assert_eq!(
            SharedVerdictMemo::new()
                .load_dir(&dir.join("missing"))
                .unwrap(),
            0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dedup_skips_structurally_identical_traces() {
        // Two threads racing on the TSO simulator produce many
        // instruction interleavings that collapse to identical
        // operation structures.
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)]), Stmt::NtRead(X)]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        let v = check_all_traces(&p, &GlobalLockTm, &sc_on_tso(), CheckKind::Opacity, 4_000);
        assert!(v.ok);
        assert!(
            v.stats.dedup_hits > 0,
            "expected duplicate traces: {:?}",
            v.stats
        );
        // Dedup means strictly fewer checker invocations than schedules.
        assert!(v.stats.histories_checked + v.stats.dedup_hits <= v.stats.schedules);
        assert_eq!(v.stats.workers, 0); // serial sweep
    }

    #[test]
    fn rmo_registry_sweep_smoke() {
        // One matched-model sweep on the RMO registry entry: the
        // global-lock TM stays RMO-opaque on the Figure 1 program even
        // when the machine itself executes RMO (stale loads included).
        let p = Program(vec![
            ThreadProg(vec![Stmt::txn(vec![TxOp::Write(X, 1)])]),
            ThreadProg(vec![Stmt::NtRead(X)]),
        ]);
        let e = registry_entry("RMO").unwrap();
        let v = check_all_traces(&p, &GlobalLockTm, e, CheckKind::Opacity, 6_000);
        assert!(v.ok, "violation: {:?}", v.violation);
        assert_eq!(v.stats.model, "RMO");
        assert_eq!(v.stats.machine.model, "RMO");
        assert!(
            v.stats.machine.stale_loads > 0,
            "RMO execution must have explored stale reads: {:?}",
            v.stats.machine
        );
    }
}
